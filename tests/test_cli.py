"""Command-line front end tests: exit codes, output formats, generation."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest

import opacheck
from opacheck import (
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    IfsoInstance,
    IsoInstance,
    LboInstance,
    classify,
    cso_to_lbo,
    gen_cnf_cso,
    gen_dag_cso_unary,
    gen_dag_weak_lbo,
    lbo_to_iso,
)
from opacheck import cli
from opacheck.cli import main
from opacheck.jsonio import (
    automaton_from_dict,
    automaton_to_dict,
    dumps,
    instance_from_dict,
    instance_to_dict,
)

from helpers import ALPHABET_1OBS_1UO, ALPHABET_2OBS_1UO, make_rng, rand_automaton, rand_dfa

TWO_CLAUSE = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))
TWO_CLAUSE_DIMACS = "c demo\np cnf 3 2\n1 2 3 0\n-1 2 3 0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_instance(tmp_path, name, instance, metadata=None):
    return write(tmp_path, name, dumps(instance_to_dict(instance, metadata)))


def child_imports(argv):
    """Run ``opacheck ARGV`` in a fresh interpreter under ``-X importtime``:
    the finished process, and every module it loaded before it exited."""
    src = str(Path(opacheck.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "opacheck.cli", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    return done, imported


# JSON nested deeper than the decoder's recursion limit.
DEEP_JSON = "[" * 100_000


def cso_files_verify_rejects(tmp_path):
    """A CSO file with an extra key and one without ``secret``, each with
    the reason ``verify --notion cso`` gives."""
    data = instance_to_dict(gen_cnf_cso(TWO_CLAUSE))
    extra = write(tmp_path, "extra.json", dumps({**data, "junk": []}))
    del data["secret"]
    lacking = write(tmp_path, "lacking.json", dumps(data))
    return [(extra, "cso instance has unknown keys: ['junk']"),
            (lacking, "cso instance is missing keys: ['secret']")]


def assert_input_error(argv, capsys):
    """``argv`` exits 2 with one ``error:`` line on stderr and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Every command that reads files, as the arguments before the file, and
# whether the file is DIMACS rather than JSON.
READING_COMMANDS = [
    (["verify", "--notion", "cso"], False),
    (["gen", "cnf"], True),
    (["gen", "dag-weak-lbo"], False),
    (["gen", "dag-unary-cso"], False),
    (["gen", "cso2lbo"], False),
    (["gen", "lbo2iso"], False),
    (["gen", "union"], False),
    (["gen", "po-det", "--chain-event", "a"], False),
    (["classify"], False),
    (["dot"], False),
    (["oracle", "sat"], True),
    (["oracle", "dag-reach"], False),
    (["oracle", "enum-cso"], False),
]


@pytest.mark.parametrize("problem", ["missing", "malformed"])
@pytest.mark.parametrize(
    "command, dimacs", READING_COMMANDS, ids=[" ".join(c[:2]) for c, _ in READING_COMMANDS]
)
def test_every_reading_command_names_the_file(tmp_path, capsys, command, dimacs, problem):
    path = str(tmp_path / "input")
    if problem == "malformed":
        write(tmp_path, "input", "p cnf 1 1\n1 x 0\n" if dimacs else "{ nope")
    assert main([*command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1
    assert captured.err.count(path) == 1


class TestVerify:
    def test_transparent_instance_exits_one_with_witness(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        code = main(["verify", "--notion", "cso", "--witness", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "current-state opacity: violated" in out
        assert "witness observation: 001" in out
        assert "witness string: 001" in out

    def test_empty_secret_exits_zero(self, tmp_path):
        inst = gen_cnf_cso(TWO_CLAUSE)
        empty = type(inst)(inst.automaton, frozenset(), inst.nonsecret)
        path = write_instance(tmp_path, "inst.json", empty)
        assert main(["verify", "--notion", "cso", path]) == 0

    def test_weak_opacity_holds_with_witness(self, tmp_path, capsys):
        g = Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2)
        path = write_instance(tmp_path, "weak.json", gen_dag_weak_lbo(g))
        code = main(["verify", "--notion", "lbo-weak", "--witness", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "language-based weak opacity: holds" in out
        assert "witness observation: aa" in out

    def test_json_output_matches_text_verdict(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        code = main(["verify", "--notion", "cso", "--output", "json", path])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["holds"] is False
        assert report["witness"]["observation"] == ["0", "0", "1"]
        assert report["algorithm"] == "observer"
        assert report["classification"]["acyclic"] is True
        assert report["time_seconds"] >= 0

        # "algorithm" names the code that ran, for every notion
        def algorithm(notion, instance, *options):
            path = write_instance(tmp_path, f"{notion}.json", instance)
            main(["verify", "--notion", notion, "--output", "json", *options, path])
            return json.loads(capsys.readouterr().out)["algorithm"]

        unary = gen_dag_cso_unary(Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2))
        assert algorithm("cso", unary) == "unary-po"
        assert algorithm("cso", unary, "--algorithm", "inclusion") == "unary-po"
        assert algorithm("cso", unary, "--algorithm", "observer") == "observer"
        assert algorithm("lbo", cso_to_lbo(unary)) == "unary-po"
        cnf = gen_cnf_cso(TWO_CLAUSE)
        assert algorithm("cso", cnf) == "observer"
        assert algorithm("lbo", cso_to_lbo(cnf)) == "inclusion"
        weak = gen_dag_weak_lbo(Dag(2, frozenset({(0, 1)}), 0, 1))
        assert algorithm("lbo-weak", weak) == "product"

    def test_json_classification_is_flat_or_keyed_by_automaton(self, tmp_path, capsys):
        # one automaton gives a flat report; LBO's two give one report per automaton
        cnf = gen_cnf_cso(TWO_CLAUSE)
        a = cnf.automaton
        pair = (sorted(a.initial)[0], sorted(a.states)[0])
        lbo = cso_to_lbo(cnf)
        flat = {
            "cso": cnf,
            "iso": IsoInstance(a, a.initial, frozenset()),
            "ifso": IfsoInstance(a, {pair}, frozenset()),
        }
        for notion, instance in flat.items():
            path = write_instance(tmp_path, f"{notion}.json", instance)
            main(["verify", "--notion", notion, "--output", "json", path])
            report = json.loads(capsys.readouterr().out)
            assert report["classification"] == asdict(classify(a))
        for notion in ("lbo", "lbo-weak"):
            path = write_instance(tmp_path, f"{notion}.json", lbo)
            main(["verify", "--notion", notion, "--output", "json", path])
            report = json.loads(capsys.readouterr().out)
            assert report["classification"] == {
                "secret_automaton": asdict(classify(lbo.secret_automaton)),
                "nonsecret_automaton": asdict(classify(lbo.nonsecret_automaton)),
            }

    def test_algorithm_flag_only_for_cso(self, tmp_path, capsys):
        g = Dag(2, frozenset({(0, 1)}), 0, 1)
        path = write_instance(tmp_path, "weak.json", gen_dag_weak_lbo(g))
        code = main(["verify", "--notion", "lbo-weak", "--algorithm", "observer", path])
        assert code == 2
        # the usage error comes before any file is read, so a missing one is not named
        missing = str(tmp_path / "missing.json")
        assert main(["verify", "--notion", "lbo", "--algorithm", "inclusion", missing]) == 2
        assert capsys.readouterr().err == (
            "error: --algorithm can only be chosen for --notion cso\n" * 2)

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", "{ nope")
        assert main(["verify", "--notion", "cso", path]) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert err.count(path) == 1
        deep = write(tmp_path, "deep.json", DEEP_JSON)
        assert_input_error(["verify", "--notion", "cso", deep], capsys)

    def test_unreadable_file_spares_the_other_files(self, tmp_path, capsys):
        inst = gen_cnf_cso(TWO_CLAUSE)
        good = write_instance(tmp_path, "good.json", inst)
        missing = str(tmp_path / "missing.json")
        undecodable = tmp_path / "latin.json"
        undecodable.write_bytes(b"\xff\xfe")
        other = write_instance(tmp_path, "other.json", inst)
        files = [good, missing, str(undecodable), other]
        assert main(["verify", "--notion", "cso", *files]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            f"{good}: current-state opacity: violated",
            f"{other}: current-state opacity: violated",
        ]
        errors = captured.err.splitlines()
        assert [line.split(": ")[1] for line in errors] == [missing, str(undecodable)]
        assert [line.count(path) for line, path in zip(errors, files[1:3])] == [1, 1]
        assert main(["verify", "--notion", "cso", "--output", "json", *files]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["results"]
        assert [r["file"] for r in payload["results"]] == [good, other]

    def test_unknown_state_reference_exits_two(self, tmp_path, capsys):
        inst = gen_cnf_cso(TWO_CLAUSE)
        d = instance_to_dict(inst)
        d["secret"] = ["ghost"]
        path = write(tmp_path, "bad.json", dumps(d))
        assert main(["verify", "--notion", "cso", path]) == 2

    def test_overlap_warning_on_stderr(self, tmp_path, capsys):
        inst = gen_cnf_cso(TWO_CLAUSE)
        overlapping = type(inst)(inst.automaton, inst.nonsecret, inst.nonsecret)
        path = write_instance(tmp_path, "inst.json", overlapping)
        assert main(["verify", "--notion", "cso", path]) == 0
        assert "both secret and non-secret" in capsys.readouterr().err
        other = write_instance(tmp_path, "other.json", overlapping)
        assert main(["verify", "--notion", "cso", path, other]) == 0
        count = len(overlapping.secret & overlapping.nonsecret)
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {p}: {count} state(s) are both secret and non-secret"
            for p in (path, other)
        ]

    def test_multiple_files_aggregate_exit_code(self, tmp_path, capsys):
        inst = gen_cnf_cso(TWO_CLAUSE)
        opaque = type(inst)(inst.automaton, frozenset(), inst.nonsecret)
        p1 = write_instance(tmp_path, "a.json", opaque)
        p2 = write_instance(tmp_path, "b.json", inst)
        assert main(["verify", "--notion", "cso", p1, p2]) == 1
        out = capsys.readouterr().out
        assert "a.json" in out and "b.json" in out

    def test_inapplicable_forced_algorithm_exits_two(self, tmp_path):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        assert main(["verify", "--notion", "cso", "--algorithm", "unary-po", path]) == 2
        # a self-loop is partially ordered but not acyclic
        loop = Automaton(("p",), (Event("a"),), {("p", "a", "p")}, {"p"})
        path = write_instance(tmp_path, "loop.json", CsoInstance(loop, {"p"}, frozenset()))
        assert main(["verify", "--notion", "cso", "--algorithm", "unary-po", path]) == 1
        # the acyclic-only name was folded into unary-po and is no longer a choice
        with pytest.raises(SystemExit) as refused:
            main(["verify", "--notion", "cso", "--algorithm", "unary-acyclic", path])
        assert refused.value.code == 2

    def test_verify_loads_no_generator_or_oracle_module(self, tmp_path):
        one = Automaton(("p",), (Event("a"),), set(), {"p"})
        path = write_instance(tmp_path, "one.json", CsoInstance(one, {"p"}, set()))
        script = (
            "import sys\n"
            "from opacheck import cli\n"
            f"code = cli.main(['verify', '--notion', 'cso', '--output', 'json', {path!r}])\n"
            "print(code, sorted(m for m in ('opacheck.gadgets', 'opacheck.oracles')"
            " if m in sys.modules))\n"
        )
        src = str(Path(opacheck.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines()[-1] == "1 []"

    @pytest.mark.parametrize("notion, algorithm", [
        ("cso", "auto"), ("cso", "inclusion"), ("lbo", "auto"), ("lbo-weak", "auto"),
        ("iso", "auto"), ("ifso", "auto"),
    ])
    def test_verify_child_never_imports_dataclasses(self, tmp_path, notion, algorithm):
        # Importing dataclasses was a large share of a verify child's start-up.
        # The import trace lists every module the child loaded before it exited.
        # The modules that only gen, classify and the oracles need stay unloaded
        # too, whether or not they import dataclasses, and so does the
        # projected-language layer on the observer route (the cso/auto row: a
        # CNF instance has two observable events).  The trace never lists
        # opacheck.cli: the child runs it as __main__, so that entry would mean
        # some module imported it, running the file a second time.
        cso = gen_cnf_cso(TWO_CLAUSE)
        lbo = cso_to_lbo(cso)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            iso = lbo_to_iso(lbo).instance
        a = cso.automaton
        instances = {
            "cso": cso, "lbo": lbo, "iso": iso,
            "lbo-weak": gen_dag_weak_lbo(Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2)),
            "ifso": IfsoInstance(a, {(i, s) for i in a.initial for s in cso.secret},
                                 {(i, s) for i in a.initial for s in cso.nonsecret}),
        }
        path = write_instance(tmp_path, f"{notion}.json", instances[notion])
        done, imported = child_imports(
            ["verify", "--notion", notion, "--algorithm", algorithm, "--output", "json", path])
        assert done.returncode in (0, 1), done.stderr
        assert json.loads(done.stdout)["notion"] == notion
        assert {"opacheck.automata", "opacheck.opacity", "opacheck.jsonio"} <= imported
        assert "dataclasses" not in imported
        assert not imported & {"opacheck.gadgets", "opacheck.structure", "opacheck.oracles",
                               "opacheck.commands", "opacheck.cli"}
        observer = (notion, algorithm) == ("cso", "auto")
        assert (json.loads(done.stdout)["algorithm"] == "observer") == observer
        assert ("opacheck.language" in imported) != observer

    def test_tiny_observer_cap_fails_loudly(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        assert main(["verify", "--notion", "cso", "--observer-cap", "1", path]) == 2
        assert "cap of 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "gen cnf", "gen dag-weak-lbo", "gen dag-unary-cso", "gen union", "gen po-det",
    "gen cso2lbo", "gen lbo2iso", "dot", "classify", "oracle sat", "oracle dag-reach",
    "oracle enum-cso",
], ids=lambda command: command.replace(" ", "-"))
def test_no_command_child_imports_dataclasses(tmp_path, command):
    # Like verify's, every other command's start-up stays free of dataclasses:
    # the generators' results are records, and no command builds the report of
    # classify, so opacheck.structure stays unloaded too.  Each loads the
    # module of its handler, opacheck.commands, and none loads opacheck.cli
    # a second time.  Only lbo2iso trims, so only it loads the language layer.
    cnf = write(tmp_path, "two.cnf", TWO_CLAUSE_DIMACS)
    dag = write(tmp_path, "dag.json", json.dumps(
        {"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0, "t": 2}))
    cso = write_instance(tmp_path, "cso.json", gen_cnf_cso(TWO_CLAUSE))
    lbo = write_instance(tmp_path, "lbo.json", cso_to_lbo(gen_cnf_cso(TWO_CLAUSE)))
    dfa = Automaton(("p", "q"), (Event("a"),), {("p", "a", "q"), ("q", "a", "p")}, {"p"}, {"q"})
    po = Automaton(("p", "q", "r"), (Event("a"),), {("p", "a", "q"), ("p", "a", "r")}, {"p", "q"})
    dfa_file = write(tmp_path, "dfa.json", dumps(automaton_to_dict(dfa)))
    po_file = write(tmp_path, "po.json", dumps(automaton_to_dict(po)))
    # each command's arguments and a module its trace must show
    argv, needed = {
        "gen cnf": ([cnf], "opacheck.gadgets"),
        "gen dag-weak-lbo": ([dag], "opacheck.gadgets"),
        "gen dag-unary-cso": ([dag], "opacheck.gadgets"),
        "gen union": ([dfa_file, dfa_file], "opacheck.gadgets"),
        "gen po-det": ([po_file, "--chain-event", "a"], "opacheck.gadgets"),
        "gen cso2lbo": ([cso], "opacheck.gadgets"),
        "gen lbo2iso": ([lbo], "opacheck.gadgets"),
        "dot": ([cso], "opacheck.gadgets"),
        "classify": ([lbo, "--output", "json"], "opacheck.jsonio"),
        "oracle sat": ([cnf], "opacheck.oracles"),
        "oracle dag-reach": ([dag], "opacheck.oracles"),
        "oracle enum-cso": ([cso], "opacheck.oracles"),
    }[command]
    done, imported = child_imports([*command.split(), *argv])
    assert done.returncode in (0, 1), done.stderr
    assert done.stdout and "Traceback" not in done.stderr
    assert {"opacheck.jsonio", "opacheck.commands", needed} <= imported
    assert not imported & {"dataclasses", "opacheck.structure", "opacheck.cli"}
    assert ("opacheck.language" in imported) == (command == "gen lbo2iso")
    if command in ("classify", "oracle enum-cso"):
        # neither needs a generator: the oracles name gadgets' types only in annotations
        assert "opacheck.gadgets" not in imported


# Command lines that argparse itself ends: help, and usage errors.
GEN_KINDS = ("cnf", "dag-weak-lbo", "dag-unary-cso", "cso2lbo", "lbo2iso", "union", "po-det")
ORACLE_KINDS = ("sat", "dag-reach", "enum-cso")
ARGPARSE_EXITS = [
    [], ["-h"], ["bogus"], ["--", "verify"],
    *([command, "-h"] for command in cli.COMMANDS),
    *(["gen", kind, "-h"] for kind in GEN_KINDS),
    *(["oracle", kind, "-h"] for kind in ORACLE_KINDS),
    # a missing argument
    ["verify", "--notion", "cso"], ["gen"], ["gen", "cnf"], ["gen", "po-det", "f.json"],
    ["classify"], ["oracle"], ["oracle", "enum-cso"], ["dot"],
    # a bad choice (dot has none)
    ["verify", "--notion", "bogus", "f.json"], ["verify", "--notion", "cso", "--algorithm",
                                                "bogus", "f.json"],
    ["gen", "bogus"], ["classify", "--output", "bogus", "f.json"], ["oracle", "bogus"],
    # an unknown option, which the top-level parser reports with its own usage
    ["verify", "--notion", "cso", "--bogus", "f.json"], ["gen", "cnf", "--bogus", "f.cnf"],
    ["classify", "--bogus", "f.json"], ["oracle", "sat", "--bogus", "f.cnf"],
    ["dot", "--bogus", "f.json"],
]


@pytest.mark.parametrize("argv", ARGPARSE_EXITS, ids=lambda argv: " ".join(argv) or "none")
def test_a_commands_own_parser_prints_what_the_whole_parser_prints(argv, capsys):
    # main fills in only the arguments of the command it is given; the bytes
    # and status must be those of the parser that has every command's
    with pytest.raises(SystemExit) as whole:
        cli.build_parser().parse_args(argv)
    expected = (whole.value.code, *capsys.readouterr())
    with pytest.raises(SystemExit) as own:
        main(argv)
    assert (own.value.code, *capsys.readouterr()) == expected


@pytest.mark.parametrize("argv", [
    ["verify", "--notion", "lbo", "--witness", "a.json", "b.json"],
    ["gen", "cnf", "f.cnf"],
    ["gen", "dag-weak-lbo", "f.json"],
    ["gen", "dag-unary-cso", "f.json"],
    ["gen", "cso2lbo", "f.json"],
    ["gen", "lbo2iso", "f.json"],
    ["gen", "union", "f.json", "g.json"],
    ["gen", "po-det", "--chain-event", "a", "f.json"],
    ["classify", "--output", "json", "f.json"],
    ["oracle", "enum-cso", "--witness", "f.json"],
    ["dot", "f.json", "-o", "out.dot"],
], ids=lambda argv: "-".join(argv[:2] if argv[0] in ("gen", "oracle") else argv[:1]))
def test_a_commands_own_parser_reads_what_the_whole_parser_reads(argv):
    own, whole = (vars(cli.build_parser(command).parse_args(argv)) for command in (argv[0], None))
    own.pop("func"), whole.pop("func")
    assert own == whole


# Runs each argv through ``cli.main`` and prints one JSON list of
# [exit code, stdout, stderr] triples, with the timing line of JSON reports removed.
HASH_SEED_CHILD = """
import contextlib, io, json, re, sys
from opacheck import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, re.sub(r'\\n *"time_seconds": [^\\n]*', '', out.getvalue()),
                    err.getvalue()])
print(json.dumps(results))
"""


def run_under_hash_seeds(commands):
    """The child's results for ``commands`` under ``PYTHONHASHSEED`` 0 and 1."""
    src = str(Path(opacheck.__file__).resolve().parent.parent)
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        runs.append(json.loads(subprocess.run(
            [sys.executable, "-c", HASH_SEED_CHILD, json.dumps(commands)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout))
    return runs


def hash_seed_commands(tmp_path):
    """Commands over small instances of every notion, with several initial
    states and unobservable cycles, plus the name-allocating generators."""
    rng = make_rng("hash-seed")
    cycle = {("q0", "u", "q1"), ("q1", "u", "q2"), ("q2", "u", "q0")}
    commands = []
    for k in range(6):
        a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6, initial_max=3)
        states = set(a.states)
        a = Automaton(a.states, a.alphabet, a.transitions | {
            t for t in cycle if {t[0], t[2]} <= states}, a.initial, a.marked)
        half = set(rng.sample(a.states, len(a.states) // 2))
        initials = sorted(a.initial)
        b = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5)
        unary = rand_automaton(rng, ALPHABET_1OBS_1UO, max_states=6, structure="po",
                               initial_max=3)
        instances = {
            "cso": [CsoInstance(a, half, states - half),
                    CsoInstance(unary, {unary.states[-1]}, set(unary.states[:-1]))],
            "iso": [IsoInstance(a, set(initials[:1]), set(initials[1:]))],
            "ifso": [IfsoInstance(a, {(i, s) for i in initials for s in half},
                                  {(initials[-1], a.states[0])})],
            "lbo": [LboInstance(a, b)],
            "lbo-weak": [LboInstance(a, b.with_marked(b.states[-1:]))],
        }
        for notion, cases in instances.items():
            for n, inst in enumerate(cases):
                path = write_instance(tmp_path, f"{notion}{k}_{n}.json", inst)
                commands.append(["verify", "--notion", notion, "--output", "json", path])
                commands.append(["verify", "--notion", notion, "--witness", path])
                commands.append(["classify", "--output", "json", path])
        commands.append(["gen", "lbo2iso", write_instance(tmp_path, f"l{k}.json", LboInstance(a, b))])
        po = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6, structure="po", initial_max=3)
        po_path = write(tmp_path, f"po{k}.json", dumps(automaton_to_dict(po)))
        commands.append(["gen", "po-det", po_path, "--chain-event", "a"])
        dfas = [write(tmp_path, f"d{k}_{n}.json", dumps(automaton_to_dict(rand_dfa(rng))))
                for n in range(3)]
        commands.append(["gen", "union", *dfas])
    return commands


class TestDeterminism:
    def test_output_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        commands = hash_seed_commands(tmp_path)
        runs = run_under_hash_seeds(commands)
        assert runs[0] == runs[1]
        results = runs[0]
        assert len(results) == len(commands)
        # the comparison covers violations with witnesses, not only empty output
        assert {code for code, _, _ in results} == {0, 1}
        assert sum("witness observation" in out for _, out, _ in results) >= 5

    def test_validation_errors_name_the_least_offender(self, tmp_path):
        # Each file has several offenders, so a message naming whichever one
        # a set yields first would change with the hash seed.
        def automaton(transitions=(), marked=()):
            return {"alphabet": [{"name": "a", "observable": True}], "states": ["p", "q"],
                    "initial": ["p"], "marked": list(marked), "transitions": list(transitions)}
        zz = [f"zz{k}" for k in range(1, 6)]
        files = {
            "cso": [
                {"automaton": automaton(transitions=[["p", "a", z] for z in zz]),
                 "secret": ["p"], "nonsecret": []},
                {"automaton": automaton(marked=zz), "secret": ["p"], "nonsecret": []},
            ],
            # undeclared finals and non-initial starts: two kinds of error
            "ifso": [{"automaton": automaton(),
                      "secret_pairs": [["p", z] for z in zz[:3]] + [["q", "p"], ["q", "q"]],
                      "nonsecret_pairs": []}],
        }
        commands = [
            ["verify", "--notion", notion, write(tmp_path, f"{notion}{n}.json", json.dumps(d))]
            for notion, cases in files.items() for n, d in enumerate(cases)
        ]
        runs = run_under_hash_seeds(commands)
        assert runs[0] == runs[1]
        assert [(code, err.split(": ", 2)[2]) for code, _, err in runs[0]] == [
            (2, "transition ('p', 'a', 'zz1') uses an undeclared state\n"),
            (2, "'zz1' is not a declared state\n"),
            (2, "pair ('p', 'zz1') uses an undeclared state\n"),
        ]


class TestGen:
    def test_cnf_emits_twelve_state_instance(self, tmp_path, capsys):
        path = write(tmp_path, "demo.cnf", TWO_CLAUSE_DIMACS)
        assert main(["gen", "cnf", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["automaton"]["states"]) == 12

    def test_cnf_rejects_complementary_clause(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cnf", "p cnf 1 1\n1 -1 0\n")
        assert main(["gen", "cnf", path]) == 2

    def test_gen_then_verify_pipeline(self, tmp_path, capsys):
        dag = write(tmp_path, "dag.json", json.dumps(
            {"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0, "t": 2}
        ))
        assert main(["gen", "dag-unary-cso", dag]) == 0
        inst_path = write(tmp_path, "inst.json", capsys.readouterr().out)
        assert main(["verify", "--notion", "cso", inst_path]) == 1

    def test_po_det_identity_on_deterministic_input(self, tmp_path, capsys):
        d = {
            "alphabet": [{"name": "0", "observable": True}, {"name": "1", "observable": True}],
            "states": ["p", "q"],
            "initial": ["p"],
            "marked": [],
            "transitions": [["p", "0", "q"]],
        }
        path = write(tmp_path, "a.json", json.dumps(d))
        assert main(["gen", "po-det", path, "--chain-event", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metadata = payload.pop("metadata")
        assert payload == d  # an automaton file, with its metadata next to its keys
        assert metadata["unobservable_event"] is None

    def test_po_det_on_instance_keeps_status_sets(self, tmp_path, capsys):
        d = {
            "automaton": {
                "alphabet": [
                    {"name": "0", "observable": True},
                    {"name": "1", "observable": True},
                ],
                "states": ["p", "q", "r"],
                "initial": ["p"],
                "marked": [],
                "transitions": [["p", "0", "q"], ["p", "0", "r"]],
            },
            "secret": ["q"],
            "nonsecret": ["r"],
        }
        path = write(tmp_path, "inst.json", json.dumps(d))
        assert main(["gen", "po-det", path, "--chain-event", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["secret"] == ["q"] and payload["nonsecret"] == ["r"]
        assert payload["metadata"]["encoding"]

    def test_po_det_names_the_missing_key_of_a_cso_file(self, tmp_path, capsys):
        automaton = {"alphabet": [{"name": "a", "observable": True}], "states": ["p"],
                     "initial": ["p"], "marked": [], "transitions": []}
        path = write(tmp_path, "inst.json", json.dumps({"automaton": automaton, "nonsecret": []}))
        assert main(["gen", "po-det", path, "--chain-event", "a"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: cso instance is missing keys: ['secret']\n"
        )

    def test_po_det_on_its_own_output_changes_nothing(self, tmp_path, capsys):
        a = Automaton(
            ("p", "q", "r"), ALPHABET_1OBS_1UO,
            {("p", "a", "q"), ("p", "a", "r"), ("q", "u", "r")}, {"p", "q"},
        )
        path = write(tmp_path, "a.json", dumps(automaton_to_dict(a)))
        assert main(["gen", "po-det", path, "--chain-event", "a"]) == 0
        once = capsys.readouterr().out
        assert json.loads(once)["metadata"]["encoding"]
        assert main(["gen", "po-det", write(tmp_path, "once.json", once),
                     "--chain-event", "a"]) == 0
        twice = json.loads(capsys.readouterr().out)
        metadata = twice.pop("metadata")
        assert twice == {k: v for k, v in json.loads(once).items() if k != "metadata"}
        assert metadata == {"encoding": [], "initial_chain": [], "unobservable_event": None}

    def test_po_det_output_of_a_dfa_is_a_union_component(self, tmp_path, capsys):
        base = {
            "alphabet": [{"name": "0", "observable": True}, {"name": "1", "observable": True}],
            "states": ["p", "q"],
            "initial": ["p"],
            "transitions": [["p", "0", "q"], ["p", "1", "p"], ["q", "0", "q"], ["q", "1", "q"]],
        }
        first = write(tmp_path, "first.json", json.dumps({**base, "marked": ["p"]}))
        second = write(tmp_path, "second.json", json.dumps({**base, "marked": ["q"]}))
        assert main(["gen", "po-det", first, "--chain-event", "0"]) == 0
        det = write(tmp_path, "det.json", capsys.readouterr().out)
        assert main(["gen", "union", det, second]) == 0
        from_det = capsys.readouterr()
        assert main(["gen", "union", first, second]) == 0
        assert from_det == capsys.readouterr()

    def test_lbo2iso_adds_one_query_transition_per_marked_state(self, tmp_path, capsys):
        g = Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2)
        path = write_instance(tmp_path, "lbo.json", gen_dag_weak_lbo(g))
        assert main(["gen", "lbo2iso", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        query = payload["metadata"]["query_event"]
        query_edges = [t for t in payload["automaton"]["transitions"] if t[1] == query]
        assert len(query_edges) == 2  # one marked state per side

    def test_lbo2iso_reports_trimming_in_one_line(self, tmp_path, capsys):
        blocking = Automaton(("0", "1"), (Event("a"),), {("0", "a", "1")}, {"0"}, {"0"})
        inst = LboInstance(blocking, blocking)  # state 1 reaches no marked state
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = lbo_to_iso(inst)
        assert result.trimmed
        expected = dumps(instance_to_dict(result.instance, metadata=result.metadata()))
        path = write_instance(tmp_path, "lbo.json", inst)
        for action in ("default", "error"):  # "error" is what ``python -W error`` sets
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main(["gen", "lbo2iso", path]) == 0
            out, err = capsys.readouterr()
            assert out == expected
            assert err == (
                "warning: language-based opacity inputs were blocking; trimmed automatically\n"
            )

    def test_union_gen_verifies(self, tmp_path, capsys):
        moves = [["e", "0", "o"], ["e", "1", "o"], ["o", "0", "e"], ["o", "1", "e"]]
        base = {
            "alphabet": [{"name": "0", "observable": True}, {"name": "1", "observable": True}],
            "states": ["e", "o"],
            "initial": ["e"],
            "transitions": moves,
        }
        p1 = write(tmp_path, "even.json", json.dumps({**base, "marked": ["e"]}))
        p2 = write(tmp_path, "odd.json", json.dumps({**base, "marked": ["o"]}))
        assert main(["gen", "union", p1, p2]) == 0
        inst_path = write(tmp_path, "union.json", capsys.readouterr().out)
        assert main(["verify", "--notion", "cso", inst_path]) == 0

    def test_union_names_the_bad_component(self, tmp_path, capsys):
        moves = [["e", "0", "o"], ["e", "1", "o"], ["o", "0", "e"], ["o", "1", "e"]]
        base = {
            "alphabet": [{"name": "0", "observable": True}, {"name": "1", "observable": True}],
            "states": ["e", "o"],
            "initial": ["e"],
            "marked": ["e"],
            "transitions": moves,
        }
        good = write(tmp_path, "good.json", json.dumps(base))
        other = write(tmp_path, "other.json", json.dumps({**base, "marked": ["o"]}))
        malformed = write(tmp_path, "malformed.json", "{ nope")
        ghost = write(tmp_path, "ghost.json", json.dumps(
            {**base, "transitions": moves + [["o", "0", "ghost"]]}
        ))
        missing = str(tmp_path / "missing.json")
        for bad, reason in (
            (malformed, "malformed JSON ("),
            (ghost, "transition ('o', '0', 'ghost') uses an undeclared state"),
            (missing, "No such file or directory"),
        ):
            assert main(["gen", "union", good, bad, other]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith(f"error: {bad}: {reason}")
            assert captured.err.count(bad) == 1

    def test_output_is_canonical_json(self, tmp_path, capsys):
        """Every gadget's output, metadata included, is the text ``json.dumps``
        gives for its own parse, and the reader of its kind reads it back to
        the same text."""
        dag = write(tmp_path, "dag.json", json.dumps(
            {"vertices": 5, "edges": [[0, 1], [1, 2], [0, 3], [3, 4], [2, 4]], "s": 0, "t": 4}
        ))
        cnf = write(tmp_path, "demo.cnf", TWO_CLAUSE_DIMACS)
        rng = make_rng("cli-canonical")
        po_automaton = Automaton(
            ("p", "q", "r", "s"), ALPHABET_1OBS_1UO,
            {("p", "a", "q"), ("p", "a", "r"), ("q", "u", "s"), ("r", "a", "s")},
            {"p", "q"},
        )
        po = write_instance(
            tmp_path, "po.json", CsoInstance(po_automaton, frozenset({"q"}), frozenset({"r", "s"}))
        )
        po_file = write(tmp_path, "po-automaton.json", dumps(automaton_to_dict(po_automaton)))
        dfas = [write(tmp_path, f"d{k}.json", dumps(automaton_to_dict(rand_dfa(rng))))
                for k in range(3)]
        lbo = write_instance(tmp_path, "lbo.json", gen_dag_weak_lbo(
            Dag(4, frozenset({(0, 1), (1, 2), (0, 2)}), 0, 3)
        ))
        # each command, whether it writes metadata, and the kind of file it writes
        for argv, has_metadata, kind in (
            (["gen", "dag-unary-cso", dag], False, "cso"),
            (["gen", "dag-weak-lbo", dag], False, "lbo-weak"),
            (["gen", "po-det", po, "--chain-event", "a"], True, "cso"),
            (["gen", "po-det", po_file, "--chain-event", "a"], True, "automaton"),
            (["gen", "cnf", cnf], False, "cso"),
            (["gen", "cso2lbo", po], False, "lbo"),
            (["gen", "union", *dfas], True, "cso"),
            (["gen", "lbo2iso", lbo], True, "iso"),
        ):
            assert main(argv) == 0
            out = capsys.readouterr().out
            payload = json.loads(out)
            canonical = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)
            assert out == canonical + "\n"
            assert ("metadata" in payload) == has_metadata
            metadata = payload.get("metadata")
            if kind == "automaton":
                again = {**automaton_to_dict(automaton_from_dict(payload)), "metadata": metadata}
            else:
                again = instance_to_dict(instance_from_dict(payload, kind), metadata)
            assert dumps(again) == out

    def test_cso2lbo_round(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        assert main(["gen", "cso2lbo", path]) == 0
        out_path = write(tmp_path, "lbo.json", capsys.readouterr().out)
        assert main(["verify", "--notion", "lbo", out_path]) == 1

    def test_deep_json_exits_two(self, tmp_path, capsys):
        deep = write(tmp_path, "deep.json", DEEP_JSON)
        assert_input_error(["gen", "cso2lbo", deep], capsys)


class TestClassify:
    def test_cnf_gadget_is_acyclic(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "acyclic: True" in out
        assert "deterministic: False" in out

    def test_two_state_cycle_not_partially_ordered(self, tmp_path, capsys):
        d = {
            "alphabet": [{"name": "a", "observable": True}],
            "states": ["p", "q"],
            "initial": ["p"],
            "marked": [],
            "transitions": [["p", "a", "q"], ["q", "a", "p"]],
        }
        path = write(tmp_path, "a.json", json.dumps(d))
        assert main(["classify", path]) == 0
        assert "partially_ordered: False" in capsys.readouterr().out

    def test_parse_failure_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{"weird": 1}')
        assert main(["classify", path]) == 2
        capsys.readouterr()
        deep = write(tmp_path, "deep.json", DEEP_JSON)
        assert_input_error(["classify", deep], capsys)


    def test_lbo_file_reports_each_automaton(self, tmp_path, capsys):
        lbo = cso_to_lbo(gen_cnf_cso(TWO_CLAUSE))
        path = write_instance(tmp_path, "lbo.json", lbo)
        assert main(["classify", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        assert all(line.startswith("secret_automaton: ") for line in lines[:5])
        assert all(line.startswith("nonsecret_automaton: ") for line in lines[5:])
        assert main(["classify", "--output", "json", path]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "secret_automaton": asdict(classify(lbo.secret_automaton)),
            "nonsecret_automaton": asdict(classify(lbo.nonsecret_automaton)),
        }

    def test_half_lbo_file_exits_two(self, tmp_path, capsys):
        a = gen_cnf_cso(TWO_CLAUSE).automaton
        path = write(tmp_path, "half.json", dumps({"secret_automaton": automaton_to_dict(a)}))
        assert main(["classify", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: instance is missing keys: ['nonsecret_automaton']\n"

    def test_rejects_what_verify_rejects(self, tmp_path, capsys):
        for path, reason in cso_files_verify_rejects(tmp_path):
            for argv in (["verify", "--notion", "cso", path], ["classify", path]):
                assert main(argv) == 2
                assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    def test_non_object_metadata_is_an_input_error(self, tmp_path, capsys):
        # at the top of an instance file, in its automaton, and in an automaton file
        data = instance_to_dict(gen_cnf_cso(TWO_CLAUSE))
        nested = {**data, "automaton": {**data["automaton"], "metadata": 5}}
        both = (["classify"], ["verify", "--notion", "cso"])
        for name, payload, commands in (("top.json", {**data, "metadata": 5}, both),
                                        ("nested.json", nested, both),
                                        ("automaton.json", nested["automaton"], both[:1])):
            path = write(tmp_path, name, dumps(payload))
            for command in commands:
                assert main([*command, path]) == 2
                assert capsys.readouterr().err == f"error: {path}: metadata must be a JSON object\n"

    def test_unknown_automaton_key_is_named(self, tmp_path, capsys):
        # a key ending in "automaton" makes an instance file; this one is no field
        path = write(tmp_path, "my.json", '{"my_automaton": {}, "metadata": {}, "secret": []}')
        for command in ("classify", "dot"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {path}: instance has unknown keys: ['my_automaton']\n"


class TestOracleCommands:
    def test_sat(self, tmp_path, capsys):
        path = write(tmp_path, "demo.cnf", TWO_CLAUSE_DIMACS)
        assert main(["oracle", "sat", path]) == 0
        assert capsys.readouterr().out.startswith("SAT 001")

    def test_unsat(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cnf", "p cnf 1 2\n1 0\n-1 0\n")
        assert main(["oracle", "sat", path]) == 1

    def test_dag_reach(self, tmp_path, capsys):
        path = write(tmp_path, "dag.json", json.dumps(
            {"vertices": 2, "edges": [[0, 1]], "s": 0, "t": 1}
        ))
        assert main(["oracle", "dag-reach", path]) == 0

    def test_enum_cso(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        assert main(["oracle", "enum-cso", "--witness", path]) == 1
        assert "witness observation: 001" in capsys.readouterr().out


class TestDot:
    def test_dot_export(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        assert main(["dot", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph {")
        assert '"a0" -> "a1"' in out

    def test_deep_json_exits_two(self, tmp_path, capsys):
        deep = write(tmp_path, "deep.json", DEEP_JSON)
        assert_input_error(["dot", deep], capsys)

    def test_lbo_file_names_nodes_by_side(self, tmp_path, capsys):
        lbo = cso_to_lbo(gen_cnf_cso(TWO_CLAUSE))
        path = write_instance(tmp_path, "lbo.json", lbo)
        assert main(["dot", path]) == 0
        out = capsys.readouterr().out
        for side, a in (("secret", lbo.secret_automaton), ("nonsecret", lbo.nonsecret_automaton)):
            for s in a.states:
                shape = "doublecircle" if s in a.marked else "circle"
                assert f'  "{side}:{s}" [shape={shape}];\n' in out
        assert '"a0"' not in out

    def test_half_lbo_file_exits_two(self, tmp_path, capsys):
        a = gen_cnf_cso(TWO_CLAUSE).automaton
        path = write(tmp_path, "half.json", dumps({"secret_automaton": automaton_to_dict(a)}))
        assert main(["dot", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: instance is missing keys: ['nonsecret_automaton']\n"

    def test_rejects_what_verify_rejects(self, tmp_path, capsys):
        for path, reason in cso_files_verify_rejects(tmp_path):
            assert main(["dot", path]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {path}: {reason}\n")

    def test_failed_write_names_the_output_file(self, tmp_path, capsys):
        path = write_instance(tmp_path, "inst.json", gen_cnf_cso(TWO_CLAUSE))
        out = str(tmp_path / "missing" / "out.dot")
        assert main(["dot", path, "-o", out]) == 2
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"
        assert main(["dot", path, "-o", str(tmp_path / "out.dot")]) == 0
        assert (tmp_path / "out.dot").read_text("utf-8").startswith("digraph {")

    def test_quotes_and_backslashes_are_escaped(self, tmp_path, capsys):
        a = Automaton(('p"x', "q\\"), (Event("a\\"),), {('p"x', "a\\", "q\\")}, {'p"x'}, {"q\\"})
        path = write(tmp_path, "a.json", dumps(automaton_to_dict(a)))
        assert main(["dot", path]) == 0
        assert capsys.readouterr().out == (
            'digraph {\n'
            '  rankdir=LR;\n'
            '  "p\\"x" [shape=circle];\n'
            '  "q\\\\" [shape=doublecircle];\n'
            '  "__start_0" [shape=point];\n'
            '  "__start_0" -> "p\\"x";\n'
            '  "p\\"x" -> "q\\\\" [label="a\\\\"];\n'
            '}\n'
        )

    def test_unobservable_transitions_are_dashed(self, tmp_path, capsys):
        a = Automaton(("p", "q"), (Event("a"), Event("u", observable=False)),
                      {("p", "a", "q"), ("q", "u", "p")}, {"p"}, {"q"})
        path = write(tmp_path, "a.json", dumps(automaton_to_dict(a)))
        assert main(["dot", path]) == 0
        assert capsys.readouterr().out == (
            'digraph {\n'
            '  rankdir=LR;\n'
            '  "p" [shape=circle];\n'
            '  "q" [shape=doublecircle];\n'
            '  "__start_0" [shape=point];\n'
            '  "__start_0" -> "p";\n'
            '  "p" -> "q" [label="a"];\n'
            '  "q" -> "p" [label="u" style=dashed];\n'
            '}\n'
        )

    def test_start_markers_miss_state_names(self, tmp_path, capsys):
        a = Automaton(("__start_0", "q"), (Event("a"),), {("__start_0", "a", "q")}, {"__start_0"})
        path = write(tmp_path, "a.json", dumps(automaton_to_dict(a)))
        assert main(["dot", path]) == 0
        assert capsys.readouterr().out == (
            'digraph {\n'
            '  rankdir=LR;\n'
            '  "__start_0" [shape=circle];\n'
            '  "q" [shape=circle];\n'
            '  "__start_01" [shape=point];\n'
            '  "__start_01" -> "__start_0";\n'
            '  "__start_0" -> "q" [label="a"];\n'
            '}\n'
        )


class TestReadme:
    def test_quick_round_trip(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        block = readme.split("A quick round trip:", 1)[1].split("```sh\n", 1)[1]
        block = block.split("```", 1)[0]
        dimacs = block.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0] + "\n"
        expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
        assert len(expected) == 3
        assert main(["gen", "cnf", write(tmp_path, "demo.cnf", dimacs)]) == 0
        inst = write(tmp_path, "inst.json", capsys.readouterr().out)
        assert main(["verify", "--notion", "cso", "--witness", inst]) == 1
        assert capsys.readouterr().out.splitlines() == expected
