"""Properties of the input boundary: ill-typed input is rejected where it enters.

The library side replaces one field of a valid input record, or one argument
of a public function (the verifiers, the language functions, the generators,
the transformations and ``Automaton.successors``), with an ill-typed value,
and requires a ``ValueError`` (``MalformedFormula`` for ``CnfFormula``) whose
text starts with the field's name.  The command-line side replaces the value
at one JSON path of a valid file of each kind the command line reads (an
instance file of each notion, an automaton file and a DAG file) and requires
every command that reads it to return 0, 1 or 2 and raise nothing.  Each
check that relates well-typed fields is pinned by its message, and for a
file by the command line's exit code 2 and its ``error: FILE: ...`` line.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opacheck import (
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    IfsoInstance,
    IsoInstance,
    LboInstance,
    MalformedFormula,
    PreconditionViolated,
    classify,
    cso_to_lbo,
    gen_cnf_cso,
    gen_dag_cso_unary,
    gen_dag_weak_lbo,
    gen_union_universality_cso,
    inclusion_modulo_projection,
    intersection_nonempty_modulo_projection,
    lbo_to_iso,
    po_determinize,
    realize_observation,
    select_cso_algorithm,
    trim,
    verify,
    verify_cso,
    verify_cso_observer,
    verify_ifso,
    verify_iso,
    verify_lbo,
    verify_lbo_weak,
)
from opacheck.cli import main
from opacheck.jsonio import automaton_to_dict, dumps, instance_to_dict

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

A = Automaton(("p", "q"), (Event("a"), Event("u", observable=False)),
              [("p", "a", "q"), ("q", "u", "p")], {"p"}, {"q"})
CSO = CsoInstance(A, {"q"}, {"p"})
LBO = cso_to_lbo(CSO)
ISO = IsoInstance(A.with_initial({"p", "q"}), {"p"}, {"q"})
IFSO = IfsoInstance(A, {("p", "q")}, {("p", "p")})
# A partially ordered DFA over a fully observable alphabet, which every
# generator that reads an automaton accepts.
B = Automaton(("p", "q", "r"), (Event("a"), Event("b")),
              [("p", "a", "q"), ("q", "b", "r"), ("r", "a", "r")], {"p"}, {"r"})
FORMULA = CnfFormula(2, [[1, -2], {2}])
DAG = Dag(3, [(0, 1), (1, 2)], 0, 2)

# Values of the wrong kind for every field, but for those ``well_typed`` skips.
ILL_TYPED = [
    None, 5, -1, 0, 2.5, True, "pq", "", b"pq", [["p"]], {"p": 1}, {1, 2}, object(),
    [None], (1.5,), [("p",)], frozenset({("p", "a", 1)}), [b"p"], [1, 2], [["p", "a", 1]],
    [{"name": 1}],
]


def _name(v):
    return isinstance(v, str) and v != ""


def _int(v):
    return type(v) is int


# Per kind of field, the values of ILL_TYPED that are of that kind after all.
WELL_TYPED = {
    "name": _name,
    "string": lambda v: isinstance(v, str),
    "flag": lambda v: isinstance(v, bool),
    "int": _int,
    "cap": lambda v: _int(v) and v > 0,
    "optional": lambda v: v is None,
    "other": lambda v: False,
}

# (call, valid arguments, kind of each argument when it is not "other")
CALLS = {
    "Event": (Event, {"name": "a", "observable": True},
              {"name": "name", "observable": "flag"}),
    "Automaton": (Automaton, {"states": A.states, "alphabet": A.alphabet,
                              "transitions": A.transitions, "initial": A.initial,
                              "marked": A.marked}, {}),
    "CsoInstance": (CsoInstance, {"automaton": A, "secret": {"q"}, "nonsecret": {"p"}}, {}),
    "LboInstance": (LboInstance, {"secret_automaton": A, "nonsecret_automaton": A}, {}),
    "IsoInstance": (IsoInstance, {"automaton": A, "secret_initial": {"p"},
                                  "nonsecret_initial": ()}, {}),
    "IfsoInstance": (IfsoInstance, {"automaton": A, "secret_pairs": {("p", "q")},
                                    "nonsecret_pairs": [["p", "p"]]}, {}),
    "CnfFormula": (CnfFormula, {"variable_count": 2, "clauses": [[1, -2], {2}]},
                   {"variable_count": "int"}),
    "Dag": (Dag, {"vertex_count": 3, "edges": [(0, 1)], "source": 0, "target": 2},
            {"vertex_count": "int", "source": "int", "target": "int"}),
    "verify": (lambda **kw: verify(CSO, **kw), {"notion": "cso", "algorithm": "auto",
                                               "cap": 8},
               {"notion": "name", "algorithm": "name", "cap": "cap"}),
    "verify_cso": (verify_cso, {"inst": CSO, "algorithm": "auto", "cap": 8},
                   {"algorithm": "name", "cap": "cap"}),
    "verify_cso_observer": (verify_cso_observer, {"inst": CSO, "cap": 8}, {"cap": "cap"}),
    "select_cso_algorithm": (select_cso_algorithm, {"inst": CSO}, {}),
    "verify_lbo": (verify_lbo, {"inst": LBO, "cap": 8}, {"cap": "cap"}),
    "verify_lbo_weak": (verify_lbo_weak, {"inst": LBO}, {}),
    "verify_iso": (verify_iso, {"inst": ISO, "cap": 8}, {"cap": "cap"}),
    "verify_ifso": (verify_ifso, {"inst": IFSO, "cap": 8}, {"cap": "cap"}),
    "inclusion_modulo_projection": (inclusion_modulo_projection,
                                    {"a1": A, "m1": {"q"}, "a2": A, "m2": {"p"}, "cap": 8},
                                    {"cap": "cap"}),
    "intersection_nonempty_modulo_projection": (intersection_nonempty_modulo_projection,
                                                {"a1": A, "m1": {"q"}, "a2": A, "m2": {"p"}},
                                                {}),
    "realize_observation": (realize_observation,
                            {"a": A, "targets": {"q"}, "observation": ("a",), "initial": None},
                            {"initial": "optional"}),
    "Automaton.successors": (A.successors, {"state": "p", "event": "a"},
                             {"state": "string", "event": "string"}),
    "classify": (classify, {"a": A}, {}),
    "trim": (trim, {"a": A}, {}),
    "gen_cnf_cso": (gen_cnf_cso, {"formula": FORMULA}, {}),
    "gen_dag_cso_unary": (gen_dag_cso_unary, {"g": DAG}, {}),
    "gen_dag_weak_lbo": (gen_dag_weak_lbo, {"g": DAG}, {}),
    "gen_union_universality_cso": (gen_union_universality_cso, {"components": [B, B]}, {}),
    "po_determinize": (po_determinize, {"a": B, "chain_event": "a"},
                       {"chain_event": "string"}),
    "cso_to_lbo": (cso_to_lbo, {"inst": CSO}, {}),
    "lbo_to_iso": (lbo_to_iso, {"inst": LBO}, {}),
}


@SETTINGS
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_an_ill_typed_field_is_named(name, data):
    call, valid, kinds = CALLS[name]
    assert call(**valid) is not None
    error = MalformedFormula if name == "CnfFormula" else ValueError
    for field in sorted(valid):  # each field in turn, so every field is drawn
        well_typed = WELL_TYPED[kinds.get(field, "other")]
        value = data.draw(st.sampled_from([v for v in ILL_TYPED if not well_typed(v)]),
                          label=field)
        try:
            call(**{**valid, field: value})
        except error as exc:
            assert type(exc) is error and str(exc).startswith(f"{field} must ")
        else:
            raise AssertionError(f"{name} accepted {field}={value!r}")


def _instance_commands(notion: str) -> list[list[str]]:
    return [["verify", "--notion", notion], ["classify"], ["dot"]]


# Per kind of file, a valid one and the commands that read it.
DOCUMENTS = {
    "cso": (instance_to_dict(CSO), _instance_commands("cso")),
    "iso": (instance_to_dict(IsoInstance(A, {"p"}, ())), _instance_commands("iso")),
    "ifso": (instance_to_dict(IFSO), _instance_commands("ifso")),
    "lbo": (instance_to_dict(LBO), _instance_commands("lbo")),
    "lbo-weak": (instance_to_dict(LBO), _instance_commands("lbo-weak")),
    "automaton": (automaton_to_dict(B), [["classify"], ["dot"], ["gen", "union"],
                                         ["gen", "po-det", "--chain-event", "a"]]),
    "dag": ({"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0, "t": 2},
            [["gen", "dag-unary-cso"], ["gen", "dag-weak-lbo"], ["oracle", "dag-reach"]]),
}


def _is_json(value) -> bool:
    try:
        return json.loads(json.dumps(value)) == value
    except TypeError:
        return False


JSON_ILL_TYPED = list(filter(_is_json, ILL_TYPED))


def _paths(value, path=()):
    """Every path into the JSON value, the empty path (the value itself) first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@SETTINGS
@given(st.sampled_from(sorted(DOCUMENTS)), st.data())
def test_the_command_line_answers_every_ill_typed_file(kind, data):
    document, commands = DOCUMENTS[kind]
    path = data.draw(st.sampled_from(list(_paths(document))))
    value = data.draw(st.sampled_from(JSON_ILL_TYPED))
    with tempfile.TemporaryDirectory() as directory:
        file = Path(directory) / "input.json"
        file.write_text(dumps(_replaced(document, path, value)), encoding="utf-8")
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main([*argv, str(file)]) in (0, 1, 2)


def _document(**fields) -> str:
    return dumps({key: automaton_to_dict(value) if isinstance(value, Automaton) else value
                  for key, value in fields.items()})


# The checks that relate well-typed fields of one file: a command, the file
# it reads and the reason the command line names the file with.
RELATIONS = [
    (["verify", "--notion", "lbo"],
     _document(secret_automaton=A, nonsecret_automaton=Automaton(
         A.states, A.alphabet[::-1], A.transitions, A.initial, A.marked)),
     "both automata must declare the identical alphabet"),
    (["verify", "--notion", "iso"], _document(automaton=A, secret_initial=["q"],
                                              nonsecret_initial=[]),
     "secret initial states must be initial states"),
    (["verify", "--notion", "iso"], _document(automaton=A, secret_initial=[],
                                              nonsecret_initial=["q"]),
     "non-secret initial states must be initial states"),
    (["verify", "--notion", "ifso"], _document(automaton=A, secret_pairs=[["p", "q"]],
                                               nonsecret_pairs=[["q", "p"]]),
     "pair ('q', 'p') must start in an initial state"),
    (["gen", "cnf"], "p cnf -1 0\n", "variable count must be non-negative"),
    (["gen", "cnf"], "p cnf 1 1\np cnf 1 1\n1 0\n", "duplicate DIMACS header"),
    (["gen", "cnf"], "c no header\n", "missing DIMACS header"),
    (["gen", "dag-unary-cso"], _document(vertices=2, edges=[[0, 1]], s=0, t=2),
     "source and target must be vertices"),
]


@pytest.mark.parametrize("argv, text, reason", RELATIONS,
                         ids=[reason for _, _, reason in RELATIONS])
def test_the_command_line_names_the_file_a_relational_check_rejects(
        argv, text, reason, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {reason}\n")


def test_the_relational_checks_that_name_no_file(tmp_path, capsys):
    other = Automaton(B.states, (*B.alphabet, Event("c")), B.transitions, B.initial, B.marked)
    paths = []
    for name, automaton in (("b.json", B), ("other.json", other)):
        paths.append(tmp_path / name)
        paths[-1].write_text(dumps(automaton_to_dict(automaton)), encoding="utf-8")
    for argv, reason in (
        (["verify", "--notion", "cso", "--observer-cap", "0", "missing.json"],
         "--observer-cap must be positive"),
        (["gen", "union", *map(str, paths)], "all components must share one alphabet"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {reason}\n")
    for components, reason in (([], "at least one component automaton is required"),
                               ([B, other], "all components must share one alphabet")):
        with pytest.raises(PreconditionViolated) as caught:
            gen_union_universality_cso(components)
        assert str(caught.value) == reason
