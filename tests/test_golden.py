"""Golden outputs: the command line's bytes on the benchmark's instances.

The benchmark's three workloads at seeds 11 and 29 give 40 instance files
at desk-check sizes and 156 at full size (named with a ``full-`` prefix).
Each is run through ``cli.main`` three times with
its case's ``--algorithm``: ``verify --output json`` (without the run's
``time_seconds``), ``verify --witness`` and ``classify --output json``.  Per
file, ``tests/golden.json`` holds one sha256 of the instance file and one of
the three runs' exit codes, standard output and standard error, with the
file's path replaced by a fixed token.  A change to any verdict, witness,
report or message on these files, or to the files the generators write,
fails the test.  ``python tests/regen_golden.py`` writes ``golden.json``;
the test only reads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
GOLDEN = TESTS / "golden.json"
WORKLOADS = ("cso-observer", "language", "unary")
SEEDS = (11, 29)
PATH_TOKEN = "<instance>"


def _run(argv: list[str], path: str) -> list:
    """[exit code, stdout, stderr] of ``cli.main(argv)``, with ``path`` replaced."""
    from opacheck import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, *(text.getvalue().replace(path, PATH_TOKEN) for text in (out, err))]


def _without_time(run: list) -> list:
    """``run`` with ``time_seconds`` dropped from its JSON report."""
    code, out, err = run
    if out:
        report = json.loads(out)
        for result in report.get("results", [report]):
            result.pop("time_seconds", None)
        out = json.dumps(report, sort_keys=True)
    return [code, out, err]


def digests(directory: Path) -> dict[str, dict[str, str]]:
    """The digests of every golden file, written to ``directory``, by file name."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import families

    found = {}
    for tiny, prefix in ((True, ""), (False, "full-")):
        for workload in WORKLOADS:
            for seed in SEEDS:
                for case in families.build_cases(workload, seed, tiny, families.SetupClock()):
                    name = f"{prefix}{workload}-{seed}-{case.id}.json"
                    found[name] = _digest(directory / name, case)
    return found


def _digest(path: Path, case) -> dict[str, str]:
    """The digests of one case's instance file, written to ``path``, and its runs."""
    from opacheck import jsonio

    text = jsonio.dumps(jsonio.instance_to_dict(case.instance, metadata=case.metadata))
    path.write_text(text, encoding="utf-8")
    chosen = ["--notion", case.notion, "--algorithm", case.algorithm]
    runs = [
        _without_time(_run(["verify", *chosen, "--output", "json", str(path)], str(path))),
        _run(["verify", *chosen, "--witness", str(path)], str(path)),
        _run(["classify", "--output", "json", str(path)], str(path)),
    ]
    return {
        "instance": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "outputs": hashlib.sha256(json.dumps(runs).encode("utf-8")).hexdigest(),
    }


def test_outputs_match_the_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    found = digests(tmp_path)
    assert sorted(found) == sorted(expected)
    changed = [name for name in expected if found[name] != expected[name]]
    assert not changed, f"{len(changed)} of {len(expected)} files changed: {changed}"
