"""Smoke test of the benchmark itself, at desk-check sizes (a few seconds each).

    python3 bench/smoke.py

It is run by hand and is not part of the test suite.  It checks that:

* every workload in BENCHMARK.json runs with ``--tiny``, with tracing off and
  on, exits 0, answers correctly and emits exactly the metrics BENCHMARK.json
  names for that mode, with the same units;
* the correctness gate trips when an expected verdict in the benchmark's own
  data is wrong (the package under test is not touched);
* without the package sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run_tiny(workload, trace)
            assert done.returncode == 0, (workload, trace, done.stdout, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, section, sorted(set(got) ^ set(wanted)))
            print(f"ok: {workload} trace {trace}: {len(got)} metrics")


def check_gate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import run

    def flip_first(cases):
        cases[0].expected = not cases[0].expected

    for trace in (False, True):
        result = run.run("cso-observer", 7, 0.1, trace, True, corrupt=flip_first)
        assert not result["correct"] and result["failed"] >= 1, result
    print("ok: the gate rejects a wrong expected verdict")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".bench_out" / "smoke-bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_tiny(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0, done.stdout
    assert '"metrics"' not in done.stdout, done.stdout
    print("ok: without the sources the benchmark fails without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_gate()
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
