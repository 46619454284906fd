"""opacheck benchmark: seeded gadget workloads with oracle-checked verdicts.

Usage (from the repository root):

    python3 bench/run.py --workload cso-observer --seed 1 --seconds 35 --trace 0

Set-up generates the workload's instances from the seed, computes each
expected verdict with an independent oracle and writes the instance files; it
is repeated three times and must give identical files each time.

With ``--trace 0`` every instance is verified as a user would: one
``python -m opacheck.cli verify --output json`` child at a time (a closed loop
with one client), timed from spawn to exit.  With ``--trace 1`` the same
verify path runs in this process instead, once plainly and once under spans,
to give the time of each layer.  A run makes three passes over the
instances, fewer only when ``--seconds`` is spent before the next one starts.
An instance's end-to-end time is the fastest of its passes; a layer's time is
the median over the passes.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong verdict or a
witness that does not replay makes the run exit with code 1.  The full
report (machine facts, instance descriptors and file digests, per-instance
times, spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
PASSES = 3  # timed passes per run; fewer only when --seconds is already spent
STARTUP_SAMPLES = 7
MIB = 1024 * 1024


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values
    beyond it; the maximum when there are ten values or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine_facts(cap: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "opacheck").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = found.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "observer_cap": cap,
    }


def setup(families, jsonio, workload: str, seed: int, tiny: bool, directory: Path):
    """Generate, oracle-check and write the instances once."""
    started = time.perf_counter()
    clock = families.SetupClock()
    cases = families.build_cases(workload, seed, tiny, clock)
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    paths, descriptors = {}, []
    for case in cases:
        text = jsonio.dumps(jsonio.instance_to_dict(case.instance, metadata=case.metadata))
        data = text.encode("utf-8")
        path = directory / f"{case.id}.json"
        path.write_bytes(data)
        paths[case.id] = str(path)
        automata = ([case.instance.secret_automaton, case.instance.nonsecret_automaton]
                    if case.notion in ("lbo", "lbo-weak") else [case.instance.automaton])
        descriptors.append({
            "id": case.id,
            "family": case.family,
            "notion": case.notion,
            "algorithm": case.algorithm,
            "size": case.size,
            "states": sum(len(a.states) for a in automata),
            "transitions": sum(len(a.transitions) for a in automata),
            "expected_holds": case.expected,
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    return cases, paths, descriptors, {
        "setup_s": time.perf_counter() - started,
        "generate_s": clock.generate_s,
        "expect_s": clock.expect_s,
    }


def cli_command(notion: str, algorithm: str, path: str) -> list[str]:
    """The user's command line, with the CLI's default observer cap."""
    command = [sys.executable, "-m", "opacheck.cli", "verify", "--notion", notion,
               "--output", "json"]
    if algorithm != "auto":
        command += ["--algorithm", algorithm]
    return command + [path]


def run_cli(command, env, work: Path):
    """One closed-loop request: spawn the CLI, wait for it, time spawn to exit.

    Returns (seconds, peak RSS in MiB, holds, witness, error).
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    rss = usage.ru_maxrss / 1024  # KiB on Linux
    code = child.returncode
    if code not in (0, 1):
        stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
        kind = "cap hit" if "exceeded the cap" in stderr else f"exit {code}"
        return elapsed, rss, None, None, f"{kind}: {stderr[-300:]}"
    try:
        report = json.loads(out_path.read_text(encoding="utf-8"))
        holds = report["holds"]
        witness = report["witness"]
        if witness is not None:
            witness = (witness["observation"], witness["secret_run"])
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, rss, None, None, f"unreadable output: {exc}"
    if holds is not (code == 0):
        return elapsed, rss, None, None, f"exit {code} disagrees with holds={holds}"
    return elapsed, rss, holds, witness, None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def end_to_end(cases, paths, tally, seconds: float, work: Path):
    env = child_env()
    commands = {case.id: cli_command(case.notion, case.algorithm, paths[case.id])
                for case in cases}
    samples = {case.id: [] for case in cases}
    peak_rss = 0.0
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < PASSES:
        for case in cases:
            elapsed, rss, holds, witness, error = run_cli(commands[case.id], env, work)
            samples[case.id].append(elapsed)
            peak_rss = max(peak_rss, rss)
            tally.record(case.id, holds, witness, error)
        passes += 1
        if time.perf_counter() > deadline:
            break
    # On a shared machine interference only ever slows a child down, so an
    # instance's fastest pass is its least disturbed time.
    times = [min(values) for values in samples.values()]
    tail_value, tail_pct = tail(times)
    return {
        "verdict_p50_s": _median(times),
        "verdict_tail_s": tail_value,
        "total_s": sum(times),
        "peak_rss_mib": peak_rss,
    }, {"passes": passes, "tail_percentile": tail_pct, "samples": samples}


def cli_startup(probe_path: str) -> list[float]:
    """Spawn-to-exit seconds of the CLI on a one-state instance."""
    env = child_env()
    command = cli_command("cso", "auto", probe_path)
    times = []
    for _ in range(STARTUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       env=env, check=False)
        times.append(time.perf_counter() - started)
    return times


# Per-layer metrics as sums of span self times (seconds per pass).
LAYER_METRICS = {
    "cli.report_s": ("cli.report",),
    "jsonio.load_s": ("jsonio.load",),
    "jsonio.instance_s": ("jsonio.instance",),
    "automata.build_s": ("automata.build",),
    "automata.classify_s": ("automata.classify",),
    "opacity.route_s": ("opacity.route",),
    "opacity.search_s": ("opacity.search.observer", "opacity.search.inclusion",
                         "opacity.search.product", "opacity.search.unary"),
    "opacity.search.observer_s": ("opacity.search.observer",),
    "opacity.search.inclusion_s": ("opacity.search.inclusion",),
    "opacity.search.product_s": ("opacity.search.product",),
    "opacity.search.unary_s": ("opacity.search.unary",),
    "automata.realize_s": ("automata.realize",),
}


def traced_run(cases, paths, tally, cap: int, seconds: float, work: Path):
    """Alternate plain and traced in-process passes, then one memory pass."""
    import traced
    from opacheck import OpacheckError

    probes = traced.probe_files(work)
    startup = cli_startup(probes[0][0])
    tracer = traced.Tracer()
    plain_totals, traced_totals, layer_sums = [], [], []
    deadline = time.perf_counter() + seconds
    while len(plain_totals) < PASSES:
        gc.collect()  # start each pass without the previous pass's garbage
        plain = 0.0
        for case in cases:
            began = time.perf_counter()
            try:
                holds, witness = traced.verify_file(paths[case.id], case.notion,
                                                    case.algorithm, cap)
            except OpacheckError as exc:
                tally.record(case.id, None, None, f"{type(exc).__name__}: {exc}")
            else:
                tally.record(case.id, holds, witness)
            plain += time.perf_counter() - began
        plain_totals.append(plain)

        gc.collect()
        first = len(tracer.spans)
        traced_total = 0.0
        with traced.instrumented(tracer):
            runs = [(c.id, paths[c.id], c.notion, c.algorithm) for c in cases]
            runs += [(f"probe-{k}", *probe) for k, probe in enumerate(probes)]
            for case_id, path, notion, algorithm in runs:
                tracer.instance = f"{len(plain_totals)}:{case_id}"
                began = time.perf_counter()
                try:
                    with tracer.span("instance"):
                        traced.verify_file(path, notion, algorithm, cap, tracer.span)
                except OpacheckError:
                    pass  # counted by the plain pass
                if not case_id.startswith("probe-"):
                    traced_total += time.perf_counter() - began
        traced_totals.append(traced_total)
        layer_sums.append(tracer.self_times(first))
        if time.perf_counter() > deadline:
            break

    memory = traced.SearchMemory()
    for case in cases:
        try:
            traced.verify_file(paths[case.id], case.notion, case.algorithm, cap, memory)
        except OpacheckError:
            pass

    metrics = {"cli.startup_s": _median(startup)}
    for metric, names in LAYER_METRICS.items():
        metrics[metric] = _median([sum(sums.get(n, 0.0) for n in names) for sums in layer_sums])
    metrics["opacity.search_peak_mib"] = memory.peak / MIB
    metrics["traced.total_s"] = _median(traced_totals)
    metrics["untraced.total_s"] = _median(plain_totals)
    spans = [dict(zip(("id", "name", "start", "end", "parent", "instance"), s))
             for s in tracer.spans]
    return metrics, {"passes": len(plain_totals), "startup_samples": startup,
                     "untraced_pass_totals": plain_totals,
                     "traced_pass_totals": traced_totals, "spans": spans}


def unit(metric: str) -> str:
    if metric.startswith("count."):
        return "count"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        corrupt=None) -> dict:
    """Set up, measure and check one workload; returns the result object.

    ``corrupt``, when given, is applied to the generated cases before the
    measurement, so a test can feed the gate a wrong expectation.
    """
    import families
    import gate
    from opacheck import cli, jsonio

    cap = cli.build_parser().parse_args(["verify", "--notion", "cso", "-"]).observer_cap
    facts = machine_facts(cap)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)  # left over by an interrupted run
    setups, digests = [], None
    for _ in range(SETUP_REPEATS):
        cases, paths, descriptors, timing = setup(
            families, jsonio, workload, seed, tiny, run_dir / "instances")
        current = [d["sha256"] for d in descriptors]
        if digests is not None and current != digests:
            raise RuntimeError("set-up wrote different files for the same seed")
        digests = current
        setups.append(timing)
    if corrupt is not None:
        corrupt(cases)
    inputs_sha256 = hashlib.sha256("".join(digests).encode()).hexdigest()

    tally = gate.Tally(cases)
    work = run_dir / "work"
    work.mkdir(parents=True)
    if trace:
        metrics, details = traced_run(cases, paths, tally, cap, seconds, work)
        metrics["gadgets.generate_s"] = _median([s["generate_s"] for s in setups])
        metrics["oracles.expect_s"] = _median([s["expect_s"] for s in setups])
        metrics["count.instances"] = len(cases)
        metrics["count.states"] = sum(d["states"] for d in descriptors)
        metrics["count.transitions"] = sum(d["transitions"] for d in descriptors)
        metrics.update(tally.counts())
    else:
        metrics, details = end_to_end(cases, paths, tally, seconds, work)
        metrics["ok_ratio"] = 1 - len(tally.failures) / tally.attempted
        metrics["setup_s"] = _median([s["setup_s"] for s in setups])
    shutil.rmtree(run_dir)

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "facts": facts, "inputs_sha256": inputs_sha256,
        "instances": descriptors, "setups": setups,
        "counts": {"count.instances": len(cases), **tally.counts()},
        "failures": tally.failures, "metrics": metrics, "details": details,
        "answers": tally.answers,
    }
    report_path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"workload {workload} seed {seed}: {len(cases)} instances, "
          f"inputs sha256 {inputs_sha256[:16]}, source sha256 "
          f"{facts['source_sha256'][:16]}, nproc {facts['nproc']}, "
          f"python {platform.python_version()}, cap {cap}")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure['id']}: {failure['reason']}")
    print(f"report: {report_path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="desk-check sizes that finish in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "opacheck" / "__init__.py").is_file():
        print(f"error: no opacheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import families

    if args.workload not in families.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(families.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
