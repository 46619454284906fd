"""In-process run of the CLI's verify path, with spans taken from outside the package.

`verify_file` calls each module's public functions in the order of
`opacheck.cli._cmd_verify`.  In a traced pass, `instrumented` also wraps, for
the pass only, the names `classify` and `realize_observation` wherever an
opacheck module binds them, and `Automaton.__post_init__` (validation), so
their spans nest inside the call that made them.  A layer's self time is its
span's duration minus that of its child spans; the search layer is thus the
verify call minus the realization, classification and automaton building it
triggered.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import asdict

import opacheck
from opacheck import (
    Automaton,
    Event,
    jsonio,
    select_cso_algorithm,
    verify_cso,
    verify_ifso,
    verify_iso,
    verify_lbo,
    verify_lbo_weak,
)
from opacheck import automata as automata_module

# Layers timed by wrapping a package function in place.
WRAPPED = {"automata.classify": "classify", "automata.realize": "realize_observation"}


class Tracer:
    """Spans kept in memory as [id, name, start, end, parent id, instance id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._open[-1] if self._open else None, self.instance]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, over the spans from index ``first``."""
        spans = self.spans[first:]
        child = {}
        for sid, _, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child[parent] = child.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, name, start, end, _, _ in spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        return totals


@contextmanager
def instrumented(tracer: Tracer):
    """Route the wrapped layers through ``tracer`` until the block ends."""
    restore = []
    for layer, attr in WRAPPED.items():
        original = getattr(opacheck, attr)
        wrapper = tracer.wrap(layer, original)
        for name, module in list(sys.modules.items()):
            if name == "opacheck" or name.startswith("opacheck."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        restore.append((module, key, original))
    post_init = Automaton.__post_init__
    Automaton.__post_init__ = tracer.wrap("automata.build", post_init)
    try:
        yield
    finally:
        Automaton.__post_init__ = post_init
        for module, key, original in restore:
            setattr(module, key, original)


class SearchMemory:
    """Span hook that runs `tracemalloc` around each verify call and keeps the peak."""

    def __init__(self) -> None:
        self.peak = 0

    @contextmanager
    def __call__(self, name: str):
        if not name.startswith("opacity.search."):
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


def verify_file(path: str, notion: str, algorithm: str, cap: int, span=None):
    """The CLI's verify path for one file: load, parse, route, verify, report.

    Returns (holds, witness or None).
    """
    span = span or (lambda name: nullcontext())
    with span("jsonio.load"):
        data = jsonio.load_json_file(path)
    with span("jsonio.instance"):
        instance = jsonio.instance_from_dict(data, notion)
    if notion == "cso":
        if algorithm == "auto":
            with span("opacity.route"):
                algorithm = select_cso_algorithm(instance)
        kind = algorithm if algorithm in ("observer", "inclusion") else "unary"
        with span(f"opacity.search.{kind}"):
            verdict = verify_cso(instance, algorithm, cap=cap)
    elif notion == "lbo-weak":
        algorithm = "product"
        with span("opacity.search.product"):
            verdict = verify_lbo_weak(instance)
    else:
        algorithm = "inclusion"
        verify = {"iso": verify_iso, "ifso": verify_ifso, "lbo": verify_lbo}[notion]
        with span("opacity.search.inclusion"):
            verdict = verify(instance, cap=cap)
    with span("cli.report"):
        classify = automata_module.classify  # looked up now, so a traced pass sees its wrapper
        if notion in ("lbo", "lbo-weak"):
            classification = {
                "secret_automaton": asdict(classify(instance.secret_automaton)),
                "nonsecret_automaton": asdict(classify(instance.nonsecret_automaton)),
            }
        else:
            classification = asdict(classify(instance.automaton))
        witness = None
        if verdict.witness is not None:
            witness = (list(verdict.witness.observation), list(verdict.witness.secret_run))
        jsonio.dumps({"file": path, "notion": notion, "algorithm": algorithm,
                      "holds": verdict.holds, "classification": classification,
                      "witness": None if witness is None else
                      {"observation": witness[0], "secret_run": witness[1]}})
    return verdict.holds, witness


def probe_files(directory) -> list[tuple[str, str, str]]:
    """One-state instances, one per verify path, as (path, notion, algorithm).

    Each traced pass runs them once, so every layer reports at least its fixed
    per-call cost, also on workloads that never reach it.  The secret state
    is reached by the empty observation, so each path also builds a witness.
    """
    one = Automaton(("p",), (Event("a"),), (), {"p"}, {"p"})
    none = one.with_marked(())
    cso = opacheck.CsoInstance(one, frozenset({"p"}), frozenset())
    lbo = opacheck.LboInstance(one, none)
    weak = opacheck.LboInstance(one, one)
    probes = []
    for name, instance, notion, algorithm in (
        ("probe-cso-auto", cso, "cso", "auto"),
        ("probe-cso-observer", cso, "cso", "observer"),
        ("probe-lbo", lbo, "lbo", "auto"),
        ("probe-lbo-weak", weak, "lbo-weak", "auto"),
    ):
        path = directory / f"{name}.json"
        path.write_text(jsonio.dumps(jsonio.instance_to_dict(instance)), encoding="utf-8")
        probes.append((str(path), notion, algorithm))
    return probes
