"""Seeded benchmark instances built from opacheck's own gadgets.

Every instance carries the verdict an independent check expects: exhaustive
satisfiability (`oracles.brute_sat`), DAG reachability
(`oracles.dag_reachable`), or the union-universality simulation below.  The
only exception is the `po_determinize` family, whose verdict comes from the
observer run on the small source automaton (the transformation preserves
current-state opacity).  Where the witness observation is known in advance
(the first satisfying assignment, or a^d for the shortest DAG path of length
d) it is stored too.
"""

from __future__ import annotations

import random
import time
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from opacheck import (
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    IfsoInstance,
    LboInstance,
    cso_to_lbo,
    gen_cnf_cso,
    gen_dag_cso_unary,
    gen_dag_weak_lbo,
    gen_union_universality_cso,
    lbo_to_iso,
    po_determinize,
    verify_cso_observer,
)
from opacheck import oracles


@dataclass
class Case:
    """One generated instance and what an independent check expects of it."""

    id: str
    family: str
    notion: str
    algorithm: str  # the CLI's --algorithm; "auto" except for forced CSO inclusion
    size: dict
    instance: object
    expected: bool  # does the property hold?
    expected_observation: Optional[tuple[str, ...]] = None
    metadata: Optional[dict] = None


@dataclass
class SetupClock:
    """Seconds spent generating inputs (gadgets) and computing expected verdicts (oracles)."""

    generate_s: float = 0.0
    expect_s: float = 0.0

    @contextmanager
    def generating(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.generate_s += time.perf_counter() - started

    @contextmanager
    def expecting(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.expect_s += time.perf_counter() - started


# ---------------------------------------------------------------- CNF gadgets

def random_3cnf(rng: random.Random, n: int) -> CnfFormula:
    """Random 3-CNF at the 4.26 clause ratio, where about half the formulas are
    satisfiable; a fixed ratio keeps the cost of same-size instances close."""
    m = round(4.26 * n)
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


def _formula(rng, clock: SetupClock, n: int, sat: bool):
    """Draw formulas until one has the requested satisfiability."""
    while True:
        with clock.generating():
            formula = random_3cnf(rng, n)
        with clock.expecting():
            assignment = oracles.brute_sat(formula)
        if (assignment is not None) == sat:
            return formula, assignment


def _bits(assignment) -> Optional[tuple[str, ...]]:
    return None if assignment is None else tuple("1" if b else "0" for b in assignment)


def cnf_cso(rng, clock, *, n: int, sat: bool) -> Case:
    """`gen_cnf_cso`: opaque iff unsatisfiable; the witness is the first model."""
    formula, assignment = _formula(rng, clock, n, sat)
    with clock.generating():
        instance = gen_cnf_cso(formula)
    return Case("", "cnf-cso", "cso", "auto", {"n": n, "m": len(formula.clauses)},
                instance, not sat, _bits(assignment))


def cnf_lbo(rng, clock, *, n: int, sat: bool) -> Case:
    """`cso_to_lbo` image of a CNF gadget; same verdict and witness as the CSO."""
    formula, assignment = _formula(rng, clock, n, sat)
    with clock.generating():
        instance = cso_to_lbo(gen_cnf_cso(formula))
    return Case("", "cnf-lbo", "lbo", "auto", {"n": n, "m": len(formula.clauses)},
                instance, not sat, _bits(assignment))


def _lbo_to_iso(lbo: LboInstance):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the gadget sides are blocking; trimming is expected
        return lbo_to_iso(lbo)


def cnf_iso(rng, clock, *, n: int, sat: bool) -> Case:
    """`lbo_to_iso` image of the CNF LBO: one secret initial state, opaque iff
    unsatisfiable.  The witness may be a proper prefix, so it is only replayed."""
    formula, _ = _formula(rng, clock, n, sat)
    with clock.generating():
        reduction = _lbo_to_iso(cso_to_lbo(gen_cnf_cso(formula)))
    return Case("", "cnf-iso", "iso", "auto", {"n": n, "m": len(formula.clauses)},
                reduction.instance, not sat, None, reduction.metadata())


def cnf_iso_per_clause(rng, clock, *, n: int) -> Case:
    """`lbo_to_iso` image of the CNF LBO with its sides swapped: the secret side
    keeps one initial state per clause, so ISO runs one inclusion per clause.

    It holds for every formula: the non-secret side is the all-assignments
    path, which accepts every bit string of length n (and every prefix), and
    each secret string is such a string.
    """
    with clock.generating():
        lbo = cso_to_lbo(gen_cnf_cso(random_3cnf(rng, n)))
        reduction = _lbo_to_iso(LboInstance(lbo.nonsecret_automaton, lbo.secret_automaton))
    m = len(reduction.instance.secret_initial)
    return Case("", "cnf-iso-per-clause", "iso", "auto", {"n": n, "m": m},
                reduction.instance, True, None, reduction.metadata())


def cnf_ifso(rng, clock, *, n: int, sat: bool) -> Case:
    """IFSO on the CNF gadget: secret pair (a0, a_n), non-secret pairs
    (c_i_0, c_i_n); holds iff unsatisfiable, witness the first model."""
    formula, assignment = _formula(rng, clock, n, sat)
    with clock.generating():
        automaton = gen_cnf_cso(formula).automaton
        m = len(formula.clauses)
        instance = IfsoInstance(
            automaton,
            frozenset({("a0", f"a{n}")}),
            frozenset((f"c{i}_0", f"c{i}_{n}") for i in range(1, m + 1)),
        )
    return Case("", "cnf-ifso", "ifso", "auto", {"n": n, "m": m},
                instance, not sat, _bits(assignment))


# ---------------------------------------------------------------- DAG gadgets

def _distances(edges, source: int) -> dict[int, int]:
    """Breadth-first edge counts from ``source`` to every vertex it reaches."""
    adjacency: dict[int, list[int]] = {}
    for (u, v) in edges:
        adjacency.setdefault(u, []).append(v)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def layered_edges(rng, vertices: int, layers: int):
    """Layers of equal width; each vertex past the first layer gets two
    in-edges from the previous layer.  Few layers give a wide, shallow DAG,
    many narrow ones a deep DAG whose paths all have the same length.
    Returns (vertex count, edges, last layer)."""
    width = vertices // layers
    edges = set()
    for v in range(width, width * layers):
        layer = v // width
        for _ in range(2):
            edges.add((rng.randrange((layer - 1) * width, layer * width), v))
    return width * layers, edges, range(width * (layers - 1), width * layers)


def local_edges(rng, vertices: int, window: int, skips: int):
    """A path through all vertices plus ``skips`` forward edges that jump over
    at most ``window - 1`` vertices.  The search cost grows with the number of
    path lengths the skips create, so their count is fixed rather than drawn.
    Returns (vertex count, edges, last 2% of the vertices)."""
    edges = {(u, u + 1) for u in range(vertices - 1)}
    candidates = [(u, v) for u in range(vertices - 2)
                  for v in range(u + 2, min(vertices, u + window + 1))]
    edges.update(rng.sample(candidates, skips))
    return vertices, edges, range(vertices - max(1, vertices // 50), vertices)


def _dag(rng, clock, make, reachable: bool):
    """A DAG from ``make`` with source 0 and a target among its last vertices.

    The target is drawn among those whose reachability matches the request;
    when no vertex is unreachable, one is cut off from its predecessors.
    The expected verdict is then the oracle's, and the witness length the
    shortest path length.
    """
    while True:
        with clock.generating():
            count, edges, last = make()
            dist = _distances(edges, 0)
            matching = [v for v in last if (v in dist) == reachable]
            if matching:
                target = rng.choice(matching)
            elif reachable:
                continue
            else:
                target = rng.choice(last)
                edges = {(u, v) for (u, v) in edges if v != target}
            g = Dag(count, frozenset(edges), 0, target)
        with clock.expecting():
            found = oracles.dag_reachable(g)
        if found != reachable:
            raise AssertionError("the oracle disagrees with the target choice")
        return g, dist.get(target) if found else None


def dag_weak_lbo(rng, clock, *, vertices: int, window: int, skips: int,
                 reachable: bool) -> Case:
    """`gen_dag_weak_lbo` on a local DAG: weakly opaque iff the target is
    reachable; the confirming observation is a^d for the shortest path length d."""
    g, d = _dag(rng, clock, lambda: local_edges(rng, vertices, window, skips), reachable)
    with clock.generating():
        instance = gen_dag_weak_lbo(g)
    return Case("", "dag-weak-lbo", "lbo-weak", "auto",
                {"vertices": vertices, "edges": len(g.edges)},
                instance, reachable, None if d is None else ("a",) * d)


def dag_unary_cso(rng, clock, *, vertices: int, layers: int, reachable: bool) -> Case:
    """`gen_dag_cso_unary` on a layered DAG: opaque iff the target is
    unreachable; the witness is a^d for the shortest path length d."""
    g, d = _dag(rng, clock, lambda: layered_edges(rng, vertices, layers), reachable)
    with clock.generating():
        instance = gen_dag_cso_unary(g)
    shape = "deep" if layers > vertices // layers else "wide"
    return Case("", f"dag-unary-{shape}", "cso", "auto",
                {"vertices": g.vertex_count, "layers": layers, "edges": len(g.edges)},
                instance, not reachable, None if d is None else ("a",) * d)


# ------------------------------------------------------- union universality

def permutation_dfa(rng, states: int, marked_prob: float) -> Automaton:
    """Complete DFA over {0, 1} whose letters permute the states.  Unlike random
    DFAs, these never synchronise, so the observer of their union stays large."""
    names = [f"d{i}" for i in range(states)]
    transitions = set()
    for event in ("0", "1"):
        image = names[:]
        rng.shuffle(image)
        transitions.update((p, event, q) for p, q in zip(names, image))
    marked = {s for s in names if rng.random() < marked_prob}
    return Automaton(tuple(names), (Event("0"), Event("1")), transitions, {names[0]}, marked)


def union_is_universal(dfas) -> bool:
    """Independent universality check: simulate all components together; the
    union is universal iff every reachable configuration has a component in a
    marked state.  Missing moves send a component to a dead None state."""
    alphabet = [e.name for e in dfas[0].alphabet]
    moves = [{(p, e): q for (p, e, q) in d.transitions} for d in dfas]
    start = tuple(next(iter(d.initial)) for d in dfas)
    seen = {start}
    stack = [start]
    while stack:
        config = stack.pop()
        if not any(q is not None and q in dfas[k].marked for k, q in enumerate(config)):
            return False
        for e in alphabet:
            nxt = tuple(None if q is None else moves[k].get((q, e)) for k, q in enumerate(config))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def configuration_count(dfas) -> int:
    """Number of component-state tuples reachable from the initial one."""
    alphabet = [e.name for e in dfas[0].alphabet]
    moves = [{(p, e): q for (p, e, q) in d.transitions} for d in dfas]
    start = tuple(next(iter(d.initial)) for d in dfas)
    seen = {start}
    stack = [start]
    while stack:
        config = stack.pop()
        for e in alphabet:
            nxt = tuple(moves[k][(q, e)] for k, q in enumerate(config))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)


def union_cso(rng, clock, *, components: int, states: int, universal: bool,
              algorithm: str = "auto") -> Case:
    """`gen_union_universality_cso` of permutation DFAs: opaque iff the union
    is universal.  Universal families need a high marking rate.

    Where the search visits every reachable configuration (a universal union
    under the observer; either verdict under eager inclusion), only families
    reaching all states^components of them are kept, so same-size instances
    cost the same.
    """
    marked_prob = 0.8 if universal else 0.5
    full = universal or algorithm == "inclusion"
    while True:
        with clock.generating():
            dfas = [permutation_dfa(rng, states, marked_prob) for _ in range(components)]
            if full and configuration_count(dfas) != states ** components:
                continue
        with clock.expecting():
            if union_is_universal(dfas) == universal:
                break
    with clock.generating():
        result = gen_union_universality_cso(dfas)
    family = "union-cso" if algorithm == "auto" else f"union-cso-{algorithm}"
    return Case("", family, "cso", algorithm, {"components": components, "states": states},
                result.instance, universal, None, result.metadata())


# ------------------------------------------------------ po_determinize images

def po_source(rng, states: int, splits: int) -> CsoInstance:
    """Partially ordered source over one observable event o and one unobservable
    event u; ``splits`` states get three same-event successors each, which
    `po_determinize` turns into long unobservable detour chains."""
    names = [f"s{i}" for i in range(states)]
    transitions = set()
    for i in range(states):
        for event in ("o", "u"):
            for _ in range(rng.choice((0, 1, 1))):
                transitions.add((names[i], event, names[rng.randrange(i, min(states, i + 8))]))
    for i in rng.sample(range(states - 10), splits):
        event = rng.choice(("o", "u"))
        for _ in range(3):
            transitions.add((names[i], event, names[rng.randrange(i + 1, min(states, i + 10))]))
    automaton = Automaton(
        tuple(names), (Event("o"), Event("u", observable=False)), transitions, {names[0]}
    )
    # The initial state is non-secret, so no violation is visible before the
    # first observation.
    secret = frozenset(rng.sample(names[1:], states // 6))
    nonsecret = (frozenset(rng.sample(names[1:], states // 6)) - secret) | {names[0]}
    return CsoInstance(automaton, secret, nonsecret)


def po_det_cso(rng, clock, *, states: int, splits: int, holds: bool) -> Case:
    """`po_determinize` image of a seeded partially ordered source.  The expected
    verdict and witness observation are the observer's on the small source:
    the detours are unobservable, so every original state is reached under
    the same observations, and the witness is replayed on the image."""
    while True:
        with clock.generating():
            source = po_source(rng, states, splits)
        with clock.expecting():
            verdict = verify_cso_observer(source)
        if verdict.holds == holds:
            break
    with clock.generating():
        result = po_determinize(source.automaton, "o")
        instance = CsoInstance(result.automaton, source.secret, source.nonsecret)
    observation = None if verdict.witness is None else verdict.witness.observation
    return Case("", "po-det-cso", "cso", "auto",
                {"source_states": states, "splits": len(result.splits)},
                instance, holds, observation, result.metadata())


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Entry:
    make: Callable[..., Case]
    count: int
    params: dict


def _cnf_grid(make, sizes, count):
    return [Entry(make, count, {"n": n, "sat": sat}) for n in sizes for sat in (True, False)]


# Counts are scaled so one pass of a workload takes about ten seconds on a
# 2-CPU machine, so that three passes fit in a 35 s run; the size ranges are
# the ones each workload is meant to stress.  Run to run, the median and the
# tail percentile are steadiest inside a block of similar instances, so each
# workload has one: n=12 UNSAT and n=13 SAT gadgets on cso-observer, the deep
# DAGs on unary, and a spread of mid-sized gadgets on language.
WORKLOADS: dict[str, list[Entry]] = {
    "cso-observer": [
        *(Entry(cnf_cso, c, {"n": n, "sat": sat})
          for n, sat, c in ((12, True, 1), (12, False, 5), (13, True, 6), (13, False, 1),
                            (14, True, 1), (14, False, 1))),
        *(Entry(union_cso, c, {"components": k, "states": s, "universal": u})
          for k, s, u, c in ((5, 5, True, 1), (5, 6, True, 1), (6, 5, True, 2),
                             (5, 6, False, 1), (6, 6, False, 1), (7, 5, False, 2))),
    ],
    "language": [
        *(Entry(cnf_lbo, 1, {"n": n, "sat": sat})
          for n, sat in ((8, True), (8, False), (9, True), (9, False),
                         (10, True), (10, False), (11, False))),
        *(Entry(cnf_iso, 1, {"n": n, "sat": sat})
          for n, sat in ((9, True), (10, False), (11, True), (11, False))),
        *(Entry(cnf_iso_per_clause, 1, {"n": n}) for n in (9, 11)),
        *_cnf_grid(cnf_ifso, (6, 7), 1),
        *(Entry(dag_weak_lbo, 1, {"vertices": v, "window": 3, "skips": v // 10,
                                  "reachable": r})
          for v, r in ((200, True), (225, True), (300, False), (400, False))),
        *(Entry(union_cso, 1, {"components": 5, "states": 5, "universal": u,
                               "algorithm": "inclusion"}) for u in (True, False)),
    ],
    "unary": [
        *(Entry(dag_unary_cso, 2, {"vertices": v, "layers": 6, "reachable": r})
          for v in (2000, 3500, 5000) for r in (True, False)),
        Entry(dag_unary_cso, 18, {"vertices": 3000, "layers": 100, "reachable": True}),
        Entry(po_det_cso, 1, {"states": 200, "splits": 120, "holds": True}),
        Entry(po_det_cso, 1, {"states": 260, "splits": 150, "holds": False}),
    ],
}


# The same families at desk-check sizes, for the smoke test.
TINY: dict[str, list[Entry]] = {
    "cso-observer": [
        *_cnf_grid(cnf_cso, (5,), 1),
        Entry(union_cso, 1, {"components": 2, "states": 3, "universal": True}),
        Entry(union_cso, 1, {"components": 2, "states": 3, "universal": False}),
    ],
    "language": [
        *_cnf_grid(cnf_lbo, (4,), 1),
        *_cnf_grid(cnf_iso, (4,), 1),
        Entry(cnf_iso_per_clause, 1, {"n": 4}),
        *_cnf_grid(cnf_ifso, (4,), 1),
        *(Entry(dag_weak_lbo, 1, {"vertices": 12, "window": 3, "skips": 3,
                                  "reachable": r}) for r in (True, False)),
        *(Entry(union_cso, 1, {"components": 2, "states": 3, "universal": u,
                               "algorithm": "inclusion"}) for u in (True, False)),
    ],
    "unary": [
        *(Entry(dag_unary_cso, 1, {"vertices": 24, "layers": 3, "reachable": r})
          for r in (True, False)),
        Entry(dag_unary_cso, 1, {"vertices": 30, "layers": 10, "reachable": True}),
        *(Entry(po_det_cso, 1, {"states": 24, "splits": 6, "holds": h}) for h in (True, False)),
    ],
}


def build_cases(workload: str, seed: int, tiny: bool, clock: SetupClock) -> list[Case]:
    """All cases of a workload; each entry draws from its own seeded generator,
    so the same seed gives the same instances."""
    cases = []
    for index, entry in enumerate((TINY if tiny else WORKLOADS)[workload]):
        rng = random.Random(f"opacheck-bench:{workload}:{seed}:{index}")
        for k in range(entry.count):
            case = entry.make(rng, clock, **entry.params)
            case.id = f"{len(cases):03d}-{case.family}"
            cases.append(case)
    return cases
