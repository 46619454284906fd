"""Shared test utilities: seeded random instance generators, an independent
universality check, and membership-only witness replay."""

from __future__ import annotations

import random
import weakref

from opacheck import (
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    LboInstance,
    Verdict,
    trim,
)
from opacheck.automata import _EstimateKernel, _quotient, _Work
from opacheck.oracles import _project, observation_feasible, string_reaches

ALPHABET_2OBS_1UO = (Event("a"), Event("b"), Event("u", observable=False))
ALPHABET_1OBS_1UO = (Event("a"), Event("u", observable=False))
ALPHABET_BIN = (Event("0"), Event("1"))


def make_rng(name: str) -> random.Random:
    return random.Random(f"opacheck:{name}")


def rand_automaton(rng, alphabet, max_states=7, *, structure="any", initial_max=2,
                   marked_prob=0.4):
    """Random automaton; ``structure`` is "any", "acyclic" (forward edges only)
    or "po" (forward edges plus self-loops)."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for i in range(n):
        for event in alphabet:
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                if structure == "acyclic":
                    if i == n - 1:
                        continue
                    j = rng.randint(i + 1, n - 1)
                elif structure == "po":
                    j = rng.randint(i, n - 1)
                else:
                    j = rng.randrange(n)
                transitions.add((states[i], event.name, states[j]))
    initial = rng.sample(states, rng.randint(1, min(n, initial_max)))
    marked = {s for s in states if rng.random() < marked_prob}
    return Automaton(tuple(states), alphabet, transitions, initial, marked)


def kernel_search(a, respect=(), secret=(), nonsecret=()):
    """The CSO observer's search for ``secret`` without ``nonsecret``, from
    ``a``'s initial estimate, on a fresh estimate kernel of ``a``'s graph
    quotiented by ``respect``: the kernel after the search, the search's
    account and the observation found.  With no secret state the search
    interns every reachable estimate."""
    g = _quotient(a._graph, respect)
    kernel, work = _EstimateKernel(g), _Work()
    s, ns = g.mask(secret), g.mask(nonsecret)
    obs = kernel.search(kernel.close(g.mask(a.initial)), lambda x: x & s and not x & ns, work)
    return kernel, work, obs


def accounts(monkeypatch) -> list[_Work]:
    """Every search account made from now on, in the order made, as the
    searches fill them: one per observer, inclusion, product or realization
    search that runs."""
    made, init = [], _Work.__init__

    def record(work):
        init(work)
        made.append(work)

    monkeypatch.setattr(_Work, "__init__", record)
    return made


class KernelRef(weakref.ref):
    """A weak reference to an estimate kernel, with its graph's node count
    as ``nodes``."""


def kernels(monkeypatch) -> list[KernelRef]:
    """A weak reference to every estimate kernel built from now on, in the
    order built, with its node count: a dead one has been freed."""
    made, init = [], _EstimateKernel.__init__

    def record(kernel, *args):
        init(kernel, *args)
        ref = KernelRef(kernel)
        ref.nodes = len(kernel.closure)
        made.append(ref)

    monkeypatch.setattr(_EstimateKernel, "__init__", record)
    return made


def nth_from_end(n: int) -> Automaton:
    """The NFA for "the n-th symbol from the end is ``a``" over ``a`` and
    ``b``: states ``q0 .. qn``, both events looping on ``q0``, ``q0 -a-> q1``
    and ``qi -a,b-> qi+1`` for 0 < i < n.  Partially ordered with n + 1
    states, yet after a word the states other than ``q0`` are exactly those
    ``qi`` whose i-th symbol from the end is ``a``, so 2^n estimates are
    reachable.  No two states are bisimilar, so no quotient shrinks it: the
    longest run from ``qi`` has n - i symbols when i > 0, and ``q0`` has
    runs of every length."""
    states = [f"q{i}" for i in range(n + 1)]
    transitions = {("q0", "a", "q0"), ("q0", "b", "q0"), ("q0", "a", "q1")}
    transitions |= {(states[i], e, states[i + 1]) for i in range(1, n) for e in "ab"}
    return Automaton(tuple(states), (Event("a"), Event("b")), transitions, {"q0"})


def members(a, g, mask) -> tuple[str, ...]:
    """The states of ``a`` whose nodes of ``g`` are in ``mask``, in declaration order."""
    return tuple(s for s in a.states if mask >> g.index[s] & 1)


def rand_cso(rng, alphabet, max_states=7, *, structure="any", status_prob=0.35):
    a = rand_automaton(rng, alphabet, max_states, structure=structure)
    secret = {s for s in a.states if rng.random() < status_prob}
    nonsecret = {s for s in a.states if rng.random() < status_prob}
    return CsoInstance(a, frozenset(secret), frozenset(nonsecret))


def rand_trim_lbo(rng, alphabet, max_states=6):
    secret = trim(rand_automaton(rng, alphabet, max_states))
    nonsecret = trim(rand_automaton(rng, alphabet, max_states))
    return LboInstance(secret, nonsecret)


def rand_dag(rng, max_vertices=15):
    n = rng.randint(1, max_vertices)
    edges = set()
    for i in range(n - 1):
        for j in range(i + 1, n):
            if rng.random() < 1.8 / n:
                edges.add((i, j))
    return Dag(n, frozenset(edges), rng.randrange(n), rng.randrange(n))


def rand_cnf(rng, max_variables=10, max_clauses=15, max_width=4):
    n = rng.randint(1, max_variables)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(max_width, n))
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(n, tuple(clauses))


def rand_dfa(rng, alphabet=ALPHABET_BIN, max_states=5, *, move_prob=0.85):
    """Random single-initial DFA; transition functions may be partial."""
    n = rng.randint(1, max_states)
    states = [f"d{i}" for i in range(n)]
    transitions = set()
    for s in states:
        for event in alphabet:
            if rng.random() < move_prob:
                transitions.add((s, event.name, rng.choice(states)))
    marked = {s for s in states if rng.random() < 0.5}
    return Automaton(tuple(states), alphabet, transitions, {states[0]}, marked)


def union_is_universal(dfas) -> bool:
    """Subset simulation of the plain union, independent of the main observer
    code: a family is universal iff every reachable configuration still has a
    live component in a marked state (dead components are tracked as None)."""
    alphabet = [e.name for e in dfas[0].alphabet]
    moves = []
    for d in dfas:
        moves.append({(p, e): q for (p, e, q) in d.transitions})
    start = tuple(next(iter(d.initial)) for d in dfas)
    seen = {start}
    stack = [start]
    while stack:
        config = stack.pop()
        if not any(
            q is not None and q in dfas[k].marked for k, q in enumerate(config)
        ):
            return False
        for e in alphabet:
            nxt = tuple(
                moves[k].get((q, e)) if q is not None else None
                for k, q in enumerate(config)
            )
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def replay(notion: str, inst, verdict: Verdict) -> bool:
    """Membership-only validation of an emitted witness (True when no witness)."""
    w = verdict.witness
    if w is None:
        return True
    obs, run = w.observation, w.secret_run
    if notion == "cso":
        a = inst.automaton
        return (
            _project(a, run) == obs
            and string_reaches(a, inst.secret, run)
            and observation_feasible(a, inst.secret, obs)
            and not observation_feasible(a, inst.nonsecret, obs)
        )
    if notion == "lbo":
        s, ns = inst.secret_automaton, inst.nonsecret_automaton
        return (
            _project(s, run) == obs
            and string_reaches(s, s.marked, run)
            and observation_feasible(s, s.marked, obs)
            and not observation_feasible(ns, ns.marked, obs)
        )
    if notion == "lbo-weak":
        s, ns = inst.secret_automaton, inst.nonsecret_automaton
        return (
            _project(s, run) == obs
            and string_reaches(s, s.marked, run)
            and observation_feasible(s, s.marked, obs)
            and observation_feasible(ns, ns.marked, obs)
        )
    if notion == "iso":
        a = inst.automaton
        everything = set(a.states)
        return (
            _project(a, run) == obs
            and any(
                string_reaches(a.with_initial({i}), everything, run)
                for i in inst.secret_initial
            )
            and any(
                observation_feasible(a.with_initial({i}), everything, obs)
                for i in inst.secret_initial
            )
            and not any(
                observation_feasible(a.with_initial({j}), everything, obs)
                for j in inst.nonsecret_initial
            )
        )
    if notion == "ifso":
        a = inst.automaton
        return (
            _project(a, run) == obs
            and any(
                string_reaches(a.with_initial({i}), {f}, run)
                for (i, f) in inst.secret_pairs
            )
            and any(
                observation_feasible(a.with_initial({i}), {f}, obs)
                for (i, f) in inst.secret_pairs
            )
            and not any(
                observation_feasible(a.with_initial({i}), {f}, obs)
                for (i, f) in inst.nonsecret_pairs
            )
        )
    raise ValueError(f"unknown notion {notion!r}")
