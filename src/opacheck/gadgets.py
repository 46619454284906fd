"""Instance generators and notion-to-notion transformations.

The generators turn classic hard problems (CNF satisfiability, DAG
reachability, DFA-union universality) into opacity instances whose verdict
mirrors the source problem, which makes them both stress-test inputs and
cross-checkable benchmarks.  The transformations move instances between
opacity notions while preserving the verdict exactly.

Fresh names introduced by a construction start from a reserved base ("a", "@",
"p'", ...): the base itself when it is free, otherwise the base followed by the
least positive integer that makes it free.  Every choice is recorded in the
returned metadata so outputs are reproducible.
"""

from __future__ import annotations

import warnings
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .automata import (_AUTOMATON, _CLAUSES, _INT, _STRING, Automaton, Event, _Record, _all,
                       _checked, _many, _rows, _scalar, topological_order)
from .errors import InputNotDeterministic, MalformedFormula, PreconditionViolated, TooLarge
from .opacity import _CSO, _LBO, CsoInstance, IsoInstance, LboInstance

MAX_GADGET_STATES = 2**24
"""Largest DAG vertex count and CNF gadget state count accepted; both are
checked before anything proportional to them is allocated."""


class _FreshNames:
    """Allocator of fresh names in one namespace.

    ``fresh(base)`` returns ``base`` if it is free, otherwise ``base`` followed
    by the least positive integer that makes it free, and takes the name.
    Names are only ever added, so the least free suffix of a base never goes
    down; remembering where each base's scan stopped makes a run of
    allocations linear in their number instead of quadratic.
    """

    def __init__(self, taken: Iterable[str]) -> None:
        self._taken = set(taken)
        self._next: dict[str, int] = {}  # base -> least suffix that may be free

    def fresh(self, base: str) -> str:
        k = self._next.get(base, 0)
        name = f"{base}{k}" if k else base
        while name in self._taken:
            k += 1
            name = f"{base}{k}"
        self._next[base] = k + 1
        self._taken.add(name)
        return name


class CnfFormula(_Record):
    """A CNF formula as clause sets of signed variable indices (DIMACS convention).

    A clause may not contain a variable in both polarities; such input is
    rejected rather than silently simplified.
    """

    variable_count: int
    clauses: tuple[frozenset[int], ...]
    _kinds = {"variable_count": _INT, "clauses": _CLAUSES}
    _error = MalformedFormula

    def __post_init__(self) -> None:
        if self.variable_count < 0:
            raise MalformedFormula("variable count must be non-negative")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise MalformedFormula(f"literal {lit} is out of range")
            for lit in clause:
                if -lit in clause:
                    raise MalformedFormula(
                        f"clause {sorted(clause)} contains a variable in both polarities"
                    )


class Dag(_Record):
    """A directed acyclic graph over vertices ``0 .. vertex_count-1`` with two
    distinguished vertices (``source`` may equal ``target``)."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    source: int
    target: int
    _kinds = {"vertex_count": _INT, "edges": _rows(2, "pairs of ints", int),
              "source": _INT, "target": _INT}

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("a DAG needs at least one vertex")
        if self.vertex_count > MAX_GADGET_STATES:
            raise TooLarge(f"a DAG has at most {MAX_GADGET_STATES} vertices")
        vertices = range(self.vertex_count)
        ends = list(chain.from_iterable(self.edges))
        if ends and (min(ends) < 0 or max(ends) >= self.vertex_count):
            for (u, v) in self.edges:  # the first offender, for the message
                if u not in vertices or v not in vertices:
                    raise ValueError(f"edge ({u}, {v}) is out of range")
        if self.source not in vertices or self.target not in vertices:
            raise ValueError("source and target must be vertices")
        out: list[list[int]] = [[] for _ in vertices]
        for (u, v) in self.edges:
            out[u].append(v)
        if any(u == v for (u, v) in self.edges) or topological_order(len(out), [out]) is None:
            raise ValueError("edge relation must be acyclic")


# The kinds of the generators' arguments, checked as the records' fields are.
_FORMULA = _scalar("a CnfFormula", lambda v: isinstance(v, CnfFormula))
_DAG = _scalar("a Dag", lambda v: isinstance(v, Dag))
_AUTOMATA = _many("Automaton values", _all(Automaton), tuple)


def gen_cnf_cso(formula: CnfFormula) -> CsoInstance:
    """Current-state opacity instance that is opaque iff the formula is unsatisfiable.

    One path per clause over the observable alphabet {0, 1}: step j reads 0
    when variable j occurs positively in the clause, 1 when negatively, and
    either bit otherwise, so the path accepts exactly the assignments
    falsifying its clause.  A separate path accepting every assignment ends in
    the sole secret state; the clause path ends are the non-secret states.
    The instance has exactly (clauses + 1) * (variables + 1) states.
    """
    formula = _checked("formula", _FORMULA, formula)
    n = formula.variable_count
    size = (len(formula.clauses) + 1) * (n + 1)
    if size > MAX_GADGET_STATES:
        raise TooLarge(f"the CNF gadget would have {size} states, more than {MAX_GADGET_STATES}")
    events = (Event("0"), Event("1"))
    states = [f"a{j}" for j in range(n + 1)]
    transitions = {(f"a{j}", bit, f"a{j + 1}") for j in range(n) for bit in "01"}
    initial = {"a0"}
    nonsecret: set[str] = set()
    for i, clause in enumerate(formula.clauses, start=1):
        previous = f"c{i}_0"
        states.append(previous)
        initial.add(previous)
        for j in range(1, n + 1):
            current = f"c{i}_{j}"
            states.append(current)
            if j in clause:
                labels = ("0",)
            elif -j in clause:
                labels = ("1",)
            else:
                labels = ("0", "1")
            transitions.update((previous, bit, current) for bit in labels)
            previous = current
        nonsecret.add(previous)
    automaton = Automaton(tuple(states), events, transitions, initial)
    return CsoInstance(automaton, frozenset({f"a{n}"}), frozenset(nonsecret))


def _vertex_automaton_parts(g: Dag, observable_event: str):
    states = list(map(str, range(g.vertex_count)))
    name = states.__getitem__
    transitions = set(
        zip(
            map(name, map(itemgetter(0), g.edges)),
            repeat(observable_event),
            map(name, map(itemgetter(1), g.edges)),
        )
    )
    return states, transitions


def gen_dag_weak_lbo(g: Dag) -> LboInstance:
    """Weak-opacity instance that is weakly opaque iff the target is reachable.

    Every edge becomes an observable a-transition; an unobservable b-transition
    leads from the target into a fresh state.  The secret language marks the
    target, the non-secret language marks the fresh state, so the projected
    languages intersect exactly on the paths into the target.
    """
    states, transitions = _vertex_automaton_parts(_checked("g", _DAG, g), "a")
    sink = f"{g.target}'"
    states.append(sink)
    transitions.add((str(g.target), "b", sink))
    events = (Event("a"), Event("b", observable=False))
    common = dict(
        states=tuple(states),
        alphabet=events,
        transitions=transitions,
        initial=frozenset({str(g.source)}),
    )
    return LboInstance(
        Automaton(**common, marked=frozenset({str(g.target)})),
        Automaton(**common, marked=frozenset({sink})),
    )


def gen_dag_cso_unary(g: Dag) -> CsoInstance:
    """Unary acyclic current-state opacity instance, opaque iff the target is
    unreachable: the target is the sole secret state and nothing is non-secret."""
    states, transitions = _vertex_automaton_parts(_checked("g", _DAG, g), "a")
    automaton = Automaton(
        tuple(states), (Event("a"),), transitions, frozenset({str(g.source)})
    )
    return CsoInstance(automaton, frozenset({str(g.target)}), frozenset())


class _Reduction(_Record):
    """A generator's result: its instance, then the choices its metadata lists."""

    def metadata(self) -> dict:
        """The fields after the first, by name, with tuples as lists."""
        values = {name: getattr(self, name) for name in self._fields[1:]}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}


class UnionUniversalityCso(_Reduction):
    """Output of :func:`gen_union_universality_cso` with its freshness metadata."""

    instance: CsoInstance
    chain_event: Optional[str]
    component_initials: tuple[str, ...]
    completed_components: tuple[int, ...]
    copied_components: tuple[int, ...]


def gen_union_universality_cso(components: Sequence[Automaton]) -> UnionUniversalityCso:
    """Deterministic instance that is opaque iff the union language is universal.

    Each input must be a single-initial DFA over one fully observable alphabet.
    Inputs are completed with a dead state where needed (marked languages are
    unchanged, but universality then coincides with opacity even for partial
    transition functions).  An initial state with any incoming transition gets
    a fresh copy so that no effective initial state can be re-entered; the
    copies are then chained by a fresh unobservable event, making the first one
    the sole initial state without changing the observer.  Secret states are
    the unmarked ones, non-secret states the marked ones.
    """
    components = _checked("components", _AUTOMATA, components)
    if not components:
        raise PreconditionViolated("at least one component automaton is required")
    reference = components[0].alphabet
    signature = {(e.name, e.observable) for e in reference}
    if not all(e.observable for e in reference):
        raise PreconditionViolated("component alphabets must be fully observable")
    event_names = [e.name for e in reference]

    states: list[str] = []
    transitions: set[tuple[str, str, str]] = set()
    marked: set[str] = set()
    component_initials: list[str] = []
    completed: list[int] = []
    copied: list[int] = []

    for k, component in enumerate(components, start=1):
        if {(e.name, e.observable) for e in component.alphabet} != signature:
            raise PreconditionViolated("all components must share one alphabet")
        if not component._structure["deterministic"]:
            raise InputNotDeterministic(f"component {k} is not a single-initial DFA")
        prefix = f"c{k}."
        local_states = [prefix + s for s in component.states]
        local_transitions = {
            (prefix + p, e, prefix + q) for (p, e, q) in component.transitions
        }
        local_marked = {prefix + s for s in component.marked}
        (init,) = {prefix + s for s in component.initial}

        names = _FreshNames(local_states)
        defined = {(p, e) for (p, e, _) in local_transitions}
        missing = [
            (s, e) for s in local_states for e in event_names if (s, e) not in defined
        ]
        if missing:
            completed.append(k)
            dead = names.fresh(prefix + "dead")
            local_states.append(dead)
            local_transitions.update((s, e, dead) for (s, e) in missing)
            local_transitions.update((dead, e, dead) for e in event_names)

        if any(q == init for (_, _, q) in local_transitions):
            copied.append(k)
            copy = names.fresh(init + "'")
            local_states.append(copy)
            outgoing = [(e, q) for (p, e, q) in local_transitions if p == init]
            local_transitions.update((copy, e, q) for (e, q) in outgoing)
            if init in local_marked:
                local_marked.add(copy)
            init = copy

        states.extend(local_states)
        transitions.update(local_transitions)
        marked.update(local_marked)
        component_initials.append(init)

    chain_event: Optional[str] = None
    alphabet = tuple(reference)
    if len(components) > 1:
        chain_event = _FreshNames(event_names).fresh("a")
        alphabet = alphabet + (Event(chain_event, observable=False),)
        transitions.update(
            (component_initials[i], chain_event, component_initials[i + 1])
            for i in range(len(component_initials) - 1)
        )

    automaton = Automaton(
        tuple(states), alphabet, transitions, frozenset({component_initials[0]}), marked
    )
    instance = CsoInstance(automaton, frozenset(states) - frozenset(marked), frozenset(marked))
    return UnionUniversalityCso(
        instance,
        chain_event,
        tuple(component_initials),
        tuple(completed),
        tuple(copied),
    )


class Split(_Record):
    """One eliminated nondeterministic transition: (source, event, target) was
    rerouted through ``detour_state``, the ``code``-th state of the
    unobservable chain leaving ``source``."""

    code: int
    source: str
    event: str
    target: str
    detour_state: str


class PoDeterminization(_Record):
    """Output of :func:`po_determinize` with its freshness metadata.

    ``splits`` is in creation order, grouped by source.  A split's code is its
    1-based position on its source's chain, so its detour is entered after
    that many unobservable steps.
    """

    automaton: Automaton
    unobservable_event: Optional[str]
    splits: tuple[Split, ...]
    initial_chain: tuple[str, ...]

    def metadata(self) -> dict:
        return {
            "unobservable_event": self.unobservable_event,
            "encoding": [
                {
                    "code": s.code,
                    "source": s.source,
                    "on": s.event,
                    "target": s.target,
                    "detour_state": s.detour_state,
                }
                for s in self.splits
            ],
            "initial_chain": list(self.initial_chain),
        }


def po_determinize(a: Automaton, chain_event: str) -> PoDeterminization:
    """Determinize a partially ordered automaton with one fresh unobservable event.

    Two stages.  Split: whenever a state ``p`` has several same-event
    transitions to distinct targets, one target (a self-loop if present,
    otherwise the lexicographically greatest) keeps the direct edge and every
    other target is rerouted through a fresh detour state.  The detours of
    ``p`` form one chain on a fresh unobservable event leaving ``p``: the one
    with code k is entered after k unobservable steps and exits to its target
    on the split event.  Single initial: several initial states are folded
    into a chain of fresh states connected by the unobservable event, each
    exiting on ``chain_event`` to one original initial state.  So the output
    has one state per input state and per split, plus one per initial state
    and one more when there are several initial states.

    Fresh names come from the bases ``p'`` (detour states leaving ``p``),
    ``q'k`` (the k-th state of the initial chain) and ``a`` (the unobservable
    event).  Each name is its base when that is free, otherwise the base
    followed by the least positive integer that makes it free among the names
    taken so far.

    Added states carry no secret status, so for any secret/non-secret sets
    over the original states the current-state opacity verdict is preserved.
    The output is deterministic and partially ordered.
    """
    a = _checked("a", _AUTOMATON, a)
    chain_event = _checked("chain_event", _STRING, chain_event)
    if not a._structure["partially_ordered"]:
        raise PreconditionViolated("po_determinize requires a partially ordered automaton")
    if chain_event not in a.observable_events:
        raise PreconditionViolated(
            f"chain event {chain_event!r} must be an observable event of the automaton"
        )

    state_names = _FreshNames(a.states)
    unobservable = _FreshNames(e.name for e in a.alphabet).fresh("a")
    out_states = list(a.states)
    transitions = set(a.transitions)

    splits: list[Split] = []
    for p in sorted(a.states):
        previous, code = p, 0
        for x in (e.name for e in a.alphabet):
            targets = a.successors(p, x)
            if len(targets) <= 1:
                continue
            keep = p if p in targets else targets[-1]
            for q in targets:
                if q == keep:
                    continue
                code += 1
                detour = state_names.fresh(f"{p}'")
                out_states.append(detour)
                transitions.remove((p, x, q))
                transitions.add((previous, unobservable, detour))
                transitions.add((detour, x, q))
                splits.append(Split(code, p, x, q, detour))
                previous = detour

    initial = set(a.initial)
    initial_chain: list[str] = []
    if len(initial) > 1:
        originals = sorted(initial)
        previous = state_names.fresh("q'0")
        out_states.append(previous)
        initial_chain.append(previous)
        for k, q in enumerate(originals, start=1):
            node = state_names.fresh(f"q'{k}")
            out_states.append(node)
            initial_chain.append(node)
            transitions.add((previous, unobservable, node))
            transitions.add((node, chain_event, q))
            previous = node
        initial = {initial_chain[0]}

    alphabet = a.alphabet
    added_event: Optional[str] = None
    if splits or initial_chain:
        added_event = unobservable
        alphabet = alphabet + (Event(added_event, observable=False),)
    automaton = Automaton(tuple(out_states), alphabet, transitions, initial, a.marked)
    return PoDeterminization(automaton, added_event, tuple(splits), tuple(initial_chain))


def cso_to_lbo(inst: CsoInstance) -> LboInstance:
    """Recast current-state opacity as language inclusion: the secret language
    marks the secret states, the non-secret language the non-secret states."""
    inst = _checked("inst", _CSO, inst)
    return LboInstance(
        inst.automaton.with_marked(inst.secret),
        inst.automaton.with_marked(inst.nonsecret),
    )


class IsoReduction(_Reduction):
    """Output of :func:`lbo_to_iso` with its freshness metadata."""

    instance: IsoInstance
    query_event: str
    secret_sink: str
    nonsecret_sink: str
    trimmed: bool


def lbo_to_iso(inst: LboInstance) -> IsoReduction:
    """Reduce language-based opacity to initial-state opacity.

    Both automata are trimmed to nonblocking form first (a warning is emitted
    when that changes anything).  A fresh observable query event leads from
    every marked state into a per-side sink, so the generated language of each
    side becomes the prefixes of its marked language plus the marked language
    followed by the query.  The two sides are combined into one automaton whose
    secret (resp. non-secret) initial states are those of the secret (resp.
    non-secret) side.
    """
    from .language import trim  # only this generator trims, so only it loads that layer

    inst = _checked("inst", _LBO, inst)
    secret = trim(inst.secret_automaton)
    nonsecret = trim(inst.nonsecret_automaton)
    trimmed = secret != inst.secret_automaton or nonsecret != inst.nonsecret_automaton
    if trimmed:
        warnings.warn(
            "language-based opacity inputs were blocking; trimmed automatically",
            stacklevel=2,
        )

    states = [f"s:{s}" for s in secret.states] + [f"ns:{s}" for s in nonsecret.states]
    state_names = _FreshNames(states)
    secret_sink = state_names.fresh("x_s")
    nonsecret_sink = state_names.fresh("x_ns")
    states.extend((secret_sink, nonsecret_sink))

    query = _FreshNames(e.name for e in inst.secret_automaton.alphabet).fresh("@")
    transitions = {(f"s:{p}", e, f"s:{q}") for (p, e, q) in secret.transitions}
    transitions |= {(f"ns:{p}", e, f"ns:{q}") for (p, e, q) in nonsecret.transitions}
    transitions |= {(f"s:{r}", query, secret_sink) for r in secret.marked}
    transitions |= {(f"ns:{r}", query, nonsecret_sink) for r in nonsecret.marked}

    secret_initial = {f"s:{s}" for s in secret.initial}
    nonsecret_initial = {f"ns:{s}" for s in nonsecret.initial}
    combined = Automaton(
        tuple(states),
        inst.secret_automaton.alphabet + (Event(query),),
        transitions,
        # With both languages empty, the secret sink is the initial state a file needs.
        secret_initial | nonsecret_initial or {secret_sink},
    )
    instance = IsoInstance(combined, frozenset(secret_initial), frozenset(nonsecret_initial))
    return IsoReduction(instance, query, secret_sink, nonsecret_sink, trimmed)
