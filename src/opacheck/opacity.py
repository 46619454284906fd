"""Decision procedures for the five opacity notions.

Current-state opacity comes in two general algorithms (observer traversal and
language inclusion, which always agree), both searches on the estimate kernel
of :mod:`opacheck.automata`, plus one structural fast path for systems with a
single observable event whose only cycles are self-loops (partially ordered
automata), working on sets of observation lengths.  ``unary-acyclic`` is the
same fast path restricted to acyclic automata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .automata import (
    DEFAULT_OBSERVER_CAP,
    Automaton,
    Verdict,
    Witness,
    classify,
    inclusion_modulo_projection,
    intersection_nonempty_modulo_projection,
    realize_observation,
    _bits,
    _EstimateKernel,
    _inclusion,
    _reach,
)
from .errors import PreconditionViolated

CSO_ALGORITHMS = ("auto", "observer", "inclusion", "unary-acyclic", "unary-po")


@dataclass(frozen=True)
class CsoInstance:
    """Current-state opacity instance: which current states are secret/non-secret.

    The two sets may overlap, and states in neither set carry no status at all;
    such states never create or discharge a violation.
    """

    automaton: Automaton
    secret: frozenset[str]
    nonsecret: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "secret", frozenset(self.secret))
        object.__setattr__(self, "nonsecret", frozenset(self.nonsecret))
        declared = set(self.automaton.states)
        if not self.secret <= declared or not self.nonsecret <= declared:
            raise ValueError("secret and non-secret sets must be declared states")


@dataclass(frozen=True)
class LboInstance:
    """Language-based opacity instance: the secret and non-secret marked languages."""

    secret_automaton: Automaton
    nonsecret_automaton: Automaton

    def __post_init__(self) -> None:
        if self.secret_automaton.alphabet != self.nonsecret_automaton.alphabet:
            raise ValueError("both automata must declare the identical alphabet")


@dataclass(frozen=True)
class IsoInstance:
    """Initial-state opacity instance over subsets of the initial states."""

    automaton: Automaton
    secret_initial: frozenset[str]
    nonsecret_initial: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "secret_initial", frozenset(self.secret_initial))
        object.__setattr__(self, "nonsecret_initial", frozenset(self.nonsecret_initial))
        if not self.secret_initial <= self.automaton.initial:
            raise ValueError("secret initial states must be initial states")
        if not self.nonsecret_initial <= self.automaton.initial:
            raise ValueError("non-secret initial states must be initial states")


@dataclass(frozen=True)
class IfsoInstance:
    """Initial-and-final-state opacity instance: the secret is an (initial, marked) pair."""

    automaton: Automaton
    secret_pairs: frozenset[tuple[str, str]]
    nonsecret_pairs: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "secret_pairs", frozenset((i, f) for (i, f) in self.secret_pairs)
        )
        object.__setattr__(
            self, "nonsecret_pairs", frozenset((i, f) for (i, f) in self.nonsecret_pairs)
        )
        declared, initial = set(self.automaton.states), self.automaton.initial
        bad = [
            (i, f) for (i, f) in self.secret_pairs | self.nonsecret_pairs
            if i not in initial or f not in declared
        ]
        if bad:  # the least offender, so the message does not depend on the hash seed
            i, f = min(bad)
            if i not in declared or f not in declared:
                raise ValueError(f"pair ({i!r}, {f!r}) uses an undeclared state")
            raise ValueError(f"pair ({i!r}, {f!r}) must start in an initial state")


@dataclass(frozen=True)
class LengthSet:
    """Semilinear set of observation lengths: a finite part plus at most one ray.

    The denoted set is ``finite union [ray_start, infinity)``; finite points at
    or beyond the ray are dropped on construction since they are redundant.
    """

    finite: frozenset[int]
    ray_start: Optional[int] = None

    def __post_init__(self) -> None:
        fin = frozenset(int(k) for k in self.finite)
        if any(k < 0 for k in fin) or (self.ray_start is not None and self.ray_start < 0):
            raise ValueError("observation lengths are non-negative")
        if self.ray_start is not None:
            fin = frozenset(k for k in fin if k < self.ray_start)
        object.__setattr__(self, "finite", fin)

    def __contains__(self, k: int) -> bool:
        return k in self.finite or (self.ray_start is not None and k >= self.ray_start)

    def issubset(self, other: "LengthSet") -> bool:
        # A ray can only be covered by a ray starting no later; finite points
        # may be covered by finite points or by the ray.
        if self.ray_start is not None and (
            other.ray_start is None or other.ray_start > self.ray_start
        ):
            return False
        return all(k in other for k in self.finite)

    def min_uncovered(self, other: "LengthSet") -> Optional[int]:
        """Smallest length denoted here but missing from ``other`` (None if covered)."""
        bound = 0
        for v in (*self.finite, *other.finite, self.ray_start, other.ray_start):
            if v is not None:
                bound = max(bound, v + 1)
        for k in range(bound + 1):
            if k in self and k not in other:
                return k
        return None


def verify_cso_observer(inst: CsoInstance, *, cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Current-state opacity via the reachable estimates of the observer.

    Opaque iff every reachable estimate meeting the secret set also meets the
    non-secret set.  The witness is the shortest observation (ties broken by
    alphabet declaration order) reaching a violating estimate.
    """
    a = inst.automaton
    kernel = _EstimateKernel(a, cap)
    secret, nonsecret = kernel.mask(inst.secret), kernel.mask(inst.nonsecret)
    obs = kernel.search(kernel.start(), lambda x: x & secret and not x & nonsecret)
    if obs is None:
        return Verdict(True)
    return Verdict(False, Witness(obs, realize_observation(a, inst.secret, obs)))


def verify_cso_inclusion(inst: CsoInstance, *, cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Current-state opacity as projected language inclusion.

    The automaton marked by the secret set must be included, modulo projection,
    in the automaton marked by the non-secret set.  Agrees with
    :func:`verify_cso_observer` on every instance, witness included.
    """
    a = inst.automaton
    return inclusion_modulo_projection(a, inst.secret, a, inst.nonsecret, cap=cap)


def _sole_observable_event(a: Automaton) -> Optional[str]:
    events = a.observable_events
    return events[0] if len(events) == 1 else None


def verify_cso_unary_acyclic(inst: CsoInstance) -> Verdict:
    """Fast path for acyclic automata with a single observable event.

    The acyclic restriction of :func:`verify_cso_unary_po`: every acyclic
    automaton is partially ordered, its length sets have no ray, and the
    dynamic programming over the acyclic graph decides the inclusion.
    """
    a = inst.automaton
    if _sole_observable_event(a) is None or not classify(a).acyclic:
        raise PreconditionViolated(
            "unary-acyclic requires an acyclic automaton with exactly one observable event"
        )
    return verify_cso_unary_po(inst)


def _length_sets(a: Automaton, target_sets: Sequence[frozenset[str]]) -> list[LengthSet]:
    """Observation lengths of runs into each target set of a unary partially ordered automaton.

    The finite parts collect runs that use no observable self-loop: one
    dynamic programming pass over the self-loop-free transitions, which are
    acyclic, in the topological order that :func:`classify` also reads, with
    bit ``d`` of ``lengths[i]`` meaning "state ``i`` is reached after ``d``
    observations" (unobservable self-loops contribute nothing).  A single ray
    starts at the cheapest run through any observable self-loop, since that
    loop can be pumped; the same pass keeps that cost per state.
    """
    g = a._graph
    if g.order is None:
        raise PreconditionViolated("length sets require a partially ordered automaton")
    n = len(a.states)
    lengths = [0] * n
    # Fewest observations of a run that reaches the state through an observable
    # self-loop; n, more than a self-loop-free run can make, means none.
    pumped = [n] * n
    for s in a.initial:
        lengths[g.index[s]] = 1
    weighted = [(int(g.observable[k]), row) for k, row in enumerate(g.succ)]
    for u in g.order:
        here = lengths[u]
        if not here:
            continue
        if any(w and u in row[u] for w, row in weighted):
            pumped[u] = (here & -here).bit_length() - 1  # the shortest run here
        through = pumped[u]
        for w, row in weighted:
            for v in row[u]:
                if v != u:
                    lengths[v] |= here << w
                    if through + w < pumped[v]:
                        pumped[v] = through + w
    out = []
    for targets in target_sets:
        reached, ray = 0, n
        for t in targets:
            reached |= lengths[g.index[t]]
            ray = min(ray, pumped[g.index[t]])
        out.append(LengthSet(frozenset(_bits(reached)), ray if ray < n else None))
    return out


def observation_length_set(a: Automaton, targets: Iterable[str]) -> LengthSet:
    """Observation lengths of runs into ``targets`` for a unary partially ordered automaton."""
    return _length_sets(a, [frozenset(targets)])[0]


def verify_cso_unary_po(inst: CsoInstance) -> Verdict:
    """Fast path for partially ordered automata with a single observable event.

    Opaque iff the semilinear length set of the secret runs is contained in
    that of the non-secret runs (a ray is covered only by a ray starting no
    later).  The witness repeats the observable event for the smallest
    uncovered length.
    """
    a = inst.automaton
    event = _sole_observable_event(a)
    if event is None or not classify(a).partially_ordered:
        raise PreconditionViolated(
            "unary-po requires a partially ordered automaton with exactly one observable event"
        )
    secret_set, nonsecret_set = _length_sets(a, (inst.secret, inst.nonsecret))
    k = secret_set.min_uncovered(nonsecret_set)
    if k is None:
        return Verdict(True)
    obs = (event,) * k
    return Verdict(False, Witness(obs, realize_observation(a, inst.secret, obs)))


def select_cso_algorithm(inst: CsoInstance) -> str:
    """Routing used by ``verify_cso(..., "auto")``.

    With one observable event, ``unary-acyclic`` for an acyclic automaton and
    ``unary-po`` for any other partially ordered one (both run the same
    length-set fast path); ``observer`` otherwise.  The routing reads the
    automaton's one cached :func:`classify` report.
    """
    a = inst.automaton
    if _sole_observable_event(a) is not None:
        report = classify(a)
        if report.acyclic:
            return "unary-acyclic"
        if report.partially_ordered:
            return "unary-po"
    return "observer"


def verify_cso(
    inst: CsoInstance, algorithm: str = "auto", *, cap: int = DEFAULT_OBSERVER_CAP
) -> Verdict:
    """Current-state opacity with selectable algorithm.

    ``auto`` routes to the structurally cheapest applicable algorithm; forcing
    an inapplicable one raises :class:`PreconditionViolated`.  All applicable
    choices return the same verdict and witness.
    """
    if algorithm not in CSO_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {CSO_ALGORITHMS}")
    if algorithm == "auto":
        algorithm = select_cso_algorithm(inst)
    if algorithm == "observer":
        return verify_cso_observer(inst, cap=cap)
    if algorithm == "inclusion":
        return verify_cso_inclusion(inst, cap=cap)
    if algorithm == "unary-acyclic":
        return verify_cso_unary_acyclic(inst)
    return verify_cso_unary_po(inst)


def verify_lbo(inst: LboInstance, *, cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Language-based opacity: the projected secret language is contained in the
    projected non-secret language."""
    return inclusion_modulo_projection(
        inst.secret_automaton,
        inst.secret_automaton.marked,
        inst.nonsecret_automaton,
        inst.nonsecret_automaton.marked,
        cap=cap,
    )


def verify_lbo_weak(inst: LboInstance) -> Verdict:
    """Language-based weak opacity: some secret string is confused with some
    non-secret string, i.e. the projected languages intersect.  The witness (on
    a holding verdict) is the shortest common observation."""
    return intersection_nonempty_modulo_projection(
        inst.secret_automaton,
        inst.secret_automaton.marked,
        inst.nonsecret_automaton,
        inst.nonsecret_automaton.marked,
    )


def verify_iso(inst: IsoInstance, *, cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Initial-state opacity over generated languages.

    Everything observable from the secret initial states must also be
    observable from the non-secret ones: one projected inclusion, with every
    state marked since generated languages are used.  The witness is the
    shortest observation from any secret initial state, ties broken by
    alphabet declaration order.
    """
    a = inst.automaton
    return _inclusion(a, inst.secret_initial, a.states, a, inst.nonsecret_initial, a.states, cap)


def verify_ifso(inst: IfsoInstance, *, cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Initial-and-final-state opacity.

    Each pair (i, f) contributes the language of the automaton restarted in i
    and marked at f; the union of the secret pair languages must be included,
    modulo projection, in the union of the non-secret pair languages.  Both
    sides run on one automaton that holds, per distinct initial state of a
    pair, a copy of the part of ``inst.automaton`` reachable from it: copies
    restarted in the same state reach the same states, so one copy serves
    all of that state's pairs on both sides, and a final its start cannot
    reach is dropped.  Each side starts in the copies of its own pairs'
    initial states and is marked at their finals.
    """
    a, g = inst.automaton, inst.automaton._graph
    ends: dict[str, tuple[list[str], list[str]]] = {}  # i -> (secret finals, non-secret finals)
    for side, pairs in enumerate((inst.secret_pairs, inst.nonsecret_pairs)):
        for (i, f) in pairs:
            ends.setdefault(i, ([], []))[side].append(f)
    states, transitions, starts, marked = [], [], ([], []), ([], [])
    for k, (i, finals) in enumerate(sorted(ends.items())):
        kept = sorted(_reach([g.index[i]], g.succ))
        name = {p: f"{k}:{a.states[p]}" for p in kept}
        states.extend(name.values())
        for e, row in zip(a.alphabet, g.succ):
            transitions.extend((name[p], e.name, name[q]) for p in kept for q in row[p])
        for side, fs in enumerate(finals):
            if fs:
                starts[side].append(name[g.index[i]])
                reached = (g.index[f] for f in fs)
                marked[side].extend(name[j] for j in reached if j in name)
    copies = Automaton(tuple(states), a.alphabet, transitions, ())
    return _inclusion(copies, starts[0], marked[0], copies, starts[1], marked[1], cap)
