"""The projected-language layer: trimming, projected inclusion and
intersection, and the verifiers of the notions they decide.

LBO, ISO and IFSO are each one projected inclusion; weak LBO is one
projected intersection.  Inclusion runs a shortest-then-least search on the
estimate kernels of :mod:`opacheck.automata`, or, between partially ordered
automata with one observable event, compares sets of observation lengths by
CSO's ``unary-po`` helpers, also there: no CSO verification loads this module.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Sequence

from .automata import (_AUTOMATON, _CAP, _EMPTY, _NAMES, DEFAULT_OBSERVER_CAP, Automaton,
                       Observation, Verdict, Witness, _bits, _checked, _EstimateKernel,
                       _least_uncovered, _length_sets, _lex_least_label, _require,
                       _unary_event, _Work, realize_observation)
from .opacity import _IFSO, _ISO, _LBO, IfsoInstance, IsoInstance, LboInstance


def _reach(seeds: Iterable[int], rows: Sequence[Sequence[Sequence[int]]]) -> set[int]:
    """The nodes reachable from ``seeds`` along any of ``rows``, where
    ``row[i]`` lists the targets of node ``i``."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        i = todo.pop()
        for row in rows:
            for j in row[i]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
    return seen


def trim(a: Automaton) -> Automaton:
    """Restrict to states reachable from the initial set and co-reachable to a marked state.

    The marked language is unchanged; an automaton with no marked state trims
    to the empty automaton.
    """
    g = _checked("a", _AUTOMATON, a)._graph
    backward: list[list[int]] = [[] for _ in a.states]
    for row in g.succ:
        for i, targets in enumerate(row):
            for j in targets:
                backward[j].append(i)
    kept = _reach((g.index[s] for s in a.initial), g.succ) & _reach(
        (g.index[s] for s in a.marked), [backward]
    )
    keep = {a.states[i] for i in kept}
    return Automaton(
        tuple(s for s in a.states if s in keep),
        a.alphabet,
        {(p, e, q) for (p, e, q) in a.transitions if p in keep and q in keep},
        a.initial & keep,
        a.marked & keep,
    )


def _check_language_args(a1: Automaton, m1: Iterable[str], a2: Automaton, m2: Iterable[str]):
    """``(m1, m2)`` as frozensets, once the four arguments are checked."""
    a1, a2 = _checked("a1", _AUTOMATON, a1), _checked("a2", _AUTOMATON, a2)
    m1, m2 = _checked("m1", _NAMES, m1), _checked("m2", _NAMES, m2)
    _require(m1 <= set(a1.states), "marked set of the first automaton must be declared states")
    _require(m2 <= set(a2.states), "marked set of the second automaton must be declared states")
    _require(
        set(a1.observable_events) == set(a2.observable_events),
        "both automata must share one observable alphabet",
    )
    return m1, m2


def _kernels(a1: Automaton, a2: Automaton, cap: int = DEFAULT_OBSERVER_CAP):
    """A pair search's graphs, one kernel per side, and the right index of
    each left event.  Both kernels are over states, so equal presentations
    of one question hit the cap together; only the observer's search
    (:func:`~opacheck.automata._least_violation`) runs on a quotient."""
    g1, g2 = a1._graph, a2._graph
    left, right = _EstimateKernel(g1, cap), _EstimateKernel(g2, cap)
    return g1, g2, left, right, [right.event_index[e] for e in left.events]


def _least_difference(
    a1: Automaton, initial1: Collection[str], m1: Collection[str],
    a2: Automaton, initial2: Collection[str], m2: Collection[str], cap: int,
) -> Optional[Observation]:
    """Shortest, then least, observation in ``P(L(a1, m1)) - P(L(a2, m2))``
    with each side started in the given states, on the estimate kernels
    that :func:`_kernels` builds.

    The search's right nodes are estimate ids: a right step interns its
    estimate's post-image, as the observer's search does, which bounds them
    by the cap plus the empty estimate.  None means the inclusion holds.
    """
    g1, g2, left, right, right_event = _kernels(a1, a2, cap)
    m1, m2 = g1.mask(m1), g2.mask(m2)

    def move(s: int, states: int, k: int):
        states = left.post(states, k)
        if not states:
            return (), 0
        if s != _EMPTY:
            s = right.intern(right.post(right.masks[s], right_event[k]))
        return (s,), states

    def refutes(s: int, states: int) -> bool:
        return bool(states & m1) and (s == _EMPTY or not right.masks[s] & m2)

    start = [(right.intern(right.close(g2.mask(initial2))), left.close(g1.mask(initial1)))]
    work = _Work()
    try:
        obs = _lex_least_label(start, range(len(left.events)), move, refutes, work)
    finally:
        work.estimates = len(right.masks)
    return None if obs is None else tuple(left.events[k] for k in obs)


def inclusion_modulo_projection(
    a1: Automaton,
    m1: Iterable[str],
    a2: Automaton,
    m2: Iterable[str],
    *,
    cap: int = DEFAULT_OBSERVER_CAP,
) -> Verdict:
    """Decide ``P(L_m(a1, m1)) subseteq P(L_m(a2, m2))``.

    Left states are paired with the estimates of ``a2`` (the empty estimate
    is the rejecting sink); a reachable pair (state in ``m1``, estimate
    missing ``m2``) refutes the inclusion.  Estimates of ``a2`` are built on
    the fly, only as far as the search reaches, and at most ``cap`` of them.
    On failure the witness carries the shortest observation in the difference
    (ties broken by a1's alphabet declaration order) and a string of ``a1``
    realizing it.
    """
    m1, m2 = _check_language_args(a1, m1, a2, m2)
    return _inclusion(a1, a1.initial, m1, a2, a2.initial, m2, cap)


def _inclusion(
    a1: Automaton, initial1: Collection[str], m1: Collection[str],
    a2: Automaton, initial2: Collection[str], m2: Collection[str], cap: int,
) -> Verdict:
    """:func:`inclusion_modulo_projection` with each side started in the
    given states rather than its automaton's initial ones.  The arguments
    but ``cap`` are trusted.

    When both sides are partially ordered with one observable event, the
    inclusion is that of their observation length sets: :func:`_length_sets`
    gives each side's as a ``(mask, ray_start)`` pair, and
    :func:`_least_uncovered` compares the two.  No kernel is built then (nor
    is the cap consulted).  Otherwise :func:`_least_difference` decides it.
    Either search's tables are garbage before the witness is realized.
    """
    cap = _checked("cap", _CAP, cap)
    event = _unary_event(a1)
    if event is not None and _unary_event(a2) is not None:
        algorithm = "unary-po"
        lengths = _length_sets(a1, initial1, [m1]) + _length_sets(a2, initial2, [m2])
        k = _least_uncovered(*lengths)
        obs = None if k is None else (event,) * k
    else:
        algorithm = "inclusion"
        obs = _least_difference(a1, initial1, m1, a2, initial2, m2, cap)
    if obs is None:
        return Verdict(True, algorithm=algorithm)
    return Verdict(False, Witness(obs, realize_observation(a1, m1, obs, initial=initial1)), algorithm)


def intersection_nonempty_modulo_projection(
    a1: Automaton, m1: Iterable[str], a2: Automaton, m2: Iterable[str]
) -> Verdict:
    """Decide ``P(L_m(a1, m1)) intersect P(L_m(a2, m2)) != empty``.

    Breadth-first search for a reachable marked pair of the projected product;
    when nonempty the verdict holds and the witness is the shortest common
    observation together with a string of ``a1`` realizing it.
    """
    m1, m2 = _check_language_args(a1, m1, a2, m2)
    obs = _least_common(a1, m1, a2, m2)
    if obs is None:
        return Verdict(False, algorithm="product")
    return Verdict(True, Witness(obs, realize_observation(a1, m1, obs)), "product")


def _least_common(
    a1: Automaton, m1: Collection[str], a2: Automaton, m2: Collection[str]
) -> Optional[Observation]:
    """Shortest, then least, observation in ``P(L(a1, m1)) & P(L(a2, m2))``.

    The search's right nodes are the states of ``a2``.  The left side steps
    by its kernel's post-images, the right side by its kernel's
    closed-successor rows.
    """
    g1, g2, left, right, right_event = _kernels(a1, a2)
    m1, m2 = g1.mask(m1), g2.mask(m2)
    targets = [[None] * g2.size for _ in left.events]  # right.rows' members, as met

    def move(y: int, states: int, k: int):
        states = left.post(states, k)
        if not states:
            return (), 0
        row = targets[k]
        if row[y] is None:
            row[y] = _bits(right.rows[right_event[k]][y])
        return row[y], states

    def is_goal(y: int, states: int) -> bool:
        return bool(states & m1) and bool(m2 >> y & 1)

    start = left.close(g1.mask(a1.initial))
    start = [(y, start) for y in _bits(right.close(g2.mask(a2.initial)))]
    obs = _lex_least_label(start, range(len(left.events)), move, is_goal, _Work())
    return None if obs is None else tuple(left.events[k] for k in obs)


def verify_lbo(inst: LboInstance, *, cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Language-based opacity: the projected secret language is contained in the
    projected non-secret language."""
    inst = _checked("inst", _LBO, inst)
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
    inst = _checked("inst", _LBO, inst)
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
    inst = _checked("inst", _ISO, inst)
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
    inst = _checked("inst", _IFSO, inst)
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
