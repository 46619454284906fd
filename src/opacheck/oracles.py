"""Independent brute-force reference implementations, used for testing only.

Nothing here shares traversal code with the main algorithms: this module sees
only the parsed data model and re-derives everything by exhaustive search, so
the two sides can cross-check each other.  Performance is explicitly not a
goal; inputs beyond desk scale are rejected or simply slow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from .automata import Automaton, Observation, Verdict, Witness
from .errors import PreconditionViolated, TooLarge
from .opacity import CsoInstance, IfsoInstance, IsoInstance

if TYPE_CHECKING:
    from .gadgets import CnfFormula, Dag

MAX_SAT_VARIABLES = 24

Assignment = tuple[bool, ...]


_BLOCK_VARIABLES = 16  # brute_sat's low variables: 2**16 assignments, ints of 8 KiB


def brute_sat(formula: CnfFormula) -> Optional[Assignment]:
    """Exhaustive satisfiability check; the lexicographically first satisfying
    assignment (False before True, first variable most significant) or None.

    The assignments are scanned in order, in blocks that fix the high
    variables.  In a block, a literal on one of the last ``_BLOCK_VARIABLES``
    is an int whose bit r is its value in the r-th assignment, and the formula
    is the AND over clauses of the OR of their literals (skipping the clauses
    a high literal satisfies): its least set bit is the least model."""
    n = formula.variable_count
    if n > MAX_SAT_VARIABLES:
        raise TooLarge(f"brute_sat handles at most {MAX_SAT_VARIABLES} variables, got {n}")
    low = min(n, _BLOCK_VARIABLES)
    high_count, full = n - low, (1 << (1 << low)) - 1
    rows: dict[int, int] = {}
    for j in range(high_count + 1, n + 1):
        run = 1 << (n - j)  # variable j is bit n - j of an assignment's number
        rows[j] = (((1 << run) - 1) << run) * (full // ((1 << 2 * run) - 1))
        rows[-j] = full ^ rows[j]
    for high in range(1 << high_count):
        true = {j if high >> (high_count - j) & 1 else -j for j in range(1, high_count + 1)}
        models = full
        for clause in formula.clauses:
            if true.isdisjoint(clause):
                value = 0
                for lit in clause:
                    value |= rows.get(lit, 0)
                models &= value
                if not models:
                    break
        if models:
            number = high << low | (models & -models).bit_length() - 1
            return tuple(bool(number >> (n - j) & 1) for j in range(1, n + 1))
    return None


def satisfies(formula: CnfFormula, assignment: Assignment) -> bool:
    if len(assignment) != formula.variable_count:
        raise ValueError("assignment length must equal the variable count")
    return all(
        any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in formula.clauses
    )


def dag_reachable(g: Dag) -> bool:
    """Depth-first search answer to whether the target is reachable from the source."""
    adjacency: dict[int, list[int]] = {}
    for (u, v) in g.edges:
        adjacency.setdefault(u, []).append(v)
    stack = [g.source]
    seen = {g.source}
    while stack:
        u = stack.pop()
        if u == g.target:
            return True
        for v in adjacency.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def _is_unobservable(a: Automaton, event: str) -> bool:
    """Whether the declared ``event`` is unobservable; an undeclared one raises KeyError."""
    return not {e.name: e.observable for e in a.alphabet}[event]


def _assert_acyclic(a: Automaton) -> None:
    # Local cycle check (colored depth-first search); deliberately not the
    # classification code of the main algorithms.
    adjacency: dict[str, list[str]] = {}
    for (p, _, q) in a.transitions:
        adjacency.setdefault(p, []).append(q)
    color: dict[str, int] = {}
    for root in a.states:
        if color.get(root):
            continue
        stack = [(root, iter(adjacency.get(root, ())))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
            elif color.get(nxt, 0) == 1:
                raise PreconditionViolated("enumeration oracles require an acyclic automaton")
            elif color.get(nxt, 0) == 0:
                color[nxt] = 1
                stack.append((nxt, iter(adjacency.get(nxt, ()))))


def _walks(a: Automaton):
    """Yield every (event string, end state) walk from the initial states.

    Assumes acyclicity; the empty walk from each initial state is included.
    """
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for (p, e, q) in sorted(a.transitions):
        adjacency.setdefault(p, []).append((e, q))
    stack = [((), q) for q in sorted(a.initial, reverse=True)]
    while stack:
        string, q = stack.pop()
        yield string, q
        for (e, target) in adjacency.get(q, ()):
            stack.append((string + (e,), target))


def _project(a: Automaton, string: Iterable[str]) -> Observation:
    return tuple(e for e in string if not _is_unobservable(a, e))


def enum_cso_acyclic(inst: CsoInstance) -> Verdict:
    """Definitional current-state opacity check by full language enumeration.

    Groups all strings of the (finite) generated language by their projection;
    opaque iff every observation consistent with a secret end state is also
    consistent with a non-secret one.  Witnesses are minimal: shortest, then
    lexicographic by alphabet declaration order, for both the observation and
    the replay string.
    """
    a = inst.automaton
    _assert_acyclic(a)
    rank = {e.name: k for k, e in enumerate(a.alphabet)}

    def key(string):
        return len(string), tuple(rank[e] for e in string)

    secret_strings: dict[Observation, tuple[str, ...]] = {}
    nonsecret_obs: set[Observation] = set()
    for string, end in _walks(a):
        obs = _project(a, string)
        if end in inst.secret:
            best = secret_strings.get(obs)
            if best is None or key(string) < key(best):
                secret_strings[obs] = string
        if end in inst.nonsecret:
            nonsecret_obs.add(obs)
    violating = set(secret_strings) - nonsecret_obs
    if not violating:
        return Verdict(True)
    observation = min(violating, key=key)
    return Verdict(False, Witness(observation, secret_strings[observation]))


def enum_languages_projected(a: Automaton, marking: Iterable[str]) -> set[Observation]:
    """The exact, finite set of projected strings reaching ``marking``."""
    marking = frozenset(marking)
    _assert_acyclic(a)
    return {_project(a, string) for string, end in _walks(a) if end in marking}


def observation_feasible(a: Automaton, targets: Iterable[str], observation: Observation) -> bool:
    """Membership query: does some string with this projection reach ``targets``?

    Used to replay emitted witnesses independently of the algorithm that
    produced them.
    """
    targets = frozenset(targets)
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for (p, e, q) in a.transitions:
        adjacency.setdefault(p, []).append((e, q))
    n = len(observation)
    stack = [(q, 0) for q in a.initial]
    seen = set(stack)
    while stack:
        q, k = stack.pop()
        if k == n and q in targets:
            return True
        for (e, target) in adjacency.get(q, ()):
            if _is_unobservable(a, e):
                nxt = (target, k)
            elif k < n and e == observation[k]:
                nxt = (target, k + 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def unobservable_closure(a: Automaton, states: Iterable[str]) -> frozenset[str]:
    """The least superset of ``states`` closed under unobservable transitions."""
    hidden = {e.name for e in a.alphabet if not e.observable}
    closed = set(states)
    grew = True
    while grew:
        found = {q for (p, e, q) in a.transitions if p in closed and e in hidden}
        grew = not found <= closed
        closed |= found
    return frozenset(closed)


def least_observation(a1: Automaton, start1: Iterable[tuple], marks1: Iterable[tuple],
                      a2: Automaton, start2: Iterable[tuple], marks2: Iterable[tuple], *,
                      common: bool = False) -> Optional[Observation]:
    """Definitional projected-language check on any two automata, cyclic ones
    included: the least observation after which the states that ``a1``
    deems possible meet ``marks1`` and those that ``a2`` deems possible miss
    ``marks2`` (meet them, with ``common``), or None when there is none.

    Each side holds a set of ``(tag, state)`` names, starting at its
    ``start``, and a mark is such a name too; the tag is carried along every
    run, so each tag's states are closed under the hidden events on their
    own.  A breadth-first search over every reachable pair of such sets, as
    frozensets, expanding ``a1``'s observable events in declaration order:
    the first pair it takes that meets the goal is the answer."""
    events = [e.name for e in a1.alphabet if e.observable]
    marks1, marks2 = frozenset(marks1), frozenset(marks2)

    def closed(a: Automaton, names) -> frozenset:
        by_tag: dict = {}
        for tag, q in names:
            by_tag.setdefault(tag, set()).add(q)
        return frozenset((tag, q) for tag, states in by_tag.items()
                         for q in unobservable_closure(a, states))

    def after(a: Automaton, names, e: str) -> frozenset:
        return closed(a, {(tag, q) for (tag, p) in names
                          for (p2, x, q) in a.transitions if p2 == p and x == e})

    start = (closed(a1, start1), closed(a2, start2))
    queue, seen = [(start, ())], {start}
    for (left, right), observation in queue:  # also visits the pairs queued while it runs
        if left & marks1 and bool(right & marks2) == common:
            return observation
        for e in events:
            pair = (after(a1, left, e), after(a2, right, e))
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, observation + (e,)))
    return None


def _untagged(states: Iterable[str]) -> set:
    return {(None, q) for q in states}


def least_cso_violation(inst: CsoInstance) -> Optional[Observation]:
    """Current-state opacity by :func:`least_observation`, one automaton on
    both sides: the least observation after which the states deemed possible
    meet the secret set and miss the non-secret one, or None when opaque."""
    a, start = inst.automaton, _untagged(inst.automaton.initial)
    return least_observation(a, start, _untagged(inst.secret), a, start, _untagged(inst.nonsecret))


def least_language_observation(a1: Automaton, m1: Iterable[str], a2: Automaton,
                               m2: Iterable[str], *, common: bool = False
                               ) -> Optional[Observation]:
    """The least observation in ``P(L_m(a1, m1)) - P(L_m(a2, m2))``, or in
    ``P(L_m(a1, m1)) & P(L_m(a2, m2))`` with ``common``; None when there is
    none."""
    return least_observation(a1, _untagged(a1.initial), _untagged(m1),
                             a2, _untagged(a2.initial), _untagged(m2), common=common)


def least_iso_violation(inst: IsoInstance) -> Optional[Observation]:
    """The least observation generated from a secret initial state and from
    no non-secret one, or None when initial-state opaque."""
    a, every = inst.automaton, _untagged(inst.automaton.states)
    return least_observation(a, _untagged(inst.secret_initial), every,
                             a, _untagged(inst.nonsecret_initial), every)


def least_ifso_violation(inst: IfsoInstance) -> Optional[Observation]:
    """The least observation of some secret pair's language and of no
    non-secret pair's, or None when initial-and-final-state opaque: each
    state is tagged with the initial state its run started in, so a pair
    ``(i, f)`` is the name ``f`` tagged ``i``."""
    a = inst.automaton
    secret, nonsecret = ({(i, i) for i, _ in pairs}
                         for pairs in (inst.secret_pairs, inst.nonsecret_pairs))
    return least_observation(a, secret, inst.secret_pairs, a, nonsecret, inst.nonsecret_pairs)


def string_reaches(a: Automaton, targets: Iterable[str], string: Iterable[str]) -> bool:
    """Membership query: does this full event string have a run into ``targets``?"""
    targets = frozenset(targets)
    current = set(a.initial)
    for e in string:
        current = {q for (p, e2, q) in a.transitions if p in current and e2 == e}
        if not current:
            return False
    return bool(current & targets)
