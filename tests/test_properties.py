"""Property tests of the estimate searches against the independent oracles.

Inputs come from ``helpers.rand_automaton`` seeded by Hypothesis, over two
observable events and one unobservable event; an explicit unobservable cycle
may be added so that closures over cycles are always exercised.  Minimality
of witnesses is checked by enumerating observations with the membership-only
``oracles.observation_feasible``, and that of realized runs by enumerating
strings with ``oracles.string_reaches``.  The pair search under them,
``_lex_least_label``, is also checked on its own, on drawn move relations
against plain subset simulation.  The records' row check is checked on
drawn mixes of good rows and items that only pass for rows by accident.
"""

import itertools
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opacheck import (
    Automaton,
    CsoInstance,
    Dag,
    Event,
    IfsoInstance,
    IsoInstance,
    LboInstance,
    ObserverBlowup,
    classify,
    cso_to_lbo,
    inclusion_modulo_projection,
    intersection_nonempty_modulo_projection,
    lbo_to_iso,
    po_determinize,
    realize_observation,
    verify_cso,
    verify_ifso,
    verify_iso,
    verify_lbo,
)
from opacheck.automata import (
    _closures,
    _least_uncovered,
    _length_sets,
    _lex_least_label,
    _quotient,
    _Work,
)
from opacheck.language import _inclusion
from opacheck.oracles import (
    enum_cso_acyclic,
    enum_languages_projected,
    observation_feasible,
    string_reaches,
    unobservable_closure,
)

from helpers import ALPHABET_1OBS_1UO, ALPHABET_2OBS_1UO, kernel_search, members, rand_automaton

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def with_unobservable_cycle(rng, a: Automaton) -> Automaton:
    """``a`` plus a cycle of unobservable ``u`` transitions through up to three states."""
    cycle = rng.sample(a.states, min(len(a.states), rng.randint(1, 3)))
    extra = {(p, "u", q) for p, q in zip(cycle, cycle[1:] + cycle[:1])}
    return Automaton(a.states, a.alphabet, a.transitions | extra, a.initial, a.marked)


@st.composite
def automata(draw, structure="any"):
    rng = draw(st.randoms(use_true_random=False))
    a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6, structure=structure)
    if structure == "any" and draw(st.booleans()):
        a = with_unobservable_cycle(rng, a)
    return a


@st.composite
def cso_instances(draw, structure="any"):
    a = draw(automata(structure))
    states = st.frozensets(st.sampled_from(a.states))
    return CsoInstance(a, draw(states), draw(states))


@st.composite
def po_cso_instances_with_copies(draw, structure="po"):
    """Partially ordered (or, with ``structure="acyclic"``, acyclic) CSO
    instances where some states have a copy: it has its original's targets
    (a self-loop becomes its own), sets and initial status, and each
    transition into the original may move to it or also go to it.  An
    original and its copy are bisimilar."""
    inst = draw(cso_instances(structure=structure))
    a, rng = inst.automaton, draw(st.randoms(use_true_random=False))
    states, transitions, initial = list(a.states), set(a.transitions), set(a.initial)
    secret, nonsecret = set(inst.secret), set(inst.nonsecret)
    for s in rng.sample(a.states, rng.randint(1, len(a.states))):
        copy = s + "'"
        states.append(copy)
        for (p, e, q) in sorted(transitions):
            if p == s:
                transitions.add((copy, e, copy if q == s else q))
            elif q == s and rng.random() < 0.7:
                if rng.random() < 0.5:
                    transitions.discard((p, e, q))
                transitions.add((p, e, copy))
        for group in (initial, secret, nonsecret):
            if s in group:
                group.add(copy)
    a = Automaton(tuple(states), a.alphabet, transitions, initial)
    return CsoInstance(a, frozenset(secret), frozenset(nonsecret))


def observations(a: Automaton, max_length: int):
    """Every observation up to ``max_length``, shortest first, then in declaration order."""
    for length in range(max_length + 1):
        yield from itertools.product(a.observable_events, repeat=length)


def first_difference(a1, m1, a2, m2, max_length):
    """Least observation of ``P(L(a1, m1)) - P(L(a2, m2))`` up to ``max_length``, by enumeration."""
    for obs in observations(a1, max_length):
        if observation_feasible(a1, m1, obs) and not observation_feasible(a2, m2, obs):
            return obs
    return None


def first_common(a1, m1, a2, m2, max_length):
    """Least observation of ``P(L(a1, m1)) & P(L(a2, m2))`` up to ``max_length``, by enumeration."""
    for obs in observations(a1, max_length):
        if observation_feasible(a1, m1, obs) and observation_feasible(a2, m2, obs):
            return obs
    return None


def strings_observed_as(a: Automaton, obs, length: int):
    """Every full string of ``length`` events whose projection is ``obs``, in
    alphabet declaration order."""
    if length == 0:
        if not obs:
            yield ()
        return
    for e in a.alphabet:
        if not e.observable:
            rest = obs if length > len(obs) else None
        else:
            rest = obs[1:] if obs[:1] == (e.name,) else None
        if rest is not None:
            for tail in strings_observed_as(a, rest, length - 1):
                yield (e.name, *tail)


def has_cycle(a: Automaton) -> bool:
    """Whether the self-loop-free transitions of ``a`` have a cycle, by a
    colored depth-first search."""
    succ = {s: [q for (p, _, q) in a.transitions if p == s and q != s] for s in a.states}
    color = dict.fromkeys(a.states, "white")

    def reaches_grey(p) -> bool:
        color[p] = "grey"
        for q in succ[p]:
            if color[q] == "grey" or (color[q] == "white" and reaches_grey(q)):
                return True
        color[p] = "black"
        return False

    return any(color[s] == "white" and reaches_grey(s) for s in a.states)


@st.composite
def unobservable_chains(draw):
    """A chain of unobservable ``u`` transitions, some of its states with an
    unobservable move to itself or further along the chain and an observable
    ``a`` back to its start, declared in the chain's order or in reverse."""
    n = draw(st.integers(min_value=1, max_value=12))
    chain = [f"q{i}" for i in range(n)]
    transitions = {(chain[i], "u", chain[i + 1]) for i in range(n - 1)}
    for i in draw(st.sets(st.integers(min_value=0, max_value=n - 1))):
        transitions.add((chain[i], "u", chain[draw(st.integers(min_value=i, max_value=n - 1))]))
        transitions.add((chain[i], "a", chain[0]))
    states = chain if draw(st.booleans()) else chain[::-1]
    return Automaton(tuple(states), ALPHABET_1OBS_1UO, transitions, {chain[0]})


@PROPERTY_SETTINGS
@given(st.one_of(automata(), unobservable_chains()))
def test_the_closure_of_each_node_is_the_unobservable_reach_of_its_state(a):
    g = a._graph
    closure = _closures(g)
    for s in a.states:
        assert closure[g.index[s]] == g.mask(unobservable_closure(a, {s}))


@PROPERTY_SETTINGS
@given(st.sampled_from(("any", "acyclic", "po")).flatmap(automata))
def test_classify_equals_a_recomputation_from_the_transitions(a):
    report = classify(a)
    assert report.partially_ordered == (not has_cycle(a))
    self_loop = any(p == q for (p, _, q) in a.transitions)
    assert report.acyclic == (report.partially_ordered and not self_loop)
    targets = Counter((p, e) for (p, e, _) in a.transitions)
    assert report.deterministic == (len(a.initial) == 1 and max(targets.values(), default=1) == 1)


def cso_outcome(inst, algorithm, cap):
    try:
        return verify_cso(inst, algorithm, cap=cap)
    except ObserverBlowup:
        return "cap hit"


@PROPERTY_SETTINGS
@given(cso_instances(), st.integers(min_value=1, max_value=8))
def test_observer_and_inclusion_agree_including_the_cap(inst, cap):
    assert cso_outcome(inst, "observer", cap) == cso_outcome(inst, "inclusion", cap)
    assert verify_cso(inst, "observer") == verify_cso(inst, "inclusion")


@PROPERTY_SETTINGS
@given(cso_instances())
def test_cso_witness_replays_and_is_least(inst):
    a = inst.automaton
    verdict = verify_cso(inst, "observer")
    if verdict.holds:
        assert first_difference(a, inst.secret, a, inst.nonsecret, 3) is None
        return
    obs = verdict.witness.observation
    assert observation_feasible(a, inst.secret, obs)
    assert not observation_feasible(a, inst.nonsecret, obs)
    assert first_difference(a, inst.secret, a, inst.nonsecret, len(obs)) == obs


@PROPERTY_SETTINGS
@given(cso_instances(structure="acyclic"))
def test_cso_matches_enumeration_on_acyclic_inputs(inst):
    reference = enum_cso_acyclic(inst)
    assert verify_cso(inst, "observer") == reference
    assert verify_cso(inst, "inclusion") == reference


def interned_search(inst, respect=()):
    """The CSO observer search on a fresh kernel of ``inst``'s graph
    quotiented by ``respect``: its observation and how many estimates it
    interned."""
    _, work, obs = kernel_search(inst.automaton, respect, inst.secret, inst.nonsecret)
    return obs, work.estimates


@PROPERTY_SETTINGS
@given(st.one_of(cso_instances(structure="po"), po_cso_instances_with_copies()), st.data())
def test_bisimulation_classes_are_stable(inst, data):
    # Checked on the transitions by name: the members of a class agree on
    # the sets and on their targets by class, which are their class's row.
    # Also with sets drawn again, which may tell a copy from its original.
    a = inst.automaton
    states = st.frozensets(st.sampled_from(a.states))
    for sets in ((inst.secret, inst.nonsecret), (data.draw(states), data.draw(states))):
        q = _quotient(a._graph, sets)
        assert q is a._graph or q.size < len(a.states)
        of = q.index
        assert set(of.values()) == set(range(q.size))
        targets = {(s, e.name): set() for s in a.states for e in a.alphabet}
        for (p, e, t) in a.transitions:
            targets[p, e].add(of[t])
        classes = {}
        for s in a.states:
            classes.setdefault(of[s], []).append(s)
        for first, *rest in classes.values():
            for s in rest:
                assert all((s in found) == (first in found) for found in sets)
        for (s, e), found in targets.items():
            assert set(q.succ[q.event_index[e]][of[s]]) == found


@PROPERTY_SETTINGS
@given(po_cso_instances_with_copies(structure="acyclic"), st.data())
def test_class_representatives_decide_as_the_automaton(inst, data):
    # One representative per class of the quotient, keeping its own moves
    # with their targets replaced by representatives, is an automaton on
    # which the independent oracle gives the verdict and witness it gives on
    # the original.  Checked with the drawn sets, under which every copy
    # shares its original's class, and with sets drawn again, which may tell
    # a copy apart.
    a = inst.automaton
    drawn = (inst.secret, inst.nonsecret)
    assert _quotient(a._graph, drawn).size < len(a.states)
    states = st.frozensets(st.sampled_from(a.states))
    for sets in (drawn, (data.draw(states), data.draw(states))):
        q = _quotient(a._graph, sets)
        first = {}
        for s in a.states:
            first.setdefault(q.index[s], s)
        rep = {s: first[q.index[s]] for s in a.states}
        kept = Automaton(tuple(first.values()), a.alphabet,
                         {(p, e, rep[t]) for (p, e, t) in a.transitions if rep[p] == p},
                         {rep[s] for s in a.initial})
        image = CsoInstance(kept, *(frozenset(map(rep.get, found)) for found in sets))
        assert enum_cso_acyclic(image) == enum_cso_acyclic(CsoInstance(a, *sets))


@PROPERTY_SETTINGS
@given(st.one_of(cso_instances(structure="po"), po_cso_instances_with_copies()))
def test_class_estimates_decide_as_the_estimates_of_states(inst):
    # Both names run the observer's search on class estimates.  Checked
    # against that search on estimates of states, and against the pair
    # search on the LBO image, with two kernels over states and no quotient:
    # the same verdict and the same whole witness.
    obs, _ = interned_search(inst)
    observer = verify_cso(inst, "observer")
    for verdict in (observer, verify_cso(inst, "inclusion")):
        assert verdict.holds == (obs is None)
        assert verdict.holds or verdict.witness.observation == obs
    image = verify_lbo(cso_to_lbo(inst))
    assert (image, image.algorithm) == (observer, "inclusion")


@PROPERTY_SETTINGS
@given(st.one_of(cso_instances(), po_cso_instances_with_copies()))
def test_class_estimates_are_the_estimates_of_states_by_class(inst):
    # Walking every estimate, the class estimates, as sets of states, are
    # the estimates of states closed up to whole classes; so there are at
    # most as many, and the CSO search interns at most as many too.
    a, respect = inst.automaton, (inst.secret, inst.nonsecret)
    g, q = a._graph, _quotient(a._graph, respect)
    raw, quotient = kernel_search(a)[0], kernel_search(a, respect)[0]
    by_class = {members(a, q, q.mask(members(a, g, x))) for x in raw.masks}
    assert {members(a, q, x) for x in quotient.masks} == by_class
    _, raw_count = interned_search(inst)
    _, quotient_count = interned_search(inst, respect)
    assert quotient_count <= raw_count
    if not classify(a).partially_ordered:
        assert q is g and quotient_count == raw_count


@PROPERTY_SETTINGS
@given(automata(), automata())
def test_inclusion_witness_replays_and_is_least(a1, a2):
    verdict = inclusion_modulo_projection(a1, a1.marked, a2, a2.marked)
    if verdict.holds:
        assert first_difference(a1, a1.marked, a2, a2.marked, 3) is None
        return
    obs = verdict.witness.observation
    assert observation_feasible(a1, a1.marked, obs)
    assert not observation_feasible(a2, a2.marked, obs)
    assert first_difference(a1, a1.marked, a2, a2.marked, len(obs)) == obs


@PROPERTY_SETTINGS
@given(automata(), automata())
def test_intersection_witness_replays_and_is_least(a1, a2):
    verdict = intersection_nonempty_modulo_projection(a1, a1.marked, a2, a2.marked)
    if not verdict.holds:
        assert first_common(a1, a1.marked, a2, a2.marked, 3) is None
        return
    obs, run = verdict.witness.observation, verdict.witness.secret_run
    assert observation_feasible(a1, a1.marked, obs)
    assert observation_feasible(a2, a2.marked, obs)
    assert first_common(a1, a1.marked, a2, a2.marked, len(obs)) == obs
    assert run in strings_observed_as(a1, obs, len(run))
    assert string_reaches(a1, a1.marked, run)


@PROPERTY_SETTINGS
@given(st.one_of(automata(), automata("po")), st.data(), st.integers(min_value=1, max_value=4))
def test_equal_copies_decide_alike(a, data, cap):
    # No kernel is shared by identity: against ``a`` itself and against an
    # equal copy, each side gets its own kernel over states.
    copy = Automaton(a.states, a.alphabet, a.transitions, a.initial, a.marked)
    assert copy == a and copy is not a
    states = st.frozensets(st.sampled_from(a.states))
    m1, m2, initial1, initial2 = (data.draw(states) for _ in range(4))
    for decide in (inclusion_modulo_projection, intersection_nonempty_modulo_projection):
        shared, separate = decide(a, m1, a, m2), decide(a, m1, copy, m2)
        assert (shared, shared.algorithm) == (separate, separate.algorithm)

    def outcome(a2, initial2):
        try:
            verdict = _inclusion(a, initial1, m1, a2, initial2, m2, cap)
        except ObserverBlowup:
            return "cap hit"
        return verdict, verdict.algorithm

    assert outcome(a, initial2) == outcome(copy, initial2)


@PROPERTY_SETTINGS
@given(automata(structure="acyclic"), automata(structure="acyclic"))
def test_inclusion_and_intersection_match_enumeration_on_acyclic_inputs(a1, a2):
    left = enum_languages_projected(a1, a1.marked)
    right = enum_languages_projected(a2, a2.marked)

    def least(observations_):
        rank = {e: k for k, e in enumerate(a1.observable_events)}
        return min(observations_, key=lambda obs: (len(obs), [rank[e] for e in obs]))

    included = inclusion_modulo_projection(a1, a1.marked, a2, a2.marked)
    assert included.holds == (left <= right)
    if not included.holds:
        assert included.witness.observation == least(left - right)
    common = intersection_nonempty_modulo_projection(a1, a1.marked, a2, a2.marked)
    assert common.holds == bool(left & right)
    if common.holds:
        assert common.witness.observation == least(left & right)


@PROPERTY_SETTINGS
@given(automata(), st.data())
def test_iso_equals_one_inclusion_over_all_secret_initial_states(a, data):
    initials = sorted(a.initial)
    secret = data.draw(st.frozensets(st.sampled_from(initials)))
    nonsecret = data.draw(st.frozensets(st.sampled_from(initials)))
    verdict = verify_iso(IsoInstance(a, secret, nonsecret))
    assert verdict == inclusion_modulo_projection(
        a.with_initial(secret), a.states, a.with_initial(nonsecret), a.states
    )
    per_state = [
        inclusion_modulo_projection(
            a.with_initial({i}), a.states, a.with_initial(nonsecret), a.states
        )
        for i in secret
    ]
    assert verdict.holds == all(v.holds for v in per_state)
    failing = [v.witness.observation for v in per_state if not v.holds]
    if failing:
        # the least observation of a union is the least of its parts' least ones
        rank = {e: k for k, e in enumerate(a.observable_events)}
        least = min(failing, key=lambda obs: (len(obs), [rank[e] for e in obs]))
        assert verdict.witness.observation == least  # so no longer than any of them


@PROPERTY_SETTINGS
@given(automata(), st.data())
def test_realize_from_given_initial_states_equals_restarted_automaton(a, data):
    initial = data.draw(st.frozensets(st.sampled_from(a.states)))
    targets = data.draw(st.frozensets(st.sampled_from(a.states)))
    obs = tuple(data.draw(st.lists(st.sampled_from(a.observable_events), max_size=3)))

    def outcome(realize):
        try:
            return realize()
        except ValueError:  # no run produces the observation
            return None

    run = outcome(lambda: realize_observation(a, targets, obs, initial=initial))
    assert run == outcome(lambda: realize_observation(a.with_initial(initial), targets, obs))
    assert (run is not None) == observation_feasible(a.with_initial(initial), targets, obs)


@PROPERTY_SETTINGS
@given(automata(), st.data())
def test_realized_run_is_the_least_one(a, data):
    targets = data.draw(st.frozensets(st.sampled_from(a.states)))
    obs = tuple(data.draw(st.lists(st.sampled_from(a.observable_events), max_size=3)))
    if not observation_feasible(a, targets, obs):
        with pytest.raises(ValueError):
            realize_observation(a, targets, obs)
        return
    run = realize_observation(a, targets, obs)
    # Shortest first, then in alphabet order, up to the run's own length.
    least = next(
        string
        for length in range(len(run) + 1)
        for string in strings_observed_as(a, obs, length)
        if string_reaches(a, targets, string)
    )
    assert run == least


@st.composite
def pair_searches(draw):
    """A move relation on nodes (right node y, left bit b), a start group and
    a goal set of nodes, over up to three right nodes, left bits and events.

    Under each event, right node y leads to a drawn set of right nodes, and
    its left bit b to a drawn mask of left bits; the edges ((y, b), (y2, b2))
    are all their combinations, which is the shape a ``move`` returning one
    mask for all its right nodes can describe, and makes it distribute over
    unions of masks.
    """
    rights, width, events = (draw(st.integers(1, 3)) for _ in range(3))
    right_sets = st.frozensets(st.integers(0, rights - 1))
    masks = st.integers(0, 2**width - 1)
    steps = [
        [(sorted(draw(right_sets)), [draw(masks) for _ in range(width)]) for _ in range(rights)]
        for _ in range(events)
    ]
    start = list(draw(st.dictionaries(st.integers(0, rights - 1), masks, min_size=1)).items())
    goal = draw(st.frozensets(st.tuples(st.integers(0, rights - 1), st.integers(0, width - 1))))
    return width, steps, start, goal


@PROPERTY_SETTINGS
@given(pair_searches())
def test_pair_search_finds_the_least_label_of_subset_simulation(search):
    width, steps, start, goal = search
    events = range(len(steps))

    def move(y, mask, k):
        right, left = steps[k][y]
        out = 0
        for b in range(width):
            if mask >> b & 1:
                out |= left[b]
        return right, out

    def is_goal(y, mask):
        return any(mask >> b & 1 for (z, b) in goal if z == y)

    edges = [
        {((y, b), (y2, b2)) for y, (right, left) in enumerate(row) for b in range(width)
         for y2 in right for b2 in range(width) if left[b] >> b2 & 1}
        for row in steps
    ]
    # Labels in shortlex order, each with the nodes it reaches from the start;
    # a label whose node set an earlier one of its length reached is dropped,
    # since every extension of it loses to the same extension of that one.
    layer = [((), frozenset((y, b) for y, mask in start
                            for b in range(width) if mask >> b & 1))]
    expected = None
    for _ in range(len(steps[0]) * width + 1):  # a shortest label visits no node twice
        expected = next((label for label, nodes in layer if nodes & goal), None)
        if expected is not None:
            break
        seen, next_layer = set(), []
        for label, nodes in layer:
            for k in events:
                reached = frozenset(t for (s, t) in edges[k] if s in nodes)
                if reached and reached not in seen:
                    seen.add(reached)
                    next_layer.append((label + (k,), reached))
        layer = next_layer
    work = _Work()
    assert _lex_least_label(start, events, move, is_goal, work) == expected
    # The search pairs no node twice; when it finds nothing, it has paired
    # every node reachable from the start, and when it finds a label, the
    # goal's group is the last one reached, as deep as the label is long.
    todo = [(y, b) for y, mask in start for b in range(width) if mask >> b & 1]
    reachable = set(todo)
    while todo:
        node = todo.pop()
        for found in edges:
            for (s, t) in found:
                if s == node and t not in reachable:
                    reachable.add(t)
                    todo.append(t)
    if expected is None:
        assert work.pairs == len(reachable)
    else:
        assert work.pairs <= len(reachable) and work.depth == len(expected)


@PROPERTY_SETTINGS
@given(cso_instances(structure="po"))
def test_po_determinize_keeps_the_witness_observation(inst):
    result = po_determinize(inst.automaton, "a")
    report = classify(result.automaton)
    assert report.deterministic and report.partially_ordered
    chain = len(result.initial_chain)
    assert chain in (0, len(inst.automaton.initial) + 1)
    assert len(result.automaton.states) == len(inst.automaton.states) + len(result.splits) + chain
    image = CsoInstance(result.automaton, inst.secret, inst.nonsecret)
    source, target = verify_cso(inst, "observer"), verify_cso(image, "observer")
    assert source.holds == target.holds
    if not source.holds:
        prefix = ("a",) if result.initial_chain else ()
        assert target.witness.observation == prefix + source.witness.observation


@PROPERTY_SETTINGS
@given(cso_instances())
def test_cso_to_lbo_keeps_the_verdict_and_witness(inst):
    assert verify_lbo(cso_to_lbo(inst)) == verify_cso(inst)


@PROPERTY_SETTINGS
@given(cso_instances())
def test_cso_to_lbo_to_iso_keeps_the_verdict(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # blocking inputs are trimmed, with a warning
        reduction = lbo_to_iso(cso_to_lbo(inst))
    assert verify_iso(reduction.instance).holds == verify_cso(inst).holds


def unary_po_automaton(rng, **options) -> Automaton:
    """A random partially ordered automaton over ``a`` and an unobservable
    ``u``, with random self-loops on both."""
    a = rand_automaton(rng, ALPHABET_1OBS_1UO, max_states=6, structure="po", **options)
    loops = {(s, e, s) for s in a.states for e in ("a", "u") if rng.random() < 0.3}
    return Automaton(a.states, a.alphabet, a.transitions | loops, a.initial, a.marked)


def padded(a: Automaton) -> Automaton:
    """``a`` with one more observable event that has no transitions: the same
    languages, but no longer unary, so inclusion runs on the kernel."""
    return Automaton(a.states, a.alphabet + (Event("z"),), a.transitions, a.initial, a.marked)


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(st.randoms(use_true_random=False), st.data())
def test_length_set_matches_membership_on_unary_po_automata(rng, data):
    a = unary_po_automaton(rng)
    targets = data.draw(st.frozensets(st.sampled_from(a.states)))
    [(mask, ray)] = _length_sets(a, a.initial, [targets])
    for k in range(2 * len(a.states) + 3):
        member = bool(mask >> k & 1) or (ray is not None and k >= ray)
        assert member == observation_feasible(a, targets, ("a",) * k)


# Length sets as (mask, ray start) pairs with every bit and ray start below
# BOUND, so membership no longer changes from BOUND on.
BOUND = 14
length_sets = st.tuples(st.integers(min_value=0, max_value=2**BOUND - 1),
                        st.none() | st.integers(min_value=0, max_value=BOUND - 1))


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(length_sets, length_sets)
def test_least_uncovered_is_the_least_length_in_one_set_and_not_the_other(left, right):
    def member(k, mask, ray):
        return bool(mask >> k & 1) or (ray is not None and k >= ray)

    missing = [k for k in range(BOUND + 1) if member(k, *left) and not member(k, *right)]
    assert _least_uncovered(left, right) == (missing[0] if missing else None)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.randoms(use_true_random=False), st.data())
def test_length_sets_equal_the_kernel_for_every_inclusion_notion(rng, data):
    a, b = unary_po_automaton(rng, initial_max=3), unary_po_automaton(rng)
    states = st.frozensets(st.sampled_from(a.states))
    starts = st.sampled_from(sorted(a.initial))
    initials = st.frozensets(starts)
    pairs = st.frozensets(st.tuples(starts, st.sampled_from(a.states)), max_size=4)
    secret, nonsecret = data.draw(states), data.draw(states)
    secret_initial, nonsecret_initial = data.draw(initials), data.draw(initials)
    secret_pairs, nonsecret_pairs = data.draw(pairs), data.draw(pairs)
    notions = (
        lambda x, y: verify_cso(CsoInstance(x, secret, nonsecret), "inclusion"),
        lambda x, y: verify_lbo(LboInstance(x, y)),
        lambda x, y: verify_iso(IsoInstance(x, secret_initial, nonsecret_initial)),
        lambda x, y: verify_ifso(IfsoInstance(x, secret_pairs, nonsecret_pairs)),
    )
    for decide in notions:
        unary, kernel = decide(a, b), decide(padded(a), padded(b))
        assert unary == kernel
        assert (unary.algorithm, kernel.algorithm) == ("unary-po", "inclusion")


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(st.randoms(use_true_random=False), st.data())
def test_the_observer_interns_at_most_one_estimate_per_node_on_unary_po_automata(rng, data):
    # A run without observable self-loops makes at most |Q| - 1 observations,
    # and one that makes exactly that many visits every state; so either some
    # state's observable self-loop keeps its end reachable at every later
    # length, or every later estimate is empty.  At most |Q| nonempty
    # estimates remain, and a quotient is again unary and partially ordered.
    a = unary_po_automaton(rng)
    states = st.frozensets(st.sampled_from(a.states))
    secret, nonsecret = data.draw(states), data.draw(states)
    for respect in ((), (secret, nonsecret)):
        assert kernel_search(a, respect)[1].estimates <= _quotient(a._graph, respect).size


ROW_STATES = ("p", "q", "r")
ROW_NAMES = st.sampled_from(ROW_STATES + ("a", "b"))


def shown(item) -> str:
    """``repr(item)``, a set's members in the order of their reprs."""
    if isinstance(item, set) and item:
        return "{" + ", ".join(sorted(map(repr, item))) + "}"
    return repr(item)


def check_rows(build, good, bad, field, what, data):
    """``build`` on a shuffle of ``good`` and ``bad`` rows accepts exactly
    when ``bad`` is empty, and otherwise names its least item by text."""
    items = data.draw(st.permutations(good + bad))
    if not bad:
        assert build(items) == frozenset(map(tuple, good))
        return
    with pytest.raises(ValueError) as caught:
        build(iter(items) if data.draw(st.booleans()) else items)
    assert str(caught.value) == f"{field} must hold {what}, not {min(map(shown, bad))}"


def bad_rows(width, names):
    """Items that a row check must reject: strings of the row's width, sets,
    mappings, ints and lists or tuples of another width."""
    other = st.integers(0, width + 2).filter(lambda n: n != width)
    return st.one_of(
        st.text(alphabet="pqab012", min_size=width, max_size=width),
        st.sets(names, min_size=1, max_size=width + 1),
        st.dictionaries(names, names, min_size=1, max_size=width),
        st.integers(-3, 9),
        other.flatmap(lambda n: st.lists(names, min_size=n, max_size=n)),
        other.flatmap(lambda n: st.lists(names, min_size=n, max_size=n).map(tuple)),
    )


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(st.sampled_from(ROW_STATES), st.sampled_from("ab"),
                       st.sampled_from(ROW_STATES)).flatmap(lambda t: st.sampled_from([t, list(t)])),
             max_size=8),
    st.lists(bad_rows(3, ROW_NAMES), max_size=3),
    st.data(),
)
def test_transitions_accept_exactly_the_rows_of_three_names(good, bad, data):
    def build(items):
        return Automaton(ROW_STATES, (Event("a"), Event("b")), items, {"p"}).transitions

    check_rows(build, good, bad, "transitions", "(source, event, target) triples", data)


@PROPERTY_SETTINGS
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)).filter(lambda e: e[0] < e[1])
             .flatmap(lambda e: st.sampled_from([e, list(e)])), max_size=8),
    st.lists(st.one_of(
        bad_rows(2, st.integers(0, 5)),
        st.tuples(st.sampled_from([True, False, 0.0, "1"]), st.integers(0, 5)),
    ), max_size=3),
    st.data(),
)
def test_dag_edges_accept_exactly_the_pairs_of_ints(good, bad, data):
    # an end that is not an int is as bad as a row that is not a pair
    check_rows(lambda items: Dag(6, items, 0, 5).edges, good, bad, "edges", "pairs of ints", data)
