"""Verifier tests: the five notions, fast paths, and cross-notion properties."""

import random
import tracemalloc

import pytest

from opacheck import (
    CSO_ALGORITHMS,
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    IfsoInstance,
    IsoInstance,
    LboInstance,
    ObserverBlowup,
    PreconditionViolated,
    Verdict,
    Witness,
    cso_to_lbo,
    gen_cnf_cso,
    gen_dag_cso_unary,
    gen_dag_weak_lbo,
    gen_union_universality_cso,
    inclusion_modulo_projection,
    intersection_nonempty_modulo_projection,
    lbo_to_iso,
    select_cso_algorithm,
    verify,
    verify_cso,
    verify_cso_observer,
    verify_ifso,
    verify_iso,
    verify_lbo,
    verify_lbo_weak,
)
import opacheck.language
import opacheck.opacity
from opacheck.automata import _least_uncovered, _length_sets
from opacheck.oracles import (
    enum_languages_projected,
    least_cso_violation,
    least_ifso_violation,
    least_iso_violation,
    least_language_observation,
)

from helpers import (
    ALPHABET_1OBS_1UO,
    ALPHABET_2OBS_1UO,
    kernels,
    make_rng,
    nth_from_end,
    rand_automaton,
    rand_cso,
    rand_trim_lbo,
    replay,
)

AB = (Event("a"), Event("b"))
TWO_CLAUSE = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))


def aut(states, alphabet, transitions, initial, marked=()):
    return Automaton(tuple(states), alphabet, set(transitions), set(initial), set(marked))


class TestLengthSet:
    """The least uncovered length of two length sets, each a ``(mask,
    ray_start)`` pair: bit ``d`` of the mask, or a ray start at most ``d``,
    puts length ``d`` in the set."""

    def test_redundant_finite_points_dropped(self):
        # {1} and the ray from 3: the points 3 and 5 add nothing
        with_points, without = (0b101010, 3), (0b10, 3)
        for other in [(0b10, None), (0b1110, None), (0b100, None), (0, 4), (0b111111, None)]:
            assert _least_uncovered(with_points, other) == _least_uncovered(without, other)
            assert _least_uncovered(other, with_points) == _least_uncovered(other, without)
        assert _least_uncovered(with_points, (0b11010, None)) == 5  # 3 and 4 are covered
        assert _least_uncovered((0b1110, None), with_points) == 2

    def test_ray_covered_only_by_earlier_ray(self):
        assert _least_uncovered((0, 4), (0, 3)) is None
        assert _least_uncovered((0, 3), (0, 4)) == 3
        assert _least_uncovered((0, 3), ((1 << 100) - 1, None)) == 100

    def test_min_uncovered(self):
        a = (0b101, 5)  # {0, 2} and the ray from 5
        b = (0b1100101, None)  # {0, 2, 5, 6}
        assert _least_uncovered(a, b) == 7
        assert _least_uncovered(b, a) is None  # every point of b sits in a's mask or ray
        assert _least_uncovered(b, (0b1, None)) == 2
        assert _least_uncovered(a, (0, 0)) is None


@pytest.mark.parametrize("cls, field", [
    (CsoInstance, "secret"), (CsoInstance, "nonsecret"),
    (IsoInstance, "secret_initial"), (IsoInstance, "nonsecret_initial"),
    (IfsoInstance, "secret_pairs"), (IfsoInstance, "nonsecret_pairs"),
])
def test_a_string_is_not_a_set_of_names(cls, field):
    # a bare string used to be read as the set of its characters
    a = aut(["p", "q"], AB, [], ["p", "q"])
    fields = dict.fromkeys(cls._fields[1:], ())
    fields[field] = "pq"
    what = "pairs of names" if field.endswith("_pairs") else "names"
    with pytest.raises(ValueError) as caught:
        cls(a, **fields)
    assert str(caught.value) == f"{field} must be a collection of {what}, not 'pq'"


@pytest.mark.parametrize("field", ["secret_pairs", "nonsecret_pairs"])
@pytest.mark.parametrize("pair", ["pq", ("p",), ("p", "q", "q")])
def test_an_ifso_pair_is_two_names(field, pair):
    # the string "pq" used to be read as the pair (p, q)
    a = aut(["p", "q", "pq"], AB, [], ["p", "pq"])
    fields = {"secret_pairs": (), "nonsecret_pairs": ()}
    fields[field] = {pair}
    with pytest.raises(ValueError, match=f"{field} must hold pairs of names"):
        IfsoInstance(a, **fields)
    assert IfsoInstance(a, [["pq", "q"]], ()).secret_pairs == {("pq", "q")}


class TestCsoObserver:
    def test_empty_secret_is_opaque(self):
        rng = make_rng("cso-empty-secret")
        a = rand_automaton(rng, ALPHABET_2OBS_1UO)
        assert verify_cso_observer(CsoInstance(a, frozenset(), frozenset())).holds

    def test_observable_dfa_with_secret_is_transparent(self):
        a = aut(["p", "q", "s"], AB, [("p", "a", "q"), ("q", "b", "s")], ["p"])
        v = verify_cso_observer(CsoInstance(a, {"s"}, frozenset()))
        assert not v.holds
        assert v.witness.observation == ("a", "b")
        assert v.witness.secret_run == ("a", "b")

    def test_two_clause_gadget_witness(self):
        v = verify_cso_observer(gen_cnf_cso(TWO_CLAUSE))
        assert not v.holds
        assert v.witness.observation == ("0", "0", "1")


class TestCsoInclusion:
    def test_everything_nonsecret_is_opaque(self):
        rng = make_rng("cso-all-nonsecret")
        a = rand_automaton(rng, ALPHABET_2OBS_1UO)
        inst = CsoInstance(a, frozenset(a.states), frozenset(a.states))
        assert verify_cso(inst, "inclusion").holds

    def test_two_clause_gadget_transparent(self):
        assert not verify_cso(gen_cnf_cso(TWO_CLAUSE), "inclusion").holds

    def test_agrees_with_observer_on_random_instances(self):
        rng = make_rng("algorithm-agreement-unit")
        for _ in range(120):
            inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5)
            left = verify_cso_observer(inst)
            right = verify_cso(inst, "inclusion")
            assert left.holds == right.holds
            assert left.witness == right.witness


class TestCsoOracle:
    """CSO against two other searches, cyclic automata included.  Each row
    checks that the observer and ``inclusion``, the observer's search under
    another name, give the witness observation of
    :func:`least_cso_violation`, a search over sets of state names that
    shares no code with them.  It also checks that the LBO image's pair
    search (``_lex_least_label``, with two kernels over states and no
    quotient) gives the observer's verdict and whole witness."""

    @staticmethod
    def assert_matches(inst):
        expected = least_cso_violation(inst)
        observer = verify_cso(inst, "observer")
        for v in (observer, verify_cso(inst, "inclusion")):
            assert (None if v.holds else v.witness.observation) == expected, v.algorithm
        image = verify_lbo(cso_to_lbo(inst))
        assert (image, image.algorithm) == (observer, "inclusion")

    @pytest.mark.parametrize("seed", range(3))
    def test_random_automata_with_a_hidden_event(self, seed):
        rng = make_rng(f"cso-oracle-{seed}")
        for draw in range(1500):  # every other draw partially ordered
            structure = "po" if draw % 2 else "any"
            self.assert_matches(rand_cso(rng, ALPHABET_2OBS_1UO, max_states=8,
                                         structure=structure))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_nth_symbol_from_the_end(self, n):
        a = nth_from_end(n)
        holding = CsoInstance(a, {f"q{n}"}, {"q0"})
        violated = CsoInstance(a, {f"q{n}"}, {f"q{n - 1}"})
        assert least_cso_violation(holding) is None
        assert least_cso_violation(violated) == ("a", "b") + ("a",) * (n - 2)
        self.assert_matches(holding)
        self.assert_matches(violated)

    def test_prime_cycles_first_all_reject_a29(self):
        # The cycle of length p accepts a^k unless k = p - 1 mod p, so the
        # union of the cycles of lengths 2, 3 and 5 first misses a^29; the
        # components' initial states are chained by a hidden event.
        def cycle(p):
            states = tuple(f"r{i}" for i in range(p))
            transitions = {(states[i], "a", states[(i + 1) % p]) for i in range(p)}
            return Automaton(states, (Event("a"),), transitions, {"r0"}, states[:-1])

        inst = gen_union_universality_cso([cycle(2), cycle(3), cycle(5)]).instance
        assert least_cso_violation(inst) == ("a",) * 29
        self.assert_matches(inst)

    def test_no_initial_state_leaves_no_estimate_to_search(self):
        # the start estimate is empty, so no observation reaches the secret q
        a = aut(["p", "q"], AB, [("p", "a", "q"), ("q", "b", "p")], [])
        inst = CsoInstance(a, {"q"}, set())
        assert least_cso_violation(inst) is None
        self.assert_matches(inst)

    def test_a_self_loop_is_not_an_edge_into_another_class(self):
        # u loops on a where v steps to w, which takes the first class of the
        # quotient's pass; read as an edge into that class, u's loop would
        # merge u with v, and the class would step to the secret w.
        a = aut(["u", "v", "w"], AB, [("u", "a", "u"), ("v", "a", "w")], ["u"])
        inst = CsoInstance(a, {"w"}, {"u", "v"})
        assert least_cso_violation(inst) is None
        self.assert_matches(inst)


class TestPairOracle:
    """Projected inclusion and intersection, ISO and IFSO against the notions
    of :func:`opacheck.oracles.least_observation`, a search over pairs of
    sets of state names that shares no code with them: the same verdict and
    witness observation, on any, partially ordered and acyclic automata with
    a hidden event."""

    @staticmethod
    def decide(notion, rng, structure, draw):
        """One drawn question of ``notion``: its verdict, the oracle's least
        observation, and whether that observation makes the verdict hold."""
        a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6, structure=structure,
                           initial_max=3)
        if notion in ("inclusion", "intersection"):
            # every other second automaton declares its events in another order
            alphabet = ALPHABET_2OBS_1UO[::-1] if draw % 2 else ALPHABET_2OBS_1UO
            b = rand_automaton(rng, alphabet, max_states=6, structure=structure)
            args, common = (a, a.marked, b, b.marked), notion == "intersection"
            search = (intersection_nonempty_modulo_projection if common
                      else inclusion_modulo_projection)
            return search(*args), least_language_observation(*args, common=common), common
        initial = sorted(a.initial)
        if notion == "iso":
            secret, nonsecret = ({i for i in initial if rng.random() < 0.5} for _ in "sn")
            inst = IsoInstance(a, secret, nonsecret)
            return verify_iso(inst), least_iso_violation(inst), False
        pairs = [(i, f) for i in initial for f in a.states]
        secret, nonsecret = ({p for p in pairs if rng.random() < 0.25} for _ in "sn")
        inst = IfsoInstance(a, secret, nonsecret)
        return verify_ifso(inst), least_ifso_violation(inst), False

    @pytest.mark.parametrize("structure", ["any", "po", "acyclic"])
    @pytest.mark.parametrize("notion", ["inclusion", "intersection", "iso", "ifso"])
    def test_random_automata_with_a_hidden_event(self, notion, structure):
        rng = make_rng(f"pair-oracle-{notion}-{structure}")
        for draw in range(2000):
            verdict, expected, holds_with_it = self.decide(notion, rng, structure, draw)
            assert verdict.holds == ((expected is not None) == holds_with_it), draw
            found = None if verdict.witness is None else verdict.witness.observation
            assert found == expected, draw


class TestUnaryAcyclic:
    """Acyclic inputs of the unary length-set path, where the sets have no ray."""

    def test_distance_two_target(self):
        from opacheck import Dag, gen_dag_cso_unary

        g = Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2)
        v = verify_cso(gen_dag_cso_unary(g), "unary-po")
        assert not v.holds and v.witness.observation == ("a", "a")

    def test_unreachable_secret_is_opaque(self):
        a = aut(["s", "t"], (Event("a"),), [], ["s"])
        assert verify_cso(CsoInstance(a, {"t"}, frozenset()), "unary-po").holds

    def test_precondition_enforced(self):
        a = aut(["p"], AB, [], ["p"])  # two observable events
        with pytest.raises(PreconditionViolated):
            verify_cso(CsoInstance(a, frozenset(), frozenset()), "unary-po")
        b = aut(["p"], (Event("a"),), [("p", "a", "p")], ["p"])  # self-loop: partially ordered
        inst = CsoInstance(b, {"p"}, frozenset())
        v = verify_cso(inst, "unary-po")
        assert v == verify_cso_observer(inst) and not v.holds

    def test_agrees_with_observer(self):
        rng = make_rng("unary-acyclic-unit")
        for _ in range(120):
            inst = rand_cso(rng, ALPHABET_1OBS_1UO, max_states=6, structure="acyclic")
            fast = verify_cso(inst, "unary-po")
            slow = verify_cso_observer(inst)
            assert fast == slow


class TestUnaryPo:
    def test_pumped_nonsecret_misses_short_secret(self):
        a = aut(
            ["s", "t", "r", "v"],
            (Event("a"),),
            [("s", "a", "t"), ("s", "a", "r"), ("r", "a", "r"), ("r", "a", "v")],
            ["s"],
        )
        assert _length_sets(a, a.initial, [{"t"}, {"v"}]) == [(0b10, None), (0b100, 2)]
        v = verify_cso(CsoInstance(a, {"t"}, {"v"}), "unary-po")
        assert not v.holds and v.witness.observation == ("a",)

    def test_state_with_both_statuses_covers_itself(self):
        a = aut(["s", "t"], (Event("a"),), [("s", "a", "t")], ["s"])
        assert verify_cso(CsoInstance(a, {"t"}, {"t"}), "unary-po").holds

    def test_agrees_with_observer(self):
        rng = make_rng("unary-po-unit")
        for _ in range(120):
            inst = rand_cso(rng, ALPHABET_1OBS_1UO, max_states=6, structure="po")
            fast = verify_cso(inst, "unary-po")
            slow = verify_cso_observer(inst)
            assert fast == slow


class TestDispatch:
    def test_auto_routes_unary_acyclic(self):
        rng = make_rng("dispatch-acyclic")
        inst = rand_cso(rng, ALPHABET_1OBS_1UO, max_states=6, structure="acyclic")
        assert select_cso_algorithm(inst) == "unary-po"
        assert verify_cso(inst) == verify_cso_observer(inst)
        assert verify_cso(inst).algorithm == "unary-po"

    def test_forced_inapplicable_algorithm_raises(self):
        rng = make_rng("dispatch-binary")
        inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5)
        with pytest.raises(PreconditionViolated):
            verify_cso(inst, "unary-po")

    def test_unknown_algorithm_rejected(self):
        rng = make_rng("dispatch-unknown")
        inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=4)
        with pytest.raises(ValueError):
            verify_cso(inst, "magic")

    def test_observer_and_inclusion_choices_agree(self):
        rng = make_rng("dispatch-agree")
        for _ in range(60):
            inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5)
            assert verify_cso(inst, "observer") == verify_cso(inst, "inclusion")

    def test_observer_cap_propagates(self):
        from opacheck import ObserverBlowup

        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"])
        inst = CsoInstance(a, frozenset({"q"}), frozenset())
        with pytest.raises(ObserverBlowup):
            verify_cso(inst, "observer", cap=1)
        with pytest.raises(ObserverBlowup):
            verify_cso(inst, "inclusion", cap=1)

    def test_length_sets_answer_under_a_cap_the_observer_hits(self):
        # Each estimate of an a-chain is one state, so the observer needs
        # one per state; the length-set path interns none.
        chain = [f"c{k}" for k in range(4)]
        a = aut(chain, (Event("a"),), {(p, "a", q) for p, q in zip(chain, chain[1:])}, ["c0"])
        inst = CsoInstance(a, {"c3"}, frozenset())
        with pytest.raises(ObserverBlowup):
            verify_cso(inst, "observer", cap=1)
        expected = verify_cso(inst, "observer")
        assert not expected.holds
        assert verify_cso(inst, cap=1) == expected
        assert verify_cso(inst, "inclusion", cap=1) == expected

    def test_observer_and_inclusion_finish_under_the_same_cap(self):
        # Satisfiable random 3-CNF gadgets, 8 variables and 20 clauses (189
        # states).  They are partially ordered, so both searches intern
        # estimates of bisimulation classes, 74-125 of them (178-326 of
        # states).  Under a cap of 90 the observer answers some of them;
        # inclusion must answer exactly those, with the same verdict, rather
        # than determinize its whole right side and hit the cap.
        from opacheck import ObserverBlowup
        from opacheck.oracles import brute_sat

        def outcome(inst, algorithm):
            try:
                return verify_cso(inst, algorithm, cap=90)
            except ObserverBlowup:
                return "cap hit"

        rng = random.Random(1)
        answered = 0
        for _ in range(40):
            clauses = tuple(
                frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 3))
                for _ in range(20)
            )
            formula = CnfFormula(8, clauses)
            assert brute_sat(formula) is not None
            inst = gen_cnf_cso(formula)
            assert len(inst.automaton.states) == 189
            observer = outcome(inst, "observer")
            assert outcome(inst, "inclusion") == observer
            answered += observer != "cap hit"
        assert answered == 13


class TestVerify:
    """``verify`` routes each notion to its own function, and rejects what
    none of them decides."""

    def test_each_notion_decides_as_its_own_function(self):
        cso = gen_cnf_cso(TWO_CLAUSE)
        a = cso.automaton
        lbo = cso_to_lbo(cso)
        cases = [
            ("iso", IsoInstance(a, a.initial, frozenset()), verify_iso),
            ("ifso", IfsoInstance(a, {(i, s) for i in a.initial for s in cso.secret},
                                  {(i, s) for i in a.initial for s in cso.nonsecret}), verify_ifso),
            ("lbo", lbo, verify_lbo),
            ("lbo-weak", lbo, verify_lbo_weak),
        ]
        for notion, inst, own in cases:
            got, expected = verify(inst, notion), own(inst)
            assert (got, got.algorithm) == (expected, expected.algorithm)
        unary = gen_dag_cso_unary(Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2))
        for algorithm in CSO_ALGORITHMS:
            got, expected = verify(unary, "cso", algorithm), verify_cso(unary, algorithm)
            assert (got, got.algorithm) == (expected, expected.algorithm)
        with pytest.raises(ObserverBlowup):
            verify(cso, "cso", "observer", cap=1)
        with pytest.raises(ObserverBlowup):
            verify(lbo, "lbo", cap=1)

    def test_rejects_what_no_procedure_decides(self):
        cso = gen_cnf_cso(TWO_CLAUSE)
        lbo = cso_to_lbo(cso)
        with pytest.raises(ValueError, match="unknown notion 'xso', expected one of"):
            verify(cso, "xso")
        with pytest.raises(ValueError, match="a lbo instance must be a LboInstance"):
            verify(cso, "lbo")
        with pytest.raises(ValueError, match="a cso instance must be a CsoInstance"):
            verify(lbo, "cso")
        with pytest.raises(ValueError, match="an algorithm can only be chosen for cso"):
            verify(lbo, "lbo-weak", "observer")


def _cyclic_cso():
    return CsoInstance(aut(["p", "q"], AB, [("p", "a", "q"), ("q", "b", "p")], ["p"]),
                       {"q"}, set())


def _unary_po_cso():
    return CsoInstance(aut(["p", "q"], (Event("a"),), [("p", "a", "q")], ["p"]), {"q"}, set())


CAP_ENTRY_POINTS = {
    "verify": lambda inst, cap: verify(inst, "cso", cap=cap),
    "verify_cso": lambda inst, cap: verify_cso(inst, "inclusion", cap=cap),
    "verify_cso_observer": lambda inst, cap: verify_cso_observer(inst, cap=cap),
    "verify_lbo": lambda inst, cap: verify_lbo(cso_to_lbo(inst), cap=cap),
    "verify_iso": lambda inst, cap: verify_iso(
        IsoInstance(inst.automaton, inst.automaton.initial, ()), cap=cap),
    "verify_ifso": lambda inst, cap: verify_ifso(
        IfsoInstance(inst.automaton, {("p", "q")}, ()), cap=cap),
    "inclusion_modulo_projection": lambda inst, cap: inclusion_modulo_projection(
        inst.automaton, inst.secret, inst.automaton, inst.nonsecret, cap=cap),
}


BAD_CAPS = [0, -1, True, 2.5, "x", None]


@pytest.mark.parametrize("instance", [_cyclic_cso, _unary_po_cso], ids=["cyclic", "unary-po"])
@pytest.mark.parametrize("entry", sorted(CAP_ENTRY_POINTS))
@pytest.mark.parametrize("cap", BAD_CAPS, ids=repr)
def test_every_entry_point_checks_its_cap(instance, entry, cap):
    # 0 and -1 used to raise ObserverBlowup, True to report a cap of True, 2.5
    # to answer, "x" and None to raise a TypeError, and the length-set path of
    # a unary, partially ordered instance accepted every one of them
    with pytest.raises(ValueError) as caught:
        CAP_ENTRY_POINTS[entry](instance(), cap)
    assert str(caught.value) == f"cap must be a positive int, not {cap!r}"
    assert CAP_ENTRY_POINTS[entry](instance(), 8) is not None  # a cap that suffices


@pytest.mark.parametrize("instance", [_cyclic_cso, _unary_po_cso], ids=["cyclic", "unary-po"])
@pytest.mark.parametrize("algorithm", CSO_ALGORITHMS)
@pytest.mark.parametrize("cap", BAD_CAPS, ids=repr)
def test_every_cso_algorithm_checks_the_cap_before_it_routes(instance, algorithm, cap):
    # unary-po on the cyclic instance used to raise PreconditionViolated
    # for every one of them, whatever the cap
    with pytest.raises(ValueError) as caught:
        verify_cso(instance(), algorithm, cap=cap)
    assert str(caught.value) == f"cap must be a positive int, not {cap!r}"


class TestLbo:
    def test_empty_secret_language_is_opaque(self):
        a = aut(["p"], AB, [("p", "a", "p")], ["p"])
        assert verify_lbo(LboInstance(a, a.with_marked({"p"}))).holds

    def test_identical_automata_are_opaque(self):
        rng = make_rng("lbo-identity")
        a = rand_automaton(rng, ALPHABET_2OBS_1UO)
        assert verify_lbo(LboInstance(a, a)).holds

    def test_two_clause_languages_not_opaque(self):
        from opacheck import cso_to_lbo

        assert not verify_lbo(cso_to_lbo(gen_cnf_cso(TWO_CLAUSE))).holds


class TestLboWeak:
    def test_empty_secret_language_not_weakly_opaque(self):
        a = aut(["p"], AB, [("p", "a", "p")], ["p"])
        assert not verify_lbo_weak(LboInstance(a, a.with_marked({"p"}))).holds

    def test_identical_nonempty_language_weakly_opaque(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"], ["q"])
        v = verify_lbo_weak(LboInstance(a, a))
        assert v.holds and v.witness.observation == ("a",)

    def test_symmetry(self):
        rng = make_rng("weak-symmetry")
        for _ in range(60):
            inst = rand_trim_lbo(rng, ALPHABET_2OBS_1UO, max_states=5)
            flipped = LboInstance(inst.nonsecret_automaton, inst.secret_automaton)
            assert verify_lbo_weak(inst).holds == verify_lbo_weak(flipped).holds

    def test_memory_is_one_mask_per_state(self):
        # Every vertex of a 200-vertex DAG reaches the next three: the two
        # automata have about 200 x 200 pairs of states, while the product
        # search keeps one mask of left states per right state.
        edges = {(i, j) for i in range(200) for j in (i + 1, i + 2, i + 3) if j < 200}
        inst = gen_dag_weak_lbo(Dag(200, edges, 0, 199))
        tracemalloc.start()
        try:
            v = verify_lbo_weak(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v == Verdict(True, Witness(("a",) * 67, ("a",) * 67))
        assert replay("lbo-weak", inst, v)
        assert peak < 2**20


class TestIso:
    def test_empty_secret_initial_is_opaque(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p", "q"])
        assert verify_iso(IsoInstance(a, frozenset(), frozenset({"q"}))).holds

    def test_silent_secret_start_hides_behind_talkative_nonsecret(self):
        alphabet = (Event("a"), Event("u", observable=False))
        a = aut(
            ["1", "2"],
            alphabet,
            [("1", "u", "1"), ("2", "a", "2")],
            ["1", "2"],
        )
        assert verify_iso(IsoInstance(a, {"1"}, {"2"})).holds
        # reversed roles are not opaque: observations a^k only from state 2
        v = verify_iso(IsoInstance(a, {"2"}, {"1"}))
        assert not v.holds and v.witness.observation == ("a",)

    def test_witness_is_shortest_over_all_secret_initial_states(self):
        # s1 fails only on aab, s2 already on b; the non-secret start reads a*.
        a = aut(
            ["s1", "x1", "x2", "x3", "s2", "y", "n"],
            AB,
            [("s1", "a", "x1"), ("x1", "a", "x2"), ("x2", "b", "x3"),
             ("s2", "b", "y"), ("n", "a", "n")],
            ["s1", "s2", "n"],
        )
        v = verify_iso(IsoInstance(a, {"s1", "s2"}, {"n"}))
        assert v == Verdict(False, Witness(("b",), ("b",)))

    def test_iso_witness_replays(self):
        rng = make_rng("iso-replay")
        checked = 0
        for _ in range(80):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5, initial_max=3)
            initials = sorted(a.initial)
            secret = frozenset(initials[: len(initials) // 2 + 1])
            nonsecret = frozenset(initials[len(initials) // 2 + 1:])
            inst = IsoInstance(a, secret, nonsecret)
            v = verify_iso(inst)
            if v.witness is not None:
                checked += 1
                assert replay("iso", inst, v)
        assert checked > 5


class TestIfso:
    def test_empty_secret_pairs_opaque(self):
        a = aut(["p"], AB, [("p", "a", "p")], ["p"])
        assert verify_ifso(IfsoInstance(a, frozenset(), frozenset())).holds

    def test_equal_pair_sets_opaque(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"], ["q"])
        pairs = frozenset({("p", "q")})
        assert verify_ifso(IfsoInstance(a, pairs, pairs)).holds

    def test_against_definitional_enumeration_on_acyclic_instances(self):
        rng = make_rng("ifso-definitional")
        transparent = 0
        for _ in range(60):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=4,
                               structure="acyclic", initial_max=2)
            states = list(a.states)
            def rand_pairs():
                return frozenset(
                    (rng.choice(sorted(a.initial)), rng.choice(states))
                    for _ in range(rng.randint(0, 3))
                )
            inst = IfsoInstance(a, rand_pairs(), rand_pairs())
            secret_obs = set()
            for (i, f) in inst.secret_pairs:
                secret_obs |= enum_languages_projected(a.with_initial({i}), {f})
            nonsecret_obs = set()
            for (i, f) in inst.nonsecret_pairs:
                nonsecret_obs |= enum_languages_projected(a.with_initial({i}), {f})
            v = verify_ifso(inst)
            assert v.holds == (secret_obs <= nonsecret_obs)
            if not v.holds:
                transparent += 1
                assert replay("ifso", inst, v)
        assert transparent > 5

    def test_matches_per_pair_construction(self):
        def per_pair(a, pairs):
            # The reference: one single-initial copy of ``a`` per pair.
            states, transitions, initial, marked = [], set(), set(), set()
            for k, (i, f) in enumerate(sorted(pairs)):
                states.extend(f"{k}:{s}" for s in a.states)
                transitions.update((f"{k}:{p}", e, f"{k}:{q}") for (p, e, q) in a.transitions)
                initial.add(f"{k}:{i}")
                marked.add(f"{k}:{f}")
            return Automaton(tuple(states), a.alphabet, transitions, initial, marked)

        def outcome(decide, cap):
            try:
                return decide(cap)
            except ObserverBlowup:
                return "cap"

        rng = make_rng("ifso-per-pair")
        shared = transparent = 0
        for _ in range(60):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5, initial_max=3)
            initial, states = sorted(a.initial), list(a.states)

            def rand_pairs():
                return frozenset(
                    (rng.choice(initial), rng.choice(states)) for _ in range(rng.randint(0, 4))
                )

            inst = IfsoInstance(a, rand_pairs(), rand_pairs())
            left, right = per_pair(a, inst.secret_pairs), per_pair(a, inst.nonsecret_pairs)
            shared += len({i for (i, _) in inst.nonsecret_pairs}) < len(inst.nonsecret_pairs)
            for cap in (1, 2, 3, 4, 1000):
                expected = outcome(
                    lambda c: inclusion_modulo_projection(
                        left, left.marked, right, right.marked, cap=c
                    ),
                    cap,
                )
                assert outcome(lambda c: verify_ifso(inst, cap=c), cap) == expected
            transparent += not expected.holds
        assert shared > 10 and transparent > 10

    def test_shared_start_and_unreachable_final(self):
        # p starts a secret and a non-secret pair; s cannot reach its final q.
        alphabet = (Event("a"), Event("b"), Event("u", observable=False))
        a = aut(
            ["p", "q", "r", "s", "t"],
            alphabet,
            [("p", "a", "q"), ("q", "u", "r"), ("r", "b", "t"), ("s", "a", "s")],
            ["p", "s"],
        )
        inst = IfsoInstance(a, {("p", "t"), ("s", "q")}, {("p", "r"), ("s", "s")})
        v = verify_ifso(inst)
        assert v == Verdict(False, Witness(("a", "b"), ("a", "u", "b")))
        assert replay("ifso", inst, v)
        assert verify_ifso(IfsoInstance(a, inst.secret_pairs, {("p", "t")})).holds
        assert verify_ifso(IfsoInstance(a, {("s", "q")}, frozenset())).holds

    def test_pair_names_must_be_strings(self):
        # two bad pairs of mixed types used to raise a TypeError from min()
        a = aut(["p", "q"], AB, [], ["p"])
        for bad, shown in (({(1, "p"), ("p", 2)}, "('p', 2)"),
                           ({("p", None), (b"p", "q")}, "('p', None)")):
            for secret, nonsecret, field in ((bad, set(), "secret_pairs"),
                                             ({("p", "q")}, bad, "nonsecret_pairs")):
                with pytest.raises(ValueError) as caught:
                    IfsoInstance(a, secret, nonsecret)
                assert str(caught.value) == f"{field} must hold pairs of names, not {shown}"

    def test_memory_follows_what_each_start_reaches(self):
        # A 400-state secret chain against 50 non-secret starts that each
        # reach one state: a full copy per start would hold 51 x 500 states.
        chain = [f"c{k}" for k in range(400)]
        pairs = {(f"n{k}", f"m{k}") for k in range(50)}
        a = aut(
            chain + [s for pair in sorted(pairs) for s in pair],
            (Event("a"),),
            {(p, "a", q) for p, q in zip(chain, chain[1:])} | {(n, "a", m) for n, m in pairs},
            {"c0"} | {n for n, _ in pairs},
        )
        inst = IfsoInstance(a, {("c0", "c399")}, pairs)
        tracemalloc.start()
        try:
            v = verify_ifso(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v == Verdict(False, Witness(("a",) * 399, ("a",) * 399))
        assert replay("ifso", inst, v)
        assert peak < 8 * 2**20

    def test_cso_embeds_into_ifso(self):
        rng = make_rng("cso-as-ifso")
        for _ in range(60):
            inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=4)
            a = inst.automaton
            encode = lambda targets: frozenset(
                (i, q) for i in a.initial for q in targets
            )
            lifted = IfsoInstance(a, encode(inst.secret), encode(inst.nonsecret))
            assert verify_ifso(lifted).holds == verify_cso(inst).holds


class TestMonotonicity:
    def test_growing_nonsecret_preserves_opacity(self):
        rng = make_rng("monotonicity")
        grown = 0
        for _ in range(150):
            inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5)
            if not verify_cso(inst).holds:
                continue
            extra = {s for s in inst.automaton.states if rng.random() < 0.3}
            bigger = CsoInstance(inst.automaton, inst.secret, inst.nonsecret | extra)
            assert verify_cso(bigger).holds
            grown += 1
        assert grown > 20


def _violated_instances():
    cso = gen_cnf_cso(TWO_CLAUSE)
    lbo = cso_to_lbo(cso)
    a = cso.automaton
    with pytest.warns(UserWarning):
        iso = lbo_to_iso(lbo).instance
    ifso = IfsoInstance(a, {(i, s) for i in a.initial for s in cso.secret},
                        {(i, s) for i in a.initial for s in cso.nonsecret})
    return {"cso": cso, "lbo": lbo, "iso": iso, "ifso": ifso}


@pytest.mark.parametrize("notion, algorithm", [
    ("cso", "observer"), ("cso", "inclusion"), ("lbo", "auto"), ("iso", "auto"),
    ("ifso", "auto"), ("lbo-weak", "auto"),
])
def test_every_search_frees_its_kernels_before_the_witness_is_realized(
        monkeypatch, notion, algorithm):
    # A violating verdict's peak memory is the larger of search and
    # realization, not their sum; weak LBO realizes a holding verdict's witness.
    if notion == "lbo-weak":
        inst = gen_dag_weak_lbo(Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2))
    else:
        inst = _violated_instances()[notion]
    built, alive = kernels(monkeypatch), []
    for module in (opacheck.opacity, opacheck.language):
        def realize(*args, _realize=module.realize_observation, **kwargs):
            alive.append(sum(ref() is not None for ref in built))
            return _realize(*args, **kwargs)

        monkeypatch.setattr(module, "realize_observation", realize)
    v = verify(inst, notion, algorithm)
    assert v.holds == (notion == "lbo-weak") and v.witness is not None
    assert built and alive == [0]


def test_only_the_cso_question_runs_on_the_quotient(monkeypatch):
    # The observer, which CSO inclusion also runs, builds one kernel, on the
    # quotient that keeps the secret and non-secret sets apart; every other
    # search builds one kernel per side over its automaton's states, so equal
    # presentations of one question reach the same cap outcome.
    built = kernels(monkeypatch)

    def nodes(notion, inst, algorithm="auto"):
        before = len(built)
        verify(inst, notion, algorithm)
        return [ref.nodes for ref in built[before:]]

    instances = _violated_instances()
    n, iso = len(instances["cso"].automaton.states), instances["iso"]
    observer = nodes("cso", instances["cso"], "observer")
    assert len(observer) == 1 and observer[0] < n
    assert nodes("cso", instances["cso"], "inclusion") == observer
    for notion in ("lbo", "lbo-weak"):
        assert nodes(notion, instances["lbo"]) == [n, n]
    assert nodes("ifso", instances["ifso"]) == [n, n]
    assert nodes("iso", iso) == [len(iso.automaton.states)] * 2
