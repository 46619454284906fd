"""Generator and transformation tests: every construction preserves its stated
equivalence, cross-checked against the brute-force oracles."""

import itertools
import json
import time
import tracemalloc

import pytest

from opacheck import (
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    InputNotDeterministic,
    LboInstance,
    MalformedFormula,
    PreconditionViolated,
    TooLarge,
    classify,
    cso_to_lbo,
    gen_cnf_cso,
    gen_dag_cso_unary,
    gen_dag_weak_lbo,
    gen_union_universality_cso,
    lbo_to_iso,
    po_determinize,
    verify_cso,
    verify_iso,
    verify_lbo,
    verify_lbo_weak,
)
from opacheck.gadgets import MAX_GADGET_STATES, _FreshNames
from opacheck.commands import dag_from_dict, parse_dimacs
from opacheck.jsonio import dumps, instance_from_dict, instance_to_dict
from opacheck.oracles import (
    brute_sat,
    dag_reachable,
    enum_languages_projected,
    unobservable_closure,
)

from helpers import (
    ALPHABET_2OBS_1UO,
    ALPHABET_BIN,
    make_rng,
    rand_cnf,
    rand_cso,
    rand_dag,
    rand_dfa,
    rand_trim_lbo,
    union_is_universal,
)

TWO_CLAUSE = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))


def least_free_name(base, taken):
    """The definition: the base if free, else the base with the least free suffix."""
    if base not in taken:
        return base
    return next(f"{base}{k}" for k in itertools.count(1) if f"{base}{k}" not in taken)


class TestFreshNames:
    def test_matches_least_free_scan(self):
        rng = make_rng("fresh-names")
        bases = ["p'", "p'1", "q'", "x", "x1", "a"]
        for _ in range(200):
            taken = {
                rng.choice(bases) + rng.choice(["", "1", "2", "3", "11", "12"])
                for _ in range(rng.randint(0, 8))
            }
            names = _FreshNames(taken)
            for _ in range(rng.randint(1, 30)):
                base = rng.choice(bases)
                expected = least_free_name(base, taken)
                taken.add(expected)
                assert names.fresh(base) == expected


class TestSizeGuards:
    """Oversized inputs fail from their declared size alone, before anything
    proportional to it is allocated."""

    @staticmethod
    def peak_bytes(build):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dag_vertex_count(self):
        d = {"vertices": MAX_GADGET_STATES + 1, "edges": [[0, 1]], "s": 0, "t": 1}
        assert self.peak_bytes(lambda: dag_from_dict(d)) < 2**20

    def test_cnf_gadget_state_count(self):
        formula = parse_dimacs("p cnf 100000000 1\n1 0\n")
        assert self.peak_bytes(lambda: gen_cnf_cso(formula)) < 2**20


class TestCnfFormula:
    def test_complementary_literals_rejected(self):
        with pytest.raises(MalformedFormula):
            CnfFormula(2, (frozenset({1, -1}),))

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(MalformedFormula):
            CnfFormula(2, (frozenset({3}),))

    # The ids are the cases' names from before the text named the field.
    @pytest.mark.parametrize("clauses, shown", [
        pytest.param([[1, 2.7]], "[1, 2.7]",  # used to hold {1, 2}
                     id="clauses0-a clause must hold int literals, not [1, 2.7]"),
        pytest.param([[1, True]], "[1, True]",  # a set merges the two
                     id="clauses1-a clause must hold int literals, not [1, True]"),
        pytest.param([{"2", "1"}], "{'1', '2'}",  # in any hash order
                     id="clauses2-a clause must hold int literals, not {'1', '2'}"),
        pytest.param(["12"], "'12'",  # also {1, 2}
                     id="clauses3-a clause must hold int literals, not '12'"),
        pytest.param([""], "''",  # the empty clause
                     id="clauses4-a clause must hold int literals, not ''"),
    ])
    def test_literals_are_ints_not_converted(self, clauses, shown):
        with pytest.raises(MalformedFormula) as caught:
            CnfFormula(2, clauses)
        assert str(caught.value) == f"clauses must hold collections of int literals, not {shown}"

    @pytest.mark.parametrize("count", [2.5, True, "2"])
    def test_variable_count_is_an_int(self, count):
        with pytest.raises(MalformedFormula) as caught:
            CnfFormula(count, [[1]])
        assert str(caught.value) == f"variable_count must be an int, not {count!r}"


class TestCnfGadget:
    def test_two_clause_structure(self):
        inst = gen_cnf_cso(TWO_CLAUSE)
        assert len(inst.automaton.states) == 12  # (clauses + 1) * (variables + 1)
        assert enum_languages_projected(inst.automaton, inst.nonsecret) == {
            ("0", "0", "0"),
            ("1", "0", "0"),
        }
        assert not verify_cso(inst).holds
        report = classify(inst.automaton)
        assert report.acyclic and not report.deterministic

    def test_zero_clauses_transparent(self):
        inst = gen_cnf_cso(CnfFormula(2, ()))
        assert inst.nonsecret == frozenset()
        assert not verify_cso(inst).holds

    def test_empty_clause_makes_formula_opaque(self):
        inst = gen_cnf_cso(CnfFormula(2, (frozenset(),)))
        assert verify_cso(inst).holds
        assert brute_sat(CnfFormula(2, (frozenset(),))) is None

    def test_random_formulas_match_sat_oracle(self):
        rng = make_rng("cnf-gadget-unit")
        for _ in range(60):
            formula = rand_cnf(rng, max_variables=6, max_clauses=8)
            inst = gen_cnf_cso(formula)
            expected_size = (len(formula.clauses) + 1) * (formula.variable_count + 1)
            assert len(inst.automaton.states) == expected_size
            assert verify_cso(inst).holds == (brute_sat(formula) is None)


class TestDagGadgets:
    def test_single_edge_weakly_opaque(self):
        g = Dag(2, frozenset({(0, 1)}), 0, 1)
        v = verify_lbo_weak(gen_dag_weak_lbo(g))
        assert v.holds and v.witness.observation == ("a",)

    def test_isolated_target_not_weakly_opaque(self):
        g = Dag(3, frozenset({(0, 1)}), 0, 2)
        assert not verify_lbo_weak(gen_dag_weak_lbo(g)).holds

    def test_source_equals_target(self):
        g = Dag(2, frozenset(), 1, 1)
        v = verify_lbo_weak(gen_dag_weak_lbo(g))
        assert v.holds and v.witness.observation == ()
        assert not verify_cso(gen_dag_cso_unary(g)).holds

    def test_unary_gadget_examples(self):
        assert verify_cso(gen_dag_cso_unary(Dag(2, frozenset(), 0, 1))).holds
        path = Dag(4, frozenset({(0, 1), (1, 2), (2, 3)}), 0, 3)
        v = verify_cso(gen_dag_cso_unary(path))
        assert not v.holds and v.witness.observation == ("a", "a", "a")

    def test_random_dags_match_reachability(self):
        rng = make_rng("dag-gadgets-unit")
        for _ in range(60):
            g = rand_dag(rng, max_vertices=10)
            reachable = dag_reachable(g)
            assert verify_lbo_weak(gen_dag_weak_lbo(g)).holds == reachable
            assert verify_cso(gen_dag_cso_unary(g)).holds == (not reachable)

    def test_cyclic_edges_rejected(self):
        with pytest.raises(ValueError):
            Dag(2, frozenset({(0, 1), (1, 0)}), 0, 1)


class TestLargeDag:
    """The edge checks run in bulk passes.  An edge is a list or tuple of two
    ints; any other edge raises a ValueError that names the least offender by
    its text, and the range error texts are those of one check per edge."""

    CHAIN = [[i, i + 1] for i in range(1500)]

    def test_list_typed_edges_are_accepted(self):
        g = Dag(1501, self.CHAIN, 0, 1500)
        assert g.edges == frozenset(map(tuple, self.CHAIN))
        assert Dag(1501, iter(self.CHAIN), 0, 1500) == g

    def test_non_integer_ends_are_rejected(self):
        # they used to be converted as int() would: 0.0 to 0, "2" to 2, True to 1
        for bad, shown in [([0.0, "2"], "[0.0, '2']"), ((True, 3), "(True, 3)")]:
            with pytest.raises(ValueError) as caught:
                Dag(1501, self.CHAIN + [bad], 0, 1500)
            assert str(caught.value) == f"edges must hold pairs of ints, not {shown}"
        g = Dag(1501, self.CHAIN, 0, 1500)
        assert all(type(x) is int for e in g.edges for x in e)

    @pytest.mark.parametrize("bad", [[4], [4, 5, 6]])
    def test_wrong_arity_is_a_value_error(self, bad):
        with pytest.raises(ValueError) as caught:
            Dag(1501, self.CHAIN + [bad], 0, 1500)
        assert str(caught.value) == f"edges must hold pairs of ints, not {bad!r}"

    @pytest.mark.parametrize("edges, shown", [
        (["12"], "'12'"),  # used to hold the edge (1, 2)
        ([(0, 1.9)], "(0, 1.9)"),  # used to hold (0, 1)
        ([(True, 2)], "(True, 2)"),  # used to hold (1, 2)
        ([{0, 1}], "{0, 1}"),
        ([(1, 2), (True, 2)], "(True, 2)"),  # a set would merge it with (1, 2)
    ])
    def test_an_edge_is_a_pair_of_ints(self, edges, shown):
        with pytest.raises(ValueError) as caught:
            Dag(20, edges, 0, 2)
        assert str(caught.value) == f"edges must hold pairs of ints, not {shown}"

    @pytest.mark.parametrize("count, source, target", [
        (3, 0.0, 1), (3, True, 1), (3, 0, 1.0), (2.0, 0, 1), ("3", 0, 1),
    ])
    def test_count_and_ends_are_ints(self, count, source, target):
        fields = (("vertex_count", count), ("source", source), ("target", target))
        field, value = next((field, value) for field, value in fields if type(value) is not int)
        with pytest.raises(ValueError) as caught:
            Dag(count, [], source, target)
        assert str(caught.value) == f"{field} must be an int, not {value!r}"

    @pytest.mark.parametrize(
        "bad, message",
        [([5, 1501], "edge (5, 1501) is out of range"), ([-1, 3], "edge (-1, 3) is out of range")],
    )
    def test_one_out_of_range_edge_is_named(self, bad, message):
        with pytest.raises(ValueError) as caught:
            Dag(1501, self.CHAIN[:800] + [bad] + self.CHAIN[800:], 0, 1500)
        assert str(caught.value) == message


def complete_dfa(states, moves, initial, marked):
    return Automaton(
        tuple(states), ALPHABET_BIN,
        {(p, e, q) for ((p, e), q) in moves.items()}, {initial}, set(marked),
    )


class TestUnionGadget:
    def test_single_complete_dfa_unchanged_shape(self):
        d = complete_dfa(
            ["e", "o"],
            {("e", "0"): "o", ("e", "1"): "o", ("o", "0"): "e", ("o", "1"): "e"},
            "e",
            ["e"],
        )
        result = gen_union_universality_cso([d])
        assert result.chain_event is None
        assert classify(result.instance.automaton).deterministic

    def test_even_odd_union_is_universal_and_opaque(self):
        moves = {("e", "0"): "o", ("e", "1"): "o", ("o", "0"): "e", ("o", "1"): "e"}
        even = complete_dfa(["e", "o"], moves, "e", ["e"])
        odd = complete_dfa(["e", "o"], moves, "e", ["o"])
        result = gen_union_universality_cso([even, odd])
        assert union_is_universal([even, odd])
        assert verify_cso(result.instance).holds
        assert classify(result.instance.automaton).deterministic

    def test_initial_estimate_is_component_initials(self):
        rng = make_rng("union-initial-estimate")
        for _ in range(30):
            family = [rand_dfa(rng) for _ in range(rng.randint(2, 4))]
            result = gen_union_universality_cso(family)
            a = result.instance.automaton
            assert unobservable_closure(a, a.initial) == set(result.component_initials)

    def test_incomplete_inputs_still_match_universality(self):
        # a one-state DFA accepting 0* only; incomplete on event 1
        partial = Automaton(("p",), ALPHABET_BIN, {("p", "0", "p")}, {"p"}, {"p"})
        result = gen_union_universality_cso([partial])
        assert result.completed_components == (1,)
        assert not verify_cso(result.instance).holds
        assert not union_is_universal([partial])

    def test_self_loop_on_initial_forces_copy(self):
        # without the fresh initial copy, the chain could be entered mid-run
        looping = Automaton(
            ("p", "z"), ALPHABET_BIN,
            {("p", "1", "p"), ("p", "0", "z"), ("z", "0", "z"), ("z", "1", "z")},
            {"p"}, {"p"},
        )
        other = Automaton(
            ("q", "m", "z"), ALPHABET_BIN,
            {("q", "0", "m"), ("q", "1", "z"), ("m", "0", "m"), ("m", "1", "m"),
             ("z", "0", "z"), ("z", "1", "z")},
            {"q"}, {"m"},
        )
        result = gen_union_universality_cso([looping, other])
        assert 1 in result.copied_components
        assert union_is_universal([looping, other]) == verify_cso(result.instance).holds

    def test_nondeterministic_input_rejected(self):
        nfa = Automaton(
            ("p", "q"), ALPHABET_BIN, {("p", "0", "p"), ("p", "0", "q")}, {"p"}, {"q"}
        )
        with pytest.raises(InputNotDeterministic):
            gen_union_universality_cso([nfa])

    def test_chain_event_name_falls_back_on_collision(self):
        alphabet = (Event("a"), Event("b"))
        d1 = Automaton(("p",), alphabet, {("p", "a", "p"), ("p", "b", "p")}, {"p"}, {"p"})
        d2 = Automaton(("q",), alphabet, {("q", "a", "q"), ("q", "b", "q")}, {"q"}, {"q"})
        result = gen_union_universality_cso([d1, d2])
        assert result.chain_event == "a1"
        automaton = result.instance.automaton
        assert Event("a1", observable=False) in automaton.alphabet
        assert "a1" not in automaton.observable_events

    def test_random_families_match_independent_universality(self):
        rng = make_rng("union-unit")
        for _ in range(40):
            family = [rand_dfa(rng) for _ in range(rng.randint(2, 4))]
            result = gen_union_universality_cso(family)
            assert verify_cso(result.instance).holds == union_is_universal(family)
            report = classify(result.instance.automaton)
            assert report.deterministic


class TestPoDeterminize:
    def test_fan_out_split(self):
        a = Automaton(
            ("p", "q", "r"), (Event("x"), Event("y")),
            {("p", "x", "q"), ("p", "x", "r")}, {"p"},
        )
        result = po_determinize(a, "x")
        d = result.automaton
        assert ("p", "x", "r") in d.transitions  # greatest target keeps the direct edge
        assert ("p", result.unobservable_event, "p'") in d.transitions
        assert ("p'", "x", "q") in d.transitions
        assert len(result.splits) == 1 and result.splits[0].code == 1

    def test_merged_chain_from_one_state(self):
        # the two splits at p share one chain of two detours, each an exit;
        # the split at o, made first, neither takes a code of p's nor pads
        # p's chain with a filler state
        a = Automaton(
            ("o", "u", "v", "p", "q", "r", "s", "t"),
            (Event("x"), Event("y")),
            {
                ("o", "x", "u"), ("o", "x", "v"),
                ("p", "x", "q"), ("p", "x", "r"),
                ("p", "y", "s"), ("p", "y", "t"),
            },
            {"o"},
        )
        result = po_determinize(a, "x")
        d = result.automaton
        uo = result.unobservable_event
        codes = {}
        for split in result.splits:
            codes.setdefault(split.source, []).append(split.code)
        assert codes == {"o": [1], "p": [1, 2]}
        for source, length in (("o", 1), ("p", 2)):
            chain = []
            node = source
            while True:
                nxt = d.successors(node, uo)
                if not nxt:
                    break
                node = nxt[0]
                chain.append(node)
            assert len(chain) == length  # as long as the source's own splits
            exits = [n for n in chain if any(d.successors(n, e) for e in ("x", "y"))]
            assert exits == chain  # every detour exits: no filler
        assert len(d.states) == len(a.states) + len(result.splits)
        assert classify(d).deterministic and classify(d).partially_ordered

    def test_deterministic_single_initial_input_unchanged(self):
        a = Automaton(
            ("p", "q"), (Event("x"), Event("y")),
            {("p", "x", "q"), ("q", "y", "q")}, {"p"}, {"q"},
        )
        result = po_determinize(a, "x")
        assert result.automaton == a
        assert result.unobservable_event is None

    def test_multi_initial_chain(self):
        a = Automaton(
            ("p", "q"), (Event("0"), Event("1")), set(), {"p", "q"},
        )
        result = po_determinize(a, "0")
        d = result.automaton
        assert len(d.initial) == 1
        assert len(result.initial_chain) == 3
        report = classify(d)
        assert report.deterministic and report.partially_ordered
        # chain exits reach the original initial states on the chain event
        exits = {q for (p, e, q) in d.transitions if e == "0" and p in result.initial_chain}
        assert exits == {"p", "q"}

    def test_requires_partial_order(self):
        a = Automaton(
            ("p", "q"), (Event("x"),), {("p", "x", "q"), ("q", "x", "p")}, {"p"},
        )
        with pytest.raises(PreconditionViolated):
            po_determinize(a, "x")

    def test_chain_event_must_be_observable(self):
        a = Automaton(("p",), (Event("x"), Event("u", observable=False)), set(), {"p"})
        with pytest.raises(PreconditionViolated):
            po_determinize(a, "u")
        with pytest.raises(PreconditionViolated):
            po_determinize(a, "zz")

    def test_colliding_fresh_names(self):
        # Detour names collide with the declared p' and p'1, the initial
        # chain with q'1, and the unobservable event with the declared a.
        a = Automaton(
            ("p", "p'", "p'1", "q", "q'1", "r", "s", "t"),
            (Event("a"), Event("b")),
            {
                ("p", "a", "q"), ("p", "a", "r"), ("p", "a", "s"),
                ("p", "b", "p"), ("p", "b", "q"), ("p", "b", "r"),
                ("q", "a", "r"), ("q", "a", "t"),
                ("p'", "a", "t"), ("p'1", "b", "t"),
            },
            {"p", "q", "s"},
            {"t"},
        )
        result = po_determinize(a, "a")
        d = result.automaton
        assert d.states == (
            "p", "p'", "p'1", "q", "q'1", "r", "s", "t",
            "p'2", "p'3", "p'4", "p'5", "q'",
            "q'0", "q'11", "q'2", "q'3",
        )
        assert d.alphabet == a.alphabet + (Event("a1", observable=False),)
        assert d.initial == {"q'0"} and d.marked == {"t"}
        assert sorted(d.transitions) == [
            ("p", "a", "s"), ("p", "a1", "p'2"), ("p", "b", "p"),
            ("p'", "a", "t"), ("p'1", "b", "t"),
            ("p'2", "a", "q"), ("p'2", "a1", "p'3"), ("p'3", "a", "r"),
            ("p'3", "a1", "p'4"), ("p'4", "a1", "p'5"), ("p'4", "b", "q"),
            ("p'5", "b", "r"), ("q", "a", "t"), ("q", "a1", "q'"), ("q'", "a", "r"),
            ("q'0", "a1", "q'11"), ("q'11", "a", "p"), ("q'11", "a1", "q'2"),
            ("q'2", "a", "q"), ("q'2", "a1", "q'3"), ("q'3", "a", "s"),
        ]
        assert result.metadata() == {
            "unobservable_event": "a1",
            "encoding": [
                {"code": 1, "source": "p", "on": "a", "target": "q", "detour_state": "p'2"},
                {"code": 2, "source": "p", "on": "a", "target": "r", "detour_state": "p'3"},
                {"code": 3, "source": "p", "on": "b", "target": "q", "detour_state": "p'4"},
                {"code": 4, "source": "p", "on": "b", "target": "r", "detour_state": "p'5"},
                {"code": 1, "source": "q", "on": "a", "target": "r", "detour_state": "q'"},
            ],
            "initial_chain": ["q'0", "q'11", "q'2", "q'3"],
        }

    def test_self_loops_never_split(self):
        a = Automaton(
            ("p", "q"), (Event("x"),), {("p", "x", "p"), ("p", "x", "q")}, {"p"},
        )
        result = po_determinize(a, "x")
        d = result.automaton
        assert ("p", "x", "p") in d.transitions
        report = classify(d)
        assert report.deterministic and report.partially_ordered

    def test_wide_dag_image_is_linear_in_the_splits(self):
        # A wide layered DAG, as in the benchmark's dag-unary-wide instances:
        # each vertex past the first layer has two in-edges from the layer
        # before, so thousands of vertices have several a-successors.  Codes
        # numbered across the whole automaton would make each source's chain
        # as long as its largest code: millions of states here.
        rng = make_rng("po-det-wide")
        width, layers = 500, 6
        edges = {
            (rng.randrange((v // width - 1) * width, v // width * width), v)
            for v in range(width, width * layers) for _ in range(2)
        }
        a = gen_dag_cso_unary(Dag(width * layers, frozenset(edges), 0, 0)).automaton
        started = time.perf_counter()
        result = po_determinize(a, "a")
        elapsed = time.perf_counter() - started
        assert len(result.splits) >= 2000
        assert len(result.automaton.states) == len(a.states) + len(result.splits)
        assert elapsed < 1.0

    def test_random_ponfas_preserve_cso(self):
        rng = make_rng("po-det-unit")
        for _ in range(60):
            inst = rand_cso(rng, ALPHABET_BIN, max_states=5, structure="po")
            result = po_determinize(inst.automaton, "0")
            image = CsoInstance(result.automaton, inst.secret, inst.nonsecret)
            assert verify_cso(inst).holds == verify_cso(image).holds
            report = classify(result.automaton)
            assert report.deterministic and report.partially_ordered
            # size accounting: one detour per split; the initial chain adds
            # one state per folded initial plus one
            added = len(result.automaton.states) - len(inst.automaton.states)
            chain = len(result.initial_chain)
            assert added == len(result.splits) + chain
            assert chain in (0, len(inst.automaton.initial) + 1)


class TestCsoToLbo:
    def test_empty_secret_maps_to_empty_language(self):
        rng = make_rng("cso2lbo-empty")
        inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5)
        image = cso_to_lbo(CsoInstance(inst.automaton, frozenset(), inst.nonsecret))
        assert verify_lbo(image).holds

    def test_two_clause_image_transparent(self):
        assert not verify_lbo(cso_to_lbo(gen_cnf_cso(TWO_CLAUSE))).holds

    def test_random_verdicts_preserved(self):
        rng = make_rng("cso2lbo-unit")
        for _ in range(60):
            inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5)
            assert verify_cso(inst).holds == verify_lbo(cso_to_lbo(inst)).holds


class TestLboToIso:
    def test_one_query_transition_per_marked_state(self):
        alphabet = (Event("a"), Event("b"))
        path = Automaton(
            ("0", "1", "2"), alphabet, {("0", "a", "1"), ("1", "b", "2")}, {"0"}, {"2"}
        )
        other = Automaton(("0", "1"), alphabet, {("0", "a", "1")}, {"0"}, {"0", "1"})
        result = lbo_to_iso(LboInstance(path, other))
        query_edges = [
            t for t in result.instance.automaton.transitions if t[1] == result.query_event
        ]
        into_secret_sink = [t for t in query_edges if t[2] == result.secret_sink]
        into_nonsecret_sink = [t for t in query_edges if t[2] == result.nonsecret_sink]
        assert len(into_secret_sink) == 1
        assert len(into_nonsecret_sink) == 2

    def test_empty_secret_language_opaque_after_trim(self):
        alphabet = (Event("a"),)
        no_marked = Automaton(("0", "1"), alphabet, {("0", "a", "1")}, {"0"})
        nonsecret = Automaton(("0",), alphabet, {("0", "a", "0")}, {"0"}, {"0"})
        with pytest.warns(UserWarning):
            result = lbo_to_iso(LboInstance(no_marked, nonsecret))
        assert result.instance.secret_initial == frozenset()
        assert verify_iso(result.instance).holds

    def test_both_languages_empty_gives_a_file_that_holds(self):
        # trimming leaves no state on either side, and a file must name an
        # initial state: the secret sink is one, in neither initial set
        alphabet = (Event("a"),)
        no_marked = Automaton(("0", "1"), alphabet, {("0", "a", "1")}, {"0", "1"})
        with pytest.warns(UserWarning):
            result = lbo_to_iso(LboInstance(no_marked, no_marked))
        inst = result.instance
        assert inst.secret_initial == inst.nonsecret_initial == frozenset()
        assert inst.automaton.initial == {result.secret_sink}
        text = dumps(instance_to_dict(inst))
        assert dumps(instance_to_dict(instance_from_dict(json.loads(text), "iso"))) == text
        assert verify_lbo(LboInstance(no_marked, no_marked)).holds
        assert verify_iso(inst).holds

    def test_query_event_name_falls_back_on_collision(self):
        alphabet = (Event("@"), Event("x"))
        a = Automaton(("0", "1"), alphabet, {("0", "x", "1")}, {"0"}, {"1"})
        result = lbo_to_iso(LboInstance(a, a))
        assert result.query_event == "@1"
        assert verify_iso(result.instance).holds

    def test_random_trim_instances_preserved(self):
        rng = make_rng("lbo2iso-unit")
        for _ in range(60):
            inst = rand_trim_lbo(rng, ALPHABET_2OBS_1UO, max_states=5)
            result = lbo_to_iso(inst)
            assert verify_lbo(inst).holds == verify_iso(result.instance).holds
