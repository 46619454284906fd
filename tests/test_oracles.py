"""Brute-force oracle tests."""

import itertools

import pytest

from opacheck import (
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    PreconditionViolated,
    TooLarge,
    gen_cnf_cso,
    verify_cso,
    verify_cso_observer,
)
from opacheck import oracles
from opacheck.oracles import (
    brute_sat,
    dag_reachable,
    enum_cso_acyclic,
    enum_languages_projected,
    observation_feasible,
    satisfies,
    string_reaches,
)

from helpers import ALPHABET_2OBS_1UO, make_rng, rand_cso, rand_dag

TWO_CLAUSE = CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))


class TestBruteSat:
    def test_two_clause_formula_satisfiable(self):
        first = brute_sat(TWO_CLAUSE)
        assert first == (False, False, True)  # lexicographically first satisfier
        assert satisfies(TWO_CLAUSE, first)
        assert satisfies(TWO_CLAUSE, (False, True, False))

    @pytest.mark.parametrize("assignment", [(False, False), (False, False, True, True)])
    def test_an_assignment_of_the_wrong_length_is_rejected(self, assignment):
        with pytest.raises(ValueError, match="assignment length must equal the variable count"):
            satisfies(TWO_CLAUSE, assignment)

    def test_empty_clause_unsat(self):
        assert brute_sat(CnfFormula(2, (frozenset(),))) is None

    def test_zero_clauses_sat_all_false(self):
        assert brute_sat(CnfFormula(3, ())) == (False, False, False)
        assert brute_sat(CnfFormula(0, ())) == ()

    def test_guard(self):
        with pytest.raises(TooLarge):
            brute_sat(CnfFormula(25, ()))

    def test_unit_clauses_pin_assignment(self):
        formula = CnfFormula(3, (frozenset({2}), frozenset({-1}), frozenset({3})))
        assert brute_sat(formula) == (False, True, True)

    @pytest.mark.parametrize("block", [16, 3])
    def test_matches_a_plain_scan(self, monkeypatch, block):
        # With 3-variable blocks, most of these formulas span several blocks.
        monkeypatch.setattr(oracles, "_BLOCK_VARIABLES", block)
        rng = make_rng("brute-sat-scan")
        for _ in range(150):
            n = rng.randint(1, 10)
            clauses = [
                frozenset(v if rng.random() < 0.5 else -v
                          for v in rng.sample(range(1, n + 1), min(3, n)))
                for _ in range(rng.randint(0, 5 * n))
            ]
            formula = CnfFormula(n, clauses)
            first = next((a for a in itertools.product((False, True), repeat=n)
                          if satisfies(formula, a)), None)
            assert brute_sat(formula) == first

    def test_first_model_past_the_first_block(self):
        # Variables 1 and 2 are fixed per block of 2**16 assignments; the
        # unit clause 2 leaves the first block without a model.
        formula = CnfFormula(18, [[2], [17, 18], [-18, 3], [-3, -4], [-17, 5, 6]])
        first = brute_sat(formula)
        assert first is not None and first[1] and satisfies(formula, first)
        for a in itertools.product((False, True), repeat=18):
            if a == first:
                break
            assert not satisfies(formula, a)


class TestDagReachable:
    def test_source_equals_target(self):
        assert dag_reachable(Dag(1, frozenset(), 0, 0))

    def test_no_edges_distinct_vertices(self):
        assert not dag_reachable(Dag(2, frozenset(), 0, 1))

    def test_transitive_path(self):
        g = Dag(5, frozenset({(0, 2), (2, 4)}), 0, 4)
        assert dag_reachable(g)
        assert not dag_reachable(Dag(5, frozenset({(0, 2), (2, 4)}), 1, 4))

    def test_random_dags_sane(self):
        rng = make_rng("dag-oracle")
        for _ in range(40):
            g = rand_dag(rng, max_vertices=10)
            if g.source == g.target:
                assert dag_reachable(g)


class TestEnumCso:
    def test_single_secret_state(self):
        a = Automaton(("p",), (Event("a"),), set(), {"p"})
        v = enum_cso_acyclic(CsoInstance(a, {"p"}, frozenset()))
        assert not v.holds and v.witness.observation == ()

    def test_two_clause_instance(self):
        v = enum_cso_acyclic(gen_cnf_cso(TWO_CLAUSE))
        assert not v.holds
        assert v.witness.observation == ("0", "0", "1")
        assert v.witness.secret_run == ("0", "0", "1")

    def test_requires_acyclic(self):
        a = Automaton(("p",), (Event("a"),), {("p", "a", "p")}, {"p"})
        with pytest.raises(PreconditionViolated):
            enum_cso_acyclic(CsoInstance(a, frozenset(), frozenset()))

    def test_matches_both_main_algorithms(self):
        rng = make_rng("enum-oracle-unit")
        for _ in range(80):
            inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5, structure="acyclic")
            reference = enum_cso_acyclic(inst)
            assert verify_cso_observer(inst) == reference
            assert verify_cso(inst, "inclusion") == reference


class TestEnumLanguages:
    def test_empty_marking(self):
        a = Automaton(("p",), (Event("a"),), set(), {"p"})
        assert enum_languages_projected(a, set()) == set()

    def test_two_clause_languages(self):
        inst = gen_cnf_cso(TWO_CLAUSE)
        assert enum_languages_projected(inst.automaton, inst.nonsecret) == {
            ("0", "0", "0"),
            ("1", "0", "0"),
        }
        assert enum_languages_projected(inst.automaton, inst.secret) == {
            tuple(f"{k:03b}") for k in range(8)
        }


class TestMembershipQueries:
    def test_observation_feasible_through_unobservables(self):
        alphabet = (Event("a"), Event("u", observable=False))
        a = Automaton(
            ("0", "1", "2"), alphabet,
            {("0", "u", "1"), ("1", "a", "2")}, {"0"}, {"2"},
        )
        assert observation_feasible(a, {"2"}, ("a",))
        assert not observation_feasible(a, {"2"}, ())
        assert not observation_feasible(a, {"2"}, ("a", "a"))

    def test_observation_feasible_handles_unobservable_cycles(self):
        alphabet = (Event("a"), Event("u", observable=False))
        a = Automaton(
            ("0", "1"), alphabet,
            {("0", "u", "1"), ("1", "u", "0"), ("1", "a", "1")}, {"0"}, {"1"},
        )
        assert observation_feasible(a, {"1"}, ("a", "a", "a"))

    def test_string_reaches(self):
        alphabet = (Event("a"), Event("b"))
        a = Automaton(
            ("0", "1", "2"), alphabet,
            {("0", "a", "1"), ("0", "a", "2"), ("1", "b", "2")}, {"0"},
        )
        assert string_reaches(a, {"2"}, ("a",))
        assert string_reaches(a, {"2"}, ("a", "b"))
        assert not string_reaches(a, {"1"}, ("a", "b"))
        assert not string_reaches(a, {"2"}, ("b",))
