"""Core data model and language machinery tests."""

import ast
import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import opacheck
from opacheck import (
    Automaton,
    CnfFormula,
    CsoInstance,
    Dag,
    Event,
    IfsoInstance,
    IsoInstance,
    LboInstance,
    MalformedFormula,
    ObserverBlowup,
    PreconditionViolated,
    Verdict,
    Witness,
    classify,
    cso_to_lbo,
    gen_cnf_cso,
    gen_dag_cso_unary,
    gen_union_universality_cso,
    inclusion_modulo_projection,
    intersection_nonempty_modulo_projection,
    realize_observation,
    trim,
    lbo_to_iso,
    po_determinize,
    verify_cso,
    verify_cso_observer,
)
from opacheck import automata
from opacheck.automata import _EMPTY, _EstimateKernel, _Record, _closures, _Work
from opacheck.gadgets import Split
from opacheck.oracles import (
    _project,
    enum_languages_projected,
    observation_feasible,
    string_reaches,
    unobservable_closure,
)

from helpers import (ALPHABET_2OBS_1UO, accounts, kernel_search, make_rng, members,
                     nth_from_end, rand_automaton)


def aut(states, alphabet, transitions, initial, marked=()):
    return Automaton(tuple(states), alphabet, set(transitions), set(initial), set(marked))


AB = (Event("a"), Event("b"))
A_UO = (Event("a", observable=False),)


def explored(a):
    """An estimate kernel of ``a``'s graph that has interned every reachable estimate."""
    return kernel_search(a)[0]


def estimates(a):
    kernel = explored(a)
    return {members(a, a._graph, x) for x in kernel.masks}


class TestPublicSurface:
    def test_exports_resolve_and_materializing_constructions_are_gone(self):
        assert [name for name in opacheck.__all__ if not hasattr(opacheck, name)] == []
        removed = ("observer", "product", "project", "subset_name", "EPSILON", "LengthSet",
                   "observation_length_set", "unobservable_reach", "project_string")
        for name in removed:
            assert name not in opacheck.__all__
            assert not hasattr(opacheck, name)
            assert not hasattr(automata, name)
        for name in ("move", "is_observable", "events_by_name"):
            assert not hasattr(Automaton, name)

    def test_sources_parse_as_python_3_10(self):
        # the package promises Python >= 3.10: no `type X = ...`, no `except*`
        package = Path(opacheck.__file__).parent
        sources = sorted(package.glob("*.py"))
        assert sources
        for path in sources:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))

    def test_sources_import_only_opacheck_and_the_standard_library(self):
        # the package promises to need nothing beyond the standard library
        foreign = {}
        for path in sorted(Path(opacheck.__file__).parent.glob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Import):
                    names.update(alias.name.partition(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module.partition(".")[0])
            names -= {"opacheck", *sys.stdlib_module_names}
            if names:
                foreign[path.name] = sorted(names)
        assert foreign == {}

    def test_dir_lists_every_export_before_it_is_loaded(self):
        # dir() lists the names served on first access without loading
        # their modules; a fresh interpreter has loaded none of them yet
        script = (
            "import sys, opacheck\n"
            "listed = set(opacheck.__all__) <= set(dir(opacheck))\n"
            "print(listed, [m for m in ('opacheck.gadgets', 'opacheck.language')"
            " if m in sys.modules])\n"
        )
        src = str(Path(opacheck.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True).stdout
        assert out == "True []\n"

    def test_integer_graph_is_built_on_first_use(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"])
        assert "_graph" not in a.__dict__
        assert a.successors("p", "a") == ("q",)
        assert "_graph" in a.__dict__


class TestRecords:
    """The value types, the generators' results included, are immutable
    records that behave as frozen dataclasses did, apart from
    ``dataclasses.fields``, ``replace`` and ``asdict``."""

    def example(self):
        # README's keyword construction; ``marked`` takes its default
        return Automaton(
            states=("p", "q", "r"),
            alphabet=(Event("a"), Event("u", observable=False)),
            transitions={("p", "a", "q"), ("p", "u", "r")},
            initial={"p"},
        )

    def generator_values(self):
        """One value of each generator type, the results as the generators
        build them."""
        dfa = Automaton(("p", "q"), (Event("a"),), {("p", "a", "q"), ("q", "a", "p")},
                        {"p"}, {"q"})
        po = Automaton(("p", "q", "r"), (Event("a"),), {("p", "a", "q"), ("p", "a", "r")},
                       {"p", "q"})
        determinized = po_determinize(po, "a")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reduction = lbo_to_iso(cso_to_lbo(gen_cnf_cso(CnfFormula(1, [[1]]))))
        return [CnfFormula(2, [[1, -2], [2]]), Dag(3, [[0, 1], [1, 2]], 0, 2),
                gen_union_universality_cso([dfa, dfa]), determinized.splits[0], determinized,
                reduction]

    def test_keyword_and_positional_construction_agree(self):
        a = self.example()
        assert a.marked == frozenset() and a.initial == frozenset({"p"})
        assert a == Automaton(("p", "q", "r"), (Event("a"), Event("u", False)),
                              [("p", "u", "r"), ("p", "a", "q")], ["p"])
        inst = CsoInstance(a, secret={"q"}, nonsecret={"r"})
        assert inst == CsoInstance(a, frozenset({"q"}), frozenset({"r"}))
        assert verify_cso(inst).witness.observation == ("a",)
        assert Automaton._fields == ("states", "alphabet", "transitions", "initial", "marked")
        fields = [("variable_count", "clauses"), ("vertex_count", "edges", "source", "target"),
                  ("instance", "chain_event", "component_initials", "completed_components",
                   "copied_components"),
                  ("code", "source", "event", "target", "detour_state"),
                  ("automaton", "unobservable_event", "splits", "initial_chain"),
                  ("instance", "query_event", "secret_sink", "nonsecret_sink", "trimmed")]
        for value, names in zip(self.generator_values(), fields, strict=True):
            cls, values = type(value), [getattr(value, name) for name in names]
            assert isinstance(value, _Record) and cls._fields == names
            assert cls(*values) == value == cls(**dict(zip(names, values)))
            assert cls(values[0], **dict(zip(names[1:], values[1:]))) == value

    def test_bad_arguments_are_type_errors(self):
        a = self.example()
        with pytest.raises(TypeError, match="missing argument 'initial'"):
            Automaton(a.states, a.alphabet, a.transitions)
        with pytest.raises(TypeError, match="unexpected keyword argument 'final'"):
            Automaton(a.states, a.alphabet, a.transitions, a.initial, final=())
        with pytest.raises(TypeError, match="multiple values for argument 'states'"):
            Automaton(a.states, a.alphabet, a.transitions, a.initial, states=())
        with pytest.raises(TypeError, match="takes 2 arguments but 3 were given"):
            Event("a", True, "extra")
        with pytest.raises(TypeError, match="Dag\\(\\) missing argument 'target'"):
            Dag(3, [], 0)
        with pytest.raises(TypeError, match="takes 2 arguments but 3 were given"):
            CnfFormula(1, (), 2)
        with pytest.raises(TypeError, match="unexpected keyword argument 'detour'"):
            Split(1, "p", "a", "q", "p'", detour="p'")
        reduction = self.generator_values()[-1]
        with pytest.raises(TypeError, match="multiple values for argument 'query_event'"):
            type(reduction)(reduction.instance, "@", "x_s", "x_ns", False, query_event="@")

    def test_equality_and_hashing_leave_the_algorithm_out(self):
        w = Witness(("a",), ("u", "a"))
        observer, inclusion = Verdict(False, w, "observer"), Verdict(False, w, "inclusion")
        assert observer == inclusion and hash(observer) == hash(inclusion)
        assert observer != Verdict(False, Witness(("a",), ("a",)), "observer")
        assert Verdict(True) != Verdict(False)
        assert Verdict(True) != (True, None)  # another class is never equal
        assert hash(Event("a")) == hash(Event("a", True)) and Event("a") != Event("a", False)
        a = self.example()
        assert hash(a) == hash(Automaton(a.states, a.alphabet, a.transitions, a.initial))
        assert len({a, self.example(), a.with_marked({"q"})}) == 2

    def test_repr_lists_every_field(self):
        w = Witness(("a",), ("u", "a"))
        assert repr(Verdict(False, w, "observer")) == (
            "Verdict(holds=False, witness=Witness(observation=('a',), secret_run=('u', 'a')),"
            " algorithm='observer')")
        assert repr(Event("u", observable=False)) == "Event(name='u', observable=False)"
        one = Automaton(("p",), (Event("a"),), {("p", "a", "p")}, {"p"})
        assert repr(CsoInstance(one, {"p"}, ())) == (
            "CsoInstance(automaton=Automaton(states=('p',),"
            " alphabet=(Event(name='a', observable=True),),"
            " transitions=frozenset({('p', 'a', 'p')}), initial=frozenset({'p'}),"
            " marked=frozenset()), secret=frozenset({'p'}), nonsecret=frozenset())")
        assert repr(Dag(3, [[0, 1]], 0, 2)) == (
            "Dag(vertex_count=3, edges=frozenset({(0, 1)}), source=0, target=2)")
        assert repr(CnfFormula(1, [[1]])) == (
            "CnfFormula(variable_count=1, clauses=(frozenset({1}),))")
        assert repr(Split(1, "p", "a", "q", "p'")) == (
            "Split(code=1, source='p', event='a', target='q', detour_state=\"p'\")")
        for value in self.generator_values():
            shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in value._fields)
            assert repr(value) == f"{type(value).__name__}({shown})"

    def test_assignment_and_deletion_raise_attribute_error(self):
        a = self.example()
        values = [a, a.alphabet[0], Verdict(True), Witness((), ()), CsoInstance(a, (), ()),
                  LboInstance(a, a), IsoInstance(a, (), ()), IfsoInstance(a, (), ()),
                  *self.generator_values()]
        for value in values:
            name = value._fields[0]
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
            with pytest.raises(AttributeError):
                value.unknown = 1
        assert a.states == ("p", "q", "r")

    def test_copy_and_pickle_round_trips(self):
        a = self.example()
        inst = CsoInstance(a, {"q"}, set())
        verdict = verify_cso(inst)
        assert not verdict.holds  # the round trips below carry a witness
        generated = self.generator_values()
        for value in (a, inst, verdict, verdict.witness, a.alphabet[1], *generated):
            for twin in (copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert type(twin) is type(value) and twin == value
                if isinstance(value, (Automaton, CsoInstance, *map(type, generated))):
                    # A rebuilt set may list two colliding entries the other way
                    # round, so only the text of these records can differ.
                    for name in value._fields:
                        field, original = getattr(twin, name), getattr(value, name)
                        assert type(field) is type(original) and field == original
                else:
                    assert repr(twin) == repr(value)
        again = pickle.loads(pickle.dumps(inst))
        assert verify_cso(again) == verdict and verify_cso(again).algorithm == verdict.algorithm
        for value in generated:
            if hasattr(value, "metadata"):
                assert pickle.loads(pickle.dumps(value)).metadata() == value.metadata()

    def test_with_initial_and_with_marked_copy_and_validate(self):
        a = self.example()
        b, c = a.with_initial(["q", "r"]), a.with_marked(["r"])
        assert (b.initial, b.marked) == (frozenset({"q", "r"}), frozenset())
        assert (c.initial, c.marked) == (frozenset({"p"}), frozenset({"r"}))
        for other in (b, c):
            assert (other.states, other.alphabet, other.transitions) == (
                a.states, a.alphabet, a.transitions)
        assert a.initial == {"p"} and a.marked == frozenset()
        with pytest.raises(ValueError, match="'z' is not a declared state"):
            a.with_initial(["z"])
        with pytest.raises(ValueError, match="'z' is not a declared state"):
            a.with_marked(["z"])

    def test_generator_types_compare_and_hash_by_field(self):
        g = Dag(3, [[0, 1]], 0, 2)
        assert g == Dag(3, {(0, 1)}, 0, 2) and hash(g) == hash(Dag(3, {(0, 1)}, 0, 2))
        assert g != Dag(3, [[0, 1]], 0, 1) and g != Dag(3, [[1, 2]], 0, 2)
        formula = CnfFormula(2, [[1, -2]])
        assert formula == CnfFormula(2, ([-2, 1],)) and formula != CnfFormula(3, [[1, -2]])
        assert hash(formula) == hash(CnfFormula(2, ([-2, 1],)))
        assert Split(1, "p", "a", "q", "p'") != (1, "p", "a", "q", "p'")
        for value in self.generator_values():
            twin = type(value)(*(getattr(value, name) for name in value._fields))
            assert twin is not value and hash(twin) == hash(value) and len({value, twin}) == 1
        assert len(set(self.generator_values()) | set(self.generator_values())) == 6

    def test_generator_types_still_normalize_and_validate(self):
        assert Dag(3, [[0, 1]], 0, 2).edges == frozenset({(0, 1)})
        with pytest.raises(ValueError, match=r"edges must hold pairs of ints, not \('0', '1'\)"):
            Dag(3, [("0", "1")], 0, 2)
        clauses = CnfFormula(2, [[1, -2], (2,)]).clauses
        assert clauses == (frozenset({1, -2}), frozenset({2}))
        assert all(type(clause) is frozenset for clause in clauses)
        with pytest.raises(ValueError, match="acyclic"):
            Dag(2, [(0, 1), (1, 0)], 0, 1)
        with pytest.raises(MalformedFormula, match="out of range"):
            CnfFormula(1, [[2]])
        with pytest.raises(MalformedFormula, match="both polarities"):
            CnfFormula(1, [[1, -1]])

    def test_classify_report_is_one_cached_dataclass(self):
        a = self.example()
        report = classify(a)
        assert classify(a) is report
        assert dataclasses.is_dataclass(report) and report is opacheck.classify(a)
        assert dataclasses.asdict(report) == a._structure == {
            "deterministic": True, "acyclic": True, "partially_ordered": True,
            "observable_event_count": 1, "unobservable_event_count": 1,
        }
        assert type(report) is opacheck.StructureReport
        for value in (a, Verdict(True), *self.generator_values()):
            assert not dataclasses.is_dataclass(value)


class TestValidation:
    def test_event_name_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Event("")

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError):
            aut(["p", "p"], AB, [], ["p"])

    def test_duplicate_event_names_rejected(self):
        with pytest.raises(ValueError):
            aut(["p"], (Event("a"), Event("a", observable=False)), [], ["p"])

    def test_undeclared_transition_state_rejected(self):
        with pytest.raises(ValueError):
            aut(["p"], AB, [("p", "a", "q")], ["p"])

    def test_undeclared_transition_event_rejected(self):
        # "" names no event: it is rejected, not read as an erased transition
        for event in ("c", ""):
            with pytest.raises(ValueError):
                aut(["p"], AB, [("p", event, "p")], ["p"])

    def test_initial_outside_states_rejected(self):
        with pytest.raises(ValueError):
            aut(["p"], AB, [], ["q"])

    def test_state_names_must_be_strings(self):
        # each of these used to be accepted, and the writer then failed on it
        for name in (1, None, b"p", ("p",)):
            with pytest.raises(ValueError) as caught:
                aut(["p", name], AB, [], ["p"])
            assert str(caught.value) == f"states must hold names, not {name!r}"
        # the empty name is legal: JSON files may use it
        assert aut([""], AB, [("", "a", "")], [""]).states == ("",)

    def test_names_in_transitions_initial_and_marked_must_be_strings(self):
        # each of these raised a TypeError from the least-offender search
        triples = "transitions must hold (source, event, target) triples"
        cases = [
            ([("p", 1, "p"), ("p", "b", "p")], {"p"}, (), f"{triples}, not ('p', 1, 'p')"),
            ([("p", "a", 1), ("p", "a", "q")], {"p"}, (), f"{triples}, not ('p', 'a', 1)"),
            ([(None, "a", "p"), ("q", "a", "p")], {"p"}, (), f"{triples}, not (None, 'a', 'p')"),
            ([], {1, "x"}, (), "initial must hold names, not 1"),
            ([], {"p"}, {1, "x"}, "marked must hold names, not 1"),
        ]
        for transitions, initial, marked, message in cases:
            with pytest.raises(ValueError) as caught:
                Automaton(("p", "q"), AB, transitions, initial, marked)
            assert str(caught.value) == message

    @pytest.mark.parametrize("field", ["states", "initial", "marked"])
    def test_a_string_is_not_a_collection_of_names(self, field):
        # a bare string used to be split into its characters
        fields = {"states": ("p0", "q"), "alphabet": AB, "transitions": (),
                  "initial": ("p0",), "marked": ()}
        fields[field] = "p0"
        with pytest.raises(ValueError, match=f"{field} must be a collection of names"):
            Automaton(**fields)

    @pytest.mark.parametrize("call, field", [
        pytest.param(lambda a: inclusion_modulo_projection(a, "pq", a, ()), "m1",
                     id="inclusion-m1"),
        pytest.param(lambda a: inclusion_modulo_projection(a, (), a, "pq"), "m2",
                     id="inclusion-m2"),
        pytest.param(lambda a: intersection_nonempty_modulo_projection(a, "pq", a, ()), "m1",
                     id="intersection-m1"),
        pytest.param(lambda a: intersection_nonempty_modulo_projection(a, (), a, "pq"), "m2",
                     id="intersection-m2"),
        pytest.param(lambda a: realize_observation(a, "pq", ()), "targets", id="realize-targets"),
        pytest.param(lambda a: realize_observation(a, {"pq"}, (), initial="pq"), "initial",
                     id="realize-initial"),
    ])
    def test_a_string_is_not_a_set_of_names_in_a_query(self, call, field):
        # "pq" used to stand for the states p and q, not for the state pq
        a = aut(["p", "q", "pq"], AB, [("p", "a", "q"), ("pq", "a", "pq")], ["p", "pq"])
        with pytest.raises(ValueError, match=f"{field} must be a collection of names"):
            call(a)

    def test_alphabet_entries_must_be_events(self):
        # a name in place of an Event used to raise AttributeError
        with pytest.raises(ValueError) as caught:
            Automaton(("p",), ("a",), (), {"p"})
        assert str(caught.value) == "alphabet must hold Event values, not 'a'"
        assert Automaton(("p",), iter(AB), (), {"p"}).alphabet == AB

    def test_observability_must_be_a_boolean(self):
        for observable in ("no", 0, 1, None):
            with pytest.raises(ValueError) as caught:
                Event("a", observable=observable)
            assert str(caught.value) == f"observable must be a bool, not {observable!r}"


class TestUndeclaredNames:
    """Every query on an automaton raises PreconditionViolated, not KeyError,
    on a state or event the automaton does not declare."""

    def test_successors(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"])
        assert a.successors("p", "a") == ("q",)
        for state, event in (("zz", "a"), ("p", "zz")):
            with pytest.raises(PreconditionViolated, match="successors"):
                a.successors(state, event)


class TestLargeConstruction:
    """Construction checks a large transition set in bulk passes.  A row is a
    list or tuple of three names; any other row raises a ValueError that names
    the least offender by its text, and the error texts for undeclared names
    are those of one check per transition."""

    STATES = tuple(f"p{i}" for i in range(600))
    ROWS = [[f"p{i // 2}", "ab"[i % 2], f"p{(i * 7 + 1) % 600}"] for i in range(1200)]

    def build(self, transitions):
        return Automaton(self.STATES, AB, transitions, {"p0"})

    def test_list_typed_transitions_are_accepted(self):
        a = self.build(self.ROWS)
        assert len(a.transitions) == 1200
        assert a == self.build({tuple(t) for t in self.ROWS}) == self.build(iter(self.ROWS))
        assert all(type(t) is tuple for t in a.transitions)

    @pytest.mark.parametrize("bad", [["p1", "a"], ["p1", "a", "p2", "p3"], "pq"])
    def test_wrong_arity_is_a_value_error(self, bad):
        with pytest.raises(ValueError) as caught:
            self.build(self.ROWS[:700] + [bad] + self.ROWS[700:])
        assert str(caught.value) == (
            f"transitions must hold (source, event, target) triples, not {bad!r}"
        )

    def test_non_sequence_transition_is_a_value_error(self):
        with pytest.raises(ValueError) as caught:
            self.build(self.ROWS + [5])
        assert str(caught.value) == "transitions must hold (source, event, target) triples, not 5"

    @pytest.mark.parametrize(
        "bad, message",
        [
            (("p3", "a", "ghost"), "transition ('p3', 'a', 'ghost') uses an undeclared state"),
            (("ghost", "b", "p3"), "transition ('ghost', 'b', 'p3') uses an undeclared state"),
            (("p3", "c", "p4"), "transition ('p3', 'c', 'p4') uses an undeclared event"),
        ],
    )
    def test_one_undeclared_name_is_named(self, bad, message):
        with pytest.raises(ValueError) as caught:
            self.build(self.ROWS + [list(bad)])
        assert str(caught.value) == message


SET_ROWS_CHILD = """
import json
from opacheck import Automaton, Event, IfsoInstance
a = Automaton(("p", "q"), (Event("a"),), [], {"p", "q"})
builds = [
    lambda: Automaton(("p", "q"), (Event("a"),), [{"p", "a", "q"}], {"p"}),
    lambda: IfsoInstance(a, [{"p", "q"}], ()),
    lambda: IfsoInstance(a, (), [frozenset({"p", "q"})]),
]
texts = []
for build in builds:
    try:
        texts.append(repr(build()))
    except ValueError as exc:
        texts.append(str(exc))
print(json.dumps(texts))
"""


class TestRows:
    """Transitions and IFSO pairs go through one row check: each row is a
    list or tuple of the row's width, never something that only iterates
    like one."""

    def test_a_string_of_three_names_is_not_a_transition(self):
        # "pab" used to be read as the transition (p, a, b)
        with pytest.raises(ValueError) as caught:
            Automaton(("p", "b"), (Event("a"),), ["pab"], {"p"})
        assert str(caught.value) == (
            "transitions must hold (source, event, target) triples, not 'pab'"
        )

    def test_set_rows_raise_one_text_under_every_hash_seed(self):
        # a set used to be read in hash order: the transition {p, a, q} became
        # (p, a, q) or (q, a, p) or raised, and the pair {p, q} (p, q) or (q, p)
        src = str(Path(opacheck.__file__).resolve().parent.parent)
        runs = [
            json.loads(subprocess.run(
                [sys.executable, "-c", SET_ROWS_CHILD],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout)
            for seed in ("0", "1", "5")
        ]
        assert runs == [[
            "transitions must hold (source, event, target) triples, not {'a', 'p', 'q'}",
            "secret_pairs must hold pairs of names, not {'p', 'q'}",
            "nonsecret_pairs must hold pairs of names, not {'p', 'q'}",
        ]] * 3


def closure_of(a, state):
    """The states in the unobservable closure that :func:`_closures` gives ``state``."""
    g = a._graph
    return set(members(a, g, _closures(g)[g.index[state]]))


class TestUnobservableReach:
    def test_all_observable_is_identity(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"])
        assert closure_of(a, "p") == {"p"}

    def test_transitive_closure_of_chain(self):
        a = aut(["q1", "q2", "q3"], A_UO, [("q1", "a", "q2"), ("q2", "a", "q3")], ["q1"])
        assert closure_of(a, "q1") == {"q1", "q2", "q3"}

    def test_chained_initial_states_close_to_whole_set(self):
        # a chain of unobservable transitions over former initial states makes
        # the closure of the first one cover them all
        states = [f"q{i}" for i in range(1, 5)]
        alphabet = (Event("x"), Event("a", observable=False))
        chain = {(f"q{i}", "a", f"q{i + 1}") for i in range(1, 4)}
        a = aut(states, alphabet, chain, ["q1"])
        assert closure_of(a, "q1") >= set(states)


class TestClosures:
    def test_a_chain_declared_forward_takes_one_pass(self):
        # Each node's walk must stop at its successor's finished closure:
        # walked from the first node on, each would cross the rest of the
        # chain, in quadratic time (seconds at this length).
        n = 6000
        states = [f"q{i}" for i in range(n)]
        a = aut(states, A_UO, [(states[i], "a", states[i + 1]) for i in range(n - 1)], ["q0"])
        g = a._graph
        start = time.perf_counter()
        closure = _closures(g)
        assert time.perf_counter() - start < 1.0
        assert closure == [(1 << n) - (1 << i) for i in range(n)]


class TestProject:
    """The reference projection that witness replays use, ``oracles._project``."""

    def test_fully_observable_keeps_structure(self):
        # with every event observable, projection is the identity on strings
        a = aut(["p", "q"], AB, [("p", "a", "q"), ("q", "b", "p")], ["p"], ["q"])
        for string in [(), ("a",), ("a", "b"), ("a", "b", "a"), ("b", "b")]:
            assert _project(a, string) == string
        assert a.observable_events == ("a", "b")

    def test_unobservable_transition_is_erased(self):
        alphabet = (Event("a"), Event("b", observable=False))
        a = aut(["t", "t2"], alphabet, [("t", "b", "t2")], ["t"], ["t2"])
        assert a.observable_events == ("a",)
        assert _project(a, ("b",)) == ()
        # the erased step is taken by the empty observation
        assert observation_feasible(a, {"t2"}, ())
        assert estimates(a) == {("t", "t2")}

    def test_projected_membership_drops_unobservable(self):
        # string a.b.a with b unobservable looks like "aa"
        alphabet = (Event("a"), Event("b", observable=False))
        a = aut(
            ["0", "1", "2", "3"],
            alphabet,
            [("0", "a", "1"), ("1", "b", "2"), ("2", "a", "3")],
            ["0"],
            ["3"],
        )
        assert _project(a, ("a", "b", "a")) == ("a", "a")
        assert observation_feasible(a, {"3"}, ("a", "a"))
        assert not observation_feasible(a, {"3"}, ("a", "b", "a"))

    def test_projection_is_a_morphism(self):
        rng = make_rng("projection-morphism")
        a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=4)
        names = [e.name for e in a.alphabet]
        for _ in range(200):
            u = tuple(rng.choice(names) for _ in range(rng.randint(0, 6)))
            v = tuple(rng.choice(names) for _ in range(rng.randint(0, 6)))
            assert _project(a, u + v) == _project(a, u) + _project(a, v)


class TestObserver:
    def test_deterministic_fully_observable_is_isomorphic(self):
        # every estimate is a singleton and every step follows one transition
        a = aut(
            ["p", "q", "r"],
            AB,
            [("p", "a", "q"), ("q", "b", "r"), ("r", "a", "r")],
            ["p"],
            ["r"],
        )
        kernel = explored(a)
        names = [members(a, a._graph, x) for x in kernel.masks]
        assert names == [("p",), ("q",), ("r",)]
        steps = {
            (names[i], e, names[j])
            for i in range(len(names))
            for k, e in enumerate(kernel.events)
            if (j := kernel.intern(kernel.post(kernel.masks[i], k))) != _EMPTY
        }
        assert steps == {((p,), e, (q,)) for (p, e, q) in a.transitions}

    def test_estimate_after_nondeterministic_step(self):
        a = aut(
            ["p", "q", "r"],
            (Event("x"),),
            [("p", "x", "q"), ("p", "x", "r")],
            ["p"],
        )
        g = a._graph
        kernel = _EstimateKernel(g)
        start = kernel.intern(kernel.close(g.mask(a.initial)))
        assert members(a, g, kernel.masks[start]) == ("p",)
        after = kernel.intern(kernel.post(kernel.masks[start], 0))
        assert members(a, g, kernel.masks[after]) == ("q", "r")
        # after x the intruder cannot tell q from r, but it can tell q from p
        assert verify_cso_observer(CsoInstance(a, {"q"}, {"r"})).holds
        v = verify_cso_observer(CsoInstance(a, {"q"}, {"p"}))
        assert not v.holds and v.witness.observation == ("x",)

    def test_unobservable_chain_matches_multi_initial(self):
        # chaining initial states with an unobservable event leaves the
        # observer's initial estimate unchanged
        alphabet = (Event("x"), Event("a", observable=False))
        multi = aut(["q1", "q2"], alphabet, [("q1", "x", "q1"), ("q2", "x", "q2")],
                    ["q1", "q2"])
        chained = aut(
            ["q1", "q2"],
            alphabet,
            [("q1", "x", "q1"), ("q2", "x", "q2"), ("q1", "a", "q2")],
            ["q1"],
        )
        assert unobservable_closure(chained, chained.initial) == multi.initial
        assert estimates(multi) == estimates(chained) == {("q1", "q2")}

    def test_cap_exceeded_raises(self):
        rng = make_rng("observer-cap")
        a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=7)
        assert kernel_search(a)[1].estimates > 1
        # with no secret state nothing is violated, so the search interns
        # every reachable estimate and must stop at the second one
        with pytest.raises(ObserverBlowup) as err:
            verify_cso_observer(CsoInstance(a, frozenset(), frozenset()), cap=1)
        assert err.value.cap == 1

    def test_estimates_are_sound_and_complete(self):
        # the estimate the kernel's close and post images reach by an
        # observation equals the set of states some string with that
        # projection can reach, as decided by the independent membership oracle
        import itertools

        rng = make_rng("observer-soundness")
        for _ in range(25):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5)
            g = a._graph
            kernel = _EstimateKernel(g)
            for length in range(4):
                for ks in itertools.product(range(len(kernel.events)), repeat=length):
                    obs = tuple(kernel.events[k] for k in ks)
                    expected = tuple(q for q in a.states if observation_feasible(a, {q}, obs))
                    estimate = kernel.close(g.mask(a.initial))
                    for k in ks:
                        estimate = kernel.post(estimate, k)
                    assert members(a, g, estimate) == expected


def interned(inst, respect):
    """How many estimates the CSO observer search interns on a kernel of
    ``inst``'s graph quotiented by ``respect``."""
    return kernel_search(inst.automaton, respect, inst.secret, inst.nonsecret)[1].estimates


class TestQuotient:
    """CSO on a partially ordered automaton searches estimates of the classes
    of a bisimulation that keeps the secret and non-secret sets apart."""

    def test_cnf_gadget_interns_class_estimates(self):
        # All eight clauses over three variables: unsatisfiable, so the search
        # interns every reachable estimate, 15 of states or 4 of classes.
        import itertools

        clauses = itertools.product((1, -1), (2, -2), (3, -3))
        inst = gen_cnf_cso(CnfFormula(3, tuple(map(frozenset, clauses))))
        assert classify(inst.automaton).partially_ordered
        assert interned(inst, ()) == 15
        assert interned(inst, (inst.secret, inst.nonsecret)) == 4
        for algorithm in ("observer", "inclusion"):
            assert verify_cso(inst, algorithm, cap=4).holds
            with pytest.raises(ObserverBlowup):
                verify_cso(inst, algorithm, cap=3)

    def test_a_self_loop_is_not_a_move_into_another_class(self):
        # u loops on a and v moves on a to the sink w: u and v have targets
        # under a in classes of their own, so they must not share a class.
        a = aut(["v", "u", "w"], AB, [("v", "a", "w"), ("u", "a", "u")], ["v"])
        inst = CsoInstance(a, {"w"}, frozenset())
        for algorithm in ("observer", "inclusion"):
            verdict = verify_cso(inst, algorithm)
            assert not verdict.holds and verdict.witness.observation == ("a",)

    def test_union_interns_one_estimate_per_configuration_and_the_start(self):
        # A union is cyclic, so it keeps the states.  Universal, so the search
        # interns the initial estimate (the copied initial states) and one
        # estimate per reachable configuration of the components.
        def permutation(name, zero, one, marked):
            states = [f"{name}{i}" for i in range(len(zero))]
            transitions = {(states[i], "0", states[zero[i]]) for i in range(len(zero))}
            transitions |= {(states[i], "1", states[one[i]]) for i in range(len(one))}
            return aut(states, (Event("0"), Event("1")), transitions, [states[0]],
                       [states[i] for i in marked])

        dfas = [permutation("x", [1, 0], [0, 1], [0]), permutation("y", [1, 0], [0, 1], [1]),
                permutation("z", [0, 1, 2], [1, 2, 0], []),
                permutation("w", [1, 0, 3, 2], [1, 2, 3, 0], [2])]
        moves = [{(p, e): q for (p, e, q) in d.transitions} for d in dfas]
        configurations = {tuple(d.states[0] for d in dfas)}
        todo = list(configurations)
        while todo:
            config = todo.pop()
            for e in "01":
                step = tuple(moves[k][q, e] for k, q in enumerate(config))
                if step not in configurations:
                    configurations.add(step)
                    todo.append(step)
        assert len(configurations) == 24
        inst = gen_union_universality_cso(dfas).instance
        assert not classify(inst.automaton).partially_ordered
        assert verify_cso(inst).holds
        assert interned(inst, ()) == interned(inst, (inst.secret, inst.nonsecret)) == 24 + 1
        # The initial copies are chained by an unobservable event, and
        # inclusion is the observer's search: it interns as many.
        assert classify(inst.automaton).unobservable_event_count == 1
        for algorithm in ("observer", "inclusion"):
            assert verify_cso(inst, algorithm, cap=25).holds
            with pytest.raises(ObserverBlowup):
                verify_cso(inst, algorithm, cap=24)


class TestProduct:
    """The product search of :func:`intersection_nonempty_modulo_projection`."""

    def test_empty_language_factor_gives_empty_intersection(self):
        a1 = aut(["p"], AB, [("p", "a", "p")], ["p"], ["p"])
        a2 = aut(["q"], AB, [("q", "a", "q")], ["q"], [])
        assert not intersection_nonempty_modulo_projection(a1, a1.marked, a2, a2.marked).holds

    def test_idempotent_on_same_automaton(self):
        a = aut(["p", "q", "r"], AB, [("p", "a", "q"), ("q", "b", "r")], ["p"], ["q", "r"])
        assert enum_languages_projected(a, a.marked) == {("a",), ("a", "b")}
        v = intersection_nonempty_modulo_projection(a, a.marked, a, a.marked)
        assert v.holds and v.witness.observation == ("a",)

    def test_marked_pair_reachable_iff_target_reachable(self):
        alphabet = (Event("a"), Event("b", observable=False))
        base = dict(
            states=("s", "m", "t", "t'"),
            alphabet=alphabet,
            transitions={("s", "a", "m"), ("m", "a", "t"), ("t", "b", "t'")},
            initial={"s"},
        )
        v = intersection_nonempty_modulo_projection(
            Automaton(**base, marked={"t"}), {"t"}, Automaton(**base, marked={"t'"}), {"t'"}
        )
        assert v.holds and v.witness.observation == ("a", "a")
        # "m" is reached by "a" only, "t'" by "aa" only: no common observation
        v = intersection_nonempty_modulo_projection(
            Automaton(**base, marked={"m"}), {"m"}, Automaton(**base, marked={"t'"}), {"t'"}
        )
        assert not v.holds

    def test_language_is_intersection_on_acyclic_inputs(self):
        rng = make_rng("product-language")
        for _ in range(40):
            a1 = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5, structure="acyclic")
            a2 = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5, structure="acyclic")
            v = intersection_nonempty_modulo_projection(a1, a1.marked, a2, a2.marked)
            common = enum_languages_projected(a1, a1.marked) & enum_languages_projected(
                a2, a2.marked
            )
            assert v.holds == bool(common)
            if common:
                rank = {e: k for k, e in enumerate(a1.observable_events)}
                least = min(common, key=lambda w: (len(w), [rank[e] for e in w]))
                assert v.witness.observation == least
                assert _project(a1, v.witness.secret_run) == least


class TestLexLeastLabel:
    """The pair search itself, on hand-built integer graphs: right nodes are
    ints and left states are bits of a mask."""

    def test_left_state_is_kept_under_each_right_node(self):
        # Left state 1 is reached under right node 1 by event 0 and under right
        # node 2 by event 1; only the second pairing is a goal.
        def move(y, mask, e):
            return ((1 + e,), 0b10) if y == 0 else ((), 0)

        def is_goal(y, mask):
            return y == 2 and bool(mask & 0b10)

        assert automata._lex_least_label([(0, 0b01)], range(2), move, is_goal, _Work()) == (1,)

    def test_pair_reached_again_is_not_moved_again(self):
        # Left states 0 -> 1 -> 2 -> 0 under event 0, and 0 -> 2 under event 1,
        # all under right node 0: state 2 is reached by "1" and again by "00".
        calls = []

        def move(y, mask, e):
            calls.append((y, mask, e))
            if e == 0:
                return (y,), (mask << 1 | mask >> 2) & 0b111
            return ((y,), 0b100) if mask & 0b001 else ((), 0)

        work = _Work()
        result = automata._lex_least_label([(0, 0b001)], range(2), move,
                                           lambda y, mask: False, work)
        assert result is None
        assert calls == [(0, 0b001, 0), (0, 0b001, 1), (0, 0b010, 0), (0, 0b010, 1),
                         (0, 0b100, 0), (0, 0b100, 1)]
        # three groups expanded, the two found by one event, and all three
        # left states paired with the one right node
        assert (work.estimates, work.groups, work.depth, work.pairs) == (0, 3, 1, 3)

    def test_ties_go_to_the_earlier_event(self):
        # A binary tree numbered from 1, where event e leads from y to 2y + e:
        # node 5 is reached by "01" and node 6 by "10", both goals.
        def move(y, mask, e):
            return (2 * y + e,), 1

        def is_goal(y, mask):
            return y in (5, 6)

        for events, label in ((range(2), (0, 1)), ((1, 0), (1, 0))):
            work = _Work()
            assert automata._lex_least_label([(1, 1)], events, move, is_goal, work) == label
            # the start and the first group of depth 1 are expanded, and the goal,
            # at depth 2, is that group's second extension, after its first one
            assert (work.groups, work.depth, work.pairs) == (2, 2, 4)


class TestWorkAccount:
    """Each search fills one account; its counts are pinned here on
    ``helpers.nth_from_end(n)``, whose estimates are known from outside the
    kernel: after a word, ``q0`` and each ``qi`` whose i-th symbol from the
    end is ``a``.  Each of the 2^n subsets of ``q1 .. qn`` is reachable,
    first at the depth of its highest index."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_the_observer_walks_every_estimate_when_opacity_holds(self, n, monkeypatch):
        # q0 is in every estimate, so no estimate has qn without q0
        inst = CsoInstance(nth_from_end(n), {f"q{n}"}, {"q0"})
        made = accounts(monkeypatch)
        assert verify_cso(inst, "observer").holds
        [work] = made
        assert (work.estimates, work.groups, work.depth, work.pairs) == (2**n, 2**n, n, 0)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_the_observer_stops_at_the_least_violation(self, n, monkeypatch):
        # A violation is an estimate with qn and not q(n-1): the word's n-th
        # symbol from the end is a and its (n-1)-th is b, first met as
        # a b a^(n-2).  The search interns every estimate of depth below n,
        # the 2^(n-1) whose other members lie in q1 .. q(n-1); then, at depth
        # n, where each estimate has one word, those of the 2^(n-2) words that
        # start with a a, and the violation.
        inst = CsoInstance(nth_from_end(n), {f"q{n}"}, {f"q{n - 1}"})
        made = accounts(monkeypatch)
        verdict = verify_cso(inst, "observer")
        assert verdict.witness.observation == ("a", "b") + ("a",) * (n - 2)
        work, realized = made
        assert (work.estimates, work.depth) == (3 * 2 ** (n - 2) + 1, n)
        assert (realized.estimates, realized.depth) == (0, len(verdict.witness.secret_run))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_inclusion_interns_the_observers_estimates(self, n, monkeypatch):
        # With one automaton on both sides, from one start, each pair of the
        # inclusion search holds exactly its right estimate's members, so it
        # walks the observer's estimates with the observer's goal test, and
        # the observer runs it: the two accounts agree field by field.
        made = accounts(monkeypatch)
        a = nth_from_end(n)
        for nonsecret in ("q0", f"q{n - 1}"):
            inst = CsoInstance(a, {f"q{n}"}, {nonsecret})
            searches = []
            for algorithm in ("observer", "inclusion"):
                made.clear()
                verify_cso(inst, algorithm)
                searches.append(made[0])
            observer, inclusion = ((w.estimates, w.groups, w.depth, w.pairs) for w in searches)
            assert inclusion == observer

    def test_the_observer_takes_each_estimates_members_once(self, monkeypatch):
        # The kernel's post keeps the members (``_bits``) of the last mask it
        # stepped, and the search steps one estimate under every event in
        # turn: on a holding instance the members are taken once per
        # expanded estimate, plus once for the start's closure.  Checked on
        # the 2^n estimates of nth_from_end(n), and on the UNSAT gadget of
        # all eight clauses over three variables, whose quotient leaves four
        # class estimates.
        import itertools

        clauses = itertools.product((1, -1), (2, -2), (3, -3))
        unsat = gen_cnf_cso(CnfFormula(3, tuple(map(frozenset, clauses))))
        cases = [(CsoInstance(nth_from_end(n), {f"q{n}"}, {"q0"}), 2**n) for n in range(3, 9)]
        made, taken, real_bits = accounts(monkeypatch), [], automata._bits
        monkeypatch.setattr(automata, "_bits", lambda mask: taken.append(mask) or real_bits(mask))
        for inst, estimates in cases + [(unsat, 4)]:
            made.clear()
            taken.clear()
            assert verify_cso(inst, "observer").holds
            [work] = made
            assert (work.groups, len(taken)) == (estimates, estimates + 1)

    def test_a_cap_hit_leaves_the_partial_counts(self, monkeypatch):
        # {q0}; {q0, q1}; {q0, q1, q2} and {q0, q2}; then {q0, q1, q2, q3}
        # from the first of those, whose b-successor would be the sixth: three
        # estimates expanded, and the last one reached at depth 3
        inst = CsoInstance(nth_from_end(4), {"q4"}, {"q0"})
        made = accounts(monkeypatch)
        with pytest.raises(ObserverBlowup):
            verify_cso_observer(inst, cap=5)
        with pytest.raises(ObserverBlowup):
            verify_cso(inst, "inclusion", cap=5)
        for work in made:
            assert (work.estimates, work.groups, work.depth) == (5, 3, 3)

    def test_the_product_and_realization_build_no_estimates(self, monkeypatch):
        a = nth_from_end(5)
        made = accounts(monkeypatch)
        verdict = intersection_nonempty_modulo_projection(a, {"q5"}, a, {"q4"})
        assert verdict.witness.observation == ("a",) * 5
        product, realized = made
        assert product.estimates == realized.estimates == 0
        assert product.depth == realized.depth == 5
        made.clear()
        run = realize_observation(a, {"q3"}, ("b", "a", "b", "b"))
        [realized] = made
        assert (realized.estimates, realized.depth) == (0, len(run))


class TestInclusion:
    def test_reflexive(self):
        rng = make_rng("inclusion-reflexive")
        for _ in range(20):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6)
            assert inclusion_modulo_projection(a, a.marked, a, a.marked).holds

    def test_empty_left_language_included(self):
        a = aut(["p"], AB, [("p", "a", "p")], ["p"], ["p"])
        assert inclusion_modulo_projection(a, set(), a, set()).holds

    def test_two_clause_instance_difference_witness(self):
        # clause paths accept 000 and 100; the all-strings path accepts {0,1}^3;
        # the smallest observation in the difference is 001
        from opacheck import CnfFormula, gen_cnf_cso

        inst = gen_cnf_cso(CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3}))))
        a = inst.automaton
        assert enum_languages_projected(a, inst.nonsecret) == {
            ("0", "0", "0"),
            ("1", "0", "0"),
        }
        assert enum_languages_projected(a, inst.secret) == {
            tuple(f"{k:03b}") for k in range(8)
        }
        v = inclusion_modulo_projection(a, inst.secret, a, inst.nonsecret)
        assert not v.holds
        assert v.witness.observation == ("0", "0", "1")

    def test_agrees_with_enumeration_on_acyclic_instances(self):
        rng = make_rng("inclusion-enumeration")
        for _ in range(60):
            a1 = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5, structure="acyclic")
            a2 = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5, structure="acyclic")
            verdict = inclusion_modulo_projection(a1, a1.marked, a2, a2.marked)
            left = enum_languages_projected(a1, a1.marked)
            right = enum_languages_projected(a2, a2.marked)
            assert verdict.holds == (left <= right)
            if not verdict.holds:
                assert verdict.witness.observation in left - right


class TestIntersection:
    def test_empty_left_language(self):
        a = aut(["p"], AB, [("p", "a", "p")], ["p"], ["p"])
        assert not intersection_nonempty_modulo_projection(a, set(), a, a.marked).holds

    def test_same_nonempty_language(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"], ["q"])
        v = intersection_nonempty_modulo_projection(a, a.marked, a, a.marked)
        assert v.holds and v.witness.observation == ("a",)


class TestClassify:
    def test_self_loop_counts_as_cycle_but_not_order_violation(self):
        a = aut(["p"], AB, [("p", "a", "p")], ["p"])
        report = classify(a)
        assert report.deterministic
        assert not report.acyclic
        assert report.partially_ordered

    def test_two_state_cycle_breaks_partial_order(self):
        a = aut(["p", "q"], AB, [("p", "a", "q"), ("q", "a", "p")], ["p"])
        assert not classify(a).partially_ordered

    def test_acyclic_implies_partially_ordered(self):
        rng = make_rng("classify-invariant")
        for _ in range(50):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6)
            report = classify(a)
            if report.acyclic:
                assert report.partially_ordered
            if report.deterministic:
                assert len(a.initial) == 1

    def test_report_computed_once_per_automaton(self):
        inst = gen_dag_cso_unary(Dag(3, frozenset({(0, 1), (1, 2)}), 0, 2))
        report = classify(inst.automaton)
        assert classify(inst.automaton) is report
        verify_cso(inst)  # routes on, and checks the fast path's precondition with, the report
        assert classify(inst.automaton) is report

    def test_event_counts(self):
        a = aut(["p"], ALPHABET_2OBS_1UO, [], ["p"])
        report = classify(a)
        assert (report.observable_event_count, report.unobservable_event_count) == (2, 1)


class TestTrim:
    def test_already_trim_is_identity(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"], ["q"])
        assert trim(a) == a

    def test_unreachable_marked_state_removed(self):
        a = aut(["p", "q", "z"], AB, [("p", "a", "q")], ["p"], ["q", "z"])
        t = trim(a)
        assert "z" not in t.states and t.marked == {"q"}

    def test_no_marked_states_trims_to_empty(self):
        a = aut(["p", "q"], AB, [("p", "a", "q")], ["p"])
        t = trim(a)
        assert t.states == () and t.initial == frozenset()

    def test_trim_preserves_marked_language_and_creates_no_cycles(self):
        rng = make_rng("trim-language")
        for _ in range(40):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=5, structure="acyclic")
            t = trim(a)
            assert enum_languages_projected(a, a.marked) == enum_languages_projected(t, t.marked)
            assert classify(t).acyclic

    def test_trim_acyclicity_matches_restricted_subgraph(self):
        # trim never creates cycles: its acyclicity equals that of the original
        # digraph restricted to the kept states (checked with a local search)
        def has_cycle(states, edges):
            adjacency = {}
            for (u, v) in edges:
                adjacency.setdefault(u, []).append(v)
            color = {}
            for root in states:
                if color.get(root):
                    continue
                stack = [(root, iter(adjacency.get(root, ())))]
                color[root] = 1
                while stack:
                    node, it = stack[-1]
                    child = next(it, None)
                    if child is None:
                        color[node] = 2
                        stack.pop()
                    elif color.get(child, 0) == 1:
                        return True
                    elif color.get(child, 0) == 0:
                        color[child] = 1
                        stack.append((child, iter(adjacency.get(child, ()))))
            return False

        rng = make_rng("trim-subgraph")
        for _ in range(40):
            a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=6)
            t = trim(a)
            kept = set(t.states)
            restricted = {(p, q) for (p, _, q) in a.transitions if p in kept and q in kept}
            assert classify(t).acyclic == (not has_cycle(t.states, restricted))


class TestRealizeObservation:
    def test_shortest_string_through_unobservables(self):
        alphabet = (Event("a"), Event("u", observable=False))
        a = aut(
            ["0", "1", "2"],
            alphabet,
            [("0", "u", "1"), ("1", "a", "2"), ("0", "a", "2")],
            ["0"],
            ["2"],
        )
        assert realize_observation(a, {"2"}, ("a",)) == ("a",)

    def test_unrealizable_observation_raises(self):
        a = aut(["p"], AB, [], ["p"])
        with pytest.raises(ValueError):
            realize_observation(a, {"p"}, ("a",))

    def test_memory_is_one_mask_per_position(self):
        # A 150-state ring read for 150 observations: 150 x 151 pairs of a
        # state and a position, while the search keeps one mask per position.
        n = 150
        ring = [f"r{i}" for i in range(n)]
        edges = {(ring[i], "a", ring[j]) for i in range(n) for j in ((i + 1) % n, (7 * i + 3) % n)}
        edges |= {(ring[i], "u", ring[(11 * i + 5) % n]) for i in range(0, n, 3)}
        a = aut(ring, (Event("a"), Event("u", observable=False)), edges, ["r0"])
        tracemalloc.start()
        try:
            run = realize_observation(a, {"r17"}, ("a",) * n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _project(a, run) == ("a",) * n
        assert string_reaches(a, {"r17"}, run)
        assert peak < 2**19
