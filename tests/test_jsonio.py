"""Format tests: canonical JSON round-trips, strict key checking, DIMACS."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opacheck import CnfFormula, MalformedFormula, ParseError
from opacheck.commands import dag_from_dict, parse_dimacs
from opacheck.jsonio import (
    automaton_from_dict,
    automaton_to_dict,
    dumps,
    instance_from_dict,
    instance_to_dict,
    load_json_file,
)

from helpers import (
    ALPHABET_2OBS_1UO,
    make_rng,
    rand_automaton,
    rand_cso,
    rand_trim_lbo,
)


def sample_automaton_dict():
    return {
        "alphabet": [
            {"name": "a", "observable": True},
            {"name": "u", "observable": False},
        ],
        "states": ["p", "q"],
        "initial": ["p"],
        "marked": ["q"],
        "transitions": [["p", "a", "q"], ["q", "u", "q"]],
    }


class TestAutomatonFormat:
    def test_round_trip(self):
        d = sample_automaton_dict()
        a = automaton_from_dict(d)
        assert automaton_from_dict(automaton_to_dict(a)) == a

    def test_unknown_key_rejected(self):
        d = sample_automaton_dict()
        d["color"] = "red"
        with pytest.raises(ParseError):
            automaton_from_dict(d)

    def test_missing_key_rejected(self):
        d = sample_automaton_dict()
        del d["marked"]
        with pytest.raises(ParseError):
            automaton_from_dict(d)

    def test_empty_initial_rejected(self):
        d = sample_automaton_dict()
        d["initial"] = []
        with pytest.raises(ParseError):
            automaton_from_dict(d)

    def test_empty_event_name_rejected(self):
        d = sample_automaton_dict()
        d["alphabet"].append({"name": "", "observable": True})
        with pytest.raises(ParseError):
            automaton_from_dict(d)

    def test_undeclared_transition_event_rejected(self):
        # "" names no declared event, so the automaton rejects it like "zz"
        for event in ("zz", ""):
            d = sample_automaton_dict()
            d["transitions"].append(["p", event, "q"])
            with pytest.raises(ParseError, match="undeclared event"):
                automaton_from_dict(d)


class TestLoadJsonFile:
    @pytest.mark.parametrize(
        "text", ["{ nope", "[]", "[" * 100_000], ids=["malformed", "array", "deep"]
    )
    def test_bad_text_is_a_parse_error_without_the_path(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            load_json_file(str(path))
        assert "bad.json" not in str(caught.value)


class TestInstanceFormat:
    def test_cso_round_trip_is_byte_stable(self):
        rng = make_rng("jsonio-cso")
        for _ in range(25):
            inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=5)
            first = dumps(instance_to_dict(inst))
            again = dumps(instance_to_dict(instance_from_dict(json.loads(first), "cso")))
            assert first == again

    def test_lbo_round_trip(self):
        # an automaton trimmed to nothing has no initial states and cannot be
        # expressed in a file, so only serializable instances round-trip
        rng = make_rng("jsonio-lbo")
        checked = 0
        while checked < 10:
            inst = rand_trim_lbo(rng, ALPHABET_2OBS_1UO, max_states=5)
            if not inst.secret_automaton.initial or not inst.nonsecret_automaton.initial:
                continue
            text = dumps(instance_to_dict(inst))
            assert instance_from_dict(json.loads(text), "lbo-weak") == inst
            checked += 1

    def test_metadata_key_tolerated(self):
        rng = make_rng("jsonio-metadata")
        inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=4)
        d = instance_to_dict(inst, metadata={"origin": "test"})
        assert instance_from_dict(d, "cso") == inst

    def test_metadata_must_be_an_object(self):
        # in an instance, in the automaton inside it, and in an automaton file
        inst = rand_cso(make_rng("jsonio-metadata-type"), ALPHABET_2OBS_1UO, max_states=4)
        for metadata in (5, "origin", [], None):
            d = {**instance_to_dict(inst), "metadata": metadata}
            nested = instance_to_dict(inst)
            nested["automaton"]["metadata"] = metadata
            for bad in (lambda: instance_from_dict(d, "cso"),
                        lambda: instance_from_dict(nested, "cso"),
                        lambda: automaton_from_dict(nested["automaton"])):
                with pytest.raises(ParseError, match="^metadata must be a JSON object$"):
                    bad()

    def test_wrong_notion_keys_rejected(self):
        rng = make_rng("jsonio-wrong-notion")
        inst = rand_cso(rng, ALPHABET_2OBS_1UO, max_states=4)
        with pytest.raises(ParseError):
            instance_from_dict(instance_to_dict(inst), "iso")

    def test_undeclared_secret_state_rejected(self):
        d = {
            "automaton": sample_automaton_dict(),
            "secret": ["zz"],
            "nonsecret": [],
        }
        with pytest.raises(ParseError):
            instance_from_dict(d, "cso")

    def test_ifso_pairs_round_trip(self):
        rng = make_rng("jsonio-ifso")
        a = rand_automaton(rng, ALPHABET_2OBS_1UO, max_states=4)
        initial = sorted(a.initial)[0]
        d = {
            "automaton": automaton_to_dict(a),
            "secret_pairs": [[initial, sorted(a.states)[0]]],
            "nonsecret_pairs": [],
        }
        inst = instance_from_dict(d, "ifso")
        assert instance_from_dict(instance_to_dict(inst), "ifso") == inst


def instance_dict(notion, **changes):
    """A valid instance file of ``notion`` over the sample automaton, with
    each key in ``changes`` set to its value, or dropped when it is None."""
    a = sample_automaton_dict()
    d = {
        "cso": {"automaton": a, "secret": ["q"], "nonsecret": ["p"]},
        "iso": {"automaton": a, "secret_initial": ["p"], "nonsecret_initial": []},
        "ifso": {"automaton": a, "secret_pairs": [["p", "q"]], "nonsecret_pairs": []},
        "lbo": {"secret_automaton": a, "nonsecret_automaton": a},
    }["lbo" if notion == "lbo-weak" else notion]
    d.update(changes)
    return {key: value for key, value in d.items() if value is not None}


@pytest.mark.parametrize("notion, changes, message", [
    ("cso", {"nonsecret": None}, "cso instance is missing keys: ['nonsecret']"),
    ("cso", {"secret_initial": []}, "cso instance has unknown keys: ['secret_initial']"),
    ("cso", {"secret": [1]}, "secret must hold names, not 1"),
    ("cso", {"automaton": [], "secret": 1}, "automaton must be a JSON object"),
    ("iso", {"secret_initial": None}, "iso instance is missing keys: ['secret_initial']"),
    ("iso", {"secret": []}, "iso instance has unknown keys: ['secret']"),
    ("iso", {"secret_initial": "p"}, "secret_initial must be a collection of names, not 'p'"),
    ("iso", {"secret_initial": 1, "nonsecret_initial": 1},
     "secret_initial must be a collection of names, not 1"),
    ("ifso", {"nonsecret_pairs": None}, "ifso instance is missing keys: ['nonsecret_pairs']"),
    ("ifso", {"secret_initial": []}, "ifso instance has unknown keys: ['secret_initial']"),
    ("ifso", {"nonsecret_pairs": [["p"]]},
     "nonsecret_pairs must hold pairs of names, not ['p']"),
    ("ifso", {"secret_pairs": {}},
     "secret_pairs must be a collection of pairs of names, not {}"),
    ("lbo", {"nonsecret_automaton": None},
     "lbo instance is missing keys: ['nonsecret_automaton']"),
    ("lbo", {"automaton": {}}, "lbo instance has unknown keys: ['automaton']"),
    ("lbo", {"secret_automaton": []}, "automaton must be a JSON object"),
    ("lbo-weak", {"secret_automaton": None},
     "lbo-weak instance is missing keys: ['secret_automaton']"),
    ("lbo-weak", {"secret": []}, "lbo-weak instance has unknown keys: ['secret']"),
    ("lbo-weak", {"nonsecret_automaton": "a"}, "automaton must be a JSON object"),
])
def test_instance_errors_per_notion(notion, changes, message):
    assert instance_from_dict(instance_dict(notion), notion) is not None
    with pytest.raises(ParseError) as caught:
        instance_from_dict(instance_dict(notion, **changes), notion)
    assert str(caught.value) == message


def test_unknown_notion_and_unknown_instance_type():
    with pytest.raises(ParseError) as caught:
        instance_from_dict(instance_dict("cso"), "xso")
    assert str(caught.value) == "unknown notion 'xso'"
    with pytest.raises(TypeError) as caught:
        instance_to_dict(object())
    assert str(caught.value) == "cannot serialize object"


# Strings stress escaping: quotes, backslashes, control characters, non-ASCII
# (including a character outside the basic multilingual plane).
JSON_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7f é€𝄞\u2028'), max_size=6)
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=25,
)


@st.composite
def string_rows(draw):
    """Arrays of string arrays, the shape the writer joins in one pass, and
    its near misses: rows of one length or ragged, none or empty ones, lists
    or tuples, and sometimes one member that is not a string."""
    width = draw(st.integers(0, 3))
    ragged = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.integers(0, 3)) if ragged else width
        row = draw(st.lists(JSON_TEXT, min_size=size, max_size=size))
        rows.append(tuple(row) if draw(st.booleans()) else row)
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        row = list(rows[k])
        if row:
            member = st.none() | st.integers() | st.lists(JSON_TEXT, max_size=2)
            row[draw(st.integers(0, len(row) - 1))] = draw(member)
            rows[k] = row
    return tuple(rows) if draw(st.booleans()) else rows


class TestDumps:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def test_matches_json_module(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert dumps(value) == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(string_rows())
    def test_string_rows_match_json_module(self, rows):
        for value in (rows, {"rows": rows, "nested": [rows, "x"]}):
            expected = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
            assert dumps(value) == expected


class TestDagFormat:
    def test_parse(self):
        g = dag_from_dict({"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0, "t": 2})
        assert g.vertex_count == 3 and g.source == 0 and g.target == 2

    def test_cycle_rejected(self):
        for vertices, edges in (
            (2, [[0, 1], [1, 0]]),
            (1, [[0, 0]]),
            (4, [[0, 1], [1, 2], [2, 3], [3, 1]]),
        ):
            with pytest.raises(ParseError):
                dag_from_dict({"vertices": vertices, "edges": edges, "s": 0, "t": 0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            dag_from_dict({"vertices": 1, "edges": [], "s": 0, "t": 0, "weight": 3})

    @pytest.mark.parametrize(
        "d",
        [
            {"vertices": True, "edges": [], "s": False, "t": 0},
            {"vertices": 2, "edges": [[0, True]], "s": 0, "t": 1},
            {"vertices": 2, "edges": [], "s": 0, "t": True},
        ],
    )
    def test_booleans_rejected_as_integers(self, d):
        with pytest.raises(ParseError):
            dag_from_dict(d)


class TestDimacs:
    def test_basic(self):
        formula = parse_dimacs("c demo\np cnf 3 2\n1 2 3 0\n-1 2 3 0\n")
        assert formula == CnfFormula(3, (frozenset({1, 2, 3}), frozenset({-1, 2, 3})))

    def test_clause_spanning_lines(self):
        formula = parse_dimacs("p cnf 2 1\n1\n-2 0\n")
        assert formula.clauses == (frozenset({1, -2}),)

    def test_complementary_literals_rejected(self):
        with pytest.raises(MalformedFormula):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_header_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 0\n")

    def test_satlib_end_marker_stops_parsing(self):
        formula = parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n")
        assert formula == CnfFormula(2, (frozenset({1, -2}),))

    def test_unterminated_clause_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2\n")
