"""Properties of the input boundary: ill-typed input is rejected where it enters.

The library side replaces one field of a valid input record, or one argument
of ``verify`` or ``realize_observation``, with an ill-typed value, and
requires a ``ValueError`` (``MalformedFormula`` for ``CnfFormula``) whose text
starts with the field's name.  The command-line side replaces the value at
one JSON path of a valid instance file of each notion and requires
``verify``, ``classify`` and ``dot`` to return 0, 1 or 2 and raise nothing.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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
    cso_to_lbo,
    realize_observation,
    verify,
)
from opacheck.cli import main
from opacheck.jsonio import dumps, instance_to_dict

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

A = Automaton(("p", "q"), (Event("a"), Event("u", observable=False)),
              [("p", "a", "q"), ("q", "u", "p")], {"p"}, {"q"})
CSO = CsoInstance(A, {"q"}, {"p"})

# Values of the wrong kind for every field, but for those ``well_typed`` skips.
ILL_TYPED = [
    None, 5, -1, 0, 2.5, True, "pq", "", b"pq", [["p"]], {"p": 1}, {1, 2}, object(),
    [None], (1.5,), [("p",)], frozenset({("p", "a", 1)}), [b"p"], [1, 2], [["p", "a", 1]],
    [{"name": 1}],
]


def _name(v):
    return isinstance(v, str) and v != ""


def _int(v):
    return type(v) is int


# Per kind of field, the values of ILL_TYPED that are of that kind after all.
WELL_TYPED = {
    "name": _name,
    "flag": lambda v: isinstance(v, bool),
    "int": _int,
    "cap": lambda v: _int(v) and v > 0,
    "optional": lambda v: v is None,
    "other": lambda v: False,
}

# (call, valid arguments, kind of each argument when it is not "other")
CALLS = {
    "Event": (Event, {"name": "a", "observable": True},
              {"name": "name", "observable": "flag"}),
    "Automaton": (Automaton, {"states": A.states, "alphabet": A.alphabet,
                              "transitions": A.transitions, "initial": A.initial,
                              "marked": A.marked}, {}),
    "CsoInstance": (CsoInstance, {"automaton": A, "secret": {"q"}, "nonsecret": {"p"}}, {}),
    "LboInstance": (LboInstance, {"secret_automaton": A, "nonsecret_automaton": A}, {}),
    "IsoInstance": (IsoInstance, {"automaton": A, "secret_initial": {"p"},
                                  "nonsecret_initial": ()}, {}),
    "IfsoInstance": (IfsoInstance, {"automaton": A, "secret_pairs": {("p", "q")},
                                    "nonsecret_pairs": [["p", "p"]]}, {}),
    "CnfFormula": (CnfFormula, {"variable_count": 2, "clauses": [[1, -2], {2}]},
                   {"variable_count": "int"}),
    "Dag": (Dag, {"vertex_count": 3, "edges": [(0, 1)], "source": 0, "target": 2},
            {"vertex_count": "int", "source": "int", "target": "int"}),
    "verify": (lambda **kw: verify(CSO, **kw), {"notion": "cso", "algorithm": "auto",
                                               "cap": 8},
               {"notion": "name", "algorithm": "name", "cap": "cap"}),
    "realize_observation": (lambda **kw: realize_observation(A, **kw),
                            {"targets": {"q"}, "observation": ("a",), "initial": None},
                            {"initial": "optional"}),
}


@SETTINGS
@given(st.sampled_from(sorted(CALLS)), st.data())
def test_an_ill_typed_field_is_named(name, data):
    call, valid, kinds = CALLS[name]
    field = data.draw(st.sampled_from(sorted(valid)))
    well_typed = WELL_TYPED[kinds.get(field, "other")]
    value = data.draw(st.sampled_from([v for v in ILL_TYPED if not well_typed(v)]))
    assert call(**valid) is not None
    error = MalformedFormula if name == "CnfFormula" else ValueError
    try:
        call(**{**valid, field: value})
    except error as exc:
        assert type(exc) is error and str(exc).startswith(f"{field} must ")
    else:
        raise AssertionError(f"{name} accepted {field}={value!r}")


DOCUMENTS = {
    "cso": instance_to_dict(CSO),
    "iso": instance_to_dict(IsoInstance(A, {"p"}, ())),
    "ifso": instance_to_dict(IfsoInstance(A, {("p", "q")}, {("p", "p")})),
    "lbo": instance_to_dict(cso_to_lbo(CSO)),
    "lbo-weak": instance_to_dict(cso_to_lbo(CSO)),
}


def _is_json(value) -> bool:
    try:
        return json.loads(json.dumps(value)) == value
    except TypeError:
        return False


JSON_ILL_TYPED = list(filter(_is_json, ILL_TYPED))


def _paths(value, path=()):
    """Every path into the JSON value, the empty path (the value itself) first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@SETTINGS
@given(st.sampled_from(sorted(DOCUMENTS)), st.data())
def test_the_command_line_answers_every_ill_typed_file(notion, data):
    document = DOCUMENTS[notion]
    path = data.draw(st.sampled_from(list(_paths(document))))
    value = data.draw(st.sampled_from(JSON_ILL_TYPED))
    with tempfile.TemporaryDirectory() as directory:
        file = Path(directory) / "instance.json"
        file.write_text(dumps(_replaced(document, path, value)), encoding="utf-8")
        for argv in (["verify", "--notion", notion], ["classify"], ["dot"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main([*argv, str(file)]) in (0, 1, 2)
