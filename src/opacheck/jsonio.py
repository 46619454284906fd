"""Canonical JSON parsing and serialization, and the file reading and text
output that the command handlers share.

Serialization is canonical so that round-trips are byte-stable: object keys
are sorted, state and transition lists are sorted lexicographically, and the
alphabet keeps its declaration order because witness tie-breaking depends on
it.  The text is exactly that of ``json.dumps(value, indent=2,
sort_keys=True, ensure_ascii=False)`` plus a newline, written by a direct
writer instead of the encoder's pure-Python indenting path.  An array of
strings, and an array whose items are all string arrays of one length (the
transitions and the IFSO pairs), is written with one join, so a file costs a
few Python-level steps per array rather than one per transition.  Unknown
keys are rejected.

The reader checks only what is JSON's own: which values are objects, their
keys, and that the alphabet is an array of ``name``/``observable`` objects.
Every other value goes to the records as parsed, and the records check its
kind, so each value is checked once and a wrong one is named by its key.

An input file is an instance file when it has a key ending in ``automaton``,
and an automaton file otherwise; either may carry a ``metadata`` object, which
the readers check is an object and otherwise ignore.  An instance file's keys
are exactly the fields of its notion's class in ``opacity.INSTANCE_CLASSES``.
Both directions loop over those fields, so no other table describes an
instance.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain, repeat
from json.encoder import encode_basestring
from typing import Any

from .automata import Automaton, Event
from .errors import OpacheckError, ParseError
from .opacity import INSTANCE_CLASSES

_AUTOMATON_KEYS = {"alphabet", "states", "initial", "marked", "transitions"}


def _check_keys(d: dict, required: set[str], what: str, optional: set[str] = frozenset()):
    if not isinstance(d, dict):
        raise ParseError(f"{what} must be a JSON object")
    unknown = set(d) - required - optional
    if unknown:
        raise ParseError(f"{what} has unknown keys: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ParseError(f"{what} is missing keys: {sorted(missing)}")
    if not isinstance(d.get("metadata", {}), dict):
        raise ParseError("metadata must be a JSON object")


def _row_width(value: list | tuple) -> int | None:
    """The length every item of ``value`` has when all items are arrays of
    strings of one length; None when they are not, or ``value`` is empty."""
    if not all(map(isinstance, value, repeat((list, tuple)))):
        return None
    widths = set(map(len, value))
    if len(widths) != 1 or not all(map(isinstance, chain.from_iterable(value), repeat(str))):
        return None
    return widths.pop()


def is_instance_file(d: dict) -> bool:
    """Whether the JSON object ``d`` is an instance file (has an automaton field)."""
    return any(key.endswith("automaton") for key in d)


def automaton_from_dict(d: dict) -> Automaton:
    _check_keys(d, _AUTOMATON_KEYS, "automaton", optional={"metadata"})
    if not isinstance(d["alphabet"], list):
        raise ParseError("alphabet must be an array")
    # A file needs an initial state; the library allows none (IFSO's copies).
    if d["initial"] == []:
        raise ParseError("initial state set must not be empty")
    try:
        alphabet = []
        for entry in d["alphabet"]:
            _check_keys(entry, {"name", "observable"}, "alphabet entry")
            alphabet.append(Event(entry["name"], entry["observable"]))
        return Automaton(d["states"], alphabet, d["transitions"], d["initial"], d["marked"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def automaton_to_dict(a: Automaton) -> dict:
    return {
        "alphabet": [{"name": e.name, "observable": e.observable} for e in a.alphabet],
        "states": sorted(a.states),
        "initial": sorted(a.initial),
        "marked": sorted(a.marked),
        "transitions": sorted(a.transitions),
    }


def automaton_fields(instance) -> list[str]:
    """The names of the automaton fields of an instance or instance class."""
    return [name for name in instance._fields if name.endswith("automaton")]


def instance_from_dict(d: dict, notion: str):
    """Parse the instance JSON for a notion: its keys are the fields of the
    notion's class, read in declaration order.  The automata are read here;
    every other value goes as parsed to the class, which checks its kind."""
    cls = INSTANCE_CLASSES.get(notion)
    if cls is None:
        raise ParseError(f"unknown notion {notion!r}")
    names = cls._fields
    _check_keys(d, set(names), f"{notion} instance", optional={"metadata"})
    try:
        return cls(*[automaton_from_dict(d[name]) if name.endswith("automaton") else d[name]
                     for name in names])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def instance_to_dict(instance, metadata: dict | None = None) -> dict:
    if not isinstance(instance, tuple(INSTANCE_CLASSES.values())):
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    out = {}
    for name in instance._fields:
        value = getattr(instance, name)
        out[name] = automaton_to_dict(value) if name.endswith("automaton") else sorted(value)
    if metadata is not None:
        out["metadata"] = metadata
    return out


def _write(value: Any, prefix: str, newline: str, out: list[str]) -> None:
    """Append ``prefix`` and then the text of ``value`` to ``out``.

    ``newline`` is a line break followed by the indentation of the line the
    value starts on.  The prefix is joined to the first chunk, and a scalar,
    a string array or an array of same-length string arrays is one chunk,
    which keeps the chunk list short.
    """
    if isinstance(value, str):
        out.append(prefix + encode_basestring(value))
    elif isinstance(value, dict):
        if not value:
            out.append(prefix + "{}")
            return
        inner = newline + "  "
        prefix += "{" + inner
        for key, item in sorted(value.items()):
            _write(item, prefix + encode_basestring(key) + ": ", inner, out)
            prefix = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(prefix + "[]")
            return
        inner = newline + "  "
        if all(map(isinstance, value, repeat(str))):
            body = ("," + inner).join(map(encode_basestring, value))
            out.append(prefix + "[" + inner + body + newline + "]")
            return
        width = _row_width(value)
        if width:
            out.append(prefix + "[" + inner + _row_text(value, width, inner) + newline + "]")
            return
        prefix += "[" + inner
        for item in value:
            _write(item, prefix, inner, out)
            prefix = "," + inner
        out.append(newline + "]")
    else:
        out.append(prefix + json.dumps(value))


def _row_text(value: list | tuple, width: int, newline: str) -> str:
    """The text of the items of ``value``, arrays of ``width`` strings each,
    from the first item's "[" to the last one's "]".  ``newline`` is that of
    the items' lines.  Each string is followed by the separator its position
    calls for, so the whole text is one join."""
    inner = newline + "  "
    row = ["," + inner] * (width - 1) + [newline + "]," + newline + "[" + inner]
    separators = row * len(value)
    separators[-1] = newline + "]"
    strings = map(encode_basestring, chain.from_iterable(value))
    return "[" + inner + "".join(chain.from_iterable(zip(strings, separators)))


def dumps(payload: Any) -> str:
    """Canonical JSON text: sorted keys, fixed indentation, trailing newline.

    Byte for byte ``json.dumps(payload, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"`` (object keys are strings).
    """
    out: list[str] = []
    _write(payload, "", "\n", out)
    out.append("\n")
    return "".join(out)


def load_json_file(path: str) -> dict:
    """The JSON object in ``path``.  Errors do not name the file: the caller,
    which may read several, does."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON ({exc})") from exc
        except RecursionError as exc:
            raise ParseError("malformed JSON (nested too deeply)") from exc
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    return data


# What the handlers of opacheck.cli and opacheck.commands share.  ``python -m
# opacheck.cli`` runs the command line as ``__main__``, so no module imports
# opacheck.cli, which would run that file a second time.

NOTION_TITLES = {
    "cso": "current-state opacity",
    "iso": "initial-state opacity",
    "ifso": "initial-and-final-state opacity",
    "lbo": "language-based opacity",
    "lbo-weak": "language-based weak opacity",
}


# The failures that make an input error (exit 2).  Anything else, a
# RecursionError of the verify path included, is a bug and stays a crash.
_INPUT_ERRORS = (OpacheckError, ValueError, OSError)


@contextmanager
def _naming(path: str):
    """Raise an input error of the block again as ``PATH: reason``, with only
    an OSError's reason, since its text names the file."""
    try:
        yield
    except _INPUT_ERRORS as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise OpacheckError(f"{path}: {reason}") from exc


def _read(path: str, parse):
    """What ``parse`` makes of the JSON object in ``path``, with its input
    errors named by the path."""
    with _naming(path):
        return parse(load_json_file(path))


def _print_witness(prefix: str, automaton: Automaton, witness) -> None:
    """Print the witness's observation and run, with event names joined by
    "." unless each is one character, and an empty string as "ε"."""
    sep = "" if all(len(e.name) == 1 for e in automaton.alphabet) else "."
    for label, string in (("observation", witness.observation), ("string", witness.secret_run)):
        print(f"{prefix}witness {label}: {sep.join(string) or 'ε'}")
