"""The report of :func:`opacheck.classify`.

It is the package's one dataclass, so :func:`dataclasses.asdict` gives its
fields by name; every other value type is an ``automata._Record``.  It lives
apart from :mod:`opacheck.automata` because importing :mod:`dataclasses` is a
large share of a command line's start-up: only :func:`~opacheck.classify`
loads this module, and no command line calls it, since each reads the
automaton's facts directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StructureReport:
    deterministic: bool
    acyclic: bool
    partially_ordered: bool
    observable_event_count: int
    unobservable_event_count: int
