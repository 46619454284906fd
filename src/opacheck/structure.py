"""The report of :func:`opacheck.classify`.

It is a dataclass, so :func:`dataclasses.asdict` gives its fields by name.
It lives apart from :mod:`opacheck.automata` because importing
:mod:`dataclasses` is a large share of a command line's start-up: a verify
run reads the automaton's facts directly and never loads this module.
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
