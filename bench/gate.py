"""Correctness gate: an answer counts only if its verdict matches the expected
one and its witness replays.

Replay uses the membership-only queries of `opacheck.oracles`
(`observation_feasible`, `string_reaches`), per notion, so no traversal code
of the algorithms under test is involved.
"""

from __future__ import annotations

from typing import Optional

from opacheck.oracles import observation_feasible, string_reaches

from families import Case


def _project(automaton, run) -> tuple[str, ...]:
    observable = {e.name for e in automaton.alphabet if e.observable}
    return tuple(e for e in run if e in observable)


def replays(case: Case, observation: tuple[str, ...], run: tuple[str, ...]) -> bool:
    """Does ``run`` project to ``observation`` and witness the notion's verdict?"""
    inst = case.instance
    if case.notion == "cso":
        a = inst.automaton
        return (
            _project(a, run) == observation
            and string_reaches(a, inst.secret, run)
            and observation_feasible(a, inst.secret, observation)
            and not observation_feasible(a, inst.nonsecret, observation)
        )
    if case.notion in ("lbo", "lbo-weak"):
        s, ns = inst.secret_automaton, inst.nonsecret_automaton
        confused = observation_feasible(ns, ns.marked, observation)
        return (
            _project(s, run) == observation
            and string_reaches(s, s.marked, run)
            and observation_feasible(s, s.marked, observation)
            and confused == (case.notion == "lbo-weak")
        )
    a = inst.automaton
    if case.notion == "iso":
        everything = set(a.states)
        secret = [(i, everything) for i in sorted(inst.secret_initial)]
        nonsecret = [(j, everything) for j in sorted(inst.nonsecret_initial)]
    elif case.notion == "ifso":
        secret = [(i, {f}) for (i, f) in sorted(inst.secret_pairs)]
        nonsecret = [(i, {f}) for (i, f) in sorted(inst.nonsecret_pairs)]
    else:
        raise ValueError(f"unknown notion {case.notion!r}")
    return (
        _project(a, run) == observation
        and any(string_reaches(a.with_initial({i}), ends, run) for i, ends in secret)
        and any(observation_feasible(a.with_initial({i}), ends, observation)
                for i, ends in secret)
        and not any(observation_feasible(a.with_initial({i}), ends, observation)
                    for i, ends in nonsecret)
    )


def judge(case: Case, holds: bool, witness) -> Optional[str]:
    """None when the answer is right, else why it is wrong.

    ``witness`` is None or an (observation, secret run) pair.  Weak opacity
    carries a witness when it holds; every other notion when it is violated.
    """
    if holds != case.expected:
        return f"verdict holds={holds}, expected holds={case.expected}"
    wants_witness = holds if case.notion == "lbo-weak" else not holds
    if not wants_witness:
        return None if witness is None else "unexpected witness"
    if witness is None:
        return "missing witness"
    observation, run = tuple(witness[0]), tuple(witness[1])
    if case.expected_observation is not None and observation != case.expected_observation:
        return "witness observation differs from the expected one"
    if not replays(case, observation, run):
        return "witness does not replay"
    return None


class Tally:
    """Attempts, failures and the witness counts of one run."""

    def __init__(self, cases) -> None:
        self.cases = {case.id: case for case in cases}
        self.attempted = 0
        self.failures: list[dict] = []
        self.wrong: list[dict] = []
        self.answers: dict[str, tuple] = {}
        self._judged: dict[tuple, str | None] = {}

    def record(self, case_id: str, holds, witness, error: str | None = None) -> None:
        """Count one attempt: an error (cap hit, crash, exit 2) or an answer to judge."""
        self.attempted += 1
        if error is not None:
            self.failures.append({"id": case_id, "reason": error})
            return
        key = (case_id, holds, None if witness is None else
               (tuple(witness[0]), tuple(witness[1])))
        if key not in self._judged:
            self._judged[key] = judge(self.cases[case_id], holds, witness)
        problem = self._judged[key]
        if problem is not None:
            entry = {"id": case_id, "reason": problem}
            self.failures.append(entry)
            self.wrong.append(entry)
        self.answers[case_id] = key[1:]

    def counts(self) -> dict:
        violated = witness_symbols = run_symbols = 0
        for holds, witness in self.answers.values():
            violated += not holds
            if witness is not None:
                witness_symbols += len(witness[0])
                run_symbols += len(witness[1])
        return {"count.violated": violated, "count.witness_symbols": witness_symbols,
                "count.run_symbols": run_symbols}
