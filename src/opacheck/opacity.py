"""The five opacity notions' instances, the CSO observer, and the router
from a notion to the code that decides it.

Current-state opacity comes in two general algorithms, observer traversal
and language inclusion, which always agree.  CSO inclusion, LBO, ISO and
IFSO are each one call of :func:`opacheck.language._inclusion`, which runs
a search on the estimate kernel, or, when both sides are partially ordered
(their only cycles are self-loops) with a single observable event, compares
sets of observation lengths instead.  ``unary-po`` is the CSO name of that
length-set path; it refuses any other automaton.  Weak LBO runs the product
search.  Every verdict names the algorithm that decided it, and
:func:`verify` is the one map from a notion to the code that decides it.
:mod:`opacheck.language` holds every verifier but the observer, and is
imported only on the routes that run it, so an observer-routed verification
never loads it.

Both CSO algorithms get their kernel from :func:`opacheck.automata._kernels`,
on one quotient of the automaton's graph: on a partially ordered automaton,
the classes of a bisimulation that keeps the secret and non-secret sets apart.
"""

from __future__ import annotations

from .automata import (
    DEFAULT_OBSERVER_CAP,
    Automaton,
    Verdict,
    Witness,
    _Record,
    realize_observation,
    _AUTOMATON,
    _CAP,
    _NAMES,
    _TEXT,
    _checked,
    _least_violation,
    _rows,
    _scalar,
    _unary_event,
)
from .errors import PreconditionViolated

CSO_ALGORITHMS = ("auto", "observer", "inclusion", "unary-po")
_PAIRS = _rows(2, "pairs of names", str)


class CsoInstance(_Record):
    """Current-state opacity instance: which current states are secret/non-secret.

    The two sets may overlap, and states in neither set carry no status at all;
    such states never create or discharge a violation.
    """

    automaton: Automaton
    secret: frozenset[str]
    nonsecret: frozenset[str]
    _kinds = {"automaton": _AUTOMATON, "secret": _NAMES, "nonsecret": _NAMES}

    def __post_init__(self) -> None:
        declared = set(self.automaton.states)
        if not self.secret <= declared or not self.nonsecret <= declared:
            raise ValueError("secret and non-secret sets must be declared states")


class LboInstance(_Record):
    """Language-based opacity instance: the secret and non-secret marked languages."""

    secret_automaton: Automaton
    nonsecret_automaton: Automaton
    _kinds = {"secret_automaton": _AUTOMATON, "nonsecret_automaton": _AUTOMATON}

    def __post_init__(self) -> None:
        if self.secret_automaton.alphabet != self.nonsecret_automaton.alphabet:
            raise ValueError("both automata must declare the identical alphabet")


class IsoInstance(_Record):
    """Initial-state opacity instance over subsets of the initial states."""

    automaton: Automaton
    secret_initial: frozenset[str]
    nonsecret_initial: frozenset[str]
    _kinds = {"automaton": _AUTOMATON, "secret_initial": _NAMES, "nonsecret_initial": _NAMES}

    def __post_init__(self) -> None:
        if not self.secret_initial <= self.automaton.initial:
            raise ValueError("secret initial states must be initial states")
        if not self.nonsecret_initial <= self.automaton.initial:
            raise ValueError("non-secret initial states must be initial states")


class IfsoInstance(_Record):
    """Initial-and-final-state opacity instance: the secret is an (initial, marked) pair."""

    automaton: Automaton
    secret_pairs: frozenset[tuple[str, str]]
    nonsecret_pairs: frozenset[tuple[str, str]]
    _kinds = {"automaton": _AUTOMATON, "secret_pairs": _PAIRS, "nonsecret_pairs": _PAIRS}

    def __post_init__(self) -> None:
        declared, initial = set(self.automaton.states), self.automaton.initial
        bad = [
            (i, f) for (i, f) in self.secret_pairs | self.nonsecret_pairs
            if i not in initial or f not in declared
        ]
        if bad:  # the least offender, so the message does not depend on the hash seed
            i, f = min(bad)
            if i not in declared or f not in declared:
                raise ValueError(f"pair ({i!r}, {f!r}) uses an undeclared state")
            raise ValueError(f"pair ({i!r}, {f!r}) must start in an initial state")


# The kinds of the verifiers' instances, checked as the records' fields are.
_CSO = _scalar("a CsoInstance", lambda v: isinstance(v, CsoInstance))
_LBO = _scalar("an LboInstance", lambda v: isinstance(v, LboInstance))
_ISO = _scalar("an IsoInstance", lambda v: isinstance(v, IsoInstance))
_IFSO = _scalar("an IfsoInstance", lambda v: isinstance(v, IfsoInstance))


def verify_cso_observer(inst: CsoInstance, *, cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Current-state opacity via the reachable estimates of the observer.

    Opaque iff every reachable estimate meeting the secret set also meets the
    non-secret set.  The witness is the shortest observation (ties broken by
    alphabet declaration order) reaching a violating estimate.
    """
    inst, cap = _checked("inst", _CSO, inst), _checked("cap", _CAP, cap)
    obs = _least_violation(inst.automaton, inst.secret, inst.nonsecret, cap)
    if obs is None:
        return Verdict(True, algorithm="observer")
    run = realize_observation(inst.automaton, inst.secret, obs)
    return Verdict(False, Witness(obs, run), "observer")


def select_cso_algorithm(inst: CsoInstance) -> str:
    """Routing used by ``verify_cso(..., "auto")``: ``unary-po`` for a partially
    ordered automaton with one observable event, ``observer`` otherwise."""
    inst = _checked("inst", _CSO, inst)
    return "observer" if _unary_event(inst.automaton) is None else "unary-po"


def verify_cso(
    inst: CsoInstance, algorithm: str = "auto", *, cap: int = DEFAULT_OBSERVER_CAP
) -> Verdict:
    """Current-state opacity with selectable algorithm.

    ``auto`` routes to the structurally cheapest applicable algorithm; forcing
    an inapplicable one raises :class:`PreconditionViolated`.  All applicable
    choices return the same verdict and witness.

    ``inclusion`` is projected language inclusion of the automaton marked
    by the secret set in the one marked by the non-secret set.  On a
    partially ordered automaton with one observable event it compares
    length sets and ignores ``cap``; ``unary-po`` is that path alone.
    """
    inst, algorithm = _checked("inst", _CSO, inst), _checked("algorithm", _TEXT, algorithm)
    if algorithm not in CSO_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {CSO_ALGORITHMS}")
    if algorithm == "auto":
        algorithm = select_cso_algorithm(inst)
    if algorithm == "observer":
        return verify_cso_observer(inst, cap=cap)
    if algorithm == "unary-po" and _unary_event(inst.automaton) is None:
        raise PreconditionViolated(
            "unary-po requires a partially ordered automaton with exactly one observable event"
        )
    from .language import _inclusion

    a = inst.automaton
    return _inclusion(a, a.initial, inst.secret, a, a.initial, inst.nonsecret, cap, cso=True)


# The instance class of each notion; LBO and weak LBO share one.  Its fields
# are the keys of the notion's instance file (see :mod:`opacheck.jsonio`).
INSTANCE_CLASSES = {"cso": CsoInstance, "iso": IsoInstance, "ifso": IfsoInstance,
                    "lbo": LboInstance, "lbo-weak": LboInstance}


def verify(instance, notion: str, algorithm: str = "auto", *,
           cap: int = DEFAULT_OBSERVER_CAP) -> Verdict:
    """Decide ``notion`` on ``instance``, of the notion's class in
    :data:`INSTANCE_CLASSES`; ``algorithm`` is a :func:`verify_cso` choice,
    for ``cso`` only.  Weak LBO's product search builds no estimates and
    ignores ``cap``, but checks it as every entry point does.  An unknown
    notion, an instance of another class or an algorithm for another notion
    raises :class:`ValueError`."""
    notion, algorithm = _checked("notion", _TEXT, notion), _checked("algorithm", _TEXT, algorithm)
    cap = _checked("cap", _CAP, cap)
    cls = INSTANCE_CLASSES.get(notion)
    if cls is None:
        raise ValueError(f"unknown notion {notion!r}, expected one of {tuple(INSTANCE_CLASSES)}")
    if not isinstance(instance, cls):
        raise ValueError(f"a {notion} instance must be a {cls.__name__},"
                         f" not a {type(instance).__name__}")
    if notion == "cso":
        return verify_cso(instance, algorithm, cap=cap)
    if algorithm != "auto":
        raise ValueError(f"an algorithm can only be chosen for cso, not for {notion}")
    from . import language

    if notion == "lbo-weak":
        return language.verify_lbo_weak(instance)
    return {"iso": language.verify_iso, "ifso": language.verify_ifso,
            "lbo": language.verify_lbo}[notion](instance, cap=cap)
