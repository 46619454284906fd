"""Opacity verification for partially observed discrete-event systems.

The generators and transformations of :mod:`opacheck.gadgets`, the
projected-language layer of :mod:`opacheck.language` and
:class:`StructureReport` are imported on first access, so verifying an
instance loads none of them that its route does not run.
"""

from .automata import (
    DEFAULT_OBSERVER_CAP,
    Automaton,
    Event,
    Observation,
    Verdict,
    Witness,
    classify,
    realize_observation,
)
from .errors import (
    InputNotDeterministic,
    MalformedFormula,
    ObserverBlowup,
    OpacheckError,
    ParseError,
    PreconditionViolated,
    TooLarge,
)
from .opacity import (
    CSO_ALGORITHMS,
    CsoInstance,
    IfsoInstance,
    IsoInstance,
    LboInstance,
    select_cso_algorithm,
    verify,
    verify_cso,
    verify_cso_observer,
)

__version__ = "0.1.0"


_LANGUAGE = {"inclusion_modulo_projection", "intersection_nonempty_modulo_projection", "trim",
             "verify_ifso", "verify_iso", "verify_lbo", "verify_lbo_weak"}


def __getattr__(name: str):
    # Every exported name not imported above lives in ``gadgets``, but for
    # the projected-language layer and the report of ``classify``.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _LANGUAGE:
        from . import language as module
    elif name == "StructureReport":
        from . import structure as module
    else:
        from . import gadgets as module

    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # What is served on first access is listed before it is loaded.
    return sorted({*globals(), *__all__})


__all__ = [
    "Automaton",
    "CSO_ALGORITHMS",
    "CnfFormula",
    "CsoInstance",
    "DEFAULT_OBSERVER_CAP",
    "Dag",
    "Event",
    "IfsoInstance",
    "InputNotDeterministic",
    "IsoInstance",
    "IsoReduction",
    "LboInstance",
    "MalformedFormula",
    "Observation",
    "ObserverBlowup",
    "OpacheckError",
    "ParseError",
    "PoDeterminization",
    "PreconditionViolated",
    "StructureReport",
    "TooLarge",
    "UnionUniversalityCso",
    "Verdict",
    "Witness",
    "classify",
    "cso_to_lbo",
    "gen_cnf_cso",
    "gen_dag_cso_unary",
    "gen_dag_weak_lbo",
    "gen_union_universality_cso",
    "inclusion_modulo_projection",
    "intersection_nonempty_modulo_projection",
    "lbo_to_iso",
    "po_determinize",
    "realize_observation",
    "select_cso_algorithm",
    "trim",
    "verify",
    "verify_cso",
    "verify_cso_observer",
    "verify_ifso",
    "verify_iso",
    "verify_lbo",
    "verify_lbo_weak",
    "__version__",
]
