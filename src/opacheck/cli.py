"""Command-line front end.

Exit codes are scriptable: 0 when the checked property holds (or a gen/classify
run succeeded), 1 when the property is violated, 2 on any input or usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager

from . import jsonio
from .automata import DEFAULT_OBSERVER_CAP, Automaton, Verdict
from .errors import OpacheckError
from .opacity import CSO_ALGORITHMS, CsoInstance
from .opacity import verify as verify_instance  # build_parser binds a local "verify"

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
    """What ``parse`` makes of the JSON object in ``path`` (of its text, for
    :func:`jsonio.parse_dimacs`), with its input errors named by the path."""
    with _naming(path):
        if parse is jsonio.parse_dimacs:
            with open(path, "r", encoding="utf-8") as handle:
                return parse(handle.read())
        return parse(jsonio.load_json_file(path))


def _print_witness(prefix: str, automaton: Automaton, witness) -> None:
    """Print the witness's observation and run, with event names joined by
    "." unless each is one character, and an empty string as "ε"."""
    sep = "" if all(len(e.name) == 1 for e in automaton.alphabet) else "."
    for label, string in (("observation", witness.observation), ("string", witness.secret_run)):
        print(f"{prefix}witness {label}: {sep.join(string) or 'ε'}")


def _witness_json(verdict: Verdict):
    if verdict.witness is None:
        return None
    return {
        "observation": list(verdict.witness.observation),
        "secret_run": list(verdict.witness.secret_run),
    }


def _classification_json(instance) -> dict:
    """One report (the facts :func:`classify` wraps) per automaton field,
    keyed by its name, or the report itself when the one field is
    ``automaton``."""
    reports = {name: getattr(instance, name)._structure
               for name in jsonio.automaton_fields(instance)}
    return reports.get("automaton", reports)


def _cmd_verify(args) -> int:
    if args.notion != "cso" and args.algorithm != "auto":
        raise ValueError("--algorithm can only be chosen for --notion cso")
    if args.observer_cap < 1:
        raise ValueError("--observer-cap must be positive")
    reports = []
    codes = []

    def check(path: str, data: dict):
        # Run inside _read, so an error of the verification names the file too.
        instance = jsonio.instance_from_dict(data, args.notion)
        if isinstance(instance, CsoInstance):
            overlap = instance.secret & instance.nonsecret
            if overlap:
                print(
                    f"warning: {path}: {len(overlap)} state(s) are both secret"
                    " and non-secret",
                    file=sys.stderr,
                )
        started = time.perf_counter()
        verdict = verify_instance(instance, args.notion, args.algorithm, cap=args.observer_cap)
        return instance, verdict, time.perf_counter() - started

    for path in args.files:
        try:
            instance, verdict, elapsed = _read(path, lambda data: check(path, data))
        except _INPUT_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            codes.append(2)
            continue
        codes.append(0 if verdict.holds else 1)
        if args.output == "json":
            reports.append(
                {
                    "file": path,
                    "notion": args.notion,
                    "algorithm": verdict.algorithm,
                    "holds": verdict.holds,
                    "witness": _witness_json(verdict),
                    "classification": _classification_json(instance),
                    "time_seconds": round(elapsed, 6),
                }
            )
        else:
            prefix = f"{path}: " if len(args.files) > 1 else ""
            status = "holds" if verdict.holds else "violated"
            print(f"{prefix}{NOTION_TITLES[args.notion]}: {status}")
            if args.witness and verdict.witness is not None:
                first = getattr(instance, jsonio.automaton_fields(instance)[0])
                _print_witness(prefix, first, verdict.witness)
    if args.output == "json":
        payload = reports[0] if len(reports) == 1 and len(args.files) == 1 else reports
        print(jsonio.dumps(payload) if isinstance(payload, dict)
              else jsonio.dumps({"results": payload}), end="")
    return max(codes) if codes else 2


def _cso(data: dict) -> CsoInstance:
    return jsonio.instance_from_dict(data, "cso")


def _lbo(data: dict):
    return jsonio.instance_from_dict(data, "lbo")


def _emit(payload: dict) -> int:
    sys.stdout.write(jsonio.dumps(payload))
    return 0


def _cmd_gen(args) -> int:
    """Read the files with ``args.parse``, run the gadget named
    ``args.gadget`` on them (on the list of them for ``union``) and write its
    instance, with the result's metadata when it has any.  Each warning the
    gadget raises is printed as one ``warning:`` line."""
    import warnings

    from . import gadgets

    found = [_read(path, args.parse) for path in args.files]
    gadget = getattr(gadgets, args.gadget)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = gadget(found) if args.kind == "union" else gadget(*found)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    metadata = result.metadata() if hasattr(result, "metadata") else None
    return _emit(jsonio.instance_to_dict(getattr(result, "instance", result), metadata))


def _cmd_gen_po_det(args) -> int:
    """Determinize the automaton of an automaton file or of a CSO file, and
    write the same kind of file with the result's metadata."""
    from . import gadgets

    found = _read(args.file, lambda data: _cso(data) if jsonio.is_instance_file(data)
                  else jsonio.automaton_from_dict(data))
    automaton = getattr(found, "automaton", found)
    result = gadgets.po_determinize(automaton, args.chain_event)
    if found is automaton:
        out = jsonio.automaton_to_dict(result.automaton)
    else:
        out = jsonio.instance_to_dict(CsoInstance(result.automaton, found.secret, found.nonsecret))
    return _emit({**out, "metadata": result.metadata()})


def _automata(data: dict) -> list[tuple[str, Automaton]]:
    """The automata of an automaton file, or of an instance file of any
    notion, by key.  An instance file is read whole, as ``verify`` reads it,
    by the first notion that has one of its automaton keys, trying notions
    with more automata first and then those that share more fields with the
    file; so what ``verify`` rejects under every notion is rejected here.
    An instance file that has the automaton keys of none names its unknown
    keys."""
    if not jsonio.is_instance_file(data):
        return [("automaton", jsonio.automaton_from_dict(data))]
    classes = jsonio.INSTANCE_CLASSES

    def rank(notion: str) -> tuple[int, int]:
        cls = classes[notion]
        return len(jsonio.automaton_fields(cls)), sum(name in data for name in cls._fields)

    for notion in sorted(classes, key=rank, reverse=True):
        names = jsonio.automaton_fields(classes[notion])
        if any(name in data for name in names):
            missing = [name for name in names if name not in data]
            if missing:
                raise jsonio.ParseError(f"instance is missing keys: {missing}")
            instance = jsonio.instance_from_dict(data, notion)
            return [(name, getattr(instance, name)) for name in names]
    known = {name for cls in classes.values() for name in cls._fields}
    unknown = sorted(set(data) - known - {"metadata"})
    raise jsonio.ParseError(f"instance has unknown keys: {unknown}")


def _cmd_classify(args) -> int:
    found = _read(args.file, _automata)
    if args.output == "json":
        return _emit({role: a._structure for role, a in found})
    for role, automaton in found:
        report = automaton._structure
        prefix = f"{role}: " if len(found) > 1 else ""
        print(f"{prefix}deterministic: {report['deterministic']}")
        print(f"{prefix}acyclic: {report['acyclic']}")
        print(f"{prefix}partially_ordered: {report['partially_ordered']}")
        print(f"{prefix}observable_events: {report['observable_event_count']}")
        print(f"{prefix}unobservable_events: {report['unobservable_event_count']}")
    return 0


def _cmd_oracle_sat(args) -> int:
    from . import oracles

    assignment = oracles.brute_sat(_read(args.file, jsonio.parse_dimacs))
    if assignment is None:
        print("UNSAT")
        return 1
    bits = "".join("1" if value else "0" for value in assignment)
    print(f"SAT {bits}")
    return 0


def _cmd_oracle_dag_reach(args) -> int:
    from . import oracles

    reachable = oracles.dag_reachable(_read(args.file, jsonio.dag_from_dict))
    print("reachable" if reachable else "unreachable")
    return 0 if reachable else 1


def _cmd_oracle_enum_cso(args) -> int:
    from . import oracles

    instance = _read(args.file, _cso)
    verdict = oracles.enum_cso_acyclic(instance)
    print(f"{NOTION_TITLES['cso']}: {'holds' if verdict.holds else 'violated'}")
    if args.witness and verdict.witness is not None:
        _print_witness("", instance.automaton, verdict.witness)
    return 0 if verdict.holds else 1


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT ID, with backslashes and double quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_dot(args) -> int:
    from .gadgets import _FreshNames

    found = [(role.replace("automaton", "").strip("_"), a)
             for role, a in _read(args.file, _automata)]
    # Start markers are extra nodes, so their names must miss every state's.
    names = _FreshNames(f"{c}:{s}" if c else s for c, a in found for s in a.states)
    lines = ["digraph {", "  rankdir=LR;"]
    for cluster, a in found:
        prefix = f"{cluster}:" if cluster else ""
        for s in sorted(a.states):
            shape = "doublecircle" if s in a.marked else "circle"
            lines.append(f"  {_dot_id(prefix + s)} [shape={shape}];")
        for k, s in enumerate(sorted(a.initial)):
            start = _dot_id(names.fresh(f"__start_{cluster}{k}"))
            lines.append(f"  {start} [shape=point];")
            lines.append(f"  {start} -> {_dot_id(prefix + s)};")
        observable = set(a.observable_events)
        for (p, e, q) in sorted(a.transitions):
            style = "" if e in observable else " style=dashed"
            lines.append(
                f"  {_dot_id(prefix + p)} -> {_dot_id(prefix + q)} [label={_dot_id(e)}{style}];"
            )
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _naming(args.out), open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opacheck",
        description="Verify opacity of partially observed discrete-event systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="decide an opacity notion on instance files")
    verify.add_argument("--notion", required=True, choices=sorted(NOTION_TITLES))
    verify.add_argument("--algorithm", default="auto", choices=CSO_ALGORITHMS)
    verify.add_argument("--witness", action="store_true", help="print the witness, if any")
    verify.add_argument("--observer-cap", type=int, default=DEFAULT_OBSERVER_CAP,
                        help="most nonempty state estimates one subset search may build")
    verify.add_argument("--output", default="text", choices=("text", "json"))
    verify.add_argument("files", nargs="+")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate instances from classic hard problems")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    # each generator: how many files it reads, their parser, the gadget it runs
    for kind, nargs, parse, gadget, help_text in (
        ("cnf", 1, jsonio.parse_dimacs, "gen_cnf_cso",
         "DIMACS file to a CSO instance (opaque iff unsatisfiable)"),
        ("dag-weak-lbo", 1, jsonio.dag_from_dict, "gen_dag_weak_lbo",
         "DAG to a weak-opacity instance"),
        ("dag-unary-cso", 1, jsonio.dag_from_dict, "gen_dag_cso_unary",
         "DAG to a unary acyclic CSO instance"),
        ("cso2lbo", 1, _cso, "cso_to_lbo", "CSO instance to an equivalent LBO instance"),
        ("lbo2iso", 1, _lbo, "lbo_to_iso", "LBO instance to an equivalent ISO instance"),
        ("union", "+", jsonio.automaton_from_dict, "gen_union_universality_cso",
         "DFA files to a CSO instance (opaque iff union universal)"),
    ):
        p = gen_sub.add_parser(kind, help=help_text)
        p.add_argument("files", nargs=nargs, metavar="file" if nargs == 1 else None)
        p.set_defaults(func=_cmd_gen, parse=parse, gadget=gadget)
    po_det = gen_sub.add_parser("po-det", help="determinize a partially ordered automaton or CSO instance")
    po_det.add_argument("file")
    po_det.add_argument("--chain-event", required=True,
                        help="observable event used to exit the initial chain")
    po_det.set_defaults(func=_cmd_gen_po_det)

    cls = sub.add_parser("classify", help="report structure of an automaton or instance file")
    cls.add_argument("file")
    cls.add_argument("--output", default="text", choices=("text", "json"))
    cls.set_defaults(func=_cmd_classify)

    oracle = sub.add_parser("oracle", help="brute-force reference checks (debugging)")
    oracle_sub = oracle.add_subparsers(dest="oracle_kind", required=True)
    sat = oracle_sub.add_parser("sat", help="exhaustive DIMACS satisfiability")
    sat.add_argument("file")
    sat.set_defaults(func=_cmd_oracle_sat)
    reach = oracle_sub.add_parser("dag-reach", help="DAG reachability")
    reach.add_argument("file")
    reach.set_defaults(func=_cmd_oracle_dag_reach)
    enum = oracle_sub.add_parser("enum-cso", help="definitional CSO check on acyclic instances")
    enum.add_argument("file")
    enum.add_argument("--witness", action="store_true")
    enum.set_defaults(func=_cmd_oracle_enum_cso)

    dot = sub.add_parser("dot", help="DOT export of an automaton or instance file")
    dot.add_argument("file")
    dot.add_argument("-o", "--out", default=None)
    dot.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
