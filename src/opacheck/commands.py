"""The handlers of every command but ``verify``: ``gen``, ``classify``,
``oracle`` and ``dot``, with the arguments of each.

:func:`opacheck.cli.build_parser` registers every command but fills in
these arguments only when one of them runs (or when it builds the whole
parser), so a verify child never loads this module.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import jsonio
from .automata import Automaton, _is_int
from .jsonio import NOTION_TITLES, ParseError, _check_keys, _naming, _print_witness, _read
from .opacity import CsoInstance

if TYPE_CHECKING:
    from .gadgets import CnfFormula, Dag


def _cso(data: dict) -> CsoInstance:
    return jsonio.instance_from_dict(data, "cso")


def _lbo(data: dict):
    return jsonio.instance_from_dict(data, "lbo")


def dag_from_dict(d: dict) -> Dag:
    from .gadgets import Dag

    _check_keys(d, {"vertices", "edges", "s", "t"}, "DAG")
    # Dag's own texts would name its fields, vertex_count, source and target,
    # which the file does not have; "edges" is both, so Dag checks it.
    if not _is_int(d["vertices"]):
        raise ParseError("vertices must be an integer count")
    if not _is_int(d["s"]) or not _is_int(d["t"]):
        raise ParseError("s and t must be vertex indices")
    try:
        return Dag(d["vertices"], d["edges"], d["s"], d["t"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: a ``p cnf <vars> <clauses>`` header, comment lines
    starting with ``c``, and zero-terminated clauses (which may span lines).
    A line starting with ``%`` ends the formula, as in the SATLIB files."""
    from .gadgets import CnfFormula

    header: tuple[int, int] | None = None
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed DIMACS header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise ParseError(f"malformed DIMACS header: {line!r}") from exc
            continue
        if header is None:
            raise ParseError("clause data before the DIMACS header")
        tokens.extend(line.split())
    if header is None:
        raise ParseError("missing DIMACS header")
    clauses: list[frozenset[int]] = []
    current: set[int] = set()
    for token in tokens:
        try:
            literal = int(token)
        except ValueError as exc:
            raise ParseError(f"malformed DIMACS literal: {token!r}") from exc
        if literal == 0:
            clauses.append(frozenset(current))
            current = set()
        else:
            current.add(literal)
    if current:
        raise ParseError("last clause is not zero-terminated")
    n, m = header
    if len(clauses) != m:
        raise ParseError(f"header announces {m} clauses but {len(clauses)} were given")
    return CnfFormula(n, tuple(clauses))


def _read_text(path: str, parse):
    """What ``parse`` makes of the text in ``path``, with its input errors
    named by the path, as :func:`jsonio._read` does for a JSON object."""
    with _naming(path), open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _emit(payload: dict) -> int:
    sys.stdout.write(jsonio.dumps(payload))
    return 0


def _cmd_gen(args) -> int:
    """Read the files with ``args.read`` and ``args.parse``, run the gadget
    named ``args.gadget`` on them (on the list of them for ``union``) and
    write its instance, with the result's metadata when it has any.  Each
    warning the gadget raises is printed as one ``warning:`` line."""
    import warnings

    from . import gadgets

    found = [args.read(path, args.parse) for path in args.files]
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
                raise ParseError(f"instance is missing keys: {missing}")
            instance = jsonio.instance_from_dict(data, notion)
            return [(name, getattr(instance, name)) for name in names]
    known = {name for cls in classes.values() for name in cls._fields}
    unknown = sorted(set(data) - known - {"metadata"})
    raise ParseError(f"instance has unknown keys: {unknown}")


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

    assignment = oracles.brute_sat(_read_text(args.file, parse_dimacs))
    if assignment is None:
        print("UNSAT")
        return 1
    bits = "".join("1" if value else "0" for value in assignment)
    print(f"SAT {bits}")
    return 0


def _cmd_oracle_dag_reach(args) -> int:
    from . import oracles

    reachable = oracles.dag_reachable(_read(args.file, dag_from_dict))
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


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    # each generator: how many files it reads, their reader and parser, the gadget it runs
    for kind, nargs, read, parse, gadget, help_text in (
        ("cnf", 1, _read_text, parse_dimacs, "gen_cnf_cso",
         "DIMACS file to a CSO instance (opaque iff unsatisfiable)"),
        ("dag-weak-lbo", 1, _read, dag_from_dict, "gen_dag_weak_lbo",
         "DAG to a weak-opacity instance"),
        ("dag-unary-cso", 1, _read, dag_from_dict, "gen_dag_cso_unary",
         "DAG to a unary acyclic CSO instance"),
        ("cso2lbo", 1, _read, _cso, "cso_to_lbo", "CSO instance to an equivalent LBO instance"),
        ("lbo2iso", 1, _read, _lbo, "lbo_to_iso", "LBO instance to an equivalent ISO instance"),
        ("union", "+", _read, jsonio.automaton_from_dict, "gen_union_universality_cso",
         "DFA files to a CSO instance (opaque iff union universal)"),
    ):
        p = gen_sub.add_parser(kind, help=help_text)
        p.add_argument("files", nargs=nargs, metavar="file" if nargs == 1 else None)
        p.set_defaults(func=_cmd_gen, read=read, parse=parse, gadget=gadget)
    po_det = gen_sub.add_parser("po-det", help="determinize a partially ordered automaton or CSO instance")
    po_det.add_argument("file")
    po_det.add_argument("--chain-event", required=True,
                        help="observable event used to exit the initial chain")
    po_det.set_defaults(func=_cmd_gen_po_det)


def _classify_arguments(cls: argparse.ArgumentParser) -> None:
    cls.add_argument("file")
    cls.add_argument("--output", default="text", choices=("text", "json"))
    cls.set_defaults(func=_cmd_classify)


def _oracle_arguments(oracle: argparse.ArgumentParser) -> None:
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


def _dot_arguments(dot: argparse.ArgumentParser) -> None:
    dot.add_argument("file")
    dot.add_argument("-o", "--out", default=None)
    dot.set_defaults(func=_cmd_dot)


# What fills in each command's parser, by name.
ARGUMENTS = {"gen": _gen_arguments, "classify": _classify_arguments,
             "oracle": _oracle_arguments, "dot": _dot_arguments}
