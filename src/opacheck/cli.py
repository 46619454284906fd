"""Command-line front end: the parser, ``main`` and the ``verify`` command.

Exit codes are scriptable: 0 when the checked property holds (or a gen/classify
run succeeded), 1 when the property is violated, 2 on any input or usage error.
The other commands live in :mod:`opacheck.commands`, loaded only when one of
them runs.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import jsonio
from .automata import DEFAULT_OBSERVER_CAP, Verdict
from .jsonio import _INPUT_ERRORS, NOTION_TITLES, _print_witness, _read
from .opacity import CSO_ALGORITHMS, CsoInstance
from .opacity import verify as verify_instance  # _verify_arguments binds a local "verify"

# Each command's help text.  Every command is registered, so help, usage and
# errors read the same whichever parser is built.
COMMANDS = {
    "verify": "decide an opacity notion on instance files",
    "gen": "generate instances from classic hard problems",
    "classify": "report structure of an automaton or instance file",
    "oracle": "brute-force reference checks (debugging)",
    "dot": "DOT export of an automaton or instance file",
}


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


def _verify_arguments(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("--notion", required=True, choices=sorted(NOTION_TITLES))
    verify.add_argument("--algorithm", default="auto", choices=CSO_ALGORITHMS)
    verify.add_argument("--witness", action="store_true", help="print the witness, if any")
    verify.add_argument("--observer-cap", type=int, default=DEFAULT_OBSERVER_CAP,
                        help="most nonempty state estimates one subset search may build")
    verify.add_argument("--output", default="text", choices=("text", "json"))
    verify.add_argument("files", nargs="+")
    verify.set_defaults(func=_cmd_verify)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser, with the arguments of ``command`` only,
    or of every command when it is None.  The other commands' arguments and
    handlers live in :mod:`opacheck.commands`, which only they load."""
    parser = argparse.ArgumentParser(
        prog="opacheck",
        description="Verify opacity of partially observed discrete-event systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        if name == "verify":
            _verify_arguments(p)
        else:
            from .commands import ARGUMENTS

            ARGUMENTS[name](p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
