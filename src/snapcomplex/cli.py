"""Command-line front end: build, inspect, verify and export complexes.

Subcommands: ``build``, ``facets`` (list or count), ``verify`` (named
checks, JSON report), ``strata``, ``collapse`` and ``export`` (JSON, DOT
or SVG).  Exit codes: 0 success, 1 failed check, 2 usage or parse error
(an unwritable ``--out`` path included), 3 resource cap exceeded or
memory exhausted.  Identical inputs produce byte-identical output.

This module holds the parser, the exit codes and ``facets``, whose count
needs :mod:`.counters` alone.  Every other command runs from
:mod:`.commands`, imported when it is dispatched, so ``--help`` and
``facets --count`` load no engine module.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .counters import RoundCounter, _schedule_count
from .errors import ComplexTooLargeError, VerificationError, simplex_cap

EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_TOO_LARGE = 0, 1, 2, 3

# The verify checks, in the order of the report; commands._CHECKS runs them.
CHECK_ORDER = (
    "purity", "pseudomanifold", "boundary", "strong-connectivity", "euler", "homology",
    "strata-intersections", "diagrams", "gg", "cone", "phi", "schedule-bijection",
)


class UsageError(Exception):
    """Bad arguments discovered after argparse; maps to exit code 2."""


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}") from exc


def _parse_counter(text: str) -> RoundCounter:
    try:
        return RoundCounter.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_facets(args: argparse.Namespace) -> int:
    counter = _parse_counter(args.counter)
    cap = simplex_cap(args.max_simplices)
    if args.count:
        _emit(f"{_schedule_count(counter, cap)}\n", args.out)
        return EXIT_OK
    from .commands import _dump
    from .complexes import facet_structures

    all_facets = set(facet_structures(counter, max_schedules=cap))
    payload = {
        "counter": counter.to_json_obj(),
        "count": len(all_facets),
        "facets": sorted(f.encode() for f in all_facets),
    }
    _emit(_dump(payload), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapcomplex",
        description="Immediate snapshot complexes: build, verify, collapse, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument(
            "-r", "--counter", required=True,
            help="round counter, e.g. '2,1,1' or '1,x,1' (x = absent)",
        )
        p.add_argument(
            "--max-simplices", type=int, default=None,
            help="override the stored-simplex cap (env SNAPCOMPLEX_MAX_SIMPLICES)",
        )
        p.add_argument("--out", default=None, help="write output to a file")
        return p

    command("build", "construct and serialize a complex")
    p = command("facets", "list or count the facets")
    p.add_argument("--count", action="store_true", help="print the count only")
    p = command("verify", "run named invariant suites")
    p.add_argument(
        "--checks", required=True, help="comma-separated list drawn from: " + ",".join(CHECK_ORDER)
    )
    mode = command("strata", "stratification queries").add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="canonical strata with counts")
    mode.add_argument(
        "--intersect", nargs=2, metavar=("S", "T"),
        help="closed form of the intersection of two covering strata, e.g. {0} {1}",
    )
    mode.add_argument("--nerve", action="store_true", help="nerve of the covering")
    p = command("collapse", "collapse sequences")
    p.add_argument("--pivot", type=int, default=None, help="pivot process")
    p.add_argument(
        "--full", action="store_true", help="collapse everything, not just past the boundary"
    )
    p.add_argument("--validate", action="store_true", help="replay and check every step")
    p = command("export", "serialize in other formats")
    p.add_argument("--format", required=True, choices=("json", "dot", "svg"), help="output format")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # A command writes nothing to stderr; its outcome is reported below.  With
    # no stderr while it runs, a suspended generator that cannot be freed for
    # want of memory reports nothing, so the exit-3 line is the only line.
    stderr, sys.stderr = sys.stderr, None
    try:
        if args.command == "facets":
            return _cmd_facets(args)
        from . import commands

        return getattr(commands, f"_cmd_{args.command}")(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_USAGE
    except ComplexTooLargeError as exc:
        import json

        print(json.dumps({"error": f"{exc.budget} exceeded", "limit": exc.limit}), file=stderr)
        return EXIT_TOO_LARGE
    except VerificationError as exc:
        import json

        print(json.dumps({"error": str(exc)}), file=stderr)
        return EXIT_FAILURE
    except MemoryError:
        # Reported after the handler, once the frames that held the
        # memory have been released.
        pass
    finally:
        sys.stderr = stderr
    # The line json.dumps would write, written without loading json.
    print('{"error": "memory exhausted"}', file=sys.stderr)
    return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
