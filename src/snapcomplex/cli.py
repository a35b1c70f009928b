"""Command-line front end: build, inspect, verify and export complexes.

Six subcommands mirror the library surface:

* ``build``     construct a complex and serialize it,
* ``facets``    list or count the facets,
* ``verify``    run named invariant suites; JSON report on stdout,
* ``strata``    stratification queries (``--list``/``--intersect``/``--nerve``),
* ``collapse``  produce and optionally validate collapse sequences,
* ``export``    JSON dump, DOT face poset, or SVG picture.

Exit codes: 0 success, 1 failed check, 2 usage or parse error (an
unwritable ``--out`` path included), 3 resource cap exceeded or memory
exhausted.  Identical inputs produce byte-identical output; every
listing is explicitly sorted.

The certification modules (``chromatic``, ``collapse``, ``strata``,
``topology``) are imported inside the functions that run them, so
``build``, ``facets`` and ``export`` never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from .complexes import (
    Complex,
    ConeSplit,
    _sub_builder,
    build,
    check_purity,
    facet_structures,
    simplex_cap,
    verify_ghost_composition,
)
from .counters import RoundCounter
from .errors import ComplexTooLargeError, VerificationError
from .schedules import _facet, enumerate_schedules
from .witness import Masks, WitnessStructure, _active_mask, _bits, _ghosts, _mask_of, _validated

if TYPE_CHECKING:
    from .collapse import CollapseStep
    from .topology import BoundaryReport

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3


def _dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


class UsageError(Exception):
    """Bad arguments discovered after argparse; maps to exit code 2."""


def _parse_procs(token: str) -> frozenset[int]:
    inner = token.strip().lstrip("{").rstrip("}").strip()
    if not inner:
        return frozenset()
    try:
        return frozenset(int(part) for part in inner.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot read process set {token!r}") from exc


# ---------------------------------------------------------------------------
# verify checks
# ---------------------------------------------------------------------------


def _check_purity(k: Complex) -> dict:
    check_purity(k)
    return {"status": "ok", "dimension": k.dim}


@functools.lru_cache(maxsize=1)
def _boundary(k: Complex) -> tuple[BoundaryReport, set[int]]:
    """``topology.boundary(k)`` and the numbers of the boundary's
    simplices, computed once for the last complex asked: the
    pseudomanifold, boundary and homology checks all read them."""
    from .topology import _boundary

    return _boundary(k)


def _check_pseudomanifold(k: Complex) -> dict:
    report = _boundary(k)[0]
    return {"status": "ok", "ridges": report.ridge_count}


def _check_boundary(k: Complex) -> dict:
    report = _boundary(k)[0]
    status = "ok" if report.ghost_rule_holds else "failed"
    return {
        "status": status,
        "boundary_ridges": len(report.boundary_ridges),
        "boundary_simplices": len(report.simplices),
    }


def _check_strong_connectivity(k: Complex) -> dict:
    from .topology import strong_connectivity

    connected = strong_connectivity(k)
    return {"status": "ok" if connected else "failed", "facets": len(k.facets)}


def _check_euler(k: Complex) -> dict:
    from .topology import euler

    value = euler(k)
    return {"status": "ok" if value == 1 else "failed", "euler": value}


def _check_homology(k: Complex) -> dict:
    from .topology import _homology_in, homology_z2, is_sphere_like

    betti = homology_z2(k)
    contractible = all(b == 0 for b in betti.values())
    detail: dict = {
        "status": "ok" if contractible else "failed",
        "reduced_betti": {str(d): b for d, b in sorted(betti.items())},
    }
    rim = _boundary(k)[1]
    if rim:
        sphere_dim = len(k.counter.support) - 2
        rim_betti = _homology_in(k, rim)
        detail["boundary_reduced_betti"] = {
            str(d): b for d, b in sorted(rim_betti.items())
        }
        if not is_sphere_like(rim_betti, sphere_dim):
            detail["status"] = "failed"
    return detail


def _check_strata_intersections(k: Complex) -> dict:
    from .strata import verify_strata_calculus

    counts = verify_strata_calculus(k)
    return {"status": "ok", **counts}


def _check_diagrams(k: Complex) -> dict:
    from .strata import verify_diagrams

    reports = verify_diagrams(k)
    return {
        "status": "ok",
        "parameter_sets": len(reports),
        "instances": sum(r.instances_checked for r in reports),
    }


def _check_gg(k: Complex) -> dict:
    return {"status": "ok", "instances": verify_ghost_composition(k)}


def _check_cone(k: Complex) -> dict:
    passive = sorted(k.counter.passive)
    if not passive:
        return {"status": "skipped", "reason": "no passive process"}
    sub = _sub_builder(k)
    certificates = [
        ConeSplit(k, sub(k.counter.delete({p})), p).certify() for p in passive
    ]
    return {"status": "ok", "certificates": certificates}


def _check_phi(k: Complex) -> dict:
    counter = k.counter
    support = sorted(counter.support)
    if support != list(range(len(support))) or any(
        counter[p] != 1 for p in support
    ):
        return {"status": "skipped", "reason": "counter is not all-ones on 0..n"}
    from .chromatic import phi_iso

    report = phi_iso(k)
    return {
        "status": "ok",
        "subdivision_simplices": report.simplices,
        "f_vector": list(report.f_vector),
    }


def _check_schedule_bijection(k: Complex) -> dict:
    """Each schedule's facet, and each of its views, is looked up in ``k``
    by its masks, which a structure equals: a hit is a simplex the build
    validated, and only a miss is validated."""
    number = k._number

    def found(m: Masks) -> Masks:
        return m if m in number else _validated(m)

    support = _mask_of(k.counter)
    mapped: dict[Masks, int] = {}
    seen_views: set[Masks] = set()
    count = 0
    for schedule in enumerate_schedules(k.counter):
        m = found(_facet(support, schedule))
        mapped[m] = mapped.get(m, 0) + 1
        active = _active_mask(m)
        seen_views.update(map(found, _ghosts(m, [active ^ 1 << p for p in _bits(active)])))
        count += 1
    vertex_set = {s for s in k.simplices if s.dim == 0}
    injective = all(n == 1 for n in mapped.values())
    onto = set(mapped) == k.facets
    covered = seen_views == vertex_set
    status = "ok" if injective and onto and covered else "failed"
    return {
        "status": status,
        "schedules": count,
        "facets": len(k.facets),
        "vertices": len(vertex_set),
        "views": len(seen_views),
    }


# Each check gets the built complex; a complex it derives from that one
# is built by _sub_builder, under the size of the built complex.  The
# order here is the order of the report.
_CHECKS: dict[str, Callable[[Complex], dict]] = {
    "purity": _check_purity,
    "pseudomanifold": _check_pseudomanifold,
    "boundary": _check_boundary,
    "strong-connectivity": _check_strong_connectivity,
    "euler": _check_euler,
    "homology": _check_homology,
    "strata-intersections": _check_strata_intersections,
    "diagrams": _check_diagrams,
    "gg": _check_gg,
    "cone": _check_cone,
    "phi": _check_phi,
    "schedule-bijection": _check_schedule_bijection,
}
CHECK_ORDER = tuple(_CHECKS)


def _cmd_verify(args: argparse.Namespace) -> int:
    counter = _parse_counter(args.counter)
    wanted = [name.strip() for name in args.checks.split(",") if name.strip()]
    if not wanted:
        raise UsageError(f"no checks given; available: {', '.join(CHECK_ORDER)}")
    unknown = [name for name in wanted if name not in _CHECKS]
    if unknown:
        raise UsageError(
            f"unknown checks {unknown}; available: {', '.join(CHECK_ORDER)}"
        )
    k = build(counter, max_simplices=args.max_simplices)
    results: dict[str, dict] = {}
    for name in CHECK_ORDER:
        if name not in wanted:
            continue
        try:
            results[name] = _CHECKS[name](k)
        except VerificationError as exc:
            results[name] = {"status": "failed", "error": str(exc)}
    ok = all(r["status"] in ("ok", "skipped") for r in results.values())
    report = {
        "counter": counter.to_json_obj(),
        "checks": results,
        "ok": ok,
    }
    _emit(_dump(report), args.out)
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# remaining subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    counter = _parse_counter(args.counter)
    k = build(counter, max_simplices=args.max_simplices)
    _emit(_dump(k.to_json_obj(include_simplices=True)), args.out)
    return EXIT_OK


def _cmd_facets(args: argparse.Namespace) -> int:
    counter = _parse_counter(args.counter)
    cap = simplex_cap(args.max_simplices)
    all_facets = set(facet_structures(counter, max_schedules=cap))
    if args.count:
        _emit(f"{len(all_facets)}\n", args.out)
        return EXIT_OK
    payload = {
        "counter": counter.to_json_obj(),
        "count": len(all_facets),
        "facets": sorted(f.encode() for f in all_facets),
    }
    _emit(_dump(payload), args.out)
    return EXIT_OK


def _cmd_strata(args: argparse.Namespace) -> int:
    from .strata import HeadIndex, classify_interior, intersect_pair, nerve

    counter = _parse_counter(args.counter)
    if args.intersect is not None:
        first, second = (_parse_procs(token) for token in args.intersect)
        stray = (first | second) - counter.active
        if stray:
            raise UsageError(f"processes {sorted(stray)} are not active in the counter")
        ref = intersect_pair(first, (), second, ())
        _emit(f"{ref}\n", args.out)
        return EXIT_OK
    k = build(counter, max_simplices=args.max_simplices)
    if args.nerve:
        _emit(_dump(nerve(k).to_json_obj()), args.out)
        return EXIT_OK
    # classify_interior reads rows 0-1 only, so one simplex per head
    # classifies its whole bucket.
    groups: dict[str, dict] = {}
    for bucket in HeadIndex.of(k).buckets:
        ref = classify_interior(bucket[0])
        if ref is None:
            entry = groups.setdefault("passive simplex", {"name": "passive simplex"})
        else:
            entry = groups.setdefault(str(ref), {"name": str(ref), **ref.to_json_obj()})
        entry["count"] = entry.get("count", 0) + len(bucket)
    payload = {
        "counter": counter.to_json_obj(),
        "strata": [groups[name] for name in sorted(groups)],
    }
    _emit(_dump(payload), args.out)
    return EXIT_OK


def _cmd_collapse(args: argparse.Namespace) -> int:
    from .collapse import (
        collapse_all,
        collapse_to_relative_boundary,
        relative_boundary_remainder,
        validate_collapse,
    )

    counter = _parse_counter(args.counter)
    if args.full and args.pivot is not None:
        raise UsageError("--pivot applies to the relative-boundary collapse only")
    if args.pivot is not None and args.pivot not in counter.support:
        raise UsageError(f"pivot {args.pivot} is outside the support")
    k = build(counter, max_simplices=args.max_simplices)
    if args.full:
        sequence = collapse_all(k)
        expected = frozenset()
    else:
        pivot = args.pivot if args.pivot is not None else min(counter.support)
        sequence = collapse_to_relative_boundary(k, pivot)
        expected = relative_boundary_remainder(k, pivot)
    payload = sequence._summary_json()
    status = EXIT_OK
    if args.validate:
        report = validate_collapse(k, sequence, expected_remainder=expected)
        payload["validation"] = report.to_json_obj()
        status = EXIT_OK if report.ok else EXIT_FAILURE
    _emit(_collapse_report(payload, sequence.steps), args.out)
    return status


_STEP = '\n    {{\n      "cofacet": "{}",\n      "free": "{}",\n      "stage": "{}"\n    }}'


def _collapse_report(payload: dict, steps: Sequence[CollapseStep]) -> str:
    """``_dump`` of ``payload`` with ``steps`` as its ``"steps"`` list, the
    same bytes as ``_dump`` of the sequence's ``to_json_obj()`` with
    ``payload``'s other keys.  Each step is written from the encodings of
    its two simplices, which need no escaping, so the list is not handed to
    the JSON encoder."""
    text = _dump({**payload, "steps": []})
    if not steps:
        return text
    body = ",".join(
        _STEP.format(step.cofacet.encode(), step.free.encode(), step.stage) for step in steps
    )
    # A key's quotes are never escaped, so this is the one key "steps".
    return text.replace('"steps": []', f'"steps": [{body}\n  ]', 1)


def _hasse_dot(k: Complex) -> str:
    lines = ["digraph face_poset {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    # The encodings in number order; the first call also sorts the numbers.
    codes, simplices, lower = list(k.encodings().values()), k._simplices, k._lower
    # A stable sort by dimension of the encode order: (dim, encode()) order.
    ordered = sorted(k._encode_order(), key=lambda i: simplices[i].dim)
    for i in ordered:
        lines.append(f'  "{codes[i]}" [label="dim {simplices[i].dim}: {codes[i]}"];')
    for i in ordered:
        child = codes[i]
        for parent in sorted([codes[j] for j in lower[i]]):
            lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")


def _vertex_positions(k: Complex) -> dict[WitnessStructure, tuple[float, float]]:
    """Plane coordinates: boundary pinned on a circle, interior relaxed."""
    from .topology import boundary

    vertex_list = [s for s in k.ordered() if s.dim == 0]
    if len(vertex_list) == 1:
        return {vertex_list[0]: (300.0, 300.0)}
    edges = [s for s in k.ordered() if s.dim == 1]
    neighbors: dict[WitnessStructure, set[WitnessStructure]] = {
        v: set() for v in vertex_list
    }
    for edge in edges:
        u, v = sorted(k.vertices(edge), key=WitnessStructure.encode)
        neighbors[u].add(v)
        neighbors[v].add(u)

    if k.dim == 1:
        # A path: walk it end to end and spread it on a horizontal line.
        ends = [v for v in vertex_list if len(neighbors[v]) == 1]
        walk = [ends[0]]
        while len(walk) < len(vertex_list):
            options = neighbors[walk[-1]] - set(walk)
            walk.append(min(options, key=WitnessStructure.encode))
        step = 520.0 / max(len(walk) - 1, 1)
        return {v: (40.0 + i * step, 300.0) for i, v in enumerate(walk)}

    rim_edges = boundary(k).boundary_ridges
    rim_neighbors: dict[WitnessStructure, set[WitnessStructure]] = {}
    for edge in rim_edges:
        u, v = sorted(k.vertices(edge), key=WitnessStructure.encode)
        rim_neighbors.setdefault(u, set()).add(v)
        rim_neighbors.setdefault(v, set()).add(u)
    start = min(rim_neighbors, key=WitnessStructure.encode)
    cycle = [start, min(rim_neighbors[start], key=WitnessStructure.encode)]
    while True:
        options = rim_neighbors[cycle[-1]] - {cycle[-2]}
        nxt = min(options, key=WitnessStructure.encode)
        if nxt == start:
            break
        cycle.append(nxt)
    positions: dict[WitnessStructure, tuple[float, float]] = {}
    for i, v in enumerate(cycle):
        angle = 2.0 * math.pi * i / len(cycle) - math.pi / 2.0
        positions[v] = (300.0 + 250.0 * math.cos(angle), 300.0 + 250.0 * math.sin(angle))
    interior = [v for v in vertex_list if v not in positions]
    for v in interior:
        positions[v] = (300.0, 300.0)
    for _ in range(120):
        for v in interior:
            around = neighbors[v]
            positions[v] = (
                sum(positions[u][0] for u in around) / len(around),
                sum(positions[u][1] for u in around) / len(around),
            )
    return positions


def _svg(k: Complex) -> str:
    """The complex drawn in the plane; the caller has checked that its
    support has at most three processes."""
    positions = _vertex_positions(k)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">',
        '  <rect width="600" height="600" fill="white"/>',
    ]

    def fmt(value: float) -> str:
        return f"{value:.2f}"

    for facet in (s for s in k.ordered() if s.dim == 2):
        points = " ".join(
            f"{fmt(positions[v][0])},{fmt(positions[v][1])}"
            for v in sorted(k.vertices(facet), key=WitnessStructure.encode)
        )
        parts.append(f'  <polygon points="{points}" fill="#eef0f7" stroke="none"/>')
    for edge in (s for s in k.ordered() if s.dim == 1):
        u, v = sorted(k.vertices(edge), key=WitnessStructure.encode)
        parts.append(
            f'  <line x1="{fmt(positions[u][0])}" y1="{fmt(positions[u][1])}" '
            f'x2="{fmt(positions[v][0])}" y2="{fmt(positions[v][1])}" '
            'stroke="#444444" stroke-width="1.5"/>'
        )
    for vertex in (s for s in k.ordered() if s.dim == 0):
        x, y = positions[vertex]
        color = _PALETTE[next(iter(vertex.active_set)) % len(_PALETTE)]
        parts.append(
            f'  <circle cx="{fmt(x)}" cy="{fmt(y)}" r="6" fill="{color}">'
            f"<title>{vertex.encode()}</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_export(args: argparse.Namespace) -> int:
    counter = _parse_counter(args.counter)
    if args.format == "svg" and len(counter.support) > 3:
        raise UsageError("svg export is limited to counters with support size <= 3")
    k = build(counter, max_simplices=args.max_simplices)
    if args.format == "json":
        _emit(_dump(k.to_json_obj(include_simplices=True)), args.out)
    elif args.format == "dot":
        _emit(_hasse_dot(k), args.out)
    else:
        _emit(_svg(k), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapcomplex",
        description="Immediate snapshot complexes: build, verify, collapse, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "-r",
            "--counter",
            required=True,
            help="round counter, e.g. '2,1,1' or '1,x,1' (x = absent)",
        )
        p.add_argument(
            "--max-simplices",
            type=int,
            default=None,
            help="override the stored-simplex cap (env SNAPCOMPLEX_MAX_SIMPLICES)",
        )
        p.add_argument("--out", default=None, help="write output to a file")

    p_build = sub.add_parser("build", help="construct and serialize a complex")
    common(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_facets = sub.add_parser("facets", help="list or count the facets")
    common(p_facets)
    p_facets.add_argument("--count", action="store_true", help="print the count only")
    p_facets.set_defaults(func=_cmd_facets)

    p_verify = sub.add_parser("verify", help="run named invariant suites")
    common(p_verify)
    p_verify.add_argument(
        "--checks",
        required=True,
        help="comma-separated list drawn from: " + ",".join(CHECK_ORDER),
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_strata = sub.add_parser("strata", help="stratification queries")
    common(p_strata)
    mode = p_strata.add_mutually_exclusive_group(required=True)
    mode.add_argument("--list", action="store_true", help="canonical strata with counts")
    mode.add_argument(
        "--intersect",
        nargs=2,
        metavar=("S", "T"),
        help="closed form of the intersection of two covering strata, e.g. {0} {1}",
    )
    mode.add_argument("--nerve", action="store_true", help="nerve of the covering")
    p_strata.set_defaults(func=_cmd_strata)

    p_collapse = sub.add_parser("collapse", help="collapse sequences")
    common(p_collapse)
    p_collapse.add_argument("--pivot", type=int, default=None, help="pivot process")
    p_collapse.add_argument(
        "--full", action="store_true", help="collapse everything, not just past the boundary"
    )
    p_collapse.add_argument(
        "--validate", action="store_true", help="replay and check every step"
    )
    p_collapse.set_defaults(func=_cmd_collapse)

    p_export = sub.add_parser("export", help="serialize in other formats")
    common(p_export)
    p_export.add_argument(
        "--format", required=True, choices=("json", "dot", "svg"), help="output format"
    )
    p_export.set_defaults(func=_cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A command writes nothing to stderr; its outcome is reported below.
    # Without a stderr while it runs, a suspended generator that cannot be
    # freed for want of memory is reported nowhere, so the exit-3 line is
    # the only line.
    stderr, sys.stderr = sys.stderr, None
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_USAGE
    except ComplexTooLargeError as exc:
        error = {"error": f"{exc.budget} exceeded", "limit": exc.limit}
        print(json.dumps(error, sort_keys=True), file=stderr)
        return EXIT_TOO_LARGE
    except VerificationError as exc:
        print(json.dumps({"error": str(exc)}), file=stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_USAGE
    except MemoryError:
        # Reported after the handler, once the frames that held the
        # memory have been released.
        pass
    finally:
        sys.stderr = stderr
    print(json.dumps({"error": "memory exhausted"}), file=sys.stderr)
    return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
