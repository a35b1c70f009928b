"""In-process pass of a workload, with optional spans around each layer call.

    python3 perfbench/layers.py --workload collapse --seed 3 --trace 1

makes, in one interpreter, the library calls that the workload's CLI ops
make (one build per op, as each op is a fresh process), and prints one JSON
object: the pass's wall time and, with ``--trace 1``, the spans, the counts
taken from return values at the same boundaries and a few per-call figures
measured on the workload's largest complex after the pass.

Spans are recorded here, around calls into the package, not inside it.
A span around a call that builds complexes internally (``collapse_*``,
``verify_translation_maps``, ``cone_split``) therefore includes those
builds.  The coface table of the op's complex is forced by one explicit
``proper_cofaces`` call before the collapse, so that it gets its own span.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from collections import Counter
from time import perf_counter, perf_counter_ns

from snapcomplex import (
    RoundCounter,
    boundary,
    build,
    check_purity,
    classify_interior,
    collapse_all,
    collapse_to_relative_boundary,
    cone_split,
    enumerate_schedules,
    euler,
    facets,
    ghost,
    homology_z2,
    nerve,
    phi_iso,
    relative_boundary_remainder,
    strong_connectivity,
    to_facet,
    validate_collapse,
    verify_diagrams,
    verify_ghost_composition,
    verify_strata_calculus,
    verify_translation_maps,
    views,
)

from workloads import ALL_CHECKS, WORKLOADS, make_ops, model


class Tracer:
    """Records (name, start_ns, end_ns, parent index, workload, op id) spans
    in memory."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._parent: int | None = None
        self._op: str | None = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self._parent, self.workload, self._op])
        parent, self._parent = self._parent, index
        try:
            return fn(*args, **kwargs)
        finally:
            self._parent = parent
            self.spans[index][2] = perf_counter_ns()

    def op(self, op_id: str, fn, *args):
        self._op = op_id
        try:
            return self.call("op", fn, *args)
        finally:
            self._op = None


def _dump(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _counter(counts: tuple[int, ...]) -> RoundCounter:
    return RoundCounter(dict(enumerate(counts)))


def _build(t: Tracer, counts: tuple[int, ...]):
    k = t.call("complexes.build", build, _counter(counts))
    t.counts["complexes.simplices"] += len(k)
    return k


def _covers(k) -> dict:
    return {s: [f for f in k.faces(s) if f.dim == s.dim - 1] for s in k.simplices}


def _bijection(schedules, r, k) -> bool:
    mapped = Counter(to_facet(s, r) for s in schedules)
    seen = set()
    for s in schedules:
        seen.update(views(s, r).values())
    vertices = {s for s in k.simplices if s.dim == 0}
    return all(n == 1 for n in mapped.values()) and set(mapped) == k.facets and seen == vertices


def op_build(t, op):
    k = _build(t, op.counts)
    t.call("cli.json_dump", _dump, t.call("complexes.to_json", k.to_json_obj, include_simplices=True))


def op_facets(t, op):
    t.call("complexes.facets", facets, _counter(op.counts))


def op_dot(t, op):
    k = _build(t, op.counts)
    covers = t.call("complexes.faces", _covers, k)
    lines = []
    for s in sorted(k.simplices, key=lambda s: (s.dim, s.encode())):
        lines.extend(f"{f.encode()} -> {s.encode()}" for f in covers[s])
    return "\n".join(lines)


def op_list(t, op):
    k = _build(t, op.counts)
    ordered = sorted(k.simplices)
    refs = t.call("strata.classify", lambda: [classify_interior(s) for s in ordered])
    census = Counter("passive simplex" if ref is None else str(ref) for ref in refs)
    t.call("cli.json_dump", _dump, dict(census))


def op_nerve(t, op):
    k = _build(t, op.counts)
    t.call("cli.json_dump", _dump, t.call("strata.nerve", nerve, k).to_json_obj())


def op_verify(t, op, checks=ALL_CHECKS):
    k = _build(t, op.counts)
    r = k.counter
    report = {}
    for name in checks.split(","):
        if name == "purity":
            t.call("complexes.purity", check_purity, k)
        elif name in ("pseudomanifold", "boundary"):
            report[name] = len(t.call("topology.boundary", boundary, k).simplices)
        elif name == "strong-connectivity":
            report[name] = t.call("topology.strong_connectivity", strong_connectivity, k)
        elif name == "euler":
            report[name] = t.call("topology.euler", euler, k)
        elif name == "homology":
            report[name] = t.call("topology.homology", homology_z2, k)
            rim = t.call("topology.boundary", boundary, k).simplices
            if rim:
                t.call("topology.homology", homology_z2, rim)
        elif name == "strata-intersections":
            found = t.call("strata.calculus", verify_strata_calculus, k)
            t.counts["strata.calculus_checks"] += sum(found.values())
        elif name == "diagrams":
            reports = t.call("strata.diagrams", verify_diagrams, k)
            t.counts["strata.diagram_instances"] += sum(x.instances_checked for x in reports)
        elif name == "gg":
            t.counts["complexes.gg_instances"] += t.call("complexes.gg", verify_ghost_composition, k)
        elif name == "cone":
            for p in sorted(r.passive):
                t.call("complexes.cone", lambda: cone_split(r, p).certify())
        elif name == "phi":
            support = sorted(r.support)
            if all(r[p] == 1 for p in support):
                report[name] = t.call("chromatic.phi", phi_iso, len(support) - 1).ok
        elif name == "schedule-bijection":
            schedules = t.call("schedules.enumerate", lambda: list(enumerate_schedules(r)))
            t.counts["schedules.schedules"] += len(schedules)
            report[name] = t.call("schedules.bijection", _bijection, schedules, r, k)
    t.call("cli.json_dump", _dump, {str(key): str(value) for key, value in report.items()})


def op_phi(t, op):
    try:
        op_verify(t, op, "phi")
    except ValueError:
        # The CLI turns this into exit code 2; see PHI_BOUND_DEFECT.
        t.counts["failed_ops"] += 1


def op_translation(t, op):
    k = _build(t, op.counts)
    t.call("cli.json_dump", _dump, t.call("strata.translation_maps", verify_translation_maps, k))


def _collapse(t, k, sequence, expected):
    t.counts["collapse.steps"] += len(sequence)
    t.counts["collapse.fallback_steps"] += sequence.fallback_count
    payload = t.call("collapse.to_json", sequence.to_json_obj)
    report = t.call("collapse.validate", validate_collapse, k, sequence, expected_remainder=expected)
    payload["validation"] = report.to_json_obj()
    t.call("cli.json_dump", _dump, payload)


def op_collapse_full(t, op):
    k = _build(t, op.counts)
    t.call("complexes.cofaces_table", k.proper_cofaces, k.empty_simplex)
    _collapse(t, k, t.call("collapse.collapse_all", collapse_all, k), frozenset())


def op_collapse_rel(t, op):
    k = _build(t, op.counts)
    t.call("complexes.cofaces_table", k.proper_cofaces, k.empty_simplex)
    sequence = t.call("collapse.relative", collapse_to_relative_boundary, k, op.pivot)
    expected = t.call("collapse.remainder", relative_boundary_remainder, k, op.pivot)
    _collapse(t, k, sequence, expected)


OP_BODIES = {
    "build": op_build,
    "facets": op_facets,
    "dot": op_dot,
    "list": op_list,
    "nerve": op_nerve,
    "verify": op_verify,
    "phi": op_phi,
    "translation": op_translation,
    "collapse-full": op_collapse_full,
    "collapse-rel": op_collapse_rel,
}


def per_call_figures(counts: tuple[int, ...]) -> dict[str, float]:
    """Per-call cost of ghosting and encoding, and retained bytes per
    stored simplex, on the complex of ``counts``."""
    k = build(_counter(counts))
    pairs = [(s, frozenset({p})) for s in k.simplices for p in s.active_set]
    start = perf_counter()
    for sigma, hide in pairs:
        ghost(sigma, hide)
    ghost_s = perf_counter() - start
    start = perf_counter()
    for sigma in k.simplices:
        sigma.encode()
    encode_s = perf_counter() - start
    del k
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        k = build(_counter(counts))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return {
        "witness.ghost_us": ghost_s / len(pairs) * 1e6,
        "witness.ghost_calls": len(pairs),
        "witness.encode_us": encode_s / len(k) * 1e6,
        "complexes.build_bytes_per_simplex": retained / len(k),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    ops = make_ops(args.workload, args.seed, args.smoke)
    t = Tracer(args.workload, bool(args.trace))
    start = perf_counter()
    for op in ops:
        t.op(op.id, OP_BODIES[op.kind], t, op)
    result = {"total_s": perf_counter() - start, "counts": dict(t.counts)}
    if args.trace:
        largest = max((op.counts for op in ops), key=lambda c: model(c).total)
        result["spans"] = t.spans
        result["per_call"] = per_call_figures(largest)
        result["per_call_counter"] = ",".join(map(str, largest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
