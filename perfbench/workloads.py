"""The benchmark's workloads, their seeded relabelling and output checks.

A workload is a fixed list of operations (ops) on round counters.  The
seed picks one permutation of the process labels per counter length; it is
applied to every counter and to every explicit pivot, so the complexes stay
isomorphic (the work per run is constant) while sort orders, the default
pivot ``min(support)`` and cache keys change.

Every op's output is checked against values that do not come from the
engine: the counting oracles in ``tests/oracles.py`` and the simulated
protocol complex in ``model.py``.
"""

from __future__ import annotations

import importlib.util
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from model import ModelComplex, model

ROOT = Path(__file__).resolve().parent.parent

ALL_CHECKS = (
    "purity,pseudomanifold,boundary,strong-connectivity,euler,homology,"
    "strata-intersections,diagrams,gg,cone,phi,schedule-bijection"
)

# The phi check enumerates the chromatic subdivision only up to n = 3 and
# answers larger all-ones counters with a usage error (exit 2) although the
# input is valid.  The op stays in the workload and counts as failed.
PHI_BOUND_DEFECT = "color bound exceeded: n=4 > 3"

LADDER = ((1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))
SMOKE_LADDER = ((1, 1), (2, 1), (1, 1, 1))

# (kind, counter, pivot) in original labels; pivot is None where the CLI
# picks its default.
WORKLOADS: dict[str, dict[bool, list[tuple[str, tuple[int, ...], int | None]]]] = {
    # Construction plus face listing and serialisation.  `strata --nerve`
    # runs on four processes only: on five it enumerates all 2^31
    # subfamilies of the 31-strata cover and does not finish.
    "build-export": {
        False: [
            *((kind, c, None) for c in LADDER for kind in ("build", "facets", "dot", "list")),
            ("nerve", (1, 1, 1, 1), None),
            ("nerve", (2, 1, 1, 1), None),
        ],
        True: [
            *((kind, c, None) for c in SMOKE_LADDER for kind in ("build", "facets", "dot", "list")),
            ("nerve", (1, 1, 1), None),
        ],
    },
    # Certification.  `verify` on 1,1,1,1,1 runs only the phi check: the
    # gg check alone takes about 43 s there.
    "verify-suite": {
        False: [
            ("verify", (1, 1, 1, 1), None),
            ("verify", (2, 1, 1, 1), None),
            ("verify", (2, 1, 0, 1), None),
            ("phi", (1, 1, 1, 1, 1), None),
            ("translation", (2, 1, 1, 1), None),
        ],
        True: [
            ("verify", (1, 1), None),
            ("verify", (2, 1), None),
            ("verify", (1, 1, 1), None),
            ("phi", (1, 1, 1), None),
            ("translation", (2, 1), None),
        ],
    },
    # Memoised sub-builds of restricted counters plus coface tables.
    "collapse": {
        False: [
            ("collapse-full", (1, 1, 1, 1, 1), None),
            ("collapse-full", (2, 1, 1, 1), None),
            ("collapse-rel", (2, 1, 1, 1), 0),
            ("collapse-rel", (2, 1, 0, 1), 2),
        ],
        True: [
            ("collapse-full", (1, 1, 1), None),
            ("collapse-full", (2, 1), None),
            ("collapse-rel", (2, 1), 0),
            ("collapse-rel", (2, 1, 0), 2),
        ],
    },
}

SETUP_ARGS = ("facets", "-r", "1", "--count")


def load_oracles():
    """Import ``tests/oracles.py`` by path, without touching the package."""
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def permutation(seed: int, n: int) -> tuple[int, ...]:
    """The relabelling of ``n`` processes picked by ``seed``: p -> perm[p]."""
    labels = list(range(n))
    random.Random(f"perfbench:{seed}:{n}").shuffle(labels)
    return tuple(labels)


def relabel(counts: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(counts)
    for p, c in enumerate(counts):
        out[perm[p]] = c
    return tuple(out)


def text(counts: tuple[int, ...]) -> str:
    return ",".join(map(str, counts))


@dataclass(frozen=True)
class Op:
    """One user operation: a fresh interpreter running ``argv``."""

    id: str
    kind: str
    counts: tuple[int, ...]
    pivot: int | None
    argv: tuple[str, ...]

    @property
    def simplices(self) -> int:
        """Stored simplices the op processes: the facets for a facet
        count, otherwise the whole complex of its counter."""
        m = model(self.counts)
        return m.facets if self.kind == "facets" else m.total


# Arguments after ``-m snapcomplex``: the subcommand, then (after the
# counter) its flags.  ``collapse-rel`` takes the pivot as its last value.
CLI_ARGS = {
    "build": ("build",),
    "facets": ("facets", "--count"),
    "dot": ("export", "--format", "dot"),
    "list": ("strata", "--list"),
    "nerve": ("strata", "--nerve"),
    "verify": ("verify", "--checks", ALL_CHECKS),
    "phi": ("verify", "--checks", "phi"),
    "collapse-full": ("collapse", "--full", "--validate"),
    "collapse-rel": ("collapse", "--validate", "--pivot"),
}


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    ops = []
    for kind, counts, pivot in WORKLOADS[workload][smoke]:
        perm = permutation(seed, len(counts))
        mapped = relabel(counts, perm)
        mapped_pivot = None if pivot is None else perm[pivot]
        if kind == "translation":
            args = ("perfbench/libop.py", "translation-maps", text(mapped))
        else:
            command, *flags = CLI_ARGS[kind]
            args = ("-m", "snapcomplex", command, "-r", text(mapped), *flags)
            if mapped_pivot is not None:
                args += (str(mapped_pivot),)
        op_id = f"{kind}:{text(counts)}" + ("" if pivot is None else f"@{pivot}")
        ops.append(Op(op_id, kind, mapped, mapped_pivot, args))
    return ops


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class Checker:
    """Judges op outputs against the oracles; returns a reason or None."""

    def __init__(self):
        self.oracles = load_oracles()

    def facet_count(self, counts: tuple[int, ...]) -> int:
        return self.oracles.layered_sequence_count(dict(enumerate(counts)))

    def _f_vector_problem(self, counts: tuple[int, ...], f_vector: list[int], total: int) -> str | None:
        m = model(counts)
        if sum((-1) ** d * f for d, f in enumerate(f_vector)) != 1:
            return f"alternating f-vector sum of {f_vector} is not 1"
        if tuple(f_vector) != m.f_vector or total != m.total:
            return f"f-vector {f_vector} / {total} simplices, model has {list(m.f_vector)} / {m.total}"
        if all(c == 1 for c in counts):
            n = len(counts) - 1
            if total != self.oracles.chromatic_total(n + 1):
                return f"{total} simplices, chromatic_total gives {self.oracles.chromatic_total(n + 1)}"
            if n <= 3 and tuple(f_vector) != self.oracles.subdivision_f_vector(n):
                return f"f-vector {f_vector} is not the subdivision's"
        return None

    def check(self, op: Op, rc: int, out: bytes, err: bytes) -> str | None:
        m = model(op.counts)
        if op.kind == "phi" and rc == 2 and PHI_BOUND_DEFECT in err.decode(errors="replace"):
            return "known defect: " + PHI_BOUND_DEFECT
        if rc != 0:
            return f"exit code {rc}: {err.decode(errors='replace').strip()[:200]}"
        try:
            return self._check_output(op, m, out.decode())
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_output(self, op: Op, m: ModelComplex, out: str) -> str | None:
        kind, counts = op.kind, op.counts
        if kind == "facets":
            if int(out) != self.facet_count(counts):
                return f"facet count {int(out)} != {self.facet_count(counts)}"
            return None
        if kind == "dot":
            dims = [int(d) for d in re.findall(r'\[label="dim (-?\d+): ', out)]
            edges = out.count('" -> "')
            f_vector = [dims.count(d) for d in range(len(counts))]
            want = sum((d + 1) * f for d, f in enumerate(f_vector))
            if edges != want:
                return f"{edges} Hasse edges, expected {want}"
            return self._f_vector_problem(counts, f_vector, len(dims))
        obj = json.loads(out)
        if kind == "build":
            if len(obj["facets"]) != self.facet_count(counts):
                return f"{len(obj['facets'])} facets != {self.facet_count(counts)}"
            for entry in obj["simplices"]:
                if entry["dim"] >= 0 and len(entry["faces"]) != entry["dim"] + 1:
                    return f"{entry['id']} lists {len(entry['faces'])} faces"
            return self._f_vector_problem(counts, obj["f_vector"], len(obj["simplices"]))
        if kind == "list":
            total = sum(entry["count"] for entry in obj["strata"])
            return None if total == m.total else f"strata census covers {total} of {m.total}"
        if kind == "nerve":
            active = sum(1 for c in counts if c > 0)
            if not obj["is_cone"] or len(obj["cover"]) != 2**active - 1:
                return "nerve is not a cone over the full cover"
            return None
        if kind in ("verify", "phi"):
            if obj["ok"] is not True:
                return "verify report is not ok"
            checks = obj["checks"]
            if "gg" in checks:
                want = 1 + sum(f * 3 ** (d + 1) for d, f in enumerate(m.f_vector))
                if checks["gg"]["instances"] != want:
                    return f"gg checked {checks['gg']['instances']} instances, expected {want}"
            if "schedule-bijection" in checks:
                sb = checks["schedule-bijection"]
                if sb["schedules"] != self.facet_count(counts) or sb["facets"] != m.facets:
                    return "schedule count differs from the layered-sequence count"
            return None
        if kind == "translation":
            active = sum(1 for c in counts if c > 0)
            if obj["gamma_strata"] != 3**active or obj["delta_strata"] != 2 ** len(counts) - 1:
                return f"translation maps certified {obj}"
            return None
        # collapse
        validation = obj["validation"]
        want = 0 if kind == "collapse-full" else m.remainder(op.pivot)
        if validation["ok"] is not True:
            return f"collapse validation failed: {validation['violation']}"
        if validation["remainder_size"] != want:
            return f"remainder {validation['remainder_size']} != {want}"
        steps = len(obj["steps"])
        if validation["checked_steps"] != steps or 2 * steps + want != m.total:
            return f"{steps} steps do not pair off {m.total - want} simplices"
        return None


def known_defect(reason: str | None) -> bool:
    return reason is not None and reason.startswith("known defect: ")
