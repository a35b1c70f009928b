"""Slow reference for ghosting, through the trace form.

This is the trace-form route the library used before ``ghost`` became a
single pass over the pair form: convert to ``(active, ghost, traces)``,
restrict every trace at the cut, rebuild the pair form and drop the rows
with empty witness sets.  The tests compare :func:`snapcomplex.ghost`
against :func:`ghost` here.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from snapcomplex.witness import Classification, Row, WitnessStructure


@dataclass(frozen=True)
class TraceForm:
    """The ``(active, ghost, traces)`` presentation of a prestructure."""

    active: frozenset[int]
    ghost: frozenset[int]
    traces: Mapping[int, frozenset[int]]

    def last(self, p: int) -> int:
        """Largest row in which ``p`` is witnessed (-1 if never)."""
        tr = self.traces[p]
        if p in self.ghost:
            inner = tr - {max(tr)}
            return max(inner) if inner else -1
        return max(tr)


def ghost_union(sigma: WitnessStructure) -> frozenset[int]:
    """Processes ghosted in some row: the support less the active set."""
    return sigma.support - sigma.active_set


def to_trace_form(sigma: WitnessStructure) -> TraceForm:
    return TraceForm(sigma.active_set, ghost_union(sigma), sigma.traces())


def from_trace_form(tf: TraceForm) -> WitnessStructure:
    """Rebuild the pair form.  Inverse of :func:`to_trace_form` on stable
    prestructures.

    An active process occupies ``W_i`` for every trace entry ``i``; a ghost
    occupies ``G_m`` at its last trace entry ``m`` and ``W_i`` before that.
    """
    if tf.active & tf.ghost:
        raise ValueError(f"active and ghost sets overlap: {sorted(tf.active & tf.ghost)}")
    if set(tf.traces) != set(tf.active | tf.ghost):
        raise ValueError("traces must cover exactly the active and ghost processes")
    for p, tr in tf.traces.items():
        if 0 not in tr:
            raise ValueError(f"trace of process {p} does not contain round 0")
        if any(i < 0 for i in tr):
            raise ValueError(f"trace of process {p} has a negative round")
    top = max((max(tr) for tr in tf.traces.values()), default=0)
    witnesses: list[set[int]] = [set() for _ in range(top + 1)]
    ghosts: list[set[int]] = [set() for _ in range(top + 1)]
    for p in tf.active:
        for i in tf.traces[p]:
            witnesses[i].add(p)
    for p in tf.ghost:
        m = max(tf.traces[p])
        ghosts[m].add(p)
        for i in tf.traces[p]:
            if i < m:
                witnesses[i].add(p)
    return WitnessStructure(zip(witnesses, ghosts))


def canonical_form(sigma: WitnessStructure) -> WitnessStructure:
    """Drop rows with empty witness sets, merging their ghosts forward.

    Requires a stable prestructure; the result is a witness structure and
    the operation is the identity on witness structures.
    """
    if sigma.classification not in (Classification.STABLE, Classification.WITNESS):
        raise ValueError("canonical form is defined for stable prestructures only")
    keep = [i for i in range(1, sigma.t + 1) if sigma.witness_row(i)]
    rows: list[Row] = [sigma.rows[0]]
    prev = 0
    for k in keep:
        merged: frozenset[int] = frozenset()
        for j in range(prev + 1, k + 1):
            merged |= sigma.ghost_row(j)
        rows.append((sigma.witness_row(k), merged))
        prev = k
    return WitnessStructure(rows)


def stabilize(sigma: WitnessStructure, hide: Iterable[int]) -> WitnessStructure:
    """Ghost the processes in ``hide`` and truncate unwitnessed activity.

    ``hide`` must consist of active processes.  Rows are cut at the last row
    whose witness set is not absorbed by ``hide`` and the existing ghosts
    (round 0 when no such row remains), and every trace is restricted
    accordingly.  The result is a stable prestructure.
    """
    hide = frozenset(hide)
    if not hide <= sigma.active_set:
        raise ValueError(
            f"cannot ghost {sorted(hide - sigma.active_set)}: not active in the structure"
        )
    absorbed = hide | ghost_union(sigma)
    cut = max(
        (i for i in range(sigma.t + 1) if not sigma.witness_row(i) <= absorbed),
        default=0,
    )
    traces = sigma.traces()
    return from_trace_form(
        TraceForm(
            active=sigma.active_set - hide,
            ghost=ghost_union(sigma) | hide,
            traces={p: frozenset(i for i in tr if i <= cut) for p, tr in traces.items()},
        )
    )


def ghost(sigma: WitnessStructure, hide: Iterable[int]) -> WitnessStructure:
    """Stabilize modulo ``hide`` and take the canonical form.

    This realizes the face of ``sigma`` obtained by forgetting the views of
    the processes in ``hide``; the dimension drops by exactly ``len(hide)``.
    """
    return canonical_form(stabilize(sigma, hide))
