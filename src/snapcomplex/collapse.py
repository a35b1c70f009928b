"""Discrete collapses of snapshot complexes.

The central routine removes, pair by pair, every simplex whose row-0
ghosts are ``∅`` or ``{pivot}``; what survives is the part of the
boundary not facing the pivot.  The removal order is organised around
the fact that a coface never has more row-0 ghosts than its faces, so
classes with fewer absorbed processes can always go first.  A full
collapse of the whole complex replays that routine once per row-0 ghost
set, from the top facets all the way down to the final vertex.  The same
fact makes the removed part of a complex closed upward, so it holds every
upper cover the residue reads, and each smaller complex the recursion
visits is built only in that part (see
:func:`~snapcomplex.complexes._sub_builder`).

The residue left after the translated classes is matched greedily by a
free-face worklist (Benedetti–Lutz, "Random discrete Morse theory",
2014): each pending simplex counts its upper covers not yet removed,
and a simplex whose count reaches one is pushed onto a heap keyed by
``(dim, encode())``, which yields the least simplex whose one remaining
cover is itself pending.  Counts only fall and the pending set only
shrinks, so an entry that has gone stale stays stale and is dropped when
it surfaces.  The first live entry is then the pair a full scan of the
residue in that order would pick, and each step costs O(log n)
amortised.  A residue simplex whose one remaining cover lies outside the
residue cannot be paired: that cover is a simplex the collapse must
keep, or one a later phase removes.  When the heap runs dry with
simplices pending, the collapse raises :class:`CollapseStalledError`.

Every sequence produced here can be replayed and checked move by move
with :func:`validate_collapse`.
"""

from __future__ import annotations

import heapq
from collections import Counter as Multiset
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .complexes import Complex, _sub_builder
from .counters import RoundCounter
from .errors import CollapseStalledError
from .schedules import _subsets
from .strata import _delta_inverse, _rho, _x_params
from .witness import WitnessStructure, _filter_heads, _from_rows, _head, _mask_of

Builder = Callable[[RoundCounter], Complex]


@dataclass(frozen=True)
class CollapseStep:
    """One elementary collapse: drop ``free`` together with ``cofacet``."""

    free: WitnessStructure
    cofacet: WitnessStructure
    stage: str

    def to_json_obj(self) -> dict:
        return {
            "free": self.free.encode(),
            "cofacet": self.cofacet.encode(),
            "stage": self.stage,
        }


@dataclass(frozen=True)
class CollapseSequence:
    """An ordered list of elementary collapses over one counter."""

    counter: RoundCounter
    kind: str
    steps: tuple[CollapseStep, ...]
    pivot: int | None = None

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def stage_counts(self) -> dict[str, int]:
        counts: Multiset[str] = Multiset(step.stage for step in self.steps)
        return dict(sorted(counts.items()))

    @property
    def fallback_count(self) -> int:
        """Steps tagged ``greedy-fallback``; this module's engine makes none."""
        return sum(1 for step in self.steps if step.stage == "greedy-fallback")

    def to_json_obj(self) -> dict:
        return {
            "counter": self.counter.to_json_obj(),
            "kind": self.kind,
            "pivot": self.pivot,
            "stage_counts": self.stage_counts,
            "steps": [step.to_json_obj() for step in self.steps],
        }


def _scan_label(sigma: WitnessStructure, pivot: int) -> str:
    """Stage tag for a residue pair, read off the free face's round-1 row."""
    _, _, w1, g1 = _head(sigma)
    return "stage2" if (w1 | g1) & ~(1 << pivot) else "stage3"


def _ctrb_steps(
    counter: RoundCounter,
    pivot: int,
    builder: Builder,
    memo: dict[tuple[RoundCounter, int], tuple[CollapseStep, ...]],
) -> tuple[CollapseStep, ...]:
    key = (counter, pivot)
    if key not in memo:
        memo[key] = tuple(_compute_ctrb(counter, pivot, builder, memo))
    return memo[key]


def _compute_ctrb(
    counter: RoundCounter,
    pivot: int,
    builder: Builder,
    memo: dict[tuple[RoundCounter, int], tuple[CollapseStep, ...]],
) -> list[CollapseStep]:
    support = counter.support
    if pivot not in support:
        raise ValueError(f"pivot {pivot} is outside the support of {counter.to_text()!r}")
    active = counter.active
    everyone, bit = _mask_of(support), 1 << pivot

    if not active:
        # The complex is the full simplex on the (all-passive) support.
        free = _from_rows([(everyone ^ bit, bit)])
        top = _from_rows([(everyone, 0)])
        return [CollapseStep(free, top, "stage3")]

    steps: list[CollapseStep] = []

    # Stage one: everything whose round-1 row avoids the pivot is removed
    # by translating the same collapse from a smaller complex.  Classes
    # are keyed by the exact round-1 row (witnesses S∖A, ghosts A); a
    # coface can only sit in a class with strictly fewer ghosts, so
    # running the pairs in order of |A| keeps every move legal.
    pairs = sorted(
        (sa for sa in _x_params(active - {pivot}) if sa[1] != sa[0]),  # A ⊊ S
        key=lambda sa: (len(sa[1]), sorted(sa[0]), sorted(sa[1])),
    )
    for sel, absorbed in pairs:
        sub_counter = counter.restrict(sel, absorbed)
        s_mask, a_mask = _mask_of(sel), _mask_of(absorbed)
        for step in _ctrb_steps(sub_counter, pivot, builder, memo):
            steps.append(
                CollapseStep(
                    _rho(step.free, s_mask, a_mask),
                    _rho(step.cofacet, s_mask, a_mask),
                    "stage1",
                )
            )
    removed = {s for step in steps for s in (step.free, step.cofacet)}

    # Stage two: the residue, where the pivot itself shows up in round 1.
    complex_ = builder(counter)
    pending = set(
        _filter_heads(
            complex_.simplices, lambda w0, g0, w1, g1: not g0 and (w1 | g1) & bit
        )
    )
    if active == {pivot}:
        pending.add(_from_rows([(everyone ^ bit, bit)]))

    # Upper covers stand in for proper cofaces, as in validate_collapse.
    # live[σ] counts the upper covers of σ not yet removed; a simplex with
    # exactly one is offered to the heap, keyed by (dim, encode()).
    live: dict[WitnessStructure, int] = {}
    heap: list[tuple[int, str, WitnessStructure]] = []

    def offer(sigma: WitnessStructure) -> None:
        heapq.heappush(heap, (sigma.dim, sigma.encode(), sigma))

    for sigma in pending:
        live[sigma] = sum(1 for t in complex_.upper_covers(sigma) if t not in removed)
        if live[sigma] == 1:
            offer(sigma)

    def free_coface(sigma: WitnessStructure) -> WitnessStructure:
        return next(t for t in complex_.upper_covers(sigma) if t not in removed)

    while pending:
        chosen: CollapseStep | None = None
        # A stale entry stays stale (see the module docstring), so every
        # entry popped is either used or dropped for good.
        while heap and chosen is None:
            sigma = heapq.heappop(heap)[2]
            if sigma in pending and live[sigma] == 1:
                coface = free_coface(sigma)
                if coface in pending:
                    chosen = CollapseStep(sigma, coface, _scan_label(sigma, pivot))
        if chosen is None:
            raise CollapseStalledError(
                f"collapse stalled over {counter.to_text()!r} with "
                f"{len(pending)} simplices unmatched"
            )
        steps.append(chosen)
        for gone in (chosen.free, chosen.cofacet):
            pending.discard(gone)
            removed.add(gone)
            for face in complex_.lower_covers(gone):
                if face in pending:
                    live[face] -= 1
                    if live[face] == 1:
                        offer(face)
    return steps


def collapse_to_relative_boundary(complex_: Complex, pivot: int) -> CollapseSequence:
    """Collapse away every simplex whose row-0 ghosts are ``∅`` or ``{pivot}``.

    The survivors form the boundary minus the open star of the
    pivot-facing side: exactly the simplices with some other row-0
    ghost.  Raises :class:`CollapseStalledError` if the residue worklist
    runs dry.  The smaller complexes it builds on the way are bounded by
    ``complex_``, and each holds only the part that this collapse removes
    (see :func:`~snapcomplex.complexes._sub_builder`).
    """
    if pivot not in complex_.counter.support:
        raise ValueError(f"pivot {pivot} is outside the support")
    memo: dict[tuple[RoundCounter, int], tuple[CollapseStep, ...]] = {}
    steps = _ctrb_steps(complex_.counter, pivot, _sub_builder(complex_, pivot), memo)
    return CollapseSequence(
        counter=complex_.counter, kind="relative-boundary", steps=steps, pivot=pivot
    )


def relative_boundary_remainder(
    complex_: Complex, pivot: int
) -> frozenset[WitnessStructure]:
    """The simplices :func:`collapse_to_relative_boundary` must leave behind."""
    others = ~(1 << pivot)
    return _filter_heads(complex_.simplices, lambda w0, g0, w1, g1: g0 & others)


def collapse_all(complex_: Complex) -> CollapseSequence:
    """Collapse the whole complex, empty simplex included, to nothing.

    Simplices are matched in phases by their row-0 ghost set minus the
    pivot; each phase replays the relative-boundary collapse of the
    complex with those ghosts deleted.  Phases run smallest ghost set
    first, which keeps cofaces ahead of their faces.  The smaller
    complexes it builds on the way are bounded by ``complex_`` and hold
    only the part they lose, as in :func:`collapse_to_relative_boundary`.
    """
    counter = complex_.counter
    support = counter.support
    if not support:
        raise ValueError("cannot collapse a complex over an empty counter")
    pivot = min(support)
    builder = _sub_builder(complex_, pivot)
    memo: dict[tuple[RoundCounter, int], tuple[CollapseStep, ...]] = {}
    steps: list[CollapseStep] = []
    for dropped in map(frozenset, _subsets(sorted(support - {pivot}))):
        v = _mask_of(dropped)
        for step in _ctrb_steps(counter.delete(dropped), pivot, builder, memo):
            if dropped:
                steps.append(
                    CollapseStep(
                        _delta_inverse(step.free, v),
                        _delta_inverse(step.cofacet, v),
                        "recursive",
                    )
                )
            else:
                steps.append(step)
    return CollapseSequence(counter=counter, kind="full", steps=tuple(steps), pivot=pivot)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of replaying a collapse sequence move by move."""

    ok: bool
    checked_steps: int
    stage_counts: dict[str, int] = field(default_factory=dict)
    remainder: frozenset[WitnessStructure] = frozenset()
    violation: str | None = None

    def to_json_obj(self) -> dict:
        return {
            "ok": self.ok,
            "checked_steps": self.checked_steps,
            "stage_counts": dict(sorted(self.stage_counts.items())),
            "remainder_size": len(self.remainder),
            "violation": self.violation,
        }


def validate_collapse(
    complex_: Complex,
    sequence: CollapseSequence,
    expected_remainder: Iterable[WitnessStructure] | None = None,
) -> ValidationReport:
    """Replay ``sequence`` on ``complex_`` and check every move.

    A move is legal when the free face is still present with the stated
    cofacet as its one remaining proper coface, one dimension up and
    maximal.  If ``expected_remainder`` is given the survivors must
    match it exactly.

    The remaining set starts as the whole complex and each legal move
    removes a free pair, so it stays closed under faces.  Then "one
    remaining proper coface" is "one remaining upper cover" (which is
    one dimension up by definition), and "maximal" is "no remaining
    upper cover".
    """
    remaining = set(complex_.simplices)
    counts: Multiset[str] = Multiset()

    def failure(index: int, message: str) -> ValidationReport:
        return ValidationReport(
            ok=False,
            checked_steps=index,
            stage_counts=dict(counts),
            remainder=frozenset(remaining),
            violation=f"step {index}: {message}",
        )

    for index, step in enumerate(sequence.steps):
        free, cofacet = step.free, step.cofacet
        if free not in remaining:
            return failure(index, f"free face {free.encode()} is not present")
        if cofacet not in remaining:
            return failure(index, f"cofacet {cofacet.encode()} is not present")
        live = [t for t in complex_.upper_covers(free) if t in remaining]
        if live != [cofacet]:
            return failure(
                index,
                f"{free.encode()} has {len(live)} remaining cofaces, "
                f"expected exactly {cofacet.encode()}",
            )
        if any(t in remaining for t in complex_.upper_covers(cofacet)):
            return failure(index, f"cofacet {cofacet.encode()} is not maximal")
        remaining.discard(free)
        remaining.discard(cofacet)
        counts[step.stage] += 1

    if expected_remainder is not None:
        expected = frozenset(expected_remainder)
        if frozenset(remaining) != expected:
            extra = sorted(s.encode() for s in remaining - expected)[:3]
            missing = sorted(s.encode() for s in expected - remaining)[:3]
            return ValidationReport(
                ok=False,
                checked_steps=len(sequence.steps),
                stage_counts=dict(counts),
                remainder=frozenset(remaining),
                violation=f"remainder mismatch: unexpected {extra}, missing {missing}",
            )
    return ValidationReport(
        ok=True,
        checked_steps=len(sequence.steps),
        stage_counts=dict(counts),
        remainder=frozenset(remaining),
        violation=None,
    )
