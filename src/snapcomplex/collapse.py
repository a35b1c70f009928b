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
visits is made only in that part.  That part is not built anew: it is
the γ or δ image of a class of the complex in hand (Kozlov,
*Combinatorial Algebraic Topology*, ch. 11), so it is derived from that
class once, and the same map, inverted, carries the smaller collapse's
steps back (see :func:`_carried`).  A derived complex lives only until
its own steps are known, and no smaller complex is ghosted or built.

The residue left after the translated classes holds the removed
simplices whose round-1 row holds the pivot, and those with one row,
which exist only when no process but the pivot is active.  It is matched
greedily by a free-face worklist (Benedetti–Lutz, "Random discrete Morse
theory", 2014): each pending simplex counts its upper covers not yet removed,
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
from typing import Iterable, Iterator, NamedTuple

from .complexes import Complex
from .counters import RoundCounter
from .errors import CollapseStalledError
from .schedules import _nonempty_subsets, _x_params
from .witness import (
    Masks,
    WitnessStructure,
    _delta,
    _filter_heads,
    _from_masks,
    _gamma,
    _head,
    _mask_of,
)


class CollapseStep(NamedTuple):
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


class CollapseSequence:
    """An ordered list of elementary collapses over one counter.  Two
    sequences are equal when their four fields are."""

    __slots__ = ("counter", "kind", "steps", "pivot")

    def __init__(
        self,
        counter: RoundCounter,
        kind: str,
        steps: tuple[CollapseStep, ...],
        pivot: int | None = None,
    ):
        self.counter = counter
        self.kind = kind
        self.steps = steps
        self.pivot = pivot

    def _key(self) -> tuple:
        return (self.counter, self.kind, self.steps, self.pivot)

    def __eq__(self, other: object) -> bool:
        if type(other) is not CollapseSequence:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"CollapseSequence(counter={self.counter!r}, kind={self.kind!r}, "
            f"steps=<{len(self.steps)} steps>, pivot={self.pivot!r})"
        )

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


# The steps of each smaller counter a collapse has visited; the pivot is
# that of the one collapse the memo serves.
Memo = dict[RoundCounter, tuple[CollapseStep, ...]]

# Simplices of a complex paired with the masks of their images under one
# γ or δ map.
Part = list[tuple[WitnessStructure, Masks]]


def _scan_label(sigma: WitnessStructure, pivot: int) -> str:
    """Stage tag for a residue pair, read off the free face's round-1 row."""
    _, _, w1, g1 = _head(sigma)
    return "stage2" if (w1 | g1) & ~(1 << pivot) else "stage3"


def _derived(counter: RoundCounter, part: Part, parent: Complex) -> Complex:
    """The complex of ``counter`` made of the images in ``part`` alone.

    Each image is validated once.  Its lower covers are those of its
    simplex in ``parent``, mapped and kept inside ``part``, in the same
    order, and its facets are its top-dimensional members.  This is the
    part of the complex of ``counter`` that a collapse removes when
    ``part`` is the whole preimage of that part under an isomorphism from
    a stratum of ``parent`` (see :func:`_carried`).
    """
    image = {sigma: _from_masks(m) for sigma, m in part}
    lower = {
        tau: tuple(t for t in map(image.get, parent.lower_covers(sigma)) if t is not None)
        for sigma, tau in image.items()
    }
    top = len(counter.support) - 1
    return Complex(counter, lower, [tau for tau in lower if tau.dim == top])


def _carried(
    counter: RoundCounter,
    pivot: int,
    part: Part,
    parent: Complex,
    stage: str,
    memo: Memo,
) -> list[CollapseStep]:
    """The collapse of ``counter`` towards ``pivot``, carried into ``parent``.

    ``part`` pairs each simplex of ``parent`` with the masks of its image
    under γ or δ, and the images are exactly the part of the complex of
    ``counter`` that this collapse removes.  The first visit of
    ``counter`` derives that part from ``parent`` and collapses it; every
    visit takes the steps back to ``parent`` through the inverse of
    ``part`` and tags them ``stage``.  The derived complex is dropped once
    its steps are known.
    """
    steps = memo.get(counter)
    if steps is None:
        steps = memo[counter] = tuple(
            _compute_ctrb(_derived(counter, part, parent), pivot, memo)
        )
    back = {m: sigma for sigma, m in part}
    return [CollapseStep(back[step.free], back[step.cofacet], stage) for step in steps]


def _round_one_classes(complex_: Complex, pivot: int) -> dict[Masks, list[WitnessStructure]]:
    """The simplices of ``complex_`` that a collapse towards ``pivot``
    removes, by ``(G_0, W_1 ∪ G_1, G_1)``, a missing round-1 row read as
    empty.  A simplex with one row is removed only when no process but
    the pivot is active: such a simplex ghosts every active process, and
    here it ghosts none but the pivot."""
    bit = 1 << pivot
    classes: dict[Masks, list[WitnessStructure]] = {}
    for sigma in complex_.simplices:
        if not sigma[1] & ~bit:
            _, g0, w1, g1 = _head(sigma)
            classes.setdefault((g0, w1 | g1, g1), []).append(sigma)
    return classes


def _restrictions(
    counter: RoundCounter, pivot: int, classes: dict[Masks, list[WitnessStructure]]
) -> Iterator[tuple[RoundCounter, Part]]:
    """Each ``counter.restrict(S, A)``, ``A ⊊ S ⊆ active∖{pivot}``, in the
    order stage one visits them, with its part: the simplices with
    ``W_1 ∪ G_1 = S`` and ``G_1 = A`` among ``classes``, and their γ_{S,A}
    images.  Those images are the part of the smaller complex that a
    collapse towards ``pivot`` removes.  γ_{S,A} keeps the row-0 ghosts
    outside ``A`` and adds the row-1 ghosts outside ``A``; unless row 1
    covers exactly ``S``, these take in all of ``S∖A``, which misses the
    pivot.  So the classes here are the members of ``X_{S,A}`` whose
    images keep their row-0 ghosts inside ``{pivot}``."""
    bit = 1 << pivot
    pairs = sorted(
        (sa for sa in _x_params(counter.active - {pivot}) if sa[1] != sa[0]),  # A ⊊ S
        key=lambda sa: (len(sa[1]), sorted(sa[0]), sorted(sa[1])),
    )
    for sel, absorbed in pairs:
        s_mask, a_mask = _mask_of(sel), _mask_of(absorbed)
        part = [
            (sigma, _gamma(sigma, s_mask, a_mask))
            for g0 in (0, bit)
            for sigma in classes.get((g0, s_mask, a_mask), ())
        ]
        yield counter.restrict(sel, absorbed), part


def _deletions(complex_: Complex, pivot: int) -> Iterator[tuple[RoundCounter, Part]]:
    """Each ``counter.delete(V)``, ``∅ ≠ V ⊆ supp∖{pivot}``, in the order of
    the phases of :func:`collapse_all`, with its part: the simplices of
    ``complex_`` whose row-0 ghosts are ``V`` or ``V ∪ {pivot}``, and
    their δ_V images, which are the part of the smaller complex that a
    collapse towards ``pivot`` removes."""
    counter = complex_.counter
    bit = 1 << pivot
    phases: dict[int, list[WitnessStructure]] = {}
    for sigma in complex_.simplices:
        if sigma[1] & ~bit:
            phases.setdefault(sigma[1] & ~bit, []).append(sigma)
    for dropped in map(frozenset, _nonempty_subsets(sorted(counter.support - {pivot}))):
        v = _mask_of(dropped)
        yield counter.delete(dropped), [(sigma, _delta(sigma, v)) for sigma in phases.pop(v, ())]


def _compute_ctrb(complex_: Complex, pivot: int, memo: Memo) -> list[CollapseStep]:
    """The steps that remove from ``complex_`` every simplex whose row-0
    ghosts lie in ``{pivot}``.  ``complex_`` need hold no more than those
    simplices; ``memo`` holds the steps of the smaller counters visited."""
    counter = complex_.counter
    if pivot not in counter.support:
        raise ValueError(f"pivot {pivot} is outside the support of {counter.to_text()!r}")
    bit = 1 << pivot
    classes = _round_one_classes(complex_, pivot)

    # Stage one: every simplex with a round-1 row that avoids the pivot is
    # removed by translating the same collapse from a smaller complex.
    # Classes are keyed by the exact round-1 row (witnesses S∖A, ghosts
    # A); a coface can only sit in a class with strictly fewer ghosts, so
    # running the pairs in order of |A| keeps every move legal.
    steps: list[CollapseStep] = []
    for sub_counter, part in _restrictions(counter, pivot, classes):
        steps += _carried(sub_counter, pivot, part, complex_, "stage1", memo)
    removed = {s for step in steps for s in (step.free, step.cofacet)}

    # Stage two: the residue, where the pivot itself shows up in round 1,
    # and the simplices with one row.
    pending = {
        sigma
        for (g0, row1, _), group in classes.items()
        if not row1 or (not g0 and row1 & bit)
        for sigma in group
    }

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
    runs dry.  Each smaller complex it visits on the way is derived from
    the one in hand, and holds only the part that the collapse removes.
    """
    if pivot not in complex_.counter.support:
        raise ValueError(f"pivot {pivot} is outside the support")
    steps = tuple(_compute_ctrb(complex_, pivot, {}))
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

    Simplices are matched in phases by their row-0 ghost set ``V`` minus
    the pivot; each phase replays the relative-boundary collapse of the
    complex with ``V`` deleted, whose removed part is the δ_V image of the
    phase.  Phases run smallest ghost set first, which keeps cofaces
    ahead of their faces.  Each smaller complex it visits is derived from
    the one in hand, as in :func:`collapse_to_relative_boundary`.
    """
    counter = complex_.counter
    support = counter.support
    if not support:
        raise ValueError("cannot collapse a complex over an empty counter")
    pivot = min(support)
    memo: Memo = {}
    steps = _compute_ctrb(complex_, pivot, memo)
    for sub_counter, part in _deletions(complex_, pivot):
        steps += _carried(sub_counter, pivot, part, complex_, "recursive", memo)
    return CollapseSequence(counter=counter, kind="full", steps=tuple(steps), pivot=pivot)


class ValidationReport(NamedTuple):
    """Outcome of replaying a collapse sequence move by move."""

    ok: bool
    checked_steps: int
    stage_counts: dict[str, int]
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
