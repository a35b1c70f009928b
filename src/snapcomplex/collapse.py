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
steps back (see :func:`_carried`).

The engine runs on simplex numbers end to end.  The complex in hand is
read through its numbering (:class:`~snapcomplex.complexes.Complex`),
and a derived part is numbered by its own list: the validated masks of
its images and their cover rows, with no structure made for it.  A
derived part lives only until its own steps are known; the memo keeps
those steps as mask pairs, which the inverse map takes back to the
numbers of the complex in hand.  :class:`CollapseStep` and
:class:`CollapseSequence` are made once, at the end.

The residue left after the translated classes holds the removed
simplices whose round-1 row holds the pivot, and those with one row,
which exist only when no process but the pivot is active.  It is matched
greedily by a free-face worklist (Benedetti–Lutz, "Random discrete Morse
theory", 2014): each pending simplex counts its upper covers not yet removed,
and a simplex whose count reaches one is pushed onto a heap keyed by
``(dim, encode(), number)``, which yields the least simplex whose one
remaining cover is itself pending; the number only carries the simplex,
since encodings differ.  Counts only fall and the pending set only
shrinks, so an entry that has gone stale stays stale and is dropped when
it surfaces.  The first live entry is then the pair a full scan of the
residue in that order would pick, and each step costs O(log n)
amortised.  A residue simplex whose one remaining cover lies outside the
residue cannot be paired: that cover is a simplex the collapse must
keep, or one a later phase removes.  When the heap runs dry with
simplices pending, the collapse raises :class:`CollapseStalledError`.

Every sequence produced here can be replayed and checked move by move
with :func:`validate_collapse`, which replays it on the numbers too.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter as Multiset
from typing import Iterable, Iterator, NamedTuple, Sequence

from .complexes import Complex
from .counters import RoundCounter
from .errors import CollapseStalledError
from .schedules import _SUBMASKS, _x_params
from .witness import (
    Masks,
    WitnessStructure,
    _active_mask,
    _bits,
    _delta,
    _gamma,
    _head,
    _mask_of,
    _validated,
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
        return {**self._summary_json(), "steps": [step.to_json_obj() for step in self.steps]}

    def _summary_json(self) -> dict:
        """:meth:`to_json_obj` without its ``"steps"``."""
        return {
            "counter": self.counter.to_json_obj(),
            "kind": self.kind,
            "pivot": self.pivot,
            "stage_counts": self.stage_counts,
        }


class _Part(NamedTuple):
    """A numbered complex that a collapse works on: the masks of each
    simplex by number, and the lower covers of each as a row of numbers.
    It is a whole :class:`Complex`, or the part of a smaller complex that
    a collapse removes, derived from a class of its parent."""

    counter: RoundCounter
    masks: Sequence[Masks]
    lower: Sequence[Sequence[int]]


# A step by numbers: (free, cofacet, stage).
Step = tuple[int, int, str]

# The steps of each smaller counter a collapse has visited, as mask pairs
# (free, cofacet); the pivot is that of the one collapse the memo serves.
Memo = dict[RoundCounter, tuple[tuple[Masks, Masks], ...]]

# Simplex numbers of a part paired with the masks of their images under
# one γ or δ map.
Pairs = list[tuple[int, Masks]]


def _whole(complex_: Complex) -> _Part:
    """``complex_`` as a part, in its own numbering; numbers past its
    simplices name covers outside it, which no collapse removes."""
    masks = complex_._simplices[: len(complex_)]
    return _Part(complex_.counter, masks, complex_._lower)


def _sequence(
    complex_: Complex, kind: str, steps: list[Step], pivot: int
) -> CollapseSequence:
    """The sequence of the numbered ``steps`` on ``complex_``."""
    simplices = complex_._simplices
    return CollapseSequence(
        counter=complex_.counter,
        kind=kind,
        steps=tuple(CollapseStep(simplices[f], simplices[c], stage) for f, c, stage in steps),
        pivot=pivot,
    )


def _scan_label(sigma: Masks, pivot: int) -> str:
    """Stage tag for a residue pair, read off the free face's round-1 row."""
    _, _, w1, g1 = _head(sigma)
    return "stage2" if (w1 | g1) & ~(1 << pivot) else "stage3"


def _derived(counter: RoundCounter, pairs: Pairs, parent: _Part) -> _Part:
    """The part of the complex of ``counter`` made of the images in
    ``pairs``, numbered in their order.

    Each image is validated once.  Its lower covers are those of its
    simplex in ``parent``, mapped and kept inside ``pairs``, in the same
    order.  This is the part of the complex of ``counter`` that a collapse
    removes when ``pairs`` is the whole preimage of that part under an
    isomorphism from a stratum of ``parent`` (see :func:`_carried`).
    """
    local = {i: n for n, (i, _) in enumerate(pairs)}
    find, parent_lower = local.get, parent.lower
    lower = [
        [n for n in map(find, parent_lower[i]) if n is not None] for i, _ in pairs
    ]
    return _Part(counter, [_validated(m) for _, m in pairs], lower)


def _carried(
    counter: RoundCounter, pivot: int, pairs: Pairs, parent: _Part, memo: Memo
) -> list[tuple[int, int]]:
    """The collapse of ``counter`` towards ``pivot``, carried into ``parent``.

    ``pairs`` pairs simplices of ``parent`` with the masks of their images
    under γ or δ, and the images are exactly the part of the complex of
    ``counter`` that this collapse removes.  The first visit of
    ``counter`` derives that part from ``parent``, collapses it and keeps
    its steps as mask pairs; every visit takes them back to ``parent``'s
    numbers through the inverse of ``pairs``.  The derived part is dropped
    once its steps are known.
    """
    steps = memo.get(counter)
    if steps is None:
        part = _derived(counter, pairs, parent)
        masks = part.masks
        steps = memo[counter] = tuple(
            (masks[f], masks[c]) for f, c, _ in _compute_ctrb(part, pivot, memo)
        )
    back = {m: i for i, m in pairs}
    return [(back[f], back[c]) for f, c in steps]


def _round_one_classes(masks: Sequence[Masks], pivot: int) -> dict[Masks, list[int]]:
    """The numbers of the simplices that a collapse towards ``pivot``
    removes, by ``(G_0, W_1 ∪ G_1, G_1)``, a missing round-1 row read as
    empty.  A simplex with one row is removed only when no process but
    the pivot is active: such a simplex ghosts every active process, and
    here it ghosts none but the pivot."""
    bit = 1 << pivot
    classes: dict[Masks, list[int]] = {}
    for i, sigma in enumerate(masks):
        g0 = sigma[1]
        if not g0 & ~bit:
            key = (g0, sigma[2] | sigma[3], sigma[3]) if len(sigma) > 2 else (g0, 0, 0)
            classes.setdefault(key, []).append(i)
    return classes


def _restrictions(
    part: _Part, pivot: int, classes: dict[Masks, list[int]]
) -> Iterator[tuple[RoundCounter, Pairs]]:
    """Each ``counter.restrict(S, A)``, ``A ⊊ S ⊆ active∖{pivot}``, in the
    order stage one visits them, with its pairs: the simplices with
    ``W_1 ∪ G_1 = S`` and ``G_1 = A`` among ``classes``, and their γ_{S,A}
    images.  Those images are the part of the smaller complex that a
    collapse towards ``pivot`` removes.  γ_{S,A} keeps the row-0 ghosts
    outside ``A`` and adds the row-1 ghosts outside ``A``; unless row 1
    covers exactly ``S``, these take in all of ``S∖A``, which misses the
    pivot.  So the classes here are the members of ``X_{S,A}`` whose
    images keep their row-0 ghosts inside ``{pivot}``."""
    counter, masks = part.counter, part.masks
    bit = 1 << pivot
    pairs = sorted(
        (sa for sa in _x_params(_mask_of(counter.active) & ~bit) if sa[1] != sa[0]),  # A ⊊ S
        key=lambda sa: (sa[1].bit_count(), _bits(sa[0]), _bits(sa[1])),
    )
    for s, a in pairs:
        chosen = [
            (i, _gamma(masks[i], s, a)) for g0 in (0, bit) for i in classes.get((g0, s, a), ())
        ]
        yield counter.restrict(_bits(s), _bits(a)), chosen


def _deletions(part: _Part, pivot: int) -> Iterator[tuple[RoundCounter, Pairs]]:
    """Each ``counter.delete(V)``, ``∅ ≠ V ⊆ supp∖{pivot}``, in the order of
    the phases of :func:`collapse_all`, with its pairs: the simplices of
    ``part`` whose row-0 ghosts are ``V`` or ``V ∪ {pivot}``, and their
    δ_V images, which are the part of the smaller complex that a collapse
    towards ``pivot`` removes."""
    counter = part.counter
    bit = 1 << pivot
    phases: dict[int, list[int]] = {}
    for i, sigma in enumerate(part.masks):
        if sigma[1] & ~bit:
            phases.setdefault(sigma[1] & ~bit, []).append(i)
    masks = part.masks
    for v in _SUBMASKS[_mask_of(counter.support) & ~bit][1:]:
        yield counter.delete(_bits(v)), [(i, _delta(masks[i], v)) for i in phases.pop(v, ())]


def _compute_ctrb(part: _Part, pivot: int, memo: Memo) -> list[Step]:
    """The steps, by number, that remove from ``part`` every simplex whose
    row-0 ghosts lie in ``{pivot}``.  ``part`` need hold no more than those
    simplices; ``memo`` holds the steps of the smaller counters visited."""
    counter = part.counter
    if pivot not in counter.support:
        raise ValueError(f"pivot {pivot} is outside the support of {counter.to_text()!r}")
    bit = 1 << pivot
    masks, lower = part.masks, part.lower
    classes = _round_one_classes(masks, pivot)

    # Stage one: every simplex with a round-1 row that avoids the pivot is
    # removed by translating the same collapse from a smaller complex.
    # Classes are keyed by the exact round-1 row (witnesses S∖A, ghosts
    # A); a coface can only sit in a class with strictly fewer ghosts, so
    # running the pairs in order of |A| keeps every move legal.
    steps: list[Step] = []
    for sub_counter, pairs in _restrictions(part, pivot, classes):
        steps += [(f, c, "stage1") for f, c in _carried(sub_counter, pivot, pairs, part, memo)]

    # Stage two: the residue, where the pivot itself shows up in round 1,
    # and the simplices with one row.
    residue = [
        i
        for (g0, row1, _), group in classes.items()
        if not row1 or (not g0 and row1 & bit)
        for i in group
    ]
    pending = bytearray(len(masks))
    for i in residue:
        pending[i] = 1

    # Upper covers stand in for proper cofaces, as in validate_collapse.
    # The removed part is closed upward, so every upper cover of a residue
    # simplex not yet removed is in the residue, and the residue's lower
    # rows list them all.  live[i] counts them, and other[i] is the XOR
    # of their numbers: the one left when live[i] is 1.  A simplex with
    # exactly one is offered to the heap, keyed by (dim, encode(), number).
    live = dict.fromkeys(residue, 0)
    other = dict.fromkeys(residue, 0)
    for t in residue:
        for face in lower[t]:
            if pending[face]:
                live[face] += 1
                other[face] ^= t
    heap: list[tuple[int, str, int]] = []

    def offer(i: int) -> None:
        m = masks[i]
        heapq.heappush(heap, (_active_mask(m).bit_count(), WitnessStructure.encode(m), i))

    for i in residue:
        if live[i] == 1:
            offer(i)

    left = len(residue)
    while left:
        chosen: tuple[int, int] | None = None
        # A stale entry stays stale (see the module docstring), so every
        # entry popped is either used or dropped for good.
        while heap and chosen is None:
            i = heapq.heappop(heap)[2]
            if pending[i] and live[i] == 1:
                chosen = (i, other[i])
        if chosen is None:
            raise CollapseStalledError(
                f"collapse stalled over {counter.to_text()!r} with "
                f"{left} simplices unmatched"
            )
        steps.append((*chosen, _scan_label(masks[chosen[0]], pivot)))
        for gone in chosen:
            pending[gone] = 0
            left -= 1
            for face in lower[gone]:
                if pending[face]:
                    live[face] -= 1
                    other[face] ^= gone
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
    steps = _compute_ctrb(_whole(complex_), pivot, {})
    return _sequence(complex_, "relative-boundary", steps, pivot)


def relative_boundary_remainder(
    complex_: Complex, pivot: int
) -> frozenset[WitnessStructure]:
    """The simplices :func:`collapse_to_relative_boundary` must leave behind."""
    others = ~(1 << pivot)
    return frozenset(sigma for sigma in complex_.simplices if sigma[1] & others)


def collapse_all(complex_: Complex) -> CollapseSequence:
    """Collapse the whole complex, empty simplex included, to nothing.

    Simplices are matched in phases by their row-0 ghost set ``V`` minus
    the pivot; each phase replays the relative-boundary collapse of the
    complex with ``V`` deleted, whose removed part is the δ_V image of the
    phase.  Phases run smallest ghost set first, which keeps cofaces
    ahead of their faces.  Each smaller complex it visits is derived from
    the one in hand, as in :func:`collapse_to_relative_boundary`.
    """
    support = complex_.counter.support
    if not support:
        raise ValueError("cannot collapse a complex over an empty counter")
    pivot = min(support)
    memo: Memo = {}
    whole = _whole(complex_)
    steps = _compute_ctrb(whole, pivot, memo)
    for sub_counter, pairs in _deletions(whole, pivot):
        steps += [(f, c, "recursive") for f, c in _carried(sub_counter, pivot, pairs, whole, memo)]
    return _sequence(complex_, "full", steps, pivot)


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
    upper cover".  The replay runs on simplex numbers and reads only the
    lower covers: it keeps each simplex's count of remaining upper covers,
    and the cofacet's lower covers say whether it covers the free face.
    """
    simplices, number, lower = complex_._simplices, complex_._number, complex_._lower
    # Numbers past the simplices name covers outside the complex.
    remaining = bytearray(len(simplices))
    remaining[: len(number)] = b"\x01" * len(number)
    # live[i]: the remaining upper covers of simplex i.
    live = [0] * len(simplices)
    for face in lower.flat:
        live[face] += 1
    counts: Multiset[str] = Multiset()

    def rest() -> frozenset[WitnessStructure]:
        return frozenset(itertools.compress(simplices, remaining))

    def failure(index: int, message: str) -> ValidationReport:
        return ValidationReport(
            ok=False,
            checked_steps=index,
            stage_counts=dict(counts),
            remainder=rest(),
            violation=f"step {index}: {message}",
        )

    for index, step in enumerate(sequence.steps):
        free, cofacet = number.get(step.free), number.get(step.cofacet)
        if free is None or not remaining[free]:
            return failure(index, f"free face {step.free.encode()} is not present")
        if cofacet is None or not remaining[cofacet]:
            return failure(index, f"cofacet {step.cofacet.encode()} is not present")
        faces = lower[cofacet]
        if live[free] != 1 or free not in faces:
            return failure(
                index,
                f"{step.free.encode()} has {live[free]} remaining cofaces, "
                f"expected exactly {step.cofacet.encode()}",
            )
        if live[cofacet]:
            return failure(index, f"cofacet {step.cofacet.encode()} is not maximal")
        remaining[free] = remaining[cofacet] = 0
        for face in itertools.chain(lower[free], faces):
            live[face] -= 1
        counts[step.stage] += 1

    survivors = rest()
    violation = None
    if expected_remainder is not None:
        expected = frozenset(expected_remainder)
        if survivors != expected:
            extra = sorted(s.encode() for s in survivors - expected)[:3]
            missing = sorted(s.encode() for s in expected - survivors)[:3]
            violation = f"remainder mismatch: unexpected {extra}, missing {missing}"
    return ValidationReport(
        ok=violation is None,
        checked_steps=len(sequence.steps),
        stage_counts=dict(counts),
        remainder=survivors,
        violation=violation,
    )
