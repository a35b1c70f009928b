"""Layered execution schedules and per-process views.

A schedule is an ordered sequence of nonempty concurrency classes; each
process must appear in exactly as many layers as its round count.  The
facet encoding and the view computation route through the witness-structure
machinery, which this module treats as the execution semantics.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, combinations, islice, repeat

from .counters import RoundCounter
from .errors import ComplexTooLargeError
from .witness import Masks, WitnessStructure, _bits, _from_masks, _mask_of, _MaskTable, ghost

Schedule = tuple[frozenset[int], ...]


def _subsets(items: Sequence) -> Iterator[tuple]:
    """Every subset of ``items``, by size, then lexicographically by
    position in ``items``; the empty one comes first.

    This is the package's one subset order: layer choices, strata
    parameters, collapse phases and certification loops all walk
    subsets in it, and :func:`_submasks` is the same order on masks, so
    their outputs list them alike.
    It is made of C iterators only, as :func:`_layer_choices` needs.
    """
    return chain.from_iterable(map(combinations, repeat(items), range(len(items) + 1)))


def _nonempty_subsets(items: Sequence) -> Iterator[tuple]:
    """:func:`_subsets` without the empty one."""
    return islice(_subsets(items), 1, None)


def _submasks(mask: int) -> tuple[int, ...]:
    """Every submask of ``mask``, in the order of :func:`_subsets` of its
    ids: ``0`` first and ``mask`` last.  Read them from ``_SUBMASKS``,
    which makes each once."""
    return tuple(map(sum, _subsets([1 << p for p in _bits(mask)])))


_SUBMASKS: dict[int, tuple[int, ...]] = _MaskTable(_submasks)


def _x_params(mask: int) -> list[tuple[int, int]]:
    """Every parameter pair ``(S, A)`` of a stratum ``X_{S,A}`` with
    ``A ⊆ S ⊆ mask``, as masks: by ``S``, then by ``A``, each in the order
    of :func:`_submasks`.  ``(0, 0)`` comes first."""
    return [(s, a) for s in _SUBMASKS[mask] for a in _SUBMASKS[s]]


def is_valid_schedule(s: Sequence[frozenset[int]], r: RoundCounter) -> bool:
    if any(not layer for layer in s):
        return False
    if any(not layer <= r.active for layer in s):
        return False
    return all(sum(1 for layer in s if p in layer) == r[p] for p in r.support)


def _layer_choices(remaining: dict[int, int]) -> Iterator[frozenset[int]]:
    """The possible next layers: nonempty sets of processes with rounds left,
    by size, then lexicographically.

    The search keeps one of these per layer on its stack.  Neither making
    nor freeing one suspends a Python generator: freeing a suspended
    generator runs its frame, which allocates, so a search that runs out
    of memory could not unwind cleanly to the CLI's exit-3 report."""
    live = sorted([p for p, c in remaining.items() if c > 0])
    return map(frozenset, _nonempty_subsets(live))


def _walk(remaining: dict[int, int]) -> Iterator[Schedule]:
    """Depth-first search with an explicit stack of layer choices, so the
    schedule length is not bounded by the interpreter's recursion limit."""
    if not any(remaining.values()):
        yield ()
        return
    prefix: list[frozenset[int]] = []
    stack = [_layer_choices(remaining)]
    while stack:
        layer = next(stack[-1], None)
        if layer is None:
            stack.pop()
            if prefix:
                for p in prefix.pop():
                    remaining[p] += 1
            continue
        for p in layer:
            remaining[p] -= 1
        prefix.append(layer)
        if not any(remaining.values()):
            yield tuple(prefix)
        stack.append(_layer_choices(remaining))


def enumerate_schedules(
    r: RoundCounter, *, max_schedules: int | None = None
) -> Iterator[Schedule]:
    """Yield every layered schedule of ``r`` (left to right, with
    remaining-multiplicity pruning).  Raises :class:`ComplexTooLargeError`
    once more than ``max_schedules`` have been produced, and up front if
    the total rounds, the most layers a schedule (and so the search
    stack) can have, exceed ``max_schedules``."""
    if max_schedules is not None and r.cardinality > max_schedules:
        raise ComplexTooLargeError(max_schedules, "round budget")
    for produced, schedule in enumerate(_walk(dict(r)), start=1):
        if max_schedules is not None and produced > max_schedules:
            raise ComplexTooLargeError(max_schedules, "schedule cap")
        yield schedule


def to_facet(s: Sequence[frozenset[int]], r: RoundCounter) -> WitnessStructure:
    """The facet indexed by a schedule: full support in row 0, one witness
    row per layer."""
    if not is_valid_schedule(tuple(s), r):
        raise ValueError("not a valid schedule for the counter")
    return _from_masks(_facet(_mask_of(r), s))


def _facet(support: int, s: Sequence[frozenset[int]]) -> Masks:
    """The mask rows of :func:`to_facet` of a schedule already known to be
    valid, given the support mask, not yet validated: its process ids need
    no further check."""
    out = [support, 0]
    for layer in s:
        out += (sum(1 << p for p in layer), 0)
    return tuple(out)


def views(s: Sequence[frozenset[int]], r: RoundCounter) -> dict[int, WitnessStructure]:
    """The vertex seen by each process after executing the schedule.

    The view of ``p`` is the color-``p`` vertex of the schedule's facet,
    i.e. the facet with every other process ghosted.
    """
    return _views(to_facet(s, r))


def _views(sigma: WitnessStructure) -> dict[int, WitnessStructure]:
    """The vertex of each color of ``sigma``: ``sigma`` with every other
    color ghosted.  On the facet of a schedule, these are its :func:`views`."""
    active = sigma.active_set
    return {p: ghost(sigma, active - {p}) for p in active}

