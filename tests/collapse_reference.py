"""Slow reference for the collapse engine, by rescanning the residue.

This is the residue loop the library used before the worklist: every
elementary collapse re-sorts the whole pending set by ``(dim, encode())``
and takes the first simplex with exactly one remaining upper cover, that
cover still pending; failing that, it stalls.  Stage one and the phase loop
of the full collapse follow the library's, recursing through this module.
Every smaller complex is built whole, by ``_sub_builder(complex_)``, and
steps are translated back by ``rho`` and ``delta_inverse``, so comparing
the step sequences of :mod:`snapcomplex.collapse` with the ones here also
checks the library's derivation of only the removed part from the complex
in hand, and its inverse maps.
"""

from __future__ import annotations

import itertools
from typing import Callable

from snapcomplex.collapse import CollapseSequence, CollapseStep, _scan_label
from snapcomplex.complexes import Complex, _sub_builder
from snapcomplex.counters import RoundCounter
from snapcomplex.errors import CollapseStalledError
from snapcomplex.strata import delta_inverse, rho
from snapcomplex.witness import WitnessStructure

Builder = Callable[[RoundCounter], Complex]


def _scan_order(sigma: WitnessStructure) -> tuple[int, str]:
    return (sigma.dim, sigma.encode())


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

    if not active:
        # The complex is the full simplex on the (all-passive) support.
        free = WitnessStructure(((support - {pivot}, frozenset({pivot})),))
        top = WitnessStructure(((support, frozenset()),))
        return [CollapseStep(free, top, "stage3")]

    steps: list[CollapseStep] = []

    others = sorted(active - {pivot})
    pairs: list[tuple[frozenset[int], frozenset[int]]] = []
    for size in range(1, len(others) + 1):
        for sel in itertools.combinations(others, size):
            for a_size in range(size):
                for absorbed in itertools.combinations(sel, a_size):
                    pairs.append((frozenset(sel), frozenset(absorbed)))
    pairs.sort(key=lambda sa: (len(sa[1]), sorted(sa[0]), sorted(sa[1])))
    for sel, absorbed in pairs:
        sub_counter = counter.restrict(sel, absorbed)
        for step in _ctrb_steps(sub_counter, pivot, builder, memo):
            steps.append(
                CollapseStep(
                    rho(step.free, sel, absorbed),
                    rho(step.cofacet, sel, absorbed),
                    "stage1",
                )
            )
    removed = {s for step in steps for s in (step.free, step.cofacet)}

    complex_ = builder(counter)
    pending: set[WitnessStructure] = set()
    for sigma in complex_.simplices:
        if (
            sigma.t >= 1
            and not sigma.ghost_row(0)
            and pivot in (sigma.witness_row(1) | sigma.ghost_row(1))
        ):
            pending.add(sigma)
    if active == {pivot}:
        pending.add(WitnessStructure(((support - {pivot}, frozenset({pivot})),)))

    # Upper covers stand in for proper cofaces, as in validate_collapse.
    while pending:
        chosen: CollapseStep | None = None
        for sigma in sorted(pending, key=_scan_order):
            cofaces = [t for t in complex_.upper_covers(sigma) if t not in removed]
            if len(cofaces) == 1 and cofaces[0] in pending:
                chosen = CollapseStep(sigma, cofaces[0], _scan_label(sigma, pivot))
                break
        if chosen is None:
            raise CollapseStalledError(
                f"collapse stalled over {counter.to_text()!r} with "
                f"{len(pending)} simplices unmatched"
            )
        steps.append(chosen)
        removed.add(chosen.free)
        removed.add(chosen.cofacet)
        pending.discard(chosen.free)
        pending.discard(chosen.cofacet)
    return steps


def collapse_to_relative_boundary(complex_: Complex, pivot: int) -> CollapseSequence:
    if pivot not in complex_.counter.support:
        raise ValueError(f"pivot {pivot} is outside the support")
    memo: dict[tuple[RoundCounter, int], tuple[CollapseStep, ...]] = {}
    steps = _ctrb_steps(complex_.counter, pivot, _sub_builder(complex_), memo)
    return CollapseSequence(
        counter=complex_.counter, kind="relative-boundary", steps=steps, pivot=pivot
    )


def collapse_all(complex_: Complex) -> CollapseSequence:
    counter = complex_.counter
    support = counter.support
    if not support:
        raise ValueError("cannot collapse a complex over an empty counter")
    pivot = min(support)
    builder = _sub_builder(complex_)
    memo: dict[tuple[RoundCounter, int], tuple[CollapseStep, ...]] = {}
    steps: list[CollapseStep] = []
    rest = sorted(support - {pivot})
    phases = []
    for size in range(len(rest) + 1):
        for dropped in itertools.combinations(rest, size):
            phases.append(frozenset(dropped))
    for dropped in phases:
        for step in _ctrb_steps(counter.delete(dropped), pivot, builder, memo):
            if dropped:
                steps.append(
                    CollapseStep(
                        delta_inverse(step.free, dropped),
                        delta_inverse(step.cofacet, dropped),
                        "recursive",
                    )
                )
            else:
                steps.append(step)
    return CollapseSequence(counter=counter, kind="full", steps=tuple(steps), pivot=pivot)
