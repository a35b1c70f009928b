"""Slow reference for the build, by validating every generated face.

This is the closure loop the library used before faces were looked up by
their masks: every face ``ghost(σ,{p})`` of every stored simplex is made
and validated as a :class:`WitnessStructure`, then dropped if an equal one
is already stored.  The tests compare :func:`snapcomplex.build` against
:func:`build` here.
"""

from __future__ import annotations

from snapcomplex.complexes import Complex, Covers, facet_structures
from snapcomplex.counters import RoundCounter
from snapcomplex.witness import WitnessStructure, _active_mask, _bits, _from_masks, _ghost


def build(r: RoundCounter) -> Complex:
    known: dict[WitnessStructure, WitnessStructure] = {}
    stack: list[WitnessStructure] = []

    def admit(sigma: WitnessStructure) -> WitnessStructure:
        stored = known.setdefault(sigma, sigma)
        if stored is sigma:
            stack.append(sigma)
        return stored

    facet_list = [f for f in facet_structures(r) if admit(f) is f]
    admit(WitnessStructure([((), r.support)]))
    lower: dict[WitnessStructure, Covers] = {}
    while stack:
        sigma = stack.pop()
        lower[sigma] = tuple(
            admit(_from_masks(_ghost(sigma, 1 << p))) for p in _bits(_active_mask(sigma))
        )
    return Complex(r, lower, facet_list)
