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
from snapcomplex.witness import WitnessStructure, _lower_faces


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
        lower[sigma] = tuple(admit(face) for face in _lower_faces(sigma))
    return Complex(r, lower, facet_list)
