"""Slow reference for the ghost-composition check, instance by instance.

This is the loop the library ran before it kept a face table: for every
simplex, the faces ``ghost(σ,U)`` are ghosted once per subset ``U``, and
every instance ``ghost(ghost(σ,S),T)`` is ghosted and validated anew and
compared with ``ghost(σ,S∪T)``.  The tests compare
:func:`snapcomplex.verify_ghost_composition` against
:func:`verify_ghost_composition` here.
"""

from __future__ import annotations

from snapcomplex.complexes import Complex, _disjoint_pairs
from snapcomplex.errors import VerificationError
from snapcomplex.witness import WitnessStructure, _active_mask, _bits, _from_masks, _ghost


def verify_ghost_composition(k: Complex) -> int:
    pairs_by_size: dict[int, list[tuple[int, int]]] = {}
    checked = 0
    for sigma in sorted(k.simplices, key=WitnessStructure.encode):
        colors = [1 << p for p in _bits(_active_mask(sigma))]
        n = len(colors)
        pairs = pairs_by_size.get(n)
        if pairs is None:
            pairs = pairs_by_size[n] = _disjoint_pairs(n)
        hide = [0] * (1 << n)
        for u in range(1, 1 << n):
            low = u & -u
            hide[u] = hide[u ^ low] | colors[low.bit_length() - 1]
        face = [_from_masks(_ghost(sigma, h)) for h in hide]
        for s_part, t_part in pairs:
            one = _from_masks(_ghost(face[s_part], hide[t_part]))
            if one != face[s_part | t_part]:
                raise VerificationError(
                    f"ghosting {_bits(hide[s_part])} then {_bits(hide[t_part])} on "
                    f"{sigma.encode()} gives {one.encode()}, "
                    f"not {face[s_part | t_part].encode()}"
                )
        checked += len(pairs)
    return checked
