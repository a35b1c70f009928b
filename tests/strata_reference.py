"""Slow reference for stratum membership, on frozensets.

This is the literal membership predicate the library used before member
sets were computed from mask heads.  The tests compare
:func:`snapcomplex.strata._head_test` and :func:`snapcomplex.strata.members`
against :func:`in_stratum` here.
"""

from __future__ import annotations

from snapcomplex.strata import StratumRef
from snapcomplex.witness import WitnessStructure


def in_stratum(ref: StratumRef, sigma: WitnessStructure) -> bool:
    """Literal membership: does ``sigma`` satisfy the stratum's conditions?

    Rows past the last one read as empty, so a one-row simplex sits in
    ``Z_S`` literally only for ``S = ∅``.
    """
    w1 = sigma.witness_row(1)
    g1 = sigma.ghost_row(1)
    g0 = sigma.ghost_row(0)
    if ref.kind == "Z":
        return ref.select <= g1
    if ref.kind == "Y":
        return (w1 | g1) == ref.select and ref.absorbed <= g1
    if ref.kind == "B":
        return ref.dropped <= g0
    x_part = ref.absorbed <= g1 and ((w1 | g1) == ref.select or ref.select <= g1)
    if ref.kind == "X":
        return x_part
    return x_part and ref.dropped <= g0  # XBV
