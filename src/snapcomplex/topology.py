"""Global shape of a snapshot complex: boundary, connectivity, homology."""

from __future__ import annotations

from collections import Counter as Multiset
from dataclasses import dataclass
from typing import Iterable

from .complexes import Complex, _reach
from .errors import VerificationError
from .witness import WitnessStructure, _filter_heads, _lower_faces


@dataclass(frozen=True)
class BoundaryReport:
    """Ridge census of a pure complex and its boundary subcomplex.

    ``ghost_rule_holds`` records whether the boundary (the closure of
    the ridges met by a single facet) is exactly the set of simplices
    with a nonempty row-0 ghost set.
    """

    top_dim: int
    ridge_count: int
    boundary_ridges: frozenset[WitnessStructure]
    simplices: frozenset[WitnessStructure]
    ghost_rule_holds: bool

    def to_json_obj(self) -> dict:
        return {
            "top_dim": self.top_dim,
            "ridge_count": self.ridge_count,
            "boundary_ridge_count": len(self.boundary_ridges),
            "boundary_size": len(self.simplices),
            "ghost_rule_holds": self.ghost_rule_holds,
        }


def boundary(complex_: Complex) -> BoundaryReport:
    """Locate the boundary and certify the pseudomanifold condition.

    Every ridge (codimension-1 face of a facet) must lie in one or two
    facets; anything else raises :class:`VerificationError`.
    """
    degrees: Multiset[WitnessStructure] = Multiset()
    for facet in complex_.facets:
        degrees.update(complex_.lower_covers(facet))
    bad = {ridge: d for ridge, d in degrees.items() if d not in (1, 2)}
    if bad:
        worst = min(bad, key=lambda s: s.encode())
        raise VerificationError(
            f"ridge {worst.encode()} lies in {bad[worst]} facets; "
            "the complex is not a pseudomanifold with boundary"
        )
    rim = frozenset(ridge for ridge, d in degrees.items() if d == 1)
    closure = frozenset(_reach(rim, complex_.lower_covers))
    expected = _filter_heads(complex_.simplices, lambda w0, g0, w1, g1: g0)
    return BoundaryReport(
        top_dim=complex_.dim,
        ridge_count=len(degrees),
        boundary_ridges=rim,
        simplices=closure,
        ghost_rule_holds=closure == expected,
    )


def strong_connectivity(complex_: Complex) -> bool:
    """Can any facet reach any other through shared ridges?"""
    facets = list(complex_.facets)
    if len(facets) <= 1:
        return True
    owners: dict[WitnessStructure, list[int]] = {}
    for i, facet in enumerate(facets):
        for ridge in complex_.lower_covers(facet):
            owners.setdefault(ridge, []).append(i)
    neighbours: dict[int, set[int]] = {i: set() for i in range(len(facets))}
    for shared in owners.values():
        for i in shared:
            neighbours[i].update(j for j in shared if j != i)
    seen = {0}
    stack = [0]
    while stack:
        for j in neighbours[stack.pop()] - seen:
            seen.add(j)
            stack.append(j)
    return len(seen) == len(facets)


def euler(source: Complex | Iterable[WitnessStructure]) -> int:
    """The Euler characteristic, empty simplex excluded."""
    simplices = source.simplices if isinstance(source, Complex) else frozenset(source)
    return sum((-1) ** s.dim for s in simplices if not s.is_empty)


def _rank_gf2(columns: list[int]) -> int:
    basis: dict[int, int] = {}
    rank = 0
    for column in columns:
        current = column
        while current:
            msb = current.bit_length() - 1
            if msb in basis:
                current ^= basis[msb]
            else:
                basis[msb] = current
                rank += 1
                break
    return rank


def homology_z2(source: Complex | Iterable[WitnessStructure]) -> dict[int, int]:
    """Reduced mod-2 Betti numbers of a face-closed simplex collection.

    The empty simplex acts as the lone generator in dimension -1, so a
    single point reports all zeros and the bare empty simplex reports
    ``{-1: 1}``.  Raises :class:`ValueError` if the collection is not
    closed under faces.  A complex's columns are read off its lower covers;
    a bare collection's simplices are ghosted into their faces.
    """
    if isinstance(source, Complex):
        order, lower = source.ordered(), source._face_reader()
    else:
        order, lower = sorted(frozenset(source), key=WitnessStructure.encode), _lower_faces
    if not order:
        raise ValueError("need at least the empty simplex")
    by_dim: dict[int, list[WitnessStructure]] = {}
    for s in order:
        by_dim.setdefault(s.dim, []).append(s)
    top = max(by_dim)
    index = {d: {s: i for i, s in enumerate(members)} for d, members in by_dim.items()}
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        columns = []
        for s in by_dim.get(d, []):
            mask = 0
            for face in lower(s):
                row = index.get(d - 1, {}).get(face)
                if row is None:
                    raise ValueError(
                        f"collection is not face-closed: "
                        f"{WitnessStructure.encode(face)} is missing"
                    )
                mask |= 1 << row
            columns.append(mask)
        ranks[d] = _rank_gf2(columns)
    return {
        d: len(by_dim.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        for d in range(-1, top + 1)
    }


def is_sphere_like(betti: dict[int, int], dimension: int) -> bool:
    """Do reduced Betti numbers match a sphere of the given dimension?"""
    return all(b == (1 if d == dimension else 0) for d, b in betti.items())
