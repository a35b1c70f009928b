"""Global shape of a snapshot complex: boundary, connectivity, homology.

Each walks the complex's rows of simplex numbers, and a subcomplex is a
set of those numbers; structures appear only in results and errors.
"""

from __future__ import annotations

from collections import Counter as Multiset
from collections.abc import Container
from typing import Iterable, NamedTuple

from .complexes import Complex, Rows, _numbering, _reach
from .errors import VerificationError
from .witness import WitnessStructure, _lower_faces


class BoundaryReport(NamedTuple):
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
    return _boundary(complex_)[0]


def _boundary(complex_: Complex) -> tuple[BoundaryReport, set[int]]:
    """:func:`boundary`, and the numbers of the boundary's simplices."""
    lower, simplex = complex_._lower, complex_._simplices.__getitem__
    degrees: Multiset[int] = Multiset()
    for facet in map(complex_._index, complex_.facets):
        degrees.update(lower[facet])
    bad = {simplex(ridge).encode(): d for ridge, d in degrees.items() if d not in (1, 2)}
    if bad:
        worst = min(bad)
        raise VerificationError(
            f"ridge {worst} lies in {bad[worst]} facets; "
            "the complex is not a pseudomanifold with boundary"
        )
    rim = {ridge for ridge, d in degrees.items() if d == 1}
    closure = complex_._inside(_reach(lower, rim))
    ghosted = {i for sigma, i in complex_._number.items() if sigma[1]}
    report = BoundaryReport(
        top_dim=complex_.dim,
        ridge_count=len(degrees),
        boundary_ridges=frozenset(map(simplex, rim)),
        simplices=frozenset(map(simplex, closure)),
        ghost_rule_holds=closure == ghosted,
    )
    return report, closure


def strong_connectivity(complex_: Complex) -> bool:
    """Can any facet reach any other through shared ridges?"""
    facets = list(map(complex_._index, complex_.facets))
    if len(facets) <= 1:
        return True
    lower = complex_._lower
    owners: dict[int, list[int]] = {}
    for facet in facets:
        for ridge in lower[facet]:
            owners.setdefault(ridge, []).append(facet)
    seen = {facets[0]}
    stack = [facets[0]]
    while stack:
        for ridge in lower[stack.pop()]:
            for facet in owners[ridge]:
                if facet not in seen:
                    seen.add(facet)
                    stack.append(facet)
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
    closed under faces.  A complex's columns are read off its rows; a bare
    collection's simplices are ghosted into their faces.
    """
    if isinstance(source, Complex):
        return _betti(source._encode_order(), source._lower, source._simplices)
    order = sorted(frozenset(source), key=WitnessStructure.encode)
    simplices, _, rows = _numbering(order, map(_lower_faces, order))
    return _betti(range(len(order)), rows, simplices)


def _homology_in(k: Complex, members: Container[int]) -> dict[int, int]:
    """:func:`homology_z2` of the subcomplex of ``k`` whose simplices are
    numbered ``members``."""
    order = [i for i in k._encode_order() if i in members]
    return _betti(order, k._lower, k._simplices)


def _betti(
    order: Iterable[int], rows: Rows, simplices: list[WitnessStructure]
) -> dict[int, int]:
    """Reduced mod-2 Betti numbers of the simplices numbered ``order``,
    given in ``encode`` order, which keeps the elimination short: row ``i``
    of ``rows`` lists the faces of ``simplices[i]`` by number, one for each
    of its colors, so a simplex's dimension is its row's length less one;
    a face outside ``order`` is a :class:`ValueError`."""
    by_dim: dict[int, list[int]] = {}
    start = rows.start
    for i in order:
        by_dim.setdefault(start[i + 1] - start[i] - 1, []).append(i)
    if not by_dim:
        raise ValueError("need at least the empty simplex")
    top = max(by_dim)
    index = {d: {i: row for row, i in enumerate(members)} for d, members in by_dim.items()}
    flat = rows.flat
    ranks: dict[int, int] = {}
    for d in range(0, top + 1):
        below = index.get(d - 1, {})
        columns = []
        for i in by_dim.get(d, []):
            mask = 0
            for j in flat[start[i] : start[i + 1]]:
                row = below.get(j)
                if row is None:
                    raise ValueError(
                        f"collection is not face-closed: "
                        f"{WitnessStructure.encode(simplices[j])} is missing"
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
