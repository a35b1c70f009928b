"""Independent enumeration of the standard chromatic subdivision.

The subdivision of the color simplex on ``{0..n}`` is enumerated directly
as tuples ``((B_1..B_t), (C_1..C_t))`` of pairwise disjoint nonempty
blocks ``B_i`` with nonempty survivor sets ``C_i`` inside them; nothing
here touches the witness-structure construction, so the table map onto the
all-ones complex can be certified as a genuine cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .counters import RoundCounter
from .complexes import Complex, _certify_iso, build
from .errors import VerificationError
from .schedules import _nonempty_subsets
from .witness import WitnessStructure

DEFAULT_COLOR_BOUND = 3


class ChromaticSimplex(NamedTuple):
    """One simplex of the subdivision: ordered disjoint blocks with chosen
    survivors.  The empty tuple is the empty simplex."""

    blocks: tuple[frozenset[int], ...]
    chosen: tuple[frozenset[int], ...]

    @property
    def dim(self) -> int:
        return sum(len(c) for c in self.chosen) - 1

    def encode(self) -> str:
        """Compact key: the ``[block, survivors]`` pairs as sorted lists."""
        return str([[sorted(b), sorted(c)] for b, c in zip(self.blocks, self.chosen)])

    def vertices(self) -> frozenset[tuple[int, frozenset[int]]]:
        """Vertices are (color, set of colors seen) pairs."""
        out = set()
        seen: frozenset[int] = frozenset()
        for b, c in zip(self.blocks, self.chosen):
            seen |= b
            out.update((color, seen) for color in c)
        return frozenset(out)


def chromatic_oracle(n: int) -> frozenset[ChromaticSimplex]:
    """Enumerate every simplex of the chromatic subdivision of the
    ``n``-simplex on colors ``0..n`` (empty simplex included), for ``n``
    up to :data:`DEFAULT_COLOR_BOUND`."""
    if n > DEFAULT_COLOR_BOUND:
        raise ValueError(f"color bound exceeded: n={n} > {DEFAULT_COLOR_BOUND}")
    if n < 0:
        raise ValueError("n must be nonnegative")

    def walk(rest: tuple[int, ...]) -> Iterator[tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]]:
        yield ((), ())
        for block in _nonempty_subsets(rest):
            leftover = tuple(c for c in rest if c not in block)
            for survivors in _nonempty_subsets(block):
                for blocks, chosen in walk(leftover):
                    yield (frozenset(block),) + blocks, (frozenset(survivors),) + chosen

    colors = tuple(range(n + 1))
    return frozenset(ChromaticSimplex(b, c) for b, c in walk(colors))


def chromatic_f_vector(simplices: frozenset[ChromaticSimplex]) -> tuple[int, ...]:
    top = max(s.dim for s in simplices)
    counts = [0] * (top + 1)
    for s in simplices:
        if s.dim >= 0:
            counts[s.dim] += 1
    return tuple(counts)


def table_map(cs: ChromaticSimplex, n: int) -> WitnessStructure:
    """The block/survivor tuple rewritten as a witness structure: all
    blocks witnessed in round 0, survivors of block ``i`` witnessed in
    round ``i`` with the rest of the block ghosted there."""
    colors = frozenset(range(n + 1))
    w0 = frozenset().union(*cs.blocks) if cs.blocks else frozenset()
    rows: list[tuple[frozenset[int], frozenset[int]]] = [(w0, colors - w0)]
    rows.extend((c, b - c) for b, c in zip(cs.blocks, cs.chosen))
    return WitnessStructure(rows)


class PhiReport(NamedTuple):
    """A certified φ: the subdivision of the ``n``-simplex, its simplex
    count (the empty simplex included) and its f-vector."""

    n: int
    simplices: int
    f_vector: tuple[int, ...]

    @property
    def ok(self) -> bool:
        """Always true: :func:`phi_iso` raises rather than report a defect."""
        return True


def phi_iso(source: int | Complex) -> PhiReport:
    """Certify the table map as a simplicial isomorphism from the
    independently enumerated subdivision onto the complex of the
    all-ones counter on ``0..n``, through
    :func:`~snapcomplex.complexes._certify_iso`; raise
    :class:`VerificationError`, naming φ, on any defect.

    The subdivision's face relation is vertex containment (checked to be
    faithful): the lower covers of a simplex drop one vertex each.

    Accepts ``n`` or that complex already built; from ``n`` the complex
    is built as :func:`build` does.
    """
    n = len(source.counter) - 1 if isinstance(source, Complex) else source
    oracle = chromatic_oracle(n)
    all_ones = RoundCounter({p: 1 for p in range(n + 1)})
    if not isinstance(source, Complex):
        target = build(all_ones)
    elif source.counter == all_ones:
        target = source
    else:
        raise ValueError(
            f"phi needs the all-ones counter on 0..n, got {source.counter.to_text()!r}"
        )

    vertices = {cs: cs.vertices() for cs in oracle}
    by_vertices = {verts: cs for cs, verts in vertices.items()}
    if len(by_vertices) != len(oracle):
        raise VerificationError("subdivision simplices are not determined by their vertices")

    def lower(cs: ChromaticSimplex) -> list[ChromaticSimplex | None]:
        verts = vertices[cs]
        return [by_vertices.get(verts - {v}) for v in verts]

    image = {}
    for cs in oracle:
        tau = table_map(cs, n)
        image[cs] = target._number.get(tau, tau)
    rows = target._lower
    _certify_iso(image, lower, len(target), rows.__getitem__, "φ", ChromaticSimplex.encode)
    return PhiReport(n=n, simplices=len(oracle), f_vector=chromatic_f_vector(oracle))
