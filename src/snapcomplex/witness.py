"""Witness structures: the combinatorial records that index simplices.

A witness structure is a sequence of rows ``(W_i, G_i)``: ``W_i`` holds the
processes whose activity is witnessed in round ``i``, ``G_i`` the processes
whose last (passive) appearance is round ``i``.

A structure is its masks.  Each set is an int bitmask (bit ``p`` set iff
process ``p`` is in it), and :class:`WitnessStructure` is the ``tuple`` of
the rows flattened, ``(W_0, G_0, W_1, G_1, ...)``, checked to be a
prestructure when it is made.  It equals, and hashes as, that plain tuple,
and its ``len``, iteration and indexing are the tuple's: a set or dict of
structures finds a member from its masks alone, so each simplex of a
complex is one object.  Only the order differs: ``<`` and ``>`` compare
:meth:`WitnessStructure.encode`, and ``<=`` and ``>=`` are undefined.  The
frozenset accessors serve their sets from one shared mask-to-frozenset
table.  Since a mask holding id ``p`` takes about ``p/8`` bytes, process
ids must be small integers: at most :data:`MAX_PROCESS_ID`.

Each operation on the rows is written once, as a function of a mask tuple
(a structure is one) that returns its result unvalidated: :func:`_head`
reads the first two rows, :func:`_ghost` forgets processes (:func:`_ghosts`
by each of several masks, :func:`_lower_faces` each active process in
turn), :func:`_delta` forgets row-0 ghosts and :func:`_gamma` peels off
round one.  The last two are the mask forms of the stratum maps δ and γ;
they live here, not in :mod:`~snapcomplex.strata`, so that a collapse,
which derives smaller complexes through them, loads no more than this
module.  :func:`_from_masks` is the one constructor from masks, and it
validates with :func:`_validated`: a caller wraps a result in it at the
step where it needs a structure, or only validates it where a mask tuple
will do, and a build looks a face up by its masks first, so that only a
new face is validated.  :func:`ghost` is the validated face map.

Rows are addressed leniently: reading past the last row yields the empty
set, which is the convention used throughout the stratification code.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Callable, Iterable, Iterator, Mapping

# The id bound lives with the counters, whose facet count checks it
# without loading this module.
from .counters import MAX_PROCESS_ID, _mask_of

Row = tuple[frozenset[int], frozenset[int]]

# Raw input for one row: any pair of iterables of process ids.
RawRow = tuple[Iterable[int], Iterable[int]]

Masks = tuple[int, ...]


class Classification(enum.Enum):
    """Strength of a sequence of set pairs, weakest to strongest."""

    INVALID = "invalid"
    PRESTRUCTURE = "prestructure"
    STABLE = "stable"
    WITNESS = "witness"


# -- masks -------------------------------------------------------------------


def _bits(mask: int) -> list[int]:
    """The process ids of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _MaskTable(dict):
    """``mask -> value``, each value made on its first lookup."""

    def __init__(self, make: Callable[[int], object]):
        super().__init__()
        self._make = make

    def __missing__(self, mask: int) -> object:
        value = self[mask] = self._make(mask)
        return value


# Filled lazily: a run only ever meets subsets of its counter's support.
_SETS: dict[int, frozenset[int]] = _MaskTable(lambda m: frozenset(_bits(m)))
_TEXT: dict[int, str] = _MaskTable(lambda m: "[" + ",".join(map(str, _bits(m))) + "]")


def _pairs(m: Masks) -> Iterator[tuple[int, int]]:
    return zip(m[0::2], m[1::2])


def _is_prestructure(m: Masks) -> bool:
    """The prestructure conditions, in one backward pass: each ghost row
    misses its own witnesses and every later row, and rows past the first
    lie inside ``W_0``."""
    if not m:
        return False
    later = 0
    for i in range(len(m) - 2, 0, -2):
        w, g = m[i], m[i + 1]
        if g & (w | later):
            return False
        later |= w | g
    return not (later & ~m[0] or m[1] & m[0])


def _active_mask(m: Masks) -> int:
    # Ghosts of rows past the first lie inside W_0, and G_0 misses W_0.
    out = m[0]
    for g in m[3::2]:
        out &= ~g
    return out


def _frozen_rows(m: Masks) -> tuple[Row, ...]:
    return tuple((_SETS[w], _SETS[g]) for w, g in _pairs(m))


def _masks_of_rows(rows: Iterable[RawRow]) -> Masks:
    out: list[int] = []
    for pair in rows:
        w, g = pair
        out.append(_mask_of(w))
        out.append(_mask_of(g))
    return tuple(out)


def _structure_violation(rows: tuple[Row, ...]) -> str | None:
    """Return a description of the first violated prestructure condition.

    The frozenset statement of the conditions that :func:`_is_prestructure`
    checks on masks; it only words the error.
    """
    if not rows:
        return "a witness structure needs at least one row"
    w0 = rows[0][0]
    for i, (w, g) in enumerate(rows):
        if i >= 1 and not (w <= w0 and g <= w0):
            return f"row {i} is not contained in row 0"
    for i, (_, gi) in enumerate(rows):
        for j in range(i, len(rows)):
            wj, gj = rows[j]
            if gi & wj:
                return f"ghost row {i} meets witness row {j}"
            if j > i and gi & gj:
                return f"ghost rows {i} and {j} overlap"
    return None


def _validated(m: Masks) -> Masks:
    """``m`` itself if it is a prestructure; otherwise the
    :class:`ValueError` that making a structure of it raises."""
    if not _is_prestructure(m):
        raise ValueError(f"not a prestructure: {_structure_violation(_frozen_rows(m))}")
    return m


def _is_witness(m: Masks) -> bool:
    """Every row past the first has witnesses."""
    return all(m[2::2])


def _classify(m: Masks) -> Classification:
    if not _is_prestructure(m):
        return Classification.INVALID
    tail = m[2::2]
    if all(tail):
        return Classification.WITNESS
    if tail[-1]:
        return Classification.STABLE
    return Classification.PRESTRUCTURE


def validate(rows: Iterable[RawRow]) -> Classification:
    """Classify a raw sequence of set pairs.

    Returns the strongest satisfied class: ``WITNESS`` if every row past the
    first has a nonempty witness set, ``STABLE`` if at least the last one
    has, ``PRESTRUCTURE`` if only the containment/disjointness conditions
    hold, and ``INVALID`` otherwise.  Raises :class:`ValueError` for an id
    that is not a nonnegative integer or exceeds :data:`MAX_PROCESS_ID`.
    """
    return _classify(_masks_of_rows(rows))


class WitnessStructure(tuple):
    """An immutable, validated prestructure: the tuple of its flattened
    mask rows ``(W_0, G_0, W_1, G_1, ...)``.

    Equality, hashing, ``len``, iteration and indexing are those of that
    tuple, so a structure equals the plain tuple of its masks.  ``<`` and
    ``>`` order structures by :meth:`encode`; ``<=`` and ``>=`` raise
    :class:`TypeError`.  Process ids must be nonnegative integers no larger
    than :data:`MAX_PROCESS_ID`; others raise :class:`ValueError`.
    """

    __slots__ = ()

    def __new__(cls, rows: Iterable[RawRow]) -> WitnessStructure:
        return _from_masks(_masks_of_rows(rows))

    def __reduce__(self) -> tuple:
        # tuple's own reduction would hand the masks to __new__ as rows.
        return _from_masks, (tuple(self),)

    # -- basic accessors ----------------------------------------------------

    @property
    def rows(self) -> tuple[Row, ...]:
        return _frozen_rows(self)

    @property
    def t(self) -> int:
        """Index of the last row."""
        return len(self) // 2 - 1

    def witness_row(self, i: int) -> frozenset[int]:
        """``W_i``, with out-of-range rows read as empty."""
        if 0 <= i <= self.t:
            return _SETS[self[2 * i]]
        return frozenset()

    def ghost_row(self, i: int) -> frozenset[int]:
        """``G_i``, with out-of-range rows read as empty."""
        if 0 <= i <= self.t:
            return _SETS[self[2 * i + 1]]
        return frozenset()

    @property
    def support(self) -> frozenset[int]:
        """All participating processes: row 0 witnesses plus row 0 ghosts."""
        return _SETS[self[0] | self[1]]

    @property
    def active_set(self) -> frozenset[int]:
        """Processes never ghosted; these are the colors of the simplex."""
        return _SETS[_active_mask(self)]

    @property
    def dim(self) -> int:
        return _active_mask(self).bit_count() - 1

    @property
    def is_empty(self) -> bool:
        """True for the dimension -1 simplex (no active processes)."""
        return not _active_mask(self)

    @property
    def classification(self) -> Classification:
        return _classify(self)

    is_witness = property(_is_witness)

    def traces(self) -> dict[int, frozenset[int]]:
        """Round sets: ``traces()[p]`` is the set of rows mentioning ``p``."""
        acc: dict[int, set[int]] = {p: set() for p in self.support}
        for i, (w, g) in enumerate(_pairs(self)):
            for p in _SETS[w | g]:
                acc[p].add(i)
        return {p: frozenset(s) for p, s in acc.items()}

    # -- order and text ------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        # Deterministic total order: canonical encoding.
        if isinstance(other, WitnessStructure):
            return self.encode() < other.encode()
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, WitnessStructure):
            return self.encode() > other.encode()
        return NotImplemented

    def __le__(self, other: object) -> bool:
        # Not tuple's order of the masks: structures have no ``<=``.
        return NotImplemented

    __ge__ = __le__

    def __repr__(self) -> str:
        body = ",".join(f"({_bits(w)},{_bits(g)})" for w, g in _pairs(self))
        return f"WitnessStructure([{body}])"

    # -- canonical encoding / JSON --------------------------------------------

    def encode(self) -> str:
        """Canonical string key: pair form with sorted sets, compact JSON.
        Reads the masks alone, so it words any mask tuple."""
        rows = iter(self)
        return "[" + ",".join([f"[{_TEXT[w]},{_TEXT[g]}]" for w, g in zip(rows, rows)]) + "]"

    @classmethod
    def decode(cls, text: str) -> WitnessStructure:
        return cls(json.loads(text))

    def to_json_obj(self) -> dict[str, list[list[list[int]]]]:
        return {"pairs": [[_bits(w), _bits(g)] for w, g in _pairs(self)]}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, object]) -> WitnessStructure:
        return cls(obj["pairs"])  # type: ignore[arg-type]


def _from_masks(m: Masks) -> WitnessStructure:
    """The structure with flattened mask rows ``m``; :class:`ValueError`
    unless ``m`` is a prestructure."""
    return tuple.__new__(WitnessStructure, _validated(m))


def _head(m: Masks) -> Masks:
    """``(W_0, G_0, W_1, G_1)`` of ``m``; a missing row 1 reads as empty."""
    return m[:4] if len(m) > 2 else m + (0, 0)


def _delta(m: Masks, v: int) -> Masks:
    """δ: ``m`` with the row-0 ghosts of the mask ``v`` forgotten entirely,
    not yet validated.  ``v`` must consist of row-0 ghosts."""
    w0, g0 = m[:2]
    if v & ~g0:
        raise ValueError(
            f"{_bits(v)} are not all row-0 ghosts of {WitnessStructure.encode(m)}"
        )
    return (w0, g0 & ~v) + m[2:]


def _gamma(m: Masks, s: int, a: int) -> Masks:
    """γ: ``m`` with round one peeled off for the processes of the mask
    ``s``, and those of the mask ``a ⊆ s`` absorbed, not yet validated.

    ``m`` must lie in the closure of the stratum ``X_{s,a}`` (see
    :mod:`~snapcomplex.strata`, whose ``gamma`` is the validated map).  On
    a one-row ``m`` the map removes ``a`` from the ghost row; otherwise
    row 1 is consumed: ghosts of ``s`` fall back into row 0 and survivors
    merge with row 0's witnesses."""
    if len(m) == 2:
        if m[0] & s:
            raise ValueError(f"{WitnessStructure.encode(m)} is not in the stratum X_{_braced(s)}")
        return (m[0], m[1] & ~a)
    w0, g0, w1, g1 = m[:4]
    if s & ~g1 == 0:
        head_g, head = g0 | s, (w0 & ~s, (g0 | s) & ~a, w1, g1 & ~s)
    elif w1 | g1 == s:
        head_g, head = g0 | g1, (w0 & ~g1, (g0 | g1) & ~a)
    else:
        raise ValueError(f"{WitnessStructure.encode(m)} is not in the stratum X_{_braced(s)}")
    if a & ~head_g:
        raise ValueError(
            f"{WitnessStructure.encode(m)} is not in the stratum "
            f"X_{{{_braced(s)},{_braced(a)}}}"
        )
    return head + m[4:]


def _braced(mask: int) -> str:
    """The process ids of ``mask`` as a set literal, ``{0,2}``."""
    return "{" + _TEXT[mask][1:-1] + "}"


def ghost(sigma: WitnessStructure, hide: Iterable[int]) -> WitnessStructure:
    """The face of ``sigma`` that forgets the views of the processes in ``hide``.

    ``hide`` must consist of active processes; the dimension drops by
    exactly ``len(hide)``.  One pass over the rows:

    1. cut at the last row whose witnesses are not absorbed by ``hide`` and
       the existing ghosts (row 0 when no such row remains);
    2. move every hidden process, and every old ghost past the cut, from
       its last remaining witness row into that row's ghost set;
    3. drop the rows past row 0 whose witness set is now empty, carrying
       their ghosts forward to the next remaining row.
    """
    return _from_masks(_ghost(sigma, _mask_of(hide)))


def _lower_faces(m: Masks) -> list[Masks]:
    """The codimension-1 faces ``_ghost(m, 1 << p)``, ``p`` ascending over
    the active processes, not yet validated.

    The all-faces kernel of a build, with the active and passive masks made
    once.  When the last row keeps a witness besides ``p`` and every row
    past the first has witnesses, the walk of :func:`_ghost` only moves
    ``p`` from its last witness row into that row's ghosts, dropping the
    row if that empties it and merging its ghosts into the next row's; that
    is done here by slicing.  Any other face takes the walk."""
    m = m[:]
    last = len(m) - 2
    active = _active_mask(m)
    passive = (m[0] | m[1]) & ~active
    witnessed = all(m[2::2])
    faces = []
    rest = active
    while rest:
        hide = rest & -rest
        rest ^= hide
        if not witnessed or last and not m[last] & ~(hide | passive):
            faces += _ghosts(m, (hide,))
            continue
        r = last
        while r and not m[r] & hide:
            r -= 2
        if m[r] != hide or not r:
            faces.append(m[:r] + (m[r] ^ hide, m[r + 1] | hide) + m[r + 2 :])
        else:
            faces.append(m[:r] + (m[r + 2], m[r + 1] | hide | m[r + 3]) + m[r + 4 :])
    return faces


def _ghost(m: Masks, hide: int) -> Masks:
    """:func:`ghost` of the mask rows ``m``, ``hide`` a mask, not yet validated."""
    return _ghosts(m, (hide,))[0]


def _ghosts(m: Masks, hides: Iterable[int]) -> list[Masks]:
    """:func:`_ghost` of ``m`` by each mask of ``hides``: the one walk of
    :func:`ghost`, with what depends on ``m`` alone made once."""
    m = m[:]  # an exact tuple: CPython specialises item reads on those alone
    active = _active_mask(m)
    passive = (m[0] | m[1]) & ~active
    last = len(m) - 2
    faces = []
    for hide in hides:
        if hide & ~active:
            raise ValueError(f"cannot ghost {_bits(hide & ~active)}: not active in the structure")
        absorbed = hide | passive
        cut = last
        pending = hide  # and the ghosts of the rows past the cut
        while cut and not m[cut] & ~absorbed:
            pending |= m[cut + 1]
            cut -= 2
        # Walk back from the cut, so a process is met first at its last row,
        # collecting (G, W) pairs in reverse.  The cut row keeps a witness
        # outside ``absorbed``, so ``out`` has a row for an emptied one's ghosts.
        out: list[int] = []
        for i in range(cut, 0, -2):
            w = m[i]
            moved = w & pending
            pending ^= moved
            if w ^ moved:
                out += (m[i + 1] | moved, w ^ moved)
            else:
                out[-2] |= m[i + 1] | moved
        out += (m[1] | pending, m[0] & ~pending)
        out.reverse()
        faces.append(tuple(out))
    return faces
