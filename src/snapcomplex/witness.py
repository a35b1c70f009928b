"""Witness structures: the combinatorial records that index simplices.

A witness structure is a sequence of rows ``(W_i, G_i)``: ``W_i`` holds the
processes whose activity is witnessed in round ``i``, ``G_i`` the processes
whose last (passive) appearance is round ``i``.  This pair form is the one
representation: it is stored, compared, encoded and ghosted directly.
:func:`ghost` computes every face of a simplex in one pass over the rows.

Each set is stored as an int bitmask (bit ``p`` set iff process ``p`` is
in it), and the rows are flattened into one tuple ``(W_0, G_0, W_1, G_1,
...)``.  Hashing, equality, validation, ghosting and encoding read the
masks alone; the frozenset accessors serve their sets from one shared
mask-to-frozenset table.  Since a mask holding id ``p`` takes about
``p/8`` bytes, process ids must be small integers: at most
:data:`MAX_PROCESS_ID`.

Only this module knows the flattened layout.  Inside the package, other
modules read the first two rows of a structure with :func:`_head`, scan
or group many structures by them with :func:`_filter_heads` and
:func:`_group_by_head`, and make structures from mask rows with
:func:`_from_rows` and :func:`_splice`.  :func:`_ghost_masks` hands out
the masks of a face before it is validated, so that a build can look the
face up by them (``G_0`` is entry 1) and validate only the faces it has
not met yet.  Certification loops that need no structure compute on the
mask tuples themselves: :func:`_splice_masks`, :func:`_delta_masks`,
:func:`_head_masks` and :func:`_last_row` read and write them,
:func:`_validated` checks one as a structure would and :func:`_encode`
words it as :meth:`WitnessStructure.encode` does.

Rows are addressed leniently: reading past the last row yields the empty
set, which is the convention used throughout the stratification code.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Callable, Iterable, Iterator, Mapping

from .counters import _check_pid

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


# Keeps every mask within 128 B; the complexes this package can build
# have a handful of processes.
MAX_PROCESS_ID = 1023


def _mask_of(procs: Iterable[int]) -> int:
    """The bitmask of a set of process ids; rejects ids a mask cannot hold."""
    mask = 0
    for p in procs:
        if _check_pid(p) > MAX_PROCESS_ID:
            raise ValueError(f"process id must be at most {MAX_PROCESS_ID}, got {p!r}")
        mask |= 1 << p
    return mask


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


def _last_row(m: Masks) -> int:
    """The index of the last row of ``m``."""
    return len(m) // 2 - 1


def _is_witness(m: Masks) -> bool:
    """Every row past the first has witnesses."""
    return all(m[2::2])


def _encode(m: Masks) -> str:
    """:meth:`WitnessStructure.encode` of the mask rows ``m``."""
    return "[" + ",".join(f"[{_TEXT[w]},{_TEXT[g]}]" for w, g in _pairs(m)) + "]"


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


class WitnessStructure:
    """An immutable, validated prestructure in pair form.

    Process ids must be nonnegative integers no larger than
    :data:`MAX_PROCESS_ID`; others raise :class:`ValueError`.
    """

    __slots__ = ("_m", "_hash")

    def __init__(self, rows: Iterable[RawRow]):
        self._set(_masks_of_rows(rows))

    def _set(self, m: Masks) -> None:
        self._m = _validated(m)
        self._hash = hash(m)

    # -- basic accessors ----------------------------------------------------

    @property
    def rows(self) -> tuple[Row, ...]:
        return _frozen_rows(self._m)

    @property
    def t(self) -> int:
        """Index of the last row."""
        return _last_row(self._m)

    def witness_row(self, i: int) -> frozenset[int]:
        """``W_i``, with out-of-range rows read as empty."""
        if 0 <= i <= self.t:
            return _SETS[self._m[2 * i]]
        return frozenset()

    def ghost_row(self, i: int) -> frozenset[int]:
        """``G_i``, with out-of-range rows read as empty."""
        if 0 <= i <= self.t:
            return _SETS[self._m[2 * i + 1]]
        return frozenset()

    @property
    def support(self) -> frozenset[int]:
        """All participating processes: row 0 witnesses plus row 0 ghosts."""
        return _SETS[self._m[0] | self._m[1]]

    @property
    def ghost_union(self) -> frozenset[int]:
        """Processes ghosted in some row."""
        m = self._m
        return _SETS[(m[0] | m[1]) & ~_active_mask(m)]

    @property
    def active_set(self) -> frozenset[int]:
        """Processes never ghosted; these are the colors of the simplex."""
        return _SETS[_active_mask(self._m)]

    @property
    def dim(self) -> int:
        return _active_mask(self._m).bit_count() - 1

    @property
    def is_empty(self) -> bool:
        """True for the dimension -1 simplex (no active processes)."""
        return not _active_mask(self._m)

    @property
    def classification(self) -> Classification:
        return _classify(self._m)

    @property
    def is_stable(self) -> bool:
        return self.classification in (Classification.STABLE, Classification.WITNESS)

    @property
    def is_witness(self) -> bool:
        return _is_witness(self._m)

    def traces(self) -> dict[int, frozenset[int]]:
        """Round sets: ``traces()[p]`` is the set of rows mentioning ``p``."""
        acc: dict[int, set[int]] = {p: set() for p in self.support}
        for i, (w, g) in enumerate(_pairs(self._m)):
            for p in _SETS[w | g]:
                acc[p].add(i)
        return {p: frozenset(s) for p, s in acc.items()}

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WitnessStructure):
            return self._m == other._m
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "WitnessStructure") -> bool:
        # Deterministic total order: canonical encoding.
        return self.encode() < other.encode()

    def __repr__(self) -> str:
        body = ",".join(f"({_bits(w)},{_bits(g)})" for w, g in _pairs(self._m))
        return f"WitnessStructure([{body}])"

    # -- canonical encoding / JSON --------------------------------------------

    def encode(self) -> str:
        """Canonical string key: pair form with sorted sets, compact JSON."""
        return _encode(self._m)

    @classmethod
    def decode(cls, text: str) -> "WitnessStructure":
        return cls(json.loads(text))

    def to_json_obj(self) -> dict[str, list[list[list[int]]]]:
        return {"pairs": [[_bits(w), _bits(g)] for w, g in _pairs(self._m)]}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, object]) -> "WitnessStructure":
        return cls(obj["pairs"])  # type: ignore[arg-type]


def _from_masks(m: Masks) -> WitnessStructure:
    """The validated structure with flattened mask rows ``m``."""
    sigma = WitnessStructure.__new__(WitnessStructure)
    sigma._set(m)
    return sigma


def _head(sigma: WitnessStructure) -> Masks:
    """``(W_0, G_0, W_1, G_1)`` of ``sigma``; a missing row 1 reads as empty."""
    return _head_masks(sigma._m)


def _head_masks(m: Masks) -> Masks:
    """:func:`_head` of the mask rows ``m``."""
    return m[:4] if len(m) > 2 else m + (0, 0)


def _filter_heads(
    structures: Iterable[WitnessStructure], test: Callable[[int, int, int, int], object]
) -> frozenset[WitnessStructure]:
    """The structures whose first two rows ``W_0, G_0, W_1, G_1`` pass
    ``test``; a missing row 1 reads as empty."""
    out = []
    for sigma in structures:
        m = sigma._m
        if test(m[0], m[1], m[2], m[3]) if len(m) > 2 else test(m[0], m[1], 0, 0):
            out.append(sigma)
    return frozenset(out)


def _group_by_head(
    structures: Iterable[WitnessStructure],
) -> dict[Masks, list[WitnessStructure]]:
    """The structures grouped by their first two rows ``(W_0, G_0, W_1,
    G_1)``, a missing row 1 read as empty, in ``encode`` order.

    The encoding begins with the text of rows 0 and 1, and no set's text
    is a prefix of another's.  So when every row past the first has
    witnesses, as in a witness structure, the structures of one head form
    one run of the encode order, and the groups, taken in order, list
    every structure in encode order.
    """
    groups: dict[Masks, list[WitnessStructure]] = {}
    for sigma in sorted(structures, key=WitnessStructure.encode):
        m = sigma._m
        groups.setdefault(m[:4] if len(m) > 2 else m + (0, 0), []).append(sigma)
    return groups


def _from_rows(rows: Iterable[tuple[int, int]]) -> WitnessStructure:
    """The validated structure with the mask rows ``(W_i, G_i)`` of ``rows``."""
    return _from_masks(tuple(x for row in rows for x in row))


def _splice(sigma: WitnessStructure, k: int, *head: tuple[int, int]) -> WitnessStructure:
    """The validated structure with mask rows ``head`` followed by the rows
    of ``sigma`` from row ``k`` on."""
    return _from_masks(_splice_masks(sigma._m, k, *head))


def _splice_masks(m: Masks, k: int, *head: tuple[int, int]) -> Masks:
    """:func:`_splice` on the mask rows ``m``, not yet validated."""
    out: Masks = ()
    for row in head:
        out += row
    return out + m[2 * k :]


def _delta(sigma: WitnessStructure, v: int) -> WitnessStructure:
    """δ: ``sigma`` with the row-0 ghosts of the mask ``v`` forgotten
    entirely.  ``v`` must consist of row-0 ghosts."""
    return _from_masks(_delta_masks(sigma._m, v))


def _delta_masks(m: Masks, v: int) -> Masks:
    """:func:`_delta` on the mask rows ``m``, not yet validated."""
    w0, g0 = m[:2]
    if v & ~g0:
        raise ValueError(f"{_bits(v)} are not all row-0 ghosts of {_encode(m)}")
    return (w0, g0 & ~v) + m[2:]


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
    return _ghost(sigma, _mask_of(hide))


def _lower_faces(sigma: WitnessStructure) -> list[WitnessStructure]:
    """The codimension-1 faces ``ghost(σ,{p})``, ``p`` ascending."""
    return [_ghost(sigma, 1 << p) for p in _bits(_active_mask(sigma._m))]


def _ghost(sigma: WitnessStructure, hide: int) -> WitnessStructure:
    """:func:`ghost` with ``hide`` given as a mask."""
    return _from_masks(_ghost_masks(sigma._m, hide))


def _ghost_masks(m: Masks, hide: int) -> Masks:
    """The flattened mask rows of :func:`_ghost`, not yet validated."""
    active = _active_mask(m)
    if hide & ~active:
        raise ValueError(
            f"cannot ghost {_bits(hide & ~active)}: not active in the structure"
        )
    absorbed = hide | ((m[0] | m[1]) & ~active)
    cut = len(m) - 2
    while cut and not m[cut] & ~absorbed:
        cut -= 2
    pending = hide
    for g in m[cut + 3 :: 2]:
        pending |= g
    # Walk back from the cut, so a process is met first at its last row,
    # collecting (G, W) pairs in reverse.  The row at the cut keeps a
    # witness outside ``absorbed``, so ``out`` is nonempty whenever a later
    # row has to take over an emptied row's ghosts.
    out: list[int] = []
    for i in range(cut, 0, -2):
        moved = m[i] & pending
        pending ^= moved
        if m[i] ^ moved:
            out += (m[i + 1] | moved, m[i] ^ moved)
        else:
            out[-2] |= m[i + 1] | moved
    out += (m[1] | pending, m[0] & ~pending)
    out.reverse()
    return tuple(out)
