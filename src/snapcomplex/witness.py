"""Witness structures: the combinatorial records that index simplices.

A witness structure is a sequence of rows ``(W_i, G_i)``: ``W_i`` holds the
processes whose activity is witnessed in round ``i``, ``G_i`` the processes
whose last (passive) appearance is round ``i``.  This pair form is the one
representation: it is stored, compared, encoded and ghosted directly.
:func:`ghost` computes every face of a simplex in one pass over the rows.

Rows are addressed leniently: reading past the last row yields the empty
set, which is the convention used throughout the stratification code.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Iterable, Mapping

Row = tuple[frozenset[int], frozenset[int]]

# Raw input for one row: any pair of iterables of process ids.
RawRow = tuple[Iterable[int], Iterable[int]]


class Classification(enum.Enum):
    """Strength of a sequence of set pairs, weakest to strongest."""

    INVALID = "invalid"
    PRESTRUCTURE = "prestructure"
    STABLE = "stable"
    WITNESS = "witness"


def _normalize(rows: Iterable[RawRow]) -> tuple[Row, ...]:
    out = []
    for pair in rows:
        w, g = pair
        out.append((frozenset(w), frozenset(g)))
    return tuple(out)


def _structure_violation(rows: tuple[Row, ...]) -> str | None:
    """Return a description of the first violated prestructure condition."""
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


def validate(rows: Iterable[RawRow]) -> Classification:
    """Classify a raw sequence of set pairs.

    Returns the strongest satisfied class: ``WITNESS`` if every row past the
    first has a nonempty witness set, ``STABLE`` if at least the last one
    has, ``PRESTRUCTURE`` if only the containment/disjointness conditions
    hold, and ``INVALID`` otherwise.
    """
    normalized = _normalize(rows)
    if _structure_violation(normalized) is not None:
        return Classification.INVALID
    tail = [w for w, _ in normalized[1:]]
    if all(tail):
        return Classification.WITNESS
    if tail[-1]:
        return Classification.STABLE
    return Classification.PRESTRUCTURE


class WitnessStructure:
    """An immutable, validated prestructure in pair form."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, rows: Iterable[RawRow]):
        normalized = _normalize(rows)
        problem = _structure_violation(normalized)
        if problem is not None:
            raise ValueError(f"not a prestructure: {problem}")
        self._rows = normalized
        self._hash = hash(normalized)

    # -- basic accessors ----------------------------------------------------

    @property
    def rows(self) -> tuple[Row, ...]:
        return self._rows

    @property
    def t(self) -> int:
        """Index of the last row."""
        return len(self._rows) - 1

    def witness_row(self, i: int) -> frozenset[int]:
        """``W_i``, with out-of-range rows read as empty."""
        if 0 <= i <= self.t:
            return self._rows[i][0]
        return frozenset()

    def ghost_row(self, i: int) -> frozenset[int]:
        """``G_i``, with out-of-range rows read as empty."""
        if 0 <= i <= self.t:
            return self._rows[i][1]
        return frozenset()

    @property
    def support(self) -> frozenset[int]:
        """All participating processes: row 0 witnesses plus row 0 ghosts."""
        return self._rows[0][0] | self._rows[0][1]

    @property
    def ghost_union(self) -> frozenset[int]:
        """Processes ghosted in some row."""
        out: frozenset[int] = frozenset()
        for _, g in self._rows:
            out |= g
        return out

    @property
    def active_set(self) -> frozenset[int]:
        """Processes never ghosted; these are the colors of the simplex."""
        return self.support - self.ghost_union

    @property
    def dim(self) -> int:
        return len(self.active_set) - 1

    @property
    def is_empty(self) -> bool:
        """True for the dimension -1 simplex (no active processes)."""
        return not self.active_set

    @property
    def classification(self) -> Classification:
        return validate(self._rows)

    @property
    def is_stable(self) -> bool:
        return self.classification in (Classification.STABLE, Classification.WITNESS)

    @property
    def is_witness(self) -> bool:
        return self.classification is Classification.WITNESS

    def traces(self) -> dict[int, frozenset[int]]:
        """Round sets: ``traces()[p]`` is the set of rows mentioning ``p``."""
        acc: dict[int, set[int]] = {p: set() for p in self.support}
        for i, (w, g) in enumerate(self._rows):
            for p in w:
                acc[p].add(i)
            for p in g:
                acc[p].add(i)
        return {p: frozenset(s) for p, s in acc.items()}

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WitnessStructure):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "WitnessStructure") -> bool:
        # Deterministic total order: canonical encoding.
        return self.encode() < other.encode()

    def __repr__(self) -> str:
        body = ",".join(
            f"({sorted(w)},{sorted(g)})" for w, g in self._rows
        )
        return f"WitnessStructure([{body}])"

    # -- canonical encoding / JSON --------------------------------------------

    def encode(self) -> str:
        """Canonical string key: pair form with sorted sets, compact JSON."""
        return json.dumps(
            [[sorted(w), sorted(g)] for w, g in self._rows],
            separators=(",", ":"),
        )

    @classmethod
    def decode(cls, text: str) -> "WitnessStructure":
        return cls(json.loads(text))

    def to_json_obj(self) -> dict[str, list[list[list[int]]]]:
        return {"pairs": [[sorted(w), sorted(g)] for w, g in self._rows]}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, object]) -> "WitnessStructure":
        return cls(obj["pairs"])  # type: ignore[arg-type]


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
    hide = frozenset(hide)
    if not hide <= sigma.active_set:
        raise ValueError(
            f"cannot ghost {sorted(hide - sigma.active_set)}: not active in the structure"
        )
    rows = sigma.rows
    absorbed = hide | sigma.ghost_union
    cut = max((i for i, (w, _) in enumerate(rows) if not w <= absorbed), default=0)
    pending = set(hide)
    for _, g in rows[cut + 1 :]:
        pending |= g
    # Walk back from the cut, so a process is met first at its last row.
    # The row at the cut keeps a witness outside ``absorbed``, so ``out`` is
    # nonempty whenever a later row has to take over an emptied row's ghosts.
    out: list[Row] = []
    for w, g in reversed(rows[1 : cut + 1]):
        moved = w & pending
        pending -= moved
        w, g = w - moved, g | moved
        if w:
            out.append((w, g))
        else:
            later_w, later_g = out[-1]
            out[-1] = (later_w, later_g | g)
    w0, g0 = rows[0]
    out.append((w0 - pending, g0 | pending))
    out.reverse()
    return WitnessStructure(out)
