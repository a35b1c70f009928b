"""Round counters: per-process round budgets for layered executions.

A round counter is a finite partial map from process ids to the number of
write/read rounds the process still has to execute.  Processes outside the
support are non-participants (the bottom value); a stored count of 0 means
the process participates but takes no step ("passive").

:func:`_schedule_count` counts the layered schedules, which index the
facets of the complex, without making one; it needs no engine module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import islice, product
from math import comb

from .errors import ComplexTooLargeError

# Keeps every mask within 128 B; the complexes this package can build
# have a handful of processes.
MAX_PROCESS_ID = 1023


def _check_pid(p: object) -> int:
    if isinstance(p, bool) or not isinstance(p, int) or p < 0:
        raise ValueError(f"process id must be a nonnegative integer, got {p!r}")
    return p


def _mask_of(procs: Iterable[int]) -> int:
    """The bitmask of a set of process ids; rejects ids a mask cannot hold."""
    mask = 0
    for p in procs:
        if _check_pid(p) > MAX_PROCESS_ID:
            raise ValueError(f"process id must be at most {MAX_PROCESS_ID}, got {p!r}")
        mask |= 1 << p
    return mask


class RoundCounter(Mapping[int, int]):
    """Immutable finite map: process id -> remaining round count (>= 0).

    Absent processes carry the bottom value and are represented only by
    absence; equality and hashing are map equality on the support.  Any
    nonnegative id is accepted here, but building a complex needs ids no
    larger than :data:`MAX_PROCESS_ID`.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = dict(entries)
        for p, c in items.items():
            _check_pid(p)
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise ValueError(
                    f"round count must be a nonnegative integer, got {c!r} for process {p}"
                )
        self._entries: dict[int, int] = dict(sorted(items.items()))
        self._hash = hash(tuple(self._entries.items()))

    # -- Mapping protocol ----------------------------------------------------

    def __getitem__(self, p: int) -> int:
        return self._entries[p]

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RoundCounter):
            return self._entries == other._entries
        return NotImplemented

    def __repr__(self) -> str:
        return f"RoundCounter({self._entries!r})"

    def __str__(self) -> str:
        return self.to_text()

    # -- classification ------------------------------------------------------

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._entries)

    @property
    def active(self) -> frozenset[int]:
        """Processes with at least one round left."""
        return frozenset(p for p, c in self._entries.items() if c >= 1)

    @property
    def passive(self) -> frozenset[int]:
        """Participating processes with no rounds left."""
        return frozenset(p for p, c in self._entries.items() if c == 0)

    @property
    def cardinality(self) -> int:
        """Total number of rounds across the support."""
        return sum(self._entries.values())

    # -- operations ------------------------------------------------------------

    def delete(self, drop: Iterable[int]) -> "RoundCounter":
        """Remove the given processes from the support.

        Processes outside the support are ignored.
        """
        drop = frozenset(drop)
        return RoundCounter({p: c for p, c in self._entries.items() if p not in drop})

    def execute(self, step: Iterable[int]) -> "RoundCounter":
        """Decrement the count of every process in ``step``.

        Every member of ``step`` must be active; the support is unchanged.
        """
        return self.restrict(step)

    def restrict(self, step: Iterable[int], drop: Iterable[int] = ()) -> "RoundCounter":
        """Execute ``step`` and then delete ``drop`` (one round of progress
        by the group ``step``, as observed after ``drop`` has disappeared).
        """
        step = frozenset(step)
        drop = frozenset(drop)
        if not drop <= self.support:
            raise ValueError(
                f"cannot drop {sorted(drop - self.support)}: outside the support"
            )
        bad = step - self.active
        if bad:
            raise ValueError(
                f"cannot execute {sorted(bad)}: not active in {self.to_text()!r}"
            )
        return RoundCounter._of(
            {p: c - (p in step) for p, c in self._entries.items() if p not in drop}
        )

    @classmethod
    def _of(cls, entries: dict[int, int]) -> "RoundCounter":
        """The counter of ``entries``, already checked and sorted."""
        out = cls.__new__(cls)
        out._entries = entries
        out._hash = hash(tuple(entries.items()))
        return out

    # -- textual and JSON syntax -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "RoundCounter":
        """Parse the comma-separated syntax, e.g. ``"2,x,1"``.

        Tokens are indexed from process 0; ``x`` (or ``X``) marks a
        non-participant.  Trailing non-participants may simply be omitted.
        An empty string denotes the empty counter.
        """
        text = text.strip()
        if not text:
            return cls()
        entries: dict[int, int] = {}
        for i, token in enumerate(text.split(",")):
            token = token.strip()
            if token.lower() == "x":
                continue
            try:
                value = int(token)
            except ValueError:
                raise ValueError(f"bad round count {token!r} at position {i}") from None
            if value < 0:
                raise ValueError(f"bad round count {token!r} at position {i}")
            entries[i] = value
        return cls(entries)

    def to_text(self) -> str:
        if not self._entries:
            return ""
        top = max(self._entries)
        return ",".join(str(self._entries.get(i, "x")) for i in range(top + 1))

    def to_json_obj(self) -> dict[str, int]:
        return {str(p): c for p, c in self._entries.items()}

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, int]) -> "RoundCounter":
        return cls({int(k): v for k, v in obj.items()})


def _schedule_count(r: RoundCounter, cap: int) -> int:
    """The number of layered schedules of ``r``, refused as
    ``facet_structures(r, max_schedules=cap)`` refuses it.

    A state holds the ``(rounds left, processes)`` pairs of the live
    processes.  A layer takes ``k`` of ``m`` processes with ``c`` rounds
    left in ``comb(m, k)`` ways, leaving them ``c - 1``.  The ways to reach
    each state are summed one total of rounds left at a time; every state
    reaches the end, so one reached more than ``cap`` ways exceeds it."""
    if not r:
        raise ValueError("facets need a nonempty support")
    _mask_of(r)
    if r.cardinality > cap:
        raise ComplexTooLargeError(cap, "round budget")
    start = tuple(sorted(Counter(c for c in r.values() if c).items()))
    levels: dict[int, dict[tuple, int]] = {r.cardinality: {start: 1}}
    for total in range(r.cardinality, -1, -1):
        for state, ways in levels.pop(total, {}).items():
            if ways > cap:
                raise ComplexTooLargeError(cap, "schedule cap")
            # The first choice takes no process, which is no layer.
            for take in islice(product(*[range(m + 1) for _, m in state]), 1, None):
                weight, after = ways, Counter()
                for (c, m), k in zip(state, take):
                    weight *= comb(m, k)
                    after[c] += m - k
                    after[c - 1] += k
                key = tuple(sorted((c, m) for c, m in after.items() if c and m))
                level = levels.setdefault(total - sum(take), {})
                level[key] = level.get(key, 0) + weight
    # The one state at total 0, every round spent, holds the count.
    return ways
