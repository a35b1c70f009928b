"""Canonical strata of a snapshot complex and the maps between them.

A *stratum reference* names a family of simplices by conditions on the
first two rows of their witness structures:

* ``Z_S``      -- every process of ``S`` is a row-1 ghost,
* ``Y_{S,A}``  -- row 1 covers exactly ``S`` and ``A`` is ghosted there,
* ``X_{S,A}``  -- the union of the two above,
* ``B_V``      -- every process of ``V`` is a row-0 ghost,
* ``X_{S,A} ∩ B_V`` -- the intersection (kind ``XBV``).

The maps ``gamma`` (peel off round one), ``rho`` (its inverse) and
``delta`` (forget row-0 ghosts) translate simplices between complexes
over related counters; they act on witness structures alone and never
need the ambient counter.

A stratum has one member set, :func:`members`: one-row simplices join
the ``X``, ``Z`` and ``XBV`` strata whose dropped set they ghost, which
closes those under faces, and ``Y`` and ``B`` strata are taken literally.
Membership depends on a simplex's head ``(W_0, G_0, W_1, G_1)`` alone,
and a complex has far fewer heads than simplices (176 heads
for 1 194 simplices over ``2,1,1,1``).  :class:`HeadIndex` groups the
simplices by head, and one table, :func:`_tables`, made once per complex,
lists for each head the strata that hold it: every member set is read
from it as an int bitset of head ids, and nothing is kept per stratum
reference.  The certifications below compare member sets as these
bitsets, which is exact because the buckets of simplices behind
distinct heads are disjoint and nonempty.
Their parameters are masks (an int with bit ``p`` set for process
``p``) from enumeration to report: :func:`~snapcomplex.schedules._submasks`
and :func:`~snapcomplex.schedules._x_params` list them in the package's one
subset order, and they become process sets only in counter arguments,
report fields and error text.  The checks hand masks to the private
forms ``_gamma``, ``_rho`` and ``_delta`` of the maps, which return the
image unvalidated.  ``_gamma`` and ``_delta`` live in
:mod:`~snapcomplex.witness`, as the enumerations live in ``schedules``,
so that the collapse engine, which uses them too, need not load this
module.  A check computes each image once: one that
equals a simplex of the complex it must land in is validated already,
only a miss is validated, and each distinct mask is validated, and
tested for membership in a counter, at most once per check.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, NamedTuple

from .complexes import Complex, _certify_iso, _membership_test, _sub_builder
from .counters import RoundCounter, _check_pid
from .errors import VerificationError
from .schedules import _SUBMASKS, _nonempty_subsets, _x_params
from .witness import (
    _SETS,
    Masks,
    WitnessStructure,
    _bits,
    _braced,
    _delta,
    _from_masks,
    _gamma,
    _head,
    _mask_of,
    _MaskTable,
    _validated,
)

Procs = frozenset[int]

_KINDS = ("X", "Y", "Z", "B", "XBV")


def _procs(values: Iterable[int]) -> Procs:
    return frozenset(map(_check_pid, values))


# Words a mask tuple, validated or not, as its structure's encode does.
_text = WitnessStructure.encode


def _fmt_procs(values: Iterable[int]) -> str:
    return "{" + ",".join(str(p) for p in sorted(values)) + "}"


class _Stratum(NamedTuple):
    kind: str
    select: Procs = frozenset()
    absorbed: Procs = frozenset()
    dropped: Procs = frozenset()


class StratumRef(_Stratum):
    """A symbolic name for one stratum; see the module docstring.

    An immutable named tuple of ``kind``, ``select``, ``absorbed`` and
    ``dropped``, whose process sets are checked when it is made."""

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        select: Iterable[int] = frozenset(),
        absorbed: Iterable[int] = frozenset(),
        dropped: Iterable[int] = frozenset(),
    ) -> StratumRef:
        if kind not in _KINDS:
            raise ValueError(f"unknown stratum kind {kind!r}")
        select, absorbed, dropped = _procs(select), _procs(absorbed), _procs(dropped)
        if kind in ("X", "Y", "XBV") and not absorbed <= select:
            raise ValueError("absorbed set must lie inside the selected set")
        if kind in ("Z", "B") and absorbed:
            raise ValueError(f"{kind}-strata carry no absorbed set")
        if kind in ("X", "Y", "Z") and dropped:
            raise ValueError(f"{kind}-strata carry no dropped set")
        if kind == "B" and select:
            raise ValueError("B-strata carry no selected set")
        return tuple.__new__(cls, (kind, select, absorbed, dropped))

    @classmethod
    def x(cls, select: Iterable[int], absorbed: Iterable[int] = ()) -> StratumRef:
        return cls("X", select, absorbed)

    @classmethod
    def y(cls, select: Iterable[int], absorbed: Iterable[int] = ()) -> StratumRef:
        return cls("Y", select, absorbed)

    @classmethod
    def z(cls, select: Iterable[int]) -> StratumRef:
        return cls("Z", select)

    @classmethod
    def b(cls, dropped: Iterable[int]) -> StratumRef:
        return cls("B", dropped=dropped)

    @classmethod
    def xbv(
        cls,
        select: Iterable[int],
        absorbed: Iterable[int] = (),
        dropped: Iterable[int] = (),
    ) -> StratumRef:
        return cls("XBV", select, absorbed, dropped)

    @classmethod
    def _of(
        cls,
        kind: str,
        select: Procs = frozenset(),
        absorbed: Procs = frozenset(),
        dropped: Procs = frozenset(),
    ) -> StratumRef:
        """A reference made, without the checks, from process sets that are
        already validated and consistent: fields of other references, and
        unions of them."""
        return tuple.__new__(cls, (kind, select, absorbed, dropped))

    def __str__(self) -> str:
        if self.kind == "B":
            return f"B_{_fmt_procs(self.dropped)}"
        head = "X" if self.kind == "XBV" else self.kind
        body = _fmt_procs(self.select)
        if self.absorbed:
            body += "," + _fmt_procs(self.absorbed)
        if self.kind == "XBV":
            return f"{head}_{{{body}}}∩B_{_fmt_procs(self.dropped)}"
        return f"{head}_{{{body}}}"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "select": sorted(self.select),
            "absorbed": sorted(self.absorbed),
            "dropped": sorted(self.dropped),
            "display": str(self),
        }


def classify_interior(sigma: WitnessStructure) -> StratumRef | None:
    """Name the stratum a simplex's first two rows pin it to.

    One-row simplices sit on the passive side and get ``None``;
    otherwise the answer is the stratum selecting row 1's occupants,
    absorbing its ghosts and dropping row 0's.
    """
    if sigma.t == 0:
        return None
    select = sigma.witness_row(1) | sigma.ghost_row(1)
    return StratumRef.xbv(select, sigma.ghost_row(1), sigma.ghost_row(0))


class HeadIndex:
    """The simplices of a complex grouped by head ``(W_0, G_0, W_1, G_1)``.

    Head ``i`` is ``heads[i]`` and its simplices are ``buckets[i]``.  The
    buckets are nonempty and disjoint, so a union of buckets is named
    exactly by the int bitset of its head ids: equality, containment,
    intersection and union of such unions are those of their bitsets.
    Heads are numbered, and buckets listed, in ``encode`` order, which is
    therefore the order of the buckets chained by ascending head id.
    The simplices come in that order: an encoding begins with the text of
    rows 0 and 1, no set's text prefixes another's, and every row past the
    first of a simplex has witnesses, so each head's simplices form a run.
    ``_tables`` keeps the complex's :func:`_tables` once they are made.
    """

    __slots__ = ("heads", "buckets", "_tables")

    def __init__(self, ordered: Iterable[WitnessStructure]):
        runs = [(head, tuple(run)) for head, run in itertools.groupby(ordered, _head)]
        self.heads = tuple(head for head, _ in runs)
        self.buckets = tuple(bucket for _, bucket in runs)
        self._tables: tuple[dict, dict, dict, dict, int] | None = None

    @classmethod
    def of(cls, complex_: Complex) -> HeadIndex:
        """The head index of ``complex_``, made on first use and kept on it."""
        index = complex_._heads
        if index is None:
            index = complex_._heads = cls(complex_.ordered())
        return index


def _tables(complex_: Complex) -> tuple[dict, dict, dict, dict, int]:
    """The head bitsets of the :func:`members` sets of every stratum, as
    ``(x, y, z, b, one_row)``; made once per complex and kept on its head
    index.

    ``x``, ``y`` and ``z`` hold ``X_{S,A}``, ``Y_{S,A}`` and ``Z_S``, keyed
    by the masks ``(S, A)``, ``(S, A)`` and ``S``: every one that holds a
    head, and every ``X`` and ``Z`` with ``S`` in the active set.
    ``one_row`` is the bitset of the one-row heads, which every ``X`` and
    ``Z`` holds; a key with ``S`` outside the active set leaves them to
    the reader, as a missing key does.  ``b`` holds ``B_V`` for every
    ``V`` that a head ghosts in row 0.  ``X_{S,A} ∩ B_V`` is ``x & b``.

    The strata that hold each head are listed.  A head lies in ``B_V``
    for every ``V ⊆ G_0``.  A head with ``W_1`` empty joins every ``X``
    and ``Z``; otherwise, with ``U = W_1 ∪ G_1``, it lies in ``X_{U,A}``
    and ``Y_{U,A}`` for every ``A ⊆ G_1``, and in ``Z_S`` and ``X_{S,A}``
    for every ``A ⊆ S ⊆ G_1``.  ``Y_{U,A}`` holds it whether ``W_1`` is
    empty or not."""
    index = HeadIndex.of(complex_)
    tables = index._tables
    if tables is None:
        active = _mask_of(complex_.counter.active)
        x: dict[tuple[int, int], int] = {}
        y: dict[tuple[int, int], int] = {}
        z: dict[int, int] = {}
        b: dict[int, int] = {}
        one_row = 0
        sub = _SUBMASKS
        for i, (_, g0, w1, g1) in enumerate(index.heads):
            bit, u = 1 << i, w1 | g1
            for v in sub[g0]:
                b[v] = b.get(v, 0) | bit
            for a in sub[g1]:
                y[u, a] = y.get((u, a), 0) | bit
            if not w1:
                one_row |= bit
                continue
            for a in sub[g1]:
                x[u, a] = x.get((u, a), 0) | bit
            for s in sub[g1]:
                z[s] = z.get(s, 0) | bit
                for a in sub[s]:
                    x[s, a] = x.get((s, a), 0) | bit
        for s in sub[active]:
            z[s] = z.get(s, 0) | one_row
            for a in sub[s]:
                x[s, a] = x.get((s, a), 0) | one_row
        tables = index._tables = (x, y, z, b, one_row)
    return tables


def members(complex_: Complex, ref: StratumRef) -> frozenset[WitnessStructure]:
    """The member set of a stratum, by convention closed under faces.

    It is the one member set a stratum has, read from :func:`_tables`.
    One-row simplices join every ``X``/``Z`` stratum (and ``XBV`` strata
    whose dropped set they already ghost); that convention is exactly
    what closes the literal member sets up under taking faces.  ``Y``
    and ``B`` strata are returned literally -- ``B`` is closed as it
    stands, ``Y`` need not be.
    """
    x, y, z, b, one_row = _tables(complex_)
    s, a, v = map(_mask_of, ref[1:])
    if ref.kind == "Y":
        bits = y.get((s, a), 0)
    elif ref.kind == "Z":
        bits = z.get(s, 0) | one_row
    elif ref.kind == "B":
        bits = b.get(v, 0)
    else:
        bits = x.get((s, a), 0) | one_row
        if ref.kind == "XBV":
            bits &= b.get(v, 0)
    buckets = HeadIndex.of(complex_).buckets
    return frozenset(itertools.chain.from_iterable(map(buckets.__getitem__, _bits(bits))))


# ---------------------------------------------------------------------------
# The three translation maps.
# ---------------------------------------------------------------------------


def gamma(
    sigma: WitnessStructure,
    select: Iterable[int],
    absorbed: Iterable[int] = (),
) -> WitnessStructure:
    """Peel off round one for the processes of ``select``.

    ``sigma`` must lie in the closure of ``X_{select,absorbed}``.  On the
    one-row simplices the map merely removes ``absorbed`` from the ghost
    row; otherwise row 1 is consumed: ghosts of ``select`` fall back into
    row 0 and survivors merge with row 0's witnesses.  The image lives in
    the complex over the counter with ``select`` stepped once and
    ``absorbed`` deleted.
    """
    s = _mask_of(select)
    a = _mask_of(absorbed)
    if a & ~s:
        raise ValueError("absorbed set must lie inside the selected set")
    return _from_masks(_gamma(sigma, s, a))


def rho(
    tau: WitnessStructure,
    select: Iterable[int],
    absorbed: Iterable[int] = (),
) -> WitnessStructure:
    """Reinstate round one: the two-sided inverse of :func:`gamma`.

    ``tau`` lives over the stepped counter.  Processes of ``select``
    seen in row 0 become row 1 again; processes of ``select`` ghosted in
    row 0 return as row-1 ghosts; ``absorbed`` is restored to row 0's
    ghosts first.
    """
    s = _mask_of(select)
    a = _mask_of(absorbed)
    if a & ~s:
        raise ValueError("absorbed set must lie inside the selected set")
    return _from_masks(_rho(tau, s, a))


def _rho(tau: Masks, s: int, a: int) -> Masks:
    """:func:`rho` of the mask rows ``tau``, with ``select`` and
    ``absorbed`` given as masks, ``a ⊆ s``, not yet validated."""
    v0, h0, w1, g1 = _head(tau)
    if a & (v0 | h0):
        raise ValueError("absorbed processes are still present in the simplex")
    h0 |= a
    if v0 & s:
        return (v0 | (h0 & s), h0 & ~s, v0 & s, h0 & s) + tau[2:]
    if len(tau) > 2 and s & ~h0 == 0:
        return (v0 | s, h0 & ~s, w1, g1 | s) + tau[4:]
    return (v0, h0)


def delta(sigma: WitnessStructure, dropped: Iterable[int]) -> WitnessStructure:
    """Forget the row-0 ghosts of ``dropped`` entirely.

    Requires ``dropped`` to consist of row-0 ghosts; the image lives in
    the complex over the counter with ``dropped`` deleted.
    """
    return _from_masks(_delta(sigma, _mask_of(dropped)))


def delta_inverse(tau: WitnessStructure, dropped: Iterable[int]) -> WitnessStructure:
    """Reintroduce ``dropped`` as row-0 ghosts."""
    return _from_masks(_delta_inverse(tau, _mask_of(dropped)))


def _delta_inverse(tau: Masks, v: int) -> Masks:
    """:func:`delta_inverse` of the mask rows ``tau``, with ``dropped``
    given as a mask, not yet validated."""
    w0, g0, _, _ = _head(tau)
    if v & (w0 | g0):
        raise ValueError("dropped processes are still present in the simplex")
    return (w0, g0 | v) + tau[2:]


# ---------------------------------------------------------------------------
# The intersection calculus.
# ---------------------------------------------------------------------------


def _incidence(s: int, a: int) -> set[tuple[int, int]]:
    """Every ``(T, B)`` with ``X_{S,A}`` contained in ``X_{T,B}`` by the
    symbolic criterion, as masks; the sets are masks, with ``a ⊆ s``.

    Containment holds exactly when the selected sets agree and the
    outer absorbed set is smaller, or the outer selected set sits
    inside the inner absorbed set.
    """
    inside = {(s, b) for b in _SUBMASKS[a]}
    for t in _SUBMASKS[a]:
        inside.update((t, b) for b in _SUBMASKS[t])
    return inside


def _cap_x(s: int, a: int, t: int, b: int) -> tuple[str, int, int]:
    """``X_{S,A} ∩ X_{T,B}`` in closed form, as ``(kind, select,
    absorbed)`` masks; the sets are masks, with ``a ⊆ s`` and ``b ⊆ t``."""
    if s == t:
        return "X", s, a | b
    if not s & ~t:
        return "X", t, s | b
    if not t & ~s:
        return "X", s, t | a
    return "Z", s | t, 0


def _cap_family(selects: Iterable[int]) -> tuple[str, int, int]:
    """The intersection of the ``X_S`` of a nonempty family of select
    masks in closed form, as ``(kind, select, absorbed)`` masks: if one
    selected set contains every other, the family collapses onto it with
    the rest absorbed; otherwise the intersection degenerates to the
    ``Z`` stratum of the union."""
    distinct = set(selects)
    union = rest = 0
    for s in distinct:
        union |= s
    if union not in distinct:
        return "Z", union, 0
    for s in distinct - {union}:
        rest |= s
    return "X", union, rest


def intersect_refs(first: StratumRef, second: StratumRef) -> StratumRef | None:
    """The stratum equal to the intersection of two strata, or ``None``.

    Covers the ``X/X``, ``X/Z``, ``Z/Z``, ``Y/Z`` and ``Y/Y`` pairings;
    ``None`` means the intersection holds no simplices at all.
    """
    kinds = (first.kind, second.kind)
    if "B" in kinds or "XBV" in kinds:
        raise ValueError("intersection calculus covers X/Y/Z strata only")
    # The results are made from the validated fields of the arguments,
    # each with its absorbed set inside its selected set.
    make = StratumRef._of
    if kinds == ("Z", "Z"):
        return make("Z", first.select | second.select)
    if "Z" in kinds and "Y" in kinds:
        y, z = (first, second) if first.kind == "Y" else (second, first)
        if z.select <= y.select:
            return make("Y", y.select, y.absorbed | z.select)
        return None
    if kinds == ("Y", "Y"):
        if first.select == second.select:
            return make("Y", first.select, first.absorbed | second.absorbed)
        return None
    if "Z" in kinds and "X" in kinds:
        x, z = (first, second) if first.kind == "X" else (second, first)
        if z.select <= x.select:
            return make("X", x.select, x.absorbed | z.select)
        return make("Z", x.select | z.select)
    # X/X, the symmetric core of the calculus, which it certifies.
    masks = map(_mask_of, (first.select, first.absorbed, second.select, second.absorbed))
    kind, select, absorbed = _cap_x(*masks)
    return make(kind, _SETS[select], _SETS[absorbed])


def intersect_pair(
    select_a: Iterable[int],
    absorbed_a: Iterable[int],
    select_b: Iterable[int],
    absorbed_b: Iterable[int],
) -> StratumRef:
    """Closed form for ``X_{S,A} ∩ X_{T,B}``."""
    result = intersect_refs(
        StratumRef.x(select_a, absorbed_a), StratumRef.x(select_b, absorbed_b)
    )
    assert result is not None  # every X/X pairing has a closed form
    return result


def intersect_family(selects: Iterable[Iterable[int]]) -> StratumRef:
    """Intersect a whole family of ``X_S`` strata at once.

    If one selected set contains every other, the family collapses onto
    it with the rest absorbed; otherwise the intersection degenerates to
    the ``Z`` stratum of the union, which is also what folding the
    family pairwise produces.
    """
    distinct = {_mask_of(s) for s in selects}
    if not distinct:
        raise ValueError("cannot intersect an empty family")
    kind, select, absorbed = _cap_family(distinct)
    return StratumRef._of(kind, _SETS[select], _SETS[absorbed])


# ---------------------------------------------------------------------------
# The nerve of the stratum cover.
# ---------------------------------------------------------------------------


class NerveReport(NamedTuple):
    """The nerve of the cover by closed ``X_S`` strata.

    ``spanning`` holds every set of cover elements whose members share a
    simplex of dimension at least zero.  The nerve is certified to be a
    cone whose apex is the full active set.
    """

    cover: tuple[Procs, ...]
    spanning: frozenset[frozenset[Procs]]
    apex: Procs
    is_cone: bool

    def to_json_obj(self) -> dict:
        return {
            "cover": [sorted(s) for s in self.cover],
            "spanning": sorted(
                [sorted(sorted(s) for s in j) for j in self.spanning]
            ),
            "apex": sorted(self.apex),
            "is_cone": self.is_cone,
        }


def nerve(complex_: Complex) -> NerveReport:
    """Compute the nerve of the cover ``{closure X_S : ∅ ≠ S ⊆ active}``."""
    apex = _mask_of(complex_.counter.active)
    cover = _SUBMASKS[apex][1:]
    x = _tables(complex_)[0]
    pieces = {s: x[s, 0] for s in cover}
    # The heads whose bucket holds a simplex of dimension at least zero.
    live = 0
    for i, bucket in enumerate(HeadIndex.of(complex_).buckets):
        if any(sigma.dim >= 0 for sigma in bucket):
            live |= 1 << i
    # Each family as a tuple of masks in cover order, which ends on the apex.
    spanning: set[tuple[int, ...]] = set()
    for joint in _nonempty_subsets(cover):
        shared = live
        for s in joint:
            shared &= pieces[s]
        if shared:
            spanning.add(joint)
    is_cone = all(joint + (apex,) in spanning for joint in spanning if joint[-1] != apex)
    return NerveReport(
        cover=tuple(map(_SETS.__getitem__, cover)),
        spanning=frozenset(frozenset(map(_SETS.__getitem__, joint)) for joint in spanning),
        apex=_SETS[apex],
        is_cone=is_cone,
    )


# ---------------------------------------------------------------------------
# Setwise certification of the symbolic calculus.
# ---------------------------------------------------------------------------


def verify_strata_calculus(complex_: Complex) -> dict[str, int]:
    """Certify the containment/intersection calculus against brute force.

    Every closed form is recomputed by naive member-set comparison over
    all admissible parameters drawn from the active set.  The symbolic
    containment criterion has one blind spot, which is pinned down
    exactly rather than waved off: when ``S = A`` misses a single active
    process ``w``, every taller member of ``Z_A`` has round-1 row
    ``({w}, A)``, so ``Z_A ⊆ X_{A∪{w},B}`` holds setwise for every
    ``B ⊆ A`` even though the criterion says otherwise.  The mismatches
    found must be exactly those; anything else raises.

    Member sets are compared as head bitsets (see the module docstring),
    read from :func:`_tables`, and every loop runs on the masks of the
    parameters: the closed forms are :func:`_incidence`, :func:`_cap_x`
    and :func:`_cap_family`, which the public intersections also use.
    """
    x, y, z, _, _ = _tables(complex_)
    act = _mask_of(complex_.counter.active)
    subsets = _SUBMASKS[act]
    xs = [(s, a, x[s, a]) for s, a in _x_params(act)]

    # Containment criterion against setwise containment.
    outside = [(t, b, ~outer) for t, b, outer in xs]
    mismatches = set()
    for s, a, inner in xs:
        claimed = _incidence(s, a)
        actual = {(t, b) for t, b, out in outside if not inner & out}
        if not claimed <= actual:
            t, b = next((t, b) for t, b, _ in xs if (t, b) in claimed - actual)
            raise VerificationError(
                f"criterion asserts X_{_braced(s)},{_braced(a)} ⊆ "
                f"X_{_braced(t)},{_braced(b)} but the member sets disagree"
            )
        mismatches.update((s, a, t, b) for t, b in actual - claimed)
    predicted = {(s, s, act, b) for s, b, _ in xs if (act & ~s).bit_count() == 1}
    if mismatches != predicted:
        unexpected = sorted(tuple(map(_bits, pair)) for pair in mismatches ^ predicted)
        raise VerificationError(
            f"containment criterion defects are not the characterized ones: "
            f"{unexpected[:4]}"
        )

    # The three Y/Z intersection identities.
    for s in subsets:
        for t in subsets:
            if z[s] & z[t] != z[s | t]:
                raise VerificationError(f"Z_{_braced(s)} ∩ Z_{_braced(t)} ≠ Z of the union")
    for s, a, _ in xs[1:]:  # every S ≠ ∅
        left = y.get((s, a), 0)
        for t in subsets:
            if left & z[t] != y.get((s, a | t), 0):
                raise VerificationError(
                    f"Y_{_braced(s)},{_braced(a)} ∩ Z_{_braced(t)} is not the absorbed form"
                )
    ys = [(t, b, y.get((t, b), 0)) for t, b, _ in xs]
    same: dict[int, list[tuple[int, int, int]]] = {}
    for t, b, bits in ys:
        same.setdefault(t, []).append((t, b, bits))
    # The Y of another select set: its pairs hold at once if Y_{S,A} meets none.
    other = {s: 0 for s in same}
    for t, _, bits in ys:
        for s in other:
            if s != t:
                other[s] |= bits
    for s, a, _ in xs:
        left = y.get((s, a), 0)
        for t, b, right in ys if left & other[s] else same[s]:
            expected = y.get((s, a | b), 0) if s == t else 0
            if left & right != expected:
                raise VerificationError(
                    f"Y_{_braced(s)},{_braced(a)} ∩ Y_{_braced(t)},{_braced(b)} is off"
                )

    # Pairwise closed-form intersections; a Z_S result has the members of
    # X_{S,S}.
    cap = _cap_x
    for s, a, first in xs:
        for t, b, second in xs:
            kind, select, absorbed = cap(s, a, t, b)
            if x[select, select if kind == "Z" else absorbed] != first & second:
                ref = StratumRef._of(kind, _SETS[select], _SETS[absorbed])
                raise VerificationError(
                    f"X_{_braced(s)},{_braced(a)} ∩ X_{_braced(t)},{_braced(b)} "
                    f"≠ members of {ref}"
                )

    # Families of up to three distinct covering strata.
    family_intersections = 0
    for count in (1, 2, 3):
        for family in itertools.combinations(subsets[1:], count):
            kind, select, absorbed = _cap_family(family)
            expected = x[family[0], 0]
            for s in family[1:]:
                expected &= x[s, 0]
            if x[select, select if kind == "Z" else absorbed] != expected:
                ref = StratumRef._of(kind, _SETS[select], _SETS[absorbed])
                raise VerificationError(
                    f"family intersection over {list(map(_bits, family))} ≠ members of {ref}"
                )
            family_intersections += 1

    # Z_A as the union of the proper enlargements X_{T,A}.
    for a in subsets[:-1]:  # every A but the active set, which comes last
        union = 0
        for t in subsets:
            if t != a and not a & ~t:
                union |= x[t, a]
        if x[a, a] != union:
            raise VerificationError(f"Z_{_braced(a)} is not the union of its enlargements")

    return {
        "containments": len(xs) ** 2,
        "known_containment_defects": len(predicted),
        "yz_identities": len(subsets) ** 2 + (len(xs) - 1) * len(subsets) + len(xs) ** 2,
        "pair_intersections": len(xs) ** 2,
        "family_intersections": family_intersections,
        "union_formulas": len(subsets) - 1,
    }


def verify_translation_maps(complex_: Complex) -> dict[str, int]:
    """Certify γ, ρ and δ as simplicial isomorphisms stratum by stratum.

    γ_{S,A} must carry the members of ``X_{S,A}`` onto the complex of
    the executed-and-absorbed counter, as certified by
    :func:`~snapcomplex.complexes._certify_iso`; for ``A = ∅`` the peel
    ρ_S must invert it on both sides.  δ_V must do the same from the
    members of ``B_V`` onto the complex of the shrunken counter, for
    every proper ``V ⊆ supp``.  The target
    complexes are built under the size of ``complex_``, which bounds them.

    Each image is computed once and looked up in its target, by masks: a
    hit is a simplex the build validated, and only a miss is validated,
    so that one which is no prestructure raises the :class:`ValueError`
    of making it a structure.  Images are then compared as simplex
    numbers, and the inverses as masks.
    """
    counter = complex_.counter
    target_for = _sub_builder(complex_)
    simplices, rows, number = complex_._simplices, complex_._lower, complex_._number
    x, _, _, b, _ = _tables(complex_)
    # Each head's bucket is a run of the encode order of the numbers.
    order = complex_._encode_order()
    starts = list(itertools.accumulate(map(len, HeadIndex.of(complex_).buckets), initial=0))

    def members_of(bits: int) -> list[int]:
        return [i for h in _bits(bits) for i in order[starts[h] : starts[h + 1]]]

    def word(i: int) -> str:
        return _text(simplices[i])

    def certified(
        domain: list[int], image: Callable[[Masks], Masks], target: Complex, label: str
    ) -> dict:
        """Each image's number in ``target``, or its masks for a miss,
        certified by :func:`_certify_iso`."""
        found = {}
        for i in domain:
            m = image(simplices[i])
            j = target._number.get(m)
            found[i] = _validated(m) if j is None else j
        _certify_iso(found, rows.__getitem__, len(target), target._lower.__getitem__, label, word)
        return found

    gamma_strata = 0
    rho_roundtrips = 0
    delta_strata = 0
    for s, a in _x_params(_mask_of(counter.active)):
        label = f"γ_{_braced(s)},{_braced(a)}"
        domain = members_of(x[s, a])
        target = target_for(counter.restrict(_bits(s), _bits(a)))
        found = certified(domain, lambda m: _gamma(m, s, a), target, label)
        gamma_strata += 1
        if a:
            continue
        for i in domain:
            back = _rho(target._simplices[found[i]], s, 0)
            if back != simplices[i]:
                _validated(back)
                raise VerificationError(
                    f"ρ_{_braced(s)} does not undo {label} on {word(i)}"
                )
        members_set = set(domain)
        for j in target._encode_order():
            back = _rho(target._simplices[j], s, 0)
            i = number.get(back)
            if i not in members_set or found[i] != j:
                _validated(back)
                raise VerificationError(
                    f"ρ_{_braced(s)} is not a right inverse on {_text(target._simplices[j])}"
                )
            rho_roundtrips += 1
    # Every V ⊆ supp but supp itself, which _SUBMASKS lists last.
    for v in _SUBMASKS[_mask_of(counter.support)][:-1]:
        label = f"δ_{_braced(v)}"
        domain = members_of(b.get(v, 0))
        target = target_for(counter.delete(_bits(v)))
        found = certified(domain, lambda m: _delta(m, v), target, label)
        for i in domain:
            back = _delta_inverse(target._simplices[found[i]], v)
            if back != simplices[i]:
                _validated(back)
                raise VerificationError(f"{label} round trip fails on {word(i)}")
        delta_strata += 1
    return {
        "gamma_strata": gamma_strata,
        "rho_roundtrips": rho_roundtrips,
        "delta_strata": delta_strata,
    }


# ---------------------------------------------------------------------------
# Commuting-diagram certification.
# ---------------------------------------------------------------------------


class DiagramReport(NamedTuple):
    """One verified parameter choice of one diagram."""

    diagram: str
    parameters: dict[str, list[int]]
    instances_checked: int
    status: str = "ok"

    def to_json_obj(self) -> dict:
        return {
            "diagram": self.diagram,
            "parameters": self.parameters,
            "instances_checked": self.instances_checked,
            "status": self.status,
        }


def _fail(diagram: str, sigma: WitnessStructure, detail: str) -> VerificationError:
    return VerificationError(f"diagram {diagram} breaks at {sigma.encode()}: {detail}")


class _Diagrams:
    """The three diagram checks of one complex, and what they compute
    once between them.

    A stratum's members are the buckets of the heads in its bitset
    (``heads``), and the γ_{S,A} images of a bucket are computed once, the
    first time an instance needs one (``peel``), since every simplex of a
    bucket is in or out of ``X_{S,A}`` alike.  Each distinct mask tuple is
    validated once (``valid[m]`` is ``m``, validated on its first lookup),
    and tested once for membership in each target counter
    (:meth:`member`): membership
    stays the definitional :func:`~snapcomplex.complexes.membership`, read
    from no complex.  Validation runs where each instance needs it, in the
    instance order, so the first invalid mask raises as on structures.
    """

    def __init__(self, complex_: Complex):
        self.counter = complex_.counter
        x = _tables(complex_)[0]
        self.heads = functools.cache(lambda s, a: _bits(x[s, a]))
        buckets = self.buckets = HeadIndex.of(complex_).buckets
        self.valid: dict[Masks, Masks] = _MaskTable(_validated)
        self.tests: dict[RoundCounter, dict[Masks, bool]] = {}
        self.peel = functools.cache(
            lambda s, a, h: [_gamma(sigma, s, a) for sigma in buckets[h]]
        )

    def member(self, counter: RoundCounter) -> dict[Masks, bool]:
        """Mask tuple -> :func:`_membership_test` of ``counter``, each
        tested on its first lookup."""
        test = self.tests.get(counter)
        if test is None:
            test = self.tests[counter] = _MaskTable(_membership_test(counter))
        return test

    def restriction_composition(self) -> Iterator[DiagramReport]:
        """Peeling ``S ∪ A`` while deleting ``A`` equals peeling ``A`` then ``S``."""
        name, counter = "restriction-composition", self.counter
        valid, peel, buckets = self.valid, self.peel, self.buckets
        active = _mask_of(counter.active)
        for a in _SUBMASKS[active][1:]:
            deleted = counter.delete(_bits(a))
            in_deleted = self.member(deleted)
            for s in _SUBMASKS[active & ~a][1:]:
                checked = 0
                for h in self.heads(s | a, a):
                    for sigma, mid, one_step in zip(buckets[h], peel(a, a, h), peel(s | a, a, h)):
                        if not in_deleted[valid[mid]]:
                            raise _fail(
                                name,
                                sigma,
                                f"peeling {_bits(a)} leaves {_text(mid)}, "
                                f"not a simplex over {deleted.to_text()!r}",
                            )
                        # In X_S: one row, or row 1 covers exactly S or ghosts all of it.
                        _, _, w1, g1 = _head(mid)
                        if w1 and w1 | g1 != s and g1 & s != s:
                            raise _fail(
                                name, sigma, f"{_text(mid)} misses the stratum X_{_braced(s)}"
                            )
                        two_step = valid[_gamma(mid, s, 0)]
                        if two_step != one_step:
                            raise _fail(
                                name, sigma, f"{_text(two_step)} != {_text(valid[one_step])}"
                            )
                    checked += len(buckets[h])
                yield DiagramReport(name, {"select": _bits(s), "absorbed": _bits(a)}, checked)

    def restriction_absorbs_drop(self) -> Iterator[DiagramReport]:
        """Absorbing extra ghosts after peeling equals absorbing them during
        it.  The peel ``right`` absorbing all of ``A`` is validated, and
        tested for membership, on the first kept-absorbed subset (the empty
        one); every ``left`` is compared with it, and validated only when it
        differs."""
        name, counter = "restriction-absorbs-drop", self.counter
        valid, peel, buckets = self.valid, self.peel, self.buckets
        for s, a in _x_params(_mask_of(counter.active))[1:]:  # every S ≠ ∅
            shrunk = counter.restrict(_bits(s), _bits(a))
            in_shrunk = self.member(shrunk)
            heads = self.heads(s, a)
            for b in _SUBMASKS[a]:
                drop = a & ~b
                for h in heads:
                    for sigma, inner, right in zip(buckets[h], peel(s, b, h), peel(s, a, h)):
                        left = _delta(valid[inner], drop)
                        if left != right:
                            raise _fail(
                                name, sigma, f"{_text(valid[left])} != {_text(valid[right])}"
                            )
                        if not b and not in_shrunk[valid[right]]:
                            raise _fail(
                                name,
                                sigma,
                                f"{_text(right)} is not a simplex over {shrunk.to_text()!r}",
                            )
                parameters = {"select": _bits(s), "absorbed": _bits(a), "kept_absorbed": _bits(b)}
                yield DiagramReport(name, parameters, sum(len(buckets[h]) for h in heads))

    def drop_restriction_commute(self) -> Iterator[DiagramReport]:
        """Forgetting row-0 ghosts commutes with peeling round one."""
        name, counter = "drop-restriction-commute", self.counter
        valid, peel, buckets = self.valid, self.peel, self.buckets
        for s, a in _x_params(_mask_of(counter.active))[1:]:  # every S ≠ ∅
            stepped = counter.restrict(_bits(s), _bits(a))
            # Dropped mask -> membership in the dropped-and-stepped counter.
            in_target: dict[int, dict[Masks, bool]] = {}
            checked = 0
            for h in self.heads(s, a):
                for sigma, peeled in zip(buckets[h], peel(s, a, h)):
                    drops = _SUBMASKS[sigma[1] & ~s]  # of the row-0 ghosts outside S
                    # δ_∅, which comes first, validates the peel itself.
                    for v in drops:
                        left = valid[_delta(peeled, v)]
                        dropped = _delta(sigma, v)
                        # A simplex, with its peel made.
                        right = peeled if dropped == sigma else _gamma(valid[dropped], s, a)
                        if left != right:
                            raise _fail(name, sigma, f"{_text(left)} != {_text(valid[right])}")
                        if v not in in_target:
                            # V lies outside S, so deleting it commutes with the step.
                            in_target[v] = self.member(stepped.delete(_bits(v)))
                        if not in_target[v][left]:
                            raise _fail(
                                name,
                                sigma,
                                f"{_text(left)} is not a simplex over the "
                                "dropped-and-stepped counter",
                            )
                    checked += len(drops)
            yield DiagramReport(name, {"select": _bits(s), "absorbed": _bits(a)}, checked)


def verify_diagrams(complex_: Complex) -> list[DiagramReport]:
    """Certify the three translation diagrams pointwise.

    An instance is one member of the stratum of a parameter choice; for
    ``drop-restriction-commute`` one member and one set of its row-0
    ghosts outside ``S``.  Its two sides are computed, and compared, as
    mask tuples.  Each intermediate is validated, at the step that would
    make it a structure, as making it would validate it; a side that must
    equal one already validated is validated only when it does not.  So
    this raises :class:`VerificationError`, or the :class:`ValueError` of
    an invalid intermediate, at the first offending instance and worded
    as on structures; otherwise it returns one report per diagram and
    parameter choice with the number of verified instances.  What the
    three diagrams share is computed once (see :class:`_Diagrams`).
    """
    run = _Diagrams(complex_)
    reports: list[DiagramReport] = []
    reports.extend(run.restriction_composition())
    reports.extend(run.restriction_absorbs_drop())
    reports.extend(run.drop_restriction_commute())
    return reports
