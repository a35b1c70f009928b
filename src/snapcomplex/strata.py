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
for 1 194 simplices over ``2,1,1,1``).  So a member set is computed on the
complex's head index: the stratum's one test runs once per head, and the
result is an int bitset of head ids, kept on the index per stratum
reference for the life of the complex.  The certifications below compare
member sets as these bitsets, which is exact because the buckets of
simplices behind distinct heads are disjoint and nonempty.  They also
validate each process set once per parameter choice and hand masks to
the private forms ``_gamma``, ``_rho`` and ``_delta`` of the maps.
``_gamma`` and ``_delta`` take a mask tuple (a structure is one) and
return the image unvalidated; they live in :mod:`~snapcomplex.witness`,
as :func:`~snapcomplex.schedules._x_params` lives in ``schedules``, so
that the collapse engine, which uses them too, need not load this
module.  A caller makes a structure of it, which
validates it, at the step where it needs one; the commuting diagrams
only validate their intermediates, and compute on mask tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .complexes import Complex, _certify_iso, _membership_test, _sub_builder
from .counters import _check_pid
from .errors import VerificationError
from .schedules import _nonempty_subsets, _subsets, _x_params
from .witness import (
    Masks,
    WitnessStructure,
    _bits,
    _delta,
    _from_masks,
    _from_rows,
    _gamma,
    _head,
    _mask_of,
    _splice,
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


@dataclass(frozen=True)
class StratumRef:
    """A symbolic name for one stratum; see the module docstring."""

    kind: str
    select: Procs = frozenset()
    absorbed: Procs = frozenset()
    dropped: Procs = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown stratum kind {self.kind!r}")
        object.__setattr__(self, "select", _procs(self.select))
        object.__setattr__(self, "absorbed", _procs(self.absorbed))
        object.__setattr__(self, "dropped", _procs(self.dropped))
        if self.kind in ("X", "Y", "XBV") and not self.absorbed <= self.select:
            raise ValueError("absorbed set must lie inside the selected set")
        if self.kind in ("Z", "B") and self.absorbed:
            raise ValueError(f"{self.kind}-strata carry no absorbed set")
        if self.kind in ("X", "Y", "Z") and self.dropped:
            raise ValueError(f"{self.kind}-strata carry no dropped set")
        if self.kind == "B" and self.select:
            raise ValueError("B-strata carry no selected set")

    @classmethod
    def x(cls, select: Iterable[int], absorbed: Iterable[int] = ()) -> StratumRef:
        return cls("X", frozenset(select), frozenset(absorbed))

    @classmethod
    def y(cls, select: Iterable[int], absorbed: Iterable[int] = ()) -> StratumRef:
        return cls("Y", frozenset(select), frozenset(absorbed))

    @classmethod
    def z(cls, select: Iterable[int]) -> StratumRef:
        return cls("Z", frozenset(select))

    @classmethod
    def b(cls, dropped: Iterable[int]) -> StratumRef:
        return cls("B", dropped=frozenset(dropped))

    @classmethod
    def xbv(
        cls,
        select: Iterable[int],
        absorbed: Iterable[int] = (),
        dropped: Iterable[int] = (),
    ) -> StratumRef:
        return cls("XBV", frozenset(select), frozenset(absorbed), frozenset(dropped))

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
        ref = object.__new__(cls)
        object.__setattr__(ref, "kind", kind)
        object.__setattr__(ref, "select", select)
        object.__setattr__(ref, "absorbed", absorbed)
        object.__setattr__(ref, "dropped", dropped)
        return ref

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


def _head_test(ref: StratumRef) -> Callable[[int, int, int, int], bool]:
    """Membership in the :func:`members` set of ``ref``: the stratum's
    conditions (see the module docstring) on the mask rows 0 and 1, with
    the stratum's masks made once.  A simplex of a complex is a witness
    structure, so ``W_1`` reads empty only when it has one row; such a
    simplex passes every test but a ``Y`` one once it ghosts the dropped
    set."""
    select = _mask_of(ref.select)
    need_g0 = _mask_of(ref.dropped)
    need_g1 = select if ref.kind == "Z" else _mask_of(ref.absorbed)
    one_row_joins = ref.kind != "Y"
    row1_fixed = ref.kind in ("X", "Y", "XBV")  # row 1 covers exactly ``select``,
    row1_ghosted = ref.kind in ("X", "XBV")  # ... or ghosts all of it

    def test(w0: int, g0: int, w1: int, g1: int) -> bool:
        if g0 & need_g0 != need_g0:
            return False
        if one_row_joins and not w1:
            return True
        if g1 & need_g1 != need_g1:
            return False
        if not row1_fixed or w1 | g1 == select:
            return True
        return row1_ghosted and g1 & select == select

    return test


def _member_bits(complex_: Complex, ref: StratumRef) -> int:
    """The head bitset of the :func:`members` set of ``ref``, from the
    complex's head index."""
    return complex_.head_index().select(ref, lambda: _head_test(ref))


def members(complex_: Complex, ref: StratumRef) -> frozenset[WitnessStructure]:
    """The member set of a stratum, by convention closed under faces.

    It is the one member set a stratum has, tested on heads by
    :func:`_head_test`.
    One-row simplices join every ``X``/``Z`` stratum (and ``XBV`` strata
    whose dropped set they already ghost); that convention is exactly
    what closes the literal member sets up under taking faces.  ``Y``
    and ``B`` strata are returned literally -- ``B`` is closed as it
    stands, ``Y`` need not be.
    """
    return frozenset(_sorted_members(complex_, ref))


def _sorted_members(complex_: Complex, ref: StratumRef) -> list[WitnessStructure]:
    """:func:`members` in ``encode`` order, the order the checks visit."""
    return complex_.head_index().ordered(_member_bits(complex_, ref))


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
    return _rho(tau, s, a)


def _rho(tau: WitnessStructure, s: int, a: int) -> WitnessStructure:
    """:func:`rho` with ``select`` and ``absorbed`` given as masks, ``a ⊆ s``."""
    v0, h0, w1, g1 = _head(tau)
    if a & (v0 | h0):
        raise ValueError("absorbed processes are still present in the simplex")
    h0 |= a
    if v0 & s:
        return _from_masks(_splice(tau, 1, (v0 | (h0 & s), h0 & ~s), (v0 & s, h0 & s)))
    if tau.t >= 1 and s & ~h0 == 0:
        return _from_masks(_splice(tau, 2, (v0 | s, h0 & ~s), (w1, g1 | s)))
    return _from_rows([(v0, h0)])


def delta(sigma: WitnessStructure, dropped: Iterable[int]) -> WitnessStructure:
    """Forget the row-0 ghosts of ``dropped`` entirely.

    Requires ``dropped`` to consist of row-0 ghosts; the image lives in
    the complex over the counter with ``dropped`` deleted.
    """
    return _from_masks(_delta(sigma, _mask_of(dropped)))


def delta_inverse(tau: WitnessStructure, dropped: Iterable[int]) -> WitnessStructure:
    """Reintroduce ``dropped`` as row-0 ghosts."""
    return _delta_inverse(tau, _mask_of(dropped))


def _delta_inverse(tau: WitnessStructure, v: int) -> WitnessStructure:
    """:func:`delta_inverse` with ``dropped`` given as a mask."""
    w0, g0, _, _ = _head(tau)
    if v & (w0 | g0):
        raise ValueError("dropped processes are still present in the simplex")
    return _from_masks(_splice(tau, 1, (w0, g0 | v)))


# ---------------------------------------------------------------------------
# The intersection calculus.
# ---------------------------------------------------------------------------


def _incidence(s: Procs, a: Procs, t: Procs, b: Procs) -> bool:
    """Is ``X_{S,A}`` contained in ``X_{T,B}``, by the symbolic criterion?
    The sets are validated, with ``a ⊆ s`` and ``b ⊆ t``.

    Containment holds exactly when the selected sets agree and the
    outer absorbed set is smaller, or the outer selected set sits
    inside the inner absorbed set.
    """
    return (s == t and b <= a) or t <= a


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
    # X/X, the symmetric core of the calculus.
    if first.select == second.select:
        return make("X", first.select, first.absorbed | second.absorbed)
    if first.select < second.select:
        return make("X", second.select, first.select | second.absorbed)
    if second.select < first.select:
        return make("X", first.select, second.select | first.absorbed)
    return make("Z", first.select | second.select)


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
    distinct = {_procs(s) for s in selects}
    if not distinct:
        raise ValueError("cannot intersect an empty family")
    tops = [s for s in distinct if all(t <= s for t in distinct)]
    if tops:
        top = tops[0]
        return StratumRef._of("X", top, frozenset().union(*(distinct - {top})))
    return StratumRef._of("Z", frozenset().union(*distinct))


# ---------------------------------------------------------------------------
# The nerve of the stratum cover.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NerveReport:
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
    active = sorted(complex_.counter.active)
    cover = [frozenset(s) for s in _nonempty_subsets(active)]
    pieces = {s: _member_bits(complex_, StratumRef.x(s)) for s in cover}
    # The heads whose bucket holds a simplex of dimension at least zero.
    live = 0
    for i, bucket in enumerate(complex_.head_index().buckets):
        if any(sigma.dim >= 0 for sigma in bucket):
            live |= 1 << i
    spanning: set[frozenset[Procs]] = set()
    for joint in _nonempty_subsets(cover):
        shared = live
        for s in joint:
            shared &= pieces[s]
        if shared:
            spanning.add(frozenset(joint))
    apex = frozenset(active)
    is_cone = all(
        frozenset(joint | {apex}) in spanning for joint in spanning if apex not in joint
    )
    return NerveReport(
        cover=tuple(sorted(cover, key=lambda s: (len(s), sorted(s)))),
        spanning=frozenset(spanning),
        apex=apex,
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
    and each stratum reference is made once per parameter choice.
    """
    active = frozenset(complex_.counter.active)
    subsets = [frozenset(s) for s in _subsets(sorted(active))]
    sa_pairs = _x_params(active)

    x_refs = [StratumRef.x(s, a) for s, a in sa_pairs]
    mem_x = {(ref.select, ref.absorbed): _member_bits(complex_, ref) for ref in x_refs}
    mem_z = {s: _member_bits(complex_, StratumRef.z(s)) for s in subsets}
    y_cache: dict[tuple[Procs, Procs], int] = {}

    def mem_y(s: Procs, a: Procs) -> int:
        if not a <= s:
            return 0
        if (s, a) not in y_cache:
            y_cache[s, a] = _member_bits(complex_, StratumRef.y(s, a))
        return y_cache[s, a]

    def mem_ref(ref: StratumRef) -> int:
        if ref.kind == "Z":
            return mem_x[ref.select, ref.select]
        return mem_x[ref.select, ref.absorbed]

    # Containment criterion against setwise containment.
    containments = 0
    mismatches: set[tuple[Procs, Procs, Procs, Procs]] = set()
    for s, a in sa_pairs:
        inner = mem_x[s, a]
        for t, b in sa_pairs:
            claim = _incidence(s, a, t, b)
            actual = not inner & ~mem_x[t, b]
            if claim and not actual:
                raise VerificationError(
                    f"criterion asserts X_{_fmt_procs(s)},{_fmt_procs(a)} ⊆ "
                    f"X_{_fmt_procs(t)},{_fmt_procs(b)} but the member sets disagree"
                )
            if actual and not claim:
                mismatches.add((s, a, t, b))
            containments += 1
    predicted = {(s, s, active, b) for s, b in sa_pairs if len(active - s) == 1}
    if mismatches != predicted:
        unexpected = sorted(
            (sorted(s), sorted(a), sorted(t), sorted(b))
            for s, a, t, b in mismatches ^ predicted
        )
        raise VerificationError(
            f"containment criterion defects are not the characterized ones: "
            f"{unexpected[:4]}"
        )

    # The three Y/Z intersection identities.
    yz_identities = 0
    for s in subsets:
        for t in subsets:
            if mem_z[s] & mem_z[t] != mem_z[s | t]:
                raise VerificationError(
                    f"Z_{_fmt_procs(s)} ∩ Z_{_fmt_procs(t)} ≠ Z of the union"
                )
            yz_identities += 1
    for s, a in sa_pairs:
        if not s:
            continue
        left = mem_y(s, a)
        for t in subsets:
            if left & mem_z[t] != mem_y(s, a | t):
                raise VerificationError(
                    f"Y_{_fmt_procs(s)},{_fmt_procs(a)} ∩ Z_{_fmt_procs(t)} "
                    "is not the absorbed form"
                )
            yz_identities += 1
    for s, a in sa_pairs:
        for t, b in sa_pairs:
            expected = mem_y(s, a | b) if s == t else 0
            if mem_y(s, a) & mem_y(t, b) != expected:
                raise VerificationError(
                    f"Y_{_fmt_procs(s)},{_fmt_procs(a)} ∩ "
                    f"Y_{_fmt_procs(t)},{_fmt_procs(b)} is off"
                )
            yz_identities += 1

    # Pairwise closed-form intersections.
    pair_intersections = 0
    for first in x_refs:
        s, a = first.select, first.absorbed
        for second in x_refs:
            t, b = second.select, second.absorbed
            ref = intersect_refs(first, second)
            assert ref is not None  # every X/X pairing has a closed form
            if mem_ref(ref) != mem_x[s, a] & mem_x[t, b]:
                raise VerificationError(
                    f"X_{_fmt_procs(s)},{_fmt_procs(a)} ∩ "
                    f"X_{_fmt_procs(t)},{_fmt_procs(b)} ≠ members of {ref}"
                )
            pair_intersections += 1

    # Families of up to three distinct covering strata.
    family_intersections = 0
    nonempty = [s for s in subsets if s]
    for count in (1, 2, 3):
        for family in itertools.combinations(nonempty, count):
            ref = intersect_family(family)
            expected = mem_x[family[0], frozenset()]
            for s in family[1:]:
                expected &= mem_x[s, frozenset()]
            if mem_ref(ref) != expected:
                raise VerificationError(
                    f"family intersection over "
                    f"{[sorted(s) for s in family]} ≠ members of {ref}"
                )
            family_intersections += 1

    # Z_A as the union of the proper enlargements X_{T,A}.
    union_formulas = 0
    for a in subsets:
        if a == active:
            continue
        union = 0
        for t in subsets:
            if a < t:
                union |= mem_x[t, a]
        if mem_x[a, a] != union:
            raise VerificationError(
                f"Z_{_fmt_procs(a)} is not the union of its enlargements"
            )
        union_formulas += 1

    return {
        "containments": containments,
        "known_containment_defects": len(predicted),
        "yz_identities": yz_identities,
        "pair_intersections": pair_intersections,
        "family_intersections": family_intersections,
        "union_formulas": union_formulas,
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
    """
    counter = complex_.counter
    target_for = _sub_builder(complex_)
    faces = complex_._face_reader()

    gamma_strata = 0
    rho_roundtrips = 0
    delta_strata = 0
    for s, a in _x_params(counter.active):
        s_mask, a_mask = _mask_of(s), _mask_of(a)
        label = f"γ_{_fmt_procs(s)},{_fmt_procs(a)}"
        domain = _sorted_members(complex_, StratumRef.x(s, a))
        target = target_for(counter.restrict(s, a))
        image = {sigma: _from_masks(_gamma(sigma, s_mask, a_mask)) for sigma in domain}
        _certify_iso(domain, faces, image, target.simplices, target._face_reader(), label)
        gamma_strata += 1
        if a:
            continue
        members_set = frozenset(domain)
        for sigma in domain:
            if _rho(image[sigma], s_mask, 0) != sigma:
                raise VerificationError(
                    f"ρ_{_fmt_procs(s)} does not undo {label} on {sigma.encode()}"
                )
        for tau in target.ordered():
            back = _rho(tau, s_mask, 0)
            if back not in members_set or _validated(_gamma(back, s_mask, 0)) != tau:
                raise VerificationError(
                    f"ρ_{_fmt_procs(s)} is not a right inverse on {tau.encode()}"
                )
            rho_roundtrips += 1
    # Every V ⊆ supp but supp itself, which _subsets lists last.
    for dropped in list(_subsets(sorted(counter.support)))[:-1]:
        v = frozenset(dropped)
        v_mask = _mask_of(v)
        label = f"δ_{_fmt_procs(v)}"
        domain = _sorted_members(complex_, StratumRef.b(v))
        target = target_for(counter.delete(v))
        image = {sigma: _from_masks(_delta(sigma, v_mask)) for sigma in domain}
        _certify_iso(domain, faces, image, target.simplices, target._face_reader(), label)
        for sigma in domain:
            if _delta_inverse(image[sigma], v_mask) != sigma:
                raise VerificationError(f"{label} round trip fails on {sigma.encode()}")
        delta_strata += 1
    return {
        "gamma_strata": gamma_strata,
        "rho_roundtrips": rho_roundtrips,
        "delta_strata": delta_strata,
    }


# ---------------------------------------------------------------------------
# Commuting-diagram certification.
# ---------------------------------------------------------------------------


@dataclass
class DiagramReport:
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


def _check_restriction_composition(complex_: Complex) -> Iterator[DiagramReport]:
    """Peeling ``S ∪ A`` while deleting ``A`` equals peeling ``A`` then ``S``."""
    counter = complex_.counter
    active = sorted(counter.active)
    for absorbed in _nonempty_subsets(active):
        a = frozenset(absorbed)
        a_mask = _mask_of(a)
        rest = [p for p in active if p not in a]
        deleted = counter.delete(a)
        in_deleted = _membership_test(deleted)
        for select in _nonempty_subsets(rest):
            s = frozenset(select)
            s_mask = _mask_of(s)
            in_x_s = _head_test(StratumRef.x(s))
            checked = 0
            for sigma in _sorted_members(complex_, StratumRef.x(s | a, a)):
                mid = _validated(_gamma(sigma, a_mask, a_mask))
                if not in_deleted(mid):
                    raise _fail(
                        "restriction-composition",
                        sigma,
                        f"peeling {sorted(a)} leaves {_text(mid)}, "
                        f"not a simplex over {deleted.to_text()!r}",
                    )
                if not in_x_s(*_head(mid)):
                    raise _fail(
                        "restriction-composition",
                        sigma,
                        f"{_text(mid)} misses the stratum X_{_fmt_procs(s)}",
                    )
                two_step = _validated(_gamma(mid, s_mask, 0))
                one_step = _gamma(sigma, s_mask | a_mask, a_mask)
                if two_step != one_step:
                    raise _fail(
                        "restriction-composition",
                        sigma,
                        f"{_text(two_step)} != {_text(_validated(one_step))}",
                    )
                checked += 1
            yield DiagramReport(
                "restriction-composition",
                {"select": sorted(s), "absorbed": sorted(a)},
                checked,
            )


def _check_restriction_absorbs_drop(complex_: Complex) -> Iterator[DiagramReport]:
    """Absorbing extra ghosts after peeling equals absorbing them during it.

    The peel ``right`` absorbing all of ``A`` is made, and tested for
    membership, once per simplex, on the first kept-absorbed subset (the
    empty one); every ``left`` is compared with it."""
    counter = complex_.counter
    for s, a in _x_params(counter.active)[1:]:  # every S ≠ ∅
        s_mask, a_mask = _mask_of(s), _mask_of(a)
        shrunk = counter.restrict(s, a)
        in_shrunk = _membership_test(shrunk)
        stratum = _sorted_members(complex_, StratumRef.x(s, a))
        peeled: list[Masks | None] = [None] * len(stratum)
        for small in _subsets(sorted(a)):
            b_mask = _mask_of(small)
            for i, sigma in enumerate(stratum):
                left = _delta(_validated(_gamma(sigma, s_mask, b_mask)), a_mask & ~b_mask)
                right = peeled[i]
                fresh = right is None
                if fresh:
                    _validated(left)
                    right = peeled[i] = _validated(_gamma(sigma, s_mask, a_mask))
                if left != right:
                    raise _fail(
                        "restriction-absorbs-drop",
                        sigma,
                        f"{_text(_validated(left))} != {_text(right)}",
                    )
                if fresh and not in_shrunk(right):
                    raise _fail(
                        "restriction-absorbs-drop",
                        sigma,
                        f"{_text(right)} is not a simplex over {shrunk.to_text()!r}",
                    )
            yield DiagramReport(
                "restriction-absorbs-drop",
                {"select": sorted(s), "absorbed": sorted(a), "kept_absorbed": list(small)},
                len(stratum),
            )


def _check_drop_restriction_commute(complex_: Complex) -> Iterator[DiagramReport]:
    """Forgetting row-0 ghosts commutes with peeling round one."""
    counter = complex_.counter
    # Row-0 ghost masks -> their subsets as masks, the empty one first.
    drops: dict[int, list[int]] = {}
    for s, a in _x_params(counter.active)[1:]:  # every S ≠ ∅
        s_mask, a_mask = _mask_of(s), _mask_of(a)
        # Dropped mask -> membership in the dropped-and-stepped counter.
        in_target: dict[int, Callable[[Masks], bool]] = {}
        checked = 0
        for sigma in _sorted_members(complex_, StratumRef.x(s, a)):
            loose = sigma[1] & ~s_mask  # the row-0 ghosts outside S
            if loose not in drops:
                drops[loose] = [sum(1 << p for p in v) for v in _subsets(_bits(loose))]
            peeled = _validated(_gamma(sigma, s_mask, a_mask))
            for v_mask in drops[loose]:
                left = _validated(_delta(peeled, v_mask))
                right = _gamma(_validated(_delta(sigma, v_mask)), s_mask, a_mask)
                if left != right:
                    raise _fail(
                        "drop-restriction-commute",
                        sigma,
                        f"{_text(left)} != {_text(_validated(right))}",
                    )
                if v_mask not in in_target:
                    in_target[v_mask] = _membership_test(
                        counter.delete(_bits(v_mask)).restrict(s, a)
                    )
                if not in_target[v_mask](left):
                    raise _fail(
                        "drop-restriction-commute",
                        sigma,
                        f"{_text(left)} is not a simplex over the "
                        "dropped-and-stepped counter",
                    )
                checked += 1
        yield DiagramReport(
            "drop-restriction-commute",
            {"select": sorted(s), "absorbed": sorted(a)},
            checked,
        )


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
    parameter choice with the number of verified instances.
    """
    reports: list[DiagramReport] = []
    reports.extend(_check_restriction_composition(complex_))
    reports.extend(_check_restriction_absorbs_drop(complex_))
    reports.extend(_check_drop_restriction_commute(complex_))
    return reports
