"""Construction of the immediate snapshot complex of a round counter.

Simplices are witness structures; facets correspond to layered schedules
and every face arises by ghosting a subset of the active processes.  The
complex is built as the ghosting closure of its facets, plus the explicit
empty simplex, and is immutable once built.  The build keeps what it
computes on the way: each simplex's codimension-1 faces ``ghost(σ,{p})``.
That cover relation is the whole face poset, and every face query walks it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator, Mapping

from .counters import RoundCounter
from .errors import ComplexTooLargeError, VerificationError
from .schedules import enumerate_schedules, to_facet
from .witness import (
    WitnessStructure,
    _active_mask,
    _bits,
    _ghost,
    _head,
    _lower_faces,
    _mask_of,
    _pairs,
    _splice,
    ghost,
)

# A build retains about 340 B and takes about 16 µs per stored simplex
# (tracemalloc and wall time on 2,1,1,1 and 1,1,1,1,1, Python 3.11), so
# the default cap bounds a complex at about 0.7 GB and half a minute.
DEFAULT_SIMPLEX_CAP = 2_000_000
CAP_ENV_VAR = "SNAPCOMPLEX_MAX_SIMPLICES"


def simplex_cap(override: int | None = None) -> int:
    """Resolve the stored-simplex budget (argument, else env var, else default)."""
    if override is not None:
        return override
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    return DEFAULT_SIMPLEX_CAP


def facet_structures(r: RoundCounter) -> Iterator[WitnessStructure]:
    """All facets of the complex: one per layered schedule of ``r``."""
    if not r.support:
        raise ValueError("facets need a nonempty support")
    for schedule in enumerate_schedules(r):
        yield to_facet(schedule, r)


def facets(r: RoundCounter) -> frozenset[WitnessStructure]:
    return frozenset(facet_structures(r))


def membership(r: RoundCounter, sigma: WitnessStructure) -> bool:
    """True iff ``sigma`` is a simplex of the complex of ``r``:

    it is a witness structure on the full support whose active traces have
    exactly ``r(p)+1`` entries and whose ghost traces have at most that many.
    """
    m = sigma._m
    if not sigma.is_witness:
        return False
    w0, g0, _, _ = _head(sigma)
    if w0 | g0 != _mask_of(r):
        return False
    active = _active_mask(m)
    rows = [w | g for w, g in _pairs(m)]
    for p, count in r.items():
        bit = 1 << p
        seen = sum(1 for row in rows if row & bit)
        if seen > count + 1 or (bit & active and seen != count + 1):
            return False
    return True


Covers = tuple[WitnessStructure, ...]


def _reach(
    starts: Iterable[WitnessStructure],
    step: Callable[[WitnessStructure], Covers],
) -> set[WitnessStructure]:
    """Everything reachable from ``starts`` by repeated ``step``, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class Complex:
    """The immediate snapshot complex of a round counter.

    Stores the cover relation of its face poset: each simplex (the empty
    simplex included) maps to the tuple of its codimension-1 faces, and
    the keys are the simplex set.  The upper covers are that mapping
    inverted, once, on first use.  Faces and cofaces are walks down and
    up the covers; all queries are pure.
    """

    __slots__ = ("_counter", "_lower", "_simplices", "_facets", "_upper")

    def __init__(
        self,
        counter: RoundCounter,
        lower_covers: Mapping[WitnessStructure, Covers],
        facet_set: Iterable[WitnessStructure],
    ):
        self._counter = counter
        self._lower = dict(lower_covers)
        self._simplices = frozenset(self._lower)
        self._facets = frozenset(facet_set)
        self._upper: dict[WitnessStructure, Covers] | None = None

    @property
    def counter(self) -> RoundCounter:
        return self._counter

    @property
    def simplices(self) -> frozenset[WitnessStructure]:
        return self._simplices

    @property
    def facets(self) -> frozenset[WitnessStructure]:
        return self._facets

    @property
    def empty_simplex(self) -> WitnessStructure:
        return WitnessStructure([((), self._counter.support)])

    @property
    def dim(self) -> int:
        return len(self._counter.support) - 1

    def __contains__(self, sigma: object) -> bool:
        return sigma in self._simplices

    def __len__(self) -> int:
        return len(self._simplices)

    def __repr__(self) -> str:
        return (
            f"<Complex of {self._counter.to_text()!r}: "
            f"{len(self._simplices)} simplices, {len(self._facets)} facets>"
        )

    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts by dimension, the empty simplex excluded."""
        counts = [0] * (self.dim + 1)
        for sigma in self._simplices:
            if not sigma.is_empty:
                counts[sigma.dim] += 1
        return tuple(counts)

    def lower_covers(self, sigma: WitnessStructure) -> Covers:
        """The codimension-1 faces ``ghost(σ,{p})``, ``p`` in sorted active order."""
        try:
            return self._lower[sigma]
        except KeyError:
            raise ValueError("simplex is not part of this complex") from None

    def upper_covers(self, sigma: WitnessStructure) -> Covers:
        """The simplices having ``sigma`` as a codimension-1 face."""
        if self._upper is None:
            upper: dict[WitnessStructure, list[WitnessStructure]] = {
                s: [] for s in self._lower
            }
            for tau, covers in self._lower.items():
                for face in covers:
                    upper[face].append(tau)
            self._upper = {s: tuple(c) for s, c in upper.items()}
        try:
            return self._upper[sigma]
        except KeyError:
            raise ValueError("simplex is not part of this complex") from None

    def faces(self, sigma: WitnessStructure) -> frozenset[WitnessStructure]:
        """Every face of ``sigma`` (including itself and the empty simplex)."""
        return frozenset(_reach((sigma,), self.lower_covers))

    def vertices(self, sigma: WitnessStructure) -> frozenset[WitnessStructure]:
        """The ``dim+1`` vertices: one per active color."""
        if sigma not in self._simplices:
            raise ValueError("simplex is not part of this complex")
        active = sigma.active_set
        return frozenset(ghost(sigma, active - {p}) for p in active)

    def proper_cofaces(self, sigma: WitnessStructure) -> frozenset[WitnessStructure]:
        """All simplices strictly containing ``sigma``."""
        return frozenset(_reach((sigma,), self.upper_covers) - {sigma})

    def to_json_obj(self, *, include_simplices: bool = False) -> dict:
        listed = self._simplices if include_simplices else self._facets
        code = {sigma: sigma.encode() for sigma in listed}
        obj: dict = {
            "counter": self._counter.to_json_obj(),
            "f_vector": list(self.f_vector()),
            "facets": sorted(code[f] for f in self._facets),
        }
        if include_simplices:
            obj["simplices"] = [
                {
                    "id": code[sigma],
                    "dim": sigma.dim,
                    "faces": sorted(code[tau] for tau in self._lower[sigma]),
                }
                for sigma in sorted(self._simplices, key=code.__getitem__)
            ]
        return obj


def build(r: RoundCounter, *, max_simplices: int | None = None) -> Complex:
    """Construct the complex of ``r``: ghosting closure of the facets plus
    the empty simplex, with each simplex's lower covers recorded on the way.
    Raises :class:`ComplexTooLargeError` beyond the cap.
    """
    if not r.support:
        raise ValueError("cannot build a complex over an empty support")
    cap = simplex_cap(max_simplices)
    # Equal faces reached from different cofaces share the first instance.
    known: dict[WitnessStructure, WitnessStructure] = {}
    stack: list[WitnessStructure] = []

    def admit(sigma: WitnessStructure) -> WitnessStructure:
        stored = known.setdefault(sigma, sigma)
        if stored is sigma:
            if len(known) > cap:
                raise ComplexTooLargeError(cap)
            stack.append(sigma)
        return stored

    facet_list = [f for f in facet_structures(r) if admit(f) is f]
    admit(WitnessStructure([((), r.support)]))
    lower: dict[WitnessStructure, Covers] = {}
    while stack:
        sigma = stack.pop()
        lower[sigma] = tuple(admit(face) for face in _lower_faces(sigma))
    return Complex(r, lower, facet_list)


def check_purity(k: Complex) -> None:
    """Verify that every facet has top dimension and that the facet faces
    exhaust the simplex set."""
    top = k.dim
    for facet in k.facets:
        if facet.dim != top:
            raise VerificationError(
                f"facet {facet.encode()} has dimension {facet.dim}, expected {top}"
            )
    covered = _reach(k.facets, k.lower_covers)
    if covered != k.simplices:
        missing = k.simplices - covered
        raise VerificationError(
            f"{len(missing)} simplices are not faces of any facet"
        )


# -- cone splitting over a passive process ------------------------------------


class ConeSplit:
    """A certified simplicial isomorphism between the complex of ``r`` and
    the join of the complex of ``r`` minus a passive process with a point.

    Each simplex is paired with (simplex of the smaller complex, flag); the
    flag records whether the apex participates.
    """

    __slots__ = ("complex", "base", "apex", "pairing")

    def __init__(self, whole: Complex, base: Complex, apex_process: int):
        self.complex = whole
        self.base = base
        self.apex = apex_process
        pairing: dict[WitnessStructure, tuple[WitnessStructure, bool]] = {}
        for sigma in whole.simplices:
            if apex_process in sigma.active_set:
                reduced = ghost(sigma, {apex_process})
                pairing[sigma] = (_drop_unseen(reduced, apex_process), True)
            else:
                pairing[sigma] = (_drop_unseen(sigma, apex_process), False)
        self.pairing = pairing

    @property
    def apex_vertex(self) -> WitnessStructure:
        supp = self.complex.counter.support
        return WitnessStructure([({self.apex}, supp - {self.apex})])

    def certify(self) -> dict:
        """Check bijectivity and face preservation; raise on any defect."""
        images = set(self.pairing.values())
        if len(images) != len(self.pairing):
            raise VerificationError("cone pairing is not injective")
        expected = {(tau, flag) for tau in self.base.simplices for flag in (False, True)}
        if images != expected:
            raise VerificationError("cone pairing is not onto the join")
        if self.pairing[self.apex_vertex] != (self.base.empty_simplex, True):
            raise VerificationError("apex vertex does not map to the apex of the join")
        # A bijection carrying lower covers onto lower covers is a
        # simplicial isomorphism.  In the join, (τ, apex) covers (τ, no
        # apex) and the (face, same flag) pairs for τ's lower covers.
        for sigma in self.complex.simplices:
            tau, flag = self.pairing[sigma]
            got = {self.pairing[f] for f in self.complex.lower_covers(sigma)}
            want = {(f, flag) for f in self.base.lower_covers(tau)}
            if flag:
                want.add((tau, False))
            if got != want:
                raise VerificationError(
                    f"faces of {sigma.encode()} do not match the join faces"
                )
        return {
            "apex_process": self.apex,
            "simplices": len(self.pairing),
            "base_simplices": len(self.base.simplices),
            "ok": True,
        }


def _drop_unseen(sigma: WitnessStructure, p: int) -> WitnessStructure:
    """Remove ``p`` from the round-0 ghost set (it must sit there)."""
    w0, g0, _, _ = _head(sigma)
    if not (g0 >> p) & 1:
        raise VerificationError(
            f"process {p} is not a round-0 ghost of {sigma.encode()}"
        )
    return _splice(sigma, 1, (w0, g0 ^ (1 << p)))


def cone_split(r: RoundCounter, p: int, *, max_simplices: int | None = None) -> ConeSplit:
    """Split the complex of ``r`` as a cone over the complex of ``r`` minus
    the passive process ``p``."""
    if p not in r.passive:
        raise ValueError(f"process {p} is not passive in {r.to_text()!r}")
    whole = build(r, max_simplices=max_simplices)
    base = build(r.delete({p}), max_simplices=max_simplices)
    return ConeSplit(whole, base, p)


def verify_ghost_composition(k: Complex) -> int:
    """Check that ghosting twice equals ghosting once by the union.

    For every simplex and every pair of disjoint subsets ``S``, ``T`` of
    its active set, ``ghost(ghost(σ,S),T)`` must equal ``ghost(σ,S∪T)``.
    Returns the number of instances checked; raises
    :class:`VerificationError` at the first disagreement.
    """
    checked = 0
    for sigma in sorted(k.simplices, key=WitnessStructure.encode):
        colors = [1 << p for p in _bits(_active_mask(sigma._m))]
        for split in range(3 ** len(colors)):
            s_part = t_part = 0
            rest = split
            for bit in colors:
                rest, slot = divmod(rest, 3)
                if slot == 1:
                    s_part |= bit
                elif slot == 2:
                    t_part |= bit
            one = _ghost(_ghost(sigma, s_part), t_part)
            two = _ghost(sigma, s_part | t_part)
            if one != two:
                raise VerificationError(
                    f"ghosting {_bits(s_part)} then {_bits(t_part)} on "
                    f"{sigma.encode()} gives {one.encode()}, not {two.encode()}"
                )
            checked += 1
    return checked
