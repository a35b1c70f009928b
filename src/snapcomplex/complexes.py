"""Construction of the immediate snapshot complex of a round counter.

Simplices are witness structures; facets correspond to layered schedules
and every face arises by ghosting a subset of the active processes.  The
complex is built as the ghosting closure of its facets, plus the explicit
empty simplex, and is immutable once built.  The build numbers the
simplices ``0..N-1`` as it finds them and keeps what it computes on the
way: each simplex's codimension-1 faces ``ghost(σ,{p})``, as a row of
numbers.  Those rows are the whole face poset, and the complex sorts its
simplices by ``encode`` once, on first use.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Callable, Iterable, Iterator, Mapping, Set
from operator import itemgetter, or_

from .counters import RoundCounter
# The cap is resolved in errors, which the CLI loads without this module;
# CAP_ENV_VAR and DEFAULT_SIMPLEX_CAP stay readable from here.
from .errors import (
    CAP_ENV_VAR,
    DEFAULT_SIMPLEX_CAP,
    ComplexTooLargeError,
    VerificationError,
    simplex_cap,
)
from .schedules import _facet, _views, enumerate_schedules
from .witness import (
    Masks,
    WitnessStructure,
    _active_mask,
    _bits,
    _delta,
    _from_masks,
    _ghost,
    _ghosts,
    _lower_faces,
    _mask_of,
    _MaskTable,
    _validated,
)


def facet_structures(
    r: RoundCounter, *, max_schedules: int | None = None
) -> Iterator[WitnessStructure]:
    """All facets of the complex: one per layered schedule of ``r``, under
    the budgets of :func:`~snapcomplex.schedules.enumerate_schedules`.

    Each is :func:`~snapcomplex.schedules.to_facet` of its schedule, made
    from the layers' masks and validated once, as a stored simplex; the
    schedule check of ``to_facet`` is left out, as the search generates
    only valid schedules."""
    if not r.support:
        raise ValueError("facets need a nonempty support")
    support = _mask_of(r)
    for schedule in enumerate_schedules(r, max_schedules=max_schedules):
        yield _from_masks(_facet(support, schedule))


def facets(r: RoundCounter) -> frozenset[WitnessStructure]:
    return frozenset(facet_structures(r))


def membership(r: RoundCounter, sigma: WitnessStructure) -> bool:
    """True iff ``sigma`` is a simplex of the complex of ``r``:

    it is a witness structure on the full support whose active traces have
    exactly ``r(p)+1`` entries and whose ghost traces have at most that many.
    """
    return _membership_test(r)(sigma)


def _membership_test(r: RoundCounter) -> Callable[[Masks], bool]:
    """:func:`membership` in ``r`` as a predicate on the mask rows of a
    prestructure, as every caller's are.

    It counts the rows of each process in a field of ``width`` bits of one
    int: ``fields[row]`` has a 1 in the field of each process of the row.
    Every row past the first holds a process, so a member has at most
    ``most = Σ(r(p)+1) + 1`` rows, and a field holds that count below its
    top bit.  Adding the top bits, then taking the bounds off, leaves a
    top bit set exactly where a count reaches its bound, and likewise the
    other way round."""
    support = _mask_of(r)
    most = sum(r.values()) + len(r) + 1
    width = most.bit_length() + 1
    fields = _MaskTable(lambda mask: sum(1 << width * p for p in _bits(mask)))
    tops = fields[support] << width - 1
    bounds = sum(count + 1 << width * p for p, count in r.items())

    def test(m: Masks) -> bool:
        if m[0] | m[1] != support or not all(m[2::2]) or len(m) > 2 * most:
            return False
        counts = sum(map(fields.__getitem__, map(or_, m[0::2], m[1::2])))
        at_least = fields[_active_mask(m)] << width - 1
        # No count above its bound, and an active process's count reaches it.
        return (tops | bounds) - counts & tops == tops and (
            (tops | counts) - bounds & at_least == at_least
        )

    return test


Covers = tuple[WitnessStructure, ...]


class Rows:
    """Rows of simplex numbers, stored flat: row ``i`` is
    ``flat[start[i]:start[i + 1]]``, four bytes a number."""

    __slots__ = ("flat", "start")

    def __init__(self) -> None:
        self.flat = array("i")
        self.start = array("i", [0])

    def __len__(self) -> int:
        return len(self.start) - 1

    def __getitem__(self, i: int) -> array:
        start = self.start
        return self.flat[start[i] : start[i + 1]]

    def inverted(self, size: int) -> Rows:
        """``size`` rows: row ``j`` lists, ascending, each ``i`` whose row
        holds ``j``."""
        start = array("i", [0]) * (size + 1)
        for j in self.flat:
            start[j + 1] += 1
        for j in range(size):
            start[j + 1] += start[j]
        fill = array("i", start)
        flat = array("i", [0]) * len(self.flat)
        for i in range(len(self)):
            for j in self[i]:
                flat[fill[j]] = i
                fill[j] += 1
        out = Rows.__new__(Rows)
        out.flat, out.start = flat, start
        return out


def _reach(rows: Rows, starts: Iterable[int]) -> set[int]:
    """Every number reachable from ``starts`` down ``rows``, starts
    included.  A number past the last row has no row to read."""
    flat, start, end = rows.flat, rows.start, len(rows)
    seen = set(starts)
    stack = list(seen)
    while stack:
        i = stack.pop()
        if i < end:
            for j in flat[start[i] : start[i + 1]]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
    return seen


def _numbering(
    keys: Iterable[Masks], lower_covers: Iterable[Iterable[Masks]]
) -> tuple[list[Masks], dict[Masks, int], Rows]:
    """Number ``keys`` in their order, and each cover outside them past
    the keys: the numbered list, the keys' numbering, and the rows of the
    cover numbers, one per entry of ``lower_covers``."""
    number = {sigma: i for i, sigma in enumerate(keys)}
    outside: dict[Masks, int] = {}
    rows = Rows()
    for covers in lower_covers:
        for face in covers:
            j = number.get(face)
            if j is None:
                j = outside.setdefault(face, len(number) + len(outside))
            rows.flat.append(j)
        rows.start.append(len(rows.flat))
    return [*number, *outside], number, rows


class Complex:
    """The immediate snapshot complex of a round counter.

    The one simplex store numbers the simplices ``0..N-1`` (the empty
    simplex included) and keeps one :class:`WitnessStructure` per number.
    The face relation is stored as numbers: row ``i`` of the lower covers
    lists the codimension-1 faces of simplex ``i``, and the upper covers
    are those rows inverted, once, on first use.  Every walk of the face
    poset runs on those rows (:func:`_reach`), and a subcomplex is a set
    of numbers.  The structure-facing queries map between structures and
    numbers at the edge: :attr:`simplices` is a read-only set view of the
    numbering's keys, not a frozenset; all queries are pure.  The
    ``encode`` order of the numbers (:meth:`ordered` maps it to structures)
    is made once, on first use.  The slot ``_heads`` is left to
    :mod:`~snapcomplex.strata`, which keeps its head index there.

    ``Complex(counter, lower_covers, facets)`` numbers the keys of
    ``lower_covers`` in their order.  A cover outside those keys is
    numbered past them, so that :meth:`lower_covers` still names it, but
    it is no simplex of the complex and has no row: a walk that meets it
    raises a :class:`VerificationError` naming it.
    """

    __slots__ = (
        "_counter", "_simplices", "_number", "_lower", "_facets", "_order", "_upper", "_heads"
    )

    def __init__(
        self,
        counter: RoundCounter,
        lower_covers: Mapping[WitnessStructure, Covers],
        facet_set: Iterable[WitnessStructure],
    ):
        self._numbered(counter, *_numbering(lower_covers, lower_covers.values()), facet_set)

    def _numbered(
        self,
        counter: RoundCounter,
        simplices: list[WitnessStructure],
        number: dict[WitnessStructure, int],
        lower: Rows,
        facet_set: Iterable[WitnessStructure],
    ) -> None:
        self._counter = counter
        self._simplices = simplices
        self._number = number
        self._lower = lower
        self._facets = frozenset(facet_set)
        self._order: list[int] | None = None
        self._upper: Rows | None = None
        self._heads: object = None

    @property
    def counter(self) -> RoundCounter:
        return self._counter

    @property
    def simplices(self) -> Set[WitnessStructure]:
        """The simplex set, as a read-only view of the numbering's keys."""
        return self._number.keys()

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
        return sigma in self._number

    def __len__(self) -> int:
        return len(self._number)

    def __repr__(self) -> str:
        return (
            f"<Complex of {self._counter.to_text()!r}: "
            f"{len(self._number)} simplices, {len(self._facets)} facets>"
        )

    def f_vector(self) -> tuple[int, ...]:
        """Simplex counts by dimension, the empty simplex excluded."""
        counts = [0] * (self.dim + 1)
        for sigma in self._number:
            if not sigma.is_empty:
                counts[sigma.dim] += 1
        return tuple(counts)

    def _upper_rows(self) -> Rows:
        """The upper covers by number: the lower rows inverted, on first use."""
        if self._upper is None:
            self._upper = self._lower.inverted(len(self._simplices))
        return self._upper

    def _index(self, sigma: WitnessStructure) -> int:
        """The number of ``sigma``; :class:`ValueError` if it is no simplex
        of the complex."""
        try:
            return self._number[sigma]
        except KeyError:
            raise ValueError("simplex is not part of this complex") from None

    def _inside(self, numbers: set[int]) -> set[int]:
        """``numbers``, checked to name simplices of the complex: a cover
        outside it is a :class:`VerificationError` naming that face."""
        n = len(self._number)
        if max(numbers, default=-1) >= n:
            stray = min(WitnessStructure.encode(self._simplices[j]) for j in numbers if j >= n)
            raise VerificationError(f"face {stray} is a cover outside the complex")
        return numbers

    def lower_covers(self, sigma: WitnessStructure) -> Covers:
        """The codimension-1 faces ``ghost(σ,{p})``, ``p`` in sorted active order."""
        return tuple(map(self._simplices.__getitem__, self._lower[self._index(sigma)]))

    def upper_covers(self, sigma: WitnessStructure) -> Covers:
        """The simplices having ``sigma`` as a codimension-1 face."""
        return tuple(map(self._simplices.__getitem__, self._upper_rows()[self._index(sigma)]))

    def ordered(self) -> tuple[WitnessStructure, ...]:
        """The simplices in ``encode`` order."""
        return tuple(map(self._simplices.__getitem__, self._encode_order()))

    def _encode_order(self) -> list[int]:
        """The simplex numbers in ``encode`` order, sorted once, on first use."""
        if self._order is None:
            self.encodings()
        return self._order

    def encodings(self) -> dict[WitnessStructure, str]:
        """Each simplex's ``encode()``, in number order; a first call also
        sorts the ``encode`` order on these strings, so none is encoded twice."""
        code = {sigma: sigma.encode() for sigma in self._number}
        if self._order is None:
            codes = list(code.values())
            self._order = sorted(range(len(codes)), key=codes.__getitem__)
        return code

    def faces(self, sigma: WitnessStructure) -> frozenset[WitnessStructure]:
        """Every face of ``sigma`` (including itself and the empty simplex)."""
        below = self._inside(_reach(self._lower, (self._index(sigma),)))
        return frozenset(map(self._simplices.__getitem__, below))

    def vertices(self, sigma: WitnessStructure) -> frozenset[WitnessStructure]:
        """The ``dim+1`` vertices: one per active color."""
        self._index(sigma)
        return frozenset(_views(sigma).values())

    def proper_cofaces(self, sigma: WitnessStructure) -> frozenset[WitnessStructure]:
        """All simplices strictly containing ``sigma``."""
        i = self._index(sigma)
        above = _reach(self._upper_rows(), (i,)) - {i}
        return frozenset(map(self._simplices.__getitem__, above))

    def to_json_obj(self, *, include_simplices: bool = False) -> dict:
        if include_simplices:
            code = self.encodings()
        else:
            code = {sigma: sigma.encode() for sigma in self._facets}
        obj: dict = {
            "counter": self._counter.to_json_obj(),
            "f_vector": list(self.f_vector()),
            "facets": sorted(code[f] for f in self._facets),
        }
        if include_simplices:
            codes, simplices, lower = list(code.values()), self._simplices, self._lower
            obj["simplices"] = [
                {
                    "id": codes[i],
                    "dim": simplices[i].dim,
                    "faces": sorted([codes[j] for j in lower[i]]),
                }
                for i in self._order
            ]
        return obj


def build(r: RoundCounter, *, max_simplices: int | None = None) -> Complex:
    """Construct the complex of ``r``: ghosting closure of the facets plus
    the empty simplex, with each simplex's lower covers recorded on the way.
    Raises :class:`ComplexTooLargeError` beyond the cap, which bounds the
    stored simplices and, up front, the total rounds of ``r``.
    """
    if not r.support:
        raise ValueError("cannot build a complex over an empty support")
    return _build(r, simplex_cap(max_simplices))


def _build(r: RoundCounter, cap: int) -> Complex:
    """The complex of ``r``, built under ``cap``, as :func:`build` says.

    Simplices are numbered as they are found and closed in that order, so
    each row of lower covers is appended as its simplex comes up.  A face
    is looked up by its unvalidated masks, which equal and hash as the
    structure they make, so each stored simplex is made, and validated,
    once; equal faces reached from different cofaces share its number.
    The lookup dict is the complex's numbering.  (Keyed by exact mask
    tuples it would look up faster, but the tuples it dropped at the end
    would stay in CPython's tuple free list: on ``2,1,1,1`` that retains
    about 285 B per simplex, against about 215, in tracemalloc under
    CPython 3.11.)
    """
    facet_list = list(facet_structures(r, max_schedules=cap))
    known: dict[WitnessStructure, int] = {}
    found: list[WitnessStructure] = []
    for sigma in [*facet_list, _from_masks((0, _mask_of(r)))]:
        if known.setdefault(sigma, len(found)) == len(found):
            found.append(sigma)
    if len(found) > cap:
        raise ComplexTooLargeError(cap)
    lower = Rows()
    record, close, look_up = lower.flat.append, lower.start.append, known.get
    n = len(found)
    for sigma in found:  # ``found`` grows as the walk goes
        for face in _lower_faces(sigma):
            j = look_up(face)
            if j is None:
                if n == cap:
                    raise ComplexTooLargeError(cap)
                j, face = n, _from_masks(face)
                found.append(face)
                known[face] = j
                n += 1
            record(j)
        close(len(lower.flat))
    k = Complex.__new__(Complex)
    k._numbered(r, found, known, lower, facet_list)
    return k


def _sub_builder(k: Complex) -> Callable[[RoundCounter], Complex]:
    """A memoised builder of the complexes derived from ``k``.

    Every counter the certifications recurse into is the γ or δ image of
    a stratum of ``k``, and those maps are isomorphisms onto their image,
    so no derived complex has more simplices than ``k``; nor do deleting
    and restricting processes add rounds.  Each is built whole under the larger of ``len(k)`` and the
    total rounds of ``k``, as the build budgets both, so the cap that
    admitted ``k`` governs them all.  (A counter with passive processes
    can have more rounds than simplices: ``5,0`` has five and four.)  The
    collapses build none: they derive the part they remove from ``k``
    (see :mod:`~snapcomplex.collapse`).

    Absorbing or deleting every process leaves the empty counter, which
    :func:`build` refuses.  Its complex is the complex over nothing: the
    empty structure ``[[[],[]]]`` alone, as empty simplex and as facet.
    """
    cache = {k.counter: k}
    bound = max(len(k), k.counter.cardinality)

    def sub(counter: RoundCounter) -> Complex:
        if counter not in cache:
            if counter.support:
                cache[counter] = _build(counter, bound)
            else:
                void = WitnessStructure([((), ())])
                cache[counter] = Complex(counter, {void: ()}, [void])
        return cache[counter]

    return sub


def check_purity(k: Complex) -> None:
    """Verify that every facet has top dimension and that the facet faces
    exhaust the simplex set."""
    top = k.dim
    for facet in k.facets:
        if facet.dim != top:
            raise VerificationError(
                f"facet {facet.encode()} has dimension {facet.dim}, expected {top}"
            )
    covered = k._inside(_reach(k._lower, map(k._index, k.facets)))
    if len(covered) != len(k):
        raise VerificationError(
            f"{len(k) - len(covered)} simplices are not faces of any facet"
        )


def _certify_iso(
    image: Mapping,
    lower: Callable[..., Iterable],
    size: int,
    target_lower: Callable[[int], Iterable[int]],
    label: str,
    word: Callable[..., str],
) -> None:
    """Certify ``image`` as a simplicial isomorphism from its keys onto a
    target whose simplices are numbered ``0..size-1``, each side given by
    its lower covers: ``lower`` of a key lists keys, and ``target_lower``
    of a number lists numbers.  ``image`` maps each key to the number of
    its image, or to a value that is no number where the image misses the
    target.

    Raises :class:`VerificationError` naming ``label`` unless ``image`` is
    a bijection onto the target that carries each simplex's lower covers
    onto its image's lower covers; a cover outside the domain fails, and
    the error names the simplex by ``word``.  Such a bijection preserves
    the face relation both ways, and dimension too: on either side only
    the empty simplex has no lower covers, so the claim follows by
    induction.  Both sides are compared as numbers, and no structure is
    hashed.
    """
    values = set(image.values())
    if len(values) != len(image):
        raise VerificationError(f"{label} is not injective")
    if values != set(range(size)):
        raise VerificationError(f"{label} is not onto the target complex")
    for key, j in image.items():
        if set(map(image.get, lower(key))) != set(target_lower(j)):
            raise VerificationError(f"{label} breaks the face relation below {word(key)}")


# -- cone splitting over a passive process ------------------------------------


class ConeSplit:
    """A certified simplicial isomorphism between the complex of ``r`` and
    the join of the complex of ``r`` minus a passive process with a point.

    Each simplex is paired with (simplex of the smaller complex, flag); the
    flag records whether the apex participates, and the simplex is the δ
    image of the simplex with the apex ghosted.  A simplex that δ rejects
    is a :class:`VerificationError`.  Each apex face is looked up in the
    whole complex and each image in the base, and only a miss is validated.
    """

    __slots__ = ("complex", "base", "apex", "pairing")

    def __init__(self, whole: Complex, base: Complex, apex_process: int):
        self.complex = whole
        self.base = base
        self.apex = apex_process
        bit = 1 << apex_process
        number, stored = base._number, base._simplices
        pairing: dict[WitnessStructure, tuple[WitnessStructure, bool]] = {}
        for sigma in whole.simplices:
            flag = apex_process in sigma.active_set
            try:
                face = _ghost(sigma, bit) if flag else sigma
                if face not in whole:
                    _validated(face)
                image = _delta(face, bit)
                j = number.get(image)
                pairing[sigma] = (_from_masks(image) if j is None else stored[j], flag)
            except ValueError as exc:
                raise VerificationError(f"cone pairing: {exc}") from None
        self.pairing = pairing

    @property
    def apex_vertex(self) -> WitnessStructure:
        supp = self.complex.counter.support
        return WitnessStructure([({self.apex}, supp - {self.apex})])

    def certify(self) -> dict:
        """Check that the apex vertex pairs with the apex of the join, then
        certify the pairing onto the join with :func:`_certify_iso`; raise
        on any defect.  In the join, (τ, True) covers (τ, False) and
        (face, True) for each lower cover face of τ, and (τ, False)
        covers (face, False) for each such face."""
        if self.pairing[self.apex_vertex] != (self.base.empty_simplex, True):
            raise VerificationError("apex vertex does not map to the apex of the join")
        # (τ, flag) of the join is number 2·τ + flag, τ numbered in the base;
        # each simplex is keyed by its number in the whole complex.
        whole, number, rows = self.complex, self.base._number, self.base._lower
        image = {}
        for sigma, (tau, flag) in self.pairing.items():
            j = number.get(tau)
            image[whole._number[sigma]] = (tau, flag) if j is None else 2 * j + flag

        def join_lower(j: int) -> list[int]:
            tau, flag = j >> 1, j & 1
            covers = [2 * face + flag for face in rows[tau]]
            return covers + [2 * tau] if flag else covers

        def word(i: int) -> str:
            return WitnessStructure.encode(whole._simplices[i])

        label = f"cone pairing at apex {self.apex}"
        _certify_iso(image, whole._lower.__getitem__, 2 * len(self.base), join_lower, label, word)
        return {
            "apex_process": self.apex,
            "simplices": len(self.pairing),
            "base_simplices": len(self.base.simplices),
            "ok": True,
        }


def cone_split(r: RoundCounter, p: int) -> ConeSplit:
    """Split the complex of ``r`` as a cone over the complex of ``r`` minus
    the passive process ``p``."""
    if p not in r.passive:
        raise ValueError(f"process {p} is not passive in {r.to_text()!r}")
    whole = build(r)
    return ConeSplit(whole, _sub_builder(whole)(r.delete({p})), p)


def _disjoint_pairs(n: int) -> list[tuple[int, int]]:
    """Every pair ``(S, T)`` of disjoint subsets of ``n`` positions, as
    position masks, in the order of the base-3 numerals below ``3**n``
    whose digit ``i`` puts position ``i`` in neither (0), ``S`` (1) or ``T`` (2)."""
    pairs = []
    for split in range(3**n):
        s_part = t_part = 0
        for i in range(n):
            split, slot = divmod(split, 3)
            if slot == 1:
                s_part |= 1 << i
            elif slot == 2:
                t_part |= 1 << i
        pairs.append((s_part, t_part))
    return pairs


def _hidden_masks(active: int) -> list[int]:
    """The process mask of each subset ``U`` of ``active``'s colors, indexed
    by ``U`` as a mask of positions in ascending color order."""
    colors = [1 << p for p in _bits(active)]
    hide = [0] * (1 << len(colors))
    for u in range(1, len(hide)):
        low = u & -u
        hide[u] = hide[u ^ low] | colors[low.bit_length() - 1]
    return hide


def _composition_plan(n: int) -> Callable[[tuple], tuple]:
    """For a simplex with ``n`` colors: a getter that picks out of the
    simplex's face row, for each position mask ``S`` in turn, the faces
    ``ghost(σ,S∪T)``, ``T`` disjoint from ``S``, in the order of the face
    row of ``ghost(σ,S)``, whose position ``j`` is the ``j``-th color
    outside ``S``."""
    picks = []
    for s_part in range(1 << n):
        rest = [1 << i for i in range(n) if not s_part >> i & 1]
        for j in range(1 << len(rest)):
            picks.append(s_part | sum(bit for b, bit in enumerate(rest) if j >> b & 1))
    return itemgetter(*picks) if len(picks) > 1 else lambda row: row[:1]


def verify_ghost_composition(k: Complex) -> int:
    """Check that ghosting twice equals ghosting once by the union.

    For every simplex and every pair of disjoint subsets ``S``, ``T`` of
    its active set, ``ghost(ghost(σ,S),T)`` must equal ``ghost(σ,S∪T)``,
    so a simplex of dimension ``d`` has ``3^(d+1)`` instances.

    Each simplex's ``2^(d+1)`` faces ``ghost(σ,U)`` are ghosted once, in
    one call of :func:`~snapcomplex.witness._ghosts`, and looked up by
    their masks among the simplices, and kept in a face table
    as the row of their numbers, indexed by ``U``.  A face found there is a
    stored simplex, which the build validated; a face that misses it is
    validated by the check of its simplex one instance at a time, below.
    Ghosting is a pure function of the masks, so for a face ``τ =
    ghost(σ,S)`` of the complex whose active set is that of ``σ`` less
    ``S``, ``ghost(τ,T)`` is entry ``T`` of ``τ``'s own row: the instances
    of ``σ`` hold together exactly when the rows of its faces, chained in
    the order of ``S``, equal the entries ``S ∪ T`` of ``σ``'s row.  A
    simplex that cannot be checked so, having a face outside the complex
    or of another active set, or that fails, is checked again instance by
    instance, ghosting and validating every composed face anew, and that
    verdict stands.  Returns the number of instances checked; raises
    :class:`VerificationError` at the first disagreement, or the
    :class:`ValueError` of a face that is no prestructure, in ``encode``
    order of the simplices.
    """
    # Exact tuples as keys: a structure key compares slower with a face.
    number = {tuple(sigma): i for sigma, i in k._number.items()}
    actives = [_active_mask(sigma) for sigma in k._number]
    hides: dict[int, tuple[list[int], tuple[int, ...]]] = {}
    # rows[i]: the face row of simplex i; () where the table cannot serve it.
    rows: list[tuple[int, ...]] = []
    for sigma, active in zip(number, actives):
        if active not in hides:
            hide = _hidden_masks(active)
            hides[active] = (hide, tuple(active & ~h for h in hide))
        hide, expected = hides[active]
        try:
            faces = tuple(map(number.get, _ghosts(sigma, hide)))
        except ValueError:
            faces = (None,)
        servable = None not in faces and tuple(map(actives.__getitem__, faces)) == expected
        rows.append(faces if servable else ())
    plans: dict[int, Callable[[tuple], tuple]] = {}
    checked = 0
    for i in k._encode_order():
        n = actives[i].bit_count()
        if n not in plans:
            plans[n] = _composition_plan(n)
        own = rows[i]
        chained = itertools.chain.from_iterable(map(rows.__getitem__, own))
        if not own or tuple(chained) != plans[n](own):
            _check_composition_at(k._simplices[i], hides[actives[i]][0])
        checked += 3**n
    return checked


def _check_composition_at(sigma: WitnessStructure, hide: list[int]) -> None:
    """The instances of ``sigma``, one by one, in the order of
    :func:`_disjoint_pairs`; ``hide`` is :func:`_hidden_masks` of its
    active set."""
    face = list(map(_from_masks, _ghosts(sigma, hide)))
    for s_part, t_part in _disjoint_pairs(len(hide).bit_length() - 1):
        one = _from_masks(_ghosts(face[s_part], (hide[t_part],))[0])
        if one != face[s_part | t_part]:
            raise VerificationError(
                f"ghosting {_bits(hide[s_part])} then {_bits(hide[t_part])} on "
                f"{sigma.encode()} gives {one.encode()}, "
                f"not {face[s_part | t_part].encode()}"
            )
