"""The stored cover relation against slow references.

``build`` records each simplex's codimension-1 faces; every face query
reads them.  These tests recompute the face relation the slow way --
ghosting every subset of the active set, inverting by brute force,
comparing face sets over all pairs -- and check that the fast paths
agree, and that corrupted maps and collapse steps are caught.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import pytest

from snapcomplex import (
    CollapseSequence,
    CollapseStep,
    Complex,
    RoundCounter,
    StratumRef,
    VerificationError,
    WitnessStructure,
    build,
    cone_split,
    delta,
    gamma,
    ghost,
    members,
    chromatic,
    validate_collapse,
)
from snapcomplex.complexes import _certify_iso

from .conftest import TEST_COUNTERS


def brute_faces(sigma: WitnessStructure) -> frozenset[WitnessStructure]:
    """Ghost every subset of the active set: all 2^(d+1) faces."""
    active = sorted(sigma.active_set)
    return frozenset(
        ghost(sigma, hide)
        for size in range(len(active) + 1)
        for hide in combinations(active, size)
    )


@pytest.mark.parametrize("text", TEST_COUNTERS)
def test_covers_faces_and_cofaces_match_brute_force(text, get_complex):
    k = get_complex(text)
    cofaces: dict[WitnessStructure, set[WitnessStructure]] = {s: set() for s in k.simplices}
    for sigma in k.simplices:
        assert set(k.lower_covers(sigma)) == {ghost(sigma, {p}) for p in sigma.active_set}
        faces = brute_faces(sigma)
        assert k.faces(sigma) == faces
        for face in faces - {sigma}:
            cofaces[face].add(sigma)
    for sigma in k.simplices:
        assert k.proper_cofaces(sigma) == cofaces[sigma]
        assert set(k.upper_covers(sigma)) == {
            tau for tau in cofaces[sigma] if tau.dim == sigma.dim + 1
        }


def test_equal_faces_share_one_instance(get_complex):
    k = get_complex("2,1,1")
    stored = {id(s) for s in k.simplices}
    assert all(id(face) in stored for s in k.simplices for face in k.lower_covers(s))


def test_cover_queries_reject_foreign_simplices(get_complex):
    k = get_complex("1,1")
    stranger = get_complex("2,1").facets
    for sigma in stranger:
        with pytest.raises(ValueError, match="not part of this complex"):
            k.lower_covers(sigma)
        with pytest.raises(ValueError, match="not part of this complex"):
            k.upper_covers(sigma)


# -- certificates: cover check against the all-pairs face check --------------


def _encode(sigma) -> str:
    return sigma.encode()


@dataclass
class IsoCase:
    """One certified map: both sides' lower covers, as ``_certify_iso``
    reads them, and both sides' faces, computed the slow way."""

    label: str
    domain: list
    lower: Callable
    image: dict
    target: frozenset
    target_lower: Callable
    faces: Callable
    target_faces: Callable

    def certify(self, image: dict, domain: list | None = None) -> None:
        domain = self.domain if domain is None else domain
        certify(domain, self.lower, image, self.target, self.target_lower, self.label)


def certify(domain, lower, image, target, target_lower, label) -> None:
    """``_certify_iso`` of ``image`` onto the set ``target``, whose members
    are numbered here; an image outside ``target`` keeps its value."""
    listed = list(target)
    number = {tau: j for j, tau in enumerate(listed)}
    numbered = {sigma: number.get(image[sigma], image[sigma]) for sigma in domain}

    def numbered_lower(j):
        return [number.get(face, face) for face in target_lower(listed[j])]

    _certify_iso(numbered, lower, len(listed), numbered_lower, label, _encode)


def all_pairs_face_check(case: IsoCase, image: dict) -> None:
    """The O(n²) reference: σ ≤ τ iff image(σ) ≤ image(τ), over all pairs."""
    values = set(image.values())
    if len(values) != len(case.domain):
        raise VerificationError(f"{case.label} is not injective")
    if values != case.target:
        raise VerificationError(f"{case.label} is not onto the target complex")
    target_faces = {tau: case.target_faces(tau) for tau in values}
    for tau in case.domain:
        allowed = case.faces(tau)
        mapped = target_faces[image[tau]]
        for sigma in case.domain:
            if (sigma in allowed) != (image[sigma] in mapped):
                raise VerificationError(
                    f"{case.label} breaks the face relation between "
                    f"{sigma.encode()} and {tau.encode()}"
                )


def _complex_case(label, domain, source: Complex, image, target: Complex) -> IsoCase:
    return IsoCase(
        label, domain, source.lower_covers, image, target.simplices,
        target.lower_covers, brute_faces, brute_faces,
    )


def translation_cases(k: Complex):
    """An :class:`IsoCase` for every γ_{S,A} and δ_V stratum."""
    counter = k.counter
    active = sorted(counter.active)
    for size in range(len(active) + 1):
        for sel in combinations(active, size):
            for a_size in range(size + 1):
                for absorbed in combinations(sel, a_size):
                    s, a = frozenset(sel), frozenset(absorbed)
                    restricted = counter.restrict(s, a)
                    if not restricted.support:
                        continue
                    domain = sorted(members(k, StratumRef.x(s, a)))
                    image = {sigma: gamma(sigma, s, a) for sigma in domain}
                    label = f"γ_{sorted(s)},{sorted(a)}"
                    yield _complex_case(label, domain, k, image, build(restricted))
    support = sorted(counter.support)
    for v_size in range(len(support)):
        for dropped in combinations(support, v_size):
            v = frozenset(dropped)
            domain = sorted(members(k, StratumRef.b(v)))
            image = {sigma: delta(sigma, v) for sigma in domain}
            yield _complex_case(f"δ_{sorted(v)}", domain, k, image, build(counter.delete(v)))


def cone_case(text: str) -> IsoCase:
    """The cone pairing over the least passive process, onto the join."""
    counter = RoundCounter.parse(text)
    apex = min(counter.passive)
    split = cone_split(counter, apex)
    base = split.base

    def join_lower(pair):
        tau, flag = pair
        return [(f, flag) for f in base.lower_covers(tau)] + ([(tau, False)] if flag else [])

    def join_faces(pair):
        tau, flag = pair
        return {(f, g) for f in brute_faces(tau) for g in {False, flag}}

    return IsoCase(
        f"cone pairing at apex {apex}", sorted(split.complex.simplices),
        split.complex.lower_covers, split.pairing,
        frozenset((tau, flag) for tau in base.simplices for flag in (False, True)),
        join_lower, brute_faces, join_faces,
    )


def phi_case(n: int) -> IsoCase:
    """The table map, with the subdivision's faces found by vertex containment."""
    oracle = sorted(chromatic.chromatic_oracle(n), key=_encode)
    target = build(RoundCounter.parse(",".join("1" * (n + 1))))

    def faces(cs):
        return {c for c in oracle if c.vertices() <= cs.vertices()}

    def lower(cs):
        return [c for c in faces(cs) if c.dim == cs.dim - 1]

    image = {cs: chromatic.table_map(cs, n) for cs in oracle}
    return IsoCase(
        "φ", oracle, lower, image, target.simplices, target.lower_covers, faces, brute_faces
    )


def certificate_cases(name: str, get_complex) -> list[IsoCase]:
    kind, _, text = name.rpartition(":")
    if kind == "cone":
        return [cone_case(text)]
    if kind == "phi":
        return [phi_case(int(text))]
    return list(translation_cases(get_complex(text)))


CERTIFICATES = ["2,1", "2,1,1", "cone:1,1,0", "cone:2,1,0,1", "phi:2"]


def swap_two_of_one_dimension(image: dict) -> dict:
    """The image with the values of the two least edges exchanged."""
    first, second = sorted((s for s in image if s.dim == 1), key=_encode)[:2]
    bad = dict(image)
    bad[first], bad[second] = image[second], image[first]
    return bad


@pytest.mark.parametrize("name", CERTIFICATES)
def test_cover_check_agrees_with_all_pairs_check(name, get_complex):
    cases = certificate_cases(name, get_complex)
    assert cases
    for case in cases:
        case.certify(case.image)
        all_pairs_face_check(case, case.image)


@pytest.mark.parametrize("name", CERTIFICATES)
def test_both_checks_reject_two_swapped_simplices(name, get_complex):
    case = max(certificate_cases(name, get_complex), key=lambda c: len(c.domain))
    bad = swap_two_of_one_dimension(case.image)
    with pytest.raises(VerificationError, match="face relation"):
        case.certify(bad)
    with pytest.raises(VerificationError, match="face relation"):
        all_pairs_face_check(case, bad)


@pytest.mark.parametrize(
    "name, label",
    [("2,1,1", "γ_[0],[]"), ("2,1,1", "δ_[0]"), ("cone:2,1,0,1", None), ("phi:2", None)],
    ids=["gamma", "delta", "cone", "phi"],
)
def test_each_certificate_rejects_a_broken_map(name, label, get_complex):
    case = next(
        c for c in certificate_cases(name, get_complex) if label in (None, c.label)
    )
    image, named = case.image, re.escape(case.label)
    vertex, edge = (min((s for s in case.domain if s.dim == d), key=_encode) for d in (0, 1))
    top = max(case.domain, key=lambda s: (s.dim, s.encode()))
    with pytest.raises(VerificationError, match=f"{named} is not injective"):
        case.certify({**image, vertex: image[edge]})
    with pytest.raises(VerificationError, match=f"{named} is not onto"):
        rest = [s for s in case.domain if s != top]
        case.certify({s: image[s] for s in rest}, rest)
    # A vertex and an edge swapped: only the covers tell the dimensions apart.
    with pytest.raises(VerificationError, match=f"{named} breaks the face relation"):
        case.certify({**image, vertex: image[edge], edge: image[vertex]})


def test_cover_check_rejects_a_cover_outside_the_domain(get_complex):
    case = max(translation_cases(get_complex("2,1")), key=lambda c: len(c.domain))
    # Drop a vertex from the domain and its image from the target, covers
    # included: the map stays a bijection, the target-side covers still
    # match, but the edges at that vertex have a cover outside the domain.
    vertex = min(s for s in case.domain if s.dim == 0)
    image = dict(case.image)
    lost = image.pop(vertex)
    target_lower = {
        s: tuple(f for f in case.target_lower(s) if f != lost) for s in case.target if s != lost
    }
    rest = [s for s in case.domain if s != vertex]
    with pytest.raises(VerificationError, match="face relation"):
        certify(
            rest, case.lower, image, frozenset(target_lower), target_lower.__getitem__, case.label
        )


def test_cone_certificate_rejects_a_corrupted_pairing():
    split = cone_split(RoundCounter.parse("1,1,0"), 2)
    assert split.certify()["ok"]
    split.pairing = swap_two_of_one_dimension(split.pairing)
    with pytest.raises(VerificationError, match="face relation"):
        split.certify()


# -- collapse validation reads upper covers ---------------------------------


def _single_step(k: Complex, free: WitnessStructure, cofacet: WitnessStructure):
    sequence = CollapseSequence(
        counter=k.counter, kind="full", steps=(CollapseStep(free, cofacet, "stage3"),)
    )
    return validate_collapse(k, sequence)


def test_validator_rejects_a_free_face_with_two_cofaces(get_complex):
    k = get_complex("1,1")
    edge = min(k.facets)
    vertex = next(v for v in k.lower_covers(edge) if len(k.upper_covers(v)) == 2)
    report = _single_step(k, vertex, edge)
    assert not report.ok
    assert "has 2 remaining cofaces" in report.violation


def test_validator_rejects_a_cofacet_two_dimensions_up(get_complex):
    k = get_complex("1,1,1")
    triangle = min(k.facets)
    vertex = min(s for s in k.faces(triangle) if s.dim == 0)
    report = _single_step(k, vertex, triangle)
    assert not report.ok
    assert "remaining cofaces" in report.violation


def test_validator_rejects_a_cofacet_that_is_not_maximal(get_complex):
    k = get_complex("1,1,1")
    edge = min(s for s in k.simplices if s.dim == 1)
    assert k.upper_covers(edge)
    vertex = min(k.lower_covers(edge))
    report = _single_step(k, vertex, edge)
    assert not report.ok
    assert report.violation.startswith("step 0:")
    # In a simplicial complex the vertex then has a second remaining
    # coface.  A bare chain empty < vertex < edge isolates the check.
    empty = k.empty_simplex
    chain = Complex(k.counter, {empty: (), vertex: (empty,), edge: (vertex,)}, ())
    report = _single_step(chain, empty, vertex)
    assert "is not maximal" in report.violation


def test_phi_rejects_a_table_map_that_swaps_two_edges(monkeypatch):
    true_map = chromatic.table_map
    edges = sorted(
        (s for s in chromatic.chromatic_oracle(2) if s.dim == 1),
        key=lambda s: true_map(s, 2).encode(),
    )[:2]
    swap = {edges[0]: edges[1], edges[1]: edges[0]}
    monkeypatch.setattr(chromatic, "table_map", lambda cs, n: true_map(swap.get(cs, cs), n))
    with pytest.raises(VerificationError, match="φ breaks the face relation"):
        chromatic.phi_iso(2)
