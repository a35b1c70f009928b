"""The stored cover relation against slow references.

``build`` records each simplex's codimension-1 faces; every face query
reads them.  These tests recompute the face relation the slow way --
ghosting every subset of the active set, inverting by brute force,
comparing face sets over all pairs -- and check that the fast paths
agree, and that corrupted maps and collapse steps are caught.
"""

from __future__ import annotations

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
from snapcomplex.strata import _certify_iso

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


# -- translation maps: cover check against the all-pairs face check ----------


def all_pairs_face_check(
    source: Complex,
    domain: list[WitnessStructure],
    target: Complex,
    image: dict[WitnessStructure, WitnessStructure],
    label: str,
) -> None:
    """The O(n²) reference: σ ≤ τ iff image(σ) ≤ image(τ), over all pairs."""
    values = set(image.values())
    if len(values) != len(domain):
        raise VerificationError(f"{label} is not injective")
    if values != target.simplices:
        raise VerificationError(f"{label} is not onto the target complex")
    for sigma in domain:
        if image[sigma].dim != sigma.dim:
            raise VerificationError(f"{label} changes the dimension of {sigma.encode()}")
    target_faces = {tau: brute_faces(tau) for tau in values}
    for tau in domain:
        allowed = brute_faces(tau)
        mapped = target_faces[image[tau]]
        for sigma in domain:
            if (sigma in allowed) != (image[sigma] in mapped):
                raise VerificationError(
                    f"{label} breaks the face relation between "
                    f"{sigma.encode()} and {tau.encode()}"
                )


def translation_cases(k: Complex):
    """(label, domain, target, image) for every γ_{S,A} and δ_V stratum."""
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
                    yield f"γ_{sorted(s)},{sorted(a)}", domain, build(restricted), image
    support = sorted(counter.support)
    for v_size in range(len(support)):
        for dropped in combinations(support, v_size):
            v = frozenset(dropped)
            domain = sorted(members(k, StratumRef.b(v)))
            image = {sigma: delta(sigma, v) for sigma in domain}
            yield f"δ_{sorted(v)}", domain, build(counter.delete(v)), image


def swap_two_of_one_dimension(
    image: dict[WitnessStructure, WitnessStructure],
) -> dict[WitnessStructure, WitnessStructure]:
    """The image with the values of the two least edges exchanged."""
    first, second = sorted(s for s in image if s.dim == 1)[:2]
    bad = dict(image)
    bad[first], bad[second] = image[second], image[first]
    return bad


@pytest.mark.parametrize("text", ["2,1", "2,1,1"])
def test_cover_check_agrees_with_all_pairs_check(text, get_complex):
    k = get_complex(text)
    cases = list(translation_cases(k))
    assert len(cases) > 3
    for label, domain, target, image in cases:
        _certify_iso(k, domain, target, image, label)
        all_pairs_face_check(k, domain, target, image, label)


@pytest.mark.parametrize("text", ["2,1", "2,1,1"])
def test_both_checks_reject_two_swapped_simplices(text, get_complex):
    k = get_complex(text)
    label, domain, target, image = max(translation_cases(k), key=lambda c: len(c[1]))
    bad = swap_two_of_one_dimension(image)
    with pytest.raises(VerificationError, match="face relation"):
        _certify_iso(k, domain, target, bad, label)
    with pytest.raises(VerificationError, match="face relation"):
        all_pairs_face_check(k, domain, target, bad, label)


def test_cover_check_rejects_a_cover_outside_the_domain(get_complex):
    k = get_complex("2,1")
    label, domain, target, image = max(translation_cases(k), key=lambda c: len(c[1]))
    # Drop a vertex from the domain and its image from the target, covers
    # included: the map stays a bijection, the target-side covers still
    # match, but the edges at that vertex have a cover outside the domain.
    vertex = min(s for s in domain if s.dim == 0)
    image = dict(image)
    lost = image.pop(vertex)
    target_less = Complex(
        target.counter,
        {
            s: tuple(f for f in target.lower_covers(s) if f != lost)
            for s in target.simplices
            if s != lost
        },
        (),
    )
    rest = [s for s in domain if s != vertex]
    with pytest.raises(VerificationError, match="face relation"):
        _certify_iso(k, rest, target_less, image, label)


def test_cone_certificate_rejects_a_corrupted_pairing():
    split = cone_split(RoundCounter.parse("1,1,0"), 2)
    assert split.certify()["ok"]
    split.pairing = swap_two_of_one_dimension(split.pairing)
    with pytest.raises(VerificationError, match="join faces"):
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
    report = chromatic.phi_iso(2)
    assert report.bijective and report.dimension_preserving
    assert not report.face_preserving
