from __future__ import annotations

import re

import pytest

from snapcomplex import (
    Complex,
    StratumRef,
    VerificationError,
    WitnessStructure,
    boundary,
    check_purity,
    classify_interior,
    euler,
    homology_z2,
    is_sphere_like,
    strong_connectivity,
)
from snapcomplex.topology import _homology_in

from .conftest import TEST_COUNTERS
from .strata_reference import in_stratum


def ws(*rows):
    return WitnessStructure(rows)


def test_boundary_of_the_two_process_complex(get_complex):
    report = boundary(get_complex("1,1"))
    assert report.top_dim == 1
    assert report.ridge_count == 4
    assert report.boundary_ridges == {
        ws(({0}, {1}), ({0}, ())),
        ws(({1}, {0}), ({1}, ())),
    }
    assert report.ghost_rule_holds


@pytest.mark.parametrize("text", ["2,1", "1,1,1", "2,1,1", "1,0,1"])
def test_boundary_ridges_are_exactly_the_ghosted_row_zero_simplices(
    text, get_complex
):
    report = boundary(get_complex(text))
    assert report.ghost_rule_holds
    # The closure of the degree-1 ridges is the whole ghosted-row-0 part.
    assert report.simplices == {
        s for s in get_complex(text).simplices if s.ghost_row(0)
    }


@pytest.mark.parametrize("text", ["1,1", "2,2", "1,1,1", "2,1,1", "1,0,1"])
def test_strong_connectivity(text, get_complex):
    assert strong_connectivity(get_complex(text))


@pytest.mark.parametrize("text", ["1,1", "2,1", "1,1,1", "2,2", "1,0,1"])
def test_euler_characteristic_is_one(text, get_complex):
    assert euler(get_complex(text)) == 1


def test_euler_accepts_bare_simplex_collections(get_complex):
    k = get_complex("1,1")
    assert euler(k.simplices) == 1


@pytest.mark.parametrize("text", ["1,1", "2,1", "1,1,1", "1,0,1"])
def test_reduced_homology_vanishes(text, get_complex):
    betti = homology_z2(get_complex(text))
    assert all(b == 0 for b in betti.values())


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1", "1,1,1,1,1"))
def test_homology_from_the_covers_matches_the_ghosting_path(text, get_complex):
    k = get_complex(text)
    assert homology_z2(k) == homology_z2(frozenset(k.simplices))
    # The rim as a set of k's numbers, read off k's rows.
    rim = boundary(k).simplices
    assert _homology_in(k, {k._number[s] for s in rim}) == homology_z2(rim)


@pytest.mark.parametrize("text", ["2,1,1", "1,1,1,1"])
def test_homology_reads_the_order_and_the_dimensions_off_the_rows(
    text, get_complex, monkeypatch
):
    # No structure is looked up to find its number, and none is asked for
    # its dimension: the encode order of numbers is kept on the complex.
    k = get_complex(text)
    rim = {k._number[s] for s in boundary(k).simplices}
    expected = homology_z2(k), _homology_in(k, rim)

    def refuse(*args):
        raise AssertionError("read a structure")

    monkeypatch.setattr(WitnessStructure, "dim", property(refuse))
    monkeypatch.setattr(Complex, "ordered", refuse)
    assert (homology_z2(k), _homology_in(k, rim)) == expected


def _doctored(k, facets, drop=()):
    """``k`` through the mapping constructor, with ``facets`` and without
    the simplices ``drop``, which stay named as covers."""
    covers = {s: k.lower_covers(s) for s in k.simplices if s not in drop}
    return Complex(k.counter, covers, facets)


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1",))
def test_homology_rejects_a_complex_that_lacks_a_face(text, get_complex):
    k = get_complex(text)
    victim = next(sigma for sigma in k.ordered() if sigma.dim == 0)
    with pytest.raises(ValueError, match="not face-closed"):
        homology_z2(_doctored(k, k.facets, drop={victim}))


def test_a_cover_outside_the_complex_is_named(get_complex):
    k = get_complex("1,1,1")
    ghosted = (s for s in k.simplices if s.dim == 0 and s.ghost_row(0))
    victim = min(ghosted, key=WitnessStructure.encode)
    doctored = _doctored(k, k.facets, drop={victim})
    edge = next(s for s in doctored.simplices if victim in k.lower_covers(s))
    named = re.escape(victim.encode())
    for walk in (check_purity, boundary, lambda c: c.faces(edge)):
        with pytest.raises(VerificationError, match=named):
            walk(doctored)


def test_purity_rejects_a_facet_below_top_dimension(get_complex):
    k = get_complex("1,1,1")
    edge = min(s for s in k.simplices if s.dim == 1)
    with pytest.raises(VerificationError, match="facet .* has dimension 1, expected 2"):
        check_purity(_doctored(k, k.facets | {edge}))


def test_purity_rejects_a_simplex_below_no_facet(get_complex):
    k = get_complex("1,1,1")
    with pytest.raises(VerificationError, match="^1 simplices are not faces of any facet"):
        check_purity(_doctored(k, k.facets - {min(k.facets)}))


def test_boundary_rejects_a_ridge_in_three_facets(get_complex):
    k = get_complex("1,1")
    # A third edge on both vertices of an edge: its interior vertex now
    # lies in three edges.
    stranger = min(get_complex("2,1").facets)
    covers = {s: k.lower_covers(s) for s in k.simplices}
    covers[stranger] = k.lower_covers(min(k.facets))
    with pytest.raises(VerificationError, match="lies in 3 facets"):
        boundary(Complex(k.counter, covers, k.facets | {stranger}))


def test_boundary_reports_a_broken_ghost_rule(get_complex):
    # Without one facet, its interior ridges lie in one facet each, and the
    # rim takes in simplices with no row-0 ghost.
    k = get_complex("1,1,1")
    report = boundary(_doctored(k, k.facets - {min(k.facets)}))
    assert not report.ghost_rule_holds
    assert any(not s.ghost_row(0) for s in report.simplices)


def test_strong_connectivity_sees_two_groups_of_facets(get_complex):
    k = get_complex("1,1,1")
    first = min(k.facets)
    apart = min(f for f in k.facets if not set(k.lower_covers(f)) & set(k.lower_covers(first)))
    assert not strong_connectivity(_doctored(k, {first, apart}))
    assert strong_connectivity(_doctored(k, k.facets))


@pytest.mark.parametrize("text, sphere_dim", [("1,1", 0), ("2,2", 0), ("1,1,1", 1)])
def test_boundary_is_a_homology_sphere(text, sphere_dim, get_complex):
    rim = boundary(get_complex(text)).simplices
    assert is_sphere_like(homology_z2(rim), sphere_dim)


def test_is_sphere_like_rejects_wrong_dimension():
    two_points = {-1: 0, 0: 1}
    assert is_sphere_like(two_points, 0)
    assert not is_sphere_like(two_points, 1)
    assert not is_sphere_like({-1: 0, 0: 0, 1: 1}, 0)


def test_classify_interior_names_the_first_round_stratum():
    c0 = ws(({0, 1}, ()), ({0}, {1}))
    ref = classify_interior(c0)
    assert ref == StratumRef.xbv({0, 1}, {1}, ())
    assert in_stratum(ref, c0)

    a0 = ws(({0}, {1}), ({0}, ()))
    assert classify_interior(a0) == StratumRef.xbv({0}, (), {1})

    assert classify_interior(ws(((), {0, 1}))) is None


def test_classification_covers_the_complex(get_complex):
    k = get_complex("1,1,1")
    for sigma in k.simplices:
        ref = classify_interior(sigma)
        if ref is not None:
            assert in_stratum(ref, sigma)
