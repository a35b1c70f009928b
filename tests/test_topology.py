from __future__ import annotations

import pytest

from snapcomplex import (
    Complex,
    StratumRef,
    WitnessStructure,
    boundary,
    classify_interior,
    euler,
    homology_z2,
    is_sphere_like,
    strong_connectivity,
)

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


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1",))
def test_homology_from_the_covers_matches_the_ghosting_path(text, get_complex):
    k = get_complex(text)
    assert homology_z2(k) == homology_z2(frozenset(k.simplices))


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1",))
def test_homology_rejects_a_complex_that_lacks_a_face(text, get_complex):
    k = get_complex(text)
    victim = next(sigma for sigma in k.ordered() if sigma.dim == 0)
    covers = {sigma: k.lower_covers(sigma) for sigma in k.simplices if sigma != victim}
    with pytest.raises(ValueError, match="not face-closed"):
        homology_z2(Complex(k.counter, covers, k.facets))


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
