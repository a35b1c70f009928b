from __future__ import annotations

import pytest

from snapcomplex import (
    ChromaticSimplex,
    RoundCounter,
    WitnessStructure,
    build,
    chromatic_f_vector,
    chromatic_oracle,
    phi_iso,
    table_map,
)

from .oracles import chromatic_total, subdivision_f_vector, subdivision_simplices


@pytest.mark.parametrize("n", [0, 1, 2])
def test_oracle_counts_match_the_recurrence(n):
    assert len(chromatic_oracle(n)) == chromatic_total(n + 1)


@pytest.mark.parametrize("n", [1, 2])
def test_oracle_f_vector_matches_colored_view_enumeration(n):
    assert chromatic_f_vector(chromatic_oracle(n)) == subdivision_f_vector(n)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_oracle_vertex_sets_match_colored_view_enumeration(n):
    # Two very different enumerations of the same subdivision: ordered
    # block/survivor tuples here, pairwise-compatible colored views in the
    # test oracle.  They must produce identical vertex-set families.
    assert {cs.vertices() for cs in chromatic_oracle(n)} == set(
        subdivision_simplices(n)
    )


def test_oracle_rejects_out_of_bound_n():
    with pytest.raises(ValueError):
        chromatic_oracle(7)
    with pytest.raises(ValueError):
        chromatic_oracle(-1)


def test_table_map_hand_vertices():
    solo = ChromaticSimplex((frozenset({0}),), (frozenset({0}),))
    assert table_map(solo, 1) == WitnessStructure([({0}, {1}), ({0}, ())])

    both_seen = ChromaticSimplex((frozenset({0, 1}),), (frozenset({0}),))
    assert table_map(both_seen, 1) == WitnessStructure([({0, 1}, ()), ({0}, {1})])


def test_table_map_empty_simplex():
    empty = ChromaticSimplex((), ())
    assert table_map(empty, 1) == WitnessStructure([((), {0, 1})])


@pytest.mark.parametrize("n, f_vector", [(1, (4, 3)), (2, (12, 24, 13))])
def test_phi_is_an_isomorphism(n, f_vector):
    report = phi_iso(n)
    assert report.ok
    assert report.f_vector == f_vector
    assert report.simplices == chromatic_total(n + 1)


def test_phi_takes_the_built_complex():
    assert phi_iso(build(RoundCounter.parse("1,1,1"))) == phi_iso(2)
    with pytest.raises(ValueError, match="all-ones counter"):
        phi_iso(build(RoundCounter.parse("2,1")))
