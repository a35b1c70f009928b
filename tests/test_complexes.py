from __future__ import annotations

import itertools
import tracemalloc

import pytest

from snapcomplex import (
    Complex,
    ComplexTooLargeError,
    RoundCounter,
    WitnessStructure,
    build,
    check_purity,
    collapse_all,
    collapse_to_relative_boundary,
    cone_split,
    enumerate_schedules,
    facet_structures,
    facets,
    membership,
    to_facet,
    verify_ghost_composition,
    verify_translation_maps,
)

from snapcomplex import collapse, complexes, witness
from snapcomplex.errors import VerificationError
from snapcomplex.strata import HeadIndex

from . import build_reference, gg_reference
from .conftest import TEST_COUNTERS
from .oracles import layered_sequence_count


def ws(*rows):
    return WitnessStructure(rows)


R11 = RoundCounter.parse("1,1")


def test_facets_of_two_process_single_round():
    assert facets(R11) == {
        ws(({0, 1}, ()), ({0, 1}, ())),
        ws(({0, 1}, ()), ({0}, ()), ({1}, ())),
        ws(({0, 1}, ()), ({1}, ()), ({0}, ())),
    }


@pytest.mark.parametrize(
    "text",
    ["1,1", "2,1", "3,1", "2,2", "1,1,1", "2,1,1", "1,0,1", "1,0"],
)
def test_facet_count_matches_layered_sequence_oracle(text):
    r = RoundCounter.parse(text)
    assert len(facets(r)) == layered_sequence_count(dict(r))


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1", "1,1,1,1,1"))
def test_facets_from_the_search_are_the_checked_schedule_facets(text):
    r = RoundCounter.parse(text)
    assert list(facet_structures(r)) == [to_facet(s, r) for s in enumerate_schedules(r)]


def test_membership_hand_cases():
    a0 = ws(({0}, {1}), ({0}, ()))
    c0 = ws(({0, 1}, ()), ({0}, {1}))
    assert membership(R11, a0)
    assert membership(R11, c0)
    # A bare round-0 appearance of an active process is not a simplex here:
    # active traces must have exactly r(p)+1 rounds.
    assert not membership(R11, ws(({0}, {1})))
    # Too few rounds for process 0 under a two-round budget.
    assert not membership(
        RoundCounter.parse("2,1"), ws(({0, 1}, ()), ({0}, ()), ({1}, ()))
    )


@pytest.mark.parametrize("text", TEST_COUNTERS)
def test_membership_matches_the_trace_definition(text, get_complex):
    r = RoundCounter.parse(text)

    def by_traces(sigma):
        traces = sigma.traces()
        return (
            sigma.is_witness
            and set(traces) == r.support
            and all(len(traces[p]) <= r[p] + 1 for p in traces)
            and all(len(traces[p]) == r[p] + 1 for p in sigma.active_set)
        )

    candidates = {s for t in TEST_COUNTERS for s in get_complex(t).simplices}
    found = {s for s in candidates if membership(r, s)}
    assert found == {s for s in candidates if by_traces(s)}
    assert found == get_complex(text).simplices


def test_membership_requires_matching_support():
    assert not membership(R11, ws(({0}, ()), ({0}, ())))


def test_passive_process_contributes_a_round_zero_vertex():
    r = RoundCounter.parse("1,0,1")
    assert membership(r, ws(({1}, {0, 2})))


@pytest.mark.parametrize(
    "text, f_vector",
    [
        ("1,1", (4, 3)),
        ("2,1", (6, 5)),
        ("1,1,1", (12, 24, 13)),
        ("1,0", (2, 1)),
        ("2,0", (2, 1)),
    ],
)
def test_f_vectors(text, f_vector, get_complex):
    assert get_complex(text).f_vector() == f_vector


@pytest.mark.parametrize(
    "text, total",
    [
        ("1,1", 8),
        ("2,1", 12),
        ("1,1,1", 50),
        ("2,2", 28),
        ("3,1", 16),
        ("2,1,1", 108),
        ("1,0,1", 16),
        ("1,1,1,1", 416),
    ],
)
def test_total_simplex_counts_include_the_empty_simplex(text, total, get_complex):
    k = get_complex(text)
    assert len(k) == total
    assert k.empty_simplex in k
    assert sum(k.f_vector()) == total - 1


def test_build_rejects_empty_support():
    with pytest.raises(ValueError, match="empty support"):
        build(RoundCounter())


def test_build_respects_simplex_cap():
    with pytest.raises(ComplexTooLargeError) as info:
        build(RoundCounter.parse("1,1,1"), max_simplices=5)
    assert info.value.limit == 5


def test_a_negative_cap_is_rejected(monkeypatch):
    with pytest.raises(ValueError, match="the simplex cap must be nonnegative, got -1"):
        build(R11, max_simplices=-1)
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", "-5")
    with pytest.raises(ValueError, match="SNAPCOMPLEX_MAX_SIMPLICES must be nonnegative"):
        build(R11)
    with pytest.raises(ComplexTooLargeError):
        build(R11, max_simplices=0)


def test_simplex_cap_env_override(monkeypatch):
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", "6")
    with pytest.raises(ComplexTooLargeError):
        build(RoundCounter.parse("1,1,1"))


@pytest.mark.parametrize(
    "text", TEST_COUNTERS + ("2,1,1,1", "2,1,0,1", "5,0", "9,0,0")
)
def test_sub_builds_are_bounded_by_their_parent(text, get_complex, monkeypatch):
    # Every build lowers the environment cap to 1 once it returns, so a
    # complex derived from a built one is made only if its own bound,
    # taken from the parent, governs it.  5,0 and 9,0,0 have more rounds
    # than simplices.
    real = complexes._build
    sizes: list[int] = []

    def recording(*args):
        built = real(*args)
        sizes.append(len(built))
        monkeypatch.setenv(complexes.CAP_ENV_VAR, "1")
        return built

    monkeypatch.setattr(complexes, "_build", recording)
    k = get_complex(text)
    monkeypatch.setenv(complexes.CAP_ENV_VAR, "1")
    collapse_all(k)
    for pivot in sorted(k.counter.support):
        collapse_to_relative_boundary(k, pivot)
    verify_translation_maps(k)
    assert sizes and max(sizes) <= len(k)
    for p in sorted(k.counter.passive):
        monkeypatch.delenv(complexes.CAP_ENV_VAR)
        sizes.clear()
        cone_split(k.counter, p).certify()
        assert sizes[0] == len(k) and max(sizes[1:]) <= len(k)


CLOSURE_COUNTERS = TEST_COUNTERS + ("2,1,1,1", "2,1,0,1", "1,0,0,1", "1,1,1,1,1")


@pytest.mark.parametrize("text", CLOSURE_COUNTERS)
def test_build_matches_the_validate_every_face_reference(text, get_complex):
    k = get_complex(text)
    ref = build_reference.build(k.counter)
    assert k.simplices == ref.simplices
    assert k.facets == ref.facets
    for sigma in ref.simplices:
        assert k.lower_covers(sigma) == ref.lower_covers(sigma)


@pytest.mark.parametrize("text", ["2,1,1,1", "1,1,1,1,1"])
def test_build_validates_each_stored_simplex_once(text, monkeypatch):
    calls = 0
    real = witness._is_prestructure

    def counting(m):
        nonlocal calls
        calls += 1
        return real(m)

    monkeypatch.setattr(witness, "_is_prestructure", counting)
    k = build(RoundCounter.parse(text))
    assert calls == len(k)


@pytest.mark.parametrize("text", CLOSURE_COUNTERS)
def test_a_coface_never_has_more_row0_ghosts(text, get_complex):
    k = get_complex(text)
    for tau in k.simplices:
        for sigma in k.lower_covers(tau):
            assert tau.ghost_row(0) <= sigma.ghost_row(0)


@pytest.mark.parametrize("text", CLOSURE_COUNTERS)
def test_a_pivot_sub_build_is_the_part_a_collapse_removes(text, get_complex):
    # Each part a collapse derives from k, by γ for a restriction of stage
    # one or by δ for a deletion of a phase, is the part of the whole build
    # of its counter whose row-0 ghosts lie in {pivot}: the same simplices,
    # lower-cover rows and facets, each image made once.
    k = get_complex(text)
    whole_k = collapse._whole(k)
    for pivot in sorted(k.counter.support):
        classes = collapse._round_one_classes(whole_k.masks, pivot)
        for counter, pairs in itertools.chain(
            collapse._restrictions(whole_k, pivot, classes), collapse._deletions(whole_k, pivot)
        ):
            derived = collapse._derived(counter, pairs, whole_k)
            masks = [witness._from_masks(m) for m in derived.masks]
            whole = build(counter)
            inside = {s for s in whole.simplices if s.ghost_row(0) <= {pivot}}
            assert len(pairs) == len(masks) == len(set(masks))
            assert set(masks) == inside
            assert {s for s in masks if s.dim == len(counter.support) - 1} == whole.facets
            for n, sigma in enumerate(masks):
                kept = tuple(f for f in whole.lower_covers(sigma) if f in inside)
                assert tuple(masks[j] for j in derived.lower[n]) == kept


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1",))
def test_every_lower_cover_is_the_stored_simplex(text, get_complex):
    k = get_complex(text)
    stored = {sigma: sigma for sigma in k.simplices}
    for sigma in k.simplices:
        assert all(stored[face] is face for face in k.lower_covers(sigma))
        assert all(stored[coface] is coface for coface in k.upper_covers(sigma))


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1",))
def test_the_order_is_the_encode_order_and_the_chained_head_buckets(text, get_complex):
    k = get_complex(text)
    order = k.ordered()
    assert list(order) == sorted(k.simplices, key=WitnessStructure.encode)
    assert [sigma for bucket in HeadIndex.of(k).buckets for sigma in bucket] == list(order)
    assert k.encodings() == {sigma: sigma.encode() for sigma in order}


def test_build_retains_at_most_240_and_peaks_at_most_280_bytes_per_simplex():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        k = build(RoundCounter.parse("2,1,1,1"))
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert retained / len(k) <= 240
    assert peak / len(k) <= 280


def test_first_upper_covers_call_peaks_at_most_160_bytes_per_simplex():
    k = build(RoundCounter.parse("2,1,1,1"))
    tracemalloc.start()
    try:
        k.upper_covers(k.empty_simplex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(k) <= 160


def test_complex_accessors(get_complex):
    k = get_complex("2,1")
    assert k.counter == RoundCounter.parse("2,1")
    assert k.dim == 1
    assert k.empty_simplex == ws(((), {0, 1}))
    assert all(f.dim == 1 for f in k.facets)
    check_purity(k)


def test_faces_are_closed_and_dual_to_cofaces(get_complex):
    k = get_complex("2,1")
    for sigma in k.simplices:
        for tau in k.faces(sigma):
            assert tau in k
            if tau != sigma:
                assert sigma in k.proper_cofaces(tau)
        for up in k.proper_cofaces(sigma):
            assert sigma in k.faces(up)


def test_vertices_of_a_facet(get_complex):
    k = get_complex("1,1")
    central = ws(({0, 1}, ()), ({0, 1}, ()))
    assert k.vertices(central) == {
        ws(({0, 1}, ()), ({0}, {1})),
        ws(({0, 1}, ()), ({1}, {0})),
    }


def test_ghosting_composes_over_disjoint_sets(get_complex):
    # The verifier checks every split of every active set, so it reports
    # sum over simplices of 3^(dim+1) checked identities.
    assert verify_ghost_composition(get_complex("1,1")) == 1 + 4 * 3 + 3 * 9
    assert verify_ghost_composition(get_complex("1,1,1")) == 1 + 12 * 3 + 24 * 9 + 13 * 27


@pytest.mark.parametrize("text", TEST_COUNTERS)
def test_ghost_composition_ghosts_each_face_once(text, get_complex, monkeypatch):
    k = get_complex(text)
    calls = 0
    real = complexes._ghosts

    def counting(sigma, hides):
        nonlocal calls
        faces = real(sigma, hides)
        calls += len(faces)
        return faces

    monkeypatch.setattr(complexes, "_ghosts", counting)
    assert verify_ghost_composition(k) == sum(3 ** (s.dim + 1) for s in k.simplices)
    # One ghost per subset of the active set; the composed faces are read
    # from the face table.
    assert calls <= sum(2 ** (s.dim + 1) for s in k.simplices)


@pytest.mark.parametrize(
    "text", TEST_COUNTERS + ("2,1,0,1", "1,0,0,1", "2,1,1,1", "1,1,1,1,1")
)
def test_ghost_composition_matches_the_per_instance_reference(text, get_complex):
    k = get_complex(text)
    assert verify_ghost_composition(k) == gg_reference.verify_ghost_composition(k)


def test_ghost_composition_checks_faces_outside_the_complex_one_by_one(get_complex):
    # Without a vertex, the faces of its cofaces that hide the other
    # processes have no row in the face table.
    k = get_complex("1,1,1")
    vertex = min((s for s in k.simplices if s.dim == 0), key=WitnessStructure.encode)
    lower = {s: k.lower_covers(s) for s in k.simplices if s != vertex}
    doctored = Complex(k.counter, lower, k.facets)
    assert verify_ghost_composition(doctored) == gg_reference.verify_ghost_composition(
        doctored
    )


def test_ghost_composition_catches_one_corrupted_composition(get_complex, monkeypatch):
    # Ghosting one edge by one of its processes returns the edge itself;
    # the edge's cofaces then compose to the wrong face.
    k = get_complex("2,1,1")
    edge = min((s for s in k.simplices if s.dim == 1), key=WitnessStructure.encode)
    hide = 1 << min(edge.active_set)
    real = complexes._ghosts

    def corrupted(sigma, masks):
        faces = real(sigma, masks)
        return [sigma if sigma == edge and h == hide else f for h, f in zip(masks, faces)]

    monkeypatch.setattr(complexes, "_ghosts", corrupted)
    with pytest.raises(VerificationError, match="ghosting"):
        verify_ghost_composition(k)


@pytest.mark.parametrize("text, dim", [("2,1", 1), ("1,1,1,1", 2)])
def test_ghost_composition_fails_as_the_reference_on_a_corrupted_face(
    text, dim, get_complex, monkeypatch
):
    # Hiding one process of a simplex returns the face that hides another.
    # An edge of 2,1, a facet, then ghosts a process it no longer has; a
    # triangle of 1,1,1,1 and its cofaces compose to the wrong faces.
    k = get_complex(text)
    sigma = max((s for s in k.simplices if s.dim == dim), key=WitnessStructure.encode)
    first, second = sorted(sigma.active_set)[:2]
    real = complexes._ghost

    def corrupted(tau, mask):
        return real(tau, 1 << second if tau == sigma and mask == 1 << first else mask)

    monkeypatch.setattr(complexes, "_ghosts", lambda m, hides: [corrupted(m, h) for h in hides])
    monkeypatch.setattr(gg_reference, "_ghost", corrupted)
    with pytest.raises((VerificationError, ValueError)) as fast:
        verify_ghost_composition(k)
    with pytest.raises((VerificationError, ValueError)) as slow:
        gg_reference.verify_ghost_composition(k)
    assert (type(fast.value), str(fast.value)) == (type(slow.value), str(slow.value))


def test_json_shape(get_complex):
    obj = get_complex("1,1").to_json_obj(include_simplices=True)
    assert obj["f_vector"] == [4, 3]
    assert len(obj["simplices"]) == 8
    assert obj["counter"] == {"0": 1, "1": 1}


# Over ``0`` the base is the complex over nothing: one simplex.
@pytest.mark.parametrize("text, apex", [("0", 0), ("1,0", 1), ("1,1,0", 2), ("1,0,1", 1)])
def test_cone_split_certificates(text, apex):
    split = cone_split(RoundCounter.parse(text), apex)
    cert = split.certify()
    assert cert["ok"]
    assert cert["apex_process"] == apex
    assert cert["simplices"] == 2 * cert["base_simplices"]


def test_cone_split_requires_a_passive_apex():
    with pytest.raises(ValueError):
        cone_split(RoundCounter.parse("1,1"), 1)
