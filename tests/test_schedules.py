from __future__ import annotations

from itertools import combinations

import pytest

from snapcomplex import (
    ComplexTooLargeError,
    RoundCounter,
    WitnessStructure,
    build,
    enumerate_schedules,
    is_valid_schedule,
    to_facet,
    views,
)

from snapcomplex.schedules import _SUBMASKS, _nonempty_subsets, _submasks, _subsets, _x_params

from .oracles import fubini, layered_sequence_count


def ws(*rows):
    return WitnessStructure(rows)


R11 = RoundCounter.parse("1,1")


def test_enumeration_of_two_process_single_round():
    assert set(enumerate_schedules(R11)) == {
        (frozenset({0}), frozenset({1})),
        (frozenset({0, 1}),),
        (frozenset({1}), frozenset({0})),
    }


def test_enumeration_order_is_smaller_layers_first():
    assert list(enumerate_schedules(R11)) == [
        (frozenset({0}), frozenset({1})),
        (frozenset({1}), frozenset({0})),
        (frozenset({0, 1}),),
    ]


def test_enumeration_respects_the_schedule_cap():
    assert len(list(enumerate_schedules(R11, max_schedules=3))) == 3
    with pytest.raises(ComplexTooLargeError):
        list(enumerate_schedules(R11, max_schedules=2))


@pytest.mark.parametrize(
    "text", ["1,1", "2,1", "3,1", "2,2", "1,1,1", "2,1,1", "1,0,1", "1,1,1,1", "1,0"]
)
def test_schedule_count_matches_layered_oracle(text):
    r = RoundCounter.parse(text)
    schedules = list(enumerate_schedules(r))
    assert len(schedules) == len(set(schedules)) == layered_sequence_count(dict(r))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_ones_count_is_the_fubini_number(n):
    r = RoundCounter({p: 1 for p in range(n)})
    assert sum(1 for _ in enumerate_schedules(r)) == fubini(n)


def test_validity():
    r = RoundCounter.parse("2,1")
    assert is_valid_schedule([frozenset({0, 1}), frozenset({0})], r)
    assert is_valid_schedule([frozenset({0}), frozenset({0}), frozenset({1})], r)
    # Empty layer.
    assert not is_valid_schedule([frozenset({0, 1}), frozenset(), frozenset({0})], r)
    # Process 0 must take exactly two steps.
    assert not is_valid_schedule([frozenset({0, 1})], r)
    # Unknown process.
    assert not is_valid_schedule([frozenset({0, 1, 5}), frozenset({0})], r)
    # Passive processes never take a step.
    assert not is_valid_schedule([frozenset({0, 1})], RoundCounter.parse("1,0"))


def test_to_facet_hand_cases():
    assert to_facet([frozenset({0, 1})], R11) == ws(({0, 1}, ()), ({0, 1}, ()))
    assert to_facet([frozenset({0}), frozenset({1})], R11) == ws(
        ({0, 1}, ()), ({0}, ()), ({1}, ())
    )


def test_to_facet_rejects_invalid_schedules():
    with pytest.raises(ValueError):
        to_facet([frozenset({0})], R11)


@pytest.mark.parametrize("text", ["2,1", "1,1,1", "1,0,1"])
def test_schedules_biject_with_facets(text, get_complex):
    r = RoundCounter.parse(text)
    k = get_complex(text)
    mapped = [to_facet(s, r) for s in enumerate_schedules(r)]
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == k.facets


def test_views_of_the_central_schedule():
    central = [frozenset({0, 1})]
    assert views(central, R11) == {
        0: ws(({0, 1}, ()), ({0}, {1})),
        1: ws(({0, 1}, ()), ({1}, {0})),
    }


def test_views_cover_every_vertex(get_complex):
    r = RoundCounter.parse("1,1,1")
    k = get_complex("1,1,1")
    seen = set()
    for s in enumerate_schedules(r):
        seen.update(views(s, r).values())
    assert seen == {v for v in k.simplices if v.dim == 0}


def test_subsets_go_by_size_then_lexicographically():
    assert list(_subsets((0, 1, 2))) == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
    ]
    assert list(_nonempty_subsets((0, 1, 2))) == list(_subsets((0, 1, 2)))[1:]


def test_submasks_and_x_params_follow_combinations_on_every_mask_below_64():
    def mask_of(ids):
        return sum(1 << p for p in ids)

    def by_size(ids):
        return [c for size in range(len(ids) + 1) for c in combinations(ids, size)]

    for mask in range(1 << 6):
        subsets = by_size([p for p in range(6) if mask >> p & 1])
        assert _submasks(mask) == _SUBMASKS[mask] == tuple(map(mask_of, subsets))
        pairs = [(frozenset(s), frozenset(a)) for s in subsets for a in by_size(s)]
        assert _x_params(mask) == [(mask_of(s), mask_of(a)) for s, a in pairs]
