from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snapcomplex import RoundCounter

counters = st.dictionaries(
    st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=5), max_size=5
).map(RoundCounter)


def test_parse_with_gap():
    r = RoundCounter.parse("2,x,1")
    assert dict(r) == {0: 2, 2: 1}
    assert r.support == {0, 2}


def test_parse_empty_string_is_empty_counter():
    assert RoundCounter.parse("") == RoundCounter()
    assert RoundCounter.parse("").to_text() == ""


def test_parse_tolerates_spaces_and_capital_x():
    assert RoundCounter.parse(" 1 , X , 0 ") == RoundCounter({0: 1, 2: 0})


@pytest.mark.parametrize("bad", ["a", "1,-2", "1,,1", "1.5"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        RoundCounter.parse(bad)


def test_classification():
    r = RoundCounter.parse("2,0,1")
    assert r.support == {0, 1, 2}
    assert r.active == {0, 2}
    assert r.passive == {1}
    assert r.cardinality == 3


def test_delete_ignores_absent_processes():
    r = RoundCounter.parse("1,1")
    assert r.delete({1, 7}) == RoundCounter({0: 1})


def test_execute_decrements_exactly_the_step():
    r = RoundCounter.parse("2,1")
    assert r.execute({0}) == RoundCounter({0: 1, 1: 1})
    assert r.execute({0, 1}) == RoundCounter({0: 1, 1: 0})


def test_execute_rejects_non_active():
    r = RoundCounter.parse("1,0")
    with pytest.raises(ValueError):
        r.execute({1})
    with pytest.raises(ValueError):
        r.execute({5})


def test_restrict_is_execute_then_delete():
    r = RoundCounter.parse("2,1,1")
    assert r.restrict({0, 1}, {2}) == RoundCounter({0: 1, 1: 0})
    assert r.restrict({0, 1}, {2}) == r.execute({0, 1}).delete({2})


def test_restrict_rejects_drop_outside_support():
    with pytest.raises(ValueError):
        RoundCounter.parse("1,1").restrict({0}, {5})


def test_rejects_negative_entries():
    with pytest.raises(ValueError):
        RoundCounter({0: -1})
    with pytest.raises(ValueError):
        RoundCounter({-1: 1})


@given(counters)
def test_text_round_trip(r):
    assert RoundCounter.parse(r.to_text()) == r


@given(counters)
def test_json_round_trip(r):
    assert RoundCounter.from_json_obj(r.to_json_obj()) == r


@given(counters)
def test_execute_full_active_step_drops_cardinality(r):
    if not r.active:
        return
    stepped = r.execute(r.active)
    assert stepped.cardinality == r.cardinality - len(r.active)
    assert stepped.support == r.support


def _outcome(make):
    try:
        counter = make()
    except ValueError as exc:
        return ("raises", str(exc))
    return ("counter", counter, dict(counter), counter.to_text(), hash(counter))


procs = st.frozensets(st.integers(min_value=0, max_value=11), max_size=6)


@given(counters, procs, procs)
def test_restrict_matches_execute_then_delete_on_any_sets(r, step, drop):
    # One counter, made once, equal to the two-step form, errors included;
    # a drop outside the support is refused first.
    if drop <= r.support:
        expected = _outcome(lambda: r.execute(step).delete(drop))
    else:
        expected = ("raises", f"cannot drop {sorted(drop - r.support)}: outside the support")
    assert _outcome(lambda: r.restrict(step, drop)) == expected
