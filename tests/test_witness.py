from __future__ import annotations

import copy
import pickle
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snapcomplex import (
    Classification,
    RoundCounter,
    WitnessStructure,
    build,
    ghost,
    validate,
)
from snapcomplex.witness import (
    MAX_PROCESS_ID,
    _ghost,
    _head,
    _lower_faces,
    _structure_violation,
)

from . import ghost_reference
from .conftest import TEST_COUNTERS
from .ghost_reference import (
    TraceForm,
    canonical_form,
    from_trace_form,
    stabilize,
    to_trace_form,
)


def ws(*rows):
    return WitnessStructure(rows)


# The three facets of the two-process single-round complex, plus the four
# vertices they generate by ghosting.
CENTRAL = ws(({0, 1}, ()), ({0, 1}, ()))
ZERO_FIRST = ws(({0, 1}, ()), ({0}, ()), ({1}, ()))
A0 = ws(({0}, {1}), ({0}, ()))
C0 = ws(({0, 1}, ()), ({0}, {1}))


def test_validate_rejects_row_escaping_row_zero():
    assert validate([({0}, ()), ({1}, ())]) is Classification.INVALID


def test_validate_rejects_ghost_meeting_later_witness():
    assert validate([({0}, {1}), ({1}, ())]) is Classification.INVALID


def test_validate_rejects_overlapping_ghost_rows():
    assert validate([({0, 1}, ()), ((), {1}), ((), {1})]) is Classification.INVALID


def test_validate_rejects_empty_sequence():
    assert validate([]) is Classification.INVALID


def test_validate_grades_by_tail_witnesses():
    assert validate([({0, 1}, ()), ({0}, ())]) is Classification.WITNESS
    assert validate([({0, 1}, ()), ((), {1}), ({0}, ())]) is Classification.STABLE
    assert validate([({0, 1}, ()), ({0}, ()), ((), {1})]) is Classification.PRESTRUCTURE


def test_constructor_rejects_invalid_rows():
    with pytest.raises(ValueError, match="not a prestructure"):
        ws(({0}, ()), ({1}, ()))


@pytest.mark.parametrize("bad", [-1, True, "a"])
def test_constructor_rejects_ids_a_mask_cannot_hold(bad):
    message = f"process id must be a nonnegative integer, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ws(({bad}, ()))


def test_ids_past_the_mask_bound_are_rejected():
    assert ws(({MAX_PROCESS_ID}, ())).support == {MAX_PROCESS_ID}
    big = MAX_PROCESS_ID + 1
    message = f"process id must be at most {MAX_PROCESS_ID}, got {big}"
    with pytest.raises(ValueError, match=message):
        ws(({big}, ()))
    with pytest.raises(ValueError, match="got 1000000000"):
        build(RoundCounter({10**9: 1}))


def test_a_structure_equals_and_hashes_as_its_mask_tuple():
    masks = (0b11, 0, 0b01, 0, 0b10, 0)
    assert ZERO_FIRST == masks and masks == ZERO_FIRST
    assert hash(ZERO_FIRST) == hash(masks)
    assert {masks: "found"}[ZERO_FIRST] == "found" and masks in {ZERO_FIRST}
    assert (len(ZERO_FIRST), tuple(ZERO_FIRST), ZERO_FIRST[2]) == (6, masks, 0b01)
    assert ZERO_FIRST != (0b11, 0, 0b10, 0, 0b01, 0)
    assert repr(A0) == "WitnessStructure([([0],[1]),([0],[])])"


def test_a_structure_is_ordered_by_its_encoding_alone(get_complex):
    simplices = list(get_complex("2,1").simplices)
    assert sorted(simplices) == sorted(simplices, key=WitnessStructure.encode)
    for sigma in simplices[:6]:
        for tau in simplices[:6]:
            assert (sigma < tau) == (sigma.encode() < tau.encode())
            assert (sigma > tau) == (sigma.encode() > tau.encode())
    # By masks ZERO_FIRST < CENTRAL; by encoding it is the other way.
    assert tuple(ZERO_FIRST) < tuple(CENTRAL) and ZERO_FIRST > CENTRAL
    for compare in (lambda x, y: x <= y, lambda x, y: x >= y):
        with pytest.raises(TypeError):
            compare(ZERO_FIRST, CENTRAL)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_structure_survives_copy_and_pickle(clone):
    for sigma in (CENTRAL, ZERO_FIRST, A0, C0):
        twin = clone(sigma)
        assert type(twin) is WitnessStructure
        assert twin == sigma and twin.encode() == sigma.encode()


def test_head_reads_a_missing_row_one_as_empty():
    one_row = ws(({0}, {1}))
    assert _head(one_row) == (0b01, 0b10, 0, 0)
    assert _head(ZERO_FIRST) == (0b11, 0, 0b01, 0)


def test_basic_accessors():
    assert A0.support == {0, 1}
    assert A0.active_set == {0}
    assert A0.dim == 0
    assert A0.t == 1
    assert not A0.is_empty
    assert A0.witness_row(1) == {0}
    assert A0.witness_row(7) == frozenset()
    assert A0.ghost_row(0) == {1}


def test_empty_simplex_has_dimension_minus_one():
    empty = ws(((), {0, 1}))
    assert empty.is_empty
    assert empty.dim == -1
    assert empty.support == {0, 1}
    assert empty.is_witness  # t = 0, nothing to witness


def test_traces():
    assert A0.traces() == {0: {0, 1}, 1: {0}}
    assert CENTRAL.traces() == {0: {0, 1}, 1: {0, 1}}


def test_trace_form_round_trip_on_hand_structures():
    for sigma in (CENTRAL, ZERO_FIRST, A0, C0):
        assert from_trace_form(to_trace_form(sigma)) == sigma


def test_trace_form_last():
    tf = to_trace_form(C0)
    assert tf.last(0) == 1
    assert tf.last(1) == 0  # ghosted at row 1, so last witnessed at row 0


def test_from_trace_form_rejects_missing_round_zero():
    with pytest.raises(ValueError, match="round 0"):
        from_trace_form(TraceForm(frozenset({0}), frozenset(), {0: frozenset({1})}))


def test_canonical_form_merges_skipped_ghosts_forward():
    stable = ws(({0, 1}, ()), ((), {1}), ({0}, ()))
    assert canonical_form(stable) == C0


def test_canonical_form_is_identity_on_witness_structures():
    for sigma in (CENTRAL, ZERO_FIRST, A0, C0):
        assert canonical_form(sigma) == sigma


def test_canonical_form_requires_stability():
    prestructure = ws(({0, 1}, ()), ({0}, ()), ((), {1}))
    with pytest.raises(ValueError, match="stable"):
        canonical_form(prestructure)


def test_stabilize_rejects_non_active_processes():
    with pytest.raises(ValueError, match="not active"):
        stabilize(A0, {1})


def test_ghost_rejects_non_active_processes():
    with pytest.raises(ValueError, match="not active"):
        ghost(A0, {1})


def test_ghost_merges_an_emptied_row_forward():
    # Hiding 1 empties row 1; its new ghost moves on to row 2.
    assert ghost(ws(({0, 1}, ()), ({1}, ()), ({0}, ())), {1}) == C0


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,1,1", "3,2,1", "0,0,1"))
def test_ghost_matches_the_trace_form_reference(text, get_complex):
    for sigma in get_complex(text).simplices:
        active = sorted(sigma.active_set)
        for k in range(len(active) + 1):
            for hide in combinations(active, k):
                assert ghost(sigma, hide) == ghost_reference.ghost(sigma, hide)


def test_ghosting_the_late_process_truncates():
    # Hiding the second mover of the sequential facet cuts its final round.
    assert ghost(ZERO_FIRST, {1}) == A0


def test_ghosting_inside_the_central_facet_keeps_the_round():
    assert ghost(CENTRAL, {1}) == C0


def test_ghosting_drops_dimension_by_the_hidden_count():
    assert ghost(CENTRAL, {0, 1}).dim == -1
    assert ghost(CENTRAL, {1}).dim == 0
    assert ghost(CENTRAL, ()).dim == CENTRAL.dim == 1


def test_ghost_composition_on_hand_facet():
    one_then_other = ghost(ghost(ZERO_FIRST, {0}), {1})
    both = ghost(ZERO_FIRST, {0, 1})
    assert one_then_other == both
    assert both == ws(((), {0, 1}))


def test_encode_decode_round_trip():
    for sigma in (CENTRAL, ZERO_FIRST, A0, C0, ws(((), {0, 1}))):
        assert WitnessStructure.decode(sigma.encode()) == sigma


def test_encode_is_compact_and_sorted():
    assert CENTRAL.encode() == "[[[0,1],[]],[[0,1],[]]]"


def test_json_round_trip():
    obj = ZERO_FIRST.to_json_obj()
    assert obj == {"pairs": [[[0, 1], []], [[0], []], [[1], []]]}
    assert WitnessStructure.from_json_obj(obj) == ZERO_FIRST


def test_ordering_matches_encoding():
    structures = [CENTRAL, ZERO_FIRST, A0, C0]
    assert sorted(structures) == sorted(structures, key=WitnessStructure.encode)


# -- differential properties against the frozenset statement ---------------

PROCS = range(5)


def reference_classification(rows) -> Classification:
    """``validate`` written from the frozenset conditions."""
    frozen = tuple((frozenset(w), frozenset(g)) for w, g in rows)
    if _structure_violation(frozen) is not None:
        return Classification.INVALID
    tail = [w for w, _ in frozen[1:]]
    if all(tail):
        return Classification.WITNESS
    if tail[-1]:
        return Classification.STABLE
    return Classification.PRESTRUCTURE


@st.composite
def prestructure_rows(draw):
    """Rows meeting every prestructure condition by construction: each
    process is absent, active, or ghosted at one row, and is witnessed
    in row 0 and in any rows before its ghost row."""
    t = draw(st.integers(0, 3))
    rows = [(set(), set()) for _ in range(t + 1)]
    for p in PROCS:
        kind = draw(st.sampled_from(("absent", "active", "ghost")))
        if kind == "absent":
            continue
        ghost_at = draw(st.integers(0, t)) if kind == "ghost" else t + 1
        if ghost_at == 0:
            rows[0][1].add(p)
            continue
        rows[0][0].add(p)
        for i in range(1, min(ghost_at, t + 1)):
            if draw(st.booleans()):
                rows[i][0].add(p)
        if ghost_at <= t:
            rows[ghost_at][1].add(p)
    return rows


@st.composite
def near_misses(draw):
    """A prestructure with one process added to one of its sets."""
    rows = draw(prestructure_rows())
    i = draw(st.integers(0, len(rows) - 1))
    rows[i][draw(st.integers(0, 1))].add(draw(st.sampled_from(PROCS)))
    return rows


_sets = st.frozensets(st.sampled_from(PROCS))
raw_rows = st.one_of(
    st.lists(st.tuples(_sets, _sets), max_size=4),
    prestructure_rows(),
    near_misses(),
)


@settings(max_examples=300, deadline=None)
@given(raw_rows)
def test_mask_validation_matches_the_frozenset_conditions(rows):
    expected = reference_classification(rows)
    assert validate(rows) is expected
    if expected is Classification.INVALID:
        with pytest.raises(ValueError, match="not a prestructure"):
            WitnessStructure(rows)
    else:
        sigma = WitnessStructure(rows)
        assert sigma.classification is expected
        assert sigma.rows == tuple((frozenset(w), frozenset(g)) for w, g in rows)


@st.composite
def witness_and_hide(draw):
    rows = draw(prestructure_rows().filter(lambda r: all(w for w, _ in r[1:])))
    sigma = WitnessStructure(rows)
    active = sorted(sigma.active_set)
    hide = draw(st.frozensets(st.sampled_from(active))) if active else frozenset()
    return sigma, hide


@settings(max_examples=300, deadline=None)
@given(witness_and_hide())
def test_ghost_matches_the_trace_form_reference_on_random_structures(case):
    sigma, hide = case
    assert ghost(sigma, hide) == ghost_reference.ghost(sigma, hide)


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,1,1", "2,1,0,1"))
def test_lower_faces_is_ghost_by_each_active_process(text, get_complex):
    # The all-faces kernel against the one-face ghost, p ascending.
    for sigma in get_complex(text).simplices:
        assert _lower_faces(sigma) == [
            _ghost(sigma, 1 << p) for p in sorted(sigma.active_set)
        ]
