from __future__ import annotations

import pytest

from snapcomplex import (
    CollapseSequence,
    CollapseStalledError,
    CollapseStep,
    Complex,
    RoundCounter,
    WitnessStructure,
    build,
    collapse_all,
    collapse_to_relative_boundary,
    relative_boundary_remainder,
    validate_collapse,
)
from snapcomplex import collapse, complexes
from snapcomplex.collapse import _compute_ctrb

from . import collapse_reference as reference
from .conftest import TEST_COUNTERS

STAGE_LABELS = {"stage1", "stage2", "stage3", "recursive", "greedy-fallback"}


def ws(*rows):
    return WitnessStructure(rows)


def test_relative_boundary_remainder_is_the_off_pivot_ghost_part(get_complex):
    k = get_complex("1,1")
    assert relative_boundary_remainder(k, 0) == {
        ws(({0}, {1}), ({0}, ())),
        ws(((), {0, 1})),
    }
    # Symmetric in the pivot.
    assert relative_boundary_remainder(k, 1) == {
        ws(({1}, {0}), ({1}, ())),
        ws(((), {0, 1})),
    }


def test_relative_boundary_collapse_validates(get_complex):
    k = get_complex("1,1")
    seq = collapse_to_relative_boundary(k, 0)
    assert seq.kind == "relative-boundary"
    assert seq.pivot == 0
    assert len(seq.steps) == 3
    report = validate_collapse(
        k, seq, expected_remainder=relative_boundary_remainder(k, 0)
    )
    assert report.ok, report.to_json_obj()


def test_relative_boundary_rejects_foreign_pivot(get_complex):
    with pytest.raises(ValueError):
        collapse_to_relative_boundary(get_complex("1,1"), 7)


def test_full_collapse_of_the_smallest_complex(get_complex):
    k = get_complex("1,1")
    seq = collapse_all(k)
    assert seq.kind == "full"
    assert len(seq.steps) == 4
    assert seq.stage_counts == {"recursive": 1, "stage1": 1, "stage2": 2}
    assert seq.fallback_count == 0
    assert validate_collapse(k, seq, expected_remainder=frozenset()).ok


@pytest.mark.parametrize(
    "text, pairs",
    [("1,1", 4), ("2,1", 6), ("1,1,1", 25), ("1,0,1", 8), ("3,1", 8)],
)
def test_full_collapse_pairs_everything(text, pairs, get_complex):
    k = get_complex(text)
    seq = collapse_all(k)
    assert len(seq.steps) == pairs == len(k) // 2
    assert seq.fallback_count == 0
    assert validate_collapse(k, seq, expected_remainder=frozenset()).ok


def test_stage_labels_use_the_fixed_vocabulary(get_complex):
    seq = collapse_all(get_complex("1,1,1"))
    assert {s.stage for s in seq.steps} <= STAGE_LABELS
    assert sum(seq.stage_counts.values()) == len(seq.steps)


def test_steps_strictly_shrink_the_complex(get_complex):
    k = get_complex("2,1")
    removed: set[WitnessStructure] = set()
    for step in collapse_all(k).steps:
        assert step.free not in removed
        assert step.cofacet not in removed
        assert step.free in k.faces(step.cofacet)
        assert step.cofacet.dim == step.free.dim + 1
        removed.update({step.free, step.cofacet})
    assert removed == set(k.simplices)


def test_validator_rejects_reordered_steps(get_complex):
    k = get_complex("1,1")
    seq = collapse_all(k)
    backwards = CollapseSequence(
        counter=seq.counter,
        kind=seq.kind,
        steps=tuple(reversed(seq.steps)),
        pivot=seq.pivot,
    )
    report = validate_collapse(k, backwards, expected_remainder=frozenset())
    assert not report.ok
    assert report.violation


def test_validator_rejects_wrong_remainder(get_complex):
    k = get_complex("1,1")
    seq = collapse_to_relative_boundary(k, 0)
    report = validate_collapse(k, seq, expected_remainder=frozenset())
    assert not report.ok


def test_validator_rejects_non_face_pairs(get_complex):
    k = get_complex("1,1")
    a0 = ws(({0}, {1}), ({0}, ()))
    a1 = ws(({1}, {0}), ({1}, ()))
    bogus = CollapseSequence(
        counter=k.counter, kind="full", steps=(CollapseStep(a0, a1, "stage3"),)
    )
    assert not validate_collapse(k, bogus, expected_remainder=frozenset()).ok


def test_step_json_uses_canonical_encodings(get_complex):
    step = collapse_all(get_complex("1,1")).steps[0]
    obj = step.to_json_obj()
    assert set(obj) == {"free", "cofacet", "stage"}
    assert WitnessStructure.decode(obj["free"]) == step.free


def test_sequences_are_deterministic(get_complex):
    k = get_complex("2,1")
    again = build(RoundCounter.parse("2,1"))
    assert collapse_all(k).steps == collapse_all(again).steps


def _triples(steps):
    return [(step.free, step.cofacet, step.stage) for step in steps]


@pytest.mark.parametrize(
    "text",
    TEST_COUNTERS
    + ("2,1,1,1", "2,1,0,1", "1,0,0,1", "2,2,1", "1,0,1,1", "0", "0,0", "0,1", "1,0"),
)
def test_worklist_matches_the_rescan_reference(text, get_complex):
    k = get_complex(text)
    assert _triples(collapse_all(k).steps) == _triples(reference.collapse_all(k).steps)
    for pivot in sorted(k.counter.support):
        assert _triples(collapse_to_relative_boundary(k, pivot).steps) == _triples(
            reference.collapse_to_relative_boundary(k, pivot).steps
        )


@pytest.mark.parametrize("text", ("2,1,1", "2,1,0,1"))
def test_a_collapse_builds_no_smaller_complex(text, get_complex, monkeypatch):
    # Every smaller complex is derived from the one in hand.
    k = get_complex(text)

    def refuse(*args):
        raise AssertionError("the collapse built a complex")

    monkeypatch.setattr(complexes, "_build", refuse)
    assert validate_collapse(k, collapse_all(k), expected_remainder=frozenset()).ok
    for pivot in sorted(k.counter.support):
        assert collapse_to_relative_boundary(k, pivot).steps


def _doctored(k: Complex, extra: dict[WitnessStructure, tuple]) -> Complex:
    """``k`` with ``extra`` appended to the lower covers (new keys allowed)."""
    lower = {s: k.lower_covers(s) for s in k.simplices}
    for sigma, covers in extra.items():
        lower[sigma] = lower.get(sigma, ()) + covers
    return Complex(k.counter, lower, k.facets)


def _run(engine, doctored: Complex, pivot: int):
    """Stall ``engine`` on ``doctored``: the library's numbered engine is
    handed the complex as a part, the reference a builder that returns it."""
    if engine is _compute_ctrb:
        return engine(collapse._whole(doctored), pivot, {})

    def builder(counter: RoundCounter) -> Complex:
        return doctored if counter == doctored.counter else build(counter)

    return engine(doctored.counter, pivot, builder, {})


# Over 1,1 with pivot 0 the residue is two vertices and two edges, each
# vertex paired with one edge.  SURVIVOR is outside the residue and is
# never removed: it is part of the relative boundary.
RESIDUE_VERTEX = ws(({0, 1}, ()), ({0}, {1}))
RESIDUE_EDGE = ws(({0, 1}, ()), ({0}, ()), ({1}, ()))
SURVIVOR = ws(({0}, {1}), ({0}, ()))


def test_a_residue_simplex_covered_only_by_a_survivor_stalls(get_complex):
    # A stray residue vertex whose only cover is the survivor: the rest of
    # the residue pairs off, and nothing in the residue can take the stray.
    k = get_complex("1,1")
    stray = ws(({0, 1}, ()), ({0}, ()))
    assert stray not in k
    doctored = _doctored(k, {stray: (k.empty_simplex,), SURVIVOR: (stray,)})
    for engine in (_compute_ctrb, reference._compute_ctrb):
        with pytest.raises(CollapseStalledError, match="1 simplices unmatched"):
            _run(engine, doctored, 0)


def test_an_extra_upper_cover_in_the_residue_stalls(get_complex):
    # With one more cover, both residue vertices keep two live cofaces.
    doctored = _doctored(get_complex("1,1"), {RESIDUE_EDGE: (RESIDUE_VERTEX,)})
    for engine in (_compute_ctrb, reference._compute_ctrb):
        with pytest.raises(CollapseStalledError, match="4 simplices unmatched"):
            _run(engine, doctored, 0)


class _CountingRows:
    """Rows of numbers that count how often a row is read."""

    reads = 0

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, i):
        _CountingRows.reads += 1
        return self.rows[i]


def test_full_collapse_reads_each_cover_list_a_bounded_number_of_times(
    get_complex, monkeypatch
):
    # The rescan read every pending simplex's upper covers once per step
    # (15 339 calls on 2,1,1,1); the worklist reads each cover row a few
    # times.  It reads no upper rows: it counts each residue simplex's live
    # upper covers from the residue's lower rows.  The count covers the
    # worklist's reads of the lower rows of k and of every part derived
    # from it, not the one read that derives each part's rows.
    k = get_complex("2,1,1,1")
    whole, derived = collapse._whole, collapse._derived

    def counting(part):
        return part._replace(lower=_CountingRows(part.lower))

    def counting_derived(counter, pairs, parent):
        return counting(derived(counter, pairs, parent._replace(lower=parent.lower.rows)))

    monkeypatch.setattr(_CountingRows, "reads", 0)
    monkeypatch.setattr(collapse, "_whole", lambda c: counting(whole(c)))
    monkeypatch.setattr(collapse, "_derived", counting_derived)
    collapse_all(k)
    assert 0 < _CountingRows.reads <= 2 * len(k)


# The whole report of each kind of validator failure, on 1,1.  The full
# collapse there is FULL_11: four steps, listed as (free, cofacet, stage).
FULL_11 = (
    ("[[[1],[0]],[[1],[]]]", "[[[0,1],[]],[[1],[]],[[0],[]]]", "stage1"),
    ("[[[0,1],[]],[[0],[1]]]", "[[[0,1],[]],[[0,1],[]]]", "stage2"),
    ("[[[0,1],[]],[[1],[0]]]", "[[[0,1],[]],[[0],[]],[[1],[]]]", "stage2"),
    ("[[[],[0,1]]]", "[[[0],[1]],[[0],[]]]", "recursive"),
)


def _step(free, cofacet, stage="stage3"):
    return CollapseStep(WitnessStructure.decode(free), WitnessStructure.decode(cofacet), stage)


def _report(k, steps, expected=frozenset()):
    sequence = CollapseSequence(counter=k.counter, kind="full", steps=tuple(steps))
    return validate_collapse(k, sequence, expected_remainder=expected)


def _codes(simplices):
    return sorted(sigma.encode() for sigma in simplices)


def test_the_full_collapse_of_1_1_is_pinned(get_complex):
    assert [
        (s.free.encode(), s.cofacet.encode(), s.stage)
        for s in collapse_all(get_complex("1,1")).steps
    ] == list(FULL_11)


def test_a_free_face_not_present_keeps_its_whole_report(get_complex):
    k = get_complex("1,1")
    first = _step(*FULL_11[0])
    report = _report(k, [first, first])
    assert report.ok is False
    assert report.checked_steps == 1
    assert report.stage_counts == {"stage1": 1}
    assert report.remainder == set(k.simplices) - {first.free, first.cofacet}
    assert report.violation == "step 1: free face [[[1],[0]],[[1],[]]] is not present"


def test_a_cofacet_not_present_keeps_its_whole_report(get_complex):
    k = get_complex("1,1")
    first = _step(*FULL_11[0])
    report = _report(k, [first, _step(FULL_11[1][0], FULL_11[0][1], "stage2")])
    assert report.ok is False
    assert report.checked_steps == 1
    assert report.stage_counts == {"stage1": 1}
    assert report.remainder == set(k.simplices) - {first.free, first.cofacet}
    assert report.violation == (
        "step 1: cofacet [[[0,1],[]],[[1],[]],[[0],[]]] is not present"
    )


def test_a_free_face_with_two_remaining_cofaces_keeps_its_whole_report(get_complex):
    k = get_complex("1,1")
    report = _report(k, [_step("[[[0,1],[]],[[1],[0]]]", "[[[0,1],[]],[[0,1],[]]]")], None)
    assert report.ok is False
    assert report.checked_steps == 0
    assert report.stage_counts == {}
    assert report.remainder == k.simplices
    assert report.violation == (
        "step 0: [[[0,1],[]],[[1],[0]]] has 2 remaining cofaces, "
        "expected exactly [[[0,1],[]],[[0,1],[]]]"
    )


def test_a_cofacet_that_is_not_maximal_keeps_its_whole_report(get_complex):
    # A bare chain empty < vertex < edge.
    k = get_complex("1,1")
    empty, vertex, edge = (
        WitnessStructure.decode(code)
        for code in ("[[[],[0,1]]]", "[[[0,1],[]],[[0],[1]]]", "[[[0,1],[]],[[0,1],[]]]")
    )
    chain = Complex(k.counter, {empty: (), vertex: (empty,), edge: (vertex,)}, ())
    report = _report(chain, [_step("[[[],[0,1]]]", "[[[0,1],[]],[[0],[1]]]")], None)
    assert report.ok is False
    assert report.checked_steps == 0
    assert report.stage_counts == {}
    assert _codes(report.remainder) == [
        "[[[0,1],[]],[[0,1],[]]]",
        "[[[0,1],[]],[[0],[1]]]",
        "[[[],[0,1]]]",
    ]
    assert report.violation == "step 0: cofacet [[[0,1],[]],[[0],[1]]] is not maximal"


def test_a_remainder_mismatch_keeps_its_whole_report(get_complex):
    k = get_complex("1,1")
    report = validate_collapse(
        k, collapse_to_relative_boundary(k, 0), expected_remainder=frozenset()
    )
    assert report.ok is False
    assert report.checked_steps == 3
    assert report.stage_counts == {"stage1": 1, "stage2": 2}
    assert _codes(report.remainder) == ["[[[0],[1]],[[0],[]]]", "[[[],[0,1]]]"]
    assert report.violation == (
        "remainder mismatch: unexpected ['[[[0],[1]],[[0],[]]]', '[[[],[0,1]]]'], missing []"
    )
