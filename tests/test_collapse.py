from __future__ import annotations

import pytest

from snapcomplex import (
    CollapseSequence,
    CollapseStep,
    RoundCounter,
    WitnessStructure,
    build,
    collapse_all,
    collapse_to_relative_boundary,
    relative_boundary_remainder,
    validate_collapse,
)

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
