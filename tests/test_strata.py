from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest

from snapcomplex import (
    Complex,
    RoundCounter,
    StratumRef,
    WitnessStructure,
    build,
    delta,
    delta_inverse,
    gamma,
    intersect_family,
    intersect_pair,
    intersect_refs,
    members,
    membership,
    nerve,
    rho,
    verify_diagrams,
    verify_strata_calculus,
    verify_translation_maps,
)
from snapcomplex import counters, strata, witness
from snapcomplex.errors import VerificationError
from snapcomplex.strata import HeadIndex, _incidence, _x_params
from snapcomplex.witness import _head

from .conftest import TEST_COUNTERS
from .strata_reference import in_stratum, is_member


def ws(*rows):
    return WitnessStructure(rows)


A0 = ws(({0}, {1}), ({0}, ()))
C0 = ws(({0, 1}, ()), ({0}, {1}))
C1 = ws(({0, 1}, ()), ({1}, {0}))
CENTRAL = ws(({0, 1}, ()), ({0, 1}, ()))
EMPTY = ws(((), {0, 1}))


def test_display_forms():
    assert str(StratumRef.z({0, 1})) == "Z_{{0,1}}"
    assert str(StratumRef.x({0, 1}, {1})) == "X_{{0,1},{1}}"
    assert str(StratumRef.x({0})) == "X_{{0}}"
    assert str(StratumRef.y({0})) == "Y_{{0}}"
    assert str(StratumRef.b({1})) == "B_{1}"
    assert str(StratumRef.xbv({0, 1}, (), {1})) == "X_{{0,1}}∩B_{1}"


def test_in_stratum_literal_predicates():
    assert in_stratum(StratumRef.z({0}), C1)
    assert not in_stratum(StratumRef.z({0}), C0)
    assert in_stratum(StratumRef.y({0, 1}, {1}), C0)
    assert not in_stratum(StratumRef.y({0}), C0)
    assert in_stratum(StratumRef.b({1}), A0)
    assert not in_stratum(StratumRef.b({1}), CENTRAL)
    # X is the union of the Y and Z parts.
    assert in_stratum(StratumRef.x({0, 1}, {1}), C0)
    assert in_stratum(StratumRef.x({0}, {0}), C1)


def test_one_row_simplices_sit_outside_the_literal_strata():
    assert not in_stratum(StratumRef.z({0}), EMPTY)
    assert not in_stratum(StratumRef.x({0, 1}), EMPTY)


def test_members_adds_the_passive_side_to_literal_x(get_complex):
    k = get_complex("1,1")
    literal = {s for s in k.simplices if in_stratum(StratumRef.x({0, 1}, {1}), s)}
    assert literal == {C0}
    assert members(k, StratumRef.x({0, 1}, {1})) == {C0, EMPTY}


def _subsets(items):
    return [frozenset(c) for size in range(len(items) + 1) for c in combinations(items, size)]


def _every_ref(procs, max_dropped=None):
    """Every X/Y/Z/B/XBV stratum whose process sets lie in ``procs``; with
    ``max_dropped``, only the XBV strata that drop at most that many."""
    every = _subsets(procs)
    pairs = [(s, a) for s in every for a in _subsets(sorted(s))]
    dropped = [v for v in every if max_dropped is None or len(v) <= max_dropped]
    yield from (StratumRef.x(s, a) for s, a in pairs)
    yield from (StratumRef.y(s, a) for s, a in pairs)
    yield from (StratumRef.z(s) for s in every)
    yield from (StratumRef.b(v) for v in every)
    yield from (StratumRef.xbv(s, a, v) for s, a in pairs for v in dropped)


def test_mask_scans_match_the_frozenset_predicate(get_complex):
    # Every member set read from the tables, against the reference run on
    # every simplex.
    k = get_complex("2,1,1,1")
    one_row = {s: s.ghost_row(0) for s in k.simplices if s.t == 0}
    for ref in _every_ref(sorted(k.counter.support)):
        expected = frozenset(s for s in k.simplices if in_stratum(ref, s))
        if ref.kind in ("X", "Z", "XBV"):
            expected |= {s for s, g0 in one_row.items() if ref.dropped <= g0}
        assert members(k, ref) == expected, ref


class _Read:
    """What the reference reads of a simplex, read once: its first two rows
    and its number of rows past the first."""

    def __init__(self, sigma):
        self.t = sigma.t
        self.rows = [(sigma.witness_row(i), sigma.ghost_row(i)) for i in (0, 1)]

    def witness_row(self, i):
        return self.rows[i][0]

    def ghost_row(self, i):
        return self.rows[i][1]


def _assert_the_tables_hold_the_reference(k):
    """Every member set of ``k``, which :func:`members` reads from the
    tables, against the reference run on one simplex of each group of
    simplices that agree on what it reads, for strata over the support
    and one id outside it, XBV strata dropping at most two ids."""
    groups: dict[tuple, list[WitnessStructure]] = {}
    for sigma in k.simplices:
        key = (sigma.ghost_row(0), sigma.witness_row(1), sigma.ghost_row(1), sigma.t == 0)
        groups.setdefault(key, []).append(sigma)
    read = [(_Read(group[0]), group) for group in groups.values()]
    outside = max(k.counter.support) + 1
    for ref in _every_ref(sorted(k.counter.support | {outside}), max_dropped=2):
        expected = {s for first, group in read if is_member(ref, first) for s in group}
        assert members(k, ref) == expected, ref


@pytest.mark.parametrize("text", ["1,1", "2,1", "1,0,1", "1,1,1,1", "2,1,1,1"])
def test_head_buckets_partition_the_complex_in_encode_order(text, get_complex):
    k = get_complex(text)
    index = HeadIndex.of(k)
    assert sorted(index.heads) == sorted({_head(s) for s in k.simplices})
    assert all(index.buckets)
    for head, bucket in zip(index.heads, index.buckets):
        assert {_head(s) for s in bucket} == {head}
    listed = [s for bucket in index.buckets for s in bucket]
    assert listed == sorted(k.simplices, key=WitnessStructure.encode)


def test_members_of_the_empty_selection_is_everything(get_complex):
    k = get_complex("1,1")
    assert members(k, StratumRef.x(())) == k.simplices


def test_members_are_face_closed(get_complex):
    k = get_complex("1,1,1")
    for ref in (StratumRef.z({0}), StratumRef.x({0, 1}, {1}), StratumRef.x({0, 1})):
        closed = members(k, ref)
        for sigma in closed:
            assert k.faces(sigma) <= closed


def test_gamma_on_a_first_round_group():
    # The sequential facet restricted to its first-round group {0}.
    zero_first = ws(({0, 1}, ()), ({0}, ()), ({1}, ()))
    image = gamma(zero_first, {0})
    assert image == ws(({0, 1}, ()), ({1}, ()))
    assert membership(RoundCounter.parse("1,1").execute({0}), image)


def test_gamma_absorbs_round_one_ghosts():
    assert gamma(C0, {0, 1}, {1}) == ws(({0}, ()))


def test_rho_inverts_gamma(get_complex):
    k = get_complex("2,1")
    ref = StratumRef.x({0})
    for sigma in members(k, ref):
        down = gamma(sigma, {0})
        assert rho(down, {0}) == sigma


def test_delta_round_trip(get_complex):
    k = get_complex("1,0,1")
    for sigma in members(k, StratumRef.b({1})):
        down = delta(sigma, {1})
        assert membership(k.counter.delete({1}), down)
        assert delta_inverse(down, {1}) == sigma
    assert delta(A0, {1}) == ws(({0}, ()), ({0}, ()))


def _mask(*items):
    return witness._mask_of(items)


def test_incidence_criterion():
    assert (_mask(1), _mask()) in _incidence(_mask(0, 1), _mask(1))  # T inside A
    # The same selection and a smaller absorption.
    assert (_mask(0), _mask()) in _incidence(_mask(0), _mask(0))
    assert (_mask(0), _mask(0)) not in _incidence(_mask(0), _mask())
    assert (_mask(1), _mask()) not in _incidence(_mask(0), _mask())


def test_incidence_has_the_known_blind_spot(get_complex):
    # For S = A with a single leftover active process the criterion reports
    # "not contained" although the containment does hold setwise; the
    # calculus verifier counts these blind spots exactly.
    k = get_complex("1,1")
    assert (_mask(0, 1), _mask()) not in _incidence(_mask(0), _mask(0))
    assert members(k, StratumRef.x({0}, {0})) <= members(k, StratumRef.x({0, 1}))


def test_intersections():
    assert intersect_pair({0}, (), {1}, ()) == StratumRef.z({0, 1})
    assert str(intersect_pair({0}, (), {1}, ())) == "Z_{{0,1}}"
    assert intersect_pair({0}, (), {0, 1}, ()) == StratumRef.x({0, 1}, {0})
    assert intersect_pair({0, 1}, {1}, {0, 1}, ()) == StratumRef.x({0, 1}, {1})
    assert intersect_pair({0, 1}, {1}, {0}, ()) == StratumRef.x({0, 1}, {0, 1})


def test_intersect_refs_mixes_kinds():
    assert intersect_refs(StratumRef.x({0}), StratumRef.z({1})) == StratumRef.z({0, 1})
    assert intersect_refs(StratumRef.x({0, 1}), StratumRef.z({1})) == StratumRef.x(
        {0, 1}, {1}
    )
    assert intersect_refs(StratumRef.y({0}), StratumRef.y({1})) is None
    with pytest.raises(ValueError):
        intersect_refs(StratumRef.b({0}), StratumRef.b({1}))


def test_intersect_family():
    assert intersect_family([{0}, {0, 1}]) == StratumRef.x({0, 1}, {0})
    assert intersect_family([{0}, {1}]) == StratumRef.z({0, 1})
    assert intersect_family([{0}, {1}, {0, 2}]) == StratumRef.z({0, 1, 2})


def test_intersections_certified_setwise(get_complex):
    k = get_complex("1,1")
    for first, second, expected in [
        (StratumRef.x({0}), StratumRef.x({1}), StratumRef.z({0, 1})),
        (StratumRef.x({0}), StratumRef.x({0, 1}), StratumRef.x({0, 1}, {0})),
    ]:
        assert members(k, first) & members(k, second) == members(k, expected)


def test_nerve_is_a_cone(get_complex):
    report = nerve(get_complex("1,1"))
    assert report.is_cone
    assert report.apex == frozenset({0, 1})
    assert len(report.cover) == 3


@pytest.mark.parametrize(
    "text, defects",
    [("1,1", 4), ("2,1", 4), ("1,1,1", 12)],
)
def test_calculus_verifier(text, defects, get_complex):
    stats = verify_strata_calculus(get_complex(text))
    assert stats["known_containment_defects"] == defects
    assert stats["containments"] == stats["pair_intersections"]
    assert stats["union_formulas"] >= 3


def test_translation_map_verifier(get_complex):
    assert verify_translation_maps(get_complex("2,1")) == {
        "gamma_strata": 9,
        "rho_roundtrips": 28,
        "delta_strata": 3,
    }


def test_diagram_verifier(get_complex):
    reports = verify_diagrams(get_complex("2,1"))
    assert len(reports) == 25
    assert all(r.status == "ok" for r in reports)
    assert sum(r.instances_checked for r in reports) == 71


@pytest.mark.parametrize(
    "text, count, digest",
    [
        ("2,1,1", 101, "287f90b167da69d0e88b6eacdd857a839f66b1cc22328b2c3ebc41406458e933"),
        ("2,1,0,1", 101, "65df13375f3f1f7a9d6f99bd806fc9f6cd34b836c7f1e63e4df9a963a2e9312e"),
        ("1,1,1,1", 385, "03a87d91bb6d2132a38949b1d3164ad87d3494eb3d37fc4be61fe58ee2277a70"),
    ],
)
def test_diagram_reports_keep_their_order(text, count, digest, get_complex):
    # The digests pin the report list, order included, as the hand-written
    # subset loops produced it.
    reports = verify_diagrams(get_complex(text))
    assert len(reports) == count
    dumped = json.dumps([r.to_json_obj() for r in reports])
    assert hashlib.sha256(dumped.encode()).hexdigest() == digest


def _doctored(k, drop=(), add=()):
    """``k`` with the simplices ``drop`` left out and ``add`` put in."""
    lower = {s: k.lower_covers(s) for s in k.simplices if s not in drop}
    lower.update((s, ()) for s in add)
    return Complex(k.counter, lower, k.facets)


def _per_simplex_heads(self, simplices):
    """A head index with one bucket per simplex: the per-simplex scan."""
    listed = list(simplices)
    self.heads = tuple(map(_head, listed))
    self.buckets = tuple((s,) for s in listed)
    self._tables = None


def _verdicts(k):
    out = []
    for check in (verify_strata_calculus, verify_diagrams, nerve):
        try:
            out.append(check(k))
        except VerificationError as exc:
            out.append(str(exc))
    return out


def test_indexed_checks_judge_doctored_complexes_as_the_per_simplex_scan(
    get_complex, monkeypatch
):
    # Drop each simplex of 1,1 in turn, or put in one simplex of 2,1 that
    # 1,1 lacks; the indexed calculus, diagrams and nerve must reach the
    # verdicts of a scan that tests every simplex on its own.
    k = get_complex("1,1")
    doctorings = [_doctored(k, drop={s}) for s in k.simplices]
    doctorings += [_doctored(k, add={s}) for s in get_complex("2,1").simplices - k.simplices]
    indexed = [_verdicts(d) for d in doctorings]
    monkeypatch.setattr(HeadIndex, "__init__", _per_simplex_heads)
    # Fresh copies, so that their indexes are built one simplex per bucket.
    scanned = [_verdicts(_doctored(d)) for d in doctorings]
    assert indexed == scanned
    assert any(isinstance(v[0], str) for v in indexed)
    assert any(isinstance(v[1], str) for v in indexed)


def test_indexed_checks_catch_a_dropped_simplex(get_complex):
    k = get_complex("1,1")
    doctored = _doctored(k, drop={C0})
    with pytest.raises(VerificationError, match="containment criterion defects"):
        verify_strata_calculus(doctored)
    # X_{0} and X_{1} no longer share a simplex.
    report = nerve(doctored)
    assert len(report.spanning) == 4 and not report.is_cone
    assert nerve(k).is_cone and len(nerve(k).spanning) == 5


def test_indexed_diagrams_catch_a_foreign_simplex(get_complex):
    stray = ws(({0, 1}, ()), ({0, 1}, ()), ({0}, ()))
    doctored = _doctored(get_complex("1,1"), add={stray})
    with pytest.raises(
        VerificationError,
        match=r"restriction-absorbs-drop breaks at \[\[\[0,1\],\[\]\],\[\[0,1\],\[\]\],\[\[0\],\[\]\]\]",
    ):
        verify_diagrams(doctored)


def test_diagrams_catch_a_left_broken_on_the_mask_path_alone(get_complex, monkeypatch):
    # For one simplex and one kept-absorbed subset B, δ forgets nothing,
    # so only that left of restriction-absorbs-drop differs from the peel
    # that absorbs all of A.
    k, sets = get_complex("2,1,1"), witness._SETS
    s, a = next(
        (sets[s], sets[a])
        for s, a in _x_params(witness._mask_of(k.counter.active))
        if a.bit_count() == 2 and members(k, StratumRef.x(sets[s], sets[a]))
    )
    sigma = max(members(k, StratumRef.x(s, a)), key=WitnessStructure.encode)
    kept = {min(a)}
    inner, lost = gamma(sigma, s, kept), witness._mask_of(a - kept)
    real = strata._delta

    def broken(m, v):
        return m if (m, v) == (inner, lost) else real(m, v)

    monkeypatch.setattr(strata, "_delta", broken)
    with pytest.raises(VerificationError) as exc:
        verify_diagrams(k)
    assert str(exc.value) == (
        f"diagram restriction-absorbs-drop breaks at {sigma.encode()}: "
        f"{gamma(sigma, s, kept).encode()} != {gamma(sigma, s, a).encode()}"
    )


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1", "1,0,0,1", "0", "2,1,1,1"))
def test_the_tables_hold_the_head_tests_bitsets(text, get_complex):
    _assert_the_tables_hold_the_reference(get_complex(text))


def test_the_tables_of_a_doctored_complex_hold_its_head_tests(get_complex):
    # Each simplex of 1,1 left out in turn, each simplex of 2,1 that 1,1
    # lacks put in in turn, and all of those put in at once; and the
    # simplices of 1,1 put into 1,0, whose row 1 holds the passive 1.
    k, other = get_complex("1,1"), get_complex("2,1")
    doctorings = [_doctored(k, drop={s}) for s in k.simplices]
    doctorings += [_doctored(k, add={s}) for s in other.simplices - k.simplices]
    doctorings.append(_doctored(k, add=other.simplices - k.simplices))
    doctorings.append(_doctored(get_complex("1,0"), add=k.simplices))
    for doctored in doctorings:
        _assert_the_tables_hold_the_reference(doctored)


@pytest.mark.parametrize(
    "check, parent_calls",
    [(verify_diagrams, 126_144), (verify_strata_calculus, 146_836)],
    ids=["diagrams", "strata-calculus"],
)
def test_checks_validate_each_process_set_once_per_parameter(
    monkeypatch, check, parent_calls
):
    # Base: wrapping the same three names counted ``parent_calls`` calls on
    # 2,1,1,1 when every simplex re-validated its process sets.
    k = build(RoundCounter.parse("2,1,1,1"))
    calls = 0
    real = counters._check_pid

    def counting(p):
        nonlocal calls
        calls += 1
        return real(p)

    for module in (counters, strata):
        monkeypatch.setattr(module, "_check_pid", counting)
    check(k)
    assert calls * 10 <= parent_calls


def _listed(pairs):
    return [(witness._bits(s), witness._bits(a)) for s, a in pairs]


def test_x_params_go_by_select_then_absorbed():
    assert _listed(_x_params(0b11)) == [
        ([], []),
        ([0], []), ([0], [0]),
        ([1], []), ([1], [1]),
        ([0, 1], []), ([0, 1], [0]), ([0, 1], [1]), ([0, 1], [0, 1]),
    ]
    assert _listed(_x_params(0b111)) == [
        ([], []),
        ([0], []), ([0], [0]),
        ([1], []), ([1], [1]),
        ([2], []), ([2], [2]),
        ([0, 1], []), ([0, 1], [0]), ([0, 1], [1]), ([0, 1], [0, 1]),
        ([0, 2], []), ([0, 2], [0]), ([0, 2], [2]), ([0, 2], [0, 2]),
        ([1, 2], []), ([1, 2], [1]), ([1, 2], [2]), ([1, 2], [1, 2]),
        ([0, 1, 2], []), ([0, 1, 2], [0]), ([0, 1, 2], [1]), ([0, 1, 2], [2]),
        ([0, 1, 2], [0, 1]), ([0, 1, 2], [0, 2]), ([0, 1, 2], [1, 2]),
        ([0, 1, 2], [0, 1, 2]),
    ]


def test_stratum_json_shape():
    obj = StratumRef.xbv({0, 1}, {1}, {2}).to_json_obj()
    assert obj["kind"] == "XBV"
    assert obj["select"] == [0, 1]
    assert obj["absorbed"] == [1]
    assert obj["dropped"] == [2]
