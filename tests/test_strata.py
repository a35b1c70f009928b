from __future__ import annotations

from itertools import combinations

import pytest

from snapcomplex import (
    RoundCounter,
    StratumRef,
    WitnessStructure,
    build,
    delta,
    delta_inverse,
    gamma,
    in_stratum,
    incidence,
    intersect_family,
    intersect_pair,
    intersect_refs,
    literal_members,
    members,
    membership,
    nerve,
    rho,
    verify_diagrams,
    verify_strata_calculus,
    verify_translation_maps,
)


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
    literal = literal_members(k, StratumRef.x({0, 1}, {1}))
    assert literal == {C0}
    assert members(k, StratumRef.x({0, 1}, {1})) == {C0, EMPTY}


def _subsets(items):
    return [frozenset(c) for size in range(len(items) + 1) for c in combinations(items, size)]


def _every_ref(counter):
    """Every X/Y/Z/B/XBV stratum over the counter's processes."""
    active, support = _subsets(sorted(counter.active)), _subsets(sorted(counter.support))
    pairs = [(s, a) for s in active for a in _subsets(sorted(s))]
    yield from (StratumRef.x(s, a) for s, a in pairs)
    yield from (StratumRef.y(s, a) for s, a in pairs)
    yield from (StratumRef.z(s) for s in active)
    yield from (StratumRef.b(v) for v in support)
    yield from (StratumRef.xbv(s, a, v) for s, a in pairs for v in support)


def test_mask_scans_match_the_frozenset_predicate(get_complex):
    k = get_complex("2,1,1,1")
    one_row = {s: s.ghost_row(0) for s in k.simplices if s.t == 0}
    for ref in _every_ref(k.counter):
        literal = frozenset(s for s in k.simplices if in_stratum(ref, s))
        assert literal_members(k, ref) == literal, ref
        closed = literal
        if ref.kind in ("X", "Z", "XBV"):
            closed |= {s for s, g0 in one_row.items() if ref.dropped <= g0}
        assert members(k, ref) == closed, ref


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


def test_incidence_criterion():
    assert incidence({0, 1}, {1}, {1}, ())  # T inside A
    assert incidence({0}, {0}, {0}, ())  # same selection, smaller absorption
    assert not incidence({0}, (), {0}, {0})
    assert not incidence({0}, (), {1}, ())


def test_incidence_has_the_known_blind_spot(get_complex):
    # For S = A with a single leftover active process the criterion reports
    # "not contained" although the containment does hold setwise; the
    # calculus verifier counts these blind spots exactly.
    k = get_complex("1,1")
    assert not incidence({0}, {0}, {0, 1}, ())
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


def test_stratum_json_shape():
    obj = StratumRef.xbv({0, 1}, {1}, {2}).to_json_obj()
    assert obj["kind"] == "XBV"
    assert obj["select"] == [0, 1]
    assert obj["absorbed"] == [1]
    assert obj["dropped"] == [2]
