"""The strata certifications against their slow references, and the exact
words that they and the ghost-composition check fail with on doctored
input.

Each check that looks an image up before validating it must still
validate, and reject, one that misses: an image that is no prestructure
fails with the :class:`ValueError` of making it a structure, and one
outside the complex it must land in with the check's
:class:`VerificationError`.  The texts below are pinned as the
instance-by-instance loops wrote them.
"""

from __future__ import annotations

import pytest

from snapcomplex import (
    Complex,
    RoundCounter,
    StratumRef,
    WitnessStructure,
    members,
    verify_diagrams,
    verify_ghost_composition,
    verify_strata_calculus,
    verify_translation_maps,
)
from snapcomplex import cli, commands, complexes, strata, witness
from snapcomplex.errors import VerificationError

from . import strata_reference
from .conftest import TEST_COUNTERS

COUNTERS = TEST_COUNTERS + ("2,1,0,1", "1,0,0,1", "2,1,1,1")


@pytest.mark.parametrize("text", COUNTERS)
def test_the_calculus_matches_the_reference(text, get_complex):
    k = get_complex(text)
    assert verify_strata_calculus(k) == strata_reference.verify_strata_calculus(k)


@pytest.mark.parametrize("text", COUNTERS)
def test_the_diagrams_match_the_reference(text, get_complex):
    k = get_complex(text)
    reports = [r.to_json_obj() for r in verify_diagrams(k)]
    assert reports == strata_reference.verify_diagrams(k)


@pytest.mark.parametrize("text", COUNTERS)
def test_the_translation_maps_match_the_reference(text, get_complex):
    k = get_complex(text)
    assert verify_translation_maps(k) == strata_reference.verify_translation_maps(k)


def _doctored(k, drop=(), add=()):
    """``k`` with the simplices ``drop`` left out and ``add`` put in."""
    lower = {s: k.lower_covers(s) for s in k.simplices if s not in drop}
    lower.update((s, ()) for s in add)
    return Complex(k.counter, lower, k.facets)


def _failure(check, *args):
    with pytest.raises((VerificationError, ValueError)) as caught:
        check(*args)
    return type(caught.value).__name__, str(caught.value)


def _patched(monkeypatch, module, name, when, result):
    """``module.name`` returning ``result(args)`` on the arguments ``when``."""
    real = getattr(module, name)

    def doctored(*args):
        return result(*args) if args == when else real(*args)

    monkeypatch.setattr(module, name, doctored)


def _patched_ghosts(monkeypatch, when, result):
    """``complexes._ghosts`` with the face of ``when = (sigma, hide)``
    made by ``result(sigma, hide)``."""
    real = complexes._ghosts

    def doctored(sigma, hides):
        return [
            result(sigma, h) if (sigma, h) == when else face
            for h, face in zip(hides, real(sigma, hides))
        ]

    monkeypatch.setattr(complexes, "_ghosts", doctored)


NOT_A_PRESTRUCTURE = "not a prestructure: ghost row 0 meets witness row 0"


def _not_a_prestructure(m, *_):
    """``m`` with its row-0 witnesses ghosted there too."""
    return (m[0], m[0] | m[1]) + tuple(m[2:])


# -- gg ------------------------------------------------------------------------


def test_gg_fails_on_a_face_that_is_no_prestructure(get_complex, monkeypatch):
    k = get_complex("2,1,1")
    edge = min((s for s in k.simplices if s.dim == 1), key=WitnessStructure.encode)
    hide = 1 << min(edge.active_set)
    _patched_ghosts(monkeypatch, (edge, hide), _not_a_prestructure)
    assert _failure(verify_ghost_composition, k) == ("ValueError", NOT_A_PRESTRUCTURE)


def test_gg_fails_on_a_face_outside_the_complex(get_complex, monkeypatch):
    # Hiding one process of an edge gives back the edge: a valid structure,
    # but not the face the complex holds.
    k = get_complex("2,1,1")
    edge = min((s for s in k.simplices if s.dim == 1), key=WitnessStructure.encode)
    hide = 1 << min(edge.active_set)
    _patched_ghosts(monkeypatch, (edge, hide), lambda m, _: tuple(m))
    assert _failure(verify_ghost_composition, k) == (
        "VerificationError",
        "ghosting [2] then [0] on [[[0,1,2],[]],[[0,1,2],[]],[[0],[]]] gives "
        "[[[0,1,2],[]],[[0,1],[2]],[[0],[]]], not [[[0,1,2],[]],[[1],[0,2]]]",
    )


def test_gg_passes_a_complex_that_lacks_a_face(get_complex):
    # The faces of the vertex's cofaces that hide the other processes miss
    # the complex; those simplices are checked instance by instance.
    k = get_complex("2,1,1")
    vertex = max((s for s in k.simplices if s.dim == 0), key=WitnessStructure.encode)
    doctored = _doctored(k, drop={vertex})
    assert verify_ghost_composition(doctored) == verify_ghost_composition(k) - 3


# -- the calculus --------------------------------------------------------------


DEFECTS = "containment criterion defects are not the characterized ones: "


@pytest.mark.parametrize(
    "text, rows, expected",
    [
        (
            "1,1",
            [({0, 1}, ()), ({0}, {1})],
            "[([0, 1], [1], [0], []), ([0, 1], [1], [0], [0]), "
            "([0, 1], [1], [0, 1], [0]), ([0, 1], [1], [0, 1], [0, 1])]",
        ),
        (
            "2,1",
            [({0, 1}, ()), ({0}, {1}), ({0}, ())],
            "[([0, 1], [1], [0], []), ([0, 1], [1], [0], [0]), "
            "([0, 1], [1], [0, 1], [0]), ([0, 1], [1], [0, 1], [0, 1])]",
        ),
        (
            "2,1",
            [({0, 1}, ()), ({1}, {0})],
            "[([0], [0], [0, 1], [0, 1]), ([0], [0], [0, 1], [1]), "
            "([0], [0], [1], []), ([0], [0], [1], [1])]",
        ),
    ],
)
def test_the_calculus_fails_without_a_simplex(text, rows, expected, get_complex):
    doctored = _doctored(get_complex(text), drop={WitnessStructure(rows)})
    assert _failure(verify_strata_calculus, doctored) == (
        "VerificationError",
        DEFECTS + expected,
    )


# -- the diagrams --------------------------------------------------------------


def _last_member(k, s, a):
    """The last member of ``X_{s,a}`` of top dimension, in ``encode`` order."""
    listed = members(k, StratumRef.x(s, a))
    top = max(sigma.dim for sigma in listed)
    return max((sigma for sigma in listed if sigma.dim == top), key=WitnessStructure.encode)


@pytest.mark.parametrize("s, a", [({0}, ()), ({0, 1}, {0}), ({1, 2}, {1, 2})])
def test_the_diagrams_fail_on_an_image_that_is_no_prestructure(
    s, a, get_complex, monkeypatch
):
    k = get_complex("2,1,1")
    s, a = frozenset(s), frozenset(a)
    sigma = _last_member(k, s, a)
    when = (sigma, strata._mask_of(s), strata._mask_of(a))
    _patched(monkeypatch, strata, "_gamma", when, _not_a_prestructure)
    assert _failure(verify_diagrams, k) == ("ValueError", NOT_A_PRESTRUCTURE)


def test_absorbing_drop_validates_equal_sides_that_are_no_prestructure(
    get_complex, monkeypatch
):
    # Both sides of restriction-absorbs-drop made the same non-prestructure
    # on the empty kept-absorbed set: they agree, and the membership test
    # passes them, so the check must validate them there, before it reports
    # that parameter choice.
    k = get_complex("2,1,1")
    s, a = strata._mask_of({0, 1}), strata._mask_of({0})
    sigma = _last_member(k, {0, 1}, {0})
    bad = _not_a_prestructure(witness._gamma(sigma, s, a))
    _patched(monkeypatch, strata, "_gamma", (sigma, s, a), lambda *_: bad)
    _patched(monkeypatch, strata, "_delta", (witness._gamma(sigma, s, 0), a), lambda *_: bad)
    reported = []
    with pytest.raises(ValueError, match=NOT_A_PRESTRUCTURE):
        reported.extend(strata._Diagrams(k).restriction_absorbs_drop())
    kept_none = {"select": [0, 1], "absorbed": [0], "kept_absorbed": []}
    assert kept_none not in [r.parameters for r in reported]


@pytest.mark.parametrize(
    "s, a, expected",
    [
        (
            {0},
            (),
            "restriction-absorbs-drop breaks at "
            "[[[0,1,2],[]],[[0],[]],[[2],[]],[[1],[]],[[0],[]]]: "
            "[[[0,1,2],[]],[[0],[]],[[2],[]],[[1],[]],[[0],[]]] "
            "is not a simplex over '1,1,1'",
        ),
        (
            {0, 1},
            {0},
            "restriction-composition breaks at [[[0,1,2],[]],[[1],[0]],[[2],[]]]: "
            "[[[1,2],[]],[[2],[]]] != [[[0,1,2],[]],[[1],[0]],[[2],[]]]",
        ),
        (
            {1, 2},
            {1, 2},
            "restriction-composition breaks at [[[0,1,2],[]],[[0],[1,2]],[[0],[]]]: "
            "peeling [1, 2] leaves [[[0,1,2],[]],[[0],[1,2]],[[0],[]]], "
            "not a simplex over '2'",
        ),
    ],
)
def test_the_diagrams_fail_on_an_image_outside_the_target(
    s, a, expected, get_complex, monkeypatch
):
    # The peel returns the simplex itself: a prestructure over the wrong
    # counter.
    k = get_complex("2,1,1")
    s, a = frozenset(s), frozenset(a)
    sigma = _last_member(k, s, a)
    when = (sigma, strata._mask_of(s), strata._mask_of(a))
    _patched(monkeypatch, strata, "_gamma", when, lambda m, *_: tuple(m))
    assert _failure(verify_diagrams, k) == ("VerificationError", "diagram " + expected)


def test_the_diagrams_fail_on_a_forgetful_image_outside_the_target(get_complex, monkeypatch):
    # δ forgets nothing: the simplex itself is a prestructure over the
    # wrong counter.
    k = get_complex("2,1,0,1")
    listed = members(k, StratumRef.xbv({0}, (), {2}))
    sigma = max((s for s in listed if s.dim >= 0), key=WitnessStructure.encode)
    _patched(monkeypatch, strata, "_delta", (sigma, 4), lambda m, _: tuple(m))
    assert _failure(verify_diagrams, k) == (
        "VerificationError",
        "diagram drop-restriction-commute breaks at [[[0],[1,2,3]],[[0],[]],[[0],[]]]: "
        "[[[0],[1,3]],[[0],[]]] != [[[0],[1,2,3]],[[0],[]]]",
    )


def test_the_diagrams_fail_on_a_foreign_simplex(get_complex):
    stray = WitnessStructure([({0, 1}, ()), ({0, 1}, ()), ({0}, ())])
    assert _failure(verify_diagrams, _doctored(get_complex("1,1"), add={stray})) == (
        "VerificationError",
        "diagram restriction-absorbs-drop breaks at [[[0,1],[]],[[0,1],[]],[[0],[]]]: "
        "[[[0,1],[]],[[0],[]]] is not a simplex over '0,0'",
    )


# -- the translation maps ------------------------------------------------------


@pytest.mark.parametrize("s, a", [({0}, ()), ({0, 1}, {1})])
def test_the_translation_maps_fail_on_an_image_that_is_no_prestructure(
    s, a, get_complex, monkeypatch
):
    k = get_complex("2,1,1")
    s, a = frozenset(s), frozenset(a)
    sigma = _last_member(k, s, a)
    when = (sigma, strata._mask_of(s), strata._mask_of(a))
    _patched(monkeypatch, strata, "_gamma", when, _not_a_prestructure)
    assert _failure(verify_translation_maps, k) == ("ValueError", NOT_A_PRESTRUCTURE)


@pytest.mark.parametrize("s, a, label", [({0}, (), "γ_{0},{}"), ({0, 1}, {1}, "γ_{0,1},{1}")])
def test_the_translation_maps_fail_on_an_image_outside_the_target(
    s, a, label, get_complex, monkeypatch
):
    k = get_complex("2,1,1")
    s, a = frozenset(s), frozenset(a)
    sigma = _last_member(k, s, a)
    when = (sigma, strata._mask_of(s), strata._mask_of(a))
    _patched(monkeypatch, strata, "_gamma", when, lambda m, *_: tuple(m))
    assert _failure(verify_translation_maps, k) == (
        "VerificationError",
        f"{label} is not onto the target complex",
    )


def test_the_translation_maps_fail_on_a_forgetful_image_outside_the_target(
    get_complex, monkeypatch
):
    k = get_complex("2,1,0,1")
    sigma = max(members(k, StratumRef.b({2})), key=WitnessStructure.encode)
    _patched(monkeypatch, strata, "_delta", (sigma, 4), lambda m, _: tuple(m))
    assert _failure(verify_translation_maps, k) == (
        "VerificationError",
        "δ_{2} is not onto the target complex",
    )


@pytest.mark.parametrize(
    "drop, expected",
    [
        (False, "γ_{0,1},{} breaks the face relation below [[[0,1],[]],[[0,1],[]],[[0],[]]]"),
        (True, "γ_{},{} breaks the face relation below [[[0,1],[]],[[0],[1]],[[0],[]]]"),
    ],
    ids=["foreign", "dropped"],
)
def test_the_translation_maps_fail_on_a_doctored_complex(drop, expected, get_complex):
    k = get_complex("2,1")
    if drop:
        sigma = max(k.simplices, key=WitnessStructure.encode)
        doctored = _doctored(k, drop={sigma})
    else:
        stray = WitnessStructure([({0, 1}, ()), ({0, 1}, ()), ({0}, ())])
        doctored = _doctored(k, add={stray})
    assert _failure(verify_translation_maps, doctored) == ("VerificationError", expected)


# -- the schedule bijection ----------------------------------------------------


def test_the_schedule_bijection_fails_on_a_view_that_is_no_prestructure(
    get_complex, monkeypatch
):
    k = get_complex("2,1")
    real = commands._ghosts
    monkeypatch.setattr(
        commands, "_ghosts", lambda m, hides: [_not_a_prestructure(v) for v in real(m, hides)]
    )
    assert _failure(commands._check_schedule_bijection, k) == ("ValueError", NOT_A_PRESTRUCTURE)


def test_the_schedule_bijection_fails_without_a_facet_or_a_vertex(get_complex):
    k = get_complex("2,1")
    facet = min(k.facets, key=WitnessStructure.encode)
    vertex = min((s for s in k.simplices if s.dim == 0), key=WitnessStructure.encode)
    unlisted = Complex(k.counter, {s: k.lower_covers(s) for s in k.simplices}, k.facets - {facet})
    assert commands._check_schedule_bijection(k)["status"] == "ok"
    assert commands._check_schedule_bijection(unlisted)["status"] == "failed"
    assert commands._check_schedule_bijection(_doctored(k, drop={vertex})) == {
        "status": "failed",
        "schedules": 5,
        "facets": 5,
        "vertices": 5,
        "views": 6,
    }


# -- the cone ------------------------------------------------------------------


def test_the_cone_fails_on_an_apex_face_that_is_no_prestructure(get_complex, monkeypatch):
    # The apex, ghosted, also stays a row-0 witness: δ of that face, which
    # forgets the apex ghost, would be a valid structure, so only
    # validating the face itself catches it.
    k = get_complex("1,1,0")
    base = complexes._sub_builder(k)(k.counter.delete({2}))
    edges = (s for s in k.simplices if s.dim == 1 and 2 in s.active_set)
    edge = min(edges, key=WitnessStructure.encode)
    real = complexes._ghost

    def doctored(m, hide):
        out = real(m, hide)
        return (out[0] | hide,) + out[1:] if m == edge else out

    monkeypatch.setattr(complexes, "_ghost", doctored)
    with pytest.raises(VerificationError) as exc:
        complexes.ConeSplit(k, base, 2)
    assert str(exc.value) == f"cone pairing: {NOT_A_PRESTRUCTURE}"


def test_the_cone_names_the_simplex_below_which_its_pairing_breaks():
    split = complexes.cone_split(RoundCounter.parse("1,1,0"), 2)
    edges = sorted((s for s in split.pairing if s.dim == 1), key=WitnessStructure.encode)
    first, second = edges[:2]
    split.pairing[first], split.pairing[second] = split.pairing[second], split.pairing[first]
    with pytest.raises(VerificationError) as exc:
        split.certify()
    assert str(exc.value) == (
        "cone pairing at apex 2 breaks the face relation below "
        "[[[0,1,2],[]],[[0],[]],[[1],[]]]"
    )


# -- work ----------------------------------------------------------------------


def test_all_check_verify_validates_each_mask_once_per_check(monkeypatch, capsys):
    # The build validates each stored simplex once, and the certifications
    # each distinct mask tuple at most once; schedule-bijection finds every
    # facet and view among the stored simplices and validates none.  Base
    # on 2,1,1,1: the diagrams made 20 821 prestructure tests of 2 679
    # distinct masks, gg 9 489 of 1 194 (every face it ghosted, although
    # each is a stored simplex), schedule-bijection 1 165 of 311.  On
    # 2,1,0,1 the cone looks its faces up in the whole complex and its
    # images in the base, so it validates only what its base's build does
    # (108 tests) and the apex vertex and the base's empty simplex; base:
    # 326 tests of 217 masks on top of that build.
    phases = []
    real = witness._is_prestructure

    def counting(m):
        phases[-1][1] += 1
        phases[-1][2].add(tuple(m))
        return real(m)

    def entering(name, check):
        def run(k):
            phases.append([name, 0, set()])
            return check(k)

        return run

    monkeypatch.setattr(witness, "_is_prestructure", counting)
    for name, check in list(commands._CHECKS.items()):
        monkeypatch.setitem(commands._CHECKS, name, entering(name, check))
    for text in ("2,1,1,1", "2,1,0,1"):
        phases[:] = [["build", 0, set()]]
        assert cli.main(["verify", "-r", text, "--checks", ",".join(cli.CHECK_ORDER)]) == 0
        capsys.readouterr()
        counts = {name: (calls, len(masks)) for name, calls, masks in phases}
        for name in ("build", "strata-intersections", "diagrams", "gg"):
            calls, distinct = counts[name]
            assert calls == distinct, (text, name, calls, distinct)
        assert counts["schedule-bijection"] == (0, 0), text
    assert counts["cone"][0] == 108 + 2
