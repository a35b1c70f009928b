"""Slow references for stratum membership and the strata certifications.

:func:`in_stratum` is the literal membership predicate, on frozensets,
that the library used before member sets were computed from mask heads;
:func:`is_member` adds the one-row convention of
:func:`snapcomplex.strata.members` to it, and :func:`member_set` scans
every simplex with it.  The
three certifications below are the loops of
:func:`snapcomplex.verify_strata_calculus`,
:func:`snapcomplex.verify_diagrams` and
:func:`snapcomplex.verify_translation_maps`, instance by instance: member
sets are frozensets from :func:`member_set`, strata are
:class:`~snapcomplex.StratumRef` objects, every image is made and
validated by the public maps, and membership is
:func:`snapcomplex.membership`.  Their parameters are enumerated here, with
:mod:`itertools`, and not by the engine's ``_x_params``: a pair missing
from the engine's list is then missing from one side only.  They report,
and fail, as the library does.
"""

from __future__ import annotations

import itertools

from snapcomplex import (
    StratumRef,
    delta,
    delta_inverse,
    gamma,
    intersect_family,
    intersect_refs,
    membership,
    rho,
)
from snapcomplex.complexes import Complex, _sub_builder
from snapcomplex.errors import VerificationError
from snapcomplex.witness import WitnessStructure


def in_stratum(ref: StratumRef, sigma: WitnessStructure) -> bool:
    """Literal membership: does ``sigma`` satisfy the stratum's conditions?

    Rows past the last one read as empty, so a one-row simplex sits in
    ``Z_S`` literally only for ``S = ∅``.
    """
    w1 = sigma.witness_row(1)
    g1 = sigma.ghost_row(1)
    g0 = sigma.ghost_row(0)
    if ref.kind == "Z":
        return ref.select <= g1
    if ref.kind == "Y":
        return (w1 | g1) == ref.select and ref.absorbed <= g1
    if ref.kind == "B":
        return ref.dropped <= g0
    x_part = ref.absorbed <= g1 and ((w1 | g1) == ref.select or ref.select <= g1)
    if ref.kind == "X":
        return x_part
    return x_part and ref.dropped <= g0  # XBV


def is_member(ref: StratumRef, sigma: WitnessStructure) -> bool:
    """Is ``sigma`` a member of ``ref``: literally, or as a one-row simplex
    that ghosts the dropped set, for every kind but ``Y``?"""
    return in_stratum(ref, sigma) or (
        ref.kind != "Y" and sigma.t == 0 and ref.dropped <= sigma.ghost_row(0)
    )


def member_set(k: Complex, ref: StratumRef) -> frozenset[WitnessStructure]:
    """The members of ``ref`` in ``k``, scanned one simplex at a time."""
    return frozenset(sigma for sigma in k.simplices if is_member(ref, sigma))


def _listed(k: Complex, ref: StratumRef) -> list[WitnessStructure]:
    return sorted(member_set(k, ref), key=WitnessStructure.encode)


def _fmt(values) -> str:
    return "{" + ",".join(str(p) for p in sorted(values)) + "}"


def _subsets(items) -> list[tuple]:
    """Every subset of ``items``, as a sorted tuple: by size, then
    lexicographically; the empty one comes first."""
    items = sorted(items)
    return [c for size in range(len(items) + 1) for c in itertools.combinations(items, size)]


def _x_params(procs) -> list[tuple[frozenset, frozenset]]:
    """Every ``(S, A)`` with ``A ⊆ S ⊆ procs``: by ``S``, then by ``A``."""
    return [(frozenset(s), frozenset(a)) for s in _subsets(procs) for a in _subsets(s)]


def verify_strata_calculus(k: Complex) -> dict[str, int]:
    active = frozenset(k.counter.active)
    subsets = [frozenset(s) for s in _subsets(active)]
    pairs = _x_params(active)
    mem_x = {(s, a): member_set(k, StratumRef.x(s, a)) for s, a in pairs}
    mem_z = {s: member_set(k, StratumRef.z(s)) for s in subsets}

    y_sets: dict = {}

    def mem_y(s, a):
        if not a <= s:
            return frozenset()
        if (s, a) not in y_sets:
            y_sets[s, a] = member_set(k, StratumRef.y(s, a))
        return y_sets[s, a]

    def mem_ref(ref):
        return mem_x[ref.select, ref.select if ref.kind == "Z" else ref.absorbed]

    containments = 0
    mismatches = set()
    for s, a in pairs:
        for t, b in pairs:
            claim = (s == t and b <= a) or t <= a
            actual = mem_x[s, a] <= mem_x[t, b]
            if claim and not actual:
                raise VerificationError(
                    f"criterion asserts X_{_fmt(s)},{_fmt(a)} ⊆ "
                    f"X_{_fmt(t)},{_fmt(b)} but the member sets disagree"
                )
            if actual and not claim:
                mismatches.add((s, a, t, b))
            containments += 1
    predicted = {(s, s, active, b) for s, b in pairs if len(active - s) == 1}
    if mismatches != predicted:
        unexpected = sorted(
            (sorted(s), sorted(a), sorted(t), sorted(b))
            for s, a, t, b in mismatches ^ predicted
        )
        raise VerificationError(
            f"containment criterion defects are not the characterized ones: "
            f"{unexpected[:4]}"
        )

    yz_identities = 0
    for s in subsets:
        for t in subsets:
            if mem_z[s] & mem_z[t] != mem_z[s | t]:
                raise VerificationError(f"Z_{_fmt(s)} ∩ Z_{_fmt(t)} ≠ Z of the union")
            yz_identities += 1
    for s, a in pairs:
        if not s:
            continue
        for t in subsets:
            if mem_y(s, a) & mem_z[t] != mem_y(s, a | t):
                raise VerificationError(
                    f"Y_{_fmt(s)},{_fmt(a)} ∩ Z_{_fmt(t)} is not the absorbed form"
                )
            yz_identities += 1
    for s, a in pairs:
        for t, b in pairs:
            expected = mem_y(s, a | b) if s == t else frozenset()
            if mem_y(s, a) & mem_y(t, b) != expected:
                raise VerificationError(
                    f"Y_{_fmt(s)},{_fmt(a)} ∩ Y_{_fmt(t)},{_fmt(b)} is off"
                )
            yz_identities += 1

    pair_intersections = 0
    for s, a in pairs:
        for t, b in pairs:
            ref = intersect_refs(StratumRef.x(s, a), StratumRef.x(t, b))
            if mem_ref(ref) != mem_x[s, a] & mem_x[t, b]:
                raise VerificationError(
                    f"X_{_fmt(s)},{_fmt(a)} ∩ X_{_fmt(t)},{_fmt(b)} ≠ members of {ref}"
                )
            pair_intersections += 1

    family_intersections = 0
    for count in (1, 2, 3):
        for family in itertools.combinations([s for s in subsets if s], count):
            ref = intersect_family(family)
            expected = frozenset.intersection(*(mem_x[s, frozenset()] for s in family))
            if mem_ref(ref) != expected:
                raise VerificationError(
                    f"family intersection over "
                    f"{[sorted(s) for s in family]} ≠ members of {ref}"
                )
            family_intersections += 1

    union_formulas = 0
    for a in subsets:
        if a == active:
            continue
        union = frozenset().union(*(mem_x[t, a] for t in subsets if a < t))
        if mem_x[a, a] != union:
            raise VerificationError(f"Z_{_fmt(a)} is not the union of its enlargements")
        union_formulas += 1

    return {
        "containments": containments,
        "known_containment_defects": len(predicted),
        "yz_identities": yz_identities,
        "pair_intersections": pair_intersections,
        "family_intersections": family_intersections,
        "union_formulas": union_formulas,
    }


def _report(diagram: str, parameters: dict, count: int) -> dict:
    return {
        "diagram": diagram,
        "parameters": parameters,
        "instances_checked": count,
        "status": "ok",
    }


def _fail(diagram: str, sigma: WitnessStructure, detail: str) -> VerificationError:
    return VerificationError(f"diagram {diagram} breaks at {sigma.encode()}: {detail}")


def verify_diagrams(k: Complex) -> list[dict]:
    """The reports of :func:`snapcomplex.verify_diagrams`, as JSON objects."""
    counter = k.counter
    active = sorted(counter.active)
    reports = []
    name = "restriction-composition"
    for absorbed in _subsets(active)[1:]:
        a = frozenset(absorbed)
        deleted = counter.delete(a)
        for select in _subsets([p for p in active if p not in a])[1:]:
            s = frozenset(select)
            stratum = _listed(k, StratumRef.x(s | a, a))
            for sigma in stratum:
                mid = gamma(sigma, a, a)
                if not membership(deleted, mid):
                    raise _fail(
                        name,
                        sigma,
                        f"peeling {sorted(a)} leaves {mid.encode()}, "
                        f"not a simplex over {deleted.to_text()!r}",
                    )
                if not is_member(StratumRef.x(s), mid):
                    raise _fail(name, sigma, f"{mid.encode()} misses the stratum X_{_fmt(s)}")
                two_step, one_step = gamma(mid, s), gamma(sigma, s | a, a)
                if two_step != one_step:
                    raise _fail(name, sigma, f"{two_step.encode()} != {one_step.encode()}")
            parameters = {"select": sorted(s), "absorbed": sorted(a)}
            reports.append(_report(name, parameters, len(stratum)))
    name = "restriction-absorbs-drop"
    for s, a in _x_params(counter.active)[1:]:
        shrunk = counter.restrict(s, a)
        stratum = _listed(k, StratumRef.x(s, a))
        for small in _subsets(a):
            for sigma in stratum:
                left = delta(gamma(sigma, s, small), a - set(small))
                right = gamma(sigma, s, a)
                if left != right:
                    raise _fail(name, sigma, f"{left.encode()} != {right.encode()}")
                if not small and not membership(shrunk, right):
                    raise _fail(
                        name, sigma, f"{right.encode()} is not a simplex over {shrunk.to_text()!r}"
                    )
            parameters = {"select": sorted(s), "absorbed": sorted(a), "kept_absorbed": list(small)}
            reports.append(_report(name, parameters, len(stratum)))
    name = "drop-restriction-commute"
    for s, a in _x_params(counter.active)[1:]:
        checked = 0
        for sigma in _listed(k, StratumRef.x(s, a)):
            peeled = gamma(sigma, s, a)
            for v in _subsets(sigma.ghost_row(0) - s):
                left, right = delta(peeled, v), gamma(delta(sigma, v), s, a)
                if left != right:
                    raise _fail(name, sigma, f"{left.encode()} != {right.encode()}")
                if not membership(counter.delete(v).restrict(s, a), left):
                    raise _fail(
                        name,
                        sigma,
                        f"{left.encode()} is not a simplex over the dropped-and-stepped counter",
                    )
                checked += 1
        reports.append(_report(name, {"select": sorted(s), "absorbed": sorted(a)}, checked))
    return reports


def _certify_iso(k: Complex, domain, image, target: Complex, label: str) -> None:
    values = set(image.values())
    if len(values) != len(domain):
        raise VerificationError(f"{label} is not injective")
    if values != set(target.simplices):
        raise VerificationError(f"{label} is not onto the target complex")
    for sigma in domain:
        mapped = {image.get(face) for face in k.lower_covers(sigma)}
        if mapped != set(target.lower_covers(image[sigma])):
            raise VerificationError(f"{label} breaks the face relation below {sigma.encode()}")


def verify_translation_maps(k: Complex) -> dict[str, int]:
    counter = k.counter
    target_for = _sub_builder(k)
    gamma_strata = rho_roundtrips = delta_strata = 0
    for s, a in _x_params(counter.active):
        label = f"γ_{_fmt(s)},{_fmt(a)}"
        domain = _listed(k, StratumRef.x(s, a))
        target = target_for(counter.restrict(s, a))
        image = {sigma: gamma(sigma, s, a) for sigma in domain}
        _certify_iso(k, domain, image, target, label)
        gamma_strata += 1
        if a:
            continue
        for sigma in domain:
            if rho(image[sigma], s) != sigma:
                raise VerificationError(f"ρ_{_fmt(s)} does not undo {label} on {sigma.encode()}")
        for tau in target.ordered():
            back = rho(tau, s)
            if back not in image or gamma(back, s) != tau:
                raise VerificationError(f"ρ_{_fmt(s)} is not a right inverse on {tau.encode()}")
            rho_roundtrips += 1
    for v in _subsets(counter.support)[:-1]:
        label = f"δ_{_fmt(v)}"
        domain = _listed(k, StratumRef.b(v))
        target = target_for(counter.delete(v))
        image = {sigma: delta(sigma, v) for sigma in domain}
        _certify_iso(k, domain, image, target, label)
        for sigma in domain:
            if delta_inverse(image[sigma], v) != sigma:
                raise VerificationError(f"{label} round trip fails on {sigma.encode()}")
        delta_strata += 1
    return {
        "gamma_strata": gamma_strata,
        "rho_roundtrips": rho_roundtrips,
        "delta_strata": delta_strata,
    }
