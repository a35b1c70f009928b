from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

import pytest

from snapcomplex import Complex, chromatic, commands, topology, witness
from snapcomplex.cli import CHECK_ORDER, main
from snapcomplex.complexes import DEFAULT_SIMPLEX_CAP

from .conftest import TEST_COUNTERS


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_facets_count_prints_the_plain_number(capsys):
    code, out, _ = run(capsys, "facets", "-r", "1,1,1", "--count")
    assert code == 0
    assert out == "13\n"


def test_facets_listing_is_json(capsys):
    code, out, _ = run(capsys, "facets", "-r", "1,1")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 3


def test_build_reports_the_f_vector(capsys):
    code, out, _ = run(capsys, "build", "-r", "2,1")
    assert code == 0
    assert json.loads(out)["f_vector"] == [6, 5]


def test_build_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "build", "-r", "2,1,1")
    _, second, _ = run(capsys, "build", "-r", "2,1,1")
    assert first == second


def test_build_out_writes_the_file(capsys, tmp_path):
    target = tmp_path / "complex.json"
    code, out, _ = run(capsys, "build", "-r", "1,1", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["counter"] == {"0": 1, "1": 1}


@pytest.mark.parametrize(
    "where, reason",
    [("missing/x.json", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_an_unwritable_out_path_is_a_usage_error(capsys, tmp_path, where, reason):
    target = tmp_path / where
    code, out, err = run(capsys, "build", "-r", "1,1", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {reason}\n"


def test_verify_selected_checks(capsys):
    code, out, _ = run(
        capsys, "verify", "-r", "2,1,1", "--checks", "pseudomanifold,euler"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert report["checks"]["euler"]["euler"] == 1
    assert report["checks"]["pseudomanifold"]["status"] == "ok"


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "-r", "1,1", "--checks", "nope")
    assert code == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("checks", ["", " , "])
def test_verify_rejects_an_empty_check_list(capsys, monkeypatch, checks):
    monkeypatch.setattr(commands, "build", lambda *args, **kwargs: pytest.fail("built"))
    code, out, err = run(capsys, "verify", "-r", "1,1", "--checks", checks)
    assert (code, out) == (2, "")
    assert err.startswith("error: no checks given;") and err.count("\n") == 1


def test_verify_skips_inapplicable_checks(capsys):
    code, out, _ = run(capsys, "verify", "-r", "2,1", "--checks", "cone,phi")
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["cone"]["status"] == "skipped"
    assert report["checks"]["phi"]["status"] == "skipped"


def test_strata_intersect_prints_the_closed_form(capsys):
    code, out, _ = run(capsys, "strata", "-r", "2,1,1", "--intersect", "{0}", "{1}")
    assert code == 0
    assert out == "Z_{{0,1}}\n"


def test_strata_intersect_rejects_non_active_processes(capsys):
    code, _, err = run(capsys, "strata", "-r", "1,1", "--intersect", "{9}", "{1}")
    assert code == 2
    assert "not active" in err


def test_strata_list_covers_the_complex(capsys):
    code, out, _ = run(capsys, "strata", "-r", "1,1", "--list")
    assert code == 0
    groups = json.loads(out)["strata"]
    assert sum(g["count"] for g in groups) == 8


def test_strata_nerve_reports_the_cone(capsys):
    code, out, _ = run(capsys, "strata", "-r", "1,1", "--nerve")
    assert code == 0
    assert json.loads(out)["is_cone"]


def test_collapse_full_with_validation(capsys):
    code, out, _ = run(capsys, "collapse", "-r", "1,1,1", "--full", "--validate")
    assert code == 0
    report = json.loads(out)
    assert report["validation"]["ok"]
    assert len(report["steps"]) == 25


def test_collapse_defaults_to_the_least_pivot(capsys):
    code, out, _ = run(capsys, "collapse", "-r", "2,1", "--validate")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "relative-boundary"
    assert report["pivot"] == 0
    assert report["validation"]["ok"]


def test_collapse_rejects_pivot_with_full(capsys):
    code, _, err = run(capsys, "collapse", "-r", "1,1", "--full", "--pivot", "0")
    assert code == 2
    assert "--pivot" in err


def test_export_dot_is_a_hasse_diagram(capsys):
    code, out, _ = run(capsys, "export", "-r", "1,1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"[[[],[0,1]]]"' in out


def test_export_svg_draws_small_supports_only(capsys):
    code, out, _ = run(capsys, "export", "-r", "1,1,1", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg")

    code, _, err = run(capsys, "export", "-r", "1,1,1,1", "--format", "svg")
    assert code == 2
    assert "svg" in err.lower() or "support" in err.lower()


@pytest.mark.parametrize("text", TEST_COUNTERS + ("2,1,0,1",))
def test_encodings_need_no_escaping_in_dot_or_svg(text, get_complex):
    # The DOT and SVG writers quote encodings, and put them in markup, as they are.
    alphabet = set("[],0123456789")
    assert all(set(sigma.encode()) <= alphabet for sigma in get_complex(text).simplices)


def test_svg_export_is_refused_before_the_build(monkeypatch):
    # Under a cap of one simplex the build of 1,1,1,1 would exit 3; the
    # support check comes first.
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", "1")
    proc = subprocess.run(
        [sys.executable, "-m", "snapcomplex", "export", "-r", "1,1,1,1", "--format", "svg"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "svg export is limited" in proc.stderr


@pytest.mark.parametrize("text", ["0", "1", "5", "1,1", "1,0,1", "2,1,0,1", "2,1,1"])
def test_the_json_template_writes_what_the_encoder_writes(text, get_complex):
    k = get_complex(text)
    assert commands._complex_json(k) == commands._dump(k.to_json_obj(include_simplices=True))


def test_a_written_list_may_be_empty():
    payload = {"counter": {"0": 1}, "kind": "full"}
    assert commands._dump_with(payload, "steps", []) == commands._dump({**payload, "steps": []})


def test_export_json_round_trips(capsys):
    code, out, _ = run(capsys, "export", "-r", "1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["counter"] == {"0": 1, "1": 1}


def test_bad_counter_is_a_usage_error(capsys):
    code, _, err = run(capsys, "facets", "-r", "so,so", "--count")
    assert code == 2
    assert "error" in err


def test_cap_exceeded_exits_three(capsys):
    # 1,1,1 has 13 facets and 50 simplices.
    code, _, err = run(capsys, "build", "-r", "1,1,1", "--max-simplices", "20")
    assert code == 3
    assert err == '{"error": "simplex cap exceeded", "limit": 20}\n'
    code, _, err = run(capsys, "build", "-r", "1,1,1", "--max-simplices", "5")
    assert code == 3
    assert err == '{"error": "schedule cap exceeded", "limit": 5}\n'
    # 1200 rounds make a complex of two simplices, but more layers than
    # the cap allows.
    code, _, err = run(capsys, "build", "-r", "1200", "--max-simplices", "100")
    assert code == 3
    assert err == '{"error": "round budget exceeded", "limit": 100}\n'


@pytest.mark.parametrize("flag, env", [("-1", ""), (None, "-5")], ids=["flag", "env"])
def test_a_negative_cap_is_a_usage_error(capsys, monkeypatch, flag, env):
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", env)
    argv = ["build", "-r", "1,1"] + (["--max-simplices", flag] if flag else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be nonnegative" in err
    assert err.count("\n") == 1


def test_a_zero_cap_still_exits_three(capsys):
    code, _, err = run(capsys, "build", "-r", "1,1", "--max-simplices", "0")
    assert code == 3
    assert err == '{"error": "round budget exceeded", "limit": 0}\n'


def test_long_single_process_counter_builds(capsys):
    code, out, err = run(capsys, "build", "-r", "1200")
    assert code == 0
    assert json.loads(out)["f_vector"] == [1]
    assert err == ""


def test_facet_listing_respects_the_cap(capsys):
    # 6,6,6 has 18 rounds, within the cap, and far more schedules.
    code, _, err = run(capsys, "facets", "-r", "6,6,6", "--count", "--max-simplices", "20")
    assert code == 3
    assert err == '{"error": "schedule cap exceeded", "limit": 20}\n'


_LONG = ",".join(["1"] * 1025)


@pytest.mark.parametrize(
    "argv, env, code, err",
    [
        (("-r", "x"), None, 2, "error: facets need a nonempty support\n"),
        (("-r", ""), None, 2, "error: facets need a nonempty support\n"),
        (
            ("-r", "2,2,2", "--max-simplices", "3"),
            None,
            3,
            '{"error": "round budget exceeded", "limit": 3}\n',
        ),
        (
            ("-r", "2,2,2", "--max-simplices", "100"),
            None,
            3,
            '{"error": "schedule cap exceeded", "limit": 100}\n',
        ),
        (
            ("-r", "1,1", "--max-simplices", "-1"),
            None,
            2,
            "error: the simplex cap must be nonnegative, got -1\n",
        ),
        (
            ("-r", "1,1"),
            "-1",
            2,
            "error: SNAPCOMPLEX_MAX_SIMPLICES must be nonnegative, got -1\n",
        ),
        (("-r", _LONG), None, 2, "error: process id must be at most 1023, got 1024\n"),
        (
            ("-r", "0", "--max-simplices", "0"),
            None,
            3,
            '{"error": "schedule cap exceeded", "limit": 0}\n',
        ),
    ],
    ids=["x", "empty", "round-budget", "schedule-cap", "flag", "env", "1025-ids", "zero-cap"],
)
def test_the_count_refuses_what_the_listing_refuses(capsys, monkeypatch, argv, env, code, err):
    # The count makes no schedule, yet fails as the enumeration fails.
    if env is None:
        monkeypatch.delenv("SNAPCOMPLEX_MAX_SIMPLICES", raising=False)
    else:
        monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", env)
    assert run(capsys, "facets", *argv, "--count") == (code, "", err)
    assert run(capsys, "facets", *argv) == (code, "", err)


def test_the_count_refuses_3333_at_once(capsys, monkeypatch):
    # 3,3,3,3 has 10 681 263 schedules; enumerating them to the cap took 46 s.
    monkeypatch.delenv("SNAPCOMPLEX_MAX_SIMPLICES", raising=False)
    start = time.perf_counter()
    outcome = run(capsys, "facets", "-r", "3,3,3,3", "--count")
    assert time.perf_counter() - start < 1.0
    assert outcome == (3, "", '{"error": "schedule cap exceeded", "limit": 2000000}\n')
    assert run(capsys, "facets", "-r", "3,3,3,3", "--count", "--max-simplices", "10681263") == (
        0,
        "10681263\n",
        "",
    )


def test_the_count_of_a_long_counter_needs_no_stack(capsys):
    # A schedule of 5,000 layers, far past the interpreter's recursion
    # limit; the lone round of process 1 goes in one of 2 * 5000 + 1 places.
    assert run(capsys, "facets", "-r", "5000,1", "--count") == (0, "10001\n", "")


def test_cone_check_reuses_the_built_complex(capsys, monkeypatch):
    # 2,1,0 has 24 simplices; the cone base 2,1 has 12.  Only a rebuild of
    # the whole complex under the environment cap would exceed 23.
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", "23")
    code, out, _ = run(
        capsys, "verify", "-r", "2,1,0", "--checks", "cone", "--max-simplices", "24"
    )
    assert code == 0
    assert json.loads(out)["checks"]["cone"]["status"] == "ok"


def test_phi_check_reuses_the_built_complex(capsys, monkeypatch):
    built = []
    real = commands.build

    def counting(counter, **kwargs):
        built.append(counter.to_text())
        return real(counter, **kwargs)

    monkeypatch.setattr(commands, "build", counting)
    monkeypatch.setattr(chromatic, "build", counting)
    code, out, err = run(capsys, "verify", "-r", "1,1,1,1", "--checks", "phi")
    assert code == 0, err
    assert json.loads(out)["checks"]["phi"]["status"] == "ok"
    assert built == ["1,1,1,1"]


def test_verify_computes_the_boundary_once(capsys, monkeypatch):
    # The pseudomanifold, boundary and homology checks share one boundary.
    calls = []
    real = topology._boundary

    def counting(k):
        calls.append(k.counter.to_text())
        return real(k)

    monkeypatch.setattr(topology, "_boundary", counting)
    code, out, err = run(capsys, "verify", "-r", "2,1,0,1", "--checks", ",".join(CHECK_ORDER))
    assert code == 0, err
    assert json.loads(out)["ok"]
    assert calls == ["2,1,0,1"]


def test_all_check_verify_makes_no_structure_tuple_of_covers(capsys, monkeypatch):
    # The checks walk the complex's rows of numbers; the tuple-making
    # cover queries are left to callers outside the package.
    calls = []
    for name in ("lower_covers", "upper_covers"):
        real = getattr(Complex, name)

        def counting(self, sigma, real=real, name=name):
            calls.append(name)
            return real(self, sigma)

        monkeypatch.setattr(Complex, name, counting)
    code, out, err = run(capsys, "verify", "-r", "2,1,1,1", "--checks", ",".join(CHECK_ORDER))
    assert code == 0, err
    assert json.loads(out)["ok"]
    assert calls == []


@pytest.mark.parametrize("text", ["1,1", "1,1,1", "2,1,0,1", "2,1,1,1"])
def test_the_homology_check_ghosts_no_face(text, get_complex, monkeypatch):
    # The rim's Betti numbers come from the rows of the built complex.
    k = get_complex(text)

    def refuse(*args):
        raise AssertionError("ghosted a face")

    ghosting = ((witness, "_lower_faces"), (witness, "_ghost"), (topology, "_lower_faces"))
    for module, name in ghosting:
        monkeypatch.setattr(module, name, refuse)
    detail = commands._check_homology(k)
    assert detail["status"] == "ok"
    assert "boundary_reduced_betti" in detail


def _swap_two_edges(keys, key) -> dict:
    """The two least edges among ``keys`` in ``key`` order, each to the other."""
    first, second = sorted((k for k in keys if k.dim == 1), key=key)[:2]
    return {first: second, second: first}


@pytest.mark.parametrize(
    "text, check, named", [("1,1,1", "phi", "φ"), ("1,1,0", "cone", "cone")], ids=["phi", "cone"]
)
def test_a_broken_certificate_fails_its_check(capsys, monkeypatch, text, check, named):
    # Every certificate raises on a defect; verify reports it in one shape.
    if check == "phi":
        true_map = chromatic.table_map
        swap = _swap_two_edges(chromatic.chromatic_oracle(2), lambda cs: true_map(cs, 2).encode())
        monkeypatch.setattr(chromatic, "table_map", lambda cs, n: true_map(swap.get(cs, cs), n))
    else:

        class Corrupted(commands.ConeSplit):
            def __init__(self, *args):
                super().__init__(*args)
                swap = _swap_two_edges(self.pairing, lambda s: s.encode())
                self.pairing = {s: self.pairing[swap.get(s, s)] for s in self.pairing}

        monkeypatch.setattr(commands, "ConeSplit", Corrupted)
    code, out, _ = run(capsys, "verify", "-r", text, "--checks", check)
    assert code == 1
    result = json.loads(out)["checks"][check]
    assert sorted(result) == ["error", "status"] and result["status"] == "failed"
    assert result["error"].startswith(named) and "face relation" in result["error"]


@pytest.mark.parametrize("flags", [("--full",), ("--pivot", "0")])
def test_collapse_sub_builds_obey_the_flag_over_the_environment(capsys, monkeypatch, flags):
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", "12")
    code, out, err = run(
        capsys, "collapse", "-r", "2,1,1", *flags, "--validate", "--max-simplices", "100000"
    )
    assert code == 0, err
    assert json.loads(out)["validation"]["ok"]


@pytest.mark.parametrize("text,check", [("2,1,0", "cone"), ("1,1,1", "phi")])
def test_checks_build_under_the_flag_over_the_environment(capsys, monkeypatch, text, check):
    # The cone base 2,1 has 12 simplices and the phi target 1,1,1 has more.
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", "11")
    code, out, err = run(
        capsys, "verify", "-r", text, "--checks", check, "--max-simplices", "100000"
    )
    assert code == 0, err
    assert json.loads(out)["checks"][check]["status"] == "ok"


def test_bad_cap_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SNAPCOMPLEX_MAX_SIMPLICES", "abc")
    code, _, err = run(capsys, "build", "-r", "1,1")
    assert code == 2
    assert "SNAPCOMPLEX_MAX_SIMPLICES" in err
    assert "Traceback" not in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "snapcomplex", "facets", "-r", "1,1", "--count"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def _limit_address_space(limit: int = 1_500_000_000) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv,code",
    [
        (("build", "-r", "10000000"), 3),
        (("facets", "-r", "3000000,1", "--count"), 3),
        (("build", "-r", "99999999999999999999"), 3),
        (("build", "-r", "1200"), 0),
    ],
)
def test_round_budgets_are_checked_against_the_cap(argv, code, monkeypatch):
    # A schedule has at most as many layers as there are rounds in all,
    # so a budget above the default cap is refused before any search.
    monkeypatch.delenv("SNAPCOMPLEX_MAX_SIMPLICES", raising=False)
    proc = subprocess.run(
        [sys.executable, "-m", "snapcomplex", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 3:
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr) == {
            "error": "round budget exceeded",
            "limit": DEFAULT_SIMPLEX_CAP,
        }


@pytest.mark.parametrize("text, apex", [("0", 0), ("x,0", 1)])
def test_cone_check_certifies_a_lone_passive_process(capsys, text, apex):
    # Deleting the only process leaves the complex over nothing: one
    # simplex, under a cone of two.
    code, out, err = run(capsys, "verify", "-r", text, "--checks", "cone")
    assert code == 0, err
    assert json.loads(out)["checks"]["cone"]["certificates"] == [
        {"apex_process": apex, "base_simplices": 1, "ok": True, "simplices": 2}
    ]


def test_building_the_empty_counter_is_a_usage_error(capsys):
    code, out, err = run(capsys, "build", "-r", "")
    assert (code, out) == (2, "")
    assert err == "error: cannot build a complex over an empty support\n"


@pytest.mark.parametrize(
    "argv", [("verify", "-r", "5,0", "--checks", "cone"), ("collapse", "-r", "5,0", "--full")]
)
def test_sub_builds_may_have_more_rounds_than_simplices(capsys, argv):
    # 5,0 has four simplices; its cone base and the collapse's dropped
    # stratum are the complex of 5, with five rounds.
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["counter"] == {"0": 5, "1": 0}


@pytest.mark.parametrize(
    "argv", [("build", "-r", "1999999"), ("facets", "-r", "1000000,999999")]
)
def test_running_out_of_memory_exits_three(argv, monkeypatch):
    # Both round budgets are just under the default cap, so only the
    # address-space limit stops the search; 128 MB stops it within seconds.
    # (The facet listing searches; the count makes no schedule.)
    monkeypatch.delenv("SNAPCOMPLEX_MAX_SIMPLICES", raising=False)
    proc = subprocess.run(
        [sys.executable, "-m", "snapcomplex", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: _limit_address_space(128 << 20),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == '{"error": "memory exhausted"}\n'


@pytest.mark.parametrize("megabytes", [48, 52, 56, 60, 64])
def test_exhausted_memory_is_reported_on_one_line(megabytes, monkeypatch):
    # Under these limits memory runs out in the build or the JSON dump of
    # 1,1,1,1,1,1, at times while a generator is suspended; freeing that
    # generator must add nothing to stderr.
    monkeypatch.delenv("SNAPCOMPLEX_MAX_SIMPLICES", raising=False)
    proc = subprocess.run(
        [sys.executable, "-m", "snapcomplex", "build", "-r", "1,1,1,1,1,1"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: _limit_address_space(megabytes << 20),
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == '{"error": "memory exhausted"}\n'


def test_a_pivot_outside_the_support_is_refused_before_the_build(capsys):
    # Under a cap of one simplex the build of 1,1,1 would exit 3; the pivot
    # check comes first.
    code, out, err = run(
        capsys, "collapse", "-r", "1,1,1", "--pivot", "7", "--max-simplices", "1"
    )
    assert (code, out) == (2, "")
    assert "pivot 7 is outside the support" in err
