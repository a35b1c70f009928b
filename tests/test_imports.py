"""The package root imports no module eagerly, and the CLI imports only
the modules that a subcommand runs."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import snapcomplex


def _modules_after(script: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``script``."""
    probe = script + "\nimport json, sys\nsys.stderr.write(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def test_importing_the_package_loads_no_module():
    loaded = _modules_after("import snapcomplex")
    assert sorted(m for m in loaded if m.startswith("snapcomplex.")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "-r", "2,1"),
        ("facets", "-r", "2,1", "--count"),
        ("export", "-r", "2,1", "--format", "dot"),
    ],
    ids=["build", "facets", "export"],
)
def test_construction_subcommands_load_only_the_construction(argv):
    loaded = _modules_after(
        "import contextlib, io\n"
        "from snapcomplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )
    package = sorted(m for m in loaded if m.startswith("snapcomplex."))
    assert package == [
        "snapcomplex.cli",
        "snapcomplex.complexes",
        "snapcomplex.counters",
        "snapcomplex.errors",
        "snapcomplex.schedules",
        "snapcomplex.witness",
    ]
    assert "dataclasses" not in loaded


def test_the_collapse_loads_only_the_collapse_engine():
    loaded = _modules_after(
        "import contextlib, io\n"
        "from snapcomplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['collapse', '-r', '2,1', '--full', '--validate']) == 0\n"
    )
    package = sorted(m for m in loaded if m.startswith("snapcomplex."))
    assert package == [
        "snapcomplex.cli",
        "snapcomplex.collapse",
        "snapcomplex.complexes",
        "snapcomplex.counters",
        "snapcomplex.errors",
        "snapcomplex.schedules",
        "snapcomplex.witness",
    ]
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_a_skipped_phi_check_loads_no_subdivision():
    loaded = _modules_after(
        "import contextlib, io\n"
        "from snapcomplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '-r', '2,1,1,1', '--checks', 'phi']) == 0\n"
    )
    assert "snapcomplex.cli" in loaded
    assert "snapcomplex.chromatic" not in loaded


def test_the_topology_checks_load_no_strata():
    loaded = _modules_after(
        "import contextlib, io\n"
        "from snapcomplex.cli import main\n"
        "checks = 'purity,pseudomanifold,boundary,strong-connectivity,euler,homology'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '-r', '2,1,1,1', '--checks', checks]) == 0\n"
    )
    assert "snapcomplex.topology" in loaded
    assert "snapcomplex.strata" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "-r", "1,1,1,1", "--checks", "CHECKS"),
        ("strata", "-r", "2,1", "--list"),
    ],
    ids=["verify", "strata-list"],
)
def test_certification_loads_no_dataclasses(argv):
    loaded = _modules_after(
        "import contextlib, io\n"
        "from snapcomplex.cli import CHECK_ORDER, main\n"
        f"argv = [a.replace('CHECKS', ','.join(CHECK_ORDER)) for a in {list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(argv) == 0\n"
    )
    assert {"snapcomplex.strata", "snapcomplex.complexes"} <= loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_every_public_name_resolves_from_the_root():
    names = snapcomplex.__all__
    assert len(set(names)) == len(names)
    star: dict = {}
    exec("from snapcomplex import *", star)
    assert set(star) - {"__builtins__"} == set(names)
    for module, exported in snapcomplex._EXPORTS.items():
        owner = importlib.import_module(f"snapcomplex.{module}")
        for name in exported:
            assert getattr(snapcomplex, name) is star[name] is getattr(owner, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        snapcomplex.no_such_name
