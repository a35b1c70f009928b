"""The package root imports no module eagerly, and the CLI imports only
the modules that a subcommand runs: its front end alone for the set-up
op, ``facets --count``, and for ``--help``."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


_CONSTRUCTION = [
    "snapcomplex.cli",
    "snapcomplex.commands",
    "snapcomplex.complexes",
    "snapcomplex.counters",
    "snapcomplex.errors",
    "snapcomplex.schedules",
    "snapcomplex.witness",
]

# The modules that the set-up op and --help may load: the front end.
_FRONT_END = ["snapcomplex.cli", "snapcomplex.counters", "snapcomplex.errors"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("build", "-r", "2,1"), _CONSTRUCTION),
        (("facets", "-r", "2,1", "--count"), _FRONT_END),
        (("facets", "-r", "2,1"), _CONSTRUCTION),
        (("export", "-r", "2,1", "--format", "dot"), _CONSTRUCTION),
    ],
    ids=["build", "facets", "facets-listing", "export"],
)
def test_construction_subcommands_load_only_the_construction(argv, modules):
    loaded = _modules_after(
        "import contextlib, io\n"
        "from snapcomplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )
    package = sorted(m for m in loaded if m.startswith("snapcomplex."))
    assert package == modules
    assert "dataclasses" not in loaded


def test_the_setup_op_loads_only_the_front_end():
    # The benchmark's set-up op, as it runs it: a fresh interpreter that
    # compiles every source it loads.  -X importtime lists each module
    # imported, nested ones indented, after a "|".
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "snapcomplex", "facets", "-r", "1", "--count"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    loaded = {line.rsplit("|", 1)[1].strip() for line in lines[1:]}
    assert "snapcomplex.cli" in loaded and "json" not in loaded
    assert not any(m.startswith(("tests", "oracles")) for m in loaded)
    package = sorted(m for m in loaded if m.startswith("snapcomplex."))
    assert package == _FRONT_END
    # The root and __main__ load too, so their source counts as well.
    root = Path(snapcomplex.__file__).parent
    names = ["__init__", "__main__"] + [m.split(".")[1] for m in package]
    lines = sum(len((root / f"{name}.py").read_text().splitlines()) for name in names)
    assert lines <= 500


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["help", "verify-help"])
def test_help_loads_no_engine_module(argv):
    loaded = _modules_after(
        "import contextlib, io\n"
        "from snapcomplex.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    main({argv!r})\n"
    )
    assert sorted(m for m in loaded if m.startswith("snapcomplex.")) == _FRONT_END


def test_the_check_order_is_the_check_table():
    from snapcomplex import cli, commands

    assert cli.CHECK_ORDER == tuple(commands._CHECKS)


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
        "snapcomplex.commands",
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
