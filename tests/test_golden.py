"""Golden CLI outputs: exit code and stdout digest of every subcommand.

Each case runs ``main()`` in-process over the shared test counters and
compares ``(exit code, sha256 of stdout)`` with ``golden_digests.json``.
A refactor must leave every digest unchanged.  After a deliberate output
change, regenerate the file with ``PYTHONPATH=src python -m tests.test_golden``
and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from snapcomplex.cli import main

from .conftest import TEST_COUNTERS

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")

_VARIANTS = {
    "build": ("build",),
    "facets": ("facets",),
    "facets-count": ("facets", "--count"),
    # The twelve checks written out, so that a check added later leaves
    # this case's digests as they are.
    "verify-all": (
        "verify",
        "--checks",
        "purity,pseudomanifold,boundary,strong-connectivity,euler,homology,"
        "strata-intersections,diagrams,gg,cone,phi,schedule-bijection",
    ),
    "strata-list": ("strata", "--list"),
    "strata-nerve": ("strata", "--nerve"),
    "collapse-full": ("collapse", "--full", "--validate"),
    "collapse-relative": ("collapse", "--validate"),
    "export-dot": ("export", "--format", "dot"),
    "export-json": ("export", "--format", "json"),
    "export-svg": ("export", "--format", "svg"),
}

# Variants run on the counters below only.
_LARGE_VARIANTS = {
    **_VARIANTS,
    "verify-certify": ("verify", "--checks", "strata-intersections,diagrams,gg"),
}

# Counters kept out of TEST_COUNTERS, each pinned on the variants listed:
# 2,1,1,1 is larger, and only these six finish quickly on it; 2,1,0,1
# has a passive process (a cone base) and a process with two rounds, and
# pins the JSON and DOT writers on a counter with a passive process;
# 1,0,0,1 has two passive processes, so two cone certificates, and pins
# the collapse with two passive processes; 0 is a lone passive process,
# whose cone base is the complex over nothing; 1,1,1,1,1 pins the three
# certification loops and the largest collapse on five processes.  The
# collapses of 0 and 0,0 (all passive), 1,0 (only the pivot active) and
# 0,1 (whose stage one visits 0,0) remove one-row simplices.
_LARGE_CASES = {
    "2,1,1,1": (
        "build",
        "export-dot",
        "export-json",
        "verify-all",
        "collapse-full",
        "collapse-relative",
    ),
    "2,1,0,1": ("build", "export-dot", "verify-all", "collapse-full", "collapse-relative"),
    "1,0,0,1": ("verify-all", "collapse-full", "collapse-relative"),
    "0": ("verify-all", "collapse-full", "collapse-relative"),
    "0,0": ("collapse-full", "collapse-relative"),
    "0,1": ("collapse-full", "collapse-relative"),
    "1,0": ("collapse-full", "collapse-relative"),
    "1,1,1,1,1": ("verify-certify", "collapse-full", "collapse-relative"),
}


def _cases() -> dict[str, list[str]]:
    runs = [
        (counter, name)
        for counter in TEST_COUNTERS
        for name in _VARIANTS
        if not (name == "export-svg" and len(counter.split(",")) > 3)
    ]
    runs += [(counter, name) for counter, names in _LARGE_CASES.items() for name in names]
    cases = {}
    for counter, name in runs:
        command, *flags = _LARGE_VARIANTS[name]
        cases[f"{name}:{counter}"] = [command, "-r", counter, *flags]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


@pytest.fixture(scope="module")
def golden() -> dict[str, list]:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def test_digest_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden_digest(case, golden):
    assert run_case(CASES[case]) == golden[case]


if __name__ == "__main__":
    digests = {case: run_case(argv) for case, argv in sorted(CASES.items())}
    lines = [f"  {json.dumps(case)}: {json.dumps(d)}" for case, d in digests.items()]
    DIGEST_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
