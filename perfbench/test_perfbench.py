"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from model import model
from run import BENCH_DIR, ROOT, OpRun, Pass, failures
from workloads import WORKLOADS, Checker, known_defect, make_ops, permutation

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_model_agrees_with_the_counting_oracles():
    oracles = Checker().oracles
    for k in range(1, 5):
        assert model((1,) * k).total == oracles.chromatic_total(k)
        assert model((1,) * k).f_vector == oracles.subdivision_f_vector(k - 1)
    for counts in [(2, 1), (2, 1, 1), (2, 1, 0, 1), (3, 1), (2, 2)]:
        assert model(counts).facets == oracles.layered_sequence_count(dict(enumerate(counts)))
        assert sum((-1) ** d * f for d, f in enumerate(model(counts).f_vector)) == 1


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seeds_relabel_but_keep_the_work(workload):
    first, second = make_ops(workload, 1), make_ops(workload, 2)
    assert [op.id for op in first] == [op.id for op in second]
    assert [op.simplices for op in first] == [op.simplices for op in second]
    assert [sorted(op.counts) for op in first] == [sorted(op.counts) for op in second]
    relabelled = {op.argv for seed in range(2, 8) for op in make_ops(workload, seed)}
    assert relabelled - {op.argv for op in first}


def test_relabelling_moves_the_pivot_with_its_process():
    for seed in range(10):
        perm = permutation(seed, 4)
        op = next(op for op in make_ops("collapse", seed) if op.id == "collapse-rel:2,1,0,1@2")
        assert op.counts[op.pivot] == 0 and op.pivot == perm[2]


def test_corrupted_output_counts_as_failed():
    checker = Checker()
    op = next(op for op in make_ops("build-export", 5, smoke=True) if op.id == "facets:1,1,1")
    assert checker.check(op, 0, b"13\n", b"") is None
    reason = checker.check(op, 0, b"14\n", b"")
    assert reason and not known_defect(reason)
    ok = OpRun(0.1, 0.1, 1000, 0, b"", b"")
    attempted, failed, correct = failures([Pass([ok, ok], [None, reason], 0.2)])
    assert (attempted, failed, correct) == (2, 1, False)


def test_known_defect_is_counted_but_recognised():
    checker = Checker()
    op = next(op for op in make_ops("verify-suite", 0) if op.kind == "phi")
    reason = checker.check(op, 2, b"", b"error: color bound exceeded: n=4 > 3\n")
    assert known_defect(reason)
    ok = OpRun(0.1, 0.1, 1000, 2, b"", b"")
    assert failures([Pass([ok], [reason], 0.1)]) == (1, 1, True)
    assert not known_defect(checker.check(op, 2, b"", b"error: something else\n"))


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    metrics = _result(proc)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["env"]["python"] and "loadavg_end" in detail["env"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "collapse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
