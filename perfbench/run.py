"""Benchmark of snapcomplex: time to verdict of real CLI operations.

    python3 perfbench/run.py --workload build-export --seed 1 --seconds 40 --trace 0

Run from the repository root.  The load is a closed loop with one client:
the workload's ops run one after another, each in a fresh interpreter
(``python -m snapcomplex ...`` or the benchmark's own ``libop.py``).  The
run first times the set-up op several times, then repeats the whole op
sequence (a pass) while another pass still fits in ``--seconds``, checks
every op's output against the oracles, and reports the median over passes.

With ``--trace 1`` it instead makes one untimed-for-metrics CLI pass (for
correctness and ``layer_coverage``) and two in-process passes of
``layers.py``, one untraced and one traced, and reports per-layer figures.
The spans go to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
environment, the seed, the relabelled counters and per-op times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import ROOT, SETUP_ARGS, WORKLOADS, Checker, Op, known_defect, make_ops, permutation

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "longest_op_s": "s",
    "simplices_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Spans named ``<layer>.<call>`` are summed into the metric ``<name>_s``.
SPAN_METRICS = (
    "complexes.build",
    "complexes.faces",
    "complexes.to_json",
    "complexes.facets",
    "complexes.cofaces_table",
    "complexes.purity",
    "complexes.gg",
    "complexes.cone",
    "schedules.enumerate",
    "schedules.bijection",
    "topology.boundary",
    "topology.strong_connectivity",
    "topology.euler",
    "topology.homology",
    "strata.calculus",
    "strata.diagrams",
    "strata.translation_maps",
    "strata.classify",
    "strata.nerve",
    "collapse.collapse_all",
    "collapse.relative",
    "collapse.validate",
    "chromatic.phi",
    "cli.json_dump",
)
SPAN_NOTE = (
    "spans wrap calls made from perfbench/layers.py; a span around collapse_*, "
    "verify_translation_maps or cone_split includes the builds those calls make internally"
)
COUNT_METRICS = (
    "complexes.simplices",
    "complexes.gg_instances",
    "schedules.schedules",
    "strata.calculus_checks",
    "strata.diagram_instances",
    "collapse.steps",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_us", "_us_per_simplex")):
        return "us"
    if name.endswith("bytes_per_simplex"):
        return "B"
    if name in ("collapse.fallback_ratio", "layer_coverage", "trace_overhead"):
        return "ratio"
    return "count"


@dataclass
class OpRun:
    seconds: float
    cpu_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: tuple[str, ...], env: dict[str, str]) -> OpRun:
    """Run ``python <args>`` to completion; time it and read its rusage."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    # wait4 rather than Popen.wait, which would discard the child's rusage.
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpRun(
        seconds,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
    )


@dataclass
class Pass:
    runs: list[OpRun]
    reasons: list[str | None]
    wall_s: float

    def metrics(self, ops: list[Op]) -> dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "cpu_s": sum(r.cpu_s for r in self.runs),
            "longest_op_s": max(r.seconds for r in self.runs),
            "simplices_per_s": sum(op.simplices for op in ops) / self.wall_s,
            "peak_rss_mb": max(r.maxrss_kb for r in self.runs) / 1024,
        }


def run_pass(ops: list[Op], checker: Checker, env: dict[str, str]) -> Pass:
    start = perf_counter()
    runs = [run_child(op.argv, env) for op in ops]
    wall_s = perf_counter() - start
    reasons = [checker.check(op, r.returncode, r.stdout, r.stderr) for op, r in zip(ops, runs)]
    for r in runs:
        r.stdout = r.stderr = b""
    return Pass(runs, reasons, wall_s)


def measure_setup(env: dict[str, str], repeats: int) -> list[OpRun]:
    """Time the smallest CLI op in a fresh interpreter ``repeats`` times."""
    return [run_child(("-m", "snapcomplex", *SETUP_ARGS), env) for _ in range(repeats)]


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def summarise(ops: list[Op], passes: list[Pass]) -> dict:
    return {
        "passes": len(passes),
        "ops": [
            {
                "id": op.id,
                "argv": " ".join(op.argv),
                "seconds": [p.runs[i].seconds for p in passes],
                "failure": next((p.reasons[i] for p in passes if p.reasons[i]), None),
            }
            for i, op in enumerate(ops)
        ],
    }


def failures(passes: list[Pass]) -> tuple[int, int, bool]:
    """(attempted, failed, correct): a known defect counts as failed but
    leaves ``correct`` true; any other failure makes it false."""
    reasons = [reason for p in passes for reason in p.reasons]
    failed = [reason for reason in reasons if reason is not None]
    return len(reasons), len(failed), all(known_defect(reason) for reason in failed)


def layer_metrics(
    spans: list[list], counts: dict[str, int], per_call: dict[str, float]
) -> tuple[dict[str, float], float]:
    """Per-layer metrics from the spans, and the summed top-level layer spans."""
    durations: dict[str, float] = {name: 0.0 for name in SPAN_METRICS}
    top_level = 0.0
    op_spans = {i for i, span in enumerate(spans) if span[0] == "op"}
    for name, start, end, parent, *_ in spans:
        seconds = (end - start) / 1e9
        if name in durations:
            durations[name] += seconds
        if parent in op_spans:
            top_level += seconds
    metrics = {f"{name}_s": seconds for name, seconds in durations.items()}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    metrics.update(per_call)
    metrics["complexes.build_us_per_simplex"] = (
        metrics["complexes.build_s"] / metrics["complexes.simplices"] * 1e6
    )
    steps = counts.get("collapse.steps", 0)
    metrics["collapse.fallback_ratio"] = counts.get("collapse.fallback_steps", 0) / steps if steps else 0.0
    return metrics, top_level


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += (end - start) / 1e9
    out: dict[str, float] = {}
    for i, (name, start, end, *_) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) / 1e9 - child_time[i]
    return out


def run_layers(args, env: dict[str, str], trace: int) -> dict:
    argv = ("perfbench/layers.py", "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(trace)) + (("--smoke",) if args.smoke else ())
    run = run_child(argv, env)
    if run.returncode != 0:
        raise SystemExit(f"layers.py failed: {run.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(run.stdout.decode().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small counters, for the benchmark's own test")
    args = parser.parse_args()
    if not (ROOT / "src" / "snapcomplex").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print("error: run from a checkout holding src/snapcomplex and tests/oracles.py", file=sys.stderr)
        return 2

    env_info = environment()
    env = child_env()
    checker = Checker()
    ops = make_ops(args.workload, args.seed, args.smoke)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "permutations": {n: permutation(args.seed, n) for n in sorted({len(op.counts) for op in ops})},
        "counters": [",".join(map(str, op.counts)) for op in ops],
        "ops": [" ".join(op.argv) for op in ops],
    }))

    # Half the set-up samples come before the passes and half after, so
    # that setup_s sees the same stretch of machine time as the passes.
    measure_setup(env, 1)
    setup_runs = measure_setup(env, SETUP_REPEATS // 2)
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(ops, checker, env))
        typical = median(p.wall_s for p in passes)
        if args.trace or perf_counter() - start + typical > args.seconds:
            break
    setup_runs += measure_setup(env, SETUP_REPEATS - SETUP_REPEATS // 2)
    setup_s = median(r.seconds for r in setup_runs)
    setup_ok = all(r.returncode == 0 and r.stdout == b"1\n" for r in setup_runs)
    attempted, failed, correct = failures(passes)
    correct = correct and setup_ok
    per_pass = [p.metrics(ops) for p in passes]
    e2e = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    e2e["setup_s"] = setup_s
    detail = summarise(ops, passes)
    detail["failed_ratio"] = failed / attempted

    if args.trace:
        untraced = run_layers(args, env, 0)
        traced = run_layers(args, env, 1)
        values, top_level = layer_metrics(traced["spans"], traced["counts"], traced["per_call"])
        values["layer_coverage"] = top_level / (e2e["wall_s"] - len(ops) * setup_s)
        values["trace_overhead"] = traced["total_s"] / untraced["total_s"] - 1
        known = sum(1 for reason in passes[0].reasons if known_defect(reason))
        correct = correct and traced["counts"].get("failed_ops", 0) == known
        detail["self_s"] = self_times(traced["spans"])
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        detail["note"] = SPAN_NOTE
        trace_file.write_text(json.dumps({
            "note": SPAN_NOTE,
            "fields": ["name", "start_ns", "end_ns", "parent", "workload", "op"],
            "spans": traced["spans"],
            "per_call_counter": traced["per_call_counter"],
        }))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        metrics = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in sorted(values.items())}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    env_info["loadavg_end"] = os.getloadavg()
    detail["env"] = env_info
    print(json.dumps(detail))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'failed_ratio':40s} {detail['failed_ratio']:>16.6g} ratio", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
