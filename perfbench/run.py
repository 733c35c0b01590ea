#!/usr/bin/env python3
"""vrkit benchmark: pass-normalised wall time of optimizer sweeps.

Usage (from the repository root):

    python3 perfbench/run.py --workload protocol_dense --seed 1 --seconds 25 --trace 0

A closed loop in one process: each (config, seed) run starts when the
previous one ends, seeds run serially (jobs = 1) and BLAS uses one thread.
The benchmark times calls into vrkit's public functions from outside; it
changes no library code.  Times are wall times scaled to a reference
machine speed (see speed.py).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs half the sweeps untraced and the same sweeps again
traced, and prints the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Generated inputs and per-run traces go to a temporary directory under
``.perfbench/`` in the repository and are removed at exit; a traced run
also leaves its spans in ``.perfbench/spans-<workload>-seed<seed>.csv``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/vrkit/__init__.py", "datasets/synth_a.libsvm", "datasets/synth_b.libsvm")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 5
# The tail is the largest run wall time with at least this many runs beyond it.
TAIL_BEYOND = 10
# Algorithms every workload runs; their per-algorithm figures are per-layer metrics.
COMMON_ALGOS = ("adasvrg", "adasvrg-at")


@dataclass
class RunRecord:
    """One (config, seed) run.  ``wall_s`` is scaled to the reference speed
    (see speed.py); ``raw_s`` is the plain wall time."""

    label: str
    config: object
    seed: int
    wall_s: float
    raw_s: float
    passes: float
    result: object
    csv: str = ""
    jsonl: str = ""


@dataclass
class Sweep:
    wall_s: float
    raw_s: float
    runs: list[RunRecord]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="vrkit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("protocol_dense", "sparse_b1", "fullmatrix_dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_sweep(workload, seeds, out_dir: Path, clock, tracer=None) -> Sweep:
    """One sweep: set-up, every run, and trace persistence, each timed as a
    segment; the sweep's time is the sum of its segments."""
    from vrkit import bench

    runs: list[RunRecord] = []
    totals = [0.0, 0.0]

    def timed(fn):
        out, raw, scaled = clock.measure(fn)
        totals[0] += scaled
        totals[1] += raw
        return out, raw, scaled

    def setup(inp):
        if tracer is None:
            return inp.setup()
        with tracer.span("bench.setup", inp.load_bytes):
            return inp.setup()

    seed_rows = iter(seeds)
    for inp in workload.inputs:
        problem = timed(lambda: setup(inp))[0]
        for config in inp.configs:
            mine = []
            for seed in next(seed_rows):
                if tracer is not None:
                    tracer.run = len(runs)
                result, raw, scaled = timed(lambda: bench.execute_seed(problem, config, seed))
                if tracer is not None:
                    tracer.run = -1
                mine.append(RunRecord(inp.label, config, seed, scaled, raw,
                                      result.counters.effective_passes(problem.n), result))
            timed(lambda: persist(mine, out_dir / inp.label / config.algo))
            runs += mine
    return Sweep(totals[0], totals[1], runs)


def persist(runs: list[RunRecord], target: Path) -> None:
    """Write each run's trace as CSV and JSON lines, and the config's aggregate."""
    from vrkit import bench

    target.mkdir(parents=True, exist_ok=True)
    for run in runs:
        run.csv, run.jsonl = run.result.trace.to_csv(), run.result.trace.to_jsonl()
        (target / f"seed{run.seed}.trace.csv").write_text(run.csv, encoding="utf-8")
        (target / f"seed{run.seed}.trace.jsonl").write_text(run.jsonl, encoding="utf-8")
    rows = bench.aggregate([run.result.trace for run in runs])
    (target / "aggregate.csv").write_text(bench.aggregate_to_csv(rows), encoding="utf-8")


def check_run(run: RunRecord, fstar: float) -> list[str]:
    """Correctness checks of one run; returns the names of those that fail."""
    from vrkit.diagnostics import Trace

    trace, failures = run.result.trace, []
    try:
        trace.validate()
    except ValueError:
        failures.append("validate")
    for text, parse, dump in ((run.csv, Trace.from_csv, Trace.to_csv),
                              (run.jsonl, Trace.from_jsonl, Trace.to_jsonl)):
        parsed = parse(text)
        if parsed.rows != trace.rows or dump(parsed) != text:
            failures.append(f"round-trip {parse.__name__}")
    objectives = [row.objective for row in trace.rows]
    if run.result.termination_reason == "diverged" or not all(map(math.isfinite, objectives)):
        failures.append("diverged")
    at_budget = trace.value_at_pass(run.config.epochs, "objective")
    if at_budget is None or not at_budget < trace.rows[0].objective:
        failures.append("no decrease by the budget")
    if at_budget is not None and at_budget < fstar - 1e-9 * max(1.0, abs(fstar)):
        failures.append("below the reference optimum")
    return failures


def tail(values: list[float]) -> tuple[float, int]:
    """Largest value with TAIL_BEYOND values beyond it, never below the
    median; returns it with its percentile."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[k], round(100 * (k + 1) / len(ordered))


def subopt_neglog10(runs: list[RunRecord], fstar: dict) -> float:
    from workloads import SUBOPT_FLOOR

    digits = []
    for run in runs:
        value = run.result.trace.value_at_pass(run.config.epochs, "objective")
        digits.append(-math.log10(max(value - fstar[run.label][0], SUBOPT_FLOOR)))
    return statistics.fmean(digits)


def ms_per_pass(runs: list[RunRecord]) -> float:
    return 1e3 * sum(r.wall_s for r in runs) / sum(r.passes for r in runs)


def count_failures(workload, fstar: dict, runs: list[RunRecord],
                   traced_runs: list[RunRecord]) -> tuple[int, int]:
    """Checks every run, each traced run against its untraced twin, and a
    rerun of the fastest run; returns (attempted, failed)."""
    from vrkit import bench

    attempted = failed = 0

    def item(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            print(f"FAILED {what}")

    for run in runs + traced_runs:
        failures = check_run(run, fstar[run.label][0])
        item(not failures, f"{run.label} {run.config.algo} seed {run.seed}: "
                           f"{', '.join(failures)}")
    for plain, traced in zip(runs, traced_runs):
        item((plain.csv, plain.jsonl) == (traced.csv, traced.jsonl),
             f"{plain.label} {plain.config.algo} seed {plain.seed}: traced run differs")
    fresh = min(runs, key=lambda r: r.wall_s)
    problem = next(i for i in workload.inputs if i.label == fresh.label).setup()
    again = bench.execute_seed(problem, fresh.config, fresh.seed).trace
    item((again.to_csv(), again.to_jsonl()) == (fresh.csv, fresh.jsonl),
         f"rerun of {fresh.label} {fresh.config.algo} seed {fresh.seed}: trace differs")
    return attempted, failed


def end_to_end(setup_times: list[float], plain: list[Sweep], fstar: dict) -> dict:
    runs = [r for s in plain for r in s.runs]
    walls = [r.wall_s for r in runs]
    tail_value, tail_pct = tail(walls)
    print(f"run_wall_s over {len(walls)} runs in {len(plain)} sweep(s); the tail is "
          f"p{tail_pct}; setup_s is the median of {len(setup_times)} set-ups")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_wall_s": (statistics.median(s.wall_s for s in plain), "s"),
        "run_wall_s.p50": (statistics.median(walls), "s"),
        "run_wall_s.tail": (tail_value, "s"),
        "ms_per_pass": (statistics.median(ms_per_pass(s.runs) for s in plain), "ms"),
        "passes_per_run": (statistics.fmean(r.passes for r in runs), "pass"),
        "subopt_at_budget_neglog10": (subopt_neglog10(runs, fstar), "log10"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain: list[Sweep], traced: list[Sweep], spans_path: Path) -> dict:
    from tracing import layer_metrics

    metrics, summary = layer_metrics(tracer, len(traced))
    runs = [r for s in plain for r in s.runs]
    for algo in COMMON_ALGOS:
        mine = [r for r in runs if r.config.algo == algo]
        metrics[f"bench.{algo}.ms_per_pass"] = (ms_per_pass(mine), "ms")
        metrics[f"bench.{algo}.passes"] = (statistics.fmean(r.passes for r in mine), "pass")
    overhead = (statistics.median(s.wall_s for s in traced)
                / statistics.median(s.wall_s for s in plain) - 1.0)
    metrics["trace_overhead_frac"] = (overhead, "fraction")
    print("span name                        calls    total_s  self share of runs")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_share_of_runs"]):
        print(f"  {name:30s} {row['calls']:7d} {row['total_s']:10.4f} "
              f"{row['self_share_of_runs']:8.4f}")
    print(f"self shares inside execute_seed sum to "
          f"{sum(r['self_share_of_runs'] for r in summary.values()):.6f}")
    tracer.write_csv(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a vrkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    import vrkit
    from speed import SpeedClock
    from tracing import COMPUTED, Tracer, installed
    from workloads import WORKLOADS, reference_optimum

    if Path(vrkit.__file__).resolve().parent != ROOT / "src" / "vrkit":
        print(f"error: imported vrkit from {vrkit.__file__}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        workload = WORKLOADS[args.workload](args.seed, ROOT, tmp)
        sweeps = workload.sweeps_for(args.seconds)
        plain_sweeps = max(1, sweeps // 2) if args.trace else sweeps
        seeds = workload.sweep_seeds(args.seed, plain_sweeps)
        print(f"workload {workload.name}: seed {args.seed}, {sweeps} sweep(s) for "
              f"--seconds {args.seconds:g}, jobs 1, BLAS threads 1, nproc {os.cpu_count()}, "
              f"python {sys.version.split()[0]}, numpy {np.__version__}, "
              f"scipy {scipy.__version__}")

        # Untimed: reference optima, which also warm the file cache and imports.
        fstar = {}
        for inp in workload.inputs:
            fstar[inp.label] = reference_optimum(inp.setup())
            print(f"reference optimum {inp.label}: f* = {fstar[inp.label][0]!r}, "
                  f"||grad f|| = {fstar[inp.label][1]:.3e} (L-BFGS-B)")

        # Set-ups are timed before each sweep, so their samples spread over the run.
        clock = SpeedClock(workload.kernel, workload.kernel_ref_s)
        setup_times, plain = [], []
        for k in range(plain_sweeps):
            for _ in range(math.ceil(MIN_SETUPS / plain_sweeps)):
                setup_times.append(clock.measure(
                    lambda: [inp.setup() for inp in workload.inputs])[1:])
            plain.append(run_sweep(workload, seeds[k], tmp / f"sweep{k}", clock))

        traced, tracer = [], Tracer()
        if args.trace:
            with installed(tracer):
                traced = [run_sweep(workload, seeds[k], tmp / f"traced{k}", clock, tracer)
                          for k in range(plain_sweeps)]

        runs = [r for s in plain for r in s.runs]
        attempted, failed = count_failures(workload, fstar, runs,
                                           [r for s in traced for r in s.runs])

    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} checked items)")
    print(f"calibration kernel: median {1e3 * statistics.median(clock.samples):.3f} ms over "
          f"{len(clock.samples)} runs; times below are scaled to {1e3 * clock.ref_s} ms")
    for algo in dict.fromkeys(r.config.algo for r in runs):
        mine = [r for r in runs if r.config.algo == algo]
        print(f"  {algo:11s} runs {len(mine):3d}  ms/pass {ms_per_pass(mine):8.3f}  "
              f"passes/run {statistics.fmean(r.passes for r in mine):8.2f}")
    if args.trace:
        spans_path = scratch / f"spans-{workload.name}-seed{args.seed}.csv"
        metrics = per_layer(tracer, plain, traced, spans_path)
    else:
        metrics = end_to_end([scaled for _, scaled in setup_times], plain, fstar)
        print(f"unscaled medians: setup {statistics.median(raw for raw, _ in setup_times)!r} s, "
              f"sweep {statistics.median(s.raw_s for s in plain)!r} s, "
              f"run {statistics.median(r.raw_s for r in runs)!r} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (" (computed)" if name in COMPUTED else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
