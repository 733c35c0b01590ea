"""Traced mode: spans around vrkit's public functions and the per-layer
metrics derived from them.

:func:`installed` replaces each public function at the name its callers
look up (a class attribute for methods, a module attribute for functions)
with a wrapper that records one span per call: name, start, end, parent
span and run id.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from vrkit import bench
from vrkit.diagnostics import PhaseTestState, Trace
from vrkit.precond import PrecondState
from vrkit.problems import Problem

EXECUTE = "bench.execute_seed"
SETUP = "bench.setup"
LOAD = "data.load_libsvm"
CHARGED_FULL = "problems.grad_full"
MONITOR_FULL = "problems.monitor.grad_full"
MONITOR_LOSS = "problems.monitor.loss_value"

# Per-layer metrics the benchmark computes from call arguments and results;
# vrkit itself reports none of them.
COMPUTED = ("problems.grad_batch.rows", "problems.grad_batch.nnz",
            "precond.accumulate.flops", "diagnostics.trace.bytes")


def accumulate_flops(kind: str, d: int) -> int:
    """Computed floating-point operations of one PrecondState.accumulate.

    scalar: 2d (the dot product g.g).  diagonal: 7d (square, add, compare,
    masked square, square root, divide, sum).  full_matrix: 9d^3 for the
    symmetric eigendecomposition with eigenvectors (the Golub-Van Loan
    estimate) plus 6d^2 + 3d for the outer-product update, two
    matrix-vector products and the vector work around them.
    """
    if kind == "scalar":
        return 2 * d
    if kind == "diagonal":
        return 7 * d
    return 9 * d**3 + 6 * d**2 + 3 * d


class Tracer:
    """In-memory span store.  ``run`` is the id stamped on new spans; the
    benchmark sets it around each ``execute_seed`` call and resets it to -1."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []  # (name id, start, end, parent, run, extra)
        self.stack = [-1]
        self.run = -1

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    @contextmanager
    def span(self, name: str, extra=None):
        """A span around benchmark code, keeping ``extra`` with it."""
        nid = self.name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (nid, start, end, parent, self.run, extra)

    def wrap(self, fn, name, extra=None):
        """Wrap ``fn``.  ``name`` is a span name, or a function of the call's
        ``(args, kwargs)`` returning one; ``extra(args, kwargs, out)`` keeps a
        value for the computed counts and runs after the span has ended."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        fixed = self.name_id(name) if isinstance(name, str) else None
        classify = None if isinstance(name, str) else name

        def traced(*args, **kwargs):
            nid = fixed if classify is None else self.name_id(classify(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                kept = extra(args, kwargs, out) if extra is not None else None
                spans[idx] = (nid, start, end, parent, self.run, kept)

        return traced

    def write_csv(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("name,start_ns,end_ns,parent,run\n")
            for nid, start, end, parent, run, _ in self.spans:
                handle.write(f"{self.names[nid]},{start},{end},{parent},{run}\n")


def _grad_full_name(args, kwargs) -> str:
    counters = args[2] if len(args) > 2 else kwargs.get("counters")
    return MONITOR_FULL if counters is None else CHARGED_FULL


def _batch(args, kwargs, out):
    return args[0], (args[2] if len(args) > 2 else kwargs["batch"])


def _accumulator(args, kwargs, out):
    state = args[0]
    return state.variant.kind, state.d


def _serialized(args, kwargs, out):
    return (len(args[0].rows), len(out)) if out is not None else (0, 0)


def _path(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


@contextmanager
def installed(tracer: Tracer):
    """Replace vrkit's public functions with traced wrappers; restore on exit."""
    targets = [
        (Problem, "grad_batch", "problems.grad_batch", _batch),
        (Problem, "grad_full", _grad_full_name, None),
        (Problem, "loss_value", MONITOR_LOSS, None),
        (PrecondState, "accumulate", "precond.accumulate", _accumulator),
        (PrecondState, "step", "precond.step", None),
        (PhaseTestState, "observe", "diagnostics.observe", lambda a, k, out: bool(out)),
        (Trace, "to_csv", "diagnostics.serialize.to_csv", _serialized),
        (Trace, "to_jsonl", "diagnostics.serialize.to_jsonl", _serialized),
        (bench, "aggregate", "bench.aggregate", None),
        (bench, "resolve_problem", "bench.resolve_problem", None),
        (bench, "execute_seed", EXECUTE, None),
        # resolve_problem looks load_libsvm up in vrkit.bench's namespace
        (bench, "load_libsvm", LOAD, _path),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    try:
        for (owner, attr, name, extra), (_, _, original) in zip(targets, saved):
            setattr(owner, attr, tracer.wrap(original, name, extra))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# Unit of a per-layer metric by the last part of its name; the rest are counts.
_UNITS = {"s": "s", "us_p50": "us", "mb_per_s": "MB/s", "self_share": "fraction"}


def layer_metrics(tracer: Tracer, sweeps: int) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` of the traced sweeps, plus
    a per-span-name summary.

    Times named ``.s`` are per sweep; counts are totals over the traced
    sweeps; ``self_share`` is self time over the summed ``execute_seed``
    durations.  ``data.load`` is the load_libsvm spans where the workload
    parses a file, else the set-up spans (in-memory construction).
    """
    rows = tracer.spans
    nid = np.array([r[0] for r in rows])
    start = np.array([r[1] for r in rows], dtype=np.int64)
    end = np.array([r[2] for r in rows], dtype=np.int64)
    parent = np.array([r[3] for r in rows])
    run = np.array([r[4] for r in rows])
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(rows))
    self_ns = dur - child

    def mask(name: str) -> np.ndarray:
        if name not in tracer.ids:
            return np.zeros(len(rows), dtype=bool)
        return nid == tracer.ids[name]

    in_run = run >= 0
    run_ns = float(dur[mask(EXECUTE)].sum())

    def share(*names: str) -> float:
        m = np.zeros(len(rows), dtype=bool)
        for name in names:
            m |= mask(name)
        return float(self_ns[m & in_run].sum()) / run_ns

    def calls(name: str) -> int:
        return int(mask(name).sum())

    def us_p50(name: str) -> float:
        return float(np.median(dur[mask(name)])) / 1e3

    def extras(name: str) -> list:
        return [rows[i][5] for i in np.flatnonzero(mask(name))]

    row_nnz: dict[int, np.ndarray] = {}
    gathered_rows = gathered_nnz = 0
    for problem, batch in extras("problems.grad_batch"):
        key = id(problem)
        if key not in row_nnz:
            row_nnz[key] = np.diff(problem.dataset.features.indptr)
        batch = np.asarray(batch, dtype=np.intp).ravel()
        gathered_rows += int(batch.size)
        gathered_nnz += int(row_nnz[key][batch].sum())

    serialize = mask("diagnostics.serialize.to_csv") | mask("diagnostics.serialize.to_jsonl")
    serialized = extras("diagnostics.serialize.to_csv") + extras("diagnostics.serialize.to_jsonl")
    csv_rows = sum(r for r, _ in extras("diagnostics.serialize.to_csv"))

    load = mask(LOAD)
    if load.any():
        load_bytes = sum(extras(LOAD))
    else:
        load = mask(SETUP)
        load_bytes = sum(extras(SETUP))
    load_s = float(dur[load].sum()) / 1e9

    metrics = {
        "data.load.s": load_s / sweeps,
        "data.load.mb_per_s": load_bytes / 1e6 / load_s,
        "problems.grad_batch.calls": calls("problems.grad_batch"),
        "problems.grad_batch.us_p50": us_p50("problems.grad_batch"),
        "problems.grad_batch.self_share": share("problems.grad_batch"),
        "problems.grad_batch.rows": gathered_rows,
        "problems.grad_batch.nnz": gathered_nnz,
        "problems.grad_full.charged_calls": calls(CHARGED_FULL),
        "problems.grad_full.us_p50": us_p50(CHARGED_FULL),
        "problems.grad_full.self_share": share(CHARGED_FULL),
        "problems.monitor.calls": calls(MONITOR_FULL) + calls(MONITOR_LOSS),
        "problems.monitor.self_share": share(MONITOR_FULL, MONITOR_LOSS),
        "precond.accumulate.calls": calls("precond.accumulate"),
        "precond.accumulate.us_p50": us_p50("precond.accumulate"),
        "precond.accumulate.self_share": share("precond.accumulate"),
        "precond.accumulate.flops": sum(accumulate_flops(k, d)
                                        for k, d in extras("precond.accumulate")),
        "precond.step.calls": calls("precond.step"),
        "precond.step.us_p50": us_p50("precond.step"),
        "precond.step.self_share": share("precond.step"),
        "precond.steps_skipped": calls("precond.accumulate") - calls("precond.step"),
        "diagnostics.observe.calls": calls("diagnostics.observe"),
        "diagnostics.observe.fired": sum(extras("diagnostics.observe")),
        "diagnostics.observe.self_share": share("diagnostics.observe"),
        "diagnostics.trace.rows": csv_rows,
        "diagnostics.trace.bytes": sum(b for _, b in serialized),
        "diagnostics.serialize.s": float(dur[serialize].sum()) / 1e9 / sweeps,
        "optimizers.self_share": share(EXECUTE),
        "bench.aggregate.s": float(dur[mask("bench.aggregate")].sum()) / 1e9 / sweeps,
    }

    metrics = {name: (value, _UNITS.get(name.rsplit(".", 1)[1], "count"))
               for name, value in metrics.items()}
    summary = {}
    for i, name in enumerate(tracer.names):
        m = nid == i
        summary[name] = {
            "calls": int(m.sum()),
            "total_s": float(dur[m].sum()) / 1e9,
            "self_share_of_runs": float(self_ns[m & in_run].sum()) / run_ns,
        }
    return metrics, summary
