"""The benchmark's traced mode on the current library: one traced sweep of
each workload must give per-layer metrics that are all numbers, so the last
line ``perfbench/run.py --trace 1`` prints is strict JSON.  A timed span
that no longer runs (no ``grad_batch``, charged ``grad_full``,
``accumulate``, ``step`` or ``observe`` call) makes its median time NaN;
this test names the span that has no calls and fails."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


class _StubClock:
    """The interface of ``speed.SpeedClock`` without its calibration kernel."""

    def measure(self, fn):
        return fn(), 0.0, 0.0


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``run``, ``tracing`` and ``workloads`` modules, which
    import each other by their bare names."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run, importlib.import_module("tracing"), importlib.import_module("workloads")


# The call counts of the timed spans every workload must keep running.
CALLED_SPANS = ("problems.grad_batch.calls", "problems.grad_full.charged_calls",
                "precond.accumulate.calls", "precond.step.calls", "diagnostics.observe.calls")


@pytest.mark.parametrize("name", ["protocol_dense", "sparse_b1", "fullmatrix_dense"])
def test_traced_sweep_metrics_are_strict_json(perfbench, name, tmp_path):
    run, tracing, workloads = perfbench
    workload = workloads.WORKLOADS[name](0, ROOT, tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        run.run_sweep(workload, workload.sweep_seeds(0, 1)[0], tmp_path / "sweep",
                      _StubClock(), tracer)
    metrics, _ = tracing.layer_metrics(tracer, 1)
    assert {key: metrics[key][0] for key in CALLED_SPANS if metrics[key][0] <= 0} == {}
    json.dumps({key: value for key, (value, _) in metrics.items()}, allow_nan=False)
