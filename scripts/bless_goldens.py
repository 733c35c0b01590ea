#!/usr/bin/env python3
"""Write the golden traces under tests/golden/ that pin seeded optimizer output.

Each case is one seeded run.  It is stored as ``<case>.csv`` (the trace CSV)
and ``<case>.json`` (counters, termination reason, notes and the final,
averaged and per-step accumulator arrays, every float as ``float.hex``).
``tests/test_golden.py`` renders the same cases and compares byte for byte.

Re-bless only when a change is meant to alter seeded output, and say so in
CHANGES.md:

    PYTHONPATH=src python3 scripts/bless_goldens.py

``--compare`` writes nothing.  It prints, per case, whether the trace rows,
their passes and events, and the oracle counters are identical to the golden
files, whether every other non-float field is, the largest relative
deviation of any float, and the trace columns and JSON keys (dotted below
the top level) whose floats differ, e.g. ``floats differ in: objective``.
Next to the largest relative deviation it prints, in parentheses, the
largest |old - new| / (1 + |new|) as a fraction of 64 T eps, with T the
run's oracle work in examples (per-example work + n x full gradients):
the tolerance of the just-in-time step's differential tests, so a fraction
of at most 1 shows that a re-bless stays within it, e.g. ``max relative
deviation 2.5e-15 (3.1e-05 of 64 T eps, T = 408)``.  It also prints
``<case>: no golden file`` for a case whose files are missing and
``<file>: no case`` for a golden file that no case writes.  It exits 1
when any of these turns up and 0 when every case is identical to its
golden files:

    PYTHONPATH=src python3 scripts/bless_goldens.py --compare

Any other argument prints a usage line, writes nothing and exits 2.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from vrkit import (
    PrecondVariant,
    Problem,
    ProjectionSpec,
    SyntheticSpec,
    adagrad,
    adasvrg_adaptive,
    adasvrg_fixed,
    adasvrg_multistage,
    gen_separable,
    hybrid_adagrad_adasvrg,
    loopless_svrg,
    sarah,
    sgd,
    svrg,
    svrg_bb,
)
from vrkit import bench
from vrkit.bench import RunConfig
from vrkit.diagnostics import Trace
from vrkit.problems import Dataset

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

# Constant step-sizes of the methods that need one (the benchmark's values);
# the adaptive methods use the tuning-free heuristic.
BENCH_ETA = {"sgd": 0.1, "adagrad": 1.0, "svrg": 0.1, "lsvrg": 0.1, "sarah": 0.1, "svrg-bb": 0.1}

# The float columns of a trace row that --compare compares by value.
FLOAT_COLUMNS = ("objective", "grad_norm", "g_norm_star", "step_size")

# Each of these must appear in at least one case.
REQUIRED_EVENTS = ("switch", "adaptive_stop", "stage_boundary", "diverged")


class Case(NamedTuple):
    """One seeded run, ``run(problem())``; --compare reads the problem's n."""

    problem: Callable[[], Problem]
    run: Callable[[Problem], object]

    def __call__(self):
        return self.run(self.problem())


def _problem(features, labels, loss: str, l2: float) -> Problem:
    dataset = Dataset(features=features, labels=labels)
    return Problem(dataset=dataset, loss=loss, l2_reg=l2)


def _synthetic(n: int, d: int, mislabel: float, seed: int) -> Problem:
    dataset, _ = gen_separable(SyntheticSpec(n=n, d=d, mislabel_fraction=mislabel, seed=seed))
    return Problem(dataset=dataset, loss="logistic", l2_reg=1.0 / n)


def _one_example() -> Problem:
    """f(x) = (x - 1)^2 / 2: one example with feature 1 and label 1."""
    return _problem(np.array([[1.0]]), np.array([1.0]), "squared", 0.0)


def _gaussian_squared() -> Problem:
    rng = np.random.default_rng(0)
    return _problem(rng.standard_normal((32, 4)), rng.standard_normal(32), "squared", 1.0 / 32)


def _sparse_rows(loss: str) -> Problem:
    """40 x 12 CSR rows of 0 to 6 nonzeros (some rows empty), l2 = 0.05;
    +-1 labels for squared_hinge and logistic, real targets for huber."""
    rng = np.random.default_rng(21)
    n, d = 40, 12
    lengths = rng.integers(0, 7, size=n)
    lengths[[3, 17, 30]] = 0
    indices = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for k in lengths])
    data = rng.standard_normal(indices.size)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    labels = (rng.choice([-1.0, 1.0], size=n) if loss in ("squared_hinge", "logistic")
              else rng.standard_normal(n))
    return _problem(sp.csr_matrix((data, indices, indptr), shape=(n, d)), labels, loss, 0.05)


def _sparse_cases() -> dict:
    z12 = np.zeros(12)
    diag = PrecondVariant(kind="diagonal")
    scalar = PrecondVariant(kind="scalar")
    rows = {loss: functools.partial(_sparse_rows, loss)
            for loss in ("squared_hinge", "huber", "logistic")}
    return {
        "sparse-svrg-squared_hinge-b1": Case(rows["squared_hinge"], lambda p: svrg(
            p, z12, 3, None, 0.1, batch_size=1, seed=17)),
        "sparse-adasvrg-fixed-huber-b4": Case(rows["huber"], lambda p: adasvrg_fixed(
            p, z12, 3, variant=diag, eta=0.5, batch_size=4, seed=18)),
        "sparse-adagrad-diagonal-squared_hinge-b4": Case(rows["squared_hinge"], lambda p: adagrad(
            p, z12, 60, 0.5, variant=diag, batch_size=4, seed=19)),
        "sparse-adasvrg-adaptive-logistic-b1": Case(rows["logistic"], lambda p: adasvrg_adaptive(
            p, z12, 3, eta=None, batch_size=1, seed=22)),
        "sparse-hybrid-logistic-b1": Case(rows["logistic"], lambda p: hybrid_adagrad_adasvrg(
            p, z12, 400, eta=None, batch_size=1, seed=23)),
        "sparse-adasvrg-fixed-scalar-huber-b4": Case(rows["huber"], lambda p: adasvrg_fixed(
            p, z12, 3, variant=scalar, eta=0.5, batch_size=4, seed=24)),
        "sparse-adasvrg-fixed-diagonal-logistic-b1": Case(
            rows["logistic"],
            lambda p: adasvrg_fixed(p, z12, 3, variant=diag, eta=0.5, batch_size=1, seed=25)),
        "sparse-lsvrg-logistic-b1": Case(rows["logistic"], lambda p: loopless_svrg(
            p, z12, 200, 0.3, batch_size=1, seed=26)),
    }


@functools.cache
def _bundled(path: str) -> Problem:
    return bench.resolve_problem(RunConfig(dataset=path))


def _bench_cases() -> dict:
    cases = {}
    for name in ("synth_a", "synth_b"):
        path = str(ROOT / "datasets" / f"{name}.libsvm")
        for algo in bench.ALGORITHMS:
            config = RunConfig(dataset=path, algo=algo, eta=BENCH_ETA.get(algo),
                               batch_size=64, epochs=6, seeds=(0,))
            cases[f"bench-{name}-{algo}"] = Case(
                functools.partial(_bundled, path),
                lambda p, config=config: bench.execute_seed(p, config, 0))
    return cases


def _diverging_cases() -> dict:
    cases = {}
    for algo in bench.ALGORITHMS:
        config = RunConfig(algo=algo, eta=1000.0, batch_size=1, epochs=30, seeds=(0,))
        cases[f"diverge-{algo}"] = Case(
            _one_example, lambda p, config=config: bench.execute_seed(p, config, 0))
    cases["diverge-adagrad-nonfinite-step"] = Case(
        _gaussian_squared, lambda p: adagrad(p, np.zeros(4), 40, 1e308, seed=0))
    return cases


def _direct_cases() -> dict:
    small = _synthetic(64, 6, 0.1, 3)
    noisy = _synthetic(256, 4, 0.2, 3)
    z6, z4 = np.zeros(6), np.zeros(4)
    diag = PrecondVariant(kind="diagonal")
    full = PrecondVariant(kind="full_matrix")
    on_small, on_noisy = (lambda: small), (lambda: noisy)
    return {
        "svrg-bb-fallback": Case(_one_example, lambda p: svrg_bb(
            p, np.array([1.0]), 3, 4, eta=0.1, seed=0)),
        "sarah-inner5": Case(on_small, lambda p: sarah(p, z6, 3, 5, 0.2, batch_size=2, seed=3)),
        "lsvrg-b4": Case(on_small, lambda p: loopless_svrg(p, z6, 60, 0.1, batch_size=4, seed=4)),
        "sgd-b1": Case(on_small, lambda p: sgd(p, z6, 150, 0.05, batch_size=1, seed=5)),
        "adasvrg-fixed-average-heuristic": Case(on_small, lambda p: adasvrg_fixed(
            p, z6, 3, eta=None, batch_size=4, snapshot="average", seed=6)),
        "adasvrg-fixed-diagonal-constant": Case(on_small, lambda p: adasvrg_fixed(
            p, z6, 3, 10, variant=diag, eta=0.5, batch_size=4, seed=7)),
        "adasvrg-fixed-full-heuristic": Case(on_small, lambda p: adasvrg_fixed(
            p, z6, 3, variant=full, eta=None, batch_size=4, seed=8)),
        "adasvrg-fixed-diagonal-ball": Case(on_small, lambda p: adasvrg_fixed(
            p, z6, 3, variant=diag, eta=2.0,
            proj=ProjectionSpec(radius=0.3), batch_size=4, seed=9)),
        "adasvrg-adaptive-diagonal-constant": Case(on_noisy, lambda p: adasvrg_adaptive(
            p, z4, 3, variant=diag, eta=0.5, batch_size=8, seed=10)),
        "adasvrg-adaptive-full": Case(on_noisy, lambda p: adasvrg_adaptive(
            p, z4, 2, variant=full, eta=None, batch_size=8, seed=11)),
        "adasvrg-multistage-diagonal-constant": Case(on_small, lambda p: adasvrg_multistage(
            p, z6, 3, 1.0 / 8.0, variant=diag, eta=0.5, batch_size=4, seed=12)),
        "hybrid-constant": Case(on_noisy, lambda p: hybrid_adagrad_adasvrg(
            p, z4, 256, eta=0.5, batch_size=8, seed=13)),
        "hybrid-diagonal-heuristic": Case(on_noisy, lambda p: hybrid_adagrad_adasvrg(
            p, z4, 256, variant=diag, eta=None, batch_size=8, seed=14)),
        "adagrad-diagonal": Case(on_small, lambda p: adagrad(
            p, z6, 80, 0.5, variant=diag, batch_size=4, seed=15)),
        "adagrad-full": Case(on_small, lambda p: adagrad(
            p, z6, 80, 0.5, variant=full, batch_size=4, seed=16)),
    }


def cases() -> dict:
    """Case name -> :class:`Case`, a zero-argument callable returning a RunResult."""
    return {**_bench_cases(), **_diverging_cases(), **_direct_cases(), **_sparse_cases()}


def _hex(value):
    """Floats (and float arrays) as ``float.hex``; containers recursively."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [float(v).hex() for v in value.ravel()]
    if isinstance(value, dict):
        return {str(k): _hex(v) for k, v in value.items()}
    return [_hex(v) for v in value]


def render(result) -> dict[str, str]:
    """File suffix -> text for one run."""
    manifest = {
        "counters": {
            "per_example_grad_evals": result.counters.per_example_grad_evals,
            "full_grad_evals": result.counters.full_grad_evals,
        },
        "termination_reason": result.termination_reason,
        "notes": _hex(result.notes),
        "final_iterate": _hex(result.final_iterate),
        "averaged_iterate": _hex(result.averaged_iterate),
        "g_norm_star_steps": _hex(result.g_norm_star_steps),
    }
    return {
        ".csv": result.trace.to_csv(),
        ".json": json.dumps(manifest, indent=1, sort_keys=True) + "\n",
    }


def _relative_deviation(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _tolerance_deviation(old: float, new: float) -> float:
    """|old - new| / (1 + |new|), the measure of the 64 T eps tolerance;
    inf where it is not a number."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    deviation = abs(old - new) / (1.0 + abs(new))
    return deviation if deviation == deviation else math.inf


def _hex_float(value) -> float | None:
    try:
        return float.fromhex(value) if isinstance(value, str) else None
    except ValueError:
        return None


def _json_diff(old, new, key: str, differ: set[str], floats: list) -> bool:
    """Whether the non-float fields of two manifests, walked in parallel,
    are identical; adds to ``differ`` the dotted key of each differing
    float (``key`` is the key walked so far) and to ``floats`` its
    (old, new) values."""
    a, b = _hex_float(old), _hex_float(new)
    if a is not None and b is not None:
        if old != new:
            differ.add(key)
            floats.append((a, b))
        return True
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        pairs = [(old[k], new[k], f"{key}.{k}" if key else k) for k in old]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(o, n, key) for o, n in zip(old, new)]
    else:
        return old == new
    same = True
    for o, n, k in pairs:
        same = _json_diff(o, n, k, differ, floats) and same
    return same


def compare() -> int:
    """Print how each case's current output differs from its golden files,
    and name each case without golden files and each golden file without a
    case; return 1 if any of these is found, else 0."""
    differs = False
    expected: set[str] = set()
    with np.errstate(all="ignore"):
        for name, case in cases().items():
            result = case()
            new = render(result)
            paths = {suffix: GOLDEN_DIR / f"{name}{suffix}" for suffix in new}
            expected.update(path.name for path in paths.values())
            if not all(path.exists() for path in paths.values()):
                differs = True
                print(f"{name}: no golden file")
                continue
            old = {suffix: path.read_text(encoding="utf-8") for suffix, path in paths.items()}
            if new == old:
                print(f"{name}: identical")
                continue
            differs = True
            rows_old, rows_new = Trace.from_csv(old[".csv"]).rows, Trace.from_csv(new[".csv"]).rows
            manifest_old, manifest_new = json.loads(old[".json"]), json.loads(new[".json"])
            counters_same = manifest_old.pop("counters") == manifest_new.pop("counters")
            columns: set[str] = set()
            keys: set[str] = set()
            floats: list[tuple[float, float]] = []
            other_same = _json_diff(manifest_old, manifest_new, "", keys, floats)
            for row_old, row_new in zip(rows_old, rows_new):
                other_same = other_same and row_old.outer == row_new.outer
                for field in FLOAT_COLUMNS:
                    a, b = getattr(row_old, field), getattr(row_new, field)
                    if a is None or b is None:
                        other_same = other_same and a is b
                    elif float(a).hex() != float(b).hex():
                        floats.append((a, b))
                        columns.add(field)
            same = {
                "rows": len(rows_old) == len(rows_new),
                "passes": [r.passes for r in rows_old] == [r.passes for r in rows_new],
                "events": [r.event for r in rows_old] == [r.event for r in rows_new],
                "counters": counters_same,
                "other fields": other_same,
            }
            verdict = ", ".join(f"{key} {'same' if ok else 'DIFFER'}" for key, ok in same.items())
            worst = max((_relative_deviation(a, b) for a, b in floats), default=0.0)
            work = (result.counters.per_example_grad_evals
                    + case.problem().n * result.counters.full_grad_evals)
            deviation = max((_tolerance_deviation(a, b) for a, b in floats), default=0.0)
            fraction = deviation / (64 * work * np.finfo(float).eps)
            differing = [c for c in FLOAT_COLUMNS if c in columns] + sorted(keys)
            print(f"{name}: {verdict}; max relative deviation {worst:.2g} "
                  f"({fraction:.2g} of 64 T eps, T = {work}); "
                  f"floats differ in: {', '.join(differing) or 'none'}")
    for orphan in sorted(path.name for path in GOLDEN_DIR.iterdir()
                         if path.name not in expected):
        differs = True
        print(f"{orphan}: no case")
    return 1 if differs else 0


def main() -> int:
    if sys.argv[1:] == ["--compare"]:
        return compare()
    if sys.argv[1:]:
        print("usage: bless_goldens.py [--compare]", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN_DIR.glob("*"):
        stale.unlink()
    seen_events: set[str] = set()
    bb_fallbacks = 0
    with np.errstate(all="ignore"):
        for name, make in cases().items():
            result = make()
            seen_events.update(event for _, event in result.trace.events())
            bb_fallbacks += len(result.notes.get("bb_fallbacks", []))
            if name.startswith("diverge-"):
                assert result.termination_reason == "diverged", name
            if name.startswith("sparse-hybrid"):
                assert result.notes["switched"], name
            if name == "diverge-adagrad-nonfinite-step":
                # a failed step's row, unlike a monitored row, stores no gradient norm
                assert result.trace.final().grad_norm is None, name
            for suffix, text in render(result).items():
                with open(GOLDEN_DIR / f"{name}{suffix}", "w", encoding="utf-8",
                          newline="") as handle:
                    handle.write(text)
    missing = [e for e in REQUIRED_EVENTS if e not in seen_events]
    assert not missing, f"no case produces the events {missing}"
    assert bb_fallbacks > 0, "no case takes the BB curvature fallback"
    print(f"wrote {len(cases())} cases to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
