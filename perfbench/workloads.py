"""Workloads of the vrkit benchmark and the inputs they are built from.

Every input derives from the workload seed: the generated datasets from one
child of ``SeedSequence(seed)``, the optimizer seeds from another.  The
bundled datasets of ``protocol_dense`` are fixed; only its optimizer seeds
vary with the workload seed.

A *sweep* is one pass over a workload: set up each input, run every config
on it, and persist every trace and the per-config aggregate.  Each sweep of
a run uses fresh optimizer seeds, so a run averages over several of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from speed import eigh_kernel, gather_kernel
from vrkit import bench
from vrkit.bench import RunConfig
from vrkit.problems import Dataset, Problem

# Constant step-sizes of the methods that need one.  The adaptive methods
# use the tuning-free heuristic unless a workload says otherwise.
PROTOCOL_ETA = {
    "sgd": 0.1,
    "adagrad": 1.0,
    "svrg": 0.1,
    "lsvrg": 0.1,
    "sarah": 0.1,
    "svrg-bb": 0.1,
}

# Suboptimality gaps below this floor count as the floor: the reference
# optimum is only accurate to about this level.
SUBOPT_FLOOR = 1e-10


@dataclass
class Input:
    """One dataset of a workload.

    ``setup`` is the timed set-up and returns the Problem the runs use.
    ``load_bytes`` is what the data layer reads (a file) or receives
    (in-memory arrays).
    """

    label: str
    setup: Callable[[], Problem]
    configs: list[RunConfig]
    load_bytes: int


@dataclass
class Workload:
    """A named list of inputs plus how many optimizer seeds each config
    gets per sweep.  ``sweep_s`` is the nominal sweep time on the reference
    machine (see README.md); a run does ``ceil(seconds / sweep_s)`` sweeps,
    so the work of a run is fixed by ``--seconds`` alone.  ``kernel`` is
    the speed calibration kernel (see speed.py), shaped like the work that
    dominates the workload, and ``kernel_ref_s`` its reference time: about
    its median on the reference machine."""

    name: str
    inputs: list[Input]
    seeds_per_config: int
    sweep_s: float
    kernel: Callable[[], None]
    kernel_ref_s: float

    def sweeps_for(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.sweep_s))

    def sweep_seeds(self, seed: int, sweeps: int) -> list[list[tuple[int, ...]]]:
        """Optimizer seeds: one tuple per config (in input order) per sweep."""
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        n_configs = sum(len(inp.configs) for inp in self.inputs)
        draws = rng.integers(0, 2**31 - 1, size=(sweeps, n_configs, self.seeds_per_config))
        return [[tuple(int(s) for s in row) for row in sweep] for sweep in draws]


def _data_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])


def _resolve(config: RunConfig) -> Callable[[], Problem]:
    return lambda: bench.resolve_problem(config)


def protocol_dense(seed: int, root: Path, tmp: Path) -> Workload:
    """The paper's protocol on the bundled datasets: logistic loss,
    l2 = 1/n, b = 64, a 50-pass budget, all ten algorithms, scalar variant."""
    inputs = []
    for name in ("synth_a", "synth_b"):
        path = root / "datasets" / f"{name}.libsvm"
        base = RunConfig(dataset=str(path), loss="logistic", batch_size=64, epochs=50,
                         variant="scalar", seeds=(0,))
        configs = [replace(base, algo=algo, eta=PROTOCOL_ETA.get(algo))
                   for algo in bench.ALGORITHMS]
        inputs.append(Input(name, _resolve(base), configs, path.stat().st_size))
    return Workload("protocol_dense", inputs, seeds_per_config=1, sweep_s=10.0,
                    kernel=gather_kernel(2000, 40, 1.0, batch=64, steps=25),
                    kernel_ref_s=0.003)


# sparse_b1 input: 1500 rows, d = 12000, 100 nonzeros per row (0.83%
# density), 10% of labels flipped; about 2.3 MB of LIBSVM text.
SPARSE_SHAPE = (1500, 12000, 100)


def write_sparse_libsvm(rng: np.random.Generator, path: Path,
                        n: int, d: int, per_row: int, noise: float = 0.1) -> None:
    """Seeded sparse binary classification data in LIBSVM text.

    Values carry six significant digits, so the parsed matrix is exactly
    what was written.
    """
    w_true = rng.standard_normal(d)
    lines = []
    for _ in range(n):
        cols = np.sort(rng.choice(d, size=per_row, replace=False))
        vals = rng.standard_normal(per_row) / np.sqrt(per_row)
        text = [f"{c + 1}:{v:.6g}" for c, v in zip(cols.tolist(), vals.tolist())]
        margin = float(vals @ w_true[cols])
        lines.append((1.0 if margin >= 0 else -1.0, text))
    flips = set(rng.choice(n, size=int(noise * n), replace=False).tolist())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for i, (label, text) in enumerate(lines):
            label = -label if i in flips else label
            handle.write(("+1 " if label > 0 else "-1 ") + " ".join(text) + "\n")


def sparse_b1(seed: int, root: Path, tmp: Path) -> Workload:
    """A generated sparse LIBSVM file loaded through bench.resolve_problem,
    b = 1 and a 6-pass budget (two outer loops of the VR methods).

    ``adasvrg`` runs the diagonal variant with a constant step: with the
    tuning-free heuristic the diagonal variant raises the objective on this
    data (the heuristic's step is sized for a scalar metric).
    """
    path = tmp / "sparse_b1.libsvm"
    n, d, per_row = SPARSE_SHAPE
    write_sparse_libsvm(_data_rng(seed), path, n, d, per_row)
    base = RunConfig(dataset=str(path), loss="logistic", batch_size=1, epochs=6, seeds=(0,))
    configs = [
        replace(base, algo="adasvrg", variant="diag", eta=0.1),
        replace(base, algo="adasvrg-at"),
        replace(base, algo="svrg", eta=1.0),
        replace(base, algo="hybrid"),
    ]
    return Workload("sparse_b1", [Input("sparse", _resolve(base), configs,
                                        path.stat().st_size)],
                    seeds_per_config=1, sweep_s=8.5,
                    kernel=gather_kernel(n, d, per_row / d, batch=1, steps=30),
                    kernel_ref_s=0.0045)


# fullmatrix_dense input: n = 2000 Gaussian rows in d = 160, 10% flips.
DENSE_SHAPE = (2000, 160)


def fullmatrix_dense(seed: int, root: Path, tmp: Path) -> Workload:
    """An in-memory dense Gaussian problem; adasvrg and adasvrg-at with the
    full-matrix accumulator, b = 64, a 12-pass budget."""
    rng = _data_rng(seed)
    n, d = DENSE_SHAPE
    features = rng.standard_normal((n, d))
    labels = np.sign(features @ rng.standard_normal(d))
    labels[labels == 0] = 1.0
    labels[rng.choice(n, size=n // 10, replace=False)] *= -1.0

    def setup() -> Problem:
        dataset = Dataset(features=features, labels=labels)
        return Problem(dataset=dataset, loss="logistic", l2_reg=1.0 / dataset.n)

    base = RunConfig(dataset="in-memory", loss="logistic", batch_size=64, epochs=12,
                     variant="full", seeds=(0,))
    configs = [replace(base, algo="adasvrg"), replace(base, algo="adasvrg-at")]
    return Workload("fullmatrix_dense",
                    [Input("dense", setup, configs, features.nbytes + labels.nbytes)],
                    seeds_per_config=5, sweep_s=3.5,
                    kernel=eigh_kernel(), kernel_ref_s=0.006)


WORKLOADS = {
    "protocol_dense": protocol_dense,
    "sparse_b1": sparse_b1,
    "fullmatrix_dense": fullmatrix_dense,
}


def reference_optimum(problem: Problem) -> tuple[float, float]:
    """f* by L-BFGS-B on the full objective; returns (f*, ||grad f(w*)||)."""
    result = minimize(problem.loss_value, np.zeros(problem.d), jac=problem.grad_full,
                      method="L-BFGS-B",
                      options={"maxiter": 20000, "maxcor": 20, "ftol": 0.0, "gtol": 1e-12})
    return float(result.fun), float(np.linalg.norm(problem.grad_full(result.x)))
