"""Benchmark harness: configs, seeded runs, aggregation, model selection.

A :class:`RunConfig` is the unit of work: a LIBSVM dataset file (the one
data source; ``vrkit gen-data`` writes synthetic ones), loss, algorithm,
batch size, a budget in effective passes, and the seeds to repeat over.
Only :func:`resolve_problem` reads the dataset.  :func:`execute_seed` reads
``algo``, ``variant``, ``batch_size``, ``epochs`` and ``eta``; its method
table sets loop counts at one pass per full gradient and two batches per
variance-reduced step, so an outer loop of n/b steps costs about 3 passes.

Per-seed traces are persisted as CSV, one file per seed; the aggregate
file is a pure function of those traces and regenerates byte-identically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import load_libsvm
from .diagnostics import Trace
from .optimizers import (
    PrecondVariant,
    RunResult,
    adagrad,
    adasvrg_adaptive,
    adasvrg_fixed,
    adasvrg_multistage,
    hybrid_adagrad_adasvrg,
    loopless_svrg,
    sarah,
    sgd,
    svrg,
    svrg_bb,
)
from .problems import LOSS_NAMES, Problem

# name -> (library function, loop count from budget k and m = n // b, takes the metric)
_STEPS, _OUTER = (lambda k, m: k * m), (lambda k, m: k // 3)
_METHODS = {
    "sgd": (sgd, _STEPS, False),
    "adagrad": (adagrad, _STEPS, True),
    "svrg": (svrg, _OUTER, False),
    "lsvrg": (loopless_svrg, lambda k, m: k * m // 3, False),
    "sarah": (sarah, _OUTER, False),
    "svrg-bb": (svrg_bb, _OUTER, False),
    "adasvrg": (adasvrg_fixed, _OUTER, True),
    "adasvrg-ms": (partial(adasvrg_multistage, epsilon=0.01), lambda k, m: max(3, k // 3), True),
    "adasvrg-at": (adasvrg_adaptive, _OUTER, True),
    "hybrid": (hybrid_adagrad_adasvrg, _STEPS, True),
}
ALGORITHMS = tuple(_METHODS)

_VARIANT_NAMES = {"scalar": "scalar", "diag": "diagonal", "full": "full_matrix"}

DEFAULT_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class RunConfig:
    """One benchmark work item.

    ``dataset``, a LIBSVM file, is required by :func:`resolve_problem`, its
    one reader; an in-memory run leaves it out, as :func:`execute_seed` reads
    only ``algo``, ``variant``, ``batch_size``, ``epochs`` and ``eta``.
    ``l2 = None`` resolves to 1/n.  ``eta = None`` means the tuning-free
    heuristic for the adaptive methods and is an error for baselines that
    need a constant step-size; a given ``eta`` and every ``grid`` value must
    be finite and > 0, ``grid`` non-empty with values distinct in their
    ``%g`` form, ``epochs`` and ``batch_size`` integers (Python or numpy),
    ``batch_size`` >= 1, and ``l2`` finite and >= 0.
    ``variant`` must be ``"scalar"`` for a method that takes no metric
    (``sgd``, ``svrg``, ``lsvrg``, ``sarah``, ``svrg-bb``).  ``seeds``
    may be a count (int) or an explicit tuple of distinct seeds, since
    each seed's trace is one file and the aggregate reads each once.
    ``loss`` may spell underscores as hyphens (``squared-hinge``).
    ``grid`` is the step-size grid of :func:`grid_search`, and ``out`` the
    one output directory of :func:`run` and :func:`grid_search` (``None``
    writes nothing).

    Every other setting is the library's: the last-iterate snapshot and its
    constants (growth-test threshold 0.5, the 10 n/b cap on inner loops,
    refresh probability b/n, accumulator offset 1e-8, Huber delta 1);
    :func:`execute_seed` fixes the protocol's multistage accuracy epsilon =
    0.01, and svrg-bb's first step size 0.1 when ``eta`` is None.
    """

    dataset: str | None = None
    loss: str = "logistic"
    l2: float | None = None
    algo: str = "adasvrg"
    variant: str = "scalar"
    batch_size: int = 64
    epochs: int = 50
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    eta: float | None = None
    grid: tuple[float, ...] = DEFAULT_GRID
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "loss", self.loss.replace("-", "_"))
        if self.loss not in LOSS_NAMES:
            raise ValueError(f"unknown loss {self.loss!r}; expected one of {LOSS_NAMES}")
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}; expected one of {ALGORITHMS}")
        if self.variant not in _VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.variant!r}; expected scalar/diag/full")
        if self.variant != "scalar" and not _METHODS[self.algo][2]:
            raise ValueError(f"{self.algo} takes no metric, so variant must be scalar, "
                             f"got {self.variant!r}")
        for name, count in (("epochs", self.epochs), ("batch_size", self.batch_size)):
            if not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.grid:
            raise ValueError("empty step-size grid")
        for eta in (self.eta, *self.grid):
            if eta is not None and not (math.isfinite(eta) and eta > 0):
                raise ValueError(f"step sizes (eta, grid) must be finite and > 0, got {eta!r}")
        if not self.batch_size >= 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.l2 is not None and not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2!r}")
        if len({f"{eta:g}" for eta in self.grid}) < len(self.grid):
            raise ValueError(f"grid values must differ in their %g form, got {self.grid}")
        seeds = range(self.seeds) if isinstance(self.seeds, int) else self.seeds
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        if not self.seeds:
            raise ValueError("at least one seed required")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must differ, got {self.seeds}")


def config_keys() -> dict[str, str]:
    """Every config-file key, each also a CLI flag, with the type annotation
    of the RunConfig field it sets."""
    return {f.name: f.type for f in fields(RunConfig)}


_SCALARS = {"str": str, "int": int, "float": float}


def _coerce(annotation: str, value):
    """Parse a string (or already native) value as a field of type
    ``annotation``.  Tuples take comma-separated items, and a single integer
    is a seed count, which RunConfig expands."""
    kind = annotation.removesuffix(" | None")
    if not kind.startswith("tuple["):
        return _SCALARS[kind](value)
    item = _SCALARS[kind.removeprefix("tuple[").partition(",")[0]]
    if isinstance(value, str) and "," in value:
        value = [part for part in value.split(",") if part.strip()]
    if isinstance(value, (str, int, float)):
        return int(value) if item is int else (float(value),)
    return tuple(item(v) for v in value)


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; ``#`` comments and blank lines skipped."""
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def config_from_mapping(mapping: dict) -> RunConfig:
    """Build a config from flat string-or-native values (file or CLI)."""
    keys = config_keys()
    for key in mapping:
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
    return RunConfig(**{key: _coerce(keys[key], value) for key, value in mapping.items()})


def config_to_text(config: RunConfig) -> str:
    """Stable flat echo of the resolved config (for provenance files)."""
    lines = []
    for key in sorted(f.name for f in fields(config)):
        value = getattr(config, key)
        if value is None:
            continue
        if isinstance(value, tuple):
            # a trailing comma keeps a single seed from reading back as a count
            value = ",".join(str(v) for v in value) + ("," if len(value) == 1 else "")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def resolve_problem(config: RunConfig) -> Problem:
    if config.dataset is None:
        raise ValueError("config needs a dataset path")
    dataset = load_libsvm(config.dataset)
    l2 = config.l2 if config.l2 is not None else 1.0 / dataset.n
    return Problem(dataset=dataset, loss=config.loss, l2_reg=l2)


@np.errstate(over="ignore", invalid="ignore")
def execute_seed(problem: Problem, config: RunConfig, seed: int) -> RunResult:
    """Run one (config, seed) work item from the zero initial point.

    Overflow and invalid-value warnings are off: a run that blows up is
    flagged ``diverged`` in its trace instead."""
    w0 = np.zeros(problem.d)
    b, eta = config.batch_size, config.eta
    if config.epochs == 0:
        # zero-pass budget, for every algorithm: record the initial point only
        return sgd(problem, w0, 0, 1.0, batch_size=b, seed=seed)
    if config.algo == "svrg-bb" and eta is None:
        eta = 0.1
    method, loops, takes_metric = _METHODS[config.algo]
    if takes_metric:
        method = partial(method, variant=PrecondVariant(kind=_VARIANT_NAMES[config.variant]))
    return method(problem, w0, loops(config.epochs, problem.n // b), eta=eta, batch_size=b,
                  seed=seed)


@dataclass
class BenchOutput:
    results: list[RunResult]

    @property
    def traces(self) -> list[Trace]:
        return [r.trace for r in self.results]

    def consistent(self) -> bool:
        """True when every trace validates (non-finite rows are flagged)."""
        try:
            for trace in self.traces:
                trace.validate()
        except ValueError:
            return False
        return True


def run(config: RunConfig) -> BenchOutput:
    """Execute the seeds of a config one after another, persisting traces
    when ``config.out`` is set.

    Writes ``config.txt``, one ``seed<k>.trace.csv`` per seed and
    ``aggregate.csv`` under ``config.out``, and nothing else.
    """
    return _run(config, resolve_problem(config))


def _run(config: RunConfig, problem: Problem) -> BenchOutput:
    """:func:`run` on ``problem``, resolved from ``config``."""
    output = BenchOutput([execute_seed(problem, config, s) for s in config.seeds])
    if config.out is not None:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        _write(out / "config.txt", config_to_text(config))
        for seed, result in zip(config.seeds, output.results):
            _write(out / f"seed{seed}.trace.csv", result.trace.to_csv())
        _write(out / "aggregate.csv", aggregate_to_csv(aggregate(output.traces)))
    return output


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


AGGREGATE_HEADER = "pass,objective_median,objective_std,grad_norm_median,grad_norm_std"


def aggregate(traces: list[Trace]) -> list[tuple]:
    """Median and std of objective and gradient norm on the integer pass
    grid common to all seeds (step-function alignment).  The std is inf on
    a pass where any seed's value counts as inf."""
    if not traces:
        raise ValueError("no traces to aggregate")
    grid = np.arange(math.floor(min(t.rows[-1].passes for t in traces)) + 1)
    columns = []
    for attr in ("objective", "grad_norm"):
        values = _per_pass(traces, attr, grid)
        finite = np.isfinite(values).all(axis=1)
        std = np.full(grid.size, np.inf)
        std[finite] = np.std(values[finite], axis=1)
        columns += [np.median(values, axis=1), std]
    return [(float(p), *map(float, row)) for p, row in enumerate(zip(*columns))]


def _per_pass(traces: list[Trace], attr: str, points: np.ndarray) -> np.ndarray:
    """(points x seeds) array of each trace's ``value_at_pass(p, attr)`` at
    each pass p in ``points``, read through :meth:`Trace.last_recorded`,
    with a missing or non-finite value counted as inf.  Values are copied,
    not recomputed; each row is C-contiguous, so reductions along
    ``axis=1`` match those of the per-pass value lists bit for bit."""
    out = np.empty((points.size, len(traces)))
    for j, trace in enumerate(traces):
        # index -1 (nothing recorded yet) reads the appended inf; the None
        # rows, which the lookup never picks, become NaN
        values = np.array([getattr(row, attr) for row in trace.rows] + [np.inf], dtype=float)
        out[:, j] = values[trace.last_recorded(points, attr)]
    out[~np.isfinite(out)] = np.inf
    return out


def aggregate_to_csv(rows: list[tuple]) -> str:
    lines = [AGGREGATE_HEADER]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def aggregate_from_csv(text: str) -> list[tuple]:
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != AGGREGATE_HEADER:
        raise ValueError("missing or unexpected aggregate CSV header")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def final_metric(traces: list[Trace]) -> float:
    """Median full-gradient norm at the last pass common to all seeds, the
    earliest closing row's pass, with a missing or non-finite value counted
    as inf."""
    last = min(t.rows[-1].passes for t in traces)
    return float(np.median(_per_pass(traces, "grad_norm", np.array([last]))))


def grid_search(config: RunConfig) -> tuple[float, dict]:
    """Best constant step-size in ``config.grid`` by smallest
    :func:`final_metric`.

    Ties break toward the smaller step-size.  Diverged runs keep their last
    recorded metric (infinity when nothing finite was recorded), so the
    ordering is total even on an all-diverging grid, where every metric is
    infinite and the smallest step-size is best.  With ``config.out`` set,
    each step-size's run persists under ``<out>/eta_<eta>``.  The dataset
    is read once for the whole grid.
    """
    problem = resolve_problem(config)
    results: dict = {}
    for eta in sorted(config.grid):
        out = str(Path(config.out) / f"eta_{eta:g}") if config.out else None
        output = _run(replace(config, eta=float(eta), out=out), problem)
        metric = final_metric(output.traces)
        results[float(eta)] = {
            "metric": metric,
            "aggregate": aggregate(output.traces),
            "diverged": [r.termination_reason == "diverged" for r in output.results],
        }
    return min(results, key=lambda e: (results[e]["metric"], e)), results

