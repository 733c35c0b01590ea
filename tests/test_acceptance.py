"""Acceptance suite: every gate runs at its stated tolerance and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Fixture datasets under datasets/ are bundled; everything else is generated
deterministically in-process.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from vrkit import (
    PhaseTestState,
    PrecondState,
    PrecondVariant,
    Problem,
    SyntheticSpec,
    adagrad,
    adasvrg_fixed,
    adasvrg_multistage,
    gen_separable,
    parse_libsvm,
    save_libsvm,
    serialize_libsvm,
)
from vrkit.bench import RunConfig, execute_seed, final_metric, grid_search, run
from vrkit.problems import Dataset

from conftest import central_difference_gradient, make_problem
from criterion_helpers import (
    adagrad_bound_sides,
    datasets_equal,
    svrg_inner_armijo_1d,
    two_phase_slope_fit,
)

DATASETS = Path(__file__).resolve().parent.parent / "datasets"

_t0 = None


def _start():
    global _t0
    _t0 = time.perf_counter()


def _report(number: int, label: str, ok: bool, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - _t0
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s / {budget:.0f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def reference_optimum(problem: Problem) -> float:
    """Independent high-precision reference value via quasi-Newton."""
    result = minimize(
        problem.loss_value,
        np.zeros(problem.d),
        jac=lambda w: problem.grad_full(w),
        method="L-BFGS-B",
        options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-14},
    )
    return float(result.fun)


@pytest.fixture(scope="module")
def logistic_synthetic():
    dataset, _ = gen_separable(
        SyntheticSpec(n=512, d=20, mislabel_fraction=0.1, margin=0.1, seed=23)
    )
    problem = Problem(dataset=dataset, loss="logistic", l2_reg=1.0 / 512)
    return problem, reference_optimum(problem)


def test_criterion_01_unbiasedness_exact():
    _start()
    problem = make_problem(n=16, d=5, seed=2)
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(problem.d)
        w = rng.standard_normal(problem.d)
        anchor = problem.grad_full(w)
        directions = [
            problem.grad_batch(x, np.array([i]))
            - problem.grad_batch(w, np.array([i]))
            + anchor
            for i in range(problem.n)
        ]
        err = np.abs(np.mean(directions, axis=0) - problem.grad_full(x)).max()
        worst = max(worst, float(err))
    _report(1, "variance-reduced direction unbiased", worst < 1e-12, 1.0,
            f"max coordinate error {worst:.2e}")


def test_criterion_02_gradient_correctness():
    _start()
    rng = np.random.default_rng(77)
    worst = 0.0
    for loss in ("logistic", "squared", "huber", "squared_hinge"):
        for trial in range(20):
            problem = make_problem(loss=loss, seed=trial, n=12, d=5)
            w = rng.standard_normal(problem.d)
            grad = problem.grad_full(w)
            approx = central_difference_gradient(problem, w, h=1e-6)
            rel = np.linalg.norm(grad - approx) / max(np.linalg.norm(grad), 1e-12)
            worst = max(worst, float(rel))
    _report(2, "analytic vs central-difference gradients", worst < 1e-5, 1.0,
            f"max relative error {worst:.2e}")


def test_criterion_03_trace_inequality(monkeypatch):
    _start()
    problem = make_problem(loss="squared", seed=4, n=48, d=6, classification=False)
    # The gradients each accumulator (one per inner loop) receives, in order.
    received: dict[PrecondState, list[np.ndarray]] = {}
    accumulate = PrecondState.accumulate

    def recording(state, g):
        out = accumulate(state, g)
        received.setdefault(state, []).append(np.array(g, dtype=np.float64))
        return out

    monkeypatch.setattr(PrecondState, "accumulate", recording)
    worst_gap = -np.inf
    ok = True
    for kind in ("scalar", "diagonal", "full_matrix"):
        variant = PrecondVariant(kind=kind)
        for seed in range(10):
            received.clear()
            adasvrg_fixed(
                problem, np.zeros(problem.d), 3, 25, variant=variant,
                batch_size=4, seed=seed,
            )
            ok = ok and [len(grads) for grads in received.values()] == [25, 25, 25]
            for grads in received.values():
                weighted, trace_a = adagrad_bound_sides(kind, grads)
                gap = weighted - 2.0 * trace_a
                worst_gap = max(worst_gap, gap)
                ok = ok and (weighted <= 2.0 * trace_a + 1e-6)
    _report(3, "weighted gradient mass <= 2 trace(A)", ok, 5.0,
            f"worst gap {worst_gap:.2e}")


def test_criterion_04_single_outer_loop_rate(logistic_synthetic):
    _start()
    problem, fstar = logistic_synthetic
    inner_grid = [200, 800, 3200, 12800]
    medians = []
    for m in inner_grid:
        vals = []
        for seed in range(5):
            result = adasvrg_fixed(
                problem, np.zeros(problem.d), 1, m, snapshot="average", seed=seed,
            )
            vals.append(problem.loss_value(result.averaged_iterate) - fstar)
        medians.append(float(np.median(vals)))
    slope = float(np.polyfit(np.log(inner_grid), np.log(medians), 1)[0])
    _report(4, "single outer loop decay vs inner length", -1.0 <= slope <= -0.35,
            60.0, f"log-log slope {slope:.3f}")


def test_criterion_05_fixed_inner_loop_rate(logistic_synthetic):
    _start()
    problem, fstar = logistic_synthetic
    outer_grid = [2, 4, 8, 16]
    medians = []
    for K in outer_grid:
        vals = []
        for seed in range(5):
            result = adasvrg_fixed(
                problem, np.zeros(problem.d), K, problem.n, snapshot="average",
                seed=seed,
            )
            vals.append(problem.loss_value(result.averaged_iterate) - fstar)
        medians.append(float(np.median(vals)))
    monotone = all(b < a for a, b in zip(medians, medians[1:]))
    slope = float(np.polyfit(np.log(outer_grid), np.log(medians), 1)[0])
    _report(5, "averaged iterate decay vs outer loops", monotone and slope <= -0.7,
            60.0, f"slope {slope:.3f}, medians decreasing: {monotone}")


def test_criterion_06_multistage_halving(logistic_synthetic):
    _start()
    problem, fstar = logistic_synthetic
    epsilon = 1.0 / 32.0  # five stages
    stage_subopts = []
    schedules = []
    counts_ok = True
    for seed in range(5):
        result = adasvrg_multistage(problem, np.zeros(problem.d), 3, epsilon, seed=seed)
        boundaries = [
            row.objective for row in result.trace.rows if row.event == "stage_boundary"
        ]
        stage_subopts.append([obj - fstar for obj in boundaries])
        schedule = result.notes["stage_inner_sizes"]
        schedules.append(schedule)
        stages = len(schedule)
        counts_ok = counts_ok and (
            sum(schedule) == 2 ** (stages + 2) - 4
            and result.counters.per_example_grad_evals == 2 * 3 * sum(schedule)
        )
    medians = np.median(np.array(stage_subopts), axis=0)
    monotone = all(b <= a for a, b in zip(medians, medians[1:]))
    _report(6, "stagewise halving and exact inner-iteration count",
            monotone and counts_ok, 60.0,
            f"stage medians {['%.2e' % v for v in medians]}, schedule {schedules[0]}")


def test_criterion_07_line_search_counter_example():
    _start()
    ok = True
    for seed in range(10):
        trace = svrg_inner_armijo_1d(1.0, 1.0, 1.0, 0.5, 10_000, seed=seed)
        inside = (trace[:-1] > 0) & (trace[:-1] < 1.0)
        ok = ok and bool(np.all(trace[1:][inside] >= trace[:-1][inside] - 1e-15))
    _report(7, "inner-loop line search cannot approach the solution", ok, 1.0)


def _first_fire(g_norm_star: np.ndarray, burn_in: int):
    """The first step t at which the optimizers' growth test fires on the
    series ||G_t||_*, t = 1..len, or None."""
    test = PhaseTestState(burn_in)
    return next((t for t, g in enumerate(g_norm_star, 1) if test.observe(g**2)), None)


def test_criterion_08_phase_transition(logistic_synthetic):
    _start()
    problem, _ = logistic_synthetic
    n, d = problem.n, problem.d

    # (a) full-batch dynamics stay in the flat-growth phase
    det = adagrad(problem, np.zeros(d), 10 * n, 1.0, batch_size=n, seed=0)
    fire_det = _first_fire(det.g_norm_star_steps, burn_in=2)
    ok_det = fire_det is None

    # (b) single-sample dynamics on noisier labels cross over and grow as sqrt(t)
    noisy_data, _ = gen_separable(
        SyntheticSpec(n=n, d=d, mislabel_fraction=0.2, margin=0.1, seed=23)
    )
    noisy = Problem(dataset=noisy_data, loss="logistic", l2_reg=1.0 / n)
    fires, slopes = [], []
    for seed in range(5):
        result = adagrad(noisy, np.zeros(d), 10 * n, 1.0, batch_size=1, seed=seed)
        fires.append(_first_fire(result.g_norm_star_steps, burn_in=2 * n))
        _, slope = two_phase_slope_fit(result.g_norm_star_steps)
        slopes.append(slope)
    ok_fire = all(f is not None and f <= 10 * n for f in fires)
    median_slope = float(np.median(slopes))
    ok_slope = abs(median_slope - 0.5) <= 0.15
    _report(8, "flat then sqrt-growth accumulator phases",
            ok_det and ok_fire and ok_slope, 120.0,
            f"deterministic fire: {fire_det}, stochastic fires {fires}, "
            f"median post-knee slope {median_slope:.3f}")


def test_criterion_09_interpolation_ordering():
    _start()
    # the protocol's budget of 50 passes at b = 64, as execute_seed spends it
    # on the in-memory problem
    protocol = RunConfig(batch_size=64, epochs=50)
    ada_config = replace(protocol, algo="adagrad", eta=1.0)
    vr_config = replace(protocol, algo="adasvrg")
    hyb_config = replace(protocol, algo="hybrid")

    def experiment(mislabel):
        dataset, _ = gen_separable(
            SyntheticSpec(n=2000, d=50, mislabel_fraction=mislabel, margin=0.5, seed=23)
        )
        problem = Problem(dataset=dataset, loss="squared_hinge", l2_reg=0.0)
        rows = {"ada_loss": [], "vr_loss": [], "ada_norm": [], "vr_norm": [],
                "hyb_norm": [], "switched": []}
        for seed in range(5):
            ada = execute_seed(problem, ada_config, seed)
            vr = execute_seed(problem, vr_config, seed)
            hyb = execute_seed(problem, hyb_config, seed)
            rows["ada_loss"].append(problem.loss_value(ada.final_iterate))
            rows["vr_loss"].append(problem.loss_value(vr.final_iterate))
            rows["ada_norm"].append(np.linalg.norm(problem.grad_full(ada.final_iterate)))
            rows["vr_norm"].append(np.linalg.norm(problem.grad_full(vr.final_iterate)))
            rows["hyb_norm"].append(np.linalg.norm(problem.grad_full(hyb.final_iterate)))
            rows["switched"].append(hyb.notes["switched"])
        return {k: (np.median(v) if k != "switched" else v) for k, v in rows.items()}

    clean = experiment(0.0)
    noisy = experiment(0.2)
    ok_clean = clean["ada_loss"] <= clean["vr_loss"] and not any(clean["switched"])
    floor = min(noisy["ada_norm"], noisy["vr_norm"])
    ok_noisy = noisy["hyb_norm"] <= 2.0 * floor and all(noisy["switched"])
    _report(9, "interpolation favors plain adaptive steps; hand-over detects noise",
            ok_clean and ok_noisy, 300.0,
            f"clean: ada {clean['ada_loss']:.2e} <= vr {clean['vr_loss']:.2e}, "
            f"no switch {not any(clean['switched'])}; noisy: hybrid {noisy['hyb_norm']:.2e} "
            f"<= 2x{floor:.2e}, all switch {all(noisy['switched'])}")


def test_criterion_10_untuned_vs_grid_best():
    _start()
    details = []
    ok = True
    for name in ("synth_a.libsvm", "synth_b.libsvm"):
        path = str(DATASETS / name)
        tuned = RunConfig(dataset=path, loss="logistic", algo="svrg",
                          batch_size=64, epochs=50, seeds=5)
        best_eta, results = grid_search(tuned)
        best_metric = results[best_eta]["metric"]
        untuned = RunConfig(dataset=path, loss="logistic", algo="adasvrg",
                            batch_size=64, epochs=50, seeds=5)
        metric = final_metric(run(untuned).traces)
        ratio = metric / best_metric
        ok = ok and ratio <= 10.0
        details.append(f"{name}: ratio {ratio:.3f} (best eta {best_eta:g})")
    _report(10, "tuning-free method within 10x of grid-best baseline", ok, 600.0,
            "; ".join(details))


def test_criterion_11_parser_round_trip():
    _start()
    import scipy.sparse as sp

    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(1, 8))
        dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < 0.5)
        dataset = Dataset(
            features=sp.csr_matrix(dense),
            labels=rng.choice([-1.0, 1.0], size=n),
        )
        again = parse_libsvm(serialize_libsvm(dataset), d=d)
        ok = ok and datasets_equal(dataset, again)
    _report(11, "serialize/parse identity on 1000 random datasets", ok, 5.0)


def test_criterion_12_determinism(tmp_path):
    _start()
    data = tmp_path / "data.libsvm"
    save_libsvm(gen_separable(SyntheticSpec(n=128, d=8, mislabel_fraction=0.1, seed=5))[0], data)
    configs = [
        RunConfig(dataset=str(data), algo="adasvrg", batch_size=8, epochs=6, seeds=(0, 3)),
        RunConfig(dataset=str(data), algo="svrg", eta=0.5, batch_size=8, epochs=6, seeds=(1,)),
    ]
    ok = True
    for i, config in enumerate(configs):
        first = run(replace(config, out=str(tmp_path / f"a{i}")))
        second = run(replace(config, out=str(tmp_path / f"b{i}")))
        for seed in config.seeds:
            name = f"seed{seed}.trace.csv"
            ok = ok and (
                (tmp_path / f"a{i}" / name).read_bytes()
                == (tmp_path / f"b{i}" / name).read_bytes()
            )
        ok = ok and (
            (tmp_path / f"a{i}" / "aggregate.csv").read_bytes()
            == (tmp_path / f"b{i}" / "aggregate.csv").read_bytes()
        )
    _report(12, "reruns reproduce byte-identical trace files", ok, 10.0)
