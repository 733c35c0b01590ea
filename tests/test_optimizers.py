import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.stats import chi2

from vrkit import (
    Dataset,
    Problem,
    PrecondVariant,
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
from vrkit import bench, diagnostics, optimizers
from vrkit.precond import DELTA, PrecondState

from conftest import make_problem, same_bits, single_example_problem
from criterion_helpers import _armijo_max_step_1d, svrg_inner_armijo_1d


def small_synthetic(n=64, d=6, mislabel=0.1, seed=3, loss="logistic"):
    dataset, _ = gen_separable(SyntheticSpec(n=n, d=d, mislabel_fraction=mislabel, seed=seed))
    return Problem(dataset=dataset, loss=loss, l2_reg=1.0 / n)


FULL = PrecondVariant(kind="full_matrix")

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


class TestVarianceReducedDirection:
    def test_first_inner_step_uses_exact_gradient(self):
        problem = make_problem(seed=1)
        w0 = np.random.default_rng(0).standard_normal(problem.d)
        gd_step = w0 - 0.7 * problem.grad_full(w0)
        for seed in range(5):
            result = svrg(problem, w0, 1, 1, eta=0.7, batch_size=1, seed=seed)
            np.testing.assert_allclose(result.final_iterate, gd_step, atol=1e-14)

    def test_exhaustive_unbiasedness(self):
        problem = make_problem(n=16, d=5, seed=2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.standard_normal(problem.d)
            w = rng.standard_normal(problem.d)
            gfull_w = problem.grad_full(w)
            directions = [
                problem.grad_batch(x, np.array([i]))
                - problem.grad_batch(w, np.array([i]))
                + gfull_w
                for i in range(problem.n)
            ]
            np.testing.assert_allclose(
                np.mean(directions, axis=0), problem.grad_full(x), atol=1e-12
            )


class TestAdaSVRGFixed:
    def test_hand_traced_single_step(self):
        # squared loss, one example a=1, y=0, start at 1 with unit step:
        # g1 = 1, G = 1, x2 = 1 - 1 = 0
        problem = single_example_problem([1.0], 0.0)
        result = adasvrg_fixed(
            problem, np.array([1.0]), 1, 1,
            eta=1.0, snapshot="last", seed=0,
        )
        np.testing.assert_allclose(result.final_iterate, [0.0], atol=1e-15)
        assert result.counters.full_grad_evals == 1
        assert result.counters.per_example_grad_evals == 2

    def test_snapshot_average_and_averaged_iterate(self):
        problem = single_example_problem([1.0], 0.0)
        result = adasvrg_fixed(
            problem, np.array([1.0]), 1, 2,
            eta=1.0, snapshot="average", seed=0,
        )
        # iterates are x1 = 1, x2 = 0 (and x3 = 0); snapshot = mean(x1, x2)
        np.testing.assert_allclose(result.final_iterate, [0.5], atol=1e-15)
        np.testing.assert_allclose(result.averaged_iterate, [0.5], atol=1e-15)

        last = adasvrg_fixed(
            problem, np.array([1.0]), 1, 2,
            eta=1.0, snapshot="last", seed=0,
        )
        np.testing.assert_allclose(last.final_iterate, [0.0], atol=1e-15)
        assert last.averaged_iterate is None

    def test_budget_accounting(self):
        problem = small_synthetic()
        K, m, b = 3, 10, 4
        result = adasvrg_fixed(
            problem, np.zeros(problem.d), K, m,
            eta=0.5, batch_size=b, seed=0,
        )
        assert result.counters.full_grad_evals == K
        assert result.counters.per_example_grad_evals == 2 * b * m * K

    def test_heuristic_charges_one_probe_gradient(self):
        problem = small_synthetic()
        K = 4
        result = adasvrg_fixed(
            problem, np.zeros(problem.d), K, 8,
            eta=None, batch_size=4, seed=0,
        )
        assert result.counters.full_grad_evals == K + 1
        etas = {row.step_size for row in result.trace.rows if row.step_size is not None}
        assert all(eta > 0 for eta in etas)

    def test_all_variants_make_progress(self):
        problem = small_synthetic()
        f0 = problem.loss_value(np.zeros(problem.d))
        for kind in ("scalar", "diagonal", "full_matrix"):
            result = adasvrg_fixed(
                problem, np.zeros(problem.d), 4,
                variant=PrecondVariant(kind=kind),
                eta=None, batch_size=4, seed=1,
            )
            assert problem.loss_value(result.final_iterate) < f0

    def test_default_inner_length_tracks_batch_size(self):
        problem = small_synthetic(n=64)
        result = adasvrg_fixed(
            problem, np.zeros(problem.d), 1, eta=0.5, batch_size=16, seed=0,
        )
        # default m = n/b = 4 inner steps at 2*b each
        assert result.counters.per_example_grad_evals == 2 * 16 * 4

    def test_zero_outer_loops_gives_initial_row_only(self):
        problem = small_synthetic()
        result = adasvrg_fixed(problem, np.zeros(problem.d), 0, eta=0.5, seed=0)
        assert len(result.trace.rows) == 1
        assert result.trace.rows[0].passes == 0.0


class TestDeterminism:
    def test_identical_runs_bit_for_bit(self):
        problem = small_synthetic()
        a = adasvrg_fixed(problem, np.zeros(problem.d), 3, batch_size=4, seed=7)
        b = adasvrg_fixed(problem, np.zeros(problem.d), 3, batch_size=4, seed=7)
        assert a.trace.to_csv() == b.trace.to_csv()
        np.testing.assert_array_equal(a.final_iterate, b.final_iterate)

    def test_different_seeds_differ(self):
        problem = small_synthetic()
        a = adasvrg_fixed(problem, np.zeros(problem.d), 3, batch_size=4, seed=0)
        b = adasvrg_fixed(problem, np.zeros(problem.d), 3, batch_size=4, seed=1)
        assert a.trace.to_csv() != b.trace.to_csv()


class TestMultistage:
    def test_stage_schedule_eighth(self):
        problem = small_synthetic()
        result = adasvrg_multistage(
            problem, np.zeros(problem.d), 3, 1.0 / 8.0, eta=0.5, batch_size=4, seed=0,
        )
        assert result.notes["stage_inner_sizes"] == [4, 8, 16]

    def test_stage_schedule_half(self):
        problem = small_synthetic()
        result = adasvrg_multistage(
            problem, np.zeros(problem.d), 3, 0.5, eta=0.5, batch_size=4, seed=0,
        )
        assert result.notes["stage_inner_sizes"] == [4]

    def test_total_inner_iterations_geometric_sum(self):
        problem = small_synthetic()
        K, b = 3, 1
        for eps, stages in ((1.0 / 8.0, 3), (1.0 / 32.0, 5)):
            result = adasvrg_multistage(
                problem, np.zeros(problem.d), K, eps, eta=0.5, batch_size=b, seed=0,
            )
            schedule = result.notes["stage_inner_sizes"]
            assert len(schedule) == stages
            assert sum(schedule) == 2 ** (stages + 2) - 4
            assert result.counters.per_example_grad_evals == 2 * b * K * sum(schedule)
            assert result.counters.full_grad_evals == K * stages

    def test_stage_boundaries_recorded(self):
        problem = small_synthetic()
        result = adasvrg_multistage(
            problem, np.zeros(problem.d), 3, 1.0 / 8.0, eta=0.5, batch_size=4, seed=0,
        )
        boundaries = [e for _, e in result.trace.events() if e == "stage_boundary"]
        assert len(boundaries) == 3

    def test_each_stage_starts_from_the_previous_average(self, monkeypatch):
        # criteria 5 and 6 still pass when a stage starts from the previous
        # stage's last iterate instead
        problem = small_synthetic()
        w0 = np.zeros(problem.d)
        stages = []

        def engine(run, w, *args, **kwargs):
            start = w.copy()
            stage = real_engine(run, w, *args, **kwargs)
            stages.append((start, stage.averaged.copy(), stage.w.copy()))
            return stage

        real_engine = optimizers._engine
        monkeypatch.setattr(optimizers, "_engine", engine)
        result = adasvrg_multistage(problem, w0, 3, 1.0 / 8.0, eta=0.5, batch_size=4, seed=0)
        assert len(stages) == 3
        assert same_bits(stages[0][0], w0)
        for (_, averaged, last), (start, _, _) in zip(stages, stages[1:]):
            assert not same_bits(averaged, last)  # so the two candidate starts differ
            assert same_bits(start, averaged)
        assert same_bits(result.averaged_iterate, stages[-1][1])

    def test_preconditions(self):
        problem = small_synthetic()
        with pytest.raises(ValueError):
            adasvrg_multistage(problem, np.zeros(problem.d), 2, 0.1)
        with pytest.raises(ValueError):
            adasvrg_multistage(problem, np.zeros(problem.d), 3, 1.5)


class TestAdaptiveTermination:
    # The threshold is the constant diagnostics.THETA; the two extremes patch it.
    def test_tiny_threshold_stops_at_first_check(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "THETA", 1e-12)
        n, b = 6400, 64
        problem = small_synthetic(n=n, d=4, mislabel=0.2, seed=2)
        result = adasvrg_adaptive(
            problem, np.zeros(problem.d), 1, eta=0.5, batch_size=b, seed=0,
        )
        # first check at t = n/b = 100, comparing against the stored value at t = 50
        assert result.notes["adaptive_stops"] == [0]
        assert result.counters.per_example_grad_evals == 2 * b * (n // b)

    def test_huge_threshold_runs_to_cap(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "THETA", 1e12)
        problem = small_synthetic(n=64, d=4)
        result = adasvrg_adaptive(
            problem, np.zeros(problem.d), 2, eta=0.5, batch_size=8, seed=0,
        )
        # each inner loop runs to the cap of 10 n/b = 80 steps
        assert result.notes["adaptive_stops"] == []
        assert result.counters.per_example_grad_evals == 2 * 8 * 80 * 2

    def test_stop_event_recorded(self):
        problem = small_synthetic(n=256, d=4, mislabel=0.2)
        result = adasvrg_adaptive(
            problem, np.zeros(problem.d), 2, eta=0.5, batch_size=8, seed=0,
        )
        assert result.notes["adaptive_stops"] == [0, 1]
        assert [e for _, e in result.trace.events()] == ["adaptive_stop"] * 2

    def test_policy_validation(self):
        # the threshold and the inner-loop cap are constants, not keywords
        problem = small_synthetic()
        for fn in (adasvrg_adaptive, hybrid_adagrad_adasvrg):
            for name in ("theta", "max_inner"):
                with pytest.raises(TypeError, match=f"'{name}'"):
                    fn(problem, np.zeros(problem.d), 1, **{name: 2})


class TestHybrid:
    def test_budget_smaller_than_burn_in_never_checks(self):
        n, b = 64, 8
        problem = small_synthetic(n=n, d=4, mislabel=0.2)
        result = hybrid_adagrad_adasvrg(
            problem, np.zeros(problem.d), (2 * n // b) - 1,
            eta=0.5, batch_size=b, seed=0,
        )
        assert result.notes["switched"] is False
        assert result.termination_reason == "budget"
        assert not any(e == "switch" for _, e in result.trace.events())

    def test_switch_produces_second_phase(self):
        n, b = 256, 8
        problem = small_synthetic(n=n, d=4, mislabel=0.2)
        result = hybrid_adagrad_adasvrg(
            problem, np.zeros(problem.d), 20 * n // b,
            eta=0.5, batch_size=b, seed=0,
        )
        assert result.notes["switched"] is True
        assert result.notes["phase2_outer_loops"] >= 1
        assert any(e == "switch" for _, e in result.trace.events())
        # full gradients happen only in phase 2 when the step-size is constant
        assert result.counters.full_grad_evals == result.notes["phase2_outer_loops"]

    def test_phase1_history_exposed(self):
        problem = small_synthetic(n=64, d=4)
        result = hybrid_adagrad_adasvrg(
            problem, np.zeros(problem.d), 30, eta=0.5, batch_size=8, seed=0,
        )
        assert result.g_norm_star_steps is not None
        assert np.all(np.diff(result.g_norm_star_steps) >= -1e-12)


class TestSVRG:
    def test_zero_step_is_stationary(self):
        # a zero step would leave the iterate in place; it is rejected instead
        problem = make_problem(seed=4)
        with pytest.raises(ValueError, match="step size"):
            svrg(problem, np.ones(problem.d), 3, 5, eta=0.0, seed=0)

    def test_single_example_collapses_to_gradient_descent(self, quadratic_1d):
        # n = 1 makes the correction exact: x <- (1 - eta) x on f(x) = x^2/2
        eta, K, m = 0.3, 2, 4
        result = svrg(quadratic_1d, np.array([1.0]), K, m, eta=eta, seed=3)
        expected = (1 - eta) ** (K * m)
        np.testing.assert_allclose(result.final_iterate, [expected], rtol=1e-12)

    def test_divergence_flagged_not_fatal(self, quadratic_1d):
        result = svrg(quadratic_1d, np.array([1.0]), 50, 10, eta=3.0, seed=0)
        assert result.termination_reason == "diverged"
        assert result.trace.rows[-1].event == "diverged"
        result.trace.validate()


class TestFullMatrixDivergence:
    """An overflowing full-matrix accumulator makes its eigendecomposition
    fail; the run ends flagged diverged instead of raising."""

    @staticmethod
    def _problem() -> Problem:
        rng = np.random.default_rng(0)
        dataset = Dataset(features=rng.standard_normal((32, 4)), labels=rng.standard_normal(32))
        return Problem(dataset=dataset, loss="squared", l2_reg=0.0)

    def test_adagrad(self):
        with np.errstate(all="ignore"):
            result = adagrad(self._problem(), np.zeros(4), 200, 1e300, variant=FULL,
                             batch_size=4, seed=0)
        assert result.termination_reason == "diverged"
        result.trace.validate()

    def test_adasvrg_fixed(self):
        with np.errstate(all="ignore"):
            result = adasvrg_fixed(self._problem(), np.zeros(4), 5, variant=FULL,
                                   eta=1e300,
                                   batch_size=4, seed=0)
        assert result.termination_reason == "diverged"
        result.trace.validate()


class TestLooplessSVRG:
    def test_refresh_every_step_equals_full_gradient_descent(self):
        # b = n refreshes with probability b/n = 1
        problem = make_problem(seed=6)
        w0 = np.zeros(problem.d)
        eta, T = 0.2, 8
        result = loopless_svrg(problem, w0, T, eta, batch_size=problem.n, seed=0)
        w = w0.copy()
        for _ in range(T):
            w = w - eta * problem.grad_full(w)
        np.testing.assert_allclose(result.final_iterate, w, atol=1e-12)

    def test_zero_step_is_stationary(self):
        # a zero step would leave the iterate in place; it is rejected instead
        problem = make_problem(seed=6)
        with pytest.raises(ValueError, match="step size"):
            loopless_svrg(problem, np.ones(problem.d), 20, 0.0, seed=0)

    def test_refresh_count_binomial_concentration(self):
        problem = small_synthetic(n=64, d=4)
        b, T = 16, 400
        p = b / problem.n
        sigma = math.sqrt(T * p * (1 - p))
        for seed in range(10):
            result = loopless_svrg(
                problem, np.zeros(problem.d), T, 0.05, batch_size=b, seed=seed,
            )
            refreshes = result.notes["snapshot_refreshes"]
            assert abs(refreshes - p * T) <= 3 * sigma
            # initial snapshot gradient plus one per refresh
            assert result.counters.full_grad_evals == refreshes + 1

    def test_default_p_is_batch_over_n(self):
        # p = b/n is 1 at b = n: a refresh before every step, and no more
        problem = small_synthetic(n=64, d=4)
        result = loopless_svrg(problem, np.zeros(problem.d), 5, 0.1, batch_size=64, seed=0)
        assert result.notes["snapshot_refreshes"] == 5
        assert result.counters.full_grad_evals == 6


class TestSARAH:
    def test_single_example_telescopes_to_gradient_descent(self, quadratic_1d):
        eta, K, m = 0.25, 2, 5
        result = sarah(quadratic_1d, np.array([1.0]), K, m, eta=eta, seed=1)
        expected = (1 - eta) ** (K * m)
        np.testing.assert_allclose(result.final_iterate, [expected], rtol=1e-12)

    def test_zero_step_is_stationary(self):
        # a zero step would leave the iterate in place; it is rejected instead
        problem = make_problem(seed=2)
        with pytest.raises(ValueError, match="step size"):
            sarah(problem, np.ones(problem.d), 2, 4, eta=0.0, seed=0)

    def test_first_update_matches_svrg(self):
        problem = make_problem(seed=12)
        w0 = np.random.default_rng(2).standard_normal(problem.d)
        s = sarah(problem, w0, 1, 1, eta=0.4, seed=0)
        v = svrg(problem, w0, 1, 1, eta=0.4, seed=0)
        np.testing.assert_allclose(s.final_iterate, v.final_iterate, atol=1e-14)

    def test_budget_accounting_first_step_is_full(self):
        problem = small_synthetic()
        K, m, b = 2, 6, 4
        result = sarah(problem, np.zeros(problem.d), K, m, eta=0.1, batch_size=b, seed=0)
        assert result.counters.full_grad_evals == K
        assert result.counters.per_example_grad_evals == 2 * b * (m - 1) * K


class TestSVRGBB:
    def test_quadratic_recovers_inverse_curvature(self):
        # f(x) = c x^2 / 2 with c = 4: after the first pair of snapshots the
        # rule gives eta = 1 / (m c)
        problem = single_example_problem([2.0], 0.0)
        m = 5
        result = svrg_bb(problem, np.array([1.0]), 3, m, eta=0.01, seed=0)
        etas = [
            row.step_size
            for row in result.trace.rows
            if row.step_size is not None and row.outer >= 1
        ]
        assert etas[0] == pytest.approx(1.0 / (m * 4.0), rel=1e-12)

    def test_eta0_respected_on_first_loop(self):
        problem = single_example_problem([2.0], 0.0)
        result = svrg_bb(problem, np.array([1.0]), 2, 4, eta=0.037, seed=0)
        first = [r.step_size for r in result.trace.rows if r.outer == 0 and r.step_size]
        assert all(eta == pytest.approx(0.037) for eta in first)

    def test_stalled_snapshots_fall_back(self):
        # starting at the optimum keeps w fixed: zero displacement, so the
        # curvature estimate is undefined and the previous step-size is kept
        problem = single_example_problem([2.0], 0.0)
        result = svrg_bb(problem, np.array([0.0]), 3, 4, eta=0.1, seed=0)
        assert result.notes["bb_fallbacks"] == [1, 2]
        etas = {r.step_size for r in result.trace.rows if r.step_size is not None}
        assert etas == {0.1}


class TestAdaGrad:
    def test_deterministic_hand_trace(self, quadratic_1d):
        eta = 0.5
        x, G = 1.0, 0.0
        for _ in range(3):
            g = x
            G += g * g
            x -= eta * g / math.sqrt(G)
        result = adagrad(quadratic_1d, np.array([1.0]), 3, eta, batch_size=1, seed=0)
        np.testing.assert_allclose(result.final_iterate, [x], rtol=1e-14)

    def test_zero_gradients_keep_everything_constant(self):
        problem = single_example_problem([1.0], 0.0)
        result = adagrad(problem, np.array([0.0]), 10, 0.5, seed=0)
        np.testing.assert_array_equal(result.final_iterate, [0.0])
        assert np.all(result.g_norm_star_steps == 0.0)

    def test_diagonal_equals_scalar_in_one_dimension(self, quadratic_1d):
        # one rule, x -= eta g / sqrt(G); the diagonal G starts at DELTA
        def hand_trace(G):
            x = 2.0
            for _ in range(5):
                g = x
                G += g * g
                x -= 0.3 * g / math.sqrt(G)
            return x

        for kind, G0 in (("scalar", 0.0), ("diagonal", DELTA)):
            result = adagrad(quadratic_1d, np.array([2.0]), 5, 0.3,
                             variant=PrecondVariant(kind=kind), seed=0)
            np.testing.assert_allclose(result.final_iterate, [hand_trace(G0)], rtol=1e-14)

    def test_g_norm_history_matches_step_count(self):
        problem = small_synthetic()
        result = adagrad(problem, np.zeros(problem.d), 17, 0.5, batch_size=4, seed=0)
        assert result.g_norm_star_steps.shape == (17,)
        assert np.all(np.diff(result.g_norm_star_steps) >= -1e-12)


class TestSGD:
    def test_zero_step_is_stationary(self):
        # a zero step would leave the iterate in place; it is rejected instead
        problem = make_problem(seed=3)
        with pytest.raises(ValueError, match="step size"):
            sgd(problem, np.ones(problem.d), 10, 0.0, seed=0)

    def test_single_example_equals_gradient_descent(self, quadratic_1d):
        eta, T = 0.4, 6
        result = sgd(quadratic_1d, np.array([1.0]), T, eta, seed=0)
        np.testing.assert_allclose(result.final_iterate, [(1 - eta) ** T], rtol=1e-12)

    def test_quadratic_contraction_factor(self):
        # f(x) = c x^2 / 2 with c = 4: |x_{t+1}| = |1 - eta c| |x_t|
        problem = single_example_problem([2.0], 0.0)
        eta = 0.1
        result = sgd(problem, np.array([1.0]), 5, eta, seed=0)
        np.testing.assert_allclose(
            result.final_iterate, [(1 - eta * 4.0) ** 5], rtol=1e-12
        )


class TestArmijoCounterExample:
    def test_cross_side_step_reflects(self):
        # a = c = eta_max = 1, x = 0.5, cross-side component: bound is 2,
        # clipped to eta_max = 1, so the iterate flips sign exactly
        eta = _armijo_max_step_1d(0.5, 2, a=1.0, c=1.0, eta_max=1.0)
        assert eta == 1.0
        x_next = (1 - 2 * 1.0 * eta) * 0.5
        assert x_next == -0.5

    def test_same_side_search_fails_inside_unit_interval(self):
        for x in (0.1, 0.5, 0.9):
            assert _armijo_max_step_1d(x, 1, a=1.0, c=1.0, eta_max=1.0) == 0.0
            assert _armijo_max_step_1d(-x, 2, a=1.0, c=1.0, eta_max=1.0) == 0.0

    def test_zero_is_a_fixed_point(self):
        trace = svrg_inner_armijo_1d(1.0, 1.0, 1.0, 0.0, 50, seed=4)
        assert np.all(trace == 0.0)

    def test_distance_never_shrinks_near_solution(self):
        for seed in range(5):
            trace = svrg_inner_armijo_1d(2.0, 1.0, 1.0, 0.5, 1000, seed=seed)
            inside = (trace[:-1] > 0) & (trace[:-1] < 1.0)
            assert np.all(trace[1:][inside] >= trace[:-1][inside] - 1e-15)

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            svrg_inner_armijo_1d(0.5, 1.0, 1.0, 0.5, 10)
        with pytest.raises(ValueError):
            svrg_inner_armijo_1d(-1.0, 1.0, 1.0, 0.5, 10)


class TestSingleChecks:
    """Every public optimizer rejects a bad count, initial point, step size,
    inner-loop length, multistage accuracy or (adasvrg_fixed's only)
    snapshot mode with the same check.  ``loopless_svrg``'s refresh
    probability is b/n, not a keyword, and ``svrg_bb`` spells its step size
    ``eta``: ``p`` and ``eta0`` raise ``TypeError``."""

    GONE = {loopless_svrg: "p", svrg_bb: "eta0"}

    OPTIMIZERS = (adasvrg_fixed, adasvrg_multistage, adasvrg_adaptive, hybrid_adagrad_adasvrg,
                  svrg, svrg_bb, sarah, loopless_svrg, adagrad, sgd)

    @staticmethod
    def _call(fn, count=3, w0=None, **kwargs):
        problem = small_synthetic(n=16, d=3)
        args = (kwargs.pop("epsilon", 0.5),) if fn is adasvrg_multistage else ()
        kwargs["eta"] = kwargs.pop("eta", 0.1)
        w0 = np.zeros(problem.d) if w0 is None else w0
        kwargs.setdefault("batch_size", 4)
        return fn(problem, w0, count, *args, seed=0, **kwargs)

    @pytest.mark.parametrize("fn", OPTIMIZERS, ids=lambda fn: fn.__name__)
    def test_each_setting_checked(self, fn):
        assert self._call(fn).termination_reason == "budget"
        bad = [({"count": -1}, "must be >= 0"), ({"w0": np.zeros(4)}, "w0 has dimension 4")]
        bad += [({"eta": eta}, "step size") for eta in (0.0, -1.0, math.nan)]
        if fn in (svrg, svrg_bb, sarah, adasvrg_fixed):
            bad.append(({"inner_loops": 0}, "inner_loops"))
        if fn is adasvrg_multistage:
            bad += [({"epsilon": epsilon}, "epsilon") for epsilon in (2.0, math.nan)]
        if fn is adasvrg_fixed:
            bad.append(({"snapshot": "first"}, "snapshot"))
        if fn in (svrg, svrg_bb, sarah, loopless_svrg, adagrad, sgd):
            # eta=None is the heuristic only on the adaptive methods
            bad.append(({"eta": None}, "needs a constant step size"))
        for kwargs, message in bad:
            with pytest.raises(ValueError, match=message):
                self._call(fn, **kwargs)
        if fn in self.GONE:
            with pytest.raises(TypeError, match=f"'{self.GONE[fn]}'"):
                self._call(fn, **{self.GONE[fn]: 0.5})
        # a count that is no integer, even an integral float, is refused by
        # the same check rather than a TypeError deep in range or rng.integers;
        # numpy integers run as Python ones do
        bad = [({"count": 2.5}, "outer_loops and total_steps must be an integer, got 2.5"),
               ({"count": 3.0}, "outer_loops and total_steps must be an integer, got 3.0"),
               ({"batch_size": 4.0}, "batch_size must be an integer, got 4.0")]
        integers = {"count": np.int64(3), "batch_size": np.int32(4)}
        if fn in (svrg, svrg_bb, sarah, adasvrg_fixed):
            bad.append(({"inner_loops": 2.0}, "inner_loops must be an integer, got 2.0"))
            integers["inner_loops"] = np.int64(3)
        for kwargs, message in bad:
            with pytest.raises(ValueError, match=re.escape(message)):
                self._call(fn, **kwargs)
        want = self._call(fn, **{k: int(v) for k, v in integers.items()})
        got = self._call(fn, **integers)
        assert got.trace.to_csv() == want.trace.to_csv()
        assert same_bits(got.final_iterate, want.final_iterate)
        if fn in (svrg, svrg_bb, sarah):
            # nor has their step size a default
            problem = small_synthetic(n=16, d=3)
            with pytest.raises(ValueError, match="needs a constant step size"):
                fn(problem, np.zeros(problem.d), 3, batch_size=4, seed=0)

    @pytest.mark.parametrize("fn", (adasvrg_fixed, adasvrg_multistage),
                             ids=lambda fn: fn.__name__)
    def test_full_matrix_projection_rejected_before_any_oracle_call(self, monkeypatch, fn):
        # the full-matrix metric has no projection: the run is refused when
        # it is built, before its start row or first full gradient
        calls = []
        for name in ("margins", "grad_full"):
            def spy(self, *args, _original=getattr(Problem, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(Problem, name, spy)
        problem = small_synthetic(n=64, d=4)
        args = (0.5,) if fn is adasvrg_multistage else ()
        with pytest.raises(ValueError, match="full_matrix"):
            fn(problem, np.zeros(problem.d), 3, *args, variant=FULL, proj=ProjectionSpec(1.0),
               eta=0.5, batch_size=4)
        assert calls == []


class TestTraceShape:
    def test_rows_strictly_increasing_and_validate(self):
        problem = small_synthetic()
        switching = small_synthetic(n=256, d=4, mislabel=0.2)
        multistage = adasvrg_multistage(problem, np.zeros(problem.d), 3, 1.0 / 8.0, eta=0.5,
                                        batch_size=4, seed=0)
        hybrid = hybrid_adagrad_adasvrg(switching, np.zeros(switching.d), 20 * 256 // 8,
                                        eta=0.5, batch_size=8, seed=0)
        # the closing row merges into the last stage boundary
        assert multistage.trace.final().event == "stage_boundary"
        assert hybrid.notes["switched"] is True
        for result in (
            adasvrg_fixed(problem, np.zeros(problem.d), 3, batch_size=4, seed=0),
            svrg(problem, np.zeros(problem.d), 3, eta=0.05, batch_size=4, seed=0),
            adagrad(problem, np.zeros(problem.d), 40, 0.5, batch_size=4, seed=0),
            multistage,
            hybrid,
        ):
            result.trace.validate()
            rows = result.trace.rows
            passes = [r.passes for r in rows]
            assert passes == sorted(passes)
            assert passes[0] == 0.0
            assert rows[-1].step_size is None
            assert rows[-1].outer == rows[-2].outer

    def test_trace_row_count_stays_linear_in_passes(self):
        problem = small_synthetic(n=128)
        result = adagrad(problem, np.zeros(problem.d), 10 * 128, 0.5, batch_size=1, seed=0)
        final_pass = result.trace.final().passes
        assert len(result.trace.rows) <= final_pass + 3


def _csr_rows(loss="logistic", l2=0.05, scale=1.0, seed=21):
    """40 x 12 CSR rows of 0 to 6 nonzeros (rows 3, 17 and 30 empty): too
    sparse for a dense copy, so the optimizers may take the lazy step."""
    rng = np.random.default_rng(seed)
    n, d = 40, 12
    lengths = rng.integers(0, 7, size=n)
    lengths[[3, 17, 30]] = 0
    indices = np.concatenate([np.sort(rng.choice(d, size=k, replace=False)) for k in lengths])
    data = scale * rng.standard_normal(indices.size)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    labels = (rng.choice([-1.0, 1.0], size=n) if loss in ("logistic", "squared_hinge")
              else rng.standard_normal(n))
    dataset = Dataset(features=sp.csr_matrix((data, indices, indptr), shape=(n, d)),
                      labels=labels)
    assert dataset.dense_rows is None
    return Problem(dataset=dataset, loss=loss, l2_reg=l2)


def _lazy_cases():
    scalar = PrecondVariant(kind="scalar")
    steps = 10 * 40
    return {
        "svrg-b1": lambda: svrg(_csr_rows(), np.zeros(12), 3, None, 0.3, batch_size=1, seed=1),
        "adasvrg-fixed-b1": lambda: adasvrg_fixed(
            _csr_rows(), np.zeros(12), 3, variant=scalar, eta=0.5, batch_size=1, seed=2),
        "adasvrg-adaptive-b1": lambda: adasvrg_adaptive(
            _csr_rows(), np.zeros(12), 3, eta=None, batch_size=1, seed=3),
        "hybrid-b1": lambda: hybrid_adagrad_adasvrg(
            _csr_rows(), np.zeros(12), steps, eta=None, batch_size=1, seed=4),
        "sgd-b1": lambda: sgd(_csr_rows(), np.zeros(12), steps, 0.3, batch_size=1, seed=5),
        "svrg-l2-0-b1": lambda: svrg(_csr_rows("squared", l2=0.0), np.zeros(12), 3, None, 0.1,
                                     batch_size=1, seed=6),
        "sgd-l2-0-b1": lambda: sgd(_csr_rows("squared", l2=0.0), np.zeros(12), steps, 0.1,
                                   batch_size=1, seed=7),
        # eta * l2 == 1 exactly: the scale c of x = a + c v - beta base reaches 0
        "svrg-eta-l2-one-b1": lambda: svrg(_csr_rows(l2=0.5, scale=0.3), np.zeros(12), 3, None,
                                           2.0, batch_size=1, seed=8),
        "sgd-eta-l2-one-b1": lambda: sgd(_csr_rows(l2=0.5, scale=0.3), np.zeros(12), steps, 2.0,
                                         batch_size=1, seed=9),
        # with the cases above, every loss's one-example derivative
        "svrg-huber-b1": lambda: svrg(_csr_rows("huber"), np.zeros(12), 3, None, 0.3,
                                      batch_size=1, seed=12),
        "adasvrg-fixed-squared_hinge-b1": lambda: adasvrg_fixed(
            _csr_rows("squared_hinge"), np.zeros(12), 3, variant=scalar, eta=0.5, batch_size=1,
            seed=13),
    }


class TestLazySparseStep:
    """The O(nnz) b = 1 step on CSR rows against the dense reference step,
    row by row.  The dense step is forced by patching the one selection
    rule."""

    # Rounding bound, fixed before this test first ran: each step adds a few
    # ulps of the magnitudes in play, so after T steps the two paths may
    # differ by 64 T eps relative to 1 + |value|.
    @staticmethod
    def _tol(result):
        steps = result.counters.per_example_grad_evals + 40 * result.counters.full_grad_evals
        return 64 * steps * np.finfo(float).eps

    @staticmethod
    def _both(monkeypatch, make):
        calls = []  # the lazy step's directions: the dense run takes none
        original = optimizers._LazyStep.direct
        monkeypatch.setattr(optimizers._LazyStep, "direct",
                            lambda self, *a: calls.append(1) or original(self, *a))
        with np.errstate(all="ignore"):
            lazy = make()
            lazy_calls = len(calls)
            monkeypatch.setattr(optimizers, "_lazy_applies", lambda *args: False)
            dense = make()
        assert lazy_calls > 0 and len(calls) == lazy_calls
        return lazy, dense

    @staticmethod
    def _close(a, b, tol):
        if a is None or b is None:
            return a is b
        return abs(a - b) <= tol * (1.0 + abs(b))

    @pytest.mark.parametrize("name", sorted(_lazy_cases()))
    def test_matches_dense_step(self, monkeypatch, name):
        lazy, dense = self._both(monkeypatch, _lazy_cases()[name])
        tol = self._tol(dense)
        assert lazy.termination_reason == dense.termination_reason == "budget"
        assert lazy.counters == dense.counters
        for key in ("adaptive_stops", "switch_step", "switched", "phase2_outer_loops"):
            assert lazy.notes.get(key) == dense.notes.get(key)
        if name.startswith("hybrid"):
            assert dense.notes["switched"]
        assert len(lazy.trace.rows) == len(dense.trace.rows)
        for got, want in zip(lazy.trace.rows, dense.trace.rows):
            assert (got.passes, got.outer, got.event) == (want.passes, want.outer, want.event)
            for field in ("objective", "grad_norm", "g_norm_star", "step_size"):
                assert self._close(getattr(got, field), getattr(want, field), tol), field
        scale = 1.0 + np.abs(dense.final_iterate).max()
        assert np.abs(lazy.final_iterate - dense.final_iterate).max() <= tol * scale
        if dense.g_norm_star_steps is not None:
            np.testing.assert_allclose(lazy.g_norm_star_steps, dense.g_norm_star_steps,
                                       rtol=tol, atol=tol)

    @pytest.mark.parametrize("loss", ["logistic", "squared", "huber", "squared_hinge"])
    def test_first_b1_step_from_a_snapshot_is_exact(self, loss):
        # at x = a the row's margin is (A a)_i exactly, so its anchored
        # coefficient is 0.0 and the step leaves a - eta base, empty rows included
        problem = _csr_rows(loss)
        a = np.random.default_rng(0).standard_normal(problem.d)
        base = problem.grad_full(a)
        for i in range(problem.n):
            step = optimizers._LazyStep(problem, a, base, problem.margins(a))
            step.direct(np.array([i]))
            assert step.coeff == 0.0
            step.step(0.3)
            assert step.point().tobytes() == (a - 0.3 * base).tobytes(), i

    @pytest.mark.parametrize("loss", ["logistic", "squared", "huber", "squared_hinge"])
    def test_b1_scalars_are_python_floats(self, loss):
        # a numpy scalar here would pay numpy's per-call cost in every
        # scalar operation of the step, with no result changed
        problem = _csr_rows(loss)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(problem.d)
        for base in (problem.grad_full(a), None):
            step = optimizers._LazyStep(problem, a, base, problem.margins(a))
            for i in rng.permutation(problem.n):
                step.direct(np.array([i]))
                for name in ("coeff", "s_v", "s_base", "s_sq"):
                    assert type(getattr(step, name)) is float, (name, i)
                step.step(0.3)

    @pytest.mark.parametrize("b", [1])
    def test_divergence_flagged_on_the_same_row(self, monkeypatch, b):
        lazy, dense = self._both(monkeypatch, lambda: svrg(
            _csr_rows(), np.zeros(12), 20, None, 60.0, batch_size=b, seed=10))
        assert dense.termination_reason == lazy.termination_reason == "diverged"
        # flagged by a monitored objective, which stores a gradient norm
        assert dense.trace.final().grad_norm is not None
        assert [(r.passes, r.event) for r in lazy.trace.rows] == \
            [(r.passes, r.event) for r in dense.trace.rows]

    @pytest.mark.parametrize("b", [1])
    def test_scalar_step_raises_on_the_same_row(self, monkeypatch, b):
        lazy, dense = self._both(monkeypatch, lambda: adasvrg_fixed(
            _csr_rows(), np.zeros(12), 3, variant=PrecondVariant(kind="scalar"), eta=1e308,
            batch_size=b, seed=11))
        assert dense.termination_reason == lazy.termination_reason == "diverged"
        # a step that raised FloatingPointError: its row stores no gradient norm
        assert dense.trace.final().grad_norm is None
        assert lazy.trace.final().grad_norm is None
        assert [(r.passes, r.event) for r in lazy.trace.rows] == \
            [(r.passes, r.event) for r in dense.trace.rows]

    @staticmethod
    def _at_point(x):
        # a b = 1 step on a nonempty row, restarted from the iterate x
        problem = _csr_rows()
        a = np.random.default_rng(2).standard_normal(problem.d)
        step = optimizers._LazyStep(problem, a, problem.grad_full(a), problem.margins(a))
        with np.errstate(all="ignore"):
            step._restart(x)
        step.direct(np.array([0]))
        assert step.cols.size > 0
        return step

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dense_fallback_raises_on_non_finite(self, bad):
        x = np.ones(12)
        x[5] = bad
        step = self._at_point(x)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            step._dense_step(0.1)

    def test_dense_fallback_keeps_huge_finite_iterate(self):
        # y . y overflows, so only the entrywise check can pass this iterate
        x = np.full(12, 1e200)
        x[::2] *= -3.0
        step = self._at_point(x)
        want = x - 0.1 * (step.l2 * (x - step.a) + step.base)
        want[step.cols] -= 0.1 * (step.coeff * step.vals)
        with np.errstate(over="ignore"):  # the restart's running ||v||^2
            step._dense_step(0.1)
        assert same_bits(step.point(), want)

    @pytest.mark.parametrize("kwargs", [
        {"variant": PrecondVariant(kind="diagonal")}, {"proj": ProjectionSpec(radius=1.0)},
        {"snapshot": "average"}, {"direction": "recursive"}, {"loop": "refresh"}, {"dense": True},
        {"batch_size": 4},
    ], ids=["diagonal", "projection", "average", "recursive", "coin-flip", "dense-rows", "b4"])
    def test_selection_rule(self, kwargs):
        def applies(problem, batch_size=1, variant=None, proj=None, **loop):
            run = optimizers._Run(problem, np.zeros(problem.d), seed=0, batch_size=batch_size,
                                  variant=variant, proj=proj)
            loop = {"direction": "vr", "snapshot": "last", "loop": "fixed", **loop}
            return optimizers._lazy_applies(run, **loop)

        problem = make_problem(density=1.0) if kwargs.pop("dense", False) else _csr_rows()
        assert applies(_csr_rows())
        assert not applies(problem, **kwargs)


def _sampler_run(n, b, seed):
    problem = Problem(dataset=Dataset(features=np.ones((n, 1)), labels=np.ones(n)),
                      loss="squared")
    return optimizers._Run(problem, np.zeros(1), seed=seed, batch_size=b)


def _draw_block_2d(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """A frozen copy of ``optimizers._draw_block`` as it was when it found
    repeats on 2-D slices of the block and mapped them to flat positions
    with ``repeats // (b - 1)``: the reference for the random stream."""
    m = n // b
    if 6 * (b - 1) > n:
        while True:
            keys = rng.random((m, n))
            cut = np.partition(keys, b - 1, axis=1)[:, b - 1:b]
            picked = np.flatnonzero(keys <= cut)
            if picked.size == m * b:
                return (picked % n).reshape(m, b)
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows = rng.integers(n, size=(m, b), dtype=dtype)
    rows.sort(axis=1)
    flat, spare = rows.ravel(), np.empty(0, dtype)
    while (repeats := np.flatnonzero(rows[:, 1:] == rows[:, :-1])).size:
        if spare.size < repeats.size:
            spare = rng.integers(n, size=2 * repeats.size + 8, dtype=dtype)
        flat[repeats + repeats // (b - 1) + 1] = spare[:repeats.size]
        spare = spare[repeats.size:]
        rows.sort(axis=1)
    return rows.astype(np.intp)


class TestBlockSampler:
    """``_Run.sample`` hands out uniform b-subsets, independent across
    batches, in ascending order, a block of n // b at a time."""

    # b = 1, 2 and 64, the largest b that draws and redraws integers,
    # n // 6 + 1 (6(b - 1) <= n), the next one, which takes the smallest
    # keys, and b = n
    @pytest.mark.parametrize("n, b", [(n, b) for n in (130, 2000)
                                      for b in (1, 2, 64, n // 6 + 1, n // 6 + 2, n)])
    def test_stream_matches_the_2d_reference(self, n, b):
        for seed in range(50):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                got, want = optimizers._draw_block(rng, n, b), _draw_block_2d(reference, n, b)
                assert got.dtype == want.dtype == np.intp and got.shape == (n // b, b)
                assert np.array_equal(got, want), seed
            assert rng.bit_generator.state == reference.bit_generator.state, seed

    # Each chi-square statistic must stay below this quantile of its
    # distribution under a uniform, independent sampler; fixed before the
    # runs, so a correct sampler fails one test with probability 1e-3.
    QUANTILE = 0.999

    @pytest.mark.parametrize("n", [1, 2, 7, 2000])
    def test_batches_distinct_in_range_and_ascending(self, n):
        for b in sorted({b for b in (1, 2, 64, n // 2, n - 1, n) if 1 <= b <= n}):
            run = _sampler_run(n, b, seed=b)
            for _ in range(3 * (n // b) + 1):
                batch = run.sample()
                assert batch.dtype == np.intp and batch.shape == (b,)
                assert batch[0] >= 0 and batch[-1] < n
                assert np.all(np.diff(batch) > 0)

    @staticmethod
    def _chi_square_ok(observed, cells):
        counts = np.array([observed.get(cell, 0) for cell in cells], dtype=float)
        assert counts.sum() == sum(observed.values()), "a draw outside the cells"
        if len(cells) == 1:
            return True, 0.0
        expected = counts.sum() / len(cells)
        stat = float(((counts - expected) ** 2).sum() / expected)
        return stat < chi2.ppf(TestBlockSampler.QUANTILE, len(cells) - 1), stat

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 6])
    def test_uniform_over_subsets_and_pairs_across_blocks(self, b):
        # n = 6 takes every branch of the rule: b = 1 and b = 2 redraw
        # (b = 2 with repeats), b >= 3 the smallest keys
        n, per_cell = 6, 25
        subsets = list(itertools.combinations(range(n), b))
        pairs = [(s, t) for s in subsets for t in subsets]
        m = n // b
        run = _sampler_run(n, b, seed=100 + b)
        singles, across = {}, {}
        last = None
        for k in range(m * per_cell * len(pairs)):
            batch = tuple(run.sample().tolist())
            singles[batch] = singles.get(batch, 0) + 1
            if k % m == 0 and last is not None:  # first batch of a new block
                across[last, batch] = across.get((last, batch), 0) + 1
            last = batch
        ok, stat = self._chi_square_ok(singles, subsets)
        assert ok, f"single batches: chi-square {stat:.1f}"
        ok, stat = self._chi_square_ok(across, pairs)
        assert ok, f"pairs across a block boundary: chi-square {stat:.1f}"

    @pytest.mark.parametrize("n", [1, 2, 7, 2000])
    def test_b1_equals_successive_integers_draws(self, n):
        run = _sampler_run(n, 1, seed=n)
        reference = np.random.default_rng(n)
        for _ in range(2 * n + 3):  # across block boundaries
            assert run.sample().tolist() == [reference.integers(n)]

    @pytest.mark.parametrize("b", [1, 3, 64, 400, 2000])
    def test_same_seed_same_batches(self, b):
        first, second = _sampler_run(2000, b, seed=9), _sampler_run(2000, b, seed=9)
        for _ in range(2 * (2000 // b) + 1):
            assert first.sample().tolist() == second.sample().tolist()


class TestStepCharge:
    """The engine charges each sampled batch once: b on the plain direction
    and 2b on an anchored one.  SARAH's exact first step samples nothing
    and is charged nothing.  Every method of the benchmark, on dense and CSR
    rows, goes through the lazy step, the cached-phi' step (with or without
    the coin-flip refresh) or the recursive step's two ``grad_batch`` calls;
    the hybrid's plain samples are those before its switch."""

    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("algo", bench.ALGORITHMS)
    def test_plain_costs_b_anchored_costs_2b(self, monkeypatch, algo, layout, b):
        problem = make_problem(n=24, d=6, density=1.0, seed=8) if layout == "dense" else _csr_rows()
        assert (problem.dataset.dense_rows is None) == (layout == "csr")
        original = optimizers._Run.sample
        samples = []

        def sample(self):
            samples.append(None)
            return original(self)

        monkeypatch.setattr(optimizers._Run, "sample", sample)
        config = bench.RunConfig(algo=algo, batch_size=b, epochs=6, eta=0.05)
        result = bench.execute_seed(problem, config, 0)
        assert result.termination_reason == "budget" and samples
        if algo in ("sgd", "adagrad"):
            plain = len(samples)
        elif algo == "hybrid":
            plain = result.notes["switch_step"]
            assert 0 < plain < len(samples)  # these runs switch to the anchored phase 2
        else:
            plain = 0
        anchored = len(samples) - plain
        assert result.counters.per_example_grad_evals == b * plain + 2 * b * anchored


class TestOneMarginProduct:
    """A trace row forms the n x d margin product A x once, for both its
    objective and its monitoring gradient; a snapshot row shares its product
    with the charged full gradient and, on CSR rows, the cached phi'.
    ``loopless_svrg`` records no snapshot row: its first snapshot and each
    coin-flip refresh form one product for the full gradient and phi'.  So
    a run forms one product per row plus one per unrecorded snapshot."""

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("method", ["svrg", "loopless_svrg"])
    def test_one_product_per_row(self, monkeypatch, layout, method):
        problem = make_problem(n=24, d=6, density=1.0, seed=8) if layout == "dense" else _csr_rows()
        calls = {"margins": 0, "loss_value": 0}

        def counted(name):
            original = getattr(Problem, name)

            def spy(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)
            return spy

        for name in calls:
            monkeypatch.setattr(Problem, name, counted(name))
        w0 = np.zeros(problem.d)
        if method == "svrg":
            result = svrg(problem, w0, 4, None, 0.2, batch_size=2, seed=0)
            unrecorded = 0
        else:
            result = loopless_svrg(problem, w0, 60, 0.2, batch_size=2, seed=0)
            assert result.notes["snapshot_refreshes"] > 0
            unrecorded = result.counters.full_grad_evals
        assert len(result.trace.rows) >= 3
        assert calls["margins"] == calls["loss_value"] + unrecorded


class TestCachedAnchorDirection:
    """The snapshot-anchored dense step on CSR rows, driven directly: its
    direction is one ``grad_batch`` call given phi' cached at the anchor,
    plus base - l2 anchor cached with it.  It must equal the same call
    given phi' formed afresh at the current anchor, plus base - l2 anchor
    formed afresh, bit for bit; at l2 = 0 it must also equal that call
    minus l2 anchor, plus base, bit for bit.  It must equal
    grad_B(x) - grad_B(anchor) + base from two one-point calls within
    64 T eps relative to 1 + |value|, T = 2b, before and after the anchor is
    replaced as a coin-flip refresh replaces it.  A cache that
    :meth:`set_anchor` leaves stale fails all three."""

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("loss", ["logistic", "squared", "huber"])
    def test_equals_stacked_direction(self, loss, l2):
        problem = _csr_rows(loss, l2=l2)
        rng = np.random.default_rng(31)
        anchor = rng.standard_normal(problem.d)
        anchor[::4] = -0.0
        it = optimizers._DenseStep(problem, anchor.copy(), anchor, problem.grad_full(anchor),
                                   snapshot_anchored=True)
        for t in range(60):
            if t == 30:
                anchor = it.x.copy()
                it.set_anchor(anchor, problem.grad_full(anchor))
            b = (1, 2, 5)[t % 3]
            batch = rng.choice(problem.n, size=b, replace=False)
            it.direct(batch)
            fresh = problem.grad_batch(it.x, batch, problem.margin_derivs(it.anchor))
            assert same_bits(it.g, fresh + (it.base - problem.l2_reg * it.anchor)), (t, batch)
            if l2 == 0.0:
                fresh -= problem.l2_reg * it.anchor
                fresh += it.base
                assert same_bits(it.g, fresh), (t, batch)
            want = problem.grad_batch(it.x, batch) - problem.grad_batch(it.anchor, batch)
            want += it.base
            tol = 64 * 2 * b * np.finfo(float).eps
            assert np.all(abs(it.g - want) <= tol * (1.0 + abs(want))), (t, batch)
            it.step(0.2)


class TestReusedPairBuffer:
    """The dense step's direction inside real runs, against
    grad_B(x) - grad_B(anchor) + base from two fresh ``grad_batch`` calls
    (the test keeps its name from when the two points were one stacked call
    read from a reused (2, d) buffer).  ``sarah`` moves its anchor by
    assignment and takes those two calls itself, so it matches bit for bit.
    ``loopless_svrg`` replaces its anchor through ``set_anchor`` at each
    refresh and diagonal ``adasvrg_fixed`` at each snapshot; their direction
    is one call given phi' cached at the anchor, which sums in another
    order, so it matches within 64 T eps relative to 1 + |value|, T = 2b the
    step's work: the tolerance of :class:`TestLazySparseStep`.  A stale
    anchor or cache is off by far more and fails here by name.  Each method
    runs on dense rows and on six CSR problems, where the anchor has signed
    zeros, l2 is 0 or not, and b = 1 takes the kernel's one-row path."""

    @staticmethod
    def _problems():
        yield "dense", make_problem(n=24, d=6, density=1.0, seed=8), 4
        for k, (loss, l2) in enumerate(itertools.product(("logistic", "squared", "huber"),
                                                           (0.0, 0.05))):
            yield f"csr-{loss}-{l2}", _csr_rows(loss, l2=l2), (1, 2, 5)[k % 3]

    @pytest.mark.parametrize("method", ["sarah", "loopless_svrg", "adasvrg_fixed"])
    def test_equals_fresh_stack(self, monkeypatch, method):
        original = optimizers._DenseStep.direct
        anchors = []
        case = [None]

        def direct(self, batch):
            x, anchor, base = self.x.copy(), self.anchor.copy(), self.base.copy()
            original(self, batch)
            want = self.problem.grad_batch(x, batch) - self.problem.grad_batch(anchor, batch)
            want += base
            assert self.snapshot_anchored == (method != "sarah")
            if method == "sarah":
                assert same_bits(self.g, want), (case[0], len(anchors))
            else:
                tol = 64 * 2 * batch.size * np.finfo(float).eps
                assert np.all(abs(self.g - want) <= tol * (1.0 + abs(want))), \
                    (case[0], len(anchors))
            anchors.append(anchor.tobytes())

        monkeypatch.setattr(optimizers._DenseStep, "direct", direct)
        for name, problem, b in self._problems():
            case[0] = name
            assert (problem.dataset.dense_rows is None) == name.startswith("csr")
            anchors.clear()
            w0 = np.random.default_rng(9).standard_normal(problem.d)
            w0[::4] = -0.0
            if method == "sarah":
                result = sarah(problem, w0, 3, 6, eta=0.05, batch_size=b, seed=0)
                steps = 3 * 5  # the first step of each loop takes grad_full
            elif method == "loopless_svrg":
                # refresh probability b/n: some steps refresh, most do not
                steps = 4 * problem.n // b
                result = loopless_svrg(problem, w0, steps, 0.05, batch_size=b, seed=0)
                assert 0 < result.notes["snapshot_refreshes"] < steps, name
            else:
                result = adasvrg_fixed(problem, w0, 3, 6, variant=PrecondVariant("diagonal"),
                                       eta=0.05, batch_size=b, seed=0)
                steps = 3 * 6
            assert result.termination_reason == "budget", name
            assert len(anchors) == steps, name
            assert len(set(anchors)) > 2, name


class TestCanonicalArrays:
    """The engine hands ``Problem.grad_batch`` a 1-D C-contiguous intp batch,
    every oracle a 1-D C-contiguous float64 point and per-example vectors
    (``margins``, ``anchor_derivs``) as float64 ndarrays, and
    ``PrecondState.accumulate`` and ``step`` 1-D C-contiguous float64
    vectors: the inputs each uses as given, without converting them."""

    @staticmethod
    def _canonical(a, dtype) -> bool:
        return (type(a) is np.ndarray and a.dtype == dtype and a.ndim == 1
                and a.flags.c_contiguous)

    @pytest.mark.parametrize("algo", bench.ALGORITHMS)
    def test_protocol_config_passes_canonical_arrays(self, monkeypatch, algo):
        problem = bench.resolve_problem(bench.RunConfig(dataset=str(DATASETS / "synth_a.libsvm")))
        seen = {"grad_batch": 0, "accumulate": 0, "step": 0, "margins": 0, "loss_value": 0,
                "grad_full": 0, "margin_derivs": 0}

        def spy(owner, name, check):
            original = getattr(owner, name)

            def spied(self, *args, **kwargs):
                assert check(*args, **kwargs), name
                seen[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, spied)

        def point(w):
            return self._canonical(w, np.float64) and w.shape == (problem.d,)

        def per_example(values):
            return values is None or (self._canonical(values, np.float64)
                                      and values.shape == (problem.n,))

        spy(Problem, "grad_batch", lambda w, batch, derivs=None: (
            point(w) and self._canonical(batch, np.intp) and per_example(derivs)))
        spy(Problem, "margins", point)
        spy(Problem, "loss_value", lambda w, margins=None: point(w) and per_example(margins))
        spy(Problem, "grad_full", lambda w, counters=None, margins=None: (
            point(w) and per_example(margins)))
        spy(Problem, "margin_derivs", lambda w, margins=None: point(w) and per_example(margins))
        spy(PrecondState, "accumulate", lambda g: self._canonical(g, np.float64))
        spy(PrecondState, "step", lambda x, g, eta, proj=None: (
            self._canonical(x, np.float64) and self._canonical(g, np.float64)))
        # perfbench's protocol_dense: its constant steps, b = 64, the scalar variant
        eta = {"sgd": 0.1, "adagrad": 1.0, "svrg": 0.1, "lsvrg": 0.1, "sarah": 0.1,
               "svrg-bb": 0.1}.get(algo)
        config = bench.RunConfig(algo=algo, batch_size=64, epochs=6, variant="scalar", eta=eta)
        assert bench.execute_seed(problem, config, 0).termination_reason == "budget"
        takes_metric = bench._METHODS[algo][2]
        assert seen["grad_batch"] > 0 and seen["margins"] > 0 and seen["loss_value"] > 0
        assert seen["grad_full"] > 0
        assert seen["margin_derivs"] > 0 or algo in ("sgd", "adagrad", "sarah")
        assert (seen["accumulate"] > 0, seen["step"] > 0) == (takes_metric, takes_metric)
