from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrkit import PhaseTestState, Trace, TraceRow
from vrkit.optimizers import _Run

from conftest import make_problem, scan_value_at_pass
from criterion_helpers import two_phase_slope_fit


class TestPhaseTestState:
    def test_burn_in_is_the_one_setting(self):
        # the threshold is diagnostics.THETA and the history grows per step
        assert tuple(f.name for f in fields(PhaseTestState) if f.init) == ("burn_in_threshold",)
        for name in ("theta", "capacity"):
            with pytest.raises(TypeError, match=f"'{name}'"):
                PhaseTestState(4, **{name: 0.5})

    def test_fires_only_at_even_steps_past_burn_in(self):
        state = PhaseTestState(4)
        fired = [state.observe(float(t)) for t in range(1, 11)]
        # linear growth: R = 1 at every even check from t = 4 on
        assert fired == [False, False, False, True, False, True, False, True, False, True]
        assert state.last_R == pytest.approx(1.0)

    def test_no_decision_on_zero_comparison(self):
        state = PhaseTestState(2)
        assert not state.observe(0.0)
        assert not state.observe(5.0)  # comparison value is zero
        assert state.last_R is None

    @staticmethod
    def _ratios(history: np.ndarray) -> tuple[dict, list]:
        """Observe history[t] for t >= 1 at the threshold THETA; returns
        last_R at each even t and the steps at which the test fired."""
        state = PhaseTestState(2)
        ratios, fired = {}, []
        for t in range(1, len(history)):
            if state.observe(history[t]):
                fired.append(t)
            if t % 2 == 0:
                ratios[t] = state.last_R
        return ratios, fired

    def test_constant_history_gives_zero(self):
        ratios, fired = self._ratios(np.full(101, 5.0))
        assert set(ratios.values()) == {0.0}
        assert fired == []

    def test_linear_history_gives_one(self):
        ratios, fired = self._ratios(np.arange(0, 101, dtype=float))
        for t in (10, 60, 100):
            assert ratios[t] == pytest.approx(1.0)
        assert fired == list(range(2, 101, 2))

    def test_sqrt_history_stays_below_half(self):
        # sublinear growth of the squared norms does not trigger at 0.5
        ratios, fired = self._ratios(np.sqrt(np.arange(0, 201, dtype=float)))
        for t in (50, 100, 200):
            assert ratios[t] == pytest.approx(np.sqrt(2.0) - 1.0)
        assert fired == []

    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(min_value=1e-6, max_value=1e6),
        seed=st.integers(min_value=0, max_value=999),
        t=st.sampled_from([10, 40, 80]),
    )
    def test_scale_invariance(self, scale, seed, t):
        rng = np.random.default_rng(seed)
        history = np.cumsum(rng.random(81) + 0.01)
        base, _ = self._ratios(history)
        scaled, _ = self._ratios(history * scale)
        assert scaled[t] == pytest.approx(base[t], rel=1e-9)


class TestTwoPhaseSlopeFit:
    @pytest.mark.parametrize("t0", [0, 100, 1000])
    def test_recovers_sqrt_growth_exponent(self, t0):
        t = np.arange(1, 4097)
        series = np.sqrt(np.maximum(0, t - t0)) + 1.0
        _, exponent = two_phase_slope_fit(series)
        assert exponent == pytest.approx(0.5, abs=0.05)

    def test_constant_series_has_zero_slope(self):
        growth, exponent = two_phase_slope_fit(np.full(128, 3.0))
        assert growth == 0.0
        assert exponent == 0.0

    def test_flat_series_growth_stays_below_threshold(self):
        # converging accumulation: squared norms approach a limit
        t = np.arange(1, 513)
        series = np.sqrt(10.0 - 9.0 / t)
        growth, _ = two_phase_slope_fit(series)
        assert growth < 0.5

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            two_phase_slope_fit(np.ones(63))

    def test_pure_noise_gradients_grow_as_sqrt(self):
        # i.i.d. gradients with zero signal: the accumulated squared mass
        # grows linearly, so its root grows with exponent one half
        slopes = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            grads = rng.standard_normal((4096, 6))
            series = np.sqrt(np.cumsum((grads**2).sum(axis=1)))
            _, slope = two_phase_slope_fit(series)
            slopes.append(slope)
        assert np.median(slopes) == pytest.approx(0.5, abs=0.1)


class TestTraceRecorder:
    def test_merges_rows_on_equal_pass(self):
        problem = make_problem()
        w0 = np.zeros(problem.d)
        run = _Run(problem, w0, seed=0, batch_size=1)
        run.counters.charge_full()
        run.record(w0 + 0.1, event="switch")
        w = w0 + 0.2
        run.record(w, force=True)
        rows = run.trace.rows
        assert [row.passes for row in rows] == [0.0, 1.0]
        assert rows[-1].objective == problem.loss_value(w)
        assert rows[-1].event == "switch"
        run.trace.validate()


class TestTraceSerialization:
    @staticmethod
    def _sample_trace() -> Trace:
        return Trace(
            rows=[
                TraceRow(0.0, 0.6931471805599453, 0.1, None, None, 0, None),
                TraceRow(1.0, 0.5, 0.09, 2.5, 0.1, 0, None),
                TraceRow(2.25, 0.25, None, 3.5, 0.1, 1, "adaptive_stop"),
                TraceRow(3.0, 0.1250000000000001, 0.07, 3.6, 0.2, 1, None),
            ]
        )

    def test_csv_roundtrip_bit_exact(self):
        trace = self._sample_trace()
        text = trace.to_csv()
        again = Trace.from_csv(text)
        assert again.to_csv() == text
        for a, b in zip(trace.rows, again.rows):
            assert a == b

    def test_jsonl_roundtrip_bit_exact(self):
        trace = self._sample_trace()
        text = trace.to_jsonl()
        again = Trace.from_jsonl(text)
        assert again.to_jsonl() == text
        for a, b in zip(trace.rows, again.rows):
            assert a == b

    def test_from_csv_rejects_wrong_header(self):
        text = self._sample_trace().to_csv()
        with pytest.raises(ValueError, match="trace CSV header"):
            Trace.from_csv(text.replace("pass,", "step,", 1))

    def test_from_csv_rejects_wrong_column_count(self):
        header, first, *rest = self._sample_trace().to_csv().splitlines()
        with pytest.raises(ValueError, match="malformed trace CSV row"):
            Trace.from_csv("\n".join([header, first + ",0", *rest]))

    def test_validate_rejects_unknown_event(self):
        trace = Trace(rows=[TraceRow(0.0, 0.5, event="restart")])
        with pytest.raises(ValueError, match="unknown trace event 'restart'"):
            trace.validate()

    def test_validate_rejects_non_monotone(self):
        trace = Trace(rows=[TraceRow(1.0, 0.5), TraceRow(1.0, 0.4)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_validate_rejects_unflagged_non_finite(self):
        trace = Trace(rows=[TraceRow(0.0, np.inf)])
        with pytest.raises(ValueError):
            trace.validate()
        flagged = Trace(rows=[TraceRow(0.0, np.inf, event="diverged")])
        flagged.validate()

    def test_value_at_pass_is_step_function(self):
        trace = self._sample_trace()
        assert trace.value_at_pass(0.5, "objective") == pytest.approx(0.6931471805599453)
        assert trace.value_at_pass(2.5, "grad_norm") == pytest.approx(0.09)
        assert trace.value_at_pass(3.0, "grad_norm") == pytest.approx(0.07)

    def test_value_at_pass_is_none_before_the_first_recorded_value(self):
        # perfbench counts a None at the budget as a failed run
        trace = self._sample_trace()
        assert trace.value_at_pass(-0.5, "objective") is None
        assert trace.value_at_pass(0.5, "g_norm_star") is None
        assert trace.value_at_pass(1.0, "g_norm_star") == 2.5
        assert Trace().value_at_pass(3.0, "objective") is None

    @pytest.mark.parametrize("objective", [np.inf, np.nan])
    def test_value_at_pass_returns_a_diverged_objective_as_recorded(self, objective):
        # perfbench's "no decrease by the budget" check must see the non-finite value
        trace = Trace(rows=[TraceRow(0.0, 0.5, 0.1),
                            TraceRow(1.5, objective, None, event="diverged")])
        assert trace.value_at_pass(2.0, "objective") is trace.rows[1].objective
        assert trace.value_at_pass(1.4, "objective") == 0.5
        assert trace.value_at_pass(2.0, "grad_norm") == 0.1

    def test_lookup_agrees_with_a_plain_scan(self):
        # rows between integer passes, and a diverged row without grad_norm
        trace = Trace(rows=[
            TraceRow(0.0, 0.7, None),
            TraceRow(0.375, 0.6, 0.3, 1.0, 0.1, 0, "switch"),
            TraceRow(1.0, 0.5, 0.2, 1.5, 0.1, 1, None),
            TraceRow(1.625, 0.45, None, 1.75, 0.1, 1, "adaptive_stop"),
            TraceRow(2.5, 0.4, 0.1, None, None, 2, None),
            TraceRow(3.125, np.inf, None, None, 0.1, 2, "diverged"),
        ])
        trace.validate()
        points = np.array([-1.0, 0.0, 0.25, 0.375, 0.5, 1.0, 1.5, 1.625, 2.0, 2.5, 3.0,
                           3.125, 4.0])
        for attr in ("objective", "grad_norm", "g_norm_star", "step_size"):
            expected = [scan_value_at_pass(trace, p, attr) for p in points]
            assert [trace.value_at_pass(p, attr) for p in points] == expected
            found = trace.last_recorded(points, attr)
            assert [None if i < 0 else getattr(trace.rows[i], attr) for i in found] == expected
