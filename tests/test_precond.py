import itertools
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrkit
from vrkit import PrecondState, PrecondVariant, ProjectionSpec, precond, project
from vrkit.precond import DELTA, VARIANT_KINDS, all_finite

from conftest import input_forms
from criterion_helpers import adagrad_bound_sides


def scalar_variant() -> PrecondVariant:
    return PrecondVariant(kind="scalar")


def diag_variant() -> PrecondVariant:
    return PrecondVariant(kind="diagonal")


def full_variant() -> PrecondVariant:
    return PrecondVariant(kind="full_matrix")


class TestAccumulate:
    def test_scalar_sums_squared_norms(self):
        state = PrecondState(scalar_variant(), 2)
        state.accumulate(np.array([3.0, 4.0]))
        assert state.G == pytest.approx(25.0)

    def test_diagonal_sums_coordinatewise(self):
        state = PrecondState(diag_variant(), 2)
        state.accumulate(np.array([3.0, 4.0]))
        state.accumulate(np.array([1.0, 0.0]))
        np.testing.assert_allclose(state.G, DELTA + np.array([10.0, 16.0]), rtol=1e-15)

    def test_diagonal_square_has_the_bits_of_the_product(self):
        # np.square against g * g on 1e5 values over the whole exponent
        # range, with signed zeros, infinities, NaN and subnormals
        rng = np.random.default_rng(5)
        g = np.ldexp(rng.uniform(-2.0, 2.0, 100_000), rng.integers(-1075, 1023, 100_000))
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                    1.5e-162, 1e154, -1.4e154, 1e155, -1e200, np.finfo(float).max]
        g[:len(specials)] = specials
        with np.errstate(all="ignore"):
            assert np.square(g).tobytes() == (g * g).tobytes()
            state = PrecondState(diag_variant(), g.size).accumulate(g).accumulate(g[::-1])
            want = np.full(g.size, DELTA)
            want += g * g
            want += g[::-1] * g[::-1]
        assert state.G.tobytes() == want.tobytes()
        assert state._root.tobytes() == np.sqrt(want).tobytes()

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_other_gradient_forms_give_the_float64_state(self, kind):
        # a 1-D C-contiguous float64 gradient is used as given; float32
        # values, a list, a (1, d) row or a strided view are converted, to
        # the state their float64 values give (a strided BLAS dot would
        # add in another order)
        d = 12
        rng = np.random.default_rng(4)
        grads = rng.standard_normal((2 * d, d))
        probe = rng.standard_normal(d)
        forms = {"float32": lambda g: (g.astype(np.float32), g.astype(np.float32).astype(float)),
                 "list": lambda g: (g.tolist(), g), "row": lambda g: (g.reshape(1, d), g),
                 "strided": lambda g: (np.repeat(g, 2)[::2], g)}

        def states(given):
            state = PrecondState(PrecondVariant(kind), d)
            for g in grads:
                state.accumulate(given(g))
                yield state.trace_G(), state.step(np.zeros(d), probe, 1.0).tobytes()

        for name, form in forms.items():
            assert (list(states(lambda g: form(g)[0]))
                    == list(states(lambda g: form(g)[1]))), name

    # The offset is the constant DELTA, not a setting: a variant rejects any
    # delta keyword.
    def test_full_requires_positive_delta(self):
        assert DELTA > 0
        for delta in (0.0, float("nan")):
            with pytest.raises(TypeError, match="delta"):
                PrecondVariant(kind="full_matrix", delta=delta)

    @pytest.mark.parametrize("kind", ["scalar", "diagonal"])
    def test_nan_delta_rejected(self, kind):
        with pytest.raises(TypeError, match="delta"):
            PrecondVariant(kind=kind, delta=float("nan"))

    @pytest.mark.parametrize("kind", ["scalar", "diagonal", "full_matrix"])
    @pytest.mark.parametrize("delta", [float("inf"), float("-inf")])
    def test_infinite_delta_rejected(self, kind, delta):
        with pytest.raises(TypeError, match="delta"):
            PrecondVariant(kind=kind, delta=delta)


def _window_cases():
    cases = []
    for d in (1, 6, 40):
        for t in sorted({t for t in (1, 2, d - 1, d, d + 1, 3 * d) if t >= 1}):
            for pattern in ("random", "zero_first", "repeated"):
                cases.append((d, t, pattern))
    return cases


def _gradients(d: int, t: int, pattern: str, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    if pattern == "repeated":
        # a pool smaller than the window keeps G - delta I rank-deficient
        pool = rng.standard_normal((max(1, d // 2), d))
        return [pool[i] for i in rng.integers(len(pool), size=t)]
    grads = [rng.standard_normal(d) for _ in range(t)]
    if pattern == "zero_first":
        grads[0] = np.zeros(d)
    return grads


class TestFullMatrixFactor:
    """The thin factor against G = REF_DELTA I + sum g g^T built from the
    raw gradients and decomposed with a d x d eigh.

    The state sees the gradients scaled by s = sqrt(DELTA / REF_DELTA), so
    its G is s^2 times the reference's: A^{-1} g is the same and trace G
    scales by s^2."""

    # With REF_DELTA = 0.5 and unit-scale gradients, ||G|| eps <= 1e-12 is far
    # below REF_DELTA, so the eigh reference is itself accurate to about 1e-13.
    REF_DELTA = 0.5
    SCALE = np.sqrt(DELTA / REF_DELTA)
    RTOL = 1e-10

    @pytest.mark.parametrize("d, t, pattern", _window_cases())
    def test_matches_dense_reference(self, d, t, pattern):
        s = self.SCALE
        state = PrecondState(full_variant(), d)
        G = self.REF_DELTA * np.eye(d)
        for g in _gradients(d, t, pattern):
            G += np.outer(g, g)
            evals, evecs = np.linalg.eigh(G)
            ainv_g = evecs @ ((evecs.T @ g) / np.sqrt(evals))
            state.accumulate(s * g)
            got = -state.step(np.zeros(d), s * g, eta=1.0)
            np.testing.assert_allclose(got, ainv_g, rtol=self.RTOL,
                                       atol=self.RTOL * np.abs(ainv_g).max())
            assert state.trace_G() == pytest.approx(s * s * np.trace(G), rel=self.RTOL)

    @pytest.mark.parametrize("d", [6, 33, 40])
    def test_factor_has_the_bits_of_the_numpy_route(self, d):
        # F from np.vstack and np.linalg.eigh, which call the same LAPACK
        # routine as the state.  At d = 33 the rotation of a window of 16 or
        # more rows changes its bits with the memory order of the basis.
        state = PrecondState(full_variant(), d)
        F = np.empty((0, d))
        for g in _gradients(d, d + 2, "random"):
            window = np.vstack((F, g))
            mu, basis = np.linalg.eigh(window @ window.T)
            if mu.shape[0] > d:
                basis = basis[:, 1:]
            F = basis.T @ window
            state.accumulate(g)
            assert state._F.tobytes() == F.tobytes()

    def test_step_with_other_gradient(self):
        # step applies A^{-1} to the gradient it is given
        s = self.SCALE
        rng = np.random.default_rng(1)
        state = PrecondState(full_variant(), 5)
        G = self.REF_DELTA * np.eye(5)
        for _ in range(3):
            g = rng.standard_normal(5)
            G += np.outer(g, g)
            state.accumulate(s * g)
        h = rng.standard_normal(5)
        evals, evecs = np.linalg.eigh(G)
        np.testing.assert_allclose(-state.step(np.zeros(5), s * h, eta=1.0),
                                   evecs @ ((evecs.T @ h) / np.sqrt(evals)), rtol=self.RTOL)


class TestFullMatrixClosedForms:
    """DELTA = 1e-8 with ||g|| = 1e3: ||G|| eps is near DELTA, so a d x d
    eigh is no reference.  The rounding of g / sqrt(DELTA) is amplified by
    ||g|| / sqrt(DELTA) = 1e7 against an O(1) result, hence rtol = 1e-7.
    The other eigenvalues of G are DELTA: a probe h orthogonal to every
    gradient has A^{-1} h = h / sqrt(DELTA)."""

    RTOL = 1e-7
    D = 40

    def _unit(self, rng) -> np.ndarray:
        v = rng.standard_normal(self.D)
        return v / np.linalg.norm(v)

    def _assert_probe(self, state, grads, rng):
        # h orthogonal to the gradients, by one QR of [grads, random]
        q, _ = np.linalg.qr(np.column_stack((*grads, rng.standard_normal(self.D))))
        h = q[:, -1]
        np.testing.assert_allclose(-state.step(np.zeros(self.D), h, eta=1.0),
                                   h / np.sqrt(DELTA), rtol=self.RTOL,
                                   atol=self.RTOL / np.sqrt(DELTA * self.D))

    @pytest.mark.parametrize("repeats", [1, 2, 41, 120])
    def test_repeated_gradient(self, repeats):
        # G = DELTA I + k g g^T, so A^{-1} g = g / sqrt(DELTA + k ||g||^2)
        rng = np.random.default_rng(2)
        g = 1e3 * self._unit(rng)
        sq = float(g @ g)
        state = PrecondState(full_variant(), self.D)
        for k in range(1, repeats + 1):
            state.accumulate(g)
            root = np.sqrt(DELTA + k * sq)
            np.testing.assert_allclose(-state.step(np.zeros(self.D), g, eta=1.0), g / root,
                                       rtol=self.RTOL, atol=self.RTOL / np.sqrt(self.D))
        self._assert_probe(state, [g], rng)
        assert state.trace_G() == pytest.approx(self.D * DELTA + repeats * sq, rel=1e-14)

    def test_two_orthogonal_gradients(self):
        rng = np.random.default_rng(3)
        g1 = 1e3 * self._unit(rng)
        v = self._unit(rng)
        g2 = 2e2 * (v - (v @ g1) / (g1 @ g1) * g1)
        roots = [np.sqrt(DELTA + float(g @ g)) for g in (g1, g2)]
        state = PrecondState(full_variant(), self.D)
        for g, root in zip((g1, g2), roots):
            state.accumulate(g)
            np.testing.assert_allclose(-state.step(np.zeros(self.D), g, eta=1.0), g / root,
                                       rtol=self.RTOL, atol=self.RTOL / np.sqrt(self.D))
        self._assert_probe(state, [g1, g2], rng)


_NON_FINITE_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from vrkit import PrecondState, PrecondVariant

    bad = float(sys.argv[1])
    probe = np.random.default_rng(1).standard_normal(6)

    def observed(state):
        return state.trace_G(), -state.step(np.zeros(6), probe, 1.0)

    for finite_first in (0, 1, 7):
        state = PrecondState(PrecondVariant(kind="full_matrix"), 6)
        rng = np.random.default_rng(0)
        for _ in range(finite_first):
            state.accumulate(rng.standard_normal(6))
        before = observed(state)
        g = rng.standard_normal(6)
        g[2] = bad
        try:
            state.accumulate(g)
        except np.linalg.LinAlgError:
            pass
        else:
            sys.exit(f"accumulate({bad}) did not raise after {finite_first} gradients")
        after = observed(state)
        assert after[0] == before[0] and np.array_equal(after[1], before[1]), (before, after)
    print("ok")
""")


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e200"])
def test_non_finite_window_raises_linalg_error(bad):
    # In a subprocess with a timeout: an eigensolver that hangs on inf input
    # fails this test instead of stalling the suite.
    src = str(Path(vrkit.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _NON_FINITE_SCRIPT, bad], capture_output=True,
                          text=True, timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_eigensolver_failure_raises_linalg_error(monkeypatch):
    # LAPACK reports no convergence through info != 0; the state stays as it
    # was, also when the failing call first grew the row buffers (r = 0, 4)
    d = 6
    rng = np.random.default_rng(4)
    probe = rng.standard_normal(d)

    def observed(state):
        return state.trace_G(), -state.step(np.zeros(d), probe, 1.0)

    def unconverged(gram, lower):
        return np.zeros(len(gram)), np.eye(len(gram)), 1

    for finite_first in (0, 1, 4, 7):
        grads = list(rng.standard_normal((finite_first + 2, d)))
        state = PrecondState(full_variant(), d)
        twin = PrecondState(full_variant(), d)
        for g in grads[:finite_first]:
            state.accumulate(g)
            twin.accumulate(g)
        before = observed(state)
        with monkeypatch.context() as patch:
            patch.setattr(precond, "dsyevd", unconverged)
            with pytest.raises(np.linalg.LinAlgError):
                state.accumulate(grads[finite_first])
        after = observed(state)
        assert after[0] == before[0] and np.array_equal(after[1], before[1])
        # the next gradient lands as if the failed one was never offered
        state.accumulate(grads[-1])
        twin.accumulate(grads[-1])
        assert observed(state)[1].tobytes() == observed(twin)[1].tobytes()


def test_full_matrix_states_own_their_rows():
    # Two states fed in alternation through one gradient array, which is
    # overwritten after each call, step bit for bit as each does when fed
    # alone: through the row-buffer growths (at r = 0, 4 and 8) and past
    # r = d, where the smallest row is dropped.
    d = 9
    rng = np.random.default_rng(12)
    grads = rng.standard_normal((2, 2 * d + 3, d))
    probe = rng.standard_normal(d)

    def steps_alone(series):
        state = PrecondState(full_variant(), d)
        return [state.accumulate(g).step(np.zeros(d), probe, 1.0).tobytes() for g in series]

    alone = [steps_alone(series) for series in grads]
    states = [PrecondState(full_variant(), d), PrecondState(full_variant(), d)]
    shared = np.empty(d)
    for t in range(grads.shape[1]):
        for i, state in enumerate(states):
            shared[:] = grads[i, t]
            state.accumulate(shared)
            shared[:] = 1e300
            assert state.step(np.zeros(d), probe, 1.0).tobytes() == alone[i][t], (i, t)


def _g_norm_star(state: PrecondState) -> float:
    """||G||_* = sqrt(trace G), the magnitude the optimizers monitor."""
    return float(np.sqrt(state.trace_G()))


class TestGNormStar:
    def test_scalar(self):
        state = PrecondState(scalar_variant(), 2)
        state.accumulate(np.array([3.0, 4.0]))
        assert _g_norm_star(state) == pytest.approx(5.0)

    def test_diagonal_same_trace(self):
        state = PrecondState(diag_variant(), 2)
        state.accumulate(np.array([3.0, 4.0]))
        assert _g_norm_star(state) == pytest.approx(5.0)

    def test_full_initial_trace_is_d_delta(self):
        state = PrecondState(full_variant(), 2)
        assert _g_norm_star(state) == pytest.approx(np.sqrt(2.0 * DELTA))

    def test_monotone_along_any_trajectory(self):
        rng = np.random.default_rng(3)
        for variant in (scalar_variant(), diag_variant(), full_variant()):
            state = PrecondState(variant, 3)
            previous = _g_norm_star(state) if variant.kind != "scalar" else 0.0
            for _ in range(30):
                state.accumulate(rng.standard_normal(3) * rng.random())
                assert _g_norm_star(state) >= previous - 1e-12
                previous = _g_norm_star(state)


class TestStep:
    def test_scalar_first_step_normalizes(self):
        state = PrecondState(scalar_variant(), 2)
        g = np.array([3.0, 4.0])
        state.accumulate(g)
        x = state.step(np.zeros(2), g, eta=1.0)
        np.testing.assert_allclose(x, [-0.6, -0.8])

    def test_scalar_without_signal_raises(self):
        state = PrecondState(scalar_variant(), 2)
        assert not state.has_signal()
        with pytest.raises(ValueError):
            state.step(np.zeros(2), np.zeros(2), eta=1.0)

    def test_diagonal_zero_gradient_is_fixed_point(self):
        state = PrecondState(diag_variant(), 3)
        state.accumulate(np.zeros(3))
        x0 = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(state.step(x0, np.zeros(3), eta=2.0), x0)

    def test_diagonal_nan_coordinate_raises(self):
        # a nan coordinate is not frozen: the step raises, as the scalar and
        # full-matrix metrics do, and the optimizers flag the run diverged
        state = PrecondState(diag_variant(), 3)
        g = np.array([np.nan, 1.0, 1.0])
        with np.errstate(invalid="ignore"):
            state.accumulate(g)
            with pytest.raises(FloatingPointError):
                state.step(np.zeros(3), g, eta=0.1)

    def test_full_with_axis_aligned_gradients_matches_diagonal(self):
        # outer products of single-coordinate gradients keep G diagonal
        rng = np.random.default_rng(8)
        d = 4
        full = PrecondState(full_variant(), d)
        diag = PrecondState(diag_variant(), d)
        x_full = rng.standard_normal(d)
        x_diag = x_full.copy()
        for _ in range(12):
            g = np.zeros(d)
            j = int(rng.integers(d))
            g[j] = rng.standard_normal()
            full.accumulate(g)
            diag.accumulate(g)
            x_full = full.step(x_full, g, eta=0.7)
            x_diag = diag.step(x_diag, g, eta=0.7)
            np.testing.assert_allclose(x_full, x_diag, atol=1e-10)

    def test_scalar_equals_diagonal_in_one_dimension(self):
        rng = np.random.default_rng(4)
        scalar = PrecondState(scalar_variant(), 1)
        scalar.accumulate_sq_norm(DELTA)  # the diagonal's starting offset
        diagonal = PrecondState(diag_variant(), 1)
        xs, xd = np.array([2.0]), np.array([2.0])
        for _ in range(15):
            g = rng.standard_normal(1)
            scalar.accumulate(g)
            diagonal.accumulate(g)
            if scalar.has_signal():
                xs = scalar.step(xs, g, eta=0.3)
                xd = diagonal.step(xd, g, eta=0.3)
                np.testing.assert_array_equal(xs, xd)

    def test_non_finite_step_raises(self):
        state = PrecondState(scalar_variant(), 1)
        g = np.array([1.0])
        state.accumulate(g)
        with pytest.raises(FloatingPointError):
            state.step(np.array([np.inf]), g, eta=1.0)

    @staticmethod
    def _outcome(step):
        """A step's result (type, shape and bytes) or its error (type and
        message)."""
        try:
            y = step()
        except (ValueError, FloatingPointError, NotImplementedError) as error:
            return type(error), str(error)
        return type(y), y.shape, y.tobytes()

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_other_forms_step_as_their_float64_arrays(self, kind):
        # a float64 ndarray x or g is used as given; any other form steps as
        # np.asarray(form, dtype=np.float64) does, to the same bits or the
        # same error, and no input is written
        d = 6
        rng = np.random.default_rng(21)
        state = PrecondState(PrecondVariant(kind), d)
        for _ in range(3):
            state.accumulate(rng.standard_normal(d))

        def forms(values):
            return {"canonical": values, **input_forms(values),
                    "row": values.reshape(1, d), "column": values.reshape(d, 1),
                    "stack": np.stack((values, values, values)), "short": values[:-1],
                    "long": np.append(values, 1.0)}

        xs, gs = forms(3 * rng.standard_normal(d)), forms(rng.standard_normal(d))
        projections = [None] if kind == "full_matrix" else [None, ProjectionSpec(0.5)]
        for proj in projections:
            for (xname, x), (gname, g) in itertools.product(xs.items(), gs.items()):
                kept = [np.array(x, dtype=np.float64), np.array(g, dtype=np.float64)]
                want = self._outcome(lambda: state.step(np.asarray(x, dtype=np.float64),
                                                        np.asarray(g, dtype=np.float64),
                                                        0.3, proj))
                got = self._outcome(lambda: state.step(x, g, 0.3, proj))
                assert got == want, (xname, gname, proj)
                assert np.array_equal(kept[0], x) and np.array_equal(kept[1], g)
            assert self._outcome(lambda: state.step(xs["canonical"], gs["canonical"], 0.3,
                                                    proj))[:2] == (np.ndarray, (d,))


class TestFiniteness:
    """:func:`all_finite`, the one finiteness check of every metric's step,
    the full-matrix window and the just-in-time step's dense fallback."""

    def test_same_answer_as_isfinite(self):
        rng = np.random.default_rng(6)
        big = np.full(12000, 1e200)
        big[::2] *= -1.0
        cases = [np.empty(0), rng.standard_normal(12000), big, np.full(3, 1e154),
                 np.full(4, 5e-324), rng.standard_normal((5, 5)), np.array([-0.0])]
        for bad in (np.nan, -np.nan, np.inf, -np.inf):
            for case in (rng.standard_normal(12000), big.copy(), rng.standard_normal((5, 5))):
                case.ravel()[int(rng.integers(case.size))] = bad
                cases.append(case)
        with warnings.catch_warnings():
            # the sum of squares of big overflows; no warning may escape
            warnings.simplefilter("error")
            for case in cases:
                assert all_finite(case) is bool(np.isfinite(case).all())

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_iterate_raises(self, kind, bad):
        state = PrecondState(PrecondVariant(kind), 4)
        g = np.array([0.5, -1.0, 2.0, 0.25])
        state.accumulate(g)
        x = np.array([1.0, bad, -2.0, 0.0])
        with pytest.raises(FloatingPointError):
            state.step(x, g, eta=0.1)

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_huge_finite_iterate_does_not_raise(self, kind):
        # y . y overflows, so only the entrywise check can pass this iterate
        state = PrecondState(PrecondVariant(kind), 4)
        g = np.array([0.5, -1.0, 2.0, 0.25])
        state.accumulate(g)
        x = np.array([1e200, -3e200, 2e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = state.step(x, g, eta=0.1)
        assert np.isfinite(y).all()
        with np.errstate(over="ignore"):
            assert y.dot(y) == np.inf


class TestProjection:
    def test_ball_scalar_radial(self):
        state = PrecondState(scalar_variant(), 2)
        state.accumulate(np.array([1.0, 1.0]))
        spec = ProjectionSpec(radius=1.0)
        np.testing.assert_allclose(
            project(spec, state, np.array([3.0, 4.0])), [0.6, 0.8]
        )

    def test_ball_isotropic_diagonal_reduces_to_radial(self):
        state = PrecondState(diag_variant(), 2)
        state.accumulate(np.array([1.0, 1.0]))  # G = (1 + DELTA, 1 + DELTA)
        spec = ProjectionSpec(radius=1.0)
        got = project(spec, state, np.array([3.0, 4.0]))
        np.testing.assert_allclose(got, [0.6, 0.8], atol=1e-10)

    def test_ball_diagonal_beats_random_feasible_points(self):
        rng = np.random.default_rng(11)
        d = 5
        state = PrecondState(diag_variant(), d)
        for _ in range(6):
            state.accumulate(rng.standard_normal(d) * 2)
        spec = ProjectionSpec(radius=1.5)
        y = rng.standard_normal(d) * 4
        x = project(spec, state, y)
        assert np.linalg.norm(x) <= 1.5 + 1e-9
        a = np.sqrt(state.G)

        def metric_dist(z):
            return float((z - y) @ (a * (z - y)))

        best = metric_dist(x)
        for _ in range(1000):
            z = rng.standard_normal(d)
            z *= rng.random() * 1.5 / np.linalg.norm(z)
            assert best <= metric_dist(z) + 1e-8

    def test_ball_inside_is_identity(self):
        state = PrecondState(diag_variant(), 2)
        state.accumulate(np.array([1.0, 2.0]))
        spec = ProjectionSpec(radius=10.0)
        y = np.array([1.0, -1.0])
        np.testing.assert_array_equal(project(spec, state, y), y)

    def test_full_matrix_projection_unsupported(self):
        state = PrecondState(full_variant(), 2)
        spec = ProjectionSpec(radius=1.0)
        with pytest.raises(NotImplementedError):
            project(spec, state, np.array([3.0, 4.0]))

    def test_spec_validation(self):
        for radius in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="radius"):
                ProjectionSpec(radius=radius)


def _trace_A(state: PrecondState, grads: list[np.ndarray]) -> float:
    """Trace of A = G^{1/2}: from the state's G where it keeps one, else
    from the gradients it received, as criterion 3 computes it."""
    if state.variant.kind == "full_matrix":
        return adagrad_bound_sides("full_matrix", grads)[1]
    return float(np.sum(np.sqrt(state.G)))


class TestInequalities:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["scalar", "diagonal", "full_matrix"]),
        steps=st.integers(min_value=1, max_value=40),
    )
    def test_weighted_gradient_sum_bounded_by_twice_trace(self, seed, kind, steps):
        # the library's sum of g^T A_t^{-1} g, each term through step, against
        # criterion 3's reference and the bound
        rng = np.random.default_rng(seed)
        d = 3
        state = PrecondState(PrecondVariant(kind=kind), d)
        grads = []
        weighted = 0.0
        for _ in range(steps):
            g = rng.standard_normal(d) * rng.random() * 5
            grads.append(g)
            state.accumulate(g)
            if state.has_signal():
                weighted += float(g @ -state.step(np.zeros(d), g, eta=1.0))
        assert weighted == pytest.approx(adagrad_bound_sides(kind, grads)[0], rel=1e-8)
        assert weighted <= 2.0 * _trace_A(state, grads) + 1e-8 * steps

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kind=st.sampled_from(["scalar", "diagonal", "full_matrix"]),
    )
    def test_trace_of_metric_bounded_by_gradient_mass(self, seed, kind):
        rng = np.random.default_rng(seed)
        d = 4
        state = PrecondState(PrecondVariant(kind=kind), d)
        grads = [rng.standard_normal(d) for _ in range(25)]
        for g in grads:
            state.accumulate(g)
        total_sq = sum(float(g @ g) for g in grads)
        if kind == "scalar":
            bound = np.sqrt(total_sq)
        else:
            bound = np.sqrt(d * total_sq + d * d * DELTA)
        assert _trace_A(state, grads) <= bound + 1e-9

    def test_telescoping_bound_with_projection(self):
        # iterates and reference point live in a ball of diameter D; the
        # metric-weighted increments telescope to at most D^2 * trace(A_m)
        rng = np.random.default_rng(21)
        d = 4
        radius = 1.5
        spec = ProjectionSpec(radius=radius)
        for kind in ("scalar", "diagonal"):
            state = PrecondState(PrecondVariant(kind=kind), d)
            x = np.zeros(d)
            w_ref = rng.standard_normal(d)
            w_ref *= radius * 0.9 / np.linalg.norm(w_ref)
            prev_A = 0.0 if kind == "scalar" else np.zeros(d)
            total = 0.0
            for _ in range(60):
                g = rng.standard_normal(d) * 2
                state.accumulate(g)
                if kind == "scalar":
                    A = np.sqrt(state.G)
                    total += (A - prev_A) * float((x - w_ref) @ (x - w_ref))
                else:
                    A = np.sqrt(state.G)
                    total += float((A - prev_A) @ ((x - w_ref) ** 2))
                prev_A = A
                if state.has_signal():
                    x = state.step(x, g, eta=0.5, proj=spec)
            assert total <= (2 * radius) ** 2 * float(np.sum(np.sqrt(state.G))) + 1e-6
