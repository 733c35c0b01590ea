import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from vrkit import Dataset, GradOracleCounters, Problem
from vrkit.data import parse_libsvm, serialize_libsvm
from vrkit.problems import HUBER_DELTA

from conftest import (Subclass, central_difference_gradient, input_forms, make_problem, same_bits,
                      single_example_problem)
from criterion_helpers import datasets_equal

ALL_LOSSES = ("logistic", "squared", "huber", "squared_hinge")

# worst per-example curvature of each loss in the prediction z: the
# Lipschitz constant of phi'
CURVATURE = {"logistic": 0.25, "squared": 1.0, "huber": 1.0, "squared_hinge": 2.0}


class TestLossValue:
    def test_logistic_zero_margin_is_ln2(self):
        problem = single_example_problem([0.0, 0.0, 0.0], 1.0, loss="logistic")
        for w in (np.zeros(3), np.array([3.0, -1.0, 2.0])):
            assert problem.loss_value(w) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_squared_exact_fit_is_zero(self):
        problem = single_example_problem([1.0, 0.0], 1.0, loss="squared")
        assert problem.loss_value(np.array([1.0, 0.0])) == 0.0

    def test_logistic_two_examples_with_l2(self):
        # direct scalar evaluation: margins are both 2, plus (0.5/2)*||w||^2
        dataset = Dataset(
            features=sp.csr_matrix(np.array([[1.0], [-1.0]])),
            labels=np.array([1.0, -1.0]),
        )
        problem = Problem(dataset=dataset, loss="logistic", l2_reg=0.5)
        expected = math.log(1.0 + math.exp(-2.0)) + 1.0
        assert problem.loss_value(np.array([2.0])) == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch_raises(self):
        problem = make_problem()
        with pytest.raises(ValueError):
            problem.loss_value(np.zeros(problem.d + 1))

    @pytest.mark.parametrize("y", [1.0, -1.0])
    def test_stable_logistic_within_bound_of_logaddexp(self, y):
        # the module docstring's bound: 4 eps relative, plus one subnormal
        # unit (2^-1074) where exp(-|m|) underflows
        finite = np.array([0.0, 5e-324, 1e-300, 1.0, 36.0, 700.0, 800.0, 1e308])
        z = np.concatenate((finite, -finite))
        labels = np.full(z.size, y)
        problem = make_problem(loss="logistic")
        with np.errstate(over="raise", invalid="raise"):
            got = problem._loss_values(z, -labels)  # the logistic loss's signed labels
        want = np.logaddexp(0.0, -y * z)
        bound = 4 * np.finfo(np.float64).eps * np.abs(want) + 2.0**-1074
        assert np.all(np.abs(got - want) <= bound), got - want
        both = np.array([np.inf, -np.inf])
        np.testing.assert_array_equal(problem._loss_values(both, np.full(2, -y)),
                                      np.logaddexp(0.0, -y * both))

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_given_margins_give_the_same_bits(self, loss, layout):
        problem = make_problem(loss=loss, density=1.0 if layout == "dense" else 0.3, seed=4)
        assert (problem.dataset.dense_rows is not None) == (layout == "dense")
        w = np.random.default_rng(2).standard_normal(problem.d)
        z = problem.margins(w)
        kept = z.copy()
        assert problem.loss_value(w, margins=z) == problem.loss_value(w)
        assert same_bits(problem.grad_full(w, margins=z), problem.grad_full(w))
        assert same_bits(problem.margin_derivs(w, z), problem.margin_derivs(w))
        assert same_bits(z, kept)  # read, not written
        for wrong in (z[:1], z[:-1], np.stack((z, z))):
            for call in (lambda: problem.loss_value(w, margins=wrong),
                         lambda: problem.grad_full(w, margins=wrong),
                         lambda: problem.margin_derivs(w, wrong)):
                with pytest.raises(ValueError, match="margins have shape"):
                    call()


class TestOneExampleDeriv:
    """phi' of one example's floats, as the b = 1 steps take it, is the
    batch path's entry bit for bit, and a Python float."""

    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_float_equals_batch_entry(self, loss):
        # +-1e308 overflows -2 y (1 - y z) and a residual against -1e308;
        # z = y is y z = 1 for squared hinge, z = y +- HUBER_DELTA Huber's kink
        labels = ((-1.0, 1.0) if loss in ("logistic", "squared_hinge")
                  else (0.0, 2.5, -1e308))
        margins = [0.0, 5e-324, 0.5, 1.0, 36.0, 800.0, 1e308, math.inf]
        margins += [-m for m in margins] + [math.nan]
        pairs = [(z, y) for y in labels
                 for z in margins + [y, y + HUBER_DELTA, y - HUBER_DELTA]]
        z, y = np.array(pairs).T
        problem = Problem(dataset=Dataset(features=np.ones((z.size, 1)), labels=y), loss=loss)
        with np.errstate(all="ignore"):
            want = problem.margin_derivs(np.zeros(1), z)
            got = [problem.example_deriv(i, zi) for i, zi in enumerate(z.tolist())]
        assert all(type(g) is float for g in got)
        # float.hex tells -0.0 from 0.0 and spells every NaN "nan"
        for pair, g, w in zip(pairs, got, want.tolist()):
            assert g.hex() == w.hex(), (pair, g, w)
        if loss == "huber":
            assert {1.0, -1.0} <= set(got)
        assert np.isnan(want).any() and (want == 0.0).any()


def _raw_loss(loss: str, z, y):
    """Each loss at predictions z, written with the raw labels y."""
    if loss == "logistic":
        m = -y * z
        return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))
    if loss == "squared":
        return 0.5 * (z - y) ** 2
    if loss == "huber":
        r = z - y
        return np.where(np.abs(r) <= HUBER_DELTA, 0.5 * r * r,
                        HUBER_DELTA * (np.abs(r) - 0.5 * HUBER_DELTA))
    return np.maximum(0.0, 1.0 - y * z) ** 2


def _raw_deriv(loss: str, z, y):
    """phi' of each loss at predictions z, written with the raw labels y."""
    if loss == "logistic":
        return -y * expit(-y * z)
    if loss == "squared":
        return z - y
    if loss == "huber":
        return np.minimum(np.maximum(z - y, -HUBER_DELTA), HUBER_DELTA)
    return -2.0 * y * np.maximum(0.0, 1.0 - y * z)


class TestSignedLabels:
    """Each loss's label sign is applied once per problem: the signed
    labels are -y for the logistic loss and the dataset's labels themselves
    otherwise, and the oracles that read them give the bits of formulas
    written with the raw labels."""

    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_signed_once_and_raw_formulas_kept(self, loss):
        for layout in ("dense", "csr"):
            problem = make_problem(loss=loss, n=40, d=7,
                                   density=1.0 if layout == "dense" else 0.4, seed=12)
            y = problem.dataset.labels
            if loss == "logistic":
                assert same_bits(problem._signed_labels, -y)
            else:
                assert problem._signed_labels is y
            rng = np.random.default_rng(13)
            w = 2.0 * rng.standard_normal(problem.d)
            z = problem.margins(w)
            n, l2 = problem.n, problem.l2_reg
            want = float(np.add.reduce(_raw_loss(loss, z, y)) / n) + 0.5 * l2 * float(w.dot(w))
            assert problem.loss_value(w).hex() == want.hex(), layout
            coeffs = _raw_deriv(loss, z, y) / n
            rows = problem.dataset.dense_rows
            want = (problem.dataset.features.T @ coeffs if rows is None
                    else coeffs.dot(rows)) + l2 * w
            assert problem.grad_full(w).tobytes() == want.tobytes(), layout
            for i, (zi, yi) in enumerate(zip(z.tolist(), y.tolist())):
                got = problem.example_deriv(i, zi)
                assert got.hex() == float(_raw_deriv(loss, zi, yi)).hex(), (layout, i)


class TestGradients:
    def test_full_gradient_vanishing_residual_leaves_l2_term(self):
        problem = single_example_problem([1.0, 0.0], 1.0, loss="squared", l2=0.3)
        w = np.array([1.0, 0.0])
        np.testing.assert_allclose(problem.grad_full(w), 0.3 * w, atol=1e-15)

    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_full_gradient_is_mean_of_singletons(self, loss):
        problem = make_problem(loss=loss, seed=5)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(problem.d)
        singles = [problem.grad_batch(w, np.array([i])) for i in range(problem.n)]
        np.testing.assert_allclose(
            problem.grad_full(w), np.mean(singles, axis=0), atol=1e-12
        )

    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_finite_difference_agreement(self, loss):
        rng = np.random.default_rng(42)
        for trial in range(20):
            problem = make_problem(loss=loss, seed=trial, n=12, d=5)
            w = rng.standard_normal(problem.d)
            grad = problem.grad_full(w)
            approx = central_difference_gradient(problem, w)
            rel = np.linalg.norm(grad - approx) / max(np.linalg.norm(grad), 1e-12)
            assert rel < 1e-5

    def test_single_example_squared_batch_gradient(self):
        # d/dw (2w)^2 / 2 at w = 1 is 4
        problem = single_example_problem([2.0], 0.0, loss="squared")
        g = problem.grad_batch(np.array([1.0]), np.array([0]))
        np.testing.assert_allclose(g, [4.0])

    def test_huber_outside_quadratic_zone_clips_slope(self):
        a = np.array([1.5, -2.0])
        problem = single_example_problem(a, 0.0, loss="huber")
        w = np.array([1.2, -1.2])  # residual = 1.8 + 2.4 = 4.2 > HUBER_DELTA = 1
        g = problem.grad_batch(w, np.array([0]))
        np.testing.assert_allclose(g, HUBER_DELTA * a)
        assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(a))

    def test_batch_of_everything_equals_full(self):
        problem = make_problem(loss="huber", classification=False, seed=8)
        w = np.random.default_rng(0).standard_normal(problem.d)
        full = problem.grad_full(w)
        batch = problem.grad_batch(w, np.arange(problem.n))
        np.testing.assert_allclose(batch, full, atol=1e-12)

    def test_empty_batch_and_bad_index_raise(self):
        problem = make_problem()
        w = np.zeros(problem.d)
        with pytest.raises(ValueError):
            problem.grad_batch(w, np.array([], dtype=int))
        with pytest.raises(IndexError):
            problem.grad_batch(w, np.array([problem.n]))
        with pytest.raises(IndexError):
            problem.grad_batch(w, np.array([-1]))
        # one point only: a (k, d) stack is not one, whatever its form
        d = problem.d
        for wrong in (np.zeros(d + 1), np.zeros(d - 1), np.zeros((2, d)), np.zeros((1, d)),
                      np.zeros((d, 1)), [0.0] * (d + 1), [[0.0] * d], np.zeros((1, d), np.float32),
                      np.zeros(2 * d)[::2][:-1]):
            with pytest.raises(ValueError, match=rf"iterate has shape \({np.shape(wrong)[0]},"):
                problem.grad_batch(wrong, np.array([0]))
        # a float is not truncated to row 0, nor a mask read as rows 1, 0, 1
        with pytest.raises(ValueError, match="integers"):
            problem.grad_batch(w, np.array([0.9]))
        with pytest.raises(ValueError, match="integers"):
            problem.grad_batch(w, np.array([True, False, True]))
        # the range is one unsigned reduction, checked before any row is read:
        # numpy's own IndexError would not match the message
        for layout in ("sparse", "dense"):
            problem = _random_rows_problem("logistic", layout, seed=3)
            n, d = problem.n, problem.d
            assert (problem.dataset.dense_rows is None) == (layout == "sparse")
            message = rf"batch index out of range \[0, {n}\)"
            lowest = np.iinfo(np.intp).min
            bad = [np.array([i]) for i in (lowest, -1, n)]
            bad += [np.array([3, i, 0]) for i in (lowest, -1, n)]
            bad += [np.array([np.uint64(2**64 - 1)]),
                    np.array([0, 2**64 - 1, 1], dtype=np.uint64)]
            for batch in bad:
                with pytest.raises(IndexError, match=message):
                    problem.grad_batch(np.zeros(d), batch)
            for batch in (np.array([0]), np.array([n - 1, 0]), np.array([n - 1], np.uint64)):
                assert problem.grad_batch(np.zeros(d), batch).shape == (d,)

    @pytest.mark.parametrize("layout", ["sparse", "dense"])
    def test_anchor_derivs_of_wrong_shape_raise(self, layout):
        # checked as margins= is: a length-1 array would otherwise broadcast
        # against the batch's phi' on dense rows and be read at row 0 on CSR
        problem = _random_rows_problem("logistic", layout, seed=3)
        assert (problem.dataset.dense_rows is None) == (layout == "sparse")
        w = np.random.default_rng(5).standard_normal(problem.d)
        derivs = problem.margin_derivs(w)
        for wrong in (derivs[:1], derivs[:-1], np.stack((derivs, derivs)), derivs[0]):
            for batch in (np.array([0]), np.array([0, 4, 9])):
                with pytest.raises(ValueError, match="anchor_derivs have shape"):
                    problem.grad_batch(w, batch, wrong)


def _scipy_grad_batch(problem: Problem, w: np.ndarray, batch: np.ndarray,
                      anchor: np.ndarray | None = None) -> np.ndarray:
    """Reference batch oracle: scipy's CSR row slice and sparse products,
    A_B^T (phi'(A_B w) - phi'(A_B anchor)) / b + l2 w with an anchor."""
    rows, labels = problem.dataset.features[batch], problem._signed_labels[batch]
    coeffs = problem._loss_derivs(rows @ w, labels)
    if anchor is not None:
        coeffs = coeffs - problem._loss_derivs(rows @ anchor, labels)
    return np.asarray(rows.T @ (coeffs / batch.size) + problem.l2_reg * w)


def _csr_kernel(problem: Problem, w: np.ndarray, batch: np.ndarray,
                anchor_derivs: np.ndarray | None = None) -> np.ndarray:
    """``grad_batch`` as it is formed on CSR rows, on either layout."""
    return problem._csr_grad_batch(w, batch, anchor_derivs)


def _random_rows_problem(loss: str, layout: str, seed: int) -> Problem:
    """70 x 9 rows, dense or CSR with 0 to 9 stored entries per row (every
    fifth row empty, some explicit zeros), values over six decades, l2 > 0."""
    rng = np.random.default_rng(seed)
    n, d = 70, 9
    if layout == "dense":
        features = sp.csr_matrix(rng.standard_normal((n, d)))
    else:
        lengths = rng.integers(0, d + 1, size=n)
        lengths[::5] = 0
        indices = np.concatenate(
            [np.sort(rng.choice(d, size=k, replace=False)) for k in lengths])
        data = rng.standard_normal(indices.size) * 10.0 ** rng.integers(-3, 4, indices.size)
        data[::11] = 0.0
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        features = sp.csr_matrix((data, indices, indptr), shape=(n, d))
    if loss in ("logistic", "squared_hinge"):
        labels = rng.choice([-1.0, 1.0], size=n)
    else:
        labels = 3.0 * rng.standard_normal(n)
    return Problem(dataset=Dataset(features=features, labels=labels), loss=loss, l2_reg=0.37)


def _batches(n: int, b: int, trials: int, rng: np.random.Generator):
    """``trials`` batches of size b; odd trials draw with replacement, so
    indices repeat."""
    for trial in range(trials):
        yield (rng.integers(n, size=b) if trial % 2 else rng.choice(n, size=b, replace=False))


class TestBatchOracleMatchesScipy:
    """The CSR-array oracle reproduces scipy's products bit for bit, which
    the golden traces of sparse rows rely on.  It is ``grad_batch`` itself on
    sparse rows; on dense rows ``grad_batch`` takes BLAS products
    (:class:`TestDenseRowOracle`), and the CSR oracle stays their exact
    reference."""

    @pytest.mark.parametrize("size", [1, 2, 7, 64, "n"])
    @pytest.mark.parametrize("layout", ["sparse", "dense"])
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_bitwise_equal_to_scipy(self, loss, layout, size):
        problem = _random_rows_problem(loss, layout, seed=ALL_LOSSES.index(loss))
        assert (problem.dataset.dense_rows is None) == (layout == "sparse")
        feats = problem.dataset.features
        rng = np.random.default_rng(7)
        b = problem.n if size == "n" else size
        # on sparse rows at b = 1 also an empty row, and a row whose products
        # are signed zeros of both signs (w = -0.0 on its columns), plain and
        # anchored
        empty = np.flatnonzero(np.diff(feats.indptr) == 0)[:1]
        zeroed = next(np.array([i]) for i in range(problem.n)
                      if 0 < np.signbit(feats[i].data).sum() < feats[i].nnz)
        extra = [empty, zeroed] if layout == "sparse" and b == 1 else []
        for trial, batch in enumerate(itertools.chain(_batches(problem.n, b, 20, rng), extra)):
            w = rng.standard_normal(problem.d) * 10.0 ** rng.integers(-2, 3)
            if trial == 21:
                w[feats[zeroed].indices] = -0.0
            got = problem.grad_batch(w, batch) if layout == "sparse" else _csr_kernel(
                problem, w, batch)
            assert got.shape == (problem.d,)
            assert same_bits(got, _scipy_grad_batch(problem, w, batch)), (trial, batch)
            if trial >= 20:
                a = rng.standard_normal(problem.d)
                got = problem.grad_batch(w, batch, problem.margin_derivs(a))
                assert same_bits(got, _scipy_grad_batch(problem, w, batch, a)), (trial, batch)
            if layout == "sparse" and b > 1:
                # the kernel indexes with intp columns, the batch's distinct ones
                cols = problem._batch_entries(batch)[2]
                assert cols.dtype == np.intp
                assert np.array_equal(cols, np.unique(feats[batch].indices))

    @pytest.mark.parametrize("l2", [0.0, 0.37])
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_signed_zeros_match_scipy(self, loss, l2):
        # l2 w is -0.0 where w is -0.0, and where w < 0 when l2 = 0; scipy
        # adds it to a data part that starts at 0.0, which gives +0.0
        base = _random_rows_problem(loss, "sparse", seed=13)
        features = base.dataset.features.copy()
        features.data[::7] = -0.0
        problem = Problem(dataset=Dataset(features=features, labels=base.dataset.labels),
                          loss=loss, l2_reg=l2)
        assert problem.dataset.dense_rows is None
        rng = np.random.default_rng(14)
        for b in (1, 2, 7, problem.n):
            for batch in _batches(problem.n, b, 6, rng):
                points = rng.standard_normal((3, problem.d))
                points[0, ::2] = -0.0
                points[1] = -np.abs(points[1])
                points[2] = -0.0
                assert np.signbit(l2 * points).any()
                for point in points:
                    want = _scipy_grad_batch(problem, point, batch)
                    assert same_bits(problem.grad_batch(point, batch), want), (b, batch)
                    # anchored at another of the points, signed zeros and all
                    anchor = points[(b + 1) % 3]
                    want = _scipy_grad_batch(problem, point, batch, anchor)
                    got = problem.grad_batch(point, batch, problem.margin_derivs(anchor))
                    assert same_bits(got, want), (b, batch)

    @pytest.mark.parametrize("layout", ["sparse", "dense"])
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_anchored_equals_scipy(self, loss, layout):
        # phi' cached from the full product A a is phi' of the batch's own
        # margins bit for bit: both are csr_matvec, row by row
        problem = _random_rows_problem(loss, layout, seed=11)
        rng = np.random.default_rng(12)
        for b in (1, 2, 7, problem.n):
            for batch in _batches(problem.n, b, 6, rng):
                x, a = rng.standard_normal((2, problem.d)) * 10.0 ** rng.integers(-2, 3, (2, 1))
                want = _scipy_grad_batch(problem, x, batch, a)
                if layout == "sparse":
                    got = problem.grad_batch(x, batch, problem.margin_derivs(a))
                else:
                    got = _csr_kernel(problem, x, batch, problem._loss_derivs(
                        problem.dataset.features @ a, problem._signed_labels))
                assert same_bits(got, want), (b, batch)


def _rounding_bound(problem: Problem, w: np.ndarray, batch: np.ndarray,
                    anchor: np.ndarray | None = None) -> np.ndarray:
    """Per-coordinate bound on how far two evaluations of one batch gradient
    in different summation orders can differ: (d + b + 8) eps times the
    magnitudes that enter the coordinate.  Each prediction sums d terms and
    each coordinate b terms, within gamma_d and gamma_b of the exact sum in
    any order (Higham, Accuracy and Stability, ch. 3); an error in z moves
    phi' by at most the loss's curvature times it; phi', the division by b
    and the l2 term add a few roundings.  With an anchor, the same holds for
    phi' at the anchor's margins, and its magnitudes enter too."""
    rows = abs(problem.dataset.features[batch].toarray())
    b = batch.size
    labels = problem._signed_labels[batch]
    coeffs = np.zeros(b)
    for point in (w,) if anchor is None else (w, anchor):
        z = problem.dataset.features[batch] @ point
        coeffs += abs(problem._loss_derivs(z, labels)) / b
        coeffs += CURVATURE[problem.loss] * (rows @ abs(point)) / b
    scale = rows.T @ coeffs + problem.l2_reg * abs(w)
    return (problem.d + b + 8) * np.finfo(np.float64).eps * scale


class TestDenseRowOracle:
    """On dense rows ``grad_batch``, ``grad_full`` and ``loss_value`` use BLAS
    products, whose summation order is not scipy's.  They must agree with
    the exact CSR reference within :func:`_rounding_bound`."""

    @pytest.mark.parametrize("size", [1, 2, 7, 64, "n"])
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_within_rounding_bound_of_scipy(self, loss, size):
        # every other trial anchored at phi' of the full BLAS product
        problem = _random_rows_problem(loss, "dense", seed=ALL_LOSSES.index(loss))
        assert problem.dataset.dense_rows is not None
        rng = np.random.default_rng(8)
        b = problem.n if size == "n" else size
        for trial, batch in enumerate(_batches(problem.n, b, 30, rng)):
            x, a = rng.standard_normal((2, problem.d)) * 10.0 ** rng.integers(-2, 3, (2, 1))
            anchor = None if trial % 2 else a
            derivs = None if anchor is None else problem.margin_derivs(anchor)
            got = problem.grad_batch(x, batch, derivs)
            assert got.shape == (problem.d,)
            want = _scipy_grad_batch(problem, x, batch, anchor)
            excess = abs(got - want) - _rounding_bound(problem, x, batch, anchor)
            assert excess.max() <= 0.0, (trial, batch, excess)

    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_full_oracles_within_rounding_bound(self, loss):
        problem = _random_rows_problem(loss, "dense", seed=ALL_LOSSES.index(loss))
        feats, labels = problem.dataset.features, problem._signed_labels
        everything = np.arange(problem.n)
        rng = np.random.default_rng(9)
        for _ in range(20):
            w = rng.standard_normal(problem.d) * 10.0 ** rng.integers(-2, 3)
            bound = _rounding_bound(problem, w, everything)
            assert np.all(abs(problem.grad_full(w) - _scipy_grad_batch(problem, w, everything))
                          <= bound)
            want = problem._loss_values(feats @ w, labels).mean() + 0.5 * problem.l2_reg * (w @ w)
            assert problem.loss_value(w) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("layout", ["sparse", "dense"])
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_at_anchor_gives_grad_full(self, loss, layout):
        # the first direction of an inner loop, at x = w_k, is grad_full(w_k):
        # bit for bit on CSR rows; on dense rows a batch's BLAS margins need
        # not match the full product's bits, so within the rounding bound
        problem = _random_rows_problem(loss, layout, seed=13)
        rng = np.random.default_rng(14)
        eps = np.finfo(np.float64).eps
        for b in (1, 2, 7, 64, problem.n):
            for batch in _batches(problem.n, b, 6, rng):
                a = rng.standard_normal(problem.d) * 10.0 ** rng.integers(-2, 3)
                base = problem.grad_full(a)
                g = problem.grad_batch(a, batch, problem.margin_derivs(a))
                g -= problem.l2_reg * a
                g += base
                if layout == "sparse":
                    assert same_bits(g, base), (b, batch)
                else:
                    # plus the roundings of subtracting l2 a and adding base
                    bound = _rounding_bound(problem, a, batch, a) + 2 * eps * abs(base)
                    assert np.all(abs(g - base) <= bound), (b, batch)


class TestDenseRowSelection:
    def test_fully_stored_rows_are_a_view_of_the_data(self):
        dense = np.random.default_rng(0).standard_normal((50, 7))
        dataset = Dataset(features=dense, labels=np.ones(50))
        rows = dataset.dense_rows
        assert np.shares_memory(rows, dataset.features.data)
        np.testing.assert_array_equal(rows, dense)

    def test_nearly_full_rows_are_a_dense_copy(self):
        # the bundled sets: 99.99% of the entries stored
        dense = np.random.default_rng(1).standard_normal((2000, 40))
        dense[[3, 1500], [0, 17]] = 0.0
        dataset = Dataset(features=dense, labels=np.ones(2000))
        assert dataset.features.nnz == 2000 * 40 - 2
        np.testing.assert_array_equal(dataset.dense_rows, dataset.features.toarray())
        assert not np.shares_memory(dataset.dense_rows, dataset.features.data)

    def test_sparse_rows_keep_the_csr_oracle(self):
        # the sparse_b1 shape: 1500 x 12000 with 100 entries per row
        rng = np.random.default_rng(2)
        n, d, per_row = 1500, 12000, 100
        indices = np.sort(rng.integers(0, d // per_row, (n, per_row))
                          + np.arange(0, d, d // per_row), axis=1).ravel()
        features = sp.csr_matrix((rng.standard_normal(n * per_row), indices,
                                  np.arange(0, n * per_row + 1, per_row)), shape=(n, d))
        assert Dataset(features=features, labels=np.ones(n)).dense_rows is None

    def test_threshold_is_the_memory_of_data_and_indices(self):
        # 3 x 3 float64 with int32 indices: 72 dense bytes against 12 per entry
        for stored, dense in ((6, True), (5, False)):
            values = np.zeros(9)
            values[:stored] = 1.0
            dataset = Dataset(features=values.reshape(3, 3), labels=np.ones(3))
            assert dataset.features.indices.dtype == np.int32
            assert (dataset.dense_rows is not None) == dense, stored


class TestSmoothnessBound:
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_bound_dominates_observed_curvature(self, loss):
        # per-example gradients are Lipschitz with constant
        # curvature * max_i ||a_i||^2 + l2
        problem = make_problem(loss=loss, seed=2, n=16, d=4)
        feats = problem.dataset.features
        max_row_sq = float(feats.multiply(feats).sum(axis=1).max())
        bound = CURVATURE[loss] * max_row_sq + problem.l2_reg
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.standard_normal(problem.d)
            v = rng.standard_normal(problem.d)
            i = int(rng.integers(problem.n))
            gu = problem.grad_batch(u, np.array([i]))
            gv = problem.grad_batch(v, np.array([i]))
            lhs = np.linalg.norm(gu - gv)
            assert lhs <= bound * np.linalg.norm(u - v) * (1 + 1e-9)


class TestConvexity:
    @settings(max_examples=60, deadline=None)
    @given(
        t=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=50),
        loss=st.sampled_from(ALL_LOSSES),
    )
    def test_objective_is_convex_along_segments(self, t, seed, loss):
        problem = make_problem(loss=loss, seed=7, n=10, d=4)
        rng = np.random.default_rng(seed)
        w1 = rng.standard_normal(problem.d) * 3
        w2 = rng.standard_normal(problem.d) * 3
        lhs = problem.loss_value(t * w1 + (1 - t) * w2)
        rhs = t * problem.loss_value(w1) + (1 - t) * problem.loss_value(w2)
        assert lhs <= rhs + 1e-10


class TestCounters:
    def test_charges(self):
        problem = make_problem()
        counters = GradOracleCounters()
        w = np.zeros(problem.d)
        problem.grad_full(w, counters)
        counters.charge_batch(3)
        assert counters.full_grad_evals == 1
        assert counters.per_example_grad_evals == 3
        assert counters.effective_passes(problem.n) == pytest.approx(
            1.0 + 3.0 / problem.n
        )

    def test_monotone_over_random_operation_sequences(self):
        problem = make_problem(seed=11)
        counters = GradOracleCounters()
        rng = np.random.default_rng(0)
        w = np.zeros(problem.d)
        previous = (0, 0)
        for _ in range(60):
            if rng.random() < 0.3:
                problem.grad_full(w, counters)
            else:
                counters.charge_batch(int(rng.integers(1, problem.n)))
            current = (counters.per_example_grad_evals, counters.full_grad_evals)
            assert current >= previous
            previous = current

    def test_monitoring_is_free(self):
        problem = make_problem()
        counters = GradOracleCounters()
        problem.loss_value(np.zeros(problem.d))
        problem.grad_full(np.zeros(problem.d))  # no counters passed
        assert counters.per_example_grad_evals == 0
        assert counters.full_grad_evals == 0


class TestRowConstants:
    """The per-row constants the b = 1 steps read from the dataset: the
    CSR's columns as one intp array, sliced by ``csr_row``, and each row's
    ||a_i||^2, the bits of its ``vals.dot(vals)``."""

    @staticmethod
    def _problem() -> Problem:
        # rows of 0 to 400 entries, values over twelve decades: long rows
        # sum in BLAS's order, which a pairwise or sequential sum misses
        rng = np.random.default_rng(41)
        d = 400
        lengths = np.array([0, 1, 7, 0, 100, 333, 400, 2, 0, 64])
        indices = np.concatenate([np.sort(rng.choice(d, size=k, replace=False))
                                  for k in lengths])
        data = rng.standard_normal(indices.size) * 10.0 ** rng.integers(-6, 7, indices.size)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        features = sp.csr_matrix((data, indices, indptr), shape=(lengths.size, d))
        return Problem(dataset=Dataset(features=features, labels=np.ones(lengths.size)))

    def test_csr_row_slices_one_intp_array(self):
        problem = self._problem()
        feats, columns = problem.dataset.features, problem.dataset.columns
        assert problem.dataset.columns is columns and columns.dtype == np.intp
        assert not columns.flags.writeable
        for i in range(problem.n):
            lo, hi = feats.indptr[i], feats.indptr[i + 1]
            cols, again = problem.csr_row(i)[0], problem.csr_row(i)[0]
            assert cols.dtype == np.intp and np.array_equal(cols, feats.indices[lo:hi])
            if hi > lo:
                assert np.shares_memory(cols, again) and np.shares_memory(cols, columns)

    def test_row_sq_norms_are_each_rows_dot(self):
        problem = self._problem()
        norms = problem.dataset.row_sq_norms
        assert norms.shape == (problem.n,) and norms.dtype == np.float64
        for i in range(problem.n):
            vals = problem.csr_row(i)[1]
            assert norms[i].hex() == float(vals.dot(vals)).hex(), i
        empty = np.diff(problem.dataset.features.indptr) == 0
        assert empty.sum() == 3 and same_bits(norms[empty], np.zeros(3))


def _dense_inputs():
    rng = np.random.default_rng(12)
    sparse_rows = rng.standard_normal((50, 30)) * (rng.random((50, 30)) < 0.3)
    sparse_rows[[4, 9]] = 0.0
    signed_zero = np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 0.0], [2.0, 0.0, -3.0]])
    return {
        "gaussian": rng.standard_normal((200, 16)),
        "empty-rows": sparse_rows,
        "signed-zero": signed_zero,
        "all-zero": np.zeros((3, 4)),
        "one-entry": np.ones((1, 1)),
        "float32": rng.standard_normal((5, 3)).astype(np.float32),
        "int": rng.integers(-2, 3, size=(7, 5)),
        "fortran": np.asfortranarray(rng.standard_normal((6, 4))),
    }


class TestDenseInput:
    @pytest.mark.parametrize("name", sorted(_dense_inputs()))
    def test_same_csr_as_scipy(self, name):
        dense = _dense_inputs()[name]
        got = Dataset(features=dense, labels=np.ones(dense.shape[0])).features
        # values are stored as float64 whatever the input's dtype
        want = sp.csr_matrix(dense.astype(np.float64))
        assert got.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype, attr
            np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_classification_labels_enforced(self):
        dense = np.eye(3)
        dataset = Dataset(features=sp.csr_matrix(dense), labels=np.array([0.5, 1.0, -1.0]))
        with pytest.raises(ValueError):
            Problem(dataset=dataset, loss="logistic")
        # regression losses accept arbitrary reals
        Problem(dataset=dataset, loss="squared")
        Problem(dataset=dataset, loss="huber")

    def test_bad_parameters(self):
        dataset = Dataset(features=sp.csr_matrix(np.eye(2)), labels=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            Problem(dataset=dataset, loss="hinge")
        with pytest.raises(ValueError):
            Problem(dataset=dataset, loss="squared", l2_reg=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("l2_reg", np.nan), ("l2_reg", np.inf),
        ("huber_delta", np.nan), ("huber_delta", np.inf),
    ])
    def test_non_finite_parameters_rejected(self, field, value):
        # nan slipped past the old `< 0` / `<= 0` comparisons; the Huber delta
        # is the constant HUBER_DELTA, so any huber_delta keyword is rejected
        dataset = Dataset(features=sp.csr_matrix(np.eye(2)), labels=np.array([1.0, -1.0]))
        error = TypeError if field == "huber_delta" else ValueError
        with pytest.raises(error, match=field):
            Problem(dataset=dataset, loss="huber", **{field: value})

    def test_repeated_column_rejected_like_the_parser(self):
        # LIBSVM cannot store a column twice in a row, so save -> load would fail
        features = sp.csr_matrix(([1.0, 2.0, 3.0], [0, 0, 1], [0, 2, 3]))
        message = "non-increasing feature index 1 after 1"
        with pytest.raises(ValueError, match=f"row 0: {message}"):
            Dataset(features=features, labels=np.ones(1))
        with pytest.raises(ValueError, match=f"line 1: {message}"):
            parse_libsvm("+1 1:1.0 1:2.0 2:3.0\n")
        # an unsorted row is sorted first, then its repeat found
        unsorted = sp.csr_matrix(([1.0, 2.0, 3.0, 4.0], [0, 2, 1, 2], [0, 1, 4]), shape=(2, 3))
        with pytest.raises(ValueError, match="row 1: non-increasing feature index 3 after 3"):
            Dataset(features=unsorted, labels=np.ones(2))
        # the same column ending one row and starting the next is no repeat
        across = sp.csr_matrix(([1.0, 2.0, 3.0], [0, 1, 1], [0, 2, 3]), shape=(2, 2))
        dataset = Dataset(features=across, labels=np.ones(2))
        assert datasets_equal(parse_libsvm(serialize_libsvm(dataset)), dataset)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(features=sp.csr_matrix(np.eye(3)), labels=np.array([1.0, -1.0]))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            Dataset(features=sp.csr_matrix((0, 4)), labels=np.array([]))

    @pytest.mark.parametrize("features", [sp.csr_matrix((3, 0)), np.empty((3, 0))],
                             ids=["csr", "dense"])
    def test_dataset_without_features_rejected(self, features):
        # d = 0 leaves a constant objective, and the heuristic's probe a zero norm
        with pytest.raises(ValueError, match="dataset has no features"):
            Dataset(features=features, labels=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="dataset has no features"):
            parse_libsvm("+1\n-1\n+1\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        features = np.eye(2)
        features[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=sp.csr_matrix(features), labels=np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(features=sp.csr_matrix(np.eye(2)), labels=np.array([1.0, bad]))


class TestOnePointShape:
    """Every oracle takes one point of shape (d,); a (1, d) row, a (d, 1)
    column or a (2, d/2) block holds d numbers but is not one point."""

    ORACLES = {
        "margins": lambda p, w: p.margins(w),
        "loss_value": lambda p, w: p.loss_value(w),
        "grad_full": lambda p, w: p.grad_full(w),
        "margin_derivs": lambda p, w: p.margin_derivs(w),
        "grad_batch": lambda p, w: p.grad_batch(w, np.array([0, 2])),
    }

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_only_shape_d_is_one_point(self, oracle, layout):
        problem = make_problem(d=4, density=1.0 if layout == "dense" else 0.5, seed=2)
        assert (problem.dataset.dense_rows is not None) == (layout == "dense")
        call = self.ORACLES[oracle]
        w = np.random.default_rng(1).standard_normal(4)
        call(problem, w)
        wide = np.random.default_rng(2).standard_normal((3, 4))
        for wrong in (w.reshape(1, 4), w.reshape(4, 1), w.reshape(2, 2), wide,
                      w.reshape(1, 4).astype(np.float32), w.reshape(1, 4).tolist(),
                      w.reshape(4, 1).view(Subclass), w[:3], np.append(w, 0.0), w[::2],
                      np.zeros(5, dtype=np.int64)):
            shape = ", ".join(map(str, np.shape(wrong))) + ("," if np.ndim(wrong) == 1 else "")
            with pytest.raises(ValueError, match=rf"iterate has shape \({shape}\), "
                                                 r"expected one point of dimension 4$"):
                call(problem, wrong)


def _canonical(indices) -> np.ndarray:
    return np.array(indices, dtype=np.intp)



class TestCanonicalInputs:
    """``grad_batch`` uses a 1-D C-contiguous intp batch as given; any other
    batch is converted as before, to the same bits and the same errors."""

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("indices", [[5], [0, 3, 3, 17, 69], list(range(0, 70, 3))])
    def test_other_batch_forms_give_the_canonical_bits(self, layout, indices):
        problem = _random_rows_problem("logistic", layout, seed=6)
        assert (problem.dataset.dense_rows is None) == (layout == "sparse")
        rng = np.random.default_rng(9)
        w = rng.standard_normal(problem.d)
        derivs = problem.margin_derivs(rng.standard_normal(problem.d))
        batch = _canonical(indices)
        strided = np.repeat(batch, 2)[::2]
        assert batch.size == 1 or not strided.flags.c_contiguous  # one element is contiguous
        forms = {"list": list(indices), "int32": batch.astype(np.int32),
                 "uint64": batch.astype(np.uint64), "row": batch.reshape(1, -1),
                 "strided": strided}
        for anchor in (None, derivs):
            want = problem.grad_batch(w, batch, anchor)
            for name, form in forms.items():
                assert problem.grad_batch(w, form, anchor).tobytes() == want.tobytes(), name

    POINT_CALLS = {
        "margins": lambda p, w, aux: p.margins(w),
        "loss_value": lambda p, w, aux: np.float64(p.loss_value(w)),
        "grad_full": lambda p, w, aux: p.grad_full(w),
        "margin_derivs": lambda p, w, aux: p.margin_derivs(w),
        "grad_batch": lambda p, w, aux: p.grad_batch(w, aux["batch"]),
        "grad_batch_anchored": lambda p, w, aux: p.grad_batch(w, aux["batch"], aux["derivs"]),
    }

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("call", POINT_CALLS)
    def test_other_point_forms_give_the_canonical_bits(self, call, layout):
        # d = 40, where a strided BLAS dot adds in another order than a
        # contiguous one; every form is converted to the canonical array
        problem = make_problem(n=70, d=40, density=1.0 if layout == "dense" else 0.3, seed=5)
        assert (problem.dataset.dense_rows is None) == (layout == "sparse")
        rng = np.random.default_rng(10)
        aux = {"batch": _canonical([0, 3, 17, 64]),
               "derivs": problem.margin_derivs(rng.standard_normal(problem.d))}
        w = (3 * rng.standard_normal(problem.d)).astype(np.float32).astype(np.float64)
        forms = input_forms(w)
        for name, form in forms.items():
            canonical = np.ascontiguousarray(np.asarray(form, dtype=np.float64))
            assert canonical.shape == (problem.d,)
            want = self.POINT_CALLS[call](problem, canonical, aux)
            got = self.POINT_CALLS[call](problem, form, aux)
            assert type(got) is type(want) and got.tobytes() == want.tobytes(), name
        assert not forms["strided"].flags.c_contiguous

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("loss", ALL_LOSSES)
    def test_other_per_example_forms_give_the_canonical_bits(self, loss, layout):
        # margins= of loss_value, grad_full and margin_derivs, and
        # anchor_derivs of grad_batch, at b = 1 and b > 1
        problem = make_problem(loss=loss, n=70, d=40,
                               density=1.0 if layout == "dense" else 0.3, seed=6)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(problem.d)
        calls = {
            "loss_value": lambda v: np.float64(problem.loss_value(w, margins=v)),
            "grad_full": lambda v: problem.grad_full(w, margins=v),
            "margin_derivs": lambda v: problem.margin_derivs(w, v),
            "grad_batch_b1": lambda v: problem.grad_batch(w, _canonical([7]), v),
            "grad_batch": lambda v: problem.grad_batch(w, _canonical([2, 7, 30, 69]), v),
        }
        values = (4 * rng.standard_normal(problem.n)).astype(np.float32).astype(np.float64)
        for name, form in input_forms(values).items():
            canonical = np.asarray(form, dtype=np.float64)
            for call, oracle in calls.items():
                want, got = oracle(canonical), oracle(form)
                assert type(got) is type(want) and got.tobytes() == want.tobytes(), (name, call)

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_bad_batches_keep_their_errors(self, layout):
        problem = _random_rows_problem("logistic", layout, seed=6)
        n, w = problem.n, np.zeros(problem.d)
        out_of_range = rf"batch index out of range \[0, {n}\)"
        cases = [
            (_canonical([-1]), IndexError, out_of_range),
            (_canonical([2, -5, 1]), IndexError, out_of_range),
            (_canonical([n]), IndexError, out_of_range),
            ([0, n], IndexError, out_of_range),
            (np.array([0.0, 1.0]), ValueError, "batch indices must be integers, got dtype float64"),
            ([0.5], ValueError, "batch indices must be integers, got dtype float64"),
            (_canonical([]), ValueError, "empty batch"),
            (np.zeros((1, 0), dtype=np.int32), ValueError, "empty batch"),
            ([], ValueError, "batch indices must be integers, got dtype float64"),
        ]
        for batch, error, message in cases:
            with pytest.raises(error, match=message):
                problem.grad_batch(w, batch)


class TestDotKeepsMatmulBits:
    """The dense oracles multiply through ``ndarray.dot``, which dispatches
    faster than ``@``; on the operands they pass, fresh C-contiguous arrays
    and rows gathered by ``take``, both give the same bits."""

    @pytest.mark.parametrize("d", [1, 30, 40, 160])
    @pytest.mark.parametrize("n", [64, 2000])
    def test_dot_gives_the_bits_of_matmul(self, n, d):
        rng = np.random.default_rng(n + d)
        features = rng.standard_normal((n, d))
        w = rng.standard_normal(d)
        for b in sorted({1, 2, 7, 64, n}):
            batch = np.sort(rng.choice(n, size=b, replace=False))
            rows = features.take(batch, axis=0)
            coeffs = rng.standard_normal(b)
            assert rows.dot(w).tobytes() == (rows @ w).tobytes(), b
            assert coeffs.dot(rows).tobytes() == (coeffs @ rows).tobytes(), b
        coeffs = rng.standard_normal(n)
        assert features.dot(w).tobytes() == (features @ w).tobytes()
        assert coeffs.dot(features).tobytes() == (coeffs @ features).tobytes()
        assert w.dot(w) == w @ w

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1500, 2001])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_oracles_keep_the_bits_of_the_matmul_and_mean_forms(self, n, layout):
        problem = make_problem(n=n, d=5, density=1.0 if layout == "dense" else 0.4, seed=n)
        assert (problem.dataset.dense_rows is not None) == (layout == "dense")
        rng = np.random.default_rng(3)
        w = rng.standard_normal(problem.d)
        labels, l2 = problem._signed_labels, problem.l2_reg
        a = problem.dataset.features if layout == "csr" else problem.dataset.dense_rows
        z = a @ w
        assert problem.margins(w).tobytes() == z.tobytes()
        want = float(problem._loss_values(z, labels).mean()) + 0.5 * l2 * float(w @ w)
        assert problem.loss_value(w) == want
        if layout == "dense":
            coeffs = problem._loss_derivs(z, labels) / n
            assert problem.grad_full(w).tobytes() == (coeffs @ a + l2 * w).tobytes()
            batch = np.sort(rng.choice(n, size=min(n, 7), replace=False))
            rows = a[batch]
            coeffs = problem._loss_derivs(rows @ w, labels[batch]) / batch.size
            want = coeffs @ rows
            want += l2 * w
            assert problem.grad_batch(w, batch).tobytes() == want.tobytes()
