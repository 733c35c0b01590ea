"""Finite-sum convex objectives over sparse data.

The objective is the mean of per-example losses on linear predictions plus
an L2 penalty:

    f(w) = (1/n) * sum_i loss(<a_i, w>, y_i) + (l2_reg / 2) * ||w||^2

Work is reported in effective passes over the data through a per-run
:class:`GradOracleCounters`.  Of the oracles only :meth:`Problem.grad_full`,
given the counters, charges it; the optimizer loop charges each batch step.

:meth:`Problem.margins` is the n-vector of predictions A w, the one n x d
product behind :meth:`Problem.loss_value`, :meth:`Problem.grad_full` and
:meth:`Problem.margin_derivs`.  Each takes it as ``margins=``, so a caller
that needs two of them at one point forms the product once; the results
are bit for bit those of the calls without it.  The problem keeps no
cache: it stays immutable.

The logistic loss log(1 + exp(m)), m = -y z, is evaluated as
max(m, 0) + log1p(exp(-|m|)), which neither overflows nor raises an
invalid-value warning at any finite margin.  It is within 4 eps relative of
``np.logaddexp(0, m)``, plus one subnormal unit (2^-1074) where exp(-|m|)
underflows, and equal to it at m = +-inf; ``tests/test_problems.py``
checks this bound.

The mini-batch oracle :meth:`Problem.grad_batch` takes one point x and,
given phi' cached at an anchor a (:meth:`Problem.margin_derivs`), forms
the anchored difference A_B^T (phi'(A_B x) - phi'(A a)_B) / b + l2 x in
one call.  It has two paths, chosen by :attr:`Dataset.dense_rows`:

* Dense rows (a dense copy costs no more memory than the CSR's ``data`` and
  ``indices``): the batch's rows are one n x d row slice, and the two
  products are a BLAS matrix-vector and vector-matrix product.
  :meth:`Problem.grad_full` and :meth:`Problem.loss_value` use the same
  matrix.  BLAS adds in its own order, so results differ from the CSR path
  in the last bits and depend on the BLAS build.  ``tests/test_problems.py``
  holds each gradient coordinate within (d + b + 8) eps times the
  magnitudes that enter it (a first-order rounding bound) of the CSR
  result, and the objective within a relative 1e-12.  A batch's margins
  need not match the full product's bits, so at x = a the anchored
  difference is l2 a within that bound, not exactly.
* CSR rows: one private kernel, ``Problem._csr_grad_batch``, reads the
  batch's rows straight from the CSR arrays ``indptr/indices/data`` and
  keeps scipy's order bit for bit: each prediction is 0.0 + a_0 w_0 +
  a_1 w_1 + ... over a row's stored entries in order (``csr_matvec``), and
  each gradient coordinate is 0.0 plus the row terms in batch draw order
  (``csc_matvec`` on the transposed rows).  ``np.bincount`` adds in exactly
  that order.  ``np.sum``, ``np.add.reduce`` and ``@`` add pairwise, in an
  order that depends on the array layout, and would change the last bits.
  The gradient is l2 w + 0.0 as scipy gives it, plus the data part on the
  batch's distinct columns only.  The full product is ``csr_matvec`` too,
  so phi' cached at a is phi' of a's batch margins bit for bit, and at
  x = a the anchored difference is l2 a + 0.0 exactly.  This path is the
  exact reference for the dense one.

Each loss's label sign is applied once per problem.  The logistic loss
and its phi' read y only through -y, so :class:`Problem` keeps one private
label array, ``_signed_labels``: -y for the logistic loss (one extra
n-vector) and the dataset's ``labels`` themselves for the other losses,
which read y as it is.  :meth:`Problem._loss_values`,
:meth:`Problem._loss_derivs` and every oracle take their labels from it,
and the logistic phi', ys expit(ys z) with ys = -y, is formed in place in
the fresh array of ys z.  Each loss has one formula, for a batch's arrays
and for one example's floats alike.

Each oracle takes one point of shape (d,), and any other shape raises
``ValueError``.  A point that is already a 1-D C-contiguous float64 ndarray
of shape (d,), as the optimizers pass it, is used as given; any other is
converted with ``np.asarray`` and, when strided, copied, since a strided
BLAS dot adds in another order.  ``margins`` and ``anchor_derivs``, one
value per example, are used as given when they are an ndarray and
converted with ``np.asarray`` otherwise; either way only shape (n,) is
accepted.  :meth:`Problem.grad_batch` uses a 1-D C-contiguous intp batch,
the form the optimizers' sampler returns, as given, and converts any other
batch to it.  Every input gives the bits of its canonical form and keeps
its errors.  :attr:`Dataset.n` and :attr:`Dataset.d` are plain attributes,
so no oracle call reads scipy's ``shape``.  The dense products go through
``ndarray.dot``, which dispatches faster than ``@``; on the fresh
C-contiguous operands the oracles form, the two give the same bits
(``tests/test_problems.py`` checks this over the shapes the oracles see).

The kernel indexes with intp columns, while the CSR stores them as int32,
since numpy gathers and scatters through int32 index arrays about 4x
slower than through intp ones at 100 columns.  At b = 1 it reads one row
through :meth:`Problem.csr_row`, a view of one intp copy of the columns
that the dataset holds, :attr:`Dataset.columns`, and takes phi' of the
row's margin as a Python float, from :meth:`Problem.example_deriv`: the
one loss formula, :meth:`Problem._loss_derivs`, applied to one example's
floats rather than to a batch's arrays, with the same bits.  A
one-element array would pay numpy's fixed per-call cost on every
operation of the step.  The optimizers' just-in-time step, which runs at
b = 1 only, reads the row and its phi' the same way, and the row's
||a_i||^2 from :attr:`Dataset.row_sq_norms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

LOSS_NAMES = ("logistic", "squared", "huber", "squared_hinge")

# Losses whose labels must be -1/+1.  Squared and Huber act on the residual
# <a_i, w> - y_i and accept arbitrary real targets.
_CLASSIFICATION_LOSSES = ("logistic", "squared_hinge")

# The dtypes of a batch and of a point that the oracles use as given;
# numpy's builtin dtypes are singletons, so an identity test suffices.
_INTP = np.dtype(np.intp)
_FLOAT64 = np.dtype(np.float64)

# The Huber loss is quadratic for residuals of magnitude up to HUBER_DELTA
# and linear beyond.
HUBER_DELTA = 1.0


@dataclass
class GradOracleCounters:
    """Per-run tally of gradient-oracle work.

    One full-gradient evaluation counts as ``n`` per-example evaluations
    when converting to effective passes.
    """

    per_example_grad_evals: int = 0
    full_grad_evals: int = 0

    def charge_batch(self, size: int) -> None:
        self.per_example_grad_evals += int(size)

    def charge_full(self) -> None:
        self.full_grad_evals += 1

    def effective_passes(self, n: int) -> float:
        return (self.per_example_grad_evals + n * self.full_grad_evals) / n


def _dense_to_csr(dense: np.ndarray) -> sp.csr_matrix:
    """``sp.csr_matrix(dense)`` for a 2-D array, with the same arrays and
    dtypes, built from a boolean mask; scipy goes through COO with int64
    coordinates and takes about 9x as long on a 2000 x 160 array."""
    nonzero = dense != 0
    indptr = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    columns = np.broadcast_to(np.arange(dense.shape[1], dtype=np.int32), dense.shape)[nonzero]
    return sp.csr_matrix((dense[nonzero], columns, indptr), shape=dense.shape)


def _raise_repeated_column(feats: sp.csr_matrix) -> None:
    """Raise the LIBSVM parser's error for the first row of a CSR with
    sorted indices that stores one column twice."""
    repeat = np.flatnonzero(np.diff(feats.indices) == 0)
    # a repeat across a row boundary (last entry of one row equal to the
    # first of the next) is not one
    repeat = repeat[~np.isin(repeat + 1, feats.indptr)]
    row = int(np.searchsorted(feats.indptr, repeat[0], side="right")) - 1
    idx = int(feats.indices[repeat[0]]) + 1
    raise ValueError(f"row {row}: non-increasing feature index {idx} after {idx}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sparse feature rows plus one label per row.

    ``features`` is an n x d CSR matrix, or a dense 2-D array that is
    converted to one; values are stored as float64, column indices are
    sorted, a row must not repeat a column (LIBSVM cannot store it), and
    features and labels must be finite.  There must be at least one row
    and one feature column.

    ``n`` and ``d``, the numbers of rows and of feature columns, are plain
    attributes set at construction.

    The b = 1 paths, the CSR kernel of :meth:`Problem.grad_batch` and the
    optimizers' just-in-time step (which runs at b = 1 only), read per-row
    constants of the CSR that are formed on first use and held here:
    :attr:`columns`, ``indices`` as intp, and :attr:`row_sq_norms`, each
    row's ||a_i||^2.
    """

    features: sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        feats = self.features
        if isinstance(feats, np.ndarray) and feats.ndim == 2:
            # canonical by construction: each row's columns ascend, once each
            feats = _dense_to_csr(np.asarray(feats, dtype=np.float64))
        else:
            feats = sp.csr_matrix(feats, dtype=np.float64)
            if not feats.has_sorted_indices:
                feats.sort_indices()
            if not feats.has_canonical_format:
                _raise_repeated_column(feats)
        labels = np.ascontiguousarray(self.labels, dtype=np.float64).ravel()
        if feats.shape[0] < 1:
            raise ValueError("empty dataset")
        if feats.shape[1] < 1:
            raise ValueError("dataset has no features")
        if labels.shape[0] != feats.shape[0]:
            raise ValueError(
                f"labels length {labels.shape[0]} != number of rows {feats.shape[0]}"
            )
        if not (np.isfinite(feats.data).all() and np.isfinite(labels).all()):
            raise ValueError("non-finite feature value or label")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n", feats.shape[0])
        object.__setattr__(self, "d", feats.shape[1])

    @cached_property
    def dense_rows(self) -> np.ndarray | None:
        """The n x d feature matrix as a dense array, or None when it would
        take more memory than the CSR's ``data`` and ``indices``; computed on
        first use.  When every entry is stored it is a view of ``data``."""
        feats = self.features
        n, d = feats.shape
        if n * d * feats.data.itemsize > feats.nnz * (feats.data.itemsize + feats.indices.itemsize):
            return None
        if feats.nnz == n * d:  # canonical rows: entry (i, j) is data[i * d + j]
            return feats.data.reshape(n, d)
        return feats.toarray()

    @cached_property
    def columns(self) -> np.ndarray:
        """The CSR's ``indices`` as one intp array (nnz x 8 bytes), which
        :meth:`Problem.csr_row` slices: numpy gathers and scatters through
        intp index arrays faster than through int32 ones."""
        columns = self.features.indices.astype(np.intp)
        columns.flags.writeable = False  # csr_row hands out views of it
        return columns

    @cached_property
    def row_sq_norms(self) -> np.ndarray:
        """The n squared row norms ||a_i||^2, each with the bits of the row's
        ``vals.dot(vals)`` (BLAS ddot); 0.0 for an empty row."""
        feats = self.features
        bounds = feats.indptr.tolist()
        data = feats.data
        return np.array([data[lo:hi].dot(data[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
                        dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Problem:
    """A loss family with L2 regularization over a :class:`Dataset`.

    Immutable after construction and safe to share across threads; oracle
    counters are owned by individual runs, not by the problem.  It keeps
    the labels with the loss's sign applied, ``_signed_labels`` (see the
    module docstring).
    """

    dataset: Dataset
    loss: str = "logistic"
    l2_reg: float = 0.0

    def __post_init__(self):
        if self.loss not in LOSS_NAMES:
            raise ValueError(f"unknown loss {self.loss!r}; expected one of {LOSS_NAMES}")
        if not (math.isfinite(self.l2_reg) and self.l2_reg >= 0):
            raise ValueError(f"l2_reg must be finite and >= 0, got {self.l2_reg!r}")
        labels = self.dataset.labels
        if self.loss in _CLASSIFICATION_LOSSES and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError(f"{self.loss} loss requires labels in {{-1, +1}}")
        object.__setattr__(self, "_signed_labels", -labels if self.loss == "logistic" else labels)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    # -- loss primitives -------------------------------------------------

    def _loss_values(self, z: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The loss at the predictions z, given the signed labels ys, the
        matching entries of ``_signed_labels``."""
        if self.loss == "logistic":
            # log(1 + exp(m)), m = ys z = -y z, as max(m, 0) + log1p(exp(-|m|)),
            # in place on fresh arrays
            m = ys * z
            tail = np.abs(m)
            np.negative(tail, out=tail)
            np.exp(tail, out=tail)
            np.log1p(tail, out=tail)
            np.maximum(m, 0.0, out=m)
            m += tail
            return m
        if self.loss == "squared":
            return 0.5 * (z - ys) ** 2
        if self.loss == "huber":
            r = z - ys
            return np.where(np.abs(r) <= HUBER_DELTA, 0.5 * r * r,
                            HUBER_DELTA * (np.abs(r) - 0.5 * HUBER_DELTA))
        # squared_hinge
        return np.maximum(0.0, 1.0 - ys * z) ** 2

    def _loss_derivs(self, z: np.ndarray | float, ys: np.ndarray | float):
        """Derivative of the loss with respect to the prediction z, given
        the signed labels ys as in :meth:`_loss_values`, for a batch's
        arrays or for one example's floats, with the same bits on both; on
        floats the result is a float or a numpy scalar."""
        if self.loss == "logistic":
            # ys expit(ys z), in place on a batch's fresh array; one example's
            # float has no buffer (and out=None would be slow on it)
            m = ys * z
            m = expit(m, out=m) if type(m) is np.ndarray else expit(m)
            m *= ys
            return m
        if self.loss == "squared":
            return z - ys
        if self.loss == "huber":
            # clip's bits, NaN and -0.0 included; np.clip is slow on a scalar
            return np.minimum(np.maximum(z - ys, -HUBER_DELTA), HUBER_DELTA)
        return -2.0 * ys * np.maximum(0.0, 1.0 - ys * z)

    def _check_dim(self, w: np.ndarray) -> np.ndarray:
        """``w`` as a C-contiguous float64 array, which must be one point:
        shape (d,).  Such an ndarray is returned as given.  Anything else
        goes through ``np.asarray`` and, when strided, a copy, since a
        strided BLAS dot adds in another order.  Any other shape, (1, d),
        (d, 1) and a (k, d) stack included, raises ``ValueError``."""
        d = self.dataset.d
        if (type(w) is np.ndarray and w.dtype is _FLOAT64 and w.shape == (d,)
                and w.flags.c_contiguous):
            return w
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (d,):
            raise ValueError(f"iterate has shape {w.shape}, expected one point of dimension {d}")
        return np.ascontiguousarray(w)

    def _per_example(self, values, name: str) -> np.ndarray:
        """``values``, ``margins`` or ``anchor_derivs``, checked to hold one
        value per example: an ndarray as given, anything else through
        ``np.asarray``; any shape but (n,) raises ``ValueError``."""
        if type(values) is not np.ndarray:
            values = np.asarray(values, dtype=np.float64)
        n = self.dataset.n
        if values.shape != (n,):
            raise ValueError(f"{name} have shape {values.shape}, expected ({n},)")
        return values

    # -- oracles ---------------------------------------------------------

    def margins(self, w: np.ndarray) -> np.ndarray:
        """The predictions <a_i, w> of every example, A w: one product with
        :attr:`Dataset.dense_rows`, or with the CSR features when there are
        none.  Never charged."""
        w = self._check_dim(w)
        rows = self.dataset.dense_rows
        return self.dataset.features @ w if rows is None else rows.dot(w)

    def _margins_at(self, w: np.ndarray, margins: np.ndarray | None) -> np.ndarray:
        """``margins``, checked to hold n predictions, or :meth:`margins` (w)
        when it is None."""
        if margins is None:
            return self.margins(w)
        return self._per_example(margins, "margins")

    def loss_value(self, w: np.ndarray, margins: np.ndarray | None = None) -> float:
        """Full objective including the L2 term.  Never charged.

        ``margins`` is :meth:`margins` (w), formed here when not given; it
        is read, not written, and any shape but (n,) raises ``ValueError``."""
        w = self._check_dim(w)
        z = self._margins_at(w, margins)
        # np.mean's own pairwise sum and division, without its Python wrapper
        value = float(np.add.reduce(self._loss_values(z, self._signed_labels)) / self.dataset.n)
        return value + 0.5 * self.l2_reg * float(w.dot(w))

    def grad_full(self, w: np.ndarray, counters: GradOracleCounters | None = None,
                  margins: np.ndarray | None = None) -> np.ndarray:
        """Exact gradient of the full objective, charged one full gradient
        when ``counters`` is given.

        ``margins`` is as in :meth:`loss_value`; the gradient is the same
        bit for bit with or without it."""
        w = self._check_dim(w)
        z = self._margins_at(w, margins)
        coeffs = self._loss_derivs(z, self._signed_labels) / self.dataset.n
        rows = self.dataset.dense_rows
        if rows is None:
            g = self.dataset.features.T @ coeffs + self.l2_reg * w
        else:
            g = coeffs.dot(rows) + self.l2_reg * w
        if counters is not None:
            counters.charge_full()
        return np.asarray(g)

    def grad_batch(self, w: np.ndarray, batch: np.ndarray,
                   anchor_derivs: np.ndarray | None = None) -> np.ndarray:
        """Mean gradient over a nonempty set of example indices at one point,
        plus the L2 term, anchored at cached phi' when given.  Never charged.

        ``w`` is one point, of shape (d,); any other shape, a (k, d) stack
        included, raises ``ValueError`` (see :meth:`_check_dim`).  ``batch``
        holds integer indices.
        A batch that is already a 1-D C-contiguous intp ndarray, as the
        optimizers' sampler returns, is used as given; any other batch is
        converted (``np.asarray``, a check that it is integer, then intp
        and flattened), with the same bits and errors either way.  Both
        are checked to be nonempty and within [0, n).
        The result is ``A_B^T (phi'(A_B w) - anchor_derivs[B]) / b + l2 w``
        with ``A_B = features[batch]`` and ``anchor_derivs`` from
        :meth:`margin_derivs` (None for none), an ndarray read as given or
        anything else converted; any shape of it but (n,) raises
        ``ValueError``.  It is formed through BLAS on
        :attr:`Dataset.dense_rows`, and otherwise by
        :meth:`_csr_grad_batch`, bit for bit in the order of scipy's CSR
        products (see the module docstring).
        """
        w = self._check_dim(w)
        n = self.dataset.n
        if anchor_derivs is not None:
            anchor_derivs = self._per_example(anchor_derivs, "anchor_derivs")
        if not (type(batch) is np.ndarray and batch.dtype is _INTP and batch.ndim == 1
                and batch.flags.c_contiguous):
            batch = np.asarray(batch)
            if batch.dtype.kind not in "iu":
                raise ValueError(f"batch indices must be integers, got dtype {batch.dtype}")
            batch = batch.astype(np.intp, copy=False).ravel()
        if batch.size == 0:
            raise ValueError("empty batch")
        # one reduction: read as unsigned, a negative index is beyond any n
        if np.maximum.reduce(batch.view(np.uintp)) >= n:
            raise IndexError(f"batch index out of range [0, {n})")
        dense = self.dataset.dense_rows
        if dense is None:
            return self._csr_grad_batch(w, batch, anchor_derivs)
        rows = dense.take(batch, axis=0)  # as dense[batch], in less time
        coeffs = self._loss_derivs(rows.dot(w), self._signed_labels.take(batch))
        if anchor_derivs is not None:
            coeffs -= anchor_derivs.take(batch)
        coeffs /= batch.size
        g = coeffs.dot(rows)
        g += self.l2_reg * w
        return g

    def margin_derivs(self, w: np.ndarray, margins: np.ndarray | None = None) -> np.ndarray:
        """phi' at every example's prediction <a_i, w>, from ``margins``,
        :meth:`margins` (w), when given.  Never charged."""
        return self._loss_derivs(self._margins_at(w, margins), self._signed_labels)

    def csr_row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)``: the stored columns of CSR row i, as intp (see
        :meth:`_batch_entries`), and their values, in stored order; both
        are views, ``cols`` of :attr:`Dataset.columns`.  Never charged."""
        feats = self.dataset.features
        lo, hi = feats.indptr.item(i), feats.indptr.item(i + 1)
        return self.dataset.columns[lo:hi], feats.data[lo:hi]

    def example_deriv(self, i: int, z: float) -> float:
        """phi' of example i at the prediction z, as a float: the loss
        formula of every other oracle, on one example's floats.  Never
        charged."""
        return float(self._loss_derivs(z, self._signed_labels.item(i)))

    def _batch_entries(self, batch: np.ndarray):
        """``(row_of, vals, cols, slot)``: the stored entries of the rows of a
        batch of b > 1, row by row in draw order (each entry's row in the
        batch and its value), the batch's distinct columns, and each entry's
        slot among them.  ``cols`` is intp although the CSR stores int32,
        because numpy indexes with int32 arrays on a slow path: on 100
        columns of a 12000-vector a gather took 1.0 us with them against
        0.23 us, and ``v[cols] += s`` 3.5 us against 0.95 us (timeit, numpy
        2.4, one x86-64 core)."""
        feats = self.dataset.features
        lengths = feats.indptr[batch + 1] - feats.indptr[batch]
        ends = np.cumsum(lengths)
        pos = np.arange(ends[-1]) + np.repeat(feats.indptr[batch] - (ends - lengths), lengths)
        cols, slot = np.unique(feats.indices[pos], return_inverse=True)
        return (np.repeat(np.arange(batch.size), lengths), feats.data[pos],
                cols.astype(np.intp, copy=False), slot)

    def _csr_grad_batch(self, w: np.ndarray, batch: np.ndarray,
                        anchor_derivs: np.ndarray | None) -> np.ndarray:
        """:meth:`grad_batch` on CSR rows, bit for bit in scipy's order:
        l2 w + 0.0, since scipy adds l2 w to a data part that starts at 0.0
        and so leaves no -0.0, plus the batch's data part on its distinct
        columns only.  Each row's margin is 0.0 plus its products in order
        (``csr_matvec``), and each column 0.0 plus its terms in draw order
        (``csc_matvec``).

        At b = 1 the row comes from :meth:`csr_row`, its phi' from
        :meth:`example_deriv` as a float, and each column's one term is
        added as is: -0.0 where scipy has 0.0, which l2 w + 0.0 does not
        show."""
        g = np.multiply(w, self.l2_reg)
        g += 0.0
        if batch.size == 1:
            i = batch.item(0)
            cols, vals = self.csr_row(i)
            products = vals * w[cols]
            z = np.bincount(np.zeros(vals.size, np.intp), weights=products, minlength=1).item(0)
            coeff = self.example_deriv(i, z)
            if anchor_derivs is not None:
                coeff -= anchor_derivs.item(i)
            g[cols] += coeff * vals
            return g
        row_of, vals, cols, slot = self._batch_entries(batch)
        products = vals * w[cols][slot]
        coeffs = self._loss_derivs(np.bincount(row_of, weights=products, minlength=batch.size),
                                   self._signed_labels[batch])
        if anchor_derivs is not None:
            coeffs = coeffs - anchor_derivs[batch]
        g[cols] += np.bincount(slot, weights=(coeffs / batch.size)[row_of] * vals)
        return g
