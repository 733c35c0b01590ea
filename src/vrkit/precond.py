"""Adaptive gradient preconditioning: accumulator state, step, and
projection onto an l2 ball.

The accumulator G grows monotonically with squared gradients (a scalar sum,
a per-coordinate sum, or a matrix of outer products) and the step metric is
A = G^{1/2}.  Along any trajectory the running sum of ||g||^2 in the
A^{-1}-norm is bounded by twice the trace of A; acceptance criterion 3
checks that bound from the gradients each accumulator received.

The full-matrix accumulator after t gradients is held as a thin factor,
G = DELTA I + F^T F with F of r = min(t, d) orthogonal rows, so one update
costs O(r^2 d + r^3) instead of a d x d eigendecomposition.  The small
eigenproblem goes straight to LAPACK's ``dsyevd``, the routine
``np.linalg.eigh`` calls, and F lives in two row buffers the state reuses;
F keeps the bits that ``np.vstack`` and ``np.linalg.eigh`` would give it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevd

VARIANT_KINDS = ("scalar", "diagonal", "full_matrix")

# Initial offset G = DELTA I of the diagonal and full-matrix accumulators.
DELTA = 1e-8

# The dtype of a gradient and an iterate that accumulate and step use as
# given; numpy's builtin dtypes are singletons, so an identity test suffices.
_FLOAT64 = np.dtype(np.float64)

# The diagonal-metric projection stops once | ||x|| - radius | is at most this.
PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class PrecondVariant:
    """Choice of accumulator shape.

    The scalar variant starts at G = 0 and requires a nonzero first gradient
    before stepping; diagonal and full-matrix start at DELTA * I.
    """

    kind: str = "scalar"

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant {self.kind!r}; expected one of {VARIANT_KINDS}")


@dataclass(frozen=True)
class ProjectionSpec:
    """Feasible set for the preconditioned step: the l2 ball of ``radius``
    (> 0) around the origin.  ``proj=None`` means unconstrained.
    """

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"projection radius must be > 0, got {self.radius!r}")


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array ``a`` is finite.

    A non-finite entry makes the sum of squares ``np.vdot(a, a)``
    non-finite, and so may an overflow; only then are the entries checked
    one by one.  That gives the answer of ``np.isfinite(a).all()`` in about
    half its time on 12000 entries, at one BLAS thread or the default.
    Unlike ``dot`` and ``@``, ``vdot`` warns of no overflow."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


class PrecondState:
    """Single-owner mutable accumulator for one inner loop.

    Call order per iteration: :meth:`accumulate` with the current gradient,
    then :meth:`step`.  ``accumulate`` must come first so the step metric
    already includes the gradient being applied.

    The scalar and diagonal variants keep G itself; the diagonal one also
    keeps sqrt(G), > 0 in every coordinate, taken once per
    :meth:`accumulate` and read by :meth:`step`.  It updates both in place
    and forms g^2 (``np.square``: the bits of g * g, on a faster path than
    ``np.multiply`` with one array as both operands) and eta g / sqrt(G)
    in one work buffer of length d, so a step allocates only its new
    iterate.  A non-finite gradient coordinate makes the diagonal step
    raise ``FloatingPointError``; every metric checks its iterate with
    :func:`all_finite`.  The
    full-matrix variant keeps G = DELTA I + F^T F through a factor F whose
    r rows are sqrt(mu_i) v_i, with (mu_i, v_i) the eigenpairs of
    G - DELTA I.  Each :meth:`accumulate` appends g to F and rotates it onto
    the eigenbasis of the (r + 1) x (r + 1) Gram matrix, at O(r^2 d + r^3)
    cost with r = min(t, d) after t gradients; once r would exceed d the row
    of the smallest mu, zero up to rounding, is dropped.  F is the front
    rows of one of two buffers the state owns, grown by doubling to at most
    d + 1 rows: g is copied into the row after F to form the window, the
    rotation is written into the other buffer, and the two swap.  The
    eigenpairs come from LAPACK's ``dsyevd`` (scipy's wrapper, lower
    triangle), which ``np.linalg.eigh`` calls behind a wrapper that costs
    more than the solve at small windows.  ``accumulate`` raises
    ``np.linalg.LinAlgError`` when the window is not finite, checked before
    the solver since LAPACK may hang on inf, and when the solver does not
    converge; either way F, mu and trace G stay as they were.  Then

        A^{-1} g = g / sqrt(DELTA) + F^T (c * (F g)),
        c_i = -1 / (sqrt(DELTA) sqrt(DELTA + mu_i) (sqrt(DELTA) + sqrt(DELTA + mu_i))),

    which never divides by mu_i.
    """

    def __init__(self, variant: PrecondVariant, d: int):
        self.variant = variant
        self.d = int(d)
        kind = variant.kind
        if kind == "scalar":
            self.G = 0.0
        elif kind == "diagonal":
            self.G = np.full(self.d, DELTA, dtype=np.float64)
            self._root = np.sqrt(self.G)
            self._work = np.empty(self.d)
        else:
            # F is the front rows of _rows; _spare receives the next rotation.
            self._rows = np.empty((0, self.d))
            self._spare = np.empty((0, self.d))
            self._F = self._rows[:0]
            self._mu = np.empty(0)
            self._grad_sq_sum = 0.0

    def accumulate(self, g: np.ndarray) -> "PrecondState":
        """Add one gradient to the accumulator.

        A 1-D C-contiguous float64 ``g``, as the optimizers pass it, is used
        as given; any other ``g`` is first converted to a flat float64
        array, so it leaves the state that its float64 values leave.  The
        state keeps no reference to ``g``.

        Raises ``np.linalg.LinAlgError``, leaving the state as it was, when
        the full-matrix window is not finite or its eigensolver does not
        converge.
        """
        if not (type(g) is np.ndarray and g.dtype is _FLOAT64 and g.ndim == 1
                and g.flags.c_contiguous):
            g = np.asarray(g, dtype=np.float64).ravel()
        if g.shape[0] != self.d:
            raise ValueError(f"gradient has dimension {g.shape[0]}, expected {self.d}")
        kind = self.variant.kind
        if kind == "scalar":
            self.G += float(g.dot(g))
        elif kind == "diagonal":
            self.G += np.square(g, out=self._work)
            np.sqrt(self.G, out=self._root)
        else:
            r = self._F.shape[0]
            if r == self._rows.shape[0]:
                self._grow_rows(r)
            window = self._rows[:r + 1]
            window[r] = g
            gram = window @ window.T
            # Checked before the solver: LAPACK may hang rather than fail on inf.
            if not all_finite(gram):
                raise np.linalg.LinAlgError("full-matrix accumulator is not finite")
            mu, basis, info = dsyevd(gram, lower=1)  # ascending
            if info != 0:
                raise np.linalg.LinAlgError(f"full-matrix eigensolver failed (info {info})")
            # The rotation's bits depend on the basis's memory order, so it
            # takes the row order np.linalg.eigh returns, not LAPACK's columns.
            basis = np.ascontiguousarray(basis)
            if mu.shape[0] > self.d:
                mu, basis = mu[1:], basis[:, 1:]
            self._F = np.matmul(basis.T, window, out=self._spare[:mu.shape[0]])
            self._rows, self._spare = self._spare, self._rows
            # G - DELTA I is PSD; rounding can leave mu slightly negative.
            self._mu = np.maximum(mu, 0.0)
            self._grad_sq_sum += float(gram[-1, -1])
        return self

    def _grow_rows(self, r: int) -> None:
        """Give both row buffers room for the (r + 1)-row window, doubling
        up to d + 1 rows, with F copied to the front of the new one."""
        rows = min(max(2 * r, 4), self.d + 1)
        self._rows = np.empty((rows, self.d))
        self._rows[:r] = self._F
        self._F = self._rows[:r]
        self._spare = np.empty((rows, self.d))

    def accumulate_sq_norm(self, sq: float) -> None:
        """The scalar variant's :meth:`accumulate`, from sq = ||g||^2."""
        self.G += sq

    def _inverse_root(self, g: np.ndarray) -> np.ndarray:
        """A^{-1} g for the full-matrix variant."""
        root_delta = math.sqrt(DELTA)
        root = np.sqrt(DELTA + self._mu)
        c = -1.0 / (root_delta * root * (root_delta + root))
        return g / root_delta + self._F.T @ (c * (self._F @ g))

    def trace_G(self) -> float:
        """Trace of G; its square root is the monitored ||G||_*."""
        kind = self.variant.kind
        if kind == "scalar":
            return float(self.G)
        if kind == "diagonal":
            return float(self.G.sum())
        return self.d * DELTA + self._grad_sq_sum

    def has_signal(self) -> bool:
        """Whether the metric is usable (scalar variant needs G > 0)."""
        if self.variant.kind == "scalar":
            return self.G > 0
        return True

    def step(
        self,
        x: np.ndarray,
        g: np.ndarray,
        eta: float,
        proj: ProjectionSpec | None = None,
    ) -> np.ndarray:
        """One preconditioned step x - eta * A^{-1} g, projected if requested.

        Requires :meth:`accumulate` to have been called with this step's
        gradient, so A already includes it.  A float64 ndarray ``x`` or
        ``g``, as the optimizers pass them, is used as given; anything else
        is first converted with ``np.asarray(..., dtype=np.float64)``, so
        every input steps as its float64 array does, to the same bits or
        the same error.  The step reads ``x`` and ``g`` and writes neither;
        it returns a fresh iterate.
        """
        if not (type(x) is np.ndarray and x.dtype is _FLOAT64):
            x = np.asarray(x, dtype=np.float64)
        if not (type(g) is np.ndarray and g.dtype is _FLOAT64):
            g = np.asarray(g, dtype=np.float64)
        kind = self.variant.kind
        if kind == "scalar":
            if self.G <= 0:
                raise ValueError(
                    "scalar accumulator has no signal yet; skip this step until "
                    "a nonzero gradient has been accumulated"
                )
            y = x - (eta / math.sqrt(self.G)) * g
        elif kind == "diagonal":
            work = np.divide(g, self._root, out=self._work)
            work *= eta
            y = x - work
        else:
            y = x - eta * self._inverse_root(g.ravel())
        if proj is not None:
            y = project(proj, self, y)
        if not all_finite(y):
            raise FloatingPointError("preconditioned step produced a non-finite iterate")
        return y


def project(proj: ProjectionSpec, state: PrecondState, y: np.ndarray) -> np.ndarray:
    """Project ``y`` onto the ball in the metric induced by A.

    Under a scalar metric this is radial rescaling; under a diagonal metric
    it solves for the Lagrange multiplier by bisection, to
    :data:`PROJECTION_TOL` in the norm.  Full-matrix metrics
    do not support projection.
    """
    if state.variant.kind == "full_matrix":
        raise NotImplementedError("projection is not supported for the full_matrix variant")
    y = np.asarray(y, dtype=np.float64)
    radius = float(proj.radius)
    norm = float(np.linalg.norm(y))
    if norm <= radius:
        return y
    if state.variant.kind == "scalar":
        return y * (radius / norm)

    # Diagonal metric: minimize ||x - y||_A^2 subject to ||x|| <= radius.
    # Stationarity gives x(lam) = a * y / (a + lam) coordinatewise with
    # a = sqrt(G); ||x(lam)|| decreases in lam, so bisect on the multiplier.
    a = state._root

    def clipped(lam: float) -> np.ndarray:
        return a * y / (a + lam)

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if np.linalg.norm(clipped(hi)) <= radius:
            break
        hi *= 2.0
    else:
        raise FloatingPointError("ball projection failed to bracket the multiplier")
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        x = clipped(mid)
        gap = np.linalg.norm(x) - radius
        if abs(gap) <= PROJECTION_TOL:
            return x
        if gap > 0:
            lo = mid
        else:
            hi = mid
    return clipped(0.5 * (lo + hi))
