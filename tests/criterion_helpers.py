"""Helpers that only acceptance criteria 3, 7, 8 and 11 and their unit tests use.

``adagrad_bound_sides`` is criterion 3's reference for the AdaGrad trace
bound, computed from the gradients alone.  ``svrg_inner_armijo_1d`` is the
counter-example of criterion 7: an Armijo line search inside a
variance-reduced inner loop cannot approach the solution.
``two_phase_slope_fit`` fits the flat and sqrt-growth phases of
an accumulator series for criterion 8; it shares the growth ratio and the
threshold THETA of the library's stalling test.  ``datasets_equal`` is the
exact equality of criterion 11's parser round trip.
"""

import numpy as np

from vrkit.diagnostics import THETA, _growth_ratio
from vrkit.precond import DELTA
from vrkit.problems import Dataset


def adagrad_bound_sides(kind: str, grads) -> tuple[float, float]:
    """Both sides of the AdaGrad bound sum_t ||g_t||^2_{A_t^-1} <= 2 tr(A_m)
    for one accumulator fed ``grads`` in order, with A_t = G_t^{1/2} and
    G_t holding g_1..g_t.  Returns ``(sum_t g_t^T A_t^-1 g_t, tr(A_m))``.

    scalar: G = sum ||g||^2, a term skipped while G = 0.  diagonal:
    G = DELTA + sum g^2 per coordinate.  full_matrix: G = DELTA I +
    sum g g^T, decomposed with a d x d ``eigh`` at every step.
    """
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    d = grads[0].shape[0]
    weighted = 0.0
    if kind == "scalar":
        G = 0.0
        for g in grads:
            sq = float(g @ g)
            G += sq
            if G > 0:
                weighted += sq / np.sqrt(G)
        return weighted, float(np.sqrt(G))
    if kind == "diagonal":
        G = np.full(d, DELTA)
        for g in grads:
            G += g * g
            weighted += float(np.sum(g * g / np.sqrt(G)))
        return weighted, float(np.sqrt(G).sum())
    G = DELTA * np.eye(d)
    evals = np.full(d, DELTA)
    for g in grads:
        G += np.outer(g, g)
        evals, evecs = np.linalg.eigh(G)
        weighted += float(np.sum((evecs.T @ g) ** 2 / np.sqrt(evals)))
    return weighted, float(np.sqrt(evals).sum())


def _armijo_max_step_1d(x: float, component: int, a: float, c: float, eta_max: float) -> float:
    """Largest step accepted by the per-component sufficient-decrease test
    for the symmetric pair of 1-d quadratics 'a(x-1)^2' and 'a(x+1)^2',
    searched along the VR direction 2*a*x.  Solved in closed form."""
    ax = abs(x)
    same_side = (component == 1 and x > 0) or (component == 2 and x < 0)
    if same_side:
        bound = (1.0 - 1.0 / ax - c) / a
    else:
        bound = (1.0 + 1.0 / ax - c) / a
    return min(max(bound, 0.0), eta_max)


def svrg_inner_armijo_1d(
    a: float,
    c: float,
    eta_max: float,
    x0: float,
    steps: int,
    seed: int = 0,
) -> np.ndarray:
    """Inner-loop line search on a symmetric two-term 1-d quadratic sum.

    The objective is a*(x^2 + 1), the mean of a*(x-1)^2 and a*(x+1)^2 whose
    minimizers sit symmetrically around the solution x = 0.  The VR
    direction is 2*a*x for either sampled component, and the exact maximal
    Armijo step is applied analytically.  Requires a >= 1/eta_max; under
    that choice any iterate with |x| in (0, min(1/c, 1)) cannot move closer
    to the solution, which this routine also asserts.  Returns |x_t| for
    t = 0..steps.
    """
    if a <= 0 or c <= 0 or eta_max <= 0:
        raise ValueError("a, c and eta_max must be positive")
    if a * eta_max < 1.0:
        raise ValueError("requires a >= 1/eta_max")
    rng = np.random.default_rng(seed)
    trace = np.empty(steps + 1)
    x = float(x0)
    trace[0] = abs(x)
    lock = min(1.0 / c, 1.0)
    for t in range(steps):
        component = int(rng.integers(1, 3))
        if x == 0.0:
            trace[t + 1] = 0.0
            continue
        eta = _armijo_max_step_1d(x, component, a, c, eta_max)
        x_next = (1.0 - 2.0 * a * eta) * x
        if 0.0 < abs(x) < lock and abs(x_next) < abs(x) - 1e-15:
            raise RuntimeError("non-expansion property violated near the solution")
        x = x_next
        trace[t + 1] = abs(x)
    return trace


def two_phase_slope_fit(g_norm_star: np.ndarray, burn_in: int = 4) -> tuple[float, float]:
    """Split an accumulator-growth series into flat and sqrt-growth phases.

    ``g_norm_star`` holds ||G_t||_* for t = 1..len.  The knee is the first
    even t >= burn_in where the relative growth ratio reaches THETA; if
    it never does, the best two-piece log-log fit locates the split.
    Returns ``(phase1_growth, phase2_exponent)``: the largest ratio observed
    before the knee and the least-squares log-log slope of the series versus
    (t - knee) after it.
    """
    series = np.asarray(g_norm_star, dtype=np.float64).ravel()
    length = series.shape[0]
    if length < 64:
        raise ValueError("series too short; need at least 64 points")
    sq = series**2

    burn_in = max(4, int(burn_in))
    if burn_in % 2 != 0:
        burn_in += 1

    ratios = {t: _growth_ratio(sq[:t]) for t in range(burn_in, length + 1, 2)}
    knee = next((t for t, r in ratios.items() if r is not None and r >= THETA), None)
    if knee is None:
        knee = _best_split(series)

    phase1_growth = 0.0
    for t in range(burn_in, min(knee, length + 1), 2):
        if ratios[t] is not None:
            phase1_growth = max(phase1_growth, float(ratios[t]))

    ts = np.arange(knee + 1, length + 1)
    vals = sq[knee:] ** 0.5
    mask = vals > 0
    if mask.sum() < 2:
        return phase1_growth, float("nan")
    slope = _lstsq_slope(np.log(ts[mask] - knee), np.log(vals[mask]))
    return phase1_growth, slope


def _lstsq_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = x - x.mean()
    denom = float(x @ x)
    if denom == 0:
        return 0.0
    return float(x @ (y - y.mean()) / denom)


def _best_split(series: np.ndarray) -> int:
    """Knee of a two-piece log-log fit, minimizing total squared residual."""
    length = series.shape[0]
    ts = np.arange(1, length + 1, dtype=np.float64)
    floor = max(series[series > 0].min() * 1e-3, 1e-300) if np.any(series > 0) else 1e-300
    logy = np.log(np.maximum(series, floor))
    logt = np.log(ts)
    candidates = np.unique(
        np.clip(np.geomspace(8, length - 8, num=33).astype(int), 8, length - 8)
    )
    best_k, best_res = candidates[0], np.inf
    for k in candidates:
        res = _fit_residual(logt[:k], logy[:k]) + _fit_residual(logt[k:], logy[k:])
        if res < best_res:
            best_k, best_res = int(k), res
    return best_k


def _fit_residual(x: np.ndarray, y: np.ndarray) -> float:
    if x.shape[0] < 2:
        return 0.0
    slope = _lstsq_slope(x, y)
    pred = y.mean() + slope * (x - x.mean())
    return float(((y - pred) ** 2).sum())


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Exact structural equality (indices and float values bit-for-bit)."""
    fa, fb = a.features, b.features
    return (
        fa.shape == fb.shape
        and np.array_equal(fa.indptr, fb.indptr)
        and np.array_equal(fa.indices, fb.indices)
        and np.array_equal(fa.data, fb.data)
        and np.array_equal(a.labels, b.labels)
    )
