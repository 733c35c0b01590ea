import numpy as np
import pytest
import scipy.sparse as sp

from vrkit import Dataset, Problem

# Four logistic rows in LIBSVM text; a step size near the float maximum
# overflows on them at the first step.
FOUR_ROWS = "+1 1:0.5 2:1.0\n-1 1:-1.0 2:0.3\n+1 1:2.0\n-1 1:-0.2 2:-0.7\n"


def make_problem(
    loss: str = "logistic",
    n: int = 24,
    d: int = 6,
    l2: float = 0.1,
    seed: int = 0,
    density: float = 0.7,
    classification: bool | None = None,
) -> Problem:
    """Random sparse problem with reproducible contents."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    if classification is None:
        classification = loss in ("logistic", "squared_hinge")
    if classification:
        labels = rng.choice([-1.0, 1.0], size=n)
    else:
        labels = rng.standard_normal(n)
    dataset = Dataset(features=sp.csr_matrix(dense), labels=labels)
    return Problem(dataset=dataset, loss=loss, l2_reg=l2)


def single_example_problem(a, y, loss="squared", l2=0.0) -> Problem:
    """One-example problem from a dense feature row."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    dataset = Dataset(features=sp.csr_matrix(a), labels=np.asarray([y], dtype=float))
    return Problem(dataset=dataset, loss=loss, l2_reg=l2)


class Subclass(np.ndarray):
    """An ndarray subclass: an input form that is no plain ndarray."""


def input_forms(values: np.ndarray) -> dict:
    """``values`` (float64) in the other forms a call converts: a list,
    float32, int64 (rounded), a strided view and an ndarray subclass."""
    return {"list": values.tolist(), "float32": values.astype(np.float32),
            "int64": np.rint(values).astype(np.int64), "strided": np.repeat(values, 2)[::2],
            "subclass": values.view(Subclass)}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values and equal ``float.hex`` spellings (which tell -0.0 from 0.0)."""
    return np.array_equal(a, b) and (
        [x.hex() for x in a.ravel().tolist()] == [x.hex() for x in b.ravel().tolist()])


def scan_value_at_pass(trace, p: float, attr: str):
    """The latest recorded ``attr`` at pass <= p by a plain scan over the
    rows, or None: a reference for ``Trace.last_recorded`` that shares no
    code with it."""
    best = None
    for row in trace.rows:
        if row.passes > p:
            break
        if getattr(row, attr) is not None:
            best = getattr(row, attr)
    return best


def central_difference_gradient(problem: Problem, w: np.ndarray, h: float = 1e-6) -> np.ndarray:
    approx = np.empty_like(w, dtype=float)
    for j in range(w.shape[0]):
        e = np.zeros_like(w, dtype=float)
        e[j] = h
        approx[j] = (problem.loss_value(w + e) - problem.loss_value(w - e)) / (2 * h)
    return approx


@pytest.fixture
def quadratic_1d() -> Problem:
    """f(x) = x^2 / 2 as a single-example squared loss (n = 1, d = 1)."""
    return single_example_problem([1.0], 0.0, loss="squared")
