"""Iterative methods for finite-sum minimization.

All optimizers share the same conventions:

* one :class:`~vrkit.problems.GradOracleCounters` per run, charged only by
  ``grad_full`` calls given it and, once per sampled step, by :func:`_engine`
  (batch oracles, objective values and monitoring gradients are free);
* a per-run PCG64 generator seeded explicitly, so a (config, seed) pair
  reproduces a run exactly;
* one mini-batch size b per run, fixed with the metric and the feasible
  set when the run's :class:`_Run` is built; batches are drawn uniformly
  without replacement within a batch, independently across steps, a pass's
  worth (n // b) at a time, each in ascending order (see :meth:`_Run.sample`);
* a divergence guard that stops a run and flags the trace once the
  objective is non-finite or grows past 1e3 * f(w0) + 1, once a step
  raises ``FloatingPointError`` (a non-finite preconditioned iterate), or
  once a full-matrix accumulator overflows or its eigensolver fails to
  converge (``np.linalg.LinAlgError``).

The variance-reduced methods form the direction

    g_t = grad_B(x_t) - grad_B(w_k) + grad_full(w_k)

which is an unbiased estimate of the exact gradient at x_t; at the first
inner step x_1 = w_k it equals grad_full(w_k) for every sampled batch, bit
for bit on CSR rows and within rounding on dense rows.  Such a step costs
2b, and a plain step grad_B(x_t) costs b.  On both row layouts g_t is one
``grad_batch`` call at x_t, given phi' cached at the snapshot, plus
grad_full(w_k) - l2 w_k, formed once per snapshot.  On CSR rows at b = 1
the rule of :func:`_lazy_applies` may give the inner loop the O(nnz)
just-in-time step of :class:`_LazyStep`, which works on the sampled row's
scalars, from the snapshot's cached margins and phi' and one more
uncharged product A grad_full(w_k) per snapshot.  It stays within 64 T eps
of the dense step, relative to 1 + |value|, with T the run's per-example
work; every other inner loop takes the dense step.

Every optimizer is a thin wrapper around one loop, :func:`_engine`, set by
four choices: the direction (plain, snapshot-anchored as above, or
recursive as in SARAH), the metric (none, meaning the Euclidean update
x - eta * g, or a :class:`~vrkit.precond.PrecondState`), held by the run,
the step rule (constant, heuristic or Barzilai-Borwein) and the loop rule
(fixed length, growth test, coin-flip snapshot refresh, or doubling stages
with one engine call per stage).  Seeded output is pinned byte for byte by
``tests/golden``.

Each setting has one spelling and one check.  A step size is ``eta``,
checked finite and > 0 by :class:`_StepRule`; on the adaptive methods
``eta=None`` is the tuning-free heuristic, while the baselines require a
number.  Loop and step counts and inner-loop lengths are checked by
:func:`_validate_common`.  Only :func:`adasvrg_fixed` takes and checks
``snapshot``, and only it and :func:`adasvrg_multistage` take ``proj``.
What no caller varies is a constant: the growth-test threshold
:data:`vrkit.diagnostics.THETA`, its burn-in, the cap :data:`GROWTH_CAP`
n/b on its inner loops, and the b/n refresh probability (see
:func:`_engine`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import PhaseTestState, Trace, TraceRow
from .precond import PrecondState, PrecondVariant, ProjectionSpec, all_finite
from .problems import GradOracleCounters, Problem

SNAPSHOT_MODES = ("last", "average")

# A growth-tested VR inner loop stops after at most GROWTH_CAP * n/b steps.
GROWTH_CAP = 10


@dataclass
class RunResult:
    """Outcome of one optimizer run."""

    final_iterate: np.ndarray
    trace: Trace
    counters: GradOracleCounters
    termination_reason: str
    averaged_iterate: np.ndarray | None = None
    g_norm_star_steps: np.ndarray | None = None
    notes: dict = field(default_factory=dict)


def _draw_block(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """An (n // b, b) block of batches, 1 <= b <= n, by the rule of
    :meth:`_Run.sample`."""
    m = n // b
    if 6 * (b - 1) > n:
        while True:
            keys = rng.random((m, n))
            cut = np.partition(keys, b - 1, axis=1)[:, b - 1:b]
            picked = np.flatnonzero(keys <= cut)
            if picked.size == m * b:
                return (picked % n).reshape(m, b)
    # int32 draws the same values as int64 and sorts in about half the time
    dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    rows = rng.integers(n, size=(m, b), dtype=dtype)
    rows.sort(axis=1)
    flat, spare = rows.ravel(), np.empty(0, dtype)
    while True:
        # equal neighbours in the flat block; a row's last index and the
        # next row's first are no repeat
        same = flat[1:] == flat[:-1]
        same[b - 1::b] = False
        repeats = np.flatnonzero(same)
        if not repeats.size:
            return rows.astype(np.intp)
        if spare.size < repeats.size:
            spare = rng.integers(n, size=2 * repeats.size + 8, dtype=dtype)
        flat[repeats + 1] = spare[:repeats.size]  # the later of each equal pair
        spare = spare[repeats.size:]
        rows.sort(axis=1)


class _Run:
    """Shared per-run context: counters, RNG, the trace, divergence and
    ``next_outer``, the index of the next outer loop, which numbers outer
    loops on across the :func:`_engine` calls of a run.

    It fixes, once for the run, the batch size b (in [1, n], checked by
    :func:`_validate_common`), ``period`` = n // b steps per pass, the metric
    ``variant`` and the feasible set ``proj``; None is Euclidean, unbounded.
    The full-matrix metric has no projection: a ``proj`` with it is an error.

    :meth:`record` is the one writer of trace rows.  The starting point is
    the first row and :meth:`result` adds the closing row.
    """

    def __init__(self, problem: Problem, w0: np.ndarray, seed: int, batch_size: int,
                 variant: PrecondVariant | None = None, proj: ProjectionSpec | None = None):
        if proj is not None and variant is not None and variant.kind == "full_matrix":
            raise ValueError("projection is not supported for the full_matrix variant")
        self.problem, self.n = problem, problem.n
        self.batch_size, self.period = batch_size, problem.n // batch_size
        self.variant, self.proj = variant, proj
        self.counters = GradOracleCounters()
        self.rng = np.random.default_rng(seed)
        self.trace = Trace()
        self.diverged = False
        self.next_outer = 0
        self.block = np.empty((0, 0), dtype=np.intp)  # drawn at the first sample
        self.next_row = 0
        # a finite f(w0) is below 1e3 f(w0) + 1; a non-finite one is flagged anyway
        self.diverge_limit = math.inf
        self.record(w0)
        self.diverge_limit = 1e3 * self.trace.rows[0].objective + 1.0

    @property
    def passes(self) -> float:
        return self.counters.effective_passes(self.n)

    def sample(self) -> np.ndarray:
        """b distinct indices in ascending order: a uniform b-subset of
        range(n), independent of every other batch.

        Batches come from a block of n // b rows, one pass's worth, handed
        out a row per call; a used-up block is replaced by a fresh one.  The
        run's one b sizes every block.  How a block is drawn is a rule on
        (n, b):

        * 6(b - 1) <= n: each row is b ``integers`` draws, sorted.  Every
          surplus copy of a repeated index is replaced by a fresh draw and
          the rows are sorted again, until no row repeats.  A fresh draw
          repeats one of the b - 1 other indices of its row with probability
          at most 1/6, so few rounds run.  The block holds at most n indices;
          the fresh draws come from a spare draw, made again whenever a round
          finds it too short.
        * 6(b - 1) > n: each row is the positions of the b smallest of n
          uniform keys, found by a partition, so the block holds at most 5n
          keys.  A tie at the b-th key, with probability below n^2 / 2^53 per
          row, draws the block again.  Rounds of redraws would multiply as b
          nears n; this costs O(n) per batch whatever b is.

        Why each row is a uniform b-subset, independent of the others:
        relabelling the indices of one row's draws changes no equality among
        them, so it changes neither which copies are redrawn nor how many
        fresh draws each row takes, and the fresh draws are uniform like the
        first ones.  Relabelling a row's keys with their indices leaves which
        of them are smallest unchanged, and i.i.d. keys are exchangeable.  So
        relabelling the indices of any one row leaves the law of the block
        unchanged, and the only law on tuples of b-subsets with that property
        makes them independent and uniform.

        At b = 1 nothing repeats, and a block is n ``integers`` draws: the
        indices that n successive ``rng.integers(n)`` calls give.  A b = 1
        run with no other draw between samples keeps that stream.
        """
        if self.next_row == len(self.block):
            self.block = _draw_block(self.rng, self.n, self.batch_size)
            self.next_row = 0
        self.next_row += 1
        return self.block[self.next_row - 1]

    def record(
        self,
        x: np.ndarray,
        outer: int = 0,
        eta: float | None = None,
        g_star: float | None = None,
        event: str | None = None,
        force: bool = False,
        grad_norm: float | None = None,
        margins: np.ndarray | None = None,
    ) -> None:
        """Record a row at ``x``, at most once per pass unless ``force`` or
        an ``event`` is given.  A row on the previous row's pass replaces
        it and keeps its event.  A non-finite or runaway objective flags the
        row ``diverged`` and ends the run; so does ``event='diverged'``, a
        failed step, whose row stores no gradient norms.

        The objective and, unless ``grad_norm`` is given, the monitoring
        gradient's norm come from one margin product A x: ``margins`` when
        the caller has formed it (a snapshot shares its charged gradient's),
        else one :meth:`Problem.margins` call.  Neither is charged."""
        if self.diverged or not (force or event is not None or self.due()):
            return
        rows = self.trace.rows
        passes = self.passes
        problem = self.problem
        z = problem.margins(x) if margins is None else margins
        objective = problem.loss_value(x, margins=z)
        if event == "diverged":
            grad_norm = g_star = None
        elif grad_norm is None:
            g = problem.grad_full(x, margins=z)
            grad_norm = math.sqrt(g @ g)
        if not np.isfinite(objective) or objective > self.diverge_limit:
            event = "diverged"
        self.diverged = event == "diverged"
        if rows and passes == rows[-1].passes:
            merged = rows.pop()
            event = event or merged.event
        rows.append(TraceRow(passes=passes, objective=objective, grad_norm=grad_norm,
                             g_norm_star=g_star, step_size=eta, outer=outer, event=event))

    def due(self) -> bool:
        """Whether :meth:`record` writes a row without ``force`` or an event:
        no divergence, and a pass since the last row."""
        if self.diverged:
            return False
        rows, counters, n = self.trace.rows, self.counters, self.n
        # self.passes, inline: the same integer sum and one division
        return not rows or ((counters.per_example_grad_evals + n * counters.full_grad_evals) / n
                            - rows[-1].passes >= 1.0)

    def result(self, x, *, averaged=None, g_star_steps=None, notes=None) -> RunResult:
        """Finish the run at ``x``, recorded as the closing trace row with
        the last row's outer index."""
        self.record(x, outer=self.trace.rows[-1].outer, force=True)
        return RunResult(
            final_iterate=x,
            trace=self.trace,
            counters=self.counters,
            termination_reason="diverged" if self.diverged else "budget",
            averaged_iterate=averaged,
            g_norm_star_steps=g_star_steps,
            notes=notes or {},
        )


class _StepRule:
    """Per-run step-size state, its kind worked out from ``eta``.

    This is the one check of a step size: a number must be finite and > 0.
    ``eta=None`` is the tuning-free ``heuristic``, unless ``required`` (the
    baselines), when it is an error.  It keeps the previous full-gradient
    point to form the local smoothness estimate L = ||dg|| / ||dw||, tracks
    the running maximum, and sets eta = ||grad|| / (sqrt(2) * max L).  On
    the first call it probes a random nearby point (one extra charged full
    gradient) to seed the estimate.  Degenerate updates reuse the previous
    value (or 1.0).  ``lmax`` estimates the local smoothness of f, not the
    per-example L_max of SVRG's analysis (Johnson & Zhang 2013); in practice
    the first call's probe near w0 sets it.  On synth_a and synth_b
    (logistic, b = 64, seed 0) it reads 0.249 and 0.259 from the first call
    to the last, against 0.32 for the bound lambda_max(A^T A / n) / 4 + l2 on
    the smoothness of f and 14.8 and 18.4 for L_max.

    A number is a ``constant`` step, or, given the inner-loop length
    ``inner``, the starting value of ``bb``, the Barzilai-Borwein rule of
    :func:`svrg_bb`.  From the second call on that sets
    eta = ||dw||^2 / (inner * <dw, dg>) from consecutive points and full
    gradients; a non-positive curvature denominator keeps the previous value
    and appends the outer index to ``fallbacks``.
    """

    def __init__(self, eta: float | None, inner: int | None = None, *, required: bool = False):
        if eta is None and required:
            raise ValueError("this method needs a constant step size eta")
        if eta is not None and not (math.isfinite(eta) and eta > 0):
            raise ValueError(f"step size must be finite and > 0, got {eta!r}")
        self.kind = "heuristic" if eta is None else "constant" if inner is None else "bb"
        self.eta = 1.0 if eta is None else eta
        self.inner = inner
        self.lmax = 0.0
        self.prev_point: np.ndarray | None = None
        self.prev_grad: np.ndarray | None = None
        self.fallbacks: list[int] = []

    def __call__(self, run: _Run, w: np.ndarray, gfull: np.ndarray, outer: int) -> float:
        if self.kind == "constant":
            return self.eta
        if self.kind == "heuristic" and self.prev_point is None:
            u = run.rng.standard_normal(w.shape[0])
            u *= 1e-3 * (1.0 + float(np.linalg.norm(w))) / float(np.linalg.norm(u))
            self.prev_point = w + u
            self.prev_grad = run.problem.grad_full(self.prev_point, run.counters)
        if self.prev_point is not None:
            dw = w - self.prev_point
            dg = gfull - self.prev_grad
            if self.kind == "bb":
                denom = float(dw @ dg)
                if denom > 0:
                    self.eta = float(dw @ dw) / (self.inner * denom)
                else:
                    self.fallbacks.append(outer)
            else:
                dw_norm = float(np.linalg.norm(dw))
                g_norm = float(np.linalg.norm(gfull))
                if dw_norm > 0:
                    self.lmax = max(self.lmax, float(np.linalg.norm(dg)) / dw_norm)
                if dw_norm != 0 and g_norm != 0 and self.lmax != 0:
                    self.eta = g_norm / (math.sqrt(2.0) * self.lmax)
        self.prev_point = w
        self.prev_grad = gfull
        return self.eta


def _validate_common(
    problem: Problem,
    w0: np.ndarray,
    batch_size: int,
    loops: int,
    inner_loops: int | None = None,
) -> np.ndarray:
    """The one check of the arguments every optimizer shares: the dimension
    of ``w0``, ``batch_size`` in [1, n], ``loops``, the outer-loop or step
    count, >= 0, and ``inner_loops`` None or >= 1; each count an integer (a
    Python or numpy one).  Returns ``w0`` as a flat float array."""
    w0 = np.asarray(w0, dtype=np.float64).ravel()
    if w0.shape[0] != problem.d:
        raise ValueError(f"w0 has dimension {w0.shape[0]}, expected {problem.d}")
    for name, count in (("batch_size", batch_size), ("outer_loops and total_steps", loops),
                        ("inner_loops", inner_loops)):
        if count is not None and not isinstance(count, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if not 1 <= batch_size <= problem.n:
        raise ValueError(f"batch_size must be in [1, {problem.n}]")
    if loops < 0:
        raise ValueError(f"outer_loops and total_steps must be >= 0, got {loops}")
    if inner_loops is not None and inner_loops < 1:
        raise ValueError(f"inner_loops must be >= 1, got {inner_loops}")
    return w0


@dataclass
class _Phase:
    """What one engine call leaves: the last snapshot, the mean of the
    snapshots, the number of outer loops that ran, the outer indices the
    growth test stopped, ||G_t||_* after every metric step of the plain
    direction or the growth loop (hybrid's switch step and adagrad's
    ``g_norm_star_steps`` read it), and the number of coin-flip snapshot
    refreshes."""

    w: np.ndarray
    averaged: np.ndarray | None = None
    completed: int = 0
    stops: list[int] = field(default_factory=list)
    g_stars: list[float] = field(default_factory=list)
    refreshes: int = 0


def _lazy_applies(run: _Run, direction: str, snapshot: str, loop: str) -> bool:
    """Whether an inner loop takes :class:`_LazyStep` rather than
    :class:`_DenseStep`, the reference: a rule on the run's b, rows, metric
    and feasible set and on the loop, not an option."""
    variant = run.variant
    return (run.batch_size == 1 and run.problem.dataset.dense_rows is None
            and direction in ("plain", "vr") and loop != "refresh"
            and (variant is None or variant.kind == "scalar") and run.proj is None
            and snapshot == "last")


class _DenseStep:
    """The iterate x and the direction g held densely: g is grad_B(x), or,
    given ``base``, grad_B(x) - grad_B(anchor) + base.  With
    ``snapshot_anchored`` that is one ``grad_batch`` call given phi' at the
    anchor plus ``offset`` = base - l2 anchor, one d-length pass per step;
    :meth:`set_anchor` caches both phi' and the offset once per anchor.
    The recursive direction, whose anchor moves by assignment every step,
    takes two calls.  A metric step is projected onto the run's feasible
    set ``proj``."""

    def __init__(self, problem: Problem, x: np.ndarray, anchor: np.ndarray, base,
                 snapshot_anchored: bool = False, proj: ProjectionSpec | None = None,
                 margins: np.ndarray | None = None):
        self.problem, self.x, self.g, self.proj = problem, x, None, proj
        self.snapshot_anchored = snapshot_anchored
        self.set_anchor(anchor, base, margins)

    def set_anchor(self, anchor: np.ndarray, base, margins: np.ndarray | None = None) -> None:
        """Anchor the direction at ``anchor`` with ``base`` = grad_full(anchor);
        ``margins``, the anchor's margin product if the caller has it, saves
        forming it again for the cached phi'."""
        self.anchor, self.base = anchor, base
        if self.snapshot_anchored:
            self.anchor_derivs = self.problem.margin_derivs(anchor, margins)
            self.offset = base - self.problem.l2_reg * anchor

    def point(self) -> np.ndarray:
        return self.x

    def direct(self, batch: np.ndarray) -> None:
        # each grad_batch result is a fresh array: the direction is formed in it
        if self.base is None:
            self.g = self.problem.grad_batch(self.x, batch)
            return
        if self.snapshot_anchored:
            g = self.problem.grad_batch(self.x, batch, self.anchor_derivs)
            g += self.offset
        else:
            g = self.problem.grad_batch(self.x, batch)
            g -= self.problem.grad_batch(self.anchor, batch)
            g += self.base
        self.g = g

    def accumulate(self, state: PrecondState) -> None:
        state.accumulate(self.g)

    def step(self, eta: float, state: PrecondState | None = None) -> None:
        """x - eta g, or the step of ``state``'s metric."""
        if state is None:
            self.x = self.x - eta * self.g
        else:
            self.x = state.step(self.x, self.g, eta, self.proj)


class _LazyStep:
    """The just-in-time step on CSR rows at b = 1, O(nnz) of the sampled row.

    With the anchor a and base = grad_full(a) fixed, the dense part of the
    direction, l2 (x - a) + base, is an affine recurrence, so x is held as
    a + c v - beta base.  A step of size eta sets c <- (1 - eta l2) c and
    beta <- (1 - eta l2) beta + eta, and moves v only on row i's columns,
    by -eta s / c with s = coeff a_i the data part of the direction.  A c
    outside [1e-50, 1e50], 0 included, is folded into v.  The plain
    direction is a = base = 0.  Running ||v||^2 and v.base give the scalar
    metric's ||g||^2.  :meth:`point` builds x and restarts from it exactly.
    A scalar step whose iterate might overflow (a bound on |x| reaches
    1e300) is taken densely and raises ``FloatingPointError`` as
    :meth:`PrecondState.step` does.

    Per anchor it keeps the n-vectors A a (the engine's ``margins``), phi'
    there, and A base, one more uncharged CSR product; all three are zeros
    on the plain direction.  Row i's margin is then
    (A a)_i + c (a_i . v) - beta (A base)_i, from one gather of v and one
    dot.  Its coefficient is coeff = phi' - phi'_a,i, with phi' a float
    from :meth:`Problem.example_deriv`, and s.v, s.base and ||s||^2, Python
    floats, are coeff times the row's dot, (A base)_i and coeff ||a_i||^2,
    read from :attr:`~vrkit.problems.Dataset.row_sq_norms`.  Only a dense
    step forms s.  At x = a the margin is (A a)_i exactly, so the first step
    from a snapshot lands on a - eta base bit for bit.  Elsewhere the
    margin's rounding differs from :meth:`Problem.grad_batch`'s, and the
    run stays within 64 T eps of the dense step's, relative to 1 + |value|,
    with T the run's per-example work.
    """

    def __init__(self, problem: Problem, w: np.ndarray, base: np.ndarray | None,
                 margins: np.ndarray | None = None):
        self.problem, self.l2 = problem, problem.l2_reg
        if base is None:
            zeros = np.zeros(problem.n)
            self.a, self.base = np.zeros(problem.d), np.zeros(problem.d)
            self.z_a = self.anchor_derivs = self.z_base = zeros
        else:
            self.a, self.base = w, base
            self.z_a = problem.margins(w) if margins is None else margins
            self.anchor_derivs = problem.margin_derivs(w, self.z_a)
            self.z_base = problem.margins(base)
        self.base_sq = float(self.base @ self.base)
        self.base_norm, self.a_max = math.sqrt(self.base_sq), float(np.abs(self.a).max(initial=0.0))
        self._restart(w)

    def _restart(self, x: np.ndarray) -> None:
        self.x, self.v, self.c, self.beta = x, x - self.a, 1.0, 0.0
        self.v_sq, self.v_base = float(self.v @ self.v), float(self.v @ self.base)

    def point(self) -> np.ndarray:
        if self.x is None:
            self._restart(self.a + self.c * self.v - self.beta * self.base)
        return self.x

    def direct(self, batch: np.ndarray) -> None:
        i = batch.item(0)
        self.cols, self.vals = self.problem.csr_row(i)
        dot = float(self.vals.dot(self.v[self.cols]))  # BLAS ddot as @, with less overhead
        z_base = self.z_base.item(i)
        z = self.z_a.item(i) + self.c * dot - self.beta * z_base
        coeff = self.problem.example_deriv(i, z) - self.anchor_derivs.item(i)
        self.coeff, self.s_v, self.s_base = coeff, coeff * dot, coeff * z_base
        # in this order it overflows only where ||s||^2 does
        self.s_sq = coeff * (coeff * self.problem.dataset.row_sq_norms.item(i))

    def accumulate(self, state: PrecondState) -> None:
        # ||g||^2 for g = s + l2 c v + k base, k = 1 - l2 beta, s zero off cols
        lc, k = self.l2 * self.c, 1.0 - self.l2 * self.beta
        state.accumulate_sq_norm(max(0.0, lc * lc * self.v_sq + 2.0 * lc * k * self.v_base
                                     + k * k * self.base_sq + self.s_sq
                                     + 2.0 * (lc * self.s_v + k * self.s_base)))

    def _dense_step(self, eta: float) -> None:
        x = self.point()
        y = x - eta * (self.l2 * (x - self.a) + self.base)
        y[self.cols] -= eta * (self.coeff * self.vals)
        if not all_finite(y):
            raise FloatingPointError("preconditioned step produced a non-finite iterate")
        self._restart(y)

    def step(self, eta: float, state: PrecondState | None = None) -> None:
        """x - eta g, or with ``state`` the scalar step x - eta g / sqrt(G)."""
        eta = eta if state is None else eta / math.sqrt(state.G)
        r = 1.0 - eta * self.l2
        if state is not None:
            bound = (self.a_max + abs(r * self.c) * math.sqrt(max(self.v_sq, 0.0))
                     + eta * math.sqrt(self.s_sq) + abs(r * self.beta + eta) * self.base_norm)
            if not bound < 1e300:  # |x| after the step is at most bound
                return self._dense_step(eta)
        c, self.beta = r * self.c, r * self.beta + eta
        self.x = None
        if not 1e-50 <= abs(c) <= 1e50:
            self.v *= c
            self.v_sq, self.v_base = float(self.v @ self.v), float(self.v @ self.base)
            self.s_v *= c
            c = 1.0
        self.c = c
        f = -eta / c
        self.v[self.cols] += (f * self.coeff) * self.vals
        self.v_sq += f * (2.0 * self.s_v + f * self.s_sq)
        self.v_base += f * self.s_base


def _engine(
    run: _Run,
    w: np.ndarray,
    outer_loops: int,
    inner: int,
    rule: _StepRule,
    *,
    direction: str = "vr",
    snapshot: str = "last",
    loop: str = "fixed",
) -> _Phase:
    """The optimizer loop: ``outer_loops`` outer loops of up to ``inner`` steps
    at the batch size, metric and feasible set of ``run``.

    ``direction`` is ``plain`` (grad_B(x)), ``vr`` (anchored at the
    snapshot) or ``recursive`` (anchored at the previous iterate plus the
    previous direction, each outer loop starting from the exact full
    gradient without sampling).  Each sampled step is charged here, once:
    b on the plain direction and 2b on the anchored ones; the recursive
    direction's exact first step samples and charges nothing.  Anchored
    directions take a charged full gradient and a step-size from ``rule``
    at each snapshot, which is a forced trace row unless
    ``loop='refresh'``; then each step first
    refreshes the snapshot with probability b/n.  With the plain direction a
    non-constant rule re-estimates the step-size every n/b steps.  A run
    without a metric takes the Euclidean step; otherwise a fresh accumulator
    per outer loop steps (and projects) once it has signal.  With
    ``loop='growth'`` the growth test at :data:`vrkit.diagnostics.THETA`,
    checked before the update since the accumulator already holds the
    current gradient, ends an inner loop and records the event ``switch`` on
    the plain direction, ``adaptive_stop`` otherwise; its burn-in is 2n/b on
    the plain direction and n/b otherwise.  ``loop='fixed'`` runs every
    inner loop to ``inner`` steps.  Outer indices count on from the loops
    that earlier calls on ``run`` began.  The next snapshot is the last iterate or, with
    ``snapshot='average'``, the mean of the iterates the inner loop stepped
    from.  A record that flags divergence, a ``FloatingPointError`` from a
    step, or a ``LinAlgError`` from a full-matrix accumulator (overflowed,
    or its eigensolver unconverged) ends the run.
    """
    problem, variant, proj, period = run.problem, run.variant, run.proj, run.period
    d = problem.d
    refresh_p = run.batch_size / problem.n
    step_cost = (1 if direction == "plain" else 2) * run.batch_size
    burn_in = 2 * period if direction == "plain" else period
    event = "switch" if direction == "plain" else "adaptive_stop"
    average = snapshot == "average"
    # ||G||_* each step only where it is read; otherwise for a trace row
    every_g_star = direction == "plain" or loop == "growth"
    snap_sum = np.zeros(d)
    out = _Phase(w)
    eta = rule.eta

    for _ in range(outer_loops):
        if run.diverged:
            break
        outer = run.next_outer
        run.next_outer += 1
        base = z = None
        if direction != "plain":
            # one margin product serves the charged gradient, the row and the cached phi'
            z = problem.margins(w)
            base = problem.grad_full(w, run.counters, margins=z)
            eta = rule(run, w, base, outer)
            if loop != "refresh":
                run.record(w, outer=outer, eta=eta, grad_norm=math.sqrt(base @ base),
                           force=True, margins=z)
                if run.diverged:
                    break
        state = PrecondState(variant, d) if variant is not None else None
        test = PhaseTestState(burn_in) if loop == "growth" else None
        if _lazy_applies(run, direction, snapshot, loop):
            it = _LazyStep(problem, w, base, z)
        else:
            it = _DenseStep(problem, w.copy(), w, base, snapshot_anchored=direction == "vr",
                            proj=proj, margins=z)
        x_sum = np.zeros(d)
        t = 0
        sample, charge, due = run.sample, run.counters.charge_batch, run.due
        try:
            for t in range(1, inner + 1):
                if loop == "refresh" and run.rng.random() < refresh_p:
                    anchor = it.x.copy()
                    z = problem.margins(anchor)
                    it.set_anchor(anchor, problem.grad_full(anchor, run.counters, margins=z), z)
                    out.refreshes += 1
                if direction == "plain" and rule.kind != "constant" and (t - 1) % period == 0:
                    x = it.point()
                    eta = rule(run, x, problem.grad_full(x, run.counters), outer)
                if direction == "recursive" and t == 1:
                    it.g = it.base
                else:
                    it.direct(sample())
                    charge(step_cost)
                if direction == "recursive":
                    it.anchor, it.base = it.x, it.g
                if average:
                    x_sum += it.x
                g_star = None
                if state is None:
                    it.step(eta)
                else:
                    it.accumulate(state)
                    if every_g_star:
                        trace_g = state.trace_G()
                        g_star = math.sqrt(trace_g)
                        out.g_stars.append(g_star)
                        if test is not None and test.observe(trace_g):
                            out.stops.append(outer)
                            run.record(it.point(), outer=outer, eta=eta, g_star=g_star,
                                       event=event)
                            break
                    if state.has_signal():
                        it.step(eta, state)
                if due():
                    if state is not None and g_star is None:
                        g_star = math.sqrt(state.trace_G())  # a step leaves G as it was
                    run.record(it.point(), outer=outer, eta=eta, g_star=g_star)
                if run.diverged:
                    break
        except (FloatingPointError, np.linalg.LinAlgError):
            run.record(it.point(), outer=outer, eta=eta, event="diverged")
        w = x_sum / t if average else it.point()
        snap_sum += w
        out.completed += 1

    out.w = w
    out.averaged = snap_sum / out.completed if out.completed else w.copy()
    return out


def adasvrg_fixed(
    problem: Problem,
    w0: np.ndarray,
    outer_loops: int,
    inner_loops: int | None = None,
    *,
    variant: PrecondVariant | None = None,
    eta: float | None = None,
    proj: ProjectionSpec | None = None,
    batch_size: int = 1,
    snapshot: str = "last",
    seed: int = 0,
) -> RunResult:
    """Variance reduction with an adaptive-metric inner loop of fixed length.

    Each outer loop computes the full gradient at the snapshot, picks a
    step-size (the constant ``eta``, or the tuning-free heuristic when
    ``eta`` is None), resets the accumulator, and runs ``inner_loops`` steps
    (default n // batch_size).  ``snapshot='average'`` also returns the
    running average of snapshots in ``averaged_iterate``.
    """
    w0 = _validate_common(problem, w0, batch_size, outer_loops, inner_loops)
    if snapshot not in SNAPSHOT_MODES:
        raise ValueError(f"snapshot must be one of {SNAPSHOT_MODES}")
    rule = _StepRule(eta)

    run = _Run(problem, w0, seed, batch_size, variant or PrecondVariant(), proj)
    out = _engine(run, w0, outer_loops, inner_loops or run.period, rule, snapshot=snapshot)
    return run.result(
        out.w, averaged=out.averaged if (snapshot == "average" and out.completed) else None)


def adasvrg_multistage(
    problem: Problem,
    w0: np.ndarray,
    outer_loops: int,
    epsilon: float,
    *,
    variant: PrecondVariant | None = None,
    eta: float | None = None,
    proj: ProjectionSpec | None = None,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Staged runs with doubling inner loops until the target accuracy.

    Runs ceil(log2(1/epsilon)) stages; stage i uses inner loops of length
    2^(i+1) and starts from the averaged output of the previous stage.
    ``eta`` is as in :func:`adasvrg_fixed`.
    """
    w0 = _validate_common(problem, w0, batch_size, outer_loops)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if outer_loops < 3:
        raise ValueError("multistage runs need at least 3 outer loops per stage")

    stages = math.ceil(math.log2(1.0 / epsilon))
    rule = _StepRule(eta)
    run = _Run(problem, w0, seed, batch_size, variant or PrecondVariant(), proj)

    w = w0
    schedule: list[int] = []
    for i in range(1, stages + 1):
        m_i = 2 ** (i + 1)
        stage = _engine(run, w, outer_loops, m_i, rule, snapshot="average")
        w = stage.averaged
        schedule.append(m_i)
        run.record(w, outer=run.next_outer - 1, event="stage_boundary")
        if run.diverged:
            break
    return run.result(w, averaged=w, notes={"stage_inner_sizes": schedule})


def adasvrg_adaptive(
    problem: Problem,
    w0: np.ndarray,
    outer_loops: int,
    *,
    variant: PrecondVariant | None = None,
    eta: float | None = None,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Inner loops terminated by the accumulator growth test.

    Each inner loop runs up to :data:`GROWTH_CAP` n/b steps; at even steps
    past the burn-in n/b the relative growth ratio of ||G||_*^2 over a
    doubling window is compared against :data:`vrkit.diagnostics.THETA`, and
    the loop stops once gradient noise dominates.  The next snapshot is the
    last iterate.  ``eta`` is as in :func:`adasvrg_fixed`.
    """
    w0 = _validate_common(problem, w0, batch_size, outer_loops)
    rule = _StepRule(eta)

    run = _Run(problem, w0, seed, batch_size, variant or PrecondVariant())
    out = _engine(run, w0, outer_loops, GROWTH_CAP * run.period, rule, loop="growth")
    return run.result(out.w, notes={"adaptive_stops": out.stops})


def hybrid_adagrad_adasvrg(
    problem: Problem,
    x1: np.ndarray,
    total_steps: int,
    *,
    variant: PrecondVariant | None = None,
    eta: float | None = None,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Plain adaptive-gradient steps until stalling is detected, then switch.

    Phase 1 runs preconditioned stochastic gradient (no variance reduction)
    with the growth-ratio test, burn-in 2n/b, checks at even steps.  When the
    test fires at step t, phase 2 runs the adaptively-terminated VR method
    from the current iterate with an outer-loop budget of
    (total_steps - t) // (n // b), each inner loop capped at
    :data:`GROWTH_CAP` n/b steps.  If the test never fires (the
    interpolation regime), phase 1 consumes the whole budget.

    With ``eta=None``, the tuning-free heuristic, the phase-1 step-size is
    recomputed from a full gradient every n/b steps; a number is used
    throughout.  Both phases test against
    :data:`vrkit.diagnostics.THETA`.
    """
    x1 = _validate_common(problem, x1, batch_size, total_steps)

    run = _Run(problem, x1, seed, batch_size, variant or PrecondVariant())
    phase1 = _engine(run, x1, 1, total_steps, _StepRule(eta), direction="plain", loop="growth")
    x = phase1.w
    switch_step = len(phase1.g_stars) if phase1.stops else None

    notes: dict = {
        "switched": switch_step is not None,
        "switch_step": switch_step,
        "phase2_outer_loops": 0,
    }
    if switch_step is not None and not run.diverged:
        k2 = (total_steps - switch_step) // run.period
        notes["phase2_outer_loops"] = k2
        if k2 >= 1:
            phase2 = _engine(run, x, k2, GROWTH_CAP * run.period, _StepRule(eta),
                             loop="growth")
            x = phase2.w
            notes["adaptive_stops"] = phase2.stops
    return run.result(x, g_star_steps=np.array(phase1.g_stars), notes=notes)


def svrg(
    problem: Problem,
    w0: np.ndarray,
    outer_loops: int,
    inner_loops: int | None = None,
    eta: float | None = None,
    *,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Classic variance reduction: Euclidean constant steps, last-iterate snapshots."""
    w0 = _validate_common(problem, w0, batch_size, outer_loops, inner_loops)
    rule = _StepRule(eta, required=True)
    run = _Run(problem, w0, seed, batch_size)
    out = _engine(run, w0, outer_loops, inner_loops or run.period, rule)
    return run.result(out.w)


def loopless_svrg(
    problem: Problem,
    w0: np.ndarray,
    total_steps: int,
    eta: float,
    *,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Single-loop variance reduction with coin-flip snapshot refreshes.

    Each step first refreshes the snapshot (and its full gradient) with
    probability batch_size / n, then takes a VR step.
    """
    w0 = _validate_common(problem, w0, batch_size, total_steps)
    rule = _StepRule(eta, required=True)
    run = _Run(problem, w0, seed, batch_size)
    out = _engine(run, w0, 1, total_steps, rule, loop="refresh")
    return run.result(out.w, notes={"snapshot_refreshes": out.refreshes})


def sarah(
    problem: Problem,
    w0: np.ndarray,
    outer_loops: int,
    inner_loops: int | None = None,
    eta: float | None = None,
    *,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Recursive gradient estimates: the correction telescopes across the
    inner loop instead of anchoring at the snapshot.  Snapshot is the last
    iterate; each outer loop performs ``inner_loops`` updates, the first
    with the exact full gradient.
    """
    w0 = _validate_common(problem, w0, batch_size, outer_loops, inner_loops)
    rule = _StepRule(eta, required=True)
    run = _Run(problem, w0, seed, batch_size)
    out = _engine(run, w0, outer_loops, inner_loops or run.period, rule, direction="recursive")
    return run.result(out.w)


def svrg_bb(
    problem: Problem,
    w0: np.ndarray,
    outer_loops: int,
    inner_loops: int | None = None,
    eta: float | None = None,
    *,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """SVRG with the Barzilai-Borwein outer-loop step-size.

    ``eta`` is the step-size of the first outer loop.  For k >= 1,
    eta_k = ||dw||^2 / (m * <dw, dg>) from consecutive last-iterate
    snapshots and their full gradients.  A non-positive curvature
    denominator reuses the previous step-size and is noted rather than
    fatal.
    """
    w0 = _validate_common(problem, w0, batch_size, outer_loops, inner_loops)
    run = _Run(problem, w0, seed, batch_size)
    inner = inner_loops or run.period
    rule = _StepRule(eta, inner, required=True)
    out = _engine(run, w0, outer_loops, inner, rule)
    return run.result(out.w, notes={"bb_fallbacks": rule.fallbacks})


def adagrad(
    problem: Problem,
    x1: np.ndarray,
    total_steps: int,
    eta: float,
    *,
    variant: PrecondVariant | None = None,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Constant step-size adaptive gradient on raw stochastic gradients.

    The per-step accumulator magnitude ||G_t||_* is returned in
    ``g_norm_star_steps`` so growth-curve diagnostics can run offline.
    """
    x1 = _validate_common(problem, x1, batch_size, total_steps)
    rule = _StepRule(eta, required=True)
    run = _Run(problem, x1, seed, batch_size, variant or PrecondVariant())
    out = _engine(run, x1, 1, total_steps, rule, direction="plain")
    return run.result(out.w, g_star_steps=np.array(out.g_stars))


def sgd(
    problem: Problem,
    x1: np.ndarray,
    total_steps: int,
    eta: float,
    *,
    batch_size: int = 1,
    seed: int = 0,
) -> RunResult:
    """Plain constant step-size stochastic gradient descent."""
    x1 = _validate_common(problem, x1, batch_size, total_steps)
    rule = _StepRule(eta, required=True)
    run = _Run(problem, x1, seed, batch_size)
    out = _engine(run, x1, 1, total_steps, rule, direction="plain")
    return run.result(out.w)
