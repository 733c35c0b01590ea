"""Run traces and the stalling diagnostic.

A :class:`Trace` is a time series of per-run measurements keyed by effective
passes over the data (per-example gradient evaluations divided by n).  Rows
are recorded roughly once per pass plus at every event, so traces stay small
regardless of the iteration budget.  Objective values and full-gradient
norms in trace rows are monitoring quantities and are never charged to the
run's oracle counters.

The stalling diagnostic watches the accumulator trace ||G_t||_*^2: its
relative growth over a doubling window,

    R = (||G_t||_*^2 - ||G_{t/2}||_*^2) / ||G_{t/2}||_*^2,

stays near zero while the dynamics are effectively deterministic and
approaches one once gradient noise dominates, at which point the growth of
||G_t||_* switches from bounded to O(sqrt(t)).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

TRACE_EVENTS = ("switch", "adaptive_stop", "stage_boundary", "diverged")


@dataclass
class TraceRow:
    passes: float
    objective: float
    grad_norm: float | None = None
    g_norm_star: float | None = None
    step_size: float | None = None
    outer: int = 0
    event: str | None = None


# The serialized columns are the TraceRow fields in order; JSON lines and the
# CSV header name ``passes`` as ``pass``.
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))
_JSON_KEYS = tuple("pass" if name == "passes" else name for name in TRACE_COLUMNS)
CSV_HEADER = ",".join(_JSON_KEYS)
_row_values = operator.attrgetter(*TRACE_COLUMNS)
_json_values = operator.itemgetter(*_JSON_KEYS)


@dataclass
class Trace:
    """Per-run time series; rows are strictly increasing in passes.

    :meth:`last_recorded` is the one lookup of a column at a pass; the
    aggregate, the final metric and :meth:`value_at_pass` read through it."""

    rows: list[TraceRow] = field(default_factory=list)

    def validate(self) -> None:
        passes = [row.passes for row in self.rows]
        if any(b <= a for a, b in zip(passes, passes[1:])):
            raise ValueError("trace passes must be strictly increasing")
        for row in self.rows:
            if row.event is not None and row.event not in TRACE_EVENTS:
                raise ValueError(f"unknown trace event {row.event!r}")
            if row.event != "diverged" and not np.isfinite(row.objective):
                raise ValueError("non-finite objective in a row not flagged as diverged")

    def events(self) -> list[tuple[float, str]]:
        return [(row.passes, row.event) for row in self.rows if row.event is not None]

    def final(self) -> TraceRow:
        return self.rows[-1]

    def last_recorded(self, points: np.ndarray, attr: str) -> np.ndarray:
        """The trace's one lookup at a pass: for each pass p in ``points``,
        the index of the last row at pass <= p whose ``attr`` is recorded
        (not None), or -1 where there is none.  One forward fill over the
        rows and one ``searchsorted`` over their passes."""
        # latest[k]: index of the last present value among the first k rows, -1 if none
        latest = np.maximum.accumulate([-1] + [i if getattr(row, attr) is not None else -1
                                               for i, row in enumerate(self.rows)])
        passes = np.array([row.passes for row in self.rows])
        return latest[np.searchsorted(passes, points, side="right")]

    def value_at_pass(self, p: float, attr: str) -> float | None:
        """Step-function lookup: the latest recorded value at pass <= p, as
        recorded, or None before the first one."""
        i = self.last_recorded(np.array([p]), attr)[0]
        return None if i < 0 else getattr(self.rows[i], attr)

    # -- serialization -------------------------------------------------

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for *floats, outer, event in map(_row_values, self.rows):
            lines.append(",".join([*map(_fmt, floats), str(int(outer)), event or ""]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        lines = [line for line in text.splitlines() if line]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("missing or unexpected trace CSV header")
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise ValueError(f"malformed trace CSV row: {line!r}")
            passes, objective, *optional, outer, event = parts
            rows.append(TraceRow(float(passes), float(objective), *map(_parse, optional),
                                 int(outer), event or None))
        return cls(rows=rows)

    def to_jsonl(self) -> str:
        lines = [json.dumps(dict(zip(_JSON_KEYS, _row_values(row)))) for row in self.rows]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        rows = [TraceRow(*_json_values(json.loads(line))) for line in text.splitlines() if line]
        return cls(rows=rows)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _parse(text: str) -> float | None:
    return float(text) if text else None


# Threshold of the growth test: an inner loop stops once ||G||_*^2 grows by
# this fraction over a doubling window.
THETA = 0.5


@dataclass
class PhaseTestState:
    """State for the relative-growth termination test at :data:`THETA`.

    ``history`` holds ||G_s||_*^2 for s = 1..t, one value per
    :meth:`observe` call, so its length is the step t.  The ratio is defined
    only at even t at or past the burn-in threshold, and a zero comparison
    value yields no decision.
    """

    burn_in_threshold: int
    history: list[float] = field(default_factory=list, init=False)
    last_R: float | None = field(default=None, init=False)

    def observe(self, trace_g: float) -> bool:
        """Record ||G_t||_*^2 for the next step t and report whether the
        test fires at t."""
        self.history.append(trace_g)
        t = len(self.history)
        if t % 2 != 0 or t < self.burn_in_threshold:
            return False
        ratio = _growth_ratio(self.history)
        if ratio is None:
            return False
        self.last_R = ratio
        return ratio >= THETA


def _growth_ratio(history: list[float] | np.ndarray) -> float | None:
    """(G_t - G_{t/2}) / G_{t/2} for the series ``history`` = G_1..G_t at
    even t, or None when the comparison value is not finite and positive."""
    half = history[len(history) // 2 - 1]
    if not math.isfinite(half) or half <= 0:
        return None
    return (history[-1] - half) / half
