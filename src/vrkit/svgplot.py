"""Self-contained SVG emission for convergence and sensitivity figures.

No plotting dependency: the figures are assembled as SVG text directly.
Each series draws a median line plus a shaded band of one standard
deviation; the y axis is log-scaled.  Sensitivity figures use a log x axis
(step-sizes) and cap plotted values at a maximum (conventionally 10) so
diverging configurations stay readable.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)

_WIDTH, _HEIGHT = 760, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 78, 170, 40, 58

_FLOOR = 1e-16


def emit_plot(
    series: dict[str, tuple],
    path: str | Path,
    *,
    xlabel: str = "effective passes",
    ylabel: str = "full gradient norm",
    title: str | None = None,
    y_cap: float | None = None,
    log_x: bool = False,
) -> Path:
    """Write an SVG with one curve per series.

    ``series`` maps a label to ``(xs, median, std)`` arrays (std may be
    None).  Points with a non-finite coordinate are dropped, and so, with
    ``log_x``, are points at x <= 0; where only the std is not finite
    (``bench.aggregate`` writes inf where a seed diverged) the band has a
    gap.  The band is clipped to the axes frame, whose y range the medians
    set.  ``y_cap`` clips values from above before plotting.  Raises
    ``ValueError`` when there is nothing to draw.
    """
    if not series:
        raise ValueError("nothing to plot: empty series mapping")
    cleaned = {}
    for label, payload in series.items():
        xs, med = list(payload[0]), list(payload[1])
        std = list(payload[2]) if len(payload) > 2 and payload[2] is not None else None
        points = [
            (float(x), float(y), float(std[i]) if std else 0.0)
            for i, (x, y) in enumerate(zip(xs, med))
            if math.isfinite(x) and math.isfinite(y) and (x > 0 or not log_x)
        ]
        if points:
            cleaned[label] = points
    if not cleaned:
        raise ValueError("nothing to plot: no finite data points (at x > 0 with log_x)")

    if y_cap is not None:
        cleaned = {
            label: [(x, min(y, y_cap), s) for x, y, s in pts]
            for label, pts in cleaned.items()
        }

    all_x = [x for pts in cleaned.values() for x, _, _ in pts]
    all_y = [max(y, _FLOOR) for pts in cleaned.values() for _, y, _ in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo * 10.0

    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
    ly_lo, ly_hi = math.floor(ly_lo), math.ceil(ly_hi)
    if ly_hi == ly_lo:
        ly_hi += 1
    if log_x:
        lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)
        if lx_hi <= lx_lo:
            lx_hi = lx_lo + 1.0

    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(x: float) -> float:
        if log_x:
            frac = (math.log10(x) - lx_lo) / (lx_hi - lx_lo)
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return _LEFT + frac * plot_w

    def sy(y: float) -> float:
        frac = (math.log10(max(y, _FLOOR)) - ly_lo) / (ly_hi - ly_lo)
        return _TOP + (1.0 - frac) * plot_h

    def band_y(y: float) -> float:
        # the axis range comes from the medians, so a band edge may lie outside
        return min(max(sy(y), _TOP), _TOP + plot_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_LEFT + plot_w / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{_esc(title)}</text>'
        )

    # axes frame
    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )

    # y ticks at decades
    for exp in range(ly_lo, ly_hi + 1):
        y = sy(10.0**exp)
        parts.append(
            f'<line x1="{_LEFT - 4}" y1="{y:.1f}" x2="{_LEFT}" y2="{y:.1f}" stroke="#333"/>'
        )
        parts.append(
            f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_LEFT + plot_w}" y2="{y:.1f}" '
            f'stroke="#eee" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="11">'
            f"1e{exp}</text>"
        )

    # x ticks
    if log_x:
        tick_exps = range(math.floor(lx_lo), math.ceil(lx_hi) + 1)
        ticks = [10.0**e for e in tick_exps]
        labels = [f"1e{e}" for e in tick_exps]
    else:
        count = 6
        ticks = [x_lo + i * (x_hi - x_lo) / (count - 1) for i in range(count)]
        labels = [f"{t:g}" for t in ticks]
    for tick, label in zip(ticks, labels):
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_TOP + plot_h}" x2="{x:.1f}" '
            f'y2="{_TOP + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-size="11">{label}</text>'
        )

    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle" '
        f'font-size="13">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {_TOP + plot_h / 2:.1f})">{_esc(ylabel)}</text>'
    )

    for i, (label, pts) in enumerate(cleaned.items()):
        color = PALETTE[i % len(PALETTE)]
        for finite, run in itertools.groupby(pts, key=lambda p: math.isfinite(p[1] + p[2])):
            run = list(run)
            if finite and any(s > 0 for _, _, s in run):
                upper = [(sx(x), band_y(y + s)) for x, y, s in run]
                lower = [(sx(x), band_y(y - s)) for x, y, s in reversed(run)]
                band = " ".join(f"{px:.2f},{py:.2f}" for px, py in upper + lower)
                parts.append(
                    f'<polygon points="{band}" fill="{color}" opacity="0.15" stroke="none"/>'
                )
        line = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, _ in pts)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _TOP + 14 + 18 * i
        lx = _LEFT + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12">{_esc(label)}</text>'
        )

    parts.append("</svg>")
    out = Path(path)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(parts) + "\n")
    return out


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
