"""Inline-SVG chart primitives for the explain page.

Pure string assembly, stdlib only.  Every chart draws one series
(pages use small multiples rather than cycling a palette), takes its
colors from CSS custom properties (``--viz-*``) so one stylesheet gives
light and dark mode, and ships native ``<title>`` tooltips on every
mark.  Marks follow the house chart spec: 2px lines, rounded bar
data-ends anchored to the baseline, recessive grid, text in ink tokens
rather than the series color.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterable, Sequence

from ._page import _esc

__all__ = ["bar_rows", "series_chart"]

# Layout constants (pixels).
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 14
_MARGIN_BOTTOM = 40
_BAR_RADIUS = 4


def _fmt(value: float) -> str:
    """Compact tick/tooltip number format."""
    if value != value:  # NaN
        return "nan"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e6 or magnitude < 1e-3:
        return f"{value:.2e}"
    if magnitude >= 100:
        return f"{value:,.0f}"
    if magnitude >= 1:
        return f"{value:,.3g}"
    return f"{value:.4g}"


def _nice_ticks(lo: float, hi: float, count: int = 5) -> "list[float]":
    """Round tick positions covering [lo, hi] (1/2/5 steps)."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    span = hi - lo
    raw_step = span / max(count - 1, 1)
    power = 10 ** math.floor(math.log10(raw_step))
    for mult in (1, 2, 5, 10):
        step = mult * power
        if step >= raw_step:
            break
    first = math.floor(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 0.5:
        ticks.append(round(value, 12))
        value += step
    return ticks


def _y_scale(values: "Iterable[float]") -> "tuple[float, float, list[float]]":
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        finite = [0.0, 1.0]
    lo, hi = min(finite), max(finite)
    lo = min(lo, 0.0) if lo > 0 else lo  # anchor bars/areas at zero
    ticks = _nice_ticks(lo, hi)
    return ticks[0], ticks[-1], ticks


def _frame(
    width: int, height: int, ticks: "list[float]", to_y, title: str
) -> "list[str]":
    """Chart shell: title, horizontal gridlines, y tick labels."""
    parts = [
        f'<svg class="viz-chart" role="img" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" '
        f'aria-label="{_esc(title)}">',
        f"<title>{_esc(title)}</title>",
    ]
    for tick in ticks:
        y = to_y(tick)
        parts.append(
            f'<line class="viz-grid" x1="{_MARGIN_LEFT}" y1="{y:.1f}" '
            f'x2="{width - _MARGIN_RIGHT}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text class="viz-tick" x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" '
            f'text-anchor="end">{_esc(_fmt(tick))}</text>'
        )
    return parts


def _rounded_bar(x: float, y_top: float, w: float, y_base: float) -> str:
    """Bar path with a rounded data-end, flat against the baseline."""
    r = min(_BAR_RADIUS, w / 2, max(y_base - y_top, 0.0))
    if r <= 0.5:
        return (
            f'M {x:.1f} {y_base:.1f} H {x + w:.1f} V {y_top:.1f} '
            f'H {x:.1f} Z'
        )
    return (
        f'M {x:.1f} {y_base:.1f} '
        f'V {y_top + r:.1f} Q {x:.1f} {y_top:.1f} {x + r:.1f} {y_top:.1f} '
        f'H {x + w - r:.1f} Q {x + w:.1f} {y_top:.1f} {x + w:.1f} {y_top + r:.1f} '
        f'V {y_base:.1f} Z'
    )


def series_chart(
    x: Sequence,
    y: "Sequence[float]",
    *,
    title: str,
    units: str = "",
    lower: "Sequence[float] | None" = None,
    upper: "Sequence[float] | None" = None,
    width: int = 560,
    height: int = 260,
) -> str:
    """One series: a 2px line (+ confidence band, markers) over a numeric
    ``x``, else rounded-top bars (+ error bars) over categories."""
    numeric = bool(x) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in x
    )
    bounds = lower is not None and upper is not None
    y_lo, y_hi, ticks = _y_scale([*y, *(lower or ()), *(upper or ())])
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM
    suffix = f" {units}" if units else ""
    base_y = height - _MARGIN_BOTTOM + 16

    def to_y(v: float) -> float:
        return _MARGIN_TOP + plot_h * (1 - (v - y_lo) / (y_hi - y_lo))

    parts = _frame(width, height, ticks, to_y, title)
    if numeric:
        xs = [float(v) for v in x]
        x_lo, x_hi = min(xs), max(xs)
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0

        def to_x(v: float) -> float:
            return _MARGIN_LEFT + plot_w * (v - x_lo) / (x_hi - x_lo)

        for tick in _nice_ticks(x_lo, x_hi, count=6):
            if x_lo <= tick <= x_hi:
                parts.append(
                    f'<text class="viz-tick" x="{to_x(tick):.1f}" y="{base_y}" '
                    f'text-anchor="middle">{_esc(_fmt(tick))}</text>'
                )
        if bounds and len(lower) == len(xs):
            band = [f"{to_x(xv):.1f},{to_y(uv):.1f}" for xv, uv in zip(xs, upper)]
            band += [
                f"{to_x(xv):.1f},{to_y(lv):.1f}"
                for xv, lv in zip(reversed(xs), reversed(lower))
            ]
            parts.append(f'<polygon class="viz-band" points="{" ".join(band)}"/>')
        points = " ".join(f"{to_x(xv):.1f},{to_y(yv):.1f}" for xv, yv in zip(xs, y))
        parts.append(f'<polyline class="viz-line" points="{points}"/>')
        if len(xs) <= 30:  # markers only while they stay individually readable
            for xv, yv in zip(xs, y):
                parts.append(
                    f"<g><title>{_esc(f'x={_fmt(xv)}: {_fmt(yv)}{suffix}')}</title>"
                    f'<circle class="viz-marker" cx="{to_x(xv):.1f}" '
                    f'cy="{to_y(yv):.1f}" r="4"/></g>'
                )
    else:
        labels = [str(v) for v in x] if x else [str(i) for i in range(len(y))]
        slot = plot_w / max(len(y), 1)
        bar_w = min(max(slot * 0.6, 6.0), 64.0)
        y_base = to_y(max(y_lo, 0.0))
        for i, value in enumerate(y):
            bx = _MARGIN_LEFT + slot * i + (slot - bar_w) / 2
            cx = bx + bar_w / 2
            tip = f"{labels[i]}: {_fmt(value)}{suffix}"
            if bounds:
                tip += f" [{_fmt(lower[i])}, {_fmt(upper[i])}]"
            parts.append(
                f"<g><title>{_esc(tip)}</title><path class=\"viz-bar\" "
                f'd="{_rounded_bar(bx, to_y(value), bar_w, y_base)}"/>'
            )
            if bounds:
                lo_y, hi_y = to_y(lower[i]), to_y(upper[i])
                parts.append(
                    f'<line class="viz-errorbar" x1="{cx:.1f}" y1="{lo_y:.1f}" '
                    f'x2="{cx:.1f}" y2="{hi_y:.1f}"/>'
                )
                for cap_y in (lo_y, hi_y):
                    parts.append(
                        f'<line class="viz-errorbar" x1="{cx - 4:.1f}" '
                        f'y1="{cap_y:.1f}" x2="{cx + 4:.1f}" y2="{cap_y:.1f}"/>'
                    )
            parts.append(
                f'</g><text class="viz-tick" x="{cx:.1f}" y="{base_y}" '
                f'text-anchor="middle">{_esc(labels[i])}</text>'
            )
    if units:
        parts.append(
            f'<text class="viz-tick" x="{_MARGIN_LEFT}" y="{height - 6}" '
            f'text-anchor="start">{_esc(units)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def bar_rows(
    bars: "Iterable[tuple[int, float, float, str, str, str]]",
    *,
    n_rows: int,
    width: int,
    row_h: int,
    label: str,
    left: int = 0,
    top: int = 0,
    under: "Sequence[str]" = (),
    over: "Sequence[str]" = (),
) -> str:
    """Horizontal bars on indexed rows: the span Gantt (a row per span)
    and the flamegraph icicle (a row per stack depth).

    Each bar is ``(row, x, w, fill, tooltip, text)`` with ``x``/``w`` in
    pixels right of the ``left`` gutter; ``text`` is drawn inside the
    bar when it fits.  ``under``/``over`` are marks drawn before/after
    the bars (grid and gutter labels, event dots).
    """
    height = top + n_rows * row_h + 4
    parts = [
        f'<svg class="viz-chart" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" '
        f'aria-label="{_esc(label)}">',
        *under,
    ]
    for row, x, w, fill, tooltip, text in bars:
        y = top + row * row_h
        parts.append(
            f'<rect x="{left + x:.2f}" y="{y}" width="{w:.2f}" '
            f'height="{row_h - 2}" rx="2" fill="{fill}">'
            f"<title>{_esc(tooltip)}</title></rect>"
        )
        if text and w > 40:
            max_chars = int(w / 6.5)
            if len(text) > max_chars:
                text = text[: max_chars - 1] + "…"
            parts.append(
                f'<text class="viz-row-label" x="{left + x + 4:.2f}" '
                f'y="{y + row_h - 6}">{_esc(text)}</text>'
            )
    parts += over
    parts.append("</svg>")
    return "".join(parts)
