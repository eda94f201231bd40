"""Hand-rolled SVG line plots; enough for coverage-versus-day curves."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_WIDTH, _HEIGHT = 640, 400


def write_line_plot(
    path,
    series: dict[str, Sequence[tuple[float, float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    y_range: tuple[float, float] | None = None,
) -> None:
    """Write one SVG with a line per named series of (x, y) points."""
    margin = 56
    plot_w, plot_h = _WIDTH - 2 * margin, _HEIGHT - 2 * margin

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    if y_range is not None:
        y_lo, y_hi = y_range
    else:
        y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _HEIGHT - margin - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#888"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 12}" text-anchor="middle" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {_HEIGHT / 2})">{y_label}</text>'
        )
    for tick in range(5):
        frac = tick / 4
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{margin - 6}" y="{py(yv) + 4}" text-anchor="end" font-size="10">{yv:.2f}</text>'
        )
        xv = x_lo + frac * (x_hi - x_lo)
        parts.append(
            f'<text x="{px(xv)}" y="{_HEIGHT - margin + 14}" text-anchor="middle" font-size="10">{xv:.0f}</text>'
        )

    for i, (name, pts) in enumerate(sorted(series.items())):
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{_WIDTH - margin - 4}" y="{margin + 14 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
