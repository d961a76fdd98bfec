"""Self-contained SVG line charts — no rendering dependencies.

line_chart emits one <polyline> per curve plus axes, tick labels, a title,
and a legend, sized to a fixed viewport. Output is deterministic for
deterministic input, so charts can be byte-compared across runs.
"""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _escape(text: str) -> str:
    """`text` with &, < and > as XML entities (xml.sax.saxutils.escape's
    output, without its import of urllib, http, email and ssl)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float, max_ticks: int) -> float:
    """Smallest 1/2/5 x 10^k step that covers the span in <= max_ticks."""
    rough = span / max_ticks
    power = 10.0 ** math.floor(math.log10(rough))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if power * mult >= rough:
            return power * mult
    return power * 10.0


def _ticks(lo: float, hi: float, max_ticks: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo, max_ticks)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:g}"


def line_chart(curves, title: str, x_label: str, y_label: str,
               width: int = 880, height: int = 460) -> str:
    """Render curves — (label, xs, ys) triples — into an SVG document.

    Curves with an empty label get a line but no legend entry (useful for
    many same-styled segments sharing one entry).
    """
    if not curves:
        raise ValueError("line_chart needs at least one curve")
    for label, xs, ys in curves:
        if len(xs) != len(ys) or len(xs) == 0:
            raise ValueError(f"curve {label!r}: xs and ys must be equal-length, non-empty")

    x_lo = min(min(xs) for _, xs, _ in curves)
    x_hi = max(max(xs) for _, xs, _ in curves)
    y_lo = min(min(ys) for _, _, ys in curves)
    y_hi = max(max(ys) for _, _, ys in curves)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        pad = 0.5 if y_lo == 0 else abs(y_lo) * 0.1
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad

    left, right, top, bottom = 72, 24, 44, 52
    plot_w = width - left - right
    plot_h = height - top - bottom

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">'
        f'{_escape(title)}</text>',
    ]

    # Gridlines and tick labels.
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
                     f'y2="{y:.1f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in _ticks(x_lo, x_hi, 8):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" '
                     f'y2="{top + plot_h}" stroke="#eeeeee" stroke-width="1"/>')
        parts.append(f'<text x="{x:.1f}" y="{top + plot_h + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(t)}</text>')

    # Axes on top of the grid.
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
                 f'stroke="black" stroke-width="1.5"/>')
    parts.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
                 f'y2="{top + plot_h}" stroke="black" stroke-width="1.5"/>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13">'
                 f'{_escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">'
                 f'{_escape(y_label)}</text>')

    legend_entries = []
    color_index = 0
    last_color = PALETTE[0]
    for label, xs, ys in curves:
        if label:
            color = PALETTE[color_index % len(PALETTE)]
            color_index += 1
            last_color = color
            legend_entries.append((label, color))
        else:
            color = last_color  # unlabeled curves share the previous style
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
                     f'points="{points}"/>')

    lx = left + plot_w - 150
    ly = top + 10
    for i, (label, color) in enumerate(legend_entries):
        y = ly + i * 18
        parts.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 22}" y2="{y}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{y + 4}" font-family="sans-serif" '
                     f'font-size="12">{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
