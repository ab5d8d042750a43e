"""Tiny deterministic SVG plots.

Hand-built markup with a fixed viewport and fixed number formatting: the
same data always serializes to the same bytes, so plots can be golden-file
tested and diffed like any other report.
"""

from .complexity import COMPRESSOR

WIDTH = 640
HEIGHT = 400
MARGIN = 48

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _fmt(x):
    return f"{x:.2f}"


def _scale(xs, ys):
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def to_px(x, y):
        px = MARGIN + (x - x0) / xspan * (WIDTH - 2 * MARGIN)
        py = HEIGHT - MARGIN - (y - y0) / yspan * (HEIGHT - 2 * MARGIN)
        return px, py

    return to_px, (x0, x1, y0, y1)


def _frame(title, bounds):
    x0, x1, y0, y1 = bounds
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" '
        f'font-family="monospace" font-size="10">{_fmt(x0)}</text>',
        f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 16}" '
        f'text-anchor="end" font-family="monospace" font-size="10">'
        f"{_fmt(x1)}</text>",
        f'<text x="{MARGIN - 4}" y="{HEIGHT - MARGIN}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_fmt(y0)}</text>',
        f'<text x="{MARGIN - 4}" y="{MARGIN + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{_fmt(y1)}</text>',
    ]
    return parts


def _polyline(points, to_px, color):
    coords = " ".join(
        f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in points)
    )
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"/>'
    )


def _dots(points, to_px, color, r=3.0):
    out = []
    for x, y in points:
        px, py = to_px(x, y)
        out.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" '
            f'fill="{color}"/>'
        )
    return out


def ranking_svg(report):
    """Compressed length against rank, colored by cluster."""
    entries = report.entries
    xs = list(range(len(entries)))
    ys = [e.c_compressed for e in entries]
    to_px, bounds = _scale(xs, ys)
    parts = _frame(
        f"compressed length by rank (t={report.steps}, "
        f"{COMPRESSOR['id']})",
        bounds,
    )
    by_cluster = {}
    for x, e in zip(xs, entries):
        by_cluster.setdefault(e.cluster, []).append((x, e.c_compressed))
    for cl in sorted(by_cluster):
        color = _COLORS[cl % len(_COLORS)]
        parts.extend(_dots(by_cluster[cl], to_px, color, r=2.0))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def profile_svg(profile, title, spikes=None):
    """Profile curve over initial-condition numbers, spikes marked."""
    vals = list(profile)
    xs = list(range(len(vals)))
    to_px, bounds = _scale(xs, vals)
    parts = _frame(title, bounds)
    parts.append(_polyline(list(zip(xs, vals)), to_px, _COLORS[0]))
    if spikes:
        pts = [(j, vals[j]) for j in spikes]
        parts.extend(_dots(pts, to_px, _COLORS[1]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def transition_svg(record):
    """Transition sequence with its fitted line."""
    xs = list(range(1, len(record.S_c) + 1))
    ys = list(record.S_c)
    intercept, slope = record.fit
    fit_ys = [intercept + slope * x for x in xs]
    to_px, bounds = _scale(xs, ys + fit_ys)
    parts = _frame(
        f"rule {record.rule.rule_number}: S_c and fit "
        f"(C={format(record.C, '.4g')})",
        bounds,
    )
    parts.append(
        _polyline([(xs[0], fit_ys[0]), (xs[-1], fit_ys[-1])], to_px,
                  _COLORS[1])
    )
    parts.extend(_dots(list(zip(xs, ys)), to_px, _COLORS[0]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
