"""Tiny deterministic SVG plots.

Hand-built markup with a fixed viewport and fixed number formatting: the
same data always serializes to the same bytes, so plots can be golden-file
tested and diffed like any other report.
"""

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


def _dots(points, to_px, color, r):
    out = []
    for x, y in points:
        px, py = to_px(x, y)
        out.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(r)}" '
            f'fill="{color}"/>'
        )
    return out


def plot_svg(title, lines=(), dots=()):
    """A plot of each ``(points, color)`` of ``lines`` as a polyline, then
    each ``(points, color, r)`` of ``dots`` as circles of radius ``r``.  The
    axes span every point drawn; a color is an index into the palette."""
    xs, ys = zip(*(p for pts, *_ in (*lines, *dots) for p in pts))
    to_px, bounds = _scale(xs, ys)
    parts = _frame(title, bounds)
    parts += [_polyline(pts, to_px, _COLORS[c]) for pts, c in lines]
    for pts, c, r in dots:
        parts += _dots(pts, to_px, _COLORS[c], r)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
