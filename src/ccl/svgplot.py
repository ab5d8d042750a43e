"""Tiny deterministic SVG plots.

Hand-built markup with a fixed viewport and fixed number formatting: the
same data always serializes to the same bytes, so plots can be golden-file
tested and diffed like any other report.
"""

WIDTH = 640
HEIGHT = 400
MARGIN = 48

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _text(x, y, text, size=10, anchor=None):
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="monospace" '
            f'font-size="{size}">{text}</text>')


def _line(x1, y1, x2, y2):
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black"/>'


def plot_svg(title, lines=(), dots=()):
    """A plot of each ``(points, color)`` of ``lines`` as a polyline, then
    each ``(points, color, r)`` of ``dots`` as circles of radius ``r``.  The
    axes span every point drawn; a color is an index into the palette."""
    xs, ys = zip(*(p for pts, *_ in (*lines, *dots) for p in pts))
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    xspan, yspan = (x1 - x0) or 1.0, (y1 - y0) or 1.0
    right, bottom = WIDTH - MARGIN, HEIGHT - MARGIN

    def px(x, y):
        return (f"{MARGIN + (x - x0) / xspan * (WIDTH - 2 * MARGIN):.2f}",
                f"{bottom - (y - y0) / yspan * (HEIGHT - 2 * MARGIN):.2f}")

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
             _text(WIDTH // 2, 20, title, 13, "middle"),
             _line(MARGIN, bottom, right, bottom),
             _line(MARGIN, MARGIN, MARGIN, bottom),
             _text(MARGIN, bottom + 16, f"{x0:.2f}"),
             _text(right, bottom + 16, f"{x1:.2f}", anchor="end"),
             _text(MARGIN - 4, bottom, f"{y0:.2f}", anchor="end"),
             _text(MARGIN - 4, MARGIN + 4, f"{y1:.2f}", anchor="end")]
    for pts, c in lines:
        coords = " ".join(",".join(px(x, y)) for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{_COLORS[c]}" stroke-width="1.5"/>')
    for pts, c, r in dots:
        for cx, cy in (px(x, y) for x, y in pts):
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r:.2f}" '
                         f'fill="{_COLORS[c]}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
