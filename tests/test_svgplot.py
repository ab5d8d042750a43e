import xml.etree.ElementTree as ET

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccl.svgplot import HEIGHT, MARGIN, WIDTH, plot_svg

SVG = "{http://www.w3.org/2000/svg}"

_number = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
_points = st.lists(st.tuples(_number, _number), max_size=8)
_color = st.integers(0, 4)


@settings(max_examples=200, deadline=None)
@given(title=st.text("abc =(),.0123456789-", max_size=20),
       lines=st.lists(st.tuples(_points.filter(bool), _color), max_size=3),
       dots=st.lists(st.tuples(_points, _color, st.sampled_from([1.5, 2])),
                     max_size=3))
def test_plot_draws_every_point_inside_the_margins(title, lines, dots):
    """Any mix of int and float points, empty dot lists among them, gives
    well-formed SVG: one polyline per line, one circle per dot, every
    coordinate inside the margins, and tick labels at the data's bounds."""
    drawn = [p for pts, *_ in (*lines, *dots) for p in pts]
    assume(drawn)
    root = ET.fromstring(plot_svg(title, lines, dots))
    polylines = root.findall(f"{SVG}polyline")
    circles = root.findall(f"{SVG}circle")
    assert len(polylines) == len(lines)
    assert len(circles) == sum(len(pts) for pts, _, _ in dots)
    coords = [tuple(map(float, xy.split(",")))
              for line in polylines for xy in line.get("points").split()]
    coords += [(float(c.get("cx")), float(c.get("cy"))) for c in circles]
    assert len(coords) == len(drawn)
    for x, y in coords:
        assert MARGIN <= x <= WIDTH - MARGIN
        assert MARGIN <= y <= HEIGHT - MARGIN
    xs, ys = zip(*drawn)
    labels = [t.text for t in root.findall(f"{SVG}text")]
    assert labels[0] == (title or None)
    assert labels[1:] == [f"{v:.2f}" for v in
                          (min(xs), max(xs), min(ys), max(ys))]
