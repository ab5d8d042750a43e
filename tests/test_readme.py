"""The library quick start in README.md runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_prints_the_diagram_shape():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines()[0] == "(201, 403)"
