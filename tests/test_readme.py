"""README's Library example runs as written and prints what it says."""

import contextlib
import io
import os
import re

import numpy as np

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def library_snippet():
    """The python block of README's Library section."""
    with open(README) as f:
        text = f.read()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs():
    code = library_snippet()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    first = out.getvalue().splitlines()[0]
    # the interior supercell values, as the comment on that print shows them
    shown = re.search(r"print\(res\.interior\(\)\)\s*# \[(.*?)\]", code).group(1)
    want = [float(v) for v in shown.split(",")]
    assert want == [-1.0451628, -0.65411946]
    got = [float(v) for v in first.strip("[]").split()]
    assert np.allclose(got, want, rtol=0.0, atol=5e-8)
