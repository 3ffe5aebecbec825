"""The README's Python example runs as written (N = 64, 20 001 times)."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    ts, xt, var, lo, hi = (scope[k] for k in ("ts", "xt", "var", "lo", "hi"))
    assert ts.size == 20001 and xt.shape == var.shape == lo.shape == hi.shape == ts.shape
    assert np.isfinite(xt).all() and (var > 0).all() and (lo <= hi).all()
    assert abs(xt[0] - 25.0) < 1e-6  # <x>(0) = x0
