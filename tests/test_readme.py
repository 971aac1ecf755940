"""The README's minimal end-to-end call runs against the current API."""

import contextlib
import io
import pathlib
import re

import numpy as np

from conftest import write_csv

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_minimal_end_to_end_call_runs(tmp_path, monkeypatch, rng):
    text = README.read_text()
    intro = text.index("A minimal end-to-end call:")
    code = re.search(r"```python\n(.*?)```", text[intro:], re.S).group(1)
    x_b = rng.normal(2, 1, size=50)
    x_a = rng.normal(2, 1, size=30)
    y_b = 1 + 2 * x_b + rng.normal(size=50)
    write_csv(tmp_path / "b.csv", ["x", "y"], zip(x_b.tolist(), y_b.tolist()))
    write_csv(tmp_path / "a.csv", ["x", "w"], [(x, 500.0) for x in x_a.tolist()])
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    theta, v_total = (float(v) for v in out.getvalue().split())
    assert np.isfinite(theta) and v_total > 0.0
