"""The README's library example runs as printed, and its list of key entry
points names only what `ketsim` exports."""

import contextlib
import io
import re
from pathlib import Path

import ketsim

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_prints_its_three_values():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = [float(line) for line in out.getvalue().splitlines()]
    assert len(printed) == 3
    for got, want in zip(printed, (1.0, 0.5, 0.5)):
        assert abs(got - want) <= 1e-12


def test_key_entry_points_are_exported():
    paragraph = README.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", paragraph)
    assert "time_reverse" in names and "OpLog" in names
    assert [n for n in names if n not in ketsim.__all__] == []
