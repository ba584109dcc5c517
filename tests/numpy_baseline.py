"""Rerun test code in a child interpreter with every numpy SIMD level off.

numpy picks its loops by CPU, so a bit-identity check that passes at the
machine's best dispatch level may still fail at numpy's baseline. The child
starts with NPY_DISABLE_CPU_FEATURES naming every level in
`__cpu_dispatch__`, checks that none is still enabled, then runs the code
with `src/` and `tests/` importable.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__

_PRELUDE = f"""
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
on = [f for f in {list(__cpu_dispatch__)!r} if __cpu_features__[f]]
assert not on, f"still enabled: {{on}}"
"""


def run_at_baseline(code: str) -> str:
    """Standard output of `code` run with every dispatched level off; skips
    when this numpy dispatches none, fails when the child fails."""
    if not __cpu_dispatch__:
        pytest.skip("this numpy dispatches no SIMD level above its baseline")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__), PYTHONPATH=path)
    child = _PRELUDE + textwrap.dedent(code)
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
