"""Rerun test code in a child interpreter on other kernels than this CPU's best.

numpy picks its SIMD loops, and OpenBLAS its kernel, by CPU, so a
bit-identity check that passes with the machine's best choice may still fail
on another. `run_at_baseline` starts the child with NPY_DISABLE_CPU_FEATURES
naming every level in `__cpu_dispatch__` and checks that none is still
enabled; `run_on_openblas_core` forces one OpenBLAS kernel and checks that
OpenBLAS reports it. Either then runs the code with `src/` and `tests/`
importable.
"""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_PRELUDE = f"""
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
on = [f for f in {list(__cpu_dispatch__)!r} if __cpu_features__[f]]
assert not on, f"still enabled: {{on}}"
"""


def _run_child(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run `code` with `src/` and `tests/` importable and `env` set; fails when the child fails."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_at_baseline(code: str) -> str:
    """Standard output of `code` run with every dispatched level off; skips
    when this numpy dispatches none, fails when the child fails."""
    if not __cpu_dispatch__:
        pytest.skip("this numpy dispatches no SIMD level above its baseline")
    child = _PRELUDE + textwrap.dedent(code)
    return _run_child(child, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__)).stdout


def run_on_openblas_core(core: str, code: str) -> str:
    """Standard output of `code` run with OpenBLAS forced to the x86-64 kernel
    `core`; skips off x86-64 and when numpy's BLAS reports no OpenBLAS core,
    fails when the child fails or runs another core."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS core {core} is an x86-64 kernel")
    proc = _run_child(textwrap.dedent(code), OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2")
    cores = [line for line in proc.stderr.splitlines() if line.startswith("Core")]
    if not cores:
        pytest.skip("numpy's BLAS reports no OpenBLAS core")
    assert cores == [f"Core: {core}"], proc.stderr
    return proc.stdout
