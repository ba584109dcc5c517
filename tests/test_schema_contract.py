"""Every parameter set a scenario's ParamSpec schema admits ends in a report,
a ParameterError or a StepFailure, never in another exception.

Hypothesis draws each parameter from its schema range (or takes its
default), with the work-count parameters n_shots, singles and cycles capped
so the draws stay quick. The draws run in a child interpreter under its own
address-space limit, so a draw that grows without bound fails this test
instead of taking the test runner down. A draw that raises is run a second
time and must raise the same error again: nothing an invalid argument
causes may be remembered between runs.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ketsim import ParameterError, run_scenario
from ketsim.scenarios import StepFailure, catalog

# Work-count parameters are drawn at most this large.
CAPS = {"n_shots": 2000, "singles": 50, "cycles": 24}
# Draws per scenario.
EXAMPLES = 40
# Address-space limit of the child interpreter that runs the draws.
CHILD_AS_BYTES = 1 << 30


def _spec_values(spec):
    if spec.kind == "int":
        high = CAPS.get(spec.name, spec.high)
        ranged = st.integers(min_value=int(spec.low), max_value=int(high))
    else:
        ranged = st.floats(
            min_value=spec.low,
            max_value=spec.high,
            exclude_min=spec.low is not None and spec.low_open,
            exclude_max=spec.high is not None and spec.high_open,
            allow_nan=False,
            allow_infinity=False,
        )
    return st.one_of(st.just(spec.default), ranged)


def _draws(name):
    specs = catalog()[name].params
    return st.fixed_dictionaries({p.name: _spec_values(p) for p in specs})


def _outcome(name, params, seed):
    try:
        run_scenario(name, params, seed=seed)
    except (ParameterError, StepFailure) as exc:
        return type(exc), str(exc)
    return None


def check_scenario(name):
    @settings(max_examples=EXAMPLES, deadline=None, database=None, derandomize=True)
    @given(params=_draws(name), seed=st.integers(0, 2**16))
    def draw(params, seed):
        first = _outcome(name, params, seed)
        if first is not None:
            assert _outcome(name, params, seed) == first, (name, params, seed)

    draw()


def run_all():
    """Every scenario's draws; run in the child interpreter."""
    for name in catalog():
        check_scenario(name)
    print("checked", len(catalog()))


def test_a_pointer_too_wide_to_resolve_is_a_step_failure():
    # Its amplitudes fall below the 1e-15 prune floor, so a reading can
    # have no weight left; that is an impossible outcome of a named step.
    with pytest.raises(StepFailure, match="gentle single shots"):
        run_scenario("weak_ensemble", {"sigma_single": 6.100974799973683e27})


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def test_every_schema_draw_ends_in_a_report_or_a_named_error():
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", "import test_schema_contract as t; t.run_all()"],
        env=env, capture_output=True, text=True, timeout=600, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.split() == ["checked", str(len(catalog()))]
