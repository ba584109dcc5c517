"""A NaN or infinite weight is refused by name wherever ketsim would scale,
sample or accept by it: no call returns NaN amplitudes in its place, and a
finite amplitude whose square overflows weighs inf, not an OverflowError."""

import math

import numpy as np
import pytest

from ketsim import (
    GridWavefunction,
    ImpossibleOutcomeError,
    MeasurementRecord,
    SchmidtSpectrum,
    StateVector,
    new_register,
    postselect,
    read_pointer,
    superpose,
    window_project,
)
from ketsim.errors import conditioning_scale
from ketsim.measure import WeakJointState
from ketsim.report import make_step

REG = new_register([("s", ("u", "d"))])
UP, DOWN = (0,), (1,)


def grid_with(w):
    amps = np.ones(8)
    amps[3] = w  # x = -0.25, inside the window below
    return GridWavefunction(8, -1.0, 1.0, amps)


# (call on the bad value w, error type, message prefix with w as {w})
CASES = {
    "normalized": (
        lambda w: grid_with(w).normalized(),
        ImpossibleOutcomeError, "wavefunction to normalize has Born weight {w};",
    ),
    "window_project": (
        lambda w: window_project(grid_with(w), (-0.5, 0.5), keep_inside=True),
        ImpossibleOutcomeError, "window projection has Born weight {w};",
    ),
    "read_pointer": (
        lambda w: read_pointer(WeakJointState(REG, 8, -1.0, 1.0, (UP,), np.full((1, 8), w, dtype=complex)), 0),
        ImpossibleOutcomeError, "pointer sampling has Born weight {w};",
    ),
    "postselect": (
        lambda w: postselect(StateVector(REG, {UP: complex(w), DOWN: 1.0}), {"s": "u"}),
        ImpossibleOutcomeError, "{{'s': 'u'}} has Born weight {w};",
    ),
    "MeasurementRecord": (
        lambda w: MeasurementRecord({"s": "u"}, 0.5, StateVector(REG, {UP: complex(w)})),
        ValueError, "post state norm {w} is not 1",
    ),
    "make_step": (
        lambda w: make_step("step", distribution=("s", {"u": w, "d": 0.5})),
        ValueError, "step distribution sums to {w},",
    ),
    "SchmidtSpectrum": (lambda w: SchmidtSpectrum((w,)), ValueError, "coefficients "),
    "StateVector.normalized": (
        lambda w: StateVector(REG, {UP: complex(w), DOWN: 1.0}).normalized(),
        ValueError, "cannot normalize a state of norm {w}",
    ),
}


@pytest.mark.parametrize("w", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", CASES)
def test_a_nonfinite_weight_is_refused_by_name(case, w):
    call, error, prefix = CASES[case]
    with pytest.raises(error) as excinfo:
        call(w)
    assert str(excinfo.value).startswith(prefix.format(w=w))


# The sparse rows, and superpose, on an amplitude of 1e200: Python's float **
# overflows on its square, where the refusal must name a weight or norm of inf.
OVERFLOW_CASES = {
    "superpose": (
        lambda w: superpose(REG, [(w, {"s": "u"})]),
        ValueError, "cannot normalize a state of norm {w}",
    ),
    **{case: CASES[case] for case in ("postselect", "MeasurementRecord", "StateVector.normalized")},
}


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_an_amplitude_whose_square_overflows_weighs_inf(case):
    call, error, prefix = OVERFLOW_CASES[case]
    with pytest.raises(error) as excinfo:
        call(1e200)
    assert str(excinfo.value).startswith(prefix.format(w=math.inf))


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_conditioning_scale_refuses_every_nonfinite_weight(w):
    with pytest.raises(ImpossibleOutcomeError, match=f"^outcome has Born weight {w};"):
        conditioning_scale(w, "outcome")
