"""ketsim's public surface is an explicit list, so adding or removing a
public name shows as a deliberate change to this file."""

import ketsim

PUBLIC = [
    "GridWavefunction",
    "ImpossibleOutcomeError",
    "MeasurementRecord",
    "OpLog",
    "ParameterError",
    "Register",
    "SchmidtSpectrum",
    "StateVector",
    "StepFailure",
    "SubsystemSpec",
    "WeakParams",
    "amplitude",
    "apply_basis_change",
    "apply_partial_outcome",
    "apply_rotation",
    "apply_split",
    "born_probabilities",
    "controlled_phase",
    "controlled_relabel",
    "cut_entropy",
    "entropy",
    "erase_partial",
    "fidelity",
    "gaussian_packet",
    "joint_probability",
    "list_scenarios",
    "moments",
    "momentum_spectrum",
    "new_register",
    "overlap",
    "pointer_fidelities",
    "pointer_readings",
    "postselect",
    "postselect_out",
    "project",
    "read_pointer",
    "recombine_probability",
    "run_scenario",
    "schmidt",
    "superpose",
    "time_reverse",
    "weak_measure",
    "window_project",
]


def test_public_surface_is_the_listed_names():
    assert sorted(ketsim.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [n for n in ketsim.__all__ if not hasattr(ketsim, n)] == []
