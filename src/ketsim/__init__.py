"""Sparse state-vector toolkit for small labeled quantum systems.

Registers hold named subsystems with named basis labels; states are sparse
complex maps over joint assignments.  Evolution primitives (splits,
rotations, basis changes, conditional relabels and phases) are unitary and
exactly reversible through an operation log.  Measurement utilities cover
Born statistics, projections, postselection, partial-readout outcomes and
their erasure, and pointer-based weak readout; entanglement utilities cover
Schmidt spectra and entropies.  A scenario catalog packages multi-stage
thought experiments behind one reporting interface and a CLI.
"""

from .entangle import (
    SchmidtSpectrum,
    cut_entropy,
    entropy,
    schmidt,
)
from .errors import ImpossibleOutcomeError, ParameterError
from .evolve import (
    OpLog,
    apply_basis_change,
    apply_rotation,
    apply_split,
    controlled_phase,
    controlled_relabel,
    time_reverse,
)
from .grid import (
    GridWavefunction,
    gaussian_packet,
    moments,
    momentum_spectrum,
    window_project,
)
from .measure import (
    MeasurementRecord,
    WeakParams,
    apply_partial_outcome,
    born_probabilities,
    erase_partial,
    joint_probability,
    pointer_fidelities,
    pointer_readings,
    postselect,
    postselect_out,
    project,
    read_pointer,
    recombine_probability,
    weak_measure,
)
from .register import (
    Register,
    StateVector,
    SubsystemSpec,
    amplitude,
    fidelity,
    new_register,
    overlap,
    superpose,
)
from .scenarios import StepFailure, list_scenarios, run_scenario

__all__ = [
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

__version__ = "0.1.0"
