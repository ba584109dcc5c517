"""ketsim's public surface is an explicit list, so adding or removing a
public name shows as a deliberate change to this file. Scenarios use the
engine only through public names, so a private helper can change without a
scenario depending on it."""

import ast
from pathlib import Path

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


def _engine_imports(path: Path):
    """(module, name) for each name a scenario module imports from a ketsim
    module outside ketsim.scenarios."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 2:
            module = f"ketsim.{module}".rstrip(".")
        elif node.level:
            continue
        if module.startswith("ketsim") and not module.startswith("ketsim.scenarios"):
            yield from ((module, alias.name) for alias in node.names)


def test_scenarios_import_only_public_engine_names():
    scenarios = Path(ketsim.__file__).parent / "scenarios"
    paths = sorted(scenarios.glob("*.py"))
    assert paths
    private = [
        f"{path.name}: {module}.{name}"
        for path in paths
        for module, name in _engine_imports(path)
        if name.startswith("_")
    ]
    assert private == []
