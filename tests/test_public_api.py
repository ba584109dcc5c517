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


def _callers(path: Path, callee: str):
    """Qualified name (module.Class.function) of each function in `path` whose
    body, nested functions included, calls `callee` by name or as an attribute."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                calls = (n.func for n in ast.walk(child) if isinstance(n, ast.Call))
                if not isinstance(child, ast.ClassDef) and any(
                    callee in (getattr(f, "id", None), getattr(f, "attr", None)) for f in calls
                ):
                    yield name
            yield from walk(child, name)

    return walk(ast.parse(path.read_text()), path.stem)


def test_only_the_listed_functions_condition_on_a_weight():
    # Every readout conditions through measure._condition; a function that
    # refuses or scales by a weight itself brings its own rule, so it must be
    # added here on purpose.
    package = Path(ketsim.__file__).parent
    found = sorted(name for path in sorted(package.rglob("*.py")) for name in _callers(path, "conditioning_scale"))
    assert found == [
        "grid.GridWavefunction.normalized",
        "grid.gaussian_packet",
        "grid.window_project",
        "measure._condition",
        "measure._draw",
        "measure.pointer_fidelities",
    ]


def _unused_imports(path: Path):
    """Each name that `path` imports and never reads; a name listed in the
    module's __all__ counts as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(ketsim.__file__).parent
    assert [unused for path in sorted(package.rglob("*.py")) for unused in _unused_imports(path)] == []
