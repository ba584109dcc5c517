"""The three benchmark workloads: input lists, one pass over them, and checks.

One op is one scenario report.  `catalog_pass` does what `ketsim run` does
for each input: run, serialize to JSON, write to standard output.  The two
sweep workloads do what `ketsim sweep --out FILE` does: one report per
point, then one sweep CSV per pass, written atomically to the file.

Every check here recomputes the expected value from the input parameters
(closed forms, the central-limit bound, the reciprocal-width law) and never
compares against stored output of an earlier run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import ketsim
from ketsim import report as kreport

CATALOG = "catalog_pass"
WEAK = "weak_sweep"
DICKE = "dicke_sweep"

OUT_DIR = ".perfbench_out"

# catalog_pass: the twelve scenarios other than weak_ensemble, at their
# defaults and at in-schema points that pass every check.  The extra points
# are chosen so that the per-report latencies around the 50th and 90th
# percentiles form dense clusters (see README, "Percentiles").
CATALOG_INPUTS = (
    ("qo_core", {}),
    ("hardy_ci", {}),
    ("atom_collision", {}),
    ("oblivion_with_pointers", {}),
    ("ghostly_mirror", {}),
    ("zeno_basic", {}),
    ("zeno_basic", {"alpha": 0.0785}),
    ("zeno_basic", {"alpha": 0.0628}),
    ("zeno_counterfactual", {}),
    ("zeno_counterfactual", {"alpha": 0.05}),
    ("zeno_counterfactual", {"alpha": 0.06}),
    ("zeno_ghost_entanglement", {}),
    ("zeno_ghost_entanglement", {"alpha": 0.05}),
    ("zeno_ghost_entanglement", {"alpha": 0.1}),
    ("partial_erasure", {}),
    ("partial_erasure", {"eps": 0.1, "target": 0.95}),
    ("partial_erasure", {"eps": 0.05, "target": 0.999}),
    ("quantum_erasure", {}),
    ("quantum_erasure", {"points": 16}),
    ("quantum_erasure", {"points": 24}),
    ("dicke_tray_spoon", {}),
    ("dicke_tray_spoon", {"l_spoon": 0.1}),
    ("dicke_tray_spoon", {"l_spoon": 0.08}),
    ("ab_toy", {}),
    ("ab_toy", {"d": 5}),
    ("ab_toy", {"d": 8, "phi": 2.0}),
)

# weak_sweep: `ketsim sweep weak_ensemble --param g=0.5:1.5:10` at a reduced
# shot count.  singles stays at its default of 200: at 50 the gentleness
# threshold (mean fidelity >= 0.999) sits only 2.1 standard errors below the
# expected 0.99930 at g=1.5 and fails on about 2% of seeds.
WEAK_SHOTS = {"n_shots": 1000, "singles": 200}
WEAK_RANGE = (0.5, 1.5, 10)

# dicke_sweep: `ketsim sweep dicke_tray_spoon --param l_spoon=0.1:0.01:20`.
DICKE_RANGE = (0.1, 0.01, 20)
# The scenario's automatic faraway weight, eps = slope * l_spoon / l_tray.
DICKE_AUTO_EPS_SLOPE = 0.43

# Scenario seeds tried for weak_sweep: the workload seed, then the next ones.
# The scenario's ensemble-mean check is a 3-sigma bound, so about one seed in
# 370 fails it on a correct run.  A seed on which only these sampling-based
# checks fail is skipped; any other failing check is kept and counted.
WEAK_SEED_TRIES = 20
WEAK_SAMPLING_CHECKS = {"ensemble_mean", "single_shot_fidelity"}


def linspace(start: float, stop: float, steps: int) -> list[float]:
    """The sweep points `ketsim sweep` uses (numpy.linspace, as floats)."""
    import numpy as np

    return [float(v) for v in np.linspace(start, stop, steps)]


@dataclass(frozen=True)
class Input:
    scenario: str
    params: dict
    seed: int


@dataclass
class Workload:
    """A fixed input list; sweep is the swept parameter name, or None."""

    name: str
    inputs: tuple
    sweep: str | None

    def csv_path(self, root: str) -> str | None:
        """Where a sweep pass writes its CSV, as `ketsim sweep --out` would."""
        if self.sweep is None:
            return None
        return os.path.join(root, OUT_DIR, f"{self.name}.csv")


def build(name: str, seed: int) -> Workload:
    """The workload's input list, every report at scenario seed `seed`."""
    if name == CATALOG:
        return Workload(name, tuple(Input(s, dict(p), seed) for s, p in CATALOG_INPUTS), None)
    if name == WEAK:
        inputs = tuple(
            Input("weak_ensemble", {"g": g, **WEAK_SHOTS}, seed) for g in linspace(*WEAK_RANGE)
        )
        return Workload(name, inputs, "g")
    if name == DICKE:
        inputs = tuple(
            Input("dicke_tray_spoon", {"l_spoon": v}, seed) for v in linspace(*DICKE_RANGE)
        )
        return Workload(name, inputs, "l_spoon")
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class PassResult:
    latencies: list  # seconds per report, in input order
    reports: list  # ScenarioReport per input
    texts: list  # catalog: JSON text per input; sweeps: [CSV text]
    seconds: float  # the whole pass, sweep CSV included


def run_pass(wl: Workload, csv_path: str | None) -> PassResult:
    """One pass over the inputs, the way the CLI would run them.

    Catalog reports go to standard output, as `ketsim run` does without
    --out; the caller points standard output where it wants them.
    """
    latencies, reports, texts = [], [], []
    clock = time.perf_counter
    start = clock()
    if wl.sweep is None:
        for inp in wl.inputs:
            t0 = clock()
            report = ketsim.run_scenario(inp.scenario, inp.params, seed=inp.seed)
            text = kreport.report_to_json(report)
            kreport.write_output(text, None)
            latencies.append(clock() - t0)
            reports.append(report)
            texts.append(text)
    else:
        points = []
        for inp in wl.inputs:
            t0 = clock()
            report = ketsim.run_scenario(inp.scenario, inp.params, seed=inp.seed)
            latencies.append(clock() - t0)
            reports.append(report)
            points.append((inp.params[wl.sweep], report))
        text = kreport.sweep_to_csv(wl.sweep, points)
        kreport.write_output(text, csv_path)
        texts.append(text)
    return PassResult(latencies, reports, texts, clock() - start)


# ---------------------------------------------------------------- checks


def _check(doc: dict, name: str) -> dict:
    for c in doc["checks"]:
        if c["name"] == name:
            return c
    raise KeyError(f"report has no check {name!r}")


def _event(doc: dict, step: str, name: str) -> float:
    for s in doc["steps"]:
        if s["label"] == step:
            return s["events"][name]
    raise KeyError(f"report has no step {step!r}")


def _close(problems: list, what: str, actual: float, expected: float, tol: float) -> None:
    if not abs(actual - expected) <= tol:
        problems.append(f"{what}: {actual!r} is not within {tol:g} of {expected!r}")


def _zeno_cycles(alpha: float, cycles: int) -> int:
    """Cycle count the zeno scenarios resolve: a quarter turn when cycles is 0."""
    return cycles if cycles > 0 else math.ceil(math.pi / (2.0 * alpha) - 1e-9)


def _verify_catalog(doc: dict, inp: Input, problems: list) -> None:
    p = doc["params"]
    if inp.scenario == "zeno_basic":
        n = _zeno_cycles(p["alpha"], p["cycles"])
        _close(problems, "zeno_basic cycles_run", _event(doc, "interrogation cycles", "cycles_run"), n, 0)
        _close(problems, "zeno_basic survival cos(alpha)^(2n)",
               _check(doc, "survival_probability")["actual"], math.cos(p["alpha"]) ** (2 * n), 1e-12)
    elif inp.scenario == "hardy_ci":
        root5 = math.sqrt(5.0)
        _close(problems, "hardy_ci Schmidt major (3+sqrt5)/6",
               _check(doc, "schmidt_major")["actual"], (3 + root5) / 6, 1e-12)
        _close(problems, "hardy_ci Schmidt minor (3-sqrt5)/6",
               _check(doc, "schmidt_minor")["actual"], (3 - root5) / 6, 1e-12)
    elif inp.scenario == "partial_erasure":
        eps, t = p["eps"], p["target"]
        k = math.ceil(math.log(t / (1 - t)) / -math.log(1 - eps))
        _close(problems, "partial_erasure iterations", _event(doc, "null-result walk", "iterations"), k, 0)


def _verify_weak(doc: dict, inp: Input, problems: list) -> None:
    p = doc["params"]
    g, sigma, n = p["g"], p["sigma"], p["n_shots"]
    # Readings are an equal mixture of N(+g, sigma^2/2) and N(-g, sigma^2/2).
    se = math.sqrt(sigma * sigma / 2.0 + g * g) / math.sqrt(n)
    _close(problems, "weak_ensemble mean reading (3 standard errors)",
           _event(doc, "ensemble readings", "mean_reading"), 0.0, 3.0 * se)
    s1 = p["sigma_single"]
    _close(problems, "weak_ensemble mean single-shot fidelity",
           _event(doc, "gentle single shots", "mean_fidelity"),
           0.5 * (1.0 + math.exp(-g * g / (4.0 * s1 * s1))), 0.002)


def _dicke_ratio_misses(doc: dict) -> bool:
    """True when momentum_std_ratio is off the reciprocal-width law by over 20%."""
    p = doc["params"]
    law = p["l_tray"] / p["l_spoon"]
    ratio = _event(doc, "watched region stays empty", "momentum_std_ratio")
    return not abs(ratio - law) <= 0.2 * law


def _verify_dicke(doc: dict, inp: Input, problems: list) -> None:
    p = doc["params"]
    for name in ("parseval_pre", "parseval_post"):
        _close(problems, f"dicke {name}", _check(doc, name)["actual"], 1.0, 1e-9)
    eps = p["eps"] if p["eps"] > 0 else DICKE_AUTO_EPS_SLOPE * p["l_spoon"] / p["l_tray"]
    step = "watched region stays empty"
    _close(problems, "dicke eps_used", _event(doc, step, "eps_used"), eps, 1e-15)
    h = p["window_halfwidth"]
    _close(problems, "dicke p_null_outcome (1-eps^2)erfc(h)+eps^2",
           _event(doc, step, "p_null_outcome"), (1 - eps * eps) * math.erfc(h) + eps * eps, 1e-5)


_VERIFY = {CATALOG: _verify_catalog, WEAK: _verify_weak, DICKE: _verify_dicke}


def verify_report(workload: str, text: str, inp: Input) -> tuple[bool, list]:
    """(op failed, problems) for one report's JSON text.

    An op fails when its report fails one of its own checks, as `ketsim`
    signals with exit code 1.  A problem is any disagreement with the values
    computed here; a failed dicke op must fail exactly the momentum-width
    check, and only where this module also finds the ratio off the law.
    """
    problems: list[str] = []
    doc = json.loads(text)
    if doc["scenario"] != inp.scenario or doc["seed"] != inp.seed:
        problems.append(f"report is for {doc['scenario']!r} seed {doc['seed']!r}")
    for k, v in inp.params.items():
        if doc["params"].get(k) != v:
            problems.append(f"param {k}: report has {doc['params'].get(k)!r}, input {v!r}")
    failing = [c["name"] for c in doc["checks"] if not c["passed"]]
    if doc["all_passed"] != (not failing):
        problems.append("all_passed disagrees with the checks")
    _VERIFY[workload](doc, inp, problems)
    if workload == DICKE:
        expected = ["momentum_std_ratio"] if _dicke_ratio_misses(doc) else []
        if failing != expected:
            problems.append(f"failing checks {failing}, expected {expected}")
    return bool(failing), problems
