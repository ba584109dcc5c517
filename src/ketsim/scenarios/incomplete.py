"""Incomplete-measurement scenarios: biased nulls, gentle pointers.

A partial detector that keeps not clicking walks a superposition toward one
branch without ever collapsing it; one more deliberately tuned null walks
it back. A pointer far wider than its kick barely disturbs the system, yet
an ensemble of readings still recovers the observable's mean. Expected
values are geometric-series closed forms, Gaussian-overlap closed forms,
and central-limit bounds.
"""

from __future__ import annotations

import cmath
import math

from ..errors import ParameterError
from ..measure import (
    WeakParams,
    apply_partial_outcome,
    born_probabilities,
    erase_partial,
    pointer_fidelities,
    pointer_readings,
    read_pointer,
    weak_measure,
)
from ..register import fidelity, fold_sum, new_register, superpose
from ..report import Check, make_step
from . import ParamSpec, Scenario, guard, scenario_rng

# Fixed relative phase carried through the null-result walk; restoring it is
# part of the claim, so it must not be zero.
_PHASE = 0.7
# Most null steps partial_erasure walks; inputs that need more are refused.
_MAX_WALK_STEPS = 100000


def _run_partial_erasure(params, seed):
    name = "partial_erasure"
    eps = params["eps"]
    target = params["target"]
    reg = new_register([("spin", ("up", "down"))])
    # sqrt(0.5) weights round up to 0.5000000000000001 (normalizing would round
    # them down), so target=0.5 takes no step, as the closed form says.
    amp = math.sqrt(0.5)
    initial = superpose(
        reg,
        [(amp, {"spin": "up"}), (amp * cmath.exp(1j * _PHASE), {"spin": "down"})],
        normalize=False,
    )
    steps = [make_step("balanced preparation", initial, distribution=("spin", born_probabilities(initial, "spin")))]
    checks = []

    q = 1.0 - eps
    rate = -math.log(q)
    # 1 - eps rounds to 1 for eps below about 1.1e-16: no step moves the state
    k_expected = math.ceil(math.log(target / (1.0 - target)) / rate - 1e-9) if rate else math.inf
    if k_expected > _MAX_WALK_STEPS:
        raise ParameterError(
            f"reaching target={target:g} at eps={eps:g} needs {k_expected} null steps;"
            f" the walk is capped at {_MAX_WALK_STEPS}"
        )
    state = initial
    count = 0
    with guard(name, "null-result walk"):
        while born_probabilities(state, "spin").get("up", 0.0) < target:
            state = apply_partial_outcome(state, "spin", "down", eps, "no-click").post_state
            count += 1
            if count > _MAX_WALK_STEPS:
                raise ParameterError("null-result walk does not reach the target")
    p_up = born_probabilities(state, "spin").get("up", 0.0)
    qk = q**count
    checks.append(
        Check("iterations_to_target", "abs", float(k_expected), float(count), 0.0,
              "geometric-series closed form")
    )
    checks.append(Check("p_up_reached", "ge", target, p_up, 0.0, "requested target"))
    checks.append(
        Check("p_up_matches", "abs", 1.0 / (1.0 + qk), p_up, 1e-12, "geometric-series closed form")
    )
    steps.append(
        make_step(
            "null-result walk",
            state,
            distribution=("spin", born_probabilities(state, "spin")),
            events={"iterations": float(count), "p_up": p_up},
        )
    )

    with guard(name, "bias inversion"):
        eps_prime, success, restored = erase_partial(state, "spin", ("up", "down"))
    fid = fidelity(restored, initial)
    checks.append(
        Check("eps_prime", "abs", 1.0 - qk, eps_prime, 1e-9, "bias-inversion closed form")
    )
    checks.append(
        Check("success_probability", "abs", 2.0 * qk / (1.0 + qk), success, 1e-9,
              "bias-inversion closed form")
    )
    checks.append(Check("fidelity_restored", "abs", 1.0, fid, 1e-9, "amplitude-restoration oracle"))
    steps.append(
        make_step(
            "bias inversion",
            restored,
            distribution=("spin", born_probabilities(restored, "spin")),
            events={"eps_prime": eps_prime, "success_probability": success, "fidelity_restored": fid},
        )
    )

    # The same inversion on an exactly 99/1 state, phases intact.
    biased = superpose(
        reg,
        [
            (math.sqrt(0.99), {"spin": "up"}),
            (math.sqrt(0.01) * cmath.exp(1j * _PHASE), {"spin": "down"}),
        ],
    )
    with guard(name, "bias inversion, 99/1 state"):
        ep2, success2, restored2 = erase_partial(biased, "spin", ("up", "down"))
    fid2 = fidelity(restored2, initial)
    checks.append(
        Check("exact_story_eps_prime", "abs", 1.0 - 0.01 / 0.99, ep2, 1e-12,
              "bias-inversion closed form")
    )
    checks.append(
        Check("exact_story_success", "abs", 0.02, success2, 1e-12, "bias-inversion closed form")
    )
    checks.append(Check("exact_story_fidelity", "abs", 1.0, fid2, 1e-9, "amplitude-restoration oracle"))
    steps.append(
        make_step(
            "bias inversion, 99/1 state",
            restored2,
            events={"eps_prime": ep2, "success_probability": success2, "fidelity_restored": fid2},
        )
    )

    notes = (
        "A string of null results is a measurement that never finished: it biases amplitudes "
        "reversibly, and one tuned extra null can undo the bias, but only with probability "
        "twice the suppressed branch's weight.",
    )
    return steps, checks, notes


PARTIAL_ERASURE = Scenario(
    "partial_erasure",
    "Null results walk a superposition toward one branch; a tuned final null walks it back, "
    "phase and all, at a steep success cost.",
    (
        ParamSpec("eps", "float", 0.2, low=0.0, high=1.0, low_open=True, high_open=True,
                  doc="per-step partial-detection strength"),
        ParamSpec("target", "float", 0.99, low=0.5, high=1.0, high_open=True,
                  doc="walk until the favored branch reaches this weight"),
    ),
    _run_partial_erasure,
)


def _run_weak_ensemble(params, seed):
    g = params["g"]
    sigma = params["sigma"]
    n_shots = params["n_shots"]
    singles = params["singles"]
    sigma_single = params["sigma_single"]
    sigma_strong = params["sigma_strong"]
    rng = scenario_rng("weak_ensemble", seed)
    reg = new_register([("spin", ("up", "down"))])
    state = superpose(reg, [(1.0, {"spin": "up"}), (1.0, {"spin": "down"})])
    steps = [make_step("balanced preparation", state)]
    checks = []

    # Ensemble statistics with a symmetric +-1 observable: mean reading 0.
    joint = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, WeakParams(g, sigma))
    with guard("weak_ensemble", "ensemble readings"):
        mean = fold_sum(pointer_readings(joint, rng, n_shots).tolist()) / n_shots
    se = math.sqrt(sigma * sigma / 2.0 + g * g) / math.sqrt(n_shots)
    checks.append(Check("ensemble_mean", "abs", 0.0, mean, 3.0 * se, "central-limit bound"))
    steps.append(
        make_step(
            "ensemble readings",
            events={"shots": float(n_shots), "mean_reading": mean, "standard_error": se},
        )
    )

    # Disturbance: a pointer twenty times wider than its kick leaves the
    # system almost untouched, averaged over outcomes.
    joint1 = weak_measure(state, "spin", {"up": 1.0, "down": 0.0}, WeakParams(g, sigma_single))
    with guard("weak_ensemble", "gentle single shots"):
        mean_fid = fold_sum(pointer_fidelities(joint1, state, rng, singles)) / singles
    overlap_bound = 0.5 * (1.0 + math.exp(-g * g / (4.0 * sigma_single * sigma_single)))
    checks.append(Check("single_shot_fidelity", "ge", 0.999, mean_fid, 0.0, "gentleness threshold"))
    checks.append(
        Check("single_shot_fidelity_matches", "abs", overlap_bound, mean_fid, 0.002,
              "Gaussian-overlap closed form")
    )
    steps.append(
        make_step(
            "gentle single shots",
            events={"singles": float(singles), "mean_fidelity": mean_fid, "overlap_bound": overlap_bound},
        )
    )

    # Strong limit: a pointer much narrower than its kick is an ordinary
    # projective readout.
    joints = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, WeakParams(g, sigma_strong))
    with guard("weak_ensemble", "strong-limit shot"):
        reading_s, post_s = read_pointer(joints, rng)
    dist = born_probabilities(post_s, "spin")
    top = max(dist.values())
    checks.append(Check("strong_limit_collapse", "ge", 0.999, top, 0.0, "pointer-overlap bound"))
    steps.append(
        make_step(
            "strong-limit shot",
            post_s,
            distribution=("spin", dist),
            events={"reading": reading_s, "dominant_branch_weight": top},
        )
    )

    notes = (
        "A wide pointer's readings are nearly uninformative one at a time and nearly harmless "
        "one at a time; only the ensemble mean carries the observable.",
    )
    return steps, checks, notes


WEAK_ENSEMBLE = Scenario(
    "weak_ensemble",
    "Wide-pointer readings: harmless single shots, informative ensemble mean, and the "
    "narrow-pointer collapse limit.",
    (
        ParamSpec("g", "float", 1.0, low=1e-6, doc="pointer kick per unit eigenvalue"),
        ParamSpec("sigma", "float", 10.0, low=0.5, doc="pointer width for the ensemble run"),
        ParamSpec("n_shots", "int", 10000, low=100, high=200000, doc="ensemble size"),
        ParamSpec("singles", "int", 200, low=10, high=5000, doc="single-shot fidelity samples"),
        ParamSpec("sigma_single", "float", 20.0, low=5.0, doc="pointer width for the gentleness run"),
        ParamSpec("sigma_strong", "float", 0.1, low=0.01, high=1.0, doc="pointer width for the strong limit"),
    ),
    _run_weak_ensemble,
)
