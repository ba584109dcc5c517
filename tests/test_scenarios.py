import math

import numpy as np
import pytest

from ketsim import ImpossibleOutcomeError, ParameterError, list_scenarios, run_scenario
from ketsim.report import report_to_json, sweep_to_csv
from ketsim.scenarios import StepFailure, catalog, guard, scenario_rng, zeno

import oracles

ALL_NAMES = [
    "qo_core",
    "hardy_ci",
    "atom_collision",
    "oblivion_with_pointers",
    "zeno_basic",
    "zeno_counterfactual",
    "zeno_ghost_entanglement",
    "partial_erasure",
    "weak_ensemble",
    "quantum_erasure",
    "ghostly_mirror",
    "dicke_tray_spoon",
    "ab_toy",
]


def checks_by_name(report):
    return {c.name: c for c in report.checks}


def test_catalog_names_and_order():
    assert list(catalog()) == ALL_NAMES
    listed = list_scenarios()
    assert [name for name, _, _ in listed] == ALL_NAMES
    for name, schema, summary in listed:
        assert summary
        for pname, info in schema.items():
            assert info["kind"] in ("float", "int")
            assert "default" in info and info["doc"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_all_scenarios_pass_at_defaults(name):
    report = run_scenario(name)
    failed = [c.name for c in report.checks if not c.passed]
    assert not failed, f"{name} failed checks: {failed}"
    assert len(report.steps) >= 2
    assert report.notes
    assert all(c.note for c in report.checks)
    assert report.scenario == name and report.seed == 0


def test_reports_are_byte_identical_for_fixed_seed():
    for name in ("qo_core", "weak_ensemble", "dicke_tray_spoon"):
        a = report_to_json(run_scenario(name, seed=3))
        b = report_to_json(run_scenario(name, seed=3))
        assert a == b, name


def test_seed_changes_sampled_scenarios_only():
    base = checks_by_name(run_scenario("weak_ensemble", seed=0))
    other = checks_by_name(run_scenario("weak_ensemble", seed=1))
    assert base["ensemble_mean"].actual != other["ensemble_mean"].actual
    # purely projective scenarios ignore the seed
    assert report_to_json(run_scenario("qo_core", seed=0)) == report_to_json(
        run_scenario("qo_core", seed=99)
    ).replace('"seed": 99', '"seed": 0')


def test_unknown_scenario_and_parameter_rejection():
    with pytest.raises(ParameterError):
        run_scenario("does_not_exist")
    with pytest.raises(ParameterError):
        run_scenario("zeno_basic", {"beta": 0.1})
    with pytest.raises(ParameterError):
        run_scenario("zeno_basic", {"alpha": "abc"})
    with pytest.raises(ParameterError):
        run_scenario("zeno_basic", {"alpha": float("nan")})
    with pytest.raises(ParameterError):
        run_scenario("zeno_basic", {"alpha": 2.0})  # above pi/4 bound
    with pytest.raises(ParameterError):
        run_scenario("zeno_basic", {"cycles": 3.5})  # fractional int
    run_scenario("zeno_basic", {"cycles": 3.0})  # whole floats are fine


def test_scenario_rng_streams_are_name_scoped():
    a = scenario_rng("one", 0).random(4)
    b = scenario_rng("two", 0).random(4)
    c = scenario_rng("one", 0).random(4)
    assert not np.allclose(a, b)
    assert np.allclose(a, c)


def test_guard_wraps_impossible_outcomes():
    with pytest.raises(StepFailure) as excinfo:
        with guard("projection step"):
            raise ImpossibleOutcomeError("zero weight")
    err = excinfo.value
    # run_scenario names the scenario; a bare guard leaves it unset
    assert err.scenario is None and err.step == "projection step"
    assert "projection step" in str(err)
    assert isinstance(err.cause, ImpossibleOutcomeError)
    assert err.__cause__ is err.cause


def test_qo_core_frozen_numbers():
    c = checks_by_name(run_scenario("qo_core"))
    lam = (3 + math.sqrt(5)) / 6, (3 - math.sqrt(5)) / 6
    want_entropy = -sum(x * math.log2(x) for x in lam)
    assert c["entropy_after_t1"].actual == pytest.approx(want_entropy, abs=1e-9)
    assert c["entropy_after_t1"].actual == pytest.approx(0.5500477595827569, abs=1e-12)
    assert c["entropy_after_t2"].actual == pytest.approx(0.0, abs=1e-9)
    assert c["p_click_t1"].actual == pytest.approx(0.25, abs=1e-12)
    assert c["p_click_t2"].actual == pytest.approx(1 / 3, abs=1e-12)
    assert c["p_total_annihilation"].actual == pytest.approx(0.5, abs=1e-12)
    assert c["recombination_electron"].actual == pytest.approx(1.0, abs=1e-10)
    assert c["recombination_positron"].actual == pytest.approx(0.5, abs=1e-10)
    assert c["deferred_state_match"].actual == pytest.approx(1.0, abs=1e-12)


def test_hardy_ci_frozen_numbers():
    c = checks_by_name(run_scenario("hardy_ci"))
    assert c["schmidt_major"].actual == pytest.approx((3 + math.sqrt(5)) / 6, abs=1e-12)
    assert c["schmidt_minor"].actual == pytest.approx((3 - math.sqrt(5)) / 6, abs=1e-12)
    assert c["p_joint_23"].actual == pytest.approx(0.0, abs=1e-12)
    assert c["p_arm4_given_arm2"].actual == pytest.approx(1.0, abs=1e-12)
    assert c["p_arm1_given_arm3"].actual == pytest.approx(1.0, abs=1e-12)
    assert c["marginal_electron_arm1"].actual == pytest.approx(2 / 3, abs=1e-12)


def test_ghostly_mirror_frozen_numbers():
    c = checks_by_name(run_scenario("ghostly_mirror"))
    s6 = 1 / math.sqrt(6)
    assert c["p_no_scatter"].actual == pytest.approx(0.75, abs=1e-12)
    assert c["amp_up_left"].actual == pytest.approx(s6, abs=1e-12)
    assert c["amp_up_right"].actual == pytest.approx(2 * s6, abs=1e-12)
    assert c["amp_down_left"].actual == pytest.approx(s6, abs=1e-12)
    assert c["amp_down_right"].actual == pytest.approx(0.0, abs=1e-12)
    assert c["p_z_down"].actual == pytest.approx(1 / 6, abs=1e-12)
    assert c["joint_story_probability"].actual == pytest.approx(1 / 8, abs=1e-12)


def test_atom_collision_frozen_numbers():
    c = checks_by_name(run_scenario("atom_collision"))
    lam = ((3 + math.sqrt(5)) / 8, 0.25, (3 - math.sqrt(5)) / 8)
    want = -sum(x * math.log2(x) for x in lam)
    assert c["entropy_after_t1"].actual == pytest.approx(want, abs=1e-9)
    assert c["entropy_final"].actual == pytest.approx(-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)), abs=1e-9)
    assert c["entropy_final"].actual == pytest.approx(0.8112781244591328, abs=1e-12)
    assert c["schmidt_major"].actual == pytest.approx(0.75, abs=1e-12)
    assert c["recombination_atom1"].actual == pytest.approx(0.75, abs=1e-10)


def test_oblivion_with_pointers_frozen_numbers():
    c = checks_by_name(run_scenario("oblivion_with_pointers"))
    assert c["entropy_atom2"].actual == pytest.approx(1.5, abs=1e-9)
    assert c["entropy_pointer1"].actual == pytest.approx(0.8112781244591328, abs=1e-9)
    assert c["collided_subspace_entropy"].actual == pytest.approx(1.0, abs=1e-9)
    assert c["reversal_before_readout"].actual == pytest.approx(1.0, abs=1e-10)
    assert c["reversal_after_readout"].actual == pytest.approx(0.5, abs=1e-10)
    assert c["recombination_average"].actual == pytest.approx(0.75, abs=1e-10)


def test_zeno_basic_cosine_ladder():
    alpha = math.pi / 20
    report = run_scenario("zeno_basic")
    assert report.params["alpha"] == pytest.approx(alpha)
    c = checks_by_name(report)
    n = 10
    for k in range(1, n + 1):
        # survival probability after k interrogations
        assert c[f"survival_cycle_{k:02d}"].actual == pytest.approx(math.cos(alpha) ** (2 * k), abs=1e-10)
        assert not c[f"survival_cycle_{k:02d}"].sweep
    assert c["survival_amplitude"].actual == pytest.approx(math.cos(alpha) ** n, abs=1e-10)
    assert c["no_detector_left_amplitude"].actual == pytest.approx(abs(math.cos(n * alpha)), abs=1e-10)
    assert c["survival_amplitude"].sweep


@pytest.mark.parametrize("name", ["zeno_basic", "zeno_counterfactual", "zeno_ghost_entanglement"])
def test_zeno_cycle_cap(name):
    specs = {p.name: p for p in catalog()[name].params}
    high, alpha = specs["cycles"].high, specs["alpha"].low
    with pytest.raises(ParameterError, match="above allowed range"):
        run_scenario(name, {"cycles": high + 1})
    # the alpha floor keeps the derived quarter-turn count at or under the cap
    report = run_scenario(name, {"alpha": alpha, "cycles": 0})
    events = {k: v for step in report.steps for k, v in step.get("events", {}).items()}
    assert events["cycles_run"] == math.ceil(math.pi / (2.0 * alpha) - 1e-9) <= high
    if name == "zeno_basic":
        assert events["cycles_run"] == 127.0
        assert checks_by_name(report)["survival_probability"].actual > 0.97


def test_zeno_counterfactual_inference_and_honest_failure_zone():
    c = checks_by_name(run_scenario("zeno_counterfactual"))
    assert c["blocking_inference"].actual >= 0.99
    n = 20
    alpha = math.pi / 40
    cn = math.cos(alpha) ** n
    free = math.cos(n * alpha)
    assert c["p_silent_left"].actual == pytest.approx((cn**2 + free**2) / 2, abs=1e-12)
    # fractional quarter-turn counts overshoot: the certainty bound honestly fails
    off = run_scenario("zeno_counterfactual", {"alpha": 0.13})
    oc = checks_by_name(off)
    assert oc["p_blocking_given_silence"].passed  # closed form still matches
    assert not oc["blocking_inference"].passed
    assert not off.all_passed


def _dense_ghost(alpha, n):
    """The zeno_ghost_entanglement cycle as a dense 3-vector iteration per
    blocker branch, in the basis (middle, left, right): the branches, keyed by
    (left live, right live), and the values the scenario's oracle derives."""
    h2 = np.array([[1, 0, 0], [0, 1, 1], [0, 1, -1]], dtype=float)
    h2[1:, 1:] /= math.sqrt(2)
    rot = np.array(
        [
            [math.cos(alpha), -math.sin(alpha), 0],
            [math.sin(alpha), math.cos(alpha), 0],
            [0, 0, 1],
        ]
    )
    blockL = np.diag([1.0, 0.0, 1.0])  # left amplitude removed when blocker is live
    blockR = np.diag([1.0, 1.0, 0.0])

    def evolve(live_left, live_right):
        v = np.array([1.0, 0.0, 0.0])
        for _ in range(n):
            v = h2 @ rot @ h2 @ v
            if live_left:
                v = blockL @ v
            if live_right:
                v = blockR @ v
        return v

    keys = ((True, True), (True, False), (False, True), (False, False))
    branches = {k: 0.5 * evolve(*k) for k in keys}
    p_kept = sum(float(np.vdot(v, v).real) for v in branches.values())
    found = np.array([branches[k][0] for k in keys]).reshape(2, 2)
    p_middle = float(np.sum(found**2))
    lams = sorted((s**2 for s in np.linalg.svd(found / math.sqrt(p_middle), compute_uv=False)), reverse=True)
    # not found: bombL against (bombR, photon in a side port)
    sides = np.array([[*branches[(left, True)][1:], *branches[(left, False)][1:]] for left in (True, False)])
    nf = np.linalg.svd(sides / math.sqrt(float(np.sum(sides**2))), compute_uv=False) ** 2

    def bits(weights):
        return -sum(w * math.log2(w) for w in weights if w > 0.0)

    return branches, {
        "p_kept": p_kept,
        "p_found_given_kept": p_middle / p_kept,
        "schmidt_second": lams[1],
        "p_both_up_given_found": float(found[0, 0] ** 2) / p_middle,
        "found_entropy": bits(lams),
        "notfound_entropy": bits(nf),
    }


def test_zeno_ghost_matches_dense_branch_iteration():
    alpha, n = math.pi / 40, 20
    report = run_scenario("zeno_ghost_entanglement")
    c = checks_by_name(report)
    branches, dense = _dense_ghost(alpha, n)

    assert c["p_no_explosion"].actual == pytest.approx(dense["p_kept"], abs=1e-9)
    assert c["p_no_explosion"].actual == pytest.approx(0.9505588953160761, abs=1e-9)
    assert c["p_found_given_no_explosion"].actual == pytest.approx(dense["p_found_given_kept"], abs=1e-9)
    assert c["amp_middle_both_up"].actual == pytest.approx(abs(branches[(True, True)][0]), abs=1e-12)
    assert c["amp_middle_both_up"].actual == pytest.approx(0.5 * math.cos(alpha) ** n, abs=1e-9)
    assert c["amp_middle_both_down"].actual == pytest.approx(abs(branches[(False, False)][0]), abs=1e-12)
    assert c["found_schmidt_second"].actual == pytest.approx(dense["schmidt_second"], abs=1e-9)
    assert c["found_entropy"].actual == pytest.approx(dense["found_entropy"], abs=1e-9)
    assert c["found_entropy"].actual == pytest.approx(0.14966890842833833, abs=1e-9)
    assert c["notfound_entropy"].actual == pytest.approx(dense["notfound_entropy"], abs=1e-9)
    assert c["notfound_entropy"].actual == pytest.approx(0.6958885519469937, abs=1e-9)
    assert c["notfound_entangled"].actual > 1e-6


def test_zeno_ghost_branch_algebra_matches_the_dense_iteration():
    specs = {p.name: p for p in catalog()["zeno_ghost_entanglement"].params}
    low, high = specs["alpha"].low, math.nextafter(specs["alpha"].high, 0.0)
    top = specs["cycles"].high
    rng = np.random.default_rng(31)
    draws = [(low, 1), (low, top), (high, 1), (high, top), (math.pi / 40, 20), (0.5805, 138)]
    draws += [(float(rng.uniform(low, high)), int(rng.integers(1, top + 1))) for _ in range(18)]
    for alpha, n in draws:
        want = _dense_ghost(alpha, n)[1]
        got = zeno._ghost_reference(alpha, n)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=0.0, abs=1e-12), (alpha, n, key)


def test_partial_erasure_closed_forms():
    report = run_scenario("partial_erasure")
    c = checks_by_name(report)
    eps, target = 0.2, 0.99
    q = 1 - eps
    k = math.ceil(math.log(target / (1 - target)) / -math.log(q) - 1e-9)
    assert c["iterations_to_target"].actual == k == 21
    assert c["p_up_matches"].actual == pytest.approx(1 / (1 + q**k), abs=1e-12)
    assert c["eps_prime"].actual == pytest.approx(1 - q**k, abs=1e-9)
    assert c["success_probability"].actual == pytest.approx(2 * q**k / (1 + q**k), abs=1e-9)
    assert c["fidelity_restored"].actual == pytest.approx(1.0, abs=1e-9)
    assert c["exact_story_eps_prime"].actual == pytest.approx(1 - 0.01 / 0.99, abs=1e-12)
    assert c["exact_story_success"].actual == pytest.approx(0.02, abs=1e-12)
    # a softer target needs fewer null results
    soft = checks_by_name(run_scenario("partial_erasure", {"target": 0.9}))
    assert soft["iterations_to_target"].actual == math.ceil(math.log(9) / -math.log(0.8) - 1e-9)


def test_weak_ensemble_statistics():
    c = checks_by_name(run_scenario("weak_ensemble"))
    se = math.sqrt(10.0**2 / 2 + 1.0) / math.sqrt(10_000)
    assert c["ensemble_mean"].tolerance == pytest.approx(3 * se, rel=1e-9)
    assert abs(c["ensemble_mean"].actual) < 3 * se
    want_fid = (1 + math.exp(-1.0 / (4 * 20.0**2))) / 2
    assert c["single_shot_fidelity_matches"].expected == pytest.approx(want_fid, abs=1e-12)
    assert c["single_shot_fidelity"].actual >= 0.999
    assert c["strong_limit_collapse"].actual >= 0.999


def test_quantum_erasure_fringes():
    report = run_scenario("quantum_erasure")
    c = checks_by_name(report)
    points = report.params["points"]
    assert points == 32
    for j in range(points):
        phi = 2 * math.pi * j / points
        assert c[f"fringe_marked_{j:02d}"].actual == pytest.approx(0.5, abs=1e-10)
        assert c[f"fringe_erased_{j:02d}"].actual == pytest.approx(math.cos(phi / 2) ** 2, abs=1e-10)
        assert not c[f"fringe_marked_{j:02d}"].sweep
    assert c["visibility_marked"].actual <= 0.01
    assert c["visibility_erased"].actual >= 0.99
    with pytest.raises(ParameterError):
        run_scenario("quantum_erasure", {"points": 5})  # grid must hit the dark fringe


def test_ab_toy_rise_and_fall():
    c = checks_by_name(run_scenario("ab_toy"))
    assert c["entanglement_inside"].actual == pytest.approx(1.0, abs=1e-12)
    assert c["entanglement_outside"].actual == pytest.approx(0.0, abs=1e-9)
    assert c["recombination"].actual == pytest.approx(math.cos(math.pi / 6) ** 2, abs=1e-10)
    assert c["recombination_marked"].actual == pytest.approx(0.5, abs=1e-10)
    half = checks_by_name(run_scenario("ab_toy", {"phi": math.pi}))
    assert half["recombination"].actual == pytest.approx(0.0, abs=1e-10)


def test_dicke_tray_spoon_ratio_tracks_widths():
    for ell, ratio in ((0.1, 10.0), (0.05, 20.0)):
        c = checks_by_name(run_scenario("dicke_tray_spoon", {"l_spoon": ell}))
        assert c["momentum_std_ratio"].actual == pytest.approx(ratio, rel=0.2)
        assert c["parseval_pre"].passed and c["parseval_post"].passed
        assert c["uncertainty_pre"].passed and c["uncertainty_post"].passed
    with pytest.raises(ParameterError):
        run_scenario("dicke_tray_spoon", {"l_spoon": 0.0})


@pytest.mark.parametrize(
    "params, message",
    [
        ({"l_spoon": 0.2}, r"^l_spoon=0\.2 must be at most l_tray/10 = 0\.1$"),
        ({"x_spoon": 3.0}, r"^x_tray and x_spoon must be 5\*\(l_tray \+ l_spoon\) = 5\.25 or more apart$"),
        ({"n": 4}, r"^grid spacing 5\.5 of n=4 does not resolve l_spoon=0\.05 \(need <= l_spoon/8\)$"),
        # refused by the schema before the scenario runs
        ({"l_tray": -1.0}, r"'l_tray'=-1\.0 below allowed range"),
        ({"eps": 1.0}, r"'eps'=1\.0 above allowed range \(open bound 1\.0\)"),
    ],
    ids=("l_spoon", "separation", "spacing", "l_tray", "eps"),
)
def test_dicke_tray_spoon_refusals_name_the_parameters(params, message):
    with pytest.raises(ParameterError, match=message):
        run_scenario("dicke_tray_spoon", params)


def test_dicke_tray_spoon_admits_the_invariants_edges():
    # a separation of exactly 5*(l_tray + l_spoon), and an explicit eps
    for params in ({"x_spoon": 5.25}, {"eps": 0.1}):
        assert run_scenario("dicke_tray_spoon", params).scenario == "dicke_tray_spoon"


def test_sweep_tables_stay_aligned_across_parameter_dependent_checks():
    points = []
    for cycles in (3, 5):
        report = run_scenario("zeno_basic", {"cycles": cycles})
        points.append((float(cycles), report))
    text = sweep_to_csv("cycles", points)
    header = text.splitlines()[0].split(",")
    assert "survival_amplitude" in header
    assert not any(h.startswith("survival_cycle_") for h in header)
    assert len(text.splitlines()) == 3
