"""End-to-end gate: each test pins one deliverable of the scenario suite.

Every number asserted here is recomputed inside the test from closed forms,
dense brute force, or hand-built target states; report checks are then held
to the same tolerances. The terminal summary prints one PASS/FAIL line per
test (see conftest).
"""

import math
import time

import numpy as np
import pytest

from ketsim import (
    OpLog,
    apply_basis_change,
    apply_split,
    controlled_relabel,
    fidelity,
    new_register,
    postselect,
    postselect_out,
    project,
    recombine_probability,
    run_scenario,
    superpose,
    time_reverse,
)
from ketsim.report import report_to_json, report_to_jsonable

import oracles

S2 = 1.0 / math.sqrt(2.0)
S3 = 1.0 / math.sqrt(3.0)
S6 = 1.0 / math.sqrt(6.0)
H2 = np.array([[S2, S2], [S2, -S2]])

IDLE = {"photons": "none", "det1": "ready", "det2": "ready"}


def checks(report):
    return {c.name: c for c in report.checks}


def step_amplitudes(report, label):
    """Map frozenset(assignment items) -> complex amplitude, from the report."""
    doc = report_to_jsonable(report)
    for step in doc["steps"]:
        if step["label"] == label and "state" in step:
            return {
                frozenset(entry["assignment"].items()): complex(*entry["amplitude"])
                for entry in step["state"]
            }
    raise AssertionError(f"no state summary for step {label!r}")


def summary_fidelity(entries, target):
    """|<target|summary>|^2 for normalized target given as assignment -> amp."""
    norm = math.sqrt(sum(abs(a) ** 2 for a in target.values()))
    ip = sum((a / norm).conjugate() * entries.get(k, 0.0) for k, a in target.items())
    return abs(ip) ** 2


def pair_register():
    return new_register(
        [
            ("electron", ("src", "arm1", "arm2", "ann")),
            ("positron", ("src", "arm3", "arm4", "ann")),
            ("photons", ("none", "pair_t1", "pair_t2")),
            ("det1", ("ready", "click")),
            ("det2", ("ready", "click")),
        ]
    )


def annihilation_pipeline(state):
    """Split both particles, then run both annihilation windows unitarily."""
    state = apply_split(state, "electron", "src", ("arm1", "arm2"))
    state = apply_split(state, "positron", "src", ("arm3", "arm4"))
    state = controlled_relabel(
        state,
        {},
        [({"electron": "arm2", "positron": "arm3", "photons": "none"},
          {"electron": "ann", "positron": "ann", "photons": "pair_t1"})],
    )
    state = controlled_relabel(state, {"photons": "pair_t1"}, [({"det1": "ready"}, {"det1": "click"})])
    state = controlled_relabel(
        state,
        {},
        [({"electron": "arm1", "positron": "arm3", "photons": "none"},
          {"electron": "ann", "positron": "ann", "photons": "pair_t2"})],
    )
    state = controlled_relabel(state, {"photons": "pair_t2"}, [({"det2": "ready"}, {"det2": "click"})])
    return state


def mirror_pipeline():
    reg = new_register(
        [("spin", ("z_up", "z_down", "x_plus", "x_minus")), ("photon", ("left", "right"))]
    )
    state = superpose(
        reg,
        [(1.0, {"spin": "z_up", "photon": "left"}), (1.0, {"spin": "z_up", "photon": "right"})],
    )
    state = apply_basis_change(state, "spin", H2, ("z_up", "z_down"), out_pair=("x_plus", "x_minus"))
    return state


def test_01_reported_states_match_hand_built_targets():
    t0 = time.perf_counter()
    qo = run_scenario("qo_core")
    mirror = run_scenario("ghostly_mirror")
    atoms = run_scenario("atom_collision")
    hardy = run_scenario("hardy_ci")
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.25, f"four flagship runs took {elapsed:.3f}s"

    # one survivor of the first window: (|1>+|2>)|4> + |1>|3>, all over sqrt(3)
    after_t1 = {
        frozenset({"electron": "arm1", "positron": "arm4", **IDLE}.items()): S3,
        frozenset({"electron": "arm2", "positron": "arm4", **IDLE}.items()): S3,
        frozenset({"electron": "arm1", "positron": "arm3", **IDLE}.items()): S3,
    }
    got = step_amplitudes(qo, "no click at t1")
    assert summary_fidelity(got, after_t1) >= 1.0 - 1e-10

    # after the second window only the factorized (|1>+|2>)|4> piece is left
    after_t2 = {
        frozenset({"electron": "arm1", "positron": "arm4", **IDLE}.items()): S2,
        frozenset({"electron": "arm2", "positron": "arm4", **IDLE}.items()): S2,
    }
    got = step_amplitudes(qo, "no click at t2")
    assert summary_fidelity(got, after_t2) >= 1.0 - 1e-10
    qc = checks(qo)
    for name in ("state_after_t1", "state_after_t2"):
        assert qc[name].passed and qc[name].tolerance <= 1e-10
        assert abs(qc[name].actual - 1.0) <= 1e-10

    mc = checks(mirror)
    for name, want in (
        ("amp_up_left", S6),
        ("amp_up_right", 2 * S6),
        ("amp_down_left", S6),
        ("amp_down_right", 0.0),
    ):
        assert abs(mc[name].actual - want) <= 1e-10, name
    final = step_amplitudes(mirror, "spin readout")
    assert summary_fidelity(
        final, {frozenset({"spin": "z_down", "photon": "left"}.items()): 1.0}
    ) >= 1.0 - 1e-10

    four = step_amplitudes(atoms, "second crossing and drift")
    assert len(four) == 4
    assert all(abs(abs(a) - 0.5) <= 1e-10 for a in four.values())
    assert checks(atoms)["state_after_t2"].passed

    surviving = step_amplitudes(hardy, "surviving branches")
    assert len(surviving) == 3
    assert all(abs(abs(a) - S3) <= 1e-10 for a in surviving.values())
    pairs = {
        (dict(k)["electron"], dict(k)["positron"]) for k in surviving
    }
    assert pairs == {("arm1", "arm4"), ("arm2", "arm4"), ("arm1", "arm3")}


def test_02_probability_ledger_matches_dense_joint_born():
    qo = checks(run_scenario("qo_core"))

    reg = pair_register()
    state = annihilation_pipeline(
        superpose(reg, [(1.0, {"electron": "src", "positron": "src", **IDLE})])
    )
    p_t1 = oracles.dense_probability(state, {"det1": "click"})
    p_silence = oracles.dense_probability(state, {"det1": "ready", "det2": "ready"})
    p_t2_click_and_t1_silent = oracles.dense_probability(state, {"det1": "ready", "det2": "click"})
    p_t2_given_silent = p_t2_click_and_t1_silent / (1.0 - p_t1)

    assert abs(p_t1 - 0.25) <= 1e-10
    assert abs(p_t2_given_silent - 1.0 / 3.0) <= 1e-10
    assert abs((1.0 - p_silence) - 0.5) <= 1e-10
    assert abs(qo["p_click_t1"].actual - p_t1) <= 1e-10
    assert abs(qo["p_click_t2"].actual - p_t2_given_silent) <= 1e-10
    assert abs(qo["p_total_annihilation"].actual - (1.0 - p_silence)) <= 1e-10

    mirror = checks(run_scenario("ghostly_mirror"))
    staged = mirror_pipeline()
    kept = postselect_out(staged, {"spin": "x_minus", "photon": "left"})
    back = apply_basis_change(
        kept.post_state, "spin", H2, ("z_up", "z_down"), out_pair=("x_plus", "x_minus")
    )
    p_down = float(oracles.dense_marginal(back, "spin")[1])  # z_down is label index 1
    assert abs(p_down - 1.0 / 6.0) <= 1e-10
    assert abs(mirror["p_z_down"].actual - p_down) <= 1e-10


def test_03_entanglement_rises_then_dissolves():
    def timeline(report, key):
        out = []
        for step in report.steps:
            for name, bits in step.get("entropies", {}).items():
                if name == key:
                    out.append(bits)
        return out

    qo = run_scenario("qo_core")
    start, peak, end = timeline(qo, "electron|rest")
    assert abs(start) < 1e-9
    assert peak > 0.1
    assert abs(end) < 1e-9

    ab = run_scenario("ab_toy")
    staged = step_amplitudes(ab, "charge staged")
    assert len(staged) == 1  # single basis branch: exactly product
    inside, outside = timeline(ab, "charge|ring")
    assert inside > 0.1
    assert abs(outside) < 1e-9

    ob = run_scenario("oblivion_with_pointers")
    oc = checks(ob)
    rises = timeline(ob, "atom1|rest")
    assert abs(rises[0]) < 1e-9 and rises[1] > 0.1
    # before any readout the logged reversal still lands on the product start
    assert abs(oc["reversal_before_readout"].actual - 1.0) <= 1e-9
    assert abs(oc["entropy_quiet_branch"].actual) < 1e-9

    hardy = checks(run_scenario("hardy_ci"))
    m = np.array([[1.0, 1.0], [0.0, 1.0]]) / math.sqrt(3.0)
    lams = sorted((s**2 for s in np.linalg.svd(m, compute_uv=False)), reverse=True)
    assert abs(hardy["schmidt_major"].actual - lams[0]) <= 1e-9
    assert abs(hardy["schmidt_minor"].actual - lams[1]) <= 1e-9


def test_04_reversal_asymmetry_between_partners():
    qo = checks(run_scenario("qo_core"))
    assert abs(qo["recombination_electron"].actual - 1.0) <= 1e-9
    assert abs(qo["recombination_positron"].actual - 0.5) <= 1e-9

    # hand-built survivor state, witness recomputed with the library call
    reg = pair_register()
    survivor = superpose(
        reg,
        [
            (1.0, {"electron": "arm1", "positron": "arm4", **IDLE}),
            (1.0, {"electron": "arm2", "positron": "arm4", **IDLE}),
        ],
    )
    assert abs(recombine_probability(survivor, "electron", ("arm1", "arm2"), "src") - 1.0) <= 1e-12
    assert abs(recombine_probability(survivor, "positron", ("arm3", "arm4"), "src") - 0.5) <= 1e-12

    # a fresh logged walk reverses exactly until a projection enters the story
    log = OpLog()
    state = superpose(reg, [(1.0, {"electron": "src", "positron": "src", **IDLE})])
    walked = apply_split(state, "electron", "src", ("arm1", "arm2"), log=log)
    walked = apply_split(walked, "positron", "src", ("arm3", "arm4"), log=log)
    walked = controlled_relabel(
        walked,
        {},
        [({"electron": "arm2", "positron": "arm3", "photons": "none"},
          {"electron": "ann", "positron": "ann", "photons": "pair_t1"})],
        log=log,
    )
    assert abs(fidelity(time_reverse(walked, log), state) - 1.0) <= 1e-9
    projected = project(walked, "photons", "none").post_state
    assert fidelity(time_reverse(projected, log), state) < 1.0 - 1e-6

    ob = checks(run_scenario("oblivion_with_pointers"))
    assert abs(ob["reversal_before_readout"].actual - 1.0) <= 1e-9
    assert ob["reversal_after_readout"].actual < 0.999


def test_05_frequent_interrogation_freezes_the_photon():
    alpha = math.pi / 20.0
    zc = checks(run_scenario("zeno_basic"))
    assert abs(zc["survival_amplitude"].actual - math.cos(alpha) ** 10) <= 1e-10
    assert abs(zc["survival_amplitude"].actual - (1.0 - math.pi * alpha / 4.0)) <= 0.02
    assert zc["no_detector_left_amplitude"].actual < 1e-9
    cf = checks(run_scenario("zeno_counterfactual"))
    assert cf["blocking_inference"].actual >= 0.99


def test_06_null_walk_count_and_erasure_restore():
    pe = checks(run_scenario("partial_erasure"))
    assert pe["p_up_reached"].actual >= 0.99

    eps, target = 0.2, 0.99
    k, q_pow = 0, 1.0
    while 1.0 / (1.0 + q_pow) < target:
        q_pow *= 1.0 - eps
        k += 1
    assert pe["iterations_to_target"].actual == k

    assert pe["fidelity_restored"].actual >= 1.0 - 1e-9
    b_sq = q_pow / (1.0 + q_pow)  # suppressed-branch weight after the walk
    assert abs(pe["success_probability"].actual - 2.0 * b_sq) <= 1e-9
    assert pe["exact_story_fidelity"].actual >= 1.0 - 1e-9
    assert abs(pe["exact_story_success"].actual - 0.02) <= 1e-9


def test_07_gentle_pointer_readings_average_out():
    t0 = time.perf_counter()
    report = run_scenario("weak_ensemble")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"ensemble run took {elapsed:.2f}s"

    wc = checks(report)
    assert report.params["sigma"] / report.params["g"] == 10.0
    assert report.params["n_shots"] == 10_000
    se = math.sqrt(report.params["sigma"] ** 2 / 2.0 + report.params["g"] ** 2)
    se /= math.sqrt(report.params["n_shots"])
    # balanced preparation: the observable averages to zero
    assert abs(wc["ensemble_mean"].actual) <= 3.0 * se
    assert report.params["sigma_single"] / report.params["g"] == 20.0
    assert wc["single_shot_fidelity"].actual >= 0.999


def test_08_marker_erasure_revives_the_fringes():
    report = run_scenario("quantum_erasure")
    assert report.params["points"] == 32
    ec = checks(report)
    assert sum(1 for n in ec if n.startswith("fringe_marked_")) == 32
    assert sum(1 for n in ec if n.startswith("fringe_erased_")) == 32
    assert ec["visibility_marked"].actual < 0.01
    assert ec["visibility_erased"].actual > 0.99


def test_09_narrow_packet_collapse_inflates_momentum_spread():
    t0 = time.perf_counter()
    for ell, want in ((0.1, 10.0), (0.05, 20.0), (0.025, 40.0)):
        dc = checks(run_scenario("dicke_tray_spoon", {"l_spoon": ell}))
        ratio = dc["momentum_std_ratio"].actual
        assert abs(ratio - want) <= 0.2 * want, (ell, ratio)
        for name in ("parseval_pre", "parseval_post", "uncertainty_pre", "uncertainty_post"):
            assert dc[name].passed, (ell, name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"three grid runs took {elapsed:.2f}s"


def test_10_fixed_seeds_reproduce_and_projections_commute_with_deferral():
    from ketsim.scenarios import catalog

    for name in catalog():
        assert report_to_json(run_scenario(name, seed=5)) == report_to_json(
            run_scenario(name, seed=5)
        ), name

    # sequential conditioning must equal one-shot joint Born, brute forced
    reg = pair_register()
    start = superpose(reg, [(1.0, {"electron": "src", "positron": "src", **IDLE})])
    full = annihilation_pipeline(start)
    assert len(oracles.dense_vector(full)) <= 256

    first = project(full, "det1", "ready")
    second = project(first.post_state, "det2", "ready")
    sequential = first.probability * second.probability
    oneshot = oracles.dense_probability(full, {"det1": "ready", "det2": "ready"})
    assert abs(sequential - oneshot) <= 1e-12
    both = postselect(full, {"det1": "ready", "det2": "ready"})
    assert abs(both.probability - oneshot) <= 1e-12
    assert abs(fidelity(both.post_state, second.post_state) - 1.0) <= 1e-12

    staged = mirror_pipeline()
    assert len(oracles.dense_vector(staged)) <= 256
    kept = postselect_out(staged, {"spin": "x_minus", "photon": "left"})
    back = apply_basis_change(
        kept.post_state, "spin", H2, ("z_up", "z_down"), out_pair=("x_plus", "x_minus")
    )
    down = project(back, "spin", "z_down")
    story = kept.probability * down.probability
    assert abs(story - 0.125) <= 1e-12
    qo = checks(run_scenario("qo_core"))
    assert abs(qo["deferred_joint_silent"].actual - oneshot) <= 1e-10
    mirror = checks(run_scenario("ghostly_mirror"))
    assert abs(mirror["joint_story_probability"].actual - story) <= 1e-10
