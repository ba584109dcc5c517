"""Interrupted-annihilation scenarios.

Three stories built on the same mechanic: a branch of a superposition is
removed mid-flight (an annihilation or a scattering event that did not
happen), and the surviving branches carry correlations that no local record
explains. Expected values come from closed-form constructions: golden states
via the superposition constructor, probabilities via joint Born weights,
spectra via dense eigendecomposition.
"""

from __future__ import annotations

import math

from ..entangle import cut_entropy, entropy, schmidt
from ..evolve import apply_basis_change, apply_split, controlled_relabel
from ..measure import born_probabilities, joint_probability, postselect, postselect_out, project, recombine_probability
from ..register import amplitude, fidelity, new_register, superpose
from ..report import Check, make_step
from . import HADAMARD, Scenario, guard

_SQRT5 = math.sqrt(5.0)
# Spectrum of the three-branch reduced state; its entropy in bits.
LAMBDA_MAJOR = (3.0 + _SQRT5) / 6.0
LAMBDA_MINOR = (3.0 - _SQRT5) / 6.0
THREE_BRANCH_ENTROPY = -(LAMBDA_MAJOR * math.log2(LAMBDA_MAJOR) + LAMBDA_MINOR * math.log2(LAMBDA_MINOR))


def _annihilation_window(state, electron_arm, pair, det):
    """The electron arm meets positron arm3: the pair annihilates into photon
    label `pair`, and detector `det` clicks on it."""
    state = controlled_relabel(
        state,
        {},
        [
            (
                {"electron": electron_arm, "positron": "arm3", "photons": "none"},
                {"electron": "ann", "positron": "ann", "photons": pair},
            )
        ],
    )
    return controlled_relabel(state, {"photons": pair}, [({det: "ready"}, {det: "click"})])


def _qo_unitaries(state):
    """The full interaction pipeline with no measurements in between."""
    state = apply_split(state, "electron", "src", ("arm1", "arm2"))
    state = apply_split(state, "positron", "src", ("arm3", "arm4"))
    state = _annihilation_window(state, "arm2", "pair_t1", "det1")
    return _annihilation_window(state, "arm1", "pair_t2", "det2")


def _run_qo_core(params, seed):
    reg = new_register(
        [
            ("electron", ("src", "arm1", "arm2", "ann")),
            ("positron", ("src", "arm3", "arm4", "ann")),
            ("photons", ("none", "pair_t1", "pair_t2")),
            ("det1", ("ready", "click")),
            ("det2", ("ready", "click")),
        ]
    )
    idle = {"photons": "none", "det1": "ready", "det2": "ready"}
    state = superpose(reg, [(1.0, {"electron": "src", "positron": "src", **idle})])
    steps = [make_step("sources ready", state)]
    checks = []

    state = apply_split(state, "electron", "src", ("arm1", "arm2"))
    state = apply_split(state, "positron", "src", ("arm3", "arm4"))
    branch_probs = {}
    for e_arm in ("arm1", "arm2"):
        for p_arm in ("arm3", "arm4"):
            key = f"{e_arm[-1]}{p_arm[-1]}"
            branch_probs[key] = joint_probability(state, {"electron": e_arm, "positron": p_arm})
            checks.append(
                Check(f"p_branch_{key}", "abs", 0.25, branch_probs[key], 1e-12, "joint-Born oracle")
            )
    steps.append(
        make_step(
            "beam splitters",
            state,
            events=branch_probs,
            entropies={"electron|rest": cut_entropy(state, ("electron",))},
        )
    )

    state = _annihilation_window(state, "arm2", "pair_t1", "det1")
    det1_dist = born_probabilities(state, "det1")
    checks.append(Check("p_click_t1", "abs", 0.25, det1_dist.get("click", 0.0), 1e-12, "joint-Born oracle"))
    steps.append(make_step("first annihilation window", state, distribution=("det1", det1_dist)))

    with guard("no click at t1"):
        rec1 = project(state, "det1", "ready")
    state = rec1.post_state
    golden_t1 = superpose(
        reg,
        [
            (1.0, {"electron": "arm1", "positron": "arm3", **idle}),
            (1.0, {"electron": "arm1", "positron": "arm4", **idle}),
            (1.0, {"electron": "arm2", "positron": "arm4", **idle}),
        ],
    )
    s_t1 = cut_entropy(state, ("electron",))
    checks.append(
        Check("state_after_t1", "abs", 1.0, fidelity(state, golden_t1), 1e-12, "superposition-constructor oracle")
    )
    checks.append(
        Check("entropy_after_t1", "abs", THREE_BRANCH_ENTROPY, s_t1, 1e-9, "dense-eigendecomposition oracle")
    )
    steps.append(
        make_step(
            "no click at t1",
            state,
            events={"p_no_click_t1": rec1.probability},
            entropies={"electron|rest": s_t1},
        )
    )

    state = _annihilation_window(state, "arm1", "pair_t2", "det2")
    det2_dist = born_probabilities(state, "det2")
    checks.append(
        Check("p_click_t2", "abs", 1.0 / 3.0, det2_dist.get("click", 0.0), 1e-12, "joint-Born oracle")
    )
    steps.append(make_step("second annihilation window", state, distribution=("det2", det2_dist)))

    with guard("no click at t2"):
        rec2 = project(state, "det2", "ready")
    state = rec2.post_state
    golden_t2 = superpose(
        reg,
        [
            (1.0, {"electron": "arm1", "positron": "arm4", **idle}),
            (1.0, {"electron": "arm2", "positron": "arm4", **idle}),
        ],
    )
    s_t2 = cut_entropy(state, ("electron",))
    checks.append(
        Check("state_after_t2", "abs", 1.0, fidelity(state, golden_t2), 1e-12, "superposition-constructor oracle")
    )
    checks.append(Check("entropy_after_t2", "abs", 0.0, s_t2, 1e-9, "dense-eigendecomposition oracle"))
    p_survive = rec1.probability * rec2.probability
    checks.append(
        Check("p_total_annihilation", "abs", 0.5, 1.0 - p_survive, 1e-12, "cumulative branch bookkeeping")
    )
    steps.append(
        make_step(
            "no click at t2",
            state,
            events={"p_no_click_t2": rec2.probability, "p_no_annihilation": p_survive},
            entropies={"electron|rest": s_t2},
        )
    )

    # Cross-check: run the whole pipeline with no intermediate projections
    # and condition once at the end. Outcome statistics and the conditioned
    # state must match the step-by-step story exactly.
    oneshot = _qo_unitaries(superpose(reg, [(1.0, {"electron": "src", "positron": "src", **idle})]))
    with guard("deferred conditioning"):
        deferred = postselect(oneshot, {"det1": "ready", "det2": "ready"})
    joint_silent = deferred.probability
    checks.append(Check("deferred_joint_silent", "abs", 0.5, joint_silent, 1e-12, "one-shot joint-Born oracle"))
    f_deferred = fidelity(deferred.post_state, state)
    checks.append(
        Check("deferred_state_match", "abs", 1.0, f_deferred, 1e-12, "projection-order cross-check")
    )
    steps.append(
        make_step(
            "deferred-measurement cross-check",
            events={"joint_silent": joint_silent, "fidelity_vs_sequential": f_deferred},
        )
    )

    r_e = recombine_probability(state, "electron", ("arm1", "arm2"), "src")
    r_p = recombine_probability(state, "positron", ("arm3", "arm4"), "src")
    checks.append(Check("recombination_electron", "abs", 1.0, r_e, 1e-10, "splitter-algebra oracle"))
    checks.append(Check("recombination_positron", "abs", 0.5, r_p, 1e-10, "splitter-algebra oracle"))
    steps.append(
        make_step(
            "recombination",
            events={"recombination_electron": r_e, "recombination_positron": r_p},
        )
    )

    notes = (
        "One particle ends fully revivable while its partner keeps a record: "
        "the interruption erased the electron's which-path past but not the positron's.",
        "Entanglement across the electron cut rises from 0 to about 0.55 bits and returns to 0 "
        "before any recombination happens.",
    )
    return steps, checks, notes


QO_CORE = Scenario(
    "qo_core",
    "Two split particles, an interrupted annihilation, and entanglement that rises and falls "
    "before one partner recombines perfectly.",
    (),
    _run_qo_core,
)


def _run_hardy_ci(params, seed):
    reg = new_register(
        [
            ("electron", ("src", "arm1", "arm2", "ann")),
            ("positron", ("src", "arm3", "arm4", "ann")),
            ("gamma", ("none", "pair")),
        ]
    )
    state = superpose(reg, [(1.0, {"electron": "src", "positron": "src", "gamma": "none"})])
    steps = [make_step("sources ready", state)]
    checks = []

    state = apply_split(state, "electron", "src", ("arm1", "arm2"))
    state = apply_split(state, "positron", "src", ("arm3", "arm4"))
    steps.append(make_step("beam splitters", state, entropies={"electron|rest": cut_entropy(state, ("electron",))}))

    state = controlled_relabel(
        state,
        {},
        [
            (
                {"electron": "arm2", "positron": "arm3", "gamma": "none"},
                {"electron": "ann", "positron": "ann", "gamma": "pair"},
            )
        ],
    )
    gamma_dist = born_probabilities(state, "gamma")
    checks.append(Check("p_annihilation", "abs", 0.25, gamma_dist.get("pair", 0.0), 1e-12, "joint-Born oracle"))
    steps.append(make_step("overlap region", state, distribution=("gamma", gamma_dist)))

    with guard("no annihilation"):
        rec = postselect(state, {"gamma": "none"})
    state = rec.post_state

    spectrum = schmidt(state, (("electron",), ("positron", "gamma")))
    s_bits = entropy(spectrum)
    checks.append(
        Check("p_joint_23", "abs", 0.0, joint_probability(state, {"electron": "arm2", "positron": "arm3"}), 1e-12,
              "joint-Born oracle")
    )
    checks.append(
        Check("marginal_electron_arm1", "abs", 2.0 / 3.0,
              born_probabilities(state, "electron").get("arm1", 0.0), 1e-12, "joint-Born oracle")
    )
    with guard("conditioning on electron arm2"):
        cond_e2 = project(state, "electron", "arm2").post_state
    p_arm4_given_arm2 = born_probabilities(cond_e2, "positron").get("arm4", 0.0)
    checks.append(Check("p_arm4_given_arm2", "abs", 1.0, p_arm4_given_arm2, 1e-12, "joint-Born oracle"))
    with guard("conditioning on positron arm3"):
        cond_p3 = project(state, "positron", "arm3").post_state
    p_arm1_given_arm3 = born_probabilities(cond_p3, "electron").get("arm1", 0.0)
    checks.append(Check("p_arm1_given_arm3", "abs", 1.0, p_arm1_given_arm3, 1e-12, "joint-Born oracle"))
    checks.append(Check("schmidt_major", "abs", LAMBDA_MAJOR, spectrum.coefficients[0], 1e-12, "dense-SVD oracle"))
    checks.append(Check("schmidt_minor", "abs", LAMBDA_MINOR, spectrum.coefficients[1], 1e-12, "dense-SVD oracle"))
    checks.append(Check("entropy_bits", "abs", THREE_BRANCH_ENTROPY, s_bits, 1e-12, "dense-eigendecomposition oracle"))
    steps.append(
        make_step(
            "surviving branches",
            state,
            events={"p_arm4_given_arm2": p_arm4_given_arm2, "p_arm1_given_arm3": p_arm1_given_arm3},
            entropies={"electron|rest": s_bits},
        )
    )

    notes = (
        "With the annihilating branch removed, each particle's path certifies the other's, "
        "although no surviving branch ever had the two particles meet.",
    )
    return steps, checks, notes


HARDY_CI = Scenario(
    "hardy_ci",
    "Overlapping interferometers conditioned on silence: path correlations certified "
    "across a branch where nothing happened.",
    (),
    _run_hardy_ci,
)


def _run_ghostly_mirror(params, seed):
    reg = new_register(
        [
            ("spin", ("z_up", "z_down", "x_plus", "x_minus")),
            ("photon", ("left", "right")),
        ]
    )
    s6 = 1.0 / math.sqrt(6.0)
    state = superpose(
        reg,
        [
            (1.0, {"spin": "z_up", "photon": "left"}),
            (1.0, {"spin": "z_up", "photon": "right"}),
        ],
    )
    steps = [make_step("preparation", state)]
    checks = []

    state = apply_basis_change(state, "spin", HADAMARD, ("z_up", "z_down"), out_pair=("x_plus", "x_minus"))
    golden_diag = superpose(
        reg,
        [
            (1.0, {"spin": "x_plus", "photon": "left"}),
            (1.0, {"spin": "x_plus", "photon": "right"}),
            (1.0, {"spin": "x_minus", "photon": "left"}),
            (1.0, {"spin": "x_minus", "photon": "right"}),
        ],
    )
    checks.append(
        Check("diagonal_rewrite", "abs", 1.0, fidelity(state, golden_diag), 1e-12, "cross-basis constructor oracle")
    )
    steps.append(make_step("diagonal rewrite", state))

    with guard("scattering exclusion"):
        rec = postselect_out(state, {"spin": "x_minus", "photon": "left"})
    state = rec.post_state
    golden_excl = superpose(
        reg,
        [
            (1.0, {"spin": "x_plus", "photon": "left"}),
            (1.0, {"spin": "x_plus", "photon": "right"}),
            (1.0, {"spin": "x_minus", "photon": "right"}),
        ],
    )
    checks.append(Check("p_no_scatter", "abs", 0.75, rec.probability, 1e-12, "joint-Born oracle"))
    checks.append(
        Check("state_after_exclusion", "abs", 1.0, fidelity(state, golden_excl), 1e-12,
              "superposition-constructor oracle")
    )
    steps.append(make_step("scattering exclusion", state, events={"p_no_scatter": rec.probability}))

    state = apply_basis_change(state, "spin", HADAMARD, ("z_up", "z_down"), out_pair=("x_plus", "x_minus"))
    for assignment, expected, label in (
        ({"spin": "z_up", "photon": "left"}, s6, "amp_up_left"),
        ({"spin": "z_up", "photon": "right"}, 2.0 * s6, "amp_up_right"),
        ({"spin": "z_down", "photon": "left"}, s6, "amp_down_left"),
        ({"spin": "z_down", "photon": "right"}, 0.0, "amp_down_right"),
    ):
        amp = amplitude(state, assignment)
        checks.append(Check(label, "abs", expected, abs(amp), 1e-12, "cross-basis constructor oracle"))
    s_bits = cut_entropy(state, ("spin",))
    checks.append(
        Check("entropy_after_exclusion", "abs", THREE_BRANCH_ENTROPY, s_bits, 1e-12,
              "dense-eigendecomposition oracle")
    )
    steps.append(make_step("return to reference basis", state, entropies={"spin|photon": s_bits}))

    spin_dist = born_probabilities(state, "spin")
    checks.append(Check("p_z_down", "abs", 1.0 / 6.0, spin_dist.get("z_down", 0.0), 1e-12, "joint-Born oracle"))
    with guard("rare spin outcome"):
        down = project(state, "spin", "z_down")
    p_left = born_probabilities(down.post_state, "photon").get("left", 0.0)
    checks.append(Check("photon_left_given_z_down", "abs", 1.0, p_left, 1e-12, "joint-Born oracle"))
    joint_story = rec.probability * down.probability
    checks.append(Check("joint_story_probability", "abs", 0.125, joint_story, 1e-12, "product of branch weights"))
    steps.append(
        make_step(
            "spin readout",
            down.post_state,
            distribution=("spin", spin_dist),
            events={"p_left_given_down": p_left, "joint_story_probability": joint_story},
        )
    )

    notes = (
        "The rare spin outcome pins the photon to the side where scattering was excluded: "
        "a perfectly localized record of an interaction that never took place.",
    )
    return steps, checks, notes


GHOSTLY_MIRROR = Scenario(
    "ghostly_mirror",
    "A photon excluded from scattering on one side still ends up certified there "
    "by a rare spin readout.",
    (),
    _run_ghostly_mirror,
)
