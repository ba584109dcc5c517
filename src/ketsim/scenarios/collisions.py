"""Elastic-collision scenarios: records that persist, records that cancel.

Two atoms cross twice; each crossing deflects both partners onto marked
paths. Unlike an interrupted annihilation, the deflection writes a record
into both subsystems, so entanglement survives to the end. Adding pointer
systems that copy the deflection record, then finding both pointers quiet,
deletes the record again: the quiet branch recombines perfectly and the
logged dynamics cannot be run backwards to the start from the conditioned
state. Expected values are closed forms from amplitude bookkeeping (each
surviving branch has amplitude 1/2) and by-hand Gram eigenvalues.
"""

from __future__ import annotations

import math

from ..entangle import cut_entropy, entropy, schmidt
from ..evolve import OpLog, apply_split, controlled_relabel, time_reverse
from ..measure import born_probabilities, joint_probability, postselect, postselect_out, project, recombine_probability
from ..register import fidelity, new_register, superpose
from ..report import Check, make_step
from . import Scenario, guard

_SQRT5 = math.sqrt(5.0)
# A1-cut spectrum after the first crossing only: one branch fully marked,
# the other three still sharing a label.
POST_T1_SPECTRUM = ((3.0 + _SQRT5) / 8.0, 0.25, (3.0 - _SQRT5) / 8.0)
# A1-cut spectrum once both crossings are done.
FINAL_SPECTRUM = (0.75, 0.25)


def _atom_register(with_pointers: bool):
    specs = [
        ("atom1", ("src", "arm1", "arm2", "arm1d", "arm2d")),
        ("atom2", ("src", "arm3", "arm4", "arm3d", "arm3dd")),
    ]
    if with_pointers:
        specs.append(("ptr1", ("idle", "kick")))
        specs.append(("ptr2", ("idle", "kick")))
    return new_register(specs)


def _split_both(state, log=None):
    state = apply_split(state, "atom1", "src", ("arm1", "arm2"), log=log)
    state = apply_split(state, "atom2", "src", ("arm3", "arm4"), log=log)
    return state


def _first_crossing(state, log=None):
    return controlled_relabel(
        state,
        {},
        [({"atom1": "arm2", "atom2": "arm3"}, {"atom1": "arm2d", "atom2": "arm3d"})],
        log=log,
    )


def _second_crossing_and_drift(state, log=None):
    # The second deflection and the free drift of the unmet packets belong
    # to the same time step; only their combination is a snapshot.
    state = controlled_relabel(
        state,
        {},
        [({"atom1": "arm1", "atom2": "arm3"}, {"atom1": "arm1d", "atom2": "arm3dd"})],
        log=log,
    )
    state = controlled_relabel(
        state,
        {"atom2": "arm4"},
        [({"atom1": "arm1"}, {"atom1": "arm1d"}), ({"atom1": "arm2"}, {"atom1": "arm2d"})],
        log=log,
    )
    return state


def _run_atom_collision(params, seed):
    reg = _atom_register(with_pointers=False)
    state = superpose(reg, [(1.0, {"atom1": "src", "atom2": "src"})])
    steps = [make_step("sources ready", state)]
    checks = []

    state = _split_both(state)
    steps.append(make_step("beam splitters", state, entropies={"atom1|atom2": cut_entropy(state, ("atom1",))}))

    state = _first_crossing(state)
    s_t1 = cut_entropy(state, ("atom1",))
    checks.append(
        Check("entropy_after_t1", "abs", entropy(POST_T1_SPECTRUM), s_t1, 1e-9, "by-hand Gram eigenvalue oracle")
    )
    steps.append(make_step("first crossing", state, entropies={"atom1|atom2": s_t1}))

    state = _second_crossing_and_drift(state)
    golden_final = superpose(
        reg,
        [
            (1.0, {"atom1": "arm1d", "atom2": "arm3dd"}),
            (1.0, {"atom1": "arm2d", "atom2": "arm3d"}),
            (1.0, {"atom1": "arm1d", "atom2": "arm4"}),
            (1.0, {"atom1": "arm2d", "atom2": "arm4"}),
        ],
    )
    checks.append(
        Check("state_after_t2", "abs", 1.0, fidelity(state, golden_final), 1e-12,
              "superposition-constructor oracle")
    )
    for a1_arm, a2_arm, tag in (
        ("arm1d", "arm3dd", "1_3dd"),
        ("arm2d", "arm3d", "2_3d"),
        ("arm1d", "arm4", "1_4"),
        ("arm2d", "arm4", "2_4"),
    ):
        checks.append(
            Check(f"p_branch_{tag}", "abs", 0.25,
                  joint_probability(state, {"atom1": a1_arm, "atom2": a2_arm}), 1e-12, "joint-Born oracle")
        )
    marg1 = born_probabilities(state, "atom1")
    checks.append(Check("marginal_atom1_arm1d", "abs", 0.5, marg1.get("arm1d", 0.0), 1e-12, "joint-Born oracle"))
    checks.append(Check("marginal_atom1_arm2d", "abs", 0.5, marg1.get("arm2d", 0.0), 1e-12, "joint-Born oracle"))
    marg2 = born_probabilities(state, "atom2")
    p_deflected = marg2.get("arm3d", 0.0) + marg2.get("arm3dd", 0.0)
    checks.append(Check("p_atom2_deflected", "abs", 0.5, p_deflected, 1e-12, "joint-Born oracle"))

    spectrum = schmidt(state, (("atom1",), ("atom2",)))
    s_final = entropy(spectrum)
    checks.append(Check("schmidt_major", "abs", FINAL_SPECTRUM[0], spectrum.coefficients[0], 1e-12, "dense-SVD oracle"))
    checks.append(Check("schmidt_minor", "abs", FINAL_SPECTRUM[1], spectrum.coefficients[1], 1e-12, "dense-SVD oracle"))
    checks.append(
        Check("entropy_final", "abs", entropy(FINAL_SPECTRUM), s_final, 1e-12, "by-hand Gram eigenvalue oracle")
    )
    with guard("conditioning on first deflection"):
        cond_3d = project(state, "atom2", "arm3d").post_state
    checks.append(
        Check("p_arm2d_given_3d", "abs", 1.0, born_probabilities(cond_3d, "atom1").get("arm2d", 0.0), 1e-12,
              "joint-Born oracle")
    )
    with guard("conditioning on second deflection"):
        cond_3dd = project(state, "atom2", "arm3dd").post_state
    checks.append(
        Check("p_arm1d_given_3dd", "abs", 1.0, born_probabilities(cond_3dd, "atom1").get("arm1d", 0.0), 1e-12,
              "joint-Born oracle")
    )
    steps.append(
        make_step(
            "second crossing and drift",
            state,
            distribution=("atom2", marg2),
            entropies={"atom1|atom2": s_final},
        )
    )

    r1 = recombine_probability(state, "atom1", ("arm1d", "arm2d"), "src")
    checks.append(Check("recombination_atom1", "abs", 0.75, r1, 1e-10, "splitter-algebra oracle"))
    steps.append(make_step("recombination", events={"recombination_atom1": r1}))

    notes = (
        "Both crossings leave which-path records in the partner atom, so the final entanglement "
        "(0.811 bits) never falls back to zero and the first atom only partially recombines.",
    )
    return steps, checks, notes


ATOM_COLLISION = Scenario(
    "atom_collision",
    "Two atoms cross twice; every branch keeps a deflection record, and entanglement "
    "peaks then settles at 0.811 bits.",
    (),
    _run_atom_collision,
)


def _run_oblivion_with_pointers(params, seed):
    reg = _atom_register(with_pointers=True)
    initial = superpose(reg, [(1.0, {"atom1": "src", "atom2": "src", "ptr1": "idle", "ptr2": "idle"})])
    log = OpLog()
    state = initial
    steps = [make_step("sources ready", state)]
    checks = []

    state = _split_both(state, log=log)
    steps.append(make_step("beam splitters", state, entropies={"atom1|rest": cut_entropy(state, ("atom1",))}))

    state = _first_crossing(state, log=log)
    steps.append(make_step("first crossing", state, entropies={"atom1|rest": cut_entropy(state, ("atom1",))}))

    state = _second_crossing_and_drift(state, log=log)
    steps.append(make_step("second crossing and drift", state,
                           entropies={"atom1|rest": cut_entropy(state, ("atom1",))}))

    # Pointers copy the deflection record out of atom2.
    state = controlled_relabel(state, {"atom2": "arm3d"}, [({"ptr1": "idle"}, {"ptr1": "kick"})], log=log)
    state = controlled_relabel(state, {"atom2": "arm3dd"}, [({"ptr2": "idle"}, {"ptr2": "kick"})], log=log)
    entropies = {
        "atom1|rest": cut_entropy(state, ("atom1",)),
        "atom2|rest": cut_entropy(state, ("atom2",)),
        "ptr1|rest": cut_entropy(state, ("ptr1",)),
        "ptr2|rest": cut_entropy(state, ("ptr2",)),
    }
    two_state_bits = entropy(FINAL_SPECTRUM)
    checks.append(Check("entropy_atom1", "abs", two_state_bits, entropies["atom1|rest"], 1e-12,
                        "by-hand Gram eigenvalue oracle"))
    checks.append(Check("entropy_atom2", "abs", 1.5, entropies["atom2|rest"], 1e-12,
                        "by-hand Gram eigenvalue oracle"))
    checks.append(Check("entropy_pointer1", "abs", two_state_bits, entropies["ptr1|rest"], 1e-12,
                        "by-hand Gram eigenvalue oracle"))
    checks.append(Check("entropy_pointer2", "abs", two_state_bits, entropies["ptr2|rest"], 1e-12,
                        "by-hand Gram eigenvalue oracle"))
    steps.append(make_step("pointer coupling", state, entropies=entropies))

    # The subspace where a collision did happen is maximally entangled.
    with guard("collided subspace"):
        collided = postselect_out(state, {"atom2": "arm4"})
    golden_collided = superpose(
        reg,
        [
            (1.0, {"atom1": "arm1d", "atom2": "arm3dd", "ptr1": "idle", "ptr2": "kick"}),
            (1.0, {"atom1": "arm2d", "atom2": "arm3d", "ptr1": "kick", "ptr2": "idle"}),
        ],
    )
    checks.append(Check("collided_subspace_probability", "abs", 0.5, collided.probability, 1e-12,
                        "joint-Born oracle"))
    checks.append(Check("collided_subspace_state", "abs", 1.0,
                        fidelity(collided.post_state, golden_collided), 1e-12, "superposition-constructor oracle"))
    checks.append(Check("collided_subspace_entropy", "abs", 1.0,
                        cut_entropy(collided.post_state, ("atom1",)), 1e-12, "dense-eigendecomposition oracle"))
    steps.append(make_step("collided subspace", collided.post_state,
                           events={"p_collided": collided.probability}))

    f_before = fidelity(time_reverse(state, log), initial)
    checks.append(Check("reversal_before_readout", "abs", 1.0, f_before, 1e-10, "logged-inverse oracle"))

    # Pointer readout.
    with guard("quiet readout"):
        quiet = postselect(state, {"ptr1": "idle", "ptr2": "idle"})
    with guard("first-pointer kick"):
        kick1 = postselect(state, {"ptr1": "kick", "ptr2": "idle"})
    with guard("second-pointer kick"):
        kick2 = postselect(state, {"ptr1": "idle", "ptr2": "kick"})
    p_quiet, p_kick1, p_kick2 = quiet.probability, kick1.probability, kick2.probability
    checks.append(Check("p_quiet", "abs", 0.5, p_quiet, 1e-12, "joint-Born oracle"))
    checks.append(Check("p_kick_t1", "abs", 0.25, p_kick1, 1e-12, "joint-Born oracle"))
    checks.append(Check("p_kick_t2", "abs", 0.25, p_kick2, 1e-12, "joint-Born oracle"))

    r_quiet = recombine_probability(quiet.post_state, "atom1", ("arm1d", "arm2d"), "src")
    r_kick1 = recombine_probability(kick1.post_state, "atom1", ("arm1d", "arm2d"), "src")
    r_kick2 = recombine_probability(kick2.post_state, "atom1", ("arm1d", "arm2d"), "src")
    average = p_quiet * r_quiet + p_kick1 * r_kick1 + p_kick2 * r_kick2
    checks.append(Check("recombination_quiet", "abs", 1.0, r_quiet, 1e-10, "splitter-algebra oracle"))
    checks.append(Check("recombination_kick_t1", "abs", 0.5, r_kick1, 1e-10, "splitter-algebra oracle"))
    checks.append(Check("recombination_kick_t2", "abs", 0.5, r_kick2, 1e-10, "splitter-algebra oracle"))
    checks.append(Check("recombination_average", "abs", 0.75, average, 1e-12, "branch-weighted bookkeeping"))
    s_quiet = cut_entropy(quiet.post_state, ("atom1",))
    checks.append(Check("entropy_quiet_branch", "abs", 0.0, s_quiet, 1e-9, "dense-eigendecomposition oracle"))
    steps.append(
        make_step(
            "pointer readout",
            quiet.post_state,
            distribution=("ptr1", born_probabilities(state, "ptr1")),
            events={
                "p_quiet": p_quiet,
                "p_kick_t1": p_kick1,
                "p_kick_t2": p_kick2,
                "recombination_quiet": r_quiet,
                "recombination_average": average,
            },
            entropies={"atom1|rest": s_quiet},
        )
    )

    f_after = fidelity(time_reverse(quiet.post_state, log), initial)
    checks.append(Check("reversal_after_readout", "abs", 0.5, f_after, 1e-10, "logged-inverse oracle"))
    steps.append(
        make_step("time reversal", events={"fidelity_before_readout": f_before, "fidelity_after_readout": f_after})
    )

    notes = (
        "Finding both pointers quiet erases every record of the crossings: the quiet branch "
        "recombines perfectly, yet running the logged dynamics backwards from it no longer "
        "reaches the initial state.",
        "The averaged recombination over readout outcomes equals the unconditioned 0.75, so the "
        "erasure buys nothing on average.",
    )
    return steps, checks, notes


OBLIVION_WITH_POINTERS = Scenario(
    "oblivion_with_pointers",
    "Pointer systems copy the collision record; a double-null readout deletes the past "
    "that the logged dynamics would need to rewind.",
    (),
    _run_oblivion_with_pointers,
)
