"""Which-path marking and its undoing.

An interferometer with a path marker shows no fringes, because the marker's
state is a record. Reading the marker in its diagonal basis erases the
record and revives full-contrast fringes in the conditioned statistics. A
d-level ring pierced by a phase shows the same discipline: the enclosed
phase only interferes once the ring's which-path record is wound back.
Expected values are closed-form interference formulas and two-level
decoherence algebra.
"""

from __future__ import annotations

import math

from ..entangle import cut_entropy
from ..errors import ParameterError
from ..evolve import apply_basis_change, apply_split, controlled_phase, controlled_relabel, recombine_probability
from ..measure import born_probabilities, project
from ..register import new_register, superpose
from ..report import Check, make_step
from . import HADAMARD, ParamSpec, Scenario, guard


def _erasure_arms(reg):
    """The staged photon, and the state after the splitter tags arm a: the
    part of a pass that does not depend on the phase."""
    staged = superpose(reg, [(1.0, {"photon": "src", "marker": "plain"})])
    state = apply_split(staged, "photon", "src", ("path_a", "path_b"))
    tagged = controlled_relabel(state, {"photon": "path_a"}, [({"marker": "plain"}, {"marker": "tag"})])
    return staged, tagged


def _erasure_pass(tagged, phi: float):
    """One interferometer pass at phase phi from the tagged arms: the marked
    and recombined states, and the record of reading the marker as 'plain'
    in its diagonal basis."""
    marked = controlled_phase(tagged, {"photon": "path_a"}, phi)
    recombined = apply_split(marked, "photon", "src", ("path_a", "path_b"))
    erased = apply_basis_change(recombined, "marker", HADAMARD, ("plain", "tag"))
    return marked, recombined, project(erased, "marker", "plain")


def _visibility(values) -> float:
    hi, lo = max(values), min(values)
    return (hi - lo) / (hi + lo)


def _run_quantum_erasure(params, seed):
    points = params["points"]
    if points % 2:
        raise ParameterError("points must be even so the phase grid contains pi exactly")
    reg = new_register([("photon", ("src", "path_a", "path_b")), ("marker", ("plain", "tag"))])
    staged, tagged = _erasure_arms(reg)
    checks = []
    marked = []
    erased = []
    width = len(str(points - 1))
    for k in range(points):
        phi = 2.0 * math.pi * k / points
        _marked, recombined, rec = _erasure_pass(tagged, phi)
        p_marked = born_probabilities(recombined, "photon").get("src", 0.0)
        p_erased = born_probabilities(rec.post_state, "photon").get("src", 0.0)
        marked.append(p_marked)
        erased.append(p_erased)
        tag = str(k).zfill(width)
        checks.append(
            Check(f"fringe_marked_{tag}", "abs", 0.5, p_marked, 1e-10,
                  "which-path decoherence algebra", sweep=False)
        )
        checks.append(
            Check(f"fringe_erased_{tag}", "abs", math.cos(phi / 2.0) ** 2, p_erased, 1e-10,
                  "interference closed form", sweep=False)
        )

    v_marked = _visibility(marked)
    v_erased = _visibility(erased)
    checks.append(Check("visibility_marked", "le", 0.01, v_marked, 0.0, "which-path decoherence algebra"))
    checks.append(Check("visibility_erased", "ge", 0.99, v_erased, 0.0, "interference closed form"))

    # Representative pass at a quarter-period phase for the timeline record.
    with guard("quantum_erasure", "diagonal marker readout"):
        marked_arms, recombined, rec = _erasure_pass(tagged, math.pi / 2.0)
    steps = [
        make_step("photon staged", staged),
        make_step("marked arms", marked_arms,
                  entropies={"marker|photon": cut_entropy(marked_arms, ("marker",))}),
        make_step("recombined, marker unread", recombined,
                  distribution=("photon", born_probabilities(recombined, "photon"))),
    ]
    checks.append(
        Check("p_erase_outcome", "abs", 0.5, rec.probability, 1e-10, "joint-Born oracle")
    )
    steps.append(
        make_step(
            "marker erased",
            rec.post_state,
            distribution=("photon", born_probabilities(rec.post_state, "photon")),
            events={"visibility_marked": v_marked, "visibility_erased": v_erased,
                    "phase_points": float(points)},
        )
    )

    notes = (
        "The record, not any disturbance, kills the fringes: erase the record in the diagonal "
        "basis and the conditioned statistics oscillate at full contrast.",
    )
    return steps, checks, notes


QUANTUM_ERASURE = Scenario(
    "quantum_erasure",
    "A path marker flattens the fringes; reading it diagonally revives full-contrast "
    "fringes in the conditioned counts.",
    (
        ParamSpec("points", "int", 32, low=4, high=256, doc="even number of phase samples over one period"),
    ),
    _run_quantum_erasure,
)


def _ring_labels(d: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(d))


def _run_ab_toy(params, seed):
    d = params["d"]
    phi = params["phi"]
    labels = _ring_labels(d)
    reg = new_register([("charge", ("src", "path_a", "path_b")), ("ring", labels)])
    state = superpose(reg, [(1.0, {"charge": "src", "ring": "w0"})])
    steps = [make_step("charge staged", state)]
    checks = []

    state = apply_split(state, "charge", "src", ("path_a", "path_b"))
    shift_up = [({"ring": labels[i]}, {"ring": labels[(i + 1) % d]}) for i in range(d)]
    shift_down = [({"ring": labels[(i + 1) % d]}, {"ring": labels[i]}) for i in range(d)]
    state = controlled_relabel(state, {"charge": "path_a"}, shift_up)
    s_inside = cut_entropy(state, ("charge",))
    checks.append(
        Check("entanglement_inside", "abs", 1.0, s_inside, 1e-12, "dense-eigendecomposition oracle")
    )
    steps.append(
        make_step(
            "one arm threads the ring",
            state,
            distribution=("ring", born_probabilities(state, "ring")),
            entropies={"charge|ring": s_inside},
        )
    )

    state = controlled_phase(state, {"charge": "path_a"}, phi)
    marked = state  # record kept: the ring still knows which arm passed

    state = controlled_relabel(state, {"charge": "path_a"}, shift_down)
    s_outside = cut_entropy(state, ("charge",))
    checks.append(
        Check("entanglement_outside", "abs", 0.0, s_outside, 1e-9, "dense-eigendecomposition oracle")
    )
    steps.append(make_step("arm unwinds the ring", state, entropies={"charge|ring": s_outside}))

    p_src = recombine_probability(state, "charge", ("path_a", "path_b"), "src")
    expected = math.cos(phi / 2.0) ** 2
    checks.append(Check("recombination", "abs", expected, p_src, 1e-10, "interference closed form"))
    p_src_marked = recombine_probability(marked, "charge", ("path_a", "path_b"), "src")
    checks.append(
        Check("recombination_marked", "abs", 0.5, p_src_marked, 1e-10, "which-path decoherence algebra")
    )
    final = apply_split(state, "charge", "src", ("path_a", "path_b"))
    steps.append(
        make_step(
            "recombination",
            final,
            distribution=("charge", born_probabilities(final, "charge")),
            events={"recombination": p_src, "recombination_marked": p_src_marked},
        )
    )

    notes = (
        "The enclosed phase shows up only after the ring's which-arm record is wound back; "
        "with the record kept, the fringes flatten to one half.",
    )
    return steps, checks, notes


AB_TOY = Scenario(
    "ab_toy",
    "A charge threads a d-level ring: the enclosed phase interferes only once the ring's "
    "which-arm record is unwound.",
    (
        ParamSpec("d", "int", 3, low=2, high=16, doc="ring dimension"),
        ParamSpec("phi", "float", math.pi / 3.0, low=-6.3, high=6.3, doc="enclosed phase"),
    ),
    _run_ab_toy,
)
