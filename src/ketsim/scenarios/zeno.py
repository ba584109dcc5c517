"""Repeated-interrogation scenarios.

A photon is nudged out of its port by a small rotation each cycle; a
monitored exit projects it back, so the survival amplitude is a cosine
product instead of a coherent rotation. Putting the monitor itself in
superposition turns the photon's silence into information about the
monitor, and two monitors in superposition end up entangled with each
other through a photon that was never found anywhere else.

Expected values are closed-form cosine products and branch-amplitude
algebra in plain floats, computed apart from the sparse engine.
"""

from __future__ import annotations

import math

from ..entangle import cut_entropy, entropy, schmidt
from ..evolve import apply_basis_change, apply_rotation, controlled_relabel
from ..measure import born_probabilities, joint_probability, postselect, postselect_out, project
from ..register import amplitude, new_register, superpose
from ..report import Check, make_step
from . import HADAMARD, ParamSpec, Scenario, guard

_PI = math.pi


def _resolve_cycles(alpha: float, cycles: int) -> int:
    # cycles == 0 means: smallest count that walks the free rotation to at
    # least a quarter turn, with a dust guard against x.9999... floats. The
    # schema bounds both: alpha's low bound keeps the derived count <= cycles' high.
    return cycles if cycles > 0 else math.ceil(_PI / (2.0 * alpha) - 1e-9)


def _cycle_labels(n: int) -> tuple[str, ...]:
    width = len(str(n))
    return tuple("c" + str(k).zfill(width) for k in range(1, n + 1))


def _run_zeno_basic(params, seed):
    alpha = params["alpha"]
    n = _resolve_cycles(alpha, params["cycles"])
    marks = _cycle_labels(n)
    reg = new_register([("photon", ("left", "right")), ("boom", ("none",) + marks)])
    state = superpose(reg, [(1.0, {"photon": "left", "boom": "none"})])
    steps = [make_step("photon staged", state)]
    checks = []

    for k in range(1, n + 1):
        state = apply_rotation(state, "photon", ("left", "right"), alpha)
        state = controlled_relabel(
            state, {"photon": "right"}, [({"boom": "none"}, {"boom": marks[k - 1]})]
        )
        p_k = joint_probability(state, {"photon": "left", "boom": "none"})
        checks.append(
            Check(
                f"survival_cycle_{str(k).zfill(len(str(n)))}",
                "abs",
                math.cos(alpha) ** (2 * k),
                p_k,
                1e-10,
                "cosine-product oracle",
                sweep=False,
            )
        )

    amp = abs(amplitude(state, {"photon": "left", "boom": "none"}))
    p_survive = p_k  # the last cycle's survival weight
    checks.append(
        Check("survival_amplitude", "abs", math.cos(alpha) ** n, amp, 1e-10, "cosine-product oracle")
    )
    checks.append(
        Check(
            "survival_amplitude_linear", "abs", 1.0 - _PI * alpha / 4.0, amp, 0.02,
            "small-angle expansion of the cosine product",
        )
    )
    checks.append(
        Check("survival_probability", "abs", math.cos(alpha) ** (2 * n), p_survive, 1e-10,
              "cosine-product oracle")
    )
    boom_dist = born_probabilities(state, "boom")
    p_exploded = 1.0 - boom_dist.get("none", 0.0)
    checks.append(
        Check("p_explosion", "abs", 1.0 - math.cos(alpha) ** (2 * n), p_exploded, 1e-10,
              "cosine-product oracle")
    )
    steps.append(
        make_step(
            "interrogation cycles",
            state,
            distribution=("boom", boom_dist),
            events={"cycles_run": float(n), "survival_amplitude": amp, "p_explosion": p_exploded},
        )
    )

    # Same rotations with nothing watching: the amplitude walks away
    # coherently instead of being pinned.
    free = superpose(reg, [(1.0, {"photon": "left", "boom": "none"})])
    for _ in range(n):
        free = apply_rotation(free, "photon", ("left", "right"), alpha)
    free_amp = abs(amplitude(free, {"photon": "left", "boom": "none"}))
    checks.append(
        Check("no_detector_left_amplitude", "abs", abs(math.cos(n * alpha)), free_amp, 1e-10,
              "rotation-composition oracle")
    )
    steps.append(make_step("free evolution control", free, events={"left_amplitude": free_amp}))

    notes = (
        "Each silent cycle multiplies the survival amplitude by cos(alpha); the same rotations "
        "unobserved compose into a quarter turn that empties the port.",
    )
    return steps, checks, notes


ZENO_BASIC = Scenario(
    "zeno_basic",
    "A watched port keeps its photon: per-cycle cosine pinning versus the coherent "
    "quarter-turn escape of the unwatched control.",
    (
        ParamSpec("alpha", "float", _PI / 20.0, low=0.0124, high=_PI / 4.0, high_open=True,
                  doc="per-cycle rotation angle"),
        ParamSpec("cycles", "int", 0, low=0, high=127,
                  doc="interrogation cycles; 0 derives the quarter-turn count from alpha"),
    ),
    _run_zeno_basic,
)


def _run_zeno_counterfactual(params, seed):
    alpha = params["alpha"]
    n = _resolve_cycles(alpha, params["cycles"])
    marks = _cycle_labels(n)
    reg = new_register(
        [
            ("photon", ("left", "right")),
            ("bomb", ("z_up", "z_down")),
            ("boom", ("none",) + marks),
        ]
    )
    state = superpose(
        reg,
        [
            (1.0, {"photon": "left", "bomb": "z_up", "boom": "none"}),
            (1.0, {"photon": "left", "bomb": "z_down", "boom": "none"}),
        ],
    )
    steps = [make_step("photon staged, blocker in superposition", state)]
    checks = []

    for k in range(1, n + 1):
        state = apply_rotation(state, "photon", ("left", "right"), alpha)
        state = controlled_relabel(
            state,
            {"photon": "right", "bomb": "z_up"},
            [({"boom": "none"}, {"boom": marks[k - 1]})],
        )

    c_n = math.cos(alpha) ** n
    c_free = math.cos(n * alpha)
    p_silent_left = 0.5 * (c_n * c_n + c_free * c_free)
    with guard("silent photon still at its port"):
        silent = postselect(state, {"photon": "left", "boom": "none"})
    checks.append(
        Check("p_silent_left", "abs", p_silent_left, silent.probability, 1e-12,
              "branch-amplitude oracle")
    )
    boom_dist = born_probabilities(state, "boom")
    p_exploded = 1.0 - boom_dist.get("none", 0.0)
    checks.append(
        Check("p_explosion_total", "abs", 0.5 * (1.0 - c_n * c_n), p_exploded, 1e-12,
              "branch-amplitude oracle")
    )
    steps.append(
        make_step(
            "interrogation cycles",
            state,
            distribution=("boom", boom_dist),
            events={"cycles_run": float(n), "p_explosion_total": p_exploded},
        )
    )

    bomb_dist = born_probabilities(silent.post_state, "bomb")
    p_blocking = bomb_dist.get("z_up", 0.0)
    expected_blocking = c_n * c_n / (c_n * c_n + c_free * c_free)
    checks.append(
        Check("p_blocking_given_silence", "abs", expected_blocking, p_blocking, 1e-12,
              "branch-amplitude oracle")
    )
    checks.append(
        Check("blocking_inference", "ge", 0.99, p_blocking, 0.0,
              "silence-implies-blocker inference threshold")
    )
    steps.append(
        make_step(
            "silent readout",
            silent.post_state,
            distribution=("bomb", bomb_dist),
            events={"p_silent_left": silent.probability, "p_blocking_given_silence": p_blocking},
        )
    )

    notes = (
        "On the blocking branch the photon is pinned; on the free branch it walks away. "
        "A photon still sitting quietly at its port is therefore near-certain evidence of the "
        "blocker, although nothing was ever absorbed.",
    )
    return steps, checks, notes


ZENO_COUNTERFACTUAL = Scenario(
    "zeno_counterfactual",
    "The photon's silence interrogates a blocker in superposition: staying put certifies "
    "the blocking branch without any absorption.",
    (
        ParamSpec("alpha", "float", _PI / 40.0, low=0.025, high=_PI / 4.0, high_open=True,
                  doc="per-cycle rotation angle"),
        ParamSpec("cycles", "int", 0, low=0, high=63,
                  doc="interrogation cycles; 0 derives the quarter-turn count from alpha"),
    ),
    _run_zeno_counterfactual,
)


def _ghost_reference(alpha: float, n: int) -> dict:
    """Branch-amplitude algebra of the same cycle, apart from the sparse engine.

    Basis (middle, left, right), amplitude 1/2 per blocker branch: both ports
    blocked keep cos(alpha)^n in the middle, none turn freely to
    (cos n*alpha, s, s) with s = sin(n*alpha)/sqrt(2), and one iterates
    (middle, open port) = (m, o) from (1, 0).
    """
    c, r = math.cos(alpha), math.sin(alpha) / math.sqrt(2.0)
    m, o = 1.0, 0.0
    for _ in range(n):
        m, o = c * m - r * o, r * m + 0.5 * (1.0 + c) * o
    # cos and sin of n*alpha, corrected to first order for the product's rounding
    x = n * alpha
    e = math.fsum([alpha] * n + [-x])
    a, b = c**n, math.cos(x) - math.sin(x) * e
    s = (math.sin(x) + math.cos(x) * e) / math.sqrt(2.0)
    # Each Schmidt problem is 2x2, weights (1 +- root)/2: the smaller is the
    # determinant over the larger. Found, bombL against bombR: [[a, m], [m, b]]
    # over its norm, with 1 - 4 det^2 = (a + b)^2 ((a - b)^2 + 4m^2) / norm^2.
    norm = a * a + 2.0 * m * m + b * b
    hi = 0.5 * (1.0 + abs(a + b) * math.hypot(a - b, 2.0 * m) / norm)
    lo = ((a * b - m * m) / norm) ** 2 / hi
    # not found, bombL against the rest: rows (0, 0, 0, o) and (o, 0, s, s)
    h = math.hypot(o, s)
    nf_hi = 0.5 * (1.0 + abs(s) / h)
    kept = a * a + 2.0 * (m * m + o * o) + 1.0  # the free branch keeps its norm, 1
    return {
        "p_kept": 0.25 * kept,
        "p_found_given_kept": norm / kept,
        "schmidt_second": lo,
        "p_both_up_given_found": a * a / norm,
        "found_entropy": _bits(hi, lo),
        "notfound_entropy": _bits(nf_hi, (0.5 * o / h) ** 2 / nf_hi),
    }


def _bits(hi: float, lo: float) -> float:
    """Entropy in bits of two weights; a zero weight adds nothing."""
    return -(hi * math.log2(hi) + (lo * math.log2(lo) if lo > 0.0 else 0.0))


def _run_zeno_ghost(params, seed):
    alpha = params["alpha"]
    n = _resolve_cycles(alpha, params["cycles"])
    reg = new_register(
        [
            ("photon", ("middle", "left", "right")),
            ("bombL", ("z_up", "z_down")),
            ("bombR", ("z_up", "z_down")),
        ]
    )
    state = superpose(
        reg,
        [
            (1.0, {"photon": "middle", "bombL": bl, "bombR": br})
            for bl in ("z_up", "z_down")
            for br in ("z_up", "z_down")
        ],
    )
    steps = [make_step("photon centered, blockers in superposition", state)]
    checks = []
    ref = _ghost_reference(alpha, n)

    p_kept = 1.0
    for _ in range(n):
        state = apply_basis_change(state, "photon", HADAMARD, ("left", "right"))
        state = apply_rotation(state, "photon", ("middle", "left"), alpha)
        state = apply_basis_change(state, "photon", HADAMARD, ("left", "right"))
        with guard("no explosion on the left"):
            rec = postselect_out(state, {"photon": "left", "bombL": "z_up"})
        p_kept *= rec.probability
        state = rec.post_state
        with guard("no explosion on the right"):
            rec = postselect_out(state, {"photon": "right", "bombR": "z_up"})
        p_kept *= rec.probability
        state = rec.post_state

    checks.append(
        Check("p_no_explosion", "abs", ref["p_kept"], p_kept, 1e-9, "branch-amplitude oracle")
    )
    scale = math.sqrt(p_kept)
    amp_upup = abs(amplitude(state, {"photon": "middle", "bombL": "z_up", "bombR": "z_up"})) * scale
    amp_downdown = (
        abs(amplitude(state, {"photon": "middle", "bombL": "z_down", "bombR": "z_down"})) * scale
    )
    checks.append(
        Check("amp_middle_both_up", "abs", 0.5 * math.cos(alpha) ** n, amp_upup, 1e-9,
              "cosine-product oracle")
    )
    checks.append(
        Check("amp_middle_both_down", "abs", 0.5 * abs(math.cos(n * alpha)), amp_downdown, 1e-9,
              "rotation-composition oracle")
    )
    photon_dist = born_probabilities(state, "photon")
    steps.append(
        make_step(
            "interrogation cycles",
            state,
            distribution=("photon", photon_dist),
            events={"cycles_run": float(n), "p_no_explosion": p_kept},
        )
    )

    with guard("photon found in the middle"):
        found = project(state, "photon", "middle")
    spectrum = schmidt(found.post_state, (("bombL",), ("bombR", "photon")))
    # A product state has a one-term spectrum: its second weight is zero.
    second = spectrum.coefficients[1] if len(spectrum.coefficients) > 1 else 0.0
    p_both_up = joint_probability(found.post_state, {"bombL": "z_up", "bombR": "z_up"})
    found_entropy = entropy(spectrum)
    checks.append(
        Check("p_found_given_no_explosion", "abs", ref["p_found_given_kept"], found.probability,
              1e-9, "branch-amplitude oracle")
    )
    checks.append(
        Check("found_schmidt_second", "le", 0.05, second, 0.0,
              "near-product threshold for the derived cycle count")
    )
    checks.append(
        Check("found_schmidt_second_matches", "abs", ref["schmidt_second"], second,
              1e-9, "branch-amplitude oracle")
    )
    checks.append(
        Check("p_both_up_given_found", "abs", ref["p_both_up_given_found"], p_both_up, 1e-9,
              "branch-amplitude oracle")
    )
    checks.append(
        Check("found_entropy", "abs", ref["found_entropy"], found_entropy, 1e-9,
              "branch-amplitude oracle")
    )
    steps.append(
        make_step(
            "found in the middle",
            found.post_state,
            events={
                "p_found": found.probability,
                "schmidt_major": spectrum.coefficients[0],
                "schmidt_second": second,
            },
            entropies={"bombL|rest": found_entropy},
        )
    )

    with guard("photon missing from the middle"):
        missing = postselect_out(state, {"photon": "middle"})
    nf_entropy = cut_entropy(missing.post_state, ("bombL",))
    checks.append(
        Check("notfound_entropy", "abs", ref["notfound_entropy"], nf_entropy, 1e-9,
              "branch-amplitude oracle")
    )
    checks.append(
        Check("notfound_entangled", "ge", 1e-6, nf_entropy, 0.0, "positivity threshold")
    )
    steps.append(
        make_step(
            "missing from the middle",
            missing.post_state,
            events={"p_missing": missing.probability},
            entropies={"bombL|rest": nf_entropy},
        )
    )

    notes = (
        "Finding the photon still centered mostly certifies both blockers, but not exactly: "
        "the residual second Schmidt weight measures how far silence falls short of a projection.",
        "Not finding it leaves the two blockers entangled with each other through a photon "
        "neither of them absorbed.",
    )
    return steps, checks, notes


ZENO_GHOST_ENTANGLEMENT = Scenario(
    "zeno_ghost_entanglement",
    "Two blockers in superposition interrogated by one photon: the found branch is "
    "near-product, the missing branch leaves them entangled.",
    (
        ParamSpec("alpha", "float", _PI / 40.0, low=0.008, high=_PI / 4.0, high_open=True,
                  doc="per-cycle rotation angle"),
        ParamSpec("cycles", "int", 0, low=0, high=200,
                  doc="interrogation cycles; 0 derives the quarter-turn count from alpha"),
    ),
    _run_zeno_ghost,
)
