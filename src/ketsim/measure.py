"""Born-rule readout: projective, post-selected, partial, and weak measurement.

Everything here is a pure transformation; randomness enters only through a
caller-supplied seed or numpy Generator, so runs replay exactly. Projections
renormalize, and an outcome whose Born weight falls at or below the 1e-12
floor raises ImpossibleOutcomeError rather than returning NaN amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import PROB_FLOOR, ImpossibleOutcomeError, ParameterError, conditioning_scale
from .grid import _density, fine_grid_size, gaussian_packet, grid_xs
from .register import (
    NORM_TOL,
    PRUNE_TOL,
    Register,
    StateVector,
    fold_sum,
    matches,
)


def as_generator(seed) -> np.random.Generator:
    """Accept an integer seed or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MeasurementRecord:
    """One readout: which outcome occurred, how likely it was, what remains.

    outcomes maps subsystem name to the recorded outcome (a register label,
    or the click/no-click tag of a partial readout). negated=True means the
    record conditions on the outcome NOT being the listed assignment (a null
    result over several subsystems at once).
    """

    outcomes: dict[str, str]
    probability: float
    post_state: StateVector
    negated: bool = False

    def __post_init__(self) -> None:
        if not (PROB_FLOOR < self.probability <= 1.0 + 1e-10):
            raise ImpossibleOutcomeError(
                f"outcome probability {self.probability!r} outside (1e-12, 1]"
            )
        n = self.post_state.norm()
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"post state norm {n!r} is not 1 within {NORM_TOL}")

    @property
    def subsystem(self) -> str:
        (name,) = self.outcomes
        return name

    @property
    def outcome(self) -> str:
        (label,) = self.outcomes.values()
        return label


def _labels_of(reg: Register, subsystem: str) -> tuple[int, tuple[str, ...]]:
    """(subsystem index, its labels)."""
    si = reg.index(subsystem)
    return si, reg.subsystems[si].labels


def born_probabilities(state: StateVector, subsystem: str) -> dict[str, float]:
    """Marginal outcome distribution of one subsystem (zero entries dropped)."""
    si, labels = state.register.plan((_labels_of, subsystem))
    acc = [0.0] * len(labels)
    for key, amp in state.amplitudes.items():
        acc[key[si]] += abs(amp) ** 2
    return {labels[i]: w for i, w in enumerate(acc) if w > 0.0}


def joint_probability(state: StateVector, assignments: Mapping[str, str]) -> float:
    """Born weight of a partial assignment, without projecting."""
    items = state.register.partial_items(assignments)
    return float(fold_sum(abs(a) ** 2 for k, a in state.amplitudes.items() if matches(k, items)))


def _condition(register: Register, image: dict, outcome: str | Callable[[], str]) -> tuple[float, StateVector]:
    """(Born weight, normalized post state) of an outcome's unnormalized
    image: the conditioning rule of every projection, post-selection and
    partial outcome.

    The weight adds every |a|^2 of the image in order; the post state keeps
    each amplitude above PRUNE_TOL, scaled by conditioning_scale(weight).
    `outcome` names the outcome, or is a function that names it on refusal.
    """
    weight = float(fold_sum(abs(a) ** 2 for a in image.values()))
    scale = conditioning_scale(weight, outcome)
    return weight, StateVector(register, {k: a * scale for k, a in image.items() if abs(a) > PRUNE_TOL})


def _conditioned(
    state: StateVector, assignments: Mapping[str, str], keep_matching: bool
) -> tuple[float, StateVector]:
    items = state.register.partial_items(assignments)
    image = {k: a for k, a in state.amplitudes.items() if matches(k, items) == keep_matching}
    word = "" if keep_matching else "complement of "
    return _condition(state.register, image, lambda: f"{word}{dict(assignments)}")


def project(state: StateVector, subsystem: str, label: str) -> MeasurementRecord:
    """Projective readout of one subsystem onto one label."""
    outcome = {subsystem: label}
    prob, post = _conditioned(state, outcome, True)
    return MeasurementRecord(outcome, prob, post)


def postselect(state: StateVector, assignments: Mapping[str, str]) -> MeasurementRecord:
    """Condition on a joint outcome over several subsystems at once."""
    if not assignments:
        raise ParameterError("postselect needs at least one subsystem assignment")
    prob, post = _conditioned(state, assignments, True)
    return MeasurementRecord(dict(assignments), prob, post)


def postselect_out(state: StateVector, assignments: Mapping[str, str]) -> MeasurementRecord:
    """Condition on a joint outcome NOT occurring (the null-result branch).

    This is the no-detection reading: every branch matching the assignment is
    removed, the rest renormalized. With a single detector subsystem it
    coincides with projecting the detector onto its quiet label.
    """
    if not assignments:
        raise ParameterError("postselect_out needs at least one subsystem assignment")
    prob, post = _conditioned(state, assignments, False)
    return MeasurementRecord(dict(assignments), prob, post, negated=True)


def sample_measure(state: StateVector, subsystem: str, seed) -> MeasurementRecord:
    """Draw one projective outcome from the Born distribution and collapse."""
    rng = as_generator(seed)
    dist = born_probabilities(state, subsystem)
    labels = list(dist)
    weights = np.array([dist[l] for l in labels], dtype=float)
    weights /= weights.sum()
    label = labels[int(rng.choice(len(labels), p=weights))]
    return project(state, subsystem, label)


@dataclass(frozen=True)
class PartialStrength:
    """Coupling fraction of a partial readout: the detector sees only a
    portion eps of the monitored branch; eps=1 is projective, eps=0 is off."""

    eps: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.eps <= 1.0):
            raise ParameterError(f"eps must lie in [0, 1], got {self.eps!r}")


def _strength_eps(strength) -> float:
    if isinstance(strength, PartialStrength):
        return strength.eps
    return PartialStrength(float(strength)).eps


def _partial_image(
    state: StateVector, subsystem: str, monitored_label: str, eps: float, outcome: str
) -> dict:
    """Unnormalized image of one partial-readout outcome.

    Click operator: sqrt(eps) * P_monitored. No-click operator:
    P_rest + sqrt(1-eps) * P_monitored. Their squares sum to the identity.
    """
    ((si, mi),) = state.register.partial_items({subsystem: monitored_label})
    if outcome == "click":
        s = math.sqrt(eps)
        return {k: s * a for k, a in state.amplitudes.items() if k[si] == mi}
    if outcome == "no-click":
        s = math.sqrt(1.0 - eps)
        return {k: s * a if k[si] == mi else a for k, a in state.amplitudes.items()}
    raise ParameterError(f"outcome must be 'click' or 'no-click', got {outcome!r}")


def apply_partial_outcome(
    state: StateVector, subsystem: str, monitored_label: str, strength, outcome: str
) -> MeasurementRecord:
    """Deterministically apply one partial-readout outcome ('click'/'no-click')."""
    image = _partial_image(state, subsystem, monitored_label, _strength_eps(strength), outcome)
    p, post = _condition(state.register, image, lambda: f"partial outcome {outcome!r}")
    return MeasurementRecord({subsystem: outcome}, p, post)


def partial_measure(
    state: StateVector, subsystem: str, monitored_label: str, strength, seed
) -> MeasurementRecord:
    """Sample a partial readout of the monitored branch.

    Click probability is eps times the branch's Born weight; the no-click
    image keeps the rest untouched and damps the monitored branch by
    sqrt(1-eps), so repeated null results bias the state without collapsing.
    """
    eps = _strength_eps(strength)
    rng = as_generator(seed)
    click = _partial_image(state, subsystem, monitored_label, eps, "click")
    p_click = fold_sum(abs(a) ** 2 for a in click.values())
    outcome = "click" if rng.random() < p_click else "no-click"
    return apply_partial_outcome(state, subsystem, monitored_label, eps, outcome)


def erase_partial(
    state: StateVector, subsystem: str, pair: tuple[str, str]
) -> tuple[float, float, StateVector]:
    """Undo the bias of earlier null results on a two-label subsystem.

    For a state a|l_boosted> + b|l_suppressed> with |a| >= |b| > 0, a second
    partial readout on the boosted branch with eps' solving
    sqrt(1-eps')*|a| = |b| returns, on its no-click outcome, to equal
    magnitudes with the relative phase intact. Returns
    (eps', success probability = 2|b|^2, the no-click post state).
    """
    l_boost, l_supp = pair
    w = born_probabilities(state, subsystem)
    w_boost = w.get(l_boost, 0.0)
    w_supp = w.get(l_supp, 0.0)
    if abs(w_boost + w_supp - 1.0) > NORM_TOL:
        raise ParameterError("state must be supported on the given pair alone")
    if w_supp <= PROB_FLOOR:
        raise ImpossibleOutcomeError(
            "suppressed branch has no amplitude left; the bias is a full collapse"
        )
    if w_boost < w_supp - NORM_TOL:
        raise ParameterError("first pair label must carry the boosted (larger) weight")
    eps_prime = 1.0 - w_supp / w_boost
    record = apply_partial_outcome(state, subsystem, l_boost, eps_prime, "no-click")
    success = 2.0 * w_supp
    return eps_prime, success, record.post_state


@dataclass(frozen=True)
class WeakParams:
    """Pointer coupling: each eigenvalue shifts a Gaussian pointer by g*value.

    sigma is the pointer width (amplitude exp(-x^2/2 sigma^2)).
    """

    g: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0):
            raise ParameterError("sigma must be positive")
        if not math.isfinite(self.g):
            raise ParameterError("g must be finite")


@dataclass(frozen=True, eq=False)
class WeakJointState:
    """System-pointer state after a weak coupling.

    pointers maps each populated system key to its (unnormalized) pointer
    amplitude array; the system amplitude is folded in, so the total norm
    sum_k sum_j |arr_k[j]|^2 dx is 1.
    """

    register: Register
    n: int
    x_min: float
    x_max: float
    pointers: dict

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def norm_sq(self) -> float:
        return float(
            fold_sum(np.sum(np.abs(arr) ** 2) for arr in self.pointers.values()) * self.dx
        )

    @cached_property
    def _sampler(self) -> tuple[np.ndarray, np.ndarray]:
        """(position cdf, position grid), built once.

        The cdf is normalized the way Generator.choice(p=...) normalizes it, so
        a searchsorted draw of one uniform picks the index choice would pick.
        A zero-weight joint raises here on every access: a cached_property
        caches only a returned value. The arithmetic runs in place, in the
        order of sum(|arr|^2) * dx / total, so it holds two n-point arrays.
        """
        density = np.zeros(self.n)
        for arr in self.pointers.values():
            density += _density(arr)
        density *= self.dx
        total = float(density.sum())
        if total <= PROB_FLOOR:
            raise ImpossibleOutcomeError("joint state has no weight to sample")
        density /= total
        cdf = np.cumsum(density, out=density)
        cdf /= cdf[-1]
        return cdf, grid_xs(self.n, self.x_min, self.x_max)


def weak_measure(
    state: StateVector,
    subsystem: str,
    observable: Mapping[str, float],
    params: WeakParams,
) -> WeakJointState:
    """Couple an observable of one subsystem to the pointer position.

    Each branch carries a Gaussian pointer centered at g times the branch's
    eigenvalue; nothing is sampled yet, so the joint state stays pure. The
    grid spans +-(10 sigma + 5 |g| max|eigenvalue|) with at least 8 points
    per sigma, so every shifted pointer is contained.
    """
    reg = state.register
    si = reg.index(subsystem)
    spec = reg.spec(subsystem)
    shifts: dict[int, float] = {}
    for key in state.amplitudes:
        li = key[si]
        if li not in shifts:
            label = spec.labels[li]
            if label not in observable:
                raise ParameterError(f"observable gives no eigenvalue for populated label {label!r}")
            shifts[li] = params.g * float(observable[label])
    half = 10.0 * params.sigma + 5.0 * max(map(abs, shifts.values()), default=0.0)
    n = fine_grid_size(2.0 * half, params.sigma / 8.0)
    last = {shifts[key[si]]: key for key in state.amplitudes}
    packets = {}
    pointers = {}
    for key, amp in state.amplitudes.items():
        d = shifts[key[si]]
        # Each real packet is built at its first key and dropped after its
        # last, so at 2**20 points a later packet reuses a freed one's memory.
        if d not in packets:
            packets[d] = gaussian_packet(n, -half, half, d, params.sigma).amplitudes
        pointers[key] = np.multiply(amp, packets[d])
        if last[d] == key:
            del packets[d]
    return WeakJointState(reg, n, -half, half, pointers)


def read_pointer(joint: WeakJointState, seed) -> tuple[float, StateVector]:
    """Sample the pointer position and collapse the system accordingly.

    Returns (position reading, normalized post-readout system state). A wide
    pointer barely disturbs the system; ensemble means of readings divided by
    g recover the observable's expectation value. This is one shot of
    _collapse_shots, the conditioning rule that pointer_fidelities batches.
    """
    (reading,), kept, re, im = _collapse_shots(joint, seed, 1)
    post = {
        k: complex(a, b)
        for k, keep, a, b in zip(joint.pointers, kept[:, 0].tolist(), re[:, 0].tolist(), im[:, 0].tolist())
        if keep
    }
    return reading, StateVector(joint.register, post)


def pointer_readings(joint: WeakJointState, seed, shots: int) -> np.ndarray:
    """Draw `shots` pointer positions at once, without collapsing the system.

    Consumes the generator exactly as `shots` successive read_pointer calls
    do and returns the same readings; use it when only the readings matter.
    """
    cdf, xs = joint._sampler
    rng = as_generator(seed)
    return xs[cdf.searchsorted(rng.random(shots), side="right")]


def pointer_fidelities(joint: WeakJointState, state: StateVector, seed, shots: int) -> list[float]:
    """Fidelity with `state` of the system after each of `shots` pointer readouts.

    Returns fidelity(read_pointer(joint, rng)[1], state) for `shots`
    successive calls, bit for bit, and leaves the generator where those calls
    leave it. All shots are drawn and conditioned in one _collapse_shots
    batch, and each overlap adds its terms in amplitude_overlap's order: the
    post state's keys, in joint order. Pruned branches are masked out, never
    added as zero.
    """
    if state.register != joint.register:
        raise ValueError("states live on different registers")
    _, kept, re, im = _collapse_shots(joint, seed, shots)
    ref = state.amplitudes
    acc_re = np.zeros(shots)
    acc_im = np.zeros(shots)
    for k, keep, pr, npi in zip(joint.pointers, kept, re, -im):
        if k in ref:
            b = complex(ref[k])
            # conj(p) * b = (pr*br - (-pi)*bi, pr*bi + (-pi)*br)
            acc_re = np.where(keep, acc_re + (pr * b.real - npi * b.imag), acc_re)
            acc_im = np.where(keep, acc_im + (pr * b.imag + npi * b.real), acc_im)
    return _squares(np.hypot(acc_re, acc_im))


# The batch below reproduces CPython's scalar arithmetic bit for bit, so it
# uses only numpy operations that round as the scalar ones do: np.hypot for
# abs(complex), Python's float ** 2 for abs(a) ** 2 (glibc pow is not
# correctly rounded, so np.square and x * x differ from it), and separate
# real multiplies and adds for every complex product (numpy's complex
# multiply may fuse them). README.md has the measured table.


def _collapse_shots(joint: WeakJointState, seed, shots: int):
    """Draw `shots` pointer positions and condition the system on each: the
    conditioning rule of every pointer readout.

    Returns (readings, kept, re, im). readings is a list of floats; kept,
    re and im have one row per key of joint.pointers, in order, and one
    column per shot. kept says whether the branch survives pruning, and re
    and im hold its post-readout amplitude where it does. Each shot gives
    the bits of prune, a fold_sum weight, conditioning_scale and a * scale
    over that shot's amplitudes. The position was drawn from the density,
    so its weight is positive; the 1e-300 floor only rejects a sample whose
    amplitudes underflow to zero, and names the first such reading.
    """
    cdf, xs = joint._sampler
    js = cdf.searchsorted(as_generator(seed).random(shots), side="right")
    column = np.array([arr[js] for arr in joint.pointers.values()])
    re, im = column.real, column.imag
    mag = np.hypot(re, im)
    kept = mag > PRUNE_TOL
    sq = np.reshape(_squares(mag), mag.shape)
    weight = np.zeros(shots)
    for keep, s in zip(kept, sq):
        weight = np.where(keep, weight + s, weight)
    readings = xs[js].tolist()
    refused = np.flatnonzero(weight <= 1e-300)
    if refused.size:
        i = refused[0]
        conditioning_scale(float(weight[i]), f"pointer reading {readings[i]!r}", floor=1e-300)
    scale = 1.0 / np.sqrt(weight)
    # a * scale for complex a: (re*s - im*0.0, re*0.0 + im*s)
    return readings, kept, re * scale - im * 0.0, re * 0.0 + im * scale


def _squares(values: np.ndarray) -> list[float]:
    """v ** 2 of each value in Python floats, flattened."""
    return [v ** 2 for v in values.ravel().tolist()]
