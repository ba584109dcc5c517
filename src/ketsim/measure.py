"""Born-rule readout: projective, post-selected, partial, and weak measurement,
and recombination (the source port's joint_probability after a return split).

Everything here is a pure transformation; randomness enters only through a
caller-supplied seed or numpy Generator, so runs replay exactly. Projections
renormalize, and an outcome whose Born weight falls at or below the 1e-12
floor raises ImpossibleOutcomeError rather than returning NaN amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import NORM_FLOOR, PROB_FLOOR, ImpossibleOutcomeError, ParameterError, conditioning_scale
from .evolve import apply_split
from .grid import _density, fine_grid_size, gaussian_packet, grid_xs
from .register import (
    NORM_TOL,
    PRUNE_TOL,
    Register,
    StateVector,
    fold_sum,
    matches,
)


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
        if not abs(n - 1.0) <= NORM_TOL:
            raise ValueError(f"post state norm {n!r} is not 1 within {NORM_TOL}")


def born_probabilities(state: StateVector, subsystem: str) -> dict[str, float]:
    """Marginal outcome distribution of one subsystem (zero entries dropped)."""
    si = state.register.index(subsystem)
    labels = state.register.subsystems[si].labels
    acc = [0.0] * len(labels)
    for key, amp in state.amplitudes.items():
        acc[key[si]] += abs(amp) ** 2
    return {labels[i]: w for i, w in enumerate(acc) if w > 0.0}


def joint_probability(state: StateVector, assignments: Mapping[str, str]) -> float:
    """Born weight of a partial assignment, without projecting."""
    items = state.register.partial_items(assignments)
    return float(fold_sum(abs(a) ** 2 for k, a in state.amplitudes.items() if matches(k, items)))


def recombine_probability(
    state: StateVector,
    subsystem: str,
    pair: tuple[str, str],
    source_label: str,
) -> float:
    """Probability of finding the subsystem back at its source after the
    inverse split, without mutating the state.

    Feeds the arm pair through the splitter's return pass and reads the Born
    weight of the source exit port: per spectator branch this is
    |a_l1 + a_l2|^2 / 2. Apply it to pre-recombination states; amplitude
    already sitting on the source label re-splits into the arms and
    contributes nothing to the source port.
    """
    return joint_probability(apply_split(state, subsystem, source_label, pair), {subsystem: source_label})


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
    return postselect(state, {subsystem: label})


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


def apply_partial_outcome(
    state: StateVector, subsystem: str, monitored_label: str, eps: float, outcome: str
) -> MeasurementRecord:
    """Deterministically apply one partial-readout outcome ('click'/'no-click').

    eps is the coupling fraction: the detector sees only that portion of the
    monitored branch; eps=1 is projective, eps=0 is off. Click operator:
    sqrt(eps) * P_monitored. No-click operator: P_rest + sqrt(1-eps) *
    P_monitored. Their squares sum to the identity.
    """
    eps = float(eps)
    if not (0.0 <= eps <= 1.0):
        raise ParameterError(f"eps must lie in [0, 1], got {eps!r}")
    ((si, mi),) = state.register.partial_items({subsystem: monitored_label})
    if outcome == "click":
        s = math.sqrt(eps)
        image = {k: s * a for k, a in state.amplitudes.items() if k[si] == mi}
    elif outcome == "no-click":
        s = math.sqrt(1.0 - eps)
        image = {k: s * a if k[si] == mi else a for k, a in state.amplitudes.items()}
    else:
        raise ParameterError(f"outcome must be 'click' or 'no-click', got {outcome!r}")
    p, post = _condition(state.register, image, lambda: f"partial outcome {outcome!r}")
    return MeasurementRecord({subsystem: outcome}, p, post)


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
    if l_boost == l_supp:
        raise ParameterError(f"pair names label {l_boost!r} twice")
    unknown = [k for k in pair if k not in state.register.spec(subsystem).labels]
    if unknown:
        raise ParameterError(f"pair names labels {unknown} that subsystem {subsystem!r} does not have")
    w = born_probabilities(state, subsystem)
    w_boost = w.get(l_boost, 0.0)
    w_supp = w.get(l_supp, 0.0)
    if not abs(w_boost + w_supp - 1.0) <= NORM_TOL:
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
        if not 0.0 < self.sigma < math.inf:
            raise ParameterError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not math.isfinite(self.g):
            raise ParameterError("g must be finite")


@dataclass(frozen=True, eq=False)
class WeakJointState:
    """System-pointer state after a weak coupling.

    keys lists the populated system keys, in the state's order. Row k of the
    complex (len(keys), n) block `pointers` is key k's (unnormalized) pointer
    amplitude array, with the system amplitude folded in, so the total norm
    sum_k sum_j |pointers[k, j]|^2 dx is 1.
    """

    register: Register
    n: int
    x_min: float
    x_max: float
    keys: tuple
    pointers: np.ndarray

    def __post_init__(self) -> None:
        if self.pointers.shape != (len(self.keys), self.n):
            raise ValueError(f"pointer block has shape {self.pointers.shape}, not {(len(self.keys), self.n)}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def norm_sq(self) -> float:
        return float(fold_sum(np.sum(np.abs(self.pointers) ** 2, axis=1)) * self.dx)

    @cached_property
    def _sampler(self) -> tuple[np.ndarray, np.ndarray]:
        """(position cdf, position grid), built once.

        The cdf is normalized the way Generator.choice(p=...) normalizes it, so
        a searchsorted draw of one uniform picks the index choice would pick.
        A total weight that conditioning_scale refuses raises here on every
        access: a cached_property caches only a returned value. The arithmetic
        runs row by row, in place, in the order of sum(|row|^2) * dx / total,
        so it holds two n-point arrays.
        """
        density = np.zeros(self.n)
        for row in self.pointers:
            density += _density(row)
        density *= self.dx
        total = float(density.sum())
        conditioning_scale(total, "pointer sampling")
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
    unknown = [k for k in observable if k not in spec.labels]
    if unknown:
        raise ParameterError(f"observable names labels {unknown} that subsystem {subsystem!r} does not have")
    shifts: dict[int, float] = {}
    for key in state.amplitudes:
        li = key[si]
        if li not in shifts:
            label = spec.labels[li]
            if label not in observable:
                raise ParameterError(f"observable gives no eigenvalue for populated label {label!r}")
            value = float(observable[label])
            if not math.isfinite(value):
                raise ParameterError(f"observable eigenvalue of label {label!r} must be finite, got {value!r}")
            shifts[li] = params.g * value
    half = 10.0 * params.sigma + 5.0 * max(map(abs, shifts.values()), default=0.0)
    n = fine_grid_size(2.0 * half, params.sigma / 8.0)
    keys = tuple(state.amplitudes)
    pointers = np.empty((len(keys), n), dtype=complex)
    for d in dict.fromkeys(shifts.values()):
        # One real packet at a time, written into its keys' rows, so at 2**20
        # points a later packet reuses the freed one's memory.
        packet = gaussian_packet(n, -half, half, d, params.sigma).amplitudes
        for row, key in zip(pointers, keys):
            if shifts[key[si]] == d:
                np.multiply(state.amplitudes[key], packet, out=row)
        del packet
    return WeakJointState(reg, n, -half, half, keys, pointers)


def read_pointer(joint: WeakJointState, seed) -> tuple[float, StateVector]:
    """Sample the pointer position and collapse the system accordingly.

    Returns (position reading, normalized post-readout system state). A wide
    pointer barely disturbs the system; ensemble means of readings divided by
    g recover the observable's expectation value. This is one shot of
    _collapse_shots, the conditioning rule that pointer_fidelities batches.
    `seed`: anything numpy.random.default_rng takes (a Generator is used as is).
    """
    (j,), kept, re, im = _collapse_shots(joint, seed, 1)
    post = {
        k: complex(a, b)
        for k, keep, a, b in zip(joint.keys, kept[:, 0].tolist(), re[:, 0].tolist(), im[:, 0].tolist())
        if keep
    }
    return float(joint._sampler[1][j]), StateVector(joint.register, post)


def pointer_readings(joint: WeakJointState, seed, shots: int) -> np.ndarray:
    """Draw `shots` pointer positions at once, without collapsing the system.

    Consumes the generator exactly as `shots` successive read_pointer calls
    do and returns the same readings; use it when only the readings matter.
    The draw is _draw_indices': one uniform per shot, the uniforms located
    in the cdf in sorted order and each index put back at its shot.
    `seed`: anything numpy.random.default_rng takes, as for read_pointer.
    """
    cdf, xs = joint._sampler
    return xs[_draw_indices(cdf, np.random.default_rng(seed).random(shots))]


def pointer_fidelities(joint: WeakJointState, state: StateVector, seed, shots: int) -> np.ndarray:
    """Fidelity with `state` of the system after each of `shots` pointer readouts.

    Returns a float64 array of fidelity(read_pointer(joint, rng)[1], state)
    for `shots` successive calls, bit for bit, and leaves the generator where
    those calls leave it. All shots are drawn and conditioned in one
    _collapse_shots batch, and each overlap adds its terms in
    amplitude_overlap's order: the post state's keys, in joint order. A pruned
    branch's term is masked to zero and a key absent from `state` gives zero:
    a zero moves no magnitude. `seed`: anything numpy.random.default_rng takes.
    """
    if state.register != joint.register:
        raise ValueError("states live on different registers")
    _, kept, re, im = _collapse_shots(joint, seed, shots)
    b = np.array([complex(state.amplitudes.get(k, 0.0)) for k in joint.keys])[:, None]
    npi = -im
    # conj(p) * b = (pr*br - (-pi)*bi, pr*bi + (-pi)*br)
    acc_re = np.cumsum(np.where(kept, re * b.real - npi * b.imag, 0.0), axis=0)[-1]
    acc_im = np.cumsum(np.where(kept, re * b.imag + npi * b.real, 0.0), axis=0)[-1]
    return np.float_power(np.hypot(acc_re, acc_im), 2.0)


# The pointer batch reproduces CPython's scalar arithmetic bit for bit, so it
# uses only numpy operations that round as the scalar ones do: np.hypot for
# abs(complex), np.float_power(x, 2.0) for abs(a) ** 2 (both call libm pow
# once per value; glibc pow is not correctly rounded, so np.square and x * x
# differ from it), and separate real multiplies and adds for every complex
# product (numpy's complex multiply may fuse them). Sums over the rows are
# np.cumsum(axis=0)[-1], which adds top to bottom as fold_sum does (a sum
# over axis 0 adds one shot's column pairwise). README.md has the table.


def _draw_indices(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right"), index for index.

    The uniforms are located in ascending order by one searchsorted call and
    each index is scattered back to its uniform's place. Equal uniforms get
    equal indices, so the order a sort gives ties cannot matter. Sorted keys
    let the binary search start from the previous key's index and predict
    its branches: from about 100 shots on that saves more than the sort
    costs, and a one-shot draw pays about 1 µs for it.
    """
    order = u.argsort()
    js = np.empty_like(order)
    js[order] = cdf.searchsorted(u[order], side="right")
    return js


def _collapse_shots(joint: WeakJointState, seed, shots: int):
    """Draw `shots` pointer positions and condition the system on each: the
    conditioning rule of every pointer readout.

    The positions are drawn as pointer_readings draws them: the shots'
    uniforms are sorted, located by one searchsorted(side="right") call and
    scattered back (_draw_indices), which gives the plain call's indices.
    Returns (js, kept, re, im). js holds each shot's grid index; kept, re
    and im have one row per row of joint.pointers and one column per shot.
    kept says whether the branch survives pruning, and re and im hold its
    post-readout amplitude where it does. Each shot gives
    the bits of prune, a fold_sum weight, conditioning_scale and a * scale
    over that shot's amplitudes. The position was drawn from the density,
    so its weight is positive; NORM_FLOOR only rejects a sample whose
    amplitudes underflow to zero, and names the first such reading.
    """
    cdf, xs = joint._sampler
    js = _draw_indices(cdf, np.random.default_rng(seed).random(shots))
    column = joint.pointers[:, js]
    re, im = column.real, column.imag
    mag = np.hypot(re, im)
    kept = mag > PRUNE_TOL
    weight = np.cumsum(np.where(kept, np.float_power(mag, 2.0), 0.0), axis=0)[-1]
    refused = np.flatnonzero(~((NORM_FLOOR < weight) & (weight < np.inf)))
    if refused.size:
        i = refused[0]
        conditioning_scale(float(weight[i]), f"pointer reading {float(xs[js[i]])!r}", floor=NORM_FLOOR)
    scale = 1.0 / np.sqrt(weight)
    # a * scale for complex a: (re*s - im*0.0, re*0.0 + im*s)
    return js, kept, re * scale - im * 0.0, re * 0.0 + im * scale

