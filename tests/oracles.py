"""Brute-force reference implementations used to cross-check the package.

Everything here works on dense numpy arrays over the full joint basis and
deliberately avoids the package's sparse code paths: probabilities come from
boolean masks over the enumerated basis, spectra from dense SVD or
eigendecomposition, and gates from explicit tensor contractions. Slow and
simple on purpose; scenario registers stay small enough (<= a few hundred
joint basis states) that this is never a bottleneck.
"""

from __future__ import annotations

import math
import re

import numpy as np


def dims_of(state) -> tuple[int, ...]:
    return tuple(s.dim for s in state.register.subsystems)


def dense_vector(state) -> np.ndarray:
    """Full joint amplitude vector, first subsystem slowest."""
    dims = dims_of(state)
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    for key, amp in state.amplitudes.items():
        vec[int(np.ravel_multi_index(key, dims))] = amp
    return vec


def dense_probability(state, assignments) -> float:
    """Born weight of a partial assignment via a dense mask."""
    reg = state.register
    dims = dims_of(state)
    vec = dense_vector(state).reshape(dims)
    idx = [slice(None)] * len(dims)
    for name, label in assignments.items():
        idx[reg.index(name)] = reg.label_index(name, label)
    return float(np.sum(np.abs(vec[tuple(idx)]) ** 2))


def dense_marginal(state, subsystem) -> np.ndarray:
    """Outcome distribution of one subsystem, indexed by label position."""
    reg = state.register
    dims = dims_of(state)
    tensor = np.abs(dense_vector(state).reshape(dims)) ** 2
    axis = reg.index(subsystem)
    other = tuple(i for i in range(len(dims)) if i != axis)
    return tensor.sum(axis=other)


def dense_apply_single(state, subsystem, labels, matrix) -> np.ndarray:
    """Apply a small unitary on selected labels of one subsystem, densely.

    Returns the new dense vector. Labels outside `labels` are untouched, so
    the full per-subsystem matrix is the identity with the given block
    scattered into the chosen rows/columns.
    """
    reg = state.register
    dims = dims_of(state)
    axis = reg.index(subsystem)
    d = dims[axis]
    full = np.eye(d, dtype=complex)
    li = [reg.label_index(subsystem, lab) for lab in labels]
    for r, lr in enumerate(li):
        for c, lc in enumerate(li):
            full[lr, lc] = matrix[r][c]
    tensor = dense_vector(state).reshape(dims)
    out = np.tensordot(full, tensor, axes=([1], [axis]))
    out = np.moveaxis(out, 0, axis)
    return out.reshape(-1)


def schmidt_dense(state, part_a) -> list[float]:
    """Squared singular values across (part_a | rest), descending, >= 1e-12."""
    reg = state.register
    dims = dims_of(state)
    part = set(part_a)
    a_axes = [i for i, n in enumerate(reg.names) if n in part]
    b_axes = [i for i, n in enumerate(reg.names) if n not in part]
    tensor = dense_vector(state).reshape(dims)
    mat = np.transpose(tensor, a_axes + b_axes).reshape(
        int(np.prod([dims[i] for i in a_axes])), -1
    )
    sv = np.linalg.svd(mat, compute_uv=False)
    return sorted((float(s * s) for s in sv if s * s >= 1e-12), reverse=True)


def splitter3() -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    return np.array([[0.0, s, s], [s, 0.5, -0.5], [s, -0.5, 0.5]])


def rotation2(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s], [s, c]])


def hadamard2() -> np.ndarray:
    s = 1.0 / math.sqrt(2.0)
    return np.array([[s, s], [s, -s]])


def gaussian_mass(center: float, width: float, a: float, b: float) -> float:
    """Born weight of [a, b] for a packet of amplitude exp(-(x-c)^2/2w^2)."""
    return 0.5 * (math.erf((b - center) / width) - math.erf((a - center) / width))


def random_state(register, rng: np.random.Generator):
    """Normalized dense-random state on the register (returns a StateVector)."""
    from ketsim import StateVector

    dims = tuple(s.dim for s in register.subsystems)
    total = int(np.prod(dims))
    vec = rng.normal(size=total) + 1j * rng.normal(size=total)
    vec /= np.linalg.norm(vec)
    amps = {}
    for flat, amp in enumerate(vec):
        key = tuple(int(x) for x in np.unravel_index(flat, dims))
        amps[key] = complex(amp)
    return StateVector(register, amps)


# Reference JSON writer for report.dumps_json: one recursive call per node
# and an isinstance chain per value, with its own string escaping.
_REF_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_REF_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _ref_escape(m: re.Match) -> str:
    ch = m.group()
    return _REF_SHORT_ESCAPES.get(ch) or "\\u%04x" % ord(ch)


def _ref_fmt_str(s: str) -> str:
    return '"' + _REF_NEEDS_ESCAPE.sub(_ref_escape, s) + '"'


def _ref_fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return "%.17g" % x


def _ref_write_json(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(inner)
            int_key = isinstance(k, int) and not isinstance(k, bool)
            out.append(_ref_fmt_str(int.__repr__(k) if int_key else str(k)))
            out.append(": ")
            _ref_write_json(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if scalars and len(obj) <= 4:
            out.append("[")
            for i, v in enumerate(obj):
                _ref_write_json(v, out, indent)
                if i < len(obj) - 1:
                    out.append(", ")
            out.append("]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(inner)
            _ref_write_json(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_ref_fmt_float(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(_ref_fmt_str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps_json(obj) -> str:
    """report.dumps_json's bytes for plain values, from the recursive isinstance-chain writer."""
    out: list[str] = []
    _ref_write_json(obj, out, 0)
    out.append("\n")
    return "".join(out)


# Reference pointer readout: each shot conditioned in Python scalars, as
# measure.read_pointer and measure.pointer_fidelities did before they shared
# one numpy batch. The batch must give these bits exactly.
def _ref_shots(joint, seed, shots: int):
    """(reading, column) for each of `shots` successive pointer draws, where
    column holds each key's pointer amplitude at the drawn position."""
    cdf, xs = joint._sampler
    js = cdf.searchsorted(np.random.default_rng(seed).random(shots), side="right")
    return zip(xs[js].tolist(), zip(*(arr[js].tolist() for arr in joint.pointers)))


def _ref_collapse(keys, column, reading: float) -> dict:
    """System amplitudes after one pointer reading, in Python scalars."""
    from ketsim.errors import conditioning_scale
    from ketsim.register import fold_sum, prune

    kept = prune(dict(zip(keys, column)))
    weight = fold_sum(abs(a) ** 2 for a in kept.values())
    scale = conditioning_scale(weight, f"pointer reading {reading!r}", floor=1e-300)
    return {k: a * scale for k, a in kept.items()}


def reference_read_pointer(joint, seed):
    """measure.read_pointer's (reading, post state), one scalar shot."""
    from ketsim import StateVector

    ((reading, column),) = _ref_shots(joint, seed, 1)
    return reading, StateVector(joint.register, _ref_collapse(joint.keys, column, reading))


def reference_pointer_fidelities(joint, state, seed, shots: int) -> list[float]:
    """measure.pointer_fidelities' values, shot by shot in scalars."""
    from ketsim.register import amplitude_overlap

    ref = state.amplitudes
    return [
        abs(amplitude_overlap(_ref_collapse(joint.keys, column, reading), ref)) ** 2
        for reading, column in _ref_shots(joint, seed, shots)
    ]


# Reference grid path: every position-space array complex from birth, each
# Gaussian's exp over the whole grid and every normalization a division, as
# ketsim.grid computed them before real wavefunctions stayed float64. The
# package must give these bits exactly. Arguments are plain geometry
# (n, x_min, x_max) and arrays, so nothing here goes through GridWavefunction.
def reference_xs(n: int, x_min: float, x_max: float) -> np.ndarray:
    return x_min + (x_max - x_min) / n * np.arange(n)


def reference_gaussian(xs: np.ndarray, center: float, denom: float) -> np.ndarray:
    """exp(-((xs - center) ** 2) / denom) over every sample."""
    t = np.subtract(xs, center)
    np.square(t, out=t)
    np.negative(t, out=t)
    t /= denom
    return np.exp(t, out=t)


def reference_norm_sq(amps: np.ndarray, dx: float) -> float:
    return float(np.sum(np.square(np.abs(amps))) * dx)


def reference_normalized(amps: np.ndarray, dx: float) -> np.ndarray:
    """amps cast to complex, then divided by the grid norm."""
    out = amps.astype(complex)
    out /= math.sqrt(reference_norm_sq(out, dx))
    return out


def reference_gaussian_packet(n, x_min, x_max, center, width) -> np.ndarray:
    xs = reference_xs(n, x_min, x_max)
    amps = reference_gaussian(xs, center, 2.0 * width * width)
    return reference_normalized(amps, (x_max - x_min) / n)


def reference_tray_and_spoon(n, x_min, x_max, big, small, x_tray, x_spoon, eps):
    """(sqrt(1-eps^2) * tray + eps * spoon renormalized, spoon), each packet grid-normalized."""
    spoon = reference_gaussian_packet(n, x_min, x_max, x_spoon, small)
    tray = reference_gaussian_packet(n, x_min, x_max, x_tray, big)
    tray *= math.sqrt(1.0 - eps**2)
    tray += eps * spoon
    return reference_normalized(tray, (x_max - x_min) / n), spoon


def reference_window_project(n, x_min, x_max, amps, interval, keep_inside):
    """(Born weight, renormalized complex amplitudes) of a window cut."""
    from ketsim.errors import conditioning_scale

    xs = reference_xs(n, x_min, x_max)
    lo = int(xs.searchsorted(interval[0], side="left"))
    hi = int(xs.searchsorted(interval[1], side="right"))
    if keep_inside:
        kept = np.zeros(n, dtype=complex)
        kept[lo:hi] = amps[lo:hi]
    else:
        kept = amps.astype(complex)
        kept[lo:hi] = 0.0
    prob = reference_norm_sq(kept, (x_max - x_min) / n)
    kept *= conditioning_scale(prob, "window projection")
    return prob, kept


def reference_momentum_amplitudes(n, x_min, x_max, amps):
    """(ascending momenta, momentum amplitudes) from the FFT of the complex array."""
    dx = (x_max - x_min) / n
    p = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    phi = np.fft.fft(amps.astype(complex))
    phi *= dx
    phi /= math.sqrt(2.0 * math.pi)
    return np.fft.fftshift(p), np.fft.fftshift(phi)


def reference_momentum_spectrum(n, x_min, x_max, amps):
    p, phi = reference_momentum_amplitudes(n, x_min, x_max, amps)
    probs = np.square(np.abs(phi))
    probs *= 2.0 * math.pi / (n * ((x_max - x_min) / n))
    return p, probs


def reference_moments(grid: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    total = float(np.sum(weights))
    t = grid * weights
    mean = float(np.sum(t)) / total
    t = np.square(grid - mean)
    t *= weights
    var = float(np.sum(t)) / total
    return mean, math.sqrt(max(var, 0.0))


def reference_position_moments(n, x_min, x_max, amps) -> tuple[float, float]:
    weights = np.square(np.abs(amps.astype(complex)))
    weights *= (x_max - x_min) / n
    return reference_moments(reference_xs(n, x_min, x_max), weights)
