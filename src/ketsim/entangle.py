"""Entanglement diagnostics: partial trace, Schmidt spectra, entropy in bits.

These make "entanglement rose and then vanished" an assertable statement:
scenarios compute a cut's entropy at each step of a timeline and check the
rise and the return to zero. All quantities are basis-canonical — kept
subsystems stay in register order, their joint labels in lexicographic
(first-slowest) order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .register import StateVector, fold_sum

EIG_FLOOR = 1e-12
EIG_NEG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced state over the kept subsystems.

    basis lists the joint labels of the kept subsystems, one tuple per
    row/column, in canonical order. The matrix is checked Hermitian with
    unit trace and no eigenvalue below float-noise negative tolerance.
    """

    subsystems: tuple[str, ...]
    basis: tuple[tuple[str, ...], ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        d = len(self.basis)
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match basis size {d}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr!r} is not 1 within 1e-10")
        eigs = np.linalg.eigvalsh(m)
        if float(eigs.min()) < -EIG_NEG_TOL:
            raise ValueError(f"density matrix has eigenvalue {eigs.min()!r} < -1e-10")
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared singular values across a bipartition, descending, summing to 1."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = self.coefficients
        if not cs:
            raise ValueError("spectrum must be nonempty")
        if any(c <= 0.0 or c > 1.0 + 1e-9 for c in cs):
            raise ValueError("coefficients must lie in (0, 1]")
        if any(cs[i] < cs[i + 1] for i in range(len(cs) - 1)):
            raise ValueError("coefficients must be descending")
        total = fold_sum(cs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"coefficients sum to {total!r}, not 1 within 1e-9")


def _split_indices(state: StateVector, part: Iterable[str]) -> tuple[list[int], list[int]]:
    reg = state.register
    part_set = set(part)
    unknown = part_set - set(reg.names)
    if unknown:
        raise ValueError(f"unknown subsystems {sorted(unknown)}")
    a_idx = [i for i, n in enumerate(reg.names) if n in part_set]
    b_idx = [i for i, n in enumerate(reg.names) if n not in part_set]
    return a_idx, b_idx


def _amplitude_matrix(state: StateVector, a_idx: Sequence[int], b_idx: Sequence[int]):
    """Dense amplitude matrix M[a, b] across the cut, plus the row basis."""
    reg = state.register
    a_dims = [reg.subsystems[i].dim for i in a_idx]
    b_dims = [reg.subsystems[i].dim for i in b_idx]
    a_ranges = [range(d) for d in a_dims]
    b_ranges = [range(d) for d in b_dims]
    a_pos = {combo: r for r, combo in enumerate(itertools.product(*a_ranges))}
    b_pos = {combo: c for c, combo in enumerate(itertools.product(*b_ranges))}
    m = np.zeros((len(a_pos), max(len(b_pos), 1)), dtype=complex)
    for key, amp in state.amplitudes.items():
        ra = a_pos[tuple(key[i] for i in a_idx)]
        cb = b_pos[tuple(key[i] for i in b_idx)] if b_idx else 0
        m[ra, cb] = amp
    basis = tuple(
        tuple(reg.subsystems[i].labels[li] for i, li in zip(a_idx, combo))
        for combo in itertools.product(*a_ranges)
    )
    return m, basis


def partial_trace(state: StateVector, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over a nonempty proper subset of subsystems."""
    reg = state.register
    keep_list = [n for n in reg.names if n in set(keep)]
    if not keep_list:
        raise ValueError("keep-set must be nonempty")
    if len(keep_list) == len(reg.names):
        raise ValueError("keep-set must be a proper subset (nothing to trace out)")
    a_idx, b_idx = _split_indices(state, keep_list)
    m, basis = _amplitude_matrix(state, a_idx, b_idx)
    rho = m @ m.conj().T
    return DensityMatrix(tuple(keep_list), basis, rho)


def schmidt(state: StateVector, bipartition: tuple[Iterable[str], Iterable[str]]) -> SchmidtSpectrum:
    """Schmidt spectrum across a full bipartition of the register."""
    reg = state.register
    set_a = set(bipartition[0])
    set_b = set(bipartition[1])
    if set_a & set_b:
        raise ValueError("bipartition halves overlap")
    if set_a | set_b != set(reg.names) or not set_a or not set_b:
        raise ValueError("bipartition must split all subsystems into two nonempty halves")
    a_idx, b_idx = _split_indices(state, set_a)
    m, _ = _amplitude_matrix(state, a_idx, b_idx)
    sv = np.linalg.svd(m, compute_uv=False)
    coeffs = sorted((float(s) ** 2 for s in sv if float(s) ** 2 >= EIG_FLOOR), reverse=True)
    return SchmidtSpectrum(tuple(coeffs))


def entropy(arg) -> float:
    """Von Neumann entropy in bits of a spectrum, density matrix, or raw list."""
    if isinstance(arg, SchmidtSpectrum):
        lams = list(arg.coefficients)
    elif isinstance(arg, DensityMatrix):
        lams = [float(x) for x in arg.eigenvalues()]
    else:
        lams = [float(x) for x in arg]
    for lam in lams:
        if lam < -EIG_NEG_TOL:
            raise ValueError(f"eigenvalue {lam!r} below -1e-10 is not float noise")
    kept = [lam for lam in lams if lam >= EIG_FLOOR]
    # One weight is a pure state: its entropy is exactly 0, whatever dust
    # the weight's rounding away from 1 would add to -lam*log2(lam).
    if len(kept) <= 1:
        return 0.0
    acc = 0.0
    for lam in kept:
        acc -= lam * math.log2(lam)
    return acc if acc > 0.0 else 0.0


def is_product(
    state: StateVector, bipartition: tuple[Iterable[str], Iterable[str]], tol: float = 1e-9
) -> bool:
    """True iff the state factors across the cut (second Schmidt weight < tol)."""
    spectrum = schmidt(state, bipartition)
    return len(spectrum.coefficients) < 2 or spectrum.coefficients[1] < tol


def cut_entropy(state: StateVector, part_a: Iterable[str]) -> float:
    """Entropy in bits across the cut (part_a | everything else)."""
    names = set(state.register.names)
    set_a = set(part_a)
    return entropy(schmidt(state, (set_a, names - set_a)))
