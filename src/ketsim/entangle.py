"""Entanglement diagnostics: Schmidt spectra and entropy in bits.

These make "entanglement rose and then vanished" an assertable statement:
scenarios compute a cut's entropy at each step of a timeline and check the
rise and the return to zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .register import StateVector, fold_sum

EIG_FLOOR = 1e-12
EIG_NEG_TOL = 1e-10


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
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"coefficients sum to {total!r}, not 1 within 1e-9")


def _amplitude_matrix(state: StateVector, part_a: set[str]) -> np.ndarray:
    """Dense amplitude matrix M[a, b] across the cut (part_a | the rest).

    Each half keeps its subsystems in register order and enumerates their
    joint labels lexicographically (first slowest).
    """
    reg = state.register
    a_idx = [i for i, n in enumerate(reg.names) if n in part_a]
    b_idx = [i for i, n in enumerate(reg.names) if n not in part_a]
    a_pos = {c: r for r, c in enumerate(itertools.product(*(range(reg.subsystems[i].dim) for i in a_idx)))}
    b_pos = {c: r for r, c in enumerate(itertools.product(*(range(reg.subsystems[i].dim) for i in b_idx)))}
    m = np.zeros((len(a_pos), len(b_pos)), dtype=complex)
    for key, amp in state.amplitudes.items():
        m[a_pos[tuple(key[i] for i in a_idx)], b_pos[tuple(key[i] for i in b_idx)]] = amp
    return m


def _part(state: StateVector, part: Iterable[str]) -> set[str]:
    """The names of one side of a cut, each checked against the register."""
    if isinstance(part, str):
        raise ValueError(f"a cut's side is a tuple of subsystem names, not the string {part!r}")
    names = tuple(part)
    for name in names:
        state.register.index(name)
    return set(names)


def schmidt(state: StateVector, bipartition: tuple[Iterable[str], Iterable[str]]) -> SchmidtSpectrum:
    """Schmidt spectrum across a full bipartition of the register."""
    set_a = _part(state, bipartition[0])
    set_b = _part(state, bipartition[1])
    if set_a & set_b:
        raise ValueError("bipartition halves overlap")
    if set_a | set_b != set(state.register.names) or not set_a or not set_b:
        raise ValueError("bipartition must split all subsystems into two nonempty halves")
    m = _amplitude_matrix(state, set_a)
    sv = np.linalg.svd(m, compute_uv=False)
    coeffs = sorted((float(s) ** 2 for s in sv if float(s) ** 2 >= EIG_FLOOR), reverse=True)
    return SchmidtSpectrum(tuple(coeffs))


def entropy(arg) -> float:
    """Von Neumann entropy in bits of a spectrum or of raw weights, each finite and in [-1e-10, 1 + 1e-9]."""
    if isinstance(arg, SchmidtSpectrum):
        lams = list(arg.coefficients)
    else:
        lams = [float(x) for x in arg]
    for lam in lams:
        if lam < -EIG_NEG_TOL:
            raise ValueError(f"eigenvalue {lam!r} below -1e-10 is not float noise")
        if not lam <= 1.0 + 1e-9:
            raise ValueError(f"eigenvalue {lam!r} is not a finite weight of at most 1 + 1e-9")
    kept = [lam for lam in lams if lam >= EIG_FLOOR]
    # One weight is a pure state: its entropy is exactly 0, whatever dust
    # the weight's rounding away from 1 would add to -lam*log2(lam).
    if len(kept) <= 1:
        return 0.0
    acc = 0.0
    for lam in kept:
        acc -= lam * math.log2(lam)
    return acc if acc > 0.0 else 0.0


def cut_entropy(state: StateVector, part_a: Iterable[str]) -> float:
    """Entropy in bits across the cut (part_a | everything else)."""
    set_a = _part(state, part_a)
    return entropy(schmidt(state, (set_a, set(state.register.names) - set_a)))
