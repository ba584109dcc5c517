"""Entanglement diagnostics: Schmidt spectra and entropy in bits.

These make "entanglement rose and then vanished" an assertable statement:
scenarios compute a cut's entropy at each step of a timeline and check the
rise and the return to zero. A cut names one side, a tuple of subsystem
names; the other side is the rest of the register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .register import StateVector, fold_sum

EIG_FLOOR = 1e-12
EIG_NEG_TOL = 1e-10


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared singular values across a cut, descending, summing to 1;
    iterating a spectrum yields them."""

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

    def __iter__(self) -> Iterator[float]:
        return iter(self.coefficients)


def _axes(state: StateVector, part: Iterable[str]) -> list[int]:
    """The register positions of one side of a cut, in register order."""
    if isinstance(part, str):
        raise ValueError(f"a cut's side is a tuple of subsystem names, not the string {part!r}")
    try:
        names = tuple(part)
    except TypeError:
        raise ValueError(f"a cut's side is a tuple of subsystem names, not {part!r}") from None
    return sorted({state.register.index(name) for name in names})


def schmidt(state: StateVector, part_a: Iterable[str]) -> SchmidtSpectrum:
    """Schmidt spectrum across the cut (part_a | the rest of the register).

    The squared singular values of the dense state tensor with part_a's axes
    moved first and reshaped across the cut. Each side keeps its subsystems
    in register order, labels lexicographic and the first slowest.
    """
    dims = tuple(s.dim for s in state.register.subsystems)
    a_axes = _axes(state, part_a)
    if not 0 < len(a_axes) < len(dims):
        raise ValueError("a cut needs subsystems on both sides")
    tensor = np.zeros(dims, dtype=complex)
    for key, amp in state.amplitudes.items():
        tensor[key] = amp
    b_axes = [i for i in range(len(dims)) if i not in a_axes]
    m = tensor.transpose(a_axes + b_axes).reshape(math.prod(dims[i] for i in a_axes), -1)
    sv = np.linalg.svd(m, compute_uv=False)
    coeffs = sorted((float(s) ** 2 for s in sv if float(s) ** 2 >= EIG_FLOOR), reverse=True)
    return SchmidtSpectrum(tuple(coeffs))


def entropy(weights: Iterable[float]) -> float:
    """Von Neumann entropy in bits of weights (a SchmidtSpectrum's among them),
    each finite and in [-1e-10, 1 + 1e-9]."""
    lams = [float(x) for x in weights]
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
    """Entropy in bits across the cut (part_a | the rest of the register)."""
    return entropy(schmidt(state, part_a))
