"""1D discretized wavefunctions: Gaussian packets, window projections, spectra.

Units fix hbar = 1. A wavefunction lives on n equally spaced samples
x_j = x_min + j*dx, dx = (x_max - x_min)/n, and is normalized in the
integral sense sum |psi_j|^2 dx = 1. Momentum spectra use the unitary DFT
convention, so Parseval holds exactly on the grid and the momentum grid is
p_k = 2*pi*k/(n*dx) folded to the symmetric interval.

Width convention: a packet of width parameter w has amplitude
exp(-(x-c)^2 / 2w^2), hence position std w/sqrt(2) and momentum std
1/(w*sqrt(2)); the uncertainty product is exactly 1/2.

Every wavefunction on one geometry (n, x_min, x_max) reads the same
read-only axis arrays from `grid_xs` and `_grid_spectral`, each of which
keeps the two most recent geometries. The n-point arithmetic runs in place
on arrays a function owns, with the same operations in the same order as the
plain expressions, so every result is bit-identical to them.

Dtype contract: a wavefunction built from a float64 array keeps float64
amplitudes; any other input is cast to complex128. So `gaussian_packet`,
`gaussian_superposition` and `window_project` of a real wavefunction return
float64 amplitudes, equal to the complex128 ones an all-complex path gives.
An array is cast to complex only where complex arithmetic needs it: the FFT
input of `momentum_amplitudes` and `momentum_spectrum`. The real path keeps
the complex path's bits because numpy's complex / real computes
a * (1.0 / norm), which is how every normalization here scales (for a zero
amplitude the sign may differ; no density or report can see it), and because
|a + 0j| ** 2 equals a * a.

Memory: importing this module pins glibc malloc's two heap thresholds
through `mallopt`, once, for the whole process. Blocks below
HEAP_MMAP_THRESHOLD (4 MB, one complex array of MAX_GRID_POINTS // 4
points) come from the heap, and up to HEAP_TRIM_THRESHOLD (8 MB, glibc's
own 2x ratio) of free memory stays at the heap's top. glibc's default
policy raises its mmap threshold only to the largest block freed so far, so
a report whose transient peak exceeds twice its largest array trims the
heap on its last free, and the next report faults the same pages back in.
Arrays of grids near the cap are still mapped and unmapped on their own.
Without glibc nothing is called. No value or report byte depends on this.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ImpossibleOutcomeError, ParameterError, conditioning_scale

CONTAINMENT_RATIO = 1e-6
# Largest grid an automatic size may pick (16 MB per complex array).
MAX_GRID_POINTS = 2**20
# glibc malloc maps each block of at least this size on its own (module
# docstring): every array of a grid up to 2**17 points is a heap block, and
# the cap's arrays are still unmapped when freed.
HEAP_MMAP_THRESHOLD = 16 * (MAX_GRID_POINTS // 4)
# Free memory kept at the heap's top before glibc returns it to the system.
HEAP_TRIM_THRESHOLD = 2 * HEAP_MMAP_THRESHOLD
# mallopt parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _pin_heap_thresholds() -> None:
    """Fix glibc malloc's mmap and trim thresholds; a no-op without glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


_pin_heap_thresholds()


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _check_geometry(n: int, x_min: float, x_max: float) -> None:
    if not _is_power_of_two(n):
        raise ParameterError(f"sample count must be a power of two, got {n}")
    if not x_max > x_min:
        raise ParameterError("x_max must exceed x_min")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=2)
def grid_xs(n: int, x_min: float, x_max: float) -> np.ndarray:
    """Shared read-only sample positions of a geometry; copy before writing."""
    return _read_only(x_min + (x_max - x_min) / n * np.arange(n))


@lru_cache(maxsize=2)
def _grid_spectral(n: int, x_min: float, x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Shared read-only (ascending momenta, FFT-order phase exp(-i p x_min)).

    The FFT-order momenta above the Nyquist index are the exact negatives of
    those below it, so the phase there is the conjugate of the phase at
    indices n/2-1 ... 1, and only indices 0 ... n/2 call exp. At x_min = 0
    the conjugate would flip the sign of every zero imaginary part, so exp
    runs over all n points there.
    """
    p = 2.0 * math.pi * np.fft.fftfreq(n, d=(x_max - x_min) / n)
    if x_min == 0.0:
        phase = np.exp(-1j * p * x_min)
    else:
        half = n // 2
        phase = np.empty(n, dtype=complex)
        np.exp(-1j * p[: half + 1] * x_min, out=phase[: half + 1])
        np.conjugate(phase[half - 1 : 0 : -1], out=phase[half + 1 :])
    return _read_only(np.fft.fftshift(p)), _read_only(phase)


# exp(-x) is exactly 0.0 for every x above about 745.13; a sample whose
# exponent is below -760 is left at zero without calling exp.
_EXP_ZERO_ARG = 760.0


def _gaussian(xs: np.ndarray, center: float, denom: float) -> np.ndarray:
    """exp(-((xs - center) ** 2) / denom) in one new float64 array.

    Only the samples within sqrt(760 * denom) of the center are computed;
    every other sample's exp would underflow to 0.0, and stays 0.0.
    """
    reach = math.sqrt(_EXP_ZERO_ARG * denom)
    lo = int(xs.searchsorted(center - reach, side="left"))
    hi = int(xs.searchsorted(center + reach, side="right"))
    out = np.zeros(len(xs))
    t = out[lo:hi]
    np.subtract(xs[lo:hi], center, out=t)
    np.square(t, out=t)
    np.negative(t, out=t)
    t /= denom
    np.exp(t, out=t)
    return out


def _density(amps: np.ndarray) -> np.ndarray:
    """abs(amps) ** 2 in one new float64 array."""
    if amps.dtype == np.float64:
        return np.square(amps)
    d = np.abs(amps)
    return np.square(d, out=d)


def fine_grid_size(span: float, spacing: float) -> int:
    """Smallest power of two >= 4096 with span/n <= spacing.

    Raises ParameterError past MAX_GRID_POINTS instead of allocating more.
    """
    n = 4096
    while span / n > spacing:
        n *= 2
        if n > MAX_GRID_POINTS:
            raise ParameterError(
                f"resolving spacing {spacing:g} over a span of {span:g} needs more than"
                f" {MAX_GRID_POINTS} grid points"
            )
    return n


@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Amplitudes over a uniform 1D grid.

    A float64 `amplitudes` array is kept as it is (a real wavefunction); any
    other input is cast to complex128.
    """

    n: int
    x_min: float
    x_max: float
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_geometry(self.n, self.x_min, self.x_max)
        amps = np.asarray(self.amplitudes)
        if amps.dtype != np.float64:
            amps = np.asarray(amps, dtype=complex)
        if amps.shape != (self.n,):
            raise ParameterError(f"amplitudes must have shape ({self.n},)")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def xs(self) -> np.ndarray:
        """Sample positions: shared by the geometry and read-only; copy before writing."""
        return grid_xs(self.n, self.x_min, self.x_max)

    def norm_sq(self) -> float:
        return float(np.sum(_density(self.amplitudes)) * self.dx)

    def _norm(self) -> float:
        n2 = self.norm_sq()
        if n2 < 1e-300:
            raise ImpossibleOutcomeError("cannot normalize a zero wavefunction")
        return math.sqrt(n2)

    def normalized(self) -> "GridWavefunction":
        # a * (1.0 / norm) is what numpy's complex / real computes, and it
        # keeps a real wavefunction real.
        return GridWavefunction(self.n, self.x_min, self.x_max, self.amplitudes * (1.0 / self._norm()))

    def density(self) -> np.ndarray:
        return _density(self.amplitudes)


def _owned_normalized(n: int, x_min: float, x_max: float, amps: np.ndarray) -> GridWavefunction:
    """normalized() for amplitudes the caller owns: scales them in place."""
    wf = GridWavefunction(n, x_min, x_max, amps)
    owned = wf.amplitudes
    owned *= 1.0 / wf._norm()
    return wf


def contained(wf: GridWavefunction) -> bool:
    """Boundary samples negligible relative to the peak."""
    mags = np.abs(wf.amplitudes)
    peak = float(mags.max())
    if peak == 0.0:
        return False
    return bool(mags[0] < CONTAINMENT_RATIO * peak and mags[-1] < CONTAINMENT_RATIO * peak)


def gaussian_packet(
    n: int, x_min: float, x_max: float, center: float, width: float
) -> GridWavefunction:
    """Normalized packet exp(-(x-center)^2 / 2*width^2) on the grid."""
    if width <= 0:
        raise ParameterError("width must be positive")
    _check_geometry(n, x_min, x_max)
    dx = (x_max - x_min) / n
    if dx > width / 4:
        raise ParameterError(
            f"grid spacing {dx:g} does not resolve width {width:g} (need dx <= width/4)"
        )
    xs = grid_xs(n, x_min, x_max)
    wf = _owned_normalized(n, x_min, x_max, _gaussian(xs, center, 2.0 * width * width))
    if not contained(wf):
        raise ParameterError("packet is not contained: boundary amplitude too large")
    return wf


@dataclass(frozen=True)
class DickeParams:
    """Wide packet at x1 (width L) plus a small faraway packet at x2 (width ell).

    eps sets the amplitude fraction on the small packet; the packets must be
    well separated (|x1-x2| >= 5(L+ell)) and the small one much narrower
    (ell <= L/10) so the cross term stays below tolerance.
    """

    L: float
    ell: float
    x1: float
    x2: float
    eps: float

    def __post_init__(self) -> None:
        if self.L <= 0 or self.ell <= 0:
            raise ParameterError("widths must be positive")
        if self.ell > self.L / 10 + 1e-12:
            raise ParameterError("ell must satisfy ell <= L/10")
        if not (0.0 < self.eps < 1.0):
            raise ParameterError("eps must lie strictly between 0 and 1")
        if abs(self.x1 - self.x2) < 5.0 * (self.L + self.ell):
            raise ParameterError("centers must be at least 5*(L+ell) apart")

    # Continuum normalizers of the individual packets: each makes
    # N*exp(-(x-c)^2/2w^2) unit-norm before the eps weighting.
    @property
    def n1(self) -> float:
        return (math.pi * self.L * self.L) ** -0.25

    @property
    def n2(self) -> float:
        return (math.pi * self.ell * self.ell) ** -0.25


def dicke_domain(params: DickeParams) -> tuple[float, float]:
    """Default domain: 8 wide-packet widths beyond both centers."""
    lo = min(params.x1, params.x2) - 8.0 * params.L
    hi = max(params.x1, params.x2) + 8.0 * params.L
    return lo, hi


def dicke_grid_size(params: DickeParams, domain: tuple[float, float]) -> int:
    """Smallest power of two >= 4096 with dx <= ell/8, at most MAX_GRID_POINTS."""
    return fine_grid_size(domain[1] - domain[0], params.ell / 8.0)


def gaussian_superposition(
    params: DickeParams,
    n: int | None = None,
    domain: tuple[float, float] | None = None,
) -> GridWavefunction:
    """sqrt(1-eps^2)*N1*exp(-(x-x1)^2/2L^2) + eps*N2*exp(-(x-x2)^2/2ell^2).

    The literal two-packet sum, renormalized on the grid; the cross term is
    kept (the separation invariant makes it negligible, not absent).
    """
    if domain is None:
        domain = dicke_domain(params)
    lo, hi = domain
    for c, w in ((params.x1, params.L), (params.x2, params.ell)):
        if not (lo <= c - 5.0 * w and c + 5.0 * w <= hi):
            raise ParameterError("domain too small: needs 5 widths beyond each packet")
    if n is None:
        n = dicke_grid_size(params, domain)
    _check_geometry(n, lo, hi)
    dx = (hi - lo) / n
    if dx > params.ell / 8.0:
        raise ParameterError(
            f"grid spacing {dx:g} does not resolve ell={params.ell:g} (need dx <= ell/8)"
        )
    xs = grid_xs(n, lo, hi)
    big = _gaussian(xs, params.x1, 2.0 * params.L**2)
    big *= params.n1
    small = _gaussian(xs, params.x2, 2.0 * params.ell**2)
    small *= params.n2
    big *= math.sqrt(1.0 - params.eps**2)
    small *= params.eps
    big += small
    wf = _owned_normalized(n, lo, hi, big)
    if not contained(wf):
        raise ParameterError("superposition is not contained on the requested domain")
    return wf


def window_project(
    wf: GridWavefunction, interval: tuple[float, float], keep_inside: bool
) -> tuple[float, GridWavefunction]:
    """Project onto a position window (or its complement) and renormalize.

    keep_inside=False is the null-result reading: detectors saw nothing in
    the window, so the amplitude there is removed. The returned probability
    is the Born weight of the kept region.
    """
    a, b = interval
    if not (wf.x_min <= a < b <= wf.x_max):
        raise ParameterError("interval must lie within the domain")
    # samples with a <= x <= b, as an index range of the ascending grid
    lo = int(wf.xs.searchsorted(a, side="left"))
    hi = int(wf.xs.searchsorted(b, side="right"))
    if keep_inside:
        kept = np.zeros(wf.n, dtype=wf.amplitudes.dtype)
        kept[lo:hi] = wf.amplitudes[lo:hi]
    else:
        kept = wf.amplitudes.copy()
        kept[lo:hi] = 0.0
    prob = float(np.sum(_density(kept)) * wf.dx)
    kept *= conditioning_scale(prob, "window projection")
    return prob, GridWavefunction(wf.n, wf.x_min, wf.x_max, kept)


def _fft_amplitudes(wf: GridWavefunction) -> tuple[np.ndarray, np.ndarray]:
    """(momentum grid ascending, complex momentum amplitudes in FFT order)."""
    p, phase = _grid_spectral(wf.n, wf.x_min, wf.x_max)
    # The FFT of a complex copy, in place: the same bits as fft of a real
    # array, and never slower (twice as fast at 16384 points).
    phi = wf.amplitudes.astype(complex)
    np.fft.fft(phi, out=phi)
    phi *= wf.dx
    phi /= math.sqrt(2.0 * math.pi)
    phi *= phase
    return p, phi


def _fftshift(a: np.ndarray) -> np.ndarray:
    """fftshift of an even-length array, without np.roll's overhead."""
    half = len(a) // 2
    return np.concatenate((a[half:], a[:half]))


def momentum_amplitudes(wf: GridWavefunction) -> tuple[np.ndarray, np.ndarray]:
    """(momentum grid ascending, complex momentum amplitudes).

    Unitary convention: phi(p) = (1/sqrt(2*pi)) * integral psi(x) e^{-ipx} dx,
    discretized so sum |phi_k|^2 dp = sum |psi_j|^2 dx exactly. The momentum
    grid is shared by the geometry and read-only; copy it before writing.
    """
    p, phi = _fft_amplitudes(wf)
    return p, _fftshift(phi)


def momentum_spectrum(wf: GridWavefunction) -> tuple[np.ndarray, np.ndarray]:
    """(momentum grid ascending, Born probabilities |phi_k|^2 dp).

    The momentum grid is shared by the geometry and read-only; copy it before
    writing.
    """
    if not contained(wf):
        raise ParameterError("spectrum needs a contained wavefunction (boundary leakage)")
    p, phi = _fft_amplitudes(wf)
    dp = 2.0 * math.pi / (wf.n * wf.dx)
    probs = _density(phi)
    del phi
    probs *= dp
    return p, _fftshift(probs)


def moments(arg) -> tuple[float, float]:
    """(mean, std) of position for a wavefunction, or of a (grid, probs) pair."""
    if isinstance(arg, GridWavefunction):
        grid = arg.xs
        weights = arg.density()
        weights *= arg.dx
    else:
        grid, weights = arg
        grid = np.asarray(grid, dtype=float)
        weights = np.asarray(weights, dtype=float)
    total = float(np.sum(weights))
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ParameterError(f"moments need a normalized input (total weight {total:g})")
    t = np.multiply(grid, weights)
    mean = float(np.sum(t)) / total
    np.subtract(grid, mean, out=t)
    np.square(t, out=t)
    t *= weights
    var = float(np.sum(t)) / total
    return mean, math.sqrt(max(var, 0.0))

