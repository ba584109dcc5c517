import ast
import collections
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ketsim
from ketsim import (
    DickeParams,
    GridWavefunction,
    ImpossibleOutcomeError,
    ParameterError,
    dicke_domain,
    dicke_grid_size,
    gaussian_packet,
    gaussian_superposition,
    moments,
    momentum_spectrum,
    window_project,
)
from ketsim.grid import (
    MAX_GRID_POINTS,
    _gaussian,
    _grid_spectral,
    contained,
    grid_xs,
    momentum_amplitudes,
)
from ketsim.scenarios.spatial import _AUTO_EPS_SLOPE, _overlap_sq

import numpy_baseline
import oracles


def packet(width=1.0, center=0.0, n=2048, span=40.0):
    return gaussian_packet(n, -span, span, center, width)


def test_grid_wavefunction_validation():
    with pytest.raises(ParameterError):
        GridWavefunction(1000, -1.0, 1.0, np.zeros(1000, dtype=complex))  # not a power of two
    with pytest.raises(ParameterError):
        GridWavefunction(8, 1.0, -1.0, np.zeros(8, dtype=complex))
    with pytest.raises(ParameterError):
        GridWavefunction(8, -1.0, 1.0, np.zeros(4, dtype=complex))


def test_packet_width_convention():
    """Amplitude width w means position std w/sqrt2 and momentum std 1/(w*sqrt2)."""
    for w in (0.5, 1.0, 3.0):
        wf = packet(width=w)
        mean, std = moments(wf)
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert std == pytest.approx(w / math.sqrt(2), rel=1e-6)
        p, probs = momentum_spectrum(wf)
        pmean, pstd = moments((p, probs))
        assert pmean == pytest.approx(0.0, abs=1e-9)
        assert pstd == pytest.approx(1 / (w * math.sqrt(2)), rel=1e-6)
        assert std * pstd == pytest.approx(0.5, abs=1e-3)


def test_packet_resolution_and_containment_guards():
    with pytest.raises(ParameterError):
        gaussian_packet(64, -40, 40, 0.0, 1.0)  # dx too coarse
    with pytest.raises(ParameterError):
        gaussian_packet(2048, -40, 40, 39.0, 1.0)  # rides the boundary
    with pytest.raises(ParameterError):
        gaussian_packet(2048, -40, 40, 0.0, -1.0)


def test_norm_and_parseval():
    wf = packet(width=2.0)
    assert wf.norm_sq() == pytest.approx(1.0, abs=1e-12)
    _, probs = momentum_spectrum(wf)
    assert float(probs.sum()) == pytest.approx(1.0, abs=1e-9)


def test_momentum_amplitudes_match_the_closed_form():
    # The unitary convention's transform of a packet of width w at c:
    # phi(p) = (w^2/pi)^(1/4) exp(-p^2 w^2 / 2) exp(-i p c).
    w, c = 1.5, 3.0
    p, phi = momentum_amplitudes(gaussian_packet(4096, -40, 40, c, w))
    want = (w * w / math.pi) ** 0.25 * np.exp(-p * p * w * w / 2) * np.exp(-1j * p * c)
    assert np.max(np.abs(phi - want)) < 1e-12


def test_window_project_matches_analytic_mass():
    w = 1.0
    wf = packet(width=w, n=65536)
    a, b = -0.7, 1.3
    prob, post = window_project(wf, (a, b), keep_inside=True)
    # the discrete mass differs from the continuum integral by at most one
    # sample cell at each window edge
    edge_density = sum(math.exp(-(x / w) ** 2) / (w * math.sqrt(math.pi)) for x in (a, b))
    assert abs(prob - oracles.gaussian_mass(0.0, w, a, b)) <= edge_density * wf.dx
    assert post.norm_sq() == pytest.approx(1.0, abs=1e-12)
    prob_out, _ = window_project(wf, (a, b), keep_inside=False)
    assert prob + prob_out == pytest.approx(1.0, abs=1e-12)


def test_window_project_guards():
    wf = packet(width=1.0)
    with pytest.raises(ParameterError):
        window_project(wf, (10.0, 5.0), keep_inside=True)
    with pytest.raises(ParameterError):
        window_project(wf, (-100.0, 0.0), keep_inside=True)
    with pytest.raises(ImpossibleOutcomeError):
        window_project(wf, (30.0, 39.0), keep_inside=True)  # no support out there


def test_moments_requires_normalized_input():
    grid = np.linspace(-1, 1, 11)
    probs = np.full(11, 0.05)
    with pytest.raises(ParameterError):
        moments((grid, probs))


def test_contained_flags_boundary_leakage():
    wf = packet(width=1.0)
    assert contained(wf)
    leaky = GridWavefunction(wf.n, wf.x_min, wf.x_max, np.ones(wf.n, dtype=complex))
    assert not contained(leaky)


def test_dicke_params_validation():
    with pytest.raises(ParameterError):
        DickeParams(L=1.0, ell=0.2, x1=0.0, x2=20.0, eps=0.1)  # ell > L/10
    with pytest.raises(ParameterError):
        DickeParams(L=1.0, ell=0.05, x1=0.0, x2=20.0, eps=0.0)
    with pytest.raises(ParameterError):
        DickeParams(L=1.0, ell=0.05, x1=0.0, x2=3.0, eps=0.1)  # too close
    with pytest.raises(ParameterError):
        DickeParams(L=-1.0, ell=0.05, x1=0.0, x2=20.0, eps=0.1)
    DickeParams(L=1.0, ell=0.05, x1=0.0, x2=6.0, eps=0.1)


def test_dicke_grid_size_resolves_small_packet():
    params = DickeParams(L=1.0, ell=0.05, x1=0.0, x2=6.0, eps=0.1)
    domain = dicke_domain(params)
    n = dicke_grid_size(params, domain)
    assert n >= 4096 and (n & (n - 1)) == 0
    assert (domain[1] - domain[0]) / n <= params.ell / 8.0


def test_dicke_grid_size_is_capped():
    # span 6546 needs exactly 2**20 points at ell/8; span 6616 would need 2**21
    at_cap = DickeParams(L=1.0, ell=0.05, x1=0.0, x2=6530.0, eps=0.1)
    assert dicke_grid_size(at_cap, dicke_domain(at_cap)) == MAX_GRID_POINTS == 2**20
    past = DickeParams(L=1.0, ell=0.05, x1=0.0, x2=6600.0, eps=0.1)
    with pytest.raises(ParameterError, match=str(MAX_GRID_POINTS)):
        dicke_grid_size(past, dicke_domain(past))


def test_dicke_superposition_weights():
    params = DickeParams(L=1.0, ell=0.05, x1=0.0, x2=6.0, eps=0.2)
    wf = gaussian_superposition(params)
    assert wf.norm_sq() == pytest.approx(1.0, abs=1e-12)
    # mass near the small packet is eps^2 (cross term negligible by construction)
    prob, _ = window_project(wf, (params.x2 - 1.0, params.x2 + 1.0), keep_inside=True)
    assert prob == pytest.approx(params.eps**2, abs=1e-6)
    with pytest.raises(ParameterError):
        gaussian_superposition(params, domain=(-2.0, 8.0))  # too tight for the wide packet


def test_uncertainty_product_floor():
    for w in (0.5, 2.0):
        wf = packet(width=w)
        _, xs = moments(wf)
        p, probs = momentum_spectrum(wf)
        _, ps = moments((p, probs))
        assert xs * ps >= 0.5 - 1e-3


# Geometries (n, x_min, x_max) for the bit-identity checks below, each with
# room for a unit-width packet and a Dicke pair (L=1, ell=0.1, 6 apart).
GEOMETRIES = ((4096, -20.0, 20.0), (8192, 3.25, 83.25), (16384, 0.0, 100.0))


def _plain_xs(n, x_min, x_max):
    return x_min + (x_max - x_min) / n * np.arange(n)


def _geometry_packet(n, x_min, x_max):
    return gaussian_packet(n, x_min, x_max, 0.5 * (x_min + x_max), 1.0)


def _geometry_dicke(n, x_min, x_max):
    params = DickeParams(L=1.0, ell=0.1, x1=x_min + 9.0, x2=x_min + 15.0, eps=0.3)
    return params, gaussian_superposition(params, n=n, domain=(x_min, x_max))


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_packets_match_the_plain_formulas_bit_for_bit(geometry):
    n, x_min, x_max = geometry
    dx = (x_max - x_min) / n
    xs = _plain_xs(n, x_min, x_max)
    center, width = 0.5 * (x_min + x_max), 1.0
    amps = np.exp(-((xs - center) ** 2) / (2.0 * width * width)).astype(complex)
    amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
    assert np.array_equal(_geometry_packet(n, x_min, x_max).amplitudes, amps)

    params, wf = _geometry_dicke(n, x_min, x_max)
    big = params.n1 * np.exp(-((xs - params.x1) ** 2) / (2.0 * params.L**2))
    small = params.n2 * np.exp(-((xs - params.x2) ** 2) / (2.0 * params.ell**2))
    amps = (math.sqrt(1.0 - params.eps**2) * big + params.eps * small).astype(complex)
    amps = amps / math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))
    assert np.array_equal(wf.amplitudes, amps)
    assert np.array_equal(wf.xs, xs)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_spectra_and_moments_match_the_plain_formulas_bit_for_bit(geometry):
    _, wf = _geometry_dicke(*geometry)
    dx = wf.dx
    f = np.fft.fft(wf.amplitudes)
    p = 2.0 * math.pi * np.fft.fftfreq(wf.n, d=dx)
    phi = f * dx / math.sqrt(2.0 * math.pi) * np.exp(-1j * p * wf.x_min)
    order = np.fft.fftshift(np.arange(wf.n))
    p_sorted, phi_sorted = p[order], phi[order]

    got_p, got_phi = momentum_amplitudes(wf)
    assert np.array_equal(got_p, p_sorted) and np.array_equal(got_phi, phi_sorted)
    probs = np.abs(phi_sorted) ** 2 * (2.0 * math.pi / (wf.n * dx))
    got_p, got_probs = momentum_spectrum(wf)
    assert np.array_equal(got_p, p_sorted) and np.array_equal(got_probs, probs)

    def plain_moments(grid, weights):
        total = float(np.sum(weights))
        mean = float(np.sum(grid * weights)) / total
        var = float(np.sum((grid - mean) ** 2 * weights)) / total
        return mean, math.sqrt(max(var, 0.0))

    xs = _plain_xs(wf.n, wf.x_min, wf.x_max)
    assert moments(wf) == plain_moments(xs, np.abs(wf.amplitudes) ** 2 * dx)
    assert moments((p_sorted, probs)) == plain_moments(p_sorted, probs)


@pytest.mark.parametrize("keep_inside", (True, False))
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_window_project_matches_the_plain_mask_bit_for_bit(geometry, keep_inside):
    n, x_min, x_max = geometry
    wf = _geometry_packet(n, x_min, x_max)
    xs = _plain_xs(n, x_min, x_max)
    # both ends sit exactly on samples, so both are inside the window
    mid = n // 2
    a, b = float(xs[mid - 100]), float(xs[mid + 37])
    inside = (xs >= a) & (xs <= b)
    kept = np.where(inside if keep_inside else ~inside, wf.amplitudes, 0.0j)
    prob = float(np.sum(np.abs(kept) ** 2) * wf.dx)

    got_prob, post = window_project(wf, (a, b), keep_inside=keep_inside)
    assert got_prob == prob
    assert np.array_equal(post.amplitudes, kept * (1.0 / math.sqrt(prob)))
    in_window = post.amplitudes[mid - 100 : mid + 38]
    assert in_window.all() if keep_inside else not in_window.any()


def compare_spectral_phase_with_exp(seed: int, draws: int = 40) -> int:
    """Assert that _grid_spectral's phase, which calls exp on indices
    0 ... n/2 only and conjugates the rest, gives the full-grid
    exp(-1j * p * x_min) bytes; return the number of geometries checked.
    x_min = +-0.0, where the conjugate would flip zero signs, is included."""
    rng = np.random.default_rng(seed)
    geometries = [(n, lo, lo + span) for n in (4, 8, 4096, 32768) for lo, span in
                  ((0.0, 1.0), (-0.0, 3.0), (-8.0, 22.0), (5.0, 1.0), (-1e6, 50.0), (-1e20, 2e20))]
    for _ in range(draws):
        lo = float(rng.normal()) * 10.0 ** int(rng.integers(-3, 7))
        geometries.append((2 ** int(rng.integers(2, 17)), lo, lo + float(rng.uniform(1e-3, 1e4))))
    for n, x_min, x_max in geometries:
        _grid_spectral.cache_clear()
        p = 2.0 * math.pi * np.fft.fftfreq(n, d=(x_max - x_min) / n)
        want = np.exp(-1j * p * x_min)
        got_p, got = _grid_spectral(n, x_min, x_max)
        assert got.tobytes() == want.tobytes(), (n, x_min, x_max)
        assert got_p.tobytes() == np.fft.fftshift(p).tobytes()
    _grid_spectral.cache_clear()
    return len(geometries)


def test_spectral_phase_matches_the_full_grid_exp_bit_for_bit():
    assert compare_spectral_phase_with_exp(5) == 64


def test_grid_axes_are_shared_and_read_only():
    n, x_min, x_max = GEOMETRIES[1]
    one = _geometry_packet(n, x_min, x_max)
    two = GridWavefunction(n, x_min, x_max, np.zeros(n, dtype=complex))
    assert one.xs is two.xs
    with pytest.raises(ValueError):
        one.xs[0] = 0.0
    p, _ = momentum_amplitudes(one)
    with pytest.raises(ValueError):
        p[0] = 0.0
    p2, _ = momentum_spectrum(one)
    assert p2 is p


def _same_bits(ours, ref) -> bool:
    """Equal bytes once both are complex128: real amplitudes must carry the
    complex reference's values, zero signs included."""
    return np.asarray(ours).astype(complex).tobytes() == np.asarray(ref).astype(complex).tobytes()


def test_real_arrays_stay_real_and_other_inputs_become_complex():
    n = 8
    assert GridWavefunction(n, -1.0, 1.0, np.ones(n)).amplitudes.dtype == np.float64
    real = np.ones(n)
    assert GridWavefunction(n, -1.0, 1.0, real).amplitudes is real
    for other in (np.ones(n, dtype=np.float32), np.ones(n, dtype=int), np.ones(n, dtype=complex)):
        assert GridWavefunction(n, -1.0, 1.0, other).amplitudes.dtype == np.complex128
    wf = packet()
    assert wf.amplitudes.dtype == np.float64
    assert window_project(wf, (-1.0, 1.0), keep_inside=True)[1].amplitudes.dtype == np.float64
    assert wf.normalized().amplitudes.dtype == np.float64
    cplx = GridWavefunction(wf.n, wf.x_min, wf.x_max, wf.amplitudes.astype(complex))
    assert window_project(cplx, (-1.0, 1.0), keep_inside=False)[1].amplitudes.dtype == np.complex128


def compare_gaussian_with_oracle(seed: int, draws: int = 300) -> collections.Counter:
    """Assert that _gaussian, which computes exp only where it does not
    underflow, gives the full-grid exp's bytes; count what was covered."""
    rng = np.random.default_rng(seed)
    seen = collections.Counter()
    for _ in range(draws):
        n = 2 ** int(rng.integers(6, 16))
        x_min = float(rng.uniform(-500.0, 500.0))
        x_max = x_min + float(rng.uniform(0.5, 200.0))
        xs = grid_xs(n, x_min, x_max)
        dx = (x_max - x_min) / n
        # from a few samples to wider than the grid
        width = dx * float(np.exp(rng.uniform(np.log(0.5), np.log(2.0 * n))))
        where = rng.integers(4)
        if where == 0:
            center = float(rng.choice((x_min, x_max, xs[0], xs[-1])))
        elif where == 1:  # beyond an end, up to 60 widths out
            out = width * float(rng.uniform(0.0, 60.0))
            center = x_min - out if rng.integers(2) else x_max + out
        else:
            center = float(rng.uniform(x_min, x_max))
        denom = 2.0 * width * width
        got = _gaussian(xs, center, denom)
        want = oracles.reference_gaussian(xs, center, denom)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (n, x_min, x_max, center, width)
        zeros = int(np.count_nonzero(want == 0.0))
        seen["draws"] += 1
        seen["all zero"] += zeros == n
        seen["some zero"] += 0 < zeros < n
        seen["no zero"] += zeros == 0
        seen["few samples wide"] += width < 4.0 * dx
    return seen


def test_gaussian_matches_the_full_grid_exp_bit_for_bit():
    seen = compare_gaussian_with_oracle(3)
    assert min(seen.values()) > 0, seen


def _random_dicke(rng):
    """In-schema dicke_tray_spoon inputs, as the scenario resolves them: an
    explicit n (the automatic size or twice it), explicit or automatic eps,
    any window half-width, a negative x_spoon on either side of x_tray."""
    big = float(rng.uniform(0.5, 3.0))
    small = big * float(rng.uniform(0.02, 0.1))
    sep = 5.0 * (big + small) * float(rng.uniform(1.0, 2.0))
    x_spoon = -float(rng.uniform(0.0, 300.0))
    x_tray = x_spoon + sep * float(rng.choice((-1.0, 1.0)))
    eps = float(rng.uniform(0.01, 0.9)) if rng.integers(2) else _AUTO_EPS_SLOPE * small / big
    params = DickeParams(L=big, ell=small, x1=x_tray, x2=x_spoon, eps=eps)
    domain = dicke_domain(params)
    n = dicke_grid_size(params, domain) * 2 ** int(rng.integers(2))
    return params, domain, n, float(rng.uniform(1.0, 6.0))


def _check_spectra(wf, ref_amps):
    n, lo, hi = wf.n, wf.x_min, wf.x_max
    assert moments(wf) == oracles.reference_position_moments(n, lo, hi, ref_amps)
    p, phi = momentum_amplitudes(wf)
    want_p, want_phi = oracles.reference_momentum_amplitudes(n, lo, hi, ref_amps)
    assert p.tobytes() == want_p.tobytes() and phi.tobytes() == want_phi.tobytes()
    if contained(wf):
        p, probs = momentum_spectrum(wf)
        want_p, want_probs = oracles.reference_momentum_spectrum(n, lo, hi, ref_amps)
        assert p.tobytes() == want_p.tobytes() and probs.tobytes() == want_probs.tobytes()
        assert moments((p, probs)) == oracles.reference_moments(want_p, want_probs)


def compare_grid_path_with_oracle(seed: int, draws: int = 12) -> collections.Counter:
    """Assert that the dicke_tray_spoon grid path (superposition, spectra,
    moments, window cuts, the spoon packet, its overlap and normalized())
    gives the complex reference's bytes on random in-schema inputs, for real
    and for complex wavefunctions; count what was covered."""
    rng = np.random.default_rng(seed)
    seen = collections.Counter()
    for _ in range(draws):
        params, (lo, hi), n, half = _random_dicke(rng)
        dx = (hi - lo) / n
        wf = gaussian_superposition(params, n=n, domain=(lo, hi))
        ref = oracles.reference_gaussian_superposition(params, n, (lo, hi))
        assert wf.amplitudes.dtype == np.float64 and _same_bits(wf.amplitudes, ref)
        as_complex = GridWavefunction(n, lo, hi, ref.copy())
        spoon = gaussian_packet(n, lo, hi, params.x2, params.ell)
        ref_spoon = oracles.reference_gaussian_packet(n, lo, hi, params.x2, params.ell)
        assert spoon.amplitudes.dtype == np.float64 and _same_bits(spoon.amplitudes, ref_spoon)
        a = params.x1 - float(rng.uniform(0.0, 3.0)) * params.L
        cuts = (
            ((params.x2 - half * params.ell, params.x2 + half * params.ell), True),
            ((params.x1 - half * params.L, params.x1 + half * params.L), False),
            ((max(a, lo), min(a + float(rng.uniform(0.5, 4.0)) * params.L, hi)), bool(rng.integers(2))),
        )
        for state, amps in ((wf, ref), (as_complex, ref)):
            _check_spectra(state, amps)
            for interval, keep in cuts:
                prob, post = window_project(state, interval, keep_inside=keep)
                want_prob, want = oracles.reference_window_project(n, lo, hi, amps, interval, keep)
                assert prob == want_prob and post.amplitudes.dtype == state.amplitudes.dtype
                assert _same_bits(post.amplitudes, want)
                _check_spectra(post, want)
                assert _overlap_sq(post, spoon) == abs(np.vdot(want, ref_spoon) * dx) ** 2
                scaled = GridWavefunction(n, lo, hi, post.amplitudes * 3.0).normalized()
                assert _same_bits(scaled.amplitudes, oracles.reference_normalized(want * 3.0, dx))
                seen["window cuts"] += 1
            seen["complex" if state is as_complex else "real"] += 1
        seen["auto eps"] += params.eps == _AUTO_EPS_SLOPE * params.ell / params.L
        seen["x_tray above x_spoon"] += params.x1 > params.x2
        seen["x_tray below x_spoon"] += params.x1 < params.x2
        seen["n past the automatic size"] += n > dicke_grid_size(params, (lo, hi))
    return seen


def test_grid_path_matches_the_complex_reference_bit_for_bit():
    seen = compare_grid_path_with_oracle(11)
    assert min(seen.values()) > 0, seen


def test_grid_path_matches_the_complex_reference_at_numpy_baseline_simd():
    # exp, the FFT and the complex arithmetic each dispatch by CPU, and the
    # real path's bit identity must hold at every level.
    out = numpy_baseline.run_at_baseline(
        """
        import test_grid
        print(test_grid.compare_gaussian_with_oracle(3)["draws"])
        print(test_grid.compare_grid_path_with_oracle(11)["window cuts"])
        print(test_grid.compare_spectral_phase_with_exp(5))
        """
    )
    assert [int(v) for v in out.split()] == [300, 72, 64]


_STEADY_FAULTS_CHILD = """
import resource
from ketsim import run_scenario

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

for _ in range(2):
    run_scenario("dicke_tray_spoon", {"l_spoon": 0.01})
added = []
for _ in range(3):
    before = faults()
    run_scenario("dicke_tray_spoon", {"l_spoon": 0.01})
    added.append(faults() - before)
print(added)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are pinned on glibc only")
def test_large_grid_reports_reuse_heap_memory_without_page_faults():
    # A 32768-point report peaks at about 2.3 MB of transient arrays. Under
    # glibc's dynamic thresholds each report trims that memory and faults it
    # back in (about 1 100 minor faults); with the pinned thresholds a warm
    # report takes almost none. A fresh process, so no earlier test's frees
    # have moved glibc's thresholds.
    src = str(Path(ketsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _STEADY_FAULTS_CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout)
    assert len(added) == 3 and all(a < 50 for a in added), added
