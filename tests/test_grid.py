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
    GridWavefunction,
    ImpossibleOutcomeError,
    ParameterError,
    gaussian_packet,
    moments,
    momentum_spectrum,
    run_scenario,
    window_project,
)
from ketsim.grid import (
    MAX_GRID_POINTS,
    _gaussian,
    contained,
    fine_grid_size,
    grid_xs,
)
from ketsim.scenarios.spatial import _AUTO_EPS_SLOPE, _overlap_sq, _tray_and_spoon

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


@pytest.mark.parametrize(
    "x_min, x_max, name",
    (
        (0.0, math.inf, "x_max"),
        (-math.inf, 1.0, "x_min"),
        (math.nan, 1.0, "x_min"),
        (0.0, math.nan, "x_max"),
        (-1e308, 1e308, "the span x_max - x_min"),
    ),
)
def test_grid_geometry_refuses_non_finite_bounds_and_span(x_min, x_max, name):
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        GridWavefunction(8, x_min, x_max, np.zeros(8))
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        gaussian_packet(8, x_min, x_max, 0.0, 1.0)


@pytest.mark.parametrize(
    "center, width, name",
    ((math.nan, 1.0, "center"), (math.inf, 1.0, "center"), (0.0, math.nan, "width"), (0.0, math.inf, "width")),
)
def test_packet_refuses_a_non_finite_center_or_width(center, width, name):
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        gaussian_packet(2048, -40, 40, center, width)


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


def test_momentum_spectrum_matches_the_closed_form():
    # The unitary convention's transform of a packet of width w at c has
    # |phi(p)|^2 = (w^2/pi)^(1/2) exp(-p^2 w^2), whatever c is.
    w, c = 1.5, 3.0
    wf = gaussian_packet(4096, -40, 40, c, w)
    p, probs = momentum_spectrum(wf)
    dp = 2.0 * math.pi / (wf.n * wf.dx)
    want = (w * w / math.pi) ** 0.5 * np.exp(-p * p * w * w) * dp
    assert np.max(np.abs(probs - want)) < 1e-15


def test_momentum_spectrum_is_translation_invariant_bit_for_bit():
    # The same samples on a shifted grid are the same state moved: its
    # momentum probabilities must not depend on where the grid starts.
    amps = gaussian_packet(4096, -20.0, 20.0, 0.0, 1.0).amplitudes
    spectra = {
        momentum_spectrum(GridWavefunction(4096, lo, lo + 40.0, amps))[1].tobytes()
        for lo in (-20.0, 0.0, 3.25, -1000.0, 2.0**20)
    }
    assert len(spectra) == 1


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


def test_window_project_refuses_a_nan_weight():
    wf = GridWavefunction(8, -1.0, 1.0, np.full(8, math.nan))
    for keep_inside in (True, False):
        with pytest.raises(ImpossibleOutcomeError, match="Born weight nan"):
            window_project(wf, (-0.5, 0.5), keep_inside=keep_inside)


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


# A dicke_tray_spoon state's geometry: tray and spoon widths, centres, and
# the spoon's amplitude weight, as `_tray_and_spoon` takes them.
Dicke = collections.namedtuple("Dicke", "big small x_tray x_spoon eps")


def _scenario_domain(d):
    """The scenario's domain: 8 tray widths beyond both centres."""
    return min(d.x_tray, d.x_spoon) - 8.0 * d.big, max(d.x_tray, d.x_spoon) + 8.0 * d.big


def _dicke_grid_points(params):
    report = run_scenario("dicke_tray_spoon", params)
    return int(report.steps[-1]["events"]["grid_points"])


def test_dicke_grid_resolves_the_spoon():
    n = _dicke_grid_points({})
    assert n >= 4096 and (n & (n - 1)) == 0
    # the default domain runs from x_tray - 8 = -8 to x_spoon + 8 = 14
    assert 22.0 / n <= 0.05 / 8.0


def test_dicke_grid_is_capped():
    # span 6546 needs exactly 2**20 points at l_spoon/8; span 6616 would need 2**21
    assert _dicke_grid_points({"x_spoon": 6530.0}) == MAX_GRID_POINTS == 2**20
    with pytest.raises(ParameterError, match=str(MAX_GRID_POINTS)):
        run_scenario("dicke_tray_spoon", {"x_spoon": 6600.0})


def test_dicke_superposition_weights():
    d = Dicke(big=1.0, small=0.05, x_tray=0.0, x_spoon=6.0, eps=0.2)
    lo, hi = _scenario_domain(d)
    wf, _ = _tray_and_spoon(fine_grid_size(hi - lo, d.small / 8.0), lo, hi, *d)
    assert wf.norm_sq() == pytest.approx(1.0, abs=1e-12)
    # mass near the small packet is eps^2 (cross term negligible by construction)
    prob, _ = window_project(wf, (d.x_spoon - 1.0, d.x_spoon + 1.0), keep_inside=True)
    assert prob == pytest.approx(d.eps**2, abs=1e-6)


def test_uncertainty_product_floor():
    for w in (0.5, 2.0):
        wf = packet(width=w)
        _, xs = moments(wf)
        p, probs = momentum_spectrum(wf)
        _, ps = moments((p, probs))
        assert xs * ps >= 0.5 - 1e-3


# Geometries (n, x_min, x_max) for the bit-identity checks below, each with
# room for a unit-width packet and a tray and spoon (widths 1 and 0.1, 6 apart).
GEOMETRIES = ((4096, -20.0, 20.0), (8192, 3.25, 83.25), (16384, 0.0, 100.0))


def _plain_xs(n, x_min, x_max):
    return x_min + (x_max - x_min) / n * np.arange(n)


def _geometry_packet(n, x_min, x_max):
    return gaussian_packet(n, x_min, x_max, 0.5 * (x_min + x_max), 1.0)


def _geometry_dicke(n, x_min, x_max):
    d = Dicke(big=1.0, small=0.1, x_tray=x_min + 9.0, x_spoon=x_min + 15.0, eps=0.3)
    return d, *_tray_and_spoon(n, x_min, x_max, *d)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_packets_match_the_plain_formulas_bit_for_bit(geometry):
    n, x_min, x_max = geometry
    dx = (x_max - x_min) / n
    xs = _plain_xs(n, x_min, x_max)

    def plain_normalized(amps):
        return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2) * dx))

    def plain_packet(center, width):
        return plain_normalized(np.exp(-((xs - center) ** 2) / (2.0 * width * width)).astype(complex))

    want = plain_packet(0.5 * (x_min + x_max), 1.0)
    assert np.array_equal(_geometry_packet(n, x_min, x_max).amplitudes, want)

    d, wf, spoon = _geometry_dicke(n, x_min, x_max)
    want_spoon = plain_packet(d.x_spoon, d.small)
    want = plain_normalized(math.sqrt(1.0 - d.eps**2) * plain_packet(d.x_tray, d.big) + d.eps * want_spoon)
    assert np.array_equal(wf.amplitudes, want) and np.array_equal(spoon.amplitudes, want_spoon)
    assert np.array_equal(wf.xs, xs)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_spectra_and_moments_match_the_plain_formulas_bit_for_bit(geometry):
    _, wf, _ = _geometry_dicke(*geometry)
    dx = wf.dx
    f = np.fft.fft(wf.amplitudes)
    p = 2.0 * math.pi * np.fft.fftfreq(wf.n, d=dx)
    phi = f * dx / math.sqrt(2.0 * math.pi)
    order = np.fft.fftshift(np.arange(wf.n))
    p_sorted, phi_sorted = p[order], phi[order]

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


def test_grid_axes_are_shared_and_read_only():
    n, x_min, x_max = GEOMETRIES[1]
    one = _geometry_packet(n, x_min, x_max)
    two = GridWavefunction(n, x_min, x_max, np.zeros(n, dtype=complex))
    assert one.xs is two.xs
    with pytest.raises(ValueError):
        one.xs[0] = 0.0
    p, _ = momentum_spectrum(one)
    with pytest.raises(ValueError):
        p[0] = 0.0
    p2, _ = momentum_spectrum(one.normalized())
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
    d = Dicke(big, small, x_tray, x_spoon, eps)
    lo, hi = _scenario_domain(d)
    n = fine_grid_size(hi - lo, small / 8.0) * 2 ** int(rng.integers(2))
    return d, (lo, hi), n, float(rng.uniform(1.0, 6.0))


def _check_spectra(wf, ref_amps):
    n, lo, hi = wf.n, wf.x_min, wf.x_max
    assert moments(wf) == oracles.reference_position_moments(n, lo, hi, ref_amps)
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
        d, (lo, hi), n, half = _random_dicke(rng)
        dx = (hi - lo) / n
        wf, spoon = _tray_and_spoon(n, lo, hi, *d)
        ref, ref_spoon = oracles.reference_tray_and_spoon(n, lo, hi, *d)
        assert wf.amplitudes.dtype == np.float64 and _same_bits(wf.amplitudes, ref)
        as_complex = GridWavefunction(n, lo, hi, ref.copy())
        assert spoon.amplitudes.dtype == np.float64 and _same_bits(spoon.amplitudes, ref_spoon)
        a = d.x_tray - float(rng.uniform(0.0, 3.0)) * d.big
        cuts = (
            ((d.x_spoon - half * d.small, d.x_spoon + half * d.small), True),
            ((d.x_tray - half * d.big, d.x_tray + half * d.big), False),
            ((max(a, lo), min(a + float(rng.uniform(0.5, 4.0)) * d.big, hi)), bool(rng.integers(2))),
        )
        for state, amps in ((wf, ref), (as_complex, ref)):
            _check_spectra(state, amps)
            for interval, keep in cuts:
                prob, post = window_project(state, interval, keep_inside=keep)
                want_prob, want = oracles.reference_window_project(n, lo, hi, amps, interval, keep)
                assert prob == want_prob and post.amplitudes.dtype == state.amplitudes.dtype
                assert _same_bits(post.amplitudes, want)
                _check_spectra(post, want)
                # np.sum pairs a complex array's terms unlike a real one's, so
                # a real state's overlap is summed over the real parts
                pair = (want.real, ref_spoon.real) if state is wf else (want.conj(), ref_spoon)
                assert _overlap_sq(post, spoon) == abs(np.sum(pair[0] * pair[1]) * dx) ** 2
                scaled = GridWavefunction(n, lo, hi, post.amplitudes * 3.0).normalized()
                assert _same_bits(scaled.amplitudes, oracles.reference_normalized(want * 3.0, dx))
                seen["window cuts"] += 1
            seen["complex" if state is as_complex else "real"] += 1
        seen["auto eps"] += d.eps == _AUTO_EPS_SLOPE * d.small / d.big
        seen["x_tray above x_spoon"] += d.x_tray > d.x_spoon
        seen["x_tray below x_spoon"] += d.x_tray < d.x_spoon
        seen["n past the automatic size"] += n > fine_grid_size(hi - lo, d.small / 8.0)
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
        """
    )
    assert [int(v) for v in out.split()] == [300, 72]


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
