import math

import numpy as np
import pytest

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
from ketsim.grid import MAX_GRID_POINTS, contained, from_momentum_amplitudes, momentum_amplitudes

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


def test_momentum_roundtrip():
    wf = packet(width=1.5, center=3.0)
    p, phi = momentum_amplitudes(wf)
    back = from_momentum_amplitudes(p, phi, wf.n, wf.x_min, wf.x_max)
    assert np.allclose(back.amplitudes, wf.amplitudes, atol=1e-10)


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
