"""Spatial null-measurement scenario.

A particle is almost entirely a wide packet on a watched region, plus a
tiny narrow packet far away. The watcher seeing nothing is a rare outcome
that hands the particle to the narrow packet, broadening its momentum
spread by the packet-width ratio. No force acted; a null result did the
work. Expected values are Gaussian quadrature closed forms and the
reciprocal-width law of the Fourier transform. After Dicke, Am. J. Phys.
49, 925 (1981): the wide packet is the tray, the narrow one the spoon.

The state is sqrt(1-eps^2)*tray + eps*spoon, renormalized: two
grid-normalized `gaussian_packet`s on one grid spanning 8 tray widths beyond
both centres at spacing <= l_spoon/8. The cross term is kept, and made
negligible by two refused-when-broken invariants: l_spoon <= l_tray/10, and
the centres at least 5*(l_tray + l_spoon) apart.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from ..grid import GridWavefunction, fine_grid_size, gaussian_packet, moments, momentum_spectrum, window_project
from ..report import Check, make_step
from . import ParamSpec, Scenario, guard

# Auto weight for the faraway packet: small enough that the watched region
# dominates, large enough that the null outcome is packet-dominated rather
# than tail-dominated across the supported width ratios.
_AUTO_EPS_SLOPE = 0.43


def _overlap_sq(a, b) -> float:
    return abs(np.sum(a.amplitudes.conj() * b.amplitudes) * a.dx) ** 2


def _tray_and_spoon(n, lo, hi, big, small, x_tray, x_spoon, eps):
    """(sqrt(1-eps^2)*tray + eps*spoon renormalized on the grid, spoon), where tray and
    spoon are the grid-normalized gaussian_packets of widths big at x_tray and small at x_spoon."""
    dx = (hi - lo) / n
    if dx > small / 8.0:
        raise ParameterError(f"grid spacing {dx:g} of n={n} does not resolve l_spoon={small:g} (need <= l_spoon/8)")
    spoon = gaussian_packet(n, lo, hi, x_spoon, small)
    tray = gaussian_packet(n, lo, hi, x_tray, big).amplitudes
    tray *= math.sqrt(1.0 - eps**2)
    tray += eps * spoon.amplitudes
    return GridWavefunction(n, lo, hi, tray).normalized(), spoon


def _spreads(wf, when, checks):
    """(mean x, std x, std p) of wf; appends its parseval_<when> and uncertainty_<when> checks."""
    mean_x, std_x = moments(wf)
    ps, probs = momentum_spectrum(wf)
    std_p = moments((ps, probs))[1]
    checks.append(Check(f"parseval_{when}", "abs", 1.0, float(probs.sum()), 1e-9, "unitary-transform identity"))
    checks.append(Check(f"uncertainty_{when}", "ge", 0.5, std_x * std_p, 1e-3, "uncertainty lower bound"))
    return mean_x, std_x, std_p


def _run_dicke(params, seed):
    big, small = params["l_tray"], params["l_spoon"]
    x_tray, x_spoon = params["x_tray"], params["x_spoon"]
    eps = params["eps"] if params["eps"] > 0.0 else _AUTO_EPS_SLOPE * small / big
    half = params["window_halfwidth"]
    if small > big / 10 + 1e-12:
        raise ParameterError(f"l_spoon={small:g} must be at most l_tray/10 = {big / 10:g}")
    if abs(x_tray - x_spoon) < 5.0 * (big + small):
        raise ParameterError(f"x_tray and x_spoon must be 5*(l_tray + l_spoon) = {5.0 * (big + small):g} or more apart")
    lo = min(x_tray, x_spoon) - 8.0 * big
    hi = max(x_tray, x_spoon) + 8.0 * big
    n = params["n"] if params["n"] > 0 else fine_grid_size(hi - lo, small / 8.0)
    wf, spoon_packet = _tray_and_spoon(n, lo, hi, big, small, x_tray, x_spoon, eps)
    checks = []
    mean_x, std_x, std_p_pre = _spreads(wf, "pre", checks)
    spoon_window = (x_spoon - half * small, x_spoon + half * small)
    with guard("faraway-window mass"):
        p_spoon_pre, _ = window_project(wf, spoon_window, keep_inside=True)
    eps_sq = eps * eps
    checks.append(
        Check("spoon_window_mass_pre", "abs", eps_sq * math.erf(half),
              p_spoon_pre, 0.01 * eps_sq, "Gaussian quadrature oracle")
    )
    steps = [
        make_step(
            "prepared superposition",
            events={
                "mean_x": mean_x,
                "std_x": std_x,
                "std_p_pre": std_p_pre,
                "uncertainty_pre": std_x * std_p_pre,
                "spoon_window_mass_pre": p_spoon_pre,
            },
        )
    ]

    tray_window = (x_tray - half * big, x_tray + half * big)
    with guard("watched region stays empty"):
        p_null, post = window_project(wf, tray_window, keep_inside=False)
    p_null_expected = (1.0 - eps_sq) * math.erfc(half) + eps_sq
    checks.append(
        Check("p_null_outcome", "abs", p_null_expected, p_null, 1e-5, "Gaussian quadrature oracle")
    )

    fid_spoon = _overlap_sq(post, spoon_packet)
    checks.append(
        Check("fidelity_vs_pure_spoon", "abs", eps_sq / p_null_expected, fid_spoon, 0.005,
              "Gaussian-overlap closed form")
    )

    mean_x_post, std_x_post, std_p_post = _spreads(post, "post", checks)
    ratio = std_p_post / std_p_pre
    width_ratio = big / small
    checks.append(
        Check("momentum_std_ratio", "abs", width_ratio, ratio, 0.2 * width_ratio,
              "reciprocal-width law of the transform")
    )
    steps.append(
        make_step(
            "watched region stays empty",
            events={
                "p_null_outcome": p_null,
                "fidelity_vs_pure_spoon": fid_spoon,
                "mean_x_post": mean_x_post,
                "std_x_post": std_x_post,
                "std_p_post": std_p_post,
                "uncertainty_post": std_x_post * std_p_post,
                "momentum_std_ratio": ratio,
                "grid_points": float(n),
                "eps_used": eps,
            },
        )
    )

    notes = (
        "The null outcome is mostly the faraway packet plus the watched packet's clipped tails; "
        "its momentum spread is wider by roughly the width ratio, paid for by an outcome "
        "probability near eps squared.",
        "The tiny faraway weight means the particle already had a matching far-window presence "
        "before anything was watched; the null result promotes it rather than creating it.",
    )
    return steps, checks, notes


DICKE_TRAY_SPOON = Scenario(
    "dicke_tray_spoon",
    "Seeing nothing on the watched wide packet hands the particle to a faraway narrow one, "
    "broadening its momentum by the width ratio.",
    (
        ParamSpec("l_tray", "float", 1.0, low=1e-3, doc="width of the watched packet"),
        ParamSpec("l_spoon", "float", 0.05, low=1e-6, doc="width of the faraway packet"),
        ParamSpec("x_tray", "float", 0.0, low=-1e6, high=1e6, doc="watched packet center"),
        ParamSpec("x_spoon", "float", 6.0, low=-1e6, high=1e6, doc="faraway packet center"),
        ParamSpec("eps", "float", 0.0, low=0.0, high=1.0, high_open=True,
                  doc="faraway amplitude weight; 0 derives it from the width ratio"),
        ParamSpec("n", "int", 0, low=0, high=65536, doc="grid points (power of two); 0 sizes automatically"),
        ParamSpec("window_halfwidth", "float", 3.0, low=1.0, high=6.0,
                  doc="window half-width in packet-width units"),
    ),
    _run_dicke,
)
