"""Shared statistical machinery for the sampler tests.

Expected bin masses come from quadrature or closed-form CDFs of the
kernels, independent of the samplers under test.
"""

import math

import numpy as np
from scipy.stats import chi2

from pathkernel.heat_kernel import circle_theta_arrays, h3_profile
from pathkernel.quadrature import gaussian_tail_radius


def chi2_threshold(n_cells, level=0.01):
    return float(chi2.ppf(1.0 - level, n_cells - 1))


def chi2_statistic(counts, probs, n):
    counts = np.asarray(counts, dtype=np.float64)
    expected = np.asarray(probs) * n
    return float(np.sum((counts - expected) ** 2 / expected))


def _bin_masses(density, edges, subdiv=64):
    """Composite-Simpson mass of a smooth density over each bin."""
    masses = []
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, 2 * subdiv + 1)
        ys = density(xs)
        h = (b - a) / (2 * subdiv)
        w = np.ones_like(xs)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        masses.append(h / 3.0 * float(np.sum(w * ys)))
    return np.asarray(masses)


def circle_bin_probs(t, x0, length, policy, n_bins=64):
    edges = np.linspace(0.0, length, n_bins + 1)
    probs = _bin_masses(lambda y: circle_theta_arrays(t, y - x0, length, policy), edges)
    return edges, probs / probs.sum()


def gaussian_bin_probs(t, x0, n_bins=64):
    """Bins across +-5.5 sigma plus two absorbing tail cells; erf CDF oracle."""
    sigma = math.sqrt(2.0 * t)
    inner = np.linspace(x0 - 5.5 * sigma, x0 + 5.5 * sigma, n_bins + 1)
    edges = np.concatenate([[-np.inf], inner, [np.inf]])

    def cdf(v):
        return 0.5 * (1.0 + math.erf((v - x0) / (sigma * math.sqrt(2.0))))

    cdfs = np.array([0.0] + [cdf(v) for v in inner] + [1.0])
    return edges, np.diff(cdfs)


def cauchy_bin_probs(t, x0, n_bins=64):
    """Equal-probability cells through the arctan CDF."""
    qs = np.linspace(0.0, 1.0, n_bins + 1)
    inner = x0 + t * np.tan(np.pi * (qs[1:-1] - 0.5))
    edges = np.concatenate([[-np.inf], inner, [np.inf]])
    return edges, np.full(n_bins, 1.0 / n_bins)


def h3_radial_bin_probs(t, n_bins=64):
    rmax = 4.0 * t + gaussian_tail_radius(t, 1e-14) + 2.0
    edges = np.linspace(0.0, rmax, n_bins + 1)

    def density(r):
        return 4.0 * np.pi * np.sinh(r) ** 2 * h3_profile(t, r)

    probs = _bin_masses(density, edges, subdiv=128)
    # fold the negligible tail into the last cell so the masses sum to 1
    probs[-1] += max(1.0 - probs.sum(), 0.0)
    return edges, probs / probs.sum()


def bin_counts(values, edges):
    return np.histogram(values, bins=edges)[0]


def h3_bridge_midpoint_mean(T, d):
    """E[rho(x0, w(T/2))] under the H^3 bridge from x0 to a point at distance
    d, by quadrature of the 1-d radial density left by the angular reduction."""
    s = T / 2.0
    r = np.linspace(1e-9, 12.0, 400001)
    dens = r * np.exp(-r * r / (4.0 * s)) * (
        np.exp(-((d - r) ** 2) / (4.0 * s)) - np.exp(-((d + r) ** 2) / (4.0 * s))
    )
    return float(np.trapezoid(r * dens, r) / np.trapezoid(dens, r))
