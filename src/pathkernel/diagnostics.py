"""Quantitative example curves and regularity diagnostics.

The expected-distance curves compare closed forms (square-root growth
in flat space, the erf curve in hyperbolic 3-space) against one-step
Monte Carlo, whose t values are the jobs of one ``feynman_kac.over_paths``
pass.  The regularity estimator fits the dyadic scaling exponent
of maximal path increments, the empirical counterpart of Holder
continuity: Brownian ensembles land just under 1/2, Lipschitz paths at
1, and the jump process refuses to decay at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feynman_kac import EstimateWithError, last_row, over_paths
from .heat_kernel import TransitionKernel, check_task
from .manifold import Euclidean, distance_arrays, validate_point
from .path_sampler import TimeGrid, sample_paths
from .rng import StreamCursor


# ---------------------------------------------------------------------------
# Holder regularity


@dataclass
class HolderReport:
    levels: list
    median_max_increments: list
    fitted_exponent: float
    r_squared: float


def max_increment_stat(positions, model=None):
    """Per-path maximum consecutive displacement (the dyadic increment statistic)."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim == 2:
        pos = pos[..., None]
    if model is None:
        model = Euclidean(pos.shape[-1])
    d = distance_arrays(model, pos[:, 1:, :], pos[:, :-1, :])
    return np.max(d, axis=1)


def holder_exponent(level_positions, model=None):
    """Fit the decay exponent of median max increments across dyadic levels.

    level_positions maps a dyadic level n to a (paths, 2^n + 1[, d])
    position array on [0, 1].  The fitted exponent is minus the slope of
    log2(median max increment) against n.
    """
    levels = sorted(level_positions)
    if len(levels) < 3:
        raise ValueError("need at least 3 dyadic levels")
    medians = []
    for n in levels:
        xi = max_increment_stat(level_positions[n], model=model)
        medians.append(float(np.median(xi)))
    x = np.asarray(levels, dtype=np.float64)
    y = np.log2(np.asarray(medians))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return HolderReport(
        levels=list(levels),
        median_max_increments=medians,
        fitted_exponent=float(-slope),
        r_squared=r2,
    )


def brownian_dyadic_ensemble(n_paths, levels, master_seed, first_index=0):
    """Euclidean(1) paths on [0,1], refined by exact bridge midpoint insertion.

    Every level describes the same underlying path, which removes
    refinement bias from the scaling fit.  Draw order per sample: the
    coarsest increments, then one midpoint normal per new point, level
    by level.
    """
    levels = sorted(levels)
    lo = levels[0]
    cursor = StreamCursor(master_seed, first_index + np.arange(n_paths, dtype=np.uint64))
    n0 = 2 ** lo
    dt = 1.0 / n0
    z = cursor.normals(n0)
    pos = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(math.sqrt(2.0 * dt) * z, axis=1)], axis=1)
    out = {lo: pos}
    current = pos
    for n in range(lo + 1, levels[-1] + 1):
        parent_dt = 2.0 ** -(n - 1)
        mids = 0.5 * (current[:, :-1] + current[:, 1:]) + math.sqrt(parent_dt / 2.0) * cursor.normals(
            current.shape[1] - 1
        )
        refined = np.empty((n_paths, 2 * current.shape[1] - 1))
        refined[:, 0::2] = current
        refined[:, 1::2] = mids
        current = refined
        if n in levels:
            out[n] = current
    return out


def strided_dyadic_ensemble(kernel, x0, levels, n_paths, master_seed, first_index=0):
    """One finest-level ensemble per path; coarser levels by striding.

    All levels describe the same sampled path here too; used for models
    without a closed-form bridge insertion (and for the jump kernel).
    """
    levels = sorted(levels)
    finest = levels[-1]
    grid = TimeGrid.uniform(1.0, 2 ** finest)
    ens = sample_paths(kernel, x0, grid, master_seed, n_paths, first_index=first_index)
    out = {}
    for n in levels:
        stride = 2 ** (finest - n)
        out[n] = ens.positions[:, ::stride, :]
    return out


def linear_dyadic_levels(levels):
    """The deterministic path w(t) = t, as a 1-path ensemble per level."""
    out = {}
    for n in sorted(levels):
        ts = np.linspace(0.0, 1.0, 2 ** n + 1)
        out[n] = ts[None, :, None]
    return out


# ---------------------------------------------------------------------------
# expected distance


def expected_distance_analytic(model, t):
    """Closed-form mean displacement after time t (flat space and H^3)."""
    if t <= 0:
        raise ValueError("t must be positive")
    kernel = TransitionKernel(model)
    check_task(kernel, "curve")
    mean = kernel._law.mean_distance(t)
    if math.isnan(mean):
        raise ValueError(f"no closed-form distance curve for {model!r}")
    return mean


def _distance_estimates(kernel, x0, t_grid, n_samples, rng, workers):
    """Per time in t_grid, the law's closed-form mean displacement, asked
    before any draw, and a one-step Monte Carlo mean, each a job of one
    ``over_paths`` pass; time j draws substreams rng.sample_index + j * n_samples on."""
    x0a = validate_point(kernel.model, x0, "x0")
    check_task(kernel, "curve")

    def reduce(rows, windings):
        return (distance_arrays(kernel.model, last_row(rows), x0a[None, :]),)

    jobs = [(kernel, x0, None, TimeGrid.uniform(t, 1), reduce) for t in t_grid]
    analytic = [kernel._law.mean_distance(t) for t in t_grid]
    return analytic, [EstimateWithError.of(d) for (d,) in over_paths(jobs, n_samples, rng, workers)]


def expected_distance_mc(model, x0, t, n_samples, rng, workers=1):
    """One-step Monte Carlo mean of the displacement after time t."""
    return _distance_estimates(TransitionKernel(model), x0, [t], n_samples, rng, workers)[1][0]


def distance_curve(kernel, x0, t_grid, n_samples, rng, workers=1):
    """Rows (t, analytic, mc, mc_stderr) of the kernel's paths; analytic is NaN off the closed forms."""
    analytic, estimates = _distance_estimates(kernel, x0, t_grid, n_samples, rng, workers)
    return [(float(t), ana, est.value, est.std_error) for t, ana, est in zip(t_grid, analytic, estimates)]


def curve_to_csv(rows, comment=None):
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("t,analytic,mc,mc_stderr")
    for t, ana, mc, se in rows:
        lines.append(f"{t:.17g},{ana:.17g},{mc:.17g},{se:.17g}")
    return "\n".join(lines) + "\n"
