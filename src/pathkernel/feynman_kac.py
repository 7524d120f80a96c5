"""Schrodinger semigroup estimation along sampled paths.

The estimator averages  g(w(t)) * exp(-(t/n) * sum_j V(w(j t/n)))  over
free paths (semigroup applied to terminal data) or over normalized
bridges scaled by the bridge mass (the semigroup's integral kernel).
The default time-slice rule is the right-endpoint Riemann sum, which
makes the estimator's mean exactly the n-step Trotter product; a
trapezoid option (symmetrized product, one order better in n) is
available behind a flag.

Every ensemble drawn in blocks is reduced by one driver, ``over_paths``:
the estimators here, the distance curve and the command line's ``sample``
and ``bridge``.  It is the one caller of ``parallel.run_blocks``, and a
job carries its own grid, so a covering sum's terms or a curve's t values
are the jobs of one pass and a command forks its workers at most once.  The
estimators share ``_visited`` (V along the path, checked against its sup
bound, 0 at the cemetery), ``_Exponent``, ``_terminal`` and one
mean/standard-error rule, ``EstimateWithError.of``.  A block is at most
``BLOCK_SIZE`` samples at any step count, and its readers fold its rows
one grid time at a time, so it holds a few rows; each sample has its own
substream, so the block size moves no output bit.

The covering sum takes the run's kernel: its law gives the deck group,
the line kernel is built at its truncation, and the omitted winding tail
is summed exactly.  With the zero potential it is the command line's
``verify covering``.

A Galerkin spectral oracle on the circle, the absorbing interval and its
compactification provides the independent check: the law's own Laplace
eigenbasis (Fourier modes on the circle, sines on the interval), V's
matrix in it from closed-form transforms of the library's potentials, one
symmetric eigendecomposition per mode count, and the mode count doubled
until the value settles.  It is evaluated at any point of the domain.

Killed paths contribute zero (the terminal data vanishes at the
cemetery), so estimates over compactified models are sub-Markov
expectations automatically.  Values are expectations at the chosen
start point; a null set of bad start points cannot be distinguished by
pointwise evaluation, which we accept as a scope note.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PathkernelError, PotentialBoundError
from .heat_kernel import TransitionKernel, check_task, image_count
from .manifold import (
    Point,
    project_arrays,
    validate_point,
)
from .parallel import per_job, run_blocks
from .path_sampler import TimeGrid, bridge_total_mass, sample_rows
from .quadrature import gaussian_tail_radius
from .rng import RngContract, cos

BOUND_SLACK = 1e-9
BLOCK_SIZE = 32768  # samples of one block, at most
ROUNDING_ULPS = 16  # the covering-sum check's allowance for one rounded product


@dataclass(frozen=True)
class Potential:
    """A bounded potential with its declared sup bound.

    The evaluator maps coordinate arrays of shape (..., dim) to values
    of shape (...).  Evaluations are spot-checked against sup_bound.
    The library's potentials also give their ``pieces``: terms
    (lo, hi, value, freq), each value cos(freq x) on lo <= x < hi of the
    first coordinate, whose sum is V; the spectral oracle integrates
    those exactly.  A potential without them is sampled.
    """

    evaluator: object
    sup_bound: float
    name: str = "custom"
    pieces: tuple = None

    def __post_init__(self):
        if self.sup_bound < 0:
            raise ValueError("sup_bound must be nonnegative")

    def __call__(self, coords):
        return np.asarray(self.evaluator(np.asarray(coords, dtype=np.float64)), dtype=np.float64)


def zero_potential():
    return Potential(lambda c: np.zeros(c.shape[:-1]), 0.0, name="zero", pieces=())


def const_potential(value):
    v = float(value)
    return Potential(lambda c: np.full(c.shape[:-1], v), abs(v), name=f"const:{v:g}",
                     pieces=((-math.inf, math.inf, v, 0.0),))


def cos_potential():
    """V = cos of the first coordinate, by ``rng.cos``: host-independent bits below about 1.647e6 in magnitude."""
    return Potential(lambda c: cos(c[..., 0]), 1.0, name="cos", pieces=((-math.inf, math.inf, 1.0, 1.0),))


def step_potential(a, b, value):
    a, b, v = float(a), float(b), float(value)

    def ev(c):
        x = c[..., 0]
        return np.where((x >= a) & (x < b), v, 0.0)

    return Potential(ev, abs(v), name=f"step:{a:g},{b:g},{v:g}", pieces=((a, b, v, 0.0),))


def lifted_potential(cov, potential):
    """The pullback V(pi(x)) of a base potential to the covering space."""

    def ev(coords):
        return potential(project_arrays(cov, coords))

    return Potential(ev, potential.sup_bound, name=f"{potential.name}-lifted")


constant_one = const_potential(1.0)  # the default terminal data g = 1


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")

    @staticmethod
    def of(values, scale=1.0):
        """Sample mean and standard error (sample std over sqrt(n)), both times scale."""
        n = len(values)
        # infinite weights give a non-finite mean and spread, reported downstream
        with np.errstate(over="ignore", invalid="ignore"):
            se = float(np.std(values, ddof=1) / math.sqrt(n)) * scale if n > 1 else 0.0
            return EstimateWithError(float(np.mean(values)) * scale, se, n)


@dataclass(frozen=True)
class FKProblem:
    kernel: TransitionKernel
    potential: Potential
    terminal: object  # g, mapping coordinate arrays (..., d) -> (...)
    x0: Point
    t: float
    n_steps: int
    n_samples: int
    rng: RngContract

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.n_steps < 1 or self.n_samples < 1:
            raise ValueError("n_steps and n_samples must be positive")


def over_paths(jobs, n_samples, rng, workers):
    """Per job (kernel, x0, y0, grid, reduce), lazily in job order: the per-sample
    arrays of reduce(*sample_rows(...)) on blocks of at most BLOCK_SIZE free paths
    (y0 None) or bridges to y0, joined, and the blocks freed, when the job is reached.
    Job j runs on substreams rng.sample_index + j * n_samples on, all jobs in one
    ``run_blocks`` pass."""
    def task(first, count):
        kernel, x0, y0, grid, reduce = jobs[(first - rng.sample_index) // n_samples]
        return reduce(*sample_rows(kernel, x0, y0, grid, rng.master_seed, count, first_index=first))

    parts = per_job(run_blocks(task, n_samples, BLOCK_SIZE, first_index=rng.sample_index, workers=workers,
                               jobs=len(jobs)), len(jobs))
    return (_joined(parts.pop(0)) for _ in jobs)


def _joined(parts):
    """Tuples of per-sample arrays joined into one tuple, element by element."""
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def last_row(rows):
    """The last of the rows, every one of them drawn."""
    for row in rows:
        pass
    return row


def _visited(potential, row):
    """V at one grid time of every path, checked against its sup bound;
    0 at the cemetery."""
    finite = np.isfinite(row[..., 0])
    if finite.all():  # no cemetery: V on the positions as they are
        vvals = vals = potential(row)
    else:
        vvals = np.where(finite, potential(np.where(finite[..., None], row, 0.0)), 0.0)
        vals = vvals[finite]
    worst = float(np.max(np.abs(vals))) if vals.size else 0.0
    if not worst <= potential.sup_bound + BOUND_SLACK * (1.0 + potential.sup_bound):  # NaN fails it too
        raise PotentialBoundError(
            f"potential reached |V| = {worst:.6g}, not within its declared bound {potential.sup_bound:.6g}"
        )
    return vvals


class _Exponent:
    """t/n times the slice rule's Riemann sum of V along each path, summed as
    the rows are added, in the order ``fk_expectation`` states."""

    def __init__(self, potential, rule, tau):
        if rule not in ("right", "trapezoid"):
            raise ValueError(f"unknown slice rule {rule!r}")
        self.potential, self.rule, self.tau = potential, rule, tau
        self.first = self.last = None

    def add(self, row):
        """Fold in V at the row (``_visited``), which is returned."""
        vvals = _visited(self.potential, row)
        if self.first is None:
            self.first, self.inner = vvals, np.zeros_like(vvals)  # inner: v_1 + ... + v_{j-1} while v_j is the last
        else:
            if self.last is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # an infinite sum is reported with the estimate
                    self.inner += self.last
            self.last = vvals
        return vvals

    def weights(self, end, gv=None):
        """exp(-exponent) per path, times the terminal values gv if given; 0 if the end row is NaN."""
        # a sum or weight past the float range is infinite, and NaN times g = 0; the estimate reports either
        with np.errstate(over="ignore", invalid="ignore"):
            if self.rule == "right":
                expo = self.tau * (self.inner + self.last)
            else:
                expo = self.tau * (0.5 * self.first + self.inner + 0.5 * self.last)
            weights = np.exp(-expo)
            weights[np.isnan(end[:, 0])] = 0.0
            return weights if gv is None else weights * gv


def _terminal(g, end):
    """g at each path's end row; 0 for a killed path, whose end row is NaN."""
    killed = np.isnan(end[:, 0])
    gv = np.asarray(g(np.where(killed[:, None], 0.0, end)), dtype=np.float64)
    gv[killed] = 0.0
    return gv


def _growth_bound(t, sup_v):
    """e^(t sup|V|), the most a potential weight can grow; inf if it overflows."""
    try:
        return math.exp(t * sup_v)
    except OverflowError:
        return math.inf


def fk_expectation(problem, rule="right", workers=1):
    """Monte Carlo value of the Schrodinger semigroup applied to terminal data.

    Averages g(w(t)) exp(-Riemann sum of V) over free paths; killed
    paths contribute zero.  Returns the estimate with its standard
    error (sample standard deviation over sqrt(N)).

    The estimator's mean is the n-step product of its slice rule, not
    the semigroup itself:

    - ``rule="right"`` (default): the n-step Trotter product, with an
      O(t/n) bias; about +3.5e-3 for V = cos on the circle of length
      2 pi at t = 1, n = 64.
    - ``rule="trapezoid"``: the symmetrized product, with an O((t/n)^2)
      bias; about -4e-6 on the same problem.

    Each path's sum is taken in time order, left to right: tau (v_1 + ... + v_n)
    for the right rule, tau (0.5 v_0 + (v_1 + ... + v_{n-1}) + 0.5 v_n) for the
    trapezoid, with tau = t/n and v_j = V(w(j tau)).
    """
    p = problem
    g = p.terminal if p.terminal is not None else constant_one

    def reduce(rows, windings):
        expo = _Exponent(p.potential, rule, p.t / p.n_steps)
        for row in rows:
            expo.add(row)
        gv = _terminal(g, row)
        return expo.weights(row, gv), gv

    grid = TimeGrid.uniform(p.t, p.n_steps)
    [(vals, gv)] = over_paths([(p.kernel, p.x0, None, grid, reduce)], p.n_samples, p.rng, workers)
    est = EstimateWithError.of(vals)
    # an infinite cap (e^(t sup|V|) overflows) is never exceeded
    cap = _growth_bound(p.t, p.potential.sup_bound) * float(np.max(np.abs(gv)))
    if abs(est.value) > cap * (1.0 + 1e-12) + 1e-300:
        raise PathkernelError(f"estimate {est.value:.6g} exceeds its a-priori bound {cap:.6g}")
    return est


def _kernel_job(kernel, potential, x0, y0, t, n_steps, rule):
    """The bridge mass p_t(y0, x0) and the ``over_paths`` job of the
    normalized-bridge potential weights."""
    def reduce(rows, windings):
        expo = _Exponent(potential, rule, t / n_steps)
        for row in rows:
            expo.add(row)
        return (expo.weights(row),)

    return bridge_total_mass(kernel, x0, y0, t), (kernel, x0, y0, TimeGrid.uniform(t, n_steps), reduce)


def fk_kernel(kernel, potential, x0, y0, t, n_steps, n_samples, rng, rule="right", workers=1):
    """Monte Carlo value of the semigroup's integral kernel at (x0, y0).

    Normalized-bridge average of the potential weight, scaled by the
    bridge mass p_t(y0, x0).
    """
    mass, job = _kernel_job(kernel, potential, x0, y0, t, n_steps, rule)
    [(w,)] = over_paths([job], n_samples, rng, workers)
    return EstimateWithError.of(w, mass)


# ---------------------------------------------------------------------------
# structure checks


@dataclass
class MonotonicityReport:
    passed: bool
    n_samples: int
    n_violations: int
    estimate_low: EstimateWithError
    estimate_high: EstimateWithError


def fk_monotonicity_check(
    kernel, v_low, v_high, x0, t, n_steps, n_samples, rng, y0=None, terminal=None, rule="right", workers=1
):
    """Pathwise ordering of two potential weights under common random numbers.

    The same sampled paths are reused for both potentials, so V_low <=
    V_high forces exp(-R_low) >= exp(-R_high) sample by sample, and the
    two estimates are ordered deterministically, not just statistically.
    Free paths carry the nonnegative terminal data g (default 1); bridges
    to y0 carry none.
    """
    if y0 is not None and terminal is not None:
        raise ValueError("the bridge mode of the monotonicity check takes no terminal data")
    mass = 1.0 if y0 is None else bridge_total_mass(kernel, x0, y0, t)
    g = terminal if terminal is not None else constant_one

    def reduce(rows, windings):
        lo, hi = _Exponent(v_low, rule, t / n_steps), _Exponent(v_high, rule, t / n_steps)
        for row in rows:
            if float(np.max(lo.add(row) - hi.add(row), initial=0.0)) > 0.0:
                raise ValueError("v_low exceeds v_high at a visited point")
        gv = _terminal(g, row)
        if np.any(gv < 0):
            raise ValueError("the pathwise comparison needs nonnegative terminal data")
        return lo.weights(row, gv), hi.weights(row, gv)

    grid = TimeGrid.uniform(t, n_steps)
    [(w_low, w_high)] = over_paths([(kernel, x0, y0, grid, reduce)], n_samples, rng, workers)
    violations = int(np.sum(w_low < w_high))
    estimates = [EstimateWithError.of(w, mass) for w in (w_low, w_high)]
    return MonotonicityReport(violations == 0, len(w_low), violations, *estimates)


@dataclass
class CoveringSumReport:
    base_estimate: EstimateWithError
    line_sum: float
    combined_std_error: float
    tail_bound: float
    residual: float
    rounding: float  # how far rounding alone may move the residual

    @property
    def within_tolerance(self):
        return self.residual <= 3.0 * self.combined_std_error + self.tail_bound + self.rounding


def _winding_tail_bound(t, gap, length, w_max, sup_v):
    """Mass of the omitted image terms, taken until they are spent (within
    image_count's budget) and summed exactly, amplified by the potential
    bound."""
    radius = gaussian_tail_radius(t, 1e-18)
    terms = []
    for k in range(w_max + 1, max(w_max + 1, image_count(radius + abs(gap), length)) + 1):
        for sgn in (1.0, -1.0):
            z = gap + sgn * k * length
            terms.append((4.0 * math.pi * t) ** -0.5 * math.exp(-z * z / (4.0 * t)))
        if (k * length - abs(gap)) > radius:
            break
    return math.fsum(terms) * _growth_bound(t, sup_v)


def fk_covering_sum_check(
    kernel, v_base, x0, y0, t, windings, n_steps, n_samples, rng, rule="right", workers=1
):
    """Base-space Schrodinger kernel against its covering-space image sum.

    Estimates q_t(x0, y0) with the kernel of a base of one period (a
    circle) and the sum over deck shifts |k| <= windings of the line-space
    kernel, at the same truncation, with the lifted potential; every term
    runs on a disjoint substream range.  The report carries the residual,
    the combined Monte Carlo error, the analytic bound on the omitted
    winding tail and the rounding allowance.  With the zero potential
    every weight is 1, and one 1-step bridge per term gives the kernels
    themselves (``verify covering``).
    """
    check_task(kernel, "covering")
    cov = kernel._law.covering()
    (length,) = cov.periods
    x0a = validate_point(kernel.model, x0, "x0")
    y0a = validate_point(kernel.model, y0, "y0")
    kernel_line = TransitionKernel(cov.total, truncation=kernel.truncation)
    v_line = lifted_potential(cov, v_base)
    w_max = int(windings)
    gap = float(y0a[0] - x0a[0])
    x_line = Point((float(x0a[0]),))
    # the base kernel, then the line kernel at each deck shift k, on consecutive substream ranges
    jobs = [_kernel_job(kernel, v_base, x0, y0, t, n_steps, rule)]
    jobs += [_kernel_job(kernel_line, v_line, x_line, Point((float(x0a[0] + gap + k * length),)),
                         t, n_steps, rule) for k in range(-w_max, w_max + 1)]
    runs = over_paths([job for _, job in jobs], n_samples, rng, workers)
    est_base, *terms = [EstimateWithError.of(w, mass) for (mass, _), (w,) in zip(jobs, runs)]
    line_sum = float(sum(e.value for e in terms))
    combined = math.sqrt(est_base.std_error ** 2 + sum(e.std_error ** 2 for e in terms))
    tail = _winding_tail_bound(t, gap, length, w_max, v_base.sup_bound)
    # With the same weight on every path (a constant potential) sigma is 0,
    # or rounding itself, and the identity value = line_sum + tail is missed
    # by rounding alone.  Every number here is positive: each kernel value
    # and mean of weights, and each of their products, rounds by a few ulps,
    # and a sum of n such numbers by at most n/2 ulps of its total more.
    # ROUNDING_ULPS covers the first and the line sum adds the rest; the
    # tail, far below the total and summed exactly, adds no whole ulp.
    scale = sys.float_info.epsilon * (abs(est_base.value) + line_sum)
    return CoveringSumReport(
        base_estimate=est_base,
        line_sum=line_sum,
        combined_std_error=combined,
        tail_bound=tail,
        residual=abs(est_base.value - line_sum),
        rounding=(ROUNDING_ULPS + 0.5 * len(terms)) * scale,
    )


# ---------------------------------------------------------------------------
# spectral oracle


def _transform(f, basis, m):
    """The integral of f(x) e^(-i p w x) over [0, L] at p = 0..P, the
    frequencies of the basis: exact from a potential's pieces; otherwise
    the midpoint rule on m points, one FFT."""
    omega, L = basis.frequencies, basis.length
    pieces = getattr(f, "pieces", None)
    if pieces is None:
        h = L / m
        vals = np.asarray(f(((np.arange(m) + 0.5) * h)[:, None]), dtype=np.float64)
        size = round(2.0 * math.pi / (basis.step * h))  # m on the circle, 2m on the interval
        p = np.arange(len(omega))
        return h * np.exp(-0.5j * h * omega) * np.fft.fft(vals, size)[p % size]
    out = np.zeros(len(omega), dtype=np.complex128)
    for lo, hi, value, freq in pieces:
        a, b = max(lo, 0.0), min(hi, L)
        if a < b:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            for mu in (omega - freq, omega + freq):  # cos(freq x) is half e^(i freq x) plus half e^(-i freq x)
                out += value * half * np.exp(-1j * mu * mid) * np.sinc(mu * half / math.pi)
    return out


@dataclass(frozen=True)
class SpectralOracle:
    """e^(t(Laplacian - V)) by Galerkin in the Laplacian's eigenbasis on the
    kernel's law: the diagonal of -lambda_j minus V's matrix, decomposed by
    a symmetric ``eigh``.  Each value is taken at n = 16, 32, ... modes,
    capped at ``max_modes``, until it moves by at most the kernel's tail
    tolerance times max(1, |value|); at the cap it is returned as it is.

    V's and g's transforms are exact for the library's potentials (their
    ``pieces``: closed forms, split at a step's jumps).  A callable without
    pieces is sampled at the midpoints of ``max_modes`` cells, so its
    coefficients carry that rule's error: none for a trigonometric
    polynomial of degree below max_modes on the circle, O(max_modes^-2)
    for a smooth function on the interval and O(1/max_modes) at a jump.
    Points may lie anywhere in the model's domain."""

    kernel: TransitionKernel
    potential: Potential
    t: float
    max_modes: int

    def _series(self, x0, right):
        """phi(x0) U e^(tW) U^T right(basis), with U e^(tW) U^T the n-mode
        semigroup, as n doubles from 16 until it settles or reaches the cap."""
        x0 = float(validate_point(self.kernel.model, Point((float(x0),)), "x0")[0])
        tol = self.kernel.truncation.tail_tolerance
        n, last = 16, None
        while True:
            basis = self.kernel._law.oracle_basis(n)
            op = -basis.matrix(_transform(self.potential, basis, self.max_modes))
            op[np.diag_indices(n)] -= basis.eigenvalues
            try:
                w, u = np.linalg.eigh(op)
            except np.linalg.LinAlgError as exc:  # a potential that returned NaN
                raise PathkernelError(f"oracle eigendecomposition failed: {exc}") from exc
            with np.errstate(over="ignore", invalid="ignore"):  # an infinite growth is reported downstream
                got = float((basis.values(x0) @ u) @ (np.exp(self.t * w) * (right(basis) @ u)))
            if n == self.max_modes or (last is not None and abs(got - last) <= tol * max(1.0, abs(got))):
                return got
            n, last = min(2 * n, self.max_modes), got

    def value_at(self, g, x0):
        """(e^(t(Laplacian - V)) g)(x0)."""
        return self._series(x0, lambda basis: basis.coefficients(_transform(g, basis, self.max_modes)))

    def kernel_entry(self, x0, y0):
        """The semigroup's integral kernel q_t(x0, y0)."""
        y0 = float(validate_point(self.kernel.model, Point((float(y0),)), "y0")[0])
        return self._series(x0, lambda basis: basis.values(y0))


def spectral_oracle(kernel, m_points, potential, t):
    """The Galerkin semigroup e^(t(Laplacian - V)) of the kernel's law, at
    most m_points modes (at least 16).  A model stands for its heat kernel."""
    kernel = kernel if isinstance(kernel, TransitionKernel) else TransitionKernel(kernel)
    check_task(kernel, "oracle")
    m = int(m_points)
    if m < 16:
        raise ValueError("need at least 16 modes")
    if t <= 0:
        raise ValueError("t must be positive")
    return SpectralOracle(kernel, potential, float(t), m)
