"""Substochastic transition densities, their numeric verification, and the
sampling rules they induce.

Closed forms:

* Euclidean(n):  (4 pi t)^(-n/2) exp(-rho^2 / 4t)  -- semigroup convention
  e^(t*Laplacian), i.e. per-coordinate variance 2t.
* Hyperbolic3:   e^(-t) (4 pi t)^(-3/2) (rho/sinh rho) exp(-rho^2 / 4t).
* Circle / FlatTorus:  lattice sum of Gaussian images, truncated by the
  policy's tail tolerance (per-coordinate factorization for rectangular
  tori); where the images would number over MAX_TERMS, the dual (Fourier)
  series, to the same tolerance.
* DirichletInterval:  the Gaussian times the bridge survival ratio below
  t = L^2/pi^2, one reflection-image sum shared with the killed sampler
  that keeps its digits at both walls; the sine eigen-series above.  Both
  agree to machine tail at the switch.
* Cauchy (Euclidean(1) only):  t / (pi (t^2 + dx^2)).

Masses integrate to 1 for the complete models and fall short for the
absorbing interval; the compactified wrapper books the missing mass on
a cemetery state so the total is exactly 1 again.  That lost mass is a
closed form switched like the kernel: erfc images (the cemetery row keeps
their digits) below t = L^2/pi^2, one minus the sine series above.  The
survival mass is the sine series above and, below, an erf image sum of
its own on the distance to the nearer wall, which keeps its digits there.

Laws
----
Every rule that depends on the kernel family lives on one module-private
law per family, chosen in ``_LAWS`` from the kernel's (model, kind) when
the kernel is built.  The public functions here and the samplers in
``path_sampler`` validate their input, then call the law.  A law supplies
``density(t, x, y, owner=None)`` (with the owner batching of the profiles
below), ``mass``, ``ck_integral`` (the left side of Chapman-Kolmogorov;
the right side is ``density``), and where they exist the moves ``step``
and ``bridge_step``, which one walk turns into the rows of paths and
bridges (a killed step writes NaN), the moment and delta-family rules,
the distance curve's ``mean_distance(t)`` (NaN on the lattice laws), the
spectral oracle's ``oracle_basis(n)`` (its first n Laplace eigenfunctions,
Fourier modes on the circle and sines on the interval) and the lattice law's
``covering()``, whose deck group the covering sum reads.
``TASKS`` maps each task to the rule it needs, and a law runs a task
exactly when it has that rule, apart from three refusals that depend on
the model.  Every entry point asks ``check_task(kernel, task)`` before
any work; a refusal names the models (each law's ``spec``) that run the
task.  A law's ``spec`` is also its model's name on the command line, and
its ``parse(rest)`` builds the model from the text after the name;
``model_of(spec)`` finds the law.  So a new model is a class in
``manifold`` with its geometry methods, a law with ``spec``, ``parse``
and its rules, and one ``_LAWS`` entry; the command line needs no edit.

Moments
-------
``integrated_moment(a, tau, tol)`` is the integral of d(x, y)^a p_tau(x, y)
over y, and ``pointwise_sup(a, tau)`` the sup over r of r^a p_tau(r).  The
Gaussian and Cauchy laws give both in closed form and ignore tol:

* Gaussian on R^n:  (4 tau)^(a/2) Gamma((a+n)/2) / Gamma(n/2), and the
  peak at r^2 = 2 a tau.
* Cauchy:  tau^a / cos(pi a / 2) for a < 1 (divergent for a >= 1), and
  the peak at r^2 = a tau^2 / (2 - a) for a < 2 (unbounded for a >= 2).

H3 (radially, over a range fitted to the integrand's peak), the circle
and the interval integrate by adaptive Gauss-Kronrod quadrature to tol
times the integrand's peak value times its width, which bounds the error relative
to the moment itself.  The peaks of H3's and the circle's pointwise
moments, and of the circle's and the interval's integrands, are searched
with ``maximize_scalar``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentIntegralError, NonFiniteSampleError, PathkernelError
from .manifold import (
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    covering_of,
    project_arrays,
    validate_point,
)
from .quadrature import (
    adaptive_quadrature,
    adaptive_quadrature_batch,
    gaussian_tail_radius,
    maximize_scalar,
)
from .rng import box_muller, cos_sin_2pi, h3_exp

MAX_TERMS = 10 ** 6


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls lattice-sum and eigen-series truncation."""

    tail_tolerance: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.tail_tolerance < 1.0:
            raise ValueError("tail_tolerance must lie in (0, 1)")
        if self.tail_tolerance * 1e-3 == 0.0:  # the series are cut at a thousandth of it
            raise ValueError(f"tail_tolerance {self.tail_tolerance!r} is too small: its thousandth underflows to 0")


@dataclass(frozen=True)
class TransitionKernel:
    """An evaluable transition density on one model space; its law is
    built once, here, and is not a field."""

    model: object
    kind: str = "heat"
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        if self.kind == "cauchy" and self.model != Euclidean(1):
            raise ValueError("the Cauchy kernel is defined on Euclidean(1) only")
        object.__setattr__(self, "_law", _law_of(self.model, self.kind, self.truncation))


def _check_time(t):
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    return t


# ---------------------------------------------------------------------------
# closed-form profiles (arrays in, arrays out)
#
# The profiles and series below take an optional ``owner``: then ``t`` holds
# one time per owner (one integral of a batched quadrature, say), ``owner``
# names each point's entry, and truncation orders are chosen per owner.


def _each(fn, t, owner, *args):
    """fn(t, *args) without an owner; with one, the list of fn over the
    owners' times, each a Python scalar.

    numpy's array transcendentals may round differently from the scalar
    ones, so a batched value stays bit-identical to the same value
    computed alone only if its per-owner prefactors are scalars.
    """
    if owner is None:
        return fn(t, *args)
    return [fn(v, *args) for v in np.asarray(t, dtype=np.float64).tolist()]


def _per_owner(fn, t, owner, *args):
    """_each gathered to the points."""
    values = _each(fn, t, owner, *args)
    return values if owner is None else np.array(values)[owner]


def _gather(t, owner):
    return t if owner is None else np.asarray(t, dtype=np.float64)[owner]


def _by_key(keys, owner, fn):
    """fn(sel, owner[sel], key) on the points whose owner has each distinct
    key, reassembled in point order; keys holds one entry per owner.
    Without an owner, keys is the one key of all the points."""
    if owner is None:
        return fn(Ellipsis, None, keys)
    distinct = sorted(set(keys))
    if len(distinct) == 1:
        return fn(Ellipsis, owner, distinct[0])
    point_keys = np.asarray(keys)[owner]
    out = np.empty(owner.shape)
    for key in distinct:
        sel = point_keys == key
        if np.any(sel):
            out[sel] = fn(sel, owner[sel], key)
    return out


def _gauss_norm(t, n):
    try:
        scale = 4.0 * np.pi * t
        if scale == math.inf:  # t past about 1.4e307: the power does not overflow
            return (4.0 * np.pi) ** (-0.5 * n) * t ** (-0.5 * n)
        return scale ** (-0.5 * n)
    except OverflowError:
        raise PathkernelError(
            f"the kernel prefactor (4 pi t)^(-{0.5 * n:g}) overflows at t = {t!r}; t is too small"
        ) from None


def _h3_norm(t):
    return math.exp(-t) * _gauss_norm(t, 3)


def gauss_profile(t, rho2, n, owner=None):
    pref = _per_owner(_gauss_norm, t, owner, n)
    if owner is None and 4.0 * t == math.inf:
        # one t past about 4.5e307: rho2 / t / 4 does not overflow, and a
        # rho2 that did (an image some 1e154 away) weighs 0
        return pref * np.exp(-np.asarray(rho2) / t / 4.0)
    return pref * np.exp(-np.asarray(rho2) / (4.0 * _gather(t, owner)))


def h3_profile(t, rho, owner=None):
    rho = np.asarray(rho, dtype=np.float64)
    small = rho < 1e-6
    safe = np.where(small, 1.0, rho)
    with np.errstate(over="ignore"):  # rho / inf = 0 is the limit past sinh's range
        ratio = np.where(small, 1.0 - rho * rho / 6.0, safe / np.sinh(safe))
    pref = _per_owner(_h3_norm, t, owner)
    return pref * ratio * np.exp(-rho * rho / (4.0 * _gather(t, owner)))


def cauchy_profile(t, dx):
    dx = np.asarray(dx, dtype=np.float64)
    return t / (np.pi * (t * t + dx * dx))


def _image_reach(radius, period):
    """One-sided count of period translates covering radius, or None if
    its 2k + 1 terms would exceed MAX_TERMS."""
    reach = radius / period
    if not reach < MAX_TERMS:  # an infinite radius too
        return None
    kmax = int(math.ceil(reach)) + 1
    return kmax if 2 * kmax + 1 <= MAX_TERMS else None


def image_count(radius, period):
    """One-sided count of period translates covering radius, within MAX_TERMS."""
    kmax = _image_reach(radius, period)
    if kmax is None:
        raise PathkernelError(f"a lattice sum over radius {radius:.3g} needs over {MAX_TERMS} terms")
    return kmax


def _image_range(t, span, period, policy):
    """Number of one-sided images needed so the omitted Gaussian tail <
    tolerance; 0 where they would exceed MAX_TERMS."""
    return _image_reach(gaussian_tail_radius(t, policy.tail_tolerance * 1e-3) + span, period) or 0


def circle_theta_arrays(t, dx, length, policy, owner=None):
    """Heat kernel on a circle as a sum of Gaussian images of the difference dx.

    The image count covers the largest |dx| among the points (per owner).
    Where it would exceed MAX_TERMS, at a time of order (10^6 L)^2, the
    dual series sums instead (``circle_dual_arrays``)."""
    dx = np.asarray(dx, dtype=np.float64)
    if owner is None:
        kmax = _image_range(t, float(np.max(np.abs(dx))) if dx.size else 0.0, length, policy)
    else:
        spans = np.zeros(len(t))
        np.maximum.at(spans, owner, np.abs(dx))
        kmax = [_image_range(v, w, length, policy) for v, w in zip(np.asarray(t).tolist(), spans.tolist())]

    def images(sel, own, k):  # sum_k of the 1-d Gaussian at dx + kL, per point
        if k == 0:
            return circle_dual_arrays(t, dx[sel], length, policy, own)
        z = dx[sel][..., None] + np.arange(-k, k + 1, dtype=np.float64) * length
        return np.sum(gauss_profile(t, z * z, 1, None if own is None else own[:, None]), axis=-1)

    return _by_key(kmax, owner, images)


def _dual_terms(t, L, policy):
    """Frequencies n >= 1 of the dual series whose weight e^(-(2 pi n/L)^2 t)
    exceeds the tail tolerance."""
    lam = (2.0 * math.pi / L) ** 2
    n = 0
    while math.exp(-lam * (n + 1) ** 2 * t) > policy.tail_tolerance * 1e-3:
        n += 1
        if 2 * n > MAX_TERMS:
            raise PathkernelError("dual-series truncation budget exceeded")
    return n


def _dual_weights(t, L, n_max):
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    return np.exp(-((2.0 * math.pi / L) ** 2) * ns * ns * t) * (2.0 / L)


def circle_dual_arrays(t, dx, length, policy, owner=None):
    """Heat kernel on a circle as its dual (Fourier) series,
    (1/L) sum_n e^(-(2 pi n/L)^2 t) cos(2 pi n dx/L) over all integers n."""
    L = float(length)
    dx = np.asarray(dx, dtype=np.float64)

    def series(sel, own, n_max):
        ns = np.arange(1, n_max + 1, dtype=np.float64)
        w = _per_owner(_dual_weights, t, own, L, n_max)
        return 1.0 / L + np.sum(w * np.cos(2.0 * np.pi * ns * dx[sel][..., None] / L), axis=-1)

    return _by_key(_each(_dual_terms, t, owner, L, policy), owner, series)


def _eigen_terms(t, L, policy):
    lam1 = (math.pi / L) ** 2
    m_max = 1
    while math.exp(-lam1 * m_max * m_max * t) > policy.tail_tolerance * 1e-3 * L / 2.0:
        m_max += 1
        if 2 * m_max > MAX_TERMS:
            raise PathkernelError("eigen-series truncation budget exceeded")
    return m_max


def _eigen_weights(t, L, m_max):
    lam1 = (math.pi / L) ** 2
    ms = np.arange(1, m_max + 1, dtype=np.float64)
    return np.exp(-lam1 * ms * ms * t) * (2.0 / L)


def dirichlet_series_arrays(t, x, y, length, policy, owner=None):
    """Absorbing-interval kernel as the sine eigen-series, on arrays x, y."""
    L = float(length)

    def series(sel, own, m_max):
        ms = np.arange(1, m_max + 1, dtype=np.float64)
        w = _per_owner(_eigen_weights, t, own, L, m_max)
        s_x = np.sin(np.pi * ms * x[sel][..., None] / L)
        s_y = np.sin(np.pi * ms * y[sel][..., None] / L)
        return np.maximum(np.sum(w * s_x * s_y, axis=-1), 0.0)

    return _by_key(_each(_eigen_terms, t, owner, L, policy), owner, series)


def dirichlet_kernel_arrays(t, x, y, length, policy, owner=None):
    """The Gaussian times the bridge survival ratio below the switch time
    t = L^2/pi^2, the eigen-series above; they agree to machine tail at the
    switch.  Both run on (x, y) mirrored to (L - x, L - y) where x + y > L,
    so that the nearer wall is 0, and ordered so that y <= x: p(y, x) and
    p(L - x, L - y) are the bits of p(x, y) wherever L - (L - x) = x."""
    L = float(length)
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    flip = x + y > L
    x, y = np.where(flip, L - x, x), np.where(flip, L - y, y)
    x, y = np.maximum(x, y), np.minimum(x, y)

    def regime(sel, own, images):
        if images:
            ratio = dirichlet_survival_ratio(t, x[sel], y[sel], L, policy, own)
            return gauss_profile(t, (x[sel] - y[sel]) ** 2, 1, own) * ratio
        return dirichlet_series_arrays(t, x[sel], y[sel], L, policy, own)

    return _by_key(_each(lambda v: v < L * L / math.pi ** 2, t, owner), owner, regime)


def dirichlet_survival_ratio(t, x, y, length, policy, owner=None):
    """p^D_t(x, y) / g_t(x - y) for x, y in [0, L], capped at 1: the
    probability that the Brownian bridge from x to y over time t stays
    inside (0, L) (Gobet 2000).  From the switch time t = L^2/pi^2 on it is
    the eigen-series over the Gaussian.  Below it (and with an owner) it is

        r = sum_k [exp(-kL(kL + x - y)/t) - exp(-(x + kL)(y + kL)/t)],

    with (x, y) mirrored to (L - x, L - y) where that makes xy the smaller
    of xy and (L - x)(L - y), and ordered so that y <= x.  Direct and
    mirror image k differ by the factor exp(-y(x + 2kL)/t), so each k is
    one term: a sign, times the larger exponential, times
    -expm1(-y|x + 2kL|/t).  The k = 0 term is -expm1(-xy/t); the terms k
    and -k are added as one pair, factored so that nothing cancels.  Each
    point adds the pairs k = 1, 2, ... while they exceed tail_tolerance *
    1e-3 times its own k = 0 term; a bound over the array picks the points
    (usually none) whose pair 1 may.  An overflowing exponent is -inf.
    """
    L = float(length)
    if owner is None and not t < L * L / math.pi ** 2:
        pd = dirichlet_kernel_arrays(t, x, y, L, policy)
        return np.minimum(pd / gauss_profile(t, np.subtract(x, y) ** 2, 1), 1.0)
    shape = np.shape(x)
    x, y, t = np.ravel(x), np.ravel(y), (t if owner is None else np.ravel(_gather(t, owner)))
    tail = policy.tail_tolerance * 1e-3
    with np.errstate(over="ignore", divide="ignore"):
        # In place, as this is the whole of a killed step.  Pair 1 is below
        # 2 exp(-E) min(1, 3Ly/t), E = max(near, far)/t, and the k = 0 term
        # above (1 - 1/e) min(1, xy/t); as x >= sqrt(xy), pair 1 is below
        # tail * r where E >= cut.  A point on a wall makes all candidates.
        near, far = x * y, L - x
        far *= L - y
        r = np.minimum(near, far)
        cut = math.log(10.0 * L / tail) - 0.5 * np.log(np.min(r, initial=math.inf))
        np.divide(r, -t, out=r)
        np.negative(np.expm1(r, out=r), out=r)
        sel = np.maximum(near, far, out=near) < t * cut
        if np.any(sel):
            xs, ys, ts, lead = x[sel], y[sel], np.broadcast_to(t, x.shape)[sel], r[sel]
            flip = near[sel] > far[sel]  # near is max(xy, (L - x)(L - y)) by now
            xs, ys = np.where(flip, L - xs, xs), np.where(flip, L - ys, ys)
            hi, lo, total = np.maximum(xs, ys), np.minimum(xs, ys), lead.copy()
            cols = ts, hi, lo, -np.expm1(-2.0 * hi * lo / ts), lead  # the same at every k
            live, k = np.flatnonzero(lead > 0.0), 1
            every = live.size == lead.size  # no gathers while every row is live
            while live.size:
                # up - down, with up = exp(-s(s + h - w)/t) (1 - exp(-w(h + 2s)/t))
                # and down = exp(-(s - h)(s - w)/t) (1 - exp(-w(2s - h)/t)); its
                # two parts are of order hw/t and (s^2/t) hw/t, s^2/t > pi^2
                s = k * L
                tl, h, w, g, cap = cols if every else (c[live] for c in cols)
                pair = np.exp(-((s - h) * (s - w)) / tl) * (
                    np.exp(-w * (2.0 * s - h) / tl) * g
                    + np.expm1(-h * (2.0 * s - w) / tl) * -np.expm1(-w * (h + 2.0 * s) / tl))
                more = np.abs(pair) > tail * cap
                k += 1
                if every and np.all(more):
                    total += pair
                    continue
                every, live = False, live[more]
                total[live] += pair[more]
            r[sel] = np.clip(total, 0.0, 1.0)
    return r.reshape(shape)


# ---------------------------------------------------------------------------
# masses and test functions


_erf = np.vectorize(math.erf, otypes=[np.float64])
_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def _erfc_pair(a, e):
    """erfc(a - e) - erfc(a + e) for a > 0 and an array e >= 0.  Where
    4ae < 1 the difference would cancel, so there it is the Taylor series
    (4/sqrt(pi)) e^(-a^2) sum_j H_2j(a) e^(2j+1) / (2j+1)!, with the Hermite
    polynomials H, whose terms fall by (2ae)^2 / ((2j+2)(2j+3)) < 1/24 or so."""
    e = np.asarray(e)
    out = np.array(_erfc(a - e) - _erfc(a + e))
    near = 4.0 * a * e < 1.0
    if np.any(near):
        z = e[near]
        h_prev, h, power, total = 0.0, 1.0, z, np.zeros_like(z)  # H_-1, H_0 and z^1 / 1!
        for n in range(60):  # term n is H_n(a) z^(n+1) / (n+1)!, odd powers only
            if n % 2 == 0:
                term = h * power
                total += term
                if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
                    break
            h_prev, h = h, 2.0 * a * h - 2.0 * n * h_prev
            power = power * z / (n + 2)
        out[near] = 4.0 / math.sqrt(math.pi) * math.exp(-a * a) * total
    return out


def dirichlet_mass_arrays(t, x, length, tol=1e-16):
    """Survival mass of the absorbing interval from x (an array) by time t.
    It depends on y = min(x, L - x) alone.  Below the switch time
    t = L^2/pi^2 it is erf(y/h), h = 2 sqrt(t), plus an image sum, so it
    keeps its digits near either wall; from the switch on it is the sine
    series.  Each sum is stopped after a few terms."""
    L = float(length)
    x = np.asarray(x, dtype=np.float64)
    y = np.minimum(x, L - x)  # no sine is taken near m pi
    if t < L * L / math.pi ** 2:
        # term k is (-1)^k [erfc((kL - y)/h) - erfc((kL + y)/h)]; the terms
        # alternate and shrink, so the omitted tail is below erfc((k - 1/2)L/h)
        h = 2.0 * math.sqrt(t)
        survival, k = _erf(y / h), 1
        while math.erfc((k - 0.5) * L / h) > tol:
            survival = survival + (-1.0) ** k * _erfc_pair(k * L / h, y / h)
            k += 1
        return survival
    total, m = np.zeros_like(y), 1
    while True:
        weight = math.exp(-((m * math.pi / L) ** 2) * t)
        total = total + (2.0 / L) * weight * np.sin(m * math.pi * y / L) * (L / (m * math.pi)) * (
            1.0 - math.cos(m * math.pi))
        if weight <= tol and m > 4:
            return total
        m += 1


def _lost_mass(t, x, length, tol=1e-16):
    """The mass the absorbing interval loses to its walls from x (an array)
    by time t: below the switch time an image sum of erfc terms, which keeps
    its digits where little is lost, from the switch on one minus the
    survival mass."""
    L = float(length)
    if not t < L * L / math.pi ** 2:
        return 1.0 - dirichlet_mass_arrays(t, x, L, tol)
    x = np.asarray(x, dtype=np.float64)
    # term j is (-1)^j [erfc((jL + x)/h) + erfc(((j+1)L - x)/h)]; the terms
    # alternate and shrink, so the omitted tail is below 2 erfc(jL/h)
    h, lost, j = 2.0 * math.sqrt(t), np.zeros_like(x), 0
    while True:
        lost = lost + (-1.0) ** j * (_erfc((j * L + x) / h) + _erfc(((j + 1) * L - x) / h))
        j += 1
        if 2.0 * math.erfc(j * L / h) <= tol:
            return lost


def _gaussian_moment(a, tau, n):
    """E|Y|^a for Y ~ N(0, 2 tau I_n): (4 tau)^(a/2) Gamma((a+n)/2) / Gamma(n/2)."""
    return math.exp(0.5 * a * math.log(4.0 * tau) + math.lgamma(0.5 * (a + n)) - math.lgamma(0.5 * n))


def _peak_tolerance(tol, peak, width):
    """tol times an integrand's peak value times its width: an absolute
    tolerance that bounds an error relative to the integral itself.  The
    floor keeps it positive where that product is no normal float."""
    return tol * max(peak * width, sys.float_info.min)


def _lobe_tolerance(tol, f, a, tau, half):
    """_peak_tolerance of an integrand with two mirrored lobes, r -> f(r)
    on [0, half] and its mirror image, each at most sqrt(4 pi tau) wide.

    f is r^a times a kernel whose tail is a few Gaussians at most, so its
    peak is searched only within a Gaussian tail radius of the flat peak
    r^2 = 2 a tau, beyond which f is below 1e-16 of it."""
    _, peak = maximize_scalar(f, 0.0, min(half, math.sqrt(2.0 * a * tau) + gaussian_tail_radius(tau, 1e-16)))
    return _peak_tolerance(tol, peak, 2.0 * min(half, math.sqrt(4.0 * math.pi * tau)))


def smooth_bump(width):
    """The classic compactly supported mollifier, normalized to 1 at its center."""

    def u(r):
        s = np.asarray(r, dtype=np.float64) / width
        inside = np.abs(s) < 1.0
        out = np.zeros_like(s)
        with np.errstate(divide="ignore", over="ignore"):
            val = np.exp(1.0 - 1.0 / np.clip(1.0 - s * s, 1e-300, None))
        out[inside] = val[inside]
        return out

    return u


def _hankel(v, first, rows, cols):
    """The rows x cols matrix v[first + i + j]."""
    return np.lib.stride_tricks.sliding_window_view(v[first:first + rows + cols - 1], cols)


def _toeplitz(v, first, rows, cols):
    """The rows x cols matrix v[first + i - j]."""
    return np.lib.stride_tricks.sliding_window_view(v[first - cols + 1:first + rows], cols)[:, ::-1]


class _TrigBasis:
    """The first n orthonormal eigenfunctions of the Laplacian on [0, L], the
    spectral oracle's basis: the cosines of wave numbers k = 0..n_cos-1,
    then the sines of k = 1..n - n_cos, each a_k cos(k w x) or
    a_k sin(k w x) with eigenvalue -(k w)^2 and a_k = sqrt(2/L), sqrt(1/L)
    for the constant.

    A function f enters through its transform F[p], the integral of
    f(x) e^(-i p w x) over [0, L] at p = 0..2 max k (``frequencies``).  Its
    coefficient on a mode is a_k times Re F[k] (cos) or -Im F[k] (sin).
    With C = Re F and S = -Im F, extended even and odd to negative p, the
    product-to-sum formulas give <phi_i, f phi_j> as a_i a_j / 2 times
    C[k_i - k_j] + C[k_i + k_j] (cos, cos), C[k_i - k_j] - C[k_i + k_j]
    (sin, sin) and S[k_i + k_j] - S[k_i - k_j] (cos, sin): each block a
    Toeplitz plus a Hankel matrix."""

    def __init__(self, length, step, n, n_cos):
        self.length, self.step, self.n_cos = length, step, n_cos
        self.k = np.concatenate([np.arange(n_cos), np.arange(1, n - n_cos + 1)])
        self.sine = np.arange(n) >= n_cos
        self.amplitude = np.where(self.k == 0, math.sqrt(1.0 / length), math.sqrt(2.0 / length))
        self.eigenvalues = (self.k * step) ** 2
        self.frequencies = np.arange(2 * int(self.k.max()) + 1) * step

    def values(self, x):
        """Every mode at the point x."""
        phase = self.k * self.step * x
        return self.amplitude * np.where(self.sine, np.sin(phase), np.cos(phase))

    def coefficients(self, f_hat):
        """<phi_j, f> of every mode."""
        return self.amplitude * np.where(self.sine, -f_hat.imag[self.k], f_hat.real[self.k])

    def matrix(self, f_hat):
        """The symmetric matrix of multiplication by f."""
        q = len(f_hat) - 1  # p = 0 sits at index q of the extended C and S
        c = np.concatenate([f_hat.real[:0:-1], f_hat.real])
        s = np.concatenate([f_hat.imag[:0:-1], -f_hat.imag])
        nc, ns = self.n_cos, len(self.k) - self.n_cos
        out = np.empty((nc + ns, nc + ns))
        np.subtract(_toeplitz(c, q, ns, ns), _hankel(c, q + 2, ns, ns), out=out[nc:, nc:])
        if nc:
            np.add(_toeplitz(c, q, nc, nc), _hankel(c, q, nc, nc), out=out[:nc, :nc])
            np.subtract(_hankel(s, q + 1, nc, ns), _toeplitz(s, q - 1, nc, ns), out=out[:nc, nc:])
            out[nc:, :nc] = out[:nc, nc:].T
        out *= 0.5 * self.amplitude[:, None]
        out *= self.amplitude
        return out


# ---------------------------------------------------------------------------
# laws: one per kernel family
#
# Draw protocol (see path_sampler's determinism contract): sample i draws
# only from its own cursor, in this order per step.
#
# * Gaussian / lattice step: ``dim`` normals (2 uniform slots each),
#   drawn for the whole ensemble at once.  ``StreamCursor.gaussian_step``
#   draws them and makes the step (and the lattice's wrap) in one kernel
#   pass; the slots and their order are those of ``normals(dim)``.
# * Cauchy step: one uniform.
# * H3 step: three normals (6 slots) for the radius, then two uniforms for
#   the sphere direction.  ``StreamCursor.h3_draw`` draws them in one kernel
#   pass, in the slots and order of ``uniforms(8)``.
# * Killed step: one normal proposal (2 slots) plus one acceptance
#   uniform; killed samples stop drawing.
# * Gaussian bridge: ``dim`` normals per step before the last, in the same
#   pass from the bridge mean.
# * Lattice bridge: one winding uniform per coordinate (past the image
#   budget, one winding normal, 2 slots), then the Gaussian bridge steps.
# * H3 bridge step: three normals (6 slots) for the radius to the
#   endpoint, then two uniforms for the angle and azimuth.


class _Law:
    """The rules every law shares, and the refusal of the tasks it lacks the rules for."""

    kind = "heat"
    spec = None  # the CLI's model spec, named in the refusals
    parse = None  # rest -> the model, built from the text after the spec's name (model_of)
    only = {}  # task -> (spec, test): the law runs it only on the models that pass test

    def __init__(self, model, truncation):
        self.model = model
        self.truncation = truncation

    def value(self, t, xa, ya):
        """p_t(x, y) at validated coordinates."""
        return float(self.density(t, xa, ya))

    def mass(self, t, xa, quad_tol):
        return 1.0

    def refusal(self, task):
        """Why this law does not run task (a key of TASKS), or None: it runs a
        task exactly when it has the task's rule and the model passes its ``only`` test."""
        test = self.only.get(task, (None, None))[1]
        if hasattr(self, TASKS[task][0]) and (test is None or test(self.model)):
            return None
        return f"{TASKS[task][1]} {_runners(task)}, not {self.model}/{self.kind}"

    def paths(self, cursor, x0a, steps):
        """The rows of free paths from x0a (see ``_walk``); a killed path's rows from its kill on are NaN."""
        return _walk(x0a, len(cursor), len(steps), lambda j, current: self.step(cursor, current, steps[j]))

    def bridges(self, cursor, x0a, y0a, times):
        """The rows of bridges from x0a to y0a (a row, or one per sample) on
        the grid times, and their windings (None off the lattice law)."""
        return _walk(x0a, len(cursor), len(times) - 1, lambda j, current: self.bridge_step(
            cursor, current, y0a, times[j + 1] - times[j], times[-1] - times[j]), end=y0a), None


def _walk(x0a, n, m, move, end=None):
    """Rows 0..m of n chains from x0a, each an (n, d) array, made one at a
    time as they are read: row j + 1 is move(j, row j), and an end row, if
    given, is row m (move makes rows 1..m-1).  Only the current row is kept."""
    current = np.full((n, x0a.shape[0]), x0a)
    yield current
    for j in range(m if end is None else m - 1):
        current = move(j, current)
        yield current
    if end is not None:
        yield np.broadcast_to(end, current.shape)


def _left_range(dt, what="a step"):
    return NonFiniteSampleError(f"{what} of time {dt} left the float range; shorten the steps or the horizon")


def _scale(var, dt):
    """sqrt(var), the scale of a step of time dt; out of the float range it is an error."""
    if not var < math.inf:
        raise _left_range(dt)
    return math.sqrt(var)


class _Line:
    """The delta-family rule of the laws on a line: a bump around y in their ``delta_window``."""

    def delta_integral(self, t, ya, width, tol):
        lo, hi, w = self.delta_window(ya, width)
        u = smooth_bump(w)

        def f(z):
            return u(z - ya[0]) * self.density(t, z[..., None], ya[None, :])

        return adaptive_quadrature(f, lo, hi, tol=tol)


class _GaussianLaw(_Line, _Law):
    """Euclidean(n): the Gaussian kernel, Gaussian steps and bridges."""

    spec = "euclidean:N"
    parse = staticmethod(lambda rest: Euclidean(int(rest)))
    only = {"delta-family": ("euclidean:1", lambda model: model.dim == 1)}  # the delta window is a line's

    def density(self, t, x, y, owner=None):
        return gauss_profile(t, np.sum((x - y) ** 2, axis=-1), self.model.dim, owner)

    def ck_integral(self, s, t, xa, za, tol):
        # the flat kernel factorizes: one line integral per coordinate, each
        # tail-cut at pad beyond its two points
        pad = np.array([gaussian_tail_radius(max(u, v), tol * 1e-2) + 1.0
                        for u, v in zip(s.tolist(), t.tolist())])
        lhs = np.ones(len(s))
        for x, z in zip(xa.T, za.T):

            def f(y, o):
                return gauss_profile(t, (z[o] - y) ** 2, 1, o) * gauss_profile(s, (y - x[o]) ** 2, 1, o)

            lhs *= adaptive_quadrature_batch(f, np.minimum(x, z) - pad, np.maximum(x, z) + pad, tol=tol)
        return lhs

    def integrated_moment(self, a, tau, tol):
        return _gaussian_moment(a, tau, self.model.dim)

    def mean_distance(self, t):
        return 2.0 * math.gamma((self.model.dim + 1) / 2.0) / math.gamma(self.model.dim / 2.0) * math.sqrt(t)

    def pointwise_sup(self, a, tau):
        # r^a p_tau(r) peaks at r^2 = 2 a tau
        n = self.model.dim
        return math.exp(0.5 * a * (math.log(2.0 * a * tau) - 1.0) - 0.5 * n * math.log(4.0 * math.pi * tau))

    def delta_window(self, ya, width):
        w = width or 1.0
        return ya[0] - w, ya[0] + w, w

    def step(self, cursor, current, dt):
        return cursor.gaussian_step(current, _scale(2.0 * dt, dt))

    def bridge_step(self, cursor, current, y, dt, rem):
        """One conditional Gaussian step toward y, with rem time left."""
        mean = current + (dt / rem) * (y - current)
        var = 2.0 * dt * (rem - dt) / rem
        return cursor.gaussian_step(mean, _scale(var, dt))


class _CauchyLaw(_Line, _Law):
    """The Cauchy jump kernel on Euclidean(1); it has no bridges."""

    kind = "cauchy"
    spec = "cauchy"
    parse = staticmethod(lambda rest: Euclidean(1))

    def density(self, t, x, y, owner=None):
        return cauchy_profile(_gather(t, owner), x[..., 0] - y[..., 0])

    def ck_integral(self, s, t, xa, za, tol):
        x, z = xa[:, 0], za[:, 0]

        # compactify the real line; the substituted integrand vanishes at the ends
        def f(theta, o):
            y = np.tan(theta)
            sec2 = 1.0 + y * y
            return cauchy_profile(t[o], z[o] - y) * cauchy_profile(s[o], y - x[o]) * sec2

        eps = 1e-9
        k = len(s)
        return adaptive_quadrature_batch(f, np.full(k, -np.pi / 2 + eps), np.full(k, np.pi / 2 - eps), tol=tol)

    def integrated_moment(self, a, tau, tol):
        # |r|^a / (t^2 + r^2) is integrable for a < 1 only
        if a >= 1.0:
            raise DivergentIntegralError("integrated Cauchy moment diverges for a >= 1")
        return tau ** a / math.cos(0.5 * math.pi * a)

    def pointwise_sup(self, a, tau):
        # r^a / (t^2 + r^2) is unbounded for a >= 2, and peaks at r^2 = a t^2 / (2 - a)
        if a >= 2.0:
            raise DivergentIntegralError("pointwise Cauchy moment is unbounded for a >= 2")
        return (a / (2.0 - a)) ** (0.5 * a) * (2.0 - a) / (2.0 * math.pi) * tau ** (a - 1.0)

    delta_window = _GaussianLaw.delta_window  # the same bump on the line

    def step(self, cursor, current, dt):
        with np.errstate(over="ignore"):  # reported once, below
            nxt = current + dt * np.tan(np.pi * (cursor.uniforms(1) - 0.5))
        if not np.all(np.isfinite(nxt)):
            raise _left_range(dt)
        return nxt


class _H3Law(_Law):
    """Hyperbolic3: the closed-form kernel, exact radial steps and bridges."""

    spec = "hyperbolic3"
    parse = staticmethod(lambda rest: Hyperbolic3())

    def density(self, t, x, y, owner=None):
        return h3_profile(t, self.model.distance_arrays(x, y), owner)

    def mass(self, t, xa, quad_tol):
        """Radial quadrature of the total mass within a Gaussian tail radius of its shell at r = 2t."""
        radius = gaussian_tail_radius(t, 1e-16)
        lo, hi = max(0.0, 2.0 * t - radius), 2.0 * t + radius
        # rounding a node near 2t, by eps 2t on a shell sqrt(2t) wide, moves f by eps sqrt(2t) of its peak
        blur = sys.float_info.epsilon * math.sqrt(2.0 * t)
        if not (lo < hi and blur <= quad_tol):
            raise PathkernelError(f"the mass at t = {t!r} is out of reach: rounding r near 2t moves the "
                                  f"integrand by {blur:.3g} of its peak, more than the tolerance {quad_tol:.3g}")
        pref = 2.0 * np.pi * _gauss_norm(t, 3)

        def f(r):
            # 4 pi sinh^2(r) p_t(r), with sinh(r) e^(-t - r^2/4t) = (1 - e^(-2r)) e^(-(r - 2t)^2/4t) / 2
            return pref * r * -np.expm1(-2.0 * r) * np.exp(-(r - 2.0 * t) ** 2 / (4.0 * t))

        return adaptive_quadrature(f, lo, hi, tol=quad_tol)

    def ck_integral(self, s, t, xa, za, tol):
        """Radial form after integrating out the sphere directions exactly.

        In geodesic polar coordinates around the source, the angular average
        of the second factor reduces by the hyperbolic law of cosines to a
        difference of two Gaussian terms; what remains is one smooth radial
        integral.  A target within 1e-8 of the source keeps the kernel itself.
        """
        d = self.model.distance_arrays(xa, za)
        cs = [math.exp(-v) * (4.0 * np.pi * v) ** -1.5 * v for v in s.tolist()]
        ct = [math.exp(-v) * (4.0 * np.pi * v) ** -1.5 for v in t.tolist()]
        near = (d < 1e-8).tolist()
        pref = np.array([4.0 * np.pi * c if n else 4.0 * np.pi * c * b / math.sinh(e)
                         for c, b, e, n in zip(ct, cs, d.tolist(), near)])

        def f(r, o):
            def form(sel, own, at_source):
                r_, head = r[sel], pref[own] * r[sel]
                if at_source:
                    return head * np.sinh(r_) * np.exp(-r_ * r_ / (4.0 * t[own])) * h3_profile(s, r_, own)
                d_ = d[own]
                return (head * np.exp(-r_ * r_ / (4.0 * t[own]))
                        * (np.exp(-((d_ - r_) ** 2) / (4.0 * s[own])) - np.exp(-((d_ + r_) ** 2) / (4.0 * s[own]))))

            return _by_key(near, o, form)

        rmax = np.array([e + 4.0 * max(u, v) + gaussian_tail_radius(max(u, v), tol * 1e-3) + 5.0
                         for e, u, v in zip(d.tolist(), s.tolist(), t.tolist())])
        return adaptive_quadrature_batch(f, np.zeros(len(s)), rmax, tol=tol)

    def integrated_moment(self, a, tau, tol):
        """Radial quadrature to tol times the integrand's value at `peak`
        times sqrt(4 pi tau), which bounds the integral of a log-concave
        integrand whose curvature is below -1/(2 tau)."""
        # the integrand is log-concave with curvature below -1/(2 tau), and
        # coth r <= 1 + 1/r puts its peak below `peak`: it is spent a
        # Gaussian tail radius past the peak.  A wider interval would spread
        # the first nodes, at most 1/154 of it apart, across a peak of width
        # sqrt(tau).
        peak = tau + math.sqrt(tau * tau + 2.0 * (a + 2.0) * tau)
        rmax = peak + gaussian_tail_radius(tau, 1e-16)
        # sinh(r) is e^r (1 - e^(-2r)) / 2, and r^(a+1) e^(r - r^2/4 tau) is
        # taken relative to its value at `peak`, a scalar: the rest is one
        # exponential whose exponent is small where the integrand is not, so
        # nothing under- or overflows before the integrand itself does
        scale = 2.0 * np.pi * math.exp(
            (a + 1.0) * math.log(peak) - (peak - 2.0 * tau) ** 2 / (4.0 * tau) - 1.5 * math.log(4.0 * math.pi * tau))

        def f(r):
            with np.errstate(divide="ignore"):  # log 0 = -inf at r = 0, where f is 0
                shape = (a + 1.0) * np.log(r / peak) + (r - peak) * (4.0 * tau - r - peak) / (4.0 * tau)
            return scale * -np.expm1(-2.0 * r) * np.exp(shape)

        width = math.sqrt(4.0 * math.pi * tau)
        return adaptive_quadrature(f, 0.0, rmax, tol=_peak_tolerance(tol, float(f(np.array([peak]))[0]), width))

    def mean_distance(self, t):
        return math.exp(-t) * 2.0 / math.sqrt(math.pi) * math.sqrt(t) + math.erf(math.sqrt(t)) * (1.0 + 2.0 * t)

    def pointwise_sup(self, a, tau):
        def f(r):
            return r ** a * h3_profile(tau, r)

        _, val = maximize_scalar(f, 0.0, math.sqrt(2.0 * a * tau) * 4.0 + 4.0 * tau + 1.0)
        return val

    def delta_integral(self, t, ya, width, tol):
        w = width or 1.0
        u = smooth_bump(w)

        def f(r):
            return 4.0 * np.pi * u(r) * np.sinh(r) ** 2 * h3_profile(t, r)

        return adaptive_quadrature(f, 0.0, w, tol=tol)

    @staticmethod
    def _exp(base, direction, r, dt):
        """``h3_exp`` for a step of time dt; a row that leaves the float range is an error."""
        out, finite = h3_exp(base, direction, r)
        if not finite:
            raise _left_range(dt, "a hyperbolic step")
        return out

    @staticmethod
    def _sinh_ratio(x, y):
        """sinh(x) / sinh(y) for 0 <= x <= y, y > 0, without overflow."""
        return np.exp(x - y) * np.expm1(-2.0 * x) / np.expm1(-2.0 * y)

    def step(self, cursor, current, dt):
        """One exact H^3 heat-kernel step from each row of ``current``.

        The radial law ~ r sinh(r) exp(-r^2/4t) is the law of |Z| for
        Z ~ N(2t e_1, 2t I_3) (Rogers & Pitman, 1981), so three normals give
        the radius; the direction is drawn independently and uniformly.  One
        draw of 8 slots per row: the normals from slots 0-5, the direction
        from slots 6-7, in the same slots and order on the kernel's draw
        pass and on the numpy body (``StreamCursor.h3_draw``).
        """
        r, direction = cursor.h3_draw(_scale(2.0 * dt, dt))
        return self._exp(current, direction, r, dt)

    def bridge_step(self, cursor, current, y, dt, tau_before):
        """One exact step of the H^3 bridge to y, with tau_before time left.

        The distance to y is the norm of a 3-d Euclidean Brownian bridge to 0:
        the h-transform factors of the radial law cancel in the bridge ratio
        (Rogers & Pitman, 1981), so three normals give the new radius b.
        Given b, the distance d to the current point c has density
        ~ d exp(-d^2/4dt) on [|a-b|, a+b], a = d(c, y); one uniform draws the
        truncated exponential d^2, the law of cosines at y turns d into the
        angle from the geodesic y -> c, and a second uniform sets the azimuth.
        As in ``step``, 8 slots a row: the normals from slots 0-5, the two
        uniforms from slots 6-7.
        """
        k = 1.0 - dt / tau_before
        s = _scale(2.0 * dt * k, dt)
        z0, z1, z2 = cursor.normals(3).T
        u, v = cursor.uniforms(2).T
        a = self.model.distance_arrays(current, y)
        b = np.sqrt((k * a + s * z0) ** 2 + s * s * (z1 * z1 + z2 * z2))
        lo, gap = np.minimum(a, b), np.abs(a - b)
        # far rows may overflow; _exp reports them once
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            q = -4.0 * dt * np.log1p(u * np.expm1(-a * b / dt))  # d^2 - (a-b)^2
            d_plus = np.sqrt(gap * gap + q) + gap
            d_minus = np.where(d_plus > 0.0, q / d_plus, 0.0)
            # 1 - cos(theta) = 2 sinh((d-|a-b|)/2) sinh((d+|a-b|)/2) / (sinh a sinh b)
            w = 2.0 * self._sinh_ratio(0.5 * d_minus, lo) * self._sinh_ratio(0.5 * d_plus, np.maximum(a, b))
            w = np.where(lo > 0.0, np.clip(w, 0.0, 2.0), 2.0 * u)
            # log-map direction at y toward c, in exp_point_arrays' frame at y
            # (the origin frame parallel-transported to y), one column a coordinate
            ratio = (current[:, 0] + np.cosh(a)) / (1.0 + y[0])
            e1, e2, e3 = (current[:, k] - ratio * y[k] for k in (1, 2, 3))
            norm = np.sqrt(e1 * e1 + e2 * e2 + e3 * e3)
            unit = norm > 0.0
            e1, e2, e3 = (np.where(unit, ek / norm, fallback) for ek, fallback in ((e1, 1.0), (e2, 0.0), (e3, 0.0)))
            # f1, f2 complete e to an orthonormal frame (Duff et al., 2017):
            # f1 = (1 + sign e1^2 g, sign h, -sign e1), f2 = (h, sign + e2^2 g, -e2)
            sign = np.copysign(1.0, e3)
            g = -1.0 / (sign + e3)
            h = e1 * e2 * g
            rim = np.sqrt(w * (2.0 - w))  # sin(theta)
            rc, rs = cos_sin_2pi(v)
            rc *= rim
            rs *= rim
            along = 1.0 - w
            # one coordinate a row, which the exp-map pass reads in place, from y at row stride 0
            direction = np.empty((3, len(a)))
            direction[0] = along * e1 + rc * (1.0 + sign * (e1 * e1) * g) + rs * h
            direction[1] = along * e2 + rc * (sign * h) + rs * (sign + e2 * e2 * g)
            direction[2] = along * e3 + rc * (-sign * e1) + rs * -e2
        return self._exp(y, direction.T, b, dt)


class _LatticeLaw(_Law):
    """Circle and FlatTorus: Gaussian images per coordinate, Gaussian steps
    projected into the box, and bridges drawn winding by winding."""

    spec = "torus:L1,L2,..."
    parse = staticmethod(lambda rest: FlatTorus(tuple(float(p) for p in rest.split(","))))
    only = {"covering": ("torus:L", lambda model: len(model.periods) == 1)}  # sums the images of one period
    bridge_step = _GaussianLaw.bridge_step  # toward each sample's lift

    def density(self, t, x, y, owner=None):
        out = 1.0
        for i, L in enumerate(self.model.periods):
            out = out * circle_theta_arrays(t, x[..., i] - y[..., i], L, self.truncation, owner)
        return out

    def ck_integral(self, s, t, xa, za, tol):
        tr = self.truncation
        k = len(s)
        lhs = np.ones(k)
        for L, x, z in zip(self.model.periods, xa.T, za.T):

            def f(y, o):
                return circle_theta_arrays(t, z[o] - y, L, tr, o) * circle_theta_arrays(s, y - x[o], L, tr, o)

            lhs *= adaptive_quadrature_batch(f, np.zeros(k), np.full(k, L), tol=tol)
        return lhs

    def mean_distance(self, t):
        return math.nan

    def covering(self):
        """The covering by Euclidean space, whose deck group the covering checks sum over."""
        return covering_of(self.model)

    def step(self, cursor, current, dt):
        return cursor.gaussian_step(current, _scale(2.0 * dt, dt), self.model.periods)

    def bridges(self, cursor, x0a, y0a, times):
        """A deck element per coordinate with Gaussian image weights, a
        Gaussian bridge to the chosen lift, projected."""
        n, horizon = len(cursor), times[-1]
        periods = self.model.periods
        windings = np.empty((n, len(periods)), dtype=np.int64)
        target = np.empty((n, len(periods)))
        for i, L in enumerate(periods):
            gap = y0a[i] - x0a[i]
            kmax = _image_reach(gaussian_tail_radius(horizon, 1e-17) + abs(gap), L)
            if kmax is None:
                # the weights are a Gaussian in k of variance s2 = 2T/L^2 > 3e9 here; rounding adds
                # 1/12, and a normal of s2 - 1/12 rounds to them within O(s2^-2 / 2880), 0 in doubles
                k = np.rint(-gap / L + math.sqrt(2.0 * horizon / (L * L) - 1.0 / 12.0) * cursor.normals(1)[:, 0])
                if not np.all(np.abs(k) < 2.0 ** 63):
                    raise NonFiniteSampleError(f"a winding at horizon {horizon:g} is past 2^63; shorten the horizon")
            else:
                ks = np.arange(-kmax, kmax + 1, dtype=np.float64)
                w = np.exp(-((gap + ks * L) ** 2) / (4.0 * horizon))
                cum = np.cumsum(w / np.sum(w))
                k = ks[np.minimum(np.searchsorted(cum, cursor.uniforms(1)[:, 0]), ks.shape[0] - 1)]
            windings[:, i] = k.astype(np.int64)
            target[:, i] = x0a[i] + gap + k * L
        rows, _ = super().bridges(cursor, x0a, target, times)
        end, m = np.broadcast_to(y0a, target.shape), len(times) - 1
        # projecting the lift may round away from y0, so the end row is y0 itself
        return (project_arrays(self.covering(), row) if j < m else end for j, row in enumerate(rows)), windings


class _CircleLaw(_Line, _LatticeLaw):
    """Circle: the lattice law plus its moment and delta-family rules."""

    spec = "circle:L"
    parse = staticmethod(lambda rest: Circle(float(rest)))
    only = {}  # one period: every lattice task

    def integrated_moment(self, a, tau, tol):
        L = self.model.circumference

        def f(d):
            rho = np.minimum(d, L - d)
            return rho ** a * circle_theta_arrays(tau, d, L, self.truncation)

        tol = _lobe_tolerance(tol, f, a, tau, L / 2.0)
        return adaptive_quadrature(f, 0.0, L / 2.0, tol=tol / 2) + adaptive_quadrature(f, L / 2.0, L, tol=tol / 2)

    def pointwise_sup(self, a, tau):
        L = self.model.circumference

        def f(d):
            return d ** a * circle_theta_arrays(tau, d, L, self.truncation)

        _, val = maximize_scalar(f, 0.0, L / 2.0)
        return val

    def delta_window(self, ya, width):
        # a bump-width window centered on y puts the kernel spike on an
        # edge of the first pieces, whose outermost nodes lie 2.7e-4 of the
        # window's width from it, so a spike wider than that is seen; the
        # theta sum takes any real difference, and the window covers the
        # support once
        L = self.model.circumference
        w = width or 0.4 * L
        if w >= L / 2.0:
            raise ValueError("bump width must stay below half the circumference")
        return ya[0] - w, ya[0] + w, w

    def oracle_basis(self, n):
        """The Fourier modes: cosines of wave numbers 0..n/2, sines of 1..(n-1)/2."""
        L = self.model.circumference
        return _TrigBasis(L, 2.0 * math.pi / L, n, n // 2 + 1)


class _DirichletLaw(_Line, _Law):
    """DirichletInterval: the absorbing kernel, which loses mass.  Its paths
    are killed at the walls, so they are sampled on the compactified model."""

    spec = "dirichlet:L"
    parse = staticmethod(lambda rest: DirichletInterval(float(rest)))

    def density(self, t, x, y, owner=None):
        return dirichlet_kernel_arrays(t, x[..., 0], y[..., 0], self.model.length, self.truncation, owner)

    def mass(self, t, xa, quad_tol):
        L = self.model.length
        return adaptive_quadrature(lambda y: dirichlet_kernel_arrays(t, xa[0], y, L, self.truncation), 0.0, L,
                                   tol=quad_tol)

    def ck_integral(self, s, t, xa, za, tol):
        L, tr = self.model.length, self.truncation
        x, z = xa[:, 0], za[:, 0]

        def f(y, o):
            return dirichlet_kernel_arrays(t, z[o], y, L, tr, o) * dirichlet_kernel_arrays(s, y, x[o], L, tr, o)

        k = len(s)
        return adaptive_quadrature_batch(f, np.zeros(k), np.full(k, L), tol=tol)

    def integrated_moment(self, a, tau, tol):
        L = self.model.length
        y0 = L / 2.0

        def f(z):
            return np.abs(z - y0) ** a * dirichlet_kernel_arrays(tau, z, y0, L, self.truncation)

        return adaptive_quadrature(f, 0.0, L, tol=_lobe_tolerance(tol, lambda r: f(y0 - r), a, tau, y0))

    def delta_window(self, ya, width):
        L = self.model.length
        w = width or min(ya[0], L - ya[0]) * 0.9
        return max(0.0, ya[0] - w), min(L, ya[0] + w), w

    def oracle_basis(self, n):
        """The sines of wave numbers 1..n, which vanish at both walls."""
        L = self.model.length
        return _TrigBasis(L, math.pi / L, n, 0)


class _KilledLaw(_Law):
    """Compactified(DirichletInterval): the base law inside, the cemetery
    rows (validated cemetery coordinates are None), and killed paths."""

    spec = "compactified:dirichlet:L"
    parse = staticmethod(lambda rest: Compactified(model_of(rest)[0]))  # the spec of the base
    only = {"increments": (None, lambda model: False)}  # holder needs paths that are never killed

    def __init__(self, model, truncation):
        super().__init__(model, truncation)
        self.base = _DirichletLaw(model.base, truncation)

    def density(self, t, x, y, owner=None):
        return self.base.density(t, x, y, owner)

    def value(self, t, xa, ya):
        """x is the target slot, y the source: the cemetery books the mass
        the source loses by time t, never returns, and keeps weight 1."""
        if xa is None and ya is None:
            return 1.0
        if xa is None:
            return float(self.lost_mass(t, ya[0]))
        if ya is None:
            return 0.0
        return self.base.value(t, xa, ya)

    def lost_mass(self, t, x):
        """The mass a source at x (an array) loses to the walls by time t."""
        return _lost_mass(t, x, self.model.base.length)

    def ck_integral(self, s, t, xa, za, tol):
        return self.base.ck_integral(s, t, xa, za, tol)

    def oracle_basis(self, n):
        return self.base.oracle_basis(n)

    def ck_cemetery_residual(self, s, t, xa, za, tol):
        """The Chapman-Kolmogorov residual of a row with a cemetery point."""
        if xa is None:  # the cemetery row is 1 on both sides; a cemetery source never returns
            return 0.0
        # target cemetery: deficit accumulates along the flow
        L = self.model.base.length

        def f(y):
            y = np.atleast_1d(y)
            return self.lost_mass(t, y) * dirichlet_kernel_arrays(s, y, xa[0], L, self.truncation)

        lhs = adaptive_quadrature(f, 0.0, L, tol=tol) + float(self.lost_mass(s, xa[0]))
        return abs(lhs - float(self.lost_mass(s + t, xa[0])))

    def step(self, cursor, current, dt):
        """A Gaussian proposal accepted with probability p_dt / gauss_dt, the
        interval kernel's share of the free one, which is the probability
        that the Brownian bridge between the two points stays inside
        (``dirichlet_survival_ratio``); a rejected step is the kill, which
        writes NaN.  Only the rows alive (not NaN) draw."""
        L = self.model.base.length
        alive = np.flatnonzero(~np.isnan(current[:, 0]))
        u = cursor.uniforms_at(alive, 3)  # normal proposal, acceptance
        here = current[alive, 0]
        prop = here + math.sqrt(2.0 * dt) * box_muller(u[:, :2])[:, 0]
        inside = (prop > 0.0) & (prop < L)
        ratio = np.zeros_like(prop)
        if np.any(inside):
            ratio[inside] = dirichlet_survival_ratio(dt, here[inside], prop[inside], L, self.truncation)
        survive = u[:, 2] < ratio
        # allocated last, above the step's temporaries: freed below it, their
        # heap pages are reused, not returned to the system and faulted in again
        nxt = np.full_like(current, np.nan)
        nxt[alive[survive], 0] = prop[survive]
        return nxt


_LAWS = {
    (Euclidean, "heat"): _GaussianLaw,
    (Euclidean, "cauchy"): _CauchyLaw,
    (Hyperbolic3, "heat"): _H3Law,
    (Circle, "heat"): _CircleLaw,
    (FlatTorus, "heat"): _LatticeLaw,
    (DirichletInterval, "heat"): _DirichletLaw,
    (Compactified, "heat"): _KilledLaw,
}

# task -> (the law rule it needs, the refusal's words).  A law runs a task
# exactly when it has the rule, apart from the three refusals in ``only``.
TASKS = {
    "paths": ("step", "paths are drawn on"),
    "bridges": ("bridge_step", "bridges are drawn on"),
    "increments": ("step", "holder runs on"),  # paths that are never killed
    "oracle": ("oracle_basis", "the spectral oracle runs on"),
    "curve": ("mean_distance", "curve runs on the heat kernels of"),
    "integrated moments": ("integrated_moment", "the integrated moment check runs on"),
    "pointwise moments": ("pointwise_sup", "the pointwise moment check runs on"),
    "delta-family": ("delta_integral", "the delta-family check runs on"),
    "covering": ("covering", "the covering check runs on"),
}


def _runners(task):
    """The specs of the models whose law runs task, as a list in words."""
    specs = [law.only.get(task, (law.spec,))[0] for law in _LAWS.values() if hasattr(law, TASKS[task][0])]
    specs = [spec for spec in specs if spec is not None]
    return ", ".join(specs[:-1]) + " and " + specs[-1]


def check_task(kernel, task):
    """Refuse, as a ValueError, a kernel whose law does not run task (a key of TASKS)."""
    why = kernel._law.refusal(task)
    if why is not None:
        raise ValueError(why)


def _law_of(model, kind, truncation):
    law = _LAWS.get((type(model), kind))
    if law is None:
        raise ValueError(f"no {kind!r} kernel on {model!r}")
    return law(model, truncation)


def model_of(spec):
    """The (model, kind) of a model spec such as ``circle:1.0``, which the
    law whose ``spec`` has the same name builds from the text after the
    name; a ValueError if no law has the name or the law cannot build it."""
    name, _, rest = spec.partition(":")
    law = next((law for law in _LAWS.values() if law.spec.partition(":")[0] == name.strip().lower()), None)
    if law is None:
        raise ValueError(f"unknown model {spec!r}")
    try:
        return law.parse(rest), law.kind
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad model spec {spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# evaluation and mass


def evaluate(kernel, t, x, y):
    """Transition density p_t(x, y) between two points; either may be the
    cemetery of a compactified kernel (see _KilledLaw.value).  A value
    that is not finite is a PathkernelError naming t."""
    xa = validate_point(kernel.model, x, "x")
    ya = validate_point(kernel.model, y, "y")
    t = _check_time(t)
    # a value out of the float range is reported once, below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = kernel._law.value(t, xa, ya)
    if not math.isfinite(value):
        raise PathkernelError(f"the kernel value at t = {t!r} is {value}, out of the float range")
    return value


def total_mass(kernel, t, x, quad_tol=1e-10):
    """Mass of y -> p_t(x, y) against the volume measure; in [0, 1].

    Gaussian, Cauchy and lattice-sum kernels integrate to 1 in closed
    form.  The hyperbolic and absorbing-interval masses are computed by
    quadrature (the interval genuinely loses mass).  A compactified
    kernel is conservative by construction.
    """
    t = _check_time(t)
    return kernel._law.mass(t, validate_point(kernel.model, x, "x"), quad_tol)


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov


# Tuples are integrated CK_BLOCK at a time: one adaptive Gauss-Kronrod
# worklist per block keeps the per-call overhead small and the worklist's
# memory flat.
CK_BLOCK = 32


def chapman_kolmogorov_residuals(kernel, s, t, x, z, tol=1e-11):
    """| integral p_t(z,y) p_s(y,x) dmu(y)  -  p_(t+s)(z,x) | for each tuple
    (s[i], t[i], x[i], z[i]), as a float array.

    The interior tuples are integrated CK_BLOCK at a time in one batched
    adaptive Gauss-Kronrod worklist; each residual is bit-identical to the same
    tuple computed alone.  Rows of a compactified kernel with the
    cemetery as source or target are computed one at a time.
    """
    s = np.array([_check_time(v) for v in s])
    t = np.array([_check_time(v) for v in t])
    x, z = list(x), list(z)
    if not len(s) == len(t) == len(x) == len(z):
        raise ValueError("s, t, x and z must have the same length")
    out = np.zeros(len(s))
    law = kernel._law
    rows, xs, zs = [], [], []
    for i in range(len(s)):
        xa = validate_point(kernel.model, x[i], "x")
        za = validate_point(kernel.model, z[i], "z")
        if xa is None or za is None:
            out[i] = law.ck_cemetery_residual(float(s[i]), float(t[i]), xa, za, tol)
        else:
            rows.append(i)
            xs.append(xa)
            zs.append(za)
    for start in range(0, len(rows), CK_BLOCK):
        block = np.array(rows[start:start + CK_BLOCK])
        xa = np.array(xs[start:start + CK_BLOCK])
        za = np.array(zs[start:start + CK_BLOCK])
        lhs = law.ck_integral(s[block], t[block], xa, za, tol)
        out[block] = np.abs(lhs - law.density(s[block] + t[block], za, xa, np.arange(len(block))))
    return out


# ---------------------------------------------------------------------------
# moment conditions


@dataclass(frozen=True)
class MomentCheckConfig:
    a: float
    b: float
    tau_grid: tuple
    mode: str = "integrated"
    quad_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", tuple(float(v) for v in self.tau_grid))
        if self.mode not in ("integrated", "pointwise"):
            raise ValueError("mode must be 'integrated' or 'pointwise'")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")
        if any(tau <= 0 for tau in self.tau_grid):
            raise ValueError("tau grid must be positive")


@dataclass
class MomentReport:
    mode: str
    a: float
    b: float
    taus: list
    ratios: list
    divergent: list
    worst_constant: float

    @property
    def any_divergent(self):
        return any(self.divergent)


def moment_check(kernel, cfg):
    """Short-time moment ratios against tau^(1+b); see MomentCheckConfig.

    For the noncompact models the integrated ratios are reported as
    observed, without asserting any regime beyond the tested grid.
    Divergent integrals (Cauchy with a >= 1) are flagged per tau.
    """
    check_task(kernel, f"{cfg.mode} moments")
    law = kernel._law
    ratios, divergent = [], []
    for tau in cfg.tau_grid:
        try:
            if cfg.mode == "integrated":
                val = law.integrated_moment(cfg.a, tau, cfg.quad_tol)
            else:
                val = law.pointwise_sup(cfg.a, tau)
            ratios.append(val / tau ** (1.0 + cfg.b))
            divergent.append(False)
        except DivergentIntegralError:
            ratios.append(float("nan"))
            divergent.append(True)
        except (OverflowError, ZeroDivisionError):  # tau ** (1 + b) out of the float range
            raise PathkernelError(
                f"the moment ratio at tau = {tau!r}, b = {cfg.b!r} is out of the float range") from None
    finite = [r for r in ratios if math.isfinite(r)]
    worst = max(finite) if finite else float("nan")
    return MomentReport(
        mode=cfg.mode,
        a=cfg.a,
        b=cfg.b,
        taus=list(cfg.tau_grid),
        ratios=ratios,
        divergent=divergent,
        worst_constant=worst,
    )


# ---------------------------------------------------------------------------
# delta family


def delta_family_residuals(kernel, y, t_seq, width=None, quad_tol=1e-10):
    """|integral u(z) p_t(z, y) dmu(z) - u(y)| for a fixed bump u, per t."""
    ya = validate_point(kernel.model, y, "y")
    check_task(kernel, "delta-family")
    return [abs(kernel._law.delta_integral(_check_time(t), ya, width, quad_tol) - 1.0) for t in t_seq]
