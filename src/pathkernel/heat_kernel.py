"""Substochastic transition densities and their numeric verification.

Closed forms:

* Euclidean(n):  (4 pi t)^(-n/2) exp(-rho^2 / 4t)  -- semigroup convention
  e^(t*Laplacian), i.e. per-coordinate variance 2t.
* Hyperbolic3:   e^(-t) (4 pi t)^(-3/2) (rho/sinh rho) exp(-rho^2 / 4t).
* Circle / FlatTorus:  lattice sum of Gaussian images, truncated by the
  policy's tail tolerance (per-coordinate factorization for rectangular
  tori).
* DirichletInterval:  alternating reflection sum for small times, sine
  eigen-series for large times, switched at t = L^2/pi^2 where both
  representations agree to machine tail.
* Cauchy (Euclidean(1) only):  t / (pi (t^2 + dx^2)).

Masses integrate to 1 for the complete models and fall short for the
absorbing interval; the compactified wrapper books the missing mass on
a cemetery state so the total is exactly 1 again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentIntegralError, PathkernelError
from .manifold import (
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    Point,
    distance_arrays,
    model_dim,
    periods_of,
    validate_point,
)
from .quadrature import (
    adaptive_simpson,
    adaptive_simpson_batch,
    gaussian_tail_radius,
    integrate_with_expansion,
    maximize_scalar,
)


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls lattice-sum and eigen-series truncation."""

    tail_tolerance: float = 1e-12
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if not 0.0 < self.tail_tolerance < 1.0:
            raise ValueError("tail_tolerance must lie in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


@dataclass(frozen=True)
class TransitionKernel:
    """An evaluable transition density on one model space."""

    model: object
    kind: str = "heat"
    truncation: TruncationPolicy = field(default_factory=TruncationPolicy)

    def __post_init__(self):
        if self.kind not in ("heat", "cauchy"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "cauchy" and self.model != Euclidean(1):
            raise ValueError("the Cauchy kernel is defined on Euclidean(1) only")


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
        return (4.0 * np.pi * t) ** (-0.5 * n)
    except OverflowError:
        raise PathkernelError(
            f"the kernel prefactor (4 pi t)^(-{0.5 * n:g}) overflows at t = {t!r}; t is too small"
        ) from None


def _h3_norm(t):
    return math.exp(-t) * _gauss_norm(t, 3)


def gauss_profile(t, rho2, n, owner=None):
    pref = _per_owner(_gauss_norm, t, owner, n)
    return pref * np.exp(-np.asarray(rho2) / (4.0 * _gather(t, owner)))


def h3_profile(t, rho, owner=None):
    rho = np.asarray(rho, dtype=np.float64)
    small = rho < 1e-6
    safe = np.where(small, 1.0, rho)
    ratio = np.where(small, 1.0 - rho * rho / 6.0, safe / np.sinh(safe))
    pref = _per_owner(_h3_norm, t, owner)
    return pref * ratio * np.exp(-rho * rho / (4.0 * _gather(t, owner)))


def cauchy_profile(t, dx):
    dx = np.asarray(dx, dtype=np.float64)
    return t / (np.pi * (t * t + dx * dx))


def _image_range(t, span, period, policy):
    """Number of one-sided images needed so the omitted Gaussian tail < tolerance."""
    return image_count(gaussian_tail_radius(t, policy.tail_tolerance * 1e-3) + span, period, policy)


def image_count(radius, period, policy):
    """One-sided count of period translates covering radius, within policy.max_terms."""
    reach = radius / period
    if not reach < policy.max_terms:  # an infinite radius too
        raise PathkernelError(f"a lattice sum over radius {radius:.3g} needs over {policy.max_terms} terms")
    kmax = int(math.ceil(reach)) + 1
    if 2 * kmax + 1 > policy.max_terms:
        raise PathkernelError(
            f"lattice sum needs {2 * kmax + 1} terms, over the budget of {policy.max_terms}"
        )
    return kmax


def _gauss_images(t, diff, shifts, owner):
    """sum_k of the 1-d Gaussian at diff + shifts[k], per point."""
    z = diff[..., None] + shifts
    return np.sum(gauss_profile(t, z * z, 1, None if owner is None else owner[:, None]), axis=-1)


def circle_theta_arrays(t, dx, length, policy, owner=None):
    """Heat kernel on a circle as a sum of Gaussian images of the difference dx.

    The image count covers the largest |dx| among the points (per owner)."""
    dx = np.asarray(dx, dtype=np.float64)
    if owner is None:
        kmax = _image_range(t, float(np.max(np.abs(dx))) if dx.size else 0.0, length, policy)
    else:
        spans = np.zeros(len(t))
        np.maximum.at(spans, owner, np.abs(dx))
        kmax = [_image_range(v, w, length, policy) for v, w in zip(np.asarray(t).tolist(), spans.tolist())]
    return _by_key(kmax, owner, lambda sel, own, k: _gauss_images(
        t, dx[sel], np.arange(-k, k + 1, dtype=np.float64) * length, own))


def dirichlet_images_arrays(t, x, y, length, policy, owner=None):
    """Absorbing-interval kernel as the alternating reflection-image sum
    (the group generated by reflections at 0 and L)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    L = float(length)

    def images(sel, own, kmax):
        ks = np.arange(-kmax, kmax + 1, dtype=np.float64) * (2.0 * L)
        direct = _gauss_images(t, x[sel] - y[sel], ks, own)
        mirror = _gauss_images(t, x[sel] + y[sel], ks, own)
        return np.maximum(direct - mirror, 0.0)

    return _by_key(_each(_image_range, t, owner, L, 2.0 * L, policy), owner, images)


def _eigen_terms(t, L, policy):
    lam1 = (math.pi / L) ** 2
    m_max = 1
    while math.exp(-lam1 * m_max * m_max * t) > policy.tail_tolerance * 1e-3 * L / 2.0:
        m_max += 1
        if 2 * m_max > policy.max_terms:
            raise PathkernelError("eigen-series truncation budget exceeded")
    return m_max


def _eigen_weights(t, L, m_max):
    lam1 = (math.pi / L) ** 2
    ms = np.arange(1, m_max + 1, dtype=np.float64)
    return np.exp(-lam1 * ms * ms * t) * (2.0 / L)


def dirichlet_series_arrays(t, x, y, length, policy, owner=None):
    """Absorbing-interval kernel as the sine eigen-series."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    L = float(length)

    def series(sel, own, m_max):
        ms = np.arange(1, m_max + 1, dtype=np.float64)
        w = _per_owner(_eigen_weights, t, own, L, m_max)
        s_x = np.sin(np.pi * ms * x[sel][..., None] / L)
        s_y = np.sin(np.pi * ms * y[sel][..., None] / L)
        return np.maximum(np.sum(w * s_x * s_y, axis=-1), 0.0)

    return _by_key(_each(_eigen_terms, t, owner, L, policy), owner, series)


def dirichlet_kernel_arrays(t, x, y, length, policy, owner=None):
    """Reflection images below the switch time t = L^2/pi^2, eigen-series
    above; each representation converges fast in its regime and they
    agree to machine tail at the switch."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    switch = float(length) ** 2 / math.pi ** 2

    def regime(sel, own, images):
        form = dirichlet_images_arrays if images else dirichlet_series_arrays
        return form(t, x[sel], y[sel], length, policy, own)

    return _by_key(_each(lambda v: v < switch, t, owner), owner, regime)


def evaluate_arrays(kernel, t, x, y):
    """Kernel density on coordinate arrays of shape (..., dim); broadcasts."""
    t = _check_time(t)
    model = kernel.model
    if isinstance(model, Compactified):
        model = model.base
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if kernel.kind == "cauchy":
        return cauchy_profile(t, x[..., 0] - y[..., 0])
    if isinstance(model, Euclidean):
        return gauss_profile(t, np.sum((x - y) ** 2, axis=-1), model.dim)
    if isinstance(model, Hyperbolic3):
        return h3_profile(t, distance_arrays(model, x, y))
    if isinstance(model, (Circle, FlatTorus)):
        out = 1.0
        for i, L in enumerate(periods_of(model)):
            out = out * circle_theta_arrays(t, x[..., i] - y[..., i], L, kernel.truncation)
        return out
    if isinstance(model, DirichletInterval):
        return dirichlet_kernel_arrays(t, x[..., 0], y[..., 0], model.length, kernel.truncation)
    raise TypeError(f"no kernel for model {model!r}")


def evaluate(kernel, t, x, y):
    """Transition density p_t(x, y) between two points.

    Cemetery rows of a compactified kernel live in eval_compactified.
    """
    xa = validate_point(kernel.model, x, "x")
    ya = validate_point(kernel.model, y, "y")
    if xa is None or ya is None:
        raise ValueError("evaluate does not accept the cemetery; use eval_compactified")
    return float(evaluate_arrays(kernel, t, xa, ya))


def base_kernel(kernel):
    """The interior kernel under a compactified model."""
    if not isinstance(kernel.model, Compactified):
        raise ValueError("base_kernel expects a kernel over a Compactified model")
    return TransitionKernel(kernel.model.base, kind=kernel.kind, truncation=kernel.truncation)


def eval_compactified(kernel, t, x, y):
    """The compactified density: interior kernel extended by the cemetery rows.

    Cases (x is the target slot, y the source): interior-interior is the
    base kernel; x cemetery books the mass the source loses by time t;
    the cemetery never returns; cemetery-to-cemetery has weight 1.
    """
    if not isinstance(kernel.model, Compactified):
        raise ValueError("eval_compactified expects a Compactified model")
    t = _check_time(t)
    if not isinstance(x, Point) or not isinstance(y, Point):
        raise TypeError("x and y must be Points")
    if x.cemetery and y.cemetery:
        return 1.0
    inner = base_kernel(kernel)
    if x.cemetery:
        validate_point(inner.model, y, "y")
        return 1.0 - total_mass(inner, t, y)
    if y.cemetery:
        validate_point(inner.model, x, "x")
        return 0.0
    return evaluate(inner, t, x, y)


# ---------------------------------------------------------------------------
# mass


def h3_radial_mass(t, tol=1e-10, tail=1e-14):
    """Radial quadrature of the hyperbolic kernel's total mass."""
    rmax = 4.0 * t + gaussian_tail_radius(t, tail) + 5.0
    pref = 4.0 * np.pi * math.exp(-t) * _gauss_norm(t, 3)

    def f(r):
        # sinh^2(r) * p_t(r) with the r/sinh(r) factor cancelled once
        return pref * r * np.sinh(r) * np.exp(-r * r / (4.0 * t))

    return adaptive_simpson(f, 0.0, rmax, tol=tol)


def total_mass(kernel, t, x, quad_tol=1e-10):
    """Mass of y -> p_t(x, y) against the volume measure; in [0, 1].

    Gaussian, Cauchy and lattice-sum kernels integrate to 1 in closed
    form.  The hyperbolic and absorbing-interval masses are computed by
    quadrature (the interval genuinely loses mass).  A compactified
    kernel is conservative by construction.
    """
    t = _check_time(t)
    model = kernel.model
    if isinstance(model, Compactified):
        if isinstance(x, Point) and x.cemetery:
            return 1.0
        validate_point(model.base, x, "x")
        return 1.0
    xa = validate_point(model, x, "x")
    if kernel.kind == "cauchy":
        return 1.0
    if isinstance(model, (Euclidean, Circle, FlatTorus)):
        return 1.0
    if isinstance(model, Hyperbolic3):
        return h3_radial_mass(t, tol=quad_tol)
    if isinstance(model, DirichletInterval):
        L = model.length

        def f(y):
            return dirichlet_kernel_arrays(t, np.broadcast_to(xa[0], y.shape), y, L, kernel.truncation)

        return adaptive_simpson(f, 0.0, L, tol=quad_tol)
    raise TypeError(f"no mass rule for model {model!r}")


def dirichlet_mass_arrays(t, x, length, tol=1e-16):
    """Sine-series survival mass of the absorbing interval, vectorized in x."""
    L = float(length)
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros_like(x)
    m = 1
    while True:
        lam = (m * math.pi / L) ** 2
        weight = math.exp(-lam * t)
        total = total + (2.0 / L) * weight * np.sin(m * math.pi * x / L) * (L / (m * math.pi)) * (
            1.0 - math.cos(m * math.pi)
        )
        if weight < tol and m > 4:
            return total
        m += 1


def dirichlet_mass_series(length, t, x, tol=1e-16):
    """Scalar sine-series survival mass for the absorbing interval."""
    return float(dirichlet_mass_arrays(t, np.asarray(float(x)), length, tol=tol))


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov


# Tuples are integrated CK_BLOCK at a time: one adaptive-Simpson worklist
# per block keeps the per-call overhead small and the worklist's memory flat.
CK_BLOCK = 32


def _ck_euclidean(s, t, xa, za, tol):
    # the flat kernel factorizes: one line integral per coordinate, each
    # tail-cut at pad beyond its two points
    pad = np.array([gaussian_tail_radius(max(u, v), tol * 1e-2) + 1.0
                    for u, v in zip(s.tolist(), t.tolist())])
    lhs = np.ones(len(s))
    for x, z in zip(xa.T, za.T):

        def f(y, o):
            return gauss_profile(t, (z[o] - y) ** 2, 1, o) * gauss_profile(s, (y - x[o]) ** 2, 1, o)

        lhs *= adaptive_simpson_batch(f, np.minimum(x, z) - pad, np.maximum(x, z) + pad, tol=tol)
    rhs = gauss_profile(s + t, np.sum((za - xa) ** 2, axis=-1), xa.shape[1], np.arange(len(s)))
    return lhs, rhs


def _ck_cauchy(s, t, x, z, tol):
    # compactify the real line; the substituted integrand vanishes at the ends
    def f(theta, o):
        y = np.tan(theta)
        sec2 = 1.0 + y * y
        return cauchy_profile(t[o], z[o] - y) * cauchy_profile(s[o], y - x[o]) * sec2

    eps = 1e-9
    k = len(s)
    lhs = adaptive_simpson_batch(f, np.full(k, -np.pi / 2 + eps), np.full(k, np.pi / 2 - eps), tol=tol)
    return lhs, cauchy_profile(s + t, z - x)


def _ck_periodic(kernel, s, t, xa, za, tol):
    tr = kernel.truncation
    k = len(s)
    lhs = np.ones(k)
    rhs = 1.0
    for L, x, z in zip(periods_of(kernel.model), xa.T, za.T):

        def f(y, o):
            return circle_theta_arrays(t, z[o] - y, L, tr, o) * circle_theta_arrays(s, y - x[o], L, tr, o)

        lhs *= adaptive_simpson_batch(f, np.zeros(k), np.full(k, L), tol=tol)
        rhs = rhs * circle_theta_arrays(s + t, z - x, L, tr, np.arange(k))
    return lhs, rhs


def _ck_h3(s, t, d, tol):
    """Radial form after integrating out the sphere directions exactly.

    In geodesic polar coordinates around the source, the angular average
    of the second factor reduces by the hyperbolic law of cosines to a
    difference of two Gaussian terms; what remains is one smooth radial
    integral.  A target within 1e-8 of the source keeps the kernel itself.
    """
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
    lhs = adaptive_simpson_batch(f, np.zeros(len(s)), rmax, tol=tol)
    return lhs, h3_profile(s + t, d, np.arange(len(s)))


def _ck_dirichlet(kernel, s, t, x, z, tol):
    L = kernel.model.length
    tr = kernel.truncation

    def f(y, o):
        return dirichlet_kernel_arrays(t, z[o], y, L, tr, o) * dirichlet_kernel_arrays(s, y, x[o], L, tr, o)

    k = len(s)
    lhs = adaptive_simpson_batch(f, np.zeros(k), np.full(k, L), tol=tol)
    return lhs, dirichlet_kernel_arrays(s + t, z, x, L, tr, np.arange(k))


def _ck_block(kernel, s, t, xa, za, tol):
    """(lhs, rhs) arrays for a block of interior tuples."""
    model = kernel.model
    if kernel.kind == "cauchy":
        return _ck_cauchy(s, t, xa[:, 0], za[:, 0], tol)
    if isinstance(model, Euclidean):
        return _ck_euclidean(s, t, xa, za, tol)
    if isinstance(model, (Circle, FlatTorus)):
        return _ck_periodic(kernel, s, t, xa, za, tol)
    if isinstance(model, Hyperbolic3):
        return _ck_h3(s, t, distance_arrays(model, xa, za), tol)
    if isinstance(model, DirichletInterval):
        return _ck_dirichlet(kernel, s, t, xa[:, 0], za[:, 0], tol)
    raise TypeError(f"no Chapman-Kolmogorov rule for {model!r}")


def _ck_cemetery(kernel, s, t, x, z, xa, za, tol):
    """The compactified rows with the cemetery as source or target."""
    if xa is None and za is None:
        return 0.0  # cemetery row: 1 on both sides
    if xa is None:  # source at the cemetery never returns
        return abs(eval_compactified(kernel, s + t, z, x))
    # target cemetery: deficit accumulates along the flow
    L = kernel.model.base.length

    def f(y):
        y = np.atleast_1d(y)
        return (1.0 - dirichlet_mass_arrays(t, y, L)) * dirichlet_kernel_arrays(
            s, y, np.broadcast_to(xa[0], y.shape), L, kernel.truncation
        )

    lhs = adaptive_simpson(f, 0.0, L, tol=tol) + (
        1.0 - float(dirichlet_mass_arrays(s, np.asarray(xa[0]), L))
    )
    rhs = 1.0 - float(dirichlet_mass_arrays(s + t, np.asarray(xa[0]), L))
    return abs(lhs - rhs)


def chapman_kolmogorov_residuals(kernel, s, t, x, z, tol=1e-11):
    """| integral p_t(z,y) p_s(y,x) dmu(y)  -  p_(t+s)(z,x) | for each tuple
    (s[i], t[i], x[i], z[i]), as a float array.

    The interior tuples are integrated CK_BLOCK at a time in one batched
    adaptive-Simpson worklist; each residual is bit-identical to the same
    tuple computed alone.  Rows of a compactified kernel with the
    cemetery as source or target are computed one at a time.
    """
    s = np.array([_check_time(v) for v in s])
    t = np.array([_check_time(v) for v in t])
    x, z = list(x), list(z)
    if not len(s) == len(t) == len(x) == len(z):
        raise ValueError("s, t, x and z must have the same length")
    out = np.zeros(len(s))
    model = kernel.model
    inner = base_kernel(kernel) if isinstance(model, Compactified) else kernel
    rows, xs, zs = [], [], []
    for i in range(len(s)):
        xa = validate_point(model, x[i], "x")
        za = validate_point(model, z[i], "z")
        if xa is None or za is None:
            out[i] = _ck_cemetery(kernel, float(s[i]), float(t[i]), x[i], z[i], xa, za, tol)
        else:
            rows.append(i)
            xs.append(xa)
            zs.append(za)
    for start in range(0, len(rows), CK_BLOCK):
        block = np.array(rows[start:start + CK_BLOCK])
        xa = np.array(xs[start:start + CK_BLOCK])
        za = np.array(zs[start:start + CK_BLOCK])
        lhs, rhs = _ck_block(inner, s[block], t[block], xa, za, tol)
        out[block] = np.abs(lhs - rhs)
    return out


def chapman_kolmogorov_residual(kernel, s, t, x, z, tol=1e-11):
    """| integral p_t(z,y) p_s(y,x) dmu(y)  -  p_(t+s)(z,x) |; the one-tuple
    call of chapman_kolmogorov_residuals."""
    return float(chapman_kolmogorov_residuals(kernel, [s], [t], [x], [z], tol)[0])


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


def _sphere_volume(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _integrated_moment(kernel, a, tau, tol):
    model = kernel.model
    if kernel.kind == "cauchy":
        def f(r):
            return 2.0 * r ** a * cauchy_profile(tau, r)

        return integrate_with_expansion(f, r0=max(10.0 * tau, 1.0), tol=tol)
    if isinstance(model, Euclidean):
        n = model.dim
        p = a + n - 1.0

        def g(u):
            return np.where(u > 0.0, u ** p * np.exp(-u * u), 0.0)

        j = adaptive_simpson(g, 0.0, math.sqrt(p / 2.0 if p > 0 else 1.0) + 12.0, tol=1e-13)
        return _sphere_volume(n) * math.pi ** (-n / 2.0) * (4.0 * tau) ** (a / 2.0) * j
    if isinstance(model, Hyperbolic3):
        rmax = 4.0 * tau + gaussian_tail_radius(tau, 1e-16) + 3.0
        c = _h3_norm(tau)

        def f(r):
            return 4.0 * np.pi * c * r ** (a + 1.0) * np.sinh(r) * np.exp(-r * r / (4.0 * tau))

        return adaptive_simpson(f, 0.0, rmax, tol=tol)
    if isinstance(model, Circle):
        L = model.circumference

        def f(d):
            rho = np.minimum(d, L - d)
            return rho ** a * circle_theta_arrays(tau, d, L, kernel.truncation)

        return adaptive_simpson(f, 0.0, L / 2.0, tol=tol / 2) + adaptive_simpson(
            f, L / 2.0, L, tol=tol / 2
        )
    if isinstance(model, DirichletInterval):
        L = model.length
        y0 = L / 2.0

        def f(z):
            return np.abs(z - y0) ** a * dirichlet_kernel_arrays(
                tau, z, np.broadcast_to(y0, z.shape), L, kernel.truncation
            )

        return adaptive_simpson(f, 0.0, L, tol=tol)
    raise TypeError(f"integrated moment not implemented for {model!r}")


def _pointwise_sup(kernel, a, tau):
    model = kernel.model
    if kernel.kind == "cauchy":
        # r^a / (t^2 + r^2) is unbounded for a >= 2
        if a >= 2.0:
            raise DivergentIntegralError("pointwise Cauchy moment is unbounded for a >= 2")

        def f(r):
            return r ** a * cauchy_profile(tau, r)

        _, val = maximize_scalar(f, 0.0, 1e6)
        return val
    if isinstance(model, Euclidean):
        n = model.dim

        def f(r):
            return r ** a * gauss_profile(tau, r * r, n)

        rmax = math.sqrt(2.0 * a * tau) * 4.0 + 1.0
        _, val = maximize_scalar(f, 0.0, rmax)
        return val
    if isinstance(model, Hyperbolic3):

        def f(r):
            return r ** a * h3_profile(tau, r)

        rmax = math.sqrt(2.0 * a * tau) * 4.0 + 4.0 * tau + 1.0
        _, val = maximize_scalar(f, 0.0, rmax)
        return val
    if isinstance(model, Circle):
        L = model.circumference

        def f(d):
            return d ** a * circle_theta_arrays(tau, d, L, kernel.truncation)

        _, val = maximize_scalar(f, 0.0, L / 2.0)
        return val
    raise TypeError(f"pointwise moment not implemented for {model!r}")


def moment_check(kernel, cfg):
    """Short-time moment ratios against tau^(1+b); see MomentCheckConfig.

    For the noncompact models the integrated ratios are reported as
    observed, without asserting any regime beyond the tested grid.
    Divergent integrals (Cauchy with a >= 1) are flagged per tau.
    """
    ratios, divergent = [], []
    for tau in cfg.tau_grid:
        try:
            if cfg.mode == "integrated":
                val = _integrated_moment(kernel, cfg.a, tau, cfg.quad_tol)
            else:
                val = _pointwise_sup(kernel, cfg.a, tau)
            ratios.append(val / tau ** (1.0 + cfg.b))
            divergent.append(False)
        except DivergentIntegralError:
            ratios.append(float("nan"))
            divergent.append(True)
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


def delta_family_residuals(kernel, y, t_seq, width=None, quad_tol=1e-10):
    """|integral u(z) p_t(z, y) dmu(z) - u(y)| for a fixed bump u, per t."""
    model = kernel.model
    ya = validate_point(model, y, "y")
    res = []
    for t in t_seq:
        t = _check_time(t)
        if kernel.kind == "cauchy" or isinstance(model, Euclidean):
            if model_dim(model) != 1:
                raise TypeError("delta-family check supports 1-d flat models and H3")
            w = width or 1.0
            u = smooth_bump(w)

            def f(z):
                return u(z - ya[0]) * evaluate_arrays(kernel, t, z[..., None], ya[None, :])

            val = adaptive_simpson(f, ya[0] - w, ya[0] + w, tol=quad_tol)
        elif isinstance(model, Circle):
            # integrate a bump-width window centered on y so the kernel spike
            # sits at the first Simpson midpoint; the theta sum takes any
            # real difference, and the window covers the support once
            L = model.circumference
            w = width or 0.4 * L
            if w >= L / 2.0:
                raise ValueError("bump width must stay below half the circumference")
            u = smooth_bump(w)

            def f(z):
                return u(z - ya[0]) * circle_theta_arrays(t, z - ya[0], L, kernel.truncation)

            val = adaptive_simpson(f, ya[0] - w, ya[0] + w, tol=quad_tol)
        elif isinstance(model, Hyperbolic3):
            w = width or 1.0
            u = smooth_bump(w)

            def f(r):
                return 4.0 * np.pi * u(r) * np.sinh(r) ** 2 * h3_profile(t, r)

            val = adaptive_simpson(f, 0.0, w, tol=quad_tol)
        elif isinstance(model, DirichletInterval):
            L = model.length
            w = width or min(ya[0], L - ya[0]) * 0.9
            u = smooth_bump(w)

            def f(z):
                return u(z - ya[0]) * dirichlet_kernel_arrays(
                    t, z, np.broadcast_to(ya[0], z.shape), L, kernel.truncation
                )

            val = adaptive_simpson(f, max(0.0, ya[0] - w), min(L, ya[0] + w), tol=quad_tol)
        else:
            raise TypeError(f"delta-family check not implemented for {model!r}")
        res.append(abs(val - 1.0))
    return res
