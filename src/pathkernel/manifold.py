"""Model spaces: points, distances, exponential map, covering projections.

Supported spaces are flat Euclidean space, hyperbolic 3-space in the
hyperboloid model, rectangular flat tori and circles (half-open
fundamental box), the open interval with absorbing endpoints, and a
one-point compactification wrapper that adds a cemetery state for the
mass lost by an absorbing space.

Each model class carries its own geometry: ``dim`` (chart coordinates per
point), ``check_coords(x, name)`` (ValueError for finite coordinates off
the model), ``distance_arrays(x, y)`` on (..., dim) arrays, and the command
line's ``default_point()`` and ``random_interior(cursor)``.  A new model
supplies these and a law in ``heat_kernel``; ``Compactified`` delegates
them to its base.

``random_interior(cursor)`` draws one interior point per row of an
``rng.StreamCursor`` from that row's substream, in a fixed number of
uniform slots: N(0, I) on Euclidean(n) (n normals, 2n slots); on
Hyperbolic3 a uniform direction (slots 0-1) at a radius from U(0.1, 1.5)
(slot 2); U[0, L_i) per circle or torus coordinate and U(0.1 L, 0.9 L) on
the interval, one slot each.

Everything here is pure and operates on immutable values, so models and
points can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import cos_sin_2pi, wrap

HYPERBOLOID_TOL = 1e-12


def _finite_positive(value, what):
    v = float(value)
    if not 0.0 < v < math.inf:  # NaN fails too
        raise ValueError(f"{what} must be a finite positive real, got {value!r}")
    return v


@dataclass(frozen=True)
class Euclidean:
    dim: int

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("Euclidean dimension must be >= 1")

    def check_coords(self, x, name):
        """Every finite point lies in Euclidean space."""

    def distance_arrays(self, x, y):
        return np.sqrt(np.sum((x - y) ** 2, axis=-1))

    def default_point(self):
        return Point(tuple(0.0 for _ in range(self.dim)))

    def random_interior(self, cursor):
        return _points(cursor.normals(self.dim))


@dataclass(frozen=True)
class Hyperbolic3:
    dim = 4  # hyperboloid coordinates (x0, x1, x2, x3); not a field

    def check_coords(self, x, name):
        # |q - 1| <= tol (1 + |x|^2), q the Minkowski square: the absolute
        # residual grows like eps x0^2 for far points.  Both sides are divided
        # by s^2, s >= 1 the power of two at the largest coordinate: exact, so
        # far points no longer overflow and the others keep their verdict
        e = max(math.frexp(float(np.max(np.abs(x))))[1], 0)
        y = np.ldexp(x, -e)
        inv = math.ldexp(1.0, -2 * e)
        q = y[0] * y[0] - y[1] * y[1] - y[2] * y[2] - y[3] * y[3]
        scale = inv + float(np.dot(y, y))
        if abs(q - inv) > HYPERBOLOID_TOL * scale or x[0] < 1.0 - HYPERBOLOID_TOL:
            raise ValueError(f"{name} is off the hyperboloid (relative residual {(q - inv) / scale:.3e})")

    def distance_arrays(self, x, y):
        """Geodesic distance on the hyperboloid, stable near and far.

        cosh(rho) - 1 = (|dx|^2 - dx0^2) / 2 avoids the cancellation of the
        Minkowski pairing x0 y0 - x.y when the points are close, but itself
        cancels once |dx|^2 ~ dx0^2 is large.  Each pair takes the form with
        the smaller rounding bound (about eps dx0^2 against eps x0 y0): the
        difference form where dx0^2 <= x0 y0, arccosh of the pairing elsewhere.
        Both are written per coordinate, with their sums in the fixed order
        x1 y1 + x2 y2 + x3 y3 and e1^2 + e2^2 + e3^2 (e = x - y), each left to
        right.  Both overflow for points some 300 or more from the origin,
        whose distance is finite; only those pairs are measured again in
        scaled form.
        """
        x0, x1, x2, x3 = (x[..., k] for k in range(4))
        y0, y1, y2, y3 = (y[..., k] for k in range(4))
        # the squares may overflow for far points, which take the pairing form
        with np.errstate(over="ignore", invalid="ignore"):
            pair = x0 * y0
            dx0sq = (x0 - y0) ** 2
            e1, e2, e3 = x1 - y1, x2 - y2, x3 - y3
            delta = 0.5 * ((e1 * e1 + e2 * e2 + e3 * e3) - dx0sq)
            far = dx0sq > pair
            delta = np.where(far, 0.0, np.maximum(delta, 0.0))
            near_rho = np.log1p(delta + np.sqrt(delta * (2.0 + delta)))
            cosh_rho = pair - (x1 * y1 + x2 * y2 + x3 * y3)
            rho = np.where(far, np.arccosh(np.maximum(cosh_rho, 1.0)), near_rho)
        bad = ~np.isfinite(rho)
        if np.any(bad):
            x, y = np.broadcast_arrays(x, y)
            huge = np.array(bad)
            huge[bad] = np.all(np.isfinite(x[bad] - y[bad]), axis=-1)
            rho[huge] = _scaled_h3_distance(x[huge], y[huge])
        return rho

    def default_point(self):
        return Point((1.0, 0.0, 0.0, 0.0))

    def random_interior(self, cursor):
        u = cursor.uniforms(3)
        origin = self.default_point().array()
        return _points(exp_point_arrays(origin, sphere_directions(u[:, :2]), 0.1 + 1.4 * u[:, 2]))


class _Periodic:
    """Geometry of a flat quotient by the lattice of its ``periods``, in the
    half-open fundamental box [0, L_i)."""

    def check_coords(self, x, name):
        per = np.asarray(self.periods)
        if np.any(x < 0.0) or np.any(x >= per):
            raise ValueError(f"{name} must lie in the fundamental box [0, L_i)")

    def distance_arrays(self, x, y):
        return np.sqrt(np.sum(_wrap_abs(x - y, np.asarray(self.periods)) ** 2, axis=-1))

    def default_point(self):
        return Point(tuple(0.0 for _ in range(self.dim)))

    def random_interior(self, cursor):
        per = np.asarray(self.periods)
        # a uniform may be exactly 1.0; its point L is 0 in the box [0, L)
        return _points(np.mod(cursor.uniforms(self.dim) * per, per))


@dataclass(frozen=True)
class FlatTorus(_Periodic):
    periods: tuple

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))
        if len(self.periods) < 1:
            raise ValueError("torus periods must be a nonempty tuple of positive reals")
        for p in self.periods:
            _finite_positive(p, "torus period")

    @property
    def dim(self):
        return len(self.periods)


@dataclass(frozen=True)
class Circle(_Periodic):
    circumference: float
    dim = 1  # not a field

    def __post_init__(self):
        _finite_positive(self.circumference, "circumference")

    @property
    def periods(self):
        return (float(self.circumference),)


@dataclass(frozen=True)
class DirichletInterval:
    length: float
    dim = 1  # not a field

    def __post_init__(self):
        L = _finite_positive(self.length, "interval length")
        # the kernel needs L^2 (its switch time) and (pi/L)^2 (its first eigenvalue)
        if not (math.isfinite(L * L) and math.isfinite((math.pi / L) * (math.pi / L))):
            raise ValueError(f"interval length {self.length!r} is too extreme: L^2 or (pi/L)^2 overflows")

    def check_coords(self, x, name):
        if not (0.0 < x[0] < self.length):
            raise ValueError(f"{name} must lie in the open interval (0, {self.length})")

    def distance_arrays(self, x, y):
        return np.abs(x[..., 0] - y[..., 0])

    def default_point(self):
        return Point((self.length / 2.0,))

    def random_interior(self, cursor):
        return _points((0.1 + 0.8 * cursor.uniforms(1)) * self.length)


@dataclass(frozen=True)
class Compactified:
    """One-point compactification of a mass-losing base space; its
    interior geometry is the base's."""

    base: object

    def __post_init__(self):
        if not isinstance(self.base, DirichletInterval):
            raise ValueError("Compactified wraps a substochastic base (DirichletInterval)")

    @property
    def dim(self):
        return self.base.dim

    def check_coords(self, x, name):
        self.base.check_coords(x, name)

    def distance_arrays(self, x, y):
        return self.base.distance_arrays(x, y)

    def default_point(self):
        return self.base.default_point()

    def random_interior(self, cursor):
        return self.base.random_interior(cursor)


@dataclass(frozen=True)
class Point:
    """Chart coordinates plus a cemetery flag.

    The cemetery point carries no coordinates; it only exists on
    Compactified models.
    """

    coords: tuple = field(default=())
    cemetery: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if self.cemetery and self.coords:
            raise ValueError("cemetery point carries no coordinates")

    def array(self):
        return np.asarray(self.coords, dtype=np.float64)


CEMETERY = Point(coords=(), cemetery=True)


def point(*coords):
    return Point(coords=tuple(coords))


def _points(rows):
    """One Point per row of a (n, dim) coordinate array."""
    return [Point(tuple(row)) for row in rows.tolist()]


def validate_point(model, p, name="point"):
    """Check a point against its model's invariants; returns its coords
    array, or None for the cemetery of a compactified model."""
    if not isinstance(p, Point):
        raise TypeError(f"{name} must be a Point")
    if p.cemetery:
        if not isinstance(model, Compactified):
            raise ValueError(f"{name} is the cemetery but the model is not compactified")
        return None
    x = p.array()
    d = model.dim
    if x.shape != (d,):
        raise ValueError(f"{name} has {x.shape[0] if x.ndim == 1 else '?'} coordinates, expected {d}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite coordinates")
    model.check_coords(x, name)
    return x


# ---------------------------------------------------------------------------
# distances


def _wrap_abs(diff, per):
    """Componentwise distance to the nearest lattice translate."""
    r = np.abs(np.mod(diff, per))
    return np.minimum(r, per - r)


def distance_arrays(model, x, y):
    """Distance on coordinate arrays of shape (..., dim); broadcasts."""
    return model.distance_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


# ---------------------------------------------------------------------------
# hyperboloid exponential map


def _scaled_h3_distance(x, y):
    """Distance of hyperboloid pairs (rows) whose unscaled forms overflow.

    With s the largest coordinate magnitude of a pair, the forms of
    ``Hyperbolic3.distance_arrays`` on x / s and y / s give q with
    cosh(rho) = 1 + q s^2, and arccosh(1 + t) = log(2 q) + 2 log s to
    rounding once t = q s^2 is too large to square.
    """
    s = np.maximum(np.max(np.abs(x), axis=-1), np.max(np.abs(y), axis=-1))
    x = x / s[:, None]
    y = y / s[:, None]
    d = x - y
    pair = x[:, 0] * y[:, 0]
    dx0sq = d[:, 0] ** 2
    far_q = pair - np.sum(x[:, 1:] * y[:, 1:], axis=-1) - (1.0 / s) ** 2
    q = np.maximum(np.where(dx0sq > pair, far_q, 0.5 * (np.sum(d[:, 1:] ** 2, axis=-1) - dx0sq)), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        t = q * s * s
        rho = np.log1p(t + np.sqrt(t * (2.0 + t)))
    return np.where(np.isfinite(rho), rho, np.log(2.0 * q) + 2.0 * np.log(s))


def sphere_directions(uv):
    """Uniform unit vectors in R^3 from the uniform pairs in the rows of ``uv``."""
    c = 1.0 - 2.0 * uv[:, 0]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    cos, sin = cos_sin_2pi(uv[:, 1])
    out = np.empty((len(c), 3))
    np.multiply(s, cos, out=out[:, 0])
    np.multiply(s, sin, out=out[:, 1])
    out[:, 2] = c
    return out


def exp_point_arrays(base, direction, r):
    """Geodesic from base along a unit 3-vector direction in the origin
    frame, of length r (H^3 only); broadcasts.

    The origin frame is the orthonormal frame at (1,0,0,0) parallel-transported
    along the geodesic to base p.  In it, d is the tangent vector
    (pd, d + c pv) at p, with pd = p1 d1 + p2 d2 + p3 d3 and c = pd / (1 + p0).
    So out_k = cosh(r) p_k + sinh(r) (d_k + c p_k) for k = 1..3, and out_0 is
    re-projected onto the hyperboloid as sqrt(1 + (o1^2 + o2^2 + o3^2)).
    Each sum runs left to right in the order written here.
    """
    base = np.asarray(base, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    p = [base[..., k] for k in range(4)]
    d = [direction[..., k] for k in range(3)]
    c = (p[1] * d[0] + p[2] * d[1] + p[3] * d[2]) / (1.0 + p[0])
    ch, sh = np.cosh(r), np.sinh(r)
    out = np.empty(np.broadcast_shapes(c.shape, r.shape) + (4,))
    for k in (1, 2, 3):
        out[..., k] = ch * p[k] + sh * (d[k - 1] + c * p[k])
    o1, o2, o3 = out[..., 1], out[..., 2], out[..., 3]
    # re-project onto the hyperboloid to stop constraint drift
    with np.errstate(over="ignore"):
        out[..., 0] = np.sqrt(1.0 + (o1 * o1 + o2 * o2 + o3 * o3))
    # past r ~ 355 the squares overflow though cosh r is finite to 710;
    # there 1 is below rounding and x0 is the scaled norm of out[1:]
    inf = np.isinf(out[..., 0])
    if np.any(inf):
        huge = inf & np.all(np.isfinite(out[..., 1:]), axis=-1)
        v = out[huge, 1:]
        m = np.max(np.abs(v), axis=-1)
        out[huge, 0] = m * np.sqrt(np.sum((v / m[:, None]) ** 2, axis=-1))
    return out


# ---------------------------------------------------------------------------
# coverings


@dataclass(frozen=True)
class CoveringDescriptor:
    """Euclidean space covering a circle or rectangular torus.

    The deck group is the lattice of integer combinations of the
    periods, acting by translation.
    """

    base: object
    total: Euclidean

    def __post_init__(self):
        if not isinstance(self.base, (Circle, FlatTorus)):
            raise ValueError("covering base must be a Circle or FlatTorus")
        if not isinstance(self.total, Euclidean) or self.total.dim != self.base.dim:
            raise ValueError("total space must be Euclidean of equal dimension")

    @property
    def periods(self):
        return self.base.periods


def covering_of(base):
    """The standard covering of a circle or torus by Euclidean space."""
    return CoveringDescriptor(base=base, total=Euclidean(base.dim))


def project_arrays(cov, x):
    """Reduce total-space coordinates into the fundamental box [0, L_i): ``rng.wrap`` by the periods."""
    return wrap(x, cov.periods)


def lift_arrays(cov, x, anchor):
    """Nearest preimage of base coords x to anchor; ties to the smaller coefficient."""
    x = np.asarray(x, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    per = np.asarray(cov.periods)
    k = np.round((anchor - x) / per)
    best = x + k * per
    for cand_k in (k - 1.0, k + 1.0):
        cand = x + cand_k * per
        closer = np.abs(cand - anchor) < np.abs(best - anchor)
        tie = (np.abs(cand - anchor) == np.abs(best - anchor)) & (cand_k < k)
        take = closer | tie
        best = np.where(take, cand, best)
        k = np.where(take, cand_k, k)
    return best, k.astype(np.int64)
