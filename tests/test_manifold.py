import math

import numpy as np
import pytest

from pathkernel.heat_kernel import _LAWS, TransitionKernel, model_of
from pathkernel.manifold import (
    CEMETERY,
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    Point,
    _scaled_h3_distance,
    covering_of,
    distance_arrays,
    exp_point_arrays,
    lift_arrays,
    point,
    project_arrays,
    sphere_directions,
    validate_point,
)
from pathkernel.rng import StreamCursor, cos_sin_2pi

H3 = Hyperbolic3()
ORIGIN4 = point(1.0, 0.0, 0.0, 0.0)


def random_h3_point(gen, rmax=2.0):
    d = gen.normal(size=3)
    d /= np.linalg.norm(d)
    r = gen.uniform(0.0, rmax)
    return Point(tuple(exp_point_arrays(np.array([1.0, 0, 0, 0]), d, r)))


def random_point(model, gen):
    if isinstance(model, Euclidean):
        return Point(tuple(gen.normal(0, 2, model.dim)))
    if isinstance(model, Circle):
        return Point((gen.uniform(0, model.circumference),))
    if isinstance(model, FlatTorus):
        return Point(tuple(gen.uniform(0, p) for p in model.periods))
    if isinstance(model, DirichletInterval):
        return Point((gen.uniform(0, 1) * model.length,))
    return random_h3_point(gen)


class TestDistance:
    def test_pythagorean(self):
        assert distance_arrays(Euclidean(2), [0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_circle_wraparound(self):
        assert distance_arrays(Circle(1.0), [0.1], [0.9]) == pytest.approx(0.2, abs=1e-15)

    def test_hyperbolic_axis(self):
        q = [math.cosh(1.0), math.sinh(1.0), 0.0, 0.0]
        assert distance_arrays(H3, ORIGIN4.array(), q) == pytest.approx(1.0, abs=1e-12)

    def test_interval(self):
        assert distance_arrays(DirichletInterval(2.0), [0.25], [1.5]) == 1.25

    def test_torus_minimum_over_translates(self):
        m = FlatTorus((1.0, 2.0))
        assert distance_arrays(m, [0.05, 0.1], [0.95, 1.9]) == pytest.approx(
            math.hypot(0.1, 0.2), abs=1e-14
        )

    @pytest.mark.parametrize(
        "model",
        [Euclidean(1), Euclidean(3), Circle(1.0), FlatTorus((1.0, 2.0)), H3, DirichletInterval(3.0)],
        ids=str,
    )
    def test_symmetry_and_triangle(self, model):
        gen = np.random.default_rng(0)
        for _ in range(1000):
            x, y, z = (random_point(model, gen).array() for _ in range(3))
            dxy = distance_arrays(model, x, y)
            assert dxy == distance_arrays(model, y, x)
            assert dxy <= distance_arrays(model, x, z) + distance_arrays(model, z, y) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate_point(Euclidean(2), point(0.0))

    def test_near_coincidence_stability(self):
        # the difference form keeps tiny hyperbolic distances accurate
        q = exp_point_arrays(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0]), 1e-9)
        assert distance_arrays(H3, ORIGIN4.array(), q) == pytest.approx(1e-9, rel=1e-5)

    def test_far_from_origin(self):
        # the difference form cancels here: both squares are about 5e86
        q = [math.cosh(100.0), math.sinh(100.0), 0.0, 0.0]
        assert distance_arrays(H3, ORIGIN4.array(), q) == pytest.approx(100.0, rel=1e-14)

    def test_close_pair_far_out(self):
        # two points at radius 40, 5 apart: the pairing form cancels here
        s = math.sinh(40.0)
        a = 2.0 * math.sinh(2.5)
        x = [math.sqrt(1.0 + s * s), s, 0.0, 0.0]
        y = [math.sqrt(1.0 + s * s + a * a), s, a, 0.0]
        assert distance_arrays(H3, x, y) == pytest.approx(5.0, rel=1e-14)

    @pytest.mark.parametrize("r", [300.0, 354.0])
    def test_opposite_points_far_out(self, r):
        # delta (2 + delta) with delta = 2 sinh^2 r overflows, though the distance 2r is finite
        x = exp_point_arrays(ORIGIN4.array(), np.array([1.0, 0.0, 0.0]), r)
        y = exp_point_arrays(ORIGIN4.array(), np.array([-1.0, 0.0, 0.0]), r)
        assert distance_arrays(H3, x, y) == pytest.approx(2.0 * r, rel=1e-13)

    def test_overflowing_rows_leave_the_others_alone(self):
        o = np.array([1.0, 0.0, 0.0, 0.0])
        x = [exp_point_arrays(o, np.array(u), r) for u, r in (([1.0, 0, 0], 700), ([-1.0, 0, 0], 700),
                                                               ([0.6, 0.8, 0], 3))]
        y = [exp_point_arrays(o, np.array([0.0, 0.8, 0.6]), r) for r in (700.0, 700.0, 2.0)]
        rho = H3.distance_arrays(np.array(x), np.array(y))
        assert rho[0] == pytest.approx(1400.0 - math.log(2.0), rel=1e-14)
        assert rho[1] == pytest.approx(1400.0 - math.log(2.0), rel=1e-14)
        assert rho[2] == H3.distance_arrays(x[2], y[2])


class TestExpPoint:
    def test_zero_radius(self):
        assert Point(tuple(exp_point_arrays(ORIGIN4.array(), np.array([1.0, 0.0, 0.0]), 0.0))) == ORIGIN4

    def test_axis_geodesic(self):
        p = Point(tuple(exp_point_arrays(ORIGIN4.array(), np.array([1.0, 0.0, 0.0]), 1.0)))
        assert p.coords == pytest.approx((math.cosh(1.0), math.sinh(1.0), 0.0, 0.0), abs=1e-14)

    def test_distance_round_trip(self):
        gen = np.random.default_rng(3)
        for _ in range(200):
            base = random_h3_point(gen)
            d = gen.normal(size=3)
            d /= np.linalg.norm(d)
            out = exp_point_arrays(base.array(), d, 2.0)
            assert distance_arrays(H3, base.array(), out) == pytest.approx(2.0, abs=1e-10)

    def test_constraint_preserved(self):
        gen = np.random.default_rng(4)
        for _ in range(200):
            base = random_h3_point(gen, rmax=5.0)
            d = gen.normal(size=3)
            d /= np.linalg.norm(d)
            c = exp_point_arrays(base.array(), d, gen.uniform(0, 4))
            q = c[0] ** 2 - c[1] ** 2 - c[2] ** 2 - c[3] ** 2
            assert abs(q - 1.0) <= 1e-10 * (1.0 + float(np.dot(c, c)))

    @pytest.mark.parametrize("r", [400.0, 700.0])
    def test_far_radius_keeps_cosh(self, r):
        # the re-projection's squares overflow past r ~ 355; cosh r does not until 710
        c = exp_point_arrays(ORIGIN4.array(), np.array([0.0, 0.6, 0.8]), r)
        assert c[0] == pytest.approx(math.cosh(r), rel=1e-12)
        assert list(c[2:]) == pytest.approx([0.6 * math.sinh(r), 0.8 * math.sinh(r)], rel=1e-12)


def rowwise_exp(base, direction, r):
    """The exp map in row form (np.sum, np.concatenate, the whole cosh-sinh
    4-vector): the reference that the column arithmetic matches bit for bit."""
    base, direction, r = (np.asarray(a, dtype=np.float64) for a in (base, direction, r))
    p0, pv = base[..., 0], base[..., 1:]
    pd = np.sum(pv * direction, axis=-1)
    uv = direction + (pd / (1.0 + p0))[..., None] * pv
    u = np.concatenate([pd[..., None], uv], axis=-1)
    out = np.cosh(r)[..., None] * base + np.sinh(r)[..., None] * u
    with np.errstate(over="ignore"):
        out[..., 0] = np.sqrt(1.0 + np.sum(out[..., 1:] ** 2, axis=-1))
    huge = np.isinf(out[..., 0]) & np.all(np.isfinite(out[..., 1:]), axis=-1)
    if np.any(huge):
        v = out[huge, 1:]
        m = np.max(np.abs(v), axis=-1)
        out[huge, 0] = m * np.sqrt(np.sum((v / m[:, None]) ** 2, axis=-1))
    return out


def rowwise_distance(x, y):
    """The H^3 distance in row form (np.sum over d = x - y), the reference of the column form."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = x - y
        pair = x[..., 0] * y[..., 0]
        dx0sq = d[..., 0] ** 2
        delta = 0.5 * (np.sum(d[..., 1:] ** 2, axis=-1) - dx0sq)
        far = dx0sq > pair
        delta = np.where(far, 0.0, np.maximum(delta, 0.0))
        near_rho = np.log1p(delta + np.sqrt(delta * (2.0 + delta)))
        cosh_rho = pair - np.sum(x[..., 1:] * y[..., 1:], axis=-1)
        rho = np.where(far, np.arccosh(np.maximum(cosh_rho, 1.0)), near_rho)
    huge = ~np.isfinite(rho) & np.all(np.isfinite(d), axis=-1)
    if np.any(huge):
        x, y = np.broadcast_arrays(x, y)
        rho[huge] = _scaled_h3_distance(x[huge], y[huge])
    return rho


def rowwise_sphere_directions(uv):
    c = 1.0 - 2.0 * uv[:, 0]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    cos, sin = cos_sin_2pi(uv[:, 1])
    return np.stack([s * cos, s * sin, c], axis=-1)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestColumnForms:
    """The H^3 geometry is written per coordinate, with every sum in the
    row form's order, so its bits equal the row form's everywhere."""

    N = 4096

    @staticmethod
    def directions(gen, n):
        d = gen.normal(size=(n, 3))
        return d / np.linalg.norm(d, axis=1, keepdims=True)

    def bases(self, gen, rmax):
        return rowwise_exp(ORIGIN4.array(), self.directions(gen, self.N), gen.uniform(0.0, rmax, self.N))

    # radii about 1e-9, ordinary, and past 355, where the squares of the
    # re-projection overflow and x0 is taken in scaled form
    @pytest.mark.parametrize("lo, hi", [(0.5e-9, 2e-9), (0.0, 6.0), (355.0, 700.0)])
    def test_exp_map_matches_the_row_form(self, lo, hi):
        gen = np.random.default_rng(11)
        d = self.directions(gen, self.N)
        r = gen.uniform(lo, hi, self.N)
        base = self.bases(gen, 2.0)
        for args in ((base, d, r), (ORIGIN4.array(), d, r), (base, d, 0.5 * (lo + hi)),
                     (base[7], d[7], r[7]), (ORIGIN4.array(), d[3], 0.5 * (lo + hi))):
            assert_same_bits(exp_point_arrays(*args), rowwise_exp(*args))
        if lo > 300.0:  # most rows take the rescaling branch
            with np.errstate(over="ignore"):
                assert np.mean(np.isinf(np.sum(rowwise_exp(base, d, r)[:, 1:] ** 2, axis=1))) > 0.5

    # near pairs (difference form), far pairs (pairing form) and pairs some
    # 700 from the origin, whose forms overflow and are measured scaled
    @pytest.mark.parametrize("case", ["near", "far", "huge"])
    def test_distance_matches_the_row_form(self, case):
        gen = np.random.default_rng(12)
        x = self.bases(gen, 3.0 if case != "huge" else 1.0)
        if case == "near":
            y = rowwise_exp(x, self.directions(gen, self.N), gen.uniform(0.0, 1e-3, self.N))
        elif case == "far":
            y = self.bases(gen, 40.0)
        else:
            x = rowwise_exp(ORIGIN4.array(), self.directions(gen, self.N), gen.uniform(600.0, 700.0, self.N))
            y = rowwise_exp(ORIGIN4.array(), self.directions(gen, self.N), gen.uniform(600.0, 700.0, self.N))
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.all(~np.isfinite(np.sum(x * y, axis=-1)))
        for a, b in ((x, y), (x, ORIGIN4.array()), (ORIGIN4.array(), y), (x[5], y[5])):
            assert_same_bits(H3.distance_arrays(a, b), rowwise_distance(a, b))

    def test_sphere_directions_match_the_row_form(self):
        uv = np.random.default_rng(13).uniform(size=(self.N, 2))
        uv[:4] = [[1.0, 0.3], [0.5, 1.0], [1e-17, 0.7], [0.25, 0.0]]  # poles, the equator, a full turn
        assert_same_bits(sphere_directions(uv), rowwise_sphere_directions(uv))


class TestCovering:
    def test_project_mod_one(self):
        cov = covering_of(Circle(1.0))
        assert tuple(project_arrays(cov, [2.5])) == (0.5,)

    def test_project_componentwise(self):
        cov = covering_of(FlatTorus((1.0, 2.0)))
        got = tuple(project_arrays(cov, [-0.25, 3.1]))
        assert got == pytest.approx((0.75, 1.1), abs=1e-12)

    def test_project_identity_on_domain(self):
        cov = covering_of(Circle(1.0))
        gen = np.random.default_rng(5)
        for _ in range(100):
            x = float(gen.uniform(0, 1))
            assert tuple(project_arrays(cov, [x])) == (x,)

    def test_lift_nearest(self):
        cov = covering_of(Circle(1.0))
        assert tuple(lift_arrays(cov, [0.5], [2.4])[0]) == (2.5,)

    def test_lift_tie_break_smaller_coefficient(self):
        cov = covering_of(Circle(1.0))
        assert tuple(lift_arrays(cov, [0.0], [0.5])[0]) == (0.0,)

    def test_project_after_lift_round_trip(self):
        cov = covering_of(Circle(1.0))
        gen = np.random.default_rng(6)
        for _ in range(500):
            x = np.array([gen.uniform(0, 1)])
            anchor = np.array([gen.uniform(-6, 6)])
            lifted, _ = lift_arrays(cov, x, anchor)
            back = project_arrays(cov, lifted)
            # the lattice shift is recovered exactly; re-adding it can cost
            # the representative a few final mantissa bits
            assert back[0] == pytest.approx(x[0], abs=1e-15)
            assert abs(lifted[0] - anchor[0]) <= 0.5 + 1e-12

    def test_lift_after_project_exact_for_unit_period(self):
        cov = covering_of(Circle(1.0))
        gen = np.random.default_rng(7)
        for _ in range(500):
            xt = np.array([gen.uniform(-8, 8)])
            back, _ = lift_arrays(cov, project_arrays(cov, xt), xt)
            assert tuple(back) == tuple(xt)

    def test_covering_validation(self):
        with pytest.raises(ValueError):
            covering_of(Euclidean(1))


class TestValidation:
    def test_hyperboloid_constraint_enforced(self):
        with pytest.raises(ValueError):
            validate_point(H3, point(1.0, 0.5, 0.0, 0.0))

    def test_torus_box(self):
        with pytest.raises(ValueError):
            validate_point(Circle(1.0), point(1.0))

    def test_open_interval(self):
        with pytest.raises(ValueError):
            validate_point(DirichletInterval(1.0), point(0.0))

    def test_cemetery_only_on_compactified(self):
        with pytest.raises(ValueError):
            validate_point(Euclidean(1), CEMETERY)
        assert validate_point(Compactified(DirichletInterval(1.0)), CEMETERY) is None

    def test_compactified_wraps_substochastic_base_only(self):
        with pytest.raises(ValueError):
            Compactified(Euclidean(1))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Circle(math.inf),
            lambda: Circle(math.nan),
            lambda: FlatTorus((1.0, math.inf)),
            lambda: FlatTorus((math.nan, 2.0)),
            lambda: DirichletInterval(math.inf),
            lambda: DirichletInterval(math.nan),
            lambda: DirichletInterval(1e300),  # L^2 overflows
            lambda: DirichletInterval(1e-300),  # (pi/L)^2 overflows
        ],
        ids=["circle-inf", "circle-nan", "torus-inf", "torus-nan", "interval-inf", "interval-nan",
             "interval-huge", "interval-tiny"],
    )
    def test_parameters_must_be_computable(self, make):
        with pytest.raises(ValueError):
            make()

    def test_extreme_but_computable_interval_allowed(self):
        assert DirichletInterval(1e150).length == 1e150
        assert DirichletInterval(1e-150).length == 1e-150


class _Ones:
    """A cursor stand-in whose every uniform is exactly 1.0, the largest value a slot gives."""

    def __init__(self, n):
        self.n = n

    def uniforms(self, cols=1):
        return np.ones((self.n, cols))


class TestRandomInterior:
    """``random_interior(cursor)``: one interior point per cursor row, from
    that row's substream alone, at each rule's documented slot count."""

    # one spec per _LAWS entry -> the uniform slots one point takes
    SLOTS = {
        "euclidean:3": 6,
        "cauchy": 2,
        "hyperbolic3": 3,
        "circle:1.0": 1,
        "torus:1,2": 2,
        "dirichlet:3.14159265": 1,
        "compactified:dirichlet:3.14159265": 1,
    }
    N = 37

    def test_every_law_is_covered(self):
        laws = {type(TransitionKernel(*model_of(spec))._law) for spec in self.SLOTS}
        assert laws == set(_LAWS.values())

    @pytest.mark.parametrize("spec", list(SLOTS))
    def test_rows_are_their_own_substreams(self, spec):
        model, _ = model_of(spec)
        rows = np.arange(self.N, dtype=np.uint64)
        cursor = StreamCursor(5, rows)
        cursor.uniforms(2)  # start past slot 0, as verify's points do
        points = model.random_interior(cursor)
        assert len(points) == self.N
        assert np.all(cursor.pos == 2 + self.SLOTS[spec])
        for i in range(self.N):
            one = StreamCursor(5, rows[i:i + 1])
            one.uniforms(2)
            assert model.random_interior(one) == [points[i]]
            validate_point(model, points[i])
            assert not points[i].cemetery

    @pytest.mark.parametrize("spec", [spec for spec in SLOTS if not spec.startswith(("euclidean", "cauchy"))])
    def test_a_uniform_of_one_stays_inside(self, spec):
        model, _ = model_of(spec)
        for p in model.random_interior(_Ones(3)):
            validate_point(model, p)
