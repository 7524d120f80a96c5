import decimal
import math
import re
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from pathkernel.errors import PathkernelError
from pathkernel.heat_kernel import (
    CK_BLOCK,
    TASKS,
    MomentCheckConfig,
    TransitionKernel,
    TruncationPolicy,
    _LAWS,
    _gaussian_moment,
    _lost_mass,
    cauchy_profile,
    chapman_kolmogorov_residuals,
    check_task,
    circle_dual_arrays,
    circle_theta_arrays,
    delta_family_residuals,
    dirichlet_kernel_arrays,
    dirichlet_mass_arrays,
    dirichlet_series_arrays,
    dirichlet_survival_ratio,
    evaluate,
    gauss_profile,
    h3_profile,
    image_count,
    model_of,
    moment_check,
    total_mass,
)
from pathkernel.manifold import (
    CEMETERY,
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    point,
)
from pathkernel.quadrature import gaussian_tail_radius

from test_manifold import random_point

GAUSS1 = TransitionKernel(Euclidean(1))
CAUCHY = TransitionKernel(Euclidean(1), kind="cauchy")
H3K = TransitionKernel(Hyperbolic3())
CIRC1 = TransitionKernel(Circle(1.0))
DIRPI = TransitionKernel(DirichletInterval(math.pi))
ORIGIN4 = point(1.0, 0.0, 0.0, 0.0)

# sine-series survival mass on (0, pi) at t=1 from x = pi/2:
# (4/pi) * sum over odd k of (-1)^((k-1)/2) e^(-k^2 t)/k, summed to machine tail
DIRICHLET_MASS_ORACLE = (4.0 / math.pi) * sum(
    (-1.0) ** ((k - 1) // 2) * math.exp(-k * k) / k for k in range(1, 16, 2)
)


def circle_spectral_oracle(t, dx, length):
    """Dual representation of the circle kernel; independent of the image sum."""
    total = 1.0
    m = 1
    while True:
        term = 2.0 * math.exp(-((2.0 * math.pi * m / length) ** 2) * t) * math.cos(
            2.0 * math.pi * m * dx / length
        )
        total += term
        if abs(term) < 1e-18 and m > 3:
            return total / length
        m += 1


class TestEvaluate:
    def test_gaussian_coincidence_is_one(self):
        t = 1.0 / (4.0 * math.pi)
        assert evaluate(GAUSS1, t, point(0.0), point(0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_cauchy_coincidence(self):
        assert evaluate(CAUCHY, 1.0, point(0.0), point(0.0)) == pytest.approx(
            1.0 / math.pi, abs=1e-16
        )

    def test_hyperbolic_coincidence(self):
        want = math.exp(-1.0) * (4.0 * math.pi) ** -1.5
        got = evaluate(H3K, 1.0, ORIGIN4, ORIGIN4)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(8.25830126612423e-3, rel=1e-12)

    def test_circle_long_time_equidistribution(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            x, y = gen.uniform(0, 1, 2)
            got = evaluate(CIRC1, 10.0, point(x), point(y))
            assert abs(got - 1.0) < 1e-12
            assert got == pytest.approx(circle_spectral_oracle(10.0, x - y, 1.0), abs=1e-13)

    def test_circle_against_dual_series_short_time(self):
        gen = np.random.default_rng(1)
        for t in (0.02, 0.1, 0.5, 2.0):
            x, y = gen.uniform(0, 1, 2)
            got = evaluate(CIRC1, t, point(x), point(y))
            assert got == pytest.approx(circle_spectral_oracle(t, x - y, 1.0), rel=1e-12)

    def test_torus_factorizes(self):
        torus = TransitionKernel(FlatTorus((1.0, 2.0)))
        got = evaluate(torus, 0.3, point(0.1, 0.5), point(0.8, 1.9))
        want = circle_spectral_oracle(0.3, 0.1 - 0.8, 1.0) * circle_spectral_oracle(
            0.3, 0.5 - 1.9, 2.0
        )
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kernel", [GAUSS1, CAUCHY, H3K, CIRC1, DIRPI], ids=lambda k: k.kind + str(k.model))
    def test_symmetry_and_positivity(self, kernel):
        gen = np.random.default_rng(2)
        for _ in range(2000):
            x = random_point(kernel.model, gen)
            y = random_point(kernel.model, gen)
            t = gen.uniform(0.05, 2.0)
            pxy = evaluate(kernel, t, x, y)
            pyx = evaluate(kernel, t, y, x)
            assert abs(pxy - pyx) <= 1e-12 * max(1.0, pxy)
            if isinstance(kernel.model, DirichletInterval):
                assert pxy >= 0.0
            else:
                assert pxy > 0.0

    def test_dirichlet_boundary_decay(self):
        near = evaluate(DIRPI, 0.5, point(1e-8), point(1.5))
        assert 0.0 <= near < 1e-7

    def test_dirichlet_representations_agree_at_switch(self):
        L = math.pi
        t_switch = L * L / math.pi ** 2  # = 1
        pol = TruncationPolicy()
        gen = np.random.default_rng(3)
        x = gen.uniform(0.05, 0.95, 50) * L
        y = gen.uniform(0.05, 0.95, 50) * L
        a = dirichlet_kernel_arrays(np.nextafter(t_switch, 0.0), x, y, L, pol)  # the images
        b = dirichlet_series_arrays(t_switch, x, y, L, pol)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_time_validation(self):
        with pytest.raises(ValueError):
            evaluate(GAUSS1, 0.0, point(0.0), point(1.0))
        with pytest.raises(ValueError):
            evaluate(GAUSS1, -1.0, point(0.0), point(1.0))

    def test_cauchy_only_on_line(self):
        with pytest.raises(ValueError):
            TransitionKernel(Euclidean(2), kind="cauchy")

    def test_truncation_budget_error(self):
        # the covering sum's winding tail still takes every image of its horizon
        with pytest.raises(PathkernelError, match=r"radius 1.25e\+07 needs over 1000000 terms"):
            image_count(gaussian_tail_radius(1e12, 1e-17) + 0.5, 1.0)

    @pytest.mark.parametrize("model, x, y", [
        (Circle(1.0), (0.0,), (0.5,)), (FlatTorus((1.0, 2.0)), (0.0, 0.0), (0.5, 0.5)),
    ], ids=["circle", "torus"])
    def test_lattice_kernel_past_the_image_budget_is_the_dual_series(self, model, x, y):
        # over 10^6 images at t = 1e12; every dual weight e^(-(2 pi n/L)^2 t)
        # underflows, which leaves one over the box's volume
        value = evaluate(TransitionKernel(model), 1e12, point(*x), point(*y))
        assert value == 1.0 / math.prod(model.periods)

    @pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
    def test_dual_series_matches_the_images(self, t):
        dx = np.linspace(-1.0, 1.0, 21)
        pol = TruncationPolicy()
        dual = circle_dual_arrays(t, dx, 1.0, pol)
        assert np.max(np.abs(dual / circle_theta_arrays(t, dx, 1.0, pol) - 1.0)) < 1e-14
        assert dual[3] == pytest.approx(circle_spectral_oracle(t, dx[3], 1.0), rel=1e-14)

    def test_batched_lattice_values_keep_their_bits_past_the_budget(self):
        # owners on both sides of the switch, each value as computed alone
        times, owner = np.array([0.5, 1e12, 0.05]), np.array([0, 0, 1, 1, 2])
        dx = np.array([0.1, -0.4, 0.3, 0.9, -0.2])
        pol = TruncationPolicy()
        batched = circle_theta_arrays(times, dx, 1.0, pol, owner)
        alone = [float(circle_theta_arrays(times[o], dx[i:i + 1], 1.0, pol)[0]) for i, o in enumerate(owner)]
        assert batched.tolist() == alone
        assert batched[2] == batched[3] == 1.0


_PI_40 = decimal.Decimal("3.141592653589793238462643383279502884197")


def _decimal_images(t, x, y, length, images=8):
    """(p^D_t(x, y), g_t(x - y)) from the reflection images, in 40-digit
    decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x, y, t, L = (decimal.Decimal(float(v)) for v in (x, y, t, length))
        norm = 1 / (4 * _PI_40 * t).sqrt()

        def g(z):
            return norm * (-(z * z) / (4 * t)).exp()

        return sum(g(x - y + 2 * k * L) - g(x + y + 2 * k * L) for k in range(-images, images + 1)), g(x - y)


def _decimal_quotient(t, x, y, length):
    """min(p^D_t(x, y) / g_t(x - y), 1) in 40-digit decimal arithmetic."""
    p, g = _decimal_images(t, x, y, length)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        return float(min(p / g, 1))


def _decimal_kernel(t, x, y, length):
    """p^D_t(x, y) in 40-digit decimal arithmetic."""
    return float(_decimal_images(t, x, y, length)[0])


class TestDirichletKernelDigits:
    """p^D against the 40-digit image sum, relative to its own size."""

    L = math.pi
    SWITCH = L * L / math.pi ** 2
    # t <= L^2/(2 pi^2), up to the switch, and from it on
    TIMES = [1e-4, 1e-2, 0.25, 0.5 * SWITCH, 0.6, 0.75, 0.9, math.nextafter(SWITCH, 0.0), SWITCH, 2.0, 4.0]
    INTERIOR = np.linspace(0.05, L - 0.05, 15)

    def kernel(self, t, x, y, owner=None):
        return dirichlet_kernel_arrays(t, x, y, self.L, TruncationPolicy(), owner)

    def relative_errors(self, t, x, y):
        got = self.kernel(t, x, y)
        want = np.array([_decimal_kernel(t, u, v, self.L) for u, v in zip(x, y)])
        normal = want >= sys.float_info.min  # where the kernel is a normal float
        return np.abs(got - want)[normal] / want[normal]

    @pytest.mark.parametrize("t", TIMES)
    def test_near_each_wall(self, t):
        # x at 1e-9 ... 1e-2 from a wall; y three times as far from it, or mid-way
        d = np.array([1e-9, 1e-6, 1e-4, 1e-2])
        x = np.concatenate([d, d, self.L - d, self.L - d])
        y = np.concatenate([3.0 * d, np.full(4, self.L / 2.0), self.L - 3.0 * d, np.full(4, self.L / 2.0)])
        err = self.relative_errors(t, x, y)
        assert err.size >= 8
        assert np.max(err) <= (1e-13 if t < self.SWITCH else 1e-14)

    @pytest.mark.parametrize("t", [1.0 / 32.0, 0.25, 0.9, math.nextafter(SWITCH, 0.0), SWITCH, 4.0])
    def test_interior(self, t):
        x, y = (v.ravel() for v in np.meshgrid(self.INTERIOR, self.INTERIOR))
        assert np.max(self.relative_errors(t, x, y)) <= 1e-14

    def test_batched_points_equal_points_alone(self):
        # at the walls, inside and far apart; one time per owner, in both regimes
        L = self.L
        x = np.array([0.0, 1e-9, 1e-4, 0.5, 1.5, L / 2, 2.9, L - 1e-6, L - 1e-9, L, 0.02, 3.0, 1e-300, 2.0])
        y = np.array([3e-9, 2e-9, L - 1e-4, 2.5, 1.4, L / 2, 0.1, L - 3e-6, L - 3e-9, 1.0, 3.1, 3.1, 1e-300, 1e-12])
        t = np.array([1e-3, 0.2, 0.9, math.nextafter(self.SWITCH, 0.0), self.SWITCH, 3.0])
        owner = np.arange(len(x)) % len(t)
        batch = self.kernel(t, x, y, owner)
        alone = [float(self.kernel(float(t[o]), x[i:i + 1], y[i:i + 1])[0]) for i, o in enumerate(owner)]
        assert batch.tolist() == alone
        # the killed sampler's ratio takes one time for all its points
        for v in (1e-3, 0.2, 0.9):
            batch = dirichlet_survival_ratio(v, x, y, L, TruncationPolicy())
            alone = [float(dirichlet_survival_ratio(v, x[i:i + 1], y[i:i + 1], L, TruncationPolicy())[0])
                     for i in range(len(x))]
            assert batch.tolist() == alone

    @pytest.mark.parametrize("t", TIMES)
    def test_mirror_and_swap_are_exact(self, t):
        grid = np.concatenate([[1e-9, 1e-4, 1e-2], self.INTERIOR, self.L - np.array([1e-2, 1e-4, 1e-9])])
        grid = self.L - (self.L - grid)  # so that L - (L - x) = x on the grid
        x, y = (v.ravel() for v in np.meshgrid(grid, grid))
        p = self.kernel(t, x, y)
        np.testing.assert_array_equal(self.kernel(t, self.L - x, self.L - y), p)
        np.testing.assert_array_equal(self.kernel(t, y, x), p)


class TestDirichletSurvivalRatio:
    """The closed-form bridge survival ratio against the image-sum quotient."""

    L = math.pi
    SWITCH = L * L / math.pi ** 2
    TIMES = [1e-4, 1.0 / 32.0, 0.25, 0.9, math.nextafter(SWITCH, 0.0), SWITCH, 4.0]
    # interior points plus points within 1e-3 of both walls
    GRID = np.concatenate([[1e-4, 5e-4, 1e-3], np.linspace(0.05, L - 0.05, 15), [L - 1e-3, L - 5e-4, L - 1e-4]])
    GRID = L - (L - GRID)  # so that x -> L - x is exact on the grid
    X, Y = (v.ravel() for v in np.meshgrid(GRID, GRID))

    def ratio(self, t, x, y):
        return dirichlet_survival_ratio(t, x, y, self.L, TruncationPolicy())

    def quotient(self, t, x, y):
        pol = TruncationPolicy()
        with np.errstate(all="ignore"):  # both profiles underflow for far pairs at small t
            return np.minimum(dirichlet_kernel_arrays(t, x, y, self.L, pol) / gauss_profile(t, (x - y) ** 2, 1), 1.0)

    @pytest.mark.parametrize("t", TIMES)
    def test_against_the_exact_quotient(self, t):
        want = np.array([_decimal_quotient(t, x, y, self.L) for x, y in zip(self.X, self.Y)])
        assert np.max(np.abs(self.ratio(t, self.X, self.Y) - want)) <= 1e-14

    @pytest.mark.parametrize("t", TIMES)
    def test_against_the_float_quotient(self, t):
        # the float quotient rounds (x + y - 2L)^2 / 4t, which costs it up
        # to ~7e-13 near the walls at t = 1e-4; where its Gaussian is no
        # normal float it is not compared
        got = self.ratio(t, self.X, self.Y)
        want = self.quotient(t, self.X, self.Y)
        if t >= self.SWITCH:
            np.testing.assert_array_equal(got, want)  # the quotient itself
        normal = gauss_profile(t, (self.X - self.Y) ** 2, 1) >= sys.float_info.min
        assert np.max(np.abs(got - want)[normal]) <= (1e-14 if t >= 0.25 else 1e-12)

    @pytest.mark.parametrize("t", TIMES)
    def test_range_and_symmetries(self, t):
        r = self.ratio(t, self.X, self.Y)
        assert np.all((r >= 0.0) & (r <= 1.0))
        np.testing.assert_allclose(self.ratio(t, self.Y, self.X), r, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(self.ratio(t, self.L - self.X, self.L - self.Y), r, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("t", [1.0 / 32.0, 4.0])
    def test_empty_input(self, t):
        assert self.ratio(t, np.array([]), np.array([])).shape == (0,)


class TestMass:
    def test_flat_models_conserve(self):
        assert total_mass(GAUSS1, 0.7, point(0.3)) == 1.0
        assert total_mass(TransitionKernel(Euclidean(3)), 2.0, point(0, 1, 2)) == 1.0
        assert total_mass(CIRC1, 0.2, point(0.9)) == 1.0
        assert total_mass(CAUCHY, 5.0, point(0.0)) == 1.0

    def test_hyperbolic_mass_by_quadrature(self):
        for t in (0.1, 1.0, 5.0):
            assert abs(total_mass(H3K, t, ORIGIN4) - 1.0) < 1e-8

    def test_dirichlet_mass_against_series_oracle(self):
        got = total_mass(DIRPI, 1.0, point(math.pi / 2))
        assert got == pytest.approx(DIRICHLET_MASS_ORACLE, abs=1e-12)
        assert got == pytest.approx(dirichlet_mass_arrays(1.0, math.pi / 2, math.pi), abs=1e-12)
        assert got == pytest.approx(0.4683, abs=5e-4)

    def test_dirichlet_mass_monotone_in_time(self):
        masses = [total_mass(DIRPI, t, point(1.0)) for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_compactified_conserves(self):
        comp = TransitionKernel(Compactified(DirichletInterval(math.pi)))
        assert total_mass(comp, 1.0, point(math.pi / 2)) == 1.0
        assert total_mass(comp, 1.0, CEMETERY) == 1.0


class TestCompactifiedTable:
    COMP = TransitionKernel(Compactified(DirichletInterval(math.pi)))

    def test_cemetery_absorbs(self):
        assert evaluate(self.COMP, 1.0, CEMETERY, CEMETERY) == 1.0

    def test_no_return_from_cemetery(self):
        assert evaluate(self.COMP, 1.0, point(1.0), CEMETERY) == 0.0

    def test_lost_mass_row(self):
        got = evaluate(self.COMP, 1.0, CEMETERY, point(math.pi / 2))
        assert got == pytest.approx(1.0 - DIRICHLET_MASS_ORACLE, abs=1e-12)
        assert got == pytest.approx(0.5317, abs=5e-4)

    def test_interior_matches_base(self):
        x, y = point(1.0), point(2.0)
        assert evaluate(self.COMP, 0.5, x, y) == evaluate(DIRPI, 0.5, x, y)

    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("x", [0.3, 1.57, 3.0])
    def test_lost_mass_row_is_one_minus_the_survival_mass(self, t, x):
        got = evaluate(self.COMP, t, CEMETERY, point(x))
        assert got == _lost_mass(t, x, math.pi)
        assert abs(got - (1.0 - dirichlet_mass_arrays(t, x, math.pi))) <= 2.0 ** -52

    def test_lost_mass_row_keeps_its_digits(self):
        # the erfc image sum at 50 digits; one minus the survival mass reads 0
        comp = TransitionKernel(Compactified(DirichletInterval(3.14159265)))
        got = evaluate(comp, 0.01, CEMETERY, point(1.5707963))
        assert got == pytest.approx(2.3144433534296861e-28, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("t, x, want", [
        (0.01, 1e-9, 5.6418958354775631e-09),
        (0.01, math.pi - 1e-9, 5.6418963022901173e-09),
        (0.01, 1e-6, 5.6418958354305468e-06),
        (0.01, math.pi - 1e-6, 5.6418958362191597e-06),
        (0.1, 1e-9, 1.7841241160841168e-09),
        (0.1, math.pi - 1e-9, 1.7841242637032080e-09),
        (0.1, 1e-6, 1.7841241160826298e-06),
        (0.1, math.pi - 1e-6, 1.7841241163320112e-06),
    ])
    def test_survival_mass_near_each_wall_below_the_switch(self, t, x, want):
        # one minus the erfc image sum at 50 digits (mpmath), at the float x;
        # one minus the lost mass is off by up to 7e-10 here
        assert dirichlet_mass_arrays(t, x, math.pi) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("x", [1e-12, 1e-9, 1e-6, 1e-3, math.pi - 1e-9])
    def test_survival_mass_near_a_wall_up_to_the_switch(self, t, x):
        # where 4kLy/h^2 < 1 the erfc pairs of the image sum cancel; the image
        # sum at 60 digits (mpmath), at the float x
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            L = mpmath.mpf(math.pi)
            y, h = min(mpmath.mpf(x), L - mpmath.mpf(x)), 2 * mpmath.sqrt(mpmath.mpf(t))
            want = mpmath.erf(y / h) + mpmath.fsum(
                (-1) ** k * (mpmath.erfc((k * L - y) / h) - mpmath.erfc((k * L + y) / h)) for k in range(1, 20))
            want = float(want)
        assert dirichlet_mass_arrays(t, x, math.pi) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("length", [math.pi, 1.0, 7.0])
    def test_survival_mass_forms_agree_at_the_switch(self, length):
        # reflection images below t = L^2/pi^2, the sine series above
        switch = length * length / math.pi ** 2
        xs = np.linspace(0.0, length, 33)
        below = dirichlet_mass_arrays(np.nextafter(switch, 0.0), xs, length)
        above = dirichlet_mass_arrays(switch, xs, length)
        assert np.max(np.abs(below - above)) < 1e-14

    def test_series_survival_mass_near_each_wall(self):
        # L = 1 runs the sine series at t = 0.5; the 40-digit series value
        for x, want in ((1e-9, 2.8767533423305464e-11), (0.999999999, 2.8767532609704054e-11)):
            assert dirichlet_mass_arrays(0.5, x, 1.0) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [1e-300, 1e-12])
    def test_survival_mass_at_tiny_t(self, t):
        mass = dirichlet_mass_arrays(t, np.array([0.0, 1e-3, 1.0, math.pi / 2, math.pi - 1e-3, math.pi]), math.pi)
        assert mass.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]
        assert evaluate(self.COMP, t, CEMETERY, point(2.0)) == 0.0

    def test_interior_plus_deficit_is_one(self):
        x = point(0.8)
        interior = total_mass(DIRPI, 1.3, x)
        deficit = evaluate(self.COMP, 1.3, CEMETERY, x)
        assert interior + deficit == pytest.approx(1.0, abs=1e-10)


class TestChapmanKolmogorov:
    def test_gaussian_convolution(self):
        r = chapman_kolmogorov_residuals(GAUSS1, [0.5], [0.5], [point(0.0)], [point(1.0)])[0]
        assert r < 1e-10

    def test_cauchy_closure(self):
        r = chapman_kolmogorov_residuals(CAUCHY, [0.3], [0.7], [point(0.0)], [point(2.0)])[0]
        assert r < 1e-8

    def test_circle_theta(self):
        r = chapman_kolmogorov_residuals(CIRC1, [0.1], [0.2], [point(0.0)], [point(0.3)])[0]
        assert r < 1e-9

    def test_hyperbolic(self):
        z = point(math.cosh(1.2), math.sinh(1.2), 0.0, 0.0)
        r = chapman_kolmogorov_residuals(H3K, [0.4], [0.6], [ORIGIN4], [z])[0]
        assert r < 1e-10

    def test_dirichlet(self):
        r = chapman_kolmogorov_residuals(DIRPI, [0.3], [0.5], [point(1.0)], [point(2.0)])[0]
        assert r < 1e-9

    @pytest.mark.parametrize(
        "s, t, x, z",
        [
            (0.5440815150514569, 0.44408332428937825, 1.2632331867728728, 2.064852069761169),
            (0.4751931044344479, 0.6107088906296506, 1.1920509305888902, 1.2338750592979826),
        ],
    )
    def test_dirichlet_smooth_peak_not_accepted_early(self, s, t, x, z):
        # tuples of `verify chapman-kolmogorov --model dirichlet:3.14159265`
        # at seeds 90 and 403, where Simpson once stopped about 5e-9 short
        k = TransitionKernel(DirichletInterval(3.14159265))
        assert chapman_kolmogorov_residuals(k, [s], [t], [point(x)], [point(z)])[0] <= 1e-10

    def test_euclidean_3d_factorized(self):
        k3 = TransitionKernel(Euclidean(3))
        r = chapman_kolmogorov_residuals(k3, [0.4], [0.3], [point(0.0, 0.5, -1.0)], [point(1.0, 0.0, 0.2)])[0]
        assert r < 1e-9

    def test_compactified_cemetery_row(self):
        comp = TransitionKernel(Compactified(DirichletInterval(math.pi)))
        r = chapman_kolmogorov_residuals(comp, [0.4], [0.6], [point(1.2)], [CEMETERY])[0]
        assert r < 1e-7
        assert chapman_kolmogorov_residuals(comp, [0.4], [0.6], [CEMETERY], [point(1.2)])[0] == 0.0


def ck_tuples(model, n, seed, times=(0.2, 0.8)):
    gen = np.random.default_rng(seed)
    s = [float(v) for v in gen.uniform(*times, n)]
    t = [float(v) for v in gen.uniform(*times, n)]
    base = model.base if isinstance(model, Compactified) else model
    x = [random_point(base, gen) for _ in range(n)]
    z = [random_point(base, gen) for _ in range(n)]
    return s, t, x, z


class TestBatchedChapmanKolmogorov:
    """One batched call gives each tuple the bits of its one-tuple call."""

    @pytest.mark.parametrize(
        "kernel, n",
        [
            (GAUSS1, 6),
            (TransitionKernel(Euclidean(3)), 5),
            (CAUCHY, 6),
            (CIRC1, 6),
            (TransitionKernel(FlatTorus((1.0, 2.0))), 5),
            (H3K, 6),
            (DIRPI, CK_BLOCK + 3),  # crosses a block boundary
        ],
        ids=["euclidean1", "euclidean3", "cauchy", "circle", "torus", "h3", "dirichlet"],
    )
    def test_batch_equals_one_tuple_calls(self, kernel, n):
        s, t, x, z = ck_tuples(kernel.model, n, seed=11)
        if isinstance(kernel.model, Hyperbolic3):
            z[0] = x[0]  # a target at the source takes the kernel-itself form
        batch = chapman_kolmogorov_residuals(kernel, s, t, x, z)
        alone = [chapman_kolmogorov_residuals(kernel, *([v] for v in row))[0] for row in zip(s, t, x, z)]
        assert batch.tolist() == alone
        assert max(alone) < 1e-8

    def test_dirichlet_both_representations(self):
        # L = 1 switches from images to the sine series at t = 1/pi^2 ~ 0.101
        k = TransitionKernel(DirichletInterval(1.0))
        s, t, x, z = ck_tuples(k.model, 8, seed=12, times=(0.02, 0.3))
        batch = chapman_kolmogorov_residuals(k, s, t, x, z)
        alone = [chapman_kolmogorov_residuals(k, *([v] for v in row))[0] for row in zip(s, t, x, z)]
        assert batch.tolist() == alone
        assert max(alone) < 1e-9

    def test_compactified_mixes_cemetery_rows(self):
        comp = TransitionKernel(Compactified(DirichletInterval(math.pi)))
        s, t, x, z = ck_tuples(comp.model, 5, seed=13)
        x[1], z[2], x[3], z[3] = CEMETERY, CEMETERY, CEMETERY, CEMETERY
        batch = chapman_kolmogorov_residuals(comp, s, t, x, z)
        alone = [chapman_kolmogorov_residuals(comp, *([v] for v in row))[0] for row in zip(s, t, x, z)]
        assert batch.tolist() == alone
        assert batch[3] == 0.0

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            chapman_kolmogorov_residuals(GAUSS1, [0.5, 0.5], [0.5], [point(0.0)], [point(1.0)])


class TestMoments:
    def test_gaussian_fourth_moment_ratio(self):
        cfg = MomentCheckConfig(a=4.0, b=1.0, tau_grid=(1e-3, 1e-2, 1e-1))
        rep = moment_check(GAUSS1, cfg)
        assert not rep.any_divergent
        for ratio in rep.ratios:
            assert ratio == pytest.approx(12.0, abs=1e-6)

    def test_pointwise_scaling_is_tau_free(self):
        # n = 1, b = 1/2 so a = 2b + n + 2 = 4; the maximized ratio is
        # (2a tau)^(a/2) e^(-a/2) (4 pi tau)^(-1/2) / tau^(3/2), tau-free
        cfg = MomentCheckConfig(a=4.0, b=0.5, tau_grid=(1e-3, 1e-2, 1e-1), mode="pointwise")
        rep = moment_check(GAUSS1, cfg)
        want = 8.0 ** 2 * math.exp(-2.0) / math.sqrt(4.0 * math.pi)
        for ratio in rep.ratios:
            assert ratio == pytest.approx(want, rel=1e-8)
        spread = (max(rep.ratios) - min(rep.ratios)) / rep.worst_constant
        assert spread < 1e-8

    def test_cauchy_fourth_moment_diverges(self):
        cfg = MomentCheckConfig(a=4.0, b=1.0, tau_grid=(1e-2, 1e-1))
        rep = moment_check(CAUCHY, cfg)
        assert rep.any_divergent
        assert all(rep.divergent)

    def test_hyperbolic_ratios_reported_bounded(self):
        # on the tested grid the ratio sits near the flat 3-d constant 60
        # (E|Z|^4 = 15 (2 tau)^2) with a curvature correction growing in tau
        cfg = MomentCheckConfig(a=4.0, b=1.0, tau_grid=(1e-3, 1e-2, 1e-1))
        rep = moment_check(H3K, cfg)
        assert not rep.any_divergent
        assert rep.ratios[0] == pytest.approx(60.0, rel=0.01)
        assert rep.worst_constant < 100.0


def _radial_quad(f, peak, end):
    """scipy's integral of f over (0, end), split at the peak of f."""
    return sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0] for lo, hi in ((0.0, peak), (peak, end)))


def _sphere_area(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _sup(f, hi):
    """scipy's maximum of f on (0, hi)."""
    res = minimize_scalar(lambda r: -f(r), bounds=(0.0, hi), method="bounded", options={"xatol": 1e-12})
    return -res.fun


class TestClosedFormMoments:
    """The Gaussian and Cauchy moment rules against scipy on the profiles."""

    @pytest.mark.parametrize("tau", [1e-3, 0.1])
    @pytest.mark.parametrize("a", [0.5, 0.9, 4.0, 14.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian(self, n, a, tau):
        law = TransitionKernel(Euclidean(n))._law
        peak = math.sqrt(2.0 * (a + n - 1.0) * tau)
        want = _radial_quad(lambda r: r ** a * gauss_profile(tau, r * r, n) * _sphere_area(n) * r ** (n - 1),
                            peak, peak + 40.0 * math.sqrt(tau))
        assert law.integrated_moment(a, tau, 1e-10) == pytest.approx(want, rel=1e-10)
        want = _sup(lambda r: r ** a * gauss_profile(tau, r * r, n), 10.0 * math.sqrt(a * tau))
        assert law.pointwise_sup(a, tau) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("tau", [1e-3, 0.1])
    @pytest.mark.parametrize("a", [0.5, 0.9, 1.5])
    def test_cauchy(self, a, tau):
        law = CAUCHY._law
        if a < 1.0:
            want = _radial_quad(lambda r: 2.0 * r ** a * cauchy_profile(tau, r), tau, np.inf)
            assert law.integrated_moment(a, tau, 1e-10) == pytest.approx(want, rel=1e-10)
        want = _sup(lambda r: r ** a * cauchy_profile(tau, r), 10.0 * tau)
        assert law.pointwise_sup(a, tau) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a", [1.0, 14.0])
    def test_cauchy_diverges_from_a_1(self, a):
        rep = moment_check(CAUCHY, MomentCheckConfig(a=a, b=1.0, tau_grid=(1e-2, 1e-1)))
        assert rep.divergent == [True, True]

    @pytest.mark.parametrize("tau", [1e-3, 1e-2, 0.1, 1.0, 2.0])
    @pytest.mark.parametrize("a", [4.0, 30.0, 100.0])
    def test_hyperbolic_against_scipy(self, a, tau):
        # radial integral of r^a p_tau(r) against the volume 4 pi sinh^2 r;
        # at a = 100, tau = 2 the moment is 1e7 times the flat one
        peak = tau + math.sqrt(tau * tau + 2.0 * (a + 2.0) * tau)
        want = _radial_quad(lambda r: 4.0 * math.pi * r ** a * math.sinh(r) ** 2 * float(h3_profile(tau, r)),
                            peak, peak + 40.0 * math.sqrt(tau))
        assert H3K._law.integrated_moment(a, tau, 1e-10) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("model, a, tau", [
        (DirichletInterval(3.14159265), 12.0, 1e-3),
        (DirichletInterval(3.14159265), 4.0, 1e-2),
        (DirichletInterval(3.14159265), 30.0, 0.1),
        (DirichletInterval(3.14159265), 4.0, 2.0),
        (Circle(1.0), 4.0, 1e-3),
        (Circle(1.0), 30.0, 1e-2),
        (Circle(1.0), 4.0, 0.5),
    ])
    def test_compact_against_scipy(self, model, a, tau):
        # tiny moments too are relative to themselves: the dirichlet moment
        # at a = 12, tau = 1e-3 is 6.7e-13, below the tolerance 1e-10
        pol = TruncationPolicy()
        if isinstance(model, Circle):
            L, centre = model.circumference, 0.0

            def f(z):
                return min(z, L - z) ** a * float(circle_theta_arrays(tau, np.array([z]), L, pol)[0])
        else:
            L, centre = model.length, model.length / 2.0

            def f(z):
                p = dirichlet_kernel_arrays(tau, np.array([z]), np.array([centre]), L, pol)
                return abs(z - centre) ** a * float(p[0])

        # split at the centre and at the flat peaks sqrt(2 a tau) around it
        r = math.sqrt(2.0 * a * tau)
        cuts = sorted({0.0, L, L / 2.0, *(v % L for v in (centre - r, centre + r))})
        want = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0] for lo, hi in zip(cuts, cuts[1:]))
        assert TransitionKernel(model)._law.integrated_moment(a, tau, 1e-10) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("a, tau", [(4, 1e-150), (4, 1e-6), (4, 0.1), (4, 1.0), (30, 1e-20), (30, 1e-3), (30, 1.0),
                                        (4, 300.0), (4, 900.0)])
    def test_hyperbolic_even_moment_is_exact(self, a, tau):
        # for even a, r^(a+1) sinh r is even in r, so the radial integral is
        # E[X^(a+1)] / (2 tau) for X ~ N(2 tau, 2 tau): a sum of Gaussian moments
        n = a + 1
        want = sum(math.comb(n, 2 * k) * math.prod(range(1, 2 * k, 2)) * (2.0 * tau) ** (n - k - 1)
                   for k in range(n // 2 + 1))
        assert H3K._law.integrated_moment(float(a), tau, 1e-10) == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a, tau", [(0.5, 1e-300), (4.5, 1e-100)])
    def test_hyperbolic_small_tau_is_the_flat_moment(self, a, tau):
        # sinh(r)/r = 1 + O(r^2) puts the moment within O(a tau) of the flat one
        want = _gaussian_moment(a, tau, 3)
        assert H3K._law.integrated_moment(a, tau, 1e-10) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_hyperbolic_moment_below_the_normal_range_ends(self):
        # the flat moment, 6e-319, is subnormal; the tolerance keeps a floor
        assert 0.0 <= H3K._law.integrated_moment(4.0, 1e-160, 1e-10) < sys.float_info.min


class TestDeltaFamilyAndBounds:
    @pytest.mark.parametrize("kernel", [GAUSS1, CIRC1, H3K, DIRPI, CAUCHY], ids=lambda k: k.kind + str(k.model))
    def test_delta_family(self, kernel):
        # the residual scales like t / width^2, so the narrow circle bump
        # needs a deeper time sequence to reach the same absolute level
        if isinstance(kernel.model, DirichletInterval):
            y = point(kernel.model.length / 2)
        elif isinstance(kernel.model, Hyperbolic3):
            y = ORIGIN4
        else:
            y = point(0.4)
        depth = 7 if isinstance(kernel.model, Circle) else 5
        t_seq = [0.02 * 4.0 ** -j for j in range(depth)]
        res = delta_family_residuals(kernel, y, t_seq)
        assert res[-1] < 1e-3
        assert res[-1] < res[0] / 20.0

    def test_maximum_principle_interval_below_doubled_circle(self):
        # the double of [0, L] is a circle of circumference 2L
        L = math.pi
        circ2 = TransitionKernel(Circle(2 * L))
        xs = np.linspace(0.1, L - 0.1, 9)
        for t in (0.05, 0.3, 1.0, 3.0):
            for x in xs:
                for y in xs:
                    p = evaluate(DIRPI, t, point(x), point(y))
                    q = evaluate(circ2, t, point(x), point(y))
                    assert p <= q + 1e-12

    def test_short_time_gaussian_limit_on_circle(self):
        vals = []
        for t in (1e-2, 1e-3, 1e-4):
            v = (4.0 * math.pi * t) ** 0.5 * evaluate(CIRC1, t, point(0.3), point(0.3))
            vals.append(abs(v - 1.0))
        assert vals[-1] < 1e-12
        assert vals == sorted(vals, reverse=True)

    def test_short_time_gaussian_limit_on_torus(self):
        torus = TransitionKernel(FlatTorus((1.0, 1.5)))
        x = point(0.2, 0.7)
        v = (4.0 * math.pi * 1e-3) ** 1.0 * evaluate(torus, 1e-3, x, x)
        assert v == pytest.approx(1.0, abs=1e-12)


class TestLawTable:
    """A law runs a task exactly when it has the rule TASKS names for it,
    apart from the three refusals in its ``only``; a refusal names only
    models whose law runs the task."""

    # every _LAWS entry with models on both sides of each model-dependent refusal
    EXAMPLES = {
        (Euclidean, "heat"): [Euclidean(1), Euclidean(2), Euclidean(3)],
        (Euclidean, "cauchy"): [Euclidean(1)],
        (Hyperbolic3, "heat"): [Hyperbolic3()],
        (Circle, "heat"): [Circle(1.0), Circle(2.0 * math.pi)],
        (FlatTorus, "heat"): [FlatTorus((1.0,)), FlatTorus((1.0, 2.0))],
        (DirichletInterval, "heat"): [DirichletInterval(math.pi)],
        (Compactified, "heat"): [Compactified(DirichletInterval(math.pi))],
    }
    EXPLICIT = {
        ("increments", Compactified(DirichletInterval(math.pi))),
        ("covering", FlatTorus((1.0, 2.0))),
        ("delta-family", Euclidean(2)),
        ("delta-family", Euclidean(3)),
    }
    # values that stand in for the letters of a spec
    FILLS = {"N": ["1", "2", "3"], "L": ["1.0", "2.0"], "L1,L2,...": ["1.0", "1.0,2.0"]}

    def kernels(self):
        return [TransitionKernel(model, kind=kind) for (_, kind), models in self.EXAMPLES.items()
                for model in models]

    def models_of(self, spec):
        """The kernels a spec of a refusal stands for, parsed by the law table."""
        name, _, letters = spec.rpartition(":")
        specs = [f"{name}:{v}" for v in self.FILLS.get(letters, [letters])] if name else [spec]
        return [TransitionKernel(*model_of(s)) for s in specs]

    def test_examples_cover_the_table(self):
        assert set(self.EXAMPLES) == set(_LAWS)

    def test_every_spec_builds_a_model_of_its_own_law(self):
        for key, law in _LAWS.items():
            for kernel in self.models_of(law.spec):
                assert (type(kernel.model), kernel.kind) == key and type(kernel._law) is law

    @pytest.mark.parametrize("task", list(TASKS))
    def test_refuses_exactly_without_the_rule(self, task):
        rule = TASKS[task][0]
        for kernel in self.kernels():
            why = kernel._law.refusal(task)
            runs = hasattr(kernel._law, rule) and (task, kernel.model) not in self.EXPLICIT
            assert (why is None) == runs, (task, kernel)
            if why is None:
                check_task(kernel, task)
            else:
                with pytest.raises(ValueError, match=re.escape(why)):
                    check_task(kernel, task)

    @pytest.mark.parametrize("task", list(TASKS))
    def test_refusals_name_exactly_the_models_that_run(self, task):
        refusals = {kernel._law.refusal(task) for kernel in self.kernels()} - {None}
        runners = {(type(k.model), k.kind) for k in self.kernels() if k._law.refusal(task) is None}
        for why in refusals:
            words = TASKS[task][1]
            assert why.startswith(words + " ") and ", not " in why, why
            listed = why[len(words) + 1:why.index(", not ")].replace(" and ", ", ").split(", ")
            named = set()
            for spec in listed:
                for kernel in self.models_of(spec):
                    assert kernel._law.refusal(task) is None, (why, kernel)
                    named.add((type(kernel.model), kernel.kind))
            assert named == runners, why
