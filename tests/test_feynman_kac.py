import math

import numpy as np
import pytest

from pathkernel.errors import PotentialBoundError
from pathkernel.feynman_kac import (
    FKProblem,
    Potential,
    const_potential,
    constant_one,
    cos_potential,
    fk_covering_sum_check,
    fk_expectation,
    fk_kernel,
    fk_monotonicity_check,
    lifted_potential,
    spectral_oracle,
    step_potential,
    zero_potential,
)
from pathkernel.heat_kernel import TransitionKernel, dirichlet_mass_series, evaluate
from pathkernel.manifold import (
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    Hyperbolic3,
    covering_of,
    point,
)
from pathkernel.rng import RngContract

TWO_PI = 2.0 * math.pi
CIRCLE = TransitionKernel(Circle(TWO_PI))
GAUSS1 = TransitionKernel(Euclidean(1))
H3K = TransitionKernel(Hyperbolic3())
ORIGIN4 = point(1.0, 0.0, 0.0, 0.0)


def problem(kernel=CIRCLE, potential=None, x0=point(0.0), t=1.0, n_steps=16,
            n_samples=4000, seed=11, terminal=constant_one):
    return FKProblem(kernel, potential or zero_potential(), terminal, x0, t,
                     n_steps, n_samples, RngContract(seed))


class TestExpectation:
    def test_no_potential_conservative_model_is_exactly_one(self):
        est = fk_expectation(problem())
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_constant_potential_factors_exactly(self):
        c = 0.8
        base = fk_expectation(problem())
        shifted = fk_expectation(problem(potential=const_potential(c)))
        assert shifted.value == pytest.approx(math.exp(-c * 1.0) * base.value, rel=1e-15)

    def test_constant_factorization_per_sample_against_zero(self):
        # identical paths (same seed), so the weights divide out exactly
        est0 = fk_expectation(problem(potential=zero_potential(), t=0.5, n_steps=64))
        estc = fk_expectation(problem(potential=const_potential(1.3), t=0.5, n_steps=64))
        assert estc.value == pytest.approx(math.exp(-1.3 * 0.5) * est0.value, rel=1e-15)

    def test_killed_paths_contribute_zero(self):
        kern = TransitionKernel(Compactified(DirichletInterval(math.pi)))
        est = fk_expectation(problem(kernel=kern, x0=point(math.pi / 2), n_steps=32,
                                     n_samples=50000, seed=5))
        mass = dirichlet_mass_series(math.pi, 1.0, math.pi / 2)
        assert abs(est.value - mass) < 3.0 * math.sqrt(mass * (1 - mass) / 50000)

    def test_a_priori_bound_holds(self):
        est = fk_expectation(problem(potential=cos_potential(), n_samples=2000))
        assert abs(est.value) <= math.exp(1.0)

    def test_mean_is_exactly_the_sliced_product(self):
        # the estimator averages a cylinder functional, so its mean is the
        # n-step product (heat step, then potential step) applied to 1;
        # build that product independently on a fine finite-difference grid
        n_steps, t, m = 8, 1.0, 1024
        h = TWO_PI / m
        x = np.arange(m) * h
        idx = np.arange(m)
        lap = np.zeros((m, m))
        lap[idx, idx] = -2.0
        lap[idx, (idx + 1) % m] = 1.0
        lap[idx, (idx - 1) % m] = 1.0
        lap /= h * h
        w, u = np.linalg.eigh(lap)
        heat_step = (u * np.exp((t / n_steps) * w)) @ u.T
        v_step = np.exp(-(t / n_steps) * np.cos(x))
        vec = np.ones(m)
        for _ in range(n_steps):
            vec = heat_step @ (v_step * vec)
        sliced_mean = float(vec[0])
        sliced_second = np.ones(m)
        v2 = np.exp(-2.0 * (t / n_steps) * np.cos(x))
        for _ in range(n_steps):
            sliced_second = heat_step @ (v2 * sliced_second)
        sigma = math.sqrt(float(sliced_second[0]) - sliced_mean ** 2)

        est = fk_expectation(problem(potential=cos_potential(), t=t, n_steps=n_steps,
                                     n_samples=200000, seed=23))
        assert abs(est.value - sliced_mean) < 4.0 * est.std_error
        assert est.std_error == pytest.approx(sigma / math.sqrt(200000), rel=0.02)

    def test_matches_oracle_with_enough_slices(self):
        est = fk_expectation(problem(potential=cos_potential(), n_steps=512,
                                     n_samples=40000, seed=8))
        orc = spectral_oracle(Circle(TWO_PI), 512, cos_potential(), 1.0)
        want = orc.value_at(constant_one, 0.0)
        assert est.value == pytest.approx(want, rel=0.02)
        assert abs(est.value - want) < 3.0 * est.std_error

    def test_trapezoid_rule_differs_and_is_less_biased(self):
        orc = spectral_oracle(Circle(TWO_PI), 512, cos_potential(), 1.0)
        want = orc.value_at(constant_one, 0.0)
        p = problem(potential=cos_potential(), n_steps=16, n_samples=100000, seed=9)
        right = fk_expectation(p, rule="right")
        trap = fk_expectation(p, rule="trapezoid")
        assert right.value != trap.value
        assert abs(trap.value - want) < abs(right.value - want)

    def test_workers_change_nothing(self):
        p = problem(potential=cos_potential(), n_samples=70000)
        serial = fk_expectation(p, workers=1)
        pool = fk_expectation(p, workers=3)
        assert serial.value == pool.value and serial.std_error == pool.std_error

    def test_sup_bound_violation_caught(self):
        lying = Potential(lambda c: np.cos(c[..., 0]), 0.1, name="lies")
        with pytest.raises(PotentialBoundError):
            fk_expectation(problem(potential=lying, n_samples=500))


class TestKernelEstimator:
    def test_no_potential_reduces_to_transition_density(self):
        for kern, x0, y0, t in [
            (GAUSS1, point(0.0), point(0.7), 0.9),
            (CIRCLE, point(0.0), point(2.0), 0.6),
            (H3K, ORIGIN4, point(math.cosh(0.5), math.sinh(0.5), 0.0, 0.0), 0.8),
        ]:
            est = fk_kernel(kern, zero_potential(), x0, y0, t, 8, 64, RngContract(2))
            assert est.value == pytest.approx(evaluate(kern, t, y0, x0), rel=1e-14)
            assert est.std_error == 0.0

    def test_constant_potential_scales_exactly(self):
        est0 = fk_kernel(CIRCLE, zero_potential(), point(0.0), point(1.0), 0.5, 16, 256, RngContract(3))
        estc = fk_kernel(CIRCLE, const_potential(0.4), point(0.0), point(1.0), 0.5, 16, 256, RngContract(3))
        assert estc.value == pytest.approx(math.exp(-0.4 * 0.5) * est0.value, rel=1e-14)

    def test_h3_constant_potential_factors_at_16_slices(self):
        # exact H^3 bridges run at any slice count, and a constant potential
        # only scales the kernel
        y0 = point(1.3374349463048447, 0.888105982187623, 0.0, 0.0)
        est = fk_kernel(H3K, const_potential(0.7), ORIGIN4, y0, 1.0, 16, 2000, RngContract(4))
        assert est.value == pytest.approx(math.exp(-0.7) * evaluate(H3K, 1.0, y0, ORIGIN4), rel=1e-12)

    def test_matches_oracle_entry(self):
        est = fk_kernel(CIRCLE, cos_potential(), point(0.0), point(math.pi), 1.0,
                        512, 20000, RngContract(7))
        orc = spectral_oracle(Circle(TWO_PI), 512, cos_potential(), 1.0)
        want = orc.kernel_entry(0.0, math.pi)
        assert est.value == pytest.approx(want, rel=0.02)
        assert abs(est.value - want) < 3.0 * est.std_error

    def test_two_endpoint_orders_agree(self):
        # self-adjointness: at 256 slices the leftover endpoint-weighting
        # asymmetry, of order t/n, is inside the Monte Carlo band
        a = fk_kernel(CIRCLE, cos_potential(), point(0.0), point(1.0), 0.7, 256, 20000, RngContract(31))
        b = fk_kernel(CIRCLE, cos_potential(), point(1.0), point(0.0), 0.7, 256, 20000, RngContract(32))
        gap = abs(a.value - b.value)
        assert gap < 3.0 * math.hypot(a.std_error, b.std_error)


class TestMonotonicity:
    def test_constant_gap_is_exact_ratio(self):
        rep = fk_monotonicity_check(CIRCLE, zero_potential(), const_potential(1.0),
                                    point(0.0), 0.5, 16, 512, RngContract(5))
        assert rep.passed and rep.n_violations == 0
        assert rep.estimate_low.value == pytest.approx(
            math.exp(0.5) * rep.estimate_high.value, rel=1e-14
        )

    def test_cos_versus_shifted_cos_pathwise(self):
        rep = fk_monotonicity_check(
            CIRCLE, cos_potential(),
            Potential(lambda c: np.cos(c[..., 0]) + 0.5, 1.5, name="cos+0.5"),
            point(0.0), 1.0, 64, 20000, RngContract(6),
        )
        assert rep.passed and rep.n_violations == 0
        assert rep.estimate_low.value >= rep.estimate_high.value

    def test_equal_potentials_identical_bit_for_bit(self):
        rep = fk_monotonicity_check(CIRCLE, cos_potential(), cos_potential(),
                                    point(0.0), 1.0, 32, 4096, RngContract(7))
        assert rep.passed
        assert rep.estimate_low.value == rep.estimate_high.value
        assert rep.estimate_low.std_error == rep.estimate_high.std_error

    def test_bridge_mode(self):
        rep = fk_monotonicity_check(CIRCLE, zero_potential(), const_potential(0.3),
                                    point(0.0), 0.5, 16, 1024, RngContract(8), y0=point(1.0))
        assert rep.passed
        assert rep.estimate_low.value >= rep.estimate_high.value

    def test_violated_order_rejected(self):
        with pytest.raises(ValueError):
            fk_monotonicity_check(CIRCLE, const_potential(1.0), zero_potential(),
                                  point(0.0), 0.5, 8, 256, RngContract(9))


class TestCoveringSum:
    def test_zero_potential_reduces_to_image_identity(self):
        # with exact kernels the circle value is the full image sum; the
        # W-truncated sum misses only the analytic tail
        t = 0.5
        x, y = point(1.0), point(4.0)
        circle_val = evaluate(CIRCLE, t, x, y)
        gap = y.coords[0] - x.coords[0]
        ks = np.arange(-3, 4)
        images = float(np.sum((4 * math.pi * t) ** -0.5 * np.exp(-((gap + ks * TWO_PI) ** 2) / (4 * t))))
        assert abs(circle_val - images) < 1e-10

    def test_monte_carlo_sides_agree(self):
        rep = fk_covering_sum_check(
            covering_of(Circle(TWO_PI)), cos_potential(), point(0.0), point(math.pi),
            0.5, windings=3, n_steps=32, n_samples=20000, rng=RngContract(10),
        )
        assert rep.within_tolerance, (rep.residual, rep.combined_std_error, rep.tail_bound)
        assert rep.tail_bound < 1e-6

    def test_constant_potential_scales_both_sides(self):
        r0 = fk_covering_sum_check(
            covering_of(Circle(TWO_PI)), zero_potential(), point(0.0), point(2.0),
            0.4, windings=2, n_steps=8, n_samples=2000, rng=RngContract(11),
        )
        rc = fk_covering_sum_check(
            covering_of(Circle(TWO_PI)), const_potential(0.7), point(0.0), point(2.0),
            0.4, windings=2, n_steps=8, n_samples=2000, rng=RngContract(11),
        )
        scale = math.exp(-0.7 * 0.4)
        assert rc.base_estimate.value == pytest.approx(scale * r0.base_estimate.value, rel=1e-13)
        assert rc.line_sum == pytest.approx(scale * r0.line_sum, rel=1e-13)

    def test_lifted_potential_wraps(self):
        cov = covering_of(Circle(TWO_PI))
        lifted = lifted_potential(cov, cos_potential())
        xs = np.array([[0.3], [0.3 + TWO_PI], [0.3 - 6 * TWO_PI]])
        vals = lifted(xs)
        assert vals[1] == pytest.approx(vals[0], rel=1e-12)
        assert vals[2] == pytest.approx(vals[0], rel=1e-12)


class TestSpectralOracle:
    def test_row_sums_conserve_without_potential(self):
        orc = spectral_oracle(Circle(TWO_PI), 128, zero_potential(), 1.0)
        sums = orc.semigroup @ np.ones(128)
        assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_kernel_converges_at_second_order(self):
        errs = []
        for m in (64, 128, 256):
            orc = spectral_oracle(Circle(TWO_PI), m, zero_potential(), 1.0)
            want = np.array([
                [evaluate(CIRCLE, 1.0, point(xi), point(xj)) for xj in orc.grid]
                for xi in orc.grid[:8]
            ])
            errs.append(float(np.max(np.abs(orc.kernel_matrix()[:8] - want))))
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_constant_potential_commutes(self):
        base = spectral_oracle(Circle(TWO_PI), 64, zero_potential(), 0.8)
        shifted = spectral_oracle(Circle(TWO_PI), 64, const_potential(0.9), 0.8)
        assert np.max(np.abs(shifted.semigroup - math.exp(-0.9 * 0.8) * base.semigroup)) < 1e-10

    def test_dirichlet_oracle_loses_mass(self):
        orc = spectral_oracle(DirichletInterval(math.pi), 256, zero_potential(), 1.0)
        mid = orc.index_of(orc.grid[len(orc.grid) // 2])
        got = float((orc.semigroup @ np.ones(256))[mid])
        want = dirichlet_mass_series(math.pi, 1.0, orc.grid[mid])
        assert got == pytest.approx(want, abs=1e-4)
        assert got < 1.0

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ValueError):
            spectral_oracle(Circle(1.0), 8, zero_potential(), 1.0)

    def test_off_grid_point_rejected(self):
        orc = spectral_oracle(Circle(TWO_PI), 64, zero_potential(), 1.0)
        with pytest.raises(ValueError):
            orc.index_of(0.05)


class TestStepPotential:
    def test_step_shape(self):
        v = step_potential(0.0, 1.0, 2.0)
        xs = np.array([[-0.5], [0.5], [1.5]])
        assert list(v(xs)) == [0.0, 2.0, 0.0]
        assert v.sup_bound == 2.0

    def test_discontinuous_potential_runs(self):
        est = fk_expectation(problem(potential=step_potential(0.0, 1.0, 1.0), n_samples=2000))
        assert 0.0 < est.value <= 1.0
