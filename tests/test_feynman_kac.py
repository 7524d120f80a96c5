import contextlib
import dataclasses
import io
import math
import os
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from pathkernel import feynman_kac, rng
from pathkernel.cli import main
from pathkernel.diagnostics import distance_curve
from pathkernel.errors import PotentialBoundError
from pathkernel.feynman_kac import (
    ROUNDING_ULPS,
    EstimateWithError,
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
from pathkernel.heat_kernel import TransitionKernel, dirichlet_mass_arrays, evaluate
from pathkernel.manifold import (
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    Hyperbolic3,
    covering_of,
    point,
)
from pathkernel.parallel import run_blocks
from pathkernel.path_sampler import TimeGrid, sample_paths
from pathkernel.rng import RngContract

TWO_PI = 2.0 * math.pi
CIRCLE = TransitionKernel(Circle(TWO_PI))
GAUSS1 = TransitionKernel(Euclidean(1))
H3K = TransitionKernel(Hyperbolic3())
ORIGIN4 = point(1.0, 0.0, 0.0, 0.0)


def cli_outputs(args):
    """The stdout and the --out file of one in-process CLI run that exits 0."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(args + ["--out", out]) == 0
        with open(out) as fh:
            return stdout.getvalue(), fh.read()


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
        mass = float(dirichlet_mass_arrays(1.0, math.pi / 2, math.pi))
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
        # 70,000 samples are three blocks; the three estimators share the driver
        estimators = [
            lambda w: fk_expectation(problem(potential=cos_potential(), n_samples=70000), workers=w),
            lambda w: fk_kernel(CIRCLE, cos_potential(), point(0.0), point(1.0), 1.0, 16, 70000,
                                RngContract(12), workers=w),
            lambda w: fk_monotonicity_check(CIRCLE, cos_potential(), const_potential(1.0), point(0.0),
                                            1.0, 16, 70000, RngContract(13), rule="trapezoid", workers=w),
        ]
        for estimate in estimators:
            assert estimate(1) == estimate(3)

    def test_sup_bound_violation_caught(self):
        lying = Potential(lambda c: np.cos(c[..., 0]), 0.1, name="lies")
        with pytest.raises(PotentialBoundError):
            fk_expectation(problem(potential=lying, n_samples=500))

    def test_nan_potential_fails_its_sup_bound(self):
        # NaN compares False with any bound, so the check must ask |V| <= bound
        nan_past_3 = Potential(lambda c: np.where(c[..., 0] > 3.0, np.nan, 0.0), 1.0, name="nan")
        estimators = [
            lambda: fk_expectation(problem(potential=nan_past_3, x0=point(3.0), n_steps=8, n_samples=100)),
            lambda: fk_kernel(CIRCLE, nan_past_3, point(3.0), point(3.5), 1.0, 8, 100, RngContract(11)),
            lambda: fk_monotonicity_check(CIRCLE, zero_potential(), nan_past_3, point(3.0),
                                          1.0, 8, 100, RngContract(11)),
        ]
        for estimate in estimators:
            with pytest.raises(PotentialBoundError, match="nan"):
                estimate()


class TestBlocks:
    """The block size moves no bit, and a block's pass holds a few rows of
    the block at any step count."""

    ESTIMATORS = {
        "expectation-circle": lambda w: fk_expectation(
            problem(potential=cos_potential(), n_samples=41, seed=21), rule="trapezoid", workers=w),
        # killed rows carry NaN positions, and a block may hold only those
        "expectation-killed": lambda w: fk_expectation(
            problem(kernel=TransitionKernel(Compactified(DirichletInterval(math.pi))), potential=cos_potential(),
                    x0=point(0.4), t=0.5, n_samples=41, seed=22), workers=w),
        # lattice bridges with windings, projected row by row
        "kernel-circle": lambda w: fk_kernel(
            TransitionKernel(Circle(1.0)), cos_potential(), point(0.2), point(0.7), 1.0, 16, 41,
            RngContract(23), workers=w),
        "monotonicity-paths": lambda w: fk_monotonicity_check(
            CIRCLE, cos_potential(), const_potential(1.0), point(0.0), 1.0, 16, 41, RngContract(24), workers=w),
        "monotonicity-bridges": lambda w: fk_monotonicity_check(
            CIRCLE, cos_potential(), const_potential(1.0), point(0.0), 1.0, 16, 41, RngContract(25),
            y0=point(2.0), rule="trapezoid", workers=w),
        "covering-sum": lambda w: fk_covering_sum_check(
            CIRCLE, cos_potential(), point(0.0), point(math.pi), 0.5, windings=2, n_steps=16, n_samples=41,
            rng=RngContract(26), workers=w),
        # the dumped path (sample 37, in the last block) is drawn on its own
        "sample-killed": lambda w: cli_outputs(
            ["sample", "--model", "compactified:dirichlet:3.141592653589793", "--x0", "0.4", "--T", "0.5",
             "--steps", "16", "--samples", "41", "--sample-index", "37", "--seed", "27", "--workers", str(w)]),
        # windings drawn per block, before its first step
        "bridge-torus": lambda w: cli_outputs(
            ["bridge", "--model", "torus:1,2", "--x0", "0.2,0.5", "--y0", "0.7,1.5", "--T", "2",
             "--steps", "16", "--samples", "41", "--sample-index", "23", "--seed", "28", "--workers", str(w)]),
        # two t values, the jobs of one pass
        "curve-h3": lambda w: distance_curve(H3K, ORIGIN4, [0.5, 2.0], 41, RngContract(29), workers=w),
    }

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_tiny_blocks_keep_every_bit(self, monkeypatch, name):
        # 41 samples: one block at the default size, nine blocks of at most 5 at the tiny one
        estimate = self.ESTIMATORS[name]
        want = estimate(1)
        monkeypatch.setattr(feynman_kac, "BLOCK_SIZE", 5)
        for workers in (1, 2):
            assert estimate(workers) == want

    ROWS = 24  # the most rows of its block (block samples x 8 bytes on a line) a pass may hold

    @pytest.mark.parametrize("run, block", [
        (lambda: fk_expectation(problem(potential=cos_potential(), n_steps=64, n_samples=32768, seed=3),
                                rule="trapezoid"), 32768),
        (lambda: fk_expectation(problem(potential=cos_potential(), n_steps=512, n_samples=16384, seed=3),
                                rule="trapezoid"), 16384),
        (lambda: cli_outputs(["sample", "--model", "circle:1.0", "--x0", "0", "--T", "1", "--steps", "4096",
                              "--samples", "2048", "--seed", "3"]), 2048),
    ], ids=["64-slices", "512-slices", "long-sample"])
    def test_traced_peak_is_bounded(self, monkeypatch, run, block):
        # the traced peak of the blocks' pass over what was live before it; the
        # dumped path of ``sample`` is one sample's whole path, drawn after the pass
        grown = []

        def traced(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            parts = run_blocks(*args, **kwargs)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            return parts

        run()  # first-call allocations are not the run's
        monkeypatch.setattr(feynman_kac, "run_blocks", traced)
        tracemalloc.start()
        try:
            run()
        finally:
            tracemalloc.stop()
        assert len(grown) == 1
        assert grown[0] < self.ROWS * block * 8

    def test_traced_peak_is_bounded_without_the_kernel(self, monkeypatch):
        # a host without cc draws its uniforms and normals in numpy: the 64-slice pass, under the same bound
        monkeypatch.setattr(rng, "_kernel", lambda: None)
        self.test_traced_peak_is_bounded(
            monkeypatch, lambda: fk_expectation(problem(potential=cos_potential(), n_steps=64, n_samples=32768, seed=3),
                                                rule="trapezoid"), 32768)


def sequential_weights(positions, potential, t, rule):
    """exp(-Riemann sum) per path from the whole path tensor, summed in time order."""
    v = potential(positions)
    tau = t / (v.shape[1] - 1)
    inner = v[:, 1]
    for j in range(2, v.shape[1] - 1):
        inner = inner + v[:, j]
    if rule == "right":
        return np.exp(-(tau * (inner + v[:, -1])))
    return np.exp(-(tau * (0.5 * v[:, 0] + inner + 0.5 * v[:, -1])))


class TestSumOrder:
    """Each path's Riemann sum is taken in time order, as ``fk_expectation`` documents."""

    N, SEED = 1000, 34  # a seed at which numpy's pairwise row sum gives other bits under both rules
    GRID = TimeGrid.uniform(1.0, 64)

    def paths(self):
        return sample_paths(CIRCLE, point(0.0), self.GRID, self.SEED, self.N).positions

    @pytest.mark.parametrize("rule", ["right", "trapezoid"])
    def test_expectation_sums_in_time_order(self, rule):
        weights = sequential_weights(self.paths(), cos_potential(), 1.0, rule)
        got = fk_expectation(problem(potential=cos_potential(), n_steps=64, n_samples=self.N, seed=self.SEED),
                             rule=rule)
        assert got == EstimateWithError.of(weights)

    def test_monotonicity_sums_in_time_order(self):
        rep = fk_monotonicity_check(CIRCLE, cos_potential(), const_potential(1.0), point(0.0), 1.0, 64, self.N,
                                    RngContract(self.SEED), rule="trapezoid")
        pos = self.paths()
        assert rep.estimate_low == EstimateWithError.of(sequential_weights(pos, cos_potential(), 1.0, "trapezoid"))
        assert rep.estimate_high == EstimateWithError.of(
            sequential_weights(pos, const_potential(1.0), 1.0, "trapezoid"))


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

    def test_trapezoid_rule_changes_both_values_and_keeps_order(self):
        args = (CIRCLE, cos_potential(), Potential(lambda c: np.cos(c[..., 0]) + 0.5, 1.5, name="cos+0.5"),
                point(0.0), 1.0, 16, 4096, RngContract(6))
        right = fk_monotonicity_check(*args)
        trap = fk_monotonicity_check(*args, rule="trapezoid")
        assert trap.passed and trap.estimate_low.value >= trap.estimate_high.value
        assert trap.estimate_low.value != right.estimate_low.value
        assert trap.estimate_high.value != right.estimate_high.value

    def test_nonnegative_terminal_is_honoured(self):
        # same paths, same weights: each side is the expectation with that terminal
        g = step_potential(0.0, 0.5, 1.0)
        rep = fk_monotonicity_check(CIRCLE, zero_potential(), const_potential(1.0), point(0.0),
                                    0.5, 16, 4096, RngContract(5), terminal=g)
        assert rep.passed
        assert rep.estimate_low == fk_expectation(problem(t=0.5, n_samples=4096, seed=5, terminal=g))
        assert rep.estimate_high == fk_expectation(problem(potential=const_potential(1.0), t=0.5,
                                                           n_samples=4096, seed=5, terminal=g))
        with pytest.raises(ValueError, match="nonnegative"):
            fk_monotonicity_check(CIRCLE, zero_potential(), const_potential(1.0), point(0.0),
                                  0.5, 16, 4096, RngContract(5), terminal=cos_potential())
        with pytest.raises(ValueError, match="bridge"):
            fk_monotonicity_check(CIRCLE, zero_potential(), const_potential(1.0), point(0.0),
                                  0.5, 16, 4096, RngContract(5), y0=point(1.0), terminal=g)

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
            CIRCLE, cos_potential(), point(0.0), point(math.pi),
            0.5, windings=3, n_steps=32, n_samples=20000, rng=RngContract(10),
        )
        assert rep.within_tolerance, (rep.residual, rep.combined_std_error, rep.tail_bound)
        assert rep.tail_bound < 1e-6

    def test_constant_potential_scales_both_sides(self):
        r0 = fk_covering_sum_check(
            CIRCLE, zero_potential(), point(0.0), point(2.0),
            0.4, windings=2, n_steps=8, n_samples=2000, rng=RngContract(11),
        )
        rc = fk_covering_sum_check(
            CIRCLE, const_potential(0.7), point(0.0), point(2.0),
            0.4, windings=2, n_steps=8, n_samples=2000, rng=RngContract(11),
        )
        scale = math.exp(-0.7 * 0.4)
        assert rc.base_estimate.value == pytest.approx(scale * r0.base_estimate.value, rel=1e-13)
        assert rc.line_sum == pytest.approx(scale * r0.line_sum, rel=1e-13)

    @pytest.mark.parametrize("potential, t, length, y", [
        (zero_potential(), 2.0, TWO_PI, 3.14159265), (const_potential(0.7), 2.0, TWO_PI, 3.14159265),
        (zero_potential(), 1000.0, TWO_PI, 3.14159265), (zero_potential(), 1e5, TWO_PI, 3.14159265),
        (zero_potential(), 1e6, TWO_PI, 3.14159265), (zero_potential(), 1e6, 0.3, 0.1),
        (zero_potential(), 1e7, 1.0, 0.5),
    ], ids=["zero-t2", "const-t2", "zero-t1000", "zero-t1e5", "zero-t1e6", "zero-t1e6-L0.3", "zero-t1e7-L1"])
    def test_constant_weights_pass_up_to_rounding(self, potential, t, length, y):
        # every path carries one weight, so the sides differ by rounding and
        # by the tail, which at long t spans thousands of images; the tail is
        # summed exactly, so the allowance is a few ulps and half an ulp per
        # line term
        rep = fk_covering_sum_check(
            TransitionKernel(Circle(length)), potential, point(0.0), point(y),
            t, windings=3, n_steps=4, n_samples=2000, rng=RngContract(1729),
        )
        assert rep.within_tolerance, (rep.residual, rep.combined_std_error, rep.tail_bound, rep.rounding)
        scale = sys.float_info.epsilon * (rep.base_estimate.value + rep.line_sum)
        assert rep.rounding == (ROUNDING_ULPS + 0.5 * 7) * scale
        # a line sum that lacks its k = 0 term fails
        term = evaluate(TransitionKernel(Euclidean(1)), t, point(y), point(0.0)) * math.exp(
            -potential.sup_bound * t)
        short = dataclasses.replace(rep, line_sum=rep.line_sum - term,
                                    residual=abs(rep.base_estimate.value - rep.line_sum + term))
        assert not short.within_tolerance

    def test_lifted_potential_wraps(self):
        cov = covering_of(Circle(TWO_PI))
        lifted = lifted_potential(cov, cos_potential())
        xs = np.array([[0.3], [0.3 + TWO_PI], [0.3 - 6 * TWO_PI]])
        vals = lifted(xs)
        assert vals[1] == pytest.approx(vals[0], rel=1e-12)
        assert vals[2] == pytest.approx(vals[0], rel=1e-12)


class TestSpectralOracle:
    # the finite-difference oracle this one replaced, on the same problem
    # (circle 2 pi, cos, t = 1, x0 = 0): second order in the mesh
    FD_COS = {512: 0.5617919342534312, 2048: 0.5617927325900447}

    def test_circle_conserves_without_potential(self):
        orc = spectral_oracle(Circle(TWO_PI), 128, zero_potential(), 1.0)
        for x0 in (0.0, 0.05, 2.5):
            assert orc.value_at(constant_one, x0) == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("model", [Circle(TWO_PI), DirichletInterval(math.pi)], ids=["circle", "interval"])
    def test_constant_potential_factors_out(self, model):
        base = spectral_oracle(model, 64, zero_potential(), 0.8)
        shifted = spectral_oracle(model, 64, const_potential(0.9), 0.8)
        factor = math.exp(-0.9 * 0.8)
        for x0, y0 in ((0.3, 1.7), (2.0, 2.9)):
            want = factor * base.value_at(cos_potential(), x0)
            assert shifted.value_at(cos_potential(), x0) == pytest.approx(want, rel=0.0, abs=1e-12)
            want = factor * base.kernel_entry(x0, y0)
            assert shifted.kernel_entry(x0, y0) == pytest.approx(want, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("model", [Circle(TWO_PI), DirichletInterval(math.pi)], ids=["circle", "interval"])
    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
    def test_free_kernel_entries_are_the_density(self, model, t):
        kernel = TransitionKernel(model)
        orc = spectral_oracle(model, 512, zero_potential(), t)
        for x0, y0 in ((0.05, 0.05), (0.3, 1.234), (1.0, 3.0), (3.1, 0.01)):
            want = evaluate(kernel, t, point(x0), point(y0))
            assert orc.kernel_entry(x0, y0) == pytest.approx(want, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.99, 2.0])
    @pytest.mark.parametrize("x0", [1e-9, 0.3, math.pi / 2, math.pi - 1e-6])
    def test_interval_survival_mass(self, t, x0):
        orc = spectral_oracle(DirichletInterval(math.pi), 512, zero_potential(), t)
        want = float(dirichlet_mass_arrays(t, x0, math.pi))
        assert orc.value_at(constant_one, x0) == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_compactified_oracle_is_the_interval_oracle(self):
        interval = spectral_oracle(DirichletInterval(math.pi), 256, cos_potential(), 1.0)
        killed = spectral_oracle(Compactified(DirichletInterval(math.pi)), 256, cos_potential(), 1.0)
        assert killed.value_at(cos_potential(), 1.0) == interval.value_at(cos_potential(), 1.0)
        assert killed.kernel_entry(0.5, 2.0) == interval.kernel_entry(0.5, 2.0)

    def test_too_few_modes_rejected(self):
        with pytest.raises(ValueError, match="at least 16"):
            spectral_oracle(Circle(1.0), 8, zero_potential(), 1.0)
        spectral_oracle(Circle(1.0), 16, zero_potential(), 1.0)

    def test_off_grid_point_is_evaluated(self):
        # no grid: with V = 0 the semigroup damps cos by e^(-t) at any point
        orc = spectral_oracle(Circle(TWO_PI), 64, zero_potential(), 1.0)
        assert orc.value_at(cos_potential(), 0.05) == pytest.approx(math.exp(-1.0) * math.cos(0.05), abs=1e-12)

    def test_point_off_the_domain_rejected(self):
        orc = spectral_oracle(DirichletInterval(math.pi), 64, zero_potential(), 1.0)
        with pytest.raises(ValueError, match="open interval"):
            orc.value_at(constant_one, 4.0)
        with pytest.raises(ValueError, match="open interval"):
            orc.kernel_entry(1.0, 0.0)

    def test_cos_settles_by_64_modes_and_matches_the_extrapolated_fd_values(self, monkeypatch):
        law = type(CIRCLE._law)
        modes, basis = [], law.oracle_basis
        monkeypatch.setattr(law, "oracle_basis", lambda self, n: modes.append(n) or basis(self, n))
        got = spectral_oracle(Circle(TWO_PI), 512, cos_potential(), 1.0).value_at(constant_one, 0.0)
        assert modes[-1] <= 64 and modes == sorted(modes)
        fd_error = self.FD_COS[2048] - got
        # the FD values sit 16 times farther off at 4 times the mesh, as O(h^2) has it
        assert (self.FD_COS[512] - got) / fd_error == pytest.approx(16.0, rel=1e-3)
        assert abs(fd_error) < 6e-8

    def test_step_converges_to_its_cap(self):
        values = [spectral_oracle(Circle(TWO_PI), m, step_potential(1.0, 2.0, 1.0), 1.0).value_at(constant_one, 0.0)
                  for m in (128, 256, 512)]
        assert abs(values[2] - values[1]) < abs(values[1] - values[0]) < 1e-6

    @pytest.mark.parametrize("model", [Circle(TWO_PI), Circle(1.3), DirichletInterval(2.0)],
                             ids=["circle", "short-circle", "interval"])
    @pytest.mark.parametrize("n", [16, 17])
    def test_matrix_and_coefficients_match_quadrature(self, model, n):
        # a smooth V that is symmetric about no point of [0, L], so every block
        # of the cos/sin matrix is nonzero; the midpoint rule errs by O(h^2)
        pot = Potential(lambda c: 2.0 * np.cos(1.7 * c[..., 0]) + 0.5, 2.5,
                        pieces=((-math.inf, math.inf, 2.0, 1.7), (-math.inf, math.inf, 0.5, 0.0)))
        basis = TransitionKernel(model)._law.oracle_basis(n)
        f_hat = feynman_kac._transform(pot, basis, 64)
        x = (np.arange(20000) + 0.5) * (basis.length / 20000)
        phi = np.array([basis.values(xi) for xi in x]) * math.sqrt(basis.length / 20000)
        np.testing.assert_allclose(basis.matrix(f_hat), phi.T @ (pot(x[:, None])[:, None] * phi), rtol=0.0, atol=1e-7)
        want = phi.T @ (pot(x[:, None]) * math.sqrt(basis.length / 20000))
        np.testing.assert_allclose(basis.coefficients(f_hat), want, rtol=0.0, atol=1e-7)

    def test_pieces_are_the_evaluators(self):
        x = np.linspace(-1.0, 8.0, 901)
        for pot in (zero_potential(), const_potential(-0.7), cos_potential(), step_potential(1.0, 2.0, 1.5)):
            total = sum(value * np.cos(freq * x) * ((x >= lo) & (x < hi)) for lo, hi, value, freq in pot.pieces)
            np.testing.assert_allclose(pot(x[:, None]), total + 0.0 * x, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("model, tol", [(Circle(TWO_PI), 1e-13), (DirichletInterval(math.pi), 1e-5)],
                             ids=["circle", "interval"])
    def test_a_callable_without_pieces_is_sampled(self, model, tol):
        # the midpoint rule is exact for cos on the circle, O(m^-2) on the interval
        sampled = Potential(lambda c: np.cos(c[..., 0]), 1.0)
        want = spectral_oracle(model, 128, cos_potential(), 1.0).value_at(constant_one, 1.0)
        got = spectral_oracle(model, 128, sampled, 1.0).value_at(lambda c: np.ones(c.shape[:-1]), 1.0)
        assert got == pytest.approx(want, rel=0.0, abs=tol)


class TestStepPotential:
    def test_step_shape(self):
        v = step_potential(0.0, 1.0, 2.0)
        xs = np.array([[-0.5], [0.5], [1.5]])
        assert list(v(xs)) == [0.0, 2.0, 0.0]
        assert v.sup_bound == 2.0

    def test_discontinuous_potential_runs(self):
        est = fk_expectation(problem(potential=step_potential(0.0, 1.0, 1.0), n_samples=2000))
        assert 0.0 < est.value <= 1.0
