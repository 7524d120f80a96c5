"""Feynman-Kac estimation against the spectral oracle, the pathwise
potential-monotonicity check, and the covering image sum for the
potential-weighted kernel."""

import math

from pathkernel import (
    Circle,
    FKProblem,
    Potential,
    RngContract,
    TransitionKernel,
    constant_one,
    cos_potential,
    fk_covering_sum_check,
    fk_expectation,
    fk_kernel,
    fk_monotonicity_check,
    point,
    spectral_oracle,
)

import numpy as np

TWO_PI = 2.0 * math.pi
circle = TransitionKernel(Circle(TWO_PI))

print("== semigroup applied to g = 1 with V = cos on the circle ==")
oracle = spectral_oracle(Circle(TWO_PI), 512, cos_potential(), 1.0)
want = oracle.value_at(constant_one, 0.0)
print(f"spectral oracle (at most 512 modes):  {want:.6f}")
for n_steps in (16, 64, 256):
    prob = FKProblem(circle, cos_potential(), constant_one, point(0.0), 1.0,
                     n_steps, 100000, RngContract(42))
    est = fk_expectation(prob)
    print(f"right-endpoint rule, {n_steps:3d} slices:     {est.value:.6f} +- {est.std_error:.6f}"
          f"   (bias {est.value - want:+.2e})")
prob = FKProblem(circle, cos_potential(), constant_one, point(0.0), 1.0, 64, 100000, RngContract(42))
trap = fk_expectation(prob, rule="trapezoid")
print(f"trapezoid rule,       64 slices:     {trap.value:.6f} +- {trap.std_error:.6f}"
      f"   (bias {trap.value - want:+.2e})")

print("\n== kernel entry q_1(0, pi) by bridge sampling ==")
est = fk_kernel(circle, cos_potential(), point(0.0), point(math.pi), 1.0, 512, 20000, RngContract(7))
print(f"bridge estimate: {est.value:.6f} +- {est.std_error:.6f}")
print(f"oracle entry:    {oracle.kernel_entry(0.0, math.pi):.6f}")

print("\n== ordering of potentials is pathwise exact under common random numbers ==")
shifted = Potential(lambda c: np.cos(c[..., 0]) + 0.5, 1.5, name="cos+0.5")
rep = fk_monotonicity_check(circle, cos_potential(), shifted, point(0.0), 1.0, 64,
                            20000, RngContract(12))
print(f"violations among {rep.n_samples} samples: {rep.n_violations}")
print(f"estimates ordered: {rep.estimate_low.value:.6f} >= {rep.estimate_high.value:.6f}")

print("\n== the potential-weighted kernel is a sum over winding images ==")
report = fk_covering_sum_check(circle, cos_potential(),
                               point(0.0), point(math.pi), 0.5, windings=3,
                               n_steps=32, n_samples=20000, rng=RngContract(21))
print(f"circle kernel estimate:  {report.base_estimate.value:.6e}")
print(f"sum over |k| <= 3 lifts: {report.line_sum:.6e}")
print(f"residual {report.residual:.2e} vs 3 sigma {3*report.combined_std_error:.2e}"
      f" + winding tail {report.tail_bound:.1e}  -> within tolerance: {report.within_tolerance}")
