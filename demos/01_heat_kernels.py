"""Tour of the transition kernels: closed forms, masses, and the
semigroup identity checked numerically on every model space."""

import math

from pathkernel import (
    CEMETERY,
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    Hyperbolic3,
    TransitionKernel,
    chapman_kolmogorov_residuals,
    evaluate,
    point,
    total_mass,
)

origin4 = point(1.0, 0.0, 0.0, 0.0)

print("== pointwise values ==")
gauss = TransitionKernel(Euclidean(1))
print(f"flat line, t = 1/(4pi), coincidence:      {evaluate(gauss, 1/(4*math.pi), point(0.0), point(0.0)):.12f}")

cauchy = TransitionKernel(Euclidean(1), kind="cauchy")
print(f"Cauchy jump kernel at coincidence, t=1:   {evaluate(cauchy, 1.0, point(0.0), point(0.0)):.12f}  (1/pi)")

h3 = TransitionKernel(Hyperbolic3())
print(f"hyperbolic 3-space coincidence, t=1:      {evaluate(h3, 1.0, origin4, origin4):.6e}")

circle = TransitionKernel(Circle(1.0))
print(f"unit circle, t=10 (equidistributed):      {evaluate(circle, 10.0, point(0.2), point(0.9)):.12f}")

interval = TransitionKernel(DirichletInterval(math.pi))
print(f"absorbing interval (0, pi), t=1, center:  {evaluate(interval, 1.0, point(math.pi/2), point(math.pi/2)):.12f}")

print("\n== conservation ==")
for name, k, x in [
    ("flat line     ", gauss, point(0.0)),
    ("hyperbolic    ", h3, origin4),
    ("circle        ", circle, point(0.5)),
    ("interval      ", interval, point(math.pi / 2)),
]:
    print(f"{name} total mass at t=1: {total_mass(k, 1.0, x):.10f}")

comp = TransitionKernel(Compactified(DirichletInterval(math.pi)))
x = point(math.pi / 2)
print("\nthe compactified wrapper books the lost mass on a cemetery state:")
print(f"  interior survives: {total_mass(interval, 1.0, x):.6f}")
print(f"  cemetery row:      {evaluate(comp, 1.0, CEMETERY, x):.6f}")
print(f"  wrapper total:     {total_mass(comp, 1.0, x):.6f}")

print("\n== semigroup identity (Chapman-Kolmogorov residuals) ==")
cases = [
    ("flat line  ", gauss, point(0.0), point(1.0)),
    ("Cauchy     ", cauchy, point(0.0), point(2.0)),
    ("circle     ", circle, point(0.0), point(0.3)),
    ("hyperbolic ", h3, origin4, point(math.cosh(1.0), math.sinh(1.0), 0.0, 0.0)),
]
for name, k, a, b in cases:
    r = chapman_kolmogorov_residuals(k, [0.3], [0.7], [a], [b])[0]
    print(f"{name} |p_0.3 * p_0.7 - p_1.0| = {r:.2e}")
