"""Mean displacement after time t: square-root growth in flat space
against the much faster hyperbolic growth, analytic curves reproduced by
one-step Monte Carlo."""

from pathkernel import (
    Euclidean,
    Hyperbolic3,
    RngContract,
    TransitionKernel,
    curve_to_csv,
    distance_curve,
    expected_distance_analytic,
    point,
)

print("closed forms at t = 1:")
print(f"  R^3: {expected_distance_analytic(Euclidean(3), 1.0):.9f}   (coefficient of sqrt(t))")
print(f"  H^3: {expected_distance_analytic(Hyperbolic3(), 1.0):.9f}")

print("\nboth spaces look alike as t -> 0:")
for t in (0.1, 0.01, 0.001):
    a = expected_distance_analytic(Euclidean(3), t)
    b = expected_distance_analytic(Hyperbolic3(), t)
    print(f"  t={t:<6g} R^3 {a:.6f}  H^3 {b:.6f}  gap {100*(b-a)/a:.2f}%")

print("\nMonte Carlo curve on a coarse grid (N = 50000 per point):")
grid = [0.25, 0.5, 1.0, 2.0, 4.0, 7.0]
rows_r3 = distance_curve(TransitionKernel(Euclidean(3)), point(0, 0, 0), grid, 50000, RngContract(1))
rows_h3 = distance_curve(TransitionKernel(Hyperbolic3()), point(1, 0, 0, 0), grid, 50000, RngContract(2))

print("\nR^3  " + curve_to_csv(rows_r3).replace("\n", "\nR^3  ").strip().rstrip("R^3").strip())
print("\nH^3  " + curve_to_csv(rows_h3).replace("\n", "\nH^3  ").strip().rstrip("H^3").strip())

print("\nhyperbolic dominance for t >= 0.5:")
for (t, _, mc3, _), (_, _, mch, _) in zip(rows_r3, rows_h3):
    marker = ">" if mch > mc3 else "<"
    print(f"  t={t:<5g} H^3 {mch:8.4f} {marker} R^3 {mc3:8.4f}")
