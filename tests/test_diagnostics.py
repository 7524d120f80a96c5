import json
import math
import pathlib

import numpy as np
import pytest

from pathkernel.diagnostics import (
    brownian_dyadic_ensemble,
    curve_to_csv,
    distance_curve,
    expected_distance_analytic,
    expected_distance_mc,
    holder_exponent,
    linear_dyadic_levels,
    max_increment_stat,
    strided_dyadic_ensemble,
)
from pathkernel.heat_kernel import TransitionKernel, total_mass
from pathkernel.manifold import (
    Circle,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    point,
)
from pathkernel.rng import RngContract

CAL = json.loads((pathlib.Path(__file__).parent / "data" / "holder_calibration.json").read_text())
ORIGIN4 = point(1.0, 0.0, 0.0, 0.0)


class TestAnalyticDistance:
    def test_r3_coefficient(self):
        # 2 Gamma(2)/Gamma(3/2) = 4/sqrt(pi)
        assert expected_distance_analytic(Euclidean(3), 1.0) == pytest.approx(
            2.256758334191025, abs=1e-14
        )

    def test_r1_coefficient(self):
        assert expected_distance_analytic(Euclidean(1), 1.0) == pytest.approx(
            2.0 / math.sqrt(math.pi), abs=1e-15
        )

    def test_h3_value(self):
        want = math.exp(-1.0) * 2.0 / math.sqrt(math.pi) + math.erf(1.0) * 3.0
        got = expected_distance_analytic(Hyperbolic3(), 1.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(2.9432098762697394, abs=1e-14)

    def test_square_root_scaling(self):
        coef = expected_distance_analytic(Euclidean(4), 1.0)
        for t in (0.04, 0.3, 2.0, 9.0):
            assert expected_distance_analytic(Euclidean(4), t) == pytest.approx(
                coef * math.sqrt(t), rel=1e-14
            )

    def test_h3_dominates_r3_at_late_times(self):
        for t in (0.5, 1.0, 2.0, 4.0, 7.0):
            assert expected_distance_analytic(Hyperbolic3(), t) > expected_distance_analytic(
                Euclidean(3), t
            )

    def test_same_small_time_asymptotics(self):
        a = expected_distance_analytic(Euclidean(3), 0.01)
        b = expected_distance_analytic(Hyperbolic3(), 0.01)
        assert abs(a - b) / a < 0.01

    def test_unsupported_model(self):
        with pytest.raises(ValueError):
            expected_distance_analytic(Circle(1.0), 1.0)


class TestMcDistance:
    def test_r3_quick(self):
        est = expected_distance_mc(Euclidean(3), point(0, 0, 0), 1.0, 40000, RngContract(1))
        assert abs(est.value - 2.256758334191025) < 4.0 * est.std_error

    def test_h3_quick(self):
        est = expected_distance_mc(Hyperbolic3(), ORIGIN4, 1.0, 40000, RngContract(2))
        assert abs(est.value - 2.9432098762697394) < 4.0 * est.std_error

    def test_torus_supported(self):
        # short enough that wrapping is negligible, the torus walks like the plane
        est = expected_distance_mc(FlatTorus((1.0, 1.0)), point(0.0, 0.0), 0.002, 20000, RngContract(3))
        flat = expected_distance_analytic(Euclidean(2), 0.002)
        assert abs(est.value - flat) < 4.0 * est.std_error

    def test_curve_rows_and_csv(self):
        rows = distance_curve(TransitionKernel(Euclidean(1)), point(0.0), [0.25, 1.0], 2000, RngContract(4))
        text = curve_to_csv(rows, comment="header")
        lines = text.strip().split("\n")
        assert lines[0] == "# header"
        assert lines[1] == "t,analytic,mc,mc_stderr"
        assert len(lines) == 4
        t0, ana0, mc0, se0 = (float(v) for v in lines[2].split(","))
        assert t0 == 0.25 and ana0 == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)


class TestHolder:
    def test_linear_path_is_lipschitz(self):
        rep = holder_exponent(linear_dyadic_levels(range(4, 13)))
        assert rep.fitted_exponent == pytest.approx(1.0, abs=0.01)
        assert rep.r_squared > 0.9999

    def test_brownian_band_from_calibration(self):
        lo, hi = CAL["frozen_exponent_band"]
        rep = holder_exponent(brownian_dyadic_ensemble(200, range(4, 13), master_seed=0))
        assert lo <= rep.fitted_exponent <= hi
        assert rep.r_squared > CAL["frozen_r2_floor"]

    def test_calibration_data_matches_current_code(self):
        # re-run two of the recorded seeds; the shipped data must reproduce
        for row in (CAL["runs"][0], CAL["runs"][17]):
            rep = holder_exponent(brownian_dyadic_ensemble(200, range(4, 13), row["seed"]))
            assert rep.fitted_exponent == pytest.approx(row["fitted_exponent"], rel=1e-12)

    def test_cauchy_increments_do_not_decay(self):
        k = TransitionKernel(Euclidean(1), kind="cauchy")
        ens = strided_dyadic_ensemble(k, point(0.0), range(4, 13), 200, 3)
        rep = holder_exponent(ens)
        assert rep.fitted_exponent < 0.1
        # the largest jump survives refinement
        xi_fine = np.median(max_increment_stat(ens[12]))
        xi_coarse = np.median(max_increment_stat(ens[4]))
        assert xi_fine > 0.3 * xi_coarse

    def test_brownian_exponent_stays_below_half_plus_margin(self):
        rep = holder_exponent(brownian_dyadic_ensemble(200, range(4, 13), master_seed=29))
        assert rep.fitted_exponent < 0.55

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            holder_exponent(linear_dyadic_levels([4, 5]))

    def test_refinement_is_consistent(self):
        # coarser levels are exactly the strided fine path
        ens = brownian_dyadic_ensemble(8, [4, 5, 6], master_seed=7)
        assert np.array_equal(ens[4], ens[6][:, ::4])
        assert np.array_equal(ens[5], ens[6][:, ::2])


class TestCompleteness:
    """The mass deficit 1 - total_mass: 0 to 1e-8 on a complete model."""

    def test_flat_space_complete(self):
        k = TransitionKernel(Euclidean(2))
        worst = max(abs(1.0 - total_mass(k, t, point(0.0, 0.0))) for t in (0.1, 1.0, 10.0))
        assert worst < 1e-10

    def test_hyperbolic_complete_by_quadrature(self):
        k = TransitionKernel(Hyperbolic3())
        worst = max(abs(1.0 - total_mass(k, t, ORIGIN4)) for t in (0.1, 1.0, 10.0))
        assert worst < 1e-8

    def test_interval_incomplete_with_deficit(self):
        deficit = 1.0 - total_mass(TransitionKernel(DirichletInterval(math.pi)), 1.0, point(math.pi / 2))
        assert deficit > 1e-8
        assert deficit == pytest.approx(0.5317, abs=5e-4)
