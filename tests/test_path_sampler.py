import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

import pathkernel.path_sampler as ps
from pathkernel import rng
from pathkernel.diagnostics import expected_distance_analytic
from pathkernel.errors import NonFiniteSampleError, PathkernelError, StepTooLargeError
from pathkernel.heat_kernel import (
    TransitionKernel,
    dirichlet_mass_arrays,
    dirichlet_survival_ratio,
    evaluate,
    h3_profile,
)
from pathkernel.manifold import (
    Circle,
    Compactified,
    DirichletInterval,
    Euclidean,
    FlatTorus,
    Hyperbolic3,
    covering_of,
    distance_arrays,
    exp_point_arrays,
    point,
    project_arrays,
)
from pathkernel.path_sampler import (
    NEVER_KILLED,
    Path,
    PathEnsemble,
    TimeGrid,
    bridge_total_mass,
    lift_path,
    path_to_csv,
    project_path,
    sample_bridges,
    sample_paths,
)
from pathkernel.rng import StreamCursor, box_muller, cos_sin_2pi

from stat_helpers import (
    bin_counts,
    cauchy_bin_probs,
    chi2_statistic,
    chi2_threshold,
    circle_bin_probs,
    gaussian_bin_probs,
    h3_bridge_midpoint_mean,
    h3_radial_bin_probs,
)

GAUSS1 = TransitionKernel(Euclidean(1))
CIRC1 = TransitionKernel(Circle(1.0))
H3K = TransitionKernel(Hyperbolic3())
CAUCHY = TransitionKernel(Euclidean(1), kind="cauchy")
KILLED = TransitionKernel(Compactified(DirichletInterval(math.pi)))
ORIGIN4 = point(1.0, 0.0, 0.0, 0.0)


def h3_point(base, direction, r):
    d = np.asarray(direction, dtype=np.float64)
    return exp_point_arrays(np.asarray(base, dtype=np.float64), d / np.linalg.norm(d), r)


# off the origin and off the axes, so bridge steps use the transported frame
H3_OFF = h3_point(ORIGIN4.coords, [0.3, -0.5, 0.8], 0.7)


def stacked(rows):
    """A law's rows as one (n, m+1, d) position array."""
    return np.stack(list(rows), axis=1)


class TestTimeGridAndPath:
    def test_uniform_grid(self):
        g = TimeGrid.uniform(2.0, 4)
        assert g.times == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert g.horizon == 2.0 and g.n_steps == 4

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid((0.0,))
        with pytest.raises(ValueError):
            TimeGrid((0.1, 0.5))
        with pytest.raises(ValueError):
            TimeGrid((0.0, 0.5, 0.5))

    def test_path_kill_consistency(self):
        g = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError):
            Path(g, (point(0.0), point(1.0), ps.CEMETERY), kill_index=None)


class TestFreePaths:
    @pytest.mark.parametrize("kernel,x0", [
        (GAUSS1, point(0.0)),
        (CIRC1, point(0.3)),
        (H3K, ORIGIN4),
        (CAUCHY, point(1.0)),
        (KILLED, point(1.5)),
    ], ids=["gauss", "circle", "h3", "cauchy", "killed"])
    def test_starts_at_x0(self, kernel, x0):
        p = sample_paths(kernel, x0, TimeGrid.uniform(0.5, 4), 11, 1, first_index=3).path(0)
        assert p.points[0] == x0

    @pytest.mark.parametrize("kernel,x0", [
        (GAUSS1, point(0.0)),
        (CIRC1, point(0.3)),
        (H3K, ORIGIN4),
        (KILLED, point(1.5)),
    ], ids=["gauss", "circle", "h3", "killed"])
    def test_single_sample_is_ensemble_row(self, kernel, x0):
        grid = TimeGrid.uniform(0.8, 5)
        ens = sample_paths(kernel, x0, grid, 123, 16)
        for i in (0, 7, 15):
            solo = sample_paths(kernel, x0, grid, 123, 1, first_index=i).path(0)
            assert solo.kill_index == (None if ens.kill_step[i] == NEVER_KILLED else ens.kill_step[i])
            for a, b in zip(solo.points, ens.path(i).points):
                assert a == b

    def test_endpoint_variance(self):
        ens = sample_paths(GAUSS1, point(0.0), TimeGrid.uniform(1.0, 1), 2024, 100000)
        v = float(np.var(ens.positions[:, -1, 0], ddof=1))
        assert v == pytest.approx(2.0, abs=0.03)

    def test_circle_long_time_uniform(self):
        n = 10000
        ens = sample_paths(CIRC1, point(0.0), TimeGrid.uniform(10.0, 8), 5, n)
        x = np.sort(ens.positions[:, -1, 0])
        emp = np.arange(1, n + 1) / n
        d = float(np.max(np.maximum(np.abs(emp - x), np.abs(emp - 1.0 / n - x))))
        assert d < 1.63 / math.sqrt(n)

    def test_survival_matches_mass(self):
        n = 100000
        ens = sample_paths(KILLED, point(math.pi / 2), TimeGrid.uniform(1.0, 32), 31, n)
        mass = float(dirichlet_mass_arrays(1.0, math.pi / 2, math.pi))
        got = ens.survival_fraction()
        assert abs(got - mass) < 3.0 * math.sqrt(mass * (1.0 - mass) / n)

    def test_survival_matches_mass_above_the_switch(self):
        # steps of length 2 > L^2/pi^2 = 1 take the eigen-series quotient
        n = 100000
        ens = sample_paths(KILLED, point(1.0), TimeGrid.uniform(4.0, 2), 41, n)
        mass = float(dirichlet_mass_arrays(4.0, 1.0, math.pi))
        got = ens.survival_fraction()
        assert abs(got - mass) < 3.0 * math.sqrt(mass * (1.0 - mass) / n)

    def test_kill_accounting_at_interior_time(self):
        n = 50000
        grid = TimeGrid.uniform(1.0, 10)
        ens = sample_paths(KILLED, point(1.0), grid, 17, n)
        # survival by grid time 0.4 (step index 4)
        alive = float(np.mean((ens.kill_step == NEVER_KILLED) | (ens.kill_step > 4)))
        mass = float(dirichlet_mass_arrays(0.4, 1.0, math.pi))
        assert abs(alive - mass) < 3.0 * math.sqrt(mass * (1.0 - mass) / n)

    def test_killed_positions_are_nan_and_cemetery(self):
        ens = sample_paths(KILLED, point(0.2), TimeGrid.uniform(2.0, 6), 3, 200)
        killed = np.nonzero(ens.kill_step != NEVER_KILLED)[0]
        assert killed.size > 0
        i = int(killed[0])
        k = int(ens.kill_step[i])
        assert np.all(np.isnan(ens.positions[i, k:, 0]))
        p = ens.path(i)
        assert p.kill_index == k and p.points[k].cemetery

    def test_bare_interval_needs_compactified(self):
        with pytest.raises(ValueError):
            sample_paths(TransitionKernel(DirichletInterval(1.0)), point(0.5),
                         TimeGrid.uniform(1.0, 2), 0, 4)


class TestOneStepMarginals:
    """chi^2 at the 1% level on 64 cells, N = 1e5: the n = 1 case of the
    finite-dimensional product law."""

    N = 100000

    def test_gaussian(self):
        ens = sample_paths(GAUSS1, point(0.4), TimeGrid.uniform(0.7, 1), 101, self.N)
        edges, probs = gaussian_bin_probs(0.7, 0.4)
        stat = chi2_statistic(bin_counts(ens.positions[:, -1, 0], edges), probs, self.N)
        assert stat < chi2_threshold(len(probs))

    def test_circle(self):
        ens = sample_paths(CIRC1, point(0.25), TimeGrid.uniform(0.08, 1), 102, self.N)
        edges, probs = circle_bin_probs(0.08, 0.25, 1.0, CIRC1.truncation)
        stat = chi2_statistic(bin_counts(ens.positions[:, -1, 0], edges), probs, self.N)
        assert stat < chi2_threshold(len(probs))

    def test_cauchy(self):
        ens = sample_paths(CAUCHY, point(-1.0), TimeGrid.uniform(0.5, 1), 103, self.N)
        edges, probs = cauchy_bin_probs(0.5, -1.0)
        stat = chi2_statistic(bin_counts(ens.positions[:, -1, 0], edges), probs, self.N)
        assert stat < chi2_threshold(len(probs))

    def test_hyperbolic_radial(self):
        ens = sample_paths(H3K, ORIGIN4, TimeGrid.uniform(0.6, 1), 104, self.N)
        r = distance_arrays(Hyperbolic3(), ens.positions[:, -1, :], np.array([1.0, 0, 0, 0]))
        edges, probs = h3_radial_bin_probs(0.6)
        stat = chi2_statistic(bin_counts(r, edges), probs, self.N)
        assert stat < chi2_threshold(len(probs))

    def test_killed_survivor_density(self):
        from pathkernel.heat_kernel import dirichlet_kernel_arrays
        from stat_helpers import _bin_masses

        t, x0 = 0.8, 1.1
        ens = sample_paths(KILLED, point(x0), TimeGrid.uniform(t, 1), 105, self.N)
        alive = ens.positions[:, -1, 0]
        alive = alive[np.isfinite(alive)]
        edges = np.linspace(0.0, math.pi, 33)
        probs = _bin_masses(
            lambda y: dirichlet_kernel_arrays(t, np.broadcast_to(x0, y.shape), y,
                                              math.pi, KILLED.truncation),
            edges,
        )
        probs /= probs.sum()
        stat = chi2_statistic(bin_counts(alive, edges), probs, len(alive))
        assert stat < chi2_threshold(len(probs))


class TestTwoStepConsistency:
    """Two half steps and one full step give the same endpoint law
    (empirical Chapman-Kolmogorov, two-sample KS at 1%)."""

    N = 100000

    @pytest.mark.parametrize("kernel,x0", [(GAUSS1, point(0.0)), (CIRC1, point(0.5))],
                             ids=["gauss", "circle"])
    def test_ks(self, kernel, x0):
        one = sample_paths(kernel, x0, TimeGrid.uniform(0.3, 1), 7, self.N)
        two = sample_paths(kernel, x0, TimeGrid.uniform(0.3, 2), 8, self.N)
        res = ks_2samp(one.positions[:, -1, 0], two.positions[:, -1, 0])
        assert res.pvalue > 0.01

    def test_h3_radial_ks(self):
        one = sample_paths(H3K, ORIGIN4, TimeGrid.uniform(0.5, 1), 9, 40000)
        two = sample_paths(H3K, ORIGIN4, TimeGrid.uniform(0.5, 2), 10, 40000)
        r1 = distance_arrays(Hyperbolic3(), one.positions[:, -1, :], np.array([1.0, 0, 0, 0]))
        r2 = distance_arrays(Hyperbolic3(), two.positions[:, -1, :], np.array([1.0, 0, 0, 0]))
        assert ks_2samp(r1, r2).pvalue > 0.01


class TestOccupation:
    def test_fraction_scales_linearly_in_width(self):
        # started away from the window, the expected fraction of grid
        # times inside a width-w window decays like w
        ens = sample_paths(GAUSS1, point(1.0), TimeGrid.uniform(1.0, 1000), 55, 10000)
        x = ens.positions[:, :, 0]
        fracs = [float(np.mean(np.abs(x) < w / 2.0)) for w in (0.1, 0.01, 0.001)]
        assert fracs[0] > fracs[1] > fracs[2] > 0.0
        assert 1.0 / 20.0 < fracs[1] / fracs[0] < 1.0 / 3.0
        assert 1.0 / 20.0 < fracs[2] / fracs[1] < 1.0 / 3.0


class TestBridges:
    def test_endpoint_pinned_exactly(self):
        grid = TimeGrid.uniform(1.0, 8)
        for kernel, x0, y0 in [
            (GAUSS1, point(0.0), point(1.25)),
            (CIRC1, point(0.1), point(0.7)),
            (H3K, ORIGIN4, point(math.cosh(0.8), math.sinh(0.8), 0.0, 0.0)),
        ]:
            ens = sample_bridges(kernel, x0, y0, grid, 21, 50)
            assert np.all(ens.positions[:, -1, :] == np.asarray(y0.coords))
            assert np.all(ens.positions[:, 0, :] == np.asarray(x0.coords))

    def test_single_bridge_is_ensemble_row(self):
        grid = TimeGrid.uniform(0.5, 6)
        ens = sample_bridges(CIRC1, point(0.2), point(0.9), grid, 77, 8)
        solo = sample_bridges(CIRC1, point(0.2), point(0.9), grid, 77, 1, first_index=5).path(0)
        for a, b in zip(solo.points, ens.path(5).points):
            assert a == b

    def test_euclidean_midpoint_variance(self):
        ens = sample_bridges(GAUSS1, point(0.0), point(0.0), TimeGrid.uniform(1.0, 2), 300, 100000)
        v = float(np.var(ens.positions[:, 1, 0], ddof=1))
        assert v == pytest.approx(0.5, abs=0.01)

    def test_circle_winding_frequencies(self):
        n = 50000
        horizon = 0.5
        ens = sample_bridges(CIRC1, point(0.0), point(0.0), TimeGrid.uniform(horizon, 4), 44, n)
        ks = np.arange(-8, 9)
        w = np.exp(-((ks * 1.0) ** 2) / (4.0 * horizon))
        w /= w.sum()
        for k, pk in zip(ks, w):
            if n * pk < 5:
                continue
            obs = int(np.sum(ens.windings[:, 0] == k))
            band = 3.0 * math.sqrt(n * pk * (1.0 - pk))
            assert abs(obs - n * pk) <= band, f"winding {k}: {obs} vs {n * pk:.1f} +- {band:.1f}"

    def test_bridge_mass_is_kernel_value(self):
        assert bridge_total_mass(GAUSS1, point(0.0), point(0.0), 1.0 / (4 * math.pi)) == pytest.approx(1.0, abs=1e-14)
        assert bridge_total_mass(CIRC1, point(0.0), point(0.5), 0.1) == evaluate(CIRC1, 0.1, point(0.5), point(0.0))
        assert bridge_total_mass(H3K, ORIGIN4, ORIGIN4, 1.0) == pytest.approx(8.25830126612423e-3, rel=1e-12)

    def test_h3_bridge_midtime_marginal(self):
        # quadrature oracle for E[rho(x0, w(T/2))] under the normalized bridge:
        # the angular reduction leaves a 1-d radial density
        T = 1.0
        d = 0.8
        y0 = point(math.cosh(d), math.sinh(d), 0.0, 0.0)
        s = T / 2.0
        r = np.linspace(1e-9, 12.0, 400001)
        dens = r * np.exp(-r * r / (4.0 * s)) * (
            np.exp(-((d - r) ** 2) / (4.0 * s)) - np.exp(-((d + r) ** 2) / (4.0 * s))
        )
        want = float(np.trapezoid(r * dens, r) / np.trapezoid(dens, r))
        n = 20000
        ens = sample_bridges(H3K, ORIGIN4, y0, TimeGrid.uniform(T, 2), 91, n)
        rho = distance_arrays(Hyperbolic3(), ens.positions[:, 1, :], np.array([1.0, 0, 0, 0]))
        se = float(np.std(rho, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(rho)) - want) < 4.0 * se

    @pytest.mark.parametrize("steps", [4, 16])
    def test_h3_bridge_multistep_midtime_marginal(self, steps):
        # the exact bridge composes: the midpoint of a finer grid has the
        # same law as in test_h3_bridge_midtime_marginal
        T, d = 1.0, 0.8
        n = 100000
        y0 = point(math.cosh(d), math.sinh(d), 0.0, 0.0)
        ens = sample_bridges(H3K, ORIGIN4, y0, TimeGrid.uniform(T, steps), 91, n)
        rho = distance_arrays(Hyperbolic3(), ens.positions[:, steps // 2, :], np.array([1.0, 0, 0, 0]))
        se = float(np.std(rho, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(rho)) - h3_bridge_midpoint_mean(T, d)) < 4.0 * se

    @pytest.mark.parametrize("steps", [2, 4])
    @pytest.mark.parametrize("x0, y0, T", [
        (H3_OFF, H3_OFF, 2.0),
        (H3_OFF, h3_point(H3_OFF, [-0.2, 0.9, 0.4], 2.0), 0.5),
        (np.asarray(ORIGIN4.coords), h3_point(ORIGIN4.coords, [1.0, 0.0, 0.0], 0.8), 1.0),
    ], ids=["loop", "distance-2", "distance-0.8"])
    def test_h3_bridge_midpoint_matches_reweighted_free_step(self, x0, y0, T, steps):
        # the bridge midpoint has density ~ p_{T/2}(x0, z) p_{T/2}(z, y0):
        # free one-step samples weighted by p_{T/2}(z, y0) are the reference
        n = 100000
        h3 = Hyperbolic3()

        def stats(z):
            return np.column_stack([z[:, 1], z[:, 2], z[:, 3], z[:, 3] ** 2,
                                    distance_arrays(h3, z, x0), distance_arrays(h3, z, y0)])

        ens = sample_bridges(H3K, point(*x0), point(*y0), TimeGrid.uniform(T, steps), 2024, n)
        got = stats(ens.positions[:, steps // 2])
        free = sample_paths(H3K, point(*x0), TimeGrid.uniform(T / 2.0, 1), 2025, n).positions[:, 1]
        w = h3_profile(T / 2.0, distance_arrays(h3, free, y0))
        w = w / np.sum(w)
        ref = stats(free)
        want = np.sum(w[:, None] * ref, axis=0)
        se_want = np.sqrt(np.sum(w[:, None] ** 2 * (ref - want) ** 2, axis=0))
        se_got = np.std(got, axis=0, ddof=1) / math.sqrt(n)
        z = (np.mean(got, axis=0) - want) / np.hypot(se_got, se_want)
        assert np.all(np.abs(z) < 4.0), z

    def test_circle_bridge_past_the_image_budget_draws_one_normal_winding(self):
        # at T = 1e12 the winding weights would span 2.5e7 images; the winding
        # is rint(-gap/L + sqrt(2T/L^2 - 1/12) z) of one normal z (2 slots) instead
        n = 64
        cursor = StreamCursor(0, np.arange(n, dtype=np.uint64))
        rows, windings = CIRC1._law.bridges(cursor, np.array([0.0]), np.array([0.25]), (0.0, 1e12))
        assert cursor.pos.tolist() == [2] * n
        z = StreamCursor(0, np.arange(n, dtype=np.uint64)).normals(1)[:, 0]
        assert windings[:, 0].tolist() == np.rint(-0.25 + math.sqrt(2e12 - 1.0 / 12.0) * z).astype(np.int64).tolist()
        assert np.all(stacked(rows)[:, -1, 0] == 0.25)

    def test_unsupported_bridges(self):
        g = TimeGrid.uniform(1.0, 2)
        with pytest.raises(ValueError):
            sample_bridges(TransitionKernel(DirichletInterval(1.0)), point(0.3), point(0.5), g, 0, 2)
        with pytest.raises(ValueError):
            sample_bridges(KILLED, point(0.3), point(0.5), g, 0, 2)
        with pytest.raises(ValueError):
            sample_bridges(CAUCHY, point(0.0), point(1.0), g, 0, 2)


class TestCoveringPaths:
    COV = covering_of(Circle(1.0))

    def test_constant_path_round_trip(self):
        g = TimeGrid.uniform(1.0, 3)
        tilde = Path(g, tuple(point(2.5) for _ in g.times))
        base = project_path(self.COV, tilde)
        assert all(p.coords == (0.5,) for p in base.points)
        lifted = lift_path(self.COV, base, point(2.5))
        assert all(p.coords == (2.5,) for p in lifted.points)

    def test_lift_after_project_is_identity(self):
        # reducing into the box and shifting back can cost bits below
        # ulp(1) when a small coordinate absorbs a lattice shift, so the
        # round trip is exact to 2 ulp of the shifted magnitude
        grid = TimeGrid.uniform(0.25, 64)
        ens = sample_paths(TransitionKernel(Euclidean(1)), point(0.25), grid, 13, 100)
        assert float(np.max(np.abs(np.diff(ens.positions[:, :, 0], axis=1)))) < 0.5
        for i in range(0, 100, 7):
            tilde = ens.path(i)
            back = lift_path(self.COV, project_path(self.COV, tilde), tilde.points[0])
            for a, b in zip(back.points, tilde.points):
                assert abs(a.coords[0] - b.coords[0]) <= 2.0 ** -52 * max(1.0, abs(b.coords[0]))

    def test_project_after_lift_is_identity(self):
        grid = TimeGrid.uniform(0.25, 32)
        ens = sample_paths(CIRC1, point(0.5), grid, 14, 50)
        for i in range(0, 50, 5):
            base = ens.path(i)
            lifted = lift_path(self.COV, base, point(0.5))
            back = project_path(self.COV, lifted)
            for a, b in zip(back.points, base.points):
                assert a.coords[0] == pytest.approx(b.coords[0], abs=1e-14)

    def test_lifted_circle_paths_have_line_law(self):
        # lifting Brownian circle paths recovers Euclidean Wiener measure
        n = 100000
        horizon = 0.25
        grid = TimeGrid.uniform(horizon, 16)
        ens = sample_paths(CIRC1, point(0.5), grid, 15, n)
        lifted = ps.lift_positions(self.COV, ens.positions, np.array([0.5]))
        v = float(np.var(lifted[:, -1, 0], ddof=1))
        want = 2.0 * horizon
        band = 3.0 * math.sqrt(2.0 / n) * want
        assert abs(v - want) < band

    def test_projected_line_marginal_matches_theta(self):
        n = 100000
        horizon = 0.25
        ens = sample_paths(TransitionKernel(Euclidean(1)), point(0.5), TimeGrid.uniform(horizon, 8), 16, n)
        projected = project_arrays(self.COV, ens.positions)
        edges, probs = circle_bin_probs(horizon, 0.5, 1.0, CIRC1.truncation)
        stat = chi2_statistic(bin_counts(projected[:, -1, 0], edges), probs, n)
        assert stat < chi2_threshold(len(probs))

    def test_big_step_lift_refused(self):
        # wrapped distance exactly half the period: ambiguous, never guessed
        g = TimeGrid.uniform(1.0, 1)
        base = Path(g, (point(0.1), point(0.6)))
        with pytest.raises(StepTooLargeError):
            lift_path(self.COV, base, point(0.1))

    def test_anchor_must_project_to_start(self):
        g = TimeGrid.uniform(1.0, 1)
        base = Path(g, (point(0.1), point(0.2)))
        with pytest.raises(ValueError):
            lift_path(self.COV, base, point(0.35))


def draw_shapes(monkeypatch):
    """The shape of every ``rng.uniforms`` result from here on, in call order."""
    shapes = []
    draw = rng.uniforms

    def spy(*args, **kwargs):
        out = draw(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(rng, "uniforms", spy)
    return shapes


def rowwise_bridge_step(law, cursor, current, y, dt, tau_before):
    """The H^3 bridge move with its direction and frame in row form (np.sum,
    np.stack, broadcast products): the reference of the column arithmetic."""
    k = 1.0 - dt / tau_before
    s = math.sqrt(2.0 * dt * k)
    draw = cursor.uniforms(8)
    z0, z1, z2 = (box_muller(draw[:, j:j + 2])[:, 0] for j in (0, 2, 4))
    u, v = draw[:, 6:].T.copy()
    a = law.model.distance_arrays(current, y)
    b = np.sqrt((k * a + s * z0) ** 2 + s * s * (z1 * z1 + z2 * z2))
    lo, gap = np.minimum(a, b), np.abs(a - b)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        q = -4.0 * dt * np.log1p(u * np.expm1(-a * b / dt))
        d_plus = np.sqrt(gap * gap + q) + gap
        d_minus = np.where(d_plus > 0.0, q / d_plus, 0.0)
        w = 2.0 * law._sinh_ratio(0.5 * d_minus, lo) * law._sinh_ratio(0.5 * d_plus, np.maximum(a, b))
        w = np.where(lo > 0.0, np.clip(w, 0.0, 2.0), 2.0 * u)
        e = current[:, 1:] - ((current[:, 0] + np.cosh(a)) / (1.0 + y[0]))[:, None] * y[1:]
        norm = np.sqrt(np.sum(e * e, axis=-1, keepdims=True))
        e = np.where(norm > 0.0, e / norm, [1.0, 0.0, 0.0])
        sign = np.copysign(1.0, e[:, 2])
        g = -1.0 / (sign + e[:, 2])
        h = e[:, 0] * e[:, 1] * g
        f1 = np.stack([1.0 + sign * e[:, 0] ** 2 * g, sign * h, -sign * e[:, 0]], axis=-1)
        f2 = np.stack([h, sign + e[:, 1] ** 2 * g, -e[:, 1]], axis=-1)
        rim = np.sqrt(w * (2.0 - w))
        cos, sin = cos_sin_2pi(v)
        direction = (1.0 - w)[:, None] * e + (rim * cos)[:, None] * f1 + (rim * sin)[:, None] * f2
    return law._exp(y, direction, b, dt)


class TestHyperbolicStep:
    def test_step_consumes_eight_slots(self, monkeypatch):
        # on the kernel, one draw pass and one exp-map pass per move and no uniform array;
        # on the numpy body, one draw of 8 slots per move
        kernel = rng._kernel()
        for body in ("kernel", "numpy")[kernel is None:]:
            with monkeypatch.context() as m:
                passes = []
                if body == "numpy":
                    m.setattr(rng, "_kernel", lambda: None)
                else:
                    for name in ("h3_draw", "h3_exp"):
                        m.setattr(kernel, name, lambda *args, fn=getattr(kernel, name), name=name:
                                  passes.append(name) or fn(*args))
                shapes = draw_shapes(m)
                cursor = StreamCursor(5, np.arange(3, dtype=np.uint64))
                H3K._law.step(cursor, np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)), 0.4)
                assert cursor.pos.tolist() == [8, 8, 8]
                if body == "kernel":
                    assert passes == ["h3_draw", "h3_exp"] and shapes == []
                else:
                    assert shapes == [(3, 8)]

    def test_bridge_step_consumes_eight_slots(self, monkeypatch):
        # row 1 sits on the endpoint, where the angle has no reference direction;
        # the three normals come from the cursor's normal pass (on the kernel, no
        # uniform array; on the numpy body, a draw of 6 slots), then 2 uniforms
        kernel = rng._kernel()
        for body in ("kernel", "numpy")[kernel is None:]:
            with monkeypatch.context() as m:
                if body == "numpy":
                    m.setattr(rng, "_kernel", lambda: None)
                shapes = draw_shapes(m)
                cursor = StreamCursor(5, np.arange(3, dtype=np.uint64))
                y = h3_point(ORIGIN4.coords, [0.0, 1.0, 0.0], 0.8)
                current = np.stack([H3_OFF, y, np.asarray(ORIGIN4.coords)])
                out = H3K._law.bridge_step(cursor, current, y, 0.25, 0.75)
                assert cursor.pos.tolist() == [8, 8, 8]
                assert np.all(np.isfinite(out))
                assert shapes == ([(3, 2)] if body == "kernel" else [(3, 6), (3, 2)])

    def test_bridge_step_matches_the_row_form(self):
        # rows off the axes, at the endpoint, and far from it, at three scales
        gen = np.random.default_rng(21)
        n = 2048
        d = gen.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        for scale in (1e-6, 1.0, 30.0):
            y = h3_point(H3_OFF, [0.2, -0.9, 0.4], 0.6 * scale)
            current = exp_point_arrays(H3_OFF, d, gen.uniform(0.0, 2.0, n) * scale)
            current[:3] = y
            cols, rows = (StreamCursor(8, np.arange(n, dtype=np.uint64)) for _ in range(2))
            out = H3K._law.bridge_step(cols, current, y, 0.1, 0.4)
            ref = rowwise_bridge_step(H3K._law, rows, current, y, 0.1, 0.4)
            assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    def test_far_one_step_mean_distance(self):
        # at t = 20 the step radius is about 40, where the coordinates
        # reach 1e17 and the distance must not cancel
        n = 100000
        ens = sample_paths(H3K, ORIGIN4, TimeGrid.uniform(20.0, 1), 2020, n)
        rho = distance_arrays(Hyperbolic3(), ens.positions[:, -1, :], np.array([1.0, 0, 0, 0]))
        se = float(np.std(rho, ddof=1) / math.sqrt(n))
        assert abs(float(np.mean(rho)) - expected_distance_analytic(Hyperbolic3(), 20.0)) < 4.0 * se

    def test_path_overflow_is_an_error(self):
        # steps of 200 reach a radius near 800; cosh r leaves the float range at 710
        with pytest.raises(NonFiniteSampleError):
            sample_paths(H3K, ORIGIN4, TimeGrid.uniform(400.0, 2), 0, 4)

    def test_kernel_and_numpy_steps_agree(self, monkeypatch):
        # off-origin rows at even and odd cursor starts, and rows far out whose
        # squares overflow, so that the exp map rescales x0
        gen = np.random.default_rng(4)
        n = 1003
        d = gen.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        for reach, dt in ((2.0, 0.3), (300.0, 100.0)):
            current = exp_point_arrays(H3_OFF, d, gen.uniform(0.0, reach, n))
            for start in (0, 1):
                outs = []
                for kernel in (rng._kernel, lambda: None):
                    with monkeypatch.context() as m:
                        m.setattr(rng, "_kernel", kernel)
                        cursor = StreamCursor(12, np.arange(n, dtype=np.uint64))
                        cursor.pos[:] = start
                        outs.append(H3K._law.step(cursor, current, dt))
                assert np.array_equal(outs[0].view(np.uint64), outs[1].view(np.uint64))
                assert np.all(np.isfinite(outs[0]))
            if reach > 2.0:
                assert np.any(np.abs(outs[0][:, 1:]).max(axis=1) > 2.0 ** 512)

    def test_overflow_names_the_step_on_both_bodies(self, monkeypatch):
        message = r"^a hyperbolic step of time 200\.0 left the float range; shorten the steps or the horizon$"
        for kernel in (rng._kernel, lambda: None):
            monkeypatch.setattr(rng, "_kernel", kernel)
            with pytest.raises(NonFiniteSampleError, match=message):
                sample_paths(H3K, ORIGIN4, TimeGrid.uniform(400.0, 2), 0, 4)

    def test_kernel_and_numpy_bridge_steps_agree(self, monkeypatch):
        # the exp map from the endpoint, a base row read at stride 0
        gen = np.random.default_rng(6)
        n = 517
        d = gen.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        y = h3_point(H3_OFF, [0.2, -0.9, 0.4], 0.6)
        current = exp_point_arrays(H3_OFF, d, gen.uniform(0.0, 2.0, n))
        outs = []
        for kernel in (rng._kernel, lambda: None):
            monkeypatch.setattr(rng, "_kernel", kernel)
            outs.append(H3K._law.bridge_step(StreamCursor(8, np.arange(n, dtype=np.uint64)), current, y, 0.1, 0.4))
        assert np.array_equal(outs[0].view(np.uint64), outs[1].view(np.uint64))

    def test_bridge_overflow_is_an_error(self):
        with pytest.raises(NonFiniteSampleError):
            sample_bridges(H3K, ORIGIN4, ORIGIN4, TimeGrid.uniform(1e6, 3), 0, 4)

    def test_far_paths_inside_the_float_range_are_finite(self):
        # radii of 400 to 450: past where the hyperboloid re-projection used to overflow
        for ens in (sample_paths(H3K, ORIGIN4, TimeGrid.uniform(200.0, 2), 0, 4),
                    sample_bridges(H3K, ORIGIN4, ORIGIN4, TimeGrid.uniform(1e5, 3), 0, 4)):
            x0 = ens.positions[..., 0]
            assert np.all(np.isfinite(ens.positions)) and np.log(2.0 * x0).max() > 400.0


def killed_column_loop(law, cursor, x0a, steps):
    """Killed paths one grid column at a time, the sampler's loop before
    the walk: only the unkilled rows draw, and the loop stops once all are
    killed."""
    L = law.model.base.length
    n = len(cursor)
    pos = np.full((n, len(steps) + 1, 1), np.nan)
    pos[:, 0, 0] = x0a[0]
    kill = np.full(n, NEVER_KILLED, dtype=np.int64)
    alive = np.arange(n)
    for j, dt in enumerate(steps):
        if alive.size == 0:
            break
        u = cursor.uniforms_at(alive, 3)
        current = pos[alive, j, 0]
        prop = current + math.sqrt(2.0 * dt) * box_muller(u[:, :2])[:, 0]
        inside = (prop > 0.0) & (prop < L)
        ratio = np.zeros_like(prop)
        if np.any(inside):
            ratio[inside] = dirichlet_survival_ratio(dt, current[inside], prop[inside], L, law.truncation)
        survive = u[:, 2] < ratio
        pos[alive[survive], j + 1, 0] = prop[survive]
        kill[alive[~survive]] = j + 1
        alive = alive[survive]
    return pos, kill


class TestWalk:
    """Every sampler runs through one step-major walk.  Its positions, kill
    steps and draws equal a column-by-column loop over the law's own moves.
    m = 1 gives a bridge no move and m = 2 one; 16, 17 and 33 are longer
    walks, of even and odd lengths."""

    N = 64
    STEPS = [1, 2, 16, 17, 33]
    MODELS = {
        "euclidean:1": (GAUSS1, np.array([0.3]), np.array([-0.4])),
        "euclidean:2": (TransitionKernel(Euclidean(2)), np.array([0.3, 0.1]), np.array([-0.4, 0.2])),
        "circle": (CIRC1, np.array([0.2]), np.array([0.7])),
        "torus:1,2": (TransitionKernel(FlatTorus((1.0, 2.0))), np.array([0.2, 0.5]), np.array([0.7, 1.5])),
        "hyperbolic3": (H3K, np.asarray(ORIGIN4.coords), H3_OFF),
        "cauchy": (CAUCHY, np.array([0.3]), None),  # no bridges
    }

    def cursors(self):
        return (StreamCursor(11, np.arange(self.N, dtype=np.uint64)) for _ in range(2))

    @pytest.mark.parametrize("m", STEPS)
    @pytest.mark.parametrize("name", list(MODELS))
    def test_free_paths(self, name, m):
        kernel, x0a, _ = self.MODELS[name]
        law = kernel._law
        grid = TimeGrid.uniform(1.0, m)
        steps = grid.steps()
        walked, looped = self.cursors()
        pos = stacked(law.paths(walked, x0a, steps))
        cols = [np.tile(x0a, (self.N, 1))]
        for dt in steps:
            cols.append(law.step(looped, cols[-1], dt))
        np.testing.assert_array_equal(pos, np.stack(cols, axis=1))
        assert np.all(PathEnsemble(grid, pos).kill_step == NEVER_KILLED)
        np.testing.assert_array_equal(walked.pos, looped.pos)

    @pytest.mark.parametrize("m", STEPS)
    @pytest.mark.parametrize("name", [name for name, (_, _, y0a) in MODELS.items() if y0a is not None])
    def test_bridges(self, name, m):
        kernel, x0a, y0a = self.MODELS[name]
        law, model = kernel._law, kernel.model
        times = np.asarray(TimeGrid.uniform(1.0, m).times)
        walked, looped = self.cursors()
        rows, windings = law.bridges(walked, x0a, y0a, times)
        pos = stacked(rows)
        target = y0a
        if windings is not None:  # one winding uniform per coordinate, then a bridge to the lift
            looped.uniforms(len(y0a))
            target = x0a + (y0a - x0a) + windings * np.asarray(model.periods)
        cols = [np.tile(x0a, (self.N, 1))]
        for j in range(m - 1):
            cols.append(law.bridge_step(looped, cols[-1], target, times[j + 1] - times[j], times[-1] - times[j]))
        expect = np.stack(cols + [np.broadcast_to(target, cols[0].shape)], axis=1)
        if windings is not None:
            expect = project_arrays(covering_of(model), expect)
            expect[:, -1] = y0a
        np.testing.assert_array_equal(pos, expect)
        np.testing.assert_array_equal(walked.pos, looped.pos)

    @pytest.mark.parametrize("horizon", [1.0, 16.0], ids=["some-killed", "all-killed"])
    @pytest.mark.parametrize("m", STEPS)
    def test_killed_paths(self, m, horizon):
        law = KILLED._law
        x0a = np.array([1.0])
        grid = TimeGrid.uniform(horizon, m)
        steps = grid.steps()
        walked, looped = self.cursors()
        pos = stacked(law.paths(walked, x0a, steps))
        kill = PathEnsemble(grid, pos).kill_step
        ref_pos, ref_kill = killed_column_loop(law, looped, x0a, steps)
        np.testing.assert_array_equal(pos, ref_pos)
        np.testing.assert_array_equal(kill, ref_kill)
        np.testing.assert_array_equal(walked.pos, looped.pos)
        if horizon > 1.0 and m > 1:  # survival to t = 16 is below 1e-6 of the start
            assert np.all(kill != NEVER_KILLED)

    # bounds in position tensors (n, m+1, d): the walk writes its rows in
    # place, so a block holds little past its positions and one step's
    # draws; the compiled and the numpy draws both stay under them
    @pytest.mark.parametrize("draw, size", [
        (lambda: sample_paths(KILLED, point(1.5707963), TimeGrid.uniform(1.0, 32), 1, 32768), 1.85),
        (lambda: sample_bridges(H3K, ORIGIN4, point(1.3374349463048447, 0.888105982187623, 0.0, 0.0),
                                TimeGrid.uniform(1.0, 16), 1, 20000), 2.0),
    ], ids=["killed-paths", "h3-bridges"])
    def test_traced_peak_is_bounded(self, draw, size):
        ens = draw()  # first-call allocations are not the walk's
        bound = size * ens.positions.nbytes
        del ens
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestCsv:
    def test_schema_and_kill_flag(self):
        ens = sample_paths(KILLED, point(0.2), TimeGrid.uniform(2.0, 4), 3, 64)
        killed = int(np.nonzero(ens.kill_step != NEVER_KILLED)[0][0])
        text = path_to_csv(ens.path(killed), comment="demo")
        lines = text.strip().split("\n")
        assert lines[0] == "# demo"
        assert lines[1] == "t,coord0,killed"
        assert len(lines) == 2 + 5
        flags = [row.split(",")[-1] for row in lines[2:]]
        assert "1" in flags and flags[0] == "0"

    def test_values_round_trip(self):
        p = sample_paths(GAUSS1, point(0.125), TimeGrid.uniform(1.0, 3), 5, 1).path(0)
        lines = path_to_csv(p).strip().split("\n")[1:]
        for row, pt in zip(lines, p.points):
            t, c, flag = row.split(",")
            assert float(c) == pt.coords[0]
