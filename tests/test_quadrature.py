import inspect
import math

import numpy as np
import pytest

from pathkernel.errors import QuadratureError
from pathkernel.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    MAX_OPEN_INTERVALS,
    adaptive_quadrature,
    adaptive_quadrature_batch,
    gaussian_tail_radius,
)


def cubic(x):
    # both Gauss-Kronrod sums are exact on cubics: accepted as soon as min_depth allows
    return 2.0 * x ** 3 - x + 0.5


def narrow_peak(x):
    return np.exp(-(((x - 0.3) / 1e-3) ** 2))


def gauss(x):
    return np.exp(-x * x)


def oscillating(x):
    return np.sin(7.0 * x) * np.exp(-0.5 * x)


# (integrand, a, b, tol): different domains and tolerances, one shallow, one deep
CASES = [
    (cubic, -1.0, 2.0, 1e-10),
    (narrow_peak, 0.0, 1.0, 1e-13),
    (gauss, -6.0, 6.0, 1e-11),
    (oscillating, 0.5, 4.0, 1e-9),
]


def batched_integrand(x, owner):
    out = np.empty(x.shape)
    for i, (f, _, _, _) in enumerate(CASES):
        sel = owner == i
        out[sel] = f(x[sel])
    return out


class TestBatchedQuadrature:
    def test_batch_equals_one_at_a_time_bit_for_bit(self):
        a = [c[1] for c in CASES]
        b = [c[2] for c in CASES]
        tol = [c[3] for c in CASES]
        batch = adaptive_quadrature_batch(batched_integrand, a, b, tol=tol)
        alone = [adaptive_quadrature(f, lo, hi, tol=t) for f, lo, hi, t in CASES]
        assert batch.tolist() == alone
        assert batch[0] == pytest.approx(7.5, abs=1e-12)
        assert batch[1] == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-9)

    def test_cases_span_shallow_and_deep_owners(self):
        # the cubic is accepted at min_depth; the narrow peak is not done by then
        assert adaptive_quadrature(cubic, -1.0, 2.0, tol=1e-10, max_depth=5) == pytest.approx(7.5)
        with pytest.raises(QuadratureError):
            adaptive_quadrature(narrow_peak, 0.0, 1.0, tol=1e-13, max_depth=8)

    def test_scalar_tolerance_applies_to_every_owner(self):
        batch = adaptive_quadrature_batch(lambda x, o: gauss(x), [-6.0, -3.0], [6.0, 3.0], tol=1e-10)
        assert batch.tolist() == [adaptive_quadrature(gauss, -6.0, 6.0, tol=1e-10),
                                  adaptive_quadrature(gauss, -3.0, 3.0, tol=1e-10)]

    def test_max_depth_names_the_open_owners(self):
        def f(x, owner):
            return np.where(owner == 1, narrow_peak(x), cubic(x))

        with pytest.raises(QuadratureError) as info:
            adaptive_quadrature_batch(f, [0.0, 0.0, -1.0], [1.0, 1.0, 2.0], tol=1e-13, max_depth=8)
        assert info.value.owners == [1]
        assert "[1]" in str(info.value)

    def test_worklist_cap_names_the_open_owners(self):
        # a NaN integrand splits every interval at every depth
        def f(x, owner):
            return np.where(owner == 1, np.nan, cubic(x))

        with pytest.raises(QuadratureError) as info:
            adaptive_quadrature_batch(f, [0.0, 0.0, -1.0], [1.0, 1.0, 2.0])
        assert info.value.owners == [1]
        assert f"cap {MAX_OPEN_INTERVALS}" in str(info.value)

    def test_worklist_cap_bounds_one_integrand_call(self):
        # 15 nodes a piece: a NaN integrand is refused before one call asks for 2^17 nodes
        sizes = []

        def f(x, owner):
            sizes.append(x.size)
            return np.full(x.shape, np.nan)

        with pytest.raises(QuadratureError):
            adaptive_quadrature_batch(f, [0.0], [1.0])
        assert max(sizes) <= 131072

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quadrature_batch(lambda x, o: x, [0.0, 1.0], [1.0, 1.0])


class TestKronrodRule:
    def test_gauss_nodes_and_weights_are_legendre_7(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(KRONROD_NODES[1::2] - nodes)) <= 1e-15
        assert np.max(np.abs(GAUSS_WEIGHTS - weights)) <= 1e-15

    def test_each_rule_integrates_its_monomials(self):
        for j in range(23):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(np.sum(KRONROD_WEIGHTS * KRONROD_NODES ** j) - exact) <= 1e-15
            if j <= 13:
                assert abs(np.sum(GAUSS_WEIGHTS * KRONROD_NODES[1::2] ** j) - exact) <= 1e-15

    def test_each_weight_set_sums_to_two(self):
        assert math.fsum(KRONROD_WEIGHTS) == pytest.approx(2.0, abs=1e-15)
        assert math.fsum(GAUSS_WEIGHTS) == pytest.approx(2.0, abs=1e-15)


def _guard_nodes():
    """The nodes of the first pass over [0, 1]: 2^min_depth equal pieces, 15 nodes each."""
    pieces = 2 ** inspect.signature(adaptive_quadrature).parameters["min_depth"].default
    centers = (np.arange(pieces) + 0.5) / pieces
    return np.sort((centers[:, None] + KRONROD_NODES / (2 * pieces)).ravel())


def _widest_gap_midpoint():
    """About 3.2 peak widths from the nearest first node."""
    nodes = _guard_nodes()
    i = int(np.argmax(np.diff(nodes)))
    return 0.5 * (nodes[i] + nodes[i + 1])


class TestFirstAcceptGuard:
    # 0.5 is an edge of the guard partition; the widest gap of its first
    # nodes is the likeliest place for a narrow peak to hide; 0.5078125 lies
    # midway between two points of a 1/64 grid
    @pytest.mark.parametrize("center", [0.3, 0.5, 0.125, 0.77, 0.5078125, _widest_gap_midpoint()])
    def test_narrow_peak_is_found_anywhere(self, center):
        value = adaptive_quadrature(lambda x: np.exp(-(((x - center) / 1e-3) ** 2)), 0.0, 1.0, tol=1e-13)
        exact = 1e-3 * math.sqrt(math.pi)
        assert abs(value - exact) <= 1e-9 * exact


class TestGaussianTailRadius:
    @pytest.mark.parametrize("t", [1e-300, 0.5, 1e12, 1e306])
    def test_finite_products_keep_their_square_root(self, t):
        # the radius feeds image counts and quadrature pads: its bits must not move
        assert gaussian_tail_radius(t, 1e-17) == math.sqrt(4.0 * t * math.log(1e17))

    def test_overflowing_product_takes_the_root_of_each_factor(self):
        r = gaussian_tail_radius(1e308, 1e-17)
        assert math.isfinite(r) and r == 2.0 * math.sqrt(1e308) * math.sqrt(math.log(1e17))
        assert math.exp(-r * r / 4.0 / 1e308) == pytest.approx(1e-17, rel=1e-12)

    def test_tolerance_above_one_is_radius_zero(self):
        assert gaussian_tail_radius(1e308, 2.0) == 0.0
