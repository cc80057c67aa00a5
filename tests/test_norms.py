"""Weighted/classical norms, equivalence sandwich, and the smallness estimates."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from goursat2d.errors import ParameterError
from goursat2d.grid import GridField, build_grid
from goursat2d.norms import (
    LEMMA31_SIDES,
    WeightedNorms,
    check_norm_equivalence,
    verify_lemma31,
)
from goursat2d.sampling import random_smooth_field


def const_field(cells: int, value: float = 1.0, n: int = 1) -> GridField:
    g = build_grid(cells)
    return GridField(g, np.full((g.npoints, g.npoints, n), value))


class TestWeightedNorm:
    def test_zero_field(self):
        assert WeightedNorms(build_grid(8), 3.0).norm(const_field(8, 0.0).values) == 0.0

    def test_constant_m2_closed_form(self):
        # norm of f ≡ 1 is the 1D integral of e^{-mx}: (1 - e^{-m}) / m.
        got = WeightedNorms(build_grid(64), 2.0).norm(const_field(64).values)
        assert got == pytest.approx((1 - np.exp(-2.0)) / 2.0, abs=1e-4)

    def test_xy_m10_closed_form(self):
        # ∫₀¹ x² e^{-10x} dx = 0.002 - 0.122 e^{-10}; the 2D norm equals it.
        grid = build_grid(64)
        X, Y = grid.meshgrid()
        got = WeightedNorms(grid, 10.0).norm((X * Y)[:, :, None])
        assert got == pytest.approx(0.002 - 0.122 * np.exp(-10.0), abs=1e-6)

    def test_m_zero_is_classical(self):
        # the equivalence check's classical side is the m = 0 norm, bit for bit
        rng = np.random.default_rng(11)
        f = random_smooth_field(build_grid(16), 2, rng)
        rep = check_norm_equivalence(f, 0.0)
        assert rep.upper == rep.weighted == WeightedNorms(f.grid, 0.0).norm(f.values)

    def test_negative_m_rejected(self):
        with pytest.raises(ParameterError, match="weight exponent must be nonnegative, got -1.0"):
            WeightedNorms(build_grid(4), -1.0)

    def test_monotone_in_m(self):
        rng = np.random.default_rng(5)
        grid = build_grid(16)
        f = random_smooth_field(grid, 1, rng).values
        vals = [WeightedNorms(grid, m).norm(f) for m in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_factor_properties(self):
        grid = build_grid(8)
        w = grid.trapezoid_weights()
        a = WeightedNorms(grid, 3.0).factors
        assert a[0] == w[0]
        assert np.all(a > 0.0)
        assert np.all(a <= w)
        np.testing.assert_array_equal(WeightedNorms(grid, 0.0).factors, w)

    def test_classical_factors_are_the_trapezoid_weights(self):
        # m = 0: one node vector equal to w, and the norm keeps its bits
        grid = build_grid(12)
        wn = WeightedNorms(grid, 0.0)
        w = grid.trapezoid_weights()
        assert wn.factors.shape == (13,)
        np.testing.assert_array_equal(wn.factors, w)
        f = random_smooth_field(grid, 2, np.random.default_rng(3)).values
        full = np.exp(-0.0 * (grid.nodes[:, None] + grid.nodes[None, :]))
        assert wn.norm(f) == float(np.sqrt(np.einsum("i,j,ij->", w, w, full * (f**2).sum(axis=2))))

    def test_factors_at_the_largest_weight_warn_nothing(self):
        # e^{-m x} underflows to 0 off the origin; that 0 is the weight meant
        grid = build_grid(11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = WeightedNorms(grid, 1e308).factors
        assert a[0] == grid.trapezoid_weights()[0] and not a[1:].any()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [0.0, 0.5, 9.0, 1601.0])
    def test_agrees_with_the_kernel_formula(self, m, n):
        # the outer product of the node factors is w_i w_j e^{-m(x_i + y_j)}
        grid = build_grid(32)
        f = random_smooth_field(grid, n, np.random.default_rng(n)).values
        w, x = grid.trapezoid_weights(), grid.nodes
        kernel = np.exp(-m * (x[:, None] + x[None, :]))
        want = float(np.sqrt(np.einsum("i,j,ij->", w, w, kernel * (f**2).sum(axis=2))))
        got = WeightedNorms(grid, m).norm(f)
        assert want > 0.0
        if m == 0.0:
            assert got == want
        else:
            assert abs(got - want) <= 1e-15 * want

    def test_finite_field_above_square_overflow(self):
        # 1e158² overflows; the norm scales by max|f| instead of returning inf
        wn = WeightedNorms(build_grid(8), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wn.norm(const_field(8, 1e158).values)
        want = 1e158 * wn.norm(const_field(8).values)
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-14 * want

    def test_non_finite_field_gives_non_finite_norm(self):
        wn = WeightedNorms(build_grid(4), 1.0)
        values = np.ones((5, 5, 1))
        values[2, 3, 0] = np.inf
        assert wn.norm(values) == np.inf


class TestAcNorm:
    def test_unit_mixed_derivative(self):
        # g ≡ 1 is the mixed derivative of z = xy; classical norm 1 exactly.
        got = WeightedNorms(build_grid(16), 0.0).norm(const_field(16).values)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_unit_mixed_derivative_weighted(self):
        got = WeightedNorms(build_grid(64), 1.0).norm(const_field(64).values)
        assert got == pytest.approx(1 - np.exp(-1.0), abs=1e-4)

    def test_zero(self):
        assert WeightedNorms(build_grid(8), 7.0).norm(const_field(8, 0.0).values) == 0.0


class TestNormEquivalence:
    def test_unit_field_values(self):
        rep = check_norm_equivalence(const_field(64), 1.0)
        assert rep.lower == pytest.approx(np.exp(-2.0), abs=1e-12)
        assert rep.weighted == pytest.approx(0.63212, abs=1e-3)
        assert rep.upper == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_zero_field_degenerate(self):
        rep = check_norm_equivalence(const_field(8, 0.0), 4.0)
        assert rep.lower == rep.weighted == rep.upper == 0.0
        assert rep.passed

    def test_random_fields_m5(self):
        rng = np.random.default_rng(123)
        grid = build_grid(16)
        for _ in range(100):
            rep = check_norm_equivalence(random_smooth_field(grid, 2, rng), 5.0)
            assert rep.passed
            assert rep.lower <= rep.weighted + rep.tolerance
            assert rep.weighted <= rep.upper + rep.tolerance


class TestLemma31:
    def test_unit_field_m10(self):
        rep = verify_lemma31(const_field(64), 10.0)
        # z = xy, so the first side is ∫₀¹ x²e^{-10x} dx ≈ 0.0019945 ...
        assert rep.sides[0] == pytest.approx(0.002 - 0.122 * np.exp(-10.0), abs=1e-5)
        # ... against bound 0.2 · (1 - e^{ -10}) / 10 ≈ 0.02.
        assert rep.bound == pytest.approx(0.2 * (1 - np.exp(-10.0)) / 10.0, abs=1e-4)
        assert rep.passed
        assert len(rep.sides) == len(LEMMA31_SIDES) == 4

    def test_zero_field_degenerate(self):
        rep = verify_lemma31(const_field(8, 0.0), 3.0)
        assert rep.sides == (0.0, 0.0, 0.0, 0.0)
        assert rep.passed

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ParameterError):
            verify_lemma31(const_field(8), 0.0)
        with pytest.raises(ParameterError):
            verify_lemma31(const_field(8), -2.0)

    def test_m_whose_bound_overflows_rejected(self):
        # 2/m is inf below m ≈ 1.1e-308, and a zero field's margin would be 0·inf
        with pytest.raises(ParameterError, match="2/m overflows at m = 1e-320"):
            verify_lemma31(const_field(8, 0.0), 1e-320)

    @pytest.mark.parametrize("m", [1.0, 5.0, 10.0, 20.0])
    def test_random_smooth_fields(self, m):
        rng = np.random.default_rng(int(m) * 1000 + 7)
        grid = build_grid(32)
        for _ in range(30):
            rep = verify_lemma31(random_smooth_field(grid, 2, rng), m)
            assert rep.passed, (m, rep.margins, rep.tolerance)

    def test_margins_are_bound_minus_side(self):
        rep = verify_lemma31(const_field(16), 2.0)
        for side, margin in zip(rep.sides, rep.margins):
            assert margin == pytest.approx(rep.bound - side, abs=1e-15)


class TestNormAxioms:
    def test_homogeneous_and_triangle(self):
        rng = np.random.default_rng(77)
        grid = build_grid(12)
        for _ in range(25):
            a = random_smooth_field(grid, 2, rng)
            b = random_smooth_field(grid, 2, rng)
            s = float(rng.uniform(-3, 3))
            m = float(rng.uniform(0, 10))
            wn = WeightedNorms(grid, m)
            a, b = a.values, b.values
            assert wn.norm(s * a) == pytest.approx(abs(s) * wn.norm(a), rel=1e-12)
            assert wn.norm(a + b) <= wn.norm(a) + wn.norm(b) + 1e-12

    def test_sandwich(self):
        rng = np.random.default_rng(88)
        grid = build_grid(12)
        for _ in range(25):
            g = random_smooth_field(grid, 1, rng).values
            m = float(rng.uniform(0, 8))
            hi = WeightedNorms(grid, 0.0).norm(g)
            lo = np.exp(-2 * m) * hi
            mid = WeightedNorms(grid, m).norm(g)
            assert lo <= mid + 1e-12
            assert mid <= hi + 1e-12
