"""Grid, field containers, quadrature and cumulative-integral kernels."""

from __future__ import annotations

import re

import numpy as np
import pytest

from goursat2d.errors import ParameterError
from goursat2d.norms import verify_lemma31
from goursat2d.grid import (
    Grid,
    GridField,
    _cum_rows,
    build_grid,
    cum2d_array,
    cumx_array,
    cumy_array,
    reconstruct_state,
    state_from_g,
)


def sample(grid: Grid, fn, n: int = 1) -> GridField:
    X, Y = grid.meshgrid()
    vals = np.stack([np.asarray(fn(X, Y), dtype=float) for _ in range(1)], axis=2) if n == 1 else None
    if n != 1:
        vals = np.stack([np.asarray(fn(X, Y), dtype=float)] * n, axis=2)
    return GridField(grid, vals)


class TestGrid:
    def test_nodes_and_spacing(self):
        g = build_grid(4)
        assert g.cells == 4
        assert g.h == 0.25
        assert g.npoints == 5
        np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_tiny(self):
        with pytest.raises(ParameterError):
            build_grid(1)
        with pytest.raises(ParameterError):
            build_grid(0)

    @pytest.mark.parametrize("cells", [16.9, 2.5, 8.0, "8", True, None],
                             ids=["16.9", "2.5", "8.0", "str", "bool", "None"])
    def test_rejects_a_non_integer_count_naming_it(self, cells):
        with pytest.raises(ParameterError, match=re.escape(repr(cells))):
            build_grid(cells)

    def test_numpy_integer_count_is_accepted(self):
        g = build_grid(np.int64(8))
        assert g == build_grid(8) and type(g.cells) is int

    def test_equality_by_resolution(self):
        assert build_grid(8) == build_grid(8)
        assert build_grid(8) != build_grid(16)
        assert hash(build_grid(8)) == hash(build_grid(8))

    def test_nodes_read_only(self):
        g = build_grid(4)
        with pytest.raises(ValueError):
            g.nodes[0] = 3.0

    @pytest.mark.parametrize("cells", [2, 7, 512])
    def test_meshgrid_is_numpys_bit_for_bit(self, cells):
        g = build_grid(cells)
        for got, ref in zip(g.meshgrid(), np.meshgrid(g.nodes, g.nodes, indexing="ij")):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_meshgrid_is_read_only(self):
        for a in build_grid(4).meshgrid():
            with pytest.raises(ValueError):
                a[1, 1] = 3.0

    def test_meshgrid_views_the_nodes(self):
        g = build_grid(64)
        for a in g.meshgrid():
            # a stride-0 view of the node vector: no (P, P) buffer behind it
            assert not a.flags.owndata and 0 in a.strides
            assert np.shares_memory(a, g.nodes)


class TestGridField:
    def test_rejects_2d_input(self):
        g = build_grid(2)
        with pytest.raises(ParameterError, match=r"must have shape \(3, 3, n\), got \(3, 3\)"):
            GridField(g, np.ones((3, 3)))

    def test_rejects_wrong_shape(self):
        g = build_grid(2)
        with pytest.raises(ParameterError):
            GridField(g, np.ones((4, 3, 1)))

    def test_rejects_nan(self):
        g = build_grid(2)
        vals = np.ones((3, 3, 1))
        vals[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GridField(g, vals)

    def test_values_read_only(self):
        g = build_grid(2)
        f = GridField(g, np.ones((3, 3, 1)))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 2.0

    def test_magnitude(self):
        # the Lemma 3.1 sides take the pointwise Euclidean magnitude over
        # components: the field (3f, 4f) measures like the scalar field 5f
        g = build_grid(4)
        f = sample(g, lambda X, Y: 1.0 + X * Y)
        pair = GridField(g, np.concatenate([3.0 * f.values, 4.0 * f.values], axis=2))
        pair = verify_lemma31(pair, 2.0)
        single = verify_lemma31(GridField(g, 5.0 * f.values), 2.0)
        np.testing.assert_allclose(pair.sides, single.sides, rtol=1e-14)


def quad_2d(f: GridField) -> np.ndarray:
    """Composite 2D trapezoid integral of each component, shape (n,)."""
    w = f.grid.trapezoid_weights()
    return np.einsum("i,j,ijk->k", w, w, f.values)


class TestQuadrature:
    def test_constant_exact(self):
        f = sample(build_grid(7), lambda X, Y: np.ones_like(X))
        np.testing.assert_allclose(quad_2d(f), [1.0], rtol=0, atol=1e-15)

    def test_bilinear_exact(self):
        # s * t has cell-wise bilinear restriction: trapezoid is exact, 1/4.
        f = sample(build_grid(3), lambda X, Y: X * Y)
        np.testing.assert_allclose(quad_2d(f), [0.25], rtol=0, atol=1e-15)

    def test_second_order_convergence(self):
        # integral of x^2 y^2 over Q is 1/9; error drops ~4x per refinement.
        exact = 1.0 / 9.0
        errs = []
        for cells in (8, 16):
            f = sample(build_grid(cells), lambda X, Y: X**2 * Y**2)
            errs.append(abs(float(quad_2d(f)[0]) - exact))
        ratio = errs[0] / errs[1]
        assert 3.7 < ratio < 4.3

    def test_total_combines_components(self):
        g = build_grid(4)
        vals = np.zeros((5, 5, 2))
        vals[:, :, 0] = 3.0
        vals[:, :, 1] = 4.0
        np.testing.assert_allclose(quad_2d(GridField(g, vals)), [3.0, 4.0], rtol=0, atol=1e-14)


class TestCumulativeIntegrals:
    def test_cum2d_closed_form(self):
        # g(s, t) = s + t integrates to (x^2 y + x y^2) / 2, and the bilinear
        # cell rule is exact for it.
        grid = build_grid(4)
        f = sample(grid, lambda X, Y: X + Y)
        out = cum2d_array(f.values, grid.h)
        X, Y = grid.meshgrid()
        expect = 0.5 * (X**2 * Y + X * Y**2)
        np.testing.assert_allclose(out[:, :, 0], expect, rtol=0, atol=1e-14)
        # spot values
        assert out[4, 4, 0] == pytest.approx(1.0, abs=1e-14)      # (1, 1)
        assert out[2, 4, 0] == pytest.approx(0.375, abs=1e-14)    # (0.5, 1)

    def test_cumx_closed_form(self):
        # int_0^x s ds = x^2 / 2 for every y.
        grid = build_grid(4)
        f = sample(grid, lambda X, Y: X)
        out = cumx_array(f.values, grid.h)
        assert out[2, 0, 0] == pytest.approx(0.125, abs=1e-15)   # x = 0.5
        assert out[4, 3, 0] == pytest.approx(0.5, abs=1e-15)     # x = 1
        np.testing.assert_array_equal(out[0, :, 0], 0.0)

    def test_cumy_closed_form(self):
        grid = build_grid(4)
        f = sample(grid, lambda X, Y: Y)
        out = cumy_array(f.values, grid.h)
        assert out[0, 2, 0] == pytest.approx(0.125, abs=1e-15)
        np.testing.assert_array_equal(out[:, 0, 0], 0.0)

    def test_causality(self):
        # perturbing g at node (i0, j0) must not change Jg at nodes with
        # i < i0 or j < j0 (dependence cone).
        rng = np.random.default_rng(42)
        grid = build_grid(8)
        base = rng.standard_normal((9, 9, 1))
        i0, j0 = 5, 3
        bumped = base.copy()
        bumped[i0, j0, 0] += 1.0
        a = cum2d_array(base, grid.h)
        b = cum2d_array(bumped, grid.h)
        diff = np.abs(b - a)[:, :, 0]
        assert np.all(diff[:i0, :] == 0.0)
        assert np.all(diff[:, :j0] == 0.0)
        assert diff[i0:, j0:].max() > 0.0

    def test_fubini_exchange(self):
        # cum2d must equal cumx applied after cumy (and vice versa) exactly:
        # both are the same prefix-sum algebra.
        rng = np.random.default_rng(7)
        grid = build_grid(6)
        g = rng.standard_normal((7, 7, 2))
        both = cum2d_array(g, grid.h)
        xy = cumx_array(cumy_array(g, grid.h), grid.h)
        yx = cumy_array(cumx_array(g, grid.h), grid.h)
        np.testing.assert_allclose(xy, both, rtol=0, atol=1e-15)
        np.testing.assert_allclose(yx, both, rtol=0, atol=1e-15)

    def test_vector_components_independent(self):
        grid = build_grid(4)
        vals = np.zeros((5, 5, 2))
        X, Y = grid.meshgrid()
        vals[:, :, 0] = 1.0
        vals[:, :, 1] = X * Y
        out = cum2d_array(vals, grid.h)
        np.testing.assert_allclose(out[4, 4, 0], 1.0, atol=1e-14)
        np.testing.assert_allclose(out[4, 4, 1], 0.25, atol=1e-14)


def _copy_hi(lo, hi, out):
    """A ``pairs`` rule whose cell of two node rows is the later row."""
    np.copyto(out, hi)


@pytest.mark.parametrize("rows", [1, 2, 191])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("carried", [False, True])
def test_cum_rows_is_numpy_cumsum_bit_for_bit(rows, n, carried):
    # the row recurrence makes numpy's axis-0 additions in numpy's order, so
    # every number, signed zeros and infinities too, comes out the same; a NaN
    # stays a NaN, but which of two NaNs an add returns (sign, payload) is up
    # to numpy's vector loop and not pinned
    rng = np.random.default_rng(rows * 10 + n)
    values = rng.standard_normal((rows, 7, n))
    values[:, 3] = -0.0  # a column of -0.0 keeps its sign only if no +0.0 is added
    specials = np.array([-0.0, np.inf, -np.inf, np.nan])
    picks = rng.random(values.shape) < 0.1
    values[picks] = rng.choice(specials, picks.sum())
    carry = (rng.standard_normal((7, n)), rng.choice(specials, (7, n))) if carried else None
    want = values.copy()
    cells = want if carried else want[1:]  # row x = 0 stays 0 without a carry
    with np.errstate(invalid="ignore"):
        if carried:
            cells[0] += carry[1]
        else:
            want[0] = 0.0
        np.cumsum(cells, axis=0, out=cells)
        got = _cum_rows(np.empty(values.shape), values, _copy_hi, 1.0, carry)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestReconstruction:
    def test_state_of_constant(self):
        # g = 1  =>  z = x y, z_x = y, z_y = x.
        grid = build_grid(5)
        z, zx, zy = reconstruct_state(sample(grid, lambda X, Y: np.ones_like(X)))
        X, Y = grid.meshgrid()
        np.testing.assert_allclose(z.values[:, :, 0], X * Y, atol=1e-14)
        np.testing.assert_allclose(zx.values[:, :, 0], Y, atol=1e-14)
        np.testing.assert_allclose(zy.values[:, :, 0], X, atol=1e-14)

    def test_edge_values_exact_zero(self):
        rng = np.random.default_rng(3)
        grid = build_grid(8)
        z, zx, zy = reconstruct_state(GridField(grid, rng.standard_normal((9, 9, 3))))
        assert np.all(z.values[0, :, :] == 0.0)
        assert np.all(z.values[:, 0, :] == 0.0)
        assert np.all(zx.values[:, 0, :] == 0.0)
        assert np.all(zy.values[0, :, :] == 0.0)

    def test_state_kernel_matches_cum2d(self):
        # z = cumx(cumy(g)) is the tensor trapezoid of cum2d in one pass fewer:
        # equal up to rounding, with exactly zero edges and the same z_x, z_y
        rng = np.random.default_rng(5)
        grid = build_grid(64)
        g = rng.standard_normal((65, 65, 2))
        z, zx, zy = state_from_g(g, grid.h)
        np.testing.assert_allclose(z, cum2d_array(g, grid.h), rtol=0, atol=1e-15)
        assert np.all(z[0, :, :] == 0.0) and np.all(z[:, 0, :] == 0.0)
        assert np.all(zx[:, 0, :] == 0.0) and np.all(zy[0, :, :] == 0.0)
        np.testing.assert_array_equal(zx, cumy_array(g, grid.h))
        np.testing.assert_array_equal(zy, cumx_array(g, grid.h))
