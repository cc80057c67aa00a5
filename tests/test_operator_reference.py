"""F and F' against their textbook formulas, and the memory they need.

The reference functions below rebuild the whole state (z, z_x, z_y), contract
every coefficient matrix with ``einsum`` whether or not it is zero, and sum
with fresh arrays.  ``apply_F`` and ``LinearizedOperator.apply_array`` skip
the contractions of a zero matrix, the z_y only they read, and the temporary
sums; they must give the same values with the same rounding.  The only
allowed difference is the sign of an exact zero where a skipped term would
have added +0.0, which ``assert_array_equal`` does not see.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from goursat2d.exprlang import eval_dual_on_grid, eval_on_grid
from goursat2d.grid import GridField, build_grid
from goursat2d.operator import LinearizedOperator, apply_F, make_context
from goursat2d.problem import (
    XYFunction, builtin_example_4_6, load_problem, manufacture_problem, probe_assumptions,
)
from goursat2d.solvers import SolverConfig, choose_weight, solve

# -- reference formulas -------------------------------------------------------


def ref_cum_into(out, values, axis, h):
    v = np.moveaxis(values, axis, 0)
    cells = np.moveaxis(out, axis, 0)[1:]
    np.add(v[:-1], v[1:], out=cells)
    cells *= h / 2.0
    np.cumsum(cells, axis=0, out=cells)
    return out


def ref_state_from_g(g, h):
    z, zx, zy = np.zeros((3,) + g.shape)
    ref_cum_into(zx, g, 1, h)
    ref_cum_into(z, zx, 0, h)
    ref_cum_into(zy, g, 0, h)
    return z, zx, zy


def ref_cum2d(values, h):
    out = np.zeros_like(values)
    cells = out[1:, 1:]
    np.add(values[:-1, :-1], values[1:, :-1], out=cells)
    cells += values[:-1, 1:]
    cells += values[1:, 1:]
    cells *= h * h / 4.0
    np.cumsum(cells, axis=0, out=cells)
    np.cumsum(cells, axis=1, out=cells)
    return out


def ref_matvec(mats, vecs):
    return np.einsum("ijkl,ijl->ijk", mats, vecs, optimize=False)


def ref_nodes(ctx):
    """X, Y as ``np.meshgrid`` builds them and A1, A2 sampled entry by entry,
    so that the reference reads none of the context's node caches."""
    X, Y = np.meshgrid(ctx.grid.nodes, ctx.grid.nodes, indexing="ij")
    n = ctx.spec.n
    Z = np.zeros(X.shape + (n,))
    mats = []
    for mat in (ctx.spec.a1, ctx.spec.a2):
        a = np.empty(X.shape + (n, n))
        for i in range(n):
            for j in range(n):
                a[:, :, i, j] = eval_on_grid(mat[i][j], X, Y, Z)
        mats.append(a)
    return X, Y, *mats


def ref_apply_F(ctx, g):
    """g + f1(z) + J(f2(z) + A1 z_x + A2 z_y)."""
    (X, Y, a1, a2), h = ref_nodes(ctx), ctx.grid.h
    z, zx, zy = ref_state_from_g(g, h)
    f1v = np.stack([eval_on_grid(e, X, Y, z) for e in ctx.spec.f1], axis=-1)
    f2v = np.stack([eval_on_grid(e, X, Y, z) for e in ctx.spec.f2], axis=-1)
    inner = f2v + ref_matvec(a1, zx) + ref_matvec(a2, zy)
    return g + f1v + ref_cum2d(inner, h)


def ref_apply_array(ctx, at, hg):
    """hg + f1_z h + J(f2_z h + A1 h_x + A2 h_y), with the Jacobians at the state of ``at``."""
    (X, Y, a1, a2), h = ref_nodes(ctx), ctx.grid.h
    Z = ref_state_from_g(at, h)[0]
    n = ctx.spec.n
    j1 = np.empty(Z.shape[:2] + (n, n))
    j2 = np.empty(Z.shape[:2] + (n, n))
    for i in range(n):
        j1[:, :, i, :] = eval_dual_on_grid(ctx.spec.f1[i], X, Y, Z)[1]
        j2[:, :, i, :] = eval_dual_on_grid(ctx.spec.f2[i], X, Y, Z)[1]
    s, sx, sy = ref_state_from_g(hg, h)
    inner = ref_matvec(j2, s) + ref_matvec(a1, sx) + ref_matvec(a2, sy)
    return hg + ref_matvec(j1, s) + ref_cum2d(inner, h)


# -- problems -----------------------------------------------------------------


def linear_doc(a1="x*y", a2="y"):
    return {
        "meta": {"n": 1, "B": 1.0, "b": "1"},
        "functions": {"f1": ["(0.5)*z1"], "f2": ["(-0.25)*z1"]},
        "coefficients": {"A1": [[a1]], "A2": [[a2]], "A1x": [["y"]], "A2y": [["0"]]},
    }


#: n = 2 with coupled nonzero A1, A2 and x/y leaves in every part
COUPLED_DOC = {
    "meta": {"n": 2, "B": 2.0, "b": "2"},
    "functions": {
        "f1": ["z1*z2/4 + x", "sin(z1) - y*z2^2/8"],
        "f2": ["cos(z2)*x", "z1/(1 + z2^2) + y"],
    },
    "coefficients": {
        "A1": [["x*y", "1"], ["-0.5", "y"]],
        "A2": [["y", "x"], ["0.5", "x*y - 1"]],
        "A1x": [["y", "0"], ["0", "0"]],
        "A2y": [["1", "0"], ["0", "x"]],
    },
}

SPECS = {
    "example46": (builtin_example_4_6, (False, False)),
    "linear": (lambda: load_problem(linear_doc()), (True, True)),
    "linear-a1-only": (lambda: load_problem(linear_doc(a2="0")), (True, False)),
    "linear-a2-only": (lambda: load_problem(linear_doc(a1="0")), (False, True)),
    "coupled-n2": (lambda: load_problem(COUPLED_DOC), (True, True)),
}


def _context(name, cells):
    build, nonzero = SPECS[name]
    ctx = make_context(build(), build_grid(cells))
    assert ctx.nonzero == nonzero
    return ctx


def _snapshot(*arrays):
    return [a.copy() for a in arrays]


def _assert_unchanged(arrays, saved):
    for a, s in zip(arrays, saved):
        assert a.tobytes() == s.tobytes()


@pytest.mark.parametrize("cells", [2, 7, 64])
@pytest.mark.parametrize("name", list(SPECS))
class TestAgainstReference:
    def test_apply_F(self, name, cells):
        ctx = _context(name, cells)
        rng = np.random.default_rng(cells)
        g = rng.uniform(-1.0, 1.0, (cells + 1, cells + 1, ctx.spec.n))
        inputs = (ctx.X, ctx.Y, ctx.a1_nodes, ctx.a2_nodes, g)
        saved = _snapshot(*inputs)
        got = apply_F(ctx, g)
        _assert_unchanged(inputs, saved)
        np.testing.assert_array_equal(got, ref_apply_F(ctx, g))
        field = apply_F(ctx, GridField(ctx.grid, g))
        np.testing.assert_array_equal(field.values, got)

    def test_apply_array(self, name, cells):
        ctx = _context(name, cells)
        rng = np.random.default_rng(cells + 1)
        at = rng.uniform(-1.0, 1.0, (cells + 1, cells + 1, ctx.spec.n))
        hg = rng.uniform(-1.0, 1.0, at.shape)
        lin = LinearizedOperator(ctx, GridField(ctx.grid, at))
        z = ref_state_from_g(at, ctx.grid.h)[0]
        assert lin.z_sup == float(np.sqrt((z**2).sum(axis=2)).max())
        inputs = (ctx.X, ctx.Y, ctx.a1_nodes, ctx.a2_nodes, hg, lin.j1, lin.j2)
        saved = _snapshot(*inputs)
        got = lin.apply_array(hg)
        _assert_unchanged(inputs, saved)
        np.testing.assert_array_equal(got, ref_apply_array(ctx, at, hg))
        # a second application sees the same Jacobians
        np.testing.assert_array_equal(lin.apply_array(hg), got)

    @pytest.mark.parametrize("method", ["newton", "picard"])
    def test_solve_reads_its_inputs_only(self, name, cells, method):
        ctx = _context(name, cells)
        v = GridField(ctx.grid, np.full((cells + 1, cells + 1, ctx.spec.n), 0.5))
        inputs = (ctx.X, ctx.Y, ctx.a1_nodes, ctx.a2_nodes, v.values)
        saved = _snapshot(*inputs)
        rep = solve(ctx, v, SolverConfig(m=12.0, method=method, max_iter=30))
        _assert_unchanged(inputs, saved)
        assert rep.converged


class TestAllocations:
    """Peak and retained traced memory at N = 64, in units of one (P, P, 1)
    float array.

    Measured values, which the bounds pin with a little headroom: peaks of
    2.22 for example46's f1 (3.0 when every node allocated), 8.03 for
    ``apply_F`` (11.0 with the full state, the zero contractions and fresh
    sums), 9.08 for a manufactured right-hand side refined to N = 64
    (13.09 with grid-sized coordinates, zero coefficients and zero states),
    6.39 units of the fine grid for one from N = 64 refined to 256 (7.14
    with the fine v copied into a field before its restriction) and 0.02 for
    ``choose_weight`` at the zero-state F' (2.03 while it reduced a kept
    zero state); an example46 context retains 0.01 (4.02 with those
    coordinates and coefficients) and F' its two Jacobians, 2.10 at the zero
    state (3.10 with a grid-sized zero state) and 2.11 at a nonzero point
    (4.12 while it kept z, a view of its two-array state buffer).
    """

    CELLS = 64

    def _units(self, nbytes: int, cells: int = CELLS) -> float:
        return nbytes / ((cells + 1) ** 2 * 8)

    def _peak_units(self, run, cells: int = CELLS) -> float:
        """The traced peak of ``run()`` in units of a (cells+1)² array."""
        run()  # warm any first-call allocation
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return self._units(peak, cells)

    def _retained_units(self, build) -> float:
        """The traced memory still held while the result of ``build()`` lives."""
        build()  # warm any first-call allocation
        tracemalloc.start()
        try:
            kept = build()  # noqa: F841 -- alive while the memory is read
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return self._units(current)

    def test_eval_on_grid_example46_f1(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.CELLS))
        Z = np.full(ctx.X.shape + (1,), -0.4)
        assert self._peak_units(lambda: eval_on_grid(ctx.spec.f1[0], ctx.X, ctx.Y, Z)) < 2.3

    def test_apply_F_example46(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.CELLS))
        g = np.full(ctx.X.shape + (1,), 0.3)
        assert self._peak_units(lambda: apply_F(ctx, g)) < 8.1

    def test_example46_context_holds_no_grid_array(self):
        spec, grid = builtin_example_4_6(), build_grid(self.CELLS)
        assert self._retained_units(lambda: make_context(spec, grid)) <= 0.1

    def test_zero_state_linearization_holds_its_jacobians_only(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.CELLS))
        assert self._retained_units(lambda: LinearizedOperator(ctx)) <= 2.2

    def test_nonzero_point_linearization_holds_its_jacobians_only(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.CELLS))
        at = GridField(ctx.grid, np.full(ctx.X.shape + (1,), 0.3))
        assert self._retained_units(lambda: LinearizedOperator(ctx, at)) <= 2.2

    def test_choose_weight_at_the_zero_state_allocates_no_grid_array(self):
        spec = builtin_example_4_6()
        ctx = make_context(spec, build_grid(self.CELLS)).with_assumptions(probe_assumptions(spec))
        lin = LinearizedOperator(ctx)
        assert self._peak_units(lambda: choose_weight(ctx, lin)) < 0.1

    def test_manufacture_problem_example46(self):
        spec = builtin_example_4_6()
        zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
        coarse = build_grid(self.CELLS // 4)
        assert self._peak_units(lambda: manufacture_problem(spec, zstar, coarse, refine=4)) <= 9.5

    def test_manufacture_problem_copies_no_fine_field(self):
        spec = builtin_example_4_6()
        zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
        coarse = build_grid(self.CELLS)
        peak = self._peak_units(lambda: manufacture_problem(spec, zstar, coarse, refine=4),
                                cells=4 * self.CELLS)
        assert peak <= 6.6
