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

from goursat2d import cli, operator
from goursat2d.errors import EvalFaultError, EvalOverflowError
from goursat2d.exprlang import eval_dual_on_grid, eval_on_grid
from goursat2d.grid import GridField, build_grid, row_strips, strip_step
from goursat2d.norms import WeightedNorms
from goursat2d.operator import LinearizedOperator, _step, apply_F, make_context
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


def ref_jacobians(ctx, at):
    """The z-Jacobians of f1 and f2 and sup|z| at the state of ``at``."""
    X, Y = ref_nodes(ctx)[:2]
    Z = ref_state_from_g(at, ctx.grid.h)[0]
    n = ctx.spec.n
    j1 = np.empty(Z.shape[:2] + (n, n))
    j2 = np.empty(Z.shape[:2] + (n, n))
    for i in range(n):
        j1[:, :, i, :] = eval_dual_on_grid(ctx.spec.f1[i], X, Y, Z)[1]
        j2[:, :, i, :] = eval_dual_on_grid(ctx.spec.f2[i], X, Y, Z)[1]
    return j1, j2, float(np.sqrt((Z**2).sum(axis=2)).max())


def ref_apply_array(ctx, at, hg):
    """hg + f1_z h + J(f2_z h + A1 h_x + A2 h_y), with the Jacobians at the state of ``at``."""
    (X, Y, a1, a2), h = ref_nodes(ctx), ctx.grid.h
    j1, j2, _ = ref_jacobians(ctx, at)
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
    assert (ctx.a1_nodes is not None, ctx.a2_nodes is not None) == nonzero
    return ctx


def _inputs(ctx, *arrays):
    """The arrays an operator call reads: the context's node caches (a zero
    coefficient is None and holds none) and ``arrays``."""
    return tuple(a for a in (ctx.X, ctx.Y, ctx.a1_nodes, ctx.a2_nodes) + arrays if a is not None)


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
        inputs = _inputs(ctx, g)
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
        inputs = _inputs(ctx, hg, lin.j1, lin.j2)
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
        inputs = _inputs(ctx, v.values)
        saved = _snapshot(*inputs)
        rep = solve(ctx, v, SolverConfig(m=12.0, method=method, max_iter=30))
        _assert_unchanged(inputs, saved)
        assert rep.converged


# -- the row-strip engine -------------------------------------------------------


@pytest.mark.parametrize("n, cells, count, last", [
    (1, 64, 1, 65), (1, 221, 1, 222), (1, 442, 3, 1),
    (2, 64, 1, 65), (2, 221, 2, 1), (2, 442, 5, 3),
    (1, 312, 1, 313), (1, 313, 2, 1),
])
def test_grid_sizes_cover_the_strip_cases(n, cells, count, last):
    # the sizes below: one strip, several, and a last strip of one row; for
    # n = 1 one strip needs P²·8 bytes ≤ _STRIP_BYTES, so P ≤ 313 (N ≤ 312)
    strips = row_strips(cells + 1, n)
    assert len(strips) == count and strips[-1].stop - strips[-1].start == last


def ref_sample(f, grid):
    """An XYFunction's values on ``grid``, sampled on the whole grid at once."""
    X, Y = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    Z = np.zeros(X.shape + (1,))
    return np.stack([eval_on_grid(e, X, Y, Z) for e in f.exprs], axis=-1)


@pytest.mark.parametrize("cells", [221, 442])
@pytest.mark.parametrize("name", ["example46", "linear", "coupled-n2"])
class TestStripsAgainstReference:
    """Several strips per grid (one for n = 1 at 221 cells), which must give
    the whole-grid bits."""

    def _fields(self, ctx):
        rng = np.random.default_rng(ctx.grid.cells)
        x = ctx.grid.nodes[:, None, None]
        y = ctx.grid.nodes[None, :, None]
        smooth = np.sin(3 * x) * np.cos(2 * y) + 1.0 + np.arange(ctx.spec.n)
        return smooth, rng.uniform(-1.0, 1.0, smooth.shape)

    def test_apply_F(self, name, cells):
        ctx = _context(name, cells)
        for g in self._fields(ctx):
            np.testing.assert_array_equal(apply_F(ctx, g), ref_apply_F(ctx, g))

    def test_linearization(self, name, cells):
        ctx = _context(name, cells)
        smooth, rough = self._fields(ctx)
        for at in (smooth, rough, np.zeros_like(smooth)):
            lin = LinearizedOperator(ctx, GridField(ctx.grid, at))
            j1, j2, z_sup = ref_jacobians(ctx, at)
            np.testing.assert_array_equal(lin.j1, j1)
            np.testing.assert_array_equal(lin.j2, j2)
            assert lin.z_sup == z_sup
            np.testing.assert_array_equal(lin.apply_array(rough), ref_apply_array(ctx, at, rough))
        zero = LinearizedOperator(ctx)
        np.testing.assert_array_equal(zero.j1, j1)
        np.testing.assert_array_equal(zero.j2, j2)
        assert zero.z_sup == 0.0

    def test_manufacture_problem(self, name, cells):
        ctx = _context(name, cells)
        zstar = XYFunction.from_sources(["1 + sin(2*x)*cos(y)", "x*y - 0.5"][:ctx.spec.n])
        # 221 = 13 * 17, 442 = 26 * 17
        v = manufacture_problem(ctx.spec, zstar, build_grid(cells // 17), refine=17).rhs
        ref = ref_apply_F(ctx, ref_sample(zstar, ctx.grid))
        assert v.values.tobytes() == ref[::17, ::17].tobytes()


#: cuts of a 23-row grid: one strip, several, and a last strip of one row
CUTS = {"one": (23,), "several": (2, 9, 17, 23), "last-row": (5, 22, 23)}


@pytest.mark.parametrize("stops", list(CUTS.values()), ids=list(CUTS))
@pytest.mark.parametrize("name", ["example46", "linear", "coupled-n2"])
class TestStepFromCarry:
    """The strip step looped over any cut of the rows, each strip from the
    carry of the strip before and given only its own rows of g."""

    def _setup(self, name, stops):
        ctx = _context(name, 22)
        g = np.random.default_rng(len(stops)).uniform(-1.0, 1.0, (23, 23, ctx.spec.n))
        return ctx, g, [slice(a, b) for a, b in zip((0,) + stops[:-1], stops)]

    def test_F_rows_are_apply_F(self, name, stops):
        ctx, g, strips = self._setup(name, stops)
        parts, carry = [], None
        for rows in strips:
            part, carry = _step(ctx, g[rows].copy(), rows, carry, ctx._f_terms)
            parts.append(part)
        got = np.concatenate(parts)
        assert got.tobytes() == apply_F(ctx, g).tobytes()
        np.testing.assert_array_equal(got, ref_apply_F(ctx, g))

    def test_state_rows_are_the_state(self, name, stops):
        ctx, g, strips = self._setup(name, stops)
        parts, carry = [], None
        for rows in strips:
            state, carry = strip_step(g[rows].copy(), carry, ctx.grid.h)
            parts.append(state)
        for got, ref in zip(zip(*parts), ref_state_from_g(g, ctx.grid.h)):
            np.testing.assert_array_equal(np.concatenate(got), ref)

    def test_a_strip_again_from_the_same_carry(self, name, stops):
        ctx, g, strips = self._setup(name, stops)
        carry = None
        for rows in strips[:-1]:
            carry = _step(ctx, g[rows], rows, carry, ctx._f_terms)[1]
        saved = None if carry is None else _snapshot(*(a for a in carry if a is not None))
        rows = strips[-1]
        first, second = (_step(ctx, g[rows], rows, carry, ctx._f_terms) for _ in range(2))
        assert first[0].tobytes() == second[0].tobytes()
        assert [None if a is None else a.tobytes() for a in first[1]] == \
            [None if a is None else a.tobytes() for a in second[1]]
        if carry is not None:
            _assert_unchanged([a for a in carry if a is not None], saved)


def fault_doc(f1, a1="0", f2="z1 + 1/(x - 0.25)"):
    """By default f2 faults at x = 1/4, in the first strip of a 400-cell
    grid (strips of 245 rows, to x = 0.61), and ``f1`` where it does."""
    return {
        "meta": {"n": 1, "B": 1.0, "b": "1"},
        "functions": {"f1": [f1], "f2": [f2]},
        "coefficients": {"A1": [[a1]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    }


#: f1 divides by zero at x = 3/4, in the second strip
F1_DIVIDES = fault_doc("z1 + 1/(x - 0.75)")
F1_DIVIDES_AT = "division by zero (expression offset 6) at (x, y) = (0.75, 0)"
#: f1 overflows from x = 0.7125, in the second strip
F1_OVERFLOWS = fault_doc("z1 + exp(1/((x - 0.75)^2 + 0.000001))")
#: f2's fault in the first strip
F2_DIVIDES_AT = "division by zero (expression offset 6) at (x, y) = (0.25, 0)"


def _operator_runs(doc, cells):
    """F, F' at a point and F' at the zero state of ``doc`` on ``cells``."""
    ctx = make_context(load_problem(doc), build_grid(cells))
    g = np.full((cells + 1, cells + 1, 1), 0.5)
    return (lambda: apply_F(ctx, g),
            lambda: LinearizedOperator(ctx, GridField(ctx.grid, g)),
            lambda: LinearizedOperator(ctx))


def _raised(run) -> EvalFaultError:
    with pytest.raises(EvalFaultError) as info:
        run()
    assert info.value.__context__ is None
    return info.value


class TestFaultsFollowCausalOrder:
    """A strip walk stops at the first strip, in row order, in which anything
    faults, and raises the first fault there: the first expression evaluated
    (z* before F, f1 before f2, matrix entries row-major) at its first node
    in row-major order.  No later strip is evaluated, and on a grid of one
    strip the fault is the whole grid's."""

    @pytest.mark.parametrize("doc", [F1_DIVIDES, F1_OVERFLOWS], ids=["division", "overflow"])
    def test_first_strip_before_f1(self, doc):
        for run in _operator_runs(doc, 400):
            error = _raised(run)
            assert type(error) is EvalFaultError and str(error) == F2_DIVIDES_AT

    def test_overflow_in_the_first_strip_before_a_later_division(self):
        doc = fault_doc("z1 + 1/(x - 0.75)", f2="z1 + exp(1/((x - 0.25)^2 + 0.000001))")
        for run in _operator_runs(doc, 400):
            error = _raised(run)
            assert type(error) is EvalOverflowError
            assert str(error) == ("non-finite result (overflow?) (expression offset 3) "
                                  "at (x, y) = (0.2125, 0)")

    def test_f1_before_f2_in_one_strip(self):
        # f1 faults at x = 0.4, in the first strip but in a later row than f2
        for run in _operator_runs(fault_doc("z1 + 1/(x - 0.4)"), 400):
            error = _raised(run)
            assert type(error) is EvalFaultError
            assert str(error) == "division by zero (expression offset 6) at (x, y) = (0.4, 0)"

    def test_one_strip_is_the_whole_grid(self):
        # 200 cells run as one strip: f1's fault, the first on the whole grid
        assert len(row_strips(201, 1)) == 1
        ctx = make_context(load_problem(F1_DIVIDES), build_grid(200))
        whole = _raised(lambda: eval_on_grid(ctx.spec.f1[0], ctx.X, ctx.Y,
                                             np.zeros(ctx.X.shape + (1,))))
        assert str(whole) == F1_DIVIDES_AT
        runs = (*_operator_runs(F1_DIVIDES, 200),
                lambda: manufacture_problem(load_problem(F1_DIVIDES),
                                            XYFunction.from_sources("1 + x*y"), build_grid(50), 4))
        for run in runs:
            error = _raised(run)
            assert type(error) is EvalFaultError and str(error) == str(whole)

    def test_manufacture_reports_the_first_strip(self):
        spec = load_problem(F1_DIVIDES)
        error = _raised(lambda: manufacture_problem(spec, XYFunction.from_sources("1 + x*y"),
                                                    build_grid(100), 4))
        assert type(error) is EvalFaultError and str(error) == F2_DIVIDES_AT

    def test_zstar_before_F(self):
        # z* divides by zero at x = 1/4 in its second term, in the first strip
        # with f2, and at x = 3/4 in its first, in the second strip
        spec = load_problem(F1_DIVIDES)
        zstar = XYFunction.from_sources("1/(x - 0.75) + 1/(x - 0.25)")
        error = _raised(lambda: manufacture_problem(spec, zstar, build_grid(100), 4))
        assert type(error) is EvalFaultError
        assert str(error) == "division by zero (expression offset 16) at (x, y) = (0.25, 0)"

    @pytest.mark.parametrize("f1", ["z1 + 1/(x - 0.75)", "z1 + 1/(x - 0.25)"],
                             ids=["f2-early", "f1-early"])
    def test_F_faulting_early_before_zstar_faulting_late(self, f1):
        # the fine grid runs two strips: F faults in the first, at x = 1/4,
        # and z* only in the second, at x = 0.9
        spec = load_problem(fault_doc(f1))
        error = _raised(lambda: manufacture_problem(spec, XYFunction.from_sources("1/(x - 0.9)"),
                                                    build_grid(100), 4))
        assert type(error) is EvalFaultError and str(error) == F2_DIVIDES_AT

    def test_xy_samples_component_before_node(self):
        # component 0 faults only at x = 0.9, component 1 already at the
        # origin: a sampler that stopped at the first fault of a row strip
        # (n = 2 on 400 cells makes four) would report log(x)
        zstar = XYFunction.from_sources(["1/(x - 0.9)", "log(x)"])
        error = _raised(lambda: zstar.sample(build_grid(400)))
        assert type(error) is EvalFaultError
        assert str(error) == "division by zero (expression offset 1) at (x, y) = (0.9, 0)"

    def test_coefficient_matrix(self):
        doc = fault_doc("z1", a1="1/(x - 0.75) + 1/(x - 0.25)")
        error = _raised(lambda: make_context(load_problem(doc), build_grid(400)))
        assert type(error) is EvalFaultError
        assert str(error) == "division by zero (expression offset 16) at (x, y) = (0.25, 0)"


class TestAllocations:
    """Peak and retained traced memory at N = 64, in units of one (P, P, 1)
    float array.

    Measured values, which the bounds pin with a little headroom: peaks of
    3.03 for example46's f1, 6.16 for ``apply_F``, 7.22 for a manufactured
    right-hand side refined to N = 64 and 7.03 units of the fine grid for one
    from N = 64 refined to 256.  Each is one more temporary than while the
    expression walk wrote nodes into operands it had allocated (2.18, 5.31,
    6.38 and 6.15), a writer that no end-to-end time or peak RSS resolved
    once the row strips bounded every temporary.  Before the strips, numpy's
    iterator buffers for ufuncs that wrote strided views gave 8.03 for
    ``apply_F``, 9.08 for the N = 64 right-hand side and 6.39 for the refined
    one; the full state, the zero contractions and fresh sums 11.0 for
    ``apply_F``; grid-sized coordinates, zero coefficients and zero states
    13.09 for the N = 64 right-hand side; and the fine v copied into a field
    before its restriction 7.14 for the refined one.  The peak is 0.02 for
    ``choose_weight`` at the zero-state F' (2.03 while it reduced a kept
    zero state); an example46 context retains 0.01 (4.02 with those
    coordinates and coefficients) and F' its two Jacobians, 2.10 at the zero
    state (3.10 with a grid-sized zero state) and 2.11 at a nonzero point
    (4.12 while it kept z, a view of its two-array state buffer).

    At N = 1024 the row-strip engine runs eleven strips, and peaks fall to
    about its input and output: 1.66 for ``apply_F`` (5.13 on the whole
    grid; 1.48 when f1 faults in the tenth strip, 3.13 while a fault ran
    the whole grid again), 2.84 for building F' at a point, whose partials
    go straight into its Jacobians (3.12 while each strip's were stacked and
    copied in, 8.00 on the whole grid) and 1.47 for ``apply_array`` (5.02).  A right-hand
    side manufactured from N = 256 streams the fine grid and peaks at 0.81
    fine units (2.67 with the fine g* and F(g*) held whole, 6.13 with the g*
    sample stacked and copied into a field), and a whole ``mms --n-list
    64,128,256`` at 0.97, its one-strip N = 256 F' build holding both
    Jacobians while it evaluates (0.91 when they were allocated after the
    partials; 2.70 before the strips).

    Weighted norms: twenty ``WeightedNorms`` on one N = 64 grid retain 0.005
    (19.12 while each cached its (P, P) kernel), and one norm of a scalar
    field peaks at 1.01 units at N = 1024 (2.00 with the kernel product; at
    N = 64 numpy's einsum buffers for the two node vectors add 2 units).
    """

    CELLS = 64
    STRIP_CELLS = 1024  # eleven strips of 95 rows

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
        assert self._peak_units(lambda: eval_on_grid(ctx.spec.f1[0], ctx.X, ctx.Y, Z)) < 3.1

    def test_apply_F_example46(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.CELLS))
        g = np.full(ctx.X.shape + (1,), 0.3)
        assert self._peak_units(lambda: apply_F(ctx, g)) < 6.25

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

    def test_weighted_norms_retain_no_grid_array(self):
        # a --m-list sweep builds one WeightedNorms per weight on one grid
        grid = build_grid(self.CELLS)
        WeightedNorms(grid, 0.5)  # warm any first-call allocation
        tracemalloc.start()
        try:
            for m in range(1, 21):
                WeightedNorms(grid, float(m))
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert self._units(current) < 0.1

    def test_weighted_norm_of_a_scalar_field_allocates_one_grid_array(self):
        grid = build_grid(self.STRIP_CELLS)
        wn = WeightedNorms(grid, 3.0)
        f = np.full((grid.npoints, grid.npoints, 1), 0.3)
        assert self._peak_units(lambda: wn.norm(f), self.STRIP_CELLS) <= 1.1

    def test_manufacture_problem_example46(self):
        spec = builtin_example_4_6()
        zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
        coarse = build_grid(self.CELLS // 4)
        assert self._peak_units(lambda: manufacture_problem(spec, zstar, coarse, refine=4)) <= 7.3

    def test_strips_keep_apply_F_near_its_input_and_output(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.STRIP_CELLS))
        g = np.full(ctx.X.shape + (1,), 0.3)
        assert self._peak_units(lambda: apply_F(ctx, g), self.STRIP_CELLS) < 2.0

    def test_strips_keep_the_linearization_near_its_jacobians(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.STRIP_CELLS))
        at = GridField(ctx.grid, np.full(ctx.X.shape + (1,), 0.3))
        assert self._peak_units(lambda: LinearizedOperator(ctx, at), self.STRIP_CELLS) < 3.2

    def test_strips_keep_apply_array_near_its_input_and_output(self):
        ctx = make_context(builtin_example_4_6(), build_grid(self.STRIP_CELLS))
        lin = LinearizedOperator(ctx, GridField(ctx.grid, np.full(ctx.X.shape + (1,), 0.3)))
        h = np.full(ctx.X.shape + (1,), -0.2)
        assert self._peak_units(lambda: lin.apply_array(h), self.STRIP_CELLS) < 1.9

    def test_a_faulting_apply_F_evaluates_no_strip_twice(self, monkeypatch):
        # f1 faults at x = 0.875, row 896, in the tenth strip of 95 rows
        ctx = make_context(load_problem(fault_doc("z1 + 1/(x - 0.875)", f2="z1")),
                           build_grid(self.STRIP_CELLS))
        g = np.full(ctx.X.shape + (1,), 0.3)

        def run():
            with pytest.raises(EvalFaultError, match=r"at \(x, y\) = \(0\.875, 0\)"):
                apply_F(ctx, g)

        assert self._peak_units(run, self.STRIP_CELLS) < 2.0
        rows, step = [], operator.strip_step

        def counting(g, carry, *args, **kwargs):
            rows.append((len(g), carry is None))
            return step(g, carry, *args, **kwargs)

        monkeypatch.setattr(operator, "strip_step", counting)
        run()
        strips = row_strips(self.STRIP_CELLS + 1, 1)[:10]
        assert rows == [(s.stop - s.start, s.start == 0) for s in strips]

    def test_streamed_manufacture_holds_no_fine_array(self):
        spec = builtin_example_4_6()
        zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
        coarse = build_grid(self.STRIP_CELLS // 4)
        peak = self._peak_units(lambda: manufacture_problem(spec, zstar, coarse, refine=4),
                                cells=self.STRIP_CELLS)
        assert peak <= 0.9

    def test_mms_holds_no_fine_array(self, tmp_path):
        argv = ["mms", "--builtin", "example46", "--zstar", "1 + sin(2*x)*cos(y)",
                "--n-list", "64,128,256", "--out", str(tmp_path / "mms")]
        assert self._peak_units(lambda: cli.main(argv), self.STRIP_CELLS) < 1.0

    def test_manufacture_problem_copies_no_fine_field(self):
        spec = builtin_example_4_6()
        zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
        coarse = build_grid(self.CELLS)
        peak = self._peak_units(lambda: manufacture_problem(spec, zstar, coarse, refine=4),
                                cells=4 * self.CELLS)
        assert peak <= 7.1
