"""Forward operator, linearization, residual, and the coercivity probe."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from goursat2d import exprlang
from goursat2d import operator as operator_module
from goursat2d.errors import EvalFaultError, ParameterError
from goursat2d.exprlang import _matrix_program, _matrix_values, parse
from goursat2d.grid import GridField, build_grid, state_from_g
from goursat2d.norms import WeightedNorms
from goursat2d.operator import (
    LinearizedOperator,
    apply_F,
    coercivity_probe,
    make_context,
)
from goursat2d.problem import builtin_example_4_6, load_problem, probe_assumptions, zero_problem
from goursat2d.sampling import random_smooth_field


#: The n = 2 document of the bit pins: nonzero A1 and A2, and x and y in f1 and f2.
COUPLED_DOC = {
    "meta": {"n": 2, "B": 2.0, "b": "2"},
    "functions": {
        "f1": ["z1*z2/4 + x*sin(z2)", "sin(z1) - y*z2^2/8 + (1 + z1^2)*x"],
        "f2": ["cos(z2)*x - 1/(1 + z1^2)", "z1/(1 + z2^2) + y*sin(z2)"],
    },
    "coefficients": {
        "A1": [["x*y", "1"], ["-0.5", "y"]],
        "A2": [["y", "x"], ["0.5", "x*y - 1"]],
        "A1x": [["y", "0"], ["0", "0"]],
        "A2y": [["1", "0"], ["0", "x"]],
    },
}


def linear_spec(c1=0.5, c2=-0.25, a1="x*y", a2="y"):
    return load_problem({
        "meta": {"n": 1, "B": 1.0, "b": "1"},
        "functions": {"f1": [f"({c1!r})*z1"], "f2": [f"({c2!r})*z1"]},
        "coefficients": {"A1": [[a1]], "A2": [[a2]], "A1x": [["y"]], "A2y": [["0"]]},
    })


def example46_with(**coefficients):
    """example46 with the named coefficients replaced by source expressions."""
    return replace(builtin_example_4_6(),
                   **{name: ((parse(src, 1),),) for name, src in coefficients.items()})


class TestApplyF:
    def test_zero_problem_identity(self):
        ctx = make_context(zero_problem(), build_grid(8))
        rng = np.random.default_rng(0)
        g = random_smooth_field(ctx.grid, 1, rng)
        np.testing.assert_array_equal(apply_F(ctx, g).values, g.values)

    def test_memory_term_closed_form(self):
        # A1 = 1: F(xy) = 1 + ∫₀ˣ∫₀ʸ z_x = 1 + ∫₀ˣ∫₀ʸ t = 1 + x y²/2
        doc = {
            "meta": {"n": 1, "B": 1.0, "b": "0"},
            "functions": {"f1": ["0"], "f2": ["0"]},
            "coefficients": {"A1": [["1"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        }
        grid = build_grid(16)
        ctx = make_context(load_problem(doc), grid)
        g = GridField(grid, np.ones((17, 17, 1)))
        out = apply_F(ctx, g)
        X, Y = grid.meshgrid()
        np.testing.assert_allclose(out.values[:, :, 0], 1.0 + X * Y**2 / 2.0, atol=1e-13)

    def test_example_at_zero_state(self):
        # F(0) = f1(·,·,0) + J(f2(·,·,0)) = 1 + J(-1) = 1 - xy
        grid = build_grid(12)
        ctx = make_context(builtin_example_4_6(), grid)
        g0 = GridField(grid, np.zeros((13, 13, 1)))
        out = apply_F(ctx, g0)
        X, Y = grid.meshgrid()
        np.testing.assert_allclose(out.values[:, :, 0], 1.0 - X * Y, atol=1e-14)

    def test_causality(self):
        grid = build_grid(10)
        ctx = make_context(example46_with(a1="x", a2="y", a1x="1", a2y="1"), grid)
        rng = np.random.default_rng(3)
        base = rng.standard_normal((11, 11, 1)) * 0.3
        i0, j0 = 6, 4
        bumped = base.copy()
        bumped[i0, j0, 0] += 1.0
        a = apply_F(ctx, GridField(grid, base)).values
        b = apply_F(ctx, GridField(grid, bumped)).values
        # upstream of the bump the evaluation is bit-identical
        np.testing.assert_array_equal(a[:i0, :, :], b[:i0, :, :])
        np.testing.assert_array_equal(a[:, :j0, :], b[:, :j0, :])
        assert np.abs(a[i0:, j0:] - b[i0:, j0:]).max() > 0

    def test_value_array_matches_field_bit_for_bit(self):
        ctx = make_context(example46_with(a1="x", a2="y", a1x="1", a2y="1"), build_grid(16))
        g = random_smooth_field(ctx.grid, 1, np.random.default_rng(5))
        g = GridField(ctx.grid, g.values * 2.0)
        out = apply_F(ctx, g.values)
        assert isinstance(out, np.ndarray) and out.flags.writeable
        np.testing.assert_array_equal(out, apply_F(ctx, g).values)
        assert not np.shares_memory(out, g.values)

    def test_shape_guard(self):
        ctx = make_context(zero_problem(), build_grid(8))
        with pytest.raises(ParameterError):
            apply_F(ctx, GridField(build_grid(4), np.ones((5, 5, 1))))


class TestResidualAndMerit:
    def test_manufactured_pair_zero_residual(self):
        grid = build_grid(8)
        ctx = make_context(builtin_example_4_6(), grid)
        rng = np.random.default_rng(5)
        g = random_smooth_field(grid, 1, rng)
        v = apply_F(ctx, g)
        r = apply_F(ctx, g).values - v.values
        classical = WeightedNorms(grid, 0.0)
        assert classical.norm(r) <= 1e-12 * classical.norm(v.values)
        assert WeightedNorms(grid, 2.0).norm(r) <= classical.norm(r)

    def test_constant_residual(self):
        grid = build_grid(8)
        ctx = make_context(zero_problem(), grid)
        g = GridField(grid, np.ones((9, 9, 1)))
        v = GridField(grid, np.zeros((9, 9, 1)))
        r = apply_F(ctx, g).values - v.values
        assert WeightedNorms(grid, 0.0).norm(r) == pytest.approx(1.0, abs=1e-14)


class TestLinearization:
    @pytest.mark.parametrize("n", [1, 2])
    def test_z_sup_of_a_state_whose_squares_overflow_is_finite(self, n):
        # g ≡ 1e300 gives z = 1e300·xy, up to 1e300 per component
        grid = build_grid(8)
        doc = {"meta": {"n": n, "B": 2.0, "b": "0"},
               "functions": {"f1": [f"2*z{i + 1}" for i in range(n)], "f2": ["0"] * n},
               "coefficients": {k: [["0"] * n for _ in range(n)]
                                for k in ("A1", "A2", "A1x", "A2y")}}
        ctx = make_context(load_problem(doc), grid)
        at = GridField(grid, np.full((9, 9, n), 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z_sup = LinearizedOperator(ctx, at).z_sup
        z = state_from_g(at.values, grid.h)[0]
        assert np.isfinite(z_sup)
        assert z_sup == pytest.approx(np.sqrt(n) * np.abs(z).max(), rel=1e-15)

    def test_zero_problem_returns_direction(self):
        grid = build_grid(8)
        ctx = make_context(zero_problem(), grid)
        rng = np.random.default_rng(1)
        at = random_smooth_field(grid, 1, rng)
        h = random_smooth_field(grid, 1, rng)
        np.testing.assert_array_equal(LinearizedOperator(ctx, at).apply_array(h.values), h.values)

    def test_linear_spec_difference_identity(self):
        # for z-linear f1, f2: F(g1) - F(g2) = F'(z)(g1 - g2) for ANY z
        grid = build_grid(10)
        ctx = make_context(linear_spec(), grid)
        rng = np.random.default_rng(2)
        g1 = random_smooth_field(grid, 1, rng)
        g2 = random_smooth_field(grid, 1, rng)
        at_any = random_smooth_field(grid, 1, rng)
        lhs = apply_F(ctx, g1.values) - apply_F(ctx, g2.values)
        rhs = LinearizedOperator(ctx, at_any).apply_array(g1.values - g2.values)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_directional_derivative_first_order(self):
        grid = build_grid(16)
        ctx = make_context(example46_with(a1="x", a2="x*y", a1x="1", a2y="1.0*x"), grid)
        rng = np.random.default_rng(7)
        g = random_smooth_field(grid, 1, rng)
        h = random_smooth_field(grid, 1, rng)
        dF = LinearizedOperator(ctx, g).apply_array(h.values)
        errs = []
        eps_list = (1e-2, 1e-3, 1e-4)
        for eps in eps_list:
            quot = (apply_F(ctx, g.values + eps * h.values) - apply_F(ctx, g.values)) / eps
            errs.append(WeightedNorms(grid, 0.0).norm(quot - dF))
        # error ∝ ε within factor 2
        for (e1, eps1), (e2, eps2) in zip(zip(errs, eps_list), list(zip(errs, eps_list))[1:]):
            ratio = e1 / e2
            expected = eps1 / eps2
            assert expected / 2 <= ratio <= expected * 2, (errs,)

    def test_multi_component_jacobian(self):
        doc = {
            "meta": {"n": 2, "B": 1.0, "b": "1"},
            "functions": {"f1": ["z2^2", "z1*z2"], "f2": ["0", "0"]},
            "coefficients": {
                "A1": [["0", "0"], ["0", "0"]],
                "A2": [["0", "0"], ["0", "0"]],
                "A1x": [["0", "0"], ["0", "0"]],
                "A2y": [["0", "0"], ["0", "0"]],
            },
        }
        grid = build_grid(8)
        ctx = make_context(load_problem(doc), grid)
        rng = np.random.default_rng(11)
        g = random_smooth_field(grid, 2, rng)
        h = random_smooth_field(grid, 2, rng)
        dF = LinearizedOperator(ctx, g).apply_array(h.values)
        eps = 1e-6
        quot = (apply_F(ctx, g.values + eps * h.values) - apply_F(ctx, g.values)) / eps
        np.testing.assert_allclose(quot, dF, atol=1e-4)

    def test_faults_like_F_with_f1_before_f2(self):
        # f1[1] (offset 4) and f2[0] (offset 0) both fault where z < -1; F
        # evaluates f1 before f2, and so must the build of F'
        zeros = [["0", "0"], ["0", "0"]]
        spec = load_problem({
            "meta": {"n": 2, "B": 1.0, "b": "1"},
            "functions": {"f1": ["0", "0 + log(1 + z2)"], "f2": ["log(1 + z1)", "0"]},
            "coefficients": {name: zeros for name in ("A1", "A2", "A1x", "A2y")},
        })
        grid = build_grid(8)
        ctx = make_context(spec, grid)
        at = GridField(grid, np.full((9, 9, 2), -100.0))
        with pytest.raises(EvalFaultError, match=r"offset 4\)") as from_F:
            apply_F(ctx, at)
        with pytest.raises(EvalFaultError) as from_linearization:
            LinearizedOperator(ctx, at)
        assert str(from_linearization.value) == str(from_F.value)

    def test_linearizes_at_the_state_of_g(self):
        grid = build_grid(6)
        ctx = make_context(builtin_example_4_6(), grid)
        g = random_smooth_field(grid, 1, np.random.default_rng(4))
        lin = LinearizedOperator(ctx, g)
        z = state_from_g(g.values, grid.h)[0]
        assert lin.z_sup == float(np.sqrt((z**2).sum(axis=2)).max()) > 0.0
        with pytest.raises(ParameterError):
            LinearizedOperator(ctx, random_smooth_field(build_grid(4), 1, np.random.default_rng(4)))

    def test_no_point_is_the_zero_state(self):
        grid = build_grid(6)
        ctx = make_context(builtin_example_4_6(), grid)
        at_zero = LinearizedOperator(ctx, GridField(grid, np.zeros((7, 7, 1))))
        lin = LinearizedOperator(ctx)
        assert lin.z_sup == at_zero.z_sup == 0.0
        for name in ("j1", "j2"):
            np.testing.assert_array_equal(getattr(lin, name), getattr(at_zero, name))
        h = random_smooth_field(grid, 1, np.random.default_rng(5))
        np.testing.assert_array_equal(lin.apply_array(h.values), at_zero.apply_array(h.values))

    def test_an_array_point_is_its_field(self):
        grid = build_grid(6)
        ctx = make_context(builtin_example_4_6(), grid)
        g = random_smooth_field(grid, 1, np.random.default_rng(4))
        lin, from_array = LinearizedOperator(ctx, g), LinearizedOperator(ctx, g.values)
        assert from_array.z_sup == lin.z_sup
        for name in ("j1", "j2"):
            assert getattr(from_array, name).tobytes() == getattr(lin, name).tobytes()

    @pytest.mark.parametrize("spec", [builtin_example_4_6, lambda: load_problem(COUPLED_DOC)])
    def test_a_build_into_the_buffer_of_another_point_is_a_fresh_build(self, spec):
        # N = 400 runs example46 in two row strips and the n = 2 document in four
        ctx = make_context(spec(), build_grid(400))
        X, Y = ctx.X, ctx.Y
        a = np.stack([0.4 - 0.7 * X * Y + 0.3 * np.sin(3.0 * X),
                      0.2 * np.cos(2.0 * Y) - 0.5 * X][:ctx.spec.n], axis=-1)
        b = 0.1 - 1.5 * a[::-1]
        out = np.empty((2,) + a.shape + a.shape[-1:])
        at_a = LinearizedOperator(ctx, a, out=out)
        z_sup_a = at_a.z_sup
        at_b = LinearizedOperator(ctx, b, out=out)
        fresh = LinearizedOperator(ctx, b)
        assert np.shares_memory(at_b.j1, out) and np.shares_memory(at_b.j2, out)
        assert at_b.z_sup == fresh.z_sup != z_sup_a
        for name in ("j1", "j2"):
            assert getattr(at_b, name).tobytes() == getattr(fresh, name).tobytes()

    def test_a_buffer_of_another_shape_is_refused(self):
        ctx = make_context(builtin_example_4_6(), build_grid(6))
        with pytest.raises(ParameterError, match=r"out must be a float array of shape"):
            LinearizedOperator(ctx, out=np.empty((2, 7, 7, 2, 2)))

    def test_one_component_products_round_as_the_contraction(self):
        # einsum sums each product into a +0.0, so its -0.0 products read +0.0
        j = np.array([-2.0, 0.0, -0.0, 3.0, 1e-200, -1.5]).reshape(1, 6, 1, 1)
        h = np.array([0.0, -1.5, 4.0, 2.0, 1e-200, -0.25]).reshape(1, 6, 1)
        assert np.signbit((j[..., 0] * h)[0, :3]).all()
        expected = operator_module._matvec(j, h).tobytes()
        assert operator_module._scaled(j, h).tobytes() == expected
        assert operator_module._scaled(j, h, out=h).tobytes() == expected

    @pytest.mark.parametrize("cells", [8, 400])
    def test_one_component_apply_is_the_contractions(self, cells):
        grid = build_grid(cells)
        rng = np.random.default_rng(9)
        ctx = make_context(example46_with(a1="x*y", a2="0 - y", a1x="y", a2y="0 - 1"), grid)
        at_point = LinearizedOperator(ctx, random_smooth_field(grid, 1, rng))
        # f1 = f2 = -z1 at h = +0.0 but for a -0.0 block: the state is +0.0,
        # so F''s products are -0.0, which the contractions sum into +0.0;
        # the block's sums of -0.0 would keep them
        zeros = {"meta": {"n": 1, "B": 1.0, "b": "1"},
                 "functions": {"f1": ["-z1"], "f2": ["-z1"]},
                 "coefficients": {k: [["0"]] for k in ("A1", "A2", "A1x", "A2y")}}
        signed = LinearizedOperator(make_context(load_problem(zeros), grid))
        h0 = np.zeros((grid.npoints, grid.npoints, 1))
        h0[2:, 2:] = -0.0
        for lin, h in ((at_point, random_smooth_field(grid, 1, rng).values), (signed, h0)):
            def pointwise(rows, z):
                return (operator_module._matvec(lin.j1[rows], z),
                        operator_module._matvec(lin.j2[rows], z))

            expected = operator_module._assemble(lin.ctx, h, pointwise)
            assert lin.apply_array(h).tobytes() == expected.tobytes()


class TestCoercivity:
    def test_zero_problem_equality(self):
        # F(z) = z_xy, B = 0, D = 0: the bound is ‖g‖_m >= ‖g‖_m, margin 0.
        grid = build_grid(16)
        ctx = make_context(zero_problem(), grid)
        rng = np.random.default_rng(21)
        samples = [random_smooth_field(grid, 1, rng) for _ in range(20)]
        rep = coercivity_probe(ctx, samples, m=1.0)
        assert rep.offset == 0.0
        assert rep.factor == 1.0
        assert all(abs(mg) <= 1e-12 for mg in rep.margins)
        assert rep.passed

    def test_example_margins(self):
        spec = builtin_example_4_6()
        m = 8.0 * spec.growth_bound + 1.0
        grid = build_grid(16)
        ctx = make_context(spec, grid)
        rng = np.random.default_rng(22)
        samples = [random_smooth_field(grid, 1, rng) for _ in range(20)]
        rep = coercivity_probe(ctx, samples, m=m)
        assert rep.m == 9.0
        assert all(mg >= -rep.tolerance for mg in rep.margins)
        assert rep.ray_ok
        assert rep.passed

    def test_threshold_enforced(self):
        spec = builtin_example_4_6()
        ctx = make_context(spec, build_grid(8))
        rng = np.random.default_rng(1)
        g = [random_smooth_field(ctx.grid, 1, rng)]
        with pytest.raises(ParameterError, match="8B"):
            coercivity_probe(ctx, g, m=8.0 * spec.growth_bound)

    def test_needs_a_sample(self):
        ctx = make_context(builtin_example_4_6(), build_grid(8))
        with pytest.raises(ValueError, match="need at least one sample field"):
            coercivity_probe(ctx, [], 9.0)

    def test_ray_values_grow(self):
        spec = builtin_example_4_6()
        ctx = make_context(spec, build_grid(12))
        rng = np.random.default_rng(2)
        rep = coercivity_probe(ctx, [random_smooth_field(ctx.grid, 1, rng)], m=9.0)
        assert len(rep.ray_values) == 3
        # with t = 100 the lower bound has long cleared 2D, so growth is visible
        assert rep.ray_values[-1] > rep.ray_values[0]


class TestContextCaches:
    def test_with_assumptions_shares_nodes(self):
        spec = example46_with(a1="x", a1x="1")
        ctx = make_context(spec, build_grid(8))
        probed = ctx.with_assumptions(probe_assumptions(spec, sample_count=5))
        assert probed.a1_nodes is ctx.a1_nodes
        assert probed.assumptions is not None
        assert ctx.assumptions is None

    def test_only_a_nonzero_matrix_holds_grid_memory(self):
        # a zero that is only zero once sampled counts as zero too
        ctx = make_context(example46_with(a1="x*y", a1x="y", a2="x - x"), build_grid(8))
        assert ctx.a2_nodes is None
        X, Y = ctx.grid.meshgrid()
        np.testing.assert_array_equal(ctx.a1_nodes, (X * Y)[..., None, None])
        assert ctx.a1_nodes.flags.owndata

    @pytest.mark.parametrize("cells, strips", [(64, 1), (512, 3)])
    def test_each_strip_of_a_nonzero_matrix_is_sampled_once(self, monkeypatch, cells, strips):
        rows = []

        def counted(program, X, Y):
            rows.append(X.shape[0])
            return _matrix_values(program, X, Y)

        monkeypatch.setattr(operator_module, "_matrix_values", counted)
        make_context(example46_with(a1="1", a2="1"), build_grid(cells))
        assert len(rows) == 2 * strips and sum(rows) == 2 * (cells + 1)

    def test_each_matrix_is_compiled_once(self, monkeypatch):
        # 513 rows are three strips, each sampled by the one program
        compiled = []
        init = exprlang._Program.__init__

        def counted(self, exprs, *args, **kwargs):
            compiled.append(len(exprs))
            init(self, exprs, *args, **kwargs)

        monkeypatch.setattr(exprlang._Program, "__init__", counted)
        make_context(example46_with(a1="1", a2="x"), build_grid(512))
        assert compiled == [1, 1]

    def test_zero_strips_before_the_first_nonzero_keep_their_sign(self):
        # A1 is -0.0 up to x = 0.5: all of strip 0 (rows 0..190 of 513) and
        # part of strip 1, the first nonzero one
        spec = example46_with(a1="(abs(x - 0.5) + (x - 0.5)) * (0 - 1)")
        ctx = make_context(spec, build_grid(512))
        X, Y = ctx.grid.meshgrid()
        assert np.signbit(ctx.a1_nodes[:191]).all() and not ctx.a1_nodes[:191].any()
        assert ctx.a1_nodes.tobytes() == _matrix_values(_matrix_program(spec.a1, 1), X, Y).tobytes()
