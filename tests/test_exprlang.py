"""Expression parser, evaluator, and forward-mode z-derivatives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from goursat2d.errors import EvalFaultError, EvalOverflowError, ExprSyntaxError
from goursat2d.exprlang import (
    Bin,
    Call,
    Num,
    Unary,
    Var,
    eval_dual_on_grid,
    eval_on_grid,
    free_z_indices,
    parse,
)
from goursat2d.exprlang import _ipow

POINT_EVALUATORS = (eval_on_grid, eval_dual_on_grid)


def point(x, y, z):
    """One sample point as the grid evaluators take it: 0-d x and y, a length-n z."""
    return np.asarray(float(x)), np.asarray(float(y)), np.asarray(z, dtype=float)


class TestParse:
    def test_simple(self):
        e = parse("x*y + sin(z1)", 1)
        assert isinstance(e, Bin) and e.op == "+"
        assert isinstance(e.right, Call) and e.right.fn == "sin"

    def test_unknown_z_component(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("z2", 1)
        assert exc.value.position == 0

    def test_power_of_z(self):
        e = parse("cos(z1^3)", 1)
        assert isinstance(e, Call)
        assert isinstance(e.arg, Bin) and e.arg.op == "^"

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x + foo", 1)
        assert exc.value.position == 4

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("1 + $", 1)
        assert exc.value.position == 4

    def test_function_requires_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin x", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + log(y", 1)
        with pytest.raises(ExprSyntaxError):
            parse("(x + y)) ", 1)

    def test_unexpected_token(self):
        with pytest.raises(ExprSyntaxError, match="unexpected token '\\)'") as exc:
            parse("x + )", 1)
        assert exc.value.position == 4

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ", 1)

    def test_scientific_notation(self):
        e = parse("1.5e-3", 1)
        assert isinstance(e, Num) and e.value == 0.0015

    def test_z_index_zero_invalid(self):
        with pytest.raises(ExprSyntaxError):
            parse("z0", 2)

    def test_multi_component(self):
        e = parse("z1 + z2*z3", 3)
        assert free_z_indices(e) == frozenset({0, 1, 2})

    def test_state_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="state dimension must be >= 1, got 0"):
            parse("z1", 0)


class TestPrecedence:
    @pytest.mark.parametrize(
        "src,val",
        [
            ("2+3*4", 14.0),
            ("2*3+4", 10.0),
            ("6/3/2", 1.0),      # left-associative division
            ("2-3-4", -5.0),     # left-associative subtraction
            ("2^3^2", 512.0),    # right-associative power
            ("-2^2", -4.0),      # ^ binds tighter than unary minus
            ("2^-1", 0.5),
            ("(2+3)*4", 20.0),
            ("--3", 3.0),
        ],
    )
    def test_arithmetic(self, src, val):
        assert eval_on_grid(parse(src, 1), *point(0.0, 0.0, [0.0])) == val


class TestEvaluate:
    def test_xy(self):
        assert eval_on_grid(parse("x*y", 1), *point(0.5, 0.5, [0.0])) == 0.25

    def test_rational_of_z(self):
        e = parse("z1^3/(1+z1^2)", 1)
        assert eval_on_grid(e, *point(0.0, 0.0, [1.0])) == pytest.approx(0.5, abs=1e-15)

    # every fault below is checked on both evaluators at one point; they share
    # one tree walk, so the dual one must name the same rule, node and point

    def test_log_fault(self):
        e = parse("log(z1)", 1)
        for run in POINT_EVALUATORS:
            with pytest.raises(EvalFaultError, match="log of a nonpositive value") as exc:
                run(e, *point(0.3, 0.7, [0.0]))
            assert exc.value.position == 0 and exc.value.where == (0.3, 0.7)

    def test_division_fault_reports_point(self):
        e = parse("1/(x - 0.25)", 1)
        for run in POINT_EVALUATORS:
            with pytest.raises(EvalFaultError, match="division by zero") as exc:
                run(e, *point(0.25, 0.5, [0.0]))
            assert exc.value.position == 1 and exc.value.where == (0.25, 0.5)
        # away from the pole it is fine
        assert eval_on_grid(e, *point(0.5, 0.5, [0.0])) == pytest.approx(4.0)
        assert eval_dual_on_grid(e, *point(0.5, 0.5, [0.0]))[0] == pytest.approx(4.0)

    def test_sqrt_fault(self):
        for run in POINT_EVALUATORS:
            with pytest.raises(EvalFaultError, match="sqrt of a negative value") as exc:
                run(parse("sqrt(0 - 1)", 1), *point(0.0, 0.0, [0.0]))
            assert exc.value.position == 0 and exc.value.where == (0.0, 0.0)

    def test_integer_power_negative_base_ok(self):
        assert eval_on_grid(parse("(0-2)^2", 1), *point(0.0, 0.0, [0.0])) == 4.0
        assert eval_on_grid(parse("(0-2)^3", 1), *point(0.0, 0.0, [0.0])) == -8.0

    def test_fractional_power_negative_base_faults(self):
        for run in POINT_EVALUATORS:
            with pytest.raises(EvalFaultError, match="non-integer power of a nonpositive base") as exc:
                run(parse("(0-2)^0.5", 1), *point(0.0, 0.0, [0.0]))
            assert exc.value.position == 5 and exc.value.where == (0.0, 0.0)

    def test_variable_exponent_requires_positive_base(self):
        e = parse("z1^z2", 2)
        assert eval_on_grid(e, *point(0.0, 0.0, [2.0, 3.0])) == 8.0
        assert eval_dual_on_grid(e, *point(0.0, 0.0, [2.0, 3.0]))[0] == 8.0
        for run in POINT_EVALUATORS:
            with pytest.raises(EvalFaultError, match="non-integer power of a nonpositive base") as exc:
                run(e, *point(0.2, 0.4, [-2.0, 3.0]))
            assert exc.value.position == 2 and exc.value.where == (0.2, 0.4)

    def test_overflow_faults(self):
        for run in POINT_EVALUATORS:
            with pytest.raises(EvalOverflowError, match="non-finite result") as exc:
                run(parse("exp(1000)", 1), *point(0.0, 0.0, [0.0]))
            assert exc.value.position == 0 and exc.value.where == (0.0, 0.0)

    def test_overflowing_derivative_faults(self):
        # log(1e-320) is finite, its derivative 1/z overflows
        with pytest.raises(EvalOverflowError, match="non-finite derivative") as exc:
            eval_dual_on_grid(parse("log(z1)", 1), *point(0.0, 0.0, [1e-320]))
        assert exc.value.where == (0.0, 0.0)

    def test_grid_evaluation_matches_pointwise(self):
        e = parse("sin(x*y) + z1^2 - exp(z2/3)", 2)
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (5, 5))
        Y = rng.uniform(0, 1, (5, 5))
        Z = rng.uniform(-2, 2, (5, 5, 2))
        grid_vals = eval_on_grid(e, X, Y, Z)
        for i in range(5):
            for j in range(5):
                assert grid_vals[i, j] == pytest.approx(
                    eval_on_grid(e, *point(X[i, j], Y[i, j], Z[i, j])), rel=1e-15
                )


def mixed_sign_bases() -> np.ndarray:
    """Both signs: zeros, subnormals, the smallest normal, a dense run around
    ±1 and magnitudes spread log-uniformly over 1e-20 … 1e20."""
    rng = np.random.default_rng(46)
    special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    spread = 10.0 ** rng.uniform(-20, 20, 400)
    mags = np.concatenate([special, np.linspace(0, 3, 301)[1:], spread])
    return np.concatenate([mags, -mags])


def pow_reference(a: float, p: int) -> float:
    try:
        return math.pow(a, p)
    except (OverflowError, ValueError):  # overflow, or zero to a negative power
        return math.copysign(math.inf, a) if p % 2 else math.inf


def power_node(p: int) -> Bin:
    """z1 ^ p with p as one literal (the parser's "z1^-3" is z1 ^ (-3), a Unary)."""
    return Bin("^", Var("z1", 0, 0), Num(float(p), 3), 2)


class TestIntegerPower:
    @pytest.mark.parametrize("p", [-1, 0, 1, 2])
    def test_small_exponents_equal_numpy_bit_for_bit(self, p):
        a = mixed_sign_bases()
        with np.errstate(divide="ignore", over="ignore"):
            np.testing.assert_array_equal(_ipow(a, p), a**p)

    @pytest.mark.parametrize("p", [s * k for k in range(3, 13) for s in (1, -1)])
    def test_within_p_plus_one_ulp_of_libm(self, p):
        a = mixed_sign_bases()
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            got = _ipow(a, p)
        want = np.array([pow_reference(float(t), p) for t in a])
        inf = np.isinf(want)
        np.testing.assert_array_equal(got[inf], want[inf])
        ulps = np.abs(got[~inf] - want[~inf]) / np.spacing(np.abs(want[~inf]))
        assert ulps.max() <= abs(p) + 1

    def test_grid_power_independent_of_base_sign(self):
        # the value and the dual value of a power are the same bits, and
        # negating the base only flips the sign of odd powers
        rng = np.random.default_rng(3)
        X, Y = np.zeros((6, 6)), np.zeros((6, 6))
        Z = rng.uniform(0.1, 3.0, (6, 6, 1))
        for p in (3, 5, -2, -3):
            e = power_node(p)
            pos = eval_on_grid(e, X, Y, Z)
            neg = eval_on_grid(e, X, Y, -Z)
            np.testing.assert_array_equal(neg, pos if p % 2 == 0 else -pos)
            v, d, _ = eval_dual_on_grid(e, X, Y, -Z)
            np.testing.assert_array_equal(v, neg)
            np.testing.assert_allclose(d[..., 0], p * (-Z[..., 0]) ** (p - 1), rtol=1e-14)

    def test_zero_base_to_negative_power_faults(self):
        X, Y = np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 4), indexing="ij")
        Z = np.ones((4, 4, 1))
        Z[2, 1, 0] = 0.0
        for run in (eval_on_grid, eval_dual_on_grid):
            with pytest.raises(EvalFaultError, match="zero base raised to a negative power") as exc:
                run(power_node(-3), X, Y, Z)
            assert exc.value.where == (X[2, 1], Y[2, 1])

    def test_parsed_negative_exponent_is_an_integer_power(self):
        # "z1^-3" parses as z1 ^ (-3): any nonzero base, and d(z^-3) = -3 z^-4 dz
        e = parse("z1^-3", 1)
        assert eval_on_grid(e, *point(0.0, 0.0, [-2.0])) == -0.125
        v, d, _ = eval_dual_on_grid(e, *point(0.0, 0.0, [-2.0]))
        assert v == -0.125 and d.tolist() == [-0.1875]

    @pytest.mark.parametrize("run", POINT_EVALUATORS)
    def test_parsed_negative_exponent_keeps_the_domain_rules(self, run):
        with pytest.raises(EvalFaultError, match="zero base raised to a negative power"):
            run(parse("z1^-2", 1), *point(0.0, 0.0, [0.0]))
        with pytest.raises(EvalFaultError, match="non-integer power of a nonpositive base"):
            run(parse("z1^-0.5", 1), *point(0.0, 0.0, [-1.0]))


class TestLeaves:
    @pytest.mark.parametrize("src", ["2", "x", "y", "z1", "z2", "z1^1", "z1^0"])
    def test_results_are_fresh_writable_arrays(self, src):
        X, Y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5), indexing="ij")
        Z = np.arange(50.0).reshape(5, 5, 2)
        e = parse(src, 2)
        v = eval_on_grid(e, X, Y, Z)
        vd, d, _ = eval_dual_on_grid(e, X, Y, Z)
        assert v.shape == vd.shape == (5, 5) and d.shape == (5, 5, 2)
        for out in (v, vd, d):
            assert out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in (X, Y, Z))
        np.testing.assert_array_equal(v, vd)
        v[...] = -1.0
        vd[...] = -1.0
        d[...] = -1.0
        np.testing.assert_array_equal(eval_on_grid(e, X, Y, Z), eval_dual_on_grid(e, X, Y, Z)[0])

    def test_leaf_values_and_partials(self):
        X, Y = np.meshgrid(np.linspace(0, 1, 3), np.linspace(0, 1, 3), indexing="ij")
        Z = np.stack([X + 2.0, Y - 5.0], axis=-1)
        v, d, _ = eval_dual_on_grid(parse("z2", 2), X, Y, Z)
        np.testing.assert_array_equal(v, Z[..., 1])
        np.testing.assert_array_equal(d, np.broadcast_to([0.0, 1.0], (3, 3, 2)))
        v, d, _ = eval_dual_on_grid(parse("2.5", 2), X, Y, Z)
        np.testing.assert_array_equal(v, 2.5)
        np.testing.assert_array_equal(d, 0.0)

    def test_constant_faults_name_the_node_and_first_point(self):
        # a constant subtree faults with a scalar mask, broadcast to the grid;
        # a non-finite result names the root
        X, Y = np.meshgrid(np.linspace(0.5, 1, 3), np.linspace(0.25, 1, 4), indexing="ij")
        Z = np.zeros((3, 4, 1))
        for src, pos, error in (("x + 1/(2-2)", 5, EvalFaultError),
                                ("y*log(0-1)", 2, EvalFaultError),
                                ("z1 + exp(1000)", 3, EvalOverflowError)):
            for run in (eval_on_grid, eval_dual_on_grid):
                with pytest.raises(error) as exc:
                    run(parse(src, 1), X, Y, Z)
                assert exc.value.position == pos
                assert exc.value.where == (0.5, 0.25)


class TestDual:
    def test_square(self):
        v, d, kink = eval_dual_on_grid(parse("z1^2", 1), *point(0.0, 0.0, [3.0]))
        assert v == 9.0
        assert d.tolist() == [6.0]
        assert not kink

    def test_sin_of_square(self):
        v, d, _ = eval_dual_on_grid(parse("sin(z1^2)", 1), *point(0.0, 0.0, [1.0]))
        assert v == pytest.approx(np.sin(1.0), abs=1e-15)
        assert d[0] == pytest.approx(2 * np.cos(1.0), abs=1e-15)

    def test_affine(self):
        _, d, _ = eval_dual_on_grid(parse("x*y + z1", 1), *point(0.3, 0.9, [5.0]))
        assert d.tolist() == [1.0]

    def test_value_matches_eval(self):
        rng = np.random.default_rng(9)
        exprs = ["sin(z1)*cos(z2)", "z1^3/(1+z2^2)", "exp(z1*z2/4)", "atan(z1)+x*y"]
        for src in exprs:
            e = parse(src, 2)
            for _ in range(20):
                x, y = rng.uniform(0, 1, 2)
                z = rng.uniform(-2, 2, 2)
                at = point(x, y, z)
                assert eval_dual_on_grid(e, *at)[0] == eval_on_grid(e, *at)

    def test_partials_match_finite_differences(self):
        # 500 (expression, point) pairs, central differences with step 1e-6.
        rng = np.random.default_rng(2024)
        sources = [
            "sin(z1)*cos(z2)",
            "z1^3/(1+z2^2)",
            "exp(z1*z2/4)",
            "atan(z1) + sqrt(1 + z2^2)",
            "log(2 + z1^2)",
            "z1*z2 - z2^2/3 + x*y",
            "tan(z1/2)",
            "abs(1 + z1^2)",
            "(1 + z1^2)^1.5",
            "cos(z1^2) - z2",
        ]
        step = 1e-6
        pairs = 0
        for src in sources:
            e = parse(src, 2)
            for _ in range(50):
                x, y = rng.uniform(0, 1, 2)
                z = rng.uniform(-2, 2, 2)
                got = eval_dual_on_grid(e, *point(x, y, z))[1]
                for k in range(2):
                    zp, zm = z.copy(), z.copy()
                    zp[k] += step
                    zm[k] -= step
                    fd = (eval_on_grid(e, *point(x, y, zp))
                          - eval_on_grid(e, *point(x, y, zm))) / (2 * step)
                    assert abs(got[k] - fd) <= 1e-6 * (1 + abs(got[k])), (src, z, k)
                pairs += 1
        assert pairs == 500

    def test_abs_kink_flagged(self):
        e = parse("abs(z1)", 1)
        _, d, kink = eval_dual_on_grid(e, *point(0.0, 0.0, [0.0]))
        assert d.tolist() == [0.0]
        assert kink
        _, d, kink = eval_dual_on_grid(e, *point(0.0, 0.0, [2.0]))
        assert d.tolist() == [1.0]
        assert not kink
        _, d, _ = eval_dual_on_grid(e, *point(0.0, 0.0, [-2.0]))
        assert d.tolist() == [-1.0]

    def test_sqrt_kink_flagged(self):
        v, d, _ = eval_dual_on_grid(parse("sqrt(z1^2)", 1), *point(0.0, 0.0, [0.0]))
        assert v == 0.0
        assert d.tolist() == [0.0]

    def test_integer_power_at_zero_base(self):
        v, d, _ = eval_dual_on_grid(parse("z1^3", 1), *point(0.0, 0.0, [0.0]))
        assert v == 0.0
        assert d.tolist() == [0.0]
        _, d1, _ = eval_dual_on_grid(parse("z1^1", 1), *point(0.0, 0.0, [0.0]))
        assert d1.tolist() == [1.0]

    def test_grid_dual_shapes(self):
        e = parse("z1*z2", 2)
        X = np.zeros((3, 3))
        Y = np.zeros((3, 3))
        Z = np.ones((3, 3, 2))
        v, d, kink = eval_dual_on_grid(e, X, Y, Z)
        assert v.shape == (3, 3)
        assert d.shape == (3, 3, 2)
        assert not kink
        np.testing.assert_array_equal(d, 1.0)


class TestEquality:
    def test_equality_ignores_positions(self):
        a, b = parse("x+sin(z1)", 1), parse("  x + sin( z1 )", 1)
        assert a == b and hash(a) == hash(b)
        assert a.right.pos != b.right.pos

    def test_structural_inequality(self):
        assert parse("x+y", 1) != parse("y+x", 1)
        assert parse("x", 1) != parse("1.0", 1)
