"""sha256 pins of solves, F and F' on fixed inputs.

Expression evaluation may be reorganized (compiled, shared, evaluated in
place) but never rounded differently: these digests were taken from the
recursive expression walk, and every later evaluator must reproduce them.
They cover example46 solves of both signs under Newton and Picard, on one
row strip (N = 64) and on two (N = 400), the Jacobians of F' at a nonzero
point, a linear solve with F' there, and ``apply_F``, F''s Jacobians and
its ``apply_array`` on grids of several row strips, for example46 and for
an n = 2 problem whose f1, f2, A1 and A2 all read x and y.  The node
samplers are pinned where they run outside F and F': that problem's
assumption probe, its coefficient matrices over several strips of the zero
test, its coercivity offset, an x, y function sampled on a grid, and
example46's manufactured right-hand side on one fine strip and on two.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from goursat2d.grid import GridField, build_grid, row_strips
from goursat2d.operator import LinearizedOperator, apply_F, coercivity_probe, make_context
from goursat2d.problem import (XYFunction, builtin_example_4_6, load_problem, manufacture_problem,
                               probe_assumptions)
from goursat2d.solvers import SolverConfig, choose_weight, solve, solve_linearized

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


def sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def point(ctx) -> np.ndarray:
    """A smooth g of both signs, one component per state dimension."""
    X, Y = ctx.X, ctx.Y
    comps = [0.4 - 0.7 * X * Y + 0.3 * np.sin(3.0 * X), 0.2 * np.cos(2.0 * Y) - 0.5 * X]
    return np.stack(comps[:ctx.spec.n], axis=-1)


def example46(cells: int):
    spec = builtin_example_4_6()
    ctx = make_context(spec, build_grid(cells)).with_assumptions(probe_assumptions(spec))
    return ctx, choose_weight(ctx).m


@pytest.fixture(scope="module")
def example46_64():
    return example46(64)


@pytest.fixture(scope="module")
def example46_400():
    """Two row strips of 245 and 156 rows, so the strips carry z, z_x and z_y."""
    ctx, m = example46(400)
    assert len(row_strips(ctx.grid.npoints, 1)) == 2
    return ctx, m


@pytest.mark.parametrize("a, method, digest", [
    (1.8, "newton", "9d2e8dd922e4b9c1baeb69e99311c011e58f881c898de9e9ca16ec8ebfd7c66d"),
    (1.8, "picard", "148162575d23d13ba05491e74e9fb2119d1a1d0dd9f8b9581eb0345e868462d7"),
    (-0.3, "newton", "11464a9476ae74071b2a25888255980541d9c4354ecbebcbd829f4c5f56a2a9c"),
    (-0.3, "picard", "de8d56027c53729c3c5403dfe7becb61ae29f8837d77efdff9d8fec0ff43ca99"),
])
def test_example46_solve(example46_64, a, method, digest):
    ctx, m = example46_64
    v = GridField(ctx.grid, (a + 0.1 * ctx.X * ctx.Y)[..., None])
    assert sha(solve(ctx, v, SolverConfig(m=m, method=method)).g.values) == digest


@pytest.mark.parametrize("a, method, digest", [
    (1.8, "newton", "3cd4204b99d00f57e669a753298cc05ea2362eae50e3b64e156763acfcf887a5"),
    (1.8, "picard", "76a3a65596e2b2bed8dfb28b11cce373afa6ebc87a136aa4aff86f2b7269bbab"),
    (-0.3, "newton", "e00c2efdeea954bd7eb6bf1ca9bec5356c226cea61ee7902d811d37fb08f9323"),
    (-0.3, "picard", "083bc974d13c3ed3656f05bc959d2f4675dfed44e62029de90065970e2f0c61c"),
])
def test_example46_solve_over_two_strips(example46_400, a, method, digest):
    ctx, m = example46_400
    v = GridField(ctx.grid, (a + 0.1 * ctx.X * ctx.Y)[..., None])
    assert sha(solve(ctx, v, SolverConfig(m=m, method=method)).g.values) == digest


def test_example46_linear_solve_at_a_nonzero_point_over_two_strips(example46_400):
    ctx, m = example46_400
    lin = LinearizedOperator(ctx, point(ctx))
    v = GridField(ctx.grid, (0.5 - 0.2 * ctx.X + 0.3 * ctx.Y * ctx.Y)[..., None])
    assert sha(solve_linearized(lin, v, SolverConfig(m=m)).g.values) == (
        "abf7a6566a10fa00ee3b32be02786e1f6d7dcd21275b9daf3c1b82f1896e617b")


def test_example46_jacobians_at_a_nonzero_point(example46_64):
    ctx = example46_64[0]
    lin = LinearizedOperator(ctx, GridField(ctx.grid, point(ctx)))
    assert (sha(lin.j1), sha(lin.j2)) == (
        "093d91a6f314da18ac2ba3c2798f2443df88c9db80772152796145e8dbf19aea",
        "53d39ee9e9d67ce7ca695c112fc8172437cee1fd4b7f5a4c594be00d5591b6ee",
    )


def test_coupled_jacobians_at_a_nonzero_point():
    ctx = make_context(load_problem(COUPLED_DOC), build_grid(64))
    lin = LinearizedOperator(ctx, GridField(ctx.grid, point(ctx)))
    assert (sha(lin.j1), sha(lin.j2)) == (
        "0df5cfdb4688f88fb0800e9433844ed714a8d94e4f1568b752606071b46ea993",
        "773b48db6cbe991b67785446ec67de347cb57ba6765c2bcda6b375d37a06663a",
    )


@pytest.mark.parametrize("spec, strips, digest", [
    (builtin_example_4_6, 2, "252f28a835939e943b308bfa9e16e337b99c9d4257373bf7154eb354f6b3940c"),
    (lambda: load_problem(COUPLED_DOC), 4, "330be208242981e1e5391510da132c82684dd9fa1076909c66ef0449cc2f1f23"),
])
def test_apply_F_over_several_strips(spec, strips, digest):
    ctx = make_context(spec(), build_grid(400))
    assert len(row_strips(ctx.grid.npoints, ctx.spec.n)) == strips
    assert sha(apply_F(ctx, point(ctx))) == digest


@pytest.mark.parametrize("spec, strips, digests", [
    (builtin_example_4_6, 2, ("f8d690b0ee41e7f31064a66417c37f053af92d21e4ccf3a09db23cc16aee8a35",
                              "5f2a08942450a9f1f6efa8022137dd520a6307f93698733ed746645197ebcd51")),
    (lambda: load_problem(COUPLED_DOC), 4, (
        "8a14447276a47e6e1e23ac469e261c3070e9f1203ac125c09a9bbf42b49b4eb1",
        "8434f22c99e0f835450570e2b259039c7b18650191bf9e636fc02372699a255b")),
])
def test_jacobians_over_several_strips(spec, strips, digests):
    ctx = make_context(spec(), build_grid(400))
    assert len(row_strips(ctx.grid.npoints, ctx.spec.n)) == strips
    lin = LinearizedOperator(ctx, point(ctx))
    assert (sha(lin.j1), sha(lin.j2)) == digests


@pytest.mark.parametrize("spec, strips, digest", [
    (builtin_example_4_6, 2, "22872fe082f33b519cb56d341b05bd5e6b9731c5fac73b82158f7909ef8df579"),
    (lambda: load_problem(COUPLED_DOC), 4, "cff9d92410962d39e1866555400a22a5411df96f0d6a2f07e708102bfe0f4e5c"),
])
def test_apply_array_over_several_strips(spec, strips, digest):
    ctx = make_context(spec(), build_grid(400))
    assert len(row_strips(ctx.grid.npoints, ctx.spec.n)) == strips
    lin = LinearizedOperator(ctx, point(ctx))
    h = point(ctx)[::-1].copy()  # a direction other than the point
    assert sha(lin.apply_array(h)) == digest


def test_coupled_assumption_probe():
    report = probe_assumptions(load_problem(COUPLED_DOC)).as_dict()
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == (
        "55741a5eef6bc7b296231da987f3c66acdf98b9bd3d473ce4af4b866cfb1ccb5")


def test_coupled_coefficients_over_the_zero_test_strips():
    ctx = make_context(load_problem(COUPLED_DOC), build_grid(400))
    assert len(row_strips(ctx.grid.npoints, 4)) == 7  # n² = 4 entries per node
    assert (sha(ctx.a1_nodes), sha(ctx.a2_nodes)) == (
        "2a620c149f332b9515240b4bc80e2d1dc91558441f9eefa8a51f9e374855c0d6",
        "48564df48941a2668a7b1feadeeca383dee1ea017915cba9721df668b70a9ae1",
    )


def test_coupled_coercivity_offset():
    ctx = make_context(load_problem(COUPLED_DOC), build_grid(32))
    rep = coercivity_probe(ctx, [GridField(ctx.grid, point(ctx))], 17.0)
    assert sha(np.array(rep.offset)) == (
        "71a6c1053810b7e0cb462fcbd793b6a0aa5f88d15e8ba61950adc77e096d4554")


def test_xy_function_sample():
    f = XYFunction.from_sources(["1 + sin(2*x)*cos(y)", "x*y - 0.5"])
    assert sha(f.sample(build_grid(400)).values) == (
        "a29a6c16496ef0a64c67ba7d71f9260b2d7e9f1dbd6b7257df438357ccd1bf00")


@pytest.mark.parametrize("coarse, strips, digest", [
    (100, 2, "5230698d7db764e21596ab6ae940086c099d2bc9136def61f893f49c1da5aac2"),
    (64, 1, "5af306f6554ab2777c2ffa2f7e36071db9005f68625bde415c5883d65ab1c32a"),
])
def test_example46_manufactured_rhs(coarse, strips, digest):
    # refine = 4: the fine grid of 400 cells takes two strips, that of 256 one
    assert len(row_strips(4 * coarse + 1, 1)) == strips
    zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
    spec = manufacture_problem(builtin_example_4_6(), zstar, build_grid(coarse), refine=4)
    assert sha(spec.rhs.values) == digest
