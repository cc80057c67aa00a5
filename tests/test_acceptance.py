"""Acceptance suite: ten end-to-end checks with their stated tolerances.

Each test prints exactly one line

    [criterion NN] <name>: PASS|FAIL

(visible with ``pytest -s``) and then asserts, so a red run still shows the
full scoreboard.  Tolerances are part of the contract and are not loosened
here; every expected number is either a closed form or measured against an
independent oracle built in this file.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from goursat2d.cli import main as cli_main
from goursat2d.grid import build_grid
from goursat2d.norms import WeightedNorms, check_norm_equivalence, verify_lemma31
from goursat2d.operator import LinearizedOperator, coercivity_probe, make_context
from goursat2d.problem import (
    BUILTIN_PROBLEMS,
    XYFunction,
    builtin_example_4_6,
    load_problem,
    manufacture_problem,
    probe_assumptions,
    zero_problem,
)
from goursat2d.sampling import random_smooth_field
from goursat2d.sensitivity import stability_probe, validate_frechet
from goursat2d.solvers import (
    SolverConfig,
    choose_weight,
    estimate_contraction,
    solve,
    solve_linearized,
)


def check(k: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {k:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {k} ({name}) failed{suffix}"


PURE_F1_DOC = {
    "meta": {"n": 1, "B": 1.0, "b": "0"},
    "functions": {"f1": ["0.5*z1"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    "label": "pure-f1",
}

LINEAR_FULL_DOC = {
    "meta": {"n": 1, "B": 1.0, "b": "0"},
    "functions": {"f1": ["0.5*z1"], "f2": ["-0.25*z1"]},
    "coefficients": {"A1": [["x*y"]], "A2": [["y"]], "A1x": [["y"]], "A2y": [["1"]]},
    "label": "linear-full",
}

MEMORY_ONLY_DOC = {
    "meta": {"n": 1, "B": 1.0, "b": "0"},
    "functions": {"f1": ["0"], "f2": ["0"]},
    "coefficients": {"A1": [["1"]], "A2": [["1"]], "A1x": [["0"]], "A2y": [["0"]]},
    "label": "memory-only",
}


def probed_context(spec, cells: int):
    return make_context(spec, build_grid(cells)).with_assumptions(probe_assumptions(spec))


def test_01_smallness_estimates():
    """200 random smooth fields, m in {1,5,10,20}: all four weighted smallness
    inequalities hold with margin >= -10 h^2 * scale at N = 32, in < 30 s."""
    started = time.monotonic()
    grid = build_grid(32)
    rng = np.random.default_rng(101)
    fields = [random_smooth_field(grid, 1, rng) for _ in range(200)]
    worst = math.inf
    ok = True
    for m in (1.0, 5.0, 10.0, 20.0):
        for f in fields:
            rep = verify_lemma31(f, m)
            worst = min(worst, min(mg + rep.tolerance for mg in rep.margins))
            ok = ok and rep.passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30.0
    check(1, "smallness-estimates", ok,
          f"worst slack {worst:.3e}, {elapsed:.1f}s for 800 reports")


def test_02_norm_equivalence():
    """100 random fields, m in {0.5,1,2,5}: e^{-2m}||z|| <= ||z||_m <= ||z||;
    closed form: the norm of z = xy at m = 1 equals 1 - 1/e within 1e-3."""
    grid = build_grid(32)
    rng = np.random.default_rng(202)
    fields = [random_smooth_field(grid, 1, rng) for _ in range(100)]
    ok = all(check_norm_equivalence(f, m).passed
             for m in (0.5, 1.0, 2.0, 5.0) for f in fields)
    value = WeightedNorms(build_grid(64), 1.0).norm(np.ones((65, 65, 1)))  # g = 1 <=> z = xy
    expected = 1.0 - math.exp(-1.0)
    spot = abs(value - expected) <= 1e-3
    check(2, "norm-equivalence", ok and spot,
          f"closed form {value:.6f} vs {expected:.6f}")


def test_03_coercivity():
    """At m = 8B + 1: the zero problem attains the bound with equality
    (|margin| <= 1e-12 on 20 random fields); the nonlinear builtin clears it
    within the discretization tolerance."""
    zctx = probed_context(zero_problem(), 32)
    rng = np.random.default_rng(303)
    zfields = [random_smooth_field(zctx.grid, 1, rng) for _ in range(20)]
    zrep = coercivity_probe(zctx, zfields, m=1.0)  # B = 0 -> m = 1
    equality = max(abs(mg) for mg in zrep.margins) <= 1e-12

    spec = builtin_example_4_6()
    ctx = probed_context(spec, 32)
    fields = [random_smooth_field(ctx.grid, 1, rng) for _ in range(20)]
    rep = coercivity_probe(ctx, fields, m=8.0 * spec.growth_bound + 1.0)
    check(3, "coercivity", equality and rep.passed,
          f"zero-problem |margin| <= {max(abs(mg) for mg in zrep.margins):.2e}, "
          f"nonlinear min margin {min(rep.margins):.3e}")


def test_04_contraction_weights():
    """choose_weight makes the linearized fixed-point map contractive on every
    builtin; doubling m on a z-linear problem cuts the measured factor by
    3x-5x (the memory term scales like 1/m^2)."""
    ok = True
    details = []
    for name, factory in sorted(BUILTIN_PROBLEMS.items()):
        spec = factory()
        ctx = probed_context(spec, 16)
        choice = choose_weight(ctx)
        est = estimate_contraction(LinearizedOperator(ctx), SolverConfig(m=choice.m), seed=404)
        ok = ok and est.contracting
        details.append(f"{name}: rho={est.rho_hat:.3g} at m={choice.m:g}")

    spec = load_problem(PURE_F1_DOC)
    ctx = probed_context(spec, 32)
    lin = LinearizedOperator(ctx)
    lo = estimate_contraction(lin, SolverConfig(m=10.0), seed=404)
    hi = estimate_contraction(lin, SolverConfig(m=20.0), seed=404)
    factor = lo.rho_hat / hi.rho_hat
    ok = ok and 3.0 <= factor <= 5.0
    check(4, "contraction-weights", ok,
          "; ".join(details) + f"; doubling factor {factor:.2f}")


def test_05_linearized_vs_dense():
    """The iterative linearized solve agrees with direct dense elimination of
    the full collocation system at N = 16 to 1e-8 (classical norm).

    The oracle is assembled independently here: 1D cumulative-trapezoid
    matrix W, Kronecker products for the three Volterra maps, pointwise
    diagonal coefficients."""
    spec = load_problem(LINEAR_FULL_DOC)
    grid = build_grid(16)
    P, h = grid.npoints, grid.h

    W = np.zeros((P, P))
    for i in range(1, P):
        W[i, : i + 1] = h
        W[i, 0] = W[i, i] = h / 2.0
    eye1 = np.eye(P)
    C2 = np.kron(W, W)        # double cumulative integral (z from g)
    Cy = np.kron(eye1, W)     # integral over t in [0, y]: the z_x part
    Cx = np.kron(W, eye1)     # integral over s in [0, x]: the z_y part
    X, Y = grid.meshgrid()
    DA1 = np.diag((X * Y).ravel())
    DA2 = np.diag(Y.ravel())
    H = np.eye(P * P) + 0.5 * C2 + C2 @ (-0.25 * C2 + DA1 @ Cy + DA2 @ Cx)

    v = XYFunction.from_sources("1 + x + sin(2*y)").sample(grid)
    g_dense = np.linalg.solve(H, v.values.ravel()).reshape(P, P, 1)

    ctx = probed_context(spec, 16)
    rep = solve_linearized(LinearizedOperator(ctx), v, SolverConfig(m=9.0, tol=1e-13))
    gap = WeightedNorms(grid, 0.0).norm(rep.g.values - g_dense)
    check(5, "linearized-vs-dense", gap <= 1e-8, f"gap {gap:.3e}")


def test_06_manufactured_convergence():
    """Manufactured solutions across N in {16, 32, 64}: the zero problem is
    reproduced exactly (<= 1e-12); the memory-only and nonlinear problems
    converge at observed order in [1.8, 2.2]."""
    gstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
    ok = True
    details = []
    for name, spec in (("zero", zero_problem()),
                       ("memory-only", load_problem(MEMORY_ONLY_DOC)),
                       ("nonlinear", builtin_example_4_6())):
        probe = probe_assumptions(spec)
        errors = []
        for cells in (16, 32, 64):
            grid = build_grid(cells)
            mspec = manufacture_problem(spec, gstar, grid, refine=4)
            ctx = make_context(mspec, grid).with_assumptions(probe)
            rep = solve(ctx, mspec.sample_rhs(grid), SolverConfig(tol=1e-11))
            errors.append(WeightedNorms(grid, 0.0).norm(rep.g.values - gstar.sample(grid).values))
        if name == "zero":
            ok = ok and max(errors) <= 1e-12
            details.append(f"zero max err {max(errors):.2e}")
        else:
            orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
            ok = ok and all(1.8 <= p <= 2.2 for p in orders)
            details.append(f"{name} orders {orders[0]:.2f},{orders[1]:.2f}")
    check(6, "manufactured-convergence", ok, "; ".join(details))


def test_07_uniqueness():
    """Newton from five random initial states lands on the same solution of
    the nonlinear builtin (N = 32) to within 10x the solve tolerance."""
    spec = builtin_example_4_6()
    ctx = probed_context(spec, 32)
    m = choose_weight(ctx).m
    cfg = SolverConfig(m=m, tol=1e-10, method="newton")
    v = XYFunction.from_sources("1").sample(ctx.grid)
    rng = np.random.default_rng(707)
    solutions = [solve(ctx, v, cfg, g0=random_smooth_field(ctx.grid, 1, rng)).g
                 for _ in range(5)]
    wn = WeightedNorms(ctx.grid, m)
    spread = max(wn.norm(g.values - solutions[0].values) for g in solutions[1:])
    check(7, "uniqueness", spread <= 10.0 * cfg.tol,
          f"max weighted spread {spread:.3e} vs {10.0 * cfg.tol:.1e}")


def test_08_directional_derivative():
    """Difference quotients against the computed directional derivative:
    errors shrink proportionally to eps (within a factor of 3) on the
    nonlinear builtin, and are exact (<= 1e-10) on the zero problem and on a
    z-linear problem, where the solution map is affine."""
    eps = (1e-1, 1e-2, 1e-3)
    grid = build_grid(16)
    v = XYFunction.from_sources("x*y").sample(grid)
    dv = XYFunction.from_sources("1 - x/2 + y").sample(grid)

    ctx = probed_context(builtin_example_4_6(), 16)
    cfg = SolverConfig(m=choose_weight(ctx).m, tol=1e-10)
    rep = validate_frechet(ctx, v, dv, eps, cfg)
    errs = [err for _, err in rep.fd_errors]
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    proportional = rep.passed and all(10.0 / 3.0 <= r <= 30.0 for r in ratios)

    exact = True
    exact_errs = []
    for spec in (zero_problem(), load_problem(PURE_F1_DOC)):
        c = probed_context(spec, 16)
        r = validate_frechet(c, v, dv, eps, SolverConfig(m=choose_weight(c).m, tol=1e-10))
        worst = max(err for _, err in r.fd_errors)
        exact_errs.append(f"{spec.label} {worst:.1e}")
        exact = exact and r.valid and worst <= 1e-10
    check(8, "directional-derivative", proportional and exact,
          f"ratios {ratios[0]:.1f},{ratios[1]:.1f}; exact: " + ", ".join(exact_errs))


def test_09_stability():
    """On a z-linear problem with m > 8B, twenty random data pairs satisfy
    ||z1 - z2||_m <= (1 - 8B/m)^{-1} ||v1 - v2||_m + tolerance."""
    spec = load_problem(LINEAR_FULL_DOC)
    ctx = probed_context(spec, 16)
    m = choose_weight(ctx).m
    cfg = SolverConfig(m=m, tol=1e-10)
    rng = np.random.default_rng(909)
    worst = 0.0
    ok = True
    bound = None
    for _ in range(20):
        v1 = random_smooth_field(ctx.grid, 1, rng)
        v2 = random_smooth_field(ctx.grid, 1, rng)
        rep = stability_probe(ctx, v1, v2, cfg)
        ok = ok and rep.valid and not rep.degenerate
        bound = rep.stability_bound
        worst = max(worst, rep.stability_weighted)
        ok = ok and rep.stability_weighted <= rep.stability_bound + 1e-8
    check(9, "stability", ok, f"worst ratio {worst:.4f} vs bound {bound:.1f}")


def test_10_determinism(tmp_path, monkeypatch):
    """Two identical solve runs emit byte-identical grid and report files."""
    argv = ["solve", "--builtin", "example46", "--n", "16",
            "--rhs", "1 + x*y", "--out", "run"]
    payloads = []
    for sub in ("first", "second"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli_main(list(argv)) == 0
        payloads.append((workdir / "run.grid.csv").read_bytes()
                        + (workdir / "run.report.json").read_bytes())
    report = json.loads((tmp_path / "first" / "run.report.json").read_text())
    check(10, "determinism", payloads[0] == payloads[1] and report["result"]["converged"],
          f"{len(payloads[0])} artifact bytes compared")
