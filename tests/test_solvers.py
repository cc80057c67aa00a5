"""Weight choice, linearized/Picard/Newton solvers, and contraction estimates.

Oracles used here:
  * zero problem: the operator is the identity, so every solver must land in
    one iteration with g = v and z = Jv.
  * linear problems: F is affine, so manufactured data v = F'(z0)h* must be
    recovered to solver tolerance, and an independent dense-matrix elimination
    on the flattened grid gives a solver-free reference solution.
  * weight arithmetic: m = max(8B, 2*sqrt(d)) + 1 gives m = 9 for B = d = 1
    and m = 1 for the zero problem.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from goursat2d import operator, sensitivity, solvers
from goursat2d.errors import (
    DivergenceError,
    NoConvergenceError,
    ParameterError,
    SolverError,
    StagnationError,
)
from goursat2d.exprlang import parse
from goursat2d.grid import GridField, build_grid, cum2d_array, reconstruct_state
from goursat2d.norms import WeightedNorms
from goursat2d.operator import LinearizedOperator, apply_F, make_context
from goursat2d.problem import (
    XYFunction,
    builtin_example_4_6,
    load_problem,
    manufacture_problem,
    probe_assumptions,
    zero_problem,
)
from goursat2d.sampling import random_smooth_field
from goursat2d.sensitivity import validate_frechet
from goursat2d.solvers import (
    ContractionEstimate,
    SolverConfig,
    choose_weight,
    estimate_contraction,
    solve,
    solve_linearized,
)


def linear_spec(c1=0.5, c2=-0.25, a1="x*y", a2="y", B=1.0):
    return load_problem({
        "meta": {"n": 1, "B": B, "b": "1"},
        "functions": {"f1": [f"({c1!r})*z1"], "f2": [f"({c2!r})*z1"]},
        "coefficients": {"A1": [[a1]], "A2": [[a2]], "A1x": [["y"]], "A2y": [["0"]]},
    })


def pure_f1_spec(c=0.5, B=1.0):
    """Only the f¹ memory term: (H − I)g = c·Jg, the cleanest contraction probe."""
    return load_problem({
        "meta": {"n": 1, "B": B, "b": "1"},
        "functions": {"f1": [f"({c!r})*z1"], "f2": ["0"]},
        "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    })


def cubic_spec():
    """f¹ = z³ alone: the iterates of a large RHS overflow inside f¹."""
    return load_problem({
        "meta": {"n": 1, "B": 1.0, "b": "1"},
        "functions": {"f1": ["z1^3"], "f2": ["0"]},
        "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    })


def exp_square_spec():
    """f¹ = exp(z²) alone: at z = 26.6, F is finite but F' overflows."""
    return load_problem({
        "meta": {"n": 1, "B": 1.0, "b": "1"},
        "functions": {"f1": ["exp(z1^2)"], "f2": ["0"]},
        "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    })


def zero_spec(n):
    """The zero problem with n components."""
    zeros = [["0"] * n for _ in range(n)]
    return load_problem({
        "meta": {"n": n, "B": 0.0, "b": "0"},
        "functions": {"f1": ["0"] * n, "f2": ["0"] * n},
        "coefficients": {name: zeros for name in ("A1", "A2", "A1x", "A2y")},
    })


def probed_context(spec, cells):
    report = probe_assumptions(spec, sample_count=80)
    return make_context(spec, build_grid(cells)).with_assumptions(report)


def zero_g(grid, n=1):
    """The g whose state is the zero state."""
    return GridField(grid, np.zeros((grid.npoints, grid.npoints, n)))


class TestSolverConfig:
    @pytest.mark.parametrize("kw", [
        {"m": 0.0},
        {"m": -1.0},
        {"tol": 0.0},
        {"max_iter": 0},
        {"method": "bisection"},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_defaults_are_valid(self):
        cfg = SolverConfig()
        assert cfg.m is None and cfg.method == "newton"

    @pytest.mark.parametrize("kw", [
        {"m": math.inf},
        {"m": math.nan},
        {"m": True},
        {"m": "auto"},
        {"tol": math.inf},
        {"tol": True},
        {"max_iter": 2.5},
        {"max_iter": True},
        {"max_iter": "7"},
    ], ids=lambda kw: "{}={!r}".format(*next(iter(kw.items()))))
    def test_rejects_non_finite_and_wrongly_typed_values(self, kw):
        with pytest.raises(ValueError):
            SolverConfig(**kw)

    def test_numpy_scalars_are_accepted(self):
        cfg = SolverConfig(m=np.float64(9.0), tol=np.float32(1e-6), max_iter=np.int64(5))
        assert cfg.max_iter == 5

    def test_from_settings_maps_auto_to_none(self):
        cfg = SolverConfig.from_settings({"m": "auto", "tol": 1e-9, "method": "picard"})
        assert cfg == SolverConfig(tol=1e-9, method="picard")
        assert SolverConfig.from_settings({"m": 7}).m == 7


class TestChooseWeight:
    def test_unit_bounds_give_nine(self):
        # B = 1 and d = max(M_rho, B) = 1 -> m = max(8, 2) + 1 = 9
        ctx = probed_context(linear_spec(), 8)
        choice = choose_weight(ctx)
        assert choice.m == pytest.approx(9.0)
        assert choice.growth_bound == 1.0
        assert choice.kernel_bound == pytest.approx(1.0)
        assert choice.coercivity_threshold == pytest.approx(8.0)
        assert choice.contraction_threshold == pytest.approx(2.0)

    def test_zero_problem_gives_one(self):
        # B = 0 and d = 0 -> m = max(0, 0) + 1 = 1
        ctx = probed_context(zero_problem(), 8)
        choice = choose_weight(ctx)
        assert choice.m == pytest.approx(1.0)
        assert choice.kernel_bound == 0.0

    def test_radius_tracks_expected_iterate_size(self):
        ctx = probed_context(linear_spec(), 8)
        small = zero_g(ctx.grid)
        assert choose_weight(ctx, LinearizedOperator(ctx, small)).radius == pytest.approx(1.0)
        # g = 1.2 has sup|z| = 1.2 -> target 2.2 -> smallest probed radius >= 2.2 is 4
        big = GridField(ctx.grid, 1.2 * np.ones((9, 9, 1)))
        assert choose_weight(ctx, LinearizedOperator(ctx, big)).radius == pytest.approx(4.0)

    def test_reads_the_operator_state_without_rebuilding_it(self, monkeypatch):
        ctx = probed_context(linear_spec(), 8)
        big = LinearizedOperator(ctx, GridField(ctx.grid, 1.2 * np.ones((9, 9, 1))))

        def rebuild(*args, **kwargs):
            raise AssertionError("choose_weight rebuilt a state")

        monkeypatch.setattr("goursat2d.grid.state_from_g", rebuild)
        monkeypatch.setattr("goursat2d.operator.strip_step", rebuild)
        assert choose_weight(ctx, big).radius == pytest.approx(4.0)
        assert choose_weight(ctx).radius == pytest.approx(1.0)

    def test_requires_probe(self):
        ctx = make_context(linear_spec(), build_grid(8))
        with pytest.raises(ParameterError):
            choose_weight(ctx)

    def test_overflowing_weight_names_B_and_d(self):
        # 8B overflows to inf: no finite weight exists, and a solve must say so
        # instead of failing later as a divergence of the iterates
        with np.errstate(over="ignore"):  # the probe's growth ratios overflow too
            ctx = probed_context(linear_spec(B=1e308), 8)
        with pytest.raises(ParameterError, match="B = 1e\\+308 and d = 1e\\+308"):
            choose_weight(ctx)
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        with pytest.raises(ParameterError, match="no finite weight"):
            solve(ctx, v, SolverConfig())

    @staticmethod
    def sine_spec(c):
        """f¹ = c·sin z: the probed Jacobian sup, and so d, is c at every radius."""
        return load_problem({
            "meta": {"n": 1, "B": 0, "b": "0"},
            "functions": {"f1": [f"{c!r}*sin(z1)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        })

    def test_a_weight_that_blinds_the_norm_off_the_origin_is_refused(self):
        # d = 1.7e308 is finite, but m = 2√d + 1 = 2.6e154 underflows e^(−mh):
        # a norm that weighs node (0, 0) only would call any iterate converged
        ctx = probed_context(self.sine_spec(1.7e308), 8)
        with pytest.raises(ParameterError, match=r"m = 2\.60768e\+154 .* node \(0, 0\) only"):
            choose_weight(ctx)
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        for run in (lambda: solve(ctx, v, SolverConfig()),
                    lambda: solve_linearized(LinearizedOperator(ctx), v, SolverConfig())):
            with pytest.raises(ParameterError, match="node \\(0, 0\\) only"):
                run()
        # m = 2001 keeps every factor nonzero at h = 1/8 and is accepted
        choice = choose_weight(probed_context(self.sine_spec(1e6), 8))
        assert choice.m == 2001.0
        assert WeightedNorms(build_grid(8), choice.m).factors[1] > 0.0

    def test_as_dict_round_trip(self):
        choice = choose_weight(probed_context(linear_spec(), 8))
        d = choice.as_dict()
        assert d["m"] == choice.m and d["radius"] == choice.radius


class TestLinearizedSolve:
    def test_zero_problem_one_iteration(self):
        ctx = probed_context(zero_problem(), 12)
        rng = np.random.default_rng(5)
        v = random_smooth_field(ctx.grid, 1, rng)
        rep = solve_linearized(LinearizedOperator(ctx), v, SolverConfig())
        assert rep.converged and rep.iterations == 1 and len(rep.trace) == 1
        assert rep.m_used == pytest.approx(1.0)
        np.testing.assert_array_equal(rep.g.values, v.values)
        np.testing.assert_allclose(
            reconstruct_state(rep.g)[0].values, cum2d_array(v.values, ctx.grid.h), atol=1e-15
        )
        assert rep.residual_classical == 0.0

    def test_overflow_raises_divergence_with_last_finite_iterate(self):
        # (H − I)g = 1e80·Jg grows each iterate by ~1e80, so the fourth
        # residual's values overflow before the patience runs out; the second
        # (values near 1e158, whose squares overflow) still has a finite norm
        ctx = make_context(pure_f1_spec(c=1e80), build_grid(8))
        lin = LinearizedOperator(ctx)
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="linearized iteration 4 overflowed") as exc_info:
                solve_linearized(lin, v, SolverConfig(m=1.0))
        report = exc_info.value.report
        assert report.iterations == len(report.trace) == 3 and not report.converged
        assert 1e157 < report.trace[1].residual < 1e159
        assert np.isfinite(report.g.values).all()
        r = lin.apply_array(report.g.values) - v.values
        assert WeightedNorms(ctx.grid, 1.0).norm(r) == report.residual_weighted
        assert math.isfinite(report.residual_classical)

    def test_recovers_manufactured_direction(self):
        ctx = probed_context(linear_spec(), 16)
        lin = LinearizedOperator(ctx)
        rng = np.random.default_rng(11)
        h_star = random_smooth_field(ctx.grid, 1, rng)
        v = GridField(ctx.grid, lin.apply_array(h_star.values))
        cfg = SolverConfig(tol=1e-12)
        rep = solve_linearized(lin, v, cfg)
        assert rep.converged
        wn = WeightedNorms(ctx.grid, rep.m_used)
        assert wn.norm(rep.g.values - h_star.values) <= 10 * cfg.tol
        # contraction at m = 9 with d = 1 is below 4d/m^2, so the trace decays fast
        late = [t.ratio for t in rep.trace[2:] if t.ratio is not None]
        assert late and max(late) < 0.25

    def test_recovers_direction_at_nonlinear_state(self):
        ctx = probed_context(builtin_example_4_6(), 12)
        rng = np.random.default_rng(7)
        at = random_smooth_field(ctx.grid, 1, rng)
        lin = LinearizedOperator(ctx, at)
        h_star = random_smooth_field(ctx.grid, 1, rng)
        v = GridField(ctx.grid, lin.apply_array(h_star.values))
        cfg = SolverConfig(tol=1e-12)
        rep = solve_linearized(lin, v, cfg)
        wn = WeightedNorms(ctx.grid, rep.m_used)
        assert rep.converged and wn.norm(rep.g.values - h_star.values) <= 10 * cfg.tol

    def test_matches_dense_elimination(self):
        # Independent oracle: assemble H on the flattened grid from the 1D
        # trapezoid prefix matrix W and solve by LU, no iteration involved.
        cells = 16
        spec = linear_spec()
        ctx = probed_context(spec, cells)
        grid = ctx.grid
        P = grid.npoints
        W = np.zeros((P, P))
        for i in range(1, P):
            W[i, : i + 1] = grid.h
            W[i, 0] = grid.h / 2
            W[i, i] = grid.h / 2
        eye_p = np.eye(P)
        C2 = np.kron(W, W)       # double integral, index = i*P + j
        Cy = np.kron(eye_p, W)   # integral over t in [0, y]: the z_x part
        Cx = np.kron(W, eye_p)   # integral over s in [0, x]: the z_y part
        X, Y = grid.meshgrid()
        DA1 = np.diag((X * Y).ravel())
        DA2 = np.diag(Y.ravel())
        H = (
            np.eye(P * P)
            + 0.5 * C2
            + C2 @ (-0.25 * C2 + DA1 @ Cy + DA2 @ Cx)
        )
        rng = np.random.default_rng(23)
        v = random_smooth_field(grid, 1, rng)
        g_direct = np.linalg.solve(H, v.values[:, :, 0].ravel()).reshape(P, P, 1)
        rep = solve_linearized(LinearizedOperator(ctx), v, SolverConfig(tol=1e-13))
        err = WeightedNorms(grid, 0.0).norm(rep.g.values - g_direct)
        assert err <= 1e-8

    def test_warns_below_contraction_threshold(self):
        ctx = probed_context(pure_f1_spec(), 12)
        lin = LinearizedOperator(ctx)
        rng = np.random.default_rng(3)
        v = random_smooth_field(ctx.grid, 1, rng)
        # d = max(0.5, 1) = 1, threshold 2*sqrt(d) = 2, so m = 1.5 must warn;
        # the true factor is still < 1 there, so the solve itself succeeds
        with pytest.warns(UserWarning, match="contraction threshold"):
            rep = solve_linearized(lin, v, SolverConfig(m=1.5, tol=1e-9))
        assert rep.converged

    def test_divergence_raises_with_partial_report(self):
        # the Volterra part is quasi-nilpotent, so Richardson always converges
        # eventually; a large coefficient makes the transient growth long
        # enough that the divergence guard must fire first
        spec = pure_f1_spec(c=200.0, B=200.0)
        ctx = make_context(spec, build_grid(12))
        lin = LinearizedOperator(ctx)
        rng = np.random.default_rng(4)
        v = random_smooth_field(ctx.grid, 1, rng)
        with pytest.raises(DivergenceError, match="larger m") as exc_info:
            solve_linearized(lin, v, SolverConfig(m=1.0))
        report = exc_info.value.report
        assert report is not None and not report.converged
        assert report.trace[-1].ratio is not None and report.trace[-1].ratio >= 1.0

    def test_iteration_cap_raises(self):
        ctx = probed_context(pure_f1_spec(), 12)
        lin = LinearizedOperator(ctx)
        rng = np.random.default_rng(6)
        v = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(m=3.0, tol=1e-14, max_iter=4)
        with pytest.raises(NoConvergenceError) as exc_info:
            solve_linearized(lin, v, cfg)
        report = exc_info.value.report
        assert report is not None and report.iterations == 4
        assert all(t.ratio < 1.0 for t in report.trace if t.ratio is not None)


class TestContractionEstimate:
    def test_zero_problem_is_exactly_identity(self):
        ctx = probed_context(zero_problem(), 12)
        est = estimate_contraction(LinearizedOperator(ctx), SolverConfig())
        assert est.rho_hat == 0.0 and est.contracting
        assert est.bound == 0.0 and est.m == pytest.approx(1.0)

    def test_chosen_weight_contracts_within_bound(self):
        ctx = probed_context(pure_f1_spec(), 16)
        est = estimate_contraction(LinearizedOperator(ctx), SolverConfig())
        assert est.m == pytest.approx(9.0)
        assert 0.0 < est.rho_hat < 1.0
        assert est.rho_hat <= est.bound

    def test_doubling_m_quarters_the_factor(self):
        # the memory term scales like 1/m^2 in the weighted norm, so doubling
        # m should cut the measured factor by about 4
        ctx = probed_context(pure_f1_spec(), 16)
        lin = LinearizedOperator(ctx)
        lo = estimate_contraction(lin, SolverConfig(m=10.0), seed=42)
        hi = estimate_contraction(lin, SolverConfig(m=20.0), seed=42)
        factor = lo.rho_hat / hi.rho_hat
        assert 3.0 <= factor <= 5.0

    def test_zero_direction_is_skipped(self, monkeypatch):
        # a direction of norm 0 has no ratio: ρ̂ is the other trials' maximum
        ctx = probed_context(pure_f1_spec(), 8)
        lin = LinearizedOperator(ctx)
        expected = estimate_contraction(lin, SolverConfig(m=5.0), trials=3, seed=4).rho_hat
        draw, draws = solvers.random_smooth_field, []

        def zero_first(grid, n, rng):
            draws.append(n)
            if len(draws) == 1:  # no draw from the stream, so the others are unshifted
                return GridField(grid, np.zeros((grid.npoints, grid.npoints, n)))
            return draw(grid, n, rng)

        monkeypatch.setattr(solvers, "random_smooth_field", zero_first)
        est = estimate_contraction(lin, SolverConfig(m=5.0), trials=4, seed=4)
        assert len(draws) == 4 and est.trials == 4
        assert est.rho_hat == expected > 0.0

    def test_deterministic_for_fixed_seed(self):
        ctx = probed_context(linear_spec(), 12)
        lin = LinearizedOperator(ctx)
        a = estimate_contraction(lin, SolverConfig(m=5.0), seed=9)
        b = estimate_contraction(lin, SolverConfig(m=5.0), seed=9)
        assert a == b and isinstance(a, ContractionEstimate)

    def test_bound_divides_by_m_twice_only_where_m_squared_overflows(self):
        ctx = probed_context(pure_f1_spec(), 8)
        lin = LinearizedOperator(ctx)
        d = solvers.choose_weight(ctx, lin).kernel_bound
        m = 1.3e154
        assert estimate_contraction(lin, SolverConfig(m=m)).bound == 4.0 * d / m**2
        for m in (1e155, 1e200):  # m**2 raises OverflowError above ~1.34e154
            est = estimate_contraction(lin, SolverConfig(m=m))
            assert est.m == m and est.bound == 4.0 * (d / m) / m

    def test_rejects_no_trials(self):
        ctx = probed_context(linear_spec(), 8)
        with pytest.raises(ValueError):
            estimate_contraction(LinearizedOperator(ctx), SolverConfig(m=5.0), trials=0)


class TestPicard:
    def test_zero_problem_unit_rhs(self):
        ctx = probed_context(zero_problem(), 16)
        v = GridField(ctx.grid, np.ones((17, 17, 1)))
        rep = solve(ctx, v, SolverConfig(method="picard"))
        assert rep.converged and rep.iterations == 1
        np.testing.assert_array_equal(rep.g.values, np.ones((17, 17, 1)))
        X, Y = ctx.grid.meshgrid()
        z = reconstruct_state(rep.g)[0].values
        np.testing.assert_allclose(z[:, :, 0], X * Y, atol=1e-12)

    def test_recovers_discrete_manufactured_solution(self):
        ctx = probed_context(builtin_example_4_6(), 16)
        rng = np.random.default_rng(12)
        g_star = GridField(ctx.grid, random_smooth_field(ctx.grid, 1, rng).values * 0.5)
        v = apply_F(ctx, g_star)
        cfg = SolverConfig(method="picard", tol=1e-11)
        rep = solve(ctx, v, cfg)
        assert rep.converged
        wn = WeightedNorms(ctx.grid, rep.m_used)
        assert wn.norm(rep.g.values - g_star.values) <= 10 * cfg.tol

    def test_overflow_inside_expression_is_divergence(self):
        # z^3 overflows in exprlang (iteration 5, |g| ~ 1e106) before the
        # weighted norm of any residual does
        ctx = make_context(cubic_spec(), build_grid(8))
        v = GridField(ctx.grid, np.full((9, 9, 1), 20.0))
        with pytest.raises(DivergenceError, match=r"picard iteration \d+ overflowed \(non-finite result") as exc_info:
            solve(ctx, v, SolverConfig(m=1.0, method="picard"))
        report = exc_info.value.report
        assert report.iterations == len(report.trace) >= 2 and not report.converged
        assert np.isfinite(report.g.values).all()
        r = apply_F(ctx, report.g.values) - v.values
        assert WeightedNorms(ctx.grid, 1.0).norm(r) == report.residual_weighted


class TestNewton:
    def test_linear_problem_needs_one_update(self):
        ctx = probed_context(linear_spec(), 12)
        rng = np.random.default_rng(14)
        g_star = random_smooth_field(ctx.grid, 1, rng)
        v = apply_F(ctx, g_star)
        rep = solve(ctx, v, SolverConfig(tol=1e-10))
        assert rep.converged and rep.iterations == 2
        wn = WeightedNorms(ctx.grid, rep.m_used)
        assert wn.norm(rep.g.values - g_star.values) <= 1e-9

    def test_nonlinear_manufactured_solution(self):
        # example46 with cos(z^3) in f1
        spec = replace(builtin_example_4_6(),
                       f1=(parse("(1) * (z1^3/(1 + z1^2) + cos(z1^3))", 1),))
        ctx = probed_context(spec, 16)
        rng = np.random.default_rng(15)
        g_star = random_smooth_field(ctx.grid, 1, rng)
        v = apply_F(ctx, g_star)
        cfg = SolverConfig(tol=1e-11)
        rep = solve(ctx, v, cfg)
        assert rep.converged and rep.iterations <= 10
        wn = WeightedNorms(ctx.grid, rep.m_used)
        assert wn.norm(rep.g.values - g_star.values) <= 10 * cfg.tol
        # once in the basin the trace contracts much faster than the
        # Picard-style linear rate
        assert rep.trace[-1].ratio is not None and rep.trace[-1].ratio < 0.05

    def test_matches_picard_fixed_point(self):
        ctx = probed_context(builtin_example_4_6(), 12)
        rng = np.random.default_rng(16)
        v = apply_F(ctx, GridField(ctx.grid, random_smooth_field(ctx.grid, 1, rng).values * 0.4))
        newton = solve(ctx, v, SolverConfig(tol=1e-11))
        picard = solve(ctx, v, SolverConfig(method="picard", tol=1e-11))
        wn = WeightedNorms(ctx.grid, newton.m_used)
        assert wn.norm(newton.g.values - picard.g.values) <= 1e-10

    def test_odd_rhs_gives_odd_solution(self):
        # f1, f2 odd in z and no memory coefficients: the discrete fixed-point
        # map commutes with negation, so z(-v) = -z(v)
        spec = load_problem({
            "meta": {"n": 1, "B": 1.0, "b": "0"},
            "functions": {"f1": ["z1^3/(1 + z1^2)"], "f2": ["sin(z1)"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        })
        report = probe_assumptions(spec, sample_count=80)
        ctx = make_context(spec, build_grid(12)).with_assumptions(report)
        rng = np.random.default_rng(17)
        v = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(tol=1e-11)
        plus = solve(ctx, v, cfg)
        minus = solve(ctx, GridField(ctx.grid, -v.values), cfg)
        wn = WeightedNorms(ctx.grid, plus.m_used)
        assert wn.norm(plus.g.values + minus.g.values) <= 100 * cfg.tol

    def test_unique_limit_from_many_starts(self):
        ctx = probed_context(builtin_example_4_6(), 10)
        rng = np.random.default_rng(18)
        v = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(tol=1e-11)
        base = solve(ctx, v, cfg)
        wn = WeightedNorms(ctx.grid, base.m_used)
        for trial in range(5):
            g0 = GridField(ctx.grid, random_smooth_field(ctx.grid, 1, rng).values * (0.5 + trial))
            rep = solve(ctx, v, cfg, g0=g0)
            assert rep.converged
            assert wn.norm(rep.g.values - base.g.values) <= 100 * cfg.tol

    def test_iteration_cap_raises(self):
        ctx = probed_context(builtin_example_4_6(), 8)
        rng = np.random.default_rng(19)
        v = random_smooth_field(ctx.grid, 1, rng)
        with pytest.raises(NoConvergenceError) as exc_info:
            solve(ctx, v, SolverConfig(tol=1e-16, max_iter=1))
        report = exc_info.value.report
        assert report is not None and report.iterations == 1 and not report.converged

    def test_ratio_plateau_still_converges(self):
        # the weighted ratio sits at 0.96-1.0002 for a dozen steps before the
        # quadratic phase: Newton has no divergence patience to cut this short
        ctx = make_context(builtin_example_4_6(), build_grid(16))
        v = GridField(ctx.grid, np.full((17, 17, 1), 40.0))
        rep = solve(ctx, v, SolverConfig(m=0.5))
        assert rep.converged and rep.iterations == 20
        plateau = [t.ratio for t in rep.trace[1:13]]
        assert min(plateau) > 0.96 and max(plateau) >= 1.0

    def test_inner_failure_carries_the_outer_report(self):
        # m = 2 is below the contraction threshold: an inner linear solve diverges
        ctx = make_context(builtin_example_4_6(), build_grid(8))
        v = GridField(ctx.grid, np.full((9, 9, 1), -100.0))
        with pytest.raises(DivergenceError, match="not contracting") as exc_info:
            solve(ctx, v, SolverConfig(m=2.0))
        report = exc_info.value.report
        assert report.method == "newton" and not report.converged
        assert report.iterations == len(report.trace) > 1
        # the last accepted iterate, with its own residual
        r = apply_F(ctx, report.g.values) - v.values
        assert WeightedNorms(ctx.grid, 2.0).norm(r) == pytest.approx(report.residual_weighted, rel=1e-12)

    def test_overflow_in_the_step_is_divergence(self):
        # g ≡ 26.6 gives z(1, 1) = 26.6 and exp(z²) ≈ 2e307, so the first
        # residual is finite; the partial 2z·exp(z²) of F' overflows while
        # the first Newton step builds its operator
        ctx = make_context(exp_square_spec(), build_grid(8))
        v = GridField(ctx.grid, np.full((9, 9, 1), 26.6))
        with pytest.raises(DivergenceError, match=re.escape(
                "newton iteration 1 overflowed (non-finite derivative (overflow?) "
                "(expression offset 0) at (x, y) = (1, 1))")) as exc_info:
            solve(ctx, v, SolverConfig(m=9.0))
        report = exc_info.value.report
        assert report.iterations == len(report.trace) == 1 and not report.converged
        np.testing.assert_array_equal(report.g.values, 26.6)

    def test_failed_line_search_raises_stagnation(self):
        # at z = 0 the subgradient of abs is 0, so F'(0) = I and δ = v; but
        # F(λv) − v = (λ − 1)v − 10λ|Jv| raises the merit for every λ > 0
        spec = load_problem({
            "meta": {"n": 1, "B": 10.0, "b": "0"},
            "functions": {"f1": ["-10*abs(z1)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        })
        ctx = make_context(spec, build_grid(8))
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        g0 = GridField(ctx.grid, np.zeros((9, 9, 1)))
        with pytest.raises(StagnationError, match="20 halvings") as exc_info:
            solve(ctx, v, SolverConfig(m=1.0), g0=g0)
        report = exc_info.value.report
        assert report.method == "newton" and report.iterations == 1
        np.testing.assert_array_equal(report.g.values, 0.0)

    def test_line_search_rejects_trials_whose_F_overflows(self):
        # F(g) = g + sin(z²) at z = 0 has F' = I, so the first step is δ = v;
        # sin(z²) is NaN wherever z² overflows, which holds for every λ·v
        # down to λ = 2^-13, the first trial that lowers the merit
        spec = load_problem({
            "meta": {"n": 1, "B": 1.0, "b": "1"},
            "functions": {"f1": ["sin(z1^2)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        })
        ctx = make_context(spec, build_grid(8))
        v = GridField(ctx.grid, np.full((9, 9, 1), 1e158))
        g0 = GridField(ctx.grid, np.zeros((9, 9, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            # the next linearization, at |z| ~ 1e154, makes the inner solve overflow
            with pytest.raises(DivergenceError, match="linearized iteration 1 overflowed") as exc_info:
                solve(ctx, v, SolverConfig(m=1.0), g0=g0)
        report = exc_info.value.report
        assert report.method == "newton" and report.iterations == 2
        np.testing.assert_array_equal(report.g.values, 2.0**-13 * 1e158)

    def test_line_search_halves_trials_whose_F_leaves_the_domain(self):
        # a full Newton step takes log(1 + z1) below z1 = -1; the trial
        # counts as no decrease, so the solve goes on to a SolverError with
        # its report instead of raising the EvalFaultError
        spec = load_problem({
            "meta": {"n": 1, "B": 1.0, "b": "1"},
            "functions": {"f1": ["exp(3*z1) + log(1+z1)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        })
        ctx = make_context(spec, build_grid(16))
        v = XYFunction.from_sources("5*sin(6*x)").sample(ctx.grid)
        with pytest.raises(SolverError) as exc_info:
            solve(ctx, v, SolverConfig(m=5.0))
        report = exc_info.value.report
        assert report.method == "newton" and not report.converged
        assert report.iterations == len(report.trace) > 1

    def test_mesh_refinement_halves_h_quarters_error(self):
        base = linear_spec()
        zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
        errors = []
        for cells in (16, 32):
            grid = build_grid(cells)
            mspec = manufacture_problem(base, zstar, grid, refine=4)
            report = probe_assumptions(mspec, sample_count=80)
            ctx = make_context(mspec, grid).with_assumptions(report)
            rep = solve(ctx, mspec.sample_rhs(grid), SolverConfig(tol=1e-12))
            ref = zstar.sample(grid)
            errors.append(WeightedNorms(grid, 0.0).norm(rep.g.values - ref.values))
        ratio = errors[0] / errors[1]
        assert 3.48 <= ratio <= 4.6


class TestNewtonArrays:
    """Newton's steps pass their iterate and residual to F' and to the inner
    solve as value arrays: a field is built for a report only."""

    def test_a_four_step_solve_builds_a_field_per_report(self, monkeypatch):
        spec = builtin_example_4_6()
        ctx = make_context(spec, build_grid(64)).with_assumptions(probe_assumptions(spec))
        v = GridField(ctx.grid, (1.8 + 0.1 * ctx.X * ctx.Y)[..., None])
        built = []
        init = GridField.__init__

        def counted(self, grid, values):
            built.append(grid)
            init(self, grid, values)

        monkeypatch.setattr(GridField, "__init__", counted)
        rep = solve(ctx, v, SolverConfig(m=choose_weight(ctx).m))
        # the solve's report and those of its three inner solves (10 while
        # each step copied its iterate, −r and the inner solution into fields)
        assert rep.iterations == 4 and len(built) == 4

    def test_an_array_right_hand_side_is_its_field(self):
        ctx = probed_context(builtin_example_4_6(), 12)
        rng = np.random.default_rng(3)
        lin = LinearizedOperator(ctx, random_smooth_field(ctx.grid, 1, rng).values)
        v = random_smooth_field(ctx.grid, 1, rng)
        saved = v.values.copy()
        w = v.values.copy()
        a, b = solve_linearized(lin, v, SolverConfig()), solve_linearized(lin, w, SolverConfig())
        assert a.g.values.tobytes() == b.g.values.tobytes() and a.trace == b.trace
        assert w.tobytes() == saved.tobytes()

    def test_the_negated_residual_keeps_the_partial_report(self, monkeypatch):
        # the inner solve of the first step stops at its cap, and the error's
        # report gives the norm of the residual that the step negated for
        # that solve
        ctx = probed_context(builtin_example_4_6(), 8)
        v = GridField(ctx.grid, (1.8 + 0.1 * ctx.X * ctx.Y)[..., None])
        first = apply_F(ctx, v.values) - v.values
        monkeypatch.setattr(solvers, "INNER_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError) as exc_info:
            solve(ctx, v, SolverConfig(m=choose_weight(ctx).m))
        report = exc_info.value.report
        assert report.iterations == 1
        assert report.residual_classical == WeightedNorms(ctx.grid, 0.0).norm(first)
        assert report.g.values.tobytes() == v.values.tobytes()


class TestFailureReports:
    """A failed solve's report gives the norms of the residual of its own
    iterate, bit for bit, whatever the step wrote after evaluating it."""

    @staticmethod
    def check(report, residual, m):
        r = residual(report.g.values)
        assert report.residual_classical == WeightedNorms(report.g.grid, 0.0).norm(r)
        assert report.residual_weighted == WeightedNorms(report.g.grid, m).norm(r)
        assert report.residual_weighted == report.trace[-1].residual

    def test_picard_overflow(self):
        ctx = make_context(cubic_spec(), build_grid(8))
        v = GridField(ctx.grid, np.full((9, 9, 1), 20.0))
        with pytest.raises(DivergenceError, match="picard iteration") as exc_info:
            solve(ctx, v, SolverConfig(m=1.0, method="picard"))
        report = exc_info.value.report
        assert report.iterations >= 2
        self.check(report, lambda g: apply_F(ctx, g) - v.values, 1.0)

    def test_linearized_divergence(self):
        ctx = make_context(pure_f1_spec(c=200.0, B=200.0), build_grid(12))
        lin = LinearizedOperator(ctx)
        v = random_smooth_field(ctx.grid, 1, np.random.default_rng(4))
        with pytest.raises(DivergenceError, match="not contracting") as exc_info:
            solve_linearized(lin, v, SolverConfig(m=1.0))
        report = exc_info.value.report
        assert report.iterations > 1
        self.check(report, lambda g: lin.apply_array(g) - v.values, 1.0)

    def test_newton_stagnation_after_rejected_trials(self):
        # every one of the 21 trials raises the merit (see TestNewton)
        spec = load_problem({
            "meta": {"n": 1, "B": 10.0, "b": "0"},
            "functions": {"f1": ["-10*abs(z1)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        })
        ctx = make_context(spec, build_grid(8))
        v = XYFunction.from_sources("1 + x*y").sample(ctx.grid)
        g0 = GridField(ctx.grid, np.zeros((9, 9, 1)))
        with pytest.raises(StagnationError) as exc_info:
            solve(ctx, v, SolverConfig(m=1.0), g0=g0)
        self.check(exc_info.value.report, lambda g: apply_F(ctx, g) - v.values, 1.0)

    def test_newton_inner_failure(self):
        ctx = make_context(builtin_example_4_6(), build_grid(8))
        v = GridField(ctx.grid, np.full((9, 9, 1), -100.0))
        with pytest.raises(DivergenceError, match="not contracting") as exc_info:
            solve(ctx, v, SolverConfig(m=2.0))
        report = exc_info.value.report
        assert report.iterations > 1
        self.check(report, lambda g: apply_F(ctx, g) - v.values, 2.0)


class TestDispatchAndReports:
    def test_solve_routes_by_method(self):
        ctx = probed_context(builtin_example_4_6(), 8)
        rng = np.random.default_rng(20)
        v = apply_F(ctx, GridField(ctx.grid, random_smooth_field(ctx.grid, 1, rng).values * 0.3))
        a = solve(ctx, v, SolverConfig(method="picard", tol=1e-10))
        b = solve(ctx, v, SolverConfig(method="newton", tol=1e-10))
        assert a.method == "picard" and b.method == "newton"
        assert WeightedNorms(ctx.grid, 0.0).norm(a.g.values - b.g.values) <= 1e-7

    def test_report_dict_shape(self):
        ctx = probed_context(zero_problem(), 8)
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        rep = solve(ctx, v, SolverConfig(method="picard"))
        d = rep.as_dict()
        assert d["method"] == "picard" and d["converged"] is True
        assert d["trace"][0] == {"iteration": 1, "residual": 0.0, "ratio": None}

    def test_repeat_solves_bit_identical(self):
        ctx = probed_context(builtin_example_4_6(), 10)
        rng = np.random.default_rng(21)
        v = random_smooth_field(ctx.grid, 1, rng)
        a = solve(ctx, v, SolverConfig(tol=1e-11))
        b = solve(ctx, v, SolverConfig(tol=1e-11))
        np.testing.assert_array_equal(a.g.values, b.g.values)
        assert a.trace == b.trace


class TestExample46BothSigns:
    """The solves the N=512 benchmark times, at N=64: a z ≥ 0 and a z ≤ 0
    right-hand side, under the automatic weight, with no numpy warning."""

    @pytest.fixture(scope="class")
    def setup(self):
        spec = builtin_example_4_6()
        ctx = make_context(spec, build_grid(64)).with_assumptions(probe_assumptions(spec))
        return ctx, choose_weight(ctx).m

    @pytest.mark.parametrize("a, sign, method, iterations", [
        (1.8, 1.0, "newton", 4), (1.8, 1.0, "picard", 5),
        (-0.3, -1.0, "newton", 4), (-0.3, -1.0, "picard", 7),
    ])
    def test_converges_in_the_recorded_iterations(self, setup, a, sign, method, iterations):
        ctx, m = setup
        X, Y = ctx.grid.meshgrid()
        v = GridField(ctx.grid, (a + 0.1 * X * Y)[..., None])
        cfg = SolverConfig(m=m, method=method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(ctx, v, cfg)
        assert rep.converged and rep.residual_weighted <= cfg.tol
        assert rep.iterations == iterations
        z = reconstruct_state(rep.g)[0].values
        assert (sign * z >= 0.0).all() and (sign * z).max() > 0.9


def foreign_operator(bad: GridField) -> LinearizedOperator:
    """F' at zero of a problem with the grid and n of ``bad``."""
    return LinearizedOperator(make_context(zero_spec(bad.n), bad.grid))


#: Every public entry fed one foreign field ``bad`` (or an operator built on
#: its grid and n), at the fitting v.
_ENTRIES = {
    "solve-g0": lambda ctx, v, bad: solve(ctx, v, SolverConfig(m=9.0), g0=bad),
    "solve_linearized-v": lambda ctx, v, bad: solve_linearized(
        LinearizedOperator(ctx), bad, SolverConfig(m=9.0)),
    "LinearizedOperator-at": lambda ctx, v, bad: LinearizedOperator(ctx, bad),
    "choose_weight-at": lambda ctx, v, bad: choose_weight(ctx, at=foreign_operator(bad)),
    "validate_frechet-v": lambda ctx, v, bad: validate_frechet(
        ctx, bad, v, (1e-1, 1e-2, 1e-3), SolverConfig(m=9.0)),
    "validate_frechet-deltav": lambda ctx, v, bad: validate_frechet(
        ctx, v, bad, (1e-1, 1e-2, 1e-3), SolverConfig(m=9.0)),
}


@pytest.mark.parametrize("foreign, message", [
    ("grid", "{} on Grid\\(cells=4\\) does not match context grid Grid\\(cells=8\\)"),
    ("n", "{} has 2 components, problem has 1"),
], ids=["other-grid", "other-n"])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_every_entry_rejects_a_foreign_field_before_any_work(entry, foreign, message,
                                                             monkeypatch):
    ctx = probed_context(builtin_example_4_6(), 8)
    v = GridField(ctx.grid, np.ones((9, 9, 1)))
    bad = (GridField(build_grid(4), np.ones((5, 5, 1))) if foreign == "grid"
           else GridField(ctx.grid, np.ones((9, 9, 2))))

    def work(*args, **kwargs):
        raise AssertionError("work began before the field check")

    for module, name in ((solvers, "apply_F"), (solvers, "LinearizedOperator"),
                         (operator, "strip_step"), (LinearizedOperator, "apply_array"),
                         (sensitivity, "solve")):
        monkeypatch.setattr(module, name, work)
    what = "operator" if entry == "choose_weight-at" else "field"
    with pytest.raises(ParameterError, match=message.format(what)):
        _ENTRIES[entry](ctx, v, bad)
