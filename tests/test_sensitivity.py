"""Directional derivatives of the solution map and stability ratios.

The key oracle is the definition itself: h = (dz/dv)[δv] must match the
difference quotient (g_{v+ε·δv} − g_v)/ε to first order, with the error
falling linearly in ε.  On z-linear problems the solution map is affine, so
the quotient matches h up to solver noise at every ε.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from goursat2d.errors import ParameterError, SolverError
from goursat2d.grid import GridField, build_grid
from goursat2d.norms import WeightedNorms
from goursat2d.operator import make_context
from goursat2d.problem import (
    builtin_example_4_6,
    load_problem,
    probe_assumptions,
    zero_problem,
)
from goursat2d.sampling import random_smooth_field
from goursat2d.sensitivity import (
    frechet_apply,
    stability_probe,
    validate_frechet,
)
from goursat2d.solvers import INNER_TOL, SolverConfig, solve


def probed_context(spec, cells):
    report = probe_assumptions(spec, sample_count=80)
    return make_context(spec, build_grid(cells)).with_assumptions(report)


def linear_spec():
    return load_problem({
        "meta": {"n": 1, "B": 1.0, "b": "1"},
        "functions": {"f1": ["(0.5)*z1"], "f2": ["(-0.25)*z1"]},
        "coefficients": {"A1": [["x*y"]], "A2": [["y"]], "A1x": [["y"]], "A2y": [["0"]]},
    })


class TestFrechetApply:
    def test_requires_converged_base(self):
        ctx = probed_context(zero_problem(), 8)
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        cfg = SolverConfig(tol=1e-11)
        base = solve(ctx, v, cfg)
        broken = type(base)(**{**base.__dict__, "converged": False})
        with pytest.raises(SolverError, match="converged"):
            frechet_apply(ctx, broken, v)

    def test_zero_problem_derivative_is_identity(self):
        ctx = probed_context(zero_problem(), 12)
        rng = np.random.default_rng(1)
        v = random_smooth_field(ctx.grid, 1, rng)
        dv = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(tol=1e-11)
        h = frechet_apply(ctx, solve(ctx, v, cfg), dv)
        np.testing.assert_array_equal(h.values, dv.values)

    def test_homogeneous_in_the_direction(self):
        ctx = probed_context(builtin_example_4_6(), 12)
        rng = np.random.default_rng(2)
        v = random_smooth_field(ctx.grid, 1, rng)
        dv = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(tol=1e-11)
        base = solve(ctx, v, cfg)
        h1 = frechet_apply(ctx, base, dv)
        wn = WeightedNorms(ctx.grid, base.m_used)
        for c in (-1.0, 2.0):
            hc = frechet_apply(ctx, base, GridField(ctx.grid, dv.values * c))
            assert wn.norm(hc.values - h1.values * c) <= 1e-10


class TestValidateFrechet:
    def test_nonlinear_quotients_converge_linearly(self):
        ctx = probed_context(builtin_example_4_6(), 12)
        rng = np.random.default_rng(3)
        v = random_smooth_field(ctx.grid, 1, rng)
        dv = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(tol=1e-11)
        report = validate_frechet(ctx, v, dv, (1e-1, 1e-2, 1e-3), cfg)
        assert report.valid and report.passed
        errs = [err for _, err in report.fd_errors]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 0.05
        # first-order remainder: each tenfold cut in eps cuts the error
        # about tenfold (within factor 3) while the signal dominates noise
        for a, b in zip(errs, errs[1:]):
            assert 10.0 / 3.0 <= a / b <= 30.0

    def test_linear_derivative_is_the_solution_operator(self):
        # affine F: the derivative of v -> z_v IS the solve itself
        ctx = probed_context(linear_spec(), 12)
        rng = np.random.default_rng(4)
        v = random_smooth_field(ctx.grid, 1, rng)
        dv = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(tol=1e-12)
        base = solve(ctx, v, cfg)
        h = frechet_apply(ctx, base, dv)
        direct = solve(ctx, dv, cfg)
        wn = WeightedNorms(ctx.grid, base.m_used)
        assert wn.norm(h.values - direct.g.values) <= 10 * INNER_TOL

    def test_linear_problem_has_tiny_quotient_errors(self):
        # no second-order remainder at all, and the cold-started perturbed
        # solves share the base solve's iteration path, so even the solver
        # errors cancel in the quotient
        ctx = probed_context(linear_spec(), 12)
        rng = np.random.default_rng(4)
        v = random_smooth_field(ctx.grid, 1, rng)
        dv = random_smooth_field(ctx.grid, 1, rng)
        report = validate_frechet(ctx, v, dv, (1e-1, 1e-2, 1e-3), SolverConfig(tol=1e-12))
        assert report.valid
        assert max(err for _, err in report.fd_errors) <= 1e-10

    @pytest.mark.parametrize("eps", [
        (1e-2, 1e-3),                 # too few steps
        (1e-3, 1e-2, 1e-4),           # not decreasing
        (1e-2, 1e-3, -1e-4),          # not positive
    ])
    def test_rejects_bad_step_lists(self, eps):
        ctx = probed_context(zero_problem(), 8)
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        with pytest.raises(ParameterError):
            validate_frechet(ctx, v, v, eps, SolverConfig())

    def test_rejects_a_zero_direction_before_any_solve(self, monkeypatch):
        ctx = probed_context(builtin_example_4_6(), 8)
        v = GridField(ctx.grid, np.full((9, 9, 1), 1.5))

        def no_solve(*args, **kwargs):
            raise AssertionError("a zero direction reached a solve")

        monkeypatch.setattr("goursat2d.sensitivity.solve", no_solve)
        with pytest.raises(ParameterError, match="direction deltav is identically zero"):
            validate_frechet(ctx, v, GridField(ctx.grid, np.zeros((9, 9, 1))),
                             (1e-1, 1e-2, 1e-3), SolverConfig())

    @pytest.mark.parametrize("eps", [(1e-1, 1e-2, np.nan), (np.inf, 1e-1, 1e-2)],
                             ids=["nan", "inf"])
    def test_rejects_non_finite_steps_before_any_solve(self, eps, monkeypatch):
        ctx = probed_context(builtin_example_4_6(), 8)
        v = GridField(ctx.grid, np.full((9, 9, 1), 1.8))

        def no_solve(*args, **kwargs):
            raise AssertionError("a non-finite step reached a solve")

        monkeypatch.setattr("goursat2d.sensitivity.solve", no_solve)
        with pytest.raises(ParameterError, match="positive and finite"):
            validate_frechet(ctx, v, v, eps, SolverConfig())

    def test_rejects_an_overflowing_perturbed_rhs_before_any_solve(self, monkeypatch):
        # v + eps * deltav = 1.8 + 1e9 * 1e300 overflows; the smaller steps do not
        ctx = probed_context(builtin_example_4_6(), 8)
        v = GridField(ctx.grid, np.full((9, 9, 1), 1.8))
        dv = GridField(ctx.grid, np.full((9, 9, 1), 1e300))

        def no_solve(*args, **kwargs):
            raise AssertionError("an overflowing right-hand side reached a solve")

        monkeypatch.setattr("goursat2d.sensitivity.solve", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=r"overflows at eps = 1e\+09$"):
                validate_frechet(ctx, v, dv, (1e9, 1e7, 1e-3), SolverConfig())

    def test_refuses_steps_below_noise_floor(self):
        ctx = probed_context(zero_problem(), 8)
        v = GridField(ctx.grid, np.ones((9, 9, 1)))
        cfg = SolverConfig(tol=1e-6)
        with pytest.raises(ParameterError, match="noise floor"):
            validate_frechet(ctx, v, v, (1e-2, 1e-3, 1e-5), cfg)

    def test_failed_base_solve_marks_report_invalid(self):
        ctx = probed_context(builtin_example_4_6(), 8)
        rng = np.random.default_rng(5)
        v = random_smooth_field(ctx.grid, 1, rng)
        cfg = SolverConfig(tol=1e-15, max_iter=1)
        report = validate_frechet(ctx, v, v, (1e-2, 1e-3, 1e-4), cfg)
        assert not report.valid and not report.passed
        assert report.h is None and report.fd_errors == ()
        assert report.converged_flags[0] is False
        assert report.failure == ("the base solve failed to converge: no convergence within 1 "
                                  "newton iterations (last weighted residual 0.122 > tol 1e-15)")
        assert "failure" not in report.as_dict()

    def test_first_failed_perturbed_solve_is_named_in_the_report(self):
        # log(5 + z1) leaves its domain in the Picard solves at eps = 40, 20, 10
        ctx = make_context(load_problem({
            "meta": {"n": 1, "B": 1, "b": "1"},
            "functions": {"f1": ["z1^3 + 3*log(5+z1)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        }), build_grid(16))
        v = GridField(ctx.grid, np.ones((17, 17, 1)))
        report = validate_frechet(ctx, v, v, (40, 20, 10), SolverConfig(m=5, method="picard"))
        assert report.converged_flags == (True, False, False, False) and not report.valid
        assert report.failure.startswith("the solve at eps = 40 failed to converge: picard "
                                          "iteration 2 left the domain of an expression")


class TestStabilityProbe:
    def test_zero_problem_ratio_is_one(self):
        ctx = probed_context(zero_problem(), 12)
        rng = np.random.default_rng(7)
        v1 = random_smooth_field(ctx.grid, 1, rng)
        v2 = random_smooth_field(ctx.grid, 1, rng)
        report = stability_probe(ctx, v1, v2, SolverConfig(tol=1e-11))
        assert report.valid and report.passed and not report.degenerate
        assert report.stability_classical == pytest.approx(1.0)
        assert report.stability_weighted == pytest.approx(1.0)
        assert report.stability_bound == pytest.approx(1.0)

    def test_nonlinear_ratio_within_certified_bound(self):
        ctx = probed_context(builtin_example_4_6(), 12)
        rng = np.random.default_rng(8)
        v1 = random_smooth_field(ctx.grid, 1, rng)
        v2 = GridField(ctx.grid, v1.values + random_smooth_field(ctx.grid, 1, rng).values * 0.1)
        report = stability_probe(ctx, v1, v2, SolverConfig(tol=1e-11))
        assert report.valid and report.passed
        # B = 1, m = 9: certified factor (1 - 8B/m)^-1 = 9
        assert report.stability_bound == pytest.approx(9.0)
        assert 0.0 < report.stability_weighted <= report.stability_bound
        assert report.stability_classical > 0.0

    def test_identical_inputs_flagged_degenerate(self):
        ctx = probed_context(builtin_example_4_6(), 8)
        rng = np.random.default_rng(9)
        v = random_smooth_field(ctx.grid, 1, rng)
        report = stability_probe(ctx, v, v, SolverConfig(tol=1e-11))
        assert report.degenerate and report.valid and report.passed
        assert report.stability_classical == 0.0
        assert report.stability_weighted is None

    def test_failed_solve_marks_invalid(self):
        ctx = probed_context(builtin_example_4_6(), 8)
        rng = np.random.default_rng(10)
        v1 = random_smooth_field(ctx.grid, 1, rng)
        v2 = random_smooth_field(ctx.grid, 1, rng)
        report = stability_probe(ctx, v1, v2, SolverConfig(tol=1e-15, max_iter=1))
        assert not report.valid and not report.passed
        assert report.stability_classical is None
        assert report.failure.startswith("the solve of v1 failed to converge: no convergence")

    def test_report_dict_shape(self):
        ctx = probed_context(zero_problem(), 8)
        rng = np.random.default_rng(11)
        v1 = random_smooth_field(ctx.grid, 1, rng)
        v2 = random_smooth_field(ctx.grid, 1, rng)
        d = stability_probe(ctx, v1, v2, SolverConfig(tol=1e-11)).as_dict()
        assert d["valid"] is True and d["degenerate"] is False
        assert d["stability_classical"] == pytest.approx(1.0)
