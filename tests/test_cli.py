"""End-to-end command-line tests: every exit code of every subcommand.

Exit contract: 0 success, 1 input error, 2 solver failure, 3 a verification
suite measured a violation.  stdout is one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from goursat2d import cli
from goursat2d.cli import build_parser, main
from goursat2d.errors import Goursat2dError, SolverError
from goursat2d.fileio import (
    read_field_csv, read_grid_csv, read_report_json, write_field_csv, write_grid_csv,
)
from goursat2d.norms import WeightedNorms
from goursat2d.operator import LinearizedOperator, apply_F, coercivity_probe, make_context
from goursat2d.problem import BUILTIN_PROBLEMS, DEFAULT_SEED, XYFunction, load_problem
from goursat2d.grid import GridField, build_grid, reconstruct_state
from goursat2d.sampling import random_smooth_field
from goursat2d.solvers import SolverConfig


def run_cli(argv):
    """main() plus argparse's SystemExit, reduced to a plain return code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def json_lines(out: str) -> list:
    """``out`` as strict JSON lines: NaN and ±Infinity are rejected."""
    return [json.loads(line, parse_constant=_reject_constant)
            for line in out.splitlines() if line.strip()]


def stdout_lines(capsys):
    """stdout as strict JSON lines."""
    return json_lines(capsys.readouterr().out)


def count_linearizations(monkeypatch) -> list:
    """The list that each ``LinearizedOperator`` built from here on is appended to."""
    builds = []
    init = LinearizedOperator.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinearizedOperator, "__init__", counting)
    return builds


LINEAR_MEMORY_DOC = {
    "meta": {"n": 1, "B": 1.0, "b": "0"},
    "functions": {"f1": ["0.5*z1"], "f2": ["0"]},
    "coefficients": {"A1": [["1"]], "A2": [["1"]], "A1x": [["0"]], "A2y": [["0"]]},
    "label": "memory-a1",
}

STIFF_DOC = {
    "meta": {"n": 1, "B": 200.0, "b": "0"},
    "functions": {"f1": ["200*z1"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    "label": "stiff",
}

# B = 0 with f1 = -5 z1: coercivity fails at small m (m = 2 and 5 at N = 16)
COERCIVITY_FAIL_DOC = {
    "meta": {"n": 1, "B": 0.0, "b": "0"},
    "functions": {"f1": ["-5*z1"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    "label": "coercivity-fail",
}

RAY_FAIL_DOC = {
    "meta": {"n": 1, "B": 0, "b": "0"},
    "functions": {"f1": ["100*exp(-z1^2)"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
}

EXP_SQUARE_DOC = {
    "meta": {"n": 1, "B": 1, "b": "1"},
    "functions": {"f1": ["exp(z1^2)"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
}

CUBIC_DOC = {
    "meta": {"n": 1, "B": 1.0, "b": "1"},
    "functions": {"f1": ["z1^3"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    "label": "cubic",
}

# |f1| = 1e300|z|: finite, but its square overflows; the growth ratio peaks at
# 1e300 * 4 / (4 + 1) at the probe radius 4
HUGE_F_DOC = {
    "meta": {"n": 1, "B": 1, "b": "1"},
    "functions": {"f1": ["1e300*z1"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
}


@pytest.fixture
def linear_doc(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(LINEAR_MEMORY_DOC))
    return str(path)


@pytest.fixture
def stiff_doc(tmp_path):
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(STIFF_DOC))
    return str(path)


class TestSolve:
    def test_zero_problem_unit_rhs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "zero", "--n", "16",
                        "--rhs", "1", "--out", str(out)])
        assert code == 0
        lines = stdout_lines(capsys)
        assert lines[-1]["converged"] is True
        z, _, _ = reconstruct_state(read_grid_csv(f"{out}.grid.csv"))
        # z_xy = 1 with zero edges integrates to z = xy
        assert z.values[-1, -1, 0] == pytest.approx(1.0, abs=1e-14)
        report = read_report_json(f"{out}.report.json")
        assert report["result"]["converged"] is True
        assert report["result"]["iterations"] == 1

    def test_overflowing_growth_ratio_still_writes_the_report(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(HUGE_F_DOC))
        out = tmp_path / "run"
        code = run_cli(["solve", "--problem", str(path), "--n", "4", "--rhs", "0",
                        "--m", "5", "--out", str(out)])
        assert code == 0
        assert "note: assumption probe found violations" in capsys.readouterr().err
        report = read_report_json(f"{out}.report.json")
        assert report["assumptions"]["growth_worst_f1"] == pytest.approx(8e299, rel=1e-12)
        assert report["assumptions"]["growth_ok"] is False

    def test_problem_document_with_solver_section(self, tmp_path):
        doc = dict(LINEAR_MEMORY_DOC)
        doc["rhs"] = {"v": ["x + y"]}
        doc["solver"] = {"m": 6.0, "method": "picard", "tol": 1e-9}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = run_cli(["solve", "--problem", str(path), "--n", "12", "--out", str(out)])
        assert code == 0
        report = read_report_json(f"{out}.report.json")
        assert report["solver"]["method"] == "picard"
        assert report["result"]["m_used"] == 6.0
        # document says m = 6, so no automatic choice was made
        assert report["weight_choice"] is None

    def test_cli_flags_override_document(self, tmp_path):
        doc = dict(LINEAR_MEMORY_DOC)
        doc["rhs"] = {"v": ["1"]}
        doc["solver"] = {"m": 6.0}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = run_cli(["solve", "--problem", str(path), "--n", "8",
                        "--m", "7.5", "--out", str(out)])
        assert code == 0
        assert read_report_json(f"{out}.report.json")["result"]["m_used"] == 7.5

    def test_manufactured_reference_error_is_reported(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "zero", "--n", "16",
                        "--rhs", "cos(x)*cos(y)", "--zstar", "cos(x)*cos(y)",
                        "--out", str(out)])
        assert code == 0
        report = read_report_json(f"{out}.report.json")
        assert report["error_vs_reference"]["classical"] <= 1e-12

    def test_reference_error_that_overflows_is_null(self, tmp_path, capsys):
        # g = -8e307 converges; g - g* = -2.5e308 overflows
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "zero", "--n", "4", "--rhs", "0 - 8e307",
                        "--zstar", "1.7e308", "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert err == "note: g - g* overflows, so error_vs_reference is null\n"
        report = read_report_json(f"{out}.report.json")
        assert report["error_vs_reference"] == {"classical": None, "weighted": None}
        assert report["result"]["converged"] is True
        np.testing.assert_array_equal(read_grid_csv(f"{out}.grid.csv").values, -8e307)

    def test_residual_round_trips_from_emitted_grid(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "example46", "--n", "12",
                        "--rhs", "x + y", "--out", str(out)])
        assert code == 0
        report = read_report_json(f"{out}.report.json")
        g = read_grid_csv(f"{out}.grid.csv")
        spec = BUILTIN_PROBLEMS["example46"]()
        ctx = make_context(spec, build_grid(12))
        v = spec.rhs  # builtin has no rhs; sample the same expression
        from goursat2d.problem import XYFunction
        v = XYFunction.from_sources("x + y").sample(ctx.grid)
        r = apply_F(ctx, g.values) - v.values
        scale = max(report["result"]["residual_classical"], 1e-300)
        classical = WeightedNorms(ctx.grid, 0.0).norm(r)
        assert abs(classical - report["result"]["residual_classical"]) / scale <= 1e-12
        wscale = max(report["result"]["residual_weighted"], 1e-300)
        weighted = WeightedNorms(ctx.grid, report["result"]["m_used"]).norm(r)
        assert abs(weighted - report["result"]["residual_weighted"]) / wscale <= 1e-12

    def test_newton_inner_failure_reports_the_newton_solve(self, tmp_path, capsys):
        # m = 2 is below the contraction threshold, so the 12th inner linear
        # solve diverges; the failure must describe the outer Newton solve
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "example46", "--n", "8", "--m", "2",
                        "--method", "newton", "--rhs=-100", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "solver failure: residual not contracting" in err
        assert err.count("contraction threshold") == 1
        report = read_report_json(f"{out}.report.json")
        assert report["solver"]["method"] == report["result"]["method"] == "newton"
        assert report["result"]["iterations"] == len(report["result"]["trace"]) > 1
        # the grid holds the last accepted Newton iterate, whose residual the report gives
        g = read_grid_csv(f"{out}.grid.csv")
        ctx = make_context(BUILTIN_PROBLEMS["example46"](), build_grid(8))
        r = apply_F(ctx, g.values) - np.full((9, 9, 1), -100.0)
        assert WeightedNorms(ctx.grid, 2.0).norm(r) == pytest.approx(
            report["result"]["residual_weighted"], rel=1e-12)

    def test_overflow_exits_2_with_partial_artifacts(self, tmp_path, capsys):
        # an RHS of 1e60 makes Newton's first inner linear solve overflow
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "example46", "--n", "8",
                        "--rhs", "1e60", "--out", str(out)])
        assert code == 2
        assert "overflowed" in capsys.readouterr().err
        report = read_report_json(f"{out}.report.json")
        assert "overflowed" in report["failure"]
        assert report["result"]["method"] == "newton"
        assert report["result"]["converged"] is False
        g = read_grid_csv(f"{out}.grid.csv")
        np.testing.assert_array_equal(g.values, 1e60)

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--rhs", "1e120"],
         "solver failure: newton iteration 1 overflowed (non-finite result (overflow?)"),
        (["linsolve", "--rhs", "1.5e308"],
         "solver failure: linearized iteration 1 overflowed (weighted residual nan)"),
    ], ids=["solve", "linsolve"])
    def test_first_residual_overflow_exits_2_without_artifacts(self, tmp_path, capsys,
                                                                argv, message):
        # no iterate has a finite residual, so there is no partial report to write
        code = run_cli([argv[0], "--builtin", "example46", "--n", "8", *argv[1:],
                        "--out", str(tmp_path / "run")])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_overflow_in_the_newton_step_exits_2_with_partial_artifacts(self, tmp_path, capsys):
        # F is finite at g ≡ 26.6, but F' overflows while the first step builds it
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(EXP_SQUARE_DOC))
        out = tmp_path / "run"
        code = run_cli(["solve", "--problem", str(path), "--n", "8", "--m", "9",
                        "--rhs", "26.6", "--out", str(out)])
        assert code == 2
        assert ("solver failure: newton iteration 1 overflowed (non-finite derivative "
                "(overflow?) (expression offset 0) at (x, y) = (1, 1))") in capsys.readouterr().err
        report = read_report_json(f"{out}.report.json")
        assert len(report["result"]["trace"]) == report["result"]["iterations"] == 1
        np.testing.assert_array_equal(read_grid_csv(f"{out}.grid.csv").values, 26.6)

    def test_overflow_warning_is_printed_once(self, tmp_path, capsys):
        # numpy warns "invalid value encountered in add" from several source lines
        code = run_cli(["solve", "--builtin", "example46", "--n", "8",
                        "--rhs", "1e60", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if "invalid value encountered" in line]) == 1

    def test_overflow_inside_expression_exits_2_with_partial_artifacts(self, tmp_path, capsys):
        # the Picard iterates of f1 = z^3 overflow in z^3 before any norm does
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(CUBIC_DOC))
        out = tmp_path / "run"
        code = run_cli(["solve", "--problem", str(path), "--n", "8", "--method", "picard",
                        "--rhs", "20", "--out", str(out)])
        assert code == 2
        assert "overflowed (non-finite result" in capsys.readouterr().err
        report = read_report_json(f"{out}.report.json")
        assert "picard iteration" in report["failure"]
        assert report["result"]["converged"] is False
        g = read_grid_csv(f"{out}.grid.csv")
        assert np.isfinite(g.values).all() and np.abs(g.values).max() > 20.0

    def test_domain_fault_at_an_iterate_exits_2_with_partial_artifacts(self, tmp_path, capsys):
        # the second Picard iterate takes log(5 + z1) below z1 = -5
        path = tmp_path / "log.json"
        path.write_text(json.dumps({**CUBIC_DOC, "functions": {
            "f1": ["z1^3 + 3*log(5+z1)"], "f2": ["0"]}}))
        out = tmp_path / "run"
        code = run_cli(["solve", "--problem", str(path), "--n", "16", "--rhs", "20",
                        "--m", "5", "--method", "picard", "--out", str(out)])
        assert code == 2
        failure = ("picard iteration 2 left the domain of an expression (log of a nonpositive "
                   "value (expression offset 9) at (x, y) = (0.4375, 0.875))")
        assert f"solver failure: {failure}" in capsys.readouterr().err
        report = read_report_json(f"{out}.report.json")
        assert report["failure"].startswith(failure)
        assert report["result"]["converged"] is False
        assert report["result"]["iterations"] == 1
        np.testing.assert_array_equal(read_grid_csv(f"{out}.grid.csv").values, 20.0)

    def test_malformed_expression_exits_1_with_position(self, capsys):
        code = run_cli(["solve", "--builtin", "zero", "--n", "8", "--rhs", "1 + (x*"])
        assert code == 1
        err = capsys.readouterr().err
        assert "offset" in err

    def test_missing_problem_file_exits_1(self, tmp_path):
        code = run_cli(["solve", "--problem", str(tmp_path / "nope.json"), "--n", "8"])
        assert code == 1

    def test_invalid_json_document_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code = run_cli(["solve", "--problem", str(path), "--n", "8"])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_rhs_missing_everywhere_exits_1(self, capsys):
        code = run_cli(["solve", "--builtin", "zero", "--n", "8"])
        assert code == 1
        assert "right-hand side" in capsys.readouterr().err

    def test_iteration_cap_exits_2_with_partial_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["solve", "--builtin", "example46", "--n", "8",
                        "--rhs", "x*y", "--method", "picard", "--max-iter", "1",
                        "--tol", "1e-14", "--out", str(out)])
        assert code == 2
        lines = stdout_lines(capsys)
        assert lines[-1]["converged"] is False
        report = read_report_json(f"{out}.report.json")
        assert report["failure"] is not None
        assert report["result"]["converged"] is False
        # the partial grid is still written for post-mortems
        read_grid_csv(f"{out}.grid.csv")

    def test_usage_errors_exit_1(self):
        assert run_cli([]) == 1                          # no subcommand
        assert run_cli(["solve"]) == 1                   # no problem source
        assert run_cli(["solve", "--builtin", "zero"]) == 1  # missing --n
        assert run_cli(["solve", "--builtin", "zero", "--problem", "x.json",
                        "--n", "8"]) == 1                # mutually exclusive
        assert run_cli(["frobnicate"]) == 1              # unknown subcommand

    def test_weight_whose_square_overflows_ends_without_traceback(self, tmp_path, capsys):
        # m² overflows a float above ~1.34e154; the reported contraction
        # bound must not.  Convergence at such an m is not pinned here.
        code = run_cli(["solve", "--builtin", "example46", "--n", "8", "--rhs", "1",
                        "--m", "1e200", "--out", str(tmp_path / "big")])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_bad_m_flag_exits_1(self, capsys):
        code = run_cli(["solve", "--builtin", "zero", "--n", "8",
                        "--rhs", "1", "--m", "sometimes"])
        assert code == 1
        assert "auto" in capsys.readouterr().err


class TestLinsolve:
    def test_zero_problem(self, tmp_path, capsys):
        out = tmp_path / "lin"
        code = run_cli(["linsolve", "--builtin", "zero", "--n", "8",
                        "--rhs", "x + y", "--out", str(out)])
        assert code == 0
        report = read_report_json(f"{out}.report.json")
        assert report["linearized_at"] == "zero"
        assert report["result"]["converged"] is True

    def test_linearize_at_saved_state(self, tmp_path, linear_doc):
        base = tmp_path / "base"
        assert run_cli(["solve", "--problem", linear_doc, "--n", "8",
                        "--rhs", "1", "--out", str(base)]) == 0
        out = tmp_path / "lin"
        code = run_cli(["linsolve", "--problem", linear_doc, "--n", "8",
                        "--rhs", "x*y", "--linearize-at", f"{base}.grid.csv",
                        "--out", str(out)])
        assert code == 0
        report = read_report_json(f"{out}.report.json")
        assert report["linearized_at"] == f"{base}.grid.csv"

    def test_linearize_at_grid_mismatch_exits_1(self, tmp_path, linear_doc, capsys):
        base = tmp_path / "base"
        assert run_cli(["solve", "--problem", linear_doc, "--n", "8",
                        "--rhs", "1", "--out", str(base)]) == 0
        code = run_cli(["linsolve", "--problem", linear_doc, "--n", "16",
                        "--rhs", "x*y", "--linearize-at", f"{base}.grid.csv"])
        assert code == 1
        assert ("--linearize-at on Grid(cells=8) does not match context grid Grid(cells=16)"
                in capsys.readouterr().err)

    def test_below_threshold_warns_but_converges(self, tmp_path, linear_doc, capsys):
        out = tmp_path / "lin"
        code = run_cli(["linsolve", "--problem", linear_doc, "--n", "8",
                        "--rhs", "1", "--m", "1.5", "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "contraction threshold" in err

    def test_weight_whose_square_overflows_ends_without_traceback(self, tmp_path, capsys):
        code = run_cli(["linsolve", "--builtin", "example46", "--n", "8", "--rhs", "1",
                        "--m", "1e200", "--out", str(tmp_path / "big")])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    def test_divergence_exits_2_with_ratio_and_hint(self, tmp_path, stiff_doc, capsys):
        out = tmp_path / "lin"
        code = run_cli(["linsolve", "--problem", stiff_doc, "--n", "12",
                        "--rhs", "1", "--m", "1.0", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "last ratio" in captured.err
        assert "m > 2*sqrt(d)" in captured.err
        assert json_lines(captured.out)[-1]["converged"] is False

    def test_builds_one_linearized_operator(self, tmp_path, monkeypatch):
        base = tmp_path / "base"
        assert run_cli(["solve", "--builtin", "example46", "--n", "8",
                        "--rhs", "1.8", "--out", str(base)]) == 0
        builds = count_linearizations(monkeypatch)
        assert run_cli(["linsolve", "--builtin", "example46", "--n", "8", "--rhs", "x*y",
                        "--linearize-at", f"{base}.grid.csv",
                        "--out", str(tmp_path / "lin")]) == 0
        assert len(builds) == 1


class TestVerify:
    def test_norms_suite_passes(self, capsys):
        code = run_cli(["verify", "--suite", "norms", "--n", "16", "--samples", "10"])
        assert code == 0
        lines = stdout_lines(capsys)
        closed = [l for l in lines if l.get("check") == "xy_closed_form"]
        assert len(closed) == 1
        assert closed[0]["value"] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-3)
        assert all(l["pass"] for l in lines)

    def test_lemma31_suite_passes(self, capsys):
        code = run_cli(["verify", "--suite", "lemma31", "--n", "16",
                        "--samples", "10", "--m-list", "1,5,10,20"])
        assert code == 0
        lines = stdout_lines(capsys)
        assert {l["m"] for l in lines} == {1.0, 5.0, 10.0, 20.0}
        assert all(min(l["min_margins"].values()) > 0 for l in lines)

    def test_coercivity_suite_passes(self, capsys):
        code = run_cli(["verify", "--suite", "coercivity", "--builtin", "example46",
                        "--n", "12", "--samples", "5"])
        assert code == 0
        lines = stdout_lines(capsys)
        assert lines[0]["m"] == 9.0  # 8B + 1 with B = 1
        assert lines[0]["pass"] is True

    def test_coercivity_needs_a_problem(self, capsys):
        code = run_cli(["verify", "--suite", "coercivity"])
        assert code == 1
        assert "--problem" in capsys.readouterr().err

    def test_assumptions_suite_passes_on_builtin(self, capsys):
        code = run_cli(["verify", "--suite", "assumptions", "--builtin", "example46"])
        assert code == 0
        lines = stdout_lines(capsys)
        assert {l["check"] for l in lines} == {"growth", "coefficients", "derivatives"}

    def test_assumptions_suite_notes_a_kink(self, tmp_path, capsys):
        path = tmp_path / "abs.json"
        path.write_text(json.dumps({**CUBIC_DOC, "functions": {"f1": ["abs(z1)"], "f2": ["0"]}}))
        code = run_cli(["verify", "--suite", "assumptions", "--problem", str(path)])
        assert code == 0
        assert capsys.readouterr().err == (
            "note: the nonlinearity sampled as possibly non-smooth (kink flagged); kinks can "
            "degrade Newton's convergence and the manufactured-solution orders\n")

    def test_assumptions_suite_flags_exponential_growth(self, tmp_path, capsys):
        doc = {
            "meta": {"n": 1, "B": 1.0, "b": "1"},
            "functions": {"f1": ["exp(z1)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]],
                             "A1x": [["0"]], "A2y": [["0"]]},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "probe"
        code = run_cli(["verify", "--suite", "assumptions",
                        "--problem", str(path), "--out", str(out)])
        assert code == 3
        lines = stdout_lines(capsys)
        growth = next(l for l in lines if l.get("check") == "growth")
        assert growth["pass"] is False
        assert growth["worst_f1"] > 1.0
        summary = lines[-1]
        assert summary["failed_checks"] == ["growth"]
        # the failing probe is serialized for replay
        replay = read_report_json(summary["fail_artifact"])
        assert replay["growth_ok"] is False

    def test_assumptions_suite_flags_f_where_the_bound_is_zero(self, tmp_path, capsys):
        # B = 0 and b = x bound f by 0 on the line x = 0, where f1 is y: 1 at
        # the sampled corner (0, 1)
        path = tmp_path / "corner.json"
        path.write_text(json.dumps({
            "meta": {"n": 1, "B": 0, "b": "x"},
            "functions": {"f1": ["y * exp(-1000000 * x)"], "f2": ["0"]},
            "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        }))
        out = tmp_path / "probe"
        code = run_cli(["verify", "--suite", "assumptions",
                        "--problem", str(path), "--out", str(out)])
        assert code == 3
        lines = stdout_lines(capsys)
        assert lines[0]["check"] == "growth" and lines[0]["pass"] is False
        assert lines[0]["worst_f1"] == sys.float_info.max
        assert lines[-1]["failed_checks"] == ["growth"]
        replay = read_report_json(lines[-1]["fail_artifact"])
        assert replay["growth_worst_f1"] == sys.float_info.max
        # the default 200 samples plus the 20 extreme points of n = 1
        assert replay["samples"] == 220

    def test_assumptions_suite_with_an_overflowing_growth_ratio_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(HUGE_F_DOC))
        code = run_cli(["verify", "--suite", "assumptions", "--problem", str(path),
                        "--out", str(tmp_path / "probe")])
        assert code == 3
        lines = stdout_lines(capsys)
        assert lines[0]["check"] == "growth"
        assert lines[0]["worst_f1"] == pytest.approx(8e299, rel=1e-12)
        assert lines[-1]["failed_checks"] == ["growth"]
        replay = read_report_json(lines[-1]["fail_artifact"])
        assert replay["growth_worst_f1"] == lines[0]["worst_f1"]

    @pytest.mark.parametrize("argv,key,count", [
        (["--suite", "norms", "--m-list", "1"], "samples", 100),
        (["--suite", "lemma31", "--m-list", "1"], "samples", 200),
        (["--suite", "coercivity", "--builtin", "example46"], "samples", 20),
        (["--suite", "contraction", "--builtin", "example46"], "trials", 8),
    ], ids=["norms", "lemma31", "coercivity", "contraction"])
    def test_suite_default_sample_count(self, argv, key, count, tmp_path, capsys):
        code = run_cli(["verify", *argv, "--n", "8", "--out", str(tmp_path / "run")])
        assert code == 0
        lines = [line for line in stdout_lines(capsys) if key in line]
        assert lines and all(line[key] == count for line in lines)

    def test_contraction_suite_with_chosen_weight(self, capsys):
        code = run_cli(["verify", "--suite", "contraction", "--builtin", "example46",
                        "--n", "12"])
        assert code == 0
        lines = stdout_lines(capsys)
        assert lines[0]["check"] == "weight_choice"
        assert lines[0]["m"] == 9.0
        assert lines[1]["rho_hat"] < 1.0

    def test_contraction_suite_below_threshold_exits_3(self, tmp_path, stiff_doc, capsys):
        out = tmp_path / "probe"
        code = run_cli(["verify", "--suite", "contraction", "--problem", stiff_doc,
                        "--n", "12", "--m-list", "1.0", "--out", str(out)])
        assert code == 3
        lines = stdout_lines(capsys)
        assert lines[0]["rho_hat"] >= 1.0
        assert "m > 2*sqrt(d)" in lines[-1]["hint"]
        read_report_json(lines[-1]["fail_artifact"])

    def test_contraction_suite_at_the_largest_weight_ends_without_traceback(self, capsys):
        code = run_cli(["verify", "--suite", "contraction", "--builtin", "example46",
                        "--n", "8", "--m-list", "1e308"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        line = json_lines(captured.out)[0]
        assert line["m"] == 1e308 and line["bound"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "contraction", "--n", "13", "--m-list", "1e308"],
        ["verify", "--suite", "coercivity", "--n", "14", "--m-list", "1e308"],
        ["solve", "--n", "15", "--rhs", "1", "--m", "1e308"],
        ["linsolve", "--n", "17", "--rhs", "1", "--m", "1e308"],
    ], ids=["contraction", "coercivity", "solve", "linsolve"])
    def test_largest_weight_prints_no_overflow_warning(self, argv, tmp_path, capsys):
        # the Bielecki factor e^{-m x} underflows to 0 off the origin there,
        # as intended
        run_cli([*argv, "--builtin", "example46", "--out", str(tmp_path / "big")])
        err = capsys.readouterr().err
        assert not [line for line in err.splitlines() if line.startswith("warning:")]

    def test_contraction_suite_at_a_tiny_weight_bounds_by_the_largest_float(self, capsys):
        code = run_cli(["verify", "--suite", "contraction", "--builtin", "example46",
                        "--n", "8", "--m-list", "1e-160,1e-200"])
        assert code == 0
        lines = stdout_lines(capsys)
        assert [(line["m"], line["bound"]) for line in lines] == [
            (1e-160, sys.float_info.max), (1e-200, sys.float_info.max)]

    def test_lemma31_suite_at_a_weight_whose_bound_overflows_exits_1(self, capsys):
        code = run_cli(["verify", "--suite", "lemma31", "--n", "8", "--samples", "2",
                        "--m-list", "1e-320"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the smallness bound 2/m overflows at m = 1e-320\n"

    @pytest.mark.parametrize("argv, message", [
        (["--suite", "lemma31", "--m-list", "1,1e-320"],
         "the smallness bound 2/m overflows at m = 1e-320"),
        (["--suite", "norms", "--m-list", "1,-1"],
         "weight exponent must be nonnegative, got -1.0"),
        (["--suite", "coercivity", "--builtin", "example46", "--m-list", "100,1"],
         "coercivity bound needs m > 8B = 8, got m = 1"),
    ], ids=["lemma31", "norms", "coercivity"])
    def test_a_bad_listed_weight_writes_nothing(self, argv, message, tmp_path, capsys):
        # the good weight comes first: its line is not printed either
        code = run_cli(["verify", *argv, "--n", "8", "--samples", "2",
                        "--out", str(tmp_path / "run")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_contraction_suite_listed_weights_win_over_m(self, capsys):
        code = run_cli(["verify", "--suite", "contraction", "--builtin", "example46",
                        "--n", "8", "--m-list", "3,9", "--m", "5"])
        assert code == 0
        assert [line["m"] for line in stdout_lines(capsys)] == [3.0, 9.0]

    def test_contraction_suite_follows_document_and_flag_weight(self, tmp_path, capsys):
        # defaults < document < flags, and no automatic choice when m is given
        doc = dict(LINEAR_MEMORY_DOC, solver={"m": 6.0})
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["verify", "--suite", "contraction", "--problem", str(path), "--n", "8"])
        assert code == 0
        lines = stdout_lines(capsys)
        assert [(line.get("check"), line["m"]) for line in lines] == [(None, 6.0)]
        code = run_cli(["verify", "--suite", "contraction", "--builtin", "example46",
                        "--n", "8", "--m", "5"])
        assert code == 0
        assert [(line.get("check"), line["m"]) for line in stdout_lines(capsys)] == [(None, 5.0)]

    def test_contraction_suite_nonpositive_listed_weight_exits_1(self, capsys):
        code = run_cli(["verify", "--suite", "contraction", "--builtin", "example46",
                        "--n", "8", "--m-list", "3,-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert [line["m"] for line in json_lines(captured.out)] == [3.0]
        assert "bad solver settings: weight m must be positive" in captured.err

    def test_contraction_suite_builds_one_operator_for_all_weights(self, monkeypatch, capsys):
        builds = count_linearizations(monkeypatch)
        code = run_cli(["verify", "--suite", "contraction", "--builtin", "example46",
                        "--n", "8", "--m-list", "5,10,20"])
        assert code == 0
        assert [line["m"] for line in stdout_lines(capsys)] == [5.0, 10.0, 20.0]
        assert len(builds) == 1

    def test_bad_m_list_exits_1(self, capsys):
        code = run_cli(["verify", "--suite", "norms", "--m-list", "1,zap"])
        assert code == 1
        assert "--m-list" in capsys.readouterr().err

    def test_coercivity_failure_writes_the_worst_sample(self, tmp_path, capsys):
        path = tmp_path / "coer.json"
        path.write_text(json.dumps(COERCIVITY_FAIL_DOC))
        out = tmp_path / "probe"
        m_list = (2.0, 5.0, 10.0, 20.0)
        code = run_cli(["verify", "--suite", "coercivity", "--problem", str(path),
                        "--n", "16", "--samples", "10", "--m-list", "2,5,10,20",
                        "--out", str(out)])
        assert code == 3
        lines = stdout_lines(capsys)
        assert [(l["m"], l["pass"]) for l in lines[:-1]] == [
            (2.0, False), (5.0, False), (10.0, True), (20.0, True)]
        assert lines[-1] == {"suite": "coercivity", "pass": False,
                             "fail_artifact": f"{out}.fail.csv"}
        # the seeded samples again: the artifact is the first sample with the
        # smallest margin over all weights, taken in --m-list order
        ctx = make_context(load_problem(COERCIVITY_FAIL_DOC), build_grid(16))
        rng = np.random.default_rng(DEFAULT_SEED)
        fields = [random_smooth_field(ctx.grid, 1, rng) for _ in range(10)]
        margins = np.array([coercivity_probe(ctx, fields, m).margins for m in m_list])
        worst = fields[int(np.argmin(margins)) % len(fields)]
        np.testing.assert_array_equal(read_field_csv(f"{out}.fail.csv").values, worst.values)


    def test_coercivity_ray_failure_writes_the_ray_sample(self, tmp_path, capsys):
        # every margin passes, but the ray test on the first sample fails:
        # that sample, not the one with the smallest margin, is the worst
        path = tmp_path / "ray.json"
        path.write_text(json.dumps(RAY_FAIL_DOC))
        out = tmp_path / "ray"
        code = run_cli(["verify", "--suite", "coercivity", "--problem", str(path),
                        "--n", "16", "--out", str(out)])
        assert code == 3
        line, verdict = stdout_lines(capsys)
        assert line["ray_ok"] is False and line["min_margin"] > 0.0 and line["pass"] is False
        assert verdict["fail_artifact"] == f"{out}.fail.csv"
        first = random_smooth_field(build_grid(16), 1, np.random.default_rng(DEFAULT_SEED))
        np.testing.assert_array_equal(read_field_csv(f"{out}.fail.csv").values, first.values)


@pytest.mark.parametrize("flag", [("--samples", "0"), ("--samples", "-3"), ("--seed", "-1")],
                         ids=["samples=0", "samples=-3", "seed=-1"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "norms"],
    ["verify", "--suite", "lemma31"],
    ["verify", "--suite", "coercivity", "--builtin", "zero"],
    ["verify", "--suite", "assumptions", "--builtin", "zero"],
    ["verify", "--suite", "contraction", "--builtin", "zero"],
    ["solve", "--builtin", "zero", "--n", "8", "--rhs", "1"],
    ["linsolve", "--builtin", "zero", "--n", "8", "--rhs", "1"],
    ["sens", "--builtin", "zero", "--n", "8", "--rhs", "x", "--direction", "1"],
    ["mms", "--builtin", "zero", "--zstar", "x*y", "--n-list", "8,16"],
], ids=lambda argv: "-".join(argv[:3:2] if argv[0] == "verify" else argv[:1]))
def test_samples_below_1_or_negative_seed_is_a_usage_error(argv, flag, tmp_path, capsys):
    code = run_cli([*argv, *flag, "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert f"argument {flag[0]}: must be >= " in captured.err
    assert list(tmp_path.iterdir()) == []


SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}


@pytest.mark.parametrize("command, expected", [
    ("solve", SOLVER_FIELDS),
    ("sens", SOLVER_FIELDS),
    ("mms", SOLVER_FIELDS),
    ("linsolve", SOLVER_FIELDS - {"method"}),
    ("verify", {"m"}),
])
def test_each_subcommand_registers_the_solver_flags_it_reads(command, expected):
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    sub = action.choices[command]
    group = next(g for g in sub._action_groups if g.title == "solver settings")
    assert {a.dest for a in group._group_actions} == expected
    # no flag outside the group sets a solver field
    assert {a.dest for a in sub._actions} & SOLVER_FIELDS == expected


RHS_ARGS = {
    "solve": ["solve", "--builtin", "zero", "--n", "8", "--rhs", "1"],
    "linsolve": ["linsolve", "--builtin", "zero", "--n", "8", "--rhs", "1"],
    "sens": ["sens", "--builtin", "zero", "--n", "8", "--rhs", "x", "--direction", "1"],
    "mms": ["mms", "--builtin", "zero", "--zstar", "x*y", "--n-list", "8,16"],
    "verify": ["verify", "--suite", "contraction", "--builtin", "zero", "--n", "8"],
}


@pytest.mark.parametrize("command, flag", [
    *((command, flag) for command in ("solve", "linsolve", "sens", "mms")
      for flag in ("--damping", "--inner-tol", "--inner-max-iter")),
    *(("verify", flag) for flag in ("--tol", "--max-iter", "--damping", "--inner-tol",
                                    "--inner-max-iter")),
])
def test_solver_flag_a_command_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys):
    value = "1e-8" if "tol" in flag else "0.5" if flag == "--damping" else "7"
    code = run_cli([*RHS_ARGS[command], flag, value, "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    assert f"unrecognized arguments: {flag} {value}" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--m", "inf"], "weight m must be a finite real number, got inf"),
    (["--m", "nan"], "weight m must be a finite real number, got nan"),
    (["--tol", "inf"], "tol must be a finite real number, got inf"),
    (["--tol", "-1"], "tol must be positive"),
], ids=["m-inf", "m-nan", "tol-inf", "tol-negative"])
def test_bad_setting_flag_exits_1_before_any_artifact(flags, message, tmp_path, capsys):
    code = run_cli(["solve", "--builtin", "example46", "--n", "8", "--rhs", "1", *flags,
                    "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"error: bad solver settings: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["auto", "AUTO", " Auto "])
def test_m_auto_reads_the_same_as_flag_and_in_a_document(spelling, tmp_path, capsys):
    doc = dict(LINEAR_MEMORY_DOC, rhs={"v": ["1"]})
    (tmp_path / "flag.json").write_text(json.dumps(doc))
    (tmp_path / "doc.json").write_text(json.dumps(dict(doc, solver={"m": spelling})))
    assert run_cli(["solve", "--problem", str(tmp_path / "flag.json"), "--n", "8",
                    "--m", spelling, "--out", str(tmp_path / "flag")]) == 0
    assert run_cli(["solve", "--problem", str(tmp_path / "doc.json"), "--n", "8",
                    "--out", str(tmp_path / "doc")]) == 0
    flag, document = (read_report_json(tmp_path / f"{name}.report.json")
                      for name in ("flag", "doc"))
    assert flag["solver"] == document["solver"] and flag["result"] == document["result"]
    assert flag["solver"]["m"] == flag["result"]["m_used"] == 9.0  # the automatic weight


@pytest.mark.parametrize("changes, message", [
    ({"solver": {"tol": float("inf")}}, "solver.tol: tol must be a finite real number, got inf"),
    ({"solver": {"damping": 0.5}}, "solver.damping: unknown field 'damping'"),
    # B near the float maximum makes the automatic weight 8B + 1 overflow
    ({"meta": {"n": 1, "B": 1e308, "b": "0"}},
     "no finite weight m = max(8B, 2*sqrt(d)) + 1 for B = 1e+308 and d = 1e+308"),
], ids=["tol-Infinity", "damping", "huge-B"])
def test_document_that_cannot_solve_exits_1_before_any_artifact(changes, message, tmp_path,
                                                                  capsys):
    doc = dict(LINEAR_MEMORY_DOC, rhs={"v": ["1"]}, **changes)
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code = run_cli(["solve", "--problem", str(tmp_path / "doc.json"), "--n", "8",
                    "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("meta, message", [
    ({"n": 1, "B": float("inf"), "b": "0"}, "meta.B: B must be a finite number >= 0, got inf"),
    ({"n": True, "B": 1.0, "b": "0"}, "meta.n: n must be a positive integer, got True"),
], ids=["B-Infinity", "n-true"])
@pytest.mark.parametrize("argv", [
    ["solve", "--n", "8"],
    ["verify", "--suite", "coercivity", "--n", "8", "--samples", "2"],
    ["mms", "--zstar", "1", "--n-list", "8,16"],
], ids=lambda argv: argv[0])
def test_document_with_an_invalid_meta_number_exits_1(argv, meta, message, tmp_path, capsys):
    doc = dict(LINEAR_MEMORY_DOC, rhs={"v": ["1"]}, meta=meta)
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code = run_cli([*argv, "--problem", str(tmp_path / "doc.json"),
                    "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "8"],
    ["linsolve", "--n", "8", "--rhs", "1"],
], ids=lambda argv: argv[0])
def test_no_finite_weight_is_reported_before_a_jacobian_fault_at_zero(argv, tmp_path, capsys):
    # f1's Jacobian divides by zero on the grid line x = 0.25, and B = 1e308
    # overflows both the weight and the probe's growth bound B·|z|
    doc = dict(LINEAR_MEMORY_DOC, rhs={"v": ["1"]}, meta={"n": 1, "B": 1e308, "b": "1"},
               functions={"f1": ["z1/(x-0.25)"], "f2": ["0"]})
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code = run_cli([*argv, "--problem", str(tmp_path / "doc.json"),
                    "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no finite weight m = max(8B, 2*sqrt(d)) + 1 "
                            "for B = 1e+308 and d = 1e+308\n")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "8", "--rhs", "0"],
    ["linsolve", "--n", "8", "--rhs", "1"],
    ["sens", "--n", "8", "--rhs", "0", "--direction", "1"],
    ["verify", "--suite", "contraction", "--n", "8"],
    ["mms", "--zstar", "0.1", "--n-list", "8,16"],
], ids=["solve", "linsolve", "sens", "verify-contraction", "mms"])
def test_assumption_violations_are_noted_once(argv, tmp_path, capsys):
    # |0.5 z^3| outgrows |z| + 1 from |z| = 2 on
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({**CUBIC_DOC, "functions": {"f1": ["0.5*z1^3"], "f2": ["0"]}}))
    run_cli([*argv, "--problem", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert err.count("note: assumption probe found violations (growth_ok=False, "
                     "coeff_ok=True, deriv_ok=True)") == 1


def test_mms_with_no_finite_weight_exits_1(tmp_path, capsys):
    doc = dict(LINEAR_MEMORY_DOC, meta={"n": 1, "B": 1e308, "b": "0"})
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    code = run_cli(["mms", "--problem", str(tmp_path / "doc.json"), "--zstar", "1",
                    "--n-list", "8,16", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no finite weight m = max(8B, 2*sqrt(d)) + 1 for B = 1e+308" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("suite", ["norms", "lemma31", "coercivity", "assumptions"])
def test_verify_m_outside_the_contraction_suite_exits_1(suite, tmp_path, capsys):
    code = run_cli(["verify", "--suite", suite, "--builtin", "example46", "--n", "8",
                    "--samples", "3", "--m", "5", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --m applies to --suite contraction only")
    assert captured.err.rstrip().endswith(f"not to --suite {suite}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag", [
    (["--suite", "assumptions", "--builtin", "zero", "--m-list", "1,2", "--n", "4"], "--m-list"),
    (["--suite", "assumptions", "--builtin", "zero", "--n", "4"], "--n"),
    (["--suite", "norms", "--builtin", "example46", "--n", "8", "--samples", "2",
      "--m-list", "1"], "--builtin"),
    (["--suite", "lemma31", "--problem", "doc.json", "--n", "8"], "--problem"),
], ids=["assumptions-m-list", "assumptions-n", "norms-builtin", "lemma31-problem"])
def test_verify_flag_the_suite_does_not_read_exits_1(argv, flag, tmp_path, capsys):
    code = run_cli(["verify", *argv, "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} applies to --suite ")
    assert captured.err.rstrip().endswith(f"not to --suite {argv[1]}")
    assert list(tmp_path.iterdir()) == []


def _error_classes(base):
    """``base`` and every class derived from it, however deep."""
    return [base, *(c for sub in base.__subclasses__() for c in _error_classes(sub))]


@pytest.mark.parametrize("error", [*_error_classes(Goursat2dError), OSError],
                         ids=lambda error: error.__name__)
def test_every_error_class_exits_with_its_code(error, monkeypatch, capsys):
    def fail(args):
        try:
            exc = error("boom")
        except TypeError:  # the expression errors also take an offset
            exc = error("boom", 0)
        raise exc

    monkeypatch.setattr(cli, "cmd_solve", fail)
    code = run_cli(["solve", "--builtin", "zero", "--n", "2"])
    solver = issubclass(error, SolverError)
    assert code == (2 if solver else 1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("solver failure: " if solver else "error: ") + "boom")


def test_each_distinct_warning_is_printed_once_per_run(tmp_path, capsys):
    # every solve of sens (base and perturbed) warns that m = 2 is below the threshold
    code = run_cli(["sens", "--builtin", "example46", "--n", "8", "--rhs", "1.8",
                    "--direction", "1", "--m", "2", "--out", str(tmp_path / "run")])
    assert code == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings and len(warnings) == len(set(warnings))


@pytest.mark.parametrize("source", ["--rhs", "rhs.v_file", "--linearize-at"])
@pytest.mark.parametrize("token", ["inf", "nan"])
def test_non_finite_csv_value_exits_1(source, token, tmp_path, capsys):
    assert run_cli(["solve", "--builtin", "zero", "--n", "2", "--rhs", "1",
                    "--out", str(tmp_path / "base")]) == 0
    capsys.readouterr()
    field = tmp_path / "f.csv"
    field.write_text("i,j,x,y,v_1\n" + "".join(
        f"{i},{j},{i / 2},{j / 2},1\n" for i in range(3) for j in range(3)))
    bundle = tmp_path / "base.grid.csv"
    path, column = (bundle, "g_1") if source == "--linearize-at" else (field, "v_1")
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")  # node (0, 1), file line 3
    cells[lines[0].split(",").index(column)] = token
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**LINEAR_MEMORY_DOC, "rhs": {"v_file": "f.csv"}}))
    argv = {"--rhs": ["solve", "--builtin", "zero", "--rhs", str(field)],
            "rhs.v_file": ["solve", "--problem", str(doc)],
            "--linearize-at": ["linsolve", "--builtin", "zero", "--rhs", "1",
                               "--linearize-at", str(bundle)]}[source]
    code = run_cli([*argv, "--n", "2", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: line 3: column {column} holds {token}, "
                            "not a finite number\n")
    assert not list(tmp_path.glob("run.*"))


@pytest.mark.parametrize("source", ["--linearize-at", "--rhs", "--problem"])
def test_input_that_is_not_utf8_exits_1(source, tmp_path, capsys):
    assert run_cli(["solve", "--builtin", "zero", "--n", "2", "--rhs", "1",
                    "--out", str(tmp_path / "base")]) == 0
    capsys.readouterr()
    bundle = tmp_path / "base.grid.csv"
    field = tmp_path / "f.csv"
    field.write_text("i,j,x,y,v_1\n" + "".join(
        f"{i},{j},{i / 2},{j / 2},1\n" for i in range(3) for j in range(3)))
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(LINEAR_MEMORY_DOC, indent=2))
    path = {"--linearize-at": bundle, "--rhs": field, "--problem": doc}[source]
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 3] = 0xFF  # on the second line
    path.write_bytes(bytes(data))
    argv = {"--linearize-at": ["linsolve", "--builtin", "zero", "--rhs", "1",
                               "--linearize-at", str(bundle)],
            "--rhs": ["solve", "--builtin", "zero", "--rhs", str(field)],
            "--problem": ["solve", "--problem", str(doc), "--rhs", "1"]}[source]
    code = run_cli([*argv, "--n", "2", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path} is not UTF-8 text (byte offset {data.index(0xFF)})\n"
        if source == "--problem" else f"error: {path}: not UTF-8 text\n")
    assert not list(tmp_path.glob("run.*"))


def test_rhs_file_that_is_no_path_string_exits_1(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**LINEAR_MEMORY_DOC, "rhs": {"v_file": 5}}))
    code = run_cli(["solve", "--problem", str(doc), "--n", "4", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rhs.v_file: expected a file path string, got int\n"
    assert not list(tmp_path.glob("run.*"))


def test_rhs_file_on_another_grid_exits_1(tmp_path, capsys):
    write_field_csv(tmp_path / "f.csv", GridField(build_grid(4), np.ones((5, 5, 1))))
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**LINEAR_MEMORY_DOC, "rhs": {"v_file": "f.csv"}}))
    code = run_cli(["solve", "--problem", str(doc), "--n", "8", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: rhs field lives on Grid(cells=4), requested Grid(cells=8)")
    assert not list(tmp_path.glob("run.*"))


@pytest.mark.parametrize("argv, message", [
    (["solve", "--builtin", "zero", "--n", "4", "--rhs", "1", "--seed", "abc"],
     "argument --seed: invalid int value: 'abc'"),
    (["solve", "--builtin", "zero", "--n", "4", "--rhs", ";"], "error: --rhs is empty"),
    (["verify", "--suite", "lemma31", "--n", "8", "--m-list", ","], "error: --m-list is empty"),
    (["verify", "--suite", "lemma31", "--n", "8", "--m-list", "1,nan"],
     "error: --m-list must list finite values, got '1,nan'"),
    (["verify", "--suite", "coercivity", "--builtin", "example46", "--n", "8", "--m-list", "inf"],
     "error: --m-list must list finite values, got 'inf'"),
    (["sens", "--builtin", "example46", "--n", "8", "--rhs", "1.8", "--direction", "1",
      "--eps", "1e-1,1e-2,nan"], "error: --eps must list finite values, got '1e-1,1e-2,nan'"),
    (["solve", "--builtin", "zero", "--n", "4", "--rhs", "1 + )"],
     "error: --rhs: unexpected token ')' (at offset 4)"),
    (["solve", "--builtin", "zero", "--n", "4", "--rhs", "log(x)"],
     "error: --rhs: log of a nonpositive value (expression offset 0) at (x, y) = (0, 0)"),
    (["sens", "--builtin", "example46", "--n", "8", "--rhs", "1.8", "--direction", "1 + )"],
     "error: --direction: unexpected token ')' (at offset 4)"),
    (["mms", "--builtin", "zero", "--zstar", "1+"],
     "error: --zstar: unexpected end of expression (at offset 2)"),
    (["mms", "--builtin", "zero", "--zstar", "log(x)", "--n-list", "4,8"],
     "error: --zstar: log of a nonpositive value (expression offset 0) at (x, y) = (0, 0)"),
], ids=["seed-not-an-integer", "rhs-no-component", "m-list-no-weight", "m-list-nan",
        "m-list-inf", "eps-nan", "rhs-syntax", "rhs-eval-fault", "direction-syntax",
        "mms-zstar-syntax", "mms-zstar-eval-fault"])
def test_malformed_flag_value_exits_1(argv, message, tmp_path, capsys):
    code = run_cli([*argv, "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("zstar, message", [
    ("1 + )", "error: --zstar: unexpected token ')' (at offset 4)"),
    ("1;2", "error: --zstar has 2 component(s), problem has 1"),
    ("log(x)", "error: --zstar: log of a nonpositive value"),
], ids=["syntax", "other-n", "eval-fault"])
def test_solve_reads_zstar_before_solving(zstar, message, tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran before --zstar was read")

    monkeypatch.setattr(cli, "solve", no_solve)
    code = run_cli(["solve", "--builtin", "example46", "--n", "8", "--rhs", "1.8",
                    "--zstar", zstar, "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert list(tmp_path.iterdir()) == []


def test_rhs_file_solves_like_its_expression(tmp_path):
    rhs = "1 + sin(2*x)*y"
    write_field_csv(tmp_path / "v.csv", XYFunction.from_sources(rhs).sample(build_grid(8)))
    for name, source in (("expr", rhs), ("file", str(tmp_path / "v.csv"))):
        assert run_cli(["solve", "--builtin", "example46", "--n", "8", "--rhs", source,
                        "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "file.grid.csv").read_bytes() == (tmp_path / "expr.grid.csv").read_bytes()
    expr, file = (read_report_json(tmp_path / f"{name}.report.json") for name in ("expr", "file"))
    assert {**file, "grid_file": None} == {**expr, "grid_file": None}


@pytest.mark.parametrize("argv", [
    ["solve", "--builtin", "example46", "--n", "8", "--rhs"],
    ["sens", "--builtin", "zero", "--n", "8", "--rhs", "x", "--direction"],
], ids=["solve-rhs", "sens-direction"])
def test_an_expression_too_long_for_a_file_name_is_read_as_one(argv, tmp_path):
    short = "1.5 + 0.001*x*y"
    long = short + " + 0*x" * 50  # the same field, and no valid file name
    assert len(long.encode()) > 255 and "/" not in long
    for name, source in (("short", short), ("long", long)):
        assert run_cli(argv + [source, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "long.grid.csv").read_bytes() == (tmp_path / "short.grid.csv").read_bytes()


@pytest.mark.parametrize("foreign, message", [
    ("grid", "{flag} on Grid(cells=4) does not match context grid Grid(cells=8)"),
    ("n", "{flag} has 2 components, problem has 1"),
], ids=["other-grid", "other-n"])
@pytest.mark.parametrize("flag", ["--rhs", "--direction", "--linearize-at"])
def test_field_file_that_does_not_fit_exits_1(flag, foreign, message, tmp_path, capsys):
    grid = build_grid(4 if foreign == "grid" else 8)
    field = GridField(grid, np.ones((grid.npoints, grid.npoints, 2 if foreign == "n" else 1)))
    path = tmp_path / "field.csv"
    (write_grid_csv if flag == "--linearize-at" else write_field_csv)(path, field)
    argv = {"--rhs": ["solve", "--rhs", str(path)],
            "--direction": ["sens", "--rhs", "1", "--direction", str(path)],
            "--linearize-at": ["linsolve", "--rhs", "1", "--linearize-at", str(path)]}[flag]
    code = run_cli([*argv, "--builtin", "example46", "--n", "8", "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(flag=flag)}\n"
    assert not list(tmp_path.glob("run.*"))


@pytest.mark.parametrize("column", ["z_1", "zx_1", "zy_1"])
def test_linearize_at_a_bundle_with_a_foreign_state_exits_1(column, tmp_path, linear_doc,
                                                            capsys):
    base = tmp_path / "base"
    assert run_cli(["solve", "--problem", linear_doc, "--n", "8",
                    "--rhs", "1", "--out", str(base)]) == 0
    path = tmp_path / "base.grid.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1 + 3 * 9 + 4].split(",")  # node (3, 4)
    cells[col] = repr(float(cells[col]) * (1 + 1e-9))
    lines[1 + 3 * 9 + 4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    code = run_cli(["linsolve", "--problem", linear_doc, "--n", "8", "--rhs", "x*y",
                    "--linearize-at", str(path), "--out", str(tmp_path / "lin")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"column {column} at node (3, 4)" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_solve_report_lists_every_solver_setting(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--builtin", "zero", "--n", "8", "--rhs", "1", "--out", str(out)]) == 0
    assert set(read_report_json(f"{out}.report.json")["solver"]) == SOLVER_FIELDS


@pytest.mark.parametrize("m", ["1e-200", "1e-160"])
@pytest.mark.parametrize("command", ["solve", "linsolve"])
def test_weight_whose_square_underflows_writes_the_report(command, m, tmp_path, capsys):
    # m² is 0 at 1e-200 and a subnormal at 1e-160, where 4d/m² overflows; the
    # contraction bound is then the largest float, not a traceback or inf
    out = tmp_path / "tiny"
    code = run_cli([command, "--builtin", "example46", "--n", "8", "--rhs", "1",
                    "--m", m, "--out", str(out)])
    assert code == 0
    [line] = stdout_lines(capsys)
    assert line["converged"] is True and line["m"] == float(m)
    with open(f"{out}.report.json", encoding="utf-8") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    assert report["contraction"]["bound"] == sys.float_info.max


_ZERO2 = [["0", "0"], ["0", "0"]]

#: Finite documents whose probe or contraction numbers overflow: the
#: largest singular value of f1's Jacobian (2e308), A1's finite-difference
#: x-derivative, that derivative against a declared A1x whose square
#: overflows too (inf/inf), and ‖F'(0) − I‖ along a random field.
OVERFLOW_DOCS = {
    "spectral": {
        "meta": {"n": 2, "B": 0, "b": "0"},
        "functions": {"f1": ["1e308*sin(z1+z2)", "1e308*sin(z1+z2)"], "f2": ["0", "0"]},
        "coefficients": {"A1": _ZERO2, "A2": _ZERO2, "A1x": _ZERO2, "A2y": _ZERO2},
    },
    "derivative": {
        "meta": {"n": 1, "B": 0, "b": "0"},
        "functions": {"f1": ["0"], "f2": ["0"]},
        "coefficients": {"A1": [["1.5e308*sin(1000*x)"]], "A2": [["0"]], "A1x": [["0"]],
                         "A2y": [["0"]]},
    },
    "derivative-scale": {
        "meta": {"n": 1, "B": 0, "b": "0"},
        "functions": {"f1": ["0"], "f2": ["0"]},
        "coefficients": {"A1": [["1.5e308*sin(1000*x)"]], "A2": [["0"]],
                         "A1x": [["1.5e308*cos(x)"]], "A2y": [["0"]]},
    },
    "contraction": {
        "meta": {"n": 1, "B": 0, "b": "0"},
        "functions": {"f1": ["1.7e308*sin(z1)"], "f2": ["0"]},
        "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
    },
}


def _values_of(obj, key: str) -> list:
    """Every value of ``key`` in the parsed JSON ``obj``, at any depth."""
    if isinstance(obj, dict):
        return [v for k, item in obj.items()
                for v in ([item] if k == key else []) + _values_of(item, key)]
    if isinstance(obj, list):
        return [v for item in obj for v in _values_of(item, key)]
    return []


@pytest.mark.parametrize("doc, argv, code, key", [
    ("spectral", ["verify", "--suite", "assumptions"], 3, "m_rho"),
    ("spectral", ["solve", "--n", "8", "--rhs", "1;1", "--m", "5"], 2, "m_rho"),
    ("derivative", ["verify", "--suite", "assumptions"], 3, "deriv_residual_a1x"),
    ("derivative-scale", ["verify", "--suite", "assumptions"], 3, "deriv_residual_a1x"),
    ("contraction", ["verify", "--suite", "contraction", "--n", "8", "--m-list", "5"], 3,
     "rho_hat"),
    ("contraction", ["linsolve", "--n", "8", "--rhs", "1", "--m", "5"], 2, "rho_hat"),
], ids=["spectral-assumptions", "spectral-solve", "derivative-assumptions",
        "derivative-scale-assumptions", "contraction-verify", "contraction-linsolve"])
def test_an_overflowed_number_reads_as_the_largest_float(doc, argv, code, key, tmp_path,
                                                         capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(OVERFLOW_DOCS[doc]))
    assert run_cli([*argv, "--problem", str(path), "--out", str(tmp_path / "run")]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = json_lines(captured.out)
    [name] = [line[k] for line in lines for k in ("report", "fail_artifact") if k in line]
    with open(name, encoding="utf-8") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    found = _values_of(report, key)
    if key == "m_rho":  # (ρ, M_ρ) pairs
        found = [sup for pairs in found for _, sup in pairs]
    assert found and set(found) == {sys.float_info.max}


def test_an_automatic_weight_refuses_an_overflowed_jacobian_bound(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(OVERFLOW_DOCS["spectral"]))
    code = run_cli(["solve", "--problem", str(path), "--n", "8", "--rhs", "1;1",
                    "--out", str(tmp_path / "run")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: no finite weight m = max(8B, 2*sqrt(d)) + 1 "
                                 "for B = 0 and d = 1.79769e+308\n")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestSens:
    def test_zero_problem_quotients_at_rounding_level(self, tmp_path, capsys):
        out = tmp_path / "sens"
        code = run_cli(["sens", "--builtin", "zero", "--n", "12",
                        "--rhs", "x + y", "--direction", "sin(3*x)*y",
                        "--out", str(out)])
        assert code == 0
        lines = stdout_lines(capsys)
        errs = [l["fd_error"] for l in lines if "eps" in l]
        assert len(errs) == 3
        assert max(errs) <= 1e-10
        # the derivative field is emitted alongside the report
        g = read_grid_csv(f"{out}.grid.csv")
        report = read_report_json(f"{out}.report.json")
        assert report["validation"]["passed"] is True

    def test_nonlinear_errors_shrink_with_eps(self, tmp_path, capsys):
        out = tmp_path / "sens"
        code = run_cli(["sens", "--builtin", "example46", "--n", "12",
                        "--rhs", "x*y", "--direction", "1", "--out", str(out)])
        assert code == 0
        errs = [l["fd_error"] for l in stdout_lines(capsys) if "eps" in l]
        assert errs[0] > errs[1] > errs[2]

    def test_eps_below_noise_floor_exits_1_and_prints_floor(self, capsys):
        code = run_cli(["sens", "--builtin", "zero", "--n", "8", "--rhs", "x",
                        "--direction", "1", "--eps", "1e-3,1e-4,1e-9"])
        assert code == 1
        err = capsys.readouterr().err
        assert "1e-08" in err  # the floor 100 * tol, printed for the user
        assert "noise floor" in err

    def test_inner_non_convergence_exits_2(self, tmp_path, capsys):
        code = run_cli(["sens", "--builtin", "example46", "--n", "8",
                        "--rhs", "x*y", "--direction", "1", "--max-iter", "1",
                        "--out", str(tmp_path / "sens")])
        assert code == 2
        assert "failed to converge" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # sens writes no partial artifacts

    def test_failed_solve_is_named_with_its_error(self, tmp_path, capsys):
        # the base Picard solve leaves log's domain at iteration 2
        doc = dict(CUBIC_DOC, functions={"f1": ["z1^3 + 3*log(5+z1)"], "f2": ["0"]})
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        code = run_cli(["sens", "--problem", str(tmp_path / "doc.json"), "--n", "16",
                        "--rhs", "20", "--m", "5", "--method", "picard", "--direction", "1",
                        "--out", str(tmp_path / "sens")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "sens: the base solve failed to converge: picard iteration 2 left the domain of "
            "an expression (log of a nonpositive value (expression offset 9) at (x, y) = "
            "(0.4375, 0.875)); the iterates reach states where it is undefined at this "
            "weight and right-hand side; no derivative was validated")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]  # no artifacts

    def test_oversized_steps_fail_validation_with_exit_3(self, tmp_path, capsys):
        out = tmp_path / "sens"
        code = run_cli(["sens", "--builtin", "example46", "--n", "12",
                        "--rhs", "x*y", "--direction", "40",
                        "--eps", "1,0.5,0.25", "--out", str(out)])
        assert code == 3
        lines = stdout_lines(capsys)
        assert lines[-1]["passed"] is False

    def test_zero_direction_exits_1_naming_it(self, tmp_path, capsys):
        out = tmp_path / "sens"
        code = run_cli(["sens", "--builtin", "example46", "--n", "16", "--rhs", "1.5",
                        "--direction", "0", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the direction deltav is identically zero; it validates nothing\n"
        assert not list(tmp_path.glob("sens.*"))

    def test_perturbed_rhs_that_overflows_exits_1(self, tmp_path, capsys):
        # v + eps * deltav = 1 + 1e10 * 1e300 is inf at every node
        code = run_cli(["sens", "--builtin", "example46", "--n", "4", "--rhs", "1",
                        "--direction", "1e300", "--eps", "1e10,1e9,1e8",
                        "--out", str(tmp_path / "sens")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the perturbed right-hand side v + eps*deltav "
                                "overflows at eps = 1e+10\n")
        assert list(tmp_path.iterdir()) == []

    def test_non_decreasing_eps_exits_1(self, capsys):
        code = run_cli(["sens", "--builtin", "zero", "--n", "8", "--rhs", "x",
                        "--direction", "1", "--eps", "1e-2,1e-2,1e-3"])
        assert code == 1


class TestMms:
    def test_zero_problem_is_exact(self, tmp_path, capsys):
        out = tmp_path / "mms"
        code = run_cli(["mms", "--builtin", "zero", "--zstar", "x*y",
                        "--n-list", "8,16", "--out", str(out)])
        assert code == 0
        lines = stdout_lines(capsys)
        assert lines[-1]["exact"] is True
        report = read_report_json(f"{out}.report.json")
        assert report["exact"] is True

    def test_second_order_on_memory_problem(self, tmp_path, linear_doc, capsys):
        out = tmp_path / "mms"
        code = run_cli(["mms", "--problem", linear_doc,
                        "--zstar", "sin(2*x)*y + x*y",
                        "--n-list", "8,16,32", "--out", str(out)])
        assert code == 0
        lines = stdout_lines(capsys)
        orders = lines[-1]["orders"]
        assert len(orders) == 2
        assert all(1.8 <= p <= 2.2 for p in orders)

    def test_kinked_reference_breaks_the_order_window(self, tmp_path, linear_doc, capsys):
        out = tmp_path / "mms"
        code = run_cli(["mms", "--problem", linear_doc,
                        "--zstar", "abs(x - 0.317)*y",
                        "--n-list", "8,16,32", "--out", str(out)])
        assert code == 3
        assert stdout_lines(capsys)[-1]["pass"] is False

    def test_non_convergent_solve_exits_2(self, tmp_path, capsys):
        code = run_cli(["mms", "--builtin", "example46", "--zstar", "x*y",
                        "--n-list", "8,16", "--method", "picard",
                        "--max-iter", "1", "--tol", "1e-14", "--out", str(tmp_path / "mms")])
        assert code == 2
        assert "failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # mms writes no partial artifacts

    def test_single_resolution_exits_1(self, capsys):
        code = run_cli(["mms", "--builtin", "zero", "--zstar", "x*y", "--n-list", "16"])
        assert code == 1

    def test_unsorted_ladder_exits_1(self):
        assert run_cli(["mms", "--builtin", "zero", "--zstar", "x*y",
                        "--n-list", "16,8"]) == 1

    def test_zstar_referencing_state_exits_1(self, capsys):
        code = run_cli(["mms", "--builtin", "zero", "--zstar", "z1 + x",
                        "--n-list", "8,16"])
        assert code == 1
        assert "z-variables" in capsys.readouterr().err

    @pytest.mark.parametrize("functions, zstar, n_list, error", [
        # z* = -80xy samples fine; log(10 + z) faults where z = -10, at (1/8, 1) on N = 16
        ({"f1": ["log(10 + z1)"], "f2": ["0"]}, "-80", "4,8",
         "error: log of a nonpositive value (expression offset 0) at (x, y) = (0.125, 1)\n"),
        # the fine grid of N = 100 runs two strips: F faults in the first, at
        # x = 1/4, and z* only in the second, but z* sampled on the whole fine
        # grid faults, so the flag is named
        ({"f1": ["0.5*z1"], "f2": ["z1 + 1/(x - 0.25)"]}, "1/(x - 0.9)", "100,200",
         "error: --zstar: division by zero (expression offset 1) at (x, y) = (0.9, 0)\n"),
    ], ids=["f1-at-zstar", "zstar-after-F-in-a-later-strip"])
    def test_fault_at_zstar_names_the_flag_only_for_its_own(self, functions, zstar, n_list,
                                                            error, tmp_path, capsys):
        doc = dict(LINEAR_MEMORY_DOC, functions=functions)
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        code = run_cli(["mms", "--problem", str(tmp_path / "doc.json"), "--zstar", zstar,
                        "--n-list", n_list, "--out", str(tmp_path / "run")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the document's b = 0 fails the growth probe, which mms notes first
        assert captured.err == ("note: assumption probe found violations (growth_ok=False, "
                                "coeff_ok=True, deriv_ok=True); run `verify --suite "
                                "assumptions` for details\n" + error)

    def test_success_resamples_no_zstar(self, tmp_path, monkeypatch):
        def resample(*args):
            raise AssertionError("z* sampled again")

        monkeypatch.setattr(cli, "_sampled", resample)
        assert run_cli(["mms", "--builtin", "zero", "--zstar", "x*y", "--n-list", "4,8",
                        "--out", str(tmp_path / "mms")]) == 0


class TestDeterminism:
    def test_repeated_solve_is_byte_identical(self, tmp_path, monkeypatch):
        argv = ["solve", "--builtin", "example46", "--n", "10",
                "--rhs", "x + y*y", "--out", "run"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        monkeypatch.chdir(dir_a)
        assert run_cli(argv) == 0
        monkeypatch.chdir(dir_b)
        assert run_cli(argv) == 0
        assert (dir_a / "run.grid.csv").read_bytes() == (dir_b / "run.grid.csv").read_bytes()
        assert (dir_a / "run.report.json").read_bytes() == (dir_b / "run.report.json").read_bytes()

    @pytest.mark.parametrize("argv,expected", [
        (["linsolve", "--builtin", "example46", "--n", "10", "--rhs", "x + y*y"], 0),
        (["sens", "--builtin", "example46", "--n", "10", "--rhs", "x*y", "--direction", "1"], 0),
        (["mms", "--builtin", "example46", "--zstar", "1 + sin(2*x)*cos(y)",
          "--n-list", "8,16"], 0),
        (["verify", "--suite", "coercivity", "--problem", "coer.json", "--n", "16",
          "--samples", "10", "--m-list", "2,5,10,20"], 3),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_repeated_run_is_byte_identical(self, argv, expected, tmp_path, monkeypatch, capsys):
        runs = []
        for name in ("a", "b"):
            where = tmp_path / name
            where.mkdir()
            (where / "coer.json").write_text(json.dumps(COERCIVITY_FAIL_DOC))
            monkeypatch.chdir(where)
            assert run_cli([*argv, "--out", "run"]) == expected
            files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
            runs.append((capsys.readouterr().out, files))
        assert len(runs[0][1]) > 1  # the document plus at least one artifact
        assert runs[0] == runs[1]

    def test_seed_is_recorded_and_respected(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        args = ["verify", "--suite", "contraction", "--builtin", "example46", "--n", "8"]
        assert run_cli(args + ["--seed", "5", "--out", str(out1)]) == 0
        assert run_cli(args + ["--seed", "5", "--out", str(out2)]) == 0


EXP_GROWTH_DOC = {
    "meta": {"n": 1, "B": 1.0, "b": "1"},
    "functions": {"f1": ["exp(z1)"], "f2": ["0"]},
    "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
}

#: One call of each command that writes artifacts, and one failing verify
#: suite of each kind; documents are read from the working directory.
OUTPUT_CALLS = {
    "solve": (["solve", "--builtin", "example46", "--n", "8", "--rhs", "1"], 0),
    "solve-partial": (["solve", "--problem", "stiff.json", "--n", "12", "--rhs", "1",
                       "--m", "1.0"], 2),
    "linsolve": (["linsolve", "--builtin", "example46", "--n", "8", "--rhs", "1"], 0),
    "sens": (["sens", "--builtin", "example46", "--n", "8", "--rhs", "1", "--direction", "1"], 0),
    "mms": (["mms", "--builtin", "example46", "--zstar", "1", "--n-list", "4,8"], 0),
    "verify-field": (["verify", "--suite", "coercivity", "--problem", "coer.json", "--n", "16",
                      "--samples", "10", "--m-list", "2,5,10,20"], 3),
    "verify-assumptions": (["verify", "--suite", "assumptions", "--problem", "exp.json"], 3),
    "verify-contraction": (["verify", "--suite", "contraction", "--problem", "stiff.json",
                            "--n", "12", "--m-list", "1.0"], 3),
}


@pytest.fixture
def documents(tmp_path, monkeypatch):
    """tmp_path as the working directory, holding the documents of OUTPUT_CALLS."""
    for name, doc in (("stiff.json", STIFF_DOC), ("coer.json", COERCIVITY_FAIL_DOC),
                      ("exp.json", EXP_GROWTH_DOC)):
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _names_a_file(line: dict) -> bool:
    return any(line.get(key) is not None for key in ("grid", "report", "fail_artifact"))


def _is_passing_summary(line: dict) -> bool:
    # sens ends with "passed", mms and the verify suites with a "pass" that
    # carries no "check"
    return line.get("passed") is True or (line.get("pass") is True and "check" not in line)


class TestOutputPath:
    """A stdout line names only files already written, and a failed write
    exits 1 without that line."""

    @pytest.mark.parametrize("name", ["solve", "linsolve", "sens", "mms", "verify-assumptions"])
    def test_write_under_a_missing_directory_prints_no_result(self, name, documents, capsys):
        argv, _ = OUTPUT_CALLS[name]
        code = run_cli([*argv, "--out", str(documents / "missing" / "run")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        lines = json_lines(captured.out)
        assert not [line for line in lines if _names_a_file(line) or _is_passing_summary(line)]
        assert not (documents / "missing").exists()

    @pytest.mark.parametrize("name", list(OUTPUT_CALLS))
    def test_every_named_file_exists_when_its_line_is_printed(self, name, documents,
                                                              monkeypatch, capsys):
        argv, expected = OUTPUT_CALLS[name]
        named, missing = [], []
        emit = cli._emit

        def checking_emit(line):
            for key in ("grid", "report", "fail_artifact"):
                if line.get(key) is not None:
                    named.append(line[key])
                    if not (documents / line[key]).is_file():
                        missing.append(line[key])
            if "exact" in line:  # the mms summary follows its report
                named.append("run.report.json")
                if not (documents / "run.report.json").is_file():
                    missing.append("run.report.json")
            emit(line)

        monkeypatch.setattr(cli, "_emit", checking_emit)
        assert run_cli([*argv, "--out", "run"]) == expected
        assert named and not missing

    @pytest.mark.parametrize("name, line", [
        ("verify-field", '{"suite": "coercivity", "pass": false, '
                         '"fail_artifact": "run.fail.csv"}'),
        ("verify-assumptions", '{"suite": "assumptions", "pass": false, '
                               '"failed_checks": ["growth"], "fail_artifact": "run.fail.json"}'),
        ("verify-contraction", '{"suite": "contraction", "pass": false, '
                               '"fail_artifact": "run.fail.json", '
                               '"hint": "contraction requires m > 2*sqrt(d); raise m"}'),
    ], ids=["field", "assumptions", "contraction"])
    def test_failure_line_bytes(self, name, line, documents, capsys):
        argv, expected = OUTPUT_CALLS[name]
        assert run_cli([*argv, "--out", "run"]) == expected
        assert capsys.readouterr().out.splitlines()[-1] == line
        artifact = json.loads(line)["fail_artifact"]
        if artifact.endswith(".csv"):
            read_field_csv(artifact)
        else:
            assert read_report_json(artifact)

    def test_module_runs_as_a_script(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "goursat2d.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: goursat2d")


def test_linearize_at_a_state_whose_squares_overflow_warns_nothing(tmp_path, capsys):
    # g ≡ 1e300 gives a finite state z = 1e300·xy, whose squares overflow
    doc = {"meta": {"n": 1, "B": 2.0, "b": "0"},
           "functions": {"f1": ["2*z1"], "f2": ["0"]},
           "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]}}
    (tmp_path / "lin.json").write_text(json.dumps(doc))
    grid = build_grid(8)
    write_grid_csv(tmp_path / "big.grid.csv", GridField(grid, np.full((9, 9, 1), 1e300)))
    code = run_cli(["linsolve", "--problem", str(tmp_path / "lin.json"), "--n", "8",
                    "--rhs", "1", "--linearize-at", str(tmp_path / "big.grid.csv"),
                    "--out", str(tmp_path / "lin")])
    assert code == 0
    assert capsys.readouterr().err == ""
