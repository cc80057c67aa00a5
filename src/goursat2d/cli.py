"""Command-line front end for the solver library.

Five subcommands share one problem-description pipeline (a JSON document or a
named builtin) and one exit-code contract:

    solve      nonlinear solve of F(z) = v; writes PREFIX.grid.csv + PREFIX.report.json
    linsolve   one linearized solve F'(z0) h = w with its contraction trace
    verify     inequality suites: norms, lemma31, coercivity, assumptions, contraction
    sens       directional-derivative validation of the solution map v ↦ z_v
    mms        manufactured-solution convergence study over a resolution ladder

Exit codes:  0 success / all checks passed;  1 malformed input (bad document,
bad expression, bad flag value);  2 solver failure (divergence, iteration cap,
stalled line search);  3 a verification suite measured a violated inequality.

Everything printed to stdout is one JSON object per line, so scripts can
consume results without scraping; a line names only files already written,
and human-facing notes go to stderr.  Reports and grids are written
atomically and contain no timestamps: identical inputs (including --seed)
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .errors import EvalFaultError, ExprSyntaxError, Goursat2dError, ParameterError, SchemaError, SolverError
from .fileio import read_field_csv, read_grid_csv, write_field_csv, write_grid_csv, write_report_json
from .grid import GridField, build_grid
from .norms import LEMMA31_SIDES, WeightedNorms, check_norm_equivalence, verify_lemma31
from .operator import LinearizedOperator, OperatorContext, coercivity_probe, make_context
from .problem import (
    BUILTIN_PROBLEMS,
    DEFAULT_SEED,
    ProblemSpec,
    XYFunction,
    load_problem,
    manufacture_problem,
    probe_assumptions,
)
from .sampling import _PCG64, random_smooth_field
from .sensitivity import validate_frechet
from .solvers import (
    SolverConfig,
    choose_weight,
    estimate_contraction,
    solve,
    solve_linearized,
)

class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; here 2 means a solver
    failure, so flag mistakes are remapped to the input-error code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(line: dict) -> None:
    print(json.dumps(line))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# -- argument plumbing ---------------------------------------------------------

def _add_problem_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    src = p.add_mutually_exclusive_group(required=required)
    src.add_argument("--problem", metavar="PATH", help="JSON problem document")
    src.add_argument("--builtin", choices=sorted(BUILTIN_PROBLEMS),
                     help="named built-in problem instead of a document")


def _int_at_least(low: int):
    """An argparse type: an integer >= low (violations exit 1 with usage)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_probe_args(p: argparse.ArgumentParser, samples_default: int | None = 200) -> None:
    p.add_argument("--samples", type=_int_at_least(1), default=samples_default,
                   help="sample count for probes / random fields")
    p.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                   help=f"seed for every random draw (default {DEFAULT_SEED})")


def _add_solver_args(p: argparse.ArgumentParser, names=("m", "method", "tol", "max_iter")) -> None:
    """Register the flags of the SolverConfig fields in ``names``, the ones the command reads."""
    flags = {
        "m": {"help": "norm weight: 'auto' (probe-driven choice) or a positive real"},
        "method": {"choices": ["newton", "picard"]},
        "tol": {"type": float, "help": "weighted residual tolerance"},
        "max_iter": {"type": int},
    }
    group = p.add_argument_group("solver settings")
    for name in names:
        group.add_argument("--" + name.replace("_", "-"), default=None, **flags[name])


def _add_out_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PREFIX", default="out",
                   help="output prefix for grids/reports (default 'out')")


def _parse_list(text: str, what: str, kind=float) -> list:
    """A non-empty comma-separated list of finite ``kind`` (float or int) values."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        noun = "reals" if kind is float else "integers"
        raise ParameterError(f"{what} must be a comma-separated list of {noun}: {exc}") from exc
    if not values:
        raise ParameterError(f"{what} is empty")
    if not all(map(math.isfinite, values)):
        raise ParameterError(f"{what} must list finite values, got {text!r}")
    return values


def _load_spec(args) -> tuple[ProblemSpec, dict]:
    """The problem plus its document's solver section (empty for builtins)."""
    if args.builtin is not None:
        return BUILTIN_PROBLEMS[args.builtin](), {}
    path = Path(args.problem)
    # read_text errors (missing file, permissions) surface as OSError -> exit 1
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text (byte offset {exc.start})") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return load_problem(document, base_dir=path.parent), dict(document.get("solver", {}))


def _solver_config(args, solver_doc: dict) -> SolverConfig:
    """Defaults < document solver section < command-line flags."""
    merged = dict(solver_doc)
    for f in fields(SolverConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = _weight_flag(value) if f.name == "m" else value
    return _config(SolverConfig.from_settings, merged)


def _weight_flag(text: str) -> float | str:
    """The value of --m: a real number, or the text for
    ``SolverConfig.from_settings`` to read as "auto"."""
    try:
        return float(text)
    except ValueError:
        return text


def _config(make, *args, **settings) -> SolverConfig:
    """``make(*args, **settings)``, a setting it rejects reported as a usage error."""
    try:
        return make(*args, **settings)
    except ValueError as exc:
        raise ParameterError(f"bad solver settings: {exc}") from exc


def _xyfunction(source: str, n: int, what: str) -> XYFunction:
    """Parse ';'-separated component expressions (commas occur inside calls)."""
    parts = [part.strip() for part in source.split(";") if part.strip()]
    if not parts:
        raise ParameterError(f"{what} is empty")
    if len(parts) != n:
        raise ParameterError(f"{what} has {len(parts)} component(s), problem has {n}")
    try:
        return XYFunction.from_sources(parts)
    except (ValueError, ExprSyntaxError) as exc:
        raise ParameterError(f"{what}: {exc}") from exc


def _sampled(source: str, grid, n: int, what: str) -> GridField:
    """The expression ``source`` of ``what`` sampled on ``grid``."""
    function = _xyfunction(source, n, what)
    try:
        return function.sample(grid)
    except EvalFaultError as exc:
        raise ParameterError(f"{what}: {exc}") from exc


def _field(source: str, ctx: OperatorContext, what: str) -> GridField:
    """A field from either an expression or a node-value CSV path that fits ``ctx``."""
    if source.endswith(".csv") or os.path.isfile(source):  # no OSError for a long expression
        f = read_field_csv(source)
        ctx.check_field(f, what)
        return f
    return _sampled(source, ctx.grid, ctx.spec.n, what)


def _rhs_field(args, ctx: OperatorContext) -> GridField:
    override = getattr(args, "rhs", None)
    if override is not None:
        return _field(override, ctx, "--rhs")
    return ctx.spec.sample_rhs(ctx.grid)


def _probe(spec: ProblemSpec, samples: int, seed: int):
    """The assumption probe's report, noted on stderr when it found violations."""
    report = probe_assumptions(spec, sample_count=samples, seed=seed)
    if not report.passed:
        _note("note: assumption probe found violations "
              f"(growth_ok={report.growth_ok}, coeff_ok={report.coeff_ok}, "
              f"deriv_ok={report.deriv_ok}); run `verify --suite assumptions` for details")
    return report


def _probed_context(spec: ProblemSpec, cells: int, samples: int, seed: int):
    grid = build_grid(cells)
    report = _probe(spec, samples, seed)
    return make_context(spec, grid).with_assumptions(report)


def _setup(args) -> tuple[SolverConfig, OperatorContext]:
    """The merged solver settings and the probed context of the problem."""
    spec, solver_doc = _load_spec(args)
    cfg = _solver_config(args, solver_doc)
    return cfg, _probed_context(spec, args.n, args.samples, args.seed)


def _weight(ctx: OperatorContext, cfg: SolverConfig, at: LinearizedOperator | None):
    """``cfg`` with an automatic m replaced by ``choose_weight``'s at the
    operator ``at``, and that choice (None when m was given)."""
    if cfg.m is not None:
        return cfg, None
    choice = choose_weight(ctx, at)
    return replace(cfg, m=choice.m), choice


def _zstar_error(zstar: GridField | None, rep) -> dict | None:
    """The classical and weighted norms of g - g*; both None, with a note,
    when the difference overflows."""
    if zstar is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        diff = rep.g.values - zstar.values
    if not np.isfinite(diff).all():
        _note("note: g - g* overflows, so error_vs_reference is null")
        return {"classical": None, "weighted": None}
    return {"classical": WeightedNorms(zstar.grid, 0.0).norm(diff),
            "weighted": WeightedNorms(zstar.grid, rep.m_used).norm(diff)}


# -- artifacts -----------------------------------------------------------------

def _write_bundle(args, ctx: OperatorContext, g: GridField, fields: dict) -> dict:
    """Write the solution bundle PREFIX.grid.csv, then PREFIX.report.json:
    the run header (command, label, cells, seed), ``fields`` and grid_file.
    Returns the stdout line's "grid" and "report" keys, which name only
    files already written."""
    grid_file, report_file = f"{args.out}.grid.csv", f"{args.out}.report.json"
    write_grid_csv(grid_file, g)
    write_report_json(report_file, {"command": args.command, "label": ctx.spec.label,
                                    "cells": ctx.grid.cells, "seed": args.seed,
                                    **fields, "grid_file": grid_file})
    return {"grid": grid_file, "report": report_file}


# -- solve and linsolve --------------------------------------------------------

def _solve_command(args, ctx, cfg, at, run, head, tail=lambda rep: {},
                   line=lambda estimate: {}) -> int:
    """The weight, contraction estimate, solve, report, artifacts and exit code
    of ``solve`` and ``linsolve``: 0, or 2 after writing the partial artifacts
    of a failed solve.  A solve whose first residual overflows or faults has
    no partial report: its SolverError propagates, and no artifact is written.

    The weight and the contraction estimate are taken with the operator
    linearized at the g field ``at`` (the zero state when None), and
    ``run(lin, cfg)`` solves with that operator ``lin`` at that weight.  The
    command's own keys come from ``head(rep, cfg)`` (after "seed"),
    ``tail(rep)`` (after "result") and ``line(estimate)`` (after the stdout
    line's "m").
    """
    # the zero state needs no operator for its weight, so an infinite weight
    # is reported before F' is evaluated
    lin = None if at is None else LinearizedOperator(ctx, at)
    cfg, choice = _weight(ctx, cfg, lin)
    if lin is None:
        lin = LinearizedOperator(ctx)
    estimate = estimate_contraction(lin, cfg, seed=args.seed)
    failure = None
    try:
        rep = run(lin, cfg)
    except SolverError as exc:
        if exc.report is None:
            raise
        failure, rep = str(exc), exc.report

    files = _write_bundle(args, ctx, rep.g, {
        **head(rep, cfg),
        "weight_choice": None if choice is None else choice.as_dict(),
        "assumptions": ctx.assumptions.as_dict(),
        "contraction": estimate.as_dict(),
        "result": rep.as_dict(),
        **tail(rep),
        "failure": failure,
    })
    _emit({"command": args.command, "converged": rep.converged, "iterations": rep.iterations,
           "m": rep.m_used, **line(estimate), "residual_weighted": rep.residual_weighted,
           **files})
    if failure is not None:
        _note(f"solver failure: {failure}")
        return 2
    return 0


def cmd_solve(args) -> int:
    cfg, ctx = _setup(args)
    v = _rhs_field(args, ctx)
    zstar = None if args.zstar is None else _sampled(args.zstar, ctx.grid, ctx.spec.n, "--zstar")
    return _solve_command(
        args, ctx, cfg, None, lambda lin, cfg: solve(ctx, v, cfg),
        head=lambda rep, cfg: {"solver": {
            "method": rep.method, "m": rep.m_used, "tol": cfg.tol, "max_iter": cfg.max_iter}},
        tail=lambda rep: {"error_vs_reference": _zstar_error(zstar, rep)})


def cmd_linsolve(args) -> int:
    cfg, ctx = _setup(args)
    if args.linearize_at is not None:
        at = read_grid_csv(args.linearize_at)
        ctx.check_field(at, "--linearize-at")
        linearized_at = args.linearize_at
    else:
        at, linearized_at = None, "zero"
    w = _field(args.rhs, ctx, "--rhs")
    return _solve_command(
        args, ctx, cfg, at, lambda lin, cfg: solve_linearized(lin, w, cfg),
        head=lambda rep, cfg: {"linearized_at": linearized_at, "solver": {
            "m": rep.m_used, "tol": cfg.tol, "max_iter": cfg.max_iter}},
        line=lambda estimate: {"rho_hat": estimate.rho_hat})


# -- verify --------------------------------------------------------------------

def _sample_fields(args, grid, n: int) -> list[GridField]:
    rng = _PCG64(args.seed)
    return [random_smooth_field(grid, n, rng) for _ in range(args.samples)]


def _sweep(suite: str, fields: list[GridField], m_list, check) -> tuple[bool, GridField | None]:
    """Emit ``check(m)``'s line at each weight; return whether all passed and
    the worst field.

    ``check(m)`` returns the line (after "suite") and one margin per field.
    Every weight is checked before the first line is emitted, so a weight
    that raises writes nothing.  The worst field is the first with the
    strictly smallest margin, weights taken in order.
    """
    ok, worst, worst_margin = True, None, math.inf
    for line, margins in [check(m) for m in m_list]:
        for f, margin in zip(fields, margins):
            if margin < worst_margin:
                worst_margin, worst = margin, f
        _emit({"suite": suite, **line})
        ok = ok and line["pass"]
    return ok, worst


def _verdict(args, suite: str, ok: bool, worst: GridField | dict | None,
             before: dict | None = None, after: dict | None = None) -> int:
    """0, or 3 after writing the replay artifact of a failed suite: the worst
    sampled field to PREFIX.fail.csv, or a report dict to PREFIX.fail.json
    (none when ``worst`` is None).  The failure line then carries the keys
    of ``before`` and ``after`` around its "fail_artifact"."""
    if ok:
        return 0
    artifact = None
    if isinstance(worst, GridField):
        artifact = f"{args.out}.fail.csv"
        write_field_csv(artifact, worst)
    elif worst is not None:
        artifact = f"{args.out}.fail.json"
        write_report_json(artifact, worst)
    _emit({"suite": suite, "pass": False, **(before or {}), "fail_artifact": artifact,
           **(after or {})})
    return 3


def _suite_norms(args) -> int:
    m_list = _parse_list(args.m_list or "0.5,1,2,5", "--m-list")
    fields = _sample_fields(args, build_grid(args.n), 1)

    def check(m):
        reps = [check_norm_equivalence(f, m) for f in fields]
        lower = [rep.weighted - rep.lower for rep in reps]
        upper = [rep.upper - rep.weighted for rep in reps]
        return {"check": "equivalence", "m": m, "samples": len(fields),
                "min_lower_margin": min(lower), "min_upper_margin": min(upper),
                "pass": all(rep.passed for rep in reps)}, list(map(min, lower, upper))

    ok, worst = _sweep("norms", fields, m_list, check)

    # closed form: z = xy has g ≡ 1 and ‖xy‖ at m = 1 equals 1 − e⁻¹
    value = WeightedNorms(build_grid(64), 1.0).norm(np.ones((65, 65, 1)))
    expected = 1.0 - math.exp(-1.0)
    spot = abs(value - expected) <= 1e-3 and math.exp(-2.0) <= value <= 1.0
    _emit({"suite": "norms", "check": "xy_closed_form", "m": 1.0, "value": value,
           "expected": expected, "lower": math.exp(-2.0), "upper": 1.0, "pass": spot})
    return _verdict(args, "norms", ok and spot, worst)


def _suite_lemma31(args) -> int:
    m_list = _parse_list(args.m_list or "1,5,10,20", "--m-list")
    fields = _sample_fields(args, build_grid(args.n), 1)

    def check(m):
        reps = [verify_lemma31(f, m) for f in fields]
        sides = zip(*(rep.margins for rep in reps))
        return {"m": m, "samples": len(fields),
                "min_margins": dict(zip(LEMMA31_SIDES, map(min, sides))),
                "pass": all(rep.passed for rep in reps)}, [min(rep.margins) for rep in reps]

    return _verdict(args, "lemma31", *_sweep("lemma31", fields, m_list, check))


def _suite_coercivity(args) -> int:
    spec, _ = _load_spec(args)
    m_list = (_parse_list(args.m_list, "--m-list") if args.m_list
              else [8.0 * spec.growth_bound + 1.0])
    ctx = make_context(spec, build_grid(args.n))
    fields = _sample_fields(args, ctx.grid, spec.n)

    def check(m):
        rep = coercivity_probe(ctx, fields, m)
        # a failed ray test makes its sample, the first, the worst
        margins = rep.margins if rep.ray_ok else (-math.inf, *rep.margins[1:])
        return {"m": m, "samples": len(fields), "factor": rep.factor, "offset": rep.offset,
                "min_margin": min(rep.margins), "ray_ok": rep.ray_ok,
                "pass": rep.passed}, margins

    return _verdict(args, "coercivity", *_sweep("coercivity", fields, m_list, check))


def _suite_assumptions(args) -> int:
    spec, _ = _load_spec(args)
    rep = probe_assumptions(spec, sample_count=args.samples, seed=args.seed)

    _emit({"suite": "assumptions", "check": "growth",
           "worst_f1": rep.growth_worst_f1, "worst_f2": rep.growth_worst_f2,
           "limit": 1.0, "pass": rep.growth_ok})
    _emit({"suite": "assumptions", "check": "coefficients",
           "declared_bound": rep.declared_bound,
           "sup_a1": rep.sup_a1, "sup_a2": rep.sup_a2,
           "sup_a1x": rep.sup_a1x, "sup_a2y": rep.sup_a2y,
           "pass": rep.coeff_ok})
    _emit({"suite": "assumptions", "check": "derivatives",
           "residual_a1x": rep.deriv_residual_a1x,
           "residual_a2y": rep.deriv_residual_a2y,
           "pass": rep.deriv_ok})
    if rep.kink_flagged:
        _note("note: the nonlinearity sampled as possibly non-smooth (kink flagged); "
              "kinks can degrade Newton's convergence and the manufactured-solution orders")

    failing = [name for name, ok in (("growth", rep.growth_ok), ("coefficients", rep.coeff_ok),
                                     ("derivatives", rep.deriv_ok)) if not ok]
    return _verdict(args, "assumptions", rep.passed, rep.as_dict(),
                    before={"failed_checks": failing})


def _suite_contraction(args) -> int:
    spec, solver_doc = _load_spec(args)
    ctx = _probed_context(spec, args.n, 200, args.seed)

    if args.m_list:
        m_values = _parse_list(args.m_list, "--m-list")
        cfg = _solver_config(args, solver_doc)
    else:
        cfg, choice = _weight(ctx, _solver_config(args, solver_doc), None)
        if choice is not None:
            _emit({"suite": "contraction", "check": "weight_choice", **choice.as_dict()})
        m_values = [cfg.m]

    lin = LinearizedOperator(ctx)
    all_ok = True
    estimates = []
    for m in m_values:
        # a listed weight wins over --m and the document's m
        est = estimate_contraction(lin, _config(replace, cfg, m=m), trials=args.samples, seed=args.seed)
        estimates.append(est.as_dict())
        _emit({"suite": "contraction", "m": est.m, "rho_hat": est.rho_hat,
               "bound": est.bound, "trials": est.trials, "pass": est.contracting})
        all_ok = all_ok and est.contracting

    return _verdict(args, "contraction", all_ok, {"estimates": estimates},
                    after={"hint": "contraction requires m > 2*sqrt(d); raise m"})


#: The verify suites: name -> (function, default --samples, the optional
#: flags it reads).  A suite that reads --problem needs a problem.
_SUITES = {
    "norms": (_suite_norms, 100, ("--m-list", "--n")),
    "lemma31": (_suite_lemma31, 200, ("--m-list", "--n")),
    "coercivity": (_suite_coercivity, 20, ("--m-list", "--n", "--problem", "--builtin")),
    "assumptions": (_suite_assumptions, 200, ("--problem", "--builtin")),
    "contraction": (_suite_contraction, 8, ("--m", "--m-list", "--n", "--problem", "--builtin")),
}


def cmd_verify(args) -> int:
    run, samples, reads = _SUITES[args.suite]
    for flag in ("--m", "--m-list", "--n", "--problem", "--builtin"):
        if getattr(args, flag[2:].replace("-", "_")) is not None and flag not in reads:
            suites = [name for name, (_, _, flags) in _SUITES.items() if flag in flags]
            raise ParameterError(f"{flag} applies to --suite {', '.join(suites)} only, "
                                 f"not to --suite {args.suite}")
    if args.n is None:
        args.n = 32
    if args.samples is None:
        args.samples = samples
    if "--problem" in reads and args.problem is None and args.builtin is None:
        raise ParameterError(f"--suite {args.suite} needs --problem or --builtin")
    return run(args)


# -- sens ----------------------------------------------------------------------

def cmd_sens(args) -> int:
    cfg, ctx = _setup(args)
    v = _rhs_field(args, ctx)
    direction = _field(args.direction, ctx, "--direction")
    eps = _parse_list(args.eps, "--eps")
    cfg, choice = _weight(ctx, cfg, None)
    rep = validate_frechet(ctx, v, direction, tuple(eps), cfg)
    if not rep.valid:
        _note(f"sens: {rep.failure}; no derivative was validated")
        return 2

    for e, err in rep.fd_errors:
        _emit({"command": "sens", "eps": e, "fd_error": err})
    files = _write_bundle(args, ctx, rep.h, {
        "m": cfg.m,
        "tol": cfg.tol,
        "weight_choice": None if choice is None else choice.as_dict(),
        "direction": args.direction,
        "validation": rep.as_dict(),
    })
    _emit({"command": "sens", "passed": rep.passed, **files})
    return 0 if rep.passed else 3


# -- mms -----------------------------------------------------------------------

def cmd_mms(args) -> int:
    spec, solver_doc = _load_spec(args)
    cfg = _solver_config(args, solver_doc)
    zstar = _xyfunction(args.zstar, spec.n, "--zstar")
    n_list = _parse_list(args.n_list or "16,32,64", "--n-list", int)
    if len(n_list) < 2:
        raise ParameterError("--n-list needs at least two resolutions to measure an order")
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ParameterError("--n-list must be strictly increasing")
    probe = _probe(spec, args.samples, args.seed)

    rows = []
    errors = []
    refine = 4
    for cells in n_list:
        grid = build_grid(cells)
        try:
            mspec = manufacture_problem(spec, zstar, grid, refine=refine)
        except EvalFaultError:
            # z* is sampled first, on the refined grid: name the flag if the
            # fault is its own, not f1's or f2's at z*
            _sampled(args.zstar, build_grid(refine * cells), spec.n, "--zstar")
            raise
        ctx = make_context(mspec, grid).with_assumptions(probe)
        try:
            rep = solve(ctx, mspec.sample_rhs(grid), cfg)
        except SolverError as exc:
            _note(f"mms: solve at N={cells} failed: {exc}")
            return 2
        err = WeightedNorms(grid, 0.0).norm(rep.g.values - zstar.sample(grid).values)
        errors.append(err)
        rows.append({"cells": cells, "h": grid.h, "error": err,
                     "iterations": rep.iterations, "m": rep.m_used})
        _emit({"command": "mms", **rows[-1]})

    exact = max(errors) <= 1e-12
    # observed order p from e ~ C h^p between consecutive ladder rungs; an
    # exact ladder has none and passes
    orders = [] if exact else [math.log(errors[k] / max(errors[k + 1], 1e-300))
                               / math.log(n_list[k + 1] / n_list[k])
                               for k in range(len(errors) - 1)]
    ok = all(1.8 <= order <= 2.2 for order in orders)
    write_report_json(f"{args.out}.report.json", {
        "command": "mms", "label": spec.label, "seed": args.seed, "zstar": args.zstar,
        "resolutions": rows, "exact": exact, "orders": orders, "pass": ok})
    _emit({"command": "mms", "exact": exact,
           **({"max_error": max(errors)} if exact else {"orders": orders}), "pass": ok})
    return 0 if ok else 3


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="goursat2d",
                     description="Solvers and verification probes for 2D Volterra "
                                 "integro-differential systems on the unit square.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="nonlinear solve of F(z) = v")
    _add_problem_args(p)
    p.add_argument("--n", type=int, required=True, metavar="CELLS")
    p.add_argument("--rhs", default=None, metavar="EXPR|PATH",
                   help="right-hand side override (';' separates components)")
    p.add_argument("--zstar", default=None, metavar="EXPR",
                   help="reference mixed derivative g* = d²z*/dxdy for an error report")
    _add_solver_args(p)
    _add_probe_args(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("linsolve", help="one linearized solve with contraction trace")
    _add_problem_args(p)
    p.add_argument("--n", type=int, required=True, metavar="CELLS")
    p.add_argument("--rhs", required=True, metavar="EXPR|PATH")
    p.add_argument("--linearize-at", default=None, metavar="PATH",
                   help="grid CSV with the state to linearize at (default: zero)")
    _add_solver_args(p, ("m", "tol", "max_iter"))
    _add_probe_args(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_linsolve)

    p = sub.add_parser("verify", help="inequality suites with machine-readable margins")
    p.add_argument("--suite", required=True, choices=sorted(_SUITES))
    _add_problem_args(p, required=False)
    p.add_argument("--n", type=int, default=None, metavar="CELLS",
                   help="grid cells per side (default 32)")
    p.add_argument("--m-list", default=None, metavar="M1,M2,...",
                   help="weights to test (defaults depend on the suite)")
    _add_solver_args(p, ("m",))
    _add_probe_args(p, samples_default=None)
    _add_out_arg(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sens", help="finite-difference validation of the directional derivative")
    _add_problem_args(p)
    p.add_argument("--n", type=int, required=True, metavar="CELLS")
    p.add_argument("--rhs", default=None, metavar="EXPR|PATH")
    p.add_argument("--direction", required=True, metavar="EXPR|PATH",
                   help="perturbation direction δv")
    p.add_argument("--eps", default="1e-1,1e-2,1e-3", metavar="E1,E2,...",
                   help="strictly decreasing step sizes")
    _add_solver_args(p)
    _add_probe_args(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_sens)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    _add_problem_args(p)
    p.add_argument("--zstar", required=True, metavar="EXPR",
                   help="manufactured mixed derivative g* (';' separates components)")
    p.add_argument("--n-list", default="16,32,64", metavar="N1,N2,...")
    _add_solver_args(p)
    _add_probe_args(p)
    _add_out_arg(p)
    p.set_defaults(func=cmd_mms)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    shown: set[str] = set()

    def show_warning(message, category, filename, lineno, file=None, line=None):
        # every solve, step and source line may raise the same warning
        if str(message) not in shown:
            shown.add(str(message))
            _note(f"warning: {message}")

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show_warning
        try:
            return args.func(args)
        except SolverError as exc:
            _note(f"solver failure: {exc}")
            return 2
        except (Goursat2dError, OSError) as exc:
            _note(f"error: {exc}")
            return 1


if __name__ == "__main__":
    sys.exit(main())
