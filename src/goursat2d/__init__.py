"""Solvers for 2D nonlinear Volterra integro-differential systems.

The library discretizes systems of the form

    z_xy(x, y) + f¹(x, y, z) + ∫₀ˣ∫₀ʸ [f²(s, t, z) + A¹(s, t) z_x + A²(s, t) z_y] ds dt = v(x, y)

on the unit square with z = 0 on the edges x = 0 and y = 0, working in the
mixed derivative g = z_xy as the fundamental unknown.  Exponentially weighted
norms make the causal integral part a contraction, which powers fixed-point
and Newton–Kantorovich solvers plus stability and sensitivity analysis of the
solution map v ↦ z_v.
"""

from .errors import (
    DivergenceError,
    EvalFaultError,
    EvalOverflowError,
    ExprSyntaxError,
    Goursat2dError,
    NoConvergenceError,
    ParameterError,
    SchemaError,
    SolverError,
    StagnationError,
)
from .exprlang import parse
from .fileio import (
    read_field_csv,
    read_grid_csv,
    read_report_json,
    write_field_csv,
    write_grid_csv,
    write_report_json,
)
from .grid import Grid, GridField, build_grid, reconstruct_state
from .norms import (
    Lemma31Report,
    NormEquivalenceReport,
    WeightedNorms,
    check_norm_equivalence,
    verify_lemma31,
)
from .operator import (
    CoercivityReport,
    OperatorContext,
    apply_F,
    coercivity_probe,
    make_context,
)
from .problem import (
    AssumptionReport,
    BUILTIN_PROBLEMS,
    DEFAULT_SEED,
    ProblemSpec,
    XYFunction,
    builtin_example_4_6,
    load_problem,
    manufacture_problem,
    probe_assumptions,
    zero_problem,
)
from .sensitivity import (
    SensitivityReport,
    frechet_apply,
    stability_probe,
    validate_frechet,
)
from .solvers import (
    ContractionEstimate,
    SolveReport,
    SolverConfig,
    WeightChoice,
    choose_weight,
    estimate_contraction,
    solve,
    solve_linearized,
)

__version__ = "1.0.0"

__all__ = [
    "AssumptionReport",
    "BUILTIN_PROBLEMS",
    "CoercivityReport",
    "ContractionEstimate",
    "DEFAULT_SEED",
    "DivergenceError",
    "EvalFaultError",
    "EvalOverflowError",
    "ExprSyntaxError",
    "Goursat2dError",
    "Grid",
    "GridField",
    "Lemma31Report",
    "NoConvergenceError",
    "NormEquivalenceReport",
    "OperatorContext",
    "ParameterError",
    "ProblemSpec",
    "SchemaError",
    "SensitivityReport",
    "SolveReport",
    "SolverConfig",
    "SolverError",
    "StagnationError",
    "WeightChoice",
    "WeightedNorms",
    "XYFunction",
    "apply_F",
    "build_grid",
    "builtin_example_4_6",
    "check_norm_equivalence",
    "choose_weight",
    "coercivity_probe",
    "estimate_contraction",
    "frechet_apply",
    "load_problem",
    "make_context",
    "manufacture_problem",
    "parse",
    "probe_assumptions",
    "read_field_csv",
    "read_grid_csv",
    "read_report_json",
    "reconstruct_state",
    "solve",
    "solve_linearized",
    "stability_probe",
    "validate_frechet",
    "verify_lemma31",
    "write_field_csv",
    "write_grid_csv",
    "write_report_json",
    "zero_problem",
]
