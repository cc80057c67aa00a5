"""Problem definitions: coefficient functions, growth data, and probes.

A problem couples the mixed derivative of an unknown R^n-valued state z with
a pointwise nonlinearity, an integrated nonlinearity, and two first-order
memory terms:

    z_xy + f1(x, y, z) + ∫₀ˣ∫₀ʸ [ f2(s, t, z) + A1(s, t) z_x + A2(s, t) z_y ] ds dt = v,

with z = 0 on the edges x = 0 and y = 0.  The data contract mirrors the
classical solvability conditions:

  * growth: |f1|, |f2| ≤ B|z| + b(x, y) with a constant B and a declared
    majorant function b ≥ 0; the matrices A1, A2 and the spatial derivatives
    A1x = ∂A1/∂x, A2y = ∂A2/∂y are bounded by the same B;
  * local boundedness of the z-Jacobians of f1, f2 on balls |z| ≤ ρ, with
    observed suprema M_ρ.

None of this is taken on faith: ``probe_assumptions`` scans the inequalities
on a low-discrepancy sample and reports worst cases, including a finite
difference cross-check of the user-supplied A1x, A2y.

``manufacture_problem`` generates right-hand sides with a known exact
solution: v := F(z*) is evaluated on a refined grid and subsampled at the
working grid's nodes, so the oracle's quadrature error sits an order below the
solver's.  The refined grid is streamed through the operator's strip step,
one row strip of g* at a time, and never held whole.  Every expression is
sampled by ``exprlang``'s node samplers, the probe's Jacobians included.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import EvalFaultError, ParameterError, SchemaError
from .exprlang import (Expr, _components, _jacobian, _matrix_program, _matrix_values, _Program,
                       eval_on_grid, free_z_indices, parse)
from .fileio import read_field_csv
from .grid import Grid, GridField, build_grid, row_strips
from .operator import _norms, _step, apply_F, make_context
from .sampling import halton_points
from .solvers import SolverConfig

#: Default seed for every randomized probe; recorded in reports.
DEFAULT_SEED = 1729

#: State-ball radii of the local-boundedness probes, increasing.
DEFAULT_RADII = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class XYFunction:
    """An R^n-valued function of the spatial variables only, samplable on any grid."""

    exprs: tuple[Expr, ...]

    def __post_init__(self):
        for k, e in enumerate(self.exprs):
            if free_z_indices(e):
                raise ParameterError(
                    f"component {k} references z-variables; expected a function of x, y only"
                )

    @property
    def n(self) -> int:
        return len(self.exprs)

    @classmethod
    def from_sources(cls, sources: list[str] | tuple[str, ...] | str) -> "XYFunction":
        if isinstance(sources, str):
            sources = [sources]
        return cls(tuple(parse(s, 1) for s in sources))

    def sample(self, grid: Grid) -> GridField:
        return GridField(grid, _components(_Program(self.exprs, 1, False), *grid.meshgrid()))


ExprMatrix = tuple[tuple[Expr, ...], ...]


def _check_matrix(name: str, mat: ExprMatrix, n: int) -> None:
    if len(mat) != n or any(len(row) != n for row in mat):
        raise ParameterError(f"{name} must be an {n}x{n} expression matrix")
    for i, row in enumerate(mat):
        for j, e in enumerate(row):
            if free_z_indices(e):
                raise ParameterError(f"{name}[{i}][{j}] may not reference z-variables")


@dataclass(frozen=True)
class ProblemSpec:
    """A fully parsed problem: nonlinearities, memory coefficients, growth data.

    f1, f2 are component expressions of (x, y, z1..zn); a1, a2 and their
    user-supplied spatial derivatives a1x, a2y are n×n matrices of (x, y)
    expressions.  growth_bound is the constant B of the growth condition and
    ``majorant`` the function b in |f^i| ≤ B|z| + b(x, y).  ``rhs`` is either
    a samplable function, a concrete grid field, or None for a problem
    awaiting a manufactured right-hand side.
    """

    n: int
    f1: tuple[Expr, ...]
    f2: tuple[Expr, ...]
    a1: ExprMatrix
    a2: ExprMatrix
    a1x: ExprMatrix
    a2y: ExprMatrix
    growth_bound: float
    majorant: Expr
    rhs: XYFunction | GridField | None = None
    label: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"state dimension must be >= 1, got {self.n}")
        if len(self.f1) != self.n or len(self.f2) != self.n:
            raise ParameterError(f"f1 and f2 need exactly {self.n} component expressions")
        for name, mat in (("A1", self.a1), ("A2", self.a2), ("A1x", self.a1x), ("A2y", self.a2y)):
            _check_matrix(name, mat, self.n)
        if not (self.growth_bound >= 0.0) or not math.isfinite(self.growth_bound):
            raise ParameterError(f"growth bound B must be finite and >= 0, got {self.growth_bound}")
        if free_z_indices(self.majorant):
            raise ParameterError("the majorant b must be a function of x, y only")
        if self.rhs is not None and self.rhs.n != self.n:
            raise ParameterError(f"rhs has {self.rhs.n} components, problem has {self.n}")

    def sample_rhs(self, grid: Grid) -> GridField:
        """The right-hand side as a field on ``grid``."""
        if self.rhs is None:
            raise ParameterError("problem has no right-hand side (manufacture one or set rhs)")
        if isinstance(self.rhs, XYFunction):
            return self.rhs.sample(grid)
        if self.rhs.grid != grid:
            raise ParameterError(
                f"rhs field lives on {self.rhs.grid}, requested {grid}; "
                "re-run with a matching resolution"
            )
        return self.rhs


# -- document loading ---------------------------------------------------------

_TOP_KEYS = {"meta", "functions", "coefficients", "rhs", "solver", "label"}
_META_KEYS = {"n", "B", "b"}
_FUN_KEYS = {"f1", "f2"}
_COEF_KEYS = {"A1", "A2", "A1x", "A2y"}
_RHS_KEYS = {"v", "v_file"}


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError("missing required field", path=f"{path}.{key}" if path else key)
    return doc[key]


def _check_keys(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        name = sorted(unknown)[0]
        raise SchemaError(
            f"unknown field {name!r}", path=f"{path}.{name}" if path else name
        )


def _section(doc: dict, key: str, allowed: set[str], required: bool = True) -> dict | None:
    """The object ``doc[key]`` with no key outside ``allowed``; None when an
    optional section is absent."""
    if key not in doc and not required:
        return None
    section = _require(doc, key, "")
    if not isinstance(section, dict):
        raise SchemaError("must be an object", path=key)
    _check_keys(section, allowed, key)
    return section


def _parse_expr(source, n: int, path: str, xy_only: bool = False) -> Expr:
    if not isinstance(source, str):
        raise SchemaError(f"expected an expression string, got {type(source).__name__}", path=path)
    try:
        expr = parse(source, n)
    except Exception as exc:
        raise SchemaError(f"bad expression: {exc}", path=path) from exc
    if xy_only and free_z_indices(expr):
        raise SchemaError("may not reference z", path=path)
    return expr


def _parse_components(sources, n: int, path: str, xy_only: bool = False) -> tuple[Expr, ...]:
    if isinstance(sources, str):
        sources = [sources]
    if not isinstance(sources, list) or len(sources) != n:
        raise SchemaError(f"expected {n} component expression(s)", path=path)
    return tuple(_parse_expr(s, n, f"{path}[{i}]", xy_only) for i, s in enumerate(sources))


def _parse_matrix(rows, n: int, path: str) -> ExprMatrix:
    if isinstance(rows, str) and n == 1:
        rows = [[rows]]
    if not isinstance(rows, list) or len(rows) != n:
        raise SchemaError(f"expected an {n}x{n} matrix of expressions", path=path)
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"expected {n} entries in row {i}", path=f"{path}[{i}]")
        out.append(tuple(_parse_expr(s, n, f"{path}[{i}][{j}]", xy_only=True)
                         for j, s in enumerate(row)))
    return tuple(out)


def load_problem(document: dict, base_dir: str | Path | None = None) -> ProblemSpec:
    """Parse and validate a problem document, the object parsed from its JSON.

    Every error is a SchemaError carrying the dotted path of the offending
    field.  Expressions are smoke-evaluated on a small sample of the domain so
    evaluation faults surface at load time, not mid-solve.
    """
    if not isinstance(document, dict):
        raise SchemaError(f"document must be a JSON object, got {type(document).__name__}")
    _check_keys(document, _TOP_KEYS, "")

    meta = _section(document, "meta", _META_KEYS)
    n = _require(meta, "n", "meta")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError(f"n must be a positive integer, got {n!r}", path="meta.n")
    B = _require(meta, "B", "meta")
    if not isinstance(B, (int, float)) or isinstance(B, bool) or not 0 <= B <= sys.float_info.max:
        raise SchemaError(f"B must be a finite number >= 0, got {B!r}", path="meta.B")
    b_expr = _parse_expr(_require(meta, "b", "meta"), n, "meta.b", xy_only=True)

    functions = _section(document, "functions", _FUN_KEYS)
    f1 = _parse_components(_require(functions, "f1", "functions"), n, "functions.f1")
    f2 = _parse_components(_require(functions, "f2", "functions"), n, "functions.f2")

    coefficients = _section(document, "coefficients", _COEF_KEYS)
    mats = {
        name: _parse_matrix(_require(coefficients, name, "coefficients"), n, f"coefficients.{name}")
        for name in ("A1", "A2", "A1x", "A2y")
    }

    rhs_doc = _section(document, "rhs", _RHS_KEYS, required=False)
    rhs: XYFunction | GridField | None = None
    if rhs_doc is not None:
        if len(rhs_doc) != 1:
            raise SchemaError("give either v or v_file, not both" if rhs_doc
                              else "needs v or v_file", path="rhs")
        if "v" in rhs_doc:
            rhs = XYFunction(_parse_components(rhs_doc["v"], n, "rhs.v", xy_only=True))
        else:
            v_file = rhs_doc["v_file"]
            if not isinstance(v_file, str):
                raise SchemaError(f"expected a file path string, got {type(v_file).__name__}",
                                  path="rhs.v_file")
            path = Path(v_file)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            try:
                rhs = read_field_csv(path)
            except OSError as exc:
                raise SchemaError(f"cannot read rhs file: {exc}", path="rhs.v_file") from exc
            if rhs.n != n:
                raise SchemaError(
                    f"rhs file has {rhs.n} components, problem has {n}", path="rhs.v_file"
                )

    solver = _section(document, "solver", {f.name for f in fields(SolverConfig)}, required=False)
    for key, value in (solver or {}).items():
        try:
            SolverConfig.from_settings({key: value})
        except ValueError as exc:
            raise SchemaError(str(exc), path=f"solver.{key}") from exc

    label = document.get("label", "")
    if not isinstance(label, str):
        raise SchemaError("label must be a string", path="label")

    spec = ProblemSpec(
        n=n, f1=f1, f2=f2,
        a1=mats["A1"], a2=mats["A2"], a1x=mats["A1x"], a2y=mats["A2y"],
        growth_bound=float(B), majorant=b_expr, rhs=rhs, label=label,
    )
    _smoke_check(spec)
    return spec


def _smoke_check(spec: ProblemSpec) -> None:
    """Evaluate every descriptor on a coarse domain/state sample.

    Surfaces evaluation faults (and a negative majorant) at load time with
    the document path of the offending expression.
    """
    pts = np.array([0.0, 0.5, 1.0])
    X, Y = np.meshgrid(pts, pts, indexing="ij")
    states = [np.zeros(X.shape + (spec.n,))]
    for s in (0.7, -0.7):
        states.append(np.full(X.shape + (spec.n,), s / math.sqrt(spec.n)))

    def check(e: Expr, path: str, dual: bool, nonneg: bool = False):
        program = _Program((e,), spec.n, dual)  # one compile for every state
        try:
            for Z in states:
                (vals,), _ = program.run(X, Y, Z, [np.empty(Z.shape)] if dual else ())
                if nonneg and np.any(vals < 0.0):
                    raise SchemaError("the majorant b must be nonnegative on Q", path=path)
        except EvalFaultError as exc:
            raise SchemaError(f"fails to evaluate: {exc}", path=path) from exc

    for i in range(spec.n):
        check(spec.f1[i], f"functions.f1[{i}]", dual=True)
        check(spec.f2[i], f"functions.f2[{i}]", dual=True)
    for name, mat in (("A1", spec.a1), ("A2", spec.a2), ("A1x", spec.a1x), ("A2y", spec.a2y)):
        for i in range(spec.n):
            for j in range(spec.n):
                check(mat[i][j], f"coefficients.{name}[{i}][{j}]", dual=False)
    check(spec.majorant, "meta.b", dual=False, nonneg=True)
    if isinstance(spec.rhs, XYFunction):
        for i, e in enumerate(spec.rhs.exprs):
            check(e, f"rhs.v[{i}]", dual=False)


# -- built-in problems --------------------------------------------------------

def zero_problem() -> ProblemSpec:
    """The problem with no nonlinearity and no memory: F(z) = z_xy."""
    zero = parse("0", 1)
    row = ((zero,),)
    return ProblemSpec(
        n=1, f1=(zero,), f2=(zero,),
        a1=row, a2=row, a1x=row, a2y=row,
        growth_bound=0.0, majorant=zero, label="zero",
    )


#: max over t of (1 + t) / (1 + t²), attained at t = √2 − 1.
_RATIONAL_KERNEL_SUP = (1.0 + math.sqrt(2.0)) / 2.0


def builtin_example_4_6() -> ProblemSpec:
    """The built-in nonlinear scalar problem

        f1 = z³/(1+z²) + cos(z²),
        f2 = (z−1)/(1+z²) + sin(z²),      A1 = A2 = A1x = A2y = 0.

    The growth data is derived, not guessed: |z³/(1+z²)| ≤ |z| and |cos| ≤ 1
    give |f1| ≤ |z| + 1; |(z−1)/(1+z²)| is maximized at |z| = √2 − 1 with
    value (1+√2)/2 and |sin| ≤ 1, so f2 contributes only to the majorant.
    Hence B = 1, and the constant b = 1 + (1+√2)/2 + 1, the sum of the two
    majorants, bounds both.
    """
    zero = ((parse("0", 1),),)
    # "(1) *" is part of the published source form: dropping it changes the
    # evaluated node counts
    return ProblemSpec(
        n=1,
        f1=(parse("(1) * (z1^3/(1 + z1^2) + cos(z1^2))", 1),),
        f2=(parse("(1) * (z1 - 1)/(1 + z1^2) + sin(z1^2)", 1),),
        a1=zero, a2=zero, a1x=zero, a2y=zero,
        growth_bound=1.0,
        majorant=parse(repr(1.0 + _RATIONAL_KERNEL_SUP + 1.0), 1),
        label="example46",
    )


BUILTIN_PROBLEMS = {
    "zero": zero_problem,
    "example46": builtin_example_4_6,
}


# -- assumption probing -------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    """Sampled worst cases for the growth and boundedness conditions.

    growth_worst_* are max over samples of |f^i| / (B|z| + b) (1.0 is the
    certified edge); sup_* are the largest sampled spectral norms of the
    matrix coefficients against the declared B; m_rho maps each probed
    radius to the observed sup of the f1/f2 z-Jacobian norms on |z| ≤ ρ;
    deriv_residual_* are worst relative mismatches between the declared
    spatial derivatives and centered finite differences.  A ratio, sup or
    residual that overflows reads as the largest float, and its check fails.
    """

    samples: int
    seed: int
    declared_bound: float
    growth_worst_f1: float
    growth_worst_f2: float
    sup_a1: float
    sup_a2: float
    sup_a1x: float
    sup_a2y: float
    m_rho: tuple[tuple[float, float], ...]
    deriv_residual_a1x: float
    deriv_residual_a2y: float
    growth_ok: bool
    coeff_ok: bool
    deriv_ok: bool
    kink_flagged: bool

    @property
    def passed(self) -> bool:
        return self.growth_ok and self.coeff_ok and self.deriv_ok

    def as_dict(self) -> dict:
        """Every field, then ``passed``."""
        return {**asdict(self), "passed": self.passed}


def _spectral_sup(vals: np.ndarray) -> float:
    """Largest spectral norm over a non-empty batch of matrices (shape (..., n, n))."""
    flat = vals.reshape(-1, vals.shape[-2], vals.shape[-1])
    return float(np.linalg.svd(flat, compute_uv=False)[:, 0].max())


_GROWTH_TOL = 1e-9
_DERIV_TOL = 1e-4
_FD_STEP = 1e-5


def probe_assumptions(
    spec: ProblemSpec,
    sample_count: int = 200,
    seed: int = DEFAULT_SEED,
) -> AssumptionReport:
    """Scan the growth/boundedness conditions on a deterministic sample.

    (x, y) and a state direction come from a scrambled Halton sequence; the
    state is scaled to each probe radius and augmented with deterministic
    extreme points (zero state, axis states, diagonal state).  Evaluation
    faults propagate with the sample coordinates attached.
    """
    if sample_count < 1:
        raise ParameterError(f"sample_count must be >= 1, got {sample_count}")
    n = spec.n

    pts = halton_points(sample_count, 2 + n, seed)
    xs, ys = pts[:, 0], pts[:, 1]
    dirs = 2.0 * pts[:, 2:] - 1.0  # in [-1, 1]^n, so |dir| <= sqrt(n)

    # deterministic extremes appended at fixed spatial corners + center
    corner_xy = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    extreme_dirs = [np.zeros(n)]
    for kk in range(n):
        e = np.zeros(n)
        e[kk] = 1.0
        extreme_dirs += [e * math.sqrt(n), -e * math.sqrt(n)]
    extreme_dirs.append(np.ones(n))
    ex_xy = np.repeat(corner_xy, len(extreme_dirs), axis=0)
    ex_dirs = np.tile(np.array(extreme_dirs), (len(corner_xy), 1))
    X = np.concatenate([xs, ex_xy[:, 0]])
    Y = np.concatenate([ys, ex_xy[:, 1]])
    D = np.concatenate([dirs, ex_dirs]) / math.sqrt(n)  # now |D| <= 1 rowwise
    total = X.shape[0]

    b_vals = eval_on_grid(spec.majorant, X, Y, np.zeros((total, n)))
    B = spec.growth_bound

    # each vector is compiled once for every radius and sample set
    duals = [_Program(comps, n, True) for comps in (spec.f1, spec.f2)]
    mats = {name: _matrix_program(mat, n) for name, mat in (
        ("a1", spec.a1), ("a2", spec.a2), ("a1x", spec.a1x), ("a2y", spec.a2y))}
    growth_worst = [0.0, 0.0]
    m_rho: list[tuple[float, float]] = []
    kink_any = False
    for rho in DEFAULT_RADII:
        Z = rho * D
        znorm = np.linalg.norm(Z, axis=1)
        jac_sup = 0.0
        for which, program in enumerate(duals):
            vals, jac, kinked = _jacobian(program, X, Y, Z)
            kink_any = kink_any or kinked
            # B near the float maximum overflows the bound to inf, which allows
            # anything; a nonzero f where the bound is 0, and a ratio that
            # overflows, read as the largest finite ratio (report JSON holds no inf)
            fmag = _norms(vals)  # finite f above ~1e154 overflows the squares
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                allowed = B * znorm + b_vals
                ratios = np.where(fmag == 0.0, 0.0,
                                  np.where(allowed == 0.0, sys.float_info.max,
                                           np.minimum(fmag / allowed, sys.float_info.max)))
            growth_worst[which] = max(growth_worst[which], float(ratios.max()))
            jac_sup = max(jac_sup, _spectral_sup(jac))
        m_rho.append((rho, min(jac_sup, sys.float_info.max)))

    a_sups = {name: _spectral_sup(_matrix_values(mat, X, Y)) for name, mat in mats.items()}

    # finite-difference consistency of the declared spatial derivatives:
    # A1x along x, A2y along y, central differences inside the square
    delta = _FD_STEP
    deriv_res = []
    for a, a_deriv, axis in ((mats["a1"], mats["a1x"], 0), (mats["a2"], mats["a2y"], 1)):
        c = np.clip((X, Y)[axis], delta, 1.0 - delta)
        plus, minus, mid = ((t, Y) if axis == 0 else (X, t) for t in (c + delta, c - delta, c))
        fd = (_matrix_values(a, *plus) - _matrix_values(a, *minus)) / (2.0 * delta)
        here = _matrix_values(a_deriv, *mid)
        res = np.linalg.norm((fd - here).reshape(total, -1), axis=1)
        scale = 1.0 + np.linalg.norm(here.reshape(total, -1), axis=1)
        with np.errstate(invalid="ignore"):  # inf/inf, a NaN, where both overflow
            deriv_res.append(float(np.fmin(res / scale, sys.float_info.max).max()))
    deriv_res_a1x, deriv_res_a2y = deriv_res

    growth_ok = max(growth_worst) <= 1.0 + _GROWTH_TOL
    coeff_ok = all(v <= B + _GROWTH_TOL for v in a_sups.values())
    deriv_ok = max(deriv_res) <= _DERIV_TOL
    # an overflowed sup reads as the largest float once its check has failed
    # on it (B may be the largest float too)
    a_sups = {name: min(v, sys.float_info.max) for name, v in a_sups.items()}

    return AssumptionReport(
        samples=total,
        seed=seed,
        declared_bound=B,
        growth_worst_f1=growth_worst[0],
        growth_worst_f2=growth_worst[1],
        sup_a1=a_sups["a1"],
        sup_a2=a_sups["a2"],
        sup_a1x=a_sups["a1x"],
        sup_a2y=a_sups["a2y"],
        m_rho=tuple(m_rho),
        deriv_residual_a1x=deriv_res_a1x,
        deriv_residual_a2y=deriv_res_a2y,
        growth_ok=growth_ok,
        coeff_ok=coeff_ok,
        deriv_ok=deriv_ok,
        kink_flagged=kink_any,
    )


# -- manufactured right-hand sides --------------------------------------------

def manufacture_problem(
    base: ProblemSpec,
    zstar_g: XYFunction,
    grid: Grid,
    refine: int = 4,
) -> ProblemSpec:
    """Set v := F(z*) so that z* is the exact solution on ``grid``.

    z* comes as its mixed derivative g* = z*_xy, an XYFunction of component
    expressions.  The operator is evaluated on a grid ``refine`` times finer,
    whose every ``refine``-th node is a node of ``grid``, and its values
    there are kept, which puts the oracle's quadrature error an order below
    the solver's.

    Each fine row strip samples g* on its rows only, evaluates F there from
    the carry of the strip before and keeps its nodes of ``grid``: no
    fine-grid array is allocated.  A fault is that of the first strip that
    faults, z*'s before F's and f1's before f2's, each at its first node in
    row-major order; on one strip it is the whole fine grid's.  One strip
    takes ``apply_F`` on the whole fine grid, which gives the same bits as
    the loop, only so that the perfbench trace of ``apply_F`` counts it.
    """
    if refine < 1:
        raise ParameterError(f"refine must be >= 1, got {refine}")
    if zstar_g.n != base.n:
        raise ParameterError(f"z* has {zstar_g.n} components, problem has {base.n}")
    ctx = make_context(base, build_grid(grid.cells * refine))
    X, Y = ctx.X, ctx.Y
    strips = row_strips(ctx.grid.npoints, base.n)
    program = _Program(zstar_g.exprs, 1, False)  # z*, compiled once for every strip
    if len(strips) == 1:
        v = apply_F(ctx, _components(program, X, Y))[::refine, ::refine]
        return replace(base, rhs=GridField(grid, v))
    v = carry = None
    for rows in strips:
        part, carry = _step(ctx, _components(program, X[rows], Y[rows]), rows, carry,
                            ctx._f_terms)
        if v is None:  # after the first strip's arrays, as in the operator
            v = np.empty((grid.npoints, grid.npoints, base.n))
        skip = -rows.start % refine  # the strip's rows before its first node of ``grid``
        kept = part[skip::refine, ::refine]
        first = (rows.start + skip) // refine
        v[first:first + len(kept)] = kept
    return replace(base, rhs=GridField(grid, v))
