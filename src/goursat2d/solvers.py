"""Fixed-point and Newton–Kantorovich solvers in the weighted norm.

Every solver takes and returns mixed derivatives g = z_xy only; a state z
enters through the g it is rebuilt from.  The linear entries
(``solve_linearized``, ``estimate_contraction`` and ``choose_weight`` at a
point) take F'(z0) as a built ``LinearizedOperator``, which owns the
Jacobians at z0 and sup|z0|.  The linearized equation F'(z0)h = v becomes,
in terms of the mixed derivative g of h, a fixed-point problem for the
affine map

    g  ↦  v − (H − I) g,        (H − I) g = F'(z0) g − g,

whose fixed point satisfies H g = v.  H − I is a causal Volterra sum, and in
the weighted norm its Lipschitz constant is at most 4d/m² with d bounding the
kernels (the z-Jacobian sup M_ρ and the coefficient bound B), so plain
Richardson iteration g ← g − (F'(z0)g − v) contracts once m > 2√d.  The same
machinery drives ``solve``, the one nonlinear solve, which
``SolverConfig.method`` switches between two methods:

  * ``"picard"``: fixed-point iteration g ← g − (F(g) − v) on the
    nonlinear equation, for problems whose nonlinear part is itself
    contractive;
  * ``"newton"``: each step solves F'(z_k)δ = v − F(z_k) by the linear
    iteration, then backtracks on the merit φ = ½‖F(z) − v‖² until it
    decreases.

The linear solve and both methods run in one loop, ``_iterate``, which owns
the trace, the stopping rules and the partial report that every solver error
carries.

``choose_weight`` turns the two thresholds (m > 8B for coercivity, m > 2√d
for contraction) into a concrete policy: m = max(8B, 2√d) + 1, with
d = max(M_ρ, B) read from an assumption probe at the radius covering the
expected iterate size sup|z0|.  Iterations start from g₀ = v, which is exact
for the zero problem and aligned with the dominant identity part of the
operator.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DivergenceError,
    EvalFaultError,
    EvalOverflowError,
    NoConvergenceError,
    ParameterError,
    SolverError,
    StagnationError,
)
from .grid import GridField
from .norms import WeightedNorms
from .operator import LinearizedOperator, OperatorContext, apply_F
from .sampling import _PCG64, random_smooth_field

#: Consecutive non-contracting ratios before a divergence error.
_DIVERGENCE_PATIENCE = 5

#: Maximum step halvings in the Newton line search.
_MAX_BACKTRACKS = 20

#: Tolerance and iteration cap of the linear solves in Newton and frechet_apply.
INNER_TOL = 1e-12
INNER_MAX_ITER = 400


@dataclass(frozen=True)
class SolverConfig:
    """The settings a solve accepts, with their types and valid values.

    m = None means "choose the weight automatically".
    """

    m: float | None = None
    tol: float = 1e-10
    max_iter: int = 200
    method: str = "newton"

    def __post_init__(self):
        if self.m is not None:
            _check_positive_real("weight m", self.m)
        _check_positive_real("tol", self.tol)
        if not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool):
            raise ParameterError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.method not in ("picard", "newton"):
            raise ParameterError(f"method must be 'picard' or 'newton', got {self.method!r}")

    @classmethod
    def from_settings(cls, settings: dict) -> SolverConfig:
        """The config of a document's solver section or of command-line flags:
        field names as keys, and ``"m": "auto"`` (in any case) for the
        automatic weight."""
        m = settings.get("m")
        if isinstance(m, str):
            if m.strip().lower() != "auto":
                raise ParameterError(f"weight m must be 'auto' or a real number, got {m!r}")
            settings = {**settings, "m": None}
        return cls(**settings)


def _check_positive_real(name: str, value) -> None:
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real number, got {value!r}")
    if not value > 0:
        raise ParameterError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration: weighted residual and the ratio to the previous one."""

    iteration: int
    residual: float
    ratio: float | None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve: the g-field, its residual norms, and the trace."""

    g: GridField
    residual_classical: float
    residual_weighted: float
    iterations: int
    trace: tuple[IterationRecord, ...]
    m_used: float
    converged: bool
    method: str

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "m_used": self.m_used,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual_classical": self.residual_classical,
            "residual_weighted": self.residual_weighted,
            "trace": [t.as_dict() for t in self.trace],
        }


@dataclass(frozen=True)
class WeightChoice:
    """The chosen weight and the numbers that produced it."""

    m: float
    growth_bound: float    # B
    kernel_bound: float    # d = max(M_ρ, B)
    radius: float          # ρ whose M_ρ entered d
    m_rho: float
    coercivity_threshold: float  # 8B
    contraction_threshold: float  # 2√d

    def as_dict(self) -> dict:
        return asdict(self)


def choose_weight(ctx: OperatorContext, at: LinearizedOperator | None = None) -> WeightChoice:
    """Pick m = max(8B, 2√d) + 1 with d = max(M_ρ, B) from the probe report.

    The radius is the smallest probed ρ covering 1 + sup|z| for the state z
    of the operator ``at`` (its ``z_sup``; zero when omitted; the largest
    probed radius if none covers it), so the Jacobian bound is valid around
    the expected iterates.  Requires assumptions to have been probed into
    the context.  No finite m exists when 8B overflows or d is the largest
    float, which is how the probe reports an overflowed Jacobian sup, and an
    m whose norm weighs node (0, 0) only (e^{−mh} underflows) is refused.
    """
    if ctx.assumptions is None:
        raise ParameterError(
            "choose_weight needs an assumption probe; build the context with "
            "probe_assumptions(...) attached (with_assumptions)"
        )
    if at is not None:
        ctx.check_field(at.ctx, "operator")
    B = ctx.spec.growth_bound
    d, rho, m_rho = _kernel_numbers(ctx, 0.0 if at is None else at.z_sup)
    m = max(8.0 * B, 2.0 * math.sqrt(d)) + 1.0
    if not math.isfinite(m) or d == sys.float_info.max:
        raise ParameterError(
            f"no finite weight m = max(8B, 2*sqrt(d)) + 1 for B = {B:g} and d = {d:g}"
        )
    if WeightedNorms(ctx.grid, m).factors[1] == 0.0:
        raise ParameterError(f"the weight m = {m:g} for B = {B:g} and d = {d:g} underflows "
                             "e^(-m*h) to 0, so its norm would weigh node (0, 0) only")
    return WeightChoice(
        m=m,
        growth_bound=B,
        kernel_bound=d,
        radius=rho,
        m_rho=m_rho,
        coercivity_threshold=8.0 * B,
        contraction_threshold=2.0 * math.sqrt(d),
    )


def _kernel_numbers(ctx: OperatorContext, z_sup: float) -> tuple[float, float, float]:
    """(d, ρ, M_ρ) from the probe report at the smallest probed radius
    covering 1 + z_sup, with z_sup = sup|z| of the linearization point.

    Falls back to the largest probed radius when none covers the target, so
    the bound stays on the conservative side.
    """
    target = 1.0 + z_sup
    rho, m_rho = ctx.assumptions.m_rho[-1]
    for r, mr in ctx.assumptions.m_rho:
        if r >= target:
            rho, m_rho = r, mr
            break
    return max(m_rho, ctx.spec.growth_bound), rho, m_rho


def _weight_at(lin: LinearizedOperator, cfg: SolverConfig) -> tuple[float, float | None]:
    """The m of a linear solve with ``lin`` and the probed d at its state
    (None without a probe)."""
    if cfg.m is None:
        choice = choose_weight(lin.ctx, lin)
        return choice.m, choice.kernel_bound
    return cfg.m, None if lin.ctx.assumptions is None else _kernel_numbers(lin.ctx, lin.z_sup)[0]


def _iterate(
    wn: WeightedNorms,
    method: str,
    g: np.ndarray,
    residual,
    step,
    tol: float,
    max_iter: int,
    patience: bool,
) -> SolveReport:
    """The one solver loop: ``g ← step(g, r, ‖r‖_m)`` with ``r = residual(g)``.

    ``wn`` is the solve's weighted norm.  ``residual`` returns a fresh array,
    which the step consumes: it may write there, its new iterate too, but
    never into g.  Each iteration records the weighted residual of the
    iterate and its ratio to the previous one, and stops once the residual
    is at most ``tol``.  With ``patience`` it raises DivergenceError after
    ``_DIVERGENCE_PATIENCE`` consecutive ratios >= 1; it raises
    NoConvergenceError after ``max_iter`` residuals.  Overflow raises
    DivergenceError: a non-finite weighted residual (which also catches a
    non-finite iterate, because every residual contains the iterate itself)
    or an EvalOverflowError from ``residual`` or ``step``.  So does a domain
    fault there: any ``EvalFaultError`` during a solve reads as a
    ``DivergenceError``.  Any other SolverError raised by ``step`` keeps its
    class and message.  Every error carries this loop's partial report: the
    last iterate whose residual was evaluated and finite, and the trace up
    to it; the report evaluates that residual again, with the same bits,
    since a step may have consumed it.  When the first residual already
    overflows or faults there is no such iterate, and the error carries no
    report.
    """
    trace: list[IterationRecord] = []
    bad_streak = 0
    g_next = g
    try:
        for k in range(1, max_iter + 1):
            r_next = residual(g_next)
            rnorm = wn.norm(r_next)
            if not math.isfinite(rnorm):
                raise _overflow(method, k, f"weighted residual {rnorm}")
            g, r = g_next, r_next
            prev = trace[-1].residual if trace else 0.0
            ratio = rnorm / prev if prev else None
            trace.append(IterationRecord(iteration=k, residual=rnorm, ratio=ratio))
            if rnorm <= tol:
                return _report(wn, method, g, r, trace, converged=True)
            bad_streak = bad_streak + 1 if ratio is not None and ratio >= 1.0 else 0
            if patience and bad_streak >= _DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"residual not contracting for {bad_streak} consecutive "
                    f"iterations (last ratio {ratio:.3g}); the weighted norm "
                    f"needs a larger m (contraction requires m > 2*sqrt(d))"
                )
            if k == max_iter:
                raise NoConvergenceError(
                    f"no convergence within {max_iter} {method} iterations "
                    f"(last weighted residual {rnorm:.3g} > tol {tol:g})"
                )
            g_next = step(g, r, rnorm)
    except EvalOverflowError as exc:
        error = _overflow(method, k, exc)
    except EvalFaultError as exc:
        error = DivergenceError(
            f"{method} iteration {k} left the domain of an expression ({exc}); "
            f"the iterates reach states where it is undefined at this weight and right-hand side"
        )
    except SolverError as exc:
        error = exc
    if trace:
        error.report = _report(wn, method, g, residual(g), trace, converged=False)
    raise error


def _overflow(method: str, k: int, cause) -> DivergenceError:
    return DivergenceError(
        f"{method} iteration {k} overflowed ({cause}); "
        f"the iterates grow without bound at this weight and right-hand side"
    )


def _report(
    wn: WeightedNorms,
    method: str,
    g: np.ndarray,
    r: np.ndarray,
    trace: list[IterationRecord],
    converged: bool,
) -> SolveReport:
    return SolveReport(
        g=GridField(wn.grid, g),
        residual_classical=WeightedNorms(wn.grid, 0.0).norm(r),
        residual_weighted=trace[-1].residual,
        iterations=len(trace),
        trace=tuple(trace),
        m_used=wn.m,
        converged=converged,
        method=method,
    )


def _start(ctx: OperatorContext, v: GridField, g0: GridField | None) -> np.ndarray:
    """The first iterate, g0 when given, else v, after checking both fit ``ctx``."""
    ctx.check_field(v)
    if g0 is not None:
        ctx.check_field(g0)
    return (v if g0 is None else g0).values


def _minus(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """r − v on value arrays, computed in the fresh array r."""
    r -= v
    return r


def _fixed_point_step(g: np.ndarray, r: np.ndarray, rnorm: float) -> np.ndarray:
    """The fixed-point ``step`` g − r, written over the residual r."""
    return np.subtract(g, r, out=r)


def solve_linearized(lin: LinearizedOperator, v: GridField | np.ndarray,
                     cfg: SolverConfig) -> SolveReport:
    """Solve F'(z)h = v, with F'(z) the operator ``lin``, by weighted-norm
    fixed-point iteration from g₀ = v.

    v is a GridField, or its (P, P, n) value array, which is only read and
    skips the field check, as in ``apply_F``.  Warns (and proceeds) when the
    configured m sits below the estimated contraction threshold 2√d; with
    an automatic m the threshold holds by construction.
    """
    ctx = lin.ctx
    if isinstance(v, GridField):
        v = _start(ctx, v, None)
    m, d = _weight_at(lin, cfg)
    if d is not None and m <= 2.0 * math.sqrt(d):
        warnings.warn(
            f"m = {m:g} is at or below the contraction threshold 2*sqrt(d) = "
            f"{2.0 * math.sqrt(d):g}; the iteration may diverge",
            stacklevel=2,
        )
    return _iterate(
        WeightedNorms(ctx.grid, m), "linearized", v,
        residual=lambda g: _minus(lin.apply_array(g), v),
        step=_fixed_point_step,
        tol=cfg.tol, max_iter=cfg.max_iter, patience=True,
    )


@dataclass(frozen=True)
class ContractionEstimate:
    """Measured contraction factor of the linearized fixed-point map."""

    rho_hat: float        # an overflow reads as the largest float
    bound: float | None   # 4d/m² when d is known from a probe, at most the largest float
    m: float
    trials: int
    contracting: bool

    def as_dict(self) -> dict:
        return asdict(self)


def estimate_contraction(
    lin: LinearizedOperator,
    cfg: SolverConfig,
    trials: int = 8,
    seed: int = 0,
) -> ContractionEstimate:
    """ρ̂ = max over random directions of ‖(H − I)g‖_m / ‖g‖_m, with H − I
    the operator ``lin`` minus the identity.

    (H − I) is linear, so random directions are exactly random difference
    pairs.  Deterministic for a given seed.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    ctx = lin.ctx
    m, d = _weight_at(lin, cfg)
    wn = WeightedNorms(ctx.grid, m)
    rng = _PCG64(seed)
    rho = 0.0
    for _ in range(trials):
        g = random_smooth_field(ctx.grid, ctx.spec.n, rng).values
        gnorm = wn.norm(g)
        if gnorm == 0.0:
            continue
        r = lin.apply_array(g)
        r -= g
        rho = max(rho, wn.norm(r) / gnorm)
    bound = None
    if d is not None:
        try:  # Python's float ** raises where m² would be inf; m² may underflow to 0
            bound = 4.0 * d / m**2
        except (OverflowError, ZeroDivisionError):
            bound = math.inf
        if not math.isfinite(bound):
            bound = min(4.0 * (d / m) / m, sys.float_info.max)
    return ContractionEstimate(
        rho_hat=min(float(rho), sys.float_info.max), bound=bound, m=m, trials=trials,
        contracting=rho < 1.0,
    )


def solve(ctx: OperatorContext, v: GridField, cfg: SolverConfig, g0: GridField | None = None) -> SolveReport:
    """Solve F(g) = v from g0 (v when omitted) by ``cfg.method``.

    Picard iterates g ← g − (F(g) − v) and raises DivergenceError after
    ``_DIVERGENCE_PATIENCE`` non-contracting residuals.  Newton–Kantorovich
    solves F'(z_k)δ = v − F(z_k) and backtracks on merit; it has no
    divergence patience, because the weighted residual ratio can sit near 1
    for many steps of a solve that converges, so only a failed line search
    (StagnationError), a failed inner solve or the iteration cap stop it.
    """
    g, v = _start(ctx, v, g0), v.values
    wn = WeightedNorms(ctx.grid, choose_weight(ctx).m if cfg.m is None else cfg.m)
    picard = cfg.method == "picard"
    return _iterate(
        wn, cfg.method, g,
        residual=lambda g: _minus(apply_F(ctx, g), v),
        step=_fixed_point_step if picard else _newton_step(ctx, v, wn),
        tol=cfg.tol, max_iter=cfg.max_iter, patience=picard,
    )


def _newton_step(ctx: OperatorContext, v: np.ndarray, wn: WeightedNorms):
    """Newton's ``step`` for ``_iterate`` at the weight of ``wn``, for the
    right-hand side values v.

    Each step builds F' at the iterate into the one Jacobian buffer of the
    solve.  Its inner linear solve takes the residual r, which the step
    consumes, negated in place as its right-hand side, and each trial of the
    line search is then built in r.  That solve runs to
    min(INNER_TOL, 0.1·‖residual‖_m) within INNER_MAX_ITER iterations.  The
    first term wins whenever ‖residual‖_m ≥ 10·INNER_TOL, so every step is
    in practice solved to 1e-12.
    """
    classical = WeightedNorms(ctx.grid, 0.0)
    jac = None

    def step(g: np.ndarray, r: np.ndarray, rnorm: float) -> np.ndarray:
        nonlocal jac
        # choose_weight already fixed m; the inner solve must keep it
        inner_cfg = SolverConfig(m=wn.m, tol=min(INNER_TOL, 0.1 * rnorm), max_iter=INNER_MAX_ITER)
        # the buffer is allocated at the first step: allocated with the solve,
        # it raised the peak RSS of warm N = 512 solves by about 0.2 MiB
        if jac is None:
            jac = np.empty((2,) + g.shape + g.shape[-1:])
        lin = LinearizedOperator(ctx, g, out=jac)
        # the merit ½‖F(z) − v‖² decreases exactly when the classical norm
        # does; comparing norms avoids squaring them (above ~1e154 the
        # square overflows, below ~1e-154 it underflows)
        r0 = classical.norm(r)
        delta = solve_linearized(lin, np.negative(r, out=r), inner_cfg).g.values
        lam = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = np.multiply(delta, lam, out=r)  # g + λδ, bit for bit
            trial += g
            try:
                if classical.norm(_minus(apply_F(ctx, trial), v)) < r0:
                    return trial
            except EvalFaultError:
                pass  # F overflows or faults at the trial point: no decrease
            lam *= 0.5
        raise StagnationError(
            f"line search failed: merit did not decrease after "
            f"{_MAX_BACKTRACKS} halvings (classical residual {r0:.6g})"
        )

    return step
