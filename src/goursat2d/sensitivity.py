"""Directional derivatives and stability of the solution map v ↦ z_v.

The solution map sends a right-hand side v to the solved state z_v.  Its
derivative in a direction δv is the solution h of the linearized equation
F'(z_v) h = δv — no new machinery, just the linear solver at the converged
state.  ``validate_frechet`` checks that claim against actual re-solves:

    error(ε) = ‖ (g_{v+ε·δv} − g_v)/ε − h_g ‖ / ‖h_g‖     (classical norm)

must fall linearly in ε until the solver-tolerance floor.  Comparisons run in
g-space with the classical norm so the verdict does not depend on the weight
choice.  ``stability_probe`` measures the continuity modulus
‖z₁ − z₂‖ / ‖v₁ − v₂‖ in both norms; for z-linear problems the weighted ratio
is certified by the coercivity constant (1 − 8B/m)⁻¹.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, SolverError
from .grid import GridField
from .norms import WeightedNorms
from .operator import LinearizedOperator, OperatorContext
from .solvers import INNER_MAX_ITER, INNER_TOL, SolveReport, SolverConfig, solve, solve_linearized

#: Refuse quotient steps below this multiple of the solver tolerance.
EPS_FLOOR_FACTOR = 100.0


@dataclass(frozen=True, kw_only=True)
class SensitivityReport:
    """Directional-derivative validation and/or stability ratios.

    fd_errors pairs each ε with the relative deviation of the difference
    quotient from the directional derivative h.  stability ratios are
    ‖z₁ − z₂‖/‖v₁ − v₂‖ in (classical, weighted) norms, None when not probed
    or degenerate.  ``valid`` is False as soon as any inner solve failed to
    converge, and ``failure`` then names the first that failed with its
    error's message; ``validate_frechet`` solves no ε after a failed solve,
    so its ``converged_flags`` end at the first False.  ``passed``
    additionally requires the error criteria.
    """

    h: GridField | None = None
    fd_errors: tuple[tuple[float, float], ...] = ()
    stability_classical: float | None = None
    stability_weighted: float | None = None
    stability_bound: float | None = None
    degenerate: bool = False
    failure: str | None = None
    converged_flags: tuple[bool, ...]
    valid: bool
    passed: bool

    def as_dict(self) -> dict:
        """Every field but the derivative field ``h``, which is not copied, and
        ``failure``, which only an invalid report, one that writes no
        artifact, holds."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("h", "failure")}


def frechet_apply(ctx: OperatorContext, solved: SolveReport, deltav: GridField) -> GridField:
    """h solving F'(z_v) h = δv — the solution map's derivative at v, applied to δv."""
    if not solved.converged:
        raise SolverError("frechet_apply needs a converged base solve")
    ctx.check_field(deltav)
    inner = SolverConfig(m=solved.m_used, tol=INNER_TOL, max_iter=INNER_MAX_ITER)
    return solve_linearized(LinearizedOperator(ctx, solved.g), deltav, inner).g


def _solve_or_failure(ctx: OperatorContext, v: GridField, cfg: SolverConfig,
                      what: str) -> tuple[SolveReport | None, str | None]:
    """``solve``'s report (always converged) and None, or on a SolverError
    None and the failure: ``what`` failed, with the error's message."""
    try:
        return solve(ctx, v, cfg), None
    except SolverError as exc:
        return None, f"{what} failed to converge: {exc}"


def validate_frechet(
    ctx: OperatorContext,
    v: GridField,
    deltav: GridField,
    eps_list: tuple[float, ...],
    cfg: SolverConfig,
) -> SensitivityReport:
    """Compare difference quotients of re-solves against the derivative.

    eps_list must be strictly decreasing, positive, length ≥ 3, and stay
    above 100·tol so solver noise cannot masquerade as a remainder term;
    every v + ε·δv must be finite.
    Passes when the errors decrease monotonically (or sit at the
    10·tol/ε solver floor) and the smallest error is ≤ 0.05.
    """
    ctx.check_field(v)
    ctx.check_field(deltav)
    if not deltav.values.any():
        raise ParameterError("the direction deltav is identically zero; it validates nothing")
    eps = tuple(float(e) for e in eps_list)
    if len(eps) < 3:
        raise ParameterError(f"need at least 3 quotient steps, got {len(eps)}")
    if not all(0 < e < math.inf for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ParameterError(f"eps_list must be strictly decreasing, positive and finite: {eps}")
    floor = EPS_FLOOR_FACTOR * cfg.tol
    if eps[-1] < floor:
        raise ParameterError(
            f"smallest eps {eps[-1]:g} is below the noise floor {floor:g} "
            f"(= {EPS_FLOOR_FACTOR:g} * tol); raise eps or tighten tol"
        )
    with np.errstate(over="ignore"):
        for e in eps:
            if not np.isfinite(v.values + deltav.values * e).all():
                raise ParameterError(
                    f"the perturbed right-hand side v + eps*deltav overflows at eps = {e:g}")

    base, failure = _solve_or_failure(ctx, v, cfg, "the base solve")
    if base is None:
        return SensitivityReport(failure=failure, converged_flags=(False,), valid=False,
                                 passed=False)

    flags = [True]
    h = frechet_apply(ctx, base, deltav)
    classical = WeightedNorms(ctx.grid, 0.0)
    scale = max(classical.norm(h.values), 1e-300)

    errors: list[tuple[float, float]] = []
    for e in eps:
        # cold start on purpose: the perturbed solve then follows the same
        # iteration path as the base solve, so the two solver errors are
        # correlated and cancel in the quotient (exactly, for affine F)
        perturbed = GridField(ctx.grid, v.values + deltav.values * e)
        rep, failure = _solve_or_failure(ctx, perturbed, cfg, f"the solve at eps = {e:g}")
        flags.append(rep is not None)
        if rep is None:  # the report is invalid now: no later ε is solved
            break
        quotient = (rep.g.values - base.g.values) / e
        errors.append((e, classical.norm(quotient - h.values) / scale))
    valid = all(flags)
    passed = False
    if valid and errors:
        errs = [err for _, err in errors]
        monotone = all(
            errs[i + 1] <= errs[i] * 1.05 or errs[i + 1] <= 10.0 * cfg.tol / errors[i + 1][0]
            for i in range(len(errs) - 1)
        )
        passed = monotone and min(errs) <= 0.05
    return SensitivityReport(
        h=h,
        fd_errors=tuple(errors),
        failure=failure,
        converged_flags=tuple(flags),
        valid=valid,
        passed=passed,
    )


def stability_probe(
    ctx: OperatorContext,
    v1: GridField,
    v2: GridField,
    cfg: SolverConfig,
) -> SensitivityReport:
    """Continuity modulus ‖z₁ − z₂‖ / ‖v₁ − v₂‖ in both norms.

    Identical inputs are flagged degenerate (zero difference, no ratio).  The
    weighted ratio is reported next to the coercivity bound (1 − 8B/m)⁻¹,
    which certifies it for z-linear problems.
    """
    ctx.check_field(v1)
    ctx.check_field(v2)
    (r1, failed1), (r2, failed2) = (_solve_or_failure(ctx, v, cfg, f"the solve of {name}")
                                    for name, v in (("v1", v1), ("v2", v2)))
    flags = (r1 is not None, r2 is not None)
    if not all(flags):
        return SensitivityReport(failure=failed1 or failed2, converged_flags=flags,
                                 valid=False, passed=False)
    m = r1.m_used
    wn, classical = WeightedNorms(ctx.grid, m), WeightedNorms(ctx.grid, 0.0)
    dv = v1.values - v2.values
    dz = r1.g.values - r2.g.values
    dv_c, dv_w = classical.norm(dv), wn.norm(dv)
    B = ctx.spec.growth_bound
    bound = 1.0 / (1.0 - 8.0 * B / m) if m > 8.0 * B else None
    if dv_c == 0.0:
        return SensitivityReport(
            stability_classical=0.0 if classical.norm(dz) == 0.0 else None,
            stability_bound=bound, degenerate=True,
            converged_flags=flags, valid=True, passed=True,
        )
    return SensitivityReport(
        stability_classical=classical.norm(dz) / dv_c,
        stability_weighted=wn.norm(dz) / dv_w,
        stability_bound=bound,
        converged_flags=flags,
        valid=True,
        passed=True,
    )
