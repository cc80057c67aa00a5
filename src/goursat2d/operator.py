"""The forward operator, its linearization, and the coercivity probe.

Everything acts on the mixed derivative g = z_xy as the only unknown: the
state (z, z_x, z_y) is rebuilt from g by cumulative integrals whenever a
nonlinearity needs it, and F' is linearized at the state of a g field.
With J the cumulative double integral,

    F(z) = z_xy + f1(x, y, z) + J( f2(·, ·, z) + A1 z_x + A2 z_y ),

so F = identity + (compact Volterra part) in g.  Its directional derivative
at z in a direction h (again identified with h_xy) is

    F'(z) h = h_xy + f1_z(x, y, z) h + J( f2_z(·, ·, z) h + A1 h_x + A2 h_y ),

with the z-Jacobians f1_z, f2_z supplied by forward-mode differentiation of
the component expressions.

Both are causal Volterra maps: the value at node (i, j) depends only on
rows <= i.  So F, F' and the state they rebuild from g are evaluated block
by block over row strips, by ``_step`` (``grid.strip_step`` with the A
terms, f1 and f2 sampled by ``exprlang``'s node samplers) from the carry of
the strip before.  Each strip's temporaries are strip-sized, the result is
the only grid-sized array allocated, and the bits are the whole grid's.  An
evaluation fault stops the walk in the first strip that faults, with the
first fault of that strip: f1's before f2's, in F and F' alike, each at its
first node in row-major order.  On a grid of one strip it is the whole grid's.

``coercivity_probe`` checks the lower bound that makes the problem solvable
for large weights: for m > 8B,

    ‖F(z)‖_{L²_m} ≥ (1 − 8B/m) ‖z‖_m − D,     D = 2 ‖b‖_{L²_m},

with b the declared growth majorant.  Since both sides carry O(h²)
quadrature error, margins are accepted down to −10·h²·scale.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError
from .exprlang import _components, _jacobian, _matrix_values, _zero_state, eval_on_grid
from .grid import Grid, GridField, row_strips, strip_step
from .norms import WeightedNorms

if TYPE_CHECKING:  # annotations only: problem imports this module
    from .problem import AssumptionReport, ProblemSpec


class OperatorContext:
    """Immutable pairing of a problem with a grid, plus node caches.

    Holds the spec, the grid, its node coordinates X, Y (the read-only views
    of ``Grid.meshgrid``), the z-independent coefficient matrices A1, A2
    sampled once per (spec, grid) as ``a1_nodes``, ``a2_nodes``, and the
    assumption probe report that ``with_assumptions`` attaches (None until
    then) to a derived context sharing the caches.  A matrix that is zero at
    every node is stored as None, found strip by strip, so only a nonzero
    matrix holds grid-sized memory; F and F' skip the term of a None one (and
    the z_y that only A2 reads).  F and F' do not depend on the weight m, so
    the context carries none: each solve chooses its m and builds its own
    ``WeightedNorms``.
    """

    __slots__ = ("spec", "grid", "assumptions", "X", "Y", "a1_nodes", "a2_nodes")

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        self.X, self.Y = grid.meshgrid()
        self.a1_nodes, self.a2_nodes = (_coefficient(a, self.X, self.Y, spec.n)
                                        for a in (spec.a1, spec.a2))
        self.assumptions = None

    def with_assumptions(self, report: AssumptionReport) -> "OperatorContext":
        out = copy.copy(self)
        out.assumptions = report
        return out

    def check_field(self, f: GridField | OperatorContext, what: str = "field") -> None:
        """Raise ParameterError unless ``f`` (a field, or an operator's context)
        has this grid and this n."""
        n = f.n if isinstance(f, GridField) else f.spec.n
        if f.grid != self.grid:
            raise ParameterError(f"{what} on {f.grid} does not match context grid {self.grid}")
        if n != self.spec.n:
            raise ParameterError(f"{what} has {n} components, problem has {self.spec.n}")

    def _f_terms(self, rows: slice, z: np.ndarray):
        """F's pointwise terms (f1, f2) at the state z on the strip ``rows``."""
        X, Y = self.X[rows], self.Y[rows]
        return _components(self.spec.f1, X, Y, z), _components(self.spec.f2, X, Y, z)

    def __repr__(self) -> str:
        return f"OperatorContext(n={self.spec.n}, cells={self.grid.cells})"


def make_context(spec: ProblemSpec, grid: Grid) -> OperatorContext:
    return OperatorContext(spec, grid)


def _coefficient(mat, X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray | None:
    """An n×n expression matrix sampled at the nodes, or None when it is zero
    at every node (by value: ``x - x`` is zero too); the context stores the
    None as it is.  The zero test runs strip by strip, so only a nonzero
    matrix is ever held whole.  A fault is that of the first strip that
    faults: its first faulting entry, row-major, at that entry's first
    faulting node."""
    strips = row_strips(X.shape[0], n * n)
    if not any(_matrix_values(mat, X[s], Y[s], n).any() for s in strips):
        return None
    out = np.empty(X.shape + (n, n))
    for s in strips:
        out[s] = _matrix_values(mat, X[s], Y[s], n)
    return out


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Pointwise matrix–vector products: (k,P,n,n) × (k,P,n) -> (k,P,n)."""
    return np.einsum("ijkl,ijl->ijk", mats, vecs, optimize=False)


def _step(ctx: OperatorContext, g: np.ndarray, rows: slice, carry, pointwise, out=None):
    """``grid.strip_step`` of (g + local) + J((inner + A1 zx) + A2 zy), in this
    order of additions and without the term of a zero A, on the strip
    ``rows`` of g, where ``(local, inner) = pointwise(rows, z)``."""
    a1, a2 = ctx.a1_nodes, ctx.a2_nodes

    def terms(z, zx, zy):
        local, inner = pointwise(rows, z)
        if a1 is not None:
            inner += _matvec(a1[rows], zx)
        if a2 is not None:
            inner += _matvec(a2[rows], zy)
        return local, inner

    return strip_step(g, carry, ctx.grid.h, terms, zy=a2 is not None, out=out)


def _assemble(ctx: OperatorContext, g: np.ndarray, pointwise) -> np.ndarray:
    """``_step`` over the row strips of the grid, into one result allocated
    after the first strip's arrays: their freed chunks, which the later
    strips reuse, then stay below it and out of the C heap's top, whose
    trimming would fault their pages back in on the next call."""
    strips = row_strips(g.shape[0], g.shape[2])
    out = carry = None
    for rows in strips:
        part, carry = _step(ctx, g[rows], rows, carry, pointwise,
                            None if out is None else out[rows])
        if out is None and len(strips) > 1:
            out = np.empty(g.shape)
            out[rows] = part
    return part if out is None else out


def apply_F(ctx: OperatorContext, g: GridField | np.ndarray) -> GridField | np.ndarray:
    """Evaluate the forward operator at the state reconstructed from g.

    Takes a GridField or its (P, P, n) value array and returns the same kind;
    the array form is the solvers' path and skips the field's copy and check.
    """
    field = isinstance(g, GridField)
    if field:
        ctx.check_field(g)
        g = g.values
    out = _assemble(ctx, g, ctx._f_terms)
    return GridField(ctx.grid, out) if field else out


class LinearizedOperator:
    """F'(z) at the state z of a frozen g, cheap to apply repeatedly.

    The one owner of a linearization point: the z-Jacobians of f1 and f2 at
    the state z of ``at`` (the zero state when None) and ``z_sup`` = sup|z|
    (Euclidean over components), which the weight choice reads, are
    evaluated once at construction, strip by strip into the preallocated
    ``j1``, ``j2``; z itself is not kept.  The linear entries of ``solvers``
    take the built operator; each ``apply_array`` then costs a few pointwise
    products and prefix sums.
    """

    __slots__ = ("ctx", "z_sup", "j1", "j2")

    def __init__(self, ctx: OperatorContext, at: GridField | None = None):
        if at is not None:
            ctx.check_field(at)
        self.ctx = ctx
        spec, X, Y = ctx.spec, ctx.X, ctx.Y
        n = spec.n
        jac, z_sup, carry = np.empty((2,) + X.shape + (n, n)), 0.0, None
        for rows in row_strips(X.shape[0], n):
            if at is None:
                Z = _zero_state(X[rows].shape, n)
            else:
                (Z, _, _), carry = strip_step(at.values[rows], carry, ctx.grid.h, zy=False)
                z_sup = max(z_sup, float(np.sqrt((Z**2).sum(axis=2)).max()))
            for k, f in enumerate((spec.f1, spec.f2)):
                _jacobian(f, X[rows], Y[rows], Z, out=jac[k, rows])
        self.j1, self.j2, self.z_sup = jac[0], jac[1], z_sup

    def apply_array(self, hg: np.ndarray) -> np.ndarray:
        """Raw-array application for solver inner loops; hg shape (P, P, n)."""
        def pointwise(rows, h):
            return _matvec(self.j1[rows], h), _matvec(self.j2[rows], h)

        return _assemble(self.ctx, hg, pointwise)


@dataclass(frozen=True)
class CoercivityReport:
    """Margins of the weighted lower bound over a batch of sample fields."""

    m: float
    growth_bound: float
    offset: float              # D = 2 ‖b‖_{L²_m}
    factor: float              # 1 − 8B/m
    margins: tuple[float, ...]  # ‖F(z)‖_m − (factor·‖z‖_m − D), per sample
    tolerance: float
    ray_values: tuple[float, ...]
    ray_ok: bool

    @property
    def passed(self) -> bool:
        return self.ray_ok and all(mg >= -self.tolerance for mg in self.margins)


#: The scales t of the coercivity probe's ray test, increasing.
_RAY_SCALES = (1.0, 10.0, 100.0)


def coercivity_probe(
    ctx: OperatorContext,
    g_samples: list[GridField],
    m: float,
) -> CoercivityReport:
    """Check ‖F(z)‖_m ≥ (1 − 8B/m)‖z‖_m − D on each sample, plus a ray test.

    Requires m > 8B (the bound is vacuous otherwise).  The ray test evaluates
    ‖F(t·g)‖_m along t ∈ _RAY_SCALES for the first sample and checks growth
    wherever the certified lower bound has cleared 2D.
    """
    B = ctx.spec.growth_bound
    if m <= 8.0 * B:
        raise ParameterError(f"coercivity bound needs m > 8B = {8.0 * B:g}, got m = {m:g}")
    if not g_samples:
        raise ParameterError("need at least one sample field")
    norms = WeightedNorms(ctx.grid, m)
    X, Y = ctx.X, ctx.Y
    b_vals = eval_on_grid(ctx.spec.majorant, X, Y, _zero_state(X.shape, ctx.spec.n))
    D = 2.0 * norms.norm(b_vals[..., None])
    factor = 1.0 - 8.0 * B / m

    margins = []
    scale = 0.0
    for g in g_samples:
        ctx.check_field(g)
        g = g.values
        lhs = norms.norm(apply_F(ctx, g))
        gnorm = norms.norm(g)
        margins.append(lhs - (factor * gnorm - D))
        scale = max(scale, gnorm, lhs, D)
    tol = 10.0 * ctx.grid.h**2 * max(scale, 1.0)

    ray_values = []
    g0 = g_samples[0].values
    g0_norm = norms.norm(g0)
    for t in _RAY_SCALES:
        ray_values.append(norms.norm(apply_F(ctx, t * g0)))
    ray_ok = True
    for k in range(len(_RAY_SCALES) - 1):
        cleared = factor * _RAY_SCALES[k] * g0_norm > 2.0 * D
        if cleared and ray_values[k + 1] <= ray_values[k]:
            ray_ok = False

    return CoercivityReport(
        m=float(m),
        growth_bound=B,
        offset=float(D),
        factor=float(factor),
        margins=tuple(float(v) for v in margins),
        tolerance=float(tol),
        ray_values=tuple(float(v) for v in ray_values),
        ray_ok=ray_ok,
    )
