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

``coercivity_probe`` checks the lower bound that makes the problem solvable
for large weights: for m > 8B,

    ‖F(z)‖_{L²_m} ≥ (1 − 8B/m) ‖z‖_m − D,     D = 2 ‖b‖_{L²_m},

with b the declared growth majorant.  Since both sides carry O(h²)
quadrature error, margins are accepted down to −10·h²·scale.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ThresholdError
from .grid import Grid, GridField, cum2d_array, state_from_g
from .norms import WeightedNorms
from .exprlang import eval_dual_on_grid, eval_on_grid
from .problem import AssumptionReport, ProblemSpec, _matrix_values, _zero_state


class OperatorContext:
    """Immutable pairing of a problem with a grid, plus node caches.

    Holds the spec, the grid, its node coordinates X, Y (the read-only views
    of ``Grid.meshgrid``), the z-independent coefficient matrices A1, A2
    sampled once per (spec, grid), the record ``nonzero`` of which of A1, A2
    is not identically zero on the nodes (F and F' skip the term of a zero
    one, and the z_y that only A2 reads), and the assumption probe report
    that ``with_assumptions`` attaches (None until then) to a derived context
    sharing the caches.  Only a nonzero matrix holds grid-sized memory: a
    zero one is kept as a read-only broadcast view of one n×n zero matrix.
    F and F' do not depend on the weight m, so the context carries none:
    each solve chooses its m and builds its own ``WeightedNorms``.
    """

    __slots__ = ("spec", "grid", "assumptions", "X", "Y", "a1_nodes", "a2_nodes", "nonzero")

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        self.X, self.Y = grid.meshgrid()
        a1, a2 = (_matrix_values(a, self.X, self.Y, spec.n) for a in (spec.a1, spec.a2))
        self.nonzero = (bool(a1.any()), bool(a2.any()))
        zero = np.broadcast_to(np.zeros((spec.n, spec.n)), a1.shape)
        self.a1_nodes = a1 if self.nonzero[0] else zero
        self.a2_nodes = a2 if self.nonzero[1] else zero
        self.assumptions = None

    def with_assumptions(self, report: AssumptionReport) -> "OperatorContext":
        out = copy.copy(self)
        out.assumptions = report
        return out

    def check_field(self, f: GridField | OperatorContext, what: str = "field") -> None:
        """Raise ShapeError unless ``f`` (a field, or an operator's context)
        has this grid and this n."""
        n = f.n if isinstance(f, GridField) else f.spec.n
        if f.grid != self.grid:
            raise ShapeError(f"{what} on {f.grid} does not match context grid {self.grid}")
        if n != self.spec.n:
            raise ShapeError(f"{what} has {n} components, problem has {self.spec.n}")

    def __repr__(self) -> str:
        return f"OperatorContext(n={self.spec.n}, cells={self.grid.cells})"


def make_context(spec: ProblemSpec, grid: Grid) -> OperatorContext:
    return OperatorContext(spec, grid)


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Pointwise matrix–vector products: (P,P,n,n) × (P,P,n) -> (P,P,n)."""
    return np.einsum("ijkl,ijl->ijk", mats, vecs, optimize=False)


def _stack(arrays: list[np.ndarray], axis: int) -> np.ndarray:
    """``np.stack(arrays, axis)``, but a view of the one array when n == 1."""
    return np.expand_dims(arrays[0], axis) if len(arrays) == 1 else np.stack(arrays, axis)


def _components(exprs, X, Y, Z) -> np.ndarray:
    """Stack component evaluations into a writable array of shape X.shape + (n,)."""
    return _stack([eval_on_grid(e, X, Y, Z) for e in exprs], -1)


def _assemble(ctx: OperatorContext, local, g, inner, zx, zy) -> np.ndarray:
    """(g + local) + J((inner + A1 zx) + A2 zy) in this order of additions, in
    the fresh arrays ``local`` and ``inner``, without the term of a zero A.

    The sum lands in J's array, the last one allocated, so the temporaries
    freed below it do not join the C heap's top, whose trimming would fault
    their pages back in on the next call."""
    if ctx.nonzero[0]:
        inner += _matvec(ctx.a1_nodes, zx)
    if ctx.nonzero[1]:
        inner += _matvec(ctx.a2_nodes, zy)
    local += g
    out = cum2d_array(inner, ctx.grid.h)
    out += local
    return out


def apply_F(ctx: OperatorContext, g: GridField | np.ndarray) -> GridField | np.ndarray:
    """Evaluate the forward operator at the state reconstructed from g.

    Takes a GridField or its (P, P, n) value array and returns the same kind;
    the array form is the solvers' path and skips the field's copy and check.
    """
    field = isinstance(g, GridField)
    if field:
        ctx.check_field(g)
        g = g.values
    z, zx, zy = state_from_g(g, ctx.grid.h, zy=ctx.nonzero[1])
    f1v = _components(ctx.spec.f1, ctx.X, ctx.Y, z)
    f2v = _components(ctx.spec.f2, ctx.X, ctx.Y, z)
    out = _assemble(ctx, f1v, g, f2v, zx, zy)
    return GridField(ctx.grid, out) if field else out


class LinearizedOperator:
    """F'(z) at the state z of a frozen g, cheap to apply repeatedly.

    The one owner of a linearization point: the z-Jacobians of f1 and f2 at
    the state z of ``at`` (the zero state when None) and ``z_sup`` = sup|z|
    (Euclidean over components), which the weight choice reads, are
    evaluated once at construction; z itself is not kept.  The linear
    entries of ``solvers`` take the built operator; each ``apply_array``
    then costs a few pointwise products and prefix sums.
    """

    __slots__ = ("ctx", "z_sup", "j1", "j2")

    def __init__(self, ctx: OperatorContext, at: GridField | None = None):
        if at is None:
            Z, self.z_sup = _zero_state(ctx.X.shape, ctx.spec.n), 0.0
        else:
            ctx.check_field(at)
            Z = state_from_g(at.values, ctx.grid.h, zy=False)[0]
            self.z_sup = float(np.sqrt((Z**2).sum(axis=2)).max())
        self.ctx = ctx
        d1, d2 = [], []
        for i in range(ctx.spec.n):
            d1.append(eval_dual_on_grid(ctx.spec.f1[i], ctx.X, ctx.Y, Z)[1])
            d2.append(eval_dual_on_grid(ctx.spec.f2[i], ctx.X, ctx.Y, Z)[1])
        # row i of each Jacobian holds the partials of component i
        self.j1 = _stack(d1, -2)
        self.j2 = _stack(d2, -2)

    def apply_array(self, hg: np.ndarray) -> np.ndarray:
        """Raw-array application for solver inner loops; hg shape (P, P, n)."""
        ctx = self.ctx
        h, hx, hy = state_from_g(hg, ctx.grid.h, zy=ctx.nonzero[1])
        return _assemble(ctx, _matvec(self.j1, h), hg, _matvec(self.j2, h), hx, hy)


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
        raise ThresholdError(
            f"coercivity bound needs m > 8B = {8.0 * B:g}, got m = {m:g}"
        )
    if not g_samples:
        raise ValueError("need at least one sample field")
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
