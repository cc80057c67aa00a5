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
terms, and f1 and f2 sampled by the context's compiled f1‖f2 programs) from
the carry of the strip before.  Each strip's temporaries are strip-sized,
the result is the only grid-sized array allocated, and the bits are the
whole grid's.  An
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
from .exprlang import _matrix_program, _matrix_values, _Program, _stack
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
    the z_y that only A2 reads).  The f1‖f2 programs of F and F' are
    compiled on first use and hold no grid array.  F and F' do not depend
    on the weight m, so the context carries none: each solve chooses its m
    and builds its own ``WeightedNorms``.
    """

    __slots__ = ("spec", "grid", "assumptions", "X", "Y", "a1_nodes", "a2_nodes", "_programs")

    def __init__(self, spec: ProblemSpec, grid: Grid):
        self.spec = spec
        self.grid = grid
        self.X, self.Y = grid.meshgrid()
        self.a1_nodes, self.a2_nodes = (_coefficient(a, self.X, self.Y, spec.n)
                                        for a in (spec.a1, spec.a2))
        self.assumptions = None
        self._programs = {}

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

    def _program(self, dual: bool) -> _Program:
        """f1‖f2 (f1's components, then f2's) compiled on first use, for F's
        terms or, ``dual``, for F''s Jacobians too; the derived contexts of
        ``with_assumptions`` share them."""
        if dual not in self._programs:
            self._programs[dual] = _Program(self.spec.f1 + self.spec.f2, self.spec.n, dual,
                                            values=not dual)
        return self._programs[dual]

    def _f_terms(self, rows: slice, z: np.ndarray):
        """F's pointwise terms (f1, f2) at the state z on the strip ``rows``."""
        values = self._program(False).run(self.X[rows], self.Y[rows], z)[0]
        return _stack(values[:self.spec.n]), _stack(values[self.spec.n:])

    def __repr__(self) -> str:
        return f"OperatorContext(n={self.spec.n}, cells={self.grid.cells})"


def make_context(spec: ProblemSpec, grid: Grid) -> OperatorContext:
    return OperatorContext(spec, grid)


def _coefficient(mat, X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray | None:
    """An n×n expression matrix sampled at the nodes, or None when it is zero
    at every node (by value: ``x - x`` is zero too); the context stores the
    None as it is.  The matrix is compiled once, and each strip is sampled
    once, in order.  The all-zero strips before the first nonzero one are
    written as +0.0 once it comes, and only a strip holding a −0.0 is kept
    until then, so a zero matrix is never held whole.  A fault is that of
    the first strip that faults: its first faulting entry, row-major, at
    that entry's first faulting node."""
    out, zeros, program = None, [], _matrix_program(mat, n)
    for s in row_strips(X.shape[0], n * n):
        part = _matrix_values(program, X[s], Y[s])
        if out is None and not part.any():
            zeros.append((s, part if np.signbit(part).any() else 0.0))
            continue
        if out is None:
            out = np.empty(X.shape + (n, n))
            for z, zero in zeros:
                out[z] = zero
        out[s] = part
    return out


def _norms(Z: np.ndarray) -> np.ndarray:
    """The Euclidean norms over the last axis of Z, from the squares,
    rescaled where they overflow, so a finite Z has finite norms unless
    they pass the largest float."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((Z**2).sum(axis=-1))
    big = np.isinf(norms)
    if big.any():
        top = np.abs(Z[big]).max(axis=-1)
        norms[big] = top * np.sqrt(((Z[big] / top[:, None])**2).sum(axis=-1))
    return norms


def _sup_norm(Z: np.ndarray) -> float:
    """The largest Euclidean norm over the last axis of Z: max|z| for one
    component, else the largest of ``_norms``."""
    return float(max(Z.max(), -Z.min()) if Z.shape[-1] == 1 else _norms(Z).max())


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Pointwise matrix–vector products: (k,P,n,n) × (k,P,n) -> (k,P,n)."""
    return np.einsum("ijkl,ijl->ijk", mats, vecs, optimize=False)


def _scaled(j: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``_matvec`` for one component, (k,P,1,1) × (k,P,1), without its zeroed
    output: the product, then + 0.0, since einsum sums it into a +0.0 and so
    turns a −0.0 product into +0.0.  ``out`` may be h."""
    out = np.multiply(j[..., 0], h, out=out)
    out += 0.0
    return out


def _step(ctx: OperatorContext, g: np.ndarray, rows: slice, carry, pointwise, out=None):
    """``grid.strip_step`` of (g + local) + J((inner + A1 zx) + A2 zy), in this
    order of additions and without the term of a zero A, on the strip
    ``rows`` of g, where ``(local, inner) = pointwise(rows, z)``; no term
    reads z after it, so pointwise may write its local there.  The strip
    builds z_y only for a nonzero A2 and keeps z_x only for a nonzero A1."""
    a1, a2 = ctx.a1_nodes, ctx.a2_nodes

    def terms(z, zx, zy):
        local, inner = pointwise(rows, z)
        if a1 is not None:
            inner += _matvec(a1[rows], zx)
        if a2 is not None:
            inner += _matvec(a2[rows], zy)
        return local, inner

    return strip_step(g, carry, ctx.grid.h, terms, zx=a1 is not None, zy=a2 is not None, out=out)


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
    the state z of ``at`` (a GridField, or its (P, P, n) value array, which
    is only read and, like ``apply_F``'s, skips the field check; the zero
    state when None) and ``z_sup`` = sup|z| (Euclidean over components),
    which the weight choice reads, are evaluated once at construction, strip
    by strip into ``j1``, ``j2``, each strip's state reduced to its z while
    f1 and f2 run; z itself is not kept.  The Jacobians are
    ``out[0]`` and ``out[1]`` of a (2, P, P, n, n) array ``out``, numpy
    style, which a solve that linearizes at each step passes again so that
    its pages stay mapped; every entry is written, and an operator built
    there before reads the new ones.  The linear entries of ``solvers``
    take the built operator; each ``apply_array`` then costs a few pointwise
    products and prefix sums.
    """

    __slots__ = ("ctx", "z_sup", "j1", "j2")

    def __init__(self, ctx: OperatorContext, at: GridField | np.ndarray | None = None,
                 out: np.ndarray | None = None):
        if isinstance(at, GridField):
            ctx.check_field(at)
            at = at.values
        self.ctx = ctx
        X, Y, n = ctx.X, ctx.Y, ctx.spec.n
        shape = (2,) + X.shape + (n, n)
        if out is not None and (out.shape != shape or out.dtype != float):
            raise ParameterError(f"out must be a float array of shape {shape}, got "
                                 f"{out.dtype} {out.shape}")
        jac, z_sup, carry = np.empty(shape) if out is None else out, 0.0, None
        program = ctx._program(True)
        for rows in row_strips(X.shape[0], n):
            Z = None
            if at is not None:
                (Z, _, _), carry = strip_step(at[rows], carry, ctx.grid.h, zx=False, zy=False)
                z_sup = max(z_sup, _sup_norm(Z))
            program.run(X[rows], Y[rows], Z, [jac[k, rows, ..., i, :] for k in (0, 1)
                                              for i in range(n)])
        self.j1, self.j2, self.z_sup = jac[0], jac[1], z_sup

    def apply_array(self, hg: np.ndarray) -> np.ndarray:
        """Raw-array application for solver inner loops; hg shape (P, P, n)."""
        j1, j2 = self.j1, self.j2
        if self.ctx.spec.n == 1:
            def pointwise(rows, h):  # h, the strip's z, is not read after this
                inner = _scaled(j2[rows], h)
                return _scaled(j1[rows], h, out=h), inner
        else:
            def pointwise(rows, h):
                return _matvec(j1[rows], h), _matvec(j2[rows], h)

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
    b_vals = _Program((ctx.spec.majorant,), ctx.spec.n, False).run(X, Y)[0][0]
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
