"""Classical and exponentially weighted norms on grid fields.

The solution space carries the norm ‖z‖ = ‖z_xy‖_{L²(Q)} and its weighted
variant

    ‖z‖_m = ( ∫∫_Q e^{−m(x+y)} |z_xy(x, y)|² dx dy )^{1/2},    m ≥ 0,

the classical device for turning Volterra-type integral operators into
contractions: the weight penalizes mass far from the origin corner, which is
exactly where a causal integral operator accumulates it.  Since
e^{−2m} ≤ e^{−m(x+y)} ≤ 1 on the unit square, the weighted and unweighted
norms are equivalent with explicit constants,

    e^{−2m} ‖z‖ ≤ ‖z‖_m ≤ ‖z‖,

so convergence estimates proved in one transfer to the other.

On the grid the trapezoid rule weights node (i, j) by w_i w_j e^{−m(x_i + y_j)},
the outer product a_i a_j of one node vector a_i = w_i e^{−m x_i}.
``WeightedNorms`` keeps only that vector: no (N+1)² kernel grid is formed and
nothing is cached, and at m = 0 the vector is the trapezoid weights exactly.

``verify_lemma31`` checks the workhorse estimate: with g = z_xy and
J the cumulative double integral,

    ‖z‖_{L²_m},  ‖J|z|‖_{L²_m},  ‖J|z_x|‖_{L²_m},  ‖J|z_y|‖_{L²_m}
        all ≤ (2/m) ‖z‖_m,

which is what makes the lower-order terms of the operator small relative to
the principal part once m is large.  The discrete check allows a slack of
10 h² times the field scale, covering the O(h²) quadrature error on both
sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import Grid, GridField, cum2d_array, state_from_g


class WeightedNorms:
    """Node factors a_i = w_i e^{−m x_i} (trapezoid weight times Bielecki
    factor) for one (grid, m) pair; node (i, j) weighs a_i a_j.  At large m
    they underflow to 0 off the origin."""

    __slots__ = ("grid", "m", "factors")

    def __init__(self, grid: Grid, m: float):
        m = float(m)
        if m < 0:
            raise ParameterError(f"weight exponent must be nonnegative, got {m}")
        self.grid = grid
        self.m = m
        self.factors = grid.trapezoid_weights() * np.exp(-m * grid.nodes)

    def norm(self, f: np.ndarray) -> float:
        """Weighted L² norm of the (P, P, n) values of an R^n-valued field."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = self._sum_sq(f)
        if not np.isfinite(total) and np.isfinite(f).all():
            # finite values above ~1e154 overflow the squares: scale them first
            scale = np.abs(f).max()
            return float(scale * np.sqrt(self._sum_sq(f / scale)))
        return float(np.sqrt(total))

    def _sum_sq(self, f: np.ndarray) -> float:
        s = np.square(f[..., 0]) if f.shape[2] == 1 else np.square(f).sum(axis=2)
        return np.einsum("i,j,ij->", self.factors, self.factors, s)


@dataclass(frozen=True)
class NormEquivalenceReport:
    """The two-sided comparison e^{−2m}‖z‖ ≤ ‖z‖_m ≤ ‖z‖ for one field."""

    m: float
    lower: float       # e^{−2m} · classical norm
    weighted: float    # ‖z‖_m
    upper: float       # classical norm
    tolerance: float
    passed: bool


def check_norm_equivalence(g: GridField, m: float) -> NormEquivalenceReport:
    """Evaluate both equivalence inequalities for the state with g = z_xy."""
    upper = WeightedNorms(g.grid, 0.0).norm(g.values)
    weighted = WeightedNorms(g.grid, m).norm(g.values)
    lower = np.exp(-2.0 * m) * upper
    tol = 1e-12 * max(1.0, upper)
    passed = (lower <= weighted + tol) and (weighted <= upper + tol)
    return NormEquivalenceReport(
        m=float(m), lower=float(lower), weighted=float(weighted),
        upper=float(upper), tolerance=float(tol), passed=bool(passed),
    )


#: What the four left-hand sides of the Lemma-3.1-style report measure.
LEMMA31_SIDES = ("state", "cum_abs_state", "cum_abs_dx", "cum_abs_dy")


@dataclass(frozen=True)
class Lemma31Report:
    """Four weighted norms of derived fields against the (2/m)‖z‖_m bound.

    sides[k] is the weighted L²_m norm of: the state z; the cumulative
    integral of |z|; of |z_x|; of |z_y| (order of ``LEMMA31_SIDES``).
    """

    m: float
    bound: float
    sides: tuple[float, float, float, float]
    margins: tuple[float, float, float, float]
    tolerance: float
    flags: tuple[bool, bool, bool, bool]

    @property
    def passed(self) -> bool:
        return all(self.flags)


def verify_lemma31(g: GridField, m: float) -> Lemma31Report:
    """Check the four smallness estimates for the state built from g.

    The discrete tolerance is 10 h² ‖g‖_{L²} (both sides carry O(h²)
    quadrature error; the continuum inequalities are strict).
    """
    if m <= 0:
        raise ParameterError(f"the smallness estimates need m > 0, got {m}")
    if not math.isfinite(2.0 / m):
        raise ParameterError(f"the smallness bound 2/m overflows at m = {m}")
    h = g.grid.h
    z, zx, zy = state_from_g(g.values, h)
    norms = WeightedNorms(g.grid, m)
    magnitudes = (np.sqrt((f**2).sum(axis=2, keepdims=True)) for f in (z, zx, zy))
    sides = (norms.norm(z), *(norms.norm(cum2d_array(a, h)) for a in magnitudes))
    bound = (2.0 / m) * norms.norm(g.values)
    tol = 10.0 * h**2 * WeightedNorms(g.grid, 0.0).norm(g.values)
    margins = tuple(bound - s for s in sides)
    flags = tuple(mg >= -tol for mg in margins)
    return Lemma31Report(
        m=float(m), bound=float(bound), sides=sides,
        margins=margins, tolerance=float(tol), flags=flags,
    )
