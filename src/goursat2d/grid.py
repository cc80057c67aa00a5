"""Uniform discretization of the unit square and causal Volterra quadrature.

The computational domain is Q = [0, 1]^2, meshed by a uniform tensor grid
with ``cells`` intervals per axis (nodes x_i = i * h, h = 1 / cells).  All
integrals are composite trapezoid sums; cumulative (Volterra) integrals are
prefix sums of per-cell contributions, where each cell contributes

    h^2 / 4 * (f[i, j] + f[i+1, j] + f[i, j+1] + f[i+1, j+1]),

i.e. the exact integral of the bilinear interpolant on that cell.  This makes
the cumulative maps exact for fields of per-axis degree <= 1 and keeps the
Volterra causality structure: the value at node (i, j) depends only on nodes
with indices (<= i, <= j).

State reconstruction follows the representation of absolutely continuous
functions with homogeneous edge data: given the mixed derivative g = z_xy,

    z(x, y)   = int_0^x int_0^y g(s, t) ds dt,
    z_x(x, y) = int_0^y g(x, t) dt,
    z_y(x, y) = int_0^x g(s, y) ds,

so z, z_x vanish on the edge y = 0 and z, z_y vanish on the edge x = 0
exactly (prefix sums start at zero; no rounding is involved).  The state is
therefore never stored: g is the only state, the numerical core rebuilds
the arrays with ``state_from_g`` where it needs them, and
``reconstruct_state`` gives them as fields at the API boundary.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidResolutionError, ShapeError


class Grid:
    """Uniform mesh of the unit square with ``cells`` intervals per axis.

    Attributes:
        cells: number of intervals per axis (>= 2).
        h: node spacing, 1 / cells.
        nodes: node coordinates, shape (cells + 1,), shared by both axes.
    """

    __slots__ = ("cells", "h", "nodes")

    def __init__(self, cells: int):
        if not isinstance(cells, numbers.Integral) or isinstance(cells, bool):
            raise InvalidResolutionError(f"grid cells must be an integer, got {cells!r}")
        cells = int(cells)
        if cells < 2:
            raise InvalidResolutionError(f"grid needs at least 2 cells per axis, got {cells}")
        self.cells = cells
        self.h = 1.0 / cells
        nodes = np.arange(cells + 1, dtype=float) / cells
        nodes.setflags(write=False)
        self.nodes = nodes

    @property
    def npoints(self) -> int:
        """Nodes per axis (cells + 1)."""
        return self.cells + 1

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate matrices X, Y with shape (cells+1, cells+1), 'ij' indexing.

        They equal ``np.meshgrid(nodes, nodes, indexing="ij")``, but both are
        read-only broadcast views of ``nodes`` that hold no grid-sized memory.
        """
        shape = (self.npoints, self.npoints)
        return (np.broadcast_to(self.nodes[:, None], shape),
                np.broadcast_to(self.nodes[None, :], shape))

    def trapezoid_weights(self) -> np.ndarray:
        """1D composite-trapezoid node weights: h * [1/2, 1, ..., 1, 1/2]."""
        w = np.full(self.cells + 1, self.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.cells == self.cells

    def __hash__(self) -> int:
        return hash(("Grid", self.cells))

    def __repr__(self) -> str:
        return f"Grid(cells={self.cells})"


def build_grid(cells: int) -> Grid:
    """Build the uniform grid with ``cells`` intervals per axis (cells >= 2)."""
    return Grid(cells)


class GridField:
    """An R^n-valued sample array over the grid nodes.

    Values are stored as a read-only float array of shape
    (cells+1, cells+1, n) and validated to be finite on construction.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.array(values, dtype=float, copy=True)
        p = grid.npoints
        if values.ndim != 3 or values.shape[0] != p or values.shape[1] != p or values.shape[2] < 1:
            raise ShapeError(
                f"field values must have shape ({p}, {p}, n), got {values.shape}"
            )
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"non-finite field value at node (i={bad[0]}, j={bad[1]}), component {bad[2]}"
            )
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @property
    def n(self) -> int:
        """State dimension."""
        return self.values.shape[2]

    def __add__(self, other: "GridField") -> "GridField":
        _check_same_shape(self, other)
        return GridField(self.grid, self.values + other.values)

    def __sub__(self, other: "GridField") -> "GridField":
        _check_same_shape(self, other)
        return GridField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridField":
        return GridField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "GridField":
        return GridField(self.grid, self.values / float(scalar))

    def __neg__(self) -> "GridField":
        return GridField(self.grid, -self.values)

    def __repr__(self) -> str:
        return f"GridField(cells={self.grid.cells}, n={self.n})"


def _check_same_shape(a: GridField, b: GridField) -> None:
    if a.grid != b.grid:
        raise ShapeError(f"fields live on different grids: {a.grid} vs {b.grid}")
    if a.n != b.n:
        raise ShapeError(f"fields have different state dimensions: {a.n} vs {b.n}")


# -- array-level kernels (values of shape (P, P, n)) -------------------------
#
# The kernels accumulate in their output array instead of allocating per-cell
# temporaries.  At N = 512 each array is 2 MB, and a solve that frees many of
# them lets the C heap return its top pages to the OS; faulting them back in
# cost more than the arithmetic (measured with getrusage minor-fault counts).
# Expression evaluation and the operator follow the same rule: they write
# into arrays they allocated themselves, never into their inputs, and return
# fresh writable arrays.

def cum2d_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative double integral by 2D prefix sums of per-cell averages."""
    out = np.zeros_like(values)
    cells = out[1:, 1:]
    np.add(values[:-1, :-1], values[1:, :-1], out=cells)
    cells += values[:-1, 1:]
    cells += values[1:, 1:]
    cells *= h * h / 4.0
    np.cumsum(cells, axis=0, out=cells)
    np.cumsum(cells, axis=1, out=cells)
    return out


def _cum_into(out: np.ndarray, values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Write the cumulative trapezoid integral of ``values`` along ``axis``
    into ``out``, whose first slice along that axis stays zero."""
    v = np.moveaxis(values, axis, 0)
    cells = np.moveaxis(out, axis, 0)[1:]
    np.add(v[:-1], v[1:], out=cells)
    cells *= h / 2.0
    np.cumsum(cells, axis=0, out=cells)
    return out


def cumx_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along x for each fixed y-row; row i = 0 is zero."""
    return _cum_into(np.zeros_like(values), values, 0, h)


def cumy_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along y for each fixed x-column; column j = 0 is zero."""
    return _cum_into(np.zeros_like(values), values, 1, h)


def state_from_g(g: np.ndarray, h: float, zy: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state arrays (z, z_x, z_y) of the mixed derivative g = z_xy.

    z_x = cumy(g), z_y = cumx(g) and z = cumx(z_x): the tensor trapezoid of
    ``cum2d_array(g)`` (equal up to rounding) in three prefix-sum passes
    instead of four.  The homogeneous edge values are exactly zero.  The
    arrays share one buffer, so a rebuild allocates once.  With ``zy`` false
    the z_y that z does not need is neither allocated nor built: it is None.
    """
    state = np.zeros((3 if zy else 2,) + g.shape)
    _cum_into(state[1], g, 1, h)
    _cum_into(state[0], state[1], 0, h)
    if zy:
        _cum_into(state[2], g, 0, h)
    return state[0], state[1], state[2] if zy else None


# -- fields at the API boundary ---------------------------------------------

def reconstruct_state(g: GridField) -> tuple[GridField, GridField, GridField]:
    """The fields (z, z_x, z_y) of the mixed derivative g = z_xy."""
    return tuple(GridField(g.grid, a) for a in state_from_g(g.values, g.grid.h))

