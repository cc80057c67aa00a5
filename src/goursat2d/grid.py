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

Since row i of every cumulative map depends only on rows <= i, the maps
also run strip by strip over rows (``row_strips``): ``strip_step`` evaluates
one strip from a ``Carry``, the last rows that the prefix sums continue, and
returns the strip's rows of the state, or of (g + local) + J(inner) for
pointwise terms from its caller, with the next carry and the whole grid's
bits.  ``state_from_g`` is one strip over the grid.  The strips serve only
walks that a carry or a zero test ties together; samples take one pass.
Each walk takes its strips in row order and raises the first fault it
meets: that of the first strip in which anything faults; within it, of the
first expression evaluated; within that, of its first node in row-major
order.  No later strip is evaluated, and on a grid of one strip this is the
whole grid's fault.
"""

from __future__ import annotations

import numbers
from collections import namedtuple

import numpy as np

from .errors import ParameterError


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
            raise ParameterError(f"grid cells must be an integer, got {cells!r}")
        cells = int(cells)
        if cells < 2:
            raise ParameterError(f"grid needs at least 2 cells per axis, got {cells}")
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
    """A validated, read-only R^n-valued sample array over the grid nodes.

    Values are copied to a read-only float array of shape (cells+1, cells+1, n)
    and checked finite on construction; computation happens on ``.values``.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.array(values, dtype=float, copy=True)
        p = grid.npoints
        if values.ndim != 3 or values.shape[0] != p or values.shape[1] != p or values.shape[2] < 1:
            raise ParameterError(f"field values must have shape ({p}, {p}, n), got {values.shape}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ParameterError(
                f"non-finite field value at node (i={bad[0]}, j={bad[1]}), component {bad[2]}"
            )
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @property
    def n(self) -> int:
        """State dimension."""
        return self.values.shape[2]

    def __repr__(self) -> str:
        return f"GridField(cells={self.grid.cells}, n={self.n})"


# -- array-level kernels (values of shape (rows, P, n)) ----------------------
#
# The kernels accumulate in their output array instead of allocating per-cell
# temporaries.  At N = 512 each array is 2 MB, and a solve that frees many of
# them lets the C heap return its top pages to the OS; faulting them back in
# cost more than the arithmetic (measured with getrusage minor-fault counts).
# The operator follows the same rule: it writes into arrays it allocated
# itself, never into its inputs.  Compiled expression programs write each
# operation into an operand's array that is read there for the last time, and
# the row strips keep their temporaries near ``_STRIP_BYTES``.  Every ufunc
# writes a C-contiguous array (numpy buffers a strided one): column
# neighbours, n places apart in the flat rows, are summed there, and column
# 0, which gets the pairs across a row's end, is then zeroed.  Axis-0 prefix
# sums add row views in turn (``_cum_rows``); axis 1 keeps ``np.cumsum``, as a
# column-view walk is 1.9× (N = 512) to 3.4× (N = 1024) slower (AMD EPYC).

def _cell_sums(lo: np.ndarray, hi: np.ndarray, out: np.ndarray) -> None:
    """Write the sum of each cell's four corner values into ``out[:, 1:]``,
    for the cells between the node rows ``lo`` and ``hi``; column 0 is zero."""
    n = out.shape[-1]
    cells, lo, hi = out.reshape(-1)[n:], lo.reshape(-1), hi.reshape(-1)
    np.add(lo[:-n], hi[:-n], out=cells)
    cells += lo[n:]
    cells += hi[n:]
    out[:, 0] = 0.0


def _cum_rows(out: np.ndarray, values: np.ndarray, pairs, scale: float, carry=None) -> np.ndarray:
    """Write into ``out`` the axis-0 prefix sums of ``scale`` times
    ``pairs(lo, hi, out)`` of each node row of ``values`` with the row before
    it, continuing ``carry`` = (the values row before the first, the sum
    there); None: the rows start at x = 0, where the sum is zero.  The sums
    are a row recurrence, ``np.cumsum(axis=0)``'s adds in its order without
    its row stride: 0.06 against 0.24 ms for a 191×513 strip (AMD EPYC)."""
    pairs(values[:-1], values[1:], out[1:])
    if carry:
        pairs(carry[0][None], values[:1], out[:1])
    else:
        out[0] = 0.0
    cells = out if carry else out[1:]
    cells *= scale
    if carry:
        cells[0] += carry[1]
    rows = list(cells)
    for prev, row in zip(rows, rows[1:]):
        np.add(prev, row, out=row)
    return out


def _cumy_rows(out: np.ndarray, values: np.ndarray, h: float) -> np.ndarray:
    """Write the cumulative trapezoid integral along y (axis 1) of each row
    of ``values`` into ``out``."""
    n = out.shape[-1]
    cells, v = out.reshape(-1)[n:], values.reshape(-1)
    np.add(v[:-n], v[n:], out=cells)
    cells *= h / 2.0
    out[:, 0] = 0.0
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return out


def _cum2d_rows(out: np.ndarray, values: np.ndarray, h: float, carry=None):
    """Write the cumulative double integral of the rows ``values`` into
    ``out``, continuing ``carry`` = (the values row before, the axis-0 prefix
    sums of the cell means there), and return the carry of the next rows."""
    _cum_rows(out, values, _cell_sums, h * h / 4.0, carry)
    following = values[-1].copy(), out[-1].copy()
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    return following


def cum2d_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative double integral by 2D prefix sums of per-cell averages."""
    _cum2d_rows(out := np.empty(values.shape), values, h)
    return out


def cumx_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along x for each fixed y-row; row i = 0 is zero."""
    return _cum_rows(np.empty(values.shape), values, np.add, h / 2.0)


def cumy_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along y for each fixed x-column; column j = 0 is zero."""
    return _cumy_rows(np.empty(values.shape), values, h)


#: Bytes of one strip array, (rows, P, n) floats, near which the row-strip
#: evaluation keeps its temporaries.  Each strip also costs a fixed walk of
#: the expressions, and on the measured machine (2 MiB of L2 per core) a grid
#: array up to N = 512 gains nothing from smaller blocks.  So the budget is
#: small enough that F at N = 1024 (``mms``'s fine grid) peaks near its input
#: and output, and large enough that n = 1 grids up to N = 312 run as one
#: strip (one strip needs P²·8 bytes ≤ the budget, so P ≤ 313).
#: From a sweep of 64 KiB to 4 MiB strips at N = 256, 512 and 1024 (CHANGES.md).
_STRIP_BYTES = 768 * 1024


def row_strips(points: int, n: int) -> list[slice]:
    """The consecutive row strips of a (points, points, n) evaluation, each
    about ``_STRIP_BYTES`` of a (rows, points, n) array; at least two rows,
    so that the first strip has a row of cells."""
    rows = max(2, _STRIP_BYTES // (points * n * 8))
    return [slice(i, min(i + rows, points)) for i in range(0, points, rows)]


#: The fresh (P, n) rows that a strip passes to the strip after it: the last
#: row of g, z, z_x and z_y, the integrand's last row and the axis-0 prefix
#: sums of its cell means; a row that the strip did not build is None.
Carry = namedtuple("Carry", "g z zx zy inner prefix", defaults=(None, None))


def strip_step(g: np.ndarray, carry: Carry | None, h: float, terms=None, zx: bool = True,
               zy: bool = True, out: np.ndarray | None = None):
    """Evaluate a strip of rows from the ``Carry`` of the rows before it
    (None at x = 0) and return the rows and their carry.  ``g`` holds the
    strip's rows; no other row is read and neither g nor the carry written,
    so a strip evaluated again from the same carry gives the same bits.
    The rows are the state (z, z_x, z_y), three arrays, or with ``terms``, a
    function (z, z_x, z_y) -> (local, inner), (g + local) + J(inner) written
    into ``out``.  Without ``zy`` z_y is None, and without ``zx`` so is
    z_x, which is freed once z and the carry, which need it, are built.
    The step reads no state row after ``terms``, so local and inner
    may be fresh arrays or state rows that ``terms`` wrote over.
    """
    zx_ = _cumy_rows(np.empty(g.shape), g, h)
    z = _cum_rows(np.empty(g.shape), zx_, np.add, h / 2.0, carry and (carry.zx, carry.z))
    zy_ = None
    if zy:
        zy_ = _cum_rows(np.empty(g.shape), g, np.add, h / 2.0, carry and (carry.g, carry.zy))
    following = Carry(*(None if a is None else a[-1].copy() for a in (g, z, zx_, zy_)))
    if not zx:
        zx_ = None
    if terms is None:
        return (z, zx_, zy_), following
    local, inner = terms(z, zx_, zy_)
    del z, zx_, zy_  # free the state before ``out`` is allocated
    local += g
    if out is None:
        out = np.empty(g.shape)
    inner_row, prefix = _cum2d_rows(out, inner, h, carry and (carry.inner, carry.prefix))
    out += local
    return out, following._replace(inner=inner_row, prefix=prefix)


def state_from_g(g: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state arrays (z, z_x, z_y) of the mixed derivative g = z_xy.

    z_x = cumy(g), z_y = cumx(g) and z = cumx(z_x): the tensor trapezoid of
    ``cum2d_array(g)`` (equal up to rounding) in three prefix-sum passes
    instead of four.  The homogeneous edge values are exactly zero.  This
    is one ``strip_step`` over the grid, and the three are separate arrays.
    """
    return strip_step(g, None, h)[0]


# -- fields at the API boundary ---------------------------------------------

def reconstruct_state(g: GridField) -> tuple[GridField, GridField, GridField]:
    """The fields (z, z_x, z_y) of the mixed derivative g = z_xy."""
    return tuple(GridField(g.grid, a) for a in state_from_g(g.values, g.grid.h))
