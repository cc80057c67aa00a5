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
also run strip by strip over rows: ``row_strips`` cuts a grid into strips
of about ``_STRIP_BYTES`` per array, ``state_strips`` rebuilds the state
and ``cum2d_strip`` integrates one strip at a time, each carrying the last
row of its axis-0 prefix sums into the next strip, with the whole-grid bits.
``state_from_g`` and ``cum2d_array`` remain the whole-grid entries, and one
prefix-sum helper with an optional carry row sits behind all of them.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import EvalFaultError, InvalidResolutionError, ShapeError


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

def _prefix_rows(cells: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
    """Prefix-sum ``cells`` along axis 0 in place, continuing from ``carry``,
    the sum of the rows before them (None: from zero, with no addition)."""
    if carry is not None:
        cells[0] += carry
    return np.cumsum(cells, axis=0, out=cells)


def _cell_means(cells: np.ndarray, lo: np.ndarray, hi: np.ndarray, h: float) -> np.ndarray:
    """Write h²/4 times the sum of each cell's four corner values into
    ``cells``: the cells between the node rows ``lo`` and the rows ``hi``
    above them."""
    np.add(lo[:, :-1], hi[:, :-1], out=cells)
    cells += lo[:, 1:]
    cells += hi[:, 1:]
    cells *= h * h / 4.0
    return cells


def cum2d_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative double integral by 2D prefix sums of per-cell averages."""
    out = np.zeros_like(values)
    cells = _cell_means(out[1:, 1:], values[:-1], values[1:], h)
    _prefix_rows(cells)
    np.cumsum(cells, axis=1, out=cells)
    return out


def _cum_into(out: np.ndarray, values: np.ndarray, axis: int, h: float,
              carried: bool = False) -> np.ndarray:
    """Write the cumulative trapezoid integral of ``values`` along ``axis``
    into ``out``.  The first slice along that axis is the integral's start:
    it stays zero at the edge, or with ``carried`` holds the integral up to
    there, which the sums continue."""
    v, start = (values, out) if axis == 0 else (values.swapaxes(0, 1), out.swapaxes(0, 1))
    cells = start[1:]
    np.add(v[:-1], v[1:], out=cells)
    cells *= h / 2.0
    _prefix_rows(cells, start[0] if carried else None)
    return out


def cumx_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along x for each fixed y-row; row i = 0 is zero."""
    return _cum_into(np.zeros_like(values), values, 0, h)


def cumy_array(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along y for each fixed x-column; column j = 0 is zero."""
    return _cum_into(np.zeros_like(values), values, 1, h)


#: Bytes of one strip array, (rows, P, n) floats, near which the row-strip
#: evaluation keeps its temporaries.  Each strip also costs a fixed walk of
#: the expressions, and on the measured machine (2 MiB of L2 per core) a grid
#: array up to N = 512 gains nothing from smaller blocks.  So the budget is
#: small enough that F at N = 1024 (``mms``'s fine grid) peaks near its input
#: and output, and large enough that grids up to N = 383 run as one strip.
#: From a sweep of 64 KiB to 4 MiB strips at N = 256, 512 and 1024 (CHANGES.md).
_STRIP_BYTES = 768 * 1024


def row_strips(points: int, n: int) -> list[slice]:
    """The consecutive row strips of a (points, points, n) evaluation, each
    about ``_STRIP_BYTES`` of a (rows, points, n) array; at least two rows,
    so that the first strip has a row of cells."""
    rows = max(2, _STRIP_BYTES // (points * n * 8))
    return [slice(i, min(i + rows, points)) for i in range(0, points, rows)]


def in_strips(run, points: int, n: int):
    """``run(strips)`` over the ``row_strips`` of a (points, points, n) evaluation.

    On an evaluation fault (overflow included) the grid is run again as one
    strip, so that the fault raised is the whole-grid evaluation's: the
    first expression, and node, that faults at any point, at its first point
    in row-major order.  A strip could only report one faulting in its rows.
    """
    strips = row_strips(points, n)
    if len(strips) > 1:
        try:
            return run(strips)
        except EvalFaultError:
            pass  # leave the handler first: the fault raised must not chain to this one
    return run([slice(0, points)])


def cum2d_strip(out: np.ndarray, values: np.ndarray, rows: slice, h: float,
                carry: np.ndarray | None) -> np.ndarray:
    """Write the rows ``rows`` of the cumulative double integral into ``out``,
    from ``values``, the integrand on those rows; strips come in order.

    ``carry`` is a (2, P, n) buffer (None for one strip over the grid): row 0
    keeps the integrand's last row and row 1, from column 1, the axis-0
    prefix sums of the last cell row, which the next strip continues.  The
    rows get the bits of ``cum2d_array``.
    """
    out[rows, 0] = 0.0
    if rows.start == 0:
        out[0] = 0.0
        cells = _cell_means(out[1:rows.stop, 1:], values[:-1], values[1:], h)
    else:
        cells = out[rows, 1:]
        _cell_means(cells[:1], carry[0, None], values[:1], h)
        _cell_means(cells[1:], values[:-1], values[1:], h)
    _prefix_rows(cells, carry[1, 1:] if rows.start else None)
    if rows.stop < out.shape[0]:
        carry[0], carry[1, 1:] = values[-1], cells[-1]
    return np.cumsum(cells, axis=1, out=cells)


def state_strips(g: np.ndarray, h: float, strips: list[slice], zy: bool = True):
    """Yield ``(rows, z, z_x, z_y)`` of the mixed derivative g = z_xy for each
    strip of ``row_strips``, in order.

    The arrays hold the strip's rows of the state that ``state_from_g``
    builds, with the same bits: z_x is row-local, and the axis-0 prefix sums
    of z and z_y continue from the last row of the strip before.  They are
    views of one buffer that the next strip overwrites; z_y is None without
    ``zy``.
    """
    longest = max(s.stop - s.start for s in strips)
    buf = np.zeros((3 if zy else 2, min(longest + 1, g.shape[0])) + g.shape[1:])
    last = 0
    for s in strips:
        lo = max(s.start - 1, 0)  # the window starts at the carried row
        win = buf[:, :s.stop - lo]
        carried = s.start > 0
        if carried:
            buf[:, 0] = buf[:, last]
        _cum_into(win[1, s.start - lo:], g[s], 1, h)
        _cum_into(win[0], win[1], 0, h, carried)
        if zy:
            _cum_into(win[2], g[lo:s.stop], 0, h, carried)
        last = s.stop - lo - 1
        state = win[:, s.start - lo:]
        yield s, state[0], state[1], state[2] if zy else None


def state_from_g(g: np.ndarray, h: float, zy: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state arrays (z, z_x, z_y) of the mixed derivative g = z_xy.

    z_x = cumy(g), z_y = cumx(g) and z = cumx(z_x): the tensor trapezoid of
    ``cum2d_array(g)`` (equal up to rounding) in three prefix-sum passes
    instead of four.  The homogeneous edge values are exactly zero.  The
    arrays share one buffer, so a rebuild allocates once.  With ``zy`` false
    the z_y that z does not need is neither allocated nor built: it is None.
    This is the whole-grid entry; ``state_strips`` gives the same rows
    strip by strip.
    """
    return next(state_strips(g, h, [slice(0, g.shape[0])], zy))[1:]


# -- fields at the API boundary ---------------------------------------------

def reconstruct_state(g: GridField) -> tuple[GridField, GridField, GridField]:
    """The fields (z, z_x, z_y) of the mixed derivative g = z_xy."""
    return tuple(GridField(g.grid, a) for a in state_from_g(g.values, g.grid.h))

