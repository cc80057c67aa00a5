"""Lossless CSV/JSON round trips for grids, fields, and reports.

Floats are written with 17 significant digits, which reloads binary64
bit-exactly, so residual norms recomputed from an emitted grid match the
report.  Files are written atomically — a temp file in the target directory,
then ``os.replace`` — so readers never observe a partial file.  Reports are
single JSON objects with insertion-ordered keys and no timestamps: repeated
runs with the same inputs must produce byte-identical bytes.

Grid bundles are row-major in i then j with header
``i,j,x,y,g_1..g_n,z_1..z_n,zx_1..zx_n,zy_1..zy_n``; plain fields use
``i,j,x,y,v_1..v_n``.  A bundle stores g = z_xy, the only state, and its
derived z, z_x, z_y for readers of the file; loading returns g and rejects
a bundle whose state columns are not g's state.

Readers stream the file: the data rows go from the open file straight into
numpy's parser, so a read holds about one parsed table, not the text.
Lines end at ``\n``, ``\r\n`` or ``\r``; blank and whitespace-only lines are
skipped, and line numbers in errors count the other lines, the header being
line 1.  A file that is not UTF-8 text is a ``SchemaError`` naming the file.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from collections.abc import Iterable
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .grid import Grid, GridField, build_grid, state_from_g


def _atomic_write(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` into a temp file beside ``path``, then rename it over."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _columns(prefixes: tuple[str, ...], n: int) -> list[str]:
    return ["i", "j", "x", "y", *(f"{p}_{k + 1}" for p in prefixes for k in range(n))]


def _write_nodes(path: str | os.PathLike, grid: Grid, blocks: dict[str, np.ndarray]) -> None:
    """Emit one row per node, row-major in i then j: ``i,j,x,y`` and then,
    per block, its n components as ``prefix_1..prefix_n``."""
    n = next(iter(blocks.values())).shape[2]
    vals = np.concatenate(list(blocks.values()), axis=2)
    row = "%d,%d,%s,%s," + ",".join(["%.17g"] * vals.shape[2]) + "\n"
    coords = ["%.17g" % x for x in grid.nodes.tolist()]

    def chunks():
        yield ",".join(_columns(tuple(blocks), n)) + "\n"
        for i, x in enumerate(coords):
            yield "".join(
                row % (i, j, x, coords[j], *cells) for j, cells in enumerate(vals[i].tolist())
            )

    _atomic_write(path, chunks())


def _read_nodes(path: str | os.PathLike, prefixes: tuple[str, ...]) -> tuple[Grid, np.ndarray]:
    """Read a node table written by ``_write_nodes`` with the given blocks.

    n is the number of ``prefixes[0]_k`` header columns.  Returns the grid and
    the values, shape (P, P, len(prefixes)·n), blocks in ``prefixes`` order.
    The non-blank data rows stream from the open file into numpy's parser; a
    table that does not parse into the header's columns is read a second
    time, to report its faults in the order a line-by-line check would.
    """
    fault = partial(SchemaError, path=str(Path(path)))
    try:
        with open(path, encoding="utf-8") as f:
            lines = (ln for ln in f if not ln.isspace())
            header = next(lines, "").rstrip("\n")
            if not header:
                raise fault("file is empty")
            lead = f"{prefixes[0]}_"
            n = sum(1 for c in header.split(",") if c.startswith(lead))
            if n < 1:
                raise fault(f"no {lead}k columns in header {header!r}")
            expected = _columns(prefixes, n)
            if header.split(",") != expected:
                raise fault(f"header mismatch: expected {','.join(expected)!r}, got {header!r}")
            first, table, error = next(lines, None), np.empty((0, len(expected))), None
            try:
                if first is not None:  # loadtxt warns on a table with no rows
                    table = np.loadtxt(chain([first], lines), delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                error = exc
            count, widths = len(table), []
            if error is not None or table.shape[1] != len(expected):
                # a second pass counts the rows and fields of a table that did not parse
                f.seek(0)
                widths = [ln.count(",") + 1 for ln in f if not ln.isspace()][1:]
                count = len(widths)
    except UnicodeDecodeError as exc:
        # the decoder's position counts from its read chunk, not from the file start
        raise fault("not UTF-8 text") from exc
    P = math.isqrt(count)
    if P * P != count or P < 2:
        raise fault(f"{count} data rows do not form a square node grid")
    for lineno, width in enumerate(widths, start=2):
        if width != len(expected):
            raise fault(f"line {lineno}: expected {len(expected)} fields, got {width}")
    if error is not None:
        row = re.search(r"at row (\d+)", str(error))
        where = f"line {int(row[1]) + 2}" if row else f"lines 2..{count + 1}"
        raise fault(f"{where}: {error}") from error
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        k, c = bad[0]
        raise fault(f"line {k + 2}: column {expected[c]} holds {float(table[k, c])!r}, "
                    "not a finite number")

    index = table[:, :2]
    bad = np.flatnonzero((index != np.trunc(index)).any(axis=1))
    if bad.size:
        k = bad[0]
        raise fault(f"line {k + 2}: node index ({index[k, 0]:g}, {index[k, 1]:g}) "
                    "is not a pair of integers")
    bad = np.flatnonzero(((index < 0) | (index >= P)).any(axis=1))
    if bad.size:
        k = bad[0]
        raise fault(f"node index ({index[k, 0]:g}, {index[k, 1]:g}) outside 0..{P - 1}")
    grid = build_grid(P - 1)
    i, j = index.astype(np.intp).T
    x, y = table[:, 2], table[:, 3]
    bad = np.flatnonzero((np.abs(x - grid.nodes[i]) > 1e-12) | (np.abs(y - grid.nodes[j]) > 1e-12))
    if bad.size:
        k = bad[0]
        raise fault(f"node ({i[k]}, {j[k]}) claims coordinates ({x[k]}, {y[k]}), "
                    f"grid has ({grid.nodes[i[k]]}, {grid.nodes[j[k]]})")
    data = np.full((P, P, len(expected) - 4), np.nan)
    data[i, j, :] = table[:, 4:]
    if np.isnan(data).any():
        raise fault("duplicate or missing node rows")
    return grid, data


# -- plain fields (v on the nodes) --------------------------------------------

def write_field_csv(path: str | os.PathLike, field: GridField) -> None:
    """Emit ``i,j,x,y,v_1..v_n`` rows, row-major in i then j."""
    _write_nodes(path, field.grid, {"v": field.values})


def read_field_csv(path: str | os.PathLike) -> GridField:
    return GridField(*_read_nodes(path, ("v",)))


# -- solution bundles (g plus the state rebuilt from it) -----------------------

def write_grid_csv(path: str | os.PathLike, g: GridField) -> None:
    """Emit the solution bundle: g = z_xy plus its state z, z_x, z_y per node."""
    z, zx, zy = state_from_g(g.values, g.grid.h)
    _write_nodes(path, g.grid, {"g": g.values, "z": z, "zx": zx, "zy": zy})


def read_grid_csv(path: str | os.PathLike) -> GridField:
    """The g of a solution bundle whose z, z_x, z_y columns are, bit for bit,
    the state ``write_grid_csv`` derives from that g."""
    grid, data = _read_nodes(path, ("g", "z", "zx", "zy"))
    n = data.shape[2] // 4
    g, stored = GridField(grid, data[:, :, :n]), data[:, :, n:]
    state = np.concatenate(state_from_g(g.values, grid.h), axis=2)
    bad = np.argwhere(stored.view(np.uint64) != state.view(np.uint64))
    if bad.size:
        i, j, k = bad[0]
        raise SchemaError(
            f"column {_columns(('z', 'zx', 'zy'), n)[4 + k]} at node ({i}, {j}) holds "
            f"{float(stored[i, j, k])!r}, but the state of the file's g has "
            f"{float(state[i, j, k])!r}", path=str(path),
        )
    return g


# -- reports -------------------------------------------------------------------

def write_report_json(path: str | os.PathLike, report: dict) -> None:
    """Single JSON object, insertion-ordered keys, no timestamps, atomic."""
    _atomic_write(path, [json.dumps(report, indent=2, allow_nan=False) + "\n"])


def read_report_json(path: str | os.PathLike) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
