"""Lossless CSV/JSON round trips for grids, fields, and reports.

Floats are written with 17 significant digits, which reloads binary64
bit-exactly, so residual norms recomputed from an emitted grid match the
report.  Files are written atomically — a temp file in the target directory,
then ``os.replace`` — so readers never observe a partial file.  Reports are
single JSON objects with insertion-ordered keys and no timestamps: repeated
runs with the same inputs must produce byte-identical bytes.

Grid bundles are row-major in i then j with header
``i,j,x,y,g_1..g_n,z_1..z_n,zx_1..zx_n,zy_1..zy_n``; plain fields use
``i,j,x,y,v_1..v_n``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import SchemaError, ShapeError
from .grid import Grid, GridField, StateTriple, build_grid


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write_text(path: str | os.PathLike, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
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
    lines = [",".join(_columns(tuple(blocks), n))]
    for i in range(grid.npoints):
        for j in range(grid.npoints):
            cells = [str(i), str(j), _fmt(grid.nodes[i]), _fmt(grid.nodes[j])]
            for block in blocks.values():
                cells += [_fmt(block[i, j, k]) for k in range(n)]
            lines.append(",".join(cells))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _read_nodes(path: str | os.PathLike, prefixes: tuple[str, ...]) -> tuple[Grid, np.ndarray]:
    """Read a node table written by ``_write_nodes`` with the given blocks.

    n is the number of ``prefixes[0]_k`` header columns.  Returns the grid and
    the values, shape (P, P, len(prefixes)·n), blocks in ``prefixes`` order.
    """
    path = Path(path)
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise SchemaError("file is empty", path=str(path))
    lead = f"{prefixes[0]}_"
    n = sum(1 for c in lines[0].split(",") if c.startswith(lead))
    if n < 1:
        raise SchemaError(f"no {lead}k columns in header {lines[0]!r}", path=str(path))
    expected = _columns(prefixes, n)
    if lines[0].split(",") != expected:
        raise SchemaError(
            f"header mismatch: expected {','.join(expected)!r}, got {lines[0]!r}",
            path=str(path),
        )
    count = len(lines) - 1
    P = math.isqrt(count)
    if P * P != count or P < 2:
        raise SchemaError(f"{count} data rows do not form a square node grid", path=str(path))
    grid = build_grid(P - 1)
    data = np.full((P, P, len(expected) - 4), np.nan)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(expected):
            raise SchemaError(
                f"line {lineno}: expected {len(expected)} fields, got {len(parts)}",
                path=str(path),
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            x, y, *vals = [float(p) for p in parts[2:]]
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}", path=str(path)) from exc
        if not (0 <= i < P and 0 <= j < P):
            raise SchemaError(f"node index ({i}, {j}) outside 0..{P - 1}", path=str(path))
        if abs(x - grid.nodes[i]) > 1e-12 or abs(y - grid.nodes[j]) > 1e-12:
            raise SchemaError(
                f"node ({i}, {j}) claims coordinates ({x}, {y}), "
                f"grid has ({grid.nodes[i]}, {grid.nodes[j]})",
                path=str(path),
            )
        data[i, j, :] = vals
    if np.isnan(data).any():
        raise SchemaError("duplicate or missing node rows", path=str(path))
    return grid, data


# -- plain fields (v on the nodes) --------------------------------------------

def write_field_csv(path: str | os.PathLike, field: GridField) -> None:
    """Emit ``i,j,x,y,v_1..v_n`` rows, row-major in i then j."""
    _write_nodes(path, field.grid, {"v": field.values})


def read_field_csv(path: str | os.PathLike) -> GridField:
    return GridField(*_read_nodes(path, ("v",)))


# -- solution bundles (g plus the reconstructed state) -------------------------

def write_grid_csv(path: str | os.PathLike, g: GridField, state: StateTriple) -> None:
    """Emit the solution bundle: g = z_xy plus z, z_x, z_y per node."""
    if state.grid != g.grid:
        raise ShapeError(f"state lives on {state.grid}, g on {g.grid}")
    blocks = {"g": g.values, "z": state.z.values, "zx": state.zx.values, "zy": state.zy.values}
    _write_nodes(path, g.grid, blocks)


def read_grid_csv(path: str | os.PathLike) -> tuple[GridField, StateTriple]:
    grid, data = _read_nodes(path, ("g", "z", "zx", "zy"))
    g, z, zx, zy = (GridField(grid, block) for block in np.split(data, 4, axis=2))
    try:
        state = StateTriple(z, zx, zy)
    except ValueError as exc:
        raise SchemaError(str(exc), path=str(path)) from exc
    return g, state


# -- reports -------------------------------------------------------------------

def write_report_json(path: str | os.PathLike, report: dict) -> None:
    """Single JSON object, insertion-ordered keys, no timestamps, atomic."""
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    _atomic_write_text(path, text)


def read_report_json(path: str | os.PathLike) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
