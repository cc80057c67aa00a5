"""Lossless CSV/JSON round trips for grids, fields, and reports.

Floats are written with ``%.17g``, which reloads binary64 bit-exactly, so
residual norms recomputed from an emitted grid match the report; the CSV
writers format whole arrays in integer arithmetic with the same bytes.
Files are written atomically — a temp file in the target directory, then
``os.replace``, with the mode ``open`` gives — so readers never observe a
partial file.  Reports are single JSON objects with insertion-ordered keys
and no timestamps: repeated runs with the same inputs must produce
byte-identical bytes.

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
from functools import cache, partial
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .grid import Grid, GridField, build_grid, state_from_g


def _atomic_write(path: str | os.PathLike, chunks: Iterable[bytes | str]) -> None:
    """Stream ``chunks`` (bytes, or str as UTF-8) to a temp file beside ``path``; rename it over."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(c.encode() if isinstance(c, str) else c for c in chunks)
        os.umask(umask := os.umask(0))
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _columns(prefixes: tuple[str, ...], n: int) -> list[str]:
    return ["i", "j", "x", "y", *(f"{p}_{k + 1}" for p in prefixes for k in range(n))]


_U64 = np.uint64
_CHUNK_BYTES = 3 << 18  # bytes of row table formatted at a time


@cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """``_format_cells``'s rows per class c = k + 12 (0: |x| < 1e-11); the characters of 0..9999."""
    rows = []
    for k in range(-12, 16):
        lead = 1 - k if -5 < k < 0 else 1  # characters before digit 1 ("0.000")
        low = k + 1 if k >= 0 else int(k < -4)  # digits before the point
        fixed = bytearray((b"0" * lead if lead > 1 else b"").ljust(24, b"\0"))
        fixed[max(low, 1)] = ord(".")
        tail = (f"e-{-k:02d}".encode() if -12 < k < -4 else b"").rjust(22, b"\0")  # %g's exponent form
        words = [int.from_bytes(text[i:i + 8], "little")
                 for text in (b"\xff" * low + bytes(24 - low), fixed, tail + bytes(2)) for i in (0, 8, 16)]
        p5 = 5 ** (16 - k) if k > -12 else 0
        rows.append([1059 + k, p5 & (2**32 - 1), p5 >> 32, *words[:6], words[8], 8 * lead])
    n = np.arange(100, dtype=_U64)
    pairs = (n // _U64(10) + _U64(48)) | ((n - n // _U64(10) * _U64(10) + _U64(48)) << _U64(8))
    return np.array(rows, dtype=_U64).T.copy(), (pairs[:, None] | (pairs << _U64(16))).ravel()


def _format_cells(x: np.ndarray) -> np.ndarray:
    """``"," + format(v, ".17g")`` of each v in ``x`` in 26 bytes (shape
    ``x.shape + (26,)``), NUL where there is no character: the comma, the
    sign and the text, laid out in little-endian words.

    x = m·2^(e-1075) with 10^k <= |x| < 10^(k+1) has the 17 digits
    d = round_half_even(|x|·10^p) = round(m·5^p / 2^s), p = 16 - k.  Each
    class of k has 1075 - p, the limbs of 5^p and its text layout.  Values
    with s out of 1..63 (|x| < 1e-11 or >= 2^52), and those whose k log10
    misjudged (d not in [10^16, 10^17)), are formatted by ``format``."""
    classes, quad = _tables()
    ab = x.view(_U64) & _U64(2**63 - 1)
    c = np.fmin(np.log10(np.fmax(ab.view(np.float64), 1e-12)) + 12, 27).astype(np.intp)
    s, p0, p1 = np.take(classes[:3], c, axis=1)
    m, m1 = ab & _U64(2**32 - 1), ((ab >> _U64(32)) & _U64(2**20 - 1)) | _U64(2**20)  # limbs of m
    lo = m * p0
    mid = m * p1 + m1 * p0 + (lo >> _U64(32))
    hi = m1 * p1 + (mid >> _U64(32))
    lo = (mid << _U64(32)) | (lo & _U64(2**32 - 1))  # m·5^p = hi·2^64 + lo
    s -= ab >> _U64(52)  # wraps far out of 1..63 when |x| is out of range
    r = _U64(64) - s
    d = (hi << r) | (lo >> s)  # floor(|x|·10^p)
    ok = ((s - _U64(1)) < _U64(63)) & (d >= _U64(10**16)) | (ab == _U64(0))
    d += ((lo << r) | (d & _U64(1))) > _U64(2**63)  # ties to even
    ok &= d < _U64(10**17)
    del ab, s, p0, p1, m, m1, lo, mid, hi, r
    # the 17 digit characters: the first, then eight each in two words
    q = d // _U64(10**8)
    eights = np.stack([q - q // _U64(10**8) * _U64(10**8), d - q * _U64(10**8)])
    d = q // _U64(10**8) + _U64(48)
    fours = eights // _U64(10**4)
    a, b = quad[fours.view(np.int64)] | (quad[(eights - fours * _U64(10**4)).view(np.int64)] << _U64(32))
    chars = np.stack([d | (a << _U64(8)), (a >> _U64(56)) | (b << _U64(8)), b >> _U64(56)])
    del d, q, eights, fours, a, b
    # the digits after the point move past it; trailing zeros after it go, then the point if bare
    rows = np.take(classes[3:], c, axis=1)
    low, t = rows[:3], rows[7]
    high = chars - (chars & low)
    text = (chars & low) | rows[3:6] | (high << t)
    text[1:] |= high[:-1] >> (_U64(64) - t)
    keep = (text + _U64(0x4F4F4F4F4F4F4F4F)) & _U64(0x8080808080808080)  # digits 1..9
    for shift in (8, 16, 32):
        keep |= keep >> _U64(shift)
    keep[1] |= (keep[2] & _U64(0x80)) * _U64(0x0101010101010101)
    keep[0] |= (keep[1] & _U64(0x80)) * _U64(0x0101010101010101)
    text &= (keep >> _U64(7)) * _U64(0xFF) | low
    text[2] |= rows[6]
    cells = np.empty(x.shape + (4,), "<u8")
    cells[..., 0] = (x.view(_U64) >> _U64(63)) * _U64(ord("-") << 56) | _U64(ord(",") << 48)
    cells[..., 1], cells[..., 2], cells[..., 3] = text
    if not ok.all():
        rest = np.nonzero(~ok)
        text = "".join("\0" * 6 + ",\0" + format(v, ".17g").ljust(24, "\0") for v in x[rest].tolist())
        cells[rest] = np.frombuffer(text.encode(), "<u8").reshape(-1, 4)
    return cells.view(np.uint8)[..., 6:]


def _write_nodes(path: str | os.PathLike, grid: Grid, blocks: dict[str, np.ndarray]) -> None:
    """Emit one row per node, row-major in i then j: ``i,j,x,y`` and then,
    per block, its n components as ``prefix_1..prefix_n``.  A chunk of rows is
    a table of ``_format_cells`` cells (a newline for the first comma of each
    row), written without the NULs."""
    P, n = grid.npoints, next(iter(blocks.values())).shape[2]
    index, nodes = _format_cells(np.arange(P, dtype=float)), _format_cells(grid.nodes)
    rows = max(1, _CHUNK_BYTES // (26 * P * (4 + n * len(blocks))))
    table = np.empty((min(rows, P), P, 4 + n * len(blocks), 26), np.uint8)
    table[:, :, 0, 0], table[:, :, 1], table[:, :, 3] = ord("\n"), index, nodes

    def chunks():
        yield ",".join(_columns(tuple(blocks), n))
        for i0 in range(0, P, rows):
            m = min(rows, P - i0)
            table[:m, :, 0, 1:], table[:m, :, 2] = index[i0:i0 + m, None, 1:], nodes[i0:i0 + m, None]
            for b, values in enumerate(blocks.values()):
                table[:m, :, 4 + b * n:4 + b * n + n] = _format_cells(values[i0:i0 + m])
            yield from (text[text != 0] for text in table[:m].reshape(m, -1))
        yield "\n"

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
