"""CSV/JSON round trips: bit-exactness, determinism, and malformed-file errors."""

from __future__ import annotations

import json
import os
import re
import stat
import tracemalloc
import warnings

import numpy as np
import pytest

from goursat2d.errors import SchemaError
from goursat2d.fileio import (
    _atomic_write,
    _format_cells,
    read_field_csv,
    read_grid_csv,
    read_report_json,
    write_field_csv,
    write_grid_csv,
    write_report_json,
)
from goursat2d.grid import GridField, build_grid, reconstruct_state, state_from_g


def random_field(cells: int, n: int, seed: int) -> GridField:
    grid = build_grid(cells)
    rng = np.random.default_rng(seed)
    return GridField(grid, rng.standard_normal((grid.npoints, grid.npoints, n)))


#: write_grid_csv output for ``golden_bundle()``: 17 significant digits per
#: value, ``-0`` for negative zero, integer-valued coordinates without ``.0``,
#: and the z, z_x, z_y columns of the state of g
GOLDEN_BUNDLE = (
    "i,j,x,y,g_1,g_2,z_1,z_2,zx_1,zx_2,zy_1,zy_2\n"
    "0,0,0,0,-0,0.33333333333333331,0,0,0,0,0,0\n"
    "0,1,0,0.5,0.10000000000000001,0.33333333333333331,0,0,0.025000000000000001,0.16666666666666666,0,0\n"
    "0,2,0,1,0.10000000000000001,0.33333333333333331,0,0,0.075000000000000011,0.33333333333333331,0,0\n"
    "1,0,0.5,0,0.10000000000000001,0.33333333333333331,0,0,0,0,0.025000000000000001,0.16666666666666666\n"
    "1,1,0.5,0.5,0.10000000000000001,0.33333333333333331,0.018750000000000003,0.083333333333333329,0.050000000000000003,0.16666666666666666,0.050000000000000003,0.16666666666666666\n"
    "1,2,0.5,1,0.10000000000000001,0.33333333333333331,0.043750000000000004,0.16666666666666666,0.10000000000000001,0.33333333333333331,0.050000000000000003,0.16666666666666666\n"
    "2,0,1,0,0.10000000000000001,0.33333333333333331,0,0,0,0,0.075000000000000011,0.33333333333333331\n"
    "2,1,1,0.5,0.10000000000000001,0.33333333333333331,0.043750000000000004,0.16666666666666666,0.050000000000000003,0.16666666666666666,0.10000000000000001,0.33333333333333331\n"
    "2,2,1,1,0.10000000000000001,1.0000000000000001e-05,0.09375,0.31250062499999998,0.10000000000000001,0.25000250000000002,0.10000000000000001,0.25000250000000002\n"
)


def golden_bundle() -> GridField:
    """N = 2, n = 2 with -0.0, 0.1, 1e-5 and 1/3."""
    g = np.full((3, 3, 2), 0.1)
    g[:, :, 1] = 1 / 3
    g[0, 0, 0] = -0.0
    g[2, 2, 1] = 1e-5
    return GridField(build_grid(2), g)


def per_value_csv(grid, blocks: dict) -> str:
    """The writer that formatted one value at a time: the byte-level oracle."""
    n = next(iter(blocks.values())).shape[2]
    header = ["i", "j", "x", "y", *(f"{p}_{k + 1}" for p in blocks for k in range(n))]
    lines = [",".join(header)]
    for i in range(grid.npoints):
        for j in range(grid.npoints):
            cells = [str(i), str(j), format(float(grid.nodes[i]), ".17g"),
                     format(float(grid.nodes[j]), ".17g")]
            for block in blocks.values():
                cells += [format(float(block[i, j, k]), ".17g") for k in range(n)]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def extreme_field(cells: int, n: int, seed: int) -> GridField:
    """Random mantissas over 600 decades, with −0.0, 5e-324, 1e300 and 1/3."""
    grid = build_grid(cells)
    rng = np.random.default_rng(seed)
    shape = (grid.npoints, grid.npoints, n)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    vals.flat[:4] = [-0.0, 5e-324, 1e300, 1 / 3]
    return GridField(grid, vals)


@pytest.mark.parametrize("cells", [2, 16, 256])
@pytest.mark.parametrize("n", [1, 2])
def test_writers_match_the_per_value_oracle(tmp_path, cells, n):
    g = extreme_field(cells, n, seed=cells + n)
    write_grid_csv(tmp_path / "b.csv", g)
    z, zx, zy = state_from_g(g.values, g.grid.h)
    blocks = {"g": g.values, "z": z, "zx": zx, "zy": zy}
    assert (tmp_path / "b.csv").read_bytes() == per_value_csv(g.grid, blocks).encode()
    write_field_csv(tmp_path / "f.csv", g)
    assert (tmp_path / "f.csv").read_bytes() == per_value_csv(g.grid, {"v": g.values}).encode()
    assert read_field_csv(tmp_path / "f.csv").values.tobytes() == g.values.tobytes()


def formatted(values: np.ndarray) -> list[str]:
    """The texts ``_format_cells`` gives each value: its cells without NULs,
    each a comma and then the text."""
    cells = _format_cells(values)
    return cells[cells != 0].tobytes().decode().split(",")[1:]


def edge_values() -> np.ndarray:
    """Ties, powers of ten and their neighbours, the ends of the integer path,
    the switch points of %g's exponent form and the extremes of binary64."""
    powers = np.array([float(f"1e{k}") for k in range(-12, 18)])
    ends = np.array([1e-11, 2.0**52, 2.0**53])
    values = np.concatenate([
        [1000000000000000.25, 123456789012345.125, 4503599627370495.5],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        ends, np.nextafter(ends, 0), np.nextafter(ends, np.inf),
        [1e-4, 1e-5, 1e16, 1e17, 0.0, 5e-324, 2.2250738585072014e-308, np.finfo(float).max],
        [np.inf, np.nan],
    ])
    return np.concatenate([values, -values])


def sampled_values(count: int, seed: int) -> np.ndarray:
    """Random bit patterns, log-uniform magnitudes over 1e-13..1e18 and dyadic
    fractions k / 2^j, a third each, with random signs."""
    rng = np.random.default_rng(seed)
    third = count // 3
    values = np.concatenate([
        rng.integers(0, 2**64, third, dtype=np.uint64).view(np.float64),
        np.exp(rng.uniform(np.log(1e-13), np.log(1e18), third)),
        rng.integers(1, 2**53, count - 2 * third) / 2.0 ** rng.integers(0, 80, count - 2 * third),
    ])
    return np.copysign(values, rng.choice([-1.0, 1.0], values.size))


class TestFormatCells:
    """``_format_cells`` against ``format(v, ".17g")``, one value at a time."""

    def test_edge_values(self):
        values = edge_values()
        assert formatted(values) == [format(v, ".17g") for v in values.tolist()]

    def test_half_even_ties(self):
        ties = np.array([1000000000000000.25, 123456789012345.125, 4503599627370495.5])
        assert formatted(ties) == ["1000000000000000.2", "123456789012345.12", "4503599627370495.5"]

    def test_a_million_sampled_values(self):
        values = sampled_values(1_050_000, seed=25)
        assert formatted(values) == [format(v, ".17g") for v in values.tolist()]

    def test_any_shape_and_strides(self):
        values = sampled_values(2 * 3 * 8, seed=1).reshape(2, 3, 8)[:, ::2, 1::3]
        cells = _format_cells(values)
        assert cells.shape == values.shape + (26,)
        assert formatted(values) == [format(v, ".17g") for v in values.ravel().tolist()]


class TestFieldRoundTrip:
    def test_bit_exact(self, tmp_path):
        f = random_field(5, 3, seed=7)
        path = tmp_path / "field.csv"
        write_field_csv(path, f)
        back = read_field_csv(path)
        assert back.grid == f.grid
        assert back.n == 3
        # 17 significant digits reload binary64 exactly
        assert np.array_equal(back.values, f.values)

    def test_header_and_row_layout(self, tmp_path):
        f = random_field(2, 1, seed=1)
        path = tmp_path / "field.csv"
        write_field_csv(path, f)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,x,y,v_1"
        assert len(lines) == 1 + 9  # header + 3x3 nodes
        # row-major in i then j: second data line is node (0, 1)
        assert lines[2].startswith("0,1,0,0.5,")

    def test_rewrite_is_byte_identical(self, tmp_path):
        f = random_field(4, 2, seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_field_csv(a, f)
        write_field_csv(b, f)
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_file_leftovers(self, tmp_path):
        write_field_csv(tmp_path / "f.csv", random_field(3, 1, seed=5))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]


def _set_value(path, node: tuple[int, int], column: str, text: str) -> None:
    """Replace one value of a node table: ``column`` at ``node`` becomes ``text``."""
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    idx = next(k for k, ln in enumerate(lines) if ln.startswith(f"{node[0]},{node[1]},"))
    cells = lines[idx].split(",")
    cells[col] = text
    lines[idx] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestGridBundleRoundTrip:
    def test_bit_exact(self, tmp_path):
        g = random_field(6, 2, seed=11)
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, g)
        assert np.array_equal(read_grid_csv(path).values, g.values)

    @pytest.mark.parametrize("cells", [2, 16])
    @pytest.mark.parametrize("n", [1, 2])
    def test_read_returns_the_bits_of_the_written_g(self, tmp_path, cells, n):
        g = extreme_field(cells, n, seed=3 * cells + n)
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, g)
        back = read_grid_csv(path)
        assert back.grid == g.grid
        assert back.values.tobytes() == g.values.tobytes()

    def test_golden_bytes(self, tmp_path):
        g = golden_bundle()
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, g)
        assert path.read_bytes() == GOLDEN_BUNDLE.encode()
        g2 = read_grid_csv(path)
        assert np.array_equal(g2.values, g.values) and np.signbit(g2.values[0, 0, 0])

    def test_header_lists_all_blocks(self, tmp_path):
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, random_field(3, 2, seed=2))
        header = path.read_text().splitlines()[0]
        assert header == "i,j,x,y,g_1,g_2,z_1,z_2,zx_1,zx_2,zy_1,zy_2"

    def test_crlf_file_reads_back_bit_identical(self, tmp_path):
        g = extreme_field(4, 2, seed=5)
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, g)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert read_grid_csv(path).values.tobytes() == g.values.tobytes()

    def test_read_holds_about_one_copy_of_the_file(self, tmp_path):
        # the reader streams the file into the parsed table: its traced peak
        # stays near the table, not the file's text held as strings
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, random_field(256, 1, seed=2))
        tracemalloc.start()
        try:
            read_grid_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * path.stat().st_size

    def test_state_grid_mismatch_rejected(self, tmp_path):
        # a bundle whose state columns belong to another g is refused on load
        g, other = random_field(4, 1, seed=5), random_field(4, 1, seed=6)
        path, other_path = tmp_path / "g.csv", tmp_path / "other.csv"
        write_grid_csv(path, g)
        write_grid_csv(other_path, other)
        lines = path.read_text().splitlines()
        spliced = [ln.split(",")[:5] + o.split(",")[5:]
                   for ln, o in zip(lines, other_path.read_text().splitlines())]
        path.write_text("\n".join(",".join(cells) for cells in spliced) + "\n")
        # the first differing value in file order: node (0, 1), where only z_x is nonzero
        with pytest.raises(SchemaError, match="column zx_1 at node \\(0, 1\\)"):
            read_grid_csv(path)

    def test_reload_keeps_boundary_invariants(self, tmp_path):
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, random_field(8, 1, seed=13))
        z, zx, zy = reconstruct_state(read_grid_csv(path))
        assert np.all(z.values[0, :, :] == 0.0)
        assert np.all(z.values[:, 0, :] == 0.0)
        assert np.all(zx.values[:, 0, :] == 0.0)
        assert np.all(zy.values[0, :, :] == 0.0)

    @pytest.mark.parametrize("column", ["z_1", "zx_2", "zy_1"])
    def test_one_perturbed_state_value_is_rejected(self, tmp_path, column):
        g = random_field(4, 2, seed=21)
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, g)
        block = {"z": 0, "zx": 1, "zy": 2}[column.split("_")[0]]
        value = state_from_g(g.values, g.grid.h)[block][2, 3, int(column[-1]) - 1]
        # one unit in the last place is enough: the check is bit for bit
        _set_value(path, (2, 3), column, repr(float(np.nextafter(value, np.inf))))
        with pytest.raises(SchemaError, match=f"column {column} at node \\(2, 3\\)"):
            read_grid_csv(path)


class TestReportJson:
    def test_round_trip_and_key_order(self, tmp_path):
        report = {"command": "solve", "cells": 16, "nested": {"a": [1, 2.5], "b": None}}
        path = tmp_path / "r.json"
        write_report_json(path, report)
        assert read_report_json(path) == report
        text = path.read_text()
        assert text.endswith("\n")
        # insertion order is preserved verbatim
        assert text.index('"command"') < text.index('"cells"') < text.index('"nested"')

    def test_rewrite_is_byte_identical(self, tmp_path):
        report = {"x": 1.0 / 3.0, "y": [True, False]}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(a, report)
        write_report_json(b, report)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_rejected_and_nothing_written(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            write_report_json(path, {"bad": float("nan")})
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


def _patch_line(path, match: str, replacement: str) -> None:
    lines = path.read_text().splitlines()
    idx = next(k for k, ln in enumerate(lines) if ln.startswith(match))
    if replacement:
        lines[idx] = replacement
    else:
        del lines[idx]
    path.write_text("\n".join(lines) + "\n")


class TestMalformedFiles:
    def make_field_file(self, tmp_path, cells=2, n=1, seed=4):
        path = tmp_path / "f.csv"
        write_field_csv(path, random_field(cells, n, seed))
        return path

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_field_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "i,j", "i,j,x,y,v_1,v_2")
        # header claims 2 components but rows carry 1 value
        with pytest.raises(SchemaError, match="expected 6 fields"):
            read_field_csv(path)

    def test_scrambled_header(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "i,j", "j,i,x,y,v_1")
        with pytest.raises(SchemaError, match="header mismatch"):
            read_field_csv(path)

    def test_non_numeric_token(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "1,1,", "1,1,0.5,0.5,forty-two")  # file line 6
        with pytest.raises(SchemaError, match="line 6: .*forty-two"):
            read_field_csv(path)

    def test_short_row_names_its_line(self, tmp_path):
        path = self.make_field_file(tmp_path, cells=4)
        _patch_line(path, "2,2,", "2,2,0.5,0.5")  # node (2, 2) is file line 14
        with pytest.raises(SchemaError, match="line 14: expected 5 fields, got 4"):
            read_field_csv(path)

    def test_fractional_index(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "1,1,", "1.5,1,0.5,0.5,0")
        with pytest.raises(SchemaError, match="line 6: node index \\(1.5, 1\\) is not a pair of integers"):
            read_field_csv(path)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan"])
    def test_non_finite_value_names_its_line_and_column(self, tmp_path, token):
        path = self.make_field_file(tmp_path)
        _set_value(path, (1, 1), "v_1", token)  # node (1, 1) is file line 6
        with pytest.raises(SchemaError, match=f"line 6: column v_1 holds {token}, not a finite number"):
            read_field_csv(path)

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_g_in_bundle_names_its_line_and_column(self, tmp_path, token):
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, random_field(2, 2, seed=5))
        _set_value(path, (2, 0), "g_2", token)  # node (2, 0) is file line 8
        with pytest.raises(SchemaError, match=f"line 8: column g_2 holds {token}, not a finite number"):
            read_grid_csv(path)

    def test_trailing_blank_line_accepted(self, tmp_path):
        f = random_field(2, 1, seed=4)
        path = tmp_path / "f.csv"
        write_field_csv(path, f)
        path.write_text(path.read_text() + "\n  \n")
        assert np.array_equal(read_field_csv(path).values, f.values)

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        f = random_field(2, 2, seed=4)
        path = tmp_path / "f.csv"
        write_field_csv(path, f)
        lines = path.read_text().splitlines(keepends=True)
        lines[3:3] = ["\n", " \t \n"]
        path.write_text("".join(lines))
        assert read_field_csv(path).values.tobytes() == f.values.tobytes()

    def test_line_numbers_count_only_non_blank_lines(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "1,1,", "1,1,0.5,0.5,forty-two")  # non-blank line 6
        lines = path.read_text().splitlines(keepends=True)
        lines[3:3] = ["\n", "   \n"]  # the bad row is now physical line 8
        path.write_text("".join(lines))
        with pytest.raises(SchemaError, match="line 6: .*forty-two"):
            read_field_csv(path)

    def test_header_only_file_is_no_square_grid_and_warns_nothing(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("i,j,x,y,v_1\n \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError, match="0 data rows do not form a square node grid"):
                read_field_csv(path)

    @pytest.mark.parametrize("node, row, message", [
        ((0, 0), "0,0,0,0", "line 2: expected 5 fields, got 4"),
        ((0, 0), "0,0,0,0,0.5,7", "line 2: expected 5 fields, got 6"),
        ((2, 2), "2,2,1,1,0.5,7", "line 10: expected 5 fields, got 6"),
    ], ids=["first-short", "first-long", "last-long"])
    def test_wrong_field_count_names_its_line(self, tmp_path, node, row, message):
        path = self.make_field_file(tmp_path)
        _patch_line(path, f"{node[0]},{node[1]},", row)
        with pytest.raises(SchemaError, match=message):
            read_field_csv(path)

    def test_faults_are_reported_in_line_check_order(self, tmp_path):
        # row count first, then field counts, then tokens, whatever the file order
        path = self.make_field_file(tmp_path)
        _patch_line(path, "0,1,", "0,1,0,0.5,forty-two")  # line 3
        _patch_line(path, "2,1,", "2,1,1,0.5")  # line 9
        with pytest.raises(SchemaError, match="line 9: expected 5 fields, got 4"):
            read_field_csv(path)
        _patch_line(path, "2,2,", "")
        with pytest.raises(SchemaError, match="8 data rows do not form a square node grid"):
            read_field_csv(path)

    @pytest.mark.parametrize("at", [0, -2], ids=["header", "last-row"])
    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path, at):
        path = self.make_field_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[at] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            read_field_csv(path)

    def test_non_square_row_count(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "2,2,", "")  # drop the last node
        with pytest.raises(SchemaError, match="square"):
            read_field_csv(path)

    def test_index_out_of_range(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "2,2,", "9,9,1,1,0")
        with pytest.raises(SchemaError, match="outside"):
            read_field_csv(path)

    def test_coordinate_mismatch(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "1,1,", "1,1,0.75,0.5,0")
        with pytest.raises(SchemaError, match="coordinates"):
            read_field_csv(path)

    def test_duplicate_rows(self, tmp_path):
        path = self.make_field_file(tmp_path)
        _patch_line(path, "2,2,", "0,0,0,0,0")  # (0,0) twice, (2,2) missing
        with pytest.raises(SchemaError, match="duplicate or missing"):
            read_field_csv(path)

    def test_field_file_is_not_a_grid_bundle(self, tmp_path):
        path = self.make_field_file(tmp_path)
        with pytest.raises(SchemaError, match="g_"):
            read_grid_csv(path)

    def test_grid_bundle_is_not_a_field_file(self, tmp_path):
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, random_field(2, 1, seed=6))
        with pytest.raises(SchemaError, match="v_"):
            read_field_csv(path)

    def test_boundary_violation_in_bundle(self, tmp_path):
        path = tmp_path / "sol.grid.csv"
        write_grid_csv(path, random_field(2, 1, seed=8))
        _set_value(path, (0, 0), "z_1", "7")  # the state of any g is exactly 0 there
        with pytest.raises(SchemaError, match="column z_1 at node \\(0, 0\\) holds 7.0"):
            read_grid_csv(path)

    def test_missing_directory_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_field_csv(tmp_path / "nope" / "f.csv", random_field(2, 1, seed=9))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_field_csv(tmp_path / "absent.csv")

    def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("old\n")

        def chunks():
            yield "new, half written\n"
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError, match="chunk failed"):
            _atomic_write(path, chunks())
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_new_files_get_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        (tmp_path / "plain.txt").write_text("")
        write_grid_csv(tmp_path / "b.grid.csv", golden_bundle())
        write_field_csv(tmp_path / "f.csv", golden_bundle())
        write_report_json(tmp_path / "r.json", {"a": 1})
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["plain.txt", "b.grid.csv", "f.csv", "r.json"], 0o666 & ~umask)


class TestWriterAllocations:
    """The traced peak of ``write_grid_csv`` (n = 1), in units of one (P, P, 1)
    float array, after a first call has built the formatting tables.

    Measured: 6.00 at N = 256 and 3.77 at N = 512, the state z, z_x, z_y
    (3 units), one 768 KiB chunk of row cells and the formatting temporaries
    of one block of it.  Formatting row by row with ``%`` from one
    concatenated value array peaked at 7.23 and 7.11; 16-row chunks formatted
    from such an array, at 18.44 and 12.61.
    """

    @pytest.mark.parametrize("cells, bound", [(256, 7.3), (512, 7.2)])
    def test_write_grid_csv_peak(self, tmp_path, cells, bound):
        g = random_field(cells, 1, seed=cells)
        write_grid_csv(tmp_path / "warm.csv", g)
        tracemalloc.start()
        try:
            write_grid_csv(tmp_path / "b.csv", g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ((cells + 1) ** 2 * 8) <= bound


class TestJsonReportErrors:
    def test_read_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            read_report_json(path)
