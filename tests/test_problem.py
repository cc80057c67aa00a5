"""Problem documents, built-in specs, assumption probes, manufactured rhs."""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from goursat2d import exprlang
from goursat2d.errors import ParameterError, SchemaError
from goursat2d.fileio import write_field_csv
from goursat2d.exprlang import eval_on_grid, parse
from goursat2d.grid import GridField, build_grid, row_strips
from goursat2d.operator import apply_F, make_context
from goursat2d.problem import (
    XYFunction,
    _smoke_check,
    builtin_example_4_6,
    load_problem,
    manufacture_problem,
    probe_assumptions,
    zero_problem,
)
from goursat2d.solvers import SolverConfig


def minimal_doc(**overrides):
    doc = {
        "meta": {"n": 1, "B": 1.0, "b": "1"},
        "functions": {"f1": ["0"], "f2": ["0"]},
        "coefficients": {"A1": [["0"]], "A2": [["0"]], "A1x": [["0"]], "A2y": [["0"]]},
        "rhs": {"v": "1"},
    }
    doc.update(overrides)
    return doc


class TestLoadProblem:
    def test_minimal_document(self):
        spec = load_problem(minimal_doc())
        assert spec.n == 1
        assert spec.growth_bound == 1.0
        assert isinstance(spec.rhs, XYFunction)

    def test_json_text_rejected(self):
        # the caller parses the text; load_problem takes the parsed object
        with pytest.raises(SchemaError, match="document must be a JSON object, got str"):
            load_problem(json.dumps(minimal_doc()))

    def test_missing_a1x_named(self):
        doc = minimal_doc()
        del doc["coefficients"]["A1x"]
        with pytest.raises(SchemaError) as exc:
            load_problem(doc)
        assert "coefficients.A1x" in str(exc.value)

    def test_bad_expression_carries_path(self):
        doc = minimal_doc()
        doc["functions"]["f1"] = ["z9"]
        with pytest.raises(SchemaError) as exc:
            load_problem(doc)
        assert "functions.f1[0]" in str(exc.value)

    def test_unknown_key_rejected(self):
        doc = minimal_doc()
        doc["metta"] = {}
        with pytest.raises(SchemaError, match="metta"):
            load_problem(doc)

    def test_dimension_mismatch(self):
        doc = minimal_doc()
        doc["meta"]["n"] = 2
        with pytest.raises(SchemaError):
            load_problem(doc)  # f1 has only one component

    def test_coefficient_with_z_rejected(self):
        doc = minimal_doc()
        doc["coefficients"]["A1"] = [["z1"]]
        with pytest.raises(SchemaError, match="A1"):
            load_problem(doc)

    @pytest.mark.parametrize("section, key, value, path", [
        ("meta", "b", "z1*z1 + 1", "meta.b"),
        ("coefficients", "A2y", [["z1"]], "coefficients.A2y[0][0]"),
        ("rhs", "v", ["x + z1"], "rhs.v[0]"),
    ])
    def test_xy_only_entry_with_z_names_its_path(self, section, key, value, path):
        doc = minimal_doc()
        doc[section][key] = value
        with pytest.raises(SchemaError) as exc:
            load_problem(doc)
        assert str(exc.value) == f"{path}: may not reference z"

    def test_bare_string_matrix_is_the_one_by_one_matrix(self):
        doc = minimal_doc()
        doc["coefficients"]["A1"] = "x*y"
        bare = load_problem(doc)
        doc["coefficients"]["A1"] = [["x*y"]]
        assert bare == load_problem(doc)

    @pytest.mark.parametrize("rhs, message", [
        ({"v": "1", "v_file": "f.csv"}, "give either v or v_file, not both"),
        ({}, "needs v or v_file"),
    ], ids=["both", "neither"])
    def test_rhs_needs_exactly_one_source(self, rhs, message):
        with pytest.raises(SchemaError, match=message) as exc:
            load_problem(minimal_doc(rhs=rhs))
        assert exc.value.path == "rhs"

    def test_rhs_file_with_the_wrong_component_count_names_its_path(self, tmp_path):
        write_field_csv(tmp_path / "f.csv", GridField(build_grid(2), np.ones((3, 3, 2))))
        with pytest.raises(SchemaError, match="rhs file has 2 components, problem has 1") as exc:
            load_problem(minimal_doc(rhs={"v_file": "f.csv"}), base_dir=tmp_path)
        assert exc.value.path == "rhs.v_file"

    @pytest.mark.parametrize("v_file, kind", [(5, "int"), (None, "NoneType"), (["f.csv"], "list")],
                             ids=["int", "null", "list"])
    def test_rhs_file_that_is_no_path_string_names_its_path(self, v_file, kind):
        with pytest.raises(SchemaError) as exc:
            load_problem(minimal_doc(rhs={"v_file": v_file}))
        assert str(exc.value) == f"rhs.v_file: expected a file path string, got {kind}"

    def test_unreadable_rhs_file_names_its_path(self, tmp_path):
        with pytest.raises(SchemaError) as exc:
            load_problem(minimal_doc(rhs={"v_file": "missing.csv"}), base_dir=tmp_path)
        assert str(exc.value).startswith("rhs.v_file: cannot read rhs file: ")

    @pytest.mark.parametrize("section, key, value, message", [
        ("functions", "f1", [5], "functions.f1[0]: expected an expression string, got int"),
        ("coefficients", "A1", [["0"], ["0"]],
         "coefficients.A1: expected an 1x1 matrix of expressions"),
        ("coefficients", "A1", [["0", "0"]], "coefficients.A1[0]: expected 1 entries in row 0"),
    ], ids=["f1-not-a-string", "A1-two-rows", "A1-row-of-two"])
    def test_malformed_entry_names_its_path(self, section, key, value, message):
        doc = minimal_doc()
        doc[section][key] = value
        with pytest.raises(SchemaError) as exc:
            load_problem(doc)
        assert str(exc.value) == message

    def test_non_string_label_rejected(self):
        with pytest.raises(SchemaError, match="label must be a string") as exc:
            load_problem(minimal_doc(label=7))
        assert exc.value.path == "label"

    def test_negative_majorant_rejected(self):
        doc = minimal_doc()
        doc["meta"]["b"] = "0 - 1"
        with pytest.raises(SchemaError, match="nonnegative"):
            load_problem(doc)

    @pytest.mark.parametrize("key, value, message", [
        ("B", float("inf"), "meta.B: B must be a finite number >= 0, got inf"),
        ("B", float("nan"), "meta.B: B must be a finite number >= 0, got nan"),
        ("B", 10**400, "meta.B: B must be a finite number >= 0"),
        ("n", True, "meta.n: n must be a positive integer, got True"),
    ], ids=["B-Infinity", "B-NaN", "B-beyond-float", "n-true"])
    def test_meta_value_that_is_no_valid_number_names_its_path(self, key, value, message):
        doc = minimal_doc()
        doc["meta"][key] = value
        with pytest.raises(SchemaError) as exc:
            load_problem(doc)
        assert str(exc.value).startswith(message)

    def test_eval_fault_surfaces_at_load(self):
        doc = minimal_doc()
        doc["functions"]["f1"] = ["1/(x - 0.5)"]
        with pytest.raises(SchemaError, match="functions.f1"):
            load_problem(doc)

    def test_two_component_system(self):
        doc = {
            "meta": {"n": 2, "B": 1.0, "b": "1"},
            "functions": {"f1": ["z2", "0 - z1"], "f2": ["0", "0"]},
            "coefficients": {
                "A1": [["1", "0"], ["0", "1"]],
                "A2": [["0", "0"], ["0", "0"]],
                "A1x": [["0", "0"], ["0", "0"]],
                "A2y": [["0", "0"], ["0", "0"]],
            },
            "rhs": {"v": ["1", "x*y"]},
        }
        spec = load_problem(doc)
        assert spec.n == 2
        v = spec.sample_rhs(build_grid(4))
        assert v.n == 2


#: One valid value for every SolverConfig field.
VALID_SOLVER_SECTION = {"m": 6.0, "tol": 1e-9, "max_iter": 50, "method": "picard"}


class TestSolverSection:
    def test_accepts_exactly_the_solver_config_fields(self):
        assert set(VALID_SOLVER_SECTION) == {f.name for f in fields(SolverConfig)}
        load_problem(minimal_doc(solver=VALID_SOLVER_SECTION))

    @pytest.mark.parametrize("solver", [{}, {"m": "auto"}, {"m": " AUTO "}, {"m": 7, "tol": 1}],
                             ids=["empty", "auto", "auto-any-case", "integers"])
    def test_valid_section_loads(self, solver):
        assert load_problem(minimal_doc(solver=solver)).n == 1

    @pytest.mark.parametrize("key", ["damping", "inner_tol", "inner_max_iter", "mehtod"])
    def test_unknown_key_names_its_path(self, key):
        with pytest.raises(SchemaError, match=f"unknown field '{key}'") as exc:
            load_problem(minimal_doc(solver={**VALID_SOLVER_SECTION, key: 0.5}))
        assert exc.value.path == f"solver.{key}"

    @pytest.mark.parametrize("key, value", [
        ("tol", 0),
        ("tol", -1e-9),
        ("tol", math.inf),
        ("max_iter", True),
        ("max_iter", 0),
        ("max_iter", 2.5),
        ("method", "bisection"),
        ("m", -1),
        ("m", "fast"),
        ("m", math.nan),
    ])
    def test_bad_value_names_its_key(self, key, value):
        # through JSON text, where inf and nan are spelled Infinity and NaN
        with pytest.raises(SchemaError, match=f"{key} must be") as exc:
            load_problem(json.loads(json.dumps(minimal_doc(solver={key: value}))))
        assert exc.value.path == f"solver.{key}"

    def test_section_must_be_an_object(self):
        with pytest.raises(SchemaError) as exc:
            load_problem(minimal_doc(solver=[1e-9]))
        assert exc.value.path == "solver"


class TestBuiltins:
    def test_zero_problem(self):
        spec = zero_problem()
        assert spec.growth_bound == 0.0
        assert eval_on_grid(spec.f1[0], np.asarray(0.3), np.asarray(0.4), np.array([5.0])) == 0.0

    def test_example_defaults(self):
        spec = builtin_example_4_6()
        at_zero = (np.asarray(0.2), np.asarray(0.8), np.array([0.0]))
        # at z = 0 the pointwise kernel is cos(0) = 1
        assert eval_on_grid(spec.f1[0], *at_zero) == pytest.approx(1.0)
        # and the integrated kernel is (0 - 1)/(1 + 0) + sin(0) = -1
        assert eval_on_grid(spec.f2[0], *at_zero) == pytest.approx(-1.0)
        assert spec.growth_bound == 1.0
        # the published form, "(1) *" factors included
        assert spec == load_problem({
            "meta": {"n": 1, "B": 1.0, "b": "3.2071067811865475"},
            "functions": {
                "f1": ["(1) * (z1^3/(1 + z1^2) + cos(z1^2))"],
                "f2": ["(1) * (z1 - 1)/(1 + z1^2) + sin(z1^2)"],
            },
            "coefficients": {name: [["0"]] for name in ("A1", "A2", "A1x", "A2y")},
            "label": "example46",
        })

    def test_example_passes_the_load_time_check(self):
        # the constant problem is not re-checked on every call; it must pass
        # the check load_problem applies to outside input
        _smoke_check(builtin_example_4_6())


class TestProbeAssumptions:
    def test_zero_problem_all_clear(self):
        rep = probe_assumptions(zero_problem(), sample_count=50)
        assert rep.passed
        assert rep.growth_worst_f1 == 0.0
        assert rep.sup_a1 == 0.0
        assert all(m == 0.0 for _, m in rep.m_rho)

    def test_kink_flagged(self):
        # |z| is differentiated at the probe's zero state
        doc = minimal_doc(functions={"f1": ["abs(z1)"], "f2": ["0"]})
        assert probe_assumptions(load_problem(doc), sample_count=20).kink_flagged
        assert not probe_assumptions(builtin_example_4_6(), sample_count=20).kink_flagged

    def test_example_within_declared_growth(self):
        rep = probe_assumptions(builtin_example_4_6(), sample_count=200)
        assert rep.growth_ok, (rep.growth_worst_f1, rep.growth_worst_f2)
        assert rep.coeff_ok
        assert rep.deriv_ok
        assert rep.passed

    def test_example_m_rho_matches_dense_scan(self):
        # oracle: dense scan of the closed-form derivative of the z-kernels
        # d/dz [z^3/(1+z^2) + cos(z^2)] = f1_z over |z| <= 2.
        zs = np.linspace(-2.0, 2.0, 10_001)
        d_f1 = (zs**4 + 3 * zs**2) / (1 + zs**2) ** 2 - np.sin(zs**2) * 2 * zs
        oracle = np.abs(d_f1).max()
        rep = probe_assumptions(builtin_example_4_6(), sample_count=400)
        rho, m2 = rep.m_rho[1]
        assert rho == 2.0
        assert m2 == pytest.approx(oracle, rel=0.05)
        assert np.isfinite(m2)

    def test_undeclared_growth_flagged(self):
        doc = minimal_doc()
        doc["functions"]["f1"] = ["exp(z1)"]
        doc["meta"]["B"] = 0.1
        doc["meta"]["b"] = "0.1"
        spec = load_problem(doc)
        rep = probe_assumptions(spec, sample_count=100)
        assert rep.m_rho[2][0] == 4.0
        assert not rep.growth_ok
        assert not rep.passed

    def test_nonzero_f_where_the_bound_is_zero_is_a_violation(self):
        # B = 0 and b = x bound f by 0 on the line x = 0, where f1 is y: 1 at
        # the sampled corner (0, 1), and 0 in floating point at every x > 0 sampled
        doc = minimal_doc(meta={"n": 1, "B": 0, "b": "x"},
                          functions={"f1": ["y * exp(-1000000 * x)"], "f2": ["0"]})
        rep = probe_assumptions(load_problem(doc))
        assert rep.growth_worst_f1 == sys.float_info.max
        assert rep.growth_worst_f2 == 0.0
        assert not rep.growth_ok
        assert not rep.passed

    def test_a_bound_that_overflows_allows_anything(self):
        # B·|z| overflows to inf at the larger radii: inf bounds every f
        doc = minimal_doc(meta={"n": 1, "B": sys.float_info.max, "b": "0"},
                          functions={"f1": ["1e150 * z1"], "f2": ["0"]})
        rep = probe_assumptions(load_problem(doc), sample_count=50)
        assert rep.growth_worst_f1 == pytest.approx(1e150 / sys.float_info.max)
        assert rep.growth_ok

    @pytest.mark.parametrize("B,b,f1,worst,ok", [
        (1, "1", "1e300*z1", 8e299, False),    # |f| = 1e300|z| squares to inf
        (1e300, "1", "1e300*z1", 1.0, True),   # ... and is within the bound
        (0, "1e-300", "1e10*z1", sys.float_info.max, False),  # the ratio overflows
    ], ids=["huge-f", "huge-f-within-bound", "ratio-overflow"])
    def test_overflow_reads_the_true_or_largest_finite_ratio(self, B, b, f1, worst, ok):
        doc = minimal_doc(meta={"n": 1, "B": B, "b": b}, functions={"f1": [f1], "f2": ["0"]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = probe_assumptions(load_problem(doc), sample_count=50)
        assert rep.growth_worst_f1 == pytest.approx(worst, rel=1e-12)
        assert rep.growth_ok is ok
        json.dumps(rep.as_dict(), allow_nan=False)

    def test_an_overflowed_sup_reads_as_the_largest_float_and_still_fails(self):
        # the spectral norm of the all-1e308 matrix is 2e308: the largest
        # float in the report, and above the largest float B as a check
        big, zero = [["1e308", "1e308"], ["1e308", "1e308"]], [["0", "0"], ["0", "0"]]
        doc = minimal_doc(meta={"n": 2, "B": sys.float_info.max, "b": "0"},
                          functions={"f1": ["0", "0"], "f2": ["0", "0"]},
                          coefficients={"A1": big, "A2": zero, "A1x": zero, "A2y": zero},
                          rhs={"v": ["1", "1"]})
        rep = probe_assumptions(load_problem(doc), sample_count=50)
        assert rep.sup_a1 == rep.declared_bound == sys.float_info.max
        assert rep.coeff_ok is False
        json.dumps(rep.as_dict(), allow_nan=False)

    def test_wrong_spatial_derivative_flagged(self):
        doc = minimal_doc()
        doc["coefficients"]["A1"] = [["x*y"]]
        doc["coefficients"]["A1x"] = [["3*y"]]  # should be y
        spec = load_problem(doc)
        rep = probe_assumptions(spec, sample_count=50)
        assert not rep.deriv_ok

    def test_deterministic_given_seed(self):
        a = probe_assumptions(builtin_example_4_6(), sample_count=64, seed=5)
        b = probe_assumptions(builtin_example_4_6(), sample_count=64, seed=5)
        assert a == b

    def test_bad_sample_count(self):
        with pytest.raises(ParameterError):
            probe_assumptions(zero_problem(), sample_count=0)

    def test_each_vector_is_compiled_once(self, monkeypatch):
        # the majorant, f1 and f2 for all radii, and each coefficient matrix
        # for all its sample sets: 17 programs when each sample compiled its own
        compiled = []
        init = exprlang._Program.__init__

        def counted(self, exprs, n, dual, values=True):
            compiled.append((len(exprs), dual))
            init(self, exprs, n, dual, values)

        monkeypatch.setattr(exprlang._Program, "__init__", counted)
        probe_assumptions(builtin_example_4_6())
        assert compiled == [(1, False), (1, True), (1, True)] + [(1, False)] * 4


class TestManufacture:
    def test_z_star_is_compiled_once_for_every_strip(self, monkeypatch):
        # a fine grid of 401 rows is two strips (one compile per strip before)
        zstar = XYFunction.from_sources("1 + sin(2*x)*cos(y)")
        compiled = []
        init = exprlang._Program.__init__

        def counted(self, exprs, *args, **kwargs):
            compiled.append(tuple(exprs))
            init(self, exprs, *args, **kwargs)

        monkeypatch.setattr(exprlang._Program, "__init__", counted)
        grid = build_grid(100)
        assert len(row_strips(4 * grid.npoints - 3, 1)) == 2
        manufacture_problem(builtin_example_4_6(), zstar, grid)
        assert compiled.count(zstar.exprs) == 1

    def test_zero_problem_identity(self):
        grid = build_grid(8)
        made = manufacture_problem(zero_problem(), XYFunction.from_sources("1"), grid)
        v = made.sample_rhs(grid)
        np.testing.assert_allclose(v.values, 1.0, atol=1e-14)
        assert replace(made, rhs=None) == zero_problem()

    def test_memory_term_closed_form(self):
        # A1 = 1 only and z* = xy: v = 1 + ∫₀ˣ∫₀ʸ t ds dt = 1 + x y²/2,
        # exact for the bilinear-cell rule restricted from the fine grid.
        doc = minimal_doc()
        doc["coefficients"]["A1"] = [["1"]]
        del doc["rhs"]
        base = load_problem(doc)
        grid = build_grid(8)
        made = manufacture_problem(base, XYFunction.from_sources("1"), grid)
        v = made.sample_rhs(grid)
        X, Y = grid.meshgrid()
        np.testing.assert_allclose(v.values[:, :, 0], 1.0 + X * Y**2 / 2.0, atol=1e-13)

    def test_fine_grid_consistency(self):
        # doubling the refinement moves the manufactured v by O(h²) only
        spec = builtin_example_4_6()
        grid = build_grid(8)
        zstar = XYFunction.from_sources("sin(3*x)*cos(2*y) + 1")
        v4 = manufacture_problem(spec, zstar, grid, refine=4).sample_rhs(grid)
        v8 = manufacture_problem(spec, zstar, grid, refine=8).sample_rhs(grid)
        drift = np.abs(v4.values - v8.values).max()
        assert 0.0 < drift < 1e-3

    def test_refine_one_is_the_working_grid_itself(self):
        spec = builtin_example_4_6()
        grid = build_grid(8)
        zstar = XYFunction.from_sources("sin(3*x)*cos(2*y) + 1")
        v = manufacture_problem(spec, zstar, grid, refine=1).sample_rhs(grid)
        assert v.values.tobytes() == apply_F(make_context(spec, grid), zstar.sample(grid)).values.tobytes()

    @pytest.mark.parametrize("refine", [2, 4])
    def test_v_is_F_on_the_refined_grid_at_the_working_nodes(self, refine):
        spec = builtin_example_4_6()
        grid, fine = build_grid(8), build_grid(8 * refine)
        zstar = XYFunction.from_sources("sin(3*x)*cos(2*y) + 1")
        v = manufacture_problem(spec, zstar, grid, refine=refine).sample_rhs(grid)
        v_fine = apply_F(make_context(spec, fine), zstar.sample(fine)).values
        assert v.grid == grid
        assert v.values.tobytes() == v_fine[::refine, ::refine].tobytes()

    def test_refine_below_one_rejected(self):
        with pytest.raises(ParameterError, match="refine must be >= 1, got 0"):
            manufacture_problem(zero_problem(), XYFunction.from_sources("1"), build_grid(4), refine=0)

    def test_zstar_with_the_wrong_component_count_rejected(self):
        with pytest.raises(ValueError, match="z\\* has 2 components, problem has 1"):
            manufacture_problem(zero_problem(), XYFunction.from_sources(["1", "x"]), build_grid(4))


class TestProblemSpec:
    @pytest.mark.parametrize("change, message", [
        ({"n": 0}, "state dimension must be >= 1, got 0"),
        ({"f1": ()}, "f1 and f2 need exactly 1 component expressions"),
        ({"a1": ((parse("0", 1), parse("0", 1)),)}, "A1 must be an 1x1 expression matrix"),
        ({"a2": ((parse("z1", 1),),)}, "A2\\[0\\]\\[0\\] may not reference z-variables"),
        ({"growth_bound": -1.0}, "growth bound B must be finite and >= 0, got -1.0"),
        ({"growth_bound": math.inf}, "growth bound B must be finite and >= 0, got inf"),
        ({"majorant": parse("1 + z1", 1)}, "the majorant b must be a function of x, y only"),
    ], ids=["n-zero", "f1-count", "A1-not-square", "A2-with-z", "B-negative", "B-inf",
            "majorant-with-z"])
    def test_direct_construction_rejects_bad_data(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(builtin_example_4_6(), **change)

    @pytest.mark.parametrize("kind", ["function", "field"])
    def test_rhs_with_the_wrong_component_count_rejected(self, kind):
        rhs = (XYFunction.from_sources(["1", "x"]) if kind == "function"
               else GridField(build_grid(2), np.ones((3, 3, 2))))
        with pytest.raises(ValueError, match="rhs has 2 components, problem has 1"):
            replace(zero_problem(), rhs=rhs)


class TestXYFunction:
    def test_rejects_z_reference(self):
        with pytest.raises(ValueError):
            XYFunction((parse("z1", 1),))

    def test_sampling(self):
        f = XYFunction.from_sources(["x + 2*y"])
        vals = f.sample(build_grid(2)).values
        assert vals[2, 1, 0] == pytest.approx(2.0)  # x=1, y=0.5
