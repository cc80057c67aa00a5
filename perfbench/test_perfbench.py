"""Tests of the benchmark's tracer, gates and metric plumbing (small inputs only)."""

import json
import sys

import pytest

import goursat2d
from goursat2d import SolverConfig, XYFunction, build_grid, builtin_example_4_6, make_context, probe_assumptions

import run
from tracer import TRACED_NAMES, Tracer, _enclosing, layer_metrics


@pytest.fixture(scope="module")
def small():
    spec = builtin_example_4_6()
    grid = build_grid(16)
    ctx = make_context(spec, grid).with_assumptions(probe_assumptions(spec, sample_count=20))
    return spec, grid, ctx, XYFunction.from_sources("1 + x*y").sample(grid)


def _traced_pass(small) -> list[dict]:
    """Newton and Picard solves, a manufactured RHS and a Fréchet check."""
    spec, grid, ctx, v = small
    tracer = Tracer()
    with tracer.installed():
        for method in ("newton", "picard"):
            goursat2d.solve(ctx, v, SolverConfig(m=9.0, method=method))
        goursat2d.manufacture_problem(spec, XYFunction.from_sources("1 + x"), grid, refine=2)
        goursat2d.validate_frechet(ctx, v, v, (1e-1, 1e-2, 1e-3), SolverConfig(m=9.0))
    return tracer.records()


def _under(spans, i, name):
    return any(a["name"] == name for _, a in _enclosing(spans, i))


def test_tracer_counts_apply_F_through_solvers_and_manufacture(small):
    spec, grid, ctx, v = small
    tracer = Tracer()
    with tracer.installed():
        rep = goursat2d.solve(ctx, v, SolverConfig(m=9.0, method="picard"))
        goursat2d.manufacture_problem(spec, XYFunction.from_sources("1 + x"), grid, refine=2)
    spans = tracer.records()
    apply_F = [i for i, s in enumerate(spans) if s["name"] == "operator.apply_F"]
    # Picard evaluates F once per iteration; manufacture_problem once on the fine grid
    assert sum(_under(spans, i, "solvers.solve") for i in apply_F) == rep.iterations
    assert sum(_under(spans, i, "problem.manufacture_problem") for i in apply_F) == 1
    assert len(apply_F) == rep.iterations + 1
    # leaving the block restores every rebound name
    assert goursat2d.solvers.apply_F is goursat2d.operator.apply_F
    assert not hasattr(goursat2d.operator.apply_F, "__wrapped__")
    assert not hasattr(goursat2d.operator.LinearizedOperator.apply_array, "__wrapped__")


def test_two_traced_passes_give_identical_counts(small):
    first, second = layer_metrics(_traced_pass(small)), layer_metrics(_traced_pass(small))
    counts = [k for k in first if not k.endswith("_s") and k != "solvers.max_residual"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["solvers.solve.calls"] == 2 + 4  # two solves, then base + 3 re-solves
    assert first["sensitivity.resolves"] == 4
    assert first["solvers.linesearch_accept_ratio"] == 1.0
    assert all(first[f"{name}.self_s"] >= 0.0 for name in TRACED_NAMES)
    assert 0.0 < first["solvers.max_residual"] < 1e-3


def _fake(stdout: str, code: int = 0) -> list[str]:
    return [sys.executable, "-c", f"import sys; print({stdout!r}); sys.exit({code})"]


def test_failed_call_counts_as_failed_and_records_no_time(tmp_path):
    calls = [
        run.CliCall("nonzero", ("verify",)),
        run.CliCall("sens", ("sens",)),
        run.CliCall("mms", ("mms",)),
        run.CliCall("ok", ("verify",)),
    ]
    programs = [
        _fake('{"suite": "x", "pass": true}', code=3),
        _fake('{"command": "sens", "passed": false}'),
        _fake('{"command": "mms", "orders": [1.5, 2.0], "pass": true}'),
        _fake('{"suite": "x", "pass": true}'),
    ]
    rec = run.Recorder()
    run.run_pass(calls, lambda i: programs[i], {}, tmp_path, rec, False)
    by_key = {c["key"]: c for c in rec.calls}
    assert by_key["nonzero"]["reason"] == "exit code 3"
    for key in ("nonzero", "sens", "mms"):
        assert by_key[key]["seconds"] is None and by_key[key]["reason"]
    assert by_key["ok"]["seconds"] > 0.0 and by_key["ok"]["reason"] is None
    assert run.failure_summary(rec.calls) == (4, 3, 0.75)
    # the only pass holds failed calls, so it gives no wall_s sample and no metrics
    metrics, _ = run.end_to_end({**rec.as_dict(), "peak_rss_mb": 1.0, "rss_note": ""}, [1.0])
    assert metrics == {}


def test_different_artifacts_for_the_same_input_fail_the_later_call():
    rec = run.Recorder()
    rec.record("a", 0, False, 1.0, None, "digest-1")
    rec.record("a", 1, False, 1.0, None, "digest-2")
    assert rec.calls[0]["seconds"] == 1.0
    assert rec.calls[1]["seconds"] is None and "differ" in rec.calls[1]["reason"]


def test_parse_importtime_sums_outermost_entries_of_each_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        10 |         60 |   scipy",
        "import time:        40 |        500 |   scipy.stats",
        "import time:        30 |        900 | goursat2d",
        "import time:        20 |         20 | goursat2d.cli",
    ])
    assert run.parse_importtime(text) == pytest.approx(
        {"goursat2d": 920e-6, "scipy": 560e-6, "numpy": 300e-6})


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    empty = {"spans": [[]], "process_s": 0.0, "calls": [], "passes": []}
    names = list(run.per_layer(empty, [{"goursat2d": 1.0, "scipy": 1.0, "numpy": 1.0}]))
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
