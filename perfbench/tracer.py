"""Span tracer for the goursat2d public functions, installed from outside the package.

``Tracer.installed()`` wraps each function in ``TRACED`` and rebinds every
reference to it in the loaded ``goursat2d`` modules (``from .x import f``
names included); methods are wrapped on their class.  Each call becomes one
span record ``[name, start, end, parent, call_id, attrs]`` kept in memory;
leaving the context restores the original functions.  ``layer_metrics`` turns
the records of one traced pass into the per-layer metrics.

Single-threaded by design: the spans form one stack.  The benchmark leaves
``GOURSAT2D_THREADS`` unset, so the program runs every solve on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np


def _file_size(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _array_bytes(args, result):
    # computed, not measured: one read of the input and one write of the output
    return {"bytes": args[0].nbytes + result.nbytes}


def _tree_size(e) -> int:
    kids = (getattr(e, f) for f in ("operand", "left", "right", "arg") if hasattr(e, f))
    return 1 + sum(_tree_size(k) for k in kids)


def _nodes(args, result):
    return {"nodes": _tree_size(args[0])}


def _iterations(args, result):
    return {"iterations": result.iterations, "converged": result.converged,
            "method": result.method}


#: (module under goursat2d, attribute path, attrs hook) of every traced function
TRACED = (
    ("cli", "main", None),
    ("fileio", "write_grid_csv", _file_size),
    ("fileio", "read_grid_csv", _file_size),
    ("fileio", "write_report_json", _file_size),
    ("sampling", "random_smooth_field", None),
    ("sampling", "halton_points", None),
    ("grid", "cum2d_array", _array_bytes),
    ("grid", "cumx_array", _array_bytes),
    ("grid", "cumy_array", _array_bytes),
    ("grid", "reconstruct_state", None),
    ("exprlang", "eval_on_grid", _nodes),
    ("exprlang", "eval_dual_on_grid", _nodes),
    ("operator", "make_context", None),
    ("operator", "apply_F", None),
    ("operator", "LinearizedOperator.__init__", None),
    ("operator", "LinearizedOperator.apply_array", None),
    ("norms", "WeightedNorms.norm", None),
    ("problem", "probe_assumptions", None),
    ("problem", "manufacture_problem", None),
    ("solvers", "solve", _iterations),
    ("solvers", "solve_linearized", _iterations),
    ("solvers", "estimate_contraction", None),
    ("solvers", "choose_weight", None),
    ("sensitivity", "validate_frechet", None),
)

TRACED_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TRACED)

#: Span of the benchmark's own residual recomputation after each solve.  It
#: follows the solve span as its sibling, so no traced function's self time
#: includes it.
CHECK_SPAN = "bench.residual_check"


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, call_id: int = 0):
        self.call_id = call_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            record = [name, 0.0, None, tracer._stack[-1] if tracer._stack else None,
                      tracer.call_id, None]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                record[5] = hook(args, result)
            if name == "solvers.solve":
                tracer._residual_check(index, args, result)
            return result

        return traced

    def _residual_check(self, index: int, args, report) -> None:
        """max|F(g) − v| of a returned solve, at every node, with tracing paused."""
        ctx, v = args[0], args[1]
        apply_F = sys.modules["goursat2d.operator"].apply_F
        check = [CHECK_SPAN, time.perf_counter(), None, self.spans[index][3], self.call_id, None]
        self._paused = True
        try:
            r = apply_F(ctx, report.g).values - v.values
        finally:
            self._paused = False
        check[2] = time.perf_counter()
        self.spans[index][5]["max_residual"] = float(np.abs(r).max())
        self.spans.append(check)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = {mod: importlib.import_module(f"goursat2d.{mod}") for mod, _, _ in TRACED}
        package = [m for k, m in sorted(sys.modules.items())
                   if k == "goursat2d" or k.startswith("goursat2d.")]
        try:
            for mod, attr, hook in TRACED:
                name = f"{mod}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(modules[mod], cls_name)
                    original = cls.__dict__[meth]
                    self._rebind(cls, meth, original, self._wrap(name, original, hook))
                    continue
                original = getattr(modules[mod], attr)
                wrapped = self._wrap(name, original, hook)
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(self._restore):
                setattr(owner, key, original)
            self._restore.clear()

    def _rebind(self, owner, key, original, wrapped) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapped)

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "call": c, "attrs": a}
                for n, s, e, p, c, a in self.spans]


def merge(batches: list[list[dict]]) -> list[dict]:
    """Concatenate span lists from several processes, re-basing parent indices."""
    out: list[dict] = []
    for batch in batches:
        base = len(out)
        out.extend({**s, "parent": None if s["parent"] is None else s["parent"] + base}
                   for s in batch)
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    Self time is a span's duration minus the durations of its direct children;
    the spans of one process are nested and sequential, so that is the span
    minus the part its children cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    counts = {"fileio.bytes_written": 0, "fileio.bytes_read": 0, "grid.bytes_moved": 0,
              "exprlang.nodes_evaluated": 0, "solvers.outer_iterations": 0,
              "solvers.inner_iterations": 0, "sensitivity.resolves": 0}
    max_residual = 0.0
    accepted = trials = 0
    solve_apply_F: dict[int, int] = {}
    for i, s in enumerate(spans):
        name, attrs = s["name"], s["attrs"] or {}
        if name == CHECK_SPAN:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += s["end"] - s["start"] - child_time[i]
        if name in ("fileio.write_grid_csv", "fileio.write_report_json"):
            counts["fileio.bytes_written"] += attrs["bytes"]
        elif name == "fileio.read_grid_csv":
            counts["fileio.bytes_read"] += attrs["bytes"]
        elif name.startswith("grid.cum"):
            counts["grid.bytes_moved"] += attrs["bytes"]
        elif name.startswith("exprlang."):
            counts["exprlang.nodes_evaluated"] += attrs["nodes"]
        elif name == "solvers.solve_linearized":
            counts["solvers.inner_iterations"] += attrs.get("iterations", 0)
        elif name == "solvers.solve":
            # a solve that raised has no attrs: it counts as a call only
            counts["solvers.outer_iterations"] += attrs.get("iterations", 0)
            max_residual = max(max_residual, attrs.get("max_residual", 0.0))
            if any(a["name"] == "sensitivity.validate_frechet" for _, a in _enclosing(spans, i)):
                counts["sensitivity.resolves"] += 1
        elif name == "operator.apply_F":
            owner = next((j for j, a in _enclosing(spans, i) if a["name"] == "solvers.solve"), None)
            if owner is not None:
                solve_apply_F[owner] = solve_apply_F.get(owner, 0) + 1
    for owner, n_apply in solve_apply_F.items():
        attrs = spans[owner]["attrs"] or {}
        if attrs.get("method") == "newton" and attrs.get("converged"):
            # one apply_F per outer iteration is the residual; the rest are
            # line-search trials, and every iteration but the last accepts one
            accepted += attrs["iterations"] - 1
            trials += n_apply - attrs["iterations"]
    out.update(counts)
    out["solvers.max_residual"] = max_residual
    out["solvers.linesearch_accept_ratio"] = accepted / trials if trials else 0.0
    return out


def _enclosing(spans: list[dict], index: int):
    """(index, span) of each ancestor, innermost first."""
    parent = spans[index]["parent"]
    while parent is not None:
        yield parent, spans[parent]
        parent = spans[parent]["parent"]
