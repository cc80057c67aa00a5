"""The warm library process of the solve-lib-512 workload.

    python libworker.py setup
        import goursat2d, then make_context, probe_assumptions and
        choose_weight on example46 at N=512, and exit (timed from outside as
        the workload's set-up).
    python libworker.py run RESULT_JSON SEED SECONDS TRACE
        the same set-up, then timed passes of ``solve`` with Newton and with
        Picard over two seeded right-hand sides; writes the gate-checked call
        records (and, with TRACE=1, the spans of one traced pass).

Only ``solve`` is timed: no import, no I/O and no contraction estimate.
"""

import hashlib
import json
import sys
import time

import numpy as np

CELLS = 512
METHODS = ("newton", "picard")


def set_up():
    from goursat2d import (build_grid, builtin_example_4_6, choose_weight,
                           make_context, probe_assumptions)

    spec = builtin_example_4_6()
    grid = build_grid(CELLS)
    ctx = make_context(spec, grid).with_assumptions(probe_assumptions(spec))
    return ctx, choose_weight(ctx).m


def right_hand_sides(grid, seed: int):
    """Two smooth RHS arrays a + b·xy + c·sin(πx)sin(πy) with seeded a, b, c.

    With a in [1.5, 2] the solution state is z ≥ 0; with a in [−0.5, 0] it is
    z ≤ 0, where the integer powers in example46 take a much slower path
    (``z**3`` of a negative array is about 20× slower than of a positive one).
    Every pass holds one of each, so its work does not depend on the seed.
    """
    from goursat2d import GridField

    rng = np.random.default_rng(seed)
    X, Y = grid.meshgrid()
    bump = np.sin(np.pi * X) * np.sin(np.pi * Y)
    out = []
    for low, high in ((1.5, 2.0), (-0.5, 0.0)):
        a, b, c = rng.uniform(low, high), rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)
        out.append(GridField(grid, (a + b * X * Y + c * bump)[..., None]))
    return out


def run(result_path: str, seed: int, seconds: float, trace: bool) -> None:
    import goursat2d
    from goursat2d import SolverConfig, SolverError
    from run import Recorder

    ctx, m = set_up()
    rhs = right_hand_sides(ctx.grid, seed)
    configs = {method: SolverConfig(m=m, method=method) for method in METHODS}
    calls = [(f"{method}-{sign}", v, configs[method])
             for sign, v in zip(("pos", "neg"), rhs) for method in METHODS]
    rec = Recorder()

    def one_pass(traced: bool) -> None:
        """Gate each solve as it returns; the pass wall counts only the solves."""
        wall = 0.0
        for key, v, cfg in calls:
            rep, reason, fingerprint = None, None, None
            t0 = time.perf_counter()
            try:
                # looked up per call, so the tracer's rebinding takes effect
                rep = goursat2d.solve(ctx, v, cfg)
            except SolverError as exc:
                reason = f"solver error: {exc}"
            seconds_taken = time.perf_counter() - t0
            wall += seconds_taken
            if rep is not None:
                if not (rep.converged and rep.residual_weighted <= cfg.tol):
                    reason = f"not converged to tol (residual {rep.residual_weighted:g})"
                fingerprint = hashlib.sha256(rep.g.values.tobytes()).hexdigest()
            rec.record(key, len(rec.passes), traced, seconds_taken, reason, fingerprint)
        rec.end_pass(wall, traced)

    spans = []
    start = time.perf_counter()
    if trace:
        while not rec.passes or time.perf_counter() - start < seconds / 2:
            one_pass(False)
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            one_pass(True)
        spans = tracer.records()
    else:
        while len(rec.passes) < 2 or time.perf_counter() - start < seconds:
            one_pass(False)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({**rec.as_dict(), "spans": spans}, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        set_up()
    else:
        run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1")
