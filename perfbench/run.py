"""The goursat2d benchmark: four workloads from CLI start-up to the N=512 core.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop with one client: one call at a
time, each started when the previous one has ended.  A call is one fresh
``goursat2d`` CLI process (spawn to exit) or, on ``solve-lib-512``, one
library ``solve(...)`` in a warm process.  Every call passes its correctness
gates before its time is recorded; a failed call records no time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then exactly one traced pass, and prints the
per-layer metrics of that pass.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every call passed its gates.  README.md beside this file explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"
PY = sys.executable

#: What the ``goursat2d`` console script runs.
CLI_MAIN = "import sys; from goursat2d.cli import main; sys.exit(main())"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
CALL_LIMIT_S = 150.0
THREAD_VARS = ("GOURSAT2D_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("cli-small", "solve-io-512", "solve-lib-512", "verify-sweep")
MMS_ORDER_RANGE = (1.8, 2.2)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_p50_s": "s",
                    "call_tail_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark could not run (missing program, a set-up process failed)."""


# -- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    """One CLI call; ``key`` is also its ``--out`` prefix, unique within a pass."""

    key: str
    args: tuple[str, ...]

    def argv(self) -> list[str]:
        return [*self.args, "--out", self.key]


def _rhs(rng: random.Random) -> str:
    """``a + b*x*y`` with a in [1.5, 2] and |b| ≤ 1/4, so the state stays z ≥ 0
    and the work per call does not depend on the seed (see libworker.py)."""
    return f"{rng.uniform(1.5, 2.0):.6f} + {rng.uniform(-0.25, 0.25):.6f}*x*y"


def cli_calls(workload: str, seed: int) -> list[CliCall]:
    """The fixed call list of one pass; the seed picks the RHS coefficients."""
    rng = random.Random(seed)
    ex = ("--builtin", "example46")
    if workload == "cli-small":
        return [
            CliCall("small_solve", ("solve", *ex, "--n", "32", "--rhs", _rhs(rng))),
            CliCall("small_lin", ("linsolve", *ex, "--n", "32", "--rhs", _rhs(rng))),
            CliCall("small_assume", ("verify", "--suite", "assumptions", *ex)),
            CliCall("small_rho", ("verify", "--suite", "contraction", *ex, "--n", "16")),
        ]
    if workload == "solve-io-512":
        return [
            CliCall("io_solve", ("solve", *ex, "--n", "512", "--rhs", _rhs(rng))),
            CliCall("io_lin", ("linsolve", *ex, "--n", "512", "--rhs", _rhs(rng),
                               "--linearize-at", "io_solve.grid.csv")),
        ]
    if workload == "verify-sweep":
        return [
            CliCall("sweep_sens", ("sens", *ex, "--n", "256", "--rhs", _rhs(rng),
                                   "--direction", "1 - x/2 + y")),
            CliCall("sweep_mms", ("mms", *ex, "--zstar", "1 + sin(2*x)*cos(y)",
                                  "--n-list", "64,128,256")),
        ]
    raise ValueError(f"not a CLI workload: {workload}")


# -- correctness gates ---------------------------------------------------------

def gate(call: CliCall, code: int, stdout: str, work: Path) -> str | None:
    """Why the call failed, or None when it passed every gate."""
    if code != 0:
        return f"exit code {code}"
    try:
        lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return "stdout is not one JSON object per line"
    if not lines:
        return "no output"
    command, last = call.args[0], lines[-1]
    if command in ("solve", "linsolve"):
        try:
            report = json.loads((work / f"{call.key}.report.json").read_text(encoding="utf-8"))
            tol = report["solver"]["tol"]
        except (OSError, ValueError, KeyError) as exc:
            return f"report unreadable: {exc}"
        if not (last.get("converged") is True and last.get("residual_weighted", math.inf) <= tol):
            return f"not converged to tol {tol:g}: {last}"
    elif command == "mms":
        orders = last.get("orders") or []
        low, high = MMS_ORDER_RANGE
        if not (last.get("pass") is True and orders and all(low <= p <= high for p in orders)):
            return f"mms orders outside [{low}, {high}]: {last}"
    elif command == "sens":
        if last.get("passed") is not True:
            return f"sens did not pass: {last}"
    elif command == "verify":
        verdicts = [line["pass"] for line in lines if "pass" in line]
        if not verdicts or not all(v is True for v in verdicts):
            return "a verification check did not pass"
    return None


def fingerprint(call: CliCall, stdout: bytes, work: Path) -> str:
    """Digest of stdout and the call's artifacts, compared across passes."""
    digest = hashlib.sha256(stdout)
    for suffix in (".report.json", ".grid.csv"):
        path = work / f"{call.key}{suffix}"
        if path.exists():
            digest.update(suffix.encode() + path.read_bytes())
    return digest.hexdigest()


class Recorder:
    """Gate-checked call records of one run.

    A call that failed a gate, or whose fingerprint differs from the first
    pass's for the same input, is kept with its reason and no time.
    """

    def __init__(self):
        self.calls: list[dict] = []
        self.passes: list[dict] = []
        self._fingerprints: dict[str, str] = {}

    def record(self, key: str, pass_index: int, traced: bool, seconds: float,
               reason: str | None, fingerprint: str | None) -> None:
        if reason is None and self._fingerprints.setdefault(key, fingerprint) != fingerprint:
            reason = "artifacts differ from an earlier pass on the same input"
        self.calls.append({"key": key, "pass": pass_index, "traced": traced,
                           "seconds": None if reason else seconds, "reason": reason})

    def end_pass(self, wall: float, traced: bool) -> None:
        self.passes.append({"wall": wall, "traced": traced})

    def as_dict(self) -> dict:
        return {"calls": self.calls, "passes": self.passes}


# -- processes -----------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment with ``src/`` first on the path and
    GOURSAT2D_THREADS unset, so the program runs at its default of 1 thread."""
    env = dict(os.environ)
    env.pop("GOURSAT2D_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, cwd: Path, stdout: Path, stderr: Path):
    """Run argv to completion: (exit code, spawn-to-exit seconds, peak RSS MiB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CALL_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def _timed_setup(argv: list[str], env: dict) -> float:
    code, seconds, _ = spawn(argv, env, WORK, WORK / "setup.out", WORK / "setup.err")
    if code != 0:
        err = (WORK / "setup.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"set-up process {argv[1:]} exited {code}:\n{err}")
    return seconds


def setup_argv(workload: str) -> list[str]:
    if workload == "solve-lib-512":
        return [PY, str(HERE / "libworker.py"), "setup"]
    return [PY, "-c", "import goursat2d.cli"]


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of the goursat2d, scipy and numpy imports.

    ``-X importtime`` prints each module when its import ends, children first,
    indented by depth.  Walking the lines backwards visits parents first, so a
    stack of open ancestors tells whether a module sits under another module
    of its own package; only the outermost entries of a package are summed.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = {"goursat2d": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(t != top for _, t in stack):
            totals[top] += cumulative / 1e6
        stack.append((depth, top))
    return totals


def import_times(env: dict) -> dict[str, float]:
    proc = subprocess.run([PY, "-X", "importtime", "-c", "import goursat2d.cli"],
                          cwd=WORK, env=env, capture_output=True, text=True,
                          timeout=CALL_LIMIT_S)
    if proc.returncode != 0:
        raise BenchError(f"import goursat2d.cli failed:\n{proc.stderr[-2000:]}")
    return parse_importtime(proc.stderr)


def provenance(env: dict, seed: int) -> dict:
    """Versions and settings every result is recorded with.

    Also byte-compiles ``src/`` so no timed process pays for compiling, and
    checks that goursat2d resolves to this checkout.
    """
    probe = ("import compileall, importlib.metadata as md, importlib.util, json, platform, sys; "
             "compileall.compile_dir(sys.argv[1], quiet=1); "
             "print(json.dumps({'goursat2d_file': importlib.util.find_spec('goursat2d').origin, "
             "'python': platform.python_version(), 'numpy': md.version('numpy'), "
             "'scipy': md.version('scipy')}))")
    proc = subprocess.run([PY, "-c", probe, str(ROOT / "src")], cwd=WORK, env=env,
                          capture_output=True, text=True, timeout=CALL_LIMIT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot find goursat2d and its dependencies:\n{proc.stderr[-2000:]}")
    info = json.loads(proc.stdout.splitlines()[-1])
    if not Path(info["goursat2d_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"goursat2d resolves to {info['goursat2d_file']}, not {ROOT / 'src'}")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() or None
    return {
        **info,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_thread_env": {k: env.get(k) for k in THREAD_VARS},
        "seed": seed,
        "byte_counts": "computed from array sizes and file sizes; no bandwidth claim",
    }


# -- running workloads ---------------------------------------------------------

def run_pass(calls: list[CliCall], prefix_for, env: dict, work: Path,
             rec: Recorder, traced: bool) -> list[tuple[int, float, float]]:
    """Run the calls back to back, then gate them; [(code, seconds, rss_mib)]."""
    for path in work.iterdir():
        path.unlink()
    runs = []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        runs.append(spawn(prefix_for(i) + call.argv(), env, work,
                          work / f"call{i}.out", work / f"call{i}.err"))
    wall = time.perf_counter() - start
    for i, (call, (code, seconds, _)) in enumerate(zip(calls, runs)):
        stdout = (work / f"call{i}.out").read_bytes()
        reason = gate(call, code, stdout.decode(errors="replace"), work)
        digest = None if reason else fingerprint(call, stdout, work)
        rec.record(call.key, len(rec.passes), traced, seconds, reason, digest)
    rec.end_pass(wall, traced)
    return runs


def _plain(i: int) -> list[str]:
    return [PY, "-c", CLI_MAIN]


def _launch(i: int) -> list[str]:
    return [PY, str(HERE / "launch.py"), f"spans{i}.json", str(i)]


def run_cli(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    calls = cli_calls(workload, seed)
    rec = Recorder()
    rss = 0.0
    start = time.perf_counter()
    while (len(rec.passes) < (1 if trace else 2)
           or time.perf_counter() - start < (seconds / 2 if trace else seconds)):
        rss = max([rss] + [r for _, _, r in run_pass(calls, _plain, env, WORK, rec, False)])
    out = {"peak_rss_mb": rss, "spans": [], "process_s": 0.0,
           "rss_note": "max over the call processes"}
    if trace:
        runs = run_pass(calls, _launch, env, WORK, rec, True)
        for i, (_, seconds_taken, _) in enumerate(runs):
            path = WORK / f"spans{i}.json"
            if not path.exists():  # the call failed before main; its gate says why
                continue
            traced = json.loads(path.read_text(encoding="utf-8"))
            out["spans"].append(traced["spans"])
            out["process_s"] += seconds_taken - traced["import_s"] - traced["main_s"]
    return {**rec.as_dict(), **out}


def run_lib(seed: int, seconds: float, trace: bool, env: dict) -> dict:
    result = WORK / "lib.json"
    code, _, rss = spawn([PY, str(HERE / "libworker.py"), "run", str(result), str(seed),
                          repr(seconds), "1" if trace else "0"],
                         env, WORK, WORK / "lib.out", WORK / "lib.err")
    if code != 0:
        err = (WORK / "lib.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"library worker exited {code}:\n{err}")
    out = json.loads(result.read_text(encoding="utf-8"))
    return {**out, "peak_rss_mb": rss, "spans": [out["spans"]], "process_s": 0.0,
            "rss_note": "peak of the warm library process"}


# -- metrics -------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With 20 samples or fewer no sample above the median has ten samples
    beyond it, and the median itself is returned (percentile 50).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def failure_summary(calls: list[dict]) -> tuple[int, int, float]:
    """(attempted, failed, failed_frac) of the call records."""
    failed = sum(c["reason"] is not None for c in calls)
    return len(calls), failed, failed / len(calls) if calls else 1.0


def _ok_passes(run: dict, traced: bool) -> list[float]:
    failed = {c["pass"] for c in run["calls"] if c["reason"] is not None}
    return [p["wall"] for i, p in enumerate(run["passes"])
            if p["traced"] == traced and i not in failed]


def end_to_end(run: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metric values, sample notes) of an untraced run."""
    times = [c["seconds"] for c in run["calls"] if c["seconds"] is not None]
    walls = _ok_passes(run, False)
    if not times or not walls:
        return {}, {}
    tail_value, pct = tail(times)
    values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
              "call_p50_s": statistics.median(times), "call_tail_s": tail_value,
              "peak_rss_mb": run["peak_rss_mb"]}
    notes = {"setup_s": f"median of {len(setup)} fresh set-up processes",
             "wall_s": f"median of {len(walls)} passes",
             "call_p50_s": f"median of {len(times)} calls",
             "call_tail_s": f"p{pct:.4g} of {len(times)} calls",
             "peak_rss_mb": run["rss_note"]}
    return values, notes


def per_layer(run: dict, imports: list[dict]) -> dict:
    values = layer_metrics(merge(run["spans"]))
    for name in ("goursat2d", "scipy", "numpy"):
        values[f"import.{name}_s"] = statistics.median(sample[name] for sample in imports)
    values["cli.process_s"] = run["process_s"]
    traced_wall = [p["wall"] for p in run["passes"] if p["traced"]]
    untraced = _ok_passes(run, False)
    values["trace.overhead_s"] = (traced_wall[0] - statistics.median(untraced)
                                  if traced_wall and untraced else 0.0)
    return values


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".bytes_" in name:
        return "bytes"
    if name.endswith("accept_ratio"):
        return "ratio"
    if name.endswith("max_residual"):
        return "abs"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    start = time.perf_counter()
    # set-up (or import-time) samples are part of the measured time
    setup = [] if trace else [_timed_setup(setup_argv(workload), env) for _ in range(SETUP_SAMPLES)]
    imports = [import_times(env) for _ in range(IMPORT_SAMPLES)] if trace else []
    remaining = max(0.0, seconds - (time.perf_counter() - start))
    if workload == "solve-lib-512":
        run = run_lib(seed, remaining, trace, env)
    else:
        run = run_cli(workload, seed, remaining, trace, env)
    shutil.rmtree(WORK, ignore_errors=True)
    attempted, failed, failed_frac = failure_summary(run["calls"])
    if trace:
        values, notes = per_layer(run, imports), {}
        units = {name: layer_unit(name) for name in values}
    else:
        values, notes = end_to_end(run, setup)
        units = END_TO_END_UNITS
    return {
        "workload": workload,
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac,
        "failures": [c for c in run["calls"] if c["reason"] is not None],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": notes,
        "setup_samples": setup,
        "calls": run["calls"],
        "passes": run["passes"],
        "spans": run["spans"],
    }


def report(result: dict) -> None:
    """Human-readable lines: every metric by name, unit and sample count."""
    w = result["workload"]
    for name, metric in result["metrics"].items():
        note = result["samples"].get(name, "")
        print(f"[{w}] {name} = {metric['value']:.6g} {metric['unit']}  {note}".rstrip())
    print(f"[{w}] failed_frac = {result['failed_frac']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} calls)")
    for failure in result["failures"]:
        print(f"[{w}] FAILED {failure['key']} (pass {failure['pass']}): {failure['reason']}")


def _terminate(signum, frame):
    # unwinds through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "goursat2d" / "__init__.py").is_file():
        print(f"error: no goursat2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        WORK.mkdir(parents=True, exist_ok=True)
        prov = provenance(env, args.seed)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), env)
                   for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"provenance": prov}))
    for result in results:
        report(result)
        stem = f"{result['workload']}.trace{args.trace}"
        spans = result.pop("spans")
        if args.trace:
            (OUT / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
        (OUT / f"{stem}.json").write_text(
            json.dumps({"provenance": prov, **result}, indent=1), encoding="utf-8")
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
