"""The wehlerk3 benchmark: one workload per run, checked outputs, named metrics.

Run it through run.py, which imports this module once the package source is
found.  Workloads are listed in BENCHMARK.json.  Each run sets up its inputs from
the seed, times ops one after another in this single process until
`--seconds` of op time have passed, and checks every op's output.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it alternates
untraced and traced passes over a fixed list of ops and reports the
per-layer metrics (see spans.py).  Human-readable lines come first; the last
line of standard output is one JSON object.  The exit code is 0 only when
every op's output was correct and every count repeated exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy
import wehlerk3
from wehlerk3 import surface
from wehlerk3._engine import PlaneTable

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("op_cpu_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

SPAN_METRICS = (
    "dynamics.phase_space", "dynamics.perm_x", "dynamics.perm_y",
    "dynamics.cycle_walk", "dynamics.pairing",
    "surface.random_surface", "surface.degenerate_fibers", "surface.gh_system",
    "engine.cor1_swap",
    "blowup.chart_build", "blowup.exceptional_points", "blowup.chart_step",
    "involution.vieta_step",
    "stats.curve", "stats.windows",
)
# Counts per op; every one must repeat exactly between passes and runs.
COUNTS = (
    "dynamics.phase_points", "dynamics.boundary_records", "dynamics.cycles",
    "dynamics.exceptions", "surface.draws", "surface.accept_ratio",
    "surface.rational_points", "blowup.charts", "blowup.boundary_points",
    "blowup.chart_steps", "involution.vieta_steps",
)
MEASURED = ("engine.analyze_s", "engine.smooth_scan_s", "engine.plane_table_s",
            "trace.overhead_ratio", "trace.uncovered_s", "trace.op_p50_s")


def per_layer_units() -> dict:
    units = {f"{name}_s": "s" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNTS})
    units["surface.accept_ratio"] = "ratio"
    units.update({name: "s" for name in MEASURED})
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- environment ------------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_rev():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "wehlerk3").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": _git_rev(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


# -- set-up ---------------------------------------------------------------------------


def set_up(wl, repeats: int = 3):
    """Build the workload's inputs from a cold plane table, several times.

    At least `repeats` times, and until half a second of set-up has been
    timed (at most 50 times), so that a cheap set-up is still a steady
    median.  Returns (set-up seconds, plane-table seconds), each the median.
    """
    setups, planes = [], []
    while len(setups) < repeats or (sum(setups) < 0.5 and len(setups) < 50):
        PlaneTable._cache.pop(wl.p, None)
        gc.collect()
        t0 = time.perf_counter()
        PlaneTable(wl.p)
        t1 = time.perf_counter()
        wl.setup()
        t2 = time.perf_counter()
        setups.append(t2 - t0)
        planes.append(t1 - t0)
    # Keep the collector from rescanning the set-up's objects during the ops.
    gc.collect()
    gc.freeze()
    return statistics.median(setups), statistics.median(planes)


# -- output checks -------------------------------------------------------------------


class Checker:
    """Compares each op's digest with its reference, or with its first result."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict = {}
        self.notes: list[str] = []

    def __call__(self, i: int, res) -> bool:
        want = self.wl.expected(i) or self.first.setdefault(res.key, res.digest)
        ok = res.digest == want
        if ok and res.paths is not None:
            ok = self.wl.check_paths(res.paths)
        if not ok:
            self.notes.append(f"op {i} (input {res.key}): digest {res.digest}, expected {want}")
        return ok


def run_op(wl, i: int, check, notes: list):
    """Time one op; returns (wall s, cpu s, result or None, passed)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res = wl.run_op(i)
    except Exception as exc:  # an op that raises counts as failed; keep measuring
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        notes.append(f"op {i}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return wall, cpu, None, False
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, res, check(i, res)


# -- untraced run ----------------------------------------------------------------------


def tail(walls: list):
    """(value, percentile, samples beyond): the highest percentile with >= 10 beyond.

    With fewer than 11 samples no percentile has 10 beyond; the maximum is used.
    """
    srt = sorted(walls)
    n = len(srt)
    r = n - 11 if n >= 11 else n - 1
    return srt[r], 100.0 * (r + 1) / n, n - 1 - r


def measure(wl, seconds: float, check):
    walls, cpus, failed, notes = [], [], 0, []
    busy, i = 0.0, 0
    while busy < seconds or not walls:
        if wl.collect:
            gc.collect()
        wall, cpu, res, ok = run_op(wl, i, check, notes)
        del res
        walls.append(wall)
        cpus.append(cpu)
        failed += not ok
        busy += wall
        i += 1
    return walls, cpus, failed, notes


def end_to_end(walls, cpus, setup_s) -> dict:
    value, _, _ = tail(walls)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "op_cpu_p50_s": statistics.median(cpus),
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- traced run ---------------------------------------------------------------------------


def _fresh_engine_times(s):
    """(analyze both sides, smooth_scan) on a fresh copy of an accepted surface."""
    eng = surface.parse_surface(surface.serialize_surface(s)).engine()
    t0 = time.perf_counter()
    pairs, _ = eng.analyze("x")
    eng.analyze("y")
    t1 = time.perf_counter()
    eng.smooth_scan(pairs)
    return t1 - t0, time.perf_counter() - t1


def _op_counts(res, draws: int) -> dict:
    c = dict.fromkeys(COUNTS, 0)
    c["surface.draws"] = draws
    c["surface.rational_points"] = surface.point_count(res.surface)
    if res.census is not None:
        c["dynamics.phase_points"] = res.census.total
        c["dynamics.boundary_records"] = workloads.boundary_records(res.census)
        c["dynamics.cycles"] = len(res.census.cycles)
        c["dynamics.exceptions"] = len(res.census.space.exceptions)
    return c


def traced_pass(wl, tracer, check, draws: dict, notes: list):
    """One traced pass over the fixed op list.

    Returns (per-op times, per-op counts, op walls, op digests, failed ops).
    """
    k = wl.op_count()
    tracer.reset()
    sums = dict.fromkeys(COUNTS, 0)
    walls, digests, failed, uncovered = [], [], 0, 0.0
    engine_times: dict = {}
    for i in range(k):
        if wl.collect:
            gc.collect()
        covered0 = tracer.covered_s
        with tracer.installed():
            wall, _, res, ok = run_op(wl, i, check, notes)
        walls.append(wall)
        uncovered += wall - (tracer.covered_s - covered0)
        failed += not ok
        if res is None:
            digests.append(None)
            continue
        digests.append(res.digest)
        sd = wl.surface_seed(i)
        if sd not in draws:
            draws[sd] = workloads.count_draws(wl.p, sd, wl.mode, hint=wl.draw_hint(i))
        if sd not in engine_times:
            engine_times[sd] = _fresh_engine_times(res.surface)
        for name, v in _op_counts(res, draws[sd]).items():
            sums[name] += v
        del res
    out = {f"{name}_s": tracer.self_s.get(name, 0.0) / k for name in SPAN_METRICS}
    counts = {name: v / k for name, v in sums.items()}
    counts["surface.accept_ratio"] = k / sums["surface.draws"] if sums["surface.draws"] else 0.0
    counts["blowup.charts"] = tracer.calls.get("blowup.chart_build", 0) / k
    counts["blowup.boundary_points"] = tracer.items.get("blowup.exceptional_points", 0) / k
    counts["blowup.chart_steps"] = tracer.calls.get("blowup.chart_step", 0) / k
    counts["involution.vieta_steps"] = tracer.calls.get("involution.vieta_step", 0) / k
    seeds = [wl.surface_seed(i) for i in range(k)]
    out["engine.analyze_s"] = sum(engine_times[sd][0] for sd in seeds) / k
    out["engine.smooth_scan_s"] = sum(engine_times[sd][1] for sd in seeds) / k
    out["trace.uncovered_s"] = uncovered / k
    return out, counts, walls, digests, failed


@dataclass
class Traced:
    metrics: dict
    attempted: int
    failed: int
    notes: list
    drift: list      # counts that did not repeat exactly
    digests: list    # of the first traced pass
    counts: dict     # of the first traced pass


def trace_run(wl, seconds: float, check, ref_counts) -> Traced:
    """Alternate untraced and traced passes over the op list until `seconds` of ops."""
    tracer = Tracer()
    k = wl.op_count()
    plain_walls, traced_walls, passes = [], [], []
    first_counts, digests, drift = None, None, []
    draws: dict = {}
    attempted = failed = 0
    notes: list = []
    busy = 0.0
    while busy < seconds or not passes:
        for i in range(k):
            if wl.collect:
                gc.collect()
            wall, _, res, ok = run_op(wl, i, check, notes)
            del res
            plain_walls.append(wall)
            failed += not ok
            busy += wall
        out, counts, walls, dg, f = traced_pass(wl, tracer, check, draws, notes)
        traced_walls += walls
        failed += f
        attempted += 2 * k
        busy += sum(walls)
        passes.append(out)
        if first_counts is None:
            first_counts, digests = counts, dg
        elif counts != first_counts:
            drift.append(f"counts changed between passes: {first_counts} -> {counts}")
    if ref_counts is not None and ref_counts != first_counts:
        drift.append(f"counts differ from the stored reference: {ref_counts} -> {first_counts}")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics.update(first_counts)
    metrics["trace.op_p50_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_ratio"] = metrics["trace.op_p50_s"] / statistics.median(plain_walls)
    return Traced(metrics, attempted, failed, notes, drift, digests, first_counts)


# -- entry point ---------------------------------------------------------------------------


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text())


def reference_outputs(name: str, seed: int, scale, pools: dict):
    """Digests of the op list and the traced counts, for make_refs.py."""
    wl = workloads.KINDS[name](scale, seed, {"pools": pools})
    set_up(wl, 1)
    traced = trace_run(wl, 0, Checker(wl), None)
    if traced.failed or traced.drift:
        raise RuntimeError(f"{name} seed {seed} failed: {traced.notes + traced.drift}")
    return (None if name == "degenerate_p101" else traced.digests), traced.counts


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEEDS[0])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, scale=None) -> int:
    if Path(wehlerk3.__file__).resolve().parent != (SRC / "wehlerk3").resolve():
        print(f"perfbench: wehlerk3 imported from {wehlerk3.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    scale = scale or workloads.FULL
    env = environment()
    refs = load_refs()
    wl = workloads.KINDS[args.workload](scale, args.seed, refs)
    stored = workloads.stored_outputs(refs, args.workload, scale, args.seed)
    setup_s, plane_s = set_up(wl)
    check = Checker(wl)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  single process")
    if args.trace:
        traced = trace_run(wl, args.seconds, check, stored and stored["counts"])
        metrics, attempted, failed = traced.metrics, traced.attempted, traced.failed
        notes, drift = traced.notes, traced.drift
        metrics["engine.plane_table_s"] = plane_s
        units = per_layer_units()
    else:
        walls, cpus, failed, notes = measure(wl, args.seconds, check)
        attempted, drift = len(walls), []
        metrics = end_to_end(walls, cpus, setup_s)
        units = dict(END_TO_END)
    for name, unit in units.items():
        line = f"{name} = {metrics[name]:.6g} {unit}"
        if name == "op_tail_s":
            _, pct, beyond = tail(walls)
            line += f"  (p{pct:.1f} of {len(walls)} ops, {beyond} beyond)"
        print(line)
    print(f"error_rate = {failed / attempted:.6g}  ({failed} failed of {attempted} attempted)")
    for note in (check.notes + notes)[:20]:
        print(f"note: {note}")
    for note in drift:
        print(f"nondeterminism: {note}")
    env["loadavg_end"] = _loadavg()
    print("env " + json.dumps(env, sort_keys=True))
    correct = failed == 0 and not drift
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    sys.stdout.flush()
    return 0 if correct else 1
