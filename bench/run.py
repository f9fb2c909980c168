#!/usr/bin/env python3
"""The cubiccurves benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.  Each
workload is a closed loop with one client in this process, and every request
goes through ``cubiccurves.cli.run`` or the public API, with the caches a CLI
user starts without (``census._families_by_genus``, ``oracle._h0_at``,
``oracle.point_config``) emptied before each timed operation:

  census        one census window, d 10..22 over the full genus range, CSV,
                --threads 1; the CSV sha256 is pinned
  census-par    the same window at --threads <nproc>
  cli-batch     seeded --stdin batches of W(E6)-moved classes (see batch.py);
                stdout, stderr and exit code are checked per request
  oracle-check  seeded rounds of classes with a = 10, 11, 12 and a square or
                almost square condition matrix; the interpolation oracle
                must match the engine's h0

``--trace 0`` runs operations for ``--seconds``, with the set-up probe run in
a fresh interpreter eight times along the way, and prints the end-to-end
metrics of BENCHMARK.json.  Their times are stated at reference speed (see
``Speed``); the wall-clock figures are printed beside them.

``--trace 1`` runs a fixed amount of work, first untraced and then traced
(see tracer.py), and prints the per-layer metrics plus the tracing overhead;
its counts repeat exactly for a given seed.

Lines before the last give the environment and every metric with its unit;
the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import batch
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("census", "census-par", "cli-batch", "oracle-check")
SIZES = {
    # census window, traced cli-batch requests, traced oracle rounds, set-ups per timed run
    "full": {"window": (10, 22), "trace_requests": 300, "trace_rounds": 4, "set_ups": 8},
    "tiny": {"window": (10, 12), "trace_requests": 20, "trace_rounds": 1, "set_ups": 2},
}
CALIBRATION_REQUESTS = 80
CALIBRATION_SHARE = 0.1
CALIBRATION_WINDOW_S = 2.0
REFERENCE_S = 0.008  # the calibration time that defines reference speed
ORACLE_A = (10, 11, 12)
SETUP_ARGV = ["cohomology", "12;4,4,4,4,2,2"]
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); from cubiccurves import cli; sys.exit(cli.run(sys.argv[2:]))"

# The name each end-to-end metric carries in the report for a workload.
ALIASES = {
    "census": {"throughput_per_s": "census_records_per_s", "p50_ms": "census_window_p50_ms", "p99_ms": "census_window_p99_ms"},
    "census-par": {"throughput_per_s": "census_par_records_per_s", "p50_ms": "census_par_window_p50_ms", "p99_ms": "census_par_window_p99_ms"},
    "cli-batch": {"throughput_per_s": "batch_classes_per_s", "p50_ms": "batch_request_p50_ms", "p99_ms": "batch_request_p99_ms"},
    "oracle-check": {"throughput_per_s": "oracle_checks_per_s", "p50_ms": "oracle_round_p50_ms", "p99_ms": "oracle_round_p99_ms"},
}


def _word_len(tr, args, red):
    tr.add("lattice.word_len", len(red.word))


def _matrix_cells(tr, args, rank):
    rows = args[0]
    tr.add("oracle.matrix_cells", len(rows) * (len(rows[0]) if rows else 0))


# (module, function, span name, hook run on the result)
TRACE_TARGETS = (
    ("lattice", "reduce_to_standard", "lattice.reduce_to_standard", _word_len),
    ("cohomology", "h0", "cohomology.h0", lambda tr, args, r: tr.see("cohomology.h0", args[0])),
    ("cohomology", "cohomology", "cohomology.cohomology", None),
    ("cohomology", "is_effective", "cohomology.is_effective", None),
    ("cohomology", "is_nef", "cohomology.is_nef", None),
    ("curve", "invariants", "curve.invariants", None),
    ("curve", "abnormality", "curve.abnormality", None),
    ("curve", "require_smooth_member", "curve.require_smooth_member", None),
    ("obstruction", "classify", "obstruction.classify", lambda tr, args, v: tr.add(f"obstruction.verdict.{v.kind}")),
    ("obstruction", "hilbert_dim", "obstruction.hilbert_dim", lambda tr, args, r: tr.add(f"obstruction.method.{r.method}")),
    ("obstruction", "kleppe_verdict", "obstruction.kleppe_verdict", None),
    ("obstruction", "restriction_surjective", "obstruction.restriction_surjective", None),
    # the enumeration behind enumerate_families, which census_range calls directly
    ("census", "_families_by_genus", "census.enumerate_families", None),
    ("census", "census_range", "census.census_range", None),
    ("census", "census_csv", "census.census_csv", lambda tr, args, text: tr.add("census.census_csv.bytes", len(text.encode()))),
    ("cli", "run", "cli.run", None),
    ("cli", "parse_class", "cli.parse_class", None),
    ("oracle", "h0_interpolation", "oracle.h0_interpolation", None),
    ("oracle", "exact_rank", "oracle.exact_rank", _matrix_cells),
    ("oracle", "point_config", "oracle.point_config", None),
)


class Env:
    """The imported program, the pinned answers and the optional tracer."""

    def __init__(self) -> None:
        if not (SRC / "cubiccurves" / "__init__.py").is_file():
            sys.exit(f"run.py: no program at {SRC / 'cubiccurves'}; run from the root of a cubiccurves checkout")
        sys.path.insert(0, str(SRC))
        self.mods = {
            name: importlib.import_module(f"cubiccurves.{name}")
            for name in ("census", "cli", "cohomology", "lattice", "oracle")
        }
        if Path(self.mods["cli"].__file__).resolve().parent != SRC / "cubiccurves":
            sys.exit(f"run.py: imported cubiccurves from {self.mods['cli'].__file__}, not from {SRC}")
        # bound before any tracing wrapper replaces the cached functions
        self._cache_clears = (
            self.mods["census"]._families_by_genus.cache_clear,
            self.mods["oracle"]._h0_at.cache_clear,
            self.mods["oracle"].point_config.cache_clear,
        )
        self.expected = json.loads((HERE / "expected.json").read_text())
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.tracer: Tracer | None = None

    def cold(self) -> None:
        for clear in self._cache_clears:
            clear()

    def call(self, argv: list[str], stdin: str = "") -> tuple[str, str, int, float]:
        """cli.run in process: (stdout, stderr, exit code, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = self.mods["cli"].run(argv)
                dt = time.perf_counter() - t0
        finally:
            sys.stdin = saved
        text = out.getvalue()
        if self.tracer is not None:
            self.tracer.add("cli.output_bytes", len(text.encode()))
            self.tracer.add("cli.exit2", code == 2)
        return text, err.getvalue(), code, dt


# --- workloads: each yields operations, an operation returns (seconds, items, ok)


def census_ops(env: Env, threads: int, window: tuple[int, int]):
    lo, hi = window
    g_max = 1 + (hi - 3) * hi // 2
    argv = ["census", "--d-min", str(lo), "--d-max", str(hi), "--g-min", "0", "--g-max", str(g_max),
            "--format", "csv", "--threads", str(threads)]
    want = env.expected["census"][f"{lo}..{hi}"]

    def op():
        out, err, code, dt = env.call(argv)
        ok = code == 0 and not err and hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
        return dt, out.count("\n") - 1, ok

    return itertools.repeat(op)


def batch_ops(env: Env, seed: int):
    pool = env.expected["pool"]
    for req in batch.requests(seed, pool):
        def op(req=req, want=batch.expected(req, pool)):
            out, err, code, dt = env.call([req.cmd, "--stdin", "--format", req.fmt], req.stdin)
            return dt, len(req.classes), (out, err, code) == want

        yield op


def oracle_ops(env: Env, seed: int):
    """Rounds of checks, one class for each a in ORACLE_A.

    Each class has a square or one-row-short condition matrix.  Such a rank
    costs about the same for every class of a given a, so runs on different
    seeds do comparable work.
    """
    rng = random.Random(seed)
    divisor = env.mods["lattice"].DivisorClass
    while True:
        checks = []
        for a in ORACLE_A:
            cols = (a + 1) * (a + 2) // 2
            while True:
                b = tuple(rng.randint(-1, a // 2) for _ in range(6))
                if cols - 1 <= sum(m * (m + 1) // 2 for m in b if m > 0) <= cols:
                    break
            checks.append((divisor(a, b), rng.randrange(1 << 20)))

        def op(checks=checks):
            t0 = time.perf_counter()
            ok = all([env.mods["cohomology"].h0(c) == env.mods["oracle"].h0_interpolation(c, s) for c, s in checks])
            return time.perf_counter() - t0, len(checks), ok

        yield op


def operations(env: Env, workload: str, seed: int, size: dict):
    if workload == "census":
        return census_ops(env, 1, size["window"])
    if workload == "census-par":
        return census_ops(env, nproc(), size["window"])
    if workload == "cli-batch":
        return batch_ops(env, seed)
    return oracle_ops(env, seed)


def run_once(env: Env, ops: list) -> tuple[list[float], int]:
    """Each op once, caches emptied before each: (seconds per op, failed ops)."""
    lat, failed = [], 0
    for i, op in enumerate(ops):
        env.cold()
        if env.tracer is not None:
            env.tracer.request = i
        dt, _, ok = op()
        lat.append(dt)
        failed += not ok
    return lat, failed


def _render(requests: list, pool: dict) -> None:
    for req in requests:
        batch.expected(req, pool)


def _eliminate(matrix: list[list[int]]) -> None:
    """Fraction-free elimination of a copy of matrix."""
    rows, prev = [row[:] for row in matrix], 1
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        pivot = rows.pop(i)
        rows = [[(pivot[0] * row[j] - row[0] * pivot[j]) // prev for j in range(1, len(row))] for row in rows]
        prev = pivot[0]


def calibration(env: Env, workload: str) -> list:
    """The calibration work for a workload: one callable per thread it runs on.

    Its shape follows the workload's, because a slow spell of the machine
    slows big-integer elimination less than object and string handling.
    """
    if workload == "oracle-check":
        rng = random.Random(0)
        matrix = [[rng.randrange(10 ** 20) for _ in range(24)] for _ in range(24)]
        return [functools.partial(_eliminate, matrix)]
    pool = env.expected["pool"]
    requests = list(itertools.islice(batch.requests(0, pool), CALIBRATION_REQUESTS))
    threads = nproc() if workload == "census-par" else 1
    return [functools.partial(_render, requests[i::threads], pool) for i in range(threads)]


class Speed:
    """Calibration samples taken through a run, to state times at reference speed.

    The machines this runs on drift in speed by tens of percent over seconds
    to minutes, and jitter by as much from one millisecond to the next.  A
    fixed piece of work that does not touch the program (``calibration``) is
    timed between operations for CALIBRATION_SHARE of the time the operations
    take.  A time measured at t is scaled by REFERENCE_S over the median
    calibration time within CALIBRATION_WINDOW_S of t.
    """

    def __init__(self, parts: list) -> None:
        self._parts = parts
        self._owed = 0.0
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        if len(self._parts) == 1:
            self._parts[0]()
        else:
            workers = [threading.Thread(target=part) for part in self._parts]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        dt = time.perf_counter() - t0
        self.samples.append((t0 + dt / 2, dt))
        return dt

    def after(self, op_seconds: float) -> None:
        """Calibrate for CALIBRATION_SHARE of an operation that just took op_seconds."""
        self._owed += CALIBRATION_SHARE * op_seconds
        while self._owed > 0:
            self._owed -= self.sample()

    def factor(self, t: float) -> float:
        near = [c for s, c in self.samples if abs(s - t) <= CALIBRATION_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - t))[1]]
        return REFERENCE_S / statistics.median(near)


def run_timed(env: Env, ops, speed: Speed, seconds: float, set_ups: int) -> dict:
    """Ops until the seconds run out, with set_ups fresh-interpreter set-ups spread over them.

    An op yielded again and again (the census window) counts once, at the
    median of its runs, so its latency percentiles describe the op and not
    the machine.
    """
    runs: list[list] = []  # per op: [items, failed runs, [(midpoint, seconds)]]
    last = None
    setups = []
    start = time.perf_counter()
    next_setup = start
    speed.sample()
    for op in ops:
        if len(setups) < set_ups and time.perf_counter() >= next_setup:
            setups.append(set_up(env))
            next_setup += seconds / set_ups
        env.cold()
        t0 = time.perf_counter()
        dt, n, ok = op()
        if op is not last:
            runs.append([n, 0, []])
            last = op
        runs[-1][1] += not ok
        runs[-1][2].append((t0 + dt / 2, dt))
        speed.after(dt)
        if time.perf_counter() >= start + seconds:
            break
    while len(setups) < set_ups:
        setups.append(set_up(env))
    return {
        "latencies": [statistics.median(dt * speed.factor(t) for t, dt in e[2]) for e in runs],
        "raw_latencies": [statistics.median(dt for _, dt in e[2]) for e in runs],
        "items": sum(e[0] for e in runs),
        "runs": sum(len(e[2]) for e in runs),
        "failed": sum(e[1] for e in runs),
        "setups": [(dt * speed.factor(t), dt, ok) for t, dt, ok in setups],
        "calibration_s": statistics.median(c for _, c in speed.samples),
    }


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def set_up(env: Env) -> tuple[float, float, bool]:
    """(midpoint, seconds) from a fresh interpreter to the first answer, and whether it was right."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *SETUP_ARGV],
                          capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    return t0 + dt / 2, dt, proc.returncode == 0 and proc.stdout == env.expected["setup"]["stdout"]


def trace_run(env: Env, workload: str, seed: int, ops: list) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from one traced pass over ops, after one untraced pass."""
    plain, plain_failed = run_once(env, ops)
    tr = env.tracer = Tracer()
    try:
        for module, attr, name, hook in TRACE_TARGETS:
            tr.install(f"cubiccurves.{module}", attr, name, hook)
        traced, traced_failed = run_once(env, ops)
    finally:
        tr.restore()
        env.tracer = None
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"spans-{workload}-{seed}.csv")

    calls, self_ns = tr.calls(), tr.self_ns()
    h0_calls = calls["cohomology.h0"]
    derived = {
        "cohomology.h0.distinct": len(tr.distinct["cohomology.h0"]),
        "cohomology.h0.distinct_ratio": len(tr.distinct["cohomology.h0"]) / h0_calls if h0_calls else 0.0,
        "trace.overhead_pct": 100 * (sum(traced) / sum(plain) - 1),
    }
    metrics = {}
    for m in env.bench["per_layer"]:
        name = m["name"]
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls[name.removesuffix(".calls")]
        elif name.endswith(".self_ms"):
            value = self_ns[name.removesuffix(".self_ms")] / 1e6
        else:
            value = tr.counts[name]
        metrics[name] = value
    checks = {"attempted": 2 * len(ops), "failed": plain_failed + traced_failed}
    notes = [f"traced {len(tr.spans)} spans; untraced {sum(plain):.3f} s, traced {sum(traced):.3f} s"]
    return metrics, checks, notes


def end_to_end(env: Env, workload: str, seed: int, seconds: float, size: dict) -> tuple[dict, dict, list[str]]:
    speed = Speed(calibration(env, workload))
    run = run_timed(env, operations(env, workload, seed, size), speed, seconds, size["set_ups"])
    lat, raw = run["latencies"], run["raw_latencies"]
    metrics = {
        "throughput_per_s": run["items"] / sum(lat),
        "p50_ms": percentile(lat, 50) * 1e3,
        "p99_ms": percentile(lat, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(s for s, _, _ in run["setups"]),
    }
    checks = {
        "attempted": run["runs"] + len(run["setups"]),
        "failed": run["failed"] + sum(not ok for *_, ok in run["setups"]),
    }
    notes = [
        f"operations {len(lat)} run {run['runs']} times, set-ups {len(run['setups'])}; calibration median "
        f"{run['calibration_s'] * 1e3:.3f} ms against the reference {REFERENCE_S * 1e3:.3f} ms",
        f"wall clock: throughput_per_s {run['items'] / sum(raw)}, p50_ms {percentile(raw, 50) * 1e3}, "
        f"p99_ms {percentile(raw, 99) * 1e3}, setup_s {statistics.median(w for _, w, _ in run['setups'])}",
    ]
    return metrics, checks, notes


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(env: Env) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cubiccurves").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "gmpy2": env.mods["oracle"].mpz is not int,
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def result(env: Env, workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, list[str]]:
    sz = SIZES[size]
    if trace:
        n = {"census": 1, "census-par": 1, "cli-batch": sz["trace_requests"], "oracle-check": sz["trace_rounds"]}[workload]
        ops = list(itertools.islice(operations(env, workload, seed, sz), n))
        metrics, checks, notes = trace_run(env, workload, seed, ops)
    else:
        metrics, checks, notes = end_to_end(env, workload, seed, seconds, sz)
    return {"correct": checks["failed"] == 0, **checks, "metrics": metrics}, notes


def report(env: Env, workload: str, res: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric with its unit, under its workload name too."""
    specs = env.bench["per_layer" if trace else "end_to_end"]
    lines = []
    for m in specs:
        alias = ALIASES[workload].get(m["name"])
        suffix = f"  ({alias})" if alias else ""
        lines.append(f"metric {m['name']} = {res['metrics'][m['name']]} {m['unit']}{suffix}")
    lines.append(f"metric failed_frac = {res['failed'] / res['attempted']} fraction  ({res['failed']} of {res['attempted']})")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny: the benchmark's own self-test")
    args = p.parse_args(argv)
    env = Env()
    res, notes = result(env, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    units = {m["name"]: m["unit"] for m in env.bench["per_layer" if args.trace else "end_to_end"]}
    if sorted(res["metrics"]) != sorted(units):
        sys.exit(f"run.py: metrics {sorted(res['metrics'])} do not match BENCHMARK.json {sorted(units)}")
    print("env " + json.dumps(environment(env)))
    for line in notes + report(env, args.workload, res, bool(args.trace)):
        print(line)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in res["metrics"].items()}
    print(json.dumps({**res, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
