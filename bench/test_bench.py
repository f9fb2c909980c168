"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = {
    "census_records_per_s", "census_par_records_per_s", "batch_classes_per_s",
    "batch_request_p50_ms", "batch_request_p99_ms", "oracle_checks_per_s",
}


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    specs = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        value = res["metrics"][m["name"]]
        assert set(value) == {"value", "unit"} and value["unit"] == m["unit"], m
        assert isinstance(value["value"], (int, float)) and not isinstance(value["value"], bool), m
    for m in specs:
        assert any(ln.startswith(f"metric {m['name']} = ") and f" {m['unit']}" in ln for ln in lines), m
    assert any(ln.startswith("metric failed_frac = 0.0 fraction") for ln in lines)
    assert json.loads(lines[0].removeprefix("env "))["nproc"] >= 1


def test_workload_metric_names_are_reported():
    aliases = {alias for names in run.ALIASES.values() for alias in names.values()}
    assert WORKLOAD_NAMES <= aliases


def test_wrong_digest_counts_as_failed():
    env = run.Env()
    env.expected["census"]["10..12"]["sha256"] = "0" * 64
    res, _ = run.result(env, "census", 1, 0.2, trace=False, size="tiny")
    assert not res["correct"]
    assert res["failed"] == res["attempted"] - run.SIZES["tiny"]["set_ups"] >= 1
    frac = next(ln for ln in run.report(env, "census", res, False) if ln.startswith("metric failed_frac"))
    assert float(frac.split()[3]) > 0


def test_trace_counts_repeat_and_match_census_d10_20():
    env = run.Env()
    before = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("cubiccurves")}
    ops = [next(run.census_ops(env, 1, (10, 20)))]
    first, checks, _ = run.trace_run(env, "census", 0, ops)
    second, _, _ = run.trace_run(env, "census", 0, ops)
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("cubiccurves")}
    assert before == after  # every wrapper was taken out again
    assert checks == {"attempted": 2, "failed": 0}
    assert first["cohomology.h0.calls"] == 12_724
    assert first["cohomology.h0.distinct"] == 4_002
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_fails_without_the_program(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
