"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at a tiny size (``--tiny``, one second)
with two seeds, untraced and traced, and checks that the result line names
exactly the metrics and units BENCHMARK.json lists and that no op failed.
It also checks that the benchmark refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and the benchmark's own files.

    python3 bench/smoke_test.py
    python3 -m pytest bench/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = (1, 2)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_every_workload_reports_its_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                done = _bench(ROOT, "--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace), "--tiny")
                where = f"{workload} seed={seed} trace={trace}"
                assert done.returncode == 0, f"{where}: {done.stderr}"
                result = json.loads(done.stdout.strip().splitlines()[-1])
                assert set(result) == RESULT_KEYS, where
                metrics = result["metrics"]
                assert {k: v["unit"] for k, v in metrics.items()} == units[trace], where
                assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
                assert result["attempted"] >= 1, where
                assert result["failed"] == 0 and result["correct"], f"{where}: {done.stderr}"


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _bench(bare, "--workload", "formula-mix", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_workload_reports_its_metrics()
    test_refuses_to_run_without_the_sources()
    print("bench smoke test passed")
