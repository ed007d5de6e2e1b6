"""Smoke check of the benchmark: shape, not timings.

Usage (from the root of a checkout): python3 benchmarks/smoke.py

Runs every workload of ``run.py`` at tiny sizes (``--tiny``), untraced and
traced, including ra-pipeline, which BENCHMARK.json does not list. Asserts
that the last line of output is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and that the metrics
are exactly the end-to-end (untraced) or per-layer (traced) names of
BENCHMARK.json with their units. It then copies only BENCHMARK.json and the
benchmark's files into an otherwise empty directory and asserts that the
benchmark exits non-zero there without printing a result.
Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".bench_work" / "smoke-no-program"


def run_bench(cwd: Path, command: list, workload: str, trace: int, tiny: bool = True):
    argv = command + ["--workload", workload, "--seed", "0", "--seconds", "1",
                      "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(line: str, expected: dict, where: str) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (where, set(result))
    assert isinstance(result["correct"], bool), where
    for key in ("attempted", "failed"):
        assert isinstance(result[key], int) and not isinstance(result[key], bool), (where, key)
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (where, set(metrics) ^ set(expected))
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}, (where, name)
        assert entry["unit"] == expected[name], (where, name, entry["unit"])
        assert isinstance(entry["value"], numbers.Real), (where, name)
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable] + bench["command"][1:]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert "setup_s" in end_to_end and not set(end_to_end) & set(per_layer)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            proc = run_bench(ROOT, command, workload, trace)
            where = f"{workload} --trace {trace}"
            assert proc.returncode == 0, (where, proc.stderr[-2000:])
            result = check_result(proc.stdout.strip().splitlines()[-1], expected, where)
            assert "  digest " in proc.stdout, where
            print(f"ok {where}: {result['attempted']} attempted, {result['failed']} failed")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, BARE / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = bench["workloads"][0]["name"]
        proc = run_bench(BARE, command, workload, 0, tiny=False)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert "metrics" not in proc.stdout, "benchmark printed a result without the program"
        print("ok without the program: exit", proc.returncode)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
