"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q

Each case runs bench/run.py with the command line of BENCHMARK.json, at
the self-test's sizes (``--size tiny``), and reads its output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT, **env) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.5"]
    cmd += ["--trace", str(trace), "--size", "tiny"]
    return subprocess.run(
        cmd, cwd=root, env={**os.environ, **env}, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    *summary, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    for m in listed:
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in summary), m
    assert any(line.startswith("machine ") for line in summary)
    assert any(line.startswith("fail_frac 0 ") for line in summary)


@pytest.mark.parametrize("trace", [0, 1])
def test_forced_report_failure_makes_fail_frac_nonzero(trace):
    done = run_bench("report", trace, WRACAH_CORRUPT="1")
    assert done.returncode == 0, done.stderr
    *summary, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is False
    assert result["failed"] > 0
    fail_line = next(line for line in summary if line.startswith("fail_frac "))
    assert float(fail_line.split()[1]) > 0
    if trace:
        assert result["metrics"]["fail_frac"]["value"] > 0


def test_traced_self_times_fit_in_wall_time():
    done = run_bench("operators", 1)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert 0 < metrics["trace.self_sum_s"]["value"] <= metrics["trace.wall_s"]["value"]
    spans = (ROOT / ".bench_out" / "operators" / "spans.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in spans]
    assert set(records[0]) == {"run", "id", "parent", "name", "start", "end"}
    assert "summary" in records[-1]


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("operators", 0, root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
