#!/usr/bin/env python3
"""The wracah benchmark: one workload, one run, one JSON line at the end.

    python3 bench/run.py --workload report|operators --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` and nothing needs installing.  Each run is one closed-loop client
in fresh processes, so no cache carries over from an earlier run.

Workloads (why each one is here: BENCHMARK.json):

* ``report``   -- ``wracah report --max-j 6 --r 1 --seed N``, spawned and timed
  from spawn to exit, once per round; every check it prints is verified.
* ``operators`` -- the dense Fock and su(2) verifiers at k = 13, 17, 21, 25.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several fresh processes that import wracah and make the warm-up call),
wall time per round, calls per second, median and p99 call latency and
peak RSS.  ``--trace 1`` runs the same work twice, once plain and once
with every public function of every module wrapped in a span (tracer.py),
and prints the per-layer metrics, the tracing overhead and where the spans
were written (``.bench_out/<workload>/spans.jsonl``).

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a readable summary, including the
machine, the failure fraction with its base, and the workload properties.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]  # for workloads.py; imported only once the source is found
SETUP_SAMPLES = 7
CHILD_LIMIT_S = 170.0  # a child still running after this is killed and counted as failed


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


class Child:
    """A process run to completion: stdout lines, time to READY, time to exit, rusage."""

    def __init__(self, cmd: list[str]):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            self.lines = []
            self.ready_s = None
            for line in proc.stdout:
                if self.ready_s is None and line.strip() == "READY":
                    self.ready_s = time.perf_counter() - start
                self.lines.append(line)
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024

    def result(self) -> dict:
        if self.code != 0 or not self.lines:
            raise RuntimeError(f"benchmark worker exited {self.code}")
        return json.loads(self.lines[-1])


def worker(workload: str, seed: int, size: str, out_dir: Path, **opts) -> Child:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--size", size, "--out-dir", str(out_dir)]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    return Child(cmd)


def setup_samples(workload, seed, size, out_dir, count) -> tuple[list[float], dict]:
    """Time to READY of `count` fresh processes, and the machine they ran on."""
    samples = []
    for _ in range(count):
        child = worker(workload, seed, size, out_dir, mode="setup")
        if child.ready_s is None:
            raise RuntimeError(f"set-up probe exited {child.code}")
        samples.append(child.ready_s)
    return samples, child.result()["machine"]


def run_reports(seed: int, size: str, seconds: float, out_dir: Path) -> dict:
    """Spawn the report command until `seconds` have passed; whole commands only."""
    import workloads

    walls, rss, attempted, failures = [], [], 0, []
    while sum(walls) < seconds and sum(walls) + max(walls, default=0.0) < CHILD_LIMIT_S - 20:
        out = out_dir / "report.json"
        out.unlink(missing_ok=True)
        child = Child([sys.executable, "-m", "wracah", *workloads.report_args(seed, workloads.SIZES[size], out)])
        text = out.read_text(encoding="utf-8") if out.exists() else None
        n, bad = workloads.check_report(child.code, text)
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        attempted += n
        failures += bad
    return {
        "latencies": walls,
        "round_times": walls,
        "round_p50": walls,
        "round_p99": walls,
        "busy_s": sum(walls),
        "peak_rss_mb": statistics.median(rss),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "properties": workloads.report_properties(workloads.SIZES[size]),
    }


def end_to_end(res: dict, setup: list[float]) -> dict:
    """Every timing is a per-round figure, reported as the median over the run's rounds.

    Rounds have a fixed composition, so a per-round percentile does not
    depend on how many rounds fit in the run, and the median over rounds
    moves little when the machine stalls for part of a run.
    """
    rounds = res["round_times"]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rounds),
        "ops_per_s": len(res["latencies"]) / len(rounds) / statistics.median(rounds),
        "op_p50_ms": statistics.median(res["round_p50"]) * 1e3,
        "op_p99_ms": statistics.median(res["round_p99"]) * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    props = traced["properties"]
    overhead = traced["busy_s"] - plain["busy_s"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {
        **{f"wigner.memo.{k}": v for k, v in traced["memo"].items()},
        **layers,
        "cli.import_s": traced["import_s"],
        "workload.max_twice_j": props["max_twice_j"],
        "workload.max_k": props["max_k"],
        "fail_frac": failed / attempted,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain["busy_s"],
        "trace.self_sum_s": traced["trace"]["self_sum_s"],
        "trace.wall_s": traced["trace"]["wall_s"],
    }


def summary(workload: str, res: dict, metrics: dict, units: dict, machine: dict) -> list[str]:
    from workloads import percentile

    lines = [f"workload {workload}", "machine " + json.dumps(machine)]
    lines.append("properties " + json.dumps(res["properties"]))
    lat = res["latencies"]
    per_round = len(lat) // len(res["round_times"])
    lines.append(
        f"calls {len(lat)} in {len(res['round_times'])} rounds of {per_round}; "
        f"pooled p99 {percentile(lat, 0.99) * 1e3:.4g} ms with {len(lat) - math.ceil(0.99 * len(lat)) + 1} calls at or beyond it"
    )
    lines.append(f"fail_frac {res['failed'] / res['attempted']:.6g} ratio ({res['failed']} failed of {res['attempted']} {'checks' if workload == 'report' else 'calls'})")
    for label, (count, median_ms) in res.get("by_kind", {}).items():
        lines.append(f"  {label}: {count} calls, median {median_ms:.4g} ms")
    for failure in res["failures"]:
        lines.append(f"  FAILED {failure}")
    if "self_s" in res:
        wall = res["trace"]["wall_s"]
        for layer, took in sorted(res["self_s"].items(), key=lambda kv: -kv[1]):
            if took > 0:
                lines.append(f"  self time {layer}: {took:.4g} s, {took / wall:.1%} of the traced {wall:.4g} s")
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["report", "operators"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: the self-test's sizes")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wracah" / "__init__.py").is_file():
        print(f"no wracah source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed % 2**31

    try:
        if not args.trace:
            if args.workload == "report":
                setup, machine = setup_samples(args.workload, seed, args.size, out_dir, SETUP_SAMPLES)
                res = run_reports(seed, args.size, args.seconds, out_dir)
            else:
                setup, machine = setup_samples(args.workload, seed, args.size, out_dir, SETUP_SAMPLES - 1)
                child = worker(args.workload, seed, args.size, out_dir, seconds=args.seconds)
                res = child.result()
                setup.append(child.ready_s)
            metrics = end_to_end(res, setup)
            res["properties"]["setup_samples_s"] = setup
            checks_ok = True
        else:
            if args.workload == "report":
                plain = worker(args.workload, seed, args.size, out_dir).result()
                traced = worker(args.workload, seed, args.size, out_dir, trace=1).result()
            else:
                plain = worker(args.workload, seed, args.size, out_dir, seconds=args.seconds / 2).result()
                rounds = len(plain["round_times"])
                traced = worker(args.workload, seed, args.size, out_dir, rounds=rounds, trace=1).result()
            metrics = per_layer(plain, traced)
            res, machine = traced, traced["machine"]
            res["attempted"] += plain["attempted"]
            res["failed"] += plain["failed"]
            res["failures"] += plain["failures"]
            # nested spans: self times add up to the root spans, never to more than the loop
            checks_ok = metrics["trace.self_sum_s"] <= metrics["trace.wall_s"] * (1 + 1e-9)
            if not checks_ok:
                res["failures"].append("span self times exceed the traced wall time")
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = set(units) - set(metrics)
    if missing:
        print(f"metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    for line in summary(args.workload, res, metrics, units, machine):
        print(line)
    correct = checks_ok and res["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
