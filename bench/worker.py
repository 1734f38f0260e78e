"""One benchmark process: set up, run whole rounds of one workload, check, report.

Run by ``run.py``; never imported.  The process prints ``READY`` once
``wracah`` is imported and the workload's warm-up call has returned, and
its result as one JSON line at the end.  ``--mode setup`` stops after
``READY`` and a line describing the machine.  ``--trace 1`` wraps the package's functions (see tracer.py)
after the warm-up, so set-up calls are not traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def import_wracah() -> float:
    """Import the package from the checkout's source tree; returns seconds taken."""
    t0 = time.perf_counter()
    import wracah.cli  # noqa: F401  (the command's module pulls in every layer)

    took = time.perf_counter() - t0
    if Path(sys.modules["wracah"].__file__).resolve().parent != SRC / "wracah":
        raise SystemExit(f"imported wracah from {sys.modules['wracah'].__file__}, not from {SRC}")
    return took


def run_cli(args: list[str]) -> int:
    from wracah.cli import main

    try:
        main(args, standalone_mode=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def warm_up(workload: str, size, out_dir: Path) -> None:
    import wracah

    if workload == "report":
        # only warms up; its verdict is not part of the measured output
        run_cli(["report", "--max-j", "1/2", "--r", "1", "--output", str(out_dir / "warmup.json")])
    else:
        wracah.verify_quon_relations(wracah.quon_operators(size.ks[0]))


def memo_stats() -> dict:
    """Size, hit ratio and nonzero share of the package's magnetic memo table."""
    from wracah.wigner import default_table

    memo = default_table()
    lookups = memo.hits + memo.misses
    return {
        "entries": len(memo),
        "hit_ratio": memo.hits / lookups if lookups else 0.0,
        "nonzero_share": sum(1 for _, v in memo.items() if v != 0.0) / len(memo) if len(memo) else 0.0,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=["report", "operators"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--mode", choices=["setup", "measure"], default="measure")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args(argv)
    out_dir = Path(args.out_dir)

    sys.path.insert(0, str(SRC))
    import_s = import_wracah()
    import workloads

    size = workloads.SIZES[args.size]
    warm_up(args.workload, size, out_dir)
    print("READY", flush=True)
    result = {"machine": machine(), "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()

    if args.workload == "report":
        report_file = out_dir / f"report-{os.getpid()}.json"
        start = time.perf_counter()
        code = run_cli(workloads.report_args(args.seed, size, report_file))
        busy = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            result["memo"] = memo_stats()
        text = report_file.read_text(encoding="utf-8") if report_file.exists() else None
        report_file.unlink(missing_ok=True)
        attempted, failures = workloads.check_report(code, text)
        result.update(
            busy_s=busy,
            latencies=[busy],
            round_times=[busy],
            round_p50=[busy],
            round_p99=[busy],
            properties=workloads.report_properties(size),
        )
    else:
        inputs = workloads.OperatorInputs(args.seed, size)
        ops, outputs, latencies, rounds_stats, result["peak_rss_mb"] = workloads.run_rounds(
            inputs, workloads.operator_call, args.seconds, args.rounds
        )
        if tracer:
            tracer.uninstall()
            result["memo"] = memo_stats()
        failures = workloads.check_operators(ops, outputs)
        attempted = len(ops)
        by_kind: dict[str, list[float]] = {}
        for op, took in zip(ops, latencies):
            by_kind.setdefault(f"{op[0]} k={op[1]}", []).append(took)
        result.update(
            busy_s=sum(rounds_stats["round_times"]),
            latencies=latencies,
            **rounds_stats,
            properties=inputs.properties(),
            by_kind={label: [len(v), statistics.median(v) * 1e3] for label, v in sorted(by_kind.items())},
        )

    result.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["self_s"] = tracer.self_times()
        self_sum = sum(result["self_s"].values())
        result["trace"] = {"self_sum_s": self_sum, "wall_s": result["busy_s"]}
        tracer.write(out_dir / "spans.jsonl", {"self_sum_s": self_sum, "wall_s": result["busy_s"]})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
