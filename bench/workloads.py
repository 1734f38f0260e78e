"""Workload inputs, the library calls they make, and the checks on their outputs.

Inputs come only from the seed.  Each workload is cut into rounds of a
fixed composition, and a run measures whole rounds, so the mix of calls
in a run does not depend on where the clock stops.

Every check looks only at a call's output, never at cache state, and runs
after the timed loop.
"""

from __future__ import annotations

import json
import math
import random
import resource
import time
from dataclasses import dataclass

import wracah


@dataclass(frozen=True)
class Size:
    report_max_j: str  # --max-j of the report command
    ks: tuple[int, ...]  # Fock orders of the operators workload
    sine_k: int  # order of the sine-algebra check


SIZES = {
    "full": Size("6", (13, 17, 21, 25), 13),
    # the self-test size: every path runs, in about a second per workload
    "tiny": Size("1", (3, 5), 3),
}

REPORT_R = "1"


# -- the measuring loop -------------------------------------------------------


def run_rounds(inputs, call, seconds: float, rounds: int | None):
    """Whole rounds until `seconds` of call time, or exactly `rounds` rounds."""
    ops, outputs, latencies, round_times, round_p50, round_p99 = [], [], [], [], [], []
    clock = time.perf_counter
    busy = 0.0
    while (busy < seconds) if rounds is None else (len(round_times) < rounds):
        batch = inputs.next_round()
        took_round = 0.0
        round_latencies = []
        for op in batch:
            start = clock()
            try:
                out = call(op)
            except Exception as exc:  # a failing call is counted, the run goes on
                out = exc
            took = clock() - start
            took_round += took
            round_latencies.append(took)
            outputs.append(out)
        ops += batch
        latencies += round_latencies
        round_times.append(took_round)
        round_p50.append(percentile(round_latencies, 0.5))
        round_p99.append(percentile(round_latencies, 0.99))
        busy += took_round
    # the operators hold no caches, so every round peaks alike
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds_stats = {"round_times": round_times, "round_p50": round_p50, "round_p99": round_p99}
    return ops, outputs, latencies, rounds_stats, peak_rss_mb


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- operators --------------------------------------------------------------


class OperatorInputs:
    """Each round checks every order once, with a fresh seeded r per order."""

    def __init__(self, seed: int, size: Size):
        self.rng = random.Random(seed)
        self.size = size

    def next_round(self) -> list[tuple]:
        ops = []
        for k in self.size.ks:
            r = self.rng.uniform(0.05, 1.95)
            ops += [("quon", k, None, None), ("su2", k, r, self.rng.randrange(2**31)), ("shift", k, r, None)]
            if k == self.size.sine_k:
                ops.append(("sine", k, self.rng.uniform(0.05, 1.95), None))
        return ops

    def properties(self) -> dict:
        return {
            "max_twice_j": max(self.size.ks) - 1,
            "max_k": max(self.size.ks),
            "ks": list(self.size.ks),
        }


def operator_call(op):
    kind, k, r, seed = op
    if kind == "quon":
        return wracah.verify_quon_relations(wracah.quon_operators(k))
    if kind == "su2":
        return wracah.verify_su2(wracah.ShiftParams(k, r), seed=seed)
    if kind == "shift":
        return wracah.verify_shift_eigenbasis(wracah.HalfInt(k - 1), r)
    return wracah.verify_sine_algebra(wracah.ShiftParams(k, r), range(-2, 3))


def check_operators(ops, outputs) -> list[str]:
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, BaseException):
            failures.append(f"{op}: raised {out!r}")
        elif not out.passed:
            bad = [c.name for c in out.checks if not c.passed]
            failures.append(f"{op}: failed {bad}")
    return failures


# -- report -----------------------------------------------------------------


def report_args(seed: int, size: Size, output) -> list[str]:
    return ["report", "--max-j", size.report_max_j, "--r", REPORT_R, "--seed", str(seed), "--output", str(output)]


def report_properties(size: Size) -> dict:
    twice = wracah.HalfInt.parse(size.report_max_j).twice
    return {
        "max_twice_j": twice,
        "max_k": twice + 1,
    }


def check_report(exit_code: int, text: str | None) -> tuple[int, list[str]]:
    """Checks attempted and failures: every check in the report plus the exit status."""
    try:
        payload = json.loads(text) if text is not None else None
    except ValueError:
        payload = None
    if payload is None:
        return 1, [f"no readable report written, exit {exit_code}"]
    checks = [c for suite in payload["suites"] for c in suite["checks"]]
    failures = [c["name"] for c in checks if not c["pass"]]
    if exit_code != 0 or payload["pass"] is not True:
        failures.append(f"command: exit {exit_code}, pass {payload['pass']}")
    return len(checks) + 1, failures

