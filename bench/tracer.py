"""Span tracing around the public functions of each wracah module.

The tracer lives entirely in the benchmark: it replaces a function with a
timing wrapper in every module namespace that holds it (``wracah``,
``wracah.urcoupling``, ...), so calls the package makes internally are
counted as well as the benchmark's own calls.  Spans nest, so each one
knows its parent, and a layer's self time is its span time minus the time
of its child spans.

Counts and self times are exact for every call.  Full span records are
kept only for the first ``SPAN_CAP`` calls of each name: report-sized runs
make hundreds of thousands of scalar ``cg`` calls, and keeping every one
would make the tracer the largest allocation in the process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Layer name -> (module, attribute names).  Several functions may share one
# layer name; their calls and self times are summed.
FUNCTION_LAYERS = {
    "qarith.alpha_phase": ("wracah.qarith", ("alpha_phase",)),
    "wigner.cg": ("wracah.wigner", ("cg",)),
    "wigner.threejm": ("wracah.wigner", ("threejm",)),
    "wigner.ninej": ("wracah.wigner", ("ninej",)),
    "wigner.verify": ("wracah.wigner", ("verify_cg_against_lowering", "verify_cg_orthogonality")),
    "urcoupling.tables": ("wracah.urcoupling", ("cg_ur_table", "f_table", "fbar_table")),
    "urcoupling.ninej_from_fbar": ("wracah.urcoupling", ("ninej_from_fbar",)),
    "urcoupling.verify": (
        "wracah.urcoupling",
        (
            "verify_cg_ur_unitarity",
            "verify_cg_ur_interchange",
            "verify_f_interchange",
            "verify_fbar_orthogonality",
            "verify_fbar_permutation",
            "verify_tensor_transform",
            "verify_wigner_eckart",
        ),
    ),
    "fock.quon_operators": ("wracah.fock", ("quon_operators",)),
    "fock.verify_quon_relations": ("wracah.fock", ("verify_quon_relations",)),
    "su2.shift_op": ("wracah.su2", ("shift_op",)),
    "su2.verify_su2": ("wracah.su2", ("verify_su2",)),
    "su2.verify_shift_eigenbasis": ("wracah.su2", ("verify_shift_eigenbasis",)),
    "su2.verify_sine_algebra": ("wracah.su2", ("verify_sine_algebra",)),
    "sphere.verify_sphere": ("wracah.sphere", ("verify_sphere",)),
}

LAYERS = tuple(FUNCTION_LAYERS) + ("fock.operator.matmul", "fock.operator.norm", "cli.report")

SPAN_CAP = 1000  # full span records kept per layer


def _twice(label) -> int:
    return int(round(2 * float(label)))


def triad_ok(a: int, b: int, c: int) -> bool:
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b


def ninej_triangle_valid(twice: tuple[int, ...]) -> bool:
    """All six row and column triads of a 9-j array obey the triangle rule."""
    t = twice
    triads = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))
    return all(triad_ok(t[a], t[b], t[c]) for a, b, c in triads)


class Tracer:
    """In-memory spans plus exact per-layer counters for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        # layer -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._next_id = 0
        self._seen_tables: set = set()
        self._installed: list[tuple] = []

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer: str, fn, observe=None):
        stack = self._stack
        spans = self.spans
        agg = self.totals[layer]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[1]
                parent = None
                if stack:
                    stack[-1][1] += took
                    parent = stack[-1][0]
                if agg[0] <= SPAN_CAP:
                    spans.append((sid, parent, layer, start, end))

        return traced

    def _observe_table(self, table, args, kwargs):
        # (labels, r bits), as the package keys its table memo; the package
        # and the benchmark pass all four arguments positionally
        key = (table, tuple(_twice(x) for x in args[:3]), float(args[3]).hex())
        self.counters["urcoupling.tables.reused"] += key in self._seen_tables
        self._seen_tables.add(key)

    def _observe_ninej_from_fbar(self, args, kwargs):
        twice = tuple(_twice(x) for x in args[:9])
        self.counters["urcoupling.ninej_from_fbar.triangle_valid"] += ninej_triangle_valid(twice)

    def _observe_matmul(self, args, kwargs):
        dim = args[0].space.dim
        self.counters["fock.operator.matmul.flop"] += 8.0 * dim**3

    def install(self) -> None:
        """Wrap every traced function in every loaded wracah namespace."""
        modules = [m for name, m in sys.modules.items() if name == "wracah" or name.startswith("wracah.")]
        for layer, (module_name, attrs) in FUNCTION_LAYERS.items():
            home = sys.modules[module_name]
            for attr in attrs:
                original = getattr(home, attr)
                observe = None
                if layer == "urcoupling.tables":
                    observe = functools.partial(self._observe_table, attr)
                elif layer == "urcoupling.ninej_from_fbar":
                    observe = self._observe_ninej_from_fbar
                wrapper = self._wrap(layer, original, observe)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._installed.append((module, name, original))

        operator = sys.modules["wracah.fock"].Operator
        for attr, layer, observe in (
            ("__matmul__", "fock.operator.matmul", self._observe_matmul),
            ("norm", "fock.operator.norm", None),
        ):
            original = getattr(operator, attr)
            setattr(operator, attr, self._wrap(layer, original, observe))
            self._installed.append((operator, attr, original))

        command = sys.modules["wracah.cli"].report_cmd
        original = command.callback
        command.callback = self._wrap("cli.report", original)
        self._installed.append((command, "callback", original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        return {layer: self.totals[layer][2] for layer in LAYERS}

    def layer_metrics(self) -> dict[str, float]:
        """Counts, self times and the ratios measured at the layer boundaries."""
        t = self.totals
        c = self.counters

        def share(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = t[layer][0]
            out[f"{layer}.self_s"] = t[layer][2]
        out["urcoupling.tables.reuse_share"] = share(c["urcoupling.tables.reused"], t["urcoupling.tables"][0])
        out["urcoupling.ninej_from_fbar.triangle_valid_share"] = share(
            c["urcoupling.ninej_from_fbar.triangle_valid"], t["urcoupling.ninej_from_fbar"][0]
        )
        out["fock.operator.matmul.gflop_computed"] = c["fock.operator.matmul.flop"] / 1e9
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as JSON lines, then one summary line with the per-layer self times."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"run": self.run_id, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
            summary = {
                "run": self.run_id,
                "summary": {
                    layer: {"calls": t[0], "total_s": t[1], "self_s": t[2], "spans_kept": min(t[0], SPAN_CAP)}
                    for layer, t in sorted(self.totals.items())
                },
                **extra,
            }
            fh.write(json.dumps(summary) + "\n")
