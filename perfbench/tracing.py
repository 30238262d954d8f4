"""Span recording around tpmcert's public functions, from outside the package.

Tracer.install() replaces each traced function by attribute on its module.
The package's modules call one another through module attributes
(`process.born_rule`, `certify.gamma_functional`, `linalg.assert_povm`) and
through module globals, which are the same dictionary, so nested calls are
recorded too.  Each call appends one span [name, start, end, parent, op, size]
to a list in memory; uninstall() puts the originals back.

Self time is a span's duration minus the durations of its direct children
(the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

TRACED = {
    "dataio": ("ingest_counts", "emit_report", "run_experiment"),
    "certify": ("bootstrap_errors", "certify_behavior", "gamma_functional"),
    "process": ("build_process", "validate_process", "do_probabilities", "born_rule",
                "MpInstrument"),
    "linalg": ("assert_povm", "assert_density_matrix"),
    "proclib": ("upsilon_best_gamma",),
    "classical": ("enumerate_strategies", "check_corrected_bound",
                  "classical_minimum_gamma"),
    "compat": ("partial_swap_compat_region",),
}

# work done by one call, computed from its arguments
SIZES = {
    "classical.check_corrected_bound": lambda strategies: len(strategies),
    "compat.partial_swap_compat_region":
        lambda alpha_grid, angle_grid_density=20: (len(alpha_grid), angle_grid_density),
}

# per-layer metric -> (unit, span name, statistic, workload whose probe op
# stands in when the traced workload does not reach the function)
LAYER_METRICS = {
    "dataio.ingest_counts.ms": ("ms", "dataio.ingest_counts", "ms", "certify"),
    "dataio.emit_report.ms": ("ms", "dataio.emit_report", "ms", "certify"),
    "dataio.run_experiment.self_ms":
        ("ms", "dataio.run_experiment", "self_ms", "simulate"),
    "certify.bootstrap_errors.ms": ("ms", "certify.bootstrap_errors", "ms", "certify"),
    "certify.certify_behavior.self_ms":
        ("ms", "certify.certify_behavior", "self_ms", "certify"),
    "certify.gamma_functional.us": ("us", "certify.gamma_functional", "us", "optimize"),
    "certify.gamma_functional.calls_per_op":
        ("count", "certify.gamma_functional", "calls_per_op", "optimize"),
    "process.build_process.us": ("us", "process.build_process", "us", "simulate"),
    "process.validate_process.us": ("us", "process.validate_process", "us", "simulate"),
    "process.do_probabilities.us": ("us", "process.do_probabilities", "us", "simulate"),
    "process.born_rule.us": ("us", "process.born_rule", "us", "simulate"),
    "process.born_rule.calls_per_op":
        ("count", "process.born_rule", "calls_per_op", "optimize"),
    "process.MpInstrument.us": ("us", "process.MpInstrument", "us", "optimize"),
    "process.MpInstrument.calls_per_op":
        ("count", "process.MpInstrument", "calls_per_op", "optimize"),
    "linalg.assert_povm.calls_per_op":
        ("count", "linalg.assert_povm", "calls_per_op", "optimize"),
    "linalg.assert_density_matrix.calls_per_op":
        ("count", "linalg.assert_density_matrix", "calls_per_op", "optimize"),
    "proclib.upsilon_best_gamma.self_ms":
        ("ms", "proclib.upsilon_best_gamma", "self_ms", "optimize"),
    "classical.enumerate_strategies.ms":
        ("ms", "classical.enumerate_strategies", "ms", "bounds"),
    "classical.check_corrected_bound.ms":
        ("ms", "classical.check_corrected_bound", "ms", "bounds"),
    "classical.classical_minimum_gamma.ms":
        ("ms", "classical.classical_minimum_gamma", "ms", "bounds"),
    "classical.vertices_per_s":
        ("1/s", "classical.check_corrected_bound", "per_s", "bounds"),
    "compat.partial_swap_compat_region.ms_per_alpha":
        ("ms", "compat.partial_swap_compat_region", "ms_per_alpha", "bounds"),
    "compat.grid_points_per_s":
        ("1/s", "compat.partial_swap_compat_region", "per_s", "bounds"),
}

OP = "op"
NAME, START, END, PARENT, OPID, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        # (label, workload of the probe or None for the traced workload's own)
        self.ops: list[tuple[str, str | None]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, size = self.spans, self.stack, SIZES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                    size(*args, **kwargs) if size else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"tpmcert.{mod_name}")
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self.wrap(f"{mod_name}.{name}", original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def run_op(self, label: str, call, probe: str | None = None):
        """One op as a root span; its nested spans carry its op id."""
        self.op_id = len(self.ops)
        self.ops.append((label, probe))
        try:
            return self.wrap(OP, call)()
        finally:
            self.op_id = -1

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value, from the workload's own ops where they
        reach the function and from the probe ops otherwise."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        by_name: dict[tuple[str, str | None], list[int]] = {}
        for i, span in enumerate(self.spans):
            by_name.setdefault((span[NAME], self.ops[span[OPID]][1]), []).append(i)

        out = {}
        for metric, (_, name, stat, owner) in LAYER_METRICS.items():
            source = None if (name, None) in by_name else owner
            idx = by_name.get((name, source))
            if not idx:
                raise RuntimeError(f"no span of {name} in the traced ops or probes")
            durs = [self.spans[i][END] - self.spans[i][START] for i in idx]
            total = sum(durs)
            if stat == "ms":
                value = 1e3 * total / len(idx)
            elif stat == "us":
                value = 1e6 * total / len(idx)
            elif stat == "self_ms":
                value = 1e3 * (total - sum(child[i] for i in idx)) / len(idx)
            elif stat == "calls_per_op":
                value = len(idx) / sum(probe == source for _, probe in self.ops)
            elif stat == "ms_per_alpha":
                value = 1e3 * total / sum(self.spans[i][SIZE][0] for i in idx)
            else:  # per_s
                sizes = [self.spans[i][SIZE] for i in idx]
                work = sum(s if isinstance(s, int) else s[0] * s[1] ** 4 for s in sizes)
                value = work / total
            out[metric] = value
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Spans as integer nanoseconds from the first span's start."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[s[NAME]], round((s[START] - t0) * 1e9), round((s[END] - t0) * 1e9),
                 s[PARENT], s[OPID]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, names=names, ops=self.ops,
                   columns=["name", "start_ns", "end_ns", "parent", "op"], spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
