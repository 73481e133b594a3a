"""Spans around calls into subalign's public functions, recorded from outside.

Each patched name is replaced, where its caller looks it up, by a wrapper
that records a span [name, start, end, parent index, run id, counts]. Spans
stay in memory; `write_jsonl` dumps them when the benchmark ends. Counts are
read from return values. A layer's self time is its span's duration minus
the time its child spans cover (calls run on one thread, so children never
overlap).
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager


def _pairs(args, out):
    return {"pairs": args[0].shape[1] * len(out)}


def _ambiguous(args, out):
    return {"ambiguous": sum(1 for diag in out[1] if diag["warning"])}


def _oracle_queries(args, out):
    return {"oracle_queries": out.oracle_queries}


def _success_min(args, out):
    return {"success_min": out.success_probability}


def _success_probability(args, out):
    return {"success_probability": out.success_probability}


# (module key, attribute, span name, counts from (args, return value))
TARGETS = [
    ("harness", "run", "harness.run", None),
    ("datasets", "synth_shifted_gaussians", "datasets.synth_shifted_gaussians", None),
    ("harness", "center_columns", "datasets.center_columns", None),
    ("classical_sa", "center_columns", "datasets.center_columns", None),
    ("classical_sa", "pca_subspace", "classical_sa.pca_subspace", None),
    ("classical_sa", "build_alignment", "classical_sa.build_alignment", None),
    ("classical_sa", "nn_classify", "classical_sa.nn_classify", _pairs),
    ("classical_sa", "svm_train", "classical_sa.svm_train", None),
    ("classical_sa", "svm_classify", "classical_sa.svm_classify", None),
    ("classical_sa", "kernel_sa_fit", "classical_sa.kernel_sa_fit", None),
    ("classical_sa", "kernel_matrix", "classical_sa.kernel_matrix", None),
    ("classical_sa", "kernel_pca_weights", "classical_sa.kernel_pca_weights", None),
    ("quantum_sa", "qpca", "quantum_sa.qpca", None),
    ("quantum_sa", "q_build_alignment", "quantum_sa.q_build_alignment", None),
    ("quantum_sa", "matrix_product_state", "quantum_sa.matrix_product_state", _success_min),
    ("quantum_sa", "q_nn_classify", "quantum_sa.q_nn_classify", _ambiguous),
    ("quantum_sa", "q_svm_train", "quantum_sa.q_svm_train", _success_probability),
    ("quantum_sa", "q_svm_classify", "quantum_sa.q_svm_classify", None),
    ("quantum_sa", "amplitude_estimation", "quantum_core.amplitude_estimation", None),
    ("quantum_sa", "signed_overlap", "quantum_core.signed_overlap", None),
    ("quantum_sa", "grover_min_find", "quantum_core.grover_min_find", _oracle_queries),
]

# per-layer metrics in the result line: name -> (span, field, unit, better).
# A layer's time is its self time as a share of its traced harness.run
# (self_frac): shares are steadier than seconds on a loaded machine, and a
# layer that a workload never calls reads 0 as a count or share, never as a
# time. Self seconds are printed too.
LAYER_METRICS = {}
for _span, _fields in [
    ("classical_sa.nn_classify", ["calls", "self_frac", "pairs"]),
    ("classical_sa.svm_train", ["calls", "self_frac"]),
    ("classical_sa.svm_classify", ["calls", "self_frac"]),
    ("classical_sa.pca_subspace", ["calls", "self_frac"]),
    ("classical_sa.build_alignment", ["self_frac"]),
    ("classical_sa.kernel_sa_fit", ["self_frac"]),
    ("classical_sa.kernel_matrix", ["calls", "self_frac"]),
    ("classical_sa.kernel_pca_weights", ["calls", "self_frac"]),
    ("quantum_sa.q_nn_classify", ["calls", "self_frac", "ambiguous"]),
    ("quantum_core.amplitude_estimation", ["calls", "self_frac"]),
    ("quantum_core.signed_overlap", ["calls", "self_frac"]),
    ("quantum_core.grover_min_find", ["calls", "self_frac", "oracle_queries"]),
    ("quantum_sa.qpca", ["calls", "self_frac"]),
    ("quantum_sa.q_build_alignment", ["self_frac"]),
    ("quantum_sa.matrix_product_state", ["calls", "self_frac", "success_min"]),
    ("quantum_sa.q_svm_train", ["calls", "self_frac", "success_probability"]),
    ("quantum_sa.q_svm_classify", ["calls", "self_frac"]),
    ("datasets.synth_shifted_gaussians", ["calls", "self_frac"]),
    ("datasets.center_columns", ["calls", "self_frac"]),
    ("harness.run", ["total_s", "self_s"]),
]:
    for _field in _fields:
        if _field.endswith("_s"):
            unit, better = "s", "lower"
        elif _field == "self_frac":
            unit, better = "fraction", "lower"
        elif _field.startswith("success"):
            unit, better = "fraction", "higher"
        else:
            unit, better = "count", "lower"
        LAYER_METRICS[f"{_span}.{_field}"] = (_span, _field, unit, better)
LAYER_METRICS["trace_overhead_frac"] = (None, None, "fraction", "lower")


class Tracer:
    """In-memory span recorder; one run id per traced `harness.run`."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        new_run = name == "harness.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_run:
                self.run_id += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if counts is not None:
                rec[5] = counts(args, out)
            return out

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Patch every target found in `modules` (key -> module object) for
        the duration of the block; yields the targets that were not found."""
        originals, missing = [], []
        wrapped = {}
        try:
            for key, attr, name, counts in TARGETS:
                module = modules[key]
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(f"{key}.{attr}")
                    continue
                # one wrapper per original function, shared by every patch site
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn, counts)
                originals.append((module, attr, fn))
                setattr(module, attr, wrapped[id(fn)])
            yield missing
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def per_run(self) -> dict[int, dict]:
        """run id -> span name -> {"calls", "self_s", "total_s", counters}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, run, counts in self.spans:
            if parent >= 0:
                child[parent] += end - start
        runs: dict[int, dict] = {}
        for idx, (name, start, end, parent, run, counts) in enumerate(self.spans):
            agg = runs.setdefault(run, {}).setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[idx]
            for key, value in (counts or {}).items():
                if key.startswith("success"):  # probabilities: keep the worst
                    agg[key] = min(agg.get(key, value), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        return runs

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced runs of every field LAYER_METRICS names, and of
        each of those spans' self_s, keyed "<span>.<field>"; 0 where a run
        never entered the span."""
        runs = list(self.per_run().values())
        for run in runs:
            total = run["harness.run"]["total_s"]
            for agg in run.values():
                agg["self_frac"] = agg["self_s"] / total
        out = {}
        for span, field, unit, _better in LAYER_METRICS.values():
            if span is None:
                continue
            for f, whole in (("self_s", False), (field, unit == "count")):
                values = [run.get(span, {}).get(f, 0) for run in runs] or [0]
                # counts repeat exactly across runs; keep them whole numbers
                out[f"{span}.{f}"] = (statistics.median_low if whole else statistics.median)(values)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "counts": counts}) + "\n")
