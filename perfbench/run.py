#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of subalign's `harness.run`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classical-nn --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload in turn
    python3 perfbench/run.py --scaling                    # per-layer scaling table

Workload configs, the reason each was chosen and the layer-to-metric
predictions live in perfbench/workloads.json. The seed sets the config's
`seeds`; the program generates its data from them. Every run uses workers=1
and writes its report files to a temporary directory under .perfbench_out/.

With --trace 0 the benchmark measures, in this order:
- setup_s: median over fresh interpreters of `import subalign.harness` plus
  parsing and validating the workload config (one untimed interpreter first
  writes the bytecode caches);
- peak_mb: tracemalloc peak of one untimed `harness.run`, which also serves
  as the warm-up call;
- run_s: median wall time of `harness.run` over repeats, at least
  MIN_REPEATS and as many more as fit in --seconds;
- run_rel: median over the same repeats of each call's wall time divided by
  the mean time of a fixed calibration loop run just before and after it
  (perfbench/calibration.py, with the parts the workload names). On a
  shared machine run_s drifts by +-20% between runs; run_rel cancels most of
  that, so it is the gated run time.
It also prints the accuracy rows (acc.<track>.<classifier>, mean over seeds),
parity_pass_frac and failed_frac by name; these are recorded as they are.
The result line carries run_rel, setup_s and peak_mb.

With --trace 1 it alternates untraced and traced `harness.run` calls after a
warm-up. The traced calls go through wrappers installed from outside the
package (perfbench/spans.py) and give the per-layer metrics, as medians over
traced calls: calls, counts read from return values, and self time both in
seconds (printed) and as a share of the call (in the result line);
trace_overhead_frac compares the traced and untraced medians. End-to-end
numbers never come from traced calls. Spans are written to .perfbench_out/.

Every report is checked (perfbench/reference.py): classical accuracies
against a numpy-only reference on the same generated domains, row counts,
finite values in [0, 1], and identical accuracy and parity rows across the
calls of one run. A call that raises or fails the check counts in `failed`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]

MIN_REPEATS = 4
SETUP_SAMPLES = 3
# the end-to-end metrics in the result line: the ones every workload
# produces, never 0, and steady across seeds and runs. Accuracies and parity
# are neither and raw run_s drifts with the machine's load, so those are
# printed but not gated.
END_TO_END = ("run_rel", "setup_s", "peak_mb")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import subalign.harness
subalign.harness.parse_config_text(sys.argv[2], environ={}).validate()
print(time.perf_counter() - t0)
"""


def import_program() -> dict:
    """Import subalign from the checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import subalign

    if Path(subalign.__file__).resolve().parent != SRC / "subalign":
        raise ImportError(f"subalign was imported from {subalign.__file__}, not {SRC}")
    from subalign import classical_sa, datasets, harness, quantum_sa

    return {"harness": harness, "datasets": datasets,
            "classical_sa": classical_sa, "quantum_sa": quantum_sa}


def blas_threads(np) -> str:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "mem_total_mib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(np),
        "seed": seed,
    }


def config_text(workload: str, seed: int, output_dir: str) -> str:
    spec = WORKLOADS[workload]
    seeds = ",".join(str(seed + k) for k in range(spec["seeds_per_run"]))
    lines = [f"{key}={value}" for key, value in spec["config"].items()]
    lines += [f"seeds={seeds}", "workers=1", f"output_dir={output_dir}"]
    return "\n".join(lines) + "\n"


def measure_setup(text: str) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), text],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples[1:]


def build_reference(mods: dict, cfg) -> dict:
    """seed -> classical reference counts, for the classifiers the classical
    track runs."""
    import reference

    if cfg.track not in ("classical", "both"):
        return {}
    want_nn = cfg.classifier in ("nn", "both")
    want_svm = cfg.classifier in ("svm", "both")
    out = {}
    for seed in cfg.seeds:
        source, target = mods["datasets"].synth_shifted_gaussians(
            dataclasses.replace(cfg.dataset, seed=seed)
        )
        out[seed] = reference.classical_reference(
            source, target, cfg.d, cfg.gamma, want_nn, want_svm
        )
    return out


class Runner:
    """Calls `harness.run` on one config, times it and checks every report."""

    def __init__(self, harness, cfg, reference: dict):
        self.harness, self.cfg, self.reference = harness, cfg, reference
        self.attempted = self.failed = 0
        self.first = None

    def attempt(self, peak: bool = False):
        """Returns (seconds, tracemalloc peak in MiB or None), or None when
        the call raised or its report failed the check."""
        from reference import check_report

        self.attempted += 1
        gc.collect()
        if peak:
            tracemalloc.start()
        try:
            t0 = time.perf_counter()
            report = self.harness.run(self.cfg)
            seconds = time.perf_counter() - t0
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20 if peak else None
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            if peak:
                tracemalloc.stop()
        problems = check_report(report, self.cfg, self.reference)
        if self.first is None:
            self.first = report
        elif (report.accuracy, report.parity) != (self.first.accuracy, self.first.parity):
            problems.append("accuracy or parity rows differ from the first call's")
        if problems:
            print("output check failed:", *problems, sep="\n  ", file=sys.stderr)
            self.failed += 1
            return None
        return seconds, peak_mib


def quality_metrics(report) -> dict:
    """acc.<track>.<classifier> (mean over seeds) and parity_pass_frac."""
    groups: dict[str, list[float]] = {}
    for row in report.accuracy:
        groups.setdefault(f"acc.{row['track']}.{row['classifier']}", []).append(row["accuracy"])
    out = {name: (statistics.fmean(vals), "fraction") for name, vals in groups.items()}
    if report.parity:
        passed = sum(row["pass"] for row in report.parity)
        out["parity_pass_frac"] = (passed / len(report.parity), "fraction")
    return out


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def print_metric(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<46} {value!r:>24} {unit:<8} {note}".rstrip())


def run_untraced(mods, cfg, text, seconds, calibration_parts) -> tuple[Runner, dict]:
    from calibration import Calibration

    setup = measure_setup(text)
    runner = Runner(mods["harness"], cfg, build_reference(mods, cfg))
    first = runner.attempt(peak=True)
    calibration = Calibration(calibration_parts)
    times, rel = [], []
    t_start = time.perf_counter()
    cal_before = calibration.seconds()
    last = 0.0  # duration of the last call and calibration, to stop within --seconds
    while runner.attempted - 1 < MIN_REPEATS or time.perf_counter() - t_start + last <= seconds:
        t_call = time.perf_counter()
        result = runner.attempt()
        cal_after = calibration.seconds()
        last = time.perf_counter() - t_call
        if result is not None:
            times.append(result[0])
            rel.append(2.0 * result[0] / (cal_before + cal_after))
        cal_before = cal_after
    if first is None or not times:
        return runner, {}
    metrics = {
        "run_rel": (statistics.median(rel), "cal", quartiles(rel)),
        "run_s": (statistics.median(times), "s", quartiles(times)),
        "setup_s": (statistics.median(setup), "s", quartiles(setup)),
        "peak_mb": (first[1], "MiB", "one untimed call"),
    }
    for name, (value, unit) in quality_metrics(runner.first).items():
        metrics[name] = (value, unit, "recorded as it is")
    metrics["failed_frac"] = (
        runner.failed / runner.attempted, "fraction",
        f"{runner.failed} of {runner.attempted} harness.run calls",
    )
    return runner, metrics


def run_traced(mods, cfg, seconds, spans_path) -> tuple[Runner, dict]:
    from spans import LAYER_METRICS, Tracer

    runner = Runner(mods["harness"], cfg, build_reference(mods, cfg))
    runner.attempt()  # warm-up
    tracer = Tracer()
    untraced, traced = [], []
    t_start = time.perf_counter()
    last = 0.0  # duration of the last pair of calls, to stop within --seconds
    while tracer.run_id < 0 or time.perf_counter() - t_start + last <= seconds:
        t_pair = time.perf_counter()
        result = runner.attempt()
        if result is not None:
            untraced.append(result[0])
        with tracer.installed(mods) as missing:
            result = runner.attempt()
        if result is not None:
            traced.append(result[0])
        last = time.perf_counter() - t_pair
    if missing:
        print("# trace: not found, reported as 0:", ", ".join(missing))
    tracer.write_jsonl(spans_path)
    if not untraced or not traced:
        return runner, {}
    metrics = {
        name: (value, LAYER_METRICS[name][2] if name in LAYER_METRICS else "s", "")
        for name, value in tracer.layer_metrics().items()
    }
    metrics["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction",
        f"traced {quartiles(traced)}; untraced {quartiles(untraced)}",
    )
    return runner, metrics


def run_workload(mods, workload: str, seed: int, seconds: int, trace: bool) -> bool:
    """Measure one workload and print its metrics and result line; False
    when a call failed or none succeeded."""
    from spans import LAYER_METRICS

    OUT.mkdir(exist_ok=True)
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("# machine:", json.dumps(machine_facts(seed)))
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        text = config_text(workload, seed, tmp)
        cfg = mods["harness"].parse_config_text(text, environ={})
        if trace:
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
            runner, metrics = run_traced(mods, cfg, seconds, spans_path)
        else:
            runner, metrics = run_untraced(mods, cfg, text, seconds, WORKLOADS[workload]["calibration"])
    if not metrics:
        print(f"no successful harness.run call in {runner.attempted} attempts", file=sys.stderr)
        return False
    for name, (value, unit, note) in metrics.items():
        print_metric(name, value, unit, note)
    reported = LAYER_METRICS if trace else END_TO_END
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in reported},
    }), flush=True)
    return runner.failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="print the per-layer scaling table instead")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # pin BLAS before numpy is first imported: two threads make the classical
    # workloads slower and far noisier on a two-core machine
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        mods = import_program()
    except ImportError as exc:
        print(f"cannot import subalign from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.scaling:
        import scaling

        scaling.report(mods, args.seed)
        return 0
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        ok &= run_workload(mods, workload, args.seed, args.seconds, bool(args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
