"""Per-layer scaling table for `python3 perfbench/run.py --scaling`.

Times nn_classify, svm_train and svm_classify (one call per query, as the
harness makes them) at n_s = n_t = n for n in {10^3, 3*10^3, 10^4} and
D in {16, 64, 256}, with d = 8. Each cell is the median of REPEATS calls.
Sizes whose dense NN distance matrix would exceed MAX_NN_ENTRIES entries, or
whose LS-SVM would have n_s > MAX_SVM_N, are skipped. Not a gated workload.
"""
from __future__ import annotations

import json
import statistics
import time

SIZES_N = (1_000, 3_000, 10_000)
SIZES_D = (16, 64, 256)
SUBSPACE_D = 8
REPEATS = 3
MAX_NN_ENTRIES = 10**8
MAX_SVM_N = 2_000


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def report(mods: dict, seed: int) -> None:
    ds, csa = mods["datasets"], mods["classical_sa"]
    rows = []
    print(f"{'layer':<14} {'n':>6} {'D':>4} {'median_s':>12}")
    for n in SIZES_N:
        for D in SIZES_D:
            spec = ds.SynthSpec(D=D, n_s=n, n_t=n, seed=seed)
            source, target = (ds.center_columns(dom)[0] for dom in ds.synth_shifted_gaussians(spec))
            Ps = csa.pca_subspace(source, SUBSPACE_D)
            Pt = csa.pca_subspace(target, SUBSPACE_D)
            art = csa.build_alignment(Ps, Pt, source, target)
            cells = {}
            if n * n <= MAX_NN_ENTRIES:
                cells["nn_classify"] = _median_seconds(
                    lambda: csa.nn_classify(art.X_hat_a, source.labels, art.X_hat_t)
                )
            if n <= MAX_SVM_N:
                cells["svm_train"] = _median_seconds(lambda: csa.svm_train(source, art.A, 1.0))
                model = csa.svm_train(source, art.A, 1.0)
                queries = target.samples.T
                cells["svm_classify"] = _median_seconds(
                    lambda: [csa.svm_classify(model, x) for x in queries]
                )
            for layer, seconds in cells.items():
                print(f"{layer:<14} {n:>6} {D:>4} {seconds:>12.6f}", flush=True)
                rows.append({"layer": layer, "n": n, "D": D, "median_s": seconds})
    print(json.dumps({"scaling": rows, "seed": seed, "repeats": REPEATS}))
