"""A fixed calibration loop, timed around every measured `harness.run`.

The benchmark runs on shared machines, where the same `harness.run` call
varies by +-20% or more from one call to the next and drifts over minutes;
the time of a fixed loop run just before and after moves with it. Dividing
each call's wall time by the mean of those two loop times cancels most of
that drift. The loop calls no subalign code, so a change to subalign moves
only the numerator.

The loop is made of parts that each exercise one kind of work, and a
workload names the parts that match what its calls do (workloads.json, key
"calibration"). Slowdowns on a shared machine hit these kinds of work
differently: over 150-second series, the 1-NN workload followed the
memory-bound pass, the LS-SVM workload large dense LAPACK, the hard-kernel
workload Python, small numpy calls and large LAPACK, and the quantum
workload the mix of Python, small numpy, small LAPACK and memory; a single
mix for all of them left up to twice the spread.
"""
from __future__ import annotations

import math
import time

import numpy as np


class Calibration:
    def __init__(self, parts: list[str]):
        self.parts = [getattr(self, f"_{name}") for name in parts]
        rng = np.random.default_rng(20130)
        self.small = rng.standard_normal(16)
        self.dense = rng.standard_normal((256, 256))
        self.big = rng.standard_normal(16_000_000)  # 128 MB, beyond last-level caches
        self.square = rng.standard_normal((1500, 1500))
        self.rect = rng.standard_normal((700, 700))

    def seconds(self) -> float:
        """Wall time of one pass over the workload's parts."""
        t0 = time.perf_counter()
        acc = sum(part() for part in self.parts)
        seconds = time.perf_counter() - t0
        if not math.isfinite(acc):
            raise FloatingPointError("calibration loop produced a non-finite value")
        return seconds

    def _python(self) -> float:
        acc = 0.0
        for i in range(600_000):
            acc += math.sqrt(i)
        return acc

    def _small_numpy(self) -> float:
        return sum(float(self.small @ self.small) for _ in range(60_000))

    def _lapack(self) -> float:
        return sum(float(np.linalg.eigh(self.dense @ self.dense.T)[0][-1]) for _ in range(8))

    def _memory(self) -> float:
        return sum(float(np.sum(self.big * 1.0001)) for _ in range(4))

    def _lapack_large(self) -> float:
        x = np.linalg.solve(self.square, self.square[:, 0])
        return float(x[0] + np.linalg.svd(self.rect, compute_uv=False)[0])
