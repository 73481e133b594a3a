"""Desk-scale exact quantum simulation: the spectral engine of the quantum
track and the measurement plan its readouts draw shot noise from.

The engine holds exact phase-estimation outcome distributions on the 2^-n
lattice, the readouts built on them (amplitude estimation and the Hadamard
test, over arrays), and Grover-based minimum finding.

Everything is simulated exactly; each phase-estimation readout returns the
nearest lattice point of its eigenphase (`pe_readout`, the most probable
outcome), or one seeded outcome per entry drawn from its `pe_outcome_kernel`
row when given a generator. The gate-level circuits that these
distributions stand for live in the test suite as their oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, RangeError

__all__ = [
    "ShotPlan",
    "amplitude_estimation",
    "grover_min_find",
    "pe_outcome_kernel",
    "pe_readout",
    "signed_overlap",
]

# ---------------------------------------------------------------------------
# measurement plans

# measurement stages that draw shot noise: stage -> (spawn-key code, number
# of index values). A seed's streams are SeedSequence children keyed by
# these, because default_rng(s), default_rng([s]) and default_rng([s, 0]) are
# one and the same generator.
STAGE_KEYS = {
    "nn_distances": (0, 1),  # per target: Hadamard-test overlaps, then AE outcomes
    "min_find": (1, 0),  # every Durr-Hoyer search of one `q_nn_classify` call
    "svm_decisions": (2, 0),  # the qSVM Hadamard tests of one call
}


@dataclass(frozen=True)
class ShotPlan:
    """Measurement plan: exact expectations or seeded shot sampling."""

    shots: int = 1
    seed: int = 0
    mode: str = "exact_expectation"

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigurationError("shots must be >= 1")
        if self.mode not in ("exact_expectation", "sampled"):
            raise ConfigurationError(f"unknown plan mode {self.mode!r}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact_expectation"

    def rng(self, stage: str, *index: int) -> np.random.Generator:
        """The generator of one measurement stage (and, for a stage that
        draws per item, of item ``index``): a child of the plan's seed keyed
        (stage code, *index). Every key of one stage has the same length, so
        no two stages or items share a stream."""
        if stage not in STAGE_KEYS:
            raise ConfigurationError(f"unknown measurement stage {stage!r}")
        code, width = STAGE_KEYS[stage]
        if len(index) != width:
            raise ConfigurationError(f"stage {stage!r} takes {width} index value(s)")
        key = (code, *(int(i) for i in index))
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


# ---------------------------------------------------------------------------
# spectral engine

MAX_AE_QUBITS = 10
# entries per Durr-Hoyer row: the int16 range of `_sort_tables`, which take 4
# bytes per entry; the rest of a search's state is 8 (N + 1) bytes of Grover
# angles, 256 KiB at this limit, and its pool
MAX_GROVER_N = np.iinfo(np.int16).max
# twice the phases per block of a sampled `pe_readout`, however many a call
# has: it builds each phase's full 2^n-outcome distribution, a tracemalloc
# peak of 5.1 MiB per block at n = 10 (128 x 1024 floats are 1 MiB per
# array). The nearest-point readout has no blocks
BLOCK_ELEMENTS = 2**8
# Durr-Hoyer searches in flight at once in a `grover_min_find` call, and the
# entries per chunk of its sort tables and per piece of an exact AE distance
# readout. On the quantum-caps shape (T = 200, N = 15, repeats = 15; 2 cores,
# OpenBLAS 1 thread; medians of 2 x 60 interleaved calls) 512 slots take 62
# steps and 4.7 ms per call; 256 take 99 steps and 6.8 ms; 1024 take 36 steps
# and 3.2 ms but raise the quantum-caps peak_mb (the tracemalloc peak of its
# first harness.run) from 0.149 to 0.192 MiB
SEARCH_SLOTS = 2**9


def _fejer(delta: np.ndarray, N: int) -> np.ndarray:
    """Unnormalized probability of an N-point phase-estimation outcome at
    distance ``delta`` (full turns) from the eigenphase."""
    sin_d = np.sin(np.pi * delta)
    num = np.sin(np.pi * N * delta) ** 2
    return np.where(np.abs(sin_d) < 1e-15, 1.0, num / np.maximum(N**2 * sin_d**2, 1e-300))


def pe_outcome_kernel(phases, n: int) -> np.ndarray:
    """Exact phase-estimation outcome distributions over k = 0..2^n-1, one
    row per eigenphase in ``phases`` (in units of full turns)."""
    N = 2**n
    out = _fejer(np.asarray(phases, dtype=float)[..., None] - np.arange(N) / N, N)
    return out / out.sum(axis=-1, keepdims=True)


def pe_readout(phases, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """The outcome of each eigenphase in ``phases``, in full turns: the one
    readout of every phase estimation in the engine. Without ``rng``, the
    most probable outcome, the nearest 2^-n lattice point: every outcome of
    a `pe_outcome_kernel` row shares the numerator sin^2(pi N delta), so the
    nearest point mod 1 is the row's argmax (-k/N stands for outcome N - k).
    With ``rng``, one inverse-CDF draw k/N in [0, 1) from each phase's row,
    as Generator.choice makes for one entry, in entry order and in blocks of
    BLOCK_ELEMENTS // 2 phases; n > MAX_AE_QUBITS is rejected first."""
    N = 2**n
    read = np.array(phases, dtype=float, order="C")
    if rng is None:
        read *= N
        np.round(read, out=read)
    elif n > MAX_AE_QUBITS:
        raise ConfigurationError(f"a sampled readout takes at most {MAX_AE_QUBITS} qubits")
    else:
        flat = read.reshape(-1)
        rows = BLOCK_ELEMENTS // 2
        for lo in range(0, flat.size, rows):
            cdf = np.cumsum(pe_outcome_kernel(flat[lo : lo + rows], n), axis=-1)
            cdf /= cdf[:, -1:]
            flat[lo : lo + rows] = np.sum(cdf <= rng.random(cdf.shape[0])[:, None], axis=-1)
    read /= N
    return read


def amplitude_estimation(amps, m: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Canonical amplitude estimation with an m-qubit phase register, for
    every good-state probability in ``amps``.

    The Grover iterate's eigenphases are +-theta/pi, sin^2(theta) = amp, and
    outcome k of the -theta/pi branch is outcome 2^m - k of the +theta/pi
    one; both read out sin^2(pi k / 2^m). So the +theta/pi branch alone is
    read out by `pe_readout`, like every phase estimation of the engine: at
    its nearest lattice point (angle error <= pi/2^(m+1)), or with ``rng``
    by one draw per entry (error <= pi/2^m + pi^2/2^(2m) with probability >=
    8/pi^2). k is folded into [0, 2^(m-1)], so the result takes one of
    exactly 2^(m-1) + 1 values. A call holds at most two arrays of the
    input's size at once, beside a sampled readout's blocks.
    """
    if not 1 <= m <= MAX_AE_QUBITS:
        raise ConfigurationError(f"m must be in 1..{MAX_AE_QUBITS}")
    amps = np.asarray(amps, dtype=float)
    # written so that NaN fails it too
    if not np.all((amps >= -1e-12) & (amps <= 1.0 + 1e-12)):
        raise RangeError("amplitudes must lie in [0, 1]")
    read = pe_readout(np.arcsin(np.sqrt(np.clip(amps, 0.0, 1.0))) / math.pi, m, rng)
    # outcomes k and N - k read the same amplitude sin^2(pi k / N)
    np.minimum(read, 1.0 - read, out=read)
    read *= math.pi
    np.sin(read, out=read)
    return np.square(read, out=read)


def signed_overlap(re, shots: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Hadamard-test estimates of the overlaps Re<a|b> in ``re`` (the swap
    test loses the sign): the exact values, or with ``rng`` one draw of
    ``shots`` ancilla measurements per entry."""
    re = np.asarray(re, dtype=float)
    if rng is None:
        return re
    p0 = np.clip((1.0 + re) / 2.0, 0.0, 1.0)
    return 2.0 * rng.binomial(shots, p0) / shots - 1.0


@dataclass
class GroverStats:
    """Outcome of one `grover_min_find` call: ``index`` holds one index per
    row, ``target_queries`` each row's queries summed over its repeats, and
    ``oracle_queries`` the total over the call, ``target_queries.sum()``."""

    index: np.ndarray
    oracle_queries: int
    target_queries: np.ndarray


def _sort_tables(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables `grover_min_find` searches, one row per row of the (T, N)
    matrix ``values``: each row's stable sort order, and below[t, k], the
    entries of row t strictly below its k-th smallest value (the first
    sorted position that holds that value), both int16. A row of no entries
    or of more than MAX_GROVER_N is rejected before any table is written.
    Built in chunks of about SEARCH_SLOTS entries, so the int64 and float
    temporaries stay a few KiB whatever T is."""
    T, N = values.shape
    if N == 0:
        raise ConfigurationError("empty input")
    if N > MAX_GROVER_N:
        raise ConfigurationError(f"N capped at {MAX_GROVER_N}")
    order = np.empty((T, N), dtype=np.int16)
    below = np.empty((T, N), dtype=np.int16)
    rows = max(1, SEARCH_SLOTS // N)
    for lo in range(0, T, rows):
        block = slice(lo, lo + rows)
        o = np.argsort(values[block], axis=1, kind="stable")
        ranked = np.take_along_axis(values[block], o, axis=1)
        first = np.ones(ranked.shape, dtype=bool)
        first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        order[block] = o
        below[block] = np.maximum.accumulate(np.where(first, np.arange(N), 0), axis=1)
    return order, below


def _grover_runs(pool, below, span, angle, budget: int, rng: np.random.Generator) -> None:
    """One exponential-search Grover run of every search in ``pool`` (the
    four rows of `grover_min_find`), in place. A function of its own so that
    its temporaries are freed before the pool is compacted and refilled."""
    row, marked, misses, spent = pool
    # a Grover run of j iterations on the marked set, j uniform below the
    # span; a search's last run is cut short so that no search spends more
    # than its budget
    j = np.minimum((rng.random(row.size) * span[misses]).astype(np.int64), budget - 1 - spent)
    spent += j + 1
    # j iterations on c marked entries find one with chance sin^2((2j + 1) theta_c)
    h = np.sin((2 * j + 1) * angle[marked])
    won = np.flatnonzero(rng.random(j.size) < h * h)
    pos = (rng.random(won.size) * marked[won]).astype(np.int64)  # uniform over the marked set
    marked[won] = below[row[won], pos]
    misses += 1
    misses[won] = 0
    np.minimum(misses, span.size - 1, out=misses)


def grover_min_find(tables, rng: np.random.Generator, repeats: int = 1) -> GroverStats:
    """Durr-Hoyer quantum minimum finding (simulated with exact Grover
    success probabilities and instrumented oracle-query counting).

    ``tables`` is the (order, below) pair that `_sort_tables` makes of a
    (T, N) matrix with one search problem per row: the search reads only
    those, so a caller can free the values before it searches. A single
    search returns its row's argmin with probability >= 1/2 within
    ceil(22.5 sqrt(N) + 1.4 log2(N)^2) oracle queries; each row is searched
    ``repeats`` times and keeps the best index found (the lowest index among
    equal values). Every draw comes from ``rng``, in pool order.

    The T * repeats searches run from one pool of SEARCH_SLOTS slots,
    entering it in row order whenever it is half empty; each step is one
    Grover run of every search in the pool, and finished searches fold into
    their rows' results at the next refill and at the end. The marked set of
    a search (every entry strictly below its threshold) is a prefix of its
    row's stable sort order, so a search is fully described by the pool's
    four int64 rows: its row, its marked count, its misses since the last
    update and its query count. The marked count is the first sorted
    position of the threshold's tie group, so folding the least one keeps
    the best value at its lowest index. A run of j iterations on c marked
    entries finds one with chance sin^2((2j + 1) theta_c), sin^2(theta_c) =
    c / N, from the N + 1 angles theta_c that the call computes once. Beyond
    the tables, a call holds the angles, two int64s per row of results, and
    a pool-sized working set of a few tens of KiB whatever T and
    ``repeats`` are: the tables and the search of a value matrix together
    peak below values.nbytes + 128 KiB, up to N = MAX_GROVER_N.
    """
    order, below = tables
    T, N = order.shape
    # span[k]: the exclusive bound ceil(g) on a run's iterations after k
    # straight misses, where g grows as min(1.2 g, sqrt(N)) from 1
    growth = [1.0]
    while growth[-1] < math.sqrt(N):
        growth.append(min(1.2 * growth[-1], math.sqrt(N)))
    span = np.ceil(growth).astype(np.int64)
    # angle[c] = theta_c, with sin^2(theta_c) = c / N for c marked entries
    angle = np.arcsin(np.sqrt(np.arange(N + 1) / N))
    repeats = max(int(repeats), 1)
    budget = math.ceil(22.5 * math.sqrt(N) + 1.4 * math.log2(max(N, 2)) ** 2)
    best = np.full(T, N, dtype=np.int64)
    queries = np.zeros(T, dtype=np.int64)
    # the pool: row, marked count, misses, queries
    pool = np.zeros((4, 0), dtype=np.int64)
    finished = []  # done searches, folded into their rows at the next refill
    fed, searches = 0, T * repeats
    while True:
        done = (pool[1] == 0) | (pool[3] >= budget)
        finished.append(pool.compress(done, axis=1))
        pool = pool.compress(~done, axis=1)
        refill = fed < searches and 2 * pool.shape[1] <= SEARCH_SLOTS
        if refill or not pool.shape[1]:
            finished = np.concatenate(finished, axis=1)
            np.minimum.at(best, finished[0], finished[1])  # the best value, lowest index on ties
            np.add.at(queries, finished[0], finished[3])
            finished = []
            if not refill:
                break
            k = min(SEARCH_SLOTS - pool.shape[1], searches - fed)
            new = np.zeros((4, k), dtype=np.int64)
            new[0] = np.arange(fed, fed + k) // repeats
            # a uniform index is a uniform sorted position
            new[1] = below[new[0], rng.integers(N, size=k)]
            fed += k
            pool = np.concatenate([pool, new], axis=1)
            continue  # a search that starts at its row's minimum is done at once
        _grover_runs(pool, below, span, angle, budget, rng)
    index = order[np.arange(T), best].astype(np.int64)
    return GroverStats(index, int(queries.sum()), queries)
