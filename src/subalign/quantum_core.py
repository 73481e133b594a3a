"""Desk-scale exact quantum simulation: the spectral engine of the quantum
track and the measurement plan its readouts draw shot noise from.

The engine holds exact phase-estimation outcome distributions on the 2^-n
lattice, the readouts built on them (amplitude estimation and the Hadamard
test, over arrays), and Grover-based minimum finding.

Everything is simulated exactly; each readout returns the exact (most
probable) outcome, or one seeded shot-sampled outcome per entry when given a
generator. The gate-level circuits that these distributions stand for live
in the test suite as their oracle.
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
    "min_find": (1, 0),  # every Durr-Hoyer search of one call
    "svm_decisions": (2, 0),  # the qSVM Hadamard tests of one call
    "swap_test": (3, 0),  # the swap test of the gate-level oracle
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
MAX_GROVER_N = 2**12
# searches per block of a lockstep minimum search, and twice the entries per
# block of an amplitude-estimation readout, however many a call has. The
# exact AE readout evaluates two outcomes per entry (a few KiB per block); a
# sampled one builds each entry's full 2^m-outcome distribution, a peak of
# about 6 MiB per block at m = 10 (128 x 1024 floats are 1 MiB per array)
BLOCK_ELEMENTS = 2**8


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


def pe_readout(phases, n: int) -> np.ndarray:
    """The most probable phase-estimation outcome of each eigenphase in
    ``phases``, in full turns: the nearest point of the 2^-n lattice. Every
    outcome of a row of `pe_outcome_kernel` shares the numerator
    sin^2(pi N delta), so the nearest point mod 1 is the row's argmax. The
    sign is kept: -k/N stands for the outcome N - k."""
    N = 2**n
    return np.round(np.asarray(phases, dtype=float) * N) / N


def _ae_distribution(amps: np.ndarray, m: int) -> np.ndarray:
    """Outcome distribution of amplitude estimation: phase estimation of the
    Grover iterate, whose eigenphases are +-theta/pi with sin^2(theta) = amp,
    on a state weighting both eigenvectors equally."""
    theta = np.arcsin(np.sqrt(amps))
    return 0.5 * (pe_outcome_kernel(theta / math.pi, m) + pe_outcome_kernel(-theta / math.pi, m))


def _ae_outcomes(amps: np.ndarray, m: int, rng: np.random.Generator | None) -> np.ndarray:
    """Most probable (or, with ``rng``, sampled) AE outcome k for each entry."""
    N = 2**m
    if rng is None:
        # The distribution is symmetric under k -> N - k, and on [0, N/2]
        # its maximum sits at one of the two lattice neighbours of the
        # eigenphase theta/pi, so only those two outcomes are evaluated.
        phase = np.arcsin(np.sqrt(amps))[:, None] / math.pi
        k = np.minimum(np.floor(phase * N), N // 2 - 1) + np.arange(2)
        weight = _fejer(phase - k / N, N) + _fejer(phase + k / N, N)
        return k[np.arange(amps.size), np.argmax(weight, axis=-1)].astype(int)
    # inverse-CDF draw, as Generator.choice does for one entry
    dist = _ae_distribution(amps, m)
    cdf = np.cumsum(dist / dist.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[:, -1:]
    return np.sum(cdf <= rng.random(amps.size)[:, None], axis=-1)


def amplitude_estimation(amps, m: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Canonical amplitude estimation with an m-qubit phase register, for
    every good-state probability in ``amps``.

    Returns sin^2(pi k / 2^m) for the most probable outcome k, or with
    ``rng`` for one sampled outcome per entry; error <= pi/2^m + pi^2/2^(2m)
    with probability >= 8/pi^2. Outcomes k and 2^m - k read out the same
    amplitude, so k is folded into [0, 2^(m-1)] before the readout: the
    result takes one of exactly 2^(m-1) + 1 values. Entries are read out in
    blocks of BLOCK_ELEMENTS // 2, so memory stays bounded whatever the size
    of ``amps``; draws are taken in entry order, so the blocking does not
    change them.
    """
    if not 1 <= m <= MAX_AE_QUBITS:
        raise ConfigurationError(f"m must be in 1..{MAX_AE_QUBITS}")
    amps = np.asarray(amps, dtype=float)
    if np.any((amps < -1e-12) | (amps > 1.0 + 1e-12)):
        raise RangeError("amplitudes must lie in [0, 1]")
    N = 2**m
    lattice = np.sin(np.pi * np.arange(N // 2 + 1) / N) ** 2
    flat = amps.reshape(-1)
    out = np.empty(flat.size)
    rows = BLOCK_ELEMENTS // 2
    for lo in range(0, flat.size, rows):
        k = _ae_outcomes(np.clip(flat[lo : lo + rows], 0.0, 1.0), m, rng)
        out[lo : lo + rows] = lattice[np.minimum(k, N - k)]
    return out.reshape(amps.shape)


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
    row, ``oracle_queries`` and ``threshold_updates`` are totals over the
    call, ``target_queries`` holds each row's queries summed over its
    repeats."""

    index: np.ndarray
    oracle_queries: int
    threshold_updates: int
    target_queries: np.ndarray


def _durr_hoyer_rows(values: np.ndarray, repeats: int, rng: np.random.Generator):
    """``repeats`` Durr-Hoyer searches on every row of ``values``, run in
    lockstep: each step is one exponential-search Grover run of every live
    search. Returns each row's best index, queries and threshold updates.

    The marked set of a search (every entry strictly below its threshold) is
    a prefix of its row's stable sort order, so a search is fully described
    by its threshold's sorted position, its marked count, its growth factor
    and its query count.
    """
    T, N = values.shape
    budget = math.ceil(22.5 * math.sqrt(N) + 1.4 * math.log2(max(N, 2)) ** 2)
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    # below[t, k]: entries of row t strictly below its k-th smallest value,
    # i.e. the first sorted position that holds that value
    first = np.ones((T, N), dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    below = np.maximum.accumulate(np.where(first, np.arange(N), 0), axis=1)
    row = np.repeat(np.arange(T), repeats)
    pos = rng.integers(N, size=row.size)  # a uniform index is a uniform sorted position
    marked = below[row, pos]
    growth = np.ones(row.size)
    queries = np.zeros(row.size, dtype=np.int64)
    updates = np.zeros(row.size, dtype=np.int64)
    live = np.flatnonzero(marked > 0)
    while live.size:
        c = marked[live]
        # a Grover run of j iterations on the marked set; a search's last run
        # is cut short so that no search spends more than its budget
        j = rng.integers(0, np.ceil(growth[live]).astype(np.int64))
        j = np.minimum(j, budget - 1 - queries[live])
        queries[live] += j + 1
        hit = rng.random(live.size) < np.sin((2 * j + 1) * np.arcsin(np.sqrt(c / N))) ** 2
        won, lost = live[hit], live[~hit]
        pos[won] = (rng.random(won.size) * c[hit]).astype(np.int64)  # uniform over the marked set
        marked[won] = below[row[won], pos[won]]
        growth[won] = 1.0
        updates[won] += 1
        growth[lost] = np.minimum(1.2 * growth[lost], math.sqrt(N))
        live = live[(marked[live] > 0) & (queries[live] < budget)]
    # the lowest sorted position is the best value, and the lowest index on ties
    best = pos.reshape(T, repeats).min(axis=1)
    return (
        order[np.arange(T), best],
        queries.reshape(T, repeats).sum(axis=1),
        updates.reshape(T, repeats).sum(axis=1),
    )


def grover_min_find(values, plan: ShotPlan, repeats: int = 1) -> GroverStats:
    """Durr-Hoyer quantum minimum finding (simulated with exact Grover
    success probabilities and instrumented oracle-query counting).

    ``values`` is a (T, N) matrix with one search problem per row. A single
    search returns its row's argmin with probability >= 1/2 within
    ceil(22.5 sqrt(N) + 1.4 log2(N)^2) oracle queries; each row is searched
    ``repeats`` times and keeps the best index found (the lowest index among
    equal values).

    All T * repeats searches run in lockstep on arrays, in blocks of whole
    rows holding at most BLOCK_ELEMENTS searches (one row when ``repeats``
    exceeds it); each block builds its own sort tables, so memory is
    O(BLOCK_ELEMENTS * (1 + N / repeats)) whatever T is. Every draw comes
    from the plan's "min_find" stream, block after block.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigurationError("values must be a (T, N) matrix")
    T, N = values.shape
    if N == 0:
        raise ConfigurationError("empty input")
    if N > MAX_GROVER_N:
        raise ConfigurationError(f"N capped at {MAX_GROVER_N}")
    repeats = max(int(repeats), 1)
    rng = plan.rng("min_find")
    index, queries, updates = (np.zeros(T, dtype=np.int64) for _ in range(3))
    rows = max(1, BLOCK_ELEMENTS // repeats)
    for lo in range(0, T, rows):
        block = slice(lo, lo + rows)
        index[block], queries[block], updates[block] = _durr_hoyer_rows(values[block], repeats, rng)
    return GroverStats(index, int(queries.sum()), int(updates.sum()), queries)
