"""The spectral engine of the quantum track: exact phase-estimation outcome
distributions on the 2^-n lattice, the readouts built on them (amplitude
estimation and the Hadamard test, over arrays), and Grover-based minimum
finding.

Everything is simulated exactly; each readout returns the exact (most
probable) outcome, or one seeded shot-sampled outcome per entry when given a
generator. The gate-level circuits that these distributions stand for live
in the test suite as their oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, RangeError
from .state import ShotPlan

MAX_AE_QUBITS = 10
MAX_GROVER_N = 2**12
# working values per amplitude-estimation block: a readout's temporaries stay
# a few KiB however many entries it reads out
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
    blocks of at most BLOCK_ELEMENTS working values, so memory stays bounded
    whatever the size of ``amps``; draws are taken in entry order.
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
    rows = max(1, BLOCK_ELEMENTS // (2 if rng is None else N))
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
    index: int
    oracle_queries: int
    threshold_updates: int


def _durr_hoyer_once(values: np.ndarray, rng: np.random.Generator):
    N = values.size
    budget = math.ceil(22.5 * math.sqrt(N) + 1.4 * math.log2(max(N, 2)) ** 2)
    y_idx = int(rng.integers(N))
    queries = 0
    updates = 0
    while queries < budget:
        marked = np.flatnonzero(values < values[y_idx])
        if marked.size == 0:
            break
        # exponential Grover search over the marked set
        m = 1.0
        found = False
        theta = math.asin(math.sqrt(marked.size / N))
        while queries < budget:
            j = int(rng.integers(0, max(int(math.ceil(m)), 1)))
            queries += j + 1
            p_hit = math.sin((2 * j + 1) * theta) ** 2
            if rng.random() < p_hit:
                y_idx = int(rng.choice(marked))
                updates += 1
                found = True
                break
            m = min(1.2 * m, math.sqrt(N))
        if not found:
            break
    return y_idx, queries, updates


def grover_min_find(
    values,
    plan: ShotPlan,
    repeats: int = 1,
    return_stats: bool = False,
):
    """Durr-Hoyer quantum minimum finding (simulated with exact Grover
    success probabilities and instrumented oracle-query counting).

    A single run returns the true argmin with probability >= 1/2; the driver
    repeats ``repeats`` times and keeps the best index found.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigurationError("empty input")
    if values.size > MAX_GROVER_N:
        raise ConfigurationError(f"N capped at {MAX_GROVER_N}")
    rng = plan.rng()
    best_idx, total_queries, total_updates = None, 0, 0
    for _ in range(max(repeats, 1)):
        idx, queries, updates = _durr_hoyer_once(values, rng)
        total_queries += queries
        total_updates += updates
        if best_idx is None or values[idx] < values[best_idx] or (
            values[idx] == values[best_idx] and idx < best_idx
        ):
            best_idx = idx
    if return_stats:
        return GroverStats(best_idx, total_queries, total_updates)
    return best_idx
