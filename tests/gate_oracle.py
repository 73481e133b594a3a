"""Gate-level circuits that the spectral engine in subalign.quantum_core
stands for.

The pipeline never runs these: qPCA, amplitude estimation and the matrix
products read exact outcome distributions off eigendecompositions instead.
The tests run the circuits below on small instances and require the
engine's distributions to match them. States are plain amplitude vectors
and density matrices; `column_state` and `partial_trace` check the identity
rho = M M^T / ||M||_F^2 from which qPCA forms its covariance state. They are
kept here, outside the package, so the package needs no scipy at import
time.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from subalign.errors import ConfigurationError, ShapeError, SubalignError
from subalign.quantum_core import ShotPlan

MAX_PRECISION_QUBITS = 12


class ValidationError(SubalignError):
    """An operator or state fails a structural check (unitarity, idempotence, ...)."""


def apply_unitary_vec(vec: np.ndarray, U: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply a k-qubit unitary to the given global qubit positions of an
    n-qubit statevector (position 0 = most significant bit)."""
    qubits = list(qubits)
    k = len(qubits)
    if U.shape != (2**k, 2**k):
        raise ShapeError(f"unitary shape {U.shape} does not match {k} qubits")
    psi = vec.reshape([2] * n)
    psi = np.moveaxis(psi, qubits, range(k))
    shape = psi.shape
    psi = U @ psi.reshape(2**k, -1)
    psi = np.moveaxis(psi.reshape(shape), range(k), qubits)
    return psi.reshape(-1)


def probabilities(amps: np.ndarray) -> np.ndarray:
    """Measurement distribution of the first register of an (outcome, rest)
    amplitude array: each row's probability mass."""
    return np.sum(np.abs(amps) ** 2, axis=1)


def column_state(M: np.ndarray) -> np.ndarray:
    """Amplitude encoding sum_i |i>|M[:, i]> / ||M||_F of a D x n matrix,
    index register first: a vector over registers of sizes (n, D)."""
    M = np.asarray(M, dtype=float)
    return (M.T / np.linalg.norm(M)).reshape(-1)


def partial_trace(psi: np.ndarray, dims, over: int) -> np.ndarray:
    """Reduced density matrix of the pure state ``psi`` over registers of
    sizes ``dims`` (most significant first), with register ``over`` traced
    out; the kept registers stay in order."""
    rows = np.moveaxis(np.reshape(psi, dims), over, 0).reshape(dims[over], -1)
    return rows.T @ rows.conj()


def _check_unitary(U: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValidationError("operator must be square")
    if np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))) > tol:
        raise ValidationError("operator is not unitary within 1e-10")
    return U


def phase_estimation(U: np.ndarray, psi: np.ndarray, precision_qubits: int) -> np.ndarray:
    """Standard phase estimation of ``U`` applied to the whole input vector
    ``psi``: the (2^n, dim) amplitudes, one row per precision outcome."""
    if not 1 <= precision_qubits <= MAX_PRECISION_QUBITS:
        raise ConfigurationError(
            f"precision_qubits must be in 1..{MAX_PRECISION_QUBITS}"
        )
    U = _check_unitary(U)
    psi = np.asarray(psi, dtype=complex)
    if U.shape[0] != psi.size:
        raise ValidationError("unitary dimension does not match input state")
    N = 2**precision_qubits
    T, Z = scipy.linalg.schur(U, output="complex")
    eigs = np.diag(T)
    w = Z.conj().T @ psi
    powers = eigs[None, :] ** np.arange(N)[:, None]  # (N, dim) eigenvalue powers
    rows = (powers * w[None, :]) @ Z.T  # row k holds U^k |psi>
    # uniform superposition of k, then the inverse QFT on the index axis
    return np.fft.fft(rows, axis=0) / N


def ae_distribution(state_prep: np.ndarray, good_projector: np.ndarray, m: int) -> np.ndarray:
    """Outcome distribution of amplitude estimation as a circuit: phase
    estimation of the Grover iterate Q = -A S_0 A^dagger S_good on A|0>."""
    A = _check_unitary(state_prep)
    P = np.asarray(good_projector, dtype=complex)
    if np.max(np.abs(P @ P - P)) > 1e-10 or np.max(np.abs(P - P.conj().T)) > 1e-10:
        raise ValidationError("good_projector must be an orthogonal projector")
    dim = A.shape[0]
    S0 = np.eye(dim)
    S0[0, 0] = -1.0
    Q = -A @ S0 @ A.conj().T @ (np.eye(dim) - 2.0 * P)
    return probabilities(phase_estimation(Q, A[:, 0], m))


def density_exponentiation(
    rho: np.ndarray, sigma: np.ndarray, t: float, slices: int
) -> np.ndarray:
    """Approximate e^{-i rho t} sigma e^{i rho t} by ``slices`` rounds of the
    partial-swap channel, consuming one copy of rho per round.

    Trace-distance error decays like t^2 / slices.
    """
    if slices < 1:
        raise ConfigurationError("slices must be >= 1")
    if rho.shape != sigma.shape:
        raise ValidationError("rho and sigma dimensions differ")
    d = rho.shape[0]
    dt = t / slices
    # swap operator on the two copies; exp(-i S dt) = cos(dt) I - i sin(dt) S
    S = np.zeros((d * d, d * d))
    idx = np.arange(d * d)
    a, b = idx // d, idx % d
    S[idx, b * d + a] = 1.0
    U = math.cos(dt) * np.eye(d * d) - 1j * math.sin(dt) * S
    sig = np.asarray(sigma, dtype=complex)
    for _ in range(slices):
        joint = U @ np.kron(sig, rho) @ U.conj().T
        sig = np.trace(joint.reshape(d, d, d, d), axis1=1, axis2=3)
        sig = 0.5 * (sig + sig.conj().T)
    return sig / np.trace(sig).real


def swap_test_rng(plan: ShotPlan) -> np.random.Generator:
    """The swap test's shot stream: a child of the plan's seed keyed (3,),
    a code no measurement stage of the program uses."""
    return np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(3,)))


def swap_test(a: np.ndarray, b: np.ndarray, plan: ShotPlan) -> float:
    """Squared overlap |<a|b>|^2 of two unit vectors, exact or from ancilla
    shot statistics."""
    if np.shape(a) != np.shape(b):
        raise ValidationError("states live in different dimensions")
    overlap_sq = float(np.abs(np.vdot(a, b)) ** 2)
    if plan.exact:
        return overlap_sq
    p0 = (1.0 + overlap_sq) / 2.0
    hits = swap_test_rng(plan).binomial(plan.shots, p0)
    return 2.0 * hits / plan.shots - 1.0


def _durr_hoyer_once(values: np.ndarray, rng: np.random.Generator):
    """One Durr-Hoyer search, one Grover run per loop step: the statistical
    oracle of the pooled engine in `grover_min_find`."""
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


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b)))))


def build_phi1(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The mixed column state (|0>(u+v) + |1>(u-v))/2 for unit u, v."""
    return np.concatenate([(u + v) / 2.0, (u - v) / 2.0]).astype(complex)


def build_g_operator(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Grover-type operator (2|phi1><phi1| - I)(-sigma_z x I) whose
    eigenvalues on the column pair are exp(+-2i theta)."""
    phi1 = build_phi1(u, v)
    dim = phi1.size
    refl = 2.0 * np.outer(phi1, phi1.conj()) - np.eye(dim)
    sz = np.kron(np.diag([1.0, -1.0]), np.eye(dim // 2))
    return refl @ (-sz)
