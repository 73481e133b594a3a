"""Quantum subspace alignment assembled from the simulator primitives:
qPCA, the matrix-multiplication pipeline for M* and the projections,
quantum nearest-neighbor classification, and the qSVM.

There is no chain function: each stage is its own call. qPCA reads a
domain's exact spectrum from the classical pass and the projection state
Ps^T X that domain's samples, so a caller runs them as the domain is loaded;
M* = Ps^T Pt and the aligned
source M*^T X_hat_s then take only the d-column bases and the matrices the
states read back to.

Each stage exposes enough bookkeeping (the norms its amplitudes drop,
success probabilities) that its output can be compared entrywise against
the classical track.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical_sa import (
    NN_BLOCK_ELEMENTS,
    SubspaceBasis,
    SvmModel,
    _factor_pair,
    _fix_signs,
    _nn_inputs,
    _svm_condition,
    _svm_factor,
    _svm_solve,
    svm_decision_values,
)
from .datasets import Domain
from .errors import ConfigurationError, PostselectionError, ShapeError
from .quantum_core import (
    SEARCH_SLOTS,
    ShotPlan,
    _fejer,
    _sort_tables,
    amplitude_estimation,
    grover_min_find,
    pe_readout,
    signed_overlap,
)

__all__ = [
    "QpcaResult",
    "InnerProductState",
    "QsvmState",
    "qpca",
    "matrix_product_state",
    "q_nn_classify",
    "q_svm_train",
    "q_svm_classify",
    "overlap_angle",
]

# postselection below this probability keeps only rounding noise
POSTSELECTION_FLOOR = 1e-6


@dataclass
class QpcaResult:
    basis: SubspaceBasis
    outcomes: np.ndarray  # the outcome k (ints) each basis vector read out at
    readout_probabilities: np.ndarray  # P_j(k_j) of each basis vector's own readout


@dataclass
class InnerProductState:
    """The postselected state over |i>^I1 |j>^I2: ``amplitudes`` (r x c,
    unit norm) are proportional to the entries of P^T Q, ``scale`` is the
    norm ||P||_F ||Q||_F that the encoding drops, and postselection keeps
    the branch of probability ``success_probability``."""

    amplitudes: np.ndarray
    scale: float
    success_probability: float

    def as_matrix(self) -> np.ndarray:
        """Reconstruct P^T Q: the amplitudes times ||P|| ||Q|| sqrt(success)."""
        return self.amplitudes * (self.scale * math.sqrt(self.success_probability))


@dataclass
class QsvmState:
    """The inverted SVM system: the `SvmModel` whose (b, alpha) the
    postselected state encodes, read back exactly (simulation privilege),
    the postselection probability, N_x, the squared norm of the training-parameter
    state, the Gram L^T L of A = L R^T's left factor, and the phase register's n."""

    model: SvmModel
    success_probability: float
    N_x: float
    gram: np.ndarray
    precision_qubits: int


# ---------------------------------------------------------------------------
# qPCA


def qpca(spectrum: tuple[np.ndarray, np.ndarray], d: int, precision_qubits: int = 8) -> QpcaResult:
    """Principal subspace via phase estimation of exp(i rho t0) on the
    covariance state rho = X X^T / tr(X X^T), the reduced state of the
    column encoding sum_i |i>|x_i> once the index register is traced out.

    rho's exact spectrum comes from the domain's classical pass, the
    `scatter_spectrum` (w, V) of X: eigenvectors V, eigenvalues w / sum(w).
    Each eigenvector reads out at the most probable outcome of its own
    phase-estimation distribution, and the d highest readouts form the
    basis. Eigenvalues are recovered from the readout phases as
    lambda = 2 pi phase / t0 (times the covariance trace); the basis gap is
    the readout gap at the cut.
    """
    w, U = spectrum
    D = len(w)
    if not 1 <= d <= D:
        raise ConfigurationError(f"d={d} out of range")
    cov_trace = float(np.sum(w))
    if cov_trace == 0:
        raise ConfigurationError("qPCA needs a nonzero input: X X^T has trace 0")
    t0 = 0.95 * math.pi  # keeps every eigenphase below 1/2
    N = 2**precision_qubits
    phase = np.maximum(w / cov_trace, 0.0) * t0 / (2 * math.pi)
    # Each eigenvector reads out at its own most probable outcome k. Inside a
    # lattice cell, (P(k+1) - P(k-1)) / P(k) rises with the eigenphase and
    # stays defined on the lattice, where P(k) = 1 and P(k+-1) = 0; it orders
    # eigenvectors that share an outcome. Two of them whose statistics differ
    # by no more than float resolution cannot be told apart; k +- 1 wrap mod N.
    k = (pe_readout(phase, precision_qubits) * N).astype(int)
    P = _fejer(phase[:, None] - ((k[:, None] + np.array([-1, 0, 1])) % N) / N, N)
    tilt = (P[:, 2] - P[:, 0]) / P[:, 1]
    order = np.lexsort((-tilt, -k))
    top = order[: d + 1]
    warnings = []
    if np.any((np.diff(k[top]) == 0) & (np.diff(tilt[top]) >= -np.finfo(float).eps)):
        warnings.append(
            f"eigenvectors share an outcome at {precision_qubits} precision qubits "
            "and cannot be told apart; top subspace is only determined up to rotation"
        )
    if d < D and k[order[d - 1]] == k[order[d]]:
        warnings.append(
            f"the cut at d={d} falls inside one lattice cell: eigenvectors {d} and {d + 1} "
            f"both read out at outcome {k[order[d]]} at {precision_qubits} precision qubits, "
            "so the readout alone does not determine the subspace"
        )
    eigvals = k[order] / N * 2 * math.pi / t0 * cov_trace
    gap = float(eigvals[d - 1] - (eigvals[d] if d < D else 0.0))
    basis = SubspaceBasis(_fix_signs(U[:, order[:d]]), eigvals[:d], warnings, gap)
    return QpcaResult(
        basis=basis,
        outcomes=k[order[:d]],
        readout_probabilities=P[order[:d], 1],
    )


# ---------------------------------------------------------------------------
# matrix multiplication pipeline


def overlap_angle(cosine):
    """Angle theta with sin(theta) = sqrt((1 + <u|v>)/2), entrywise."""
    return np.arcsin(np.sqrt((1.0 + np.clip(cosine, -1.0, 1.0)) / 2.0))


def matrix_product_state(
    P: np.ndarray,
    Q: np.ndarray,
    precision_qubits: int = 8,
    exact_theta: bool = False,
) -> InnerProductState:
    """Run the five-step multiplication pipeline producing a state whose
    amplitudes encode the entries of P^T Q.

    Per column pair the overlap angle theta is either represented exactly
    (exact-theta mode) or read off the 2^-n phase lattice, and the
    conditional rotation writes the recovered cosine onto the R=|0> branch;
    every pair is read out at once. A pair with a zero column has no state
    and contributes 0. The reported success probability is the exact Born
    probability of the postselection.
    """
    P = np.asarray(P, float)
    Q = np.asarray(Q, float)
    if P.shape[0] != Q.shape[0]:
        raise ConfigurationError("column spaces must share the ambient dimension")
    r, c = P.shape[1], Q.shape[1]
    pnorm, qnorm = np.linalg.norm(P), np.linalg.norm(Q)
    if pnorm == 0 or qnorm == 0:
        raise ConfigurationError("zero operand matrix")
    # column norms without the full-size square that norm(axis=0) forms
    pcol = np.sqrt(np.einsum("ij,ij->j", P, P))
    qcol = np.sqrt(np.einsum("ij,ij->j", Q, Q))
    norms = np.outer(pcol, qcol)
    cos = np.divide(P.T @ Q, norms, out=np.zeros((r, c)), where=norms > 0)
    if exact_theta:
        rec = cos
    else:
        # G has eigenphases +-theta/pi turns
        theta = pe_readout(overlap_angle(cos) / math.pi, precision_qubits) * math.pi
        rec = 2.0 * np.sin(theta) ** 2 - 1.0
    unnorm = norms * rec / (pnorm * qnorm)
    success = float(np.sum(unnorm**2))
    if success < POSTSELECTION_FLOOR:
        raise PostselectionError(
            f"postselection probability {success:.3e} below {POSTSELECTION_FLOOR:g}; "
            "overlaps are degenerate"
        )
    return InnerProductState(unnorm / math.sqrt(success), pnorm * qnorm, success)


# ---------------------------------------------------------------------------
# quantum nearest neighbor


def _unit_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X's unit columns and its column norms. A zero vector has no state; its
    unit column of zeros gives overlap 0, leaving the distance at tn^2 + sn^2."""
    norms = np.linalg.norm(X, axis=0)
    return X / np.where(norms > 0, norms, 1.0), norms


def _ae_distances(
    source: tuple, X_hat_t: np.ndarray, plan: ShotPlan, ae_bits: int, first: int = 0
) -> np.ndarray:
    """AE estimates of the distances from a block of m targets, the first
    with global index ``first``, to the sources (``_unit_columns`` of X_hat_a),
    (m, n_s): Hadamard-test overlaps and the norms give the distances, read
    out on the AE lattice normalized by each target's largest. One GEMM
    writes every overlap into the result, which is then read out in place,
    piece by piece: in exact mode max(1, SEARCH_SLOTS // n_s) targets at a
    time, so the scratch and the readout's temporaries stay a few KiB; in
    sampled mode one target at a time, as target j draws its overlaps, then
    its AE outcomes, from its own stream ``plan.rng("nn_distances", j)``. A
    target's estimates do not depend on its block unless it is alone in it
    (BLAS takes another kernel for one row)."""
    (src_unit, src_norms), (tgt_unit, tgt_norms) = source, _unit_columns(X_hat_t)
    n_t, n_s = tgt_unit.shape[1], src_unit.shape[1]
    est = np.matmul(tgt_unit.T, src_unit)
    src_sq = src_norms**2
    step = max(1, SEARCH_SLOTS // n_s) if plan.exact else 1
    scratch = np.empty((min(step, n_t), n_s))
    for lo in range(0, n_t, step):
        out = est[lo : lo + step]
        buf = scratch[: out.shape[0]]
        rng = None if plan.exact else plan.rng("nn_distances", first + lo)
        ov = signed_overlap(out, plan.shots, rng)
        tn = tgt_norms[lo : lo + step, None]
        # (tn^2 + sn^2) - ((2 tn) sn) ov, clamped at 0, in that order
        np.multiply(2.0 * tn, src_norms, out=buf)
        buf *= ov
        np.add(tn**2, src_sq, out=out)
        np.subtract(out, buf, out=buf)
        np.maximum(buf, 0.0, out=buf)
        np.sqrt(buf, out=buf)
        dmax = np.maximum(buf.max(axis=-1, keepdims=True), 1e-12)
        buf /= dmax
        np.multiply(amplitude_estimation(buf, ae_bits, rng), dmax, out=out)
    return est


def q_nn_classify(
    X_hat_a: np.ndarray, labels: np.ndarray, X_hat_t: np.ndarray, plan: ShotPlan,
    ae_bits: int = 7, repeats: int = 15,
) -> tuple[np.ndarray, np.ndarray]:
    """Label each target point by its nearest aligned source point.

    The targets go in blocks of B = max(NN_BLOCK_ELEMENTS // n_s, ceil(SEARCH_SLOTS /
    repeats)), a last block of one joining the one before; each block gets its AE
    distance estimates (``_ae_distances``), whose int16 sort tables (`_sort_tables`)
    replace them before its one Durr-Hoyer call, so no block's estimates are alive
    during a search. Every search draws from one "min_find" stream. Returns the
    labels and one record per target: ``nearest``, the source index the search kept;
    ``oracle_queries``, summed over its searches; and ``warning``, set when sources of
    more than one label share the estimated minimum, as read off the sort tables.
    Inputs are checked as in `nn_classify`."""
    X_hat_a, labels, X_hat_t = _nn_inputs(X_hat_a, labels, X_hat_t)
    n_s, n_t = X_hat_a.shape[1], X_hat_t.shape[1]
    step = max(NN_BLOCK_ELEMENTS // n_s, -(-SEARCH_SLOTS // max(repeats, 1)))
    edges = list(range(0, n_t - (n_t > 1 and n_t % step == 1), step))
    rng, source = plan.rng("min_find"), _unit_columns(X_hat_a)
    columns = []  # per block: nearest, oracle queries, warning
    for lo, hi in zip(edges, edges[1:] + [n_t]):
        # the estimates are freed once their sort tables are made
        order, below = _sort_tables(_ae_distances(source, X_hat_t[:, lo:hi], plan, ae_bits, lo))
        stats = grover_min_find((order, below), rng, repeats)
        # a tied minimum has below[:, 1] = 0; its group (below = 0) starts at its lowest index
        tied = np.flatnonzero(below[:, 1:2] == 0)
        ranked = labels[order[tied]]
        warning = np.zeros(hi - lo, dtype=bool)
        warning[tied] = np.any((below[tied] == 0) & (ranked != ranked[:, :1]), axis=1)
        columns.append((stats.index, stats.target_queries, warning))
        del order, below, ranked  # before the next block's are made
    fields = [("nearest", np.int64), ("oracle_queries", np.int64), ("warning", bool)]
    records = np.empty(n_t, fields)
    for (name, _), column in zip(fields, zip(*columns)):
        records[name] = np.concatenate(column)
    return labels[records["nearest"]], records


# ---------------------------------------------------------------------------
# qSVM

# HHL (Harrow, Hassidim & Lloyd, PRL 2009), as the qSVM of Rebentrost, Mohseni & Lloyd
# (PRL 2014) inherits it, sizes its phase register from F's condition number kappa and
# a target relative error epsilon: t0 ~ kappa / epsilon. A singular value sigma sits at
# phase sigma 0.25 / sigma_max, which the readout moves by at most 2^-(n+1), so sigma
# reads sigma (1 + delta), |delta| <= 2 kappa / 2^n <= epsilon, at the least such n,
# ceil(log2(2 kappa / epsilon)). Then sigma_min reads >= 0.5 / epsilon lattice steps
# up, and (b, alpha) reads back within epsilon / (1 - epsilon) of `svm_train`'s. kappa
# <= 1e12 (`_svm_condition`) bounds n at 48, so phase 2^n <= 2^46 is exact in float64.
QSVM_EPSILON = 0.01


def q_svm_train(Xs: Domain, A, gamma: float) -> QsvmState:
    """Matrix inversion (HHL) of the SVM system F (b, alpha) = (0, y) by
    spectral emulation of phase estimation plus the 1/sigma conditional
    rotation. ``A`` is a D x D array or a factor pair (L, R) with A = L R^T.

    HHL inverts the Hermitian embedding [[0, F], [F^T, 0]], whose
    eigenvalues are +-sigma for the singular values sigma of F, from
    `_svm_factor`. Each sigma reads out at its most probable outcome on the
    n = ceil(log2(2 kappa / QSVM_EPSILON)) qubits F's condition number kappa
    calls for, read = pe_readout(sigma 0.25 / sigma_max, n) sigma_max / 0.25. The
    solution is `_svm_solve` of the unit (0, y) with 1/read, and the state's
    model is it read back to (b, alpha), with w folded as `svm_train` folds it.
    """
    c, Q, U, sigma, Wt, rhs = _svm_factor(Xs, A, gamma)
    n = math.ceil(math.log2(2 * _svm_condition(c, sigma, gamma) / QSVM_EPSILON))
    smax = float(sigma.max())
    read = pe_readout(sigma * 0.25 / smax, n) * smax / 0.25
    x = _svm_solve(Q, U, Wt, 1.0 / read, rhs / np.linalg.norm(rhs))
    mag = float(np.linalg.norm(x))
    # the conditional rotation writes C / sigma~, with C the smallest
    # readout, so postselection succeeds with (C ||x||)^2
    success = float((read.min() * mag) ** 2)
    if success < POSTSELECTION_FLOOR:
        raise PostselectionError(
            f"postselection probability {success:.3e} below {POSTSELECTION_FLOOR:g} "
            "in inversion"
        )
    # the unit state x / ||x|| read back: ||(0, y)|| = sqrt(n) for +-1 labels
    vec = x / mag * (mag * math.sqrt(Xs.n))
    b, alpha = float(vec[0]), vec[1:]
    N_x = float(b**2 + np.sum(alpha**2 * np.einsum("ij,ij->j", Xs.samples, Xs.samples)))
    L, _ = _factor_pair(A)
    return QsvmState(SvmModel(b, alpha, L.T @ (Xs.samples @ alpha)), success, N_x, L.T @ L, n)


def q_svm_classify(state: QsvmState, X: np.ndarray, plan: ShotPlan):
    """Signed decisions via Hadamard-test overlaps of the training-parameter
    state (b, alpha_1 x_1, ..., alpha_n x_n) and each query state
    (1, A x, ..., A x) for the A = L R^T ``state`` was trained with; sign(0) -> +1.

    ``X`` is an r x m matrix of points (columns) as `svm_decision_values`
    takes them, R^T x: the target projection P_t^T x for the alignment
    pair, the raw points for a D x D ``A``. An overlap is the decision value
    of ``state.model`` over sqrt(N_x N_t), with N_t = 1 + n ||A x||^2 taken
    through the state's r x r Gram L^T L, so no D x m array is formed.
    Returns (labels, info) with one entry per column in each per-query
    field of info. In sampled mode each column gets its own draw from the
    plan's "svm_decisions" stream.
    """
    Xm = np.asarray(X, float)
    if Xm.ndim != 2 or Xm.shape[0] != state.gram.shape[0]:
        raise ShapeError(
            f"X must be a D x m matrix of points (columns) with D = {state.gram.shape[0]}, "
            f"the inner dimension of A = L R^T (points as R^T x); got shape {Xm.shape}"
        )
    N_t = 1.0 + state.model.alpha.size * np.einsum("ij,ij->j", Xm, state.gram @ Xm)
    re = svm_decision_values(state.model, Xm) / np.sqrt(state.N_x * N_t)
    decision = signed_overlap(re, plan.shots, None if plan.exact else plan.rng("svm_decisions"))
    labels = np.where(decision >= 0, 1, -1)
    info = {
        "decision_value": decision,
        "exact_overlap": re,  # what decision_value estimates
        "low_confidence": (not plan.exact) & (np.abs(decision) < 3.0 / math.sqrt(plan.shots)),
    }
    return labels, info
