"""Classical subspace alignment: PCA bases, the closed-form alignment
matrix M* = Ps^T Pt, 1-NN and least-squares SVM classifiers, and the
kernelized variant (on explicit feature states for the linear and hard
kernels, on Gram matrices for the others).

This module is the oracle track the quantum pipeline is verified against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Domain
from .errors import (
    ConfigurationError,
    IllConditionedError,
    RankDeficiencyError,
    ShapeError,
)

__all__ = [
    "SubspaceBasis",
    "AlignmentArtifacts",
    "KernelSpec",
    "SvmModel",
    "KernelAlignment",
    "scatter_spectrum",
    "pca_subspace",
    "alignment_matrix",
    "build_alignment",
    "nn_classify",
    "ls_svm_system",
    "svm_train",
    "svm_decision_values",
    "svm_classify",
    "kernel_matrix",
    "kernel_pca",
    "kernel_sa_fit",
]

DEGENERACY_GAP = 1e-12
# kernel PCA needs the d-th eigenvalue above this
RANK_FLOOR = 1e-12
# kernels whose feature map `kernel_sa_fit` builds explicitly: phi(x) = x and
# the 2^q-dim hard-kernel statevector, q = max(1, ceil(log2 D))
FEATURE_KINDS = ("linear", "hard")
# entries per block of the 1-NN distance matrix (step queries x n_s sources).
# At d=8, n_s=n_t=10^4 (random data, 2 cores), before the row floor below:
# 2^14 took 313 ms, 2^15 148 ms, 2^16 102 ms, 2^17 139 ms; at d=2, n_s=1000,
# 2^15 takes 1.0 ms. 2^16 raised the peak memory of the kernel-hard bench
# config from 0.84 to 1.04 MiB.
NN_BLOCK_ELEMENTS = 2**15
# fewest query rows per 1-NN block; it sets the block once n_s > 2^12, where
# NN_BLOCK_ELEMENTS // n_s leaves a GEMM too few output rows to run at speed.
# 1-NN at d=8, n_s=n_t=10^4 (random data, Xeon with 2 MiB L2 per core, 2
# cores, OpenBLAS 1 thread; median of 12 interleaved rounds, identical
# labels): 3 rows 114 ms, 4 88, 5 83, 6 82, 7 80, 8 76, 9 78, 10 79, 11 87,
# 12 116, 13 121, 14-16 120. The distance block is then 8 * n_s * 8 bytes
# (625 KiB at n_s = 10^4).
NN_MIN_ROWS = 8


def _as_matrix(X) -> np.ndarray:
    return X.samples if isinstance(X, Domain) else np.asarray(X, dtype=float)


def _lead_signs(V: np.ndarray) -> np.ndarray:
    """-1 for every column whose largest-magnitude entry (the first such
    entry on ties) is negative, +1 for the others."""
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.where(lead < 0, -1.0, 1.0)


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of every column positive, so
    eigenvector signs are deterministic. The result is C-ordered: the
    layout decides which BLAS path, and so which rounding, later products
    take."""
    return np.multiply(V, _lead_signs(V), order="C")


@dataclass
class SubspaceBasis:
    """Top-d principal directions (orthonormal columns) with eigenvalues and,
    when known, the eigenvalue gap lambda_d - lambda_{d+1} at the cut."""

    P: np.ndarray
    eigenvalues: np.ndarray
    warnings: list[str] = field(default_factory=list)
    gap: float = math.nan

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        d = self.P.shape[1]
        if self.eigenvalues.shape != (d,):
            raise ShapeError("eigenvalue count must equal basis column count")
        # both checks are written so that NaN fails them too
        if not np.max(np.abs(self.P.T @ self.P - np.eye(d))) <= 1e-10:
            raise ShapeError("basis columns are not orthonormal")
        if not (np.all(np.diff(self.eigenvalues) <= 1e-10) and np.all(self.eigenvalues >= -1e-12)):
            raise ConfigurationError("eigenvalues must be descending and >= 0")

    @property
    def d(self) -> int:
        return self.P.shape[1]


@dataclass
class AlignmentArtifacts:
    """Everything the alignment step produces: M*, the aligned basis
    P_a = Ps M*, the target basis P_t and both projected datasets.

    The target aligned matrix A = P_a P_t^T has rank d, so it is kept as
    the factor pair (P_a, P_t) and formed only when ``A`` is read."""

    M_star: np.ndarray
    P_a: np.ndarray
    P_t: np.ndarray
    X_hat_a: np.ndarray
    X_hat_t: np.ndarray

    def __post_init__(self):
        if np.linalg.norm(self.M_star, 2) > 1 + 1e-10:
            raise ConfigurationError("spectral norm of M* exceeds 1")

    @property
    def A(self) -> np.ndarray:
        return self.P_a @ self.P_t.T


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selector: linear | polynomial(degree) | cosine | hard."""

    kind: str = "linear"
    degree: int = 1

    def __post_init__(self):
        if self.kind not in ("linear", "polynomial", "cosine", "hard"):
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ConfigurationError("polynomial degree must be >= 1")


def _top_basis(w: np.ndarray, V: np.ndarray, d: int) -> SubspaceBasis:
    """The top-d eigenpairs of a symmetric PSD matrix from its `eigh`, signed
    by `_fix_signs`; eigenvalues past the last are 0. A degenerate-subspace
    warning is attached when the gap at the cut is below 1e-12."""
    order = np.argsort(w)[::-1]
    w = w[order]
    gap = float(w[d - 1] - (w[d] if d < len(w) else 0.0))
    warnings = []
    if d < len(w) and gap < DEGENERACY_GAP:
        warnings.append(f"degenerate subspace: eigenvalue gap {gap:.3e} at cut d={d}")
    return SubspaceBasis(_fix_signs(V[:, order[:d]]), np.maximum(w[:d], 0.0), warnings, gap)


def scatter_spectrum(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`eigh` of the scatter M M^T of the D x n samples ``M``, which PCA and
    qPCA both read; rejected when M M^T overflows float64 (NaN eigenpairs)."""
    with np.errstate(over="ignore", invalid="ignore"):
        S = M @ M.T
    if not np.all(np.isfinite(S)):
        raise ConfigurationError("the scatter X X^T overflows float64: rescale the samples")
    return np.linalg.eigh(S)


def pca_subspace(X, d: int) -> SubspaceBasis:
    """Top-d eigenvectors of X X^T (X must be centered), with the gap at the
    cut and a warning when it is below 1e-12."""
    M = _as_matrix(X)
    D, n = M.shape
    if not 1 <= d <= min(D, n):
        raise ConfigurationError(f"d={d} out of range for D={D}, n={n}")
    return _top_basis(*scatter_spectrum(M), d)


def alignment_matrix(Ps: SubspaceBasis, Pt: SubspaceBasis) -> np.ndarray:
    """The closed-form minimizer of ||Ps M - Pt||_F, namely Ps^T Pt."""
    if Ps.d != Pt.d:
        raise ShapeError(f"subspace dimensions differ: {Ps.d} vs {Pt.d}")
    if Ps.P.shape[0] != Pt.P.shape[0]:
        raise ShapeError(f"feature dimensions differ: {Ps.P.shape[0]} vs {Pt.P.shape[0]}")
    return Ps.P.T @ Pt.P


def build_alignment(
    Ps: SubspaceBasis, Pt: SubspaceBasis, Xs, Xt, *, projected: bool = False
) -> AlignmentArtifacts:
    """Assemble M*, P_a = Ps M*, the factors of A = P_a Pt^T and the
    projected datasets X_hat_t = Pt^T Xt and X_hat_a = M*^T (Ps^T Xs).

    ``Xs`` and ``Xt`` are each domain's samples (D x n), or with
    ``projected`` their d x n projections Ps^T Xs and Pt^T Xt, so a caller
    can drop a domain's samples as soon as it is projected. Either way the
    aligned source is formed from the source projection, in the order the
    quantum chain forms it."""
    Ms = alignment_matrix(Ps, Pt)
    Xs_m, Xt_m = _as_matrix(Xs), _as_matrix(Xt)
    rows = (Ps.d, Pt.d) if projected else (Ps.P.shape[0], Pt.P.shape[0])
    if (Xs_m.shape[0], Xt_m.shape[0]) != rows:
        raise ShapeError("data dimension does not match basis dimension")
    if not projected:
        Xs_m, Xt_m = Ps.P.T @ Xs_m, Pt.P.T @ Xt_m
    return AlignmentArtifacts(
        M_star=Ms,
        P_a=Ps.P @ Ms,
        P_t=Pt.P,
        X_hat_a=Ms.T @ Xs_m,
        X_hat_t=Xt_m,
    )


def _nn_inputs(train, train_labels, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 1-NN inputs as arrays, checked: training points and queries are
    matrices with one row count, and there is one label per training point."""
    train, queries = np.asarray(train, float), np.asarray(queries, float)
    labels = np.asarray(train_labels)
    if train.ndim != 2 or queries.ndim != 2 or train.shape[0] != queries.shape[0]:
        raise ShapeError("train and queries must be matrices with the same row count")
    if train.shape[1] == 0:
        raise ConfigurationError("empty training set")
    if len(labels) != train.shape[1]:
        raise ShapeError(f"{len(labels)} labels for {train.shape[1]} training points")
    return train, labels, queries


def nn_classify(train: np.ndarray, train_labels: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """1-nearest-neighbor labels (columns are points, ties to lowest index).

    Exhaustive search over blocks of step = clamp(max(NN_BLOCK_ELEMENTS //
    n_s, NN_MIN_ROWS), 1, n_t) queries. The training side is built once as
    the (d+1) x n_s array [-2 T; ||t||^2], and each block of queries is
    copied into one reused step x (d+1) buffer whose last column is 1, so
    one GEMM gives ||t||^2 - 2 t.q for the whole block, a query per row.
    ||q||^2 is left out: it is the same along a row and cannot move that
    row's argmin. A full block runs on the whole buffers, which is faster
    than a slice of them; only a short last block runs on their first rows.
    The argmin runs along the contiguous row and keeps the lowest index
    among tied sources (duplicate sources give bit-identical entries).
    Memory is O(n_s * step), never n_s x n_t.
    """
    train, labels, queries = _nn_inputs(train, train_labels, queries)
    (d, n_s), n_t = train.shape, queries.shape[1]
    aug_train = np.empty((d + 1, n_s))
    np.multiply(train, -2.0, out=aug_train[:d])
    np.einsum("ij,ij->j", train, train, out=aug_train[d])
    step = max(1, min(max(NN_BLOCK_ELEMENTS // n_s, NN_MIN_ROWS), n_t))
    block = np.ones((step, d + 1))
    d2 = np.empty((step, n_s))
    nearest = np.empty(n_t, dtype=np.intp)
    for j in range(0, n_t, step):
        m = min(step, n_t - j)
        q, out = (block, d2) if m == step else (block[:m], d2[:m])
        q[:, :d] = queries[:, j:j + m].T
        np.matmul(q, aug_train, out=out)
        out.argmin(axis=1, out=nearest[j:j + m])
    return labels[nearest]


def _factor_pair(A) -> tuple[np.ndarray, np.ndarray]:
    """Read A as factors (L, R) with A = L R^T: a pair is taken as it is, a
    D x D array as (A, I_D)."""
    if isinstance(A, tuple):
        L, R = (np.asarray(f, dtype=float) for f in A)
    else:
        L = np.asarray(A, dtype=float)
        R = np.eye(L.shape[0])
    if L.ndim != 2 or L.shape != R.shape:
        raise ShapeError("A must be a D x D array or a pair of D x r factors")
    return L, R


@dataclass
class SvmModel:
    """Least-squares SVM trained through the cross-domain similarity kernel.

    ``w`` = L^T (X_s alpha) folds the support set and the left factor of
    A = L R^T into one r-vector, so a point x is decided in the coordinates
    of the right factor: x^T A X_s alpha + b = w . (R^T x) + b. For a
    D x D ``A`` (R = I) that is the D-vector A^T X_s alpha and the raw
    point; for the alignment pair (P_a, P_t) it is a d-vector and the
    target projection P_t^T x."""

    b: float
    alpha: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.alpha)) or not math.isfinite(self.b):
            raise ConfigurationError("non-finite SVM parameters")


def ls_svm_system(
    Xs: Domain, A, gamma: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The least-squares SVM system F (b, alpha) = (0, y) of Suykens and
    Vandewalle, F = [[0, 1^T], [1, Xs^T A Xs + I/gamma]], in factored form.

    With c = 1/gamma, o = (0, 1, ..., 1) and A = L R^T (``_factor_pair``),
    F = c I + B C^T, where B and C are (n+1) x (r+3) and their column pairs
    are (e0, -c e0), which clears the corner, the border pairs (e0, o) and
    (o, e0), and the kernel pair ([0; Xs^T L], [0; Xs^T R]).

    This is the one place that validates the LS-SVM inputs (gamma > 0,
    visible labels in {-1, +1}) and builds F; returns (c, B, C, (0, y)).
    """
    if not gamma > 0:  # written so that NaN fails it too
        raise ConfigurationError("gamma must be > 0")
    y = Xs.visible_labels
    if y is None:
        raise ConfigurationError("source domain must carry visible labels")
    # elementwise, not np.unique, which imports numpy.ma on its first call
    if not np.all((y == 1) | (y == -1)):
        raise ConfigurationError("SVM labels must lie in {-1, +1}")
    L, R = _factor_pair(A)
    if L.shape[0] != Xs.dim:
        raise ShapeError("A does not match the data dimension")
    n, r = Xs.n, L.shape[1]
    c = 1.0 / gamma
    B, C = np.zeros((n + 1, r + 3)), np.zeros((n + 1, r + 3))
    B[0, 0], C[0, 0] = 1.0, -c  # (e0, -c e0)
    B[0, 1], C[1:, 1] = 1.0, 1.0  # (e0, o)
    B[1:, 2], C[0, 2] = 1.0, 1.0  # (o, e0)
    B[1:, 3:], C[1:, 3:] = Xs.samples.T @ L, Xs.samples.T @ R
    return c, B, C, np.concatenate(([0.0], y.astype(float)))


def _svm_factor(
    Xs: Domain, A, gamma: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """F of `ls_svm_system`, factored for a spectral solve: (c, Q, U, sigma,
    W^T, rhs).

    Q is an orthonormal basis of the columns of [B C], and the core
    F_Q = c I + (Q^T B)(C^T Q) = U diag(s) W^T is F on span(Q). F maps span(Q)
    onto itself and equals c I on its complement, so
    F = Q F_Q Q^T + c (I - Q Q^T): its singular values ``sigma`` are s, plus c
    when Q is not square. Both trainers invert F through `_svm_solve`, in
    O(n r^2) for A = L R^T with inner dimension r.
    """
    c, B, C, rhs = ls_svm_system(Xs, A, gamma)
    Q = np.linalg.qr(np.hstack([B, C]))[0]
    U, s, Wt = np.linalg.svd(c * np.eye(Q.shape[1]) + (Q.T @ B) @ (C.T @ Q))
    sigma = np.append(s, c) if Q.shape[1] < Q.shape[0] else s
    return c, Q, U, sigma, Wt, rhs


def _svm_solve(
    Q: np.ndarray, U: np.ndarray, Wt: np.ndarray, inv: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """F^-1 y from `_svm_factor`'s factors with ``inv`` in place of 1/sigma:
    Q W (inv * U^T Q^T y), plus inv_c (y - Q Q^T y) off span(Q) when Q is not
    square (when it is square, that part is rounding noise)."""
    z = Q.T @ y
    x = Q @ (Wt.T @ (inv[: U.shape[1]] * (U.T @ z)))
    if inv.size > U.shape[1]:
        x += (y - Q @ z) * inv[-1]
    return x


def _svm_condition(c: float, sigma: np.ndarray, gamma: float) -> float:
    """F's condition number max sigma / min sigma, gated at 1e12 for both trainers."""
    smin, smax = float(sigma.min()), float(sigma.max())
    cond = smax / smin if smin > 0 else math.inf
    if cond > 1e12:
        # the gamma = 1/c that moves c off the end of F's spectrum it is nearer
        toward = "smaller" if c * c <= smin * smax else "larger"
        raise IllConditionedError(
            f"SVM system is numerically singular at gamma={gamma:g} (condition number "
            f"{cond:.3g}); try a {toward} gamma"
        )
    return cond


def svm_train(Xs: Domain, A, gamma: float) -> SvmModel:
    """Solve the least-squares SVM system F (b, alpha) = (0, y) with 1/sigma
    (`_svm_factor`, `_svm_solve`), gating F's condition number at 1e12
    (`_svm_condition`); ``A`` is a D x D array or the pair (L, R).
    The model's ``w`` is the r-vector L^T (X_s alpha) (see `SvmModel`)."""
    c, Q, U, sigma, Wt, rhs = _svm_factor(Xs, A, gamma)
    _svm_condition(c, sigma, gamma)
    sol = _svm_solve(Q, U, Wt, 1.0 / sigma, rhs)
    alpha = sol[1:]
    L, _ = _factor_pair(A)
    return SvmModel(float(sol[0]), alpha, L.T @ (Xs.samples @ alpha))


def svm_decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Decision values w . x + b for every column x of X, a point (or an
    r x m batch) in the coordinates of A's right factor: R^T x for A = L R^T,
    so the target projection P_t^T x for the alignment pair and the raw
    point for a D x D ``A``."""
    X = np.asarray(X, float)
    if X.ndim not in (1, 2) or X.shape[0] != model.w.size:
        raise ShapeError(
            f"points must have {model.w.size} rows (R^T x for A = L R^T), got shape {X.shape}"
        )
    return model.w @ X + model.b


def svm_classify(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Predicted label of every column of X (columns are points, as in
    `nn_classify`, each given as R^T x, see `svm_decision_values`): the sign
    of its decision value, with sign(0) -> +1."""
    return np.where(svm_decision_values(model, X) >= 0, 1, -1)


# ---------------------------------------------------------------------------
# kernels


def _hard_kernel_states(X: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Statevectors of the hard-kernel feature circuit, one column (of 2^q
    entries) per column of X.

    The circuit uses q = ceil(log2 D) qubits: each feature drives an RY
    rotation on qubit (m mod q), followed by one ring of controlled-Z
    entanglers. Features are min-max rescaled to [0, pi] first.

    Rotations on one qubit add, so before the ring each sample is the product
    state of RY(theta_k)|0> with theta_k the sum of the angles on qubit k. The
    ring is a +-1 diagonal shared by every sample, so it cancels in every
    overlap and is left out.

    The angles are summed onto theta (q x n) one feature at a time, in
    feature order, and a constant feature (span 0) adds nothing; no D x n
    angle array is made. The statevectors are built in one preallocated
    2^q x n array, beside which only theta and two n-vectors are alive.
    """
    D, n = X.shape
    q = max(1, math.ceil(math.log2(D)))
    theta = np.zeros((q, n))
    for m in np.flatnonzero(span > 0):
        theta[m % q] += (X[m] - lo[m]) / span[m] * math.pi
    theta /= 2  # RY(theta)|0> = cos(theta / 2)|0> + sin(theta / 2)|1>
    states = np.empty((2**q, n))
    states[0] = 1.0
    c, s = np.empty(n), np.empty(n)
    for k in range(q):  # qubit 0 is the most significant bit
        np.cos(theta[k], out=c)
        np.sin(theta[k], out=s)
        # row i of the 2^k rows so far becomes rows 2i (qubit k in |0>) and
        # 2i + 1 (|1>), from the top down: rows [h, 2h) fill rows [2h, 4h)
        # for h = 2^(k-1), ..., 1, then row 0 fills rows 0 and 1, so no row
        # is overwritten before it is read
        h = 2**k // 2
        while h:
            np.multiply(states[h:2 * h], s, out=states[2 * h + 1:4 * h:2])
            np.multiply(states[h:2 * h], c, out=states[2 * h:4 * h:2])
            h //= 2
        np.multiply(states[0], s, out=states[1])
        states[0] *= c
    return states


def _feature_range(*mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature minimum and span over the columns of all ``mats``: the
    min-max rescaling the hard kernel's feature map is fitted with."""
    lo = np.min([M.min(axis=1) for M in mats], axis=0)
    return lo, np.max([M.max(axis=1) for M in mats], axis=0) - lo


def _feature_map(X: np.ndarray, spec: KernelSpec, feature_range) -> np.ndarray:
    """Feature columns phi(X) of a kernel in FEATURE_KINDS: X itself for the
    linear kernel, the hard-kernel statevectors under ``feature_range``."""
    return X if spec.kind == "linear" else _hard_kernel_states(X, *feature_range)


def kernel_matrix(X, Y, spec: KernelSpec, feature_range=None) -> np.ndarray:
    """Gram matrix between the columns of X and Y under the selected kernel.

    The linear and hard kernels are phi(X)^T phi(Y) through `_feature_map`,
    the map `kernel_sa_fit` fits with. The hard kernel rescales features with
    ``feature_range`` = (lo, span) as fitted by `kernel_sa_fit`; without one
    it fits the range on the columns of X and Y together."""
    Xm, Ym = _as_matrix(X), _as_matrix(Y)
    if Xm.shape[0] != Ym.shape[0]:
        raise ShapeError("kernel operands must share the feature dimension")
    if spec.kind == "hard" and feature_range is None:
        feature_range = _feature_range(Xm, Ym)
    if spec.kind in FEATURE_KINDS:
        return _feature_map(Xm, spec, feature_range).T @ _feature_map(Ym, spec, feature_range)
    if spec.kind == "polynomial":
        return (Xm.T @ Ym) ** spec.degree
    K = np.ones((Xm.shape[1], Ym.shape[1]))  # cosine
    for m in range(Xm.shape[0]):
        K *= np.cos(Xm[m][:, None] - Ym[m][None, :])
    return K


def _double_center(K: np.ndarray) -> np.ndarray:
    return K - K.mean(axis=0, keepdims=True) - K.mean(axis=1, keepdims=True) + K.mean()


def _rank_deficient(d: int) -> RankDeficiencyError:
    return RankDeficiencyError(
        f"component {d} has eigenvalue <= {RANK_FLOOR:g}; Gram matrix rank is deficient"
    )


def kernel_pca(K: np.ndarray, d: int) -> SubspaceBasis:
    """Top-d unit eigenvectors (n-dim) and eigenvalues of the double-centered
    Gram matrix, with the same sign convention and gap warning as
    `pca_subspace`."""
    K = np.asarray(K, float)
    n = K.shape[0]
    if K.shape != (n, n):
        raise ShapeError("Gram matrix must be square")
    scale = max(np.max(np.abs(K)), 1.0)
    # NaN would pass every comparison below
    if not math.isfinite(scale):
        raise ConfigurationError(f"Gram matrix has non-finite entries (max |K| = {scale})")
    if np.max(np.abs(K - K.T)) > 1e-8 * scale:
        raise ConfigurationError("Gram matrix is not symmetric")
    w, V = np.linalg.eigh(_double_center(K))
    if w[0] < -1e-8 * scale:
        raise ConfigurationError("Gram matrix is not positive semidefinite")
    if d > n or w[n - d] <= RANK_FLOOR:
        raise _rank_deficient(d)
    return _top_basis(w, V, d)


@dataclass
class KernelAlignment:
    """Fitted kernel-SA pipeline (see `kernel_sa_fit` for its two paths):
    M*, the projections and the bases. The hard kernel's feature range and
    the Gram path's weights W stay local to the fit.

    ``basis_s`` and ``basis_t`` are each domain's kernel-PCA basis: r-dim
    feature directions on the feature path, n-dim eigenvectors of the
    double-centered Gram matrix on the Gram path."""

    spec: KernelSpec
    M_star: np.ndarray
    Z_a: np.ndarray  # aligned source projections, d x n_s
    Z_t: np.ndarray  # target projections, d x n_t
    basis_s: SubspaceBasis
    basis_t: SubspaceBasis

    @property
    def path(self) -> str:
        return "features" if self.spec.kind in FEATURE_KINDS else "gram"

    @property
    def warnings(self) -> list[str]:
        return [
            f"{name}: {w}"
            for name, basis in (("source", self.basis_s), ("target", self.basis_t))
            for w in basis.warnings
        ]


def _feature_kpca(X: np.ndarray, spec: KernelSpec, feature_range, d: int):
    """Kernel PCA of one domain X through its feature columns F = phi(X)
    (r x n, `_feature_map`).

    Returns the `pca_subspace` basis V of the centered features F_c, signed
    so that the Gram-side eigenvectors F_c^T V / sqrt(lambda) follow
    `_fix_signs`, and the projection V^T F_c. F_c is dropped on return, and
    a hard-kernel F, which the fit alone holds, is centered in place."""
    F = _feature_map(X, spec, feature_range)
    mean = F.mean(axis=1)[:, None]
    if F is X:
        F = F - mean
    else:
        F -= mean
    if d > min(F.shape):
        raise _rank_deficient(d)
    basis = pca_subspace(F, d)
    if basis.eigenvalues[-1] <= RANK_FLOOR:
        raise _rank_deficient(d)
    Z = basis.P.T @ F
    signs = _lead_signs(Z.T)  # Z's rows are the Gram-side eigenvectors times sqrt(lambda)
    return replace(basis, P=basis.P * signs), Z * signs[:, None]


def kernel_sa_fit(Xs: Domain, Xt: Domain, spec: KernelSpec, d: int) -> KernelAlignment:
    """Run the kernel-SA pipeline on two centered domains (as `pca_subspace`
    takes them): fit one hard-kernel feature range on them, take each
    domain's kernel-PCA basis and align the two feature subspaces.

    A domain's state sum_i |i>|phi(x_i) - phi_bar> has the reduced states
    F_c^T F_c (index register: the double-centered Gram K_c) and F_c F_c^T
    (feature register), up to normalization. Its Schmidt decomposition gives
    both the same nonzero spectrum, and a unit eigenvector v of the feature
    side maps to u = F_c^T v / sqrt(lambda) on the index side.

    - Linear and hard kernels (FEATURE_KINDS) have an explicit r-dim feature
      map (r = D, or 2^q for hard with q = max(1, ceil(log2 D))), so kernel
      PCA is `pca_subspace` of F_c and the fit is plain SA on the features:
      M* = Vs^T Vt, Z_a = M*^T Vs^T F_sc and Z_t = Vt^T F_tc, in O(n r d)
      with no n x n matrix. V is signed so that u follows `kernel_pca`'s
      convention; both paths give one fit.
    - Polynomial (D^p features) and cosine (2^D) take the Gram path: three
      Gram matrices, `kernel_pca` of K_ss and K_tt, and the weights
      W = U / sqrt(lambda) that form M* = Ws^T K_st,c Wt. The projections
      come from the spectrum, W^T K_c = Lambda^1/2 U^T, so
      Z_a = M*^T Lambda_s^1/2 U_s^T and Z_t = Lambda_t^1/2 U_t^T.
    """
    # one feature map for every Gram matrix; only the hard kernel's has a range
    fitted = _feature_range(Xs.samples, Xt.samples) if spec.kind == "hard" else None
    if spec.kind in FEATURE_KINDS:
        # each domain's features are projected and dropped before the next
        # domain's are built, so the fit holds one feature matrix at a time
        Bs, Zs = _feature_kpca(Xs.samples, spec, fitted, d)
        Bt, Zt = _feature_kpca(Xt.samples, spec, fitted, d)
        art = build_alignment(Bs, Bt, Zs, Zt, projected=True)
        M, Z_a, Z_t = art.M_star, art.X_hat_a, art.X_hat_t
    else:
        # only kernel_pca reads K_ss and K_tt, so neither outlives its spectrum.
        # It rejects an overflowed Gram by name, so numpy need not warn first
        try:
            with np.errstate(over="ignore"):
                Bs = kernel_pca(kernel_matrix(Xs, Xs, spec, fitted), d)
                Bt = kernel_pca(kernel_matrix(Xt, Xt, spec, fitted), d)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{spec}: {exc}") from None
        Kst = kernel_matrix(Xs, Xt, spec, fitted)
        Ws, Wt = (B.P / np.sqrt(B.eigenvalues) for B in (Bs, Bt))
        # cross-Gram centered against both domain means
        M = Ws.T @ _double_center(Kst) @ Wt
        Z_a = M.T @ (np.sqrt(Bs.eigenvalues)[:, None] * Bs.P.T)
        Z_t = np.sqrt(Bt.eigenvalues)[:, None] * Bt.P.T
    return KernelAlignment(spec, M, Z_a, Z_t, Bs, Bt)
