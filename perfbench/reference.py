"""Numpy-only reference for the classical track, and the output check.

The reference recomputes what `harness.run` reports for the classical track
on the same generated domains, without calling subalign's classical code:

- top-d bases from `numpy.linalg.eigh` of the centered scatter matrices;
- 1-NN by chunked exhaustive search, one label's source points at a time,
  with ties going to the lowest source index;
- LS-SVM by a dense solve of the bordered system [[0, 1^T], [1, K + I/gamma]].

NN distances and SVM decision values depend on the data only through the
projectors Ps Ps^T and Pt Pt^T, so eigenvector signs cannot break the match.
A report's accuracy may differ from the reference only by labels whose
reference decision value is within round-off of 0.
"""
from __future__ import annotations

import math

import numpy as np

# relative size of a decision value that round-off in either implementation
# could flip: far above float64 error accumulated over the O(n) sums and the
# well-conditioned bordered solve, far below any margin the data produces
ROUNDOFF = 1e-8
CHUNK_PAIRS = 4_000_000


def _centered(samples: np.ndarray) -> np.ndarray:
    return samples - samples.mean(axis=1, keepdims=True)


def _top_basis(Xc: np.ndarray, d: int) -> np.ndarray:
    w, V = np.linalg.eigh(Xc @ Xc.T)
    return V[:, np.argsort(w)[::-1][:d]]


def nn_reference(train: np.ndarray, labels: np.ndarray, queries: np.ndarray):
    """1-NN labels by exhaustive search, ties to the lowest source index, plus
    per query whether the nearest distances of two different labels lie
    within round-off of each other."""
    classes = np.unique(labels)
    members = [np.flatnonzero(labels == c) for c in classes]
    groups = [train[:, idx] for idx in members]
    sq = [np.sum(g**2, axis=0) for g in groups]
    n_t = queries.shape[1]
    dist = np.empty((classes.size, n_t))  # nearest squared distance per label
    index = np.empty((classes.size, n_t), dtype=int)  # and its source index
    step = max(1, CHUNK_PAIRS // train.shape[1])
    for lo in range(0, n_t, step):
        q = queries[:, lo:lo + step]
        for k, (g, g_sq, idx) in enumerate(zip(groups, sq, members)):
            d2 = g_sq[:, None] - 2.0 * (g.T @ q) + np.sum(q**2, axis=0)[None, :]
            nearest = np.argmin(d2, axis=0)
            dist[k, lo:lo + step] = d2[nearest, np.arange(q.shape[1])]
            index[k, lo:lo + step] = idx[nearest]
    best = dist.min(axis=0)
    winner = np.argmin(np.where(dist == best, index, train.shape[1]), axis=0)
    pred = classes[winner]
    if classes.size < 2:
        return pred, np.zeros(n_t, dtype=bool)
    margin = np.diff(np.sort(dist, axis=0)[:2], axis=0)[0]
    scale = max(s.max() for s in sq) + np.sum(queries**2, axis=0)
    return pred, margin <= ROUNDOFF * scale


def svm_reference(Xs: np.ndarray, ys: np.ndarray, Xt: np.ndarray,
                  Ps: np.ndarray, Pt: np.ndarray, gamma: float):
    """LS-SVM labels through the kernel x^T A x' with A = Ps Ps^T Pt Pt^T,
    plus, per query, whether its decision value is within round-off of 0."""
    n = Xs.shape[1]
    left = Xs.T @ Ps @ (Ps.T @ Pt)  # n_s x d
    K = left @ (Pt.T @ Xs)
    F = np.zeros((n + 1, n + 1))
    F[0, 1:] = 1.0
    F[1:, 0] = 1.0
    F[1:, 1:] = K + np.eye(n) / gamma
    sol = np.linalg.solve(F, np.concatenate(([0.0], ys.astype(float))))
    b, alpha = sol[0], sol[1:]
    Kst = left @ (Pt.T @ Xt)  # n_s x n_t
    value = alpha @ Kst + b
    scale = np.abs(alpha) @ np.abs(Kst) + abs(b)
    return np.where(value >= 0, 1, -1), np.abs(value) <= ROUNDOFF * scale


def classical_reference(source, target, d: int, gamma: float,
                        want_nn: bool, want_svm: bool) -> dict:
    """Reference (correct, ambiguous, n) counts for each classical classifier
    on one seed's domains, keyed by classifier name."""
    Xs, Xt = _centered(source.samples), _centered(target.samples)
    ys, truth = source.labels, target.hidden_labels()
    Ps, Pt = _top_basis(Xs, d), _top_basis(Xt, d)
    out = {}
    if want_nn:
        X_hat_a = Pt.T @ (Ps @ (Ps.T @ Xs))
        pred, amb = nn_reference(X_hat_a, ys, Pt.T @ Xt)
        out["nn"] = (int(np.sum(pred == truth)), int(amb.sum()), truth.size)
    if want_svm:
        pred, amb = svm_reference(Xs, ys, Xt, Ps, Pt, gamma)
        out["svm"] = (int(np.sum(pred == truth)), int(amb.sum()), truth.size)
    return out


def expected_rows(cfg) -> tuple[int, int]:
    """Accuracy and parity rows per seed that `cfg` should produce: one
    accuracy row per track and classifier, four parity rows per seed when the
    quantum track runs both classifiers."""
    classifiers = {"nn": 1, "svm": 1, "both": 2}[cfg.classifier]
    tracks = {"classical": 1, "quantum": 1, "both": 2}[cfg.track]
    quantum = cfg.track in ("quantum", "both")
    acc = tracks * classifiers + (1 if cfg.kernel is not None else 0)
    parity = (2 + classifiers) if quantum else 0
    return acc, parity


def check_report(report, cfg, reference: dict) -> list[str]:
    """Problems found in one `harness.run` report; empty when it passes.

    `reference` maps seed -> `classical_reference` output."""
    problems = []
    seeds = list(cfg.seeds)
    acc_rows, parity_rows = expected_rows(cfg)
    if len(report.accuracy) != acc_rows * len(seeds):
        problems.append(
            f"{len(report.accuracy)} accuracy rows, expected {acc_rows * len(seeds)}"
        )
    if len(report.parity) != parity_rows * len(seeds):
        problems.append(
            f"{len(report.parity)} parity rows, expected {parity_rows * len(seeds)}"
        )
    for row in report.accuracy:
        acc = row["accuracy"]
        if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
            problems.append(f"accuracy {acc!r} outside [0, 1] in {row}")
            continue
        if row["track"] != "classical":
            continue
        ref = reference.get(row["seed"], {}).get(row["classifier"])
        if ref is None:
            problems.append(f"no reference for {row}")
            continue
        correct, ambiguous, n = ref
        got = round(acc * n)
        if abs(got - correct) > ambiguous:
            problems.append(
                f"seed {row['seed']} classical {row['classifier']}: {got}/{n} correct, "
                f"reference {correct}/{n} with {ambiguous} round-off ties"
            )
    for row in report.parity:
        values = [row[k] for k in ("classical", "quantum", "abs_err", "rel_err", "tolerance")]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite parity row {row}")
        elif row["quantity"].endswith("_labels") and not 0.0 <= row["quantum"] <= 1.0:
            problems.append(f"label agreement outside [0, 1] in {row}")
    return problems
