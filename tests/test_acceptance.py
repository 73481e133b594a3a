"""Acceptance suite: nine end-to-end criteria with explicit tolerances and
runtime budgets. Each test prints one pass/fail line (written through the
capture so the line always shows up in the log)."""
import math
import time

import numpy as np
import scipy.linalg

import conftest
from gate_oracle import (
    density_exponentiation,
    phase_estimation,
    probabilities,
    swap_test,
    trace_distance,
)
from subalign import classical_sa as csa
from subalign import quantum_sa as qsa
from subalign.datasets import (
    Domain,
    DomainShift,
    SynthSpec,
    center_columns,
    synth_shifted_gaussians,
)
from subalign.quantum_core import (
    ShotPlan,
    _sort_tables,
    amplitude_estimation,
    grover_min_find,
)

EXACT = ShotPlan()


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{status}] criterion {num}: {name} ({elapsed:.2f}s / budget {budget:.0f}s)"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line
    assert elapsed < budget, line


def _random_orthonormal(rng, D, d):
    Q, _ = np.linalg.qr(rng.standard_normal((D, d)))
    return Q


def _basis(rng, D, d):
    return csa.SubspaceBasis(_random_orthonormal(rng, D, d), np.arange(d, 0, -1.0))


def test_criterion_1_argmin_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(50):
        Ps, Pt = _basis(rng, 8, 3), _basis(rng, 8, 3)
        M = csa.alignment_matrix(Ps, Pt)
        base = np.linalg.norm(Ps.P @ M - Pt.P)
        for _ in range(100):
            delta = rng.standard_normal((3, 3))
            delta /= np.linalg.norm(delta)
            if np.linalg.norm(Ps.P @ (M + 1e-3 * delta) - Pt.P) < base:
                ok = False
    _report(1, "alignment matrix is the Frobenius argmin", ok,
            time.perf_counter() - start, 5.0)


def test_criterion_2_A_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        Ps, Pt = _basis(rng, 6, 2), _basis(rng, 6, 2)
        Rs, Rt = _random_orthonormal(rng, 2, 2), _random_orthonormal(rng, 2, 2)
        A1 = Ps.P @ (Ps.P.T @ Pt.P) @ Pt.P.T
        A2 = (Ps.P @ Rs) @ ((Ps.P @ Rs).T @ (Pt.P @ Rt)) @ (Pt.P @ Rt).T
        worst = max(worst, float(np.linalg.norm(A1 - A2)))
    _report(2, f"A invariant under basis rotations (max err {worst:.2e})",
            worst <= 1e-10, time.perf_counter() - start, 5.0)


def test_criterion_3_da_effectiveness():
    start = time.perf_counter()
    base_accs, sa_accs = [], []
    dims = [2, 3, 4, 5, 6, 7, 8]
    for seed in range(20):
        D = dims[seed % len(dims)]
        spec = SynthSpec(
            D=D, n_s=40, n_t=40, seed=seed, class_separation=3.4, noise_sigma=1.0,
            domain_shift=DomainShift(rotation_angle=math.pi / 3),
        )
        source, target = synth_shifted_gaussians(spec)
        sc, _ = center_columns(source)
        tc, _ = center_columns(target)
        y = sc.visible_labels
        base = csa.nn_classify(sc.samples, y, tc.samples)
        base_accs.append(np.mean(base == tc.hidden_labels()))
        Ps, Pt = csa.pca_subspace(sc, 1), csa.pca_subspace(tc, 1)
        art = csa.build_alignment(Ps, Pt, sc, tc)
        sa = csa.nn_classify(art.X_hat_a, y, art.X_hat_t)
        sa_accs.append(np.mean(sa == tc.hidden_labels()))
    gap = float(np.mean(sa_accs) - np.mean(base_accs))
    _report(3, f"SA beats no-adaptation baseline by {gap * 100:.1f}pp",
            gap >= 0.10, time.perf_counter() - start, 30.0)


def test_criterion_4_qpca_parity():
    start = time.perf_counter()
    instances = []
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        X = rng.standard_normal((4, 12))
        X -= X.mean(axis=1, keepdims=True)
        instances.append((X, csa.pca_subspace(X, 2)))
    medians = []
    for n in (4, 6, 8, 10):
        errs = []
        for X, c in instances:
            q = qsa.qpca(csa.scatter_spectrum(X), 2, precision_qubits=n).basis
            errs.append(np.linalg.norm(q.P @ q.P.T - c.P @ c.P.T))
        medians.append(float(np.median(errs)))
    ok = medians[2] <= 0.05 and all(
        medians[i + 1] <= medians[i] + 1e-9 for i in range(3)
    )
    _report(4, f"qPCA projector parity (medians {['%.1e' % m for m in medians]})",
            ok, time.perf_counter() - start, 120.0)


def test_criterion_5_um_parity():
    start = time.perf_counter()
    rng = np.random.default_rng(500)
    worst_exact = worst_finite = 0.0
    for _ in range(20):
        D = int(rng.integers(3, 7))
        d = int(rng.integers(1, min(D, 4) + 1))
        P = _random_orthonormal(rng, D, d)
        Q = _random_orthonormal(rng, D, d)
        truth = P.T @ Q
        exact = qsa.matrix_product_state(P, Q, exact_theta=True).as_matrix()
        worst_exact = max(worst_exact, float(np.max(np.abs(exact - truth))))
        finite = qsa.matrix_product_state(P, Q, precision_qubits=8).as_matrix()
        worst_finite = max(worst_finite, float(np.max(np.abs(finite - truth))))
    ok = worst_exact <= 1e-6 and worst_finite <= 0.02
    _report(
        5,
        f"matrix-product parity (exact {worst_exact:.1e}, 8-bit {worst_finite:.1e})",
        ok, time.perf_counter() - start, 120.0,
    )


def test_criterion_6_quantum_nn_parity():
    start = time.perf_counter()
    agree = total = 0
    for seed in range(20):
        spec = SynthSpec(
            D=4, n_s=16, n_t=8, seed=seed,
            domain_shift=DomainShift(rotation_angle=0.9),
        )
        source, target = synth_shifted_gaussians(spec)
        sc, _ = center_columns(source)
        tc, _ = center_columns(target)
        Ps, Pt = csa.pca_subspace(sc, 2), csa.pca_subspace(tc, 2)
        art = csa.build_alignment(Ps, Pt, sc, tc)
        classical = csa.nn_classify(art.X_hat_a, sc.visible_labels, art.X_hat_t)
        quantum, _ = qsa.q_nn_classify(
            art.X_hat_a, sc.visible_labels, art.X_hat_t,
            ShotPlan(seed=seed), ae_bits=7, repeats=15,
        )
        agree += int(np.sum(quantum == classical))
        total += classical.size
    rate = agree / total
    _report(6, f"quantum NN label agreement {rate * 100:.1f}%",
            rate >= 0.95, time.perf_counter() - start, 300.0)


def test_criterion_7_qsvm_parity():
    start = time.perf_counter()
    rng = np.random.default_rng(700)
    ok = True
    detail = []
    for n_s in (2, 4, 8):
        X = rng.standard_normal((2, n_s))
        y = np.array([1, -1] * (n_s // 2))
        dom = Domain(X, y)
        A = np.eye(2)
        model = csa.svm_train(dom, A, 1.0)
        qmodel = qsa.q_svm_train(dom, A, 1.0)
        b, alpha = qmodel.model.b, qmodel.model.alpha
        u = np.concatenate(([b], alpha))
        v = np.concatenate(([model.b], model.alpha))
        cosine = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        detail.append(f"n={n_s} cos={cosine:.6f}")
        if cosine < 0.999:
            ok = False
        grid = [np.array([gx, gy]) for gx in (-1.0, 0.0, 1.0) for gy in (-1.0, 0.0, 1.0)]
        for i, xt in enumerate(grid):
            labels, info = qsa.q_svm_classify(qmodel, xt[:, None], EXACT)
            if labels[0] != csa.svm_classify(model, xt):
                ok = False
            exact_val = info["decision_value"][0]
            _, s_info = qsa.q_svm_classify(
                qmodel, xt[:, None],
                ShotPlan(shots=4096, seed=7000 + 100 * n_s + i, mode="sampled"),
            )
            sigma = math.sqrt(max(1.0 - exact_val**2, 1e-12) / 4096)
            if abs(s_info["decision_value"][0] - exact_val) > 3 * sigma + 1e-9:
                ok = False
    _report(7, "qSVM readout/label/shot parity (" + ", ".join(detail) + ")",
            ok, time.perf_counter() - start, 180.0)


def test_criterion_8_primitive_suites():
    start = time.perf_counter()
    ok = True
    # swap test vs direct overlap, 100 pairs
    rng = np.random.default_rng(800)
    for _ in range(100):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sa_, sb = a / np.linalg.norm(a), b / np.linalg.norm(b)
        direct = abs(np.vdot(sa_, sb)) ** 2
        if abs(swap_test(sa_, sb, EXACT) - direct) > 1e-12:
            ok = False
    # PE deterministic on lattice eigenphases
    for k, n in ((3, 4), (5, 5), (1, 3)):
        U = np.diag([np.exp(2j * math.pi * k / 2**n), 1.0])
        out = phase_estimation(U, [1.0, 0.0], n)
        if abs(probabilities(out)[k] - 1.0) > 1e-10:
            ok = False
    # AE error bound frequency over 200 seeded runs
    m = 8
    bound = math.pi / 2**m + math.pi**2 / 2 ** (2 * m)
    amp = 0.3
    hits = sum(
        abs(amplitude_estimation([amp], m, np.random.default_rng(i))[0] - amp) <= bound
        for i in range(200)
    )
    if hits / 200 < 0.81:
        ok = False
    # Durr-Hoyer single-run success on N=3, query budget on N=64
    tables = _sort_tables(np.array([[3.0, 1.0, 2.0]]))
    wins = sum(
        grover_min_find(tables, ShotPlan(seed=i).rng("min_find")).index[0] == 1 for i in range(400)
    )
    if wins / 400 < 0.5:
        ok = False
    budget64 = math.ceil(22.5 * math.sqrt(64) + 1.4 * math.log2(64) ** 2)
    for trial in range(50):
        vals = rng.standard_normal(64)
        stats = grover_min_find(_sort_tables(vals[None]), ShotPlan(seed=trial).rng("min_find"))
        if stats.oracle_queries > budget64:
            ok = False
    # density-exponentiation 1/l decay
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    R = B @ B.conj().T
    rho = R / np.trace(R).real
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    R = B @ B.conj().T
    sigma = R / np.trace(R).real
    U = scipy.linalg.expm(-1j * rho)
    exact = U @ sigma @ U.conj().T
    ls = [2, 4, 8, 16, 32, 64]
    errs = [trace_distance(density_exponentiation(rho, sigma, 1.0, l), exact) for l in ls]
    slope = float(np.polyfit(np.log(ls), np.log(errs), 1)[0])
    if not 0.8 <= -slope <= 1.2:
        ok = False
    _report(8, f"primitive suites (AE {hits}/200, Grover {wins}/400, slope {slope:.2f})",
            ok, time.perf_counter() - start, 300.0)


def test_criterion_9_kernel_reduction():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(900)
    # linear-kernel SA equals plain SA on synthetic instances with n <= 50
    for seed in range(10):
        n = int(rng.integers(12, 51))
        spec = SynthSpec(
            D=4, n_s=n, n_t=n, seed=seed,
            domain_shift=DomainShift(rotation_angle=1.0),
        )
        source, target = synth_shifted_gaussians(spec)
        sc, _ = center_columns(source)
        tc, _ = center_columns(target)
        Ps, Pt = csa.pca_subspace(sc, 2), csa.pca_subspace(tc, 2)
        art = csa.build_alignment(Ps, Pt, sc, tc)
        plain = csa.nn_classify(art.X_hat_a, sc.visible_labels, art.X_hat_t)
        fit = csa.kernel_sa_fit(sc, tc, csa.KernelSpec("linear"), 2)
        kern = csa.nn_classify(fit.Z_a, sc.visible_labels, fit.Z_t)
        if not np.array_equal(plain, kern):
            ok = False
    # cosine / polynomial Gram matrices vs direct loops
    X, Y = rng.standard_normal((3, 6)), rng.standard_normal((3, 5))
    Kc = csa.kernel_matrix(X, Y, csa.KernelSpec("cosine"))
    Kp = csa.kernel_matrix(X, Y, csa.KernelSpec("polynomial", 2))
    for i in range(6):
        for j in range(5):
            if abs(Kc[i, j] - np.prod(np.cos(X[:, i] - Y[:, j]))) > 1e-12:
                ok = False
            if abs(Kp[i, j] - (X[:, i] @ Y[:, j]) ** 2) > 1e-12:
                ok = False
    # hard kernel self-overlap
    Kh = csa.kernel_matrix(X, X, csa.KernelSpec("hard"))
    if np.max(np.abs(np.diag(Kh) - 1.0)) > 1e-10:
        ok = False
    _report(9, "kernel reduction and Gram oracles", ok,
            time.perf_counter() - start, 60.0)
