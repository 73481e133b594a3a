import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gate_oracle import build_g_operator
from subalign import classical_sa as csa
from subalign import quantum_core
from subalign import quantum_sa as qsa
from subalign.datasets import Domain, DomainShift, SynthSpec, center_columns, synth_shifted_gaussians
from subalign.errors import ConfigurationError, PostselectionError, ShapeError
from subalign.quantum_core import (
    ShotPlan,
    _sort_tables,
    grover_min_find,
    pe_outcome_kernel,
    pe_readout,
)

EXACT = ShotPlan()


def _random_orthonormal(rng, D, d):
    Q, _ = np.linalg.qr(rng.standard_normal((D, d)))
    return Q


def _qpca(X, d, precision_qubits=8):
    """qPCA of the samples ``X`` on the spectrum of their classical pass."""
    return qsa.qpca(csa.scatter_spectrum(X), d, precision_qubits)


def _dense_qpca(X, d, precision_qubits):
    """Reference readout on rho = X X^T / tr with the eigenvalues w / sum(w)
    of the scatter's `eigh`: every eigenvector's full phase-estimation
    distribution over the 2^n outcomes, one (D, 2^n) table, read out at each
    row's argmax and ordered by the tilt taken from the table. Returns the
    basis, the outcomes and the table."""
    M = np.asarray(X, float)
    D = M.shape[0]
    w, U = np.linalg.eigh(M @ M.T)
    cov_trace = float(np.sum(w))
    lam = np.maximum(w / cov_trace, 0.0)
    t0 = 0.95 * math.pi
    N = 2**precision_qubits
    rows = pe_outcome_kernel(lam * t0 / (2 * math.pi), precision_qubits)
    k = np.argmax(rows, axis=1)
    idx = np.arange(len(k))
    tilt = (rows[idx, (k + 1) % N] - rows[idx, (k - 1) % N]) / rows[idx, k]
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
    basis = csa.SubspaceBasis(csa._fix_signs(U[:, order[:d]]), eigvals[:d], warnings, gap)
    return basis, k[order[:d]], rows[order[:d]]


class TestQpca:
    def test_rank_one(self):
        u = np.array([3.0, 4.0]) / 5.0
        X = np.outer(u, [1.0, -2.0, 0.5])
        res = _qpca(X, 1, precision_qubits=8)
        assert np.max(np.abs(np.abs(res.basis.P[:, 0]) - np.abs(u))) <= 1e-6
        # single unit eigenvalue of rho -> phase t0 / 2pi, read at its nearest outcome
        expect = round(0.95 * math.pi / (2 * math.pi) * 256)
        assert res.outcomes.tolist() == [expect]

    def test_overflowing_scatter_is_rejected(self):
        # the classical pass's scatter rejects it before qPCA can read it
        X = 1e200 * np.array([[1.0, -1.0, 2.0, -2.0], [0.5, -0.5, 0.0, 0.0]])
        with pytest.raises(ConfigurationError, match="overflow"):
            csa.scatter_spectrum(X)

    def test_degenerate_spectrum_warns_but_spans(self):
        X = np.hstack([np.eye(2), -np.eye(2)])  # isotropic: equal eigenvalues
        res = _qpca(X, 2, precision_qubits=8)
        assert res.basis.warnings
        P = res.basis.P
        assert np.max(np.abs(P @ P.T - np.eye(2))) <= 1e-10

    def test_projector_parity_random(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 12))
        X -= X.mean(axis=1, keepdims=True)
        q = _qpca(X, 2, precision_qubits=8).basis
        c = csa.pca_subspace(X, 2)
        err = np.linalg.norm(q.P @ q.P.T - c.P @ c.P.T)
        assert err <= 0.05

    def test_precision_median_monotone(self):
        # the parity property holds for the median over seeds, not per instance
        instances = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((4, 12))
            X -= X.mean(axis=1, keepdims=True)
            instances.append((X, csa.pca_subspace(X, 2)))
        medians = []
        for n in (4, 6, 8, 10):
            errs = [
                np.linalg.norm(
                    _qpca(X, 2, precision_qubits=n).basis.P
                    @ _qpca(X, 2, precision_qubits=n).basis.P.T
                    - c.P @ c.P.T
                )
                for X, c in instances
            ]
            medians.append(np.median(errs))
        assert all(medians[i + 1] <= medians[i] + 1e-9 for i in range(3))

    @staticmethod
    def _caps_domain(seed, which):
        """A centered domain of the quantum-caps shape (D=16, n_s=15, n_t=200)."""
        pair = synth_shifted_gaussians(SynthSpec(D=16, n_s=15, n_t=200, seed=seed))
        return center_columns(pair[which])[0].samples

    @staticmethod
    def _projector_distance(X, res):
        c = csa.pca_subspace(X, res.basis.d)
        return np.linalg.norm(res.basis.P @ res.basis.P.T - c.P @ c.P.T, 2)

    def test_each_eigenvector_reads_out_at_its_own_outcome(self):
        # target eigenphases 30.67, 9.29, 8.63, 8.02, 7.56 lattice steps: a
        # scan of the summed distribution took side lobes (outcomes 6, 6, 4)
        X = self._caps_domain(0, 1)
        res = _qpca(X, 4, precision_qubits=8)
        assert res.outcomes.tolist() == [31, 9, 9, 8]
        assert self._projector_distance(X, res) < 1e-10

    def test_outcomes_are_descending_register_readouts(self):
        X = self._caps_domain(1, 0)
        res = _qpca(X, 3, precision_qubits=7)
        assert res.outcomes.dtype.kind in "iu"
        k = res.outcomes.tolist()
        assert k == sorted(k, reverse=True) and 0 <= k[-1] and k[0] < 2**7
        # each readout is its vector's most probable outcome, which phase
        # estimation shows with probability at least 4 / pi^2
        assert np.all(res.readout_probabilities >= 4 / np.pi**2)
        assert np.all(res.readout_probabilities <= 1)

    def test_shared_outcome_ordered_by_own_distribution(self):
        # three eigenvectors at 8.199, 7.916 and 7.742 lattice steps share
        # outcome 8; the top two of them belong to the basis, so the cut
        # falls inside that cell and says so
        X = self._caps_domain(9, 1)
        res = _qpca(X, 4, precision_qubits=8)
        assert res.outcomes.tolist() == [32, 9, 8, 8]
        assert len(res.basis.warnings) == 1
        assert res.basis.warnings[0].startswith("the cut at d=4 falls inside one lattice cell")
        _, U = np.linalg.eigh(X @ X.T)
        kept = np.linalg.norm(res.basis.P.T @ U[:, ::-1][:, 2:5], axis=0)
        assert np.allclose(kept, [1.0, 1.0, 0.0], atol=1e-10)
        assert self._projector_distance(X, res) < 1e-10

    @pytest.mark.parametrize("which", [0, 1])
    def test_cut_inside_one_cell_warns(self, which):
        """At the classical-svm shape (D=256, n_s=2000, n_t=300, d=8) and 8
        precision qubits eigenvectors 8 and 9 of either domain read out at
        one outcome; the basis kept the 8th by a statistic no readout gives,
        without a word."""
        pair = synth_shifted_gaussians(SynthSpec(D=256, n_s=2000, n_t=300, seed=0))
        X = center_columns(pair[which])[0].samples
        res = _qpca(X, 8, precision_qubits=8)
        assert any(w.startswith("the cut at d=8 falls inside one lattice cell")
                   for w in res.basis.warnings)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cut_between_cells_is_silent(self, seed):
        # quantum-caps shape at 10 precision qubits: the readouts at the cut
        # differ on every domain of seeds 0-3
        for which in (0, 1):
            res = _qpca(self._caps_domain(seed, which), 4, precision_qubits=10)
            assert res.basis.warnings == []

    def test_rank_deficient_source_reads_out_cleanly(self):
        # n_s = 15 < D = 16: centered, rho has two zero eigenvalues, whose
        # phases sit on the lattice with P(k +- 1) = 0
        X = self._caps_domain(0, 0)
        with np.errstate(divide="raise", invalid="raise"):
            res = _qpca(X, 4, precision_qubits=8)
        assert res.basis.warnings == []
        # readouts 46, 21, 15, 10; the fifth eigenvector reads out at 8
        assert res.basis.gap == pytest.approx(2 / 256 * 2 / 0.95 * np.sum(X * X), rel=1e-12)
        assert self._projector_distance(X, res) < 1e-10

    def test_runs_above_the_old_dimension_cap(self):
        # D = 64: two strong directions at about 70 and 39 lattice steps, the
        # other 62 eigenvalues below one step
        rng = np.random.default_rng(21)
        scales = np.concatenate(([4.0, 3.0], np.full(62, 0.3)))
        X = scales[:, None] * rng.standard_normal((64, 100))
        res = _qpca(X, 2, precision_qubits=8)
        assert res.basis.warnings == []
        assert self._projector_distance(X, res) < 1e-10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(1, 16), st.integers(1, 24), st.integers(1, 12),
        st.sampled_from(["normal", "integer", "rank_deficient"]), st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_outcome_table(self, D, n, precision, kind, seed):
        """The three-point readout against the full (D, 2^n) table: integer
        inputs give degenerate spectra, n < D zero eigenvalues on the
        lattice. Everything but the readout probabilities is bitwise."""
        rng = np.random.default_rng(seed)
        if kind == "rank_deficient":
            n = max(1, min(n, D - 1))
        if kind == "integer":
            X = rng.integers(-2, 3, (D, n)).astype(float)
        else:
            X = rng.standard_normal((D, n))
        assume(np.any(X))
        d = int(rng.integers(1, min(D, n) + 1))
        basis, outcomes, rows = _dense_qpca(X, d, precision)
        res = _qpca(X, d, precision)
        assert np.array_equal(res.outcomes, outcomes) and res.outcomes.dtype == outcomes.dtype
        assert np.array_equal(res.basis.P, basis.P)
        assert np.array_equal(res.basis.eigenvalues, basis.eigenvalues)
        assert res.basis.gap == basis.gap
        assert res.basis.warnings == basis.warnings
        expect = rows[np.arange(d), outcomes]
        assert np.max(np.abs(res.readout_probabilities - expect)) <= 1e-12

    def test_memory_does_not_grow_with_precision(self):
        """qPCA holds no array with a 2^n axis: its peak at 12 precision
        qubits is within 64 KiB of its peak at 4."""
        spectrum = csa.scatter_spectrum(np.random.default_rng(22).standard_normal((64, 500)))
        qsa.qpca(spectrum, 4, precision_qubits=4)  # first-call allocations out of the trace
        peaks = []
        for precision in (4, 12):
            tracemalloc.start()
            try:
                qsa.qpca(spectrum, 4, precision_qubits=precision)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024

    def test_makes_no_copy_of_its_input(self):
        """qPCA reads the spectrum of the D x D scatter that the classical
        pass forms for its eigensolver, so at D=128, n=5000 (4.9 MiB of
        samples) the helper and qPCA allocate less than half the input; a
        D x n temporary (M * M) would allocate all of it."""
        X = np.random.default_rng(23).standard_normal((128, 5000))
        _qpca(X, 4)  # first-call allocations out of the trace
        tracemalloc.start()
        try:
            _qpca(X, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2

    def test_all_zero_input_rejected(self):
        # rho = X X^T / tr(X X^T) does not exist for X = 0
        with pytest.raises(ConfigurationError, match="nonzero"):
            _qpca(np.zeros((4, 5)), 1)


class TestThetaPipeline:
    def test_theta_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = rng.uniform(-1, 1)
            t = qsa.overlap_angle(c)
            assert math.sin(t) ** 2 + math.cos(t) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert math.sin(t) ** 2 == pytest.approx((1 + c) / 2, abs=1e-12)

    def test_g_operator_eigenphases(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.standard_normal(4)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            theta = qsa.overlap_angle(float(u @ v))
            G = build_g_operator(u, v)
            eigs = np.linalg.eigvals(G)
            want = {np.exp(2j * theta), np.exp(-2j * theta)}
            found = sum(
                1 for w in want if np.min(np.abs(eigs - w)) <= 1e-10
            )
            assert found == 2


class TestMatrixProductState:
    def test_identity_pattern(self):
        rng = np.random.default_rng(4)
        P = _random_orthonormal(rng, 4, 2)
        ips = qsa.matrix_product_state(P, P, exact_theta=True)
        M = ips.as_matrix()
        assert np.max(np.abs(M - np.eye(2))) <= 1e-6
        # off-diagonal amplitude mass vanishes in exact mode
        off = M - np.diag(np.diag(M))
        assert np.sum(off**2) <= 1e-6

    def test_single_cosine(self):
        u = np.array([[math.cos(math.pi / 3)], [math.sin(math.pi / 3)]])
        v = np.array([[1.0], [0.0]])
        n = 8
        ips = qsa.matrix_product_state(u, v, precision_qubits=n)
        assert abs(ips.as_matrix()[0, 0] - 0.5) <= 2.0 ** (1 - n) * 2

    def test_entrywise_parity_both_modes(self):
        rng = np.random.default_rng(5)
        P = _random_orthonormal(rng, 4, 2)
        Q = _random_orthonormal(rng, 4, 2)
        exact = qsa.matrix_product_state(P, Q, exact_theta=True).as_matrix()
        assert np.max(np.abs(exact - P.T @ Q)) <= 1e-6
        finite = qsa.matrix_product_state(P, Q, precision_qubits=8).as_matrix()
        assert np.max(np.abs(finite - P.T @ Q)) <= 0.02

    def test_postselection_bookkeeping(self):
        rng = np.random.default_rng(6)
        P = _random_orthonormal(rng, 4, 2)
        Q = _random_orthonormal(rng, 4, 2)
        ips = qsa.matrix_product_state(P, Q, exact_theta=True)
        # global scale ledger: |M|_F = |P|_F |Q|_F sqrt(success)
        implied = np.linalg.norm(P) * np.linalg.norm(Q) * math.sqrt(ips.success_probability)
        assert implied == pytest.approx(np.linalg.norm(P.T @ Q), abs=1e-10)
        assert 0.0 < ips.success_probability <= 1.0

    @pytest.mark.parametrize("exact_theta", [True, False])
    def test_array_readout_matches_pair_loop(self, exact_theta):
        """The per-pair loop the pipeline used to run is the reference; a
        zero column on either side contributes 0."""

        def pair_loop(P, Q, n):
            out = np.zeros((P.shape[1], Q.shape[1]))
            for i in range(P.shape[1]):
                nu = np.linalg.norm(P[:, i])
                for j in range(Q.shape[1]):
                    nv = np.linalg.norm(Q[:, j])
                    if nu == 0 or nv == 0:
                        continue
                    cos_ij = float(P[:, i] @ Q[:, j] / (nu * nv))
                    if exact_theta:
                        rec = cos_ij
                    else:
                        theta = math.asin(math.sqrt((1.0 + min(max(cos_ij, -1.0), 1.0)) / 2.0))
                        theta = round(theta * 2**n / math.pi) * math.pi / 2**n
                        rec = 2.0 * math.sin(theta) ** 2 - 1.0
                    out[i, j] = nu * nv * rec
            return out

        rng = np.random.default_rng(11)
        for n in (3, 8):
            P, Q = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
            P[:, 1] = 0.0
            Q[:, 2] = 0.0
            got = qsa.matrix_product_state(P, Q, n, exact_theta).as_matrix()
            want = pair_loop(P, Q, n)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.all(got[1, :] == 0.0) and np.all(got[:, 2] == 0.0)

    @pytest.mark.parametrize("exact_theta", [True, False])
    def test_makes_no_copy_of_the_samples(self, exact_theta):
        """The projection state of a domain, P^T Q with Q its D x n samples
        (D=128, n=5000: 4.9 MiB), takes the column norms of Q without a
        full-size square, so it allocates less than half of Q; its r x n
        arrays are 1/32 of Q each at r=4."""
        rng = np.random.default_rng(24)
        P, Q = _random_orthonormal(rng, 128, 4), rng.standard_normal((128, 5000))
        qsa.matrix_product_state(P, Q, exact_theta=exact_theta)
        tracemalloc.start()
        try:
            qsa.matrix_product_state(P, Q, exact_theta=exact_theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Q.nbytes / 2

    def test_degenerate_overlap_error(self):
        P = np.array([[1.0], [0.0]])
        Q = np.array([[0.0], [1.0]])  # orthogonal: zero postselection mass
        with pytest.raises(PostselectionError):
            qsa.matrix_product_state(P, Q, exact_theta=True)


class TestQProject:
    def test_identity_projection(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 3))
        recon = qsa.matrix_product_state(np.eye(4), X, exact_theta=True).as_matrix()
        assert recon.shape == (4, 3)
        assert np.max(np.abs(recon - X)) <= 1e-6

    def test_single_sample_direction(self):
        rng = np.random.default_rng(8)
        P = _random_orthonormal(rng, 4, 2)
        x = rng.standard_normal((4, 1))
        y = np.hstack([x, np.zeros((4, 1))])  # pad to n >= 2 columns
        recon = qsa.matrix_product_state(P, y, exact_theta=True).as_matrix()[:, :1]
        assert np.max(np.abs(recon - P.T @ x)) <= 1e-6

    def test_full_chain_cosine(self):
        spec = SynthSpec(D=4, n_s=8, n_t=8, seed=3,
                         domain_shift=DomainShift(rotation_angle=0.7))
        source, target = synth_shifted_gaussians(spec)
        sc, _ = center_columns(source)
        tc, _ = center_columns(target)
        Ps, Pt = csa.pca_subspace(sc, 2), csa.pca_subspace(tc, 2)
        art = csa.build_alignment(Ps, Pt, sc, tc)
        M = qsa.matrix_product_state(Ps.P, Pt.P, exact_theta=True).as_matrix()
        X_hat_s = qsa.matrix_product_state(Ps.P, sc.samples, exact_theta=True).as_matrix()
        a = qsa.matrix_product_state(M, X_hat_s, exact_theta=True).as_matrix().ravel()
        b = art.X_hat_a.ravel()
        cosine = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine >= 0.999


class TestQuantumNn:
    def test_recovers_exact_match(self):
        X_hat_a = np.array([[0.0, 4.0, -4.0], [0.0, 4.0, 4.0]])
        labels = np.array([5, 6, 7])
        X_hat_t = X_hat_a[:, [1]]
        for seed in range(5):
            pred, _ = qsa.q_nn_classify(
                X_hat_a, labels, X_hat_t, ShotPlan(seed=seed)
            )
            assert pred[0] == 6

    def test_equidistant_warns(self):
        X_hat_a = np.array([[-1.0, 1.0]])
        labels = np.array([0, 1])
        X_hat_t = np.array([[0.0]])
        pred, records = qsa.q_nn_classify(X_hat_a, labels, X_hat_t, EXACT)
        assert records[0]["warning"]
        assert pred[0] in (0, 1)

    def test_three_way_tie_warns(self):
        # three sources at one distance; the first two share a label
        X_hat_a = np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        labels = np.array([0, 0, 1])
        pred, records = qsa.q_nn_classify(X_hat_a, labels, np.zeros((2, 1)), EXACT)
        assert records[0]["warning"]

    @pytest.mark.parametrize("X_hat_a, labels", [
        ([[-1.0, 1.0]], [1, 1]),
        ([[-1.0, 1.0, 0.0, 3.0], [0.0, 0.0, 1.0, 0.0]], [2, 2, 2, 0]),
        ([[1.0]], [1]),
    ], ids=["same-label-pair", "same-label-three-way", "one-source"])
    def test_same_label_tie_does_not_warn(self, X_hat_a, labels):
        """Sources that share the estimated minimum and one label, or a lone
        source, leave the target unflagged; a source of another label farther
        away does not count."""
        pred, records = qsa.q_nn_classify(
            np.array(X_hat_a), np.array(labels), np.zeros((len(X_hat_a), 1)), EXACT
        )
        assert not records[0]["warning"]
        assert pred[0] == labels[0]

    def test_sampled_pairs_draw_independently(self):
        # identical sources must not share one noise draw, and the draws
        # are fixed by the plan's seed
        X_hat_a = np.tile([[1.0], [0.5]], (1, 40))
        X_hat_t = np.array([[0.3], [0.4]])
        plan = ShotPlan(shots=64, seed=3, mode="sampled")
        source = qsa._unit_columns(X_hat_a)
        est = qsa._ae_distances(source, X_hat_t, plan, 7)
        assert np.unique(est[0]).size > 1
        assert np.array_equal(est, qsa._ae_distances(source, X_hat_t, plan, 7))

    @pytest.mark.parametrize("labels, targets, message", [
        (np.arange(9), np.ones((3, 2)), "9 labels for 6 training points"),
        (np.arange(2), np.ones((3, 2)), "2 labels for 6 training points"),
        (np.arange(6), np.ones((2, 2)), "same row count"),
        (np.arange(6), np.ones(3), "same row count"),
    ], ids=["9-labels", "2-labels", "2-row-queries", "vector-query"])
    def test_inputs_checked_as_in_classical_nn(self, labels, targets, message):
        """Label counts and query rows are checked as `nn_classify` checks
        them, with its messages, before any overlap is estimated."""
        sources = np.random.default_rng(25).standard_normal((3, 6))
        for classify in (csa.nn_classify, lambda *a: qsa.q_nn_classify(*a, EXACT)):
            with pytest.raises(ShapeError, match=message):
                classify(sources, labels, targets)

    def test_runs_above_the_old_source_cap(self):
        """n_s = 65 classifies: there is no register cap below the search's
        own MAX_GROVER_N. In exact mode a label differs from the classical
        NN only where the AE lattice tied sources of different labels."""
        rng = np.random.default_rng(26)
        X_hat_a = rng.standard_normal((3, 65))
        labels = rng.integers(0, 2, 65)
        X_hat_t = rng.standard_normal((3, 40))
        pred, records = qsa.q_nn_classify(X_hat_a, labels, X_hat_t, EXACT)
        assert len(records) == 40 and np.all(records["nearest"] < 65)
        classical = csa.nn_classify(X_hat_a, labels, X_hat_t)
        assert np.all((pred == classical) | records["warning"])

    @pytest.mark.parametrize("step, n_t, sizes", [
        (7, 22, [7, 7, 8]), (7, 26, [7, 7, 7, 5]), (35, 71, [35, 36]),
    ], ids=["7-22", "7-26", "35-71"])
    @pytest.mark.parametrize("plan", [EXACT, ShotPlan(shots=64, seed=5, mode="sampled")])
    def test_blocks_change_no_bit(self, monkeypatch, plan, step, n_t, sizes):
        """`q_nn_classify` searches blocks of ``step`` targets, and a last
        block of one target joins the one before it (22 = 7 + 7 + 8). Each
        block's estimates, as its sort tables are made from them, are bit for
        bit the rows that one `_ae_distances` call over every target gives,
        and each block's tables go to one search. A 1-row block is where a
        per-block GEMM would take another BLAS kernel."""
        rng = np.random.default_rng(31)
        X_hat_a = rng.standard_normal((8, 15))
        X_hat_a[:, 3] = 0.0
        X_hat_t = rng.standard_normal((8, n_t))
        whole = qsa._ae_distances(qsa._unit_columns(X_hat_a), X_hat_t, plan, 7)
        # B = max(NN_BLOCK_ELEMENTS // n_s, ceil(SEARCH_SLOTS / repeats)) = step
        monkeypatch.setattr(qsa, "NN_BLOCK_ELEMENTS", step * 15)
        monkeypatch.setattr(qsa, "SEARCH_SLOTS", step * 15)
        blocks, searched = [], []

        def sort(values):
            blocks.append(values.copy())
            return quantum_core._sort_tables(values)

        def search(ranks, rng, repeats):
            searched.append(len(ranks[0]))
            return grover_min_find(ranks, rng, repeats)

        monkeypatch.setattr(qsa, "_sort_tables", sort)
        monkeypatch.setattr(qsa, "grover_min_find", search)
        qsa.q_nn_classify(X_hat_a, np.arange(15), X_hat_t, plan, repeats=15)
        assert [len(block) for block in blocks] == searched == sizes
        assert np.array_equal(np.vstack(blocks), whole)

    @pytest.mark.parametrize("plan", [EXACT, ShotPlan(shots=64, seed=6, mode="sampled")])
    def test_no_estimates_alive_during_a_search(self, monkeypatch, plan):
        """A block's search reads only its sort tables: by the time it
        starts, the block's `_ae_distances` estimates (and every earlier
        block's) have been freed (here 35 + 36 targets)."""
        made, freed = [], []
        estimate = qsa._ae_distances

        def estimates(*args):
            est = estimate(*args)
            made.append(weakref.ref(est))
            return est

        def search(ranks, rng, repeats):
            freed.append([ref() is None for ref in made])
            return grover_min_find(ranks, rng, repeats)

        monkeypatch.setattr(qsa, "NN_BLOCK_ELEMENTS", 35 * 15)
        monkeypatch.setattr(qsa, "_ae_distances", estimates)
        monkeypatch.setattr(qsa, "grover_min_find", search)
        rng = np.random.default_rng(33)
        X_hat_a, X_hat_t = rng.standard_normal((4, 15)), rng.standard_normal((4, 71))
        qsa.q_nn_classify(X_hat_a, np.arange(15), X_hat_t, plan, repeats=15)
        assert freed == [[True], [True, True]]

    def test_peak_memory_follows_block_layout(self):
        """At n_s = 64, n_t = 4096, d = 8 (exact plan) the targets go in 8
        blocks of B = NN_BLOCK_ELEMENTS // n_s = 512, and the peak stays
        within what one block's layout holds, summed as if every stage's
        data were alive at once: the block's (B, n_s) estimates (8 bytes per
        pair), int16 sort tables (4) and tie mask (1); five 8-byte arrays of
        the block (the scratch buffer and the AE readout's range masks,
        clip, indices and result); the unit copies and norms of the sources
        and of the block's targets, 8 (d + 1) bytes per point; eight int64
        search results per block target; the 128 KiB that `grover_min_find`
        allows its pool; and per target, the returned records and the block
        columns they are built from, 17 bytes each, twice. Holding every
        target's estimates and sort tables, 12 n_s n_t bytes, exceeds it."""
        rng = np.random.default_rng(27)
        d, n_s, n_t = 8, 64, 4096
        X_hat_a = rng.standard_normal((d, n_s))
        labels = rng.integers(0, 2, n_s)
        X_hat_t = rng.standard_normal((d, n_t))
        tracemalloc.start()
        try:
            _, records = qsa.q_nn_classify(X_hat_a, labels, X_hat_t, EXACT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        B = csa.NN_BLOCK_ELEMENTS // n_s
        bound = (
            13 * n_s * B
            + 5 * 8 * n_s * B
            + 8 * (d + 1) * (n_s + B)
            + 8 * 8 * B
            + 128 * 1024
            + 2 * 2 * records.nbytes
        )
        assert peak <= bound < 12 * n_s * n_t

    def test_peak_memory_at_the_caps_shape(self):
        """At n_s = 15, n_t = 200, d = 4 (exact plan; one block, B = n_t) the
        peak over entry stays within the call's layout, summed as if every
        stage's data were alive at once: the (B, n_s) estimates (8 bytes per
        pair) and their int16 sort tables (4); per readout piece of at most
        SEARCH_SLOTS entries, the scratch buffer and the AE readout's clip,
        indices and result (4 x 8 bytes per entry) and range masks (3 x 1);
        per SEARCH_SLOTS entries of a sort-table chunk, its
        order, ranked values, first-of-group flags, positions and running
        maxima (4 x 8 + 1); three 4 x 8-byte pools of SEARCH_SLOTS searches
        (the pool, the searches entering it or folding out, and the pool
        they are concatenated into); the unit copies and norms of both
        domains, 8 (d + 1) bytes per point; the search's run-length bounds
        and its n_s + 1 Grover angles; and per target, the returned records
        and the block columns they are built from, 17 bytes each, twice. The
        tie flags are read off the sort tables after the estimates are freed,
        so they need no term of their own (a broadcast compare of the
        estimates against their row minima allocated 28 KiB here)."""
        rng = np.random.default_rng(34)
        d, n_s, n_t = 4, 15, 200
        X_hat_a = rng.standard_normal((d, n_s))
        labels = rng.integers(0, 2, n_s)
        X_hat_t = rng.standard_normal((d, n_t))
        qsa.q_nn_classify(X_hat_a, labels, X_hat_t, EXACT)  # first-run allocations
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _, records = qsa.q_nn_classify(X_hat_a, labels, X_hat_t, EXACT)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        # the run-length bounds: one int64 per step of g -> min(1.2 g, sqrt(n_s)) from 1
        span = 8 * (math.ceil(math.log(math.sqrt(n_s), 1.2)) + 1)
        piece = qsa.SEARCH_SLOTS // n_s * n_s
        bound = (
            (8 + 4) * n_s * n_t
            + (4 * 8 + 3) * piece
            + (4 * 8 + 1) * qsa.SEARCH_SLOTS
            + 3 * 4 * 8 * qsa.SEARCH_SLOTS
            + 8 * (d + 1) * (n_s + n_t)
            + span + 8 * (n_s + 1)
            + 2 * 2 * records.nbytes
        )
        assert peak <= bound

    def test_estimates_die_with_the_call(self):
        """Same layout: while the caller holds the labels and the records,
        the call leaves nothing else allocated beyond 64 KiB. No view of the
        2 MiB (n_t, n_s) estimates outlives it; per-target dicts, each with
        a row of the estimates, left 3.41 MiB."""
        rng = np.random.default_rng(27)
        d, n_s, n_t = 8, 64, 4096
        X_hat_a = rng.standard_normal((d, n_s))
        labels = rng.integers(0, 2, n_s)
        X_hat_t = rng.standard_normal((d, n_t))
        tracemalloc.start()
        try:
            pred, records = qsa.q_nn_classify(X_hat_a, labels, X_hat_t, EXACT)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= records.nbytes + pred.nbytes + 64 * 1024

    @pytest.mark.parametrize("plan", [EXACT, ShotPlan(shots=64, seed=2, mode="sampled")])
    def test_records_follow_the_search(self, plan):
        """One record per target: the index and queries of the Durr-Hoyer
        search over the AE estimates, and a warning exactly where the
        estimated minimum is shared by sources of different labels."""
        rng = np.random.default_rng(8)
        # points on a small integer grid, so many distances tie
        X_hat_a = rng.integers(-2, 3, (2, 12)).astype(float)
        labels = rng.integers(0, 3, 12)
        X_hat_t = rng.integers(-2, 3, (2, 40)).astype(float)
        pred, records = qsa.q_nn_classify(X_hat_a, labels, X_hat_t, plan)
        est = qsa._ae_distances(qsa._unit_columns(X_hat_a), X_hat_t, plan, 7)
        stats = grover_min_find(_sort_tables(est), plan.rng("min_find"), repeats=15)
        assert records.dtype.names == ("nearest", "oracle_queries", "warning")
        assert np.array_equal(records["nearest"], stats.index)
        assert np.array_equal(records["oracle_queries"], stats.target_queries)
        assert np.array_equal(pred, labels[stats.index])
        tied = [np.unique(labels[row == row.min()]).size > 1 for row in est]
        assert records["warning"].tolist() == tied
        assert 0 < sum(tied) < len(tied)

    def test_agreement_with_classical(self):
        agree = total = 0
        for seed in range(5):
            spec = SynthSpec(D=4, n_s=16, n_t=8, seed=seed,
                             domain_shift=DomainShift(rotation_angle=0.9))
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
        assert agree / total >= 0.95


def _dense_q_svm_train(Xs, A, gamma, precision_qubits):
    """Reference inversion: HHL on the dense Hermitian embedding
    [[0, F], [F^T, 0]] / tr F of the (n+1) x (n+1) LS-SVM matrix F, one
    `eigh` of the 2(n+1)-row matrix, every eigenvalue read out on
    ``precision_qubits`` qubits and inverted. Returns (b, alpha), the
    postselection probability and N_x."""
    n = Xs.n
    rows = n + 1
    c, B, C, rhs = csa.ls_svm_system(Xs, A, gamma)
    F = c * np.eye(rows) + B @ C.T
    trF = float(np.trace(F))
    H = np.zeros((2 * rows, 2 * rows))
    H[:rows, rows:] = F / trF
    H[rows:, :rows] = F.T / trF
    lam, V = np.linalg.eigh(H)
    lmax = float(np.max(np.abs(lam)))
    t0 = 2 * math.pi * 0.25 / lmax
    lam_rounded = pe_readout(lam * t0 / (2 * math.pi), precision_qubits) * 2 * math.pi / t0
    coef = V.T @ np.concatenate([rhs / np.linalg.norm(rhs), np.zeros(rows)])
    inv_coef = coef / lam_rounded
    success = float(np.sum((np.min(np.abs(lam_rounded)) * inv_coef) ** 2))
    x = (V @ inv_coef)[rows:] * math.sqrt(n) / trF
    N_x = float(x[0] ** 2 + np.sum(x[1:] ** 2 * np.sum(Xs.samples**2, axis=0)))
    return x, success, N_x


class TestQsvm:
    def _toy(self):
        X = np.array([[1.0, -1.0], [0.2, -0.1]])
        return Domain(X, np.array([1, -1]))

    def test_readout_cosine(self):
        dom = self._toy()
        model = csa.svm_train(dom, np.eye(2), 1.0)
        qmodel = qsa.q_svm_train(dom, np.eye(2), 1.0)
        b, alpha = qmodel.model.b, qmodel.model.alpha
        u = np.concatenate(([b], alpha))
        v = np.concatenate(([model.b], model.alpha))
        cosine = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        assert cosine >= 0.999

    def test_gamma_infinity_limit(self):
        # classical-oracle check: dropping the gamma^-1 diagonal vs 1e6
        dom = self._toy()
        K = dom.samples.T @ dom.samples
        n = dom.n
        def solve(K_gamma):
            F = np.zeros((n + 1, n + 1))
            F[0, 1:] = 1.0
            F[1:, 0] = 1.0
            F[1:, 1:] = K_gamma
            return np.linalg.solve(F, np.concatenate(([0.0], dom.labels.astype(float))))
        inf = solve(K)
        big = solve(K + np.eye(n) / 1e6)
        assert np.linalg.norm(inf - big) / np.linalg.norm(inf) <= 1e-3

    @staticmethod
    def _assert_matches_dense_reference(dom, A):
        """At the n the state reports, which `test_register_is_minimal` pins."""
        model = qsa.q_svm_train(dom, A, 1.0)
        x, success, N_x = _dense_q_svm_train(dom, A, 1.0, model.precision_qubits)
        b, alpha = model.model.b, model.model.alpha
        got = np.concatenate(([b], alpha))
        assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)
        assert model.success_probability == pytest.approx(success, rel=1e-12)
        assert model.N_x == pytest.approx(N_x, rel=1e-12)

    @staticmethod
    def _caps_systems():
        """The quantum-caps shape (D=16, n_s=15, d=4), A = (P_a, P_t), seeds 0-11."""
        for seed in range(12):
            source, target = synth_shifted_gaussians(SynthSpec(D=16, n_s=15, n_t=200, seed=seed))
            sc, tc = center_columns(source)[0], center_columns(target)[0]
            art = csa.build_alignment(csa.pca_subspace(sc, 4), csa.pca_subspace(tc, 4), sc, tc)
            yield sc, (art.P_a, art.P_t)

    def test_matches_dense_embedding_reference_at_caps_epsilon(self):
        """The low-rank inversion against the dense Hermitian embedding on
        the quantum-caps systems, where the derived register has 14 to 16
        qubits."""
        for dom, A in self._caps_systems():
            self._assert_matches_dense_reference(dom, A)

    @pytest.mark.parametrize("epsilon_bits", [8, 10, 12])
    def test_matches_dense_embedding_reference(self, monkeypatch, epsilon_bits):
        """The same on registers derived for eps = 2^-k: k qubits above the
        ceil(log2 2 kappa) that reads every sigma out nonzero, 16 to 21 at
        this shape."""
        monkeypatch.setattr(qsa, "QSVM_EPSILON", 2.0**-epsilon_bits)
        for dom, A in self._caps_systems():
            self._assert_matches_dense_reference(dom, A)

    def test_trains_above_the_old_row_cap(self):
        rng = np.random.default_rng(9)
        dom = Domain(rng.standard_normal((2, 40)), rng.choice([-1, 1], 40))
        self._assert_matches_dense_reference(dom, np.eye(2))

    @staticmethod
    def _assert_within_epsilon(dom, A, gamma):
        """(b, alpha) reads back within eps / (1 - eps) of `svm_train`'s, for
        eps = QSVM_EPSILON: 1/read is 1/sigma within that relative error, on
        orthogonal components of the solution."""
        model, state = csa.svm_train(dom, A, gamma), qsa.q_svm_train(dom, A, gamma)
        want = np.concatenate(([model.b], model.alpha))
        got = np.concatenate(([state.model.b], state.model.alpha))
        eps = qsa.QSVM_EPSILON
        assert np.linalg.norm(got - want) <= eps / (1 - eps) * np.linalg.norm(want)
        return state

    def test_once_vanishing_system_trains(self):
        """At n = 10, F's border and c = 1 read out 0 on this system, below
        sigma_max / 2^(n-1), and the labels are orthogonal to the one singular
        vector left, so postselection fell to about 1e-31 and training was
        rejected. Its condition number calls for n = 23, where (b, alpha)
        reads back within eps / (1 - eps) of `svm_train`'s."""
        s = 100.0
        dom = Domain(np.array([[s, s, -s, -s], [0.0, 0.0, 0.0, 0.0]]), np.array([1, -1, 1, -1]))
        state = self._assert_within_epsilon(dom, np.eye(2), 1.0)
        assert state.precision_qubits == 23
        assert state.success_probability > qsa.POSTSELECTION_FLOOR

    def test_vanishing_postselection_rejected(self, monkeypatch):
        """With (0, y) on sigma_max's singular vector of a diagonal F with
        condition number 1e4, the smallest readout C, about sigma_max / 1e4, leaves
        postselection at (C / sigma_max)^2, about 1e-8, so training is
        rejected. The factorization is stood in for by that F: sigma_min on
        e0 and sigma_max on e1 and e2, for a two-sample domain."""
        factors = (1.0, np.eye(3), np.eye(3), np.array([1e-4, 1.0, 1.0]), np.eye(3),
                   np.array([0.0, 1.0, 1.0]))
        monkeypatch.setattr(qsa, "_svm_factor", lambda *args: factors)
        dom = Domain(np.array([[1.0, 2.0]]), np.array([1, 1]))
        with pytest.raises(PostselectionError, match="below 1e-06"):
            qsa.q_svm_train(dom, np.eye(1), 1.0)

    @staticmethod
    def _random_systems():
        """200 random LS-SVM systems, each kept when F's condition number is
        at most 1e3, with Q both square and not: (dom, A, gamma, F)."""
        rng = np.random.default_rng(35)
        for _ in range(200):
            n, D = int(rng.integers(2, 31)), int(rng.integers(1, 7))
            gamma = 10.0 ** rng.uniform(-1, 2)
            dom = Domain(rng.standard_normal((D, n)), rng.choice([-1, 1], n))
            A = rng.standard_normal((D, D)) * 0.3 + np.eye(D)
            c, B, C, _ = csa.ls_svm_system(dom, A, gamma)
            F = c * np.eye(n + 1) + B @ C.T
            if np.linalg.cond(F) <= 1e3:
                yield dom, A, gamma, F

    def test_exact_readout_gives_the_classical_solution(self, monkeypatch):
        """With every sigma read out exactly, `q_svm_train` inverts F as
        `svm_train` does: one factorization and one solve, so (b, alpha)
        agree to 1e-12 relative on the random systems."""
        monkeypatch.setattr(qsa, "pe_readout", lambda phases, n: np.asarray(phases, dtype=float))
        square = checked = 0
        for dom, A, gamma, _ in self._random_systems():
            model = csa.svm_train(dom, A, gamma)
            state = qsa.q_svm_train(dom, A, gamma)
            want = np.concatenate(([model.b], model.alpha))
            got = np.concatenate(([state.model.b], state.model.alpha))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            square += dom.n + 1 <= 2 * (dom.dim + 3)
            checked += 1
        assert 0 < square < checked

    def test_derived_readout_is_within_epsilon(self):
        """On the same random systems, read out on the derived register,
        (b, alpha) is within eps / (1 - eps) of `svm_train`'s."""
        for dom, A, gamma, _ in self._random_systems():
            self._assert_within_epsilon(dom, A, gamma)

    def test_register_is_minimal(self):
        """n is the least register with 2 kappa / 2^n <= eps, kappa F's
        condition number from a dense SVD: n - 1 qubits would not do."""
        eps = qsa.QSVM_EPSILON
        for dom, A, gamma, F in self._random_systems():
            kappa, n = np.linalg.cond(F), qsa.q_svm_train(dom, A, gamma).precision_qubits
            assert 2 * kappa / 2**n <= eps < 2 * kappa / 2 ** (n - 1)

    def test_labels_outside_pm_one_rejected(self):
        # the readout scale assumes ||(0, y)|| = sqrt(n), true only for +-1 labels
        dom = Domain(np.array([[1.0, -1.0], [0.2, -0.1]]), np.array([1, 2]))
        with pytest.raises(ConfigurationError, match="-1, \\+1"):
            qsa.q_svm_train(dom, np.eye(2), 1.0)

    def test_orthogonal_query_gets_bias_sign(self):
        X = np.array([[1.0, -1.0], [0.0, 0.0]])
        dom = Domain(X, np.array([1, -1]))
        A = np.diag([1.0, 0.0])
        qmodel = qsa.q_svm_train(dom, A, 1.0)
        b = qmodel.model.b
        xt = np.array([0.0, 5.0])  # A xt = 0: kernel column vanishes
        labels, info = qsa.q_svm_classify(qmodel, xt[:, None], EXACT)
        assert labels[0] == (1 if b >= 0 else -1)

    def test_batch_matches_single_points(self):
        dom = self._toy()
        qmodel = qsa.q_svm_train(dom, np.eye(2), 1.0)
        X = np.random.default_rng(10).standard_normal((2, 25))
        labels, info = qsa.q_svm_classify(qmodel, X, EXACT)
        for j in range(X.shape[1]):
            label, one = qsa.q_svm_classify(qmodel, X[:, [j]], EXACT)
            assert label[0] == labels[j]
            assert one["decision_value"][0] == pytest.approx(info["decision_value"][j], abs=1e-14)

    def test_vector_rejected(self):
        dom = self._toy()
        qmodel = qsa.q_svm_train(dom, np.eye(2), 1.0)
        with pytest.raises(ShapeError, match="D x m matrix"):
            qsa.q_svm_classify(qmodel, np.array([0.3, -0.2]), EXACT)

    def test_points_in_the_right_factor_coordinates(self):
        """A model on the factors (L, R) of A decides points given as R^T x:
        the same labels as the D x D A on the raw points, and D-row points
        are rejected with the row count it expects."""
        rng = np.random.default_rng(26)
        D, n, r = 6, 10, 2
        dom = Domain(rng.standard_normal((D, n)), rng.choice([-1, 1], n))
        L, R = rng.standard_normal((D, r)), rng.standard_normal((D, r))
        X = rng.standard_normal((D, 15))
        qmodel = qsa.q_svm_train(dom, (L, R), 1.0)
        labels, info = qsa.q_svm_classify(qmodel, R.T @ X, EXACT)
        dense_model = qsa.q_svm_train(dom, L @ R.T, 1.0)
        dense, dense_info = qsa.q_svm_classify(dense_model, X, EXACT)
        assert np.array_equal(labels, dense)
        assert np.max(np.abs(info["exact_overlap"] - dense_info["exact_overlap"])) <= 1e-12
        with pytest.raises(ShapeError, match=f"D = {r},"):
            qsa.q_svm_classify(qmodel, X, EXACT)

    def test_overlap_is_the_inner_product_of_the_dense_states(self):
        """The exact overlap is <u|v> / (||u|| ||v||) for the training state
        u = (b, alpha_1 x_1, ..., alpha_n x_n) and the query state
        v = (1, A x, ..., A x), built here as dense vectors for A = L R^T:
        ||v||^2 = N_t = 1 + n ||A x||^2 carries the factor n of its n copies."""
        rng = np.random.default_rng(34)
        D, n, r, m = 4, 6, 2, 20
        dom = Domain(rng.standard_normal((D, n)), rng.choice([-1, 1], n))
        L, R = rng.standard_normal((D, r)), rng.standard_normal((D, r))
        X = rng.standard_normal((D, m))
        qmodel = qsa.q_svm_train(dom, (L, R), 1.0)
        _, info = qsa.q_svm_classify(qmodel, R.T @ X, EXACT)
        u = np.concatenate(([qmodel.model.b], (dom.samples * qmodel.model.alpha).T.ravel()))
        for j in range(m):
            v = np.concatenate(([1.0], np.tile(L @ (R.T @ X[:, j]), n)))
            expect = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            assert info["exact_overlap"][j] == pytest.approx(expect, rel=0, abs=1e-12)

    def test_decides_without_a_D_by_m_array(self):
        """On a factor pair (L, R) the overlap's numerator is the model's
        decision value and N_t comes from the r x r Gram L^T L, so deciding
        m points peaks below one D x m array; reading the decision off the
        source formed two (L X and its square)."""
        rng = np.random.default_rng(31)
        D, n, r, m = 64, 40, 4, 3000
        dom = Domain(rng.standard_normal((D, n)), rng.choice([-1, 1], n))
        L, R = rng.standard_normal((D, r)), rng.standard_normal((D, r))
        qmodel = qsa.q_svm_train(dom, (L, R), 1.0)
        X = rng.standard_normal((r, m))
        tracemalloc.start()
        try:
            labels, _ = qsa.q_svm_classify(qmodel, X, EXACT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.shape == (m,)
        assert peak < D * m * 8

    def test_sampled_columns_draw_independently(self):
        dom = self._toy()
        qmodel = qsa.q_svm_train(dom, np.eye(2), 1.0)
        X = np.tile([[0.3], [-0.2]], (1, 50))
        _, info = qsa.q_svm_classify(qmodel, X, ShotPlan(shots=256, seed=4, mode="sampled"))
        assert np.unique(info["decision_value"]).size > 1
        # every draw estimates the one exact overlap, which the pass reports
        _, exact = qsa.q_svm_classify(qmodel, X, EXACT)
        assert np.array_equal(info["exact_overlap"], exact["decision_value"])

    def test_grid_parity_exact_and_sampled(self):
        dom = self._toy()
        model = csa.svm_train(dom, np.eye(2), 1.0)
        qmodel = qsa.q_svm_train(dom, np.eye(2), 1.0)
        grid = [np.array([gx, gy]) for gx in (-1.0, 0.0, 1.0) for gy in (-1.0, 0.0, 1.0)]
        shots, draws = 4096, 1000
        for i, xt in enumerate(grid):
            label, info = qsa.q_svm_classify(qmodel, xt[:, None], EXACT)
            assert label[0] == csa.svm_classify(model, xt)
            exact_val = info["decision_value"][0]
            # `draws` independent sampled decisions of the same point, one
            # column each. One decision is 2 k/shots - 1 with k binomial, so
            # its standard deviation is sigma below. Three standard errors:
            # sigma/sqrt(draws) for the mean and, for a near-normal sample,
            # sigma/sqrt(2 draws) for the sample standard deviation.
            _, s_info = qsa.q_svm_classify(
                qmodel, np.tile(xt[:, None], (1, draws)),
                ShotPlan(shots=shots, seed=1000 + i, mode="sampled"),
            )
            sampled = s_info["decision_value"]
            sigma = math.sqrt(max(1.0 - exact_val**2, 1e-12) / shots)
            assert np.all((sampled + 1.0) * shots / 2 == np.round((sampled + 1.0) * shots / 2))
            assert abs(sampled.mean() - exact_val) <= 3 * sigma / math.sqrt(draws)
            assert abs(sampled.std() - sigma) <= 3 * sigma / math.sqrt(2 * draws)


class TestOneReadoutRule:
    """Every phase estimation of the pipeline reads out through `pe_readout`:
    the AE behind the quantum NN in both modes, qPCA, the product stages'
    finite theta and the qSVM's sigma. Each test records the calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(phases, n, rng=None):
            calls.append((np.size(phases), n, rng))
            return pe_readout(phases, n, rng)

        # AE reads out in quantum_core, the pipeline's stages in quantum_sa
        monkeypatch.setattr(quantum_core, "pe_readout", counted)
        monkeypatch.setattr(qsa, "pe_readout", counted)
        return calls

    @pytest.mark.parametrize("sampled", [False, True])
    def test_amplitude_estimation(self, calls, sampled):
        rng = np.random.default_rng(0) if sampled else None
        quantum_core.amplitude_estimation(np.full((3, 4), 0.3), 5, rng)
        assert calls == [(12, 5, rng)]

    def test_quantum_nn_draws_its_ae_outcomes(self, calls):
        """In sampled mode each target's AE outcomes are drawn from its own
        stream, one `pe_readout` call per target."""
        rng = np.random.default_rng(1)
        X_hat_a, X_hat_t = rng.standard_normal((3, 6)), rng.standard_normal((3, 4))
        qsa.q_nn_classify(X_hat_a, np.array([1, -1] * 3), X_hat_t, ShotPlan(mode="sampled"), 6)
        assert [(size, n) for size, n, _ in calls] == [(6, 6)] * 4
        assert all(isinstance(rng, np.random.Generator) for _, _, rng in calls)

    def test_qpca(self, calls):
        _qpca(np.random.default_rng(2).standard_normal((5, 9)), 2, precision_qubits=6)
        assert calls == [(5, 6, None)]

    def test_matrix_product_state(self, calls):
        rng = np.random.default_rng(3)
        P, Q = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        qsa.matrix_product_state(P, Q, 7, exact_theta=False)
        assert calls == [(6, 7, None)]
        qsa.matrix_product_state(P, Q, 7, exact_theta=True)
        assert len(calls) == 1  # an exact theta is not read out

    def test_q_svm_train_reads_its_wide_register_without_draws(self, calls):
        """The derived register is wider than a sampled readout may be, so
        the qSVM must reach only the nearest-point readout."""
        X = np.random.default_rng(4).standard_normal((3, 8))
        state = qsa.q_svm_train(Domain(X, np.array([1, -1] * 4)), np.eye(3), 1.0)
        assert state.precision_qubits > quantum_core.MAX_AE_QUBITS
        assert [(n, rng) for _, n, rng in calls] == [(state.precision_qubits, None)]


class TestEndToEndParity:
    def test_labels_agree_small_instances(self):
        for seed in range(3):
            spec = SynthSpec(D=3, n_s=10, n_t=6, seed=seed,
                             domain_shift=DomainShift(rotation_angle=0.8))
            source, target = synth_shifted_gaussians(spec)
            sc, _ = center_columns(source)
            tc, _ = center_columns(target)
            Ps, Pt = csa.pca_subspace(sc, 2), csa.pca_subspace(tc, 2)
            art = csa.build_alignment(Ps, Pt, sc, tc)
            M = qsa.matrix_product_state(Ps.P, Pt.P, exact_theta=True).as_matrix()
            X_hat_s = qsa.matrix_product_state(Ps.P, sc.samples, exact_theta=True).as_matrix()
            X_hat_a = qsa.matrix_product_state(M, X_hat_s, exact_theta=True).as_matrix()
            X_hat_t = qsa.matrix_product_state(Pt.P, tc.samples, exact_theta=True).as_matrix()
            c_nn = csa.nn_classify(art.X_hat_a, sc.visible_labels, art.X_hat_t)
            q_nn, records = qsa.q_nn_classify(
                X_hat_a, sc.visible_labels, X_hat_t, ShotPlan(seed=seed),
            )
            # any disagreement must be a declared AE-resolution ambiguity
            for j in np.flatnonzero(q_nn != c_nn):
                assert records[j]["warning"]
            model = csa.svm_train(sc, art.A, 1.0)
            qmodel = qsa.q_svm_train(sc, art.A, 1.0)
            for j in range(tc.n):
                xt = tc.samples[:, j]
                assert (
                    qsa.q_svm_classify(qmodel, xt[:, None], EXACT)[0][0]
                    == csa.svm_classify(model, xt)
                )
