import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_oracle import apply_unitary_vec
from subalign import classical_sa as csa
from subalign.datasets import Domain, SynthSpec, center_columns, synth_shifted_gaussians
from subalign.errors import (
    ConfigurationError,
    IllConditionedError,
    RankDeficiencyError,
    ShapeError,
)


def _random_orthonormal(rng, D, d):
    Q, _ = np.linalg.qr(rng.standard_normal((D, d)))
    return Q


def _basis(rng, D, d):
    return csa.SubspaceBasis(_random_orthonormal(rng, D, d), np.arange(d, 0, -1.0))


def _centered_pair(spec):
    """A synthetic pair, centered as `kernel_sa_fit` takes it."""
    return tuple(center_columns(domain)[0] for domain in synth_shifted_gaussians(spec))


class TestPcaSubspace:
    def test_single_axis(self):
        X = np.zeros((3, 6))
        X[0] = [1, -2, 3, -1, 2, -3]
        basis = csa.pca_subspace(X, 1)
        assert np.allclose(np.abs(basis.P[:, 0]), [1, 0, 0], atol=1e-12)
        assert basis.P[0, 0] > 0  # sign convention

    def test_full_dimension_orthogonal(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((4, 50))
        X -= X.mean(axis=1, keepdims=True)
        basis = csa.pca_subspace(X, 4)
        assert np.allclose(basis.P @ basis.P.T, np.eye(4), atol=1e-10)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 50))
        X -= X.mean(axis=1, keepdims=True)
        basis = csa.pca_subspace(X, 2)
        w, V = np.linalg.eigh(X @ X.T)
        order = np.argsort(w)[::-1]
        w, V = w[order], V[:, order]
        assert np.allclose(basis.eigenvalues, w[:2], atol=1e-10)
        for k in range(2):
            assert min(
                np.linalg.norm(basis.P[:, k] - V[:, k]),
                np.linalg.norm(basis.P[:, k] + V[:, k]),
            ) < 1e-10

    def test_fix_signs_matches_column_loop(self):
        def loop(V):  # the per-column rule, as reference
            V = V.copy()
            for k in range(V.shape[1]):
                if V[np.argmax(np.abs(V[:, k])), k] < 0:
                    V[:, k] = -V[:, k]
            return V

        rng = np.random.default_rng(3)
        V = rng.uniform(-0.4, 0.4, (6, 4))
        V[:2, 0] = [0.5, -0.5]  # ties on magnitude: the first entry wins
        V[:2, 1] = [-0.5, 0.5]
        for M in (V, np.asfortranarray(V), V[:, ::-1]):
            out = csa._fix_signs(M)
            assert out.flags.c_contiguous and out.tobytes() == loop(M).tobytes()

    def test_d_out_of_range(self):
        with pytest.raises(ConfigurationError):
            csa.pca_subspace(np.ones((2, 4)), 3)

    def test_degenerate_spectrum_warns(self):
        # isotropic data: equal eigenvalues
        X = np.hstack([np.eye(3), -np.eye(3)])
        basis = csa.pca_subspace(X, 2)
        assert basis.warnings


class TestAlignmentMatrix:
    def test_identity_case(self):
        rng = np.random.default_rng(3)
        B = _basis(rng, 5, 2)
        assert np.allclose(csa.alignment_matrix(B, B), np.eye(2), atol=1e-12)

    def test_coordinate_bases(self):
        e = np.eye(3)
        Ps = csa.SubspaceBasis(e[:, [0, 1]], np.array([2.0, 1.0]))
        Pt = csa.SubspaceBasis(e[:, [1, 2]], np.array([2.0, 1.0]))
        assert np.allclose(csa.alignment_matrix(Ps, Pt), [[0, 0], [1, 0]])

    def test_analytic_cosine(self):
        Ps = csa.SubspaceBasis(
            np.array([[math.cos(math.pi / 3)], [math.sin(math.pi / 3)]]),
            np.array([1.0]),
        )
        Pt = csa.SubspaceBasis(np.array([[1.0], [0.0]]), np.array([1.0]))
        assert np.allclose(csa.alignment_matrix(Ps, Pt), [[0.5]], atol=1e-12)

    def test_mismatched_d(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            csa.alignment_matrix(_basis(rng, 4, 2), _basis(rng, 4, 3))

    def test_mismatched_feature_dimension(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError, match="feature dimensions differ: 4 vs 3"):
            csa.alignment_matrix(_basis(rng, 4, 2), _basis(rng, 3, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_argmin_optimality(self, seed):
        rng = np.random.default_rng(seed)
        Ps, Pt = _basis(rng, 6, 2), _basis(rng, 6, 2)
        M = csa.alignment_matrix(Ps, Pt)
        base = np.linalg.norm(Ps.P @ M - Pt.P)
        for _ in range(20):
            delta = rng.standard_normal(M.shape)
            delta /= np.linalg.norm(delta)
            assert np.linalg.norm(Ps.P @ (M + 1e-3 * delta) - Pt.P) >= base


class TestBuildAlignment:
    def test_identity_bases(self):
        rng = np.random.default_rng(5)
        Xs, Xt = rng.standard_normal((3, 6)), rng.standard_normal((3, 7))
        eye = csa.SubspaceBasis(np.eye(3), np.array([3.0, 2.0, 1.0]))
        art = csa.build_alignment(eye, eye, Xs, Xt)
        assert np.allclose(art.A, np.eye(3), atol=1e-12)
        assert np.allclose(art.X_hat_a, Xs, atol=1e-12)
        assert np.allclose(art.X_hat_t, Xt, atol=1e-12)

    def test_self_alignment(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 9))
        B = _basis(rng, 4, 2)
        art = csa.build_alignment(B, B, X, X)
        assert np.allclose(art.X_hat_a, art.X_hat_t, atol=1e-10)

    def test_product_oracle(self):
        rng = np.random.default_rng(7)
        Ps, Pt = _basis(rng, 3, 2), _basis(rng, 3, 2)
        art = csa.build_alignment(Ps, Pt, rng.standard_normal((3, 5)), rng.standard_normal((3, 5)))
        assert np.allclose(art.A, Ps.P @ Ps.P.T @ Pt.P @ Pt.P.T, atol=1e-12)
        assert np.allclose(art.P_a, Ps.P @ art.M_star, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_rotation_invariance_of_A(self, seed):
        rng = np.random.default_rng(seed)
        Ps, Pt = _basis(rng, 5, 2), _basis(rng, 5, 2)
        Rs = _random_orthonormal(rng, 2, 2)
        Rt = _random_orthonormal(rng, 2, 2)
        X = rng.standard_normal((5, 4))
        A1 = csa.build_alignment(Ps, Pt, X, X).A
        Ps2 = csa.SubspaceBasis(Ps.P @ Rs, np.array([2.0, 1.0]))
        Pt2 = csa.SubspaceBasis(Pt.P @ Rt, np.array([2.0, 1.0]))
        A2 = csa.build_alignment(Ps2, Pt2, X, X).A
        assert np.max(np.abs(A1 - A2)) <= 1e-10

    def test_projector_identity_on_shared_span(self):
        rng = np.random.default_rng(8)
        Q = _random_orthonormal(rng, 5, 2)
        R = _random_orthonormal(rng, 2, 2)
        Ps = csa.SubspaceBasis(Q, np.array([2.0, 1.0]))
        Pt = csa.SubspaceBasis(csa._fix_signs(Q @ R), np.array([2.0, 1.0]))
        A = csa.build_alignment(Ps, Pt, np.ones((5, 3)), np.ones((5, 3))).A
        assert np.allclose(A @ A, A, atol=1e-10)
        assert np.allclose(A, A.T, atol=1e-10)

    def test_aligned_source_from_the_source_projection(self):
        rng = np.random.default_rng(10)
        Ps, Pt = _basis(rng, 6, 3), _basis(rng, 6, 3)
        Xs, Xt = rng.standard_normal((6, 40)), rng.standard_normal((6, 30))
        art = csa.build_alignment(Ps, Pt, Xs, Xt)
        assert art.X_hat_a.tobytes() == (art.M_star.T @ (Ps.P.T @ Xs)).tobytes()
        through_P_a = (Ps.P @ art.M_star).T @ Xs
        assert np.max(np.abs(art.X_hat_a - through_P_a)) <= 1e-12 * np.max(np.abs(through_P_a))
        # the projections give the same artifacts bit for bit
        proj = csa.build_alignment(Ps, Pt, Ps.P.T @ Xs, Pt.P.T @ Xt, projected=True)
        for name in ("M_star", "P_a", "P_t", "X_hat_a", "X_hat_t"):
            assert getattr(proj, name).tobytes() == getattr(art, name).tobytes(), name

    def test_projections_must_have_d_rows(self):
        rng = np.random.default_rng(11)
        Ps, Pt = _basis(rng, 6, 3), _basis(rng, 6, 3)
        X = rng.standard_normal((6, 10))
        with pytest.raises(ShapeError):
            csa.build_alignment(Ps, Pt, X, X, projected=True)
        with pytest.raises(ShapeError):
            csa.build_alignment(Ps, Pt, X[:3], X[:3])


class TestSimilarity:
    def test_complement_annihilated(self):
        e = np.eye(3)
        Ps = csa.SubspaceBasis(e[:, :1], np.array([1.0]))
        Pt = csa.SubspaceBasis(e[:, 1:2], np.array([1.0]))
        A = csa.build_alignment(Ps, Pt, np.ones((3, 2)), np.ones((3, 2))).A
        xs = np.array([0.0, 1.0, 1.0])  # orthogonal to span(Ps)
        assert xs @ A @ np.ones(3) == pytest.approx(0.0, abs=1e-12)

    def test_factored_evaluation(self):
        rng = np.random.default_rng(9)
        Ps, Pt = _basis(rng, 4, 2), _basis(rng, 4, 2)
        art = csa.build_alignment(Ps, Pt, rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
        xs, xt = rng.standard_normal(4), rng.standard_normal(4)
        direct = xs @ art.A @ xt
        factored = (Ps.P.T @ xs) @ art.M_star @ (Pt.P.T @ xt)
        assert direct == pytest.approx(factored, abs=1e-12)


class TestNnClassify:
    def test_exact_match(self):
        train = np.array([[0.0, 5.0], [0.0, 5.0]])
        labels = np.array([-1, 1])
        assert csa.nn_classify(train, labels, train[:, [1]])[0] == 1

    def test_tie_breaks_low_index(self):
        train = np.array([[-1.0, 1.0]])
        labels = np.array([7, 9])
        assert csa.nn_classify(train, labels, np.array([[0.0]]))[0] == 7

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        train = rng.standard_normal((3, 40))
        labels = rng.integers(0, 4, 40)
        queries = rng.standard_normal((3, 25))
        pred = csa.nn_classify(train, labels, queries)
        for j in range(25):
            d = [np.linalg.norm(train[:, i] - queries[:, j]) for i in range(40)]
            assert pred[j] == labels[int(np.argmin(d))]

    @staticmethod
    def _dense_nearest(train, queries):
        d2 = (
            np.sum(train**2, axis=0)[:, None]
            - 2 * train.T @ queries
            + np.sum(queries**2, axis=0)[None, :]
        )
        return np.argmin(d2, axis=0)

    @pytest.mark.parametrize(
        "n_s, n_t", [(csa.NN_BLOCK_ELEMENTS + 5, 11), (5000, 19), (1000, 37)]
    )
    def test_blocks_match_dense_reference(self, n_s, n_t):
        """Blocks of NN_MIN_ROWS queries where n_s leaves fewer rows to the
        element budget (none at all past NN_BLOCK_ELEMENTS, 6 at 5000),
        element-sized blocks of 32 rows at n_s = 1000, and a short last
        block in each."""
        step = max(csa.NN_BLOCK_ELEMENTS // n_s, csa.NN_MIN_ROWS)
        assert step == (32 if n_s == 1000 else csa.NN_MIN_ROWS)
        assert n_t > step and n_t % step
        rng = np.random.default_rng(21)
        train = rng.standard_normal((3, n_s))
        queries = rng.standard_normal((3, n_t))
        pred = csa.nn_classify(train, np.arange(n_s), queries)
        assert np.array_equal(pred, self._dense_nearest(train, queries))

    def test_duplicate_nearest_sources_give_lowest_index(self):
        rng = np.random.default_rng(22)
        n_s = 1000
        train = rng.standard_normal((4, n_s))
        train[:, 900] = train[:, 300]
        train[:, 600] = train[:, 5]
        # more queries than one block holds, each sitting on a duplicated source
        k = csa.NN_BLOCK_ELEMENTS // n_s + 3
        queries = np.repeat(train[:, [300, 5]], k, axis=1)
        pred = csa.nn_classify(train, np.arange(n_s), queries)
        assert np.array_equal(pred, np.repeat([300, 5], k))

    def test_duplicate_sources_across_floor_sized_blocks(self):
        # at n_s = 5000 the blocks hold NN_MIN_ROWS queries; 2k + 1 queries
        # fill two full blocks and a short one, and both runs cross a boundary
        rng = np.random.default_rng(27)
        n_s = 5000
        assert csa.NN_BLOCK_ELEMENTS // n_s < csa.NN_MIN_ROWS
        train = rng.standard_normal((4, n_s))
        train[:, 4900] = train[:, 300]
        train[:, 2600] = train[:, 5]
        train[:, 4999] = train[:, 5]
        k = csa.NN_MIN_ROWS + 3
        queries = np.repeat(train[:, [300, 5, 4900]], [k, k, 1], axis=1)
        pred = csa.nn_classify(train, np.arange(n_s), queries)
        assert np.array_equal(pred, np.repeat([300, 5, 300], [k, k, 1]))

    @pytest.mark.parametrize("n_s", [15, 5000])
    def test_no_queries_give_no_labels(self, n_s):
        labels = np.arange(n_s) % 3
        pred = csa.nn_classify(np.ones((2, n_s)), labels, np.ones((2, 0)))
        assert pred.shape == (0,) and pred.dtype == labels.dtype

    def test_clamped_single_block_matches_dense_reference(self):
        # the quantum-caps shape: all 200 queries fit one block of 200 rows
        n_s, n_t = 15, 200
        assert csa.NN_BLOCK_ELEMENTS // n_s > n_t
        rng = np.random.default_rng(24)
        train = rng.standard_normal((4, n_s))
        queries = rng.standard_normal((4, n_t))
        pred = csa.nn_classify(train, np.arange(n_s), queries)
        assert np.array_equal(pred, self._dense_nearest(train, queries))

    def test_far_from_origin_matches_direct_distances(self):
        """Shifted by 1e3, ||t||^2 - 2 t.q cancels about 1e6 down to O(1);
        every query whose two nearest sources are more than 1e-8 apart
        (relative) still gets the nearest one."""
        rng = np.random.default_rng(25)
        train = rng.standard_normal((4, 1000)) + 1e3
        queries = rng.standard_normal((4, 300)) + 1e3
        pred = csa.nn_classify(train, np.arange(1000), queries)
        d2 = np.sum((train[:, :, None] - queries[:, None, :]) ** 2, axis=0)
        top2 = np.sort(d2, axis=0)[:2]
        clear = top2[1] - top2[0] > 1e-8 * top2[1]
        assert clear.sum() > 290
        assert np.array_equal(pred[clear], np.argmin(d2, axis=0)[clear])

    def test_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            csa.nn_classify(np.zeros((3, 4)), np.arange(4), np.zeros((2, 5)))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="3 labels for 4"):
            csa.nn_classify(np.zeros((2, 4)), np.array([1, -1, 1]), np.zeros((2, 5)))

    def test_memory_is_linear_in_queries(self):
        """At n_s = n_t = 4000, d = 8 the search allocates far less than one
        n_s x n_t distance matrix (128 MB)."""
        rng = np.random.default_rng(23)
        n = 4000
        train = rng.standard_normal((8, n))
        labels = rng.integers(0, 2, n)
        queries = rng.standard_normal((8, n))
        tracemalloc.start()
        try:
            csa.nn_classify(train, labels, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_peak_memory_follows_block_layout(self):
        """At the classical-nn bench shape (d = 8, n_s = n_t = 10^4) the peak
        is the (d+1) x n_s operand [-2 T; ||t||^2] and the NN_MIN_ROWS x n_s
        distance block, 8 * n_s * (d + 1 + NN_MIN_ROWS) bytes, plus the
        n_t-entry index and label arrays (8 bytes each), plus 4 KiB for the
        NN_MIN_ROWS x (d+1) query block (576 bytes) and the array objects."""
        rng = np.random.default_rng(26)
        d, n_s, n_t = 8, 10_000, 10_000
        assert csa.NN_BLOCK_ELEMENTS // n_s < csa.NN_MIN_ROWS
        train = rng.standard_normal((d, n_s))
        labels = rng.integers(0, 2, n_s)
        queries = rng.standard_normal((d, n_t))
        bound = 8 * n_s * (d + 1 + csa.NN_MIN_ROWS) + 16 * n_t + 4096
        tracemalloc.start()
        try:
            csa.nn_classify(train, labels, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestSvm:
    def _toy(self):
        X = np.array([[1.0, -1.0], [0.0, 0.0]])
        return Domain(X, np.array([1, -1]))

    def test_two_point_hand_solve(self):
        dom = self._toy()
        model = csa.svm_train(dom, np.eye(2), 1.0)
        # F = [[0,1,1],[1,2,-1],[1,-1,2]]; solve F(b,a1,a2)=(0,1,-1) by hand
        F = np.array([[0.0, 1, 1], [1, 2, -1], [1, -1, 2]])
        expect = np.linalg.solve(F, [0.0, 1.0, -1.0])
        assert model.b == pytest.approx(expect[0], abs=1e-12)
        assert np.allclose(model.alpha, expect[1:], atol=1e-12)

    def test_all_positive_labels(self):
        rng = np.random.default_rng(11)
        dom = Domain(rng.standard_normal((3, 6)), np.ones(6, dtype=int))
        model = csa.svm_train(dom, np.eye(3), 1.0)
        for j in range(6):
            assert csa.svm_classify(model, dom.samples[:, j]) == 1

    def test_gamma_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            csa.svm_train(self._toy(), np.eye(2), 0.0)

    def test_system_residual(self):
        rng = np.random.default_rng(12)
        dom = Domain(rng.standard_normal((3, 8)), rng.choice([-1, 1], 8))
        A = rng.standard_normal((3, 3)) * 0.3 + np.eye(3)
        c, B, C, rhs = csa.ls_svm_system(dom, A, 2.0)
        assert c == 0.5 and B.shape == C.shape == (9, 6)
        F = c * np.eye(9) + B @ C.T
        assert np.array_equal(F[0], np.concatenate(([0.0], np.ones(8))))
        assert np.array_equal(F[:, 0], F[0])
        K = dom.samples.T @ A @ dom.samples
        assert np.max(np.abs(F[1:, 1:] - K - np.eye(8) / 2.0)) <= 1e-12 * np.max(np.abs(K))
        assert np.array_equal(rhs, np.concatenate(([0.0], dom.labels.astype(float))))
        model = csa.svm_train(dom, A, 2.0)
        lhs = F @ np.concatenate(([model.b], model.alpha))
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * np.max(np.abs(F))

    def test_core_matches_dense_system(self):
        """The condition number from the core equals that of the dense F and
        the factored solve leaves a backward-stable residual, over random
        systems with Q both square (n + 1 <= 2 (D + 3)) and not."""
        rng = np.random.default_rng(21)
        eps = np.finfo(float).eps
        square = raised = 0
        for _ in range(300):
            n, D = int(rng.integers(2, 31)), int(rng.integers(1, 7))
            gamma = 10.0 ** rng.uniform(-3, 13)
            dom = Domain(rng.standard_normal((D, n)), rng.choice([-1, 1], n))
            A = rng.standard_normal((D, D)) * 0.3 + np.eye(D)
            c, B, C, rhs = csa.ls_svm_system(dom, A, gamma)
            F = c * np.eye(n + 1) + B @ C.T
            Q, _, cond = csa._svm_core(c, B, C)
            square += Q.shape[1] == n + 1
            dense = np.linalg.cond(F)
            # the dense SVD itself finds sigma_min of F only to about
            # eps * ||F|| (Weyl), i.e. to eps * cond relative; that term is
            # added to the 1e-8 agreement and widens the band around the gate
            band = 1e-8 + (n + 1) * eps * dense
            assert abs(cond - dense) <= band * dense
            if abs(dense - 1e12) > band * dense:
                assert (cond > 1e12) == (dense > 1e12)
            try:
                model = csa.svm_train(dom, A, gamma)
            except IllConditionedError:
                assert cond > 1e12
                raised += 1
                continue
            x = np.concatenate(([model.b], model.alpha))
            residual = np.linalg.norm(F @ x - rhs)
            assert residual <= 1e-13 * np.linalg.norm(F, 2) * np.linalg.norm(x)
        assert 0 < square < 300 and 0 < raised < 300

    def test_train_memory_is_linear_in_n(self):
        """At n = 3000, D = 64, d = 8 training on the factors of A allocates
        far less than one (n + 1)^2 matrix."""
        n = 3000
        source, target = synth_shifted_gaussians(SynthSpec(D=64, n_s=n, n_t=200, seed=0))
        sc, _ = center_columns(source)
        tc, _ = center_columns(target)
        art = csa.build_alignment(csa.pca_subspace(sc, 8), csa.pca_subspace(tc, 8), sc, tc)
        tracemalloc.start()
        try:
            csa.svm_train(sc, (art.P_a, art.P_t), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) ** 2 * 8 / 4

    def test_labels_outside_pm_one_rejected(self):
        dom = Domain(np.array([[1.0, -1.0], [0.0, 1.0]]), np.array([0, 1]))
        with pytest.raises(ConfigurationError, match="-1, \\+1"):
            csa.svm_train(dom, np.eye(2), 1.0)

    def test_orthogonal_query_gets_bias_sign(self):
        dom = self._toy()
        model = csa.svm_train(dom, np.eye(2), 1.0)
        xt = np.array([0.0, 3.0])  # similarity column vanishes
        assert csa.svm_decision_values(model, xt) == pytest.approx(model.b)
        assert csa.svm_classify(model, xt) == (1 if model.b >= 0 else -1)

    @pytest.mark.parametrize("form", ["array", "pair"])
    def test_batch_decision_matches_columns_and_dense_solve(self, form):
        rng = np.random.default_rng(17)
        D, n, m = 5, 12, 30
        dom = Domain(rng.standard_normal((D, n)), rng.choice([-1, 1], n))
        L, R = rng.standard_normal((D, 3)), rng.standard_normal((D, 3))
        A = L @ R.T
        Xq = rng.standard_normal((D, m))
        model = csa.svm_train(dom, A if form == "array" else (L, R), 1.5)
        values = csa.svm_decision_values(model, Xq)
        labels = csa.svm_classify(model, Xq)
        assert values.shape == labels.shape == (m,)
        # dense reference: the bordered system written out and solved directly
        K = dom.samples.T @ A @ dom.samples
        F = np.block([[np.zeros((1, 1)), np.ones((1, n))],
                      [np.ones((n, 1)), K + np.eye(n) / 1.5]])
        sol = np.linalg.solve(F, np.concatenate(([0.0], dom.labels.astype(float))))
        assert np.max(np.abs(np.concatenate(([model.b], model.alpha)) - sol)) <= 1e-12 * np.max(np.abs(sol))
        ref = np.array([sol[1:] @ (dom.samples.T @ A @ Xq[:, j]) + sol[0] for j in range(m)])
        scale = np.max(np.abs(ref))
        for j in range(m):
            assert abs(values[j] - csa.svm_decision_values(model, Xq[:, j])) <= 1e-12 * scale
            assert labels[j] == csa.svm_classify(model, Xq[:, j])
        assert np.max(np.abs(values - ref)) <= 1e-12 * scale
        assert np.array_equal(labels, np.where(ref >= 0, 1, -1))

    def test_zero_decision_is_positive(self):
        dom = self._toy()
        model = csa.SvmModel(0.0, np.zeros(dom.n), np.zeros(dom.dim))
        assert csa.svm_classify(model, np.array([1.0, 1.0])) == 1

    def test_ill_conditioned(self):
        X = np.array([[1.0, 1.0 + 1e-15]])
        dom = Domain(X, np.array([1, -1]))
        with pytest.raises(IllConditionedError):
            csa.svm_train(dom, np.eye(1), 1e15)


class TestKernels:
    def test_cosine_self_is_one(self):
        X = np.random.default_rng(13).standard_normal((3, 4))
        K = csa.kernel_matrix(X, X, csa.KernelSpec("cosine"))
        assert np.allclose(np.diag(K), 1.0, atol=1e-12)

    def test_polynomial_degree_one_is_linear(self):
        X = np.random.default_rng(14).standard_normal((3, 5))
        Kp = csa.kernel_matrix(X, X, csa.KernelSpec("polynomial", 1))
        Kl = csa.kernel_matrix(X, X, csa.KernelSpec("linear"))
        assert np.array_equal(Kp, Kl)

    def test_hard_self_is_one(self):
        X = np.random.default_rng(15).standard_normal((4, 5))
        K = csa.kernel_matrix(X, X, csa.KernelSpec("hard"))
        assert np.allclose(np.diag(K), 1.0, atol=1e-10)

    @staticmethod
    def _hard_states_by_gates(X, lo, span):
        """Gate-level hard-kernel circuit: RY(angle_m) on qubit m mod q for
        every feature m, then a ring of controlled-Z gates."""
        D, n = X.shape
        q = max(1, math.ceil(math.log2(D)))
        safe = np.where(span > 0, span, 1.0)
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        states = np.zeros((n, 2**q))
        for j in range(n):
            vec = np.zeros(2**q, dtype=complex)
            vec[0] = 1.0
            for m in range(D):
                t = (X[m, j] - lo[m]) / safe[m] * math.pi if span[m] > 0 else 0.0
                ry = np.array([[math.cos(t / 2), -math.sin(t / 2)],
                               [math.sin(t / 2), math.cos(t / 2)]])
                vec = apply_unitary_vec(vec, ry, [m % q], q)
            if q == 2:
                vec = apply_unitary_vec(vec, cz, [0, 1], q)
            elif q > 2:
                for k in range(q):
                    vec = apply_unitary_vec(vec, cz, [k, (k + 1) % q], q)
            states[j] = vec.real
        return states

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 8, 9])
    def test_hard_gram_matches_gate_circuit(self, D):
        rng = np.random.default_rng(100 + D)
        X, Y = rng.standard_normal((D, 6)), rng.standard_normal((D, 4))
        X[0], Y[0] = 0.7, 0.7  # a zero-span feature
        both = np.hstack([X, Y])
        lo, span = both.min(axis=1), np.ptp(both, axis=1)
        expect = self._hard_states_by_gates(X, lo, span) @ self._hard_states_by_gates(Y, lo, span).T
        K = csa.kernel_matrix(X, Y, csa.KernelSpec("hard"))
        assert np.max(np.abs(K - expect)) <= 1e-12

    def test_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            csa.KernelSpec("rbf")

    def test_gram_matches_direct_loops(self):
        rng = np.random.default_rng(16)
        X, Y = rng.standard_normal((3, 4)), rng.standard_normal((3, 5))
        Kc = csa.kernel_matrix(X, Y, csa.KernelSpec("cosine"))
        Kp = csa.kernel_matrix(X, Y, csa.KernelSpec("polynomial", 3))
        for i in range(4):
            for j in range(5):
                assert Kc[i, j] == pytest.approx(
                    np.prod(np.cos(X[:, i] - Y[:, j])), abs=1e-12
                )
                assert Kp[i, j] == pytest.approx((X[:, i] @ Y[:, j]) ** 3, abs=1e-12)


def _kpca_weights(K, d):
    """Kernel-PCA weights W (n x d) with unit-norm feature components: the
    `kernel_pca` eigenvectors v_k scaled by 1 / sqrt(lambda_k)."""
    basis = csa.kernel_pca(K, d)
    return basis.P / np.sqrt(basis.eigenvalues)


class TestKernelPca:
    def test_weights_whiten_gram(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((4, 6))
        K = X.T @ X
        W = _kpca_weights(K, 2)
        Kc = K - K.mean(0) - K.mean(1)[:, None] + K.mean()
        assert np.allclose(W.T @ Kc @ W, np.eye(2), atol=1e-8)

    def test_identity_gram_degenerate(self):
        with pytest.raises((RankDeficiencyError, ConfigurationError)):
            csa.kernel_pca(np.eye(4), 4)

    def test_linear_kernel_reduces_to_pca(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((4, 10))
        X -= X.mean(axis=1, keepdims=True)
        W = _kpca_weights(X.T @ X, 2)
        Z = W.T @ (X.T @ X)  # kernel projections, d x n
        P = csa.pca_subspace(X, 2).P
        Zp = P.T @ X
        for k in range(2):  # sign-free comparison per component
            assert min(
                np.max(np.abs(Z[k] - Zp[k])), np.max(np.abs(Z[k] + Zp[k]))
            ) <= 1e-8


class TestKernelAlignment:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((3, 8))
        K = X.T @ X
        W = _kpca_weights(K, 2)
        Kc = K - K.mean(0) - K.mean(1)[:, None] + K.mean()
        M = csa.kernel_alignment(W, Kc, W)
        assert np.allclose(M, np.eye(2), atol=1e-8)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            csa.kernel_alignment(np.ones((4, 2)), np.ones((5, 4)), np.ones((4, 2)))

    def test_objective_minimized(self):
        rng = np.random.default_rng(20)
        source = center_columns(Domain(rng.standard_normal((3, 8))))[0]
        target = center_columns(Domain(rng.standard_normal((3, 8))))[0]
        fit = csa.kernel_sa_fit(source, target, csa.KernelSpec("cosine"), 2)
        M = fit.M_star
        # with whitened components the objective is |M|^2 - 2 tr(M^T M*) + d
        def objective(Mx):
            return np.sum(Mx**2) - 2.0 * np.sum(Mx * M)
        base = objective(M)
        for _ in range(100):
            delta = rng.standard_normal(M.shape)
            assert objective(M + 0.01 * delta / np.linalg.norm(delta)) >= base - 1e-12

    def test_fit_leaves_its_centered_domains_unchanged(self):
        # the harness passes the domains it centered in place; the fit reads
        # them and must not center or shift them again
        source, target = _centered_pair(SynthSpec(D=3, n_s=20, n_t=18, seed=7))
        before = source.samples.copy(), target.samples.copy()
        for kind in ("linear", "hard", "cosine", "polynomial"):
            csa.kernel_sa_fit(source, target, csa.KernelSpec(kind, 2), 2)
            assert source.samples.tobytes() == before[0].tobytes()
            assert target.samples.tobytes() == before[1].tobytes()

    @staticmethod
    def _gram_reference(fit, Xs, Xt, d):
        """The fit of the centered domains Xs, Xt through three full Gram
        matrices and `_kpca_weights`."""
        def gram(X, Y):
            return csa.kernel_matrix(X, Y, fit.spec, fit.feature_range)

        Kss, Ktt, Kst = gram(Xs, Xs), gram(Xt, Xt), gram(Xs, Xt)
        Ws, Wt = _kpca_weights(Kss, d), _kpca_weights(Ktt, d)
        M = csa.kernel_alignment(Ws, csa._double_center(Kst), Wt)
        return {
            "M_star": M, "Ws": Ws, "Wt": Wt,
            "Z_a": M.T @ (Ws.T @ csa._double_center(Kss)),
            "Z_t": Wt.T @ csa._double_center(Ktt),
        }

    @pytest.mark.parametrize("kind", ["linear", "hard"])
    @pytest.mark.parametrize("D", [1, 2, 3, 8, 9, 16])
    def test_feature_path_matches_gram_reference(self, kind, D):
        d = min(D, 2)
        for seed in range(5):
            source, target = _centered_pair(SynthSpec(D=D, n_s=40, n_t=35, seed=seed))
            fit = csa.kernel_sa_fit(source, target, csa.KernelSpec(kind), d)
            assert fit.path == "features"
            ref = self._gram_reference(fit, source, target, d)
            for name, expect in ref.items():
                # 1e-10 is far below any entry a sign flip would move
                assert np.max(np.abs(getattr(fit, name) - expect)) <= 1e-10, (seed, name)
            ys = source.visible_labels
            assert np.array_equal(
                csa.nn_classify(fit.Z_a, ys, fit.Z_t), csa.nn_classify(ref["Z_a"], ys, ref["Z_t"])
            )

    def test_hard_fit_memory_is_linear_in_n(self, monkeypatch):
        """At D=8, n_s = n_t = 3000 the fit builds no Gram matrix and runs no
        n x n eigensolver; one 3000 x 3000 Gram alone is 69 MiB."""
        source, target = _centered_pair(SynthSpec(D=8, n_s=3000, n_t=3000, seed=0))

        def refuse(*args, **kwargs):
            raise AssertionError("the hard-kernel fit must not take the Gram path")

        for name in ("kernel_matrix", "kernel_pca"):
            monkeypatch.setattr(csa, name, refuse)
        tracemalloc.start()
        try:
            fit = csa.kernel_sa_fit(source, target, csa.KernelSpec("hard"), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.Z_a.shape == (2, 3000)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("kind", ["linear", "hard", "cosine"])
    def test_constant_source_is_rank_deficient(self, kind):
        rng = np.random.default_rng(21)
        constant = np.tile(rng.standard_normal((3, 1)), (1, 10))
        source = center_columns(Domain(constant, np.arange(10) % 2))[0]
        target = center_columns(Domain(rng.standard_normal((3, 12))))[0]
        with pytest.raises(RankDeficiencyError):
            csa.kernel_sa_fit(source, target, csa.KernelSpec(kind), 1)

    def test_fit_exposes_spectrum_at_the_cut(self):
        source, target = _centered_pair(SynthSpec(D=3, n_s=30, n_t=25, seed=2))
        for kind, dims in (("hard", (4, 4)), ("linear", (3, 3)), ("cosine", (30, 25))):
            fit = csa.kernel_sa_fit(source, target, csa.KernelSpec(kind), 2)
            for basis, dim, X in ((fit.basis_s, dims[0], source), (fit.basis_t, dims[1], target)):
                assert basis.P.shape == (dim, 2)
                K = csa.kernel_matrix(X, X, fit.spec, fit.feature_range)
                w = np.sort(np.linalg.eigvalsh(csa._double_center(K)))[::-1]
                assert np.allclose(basis.eigenvalues, w[:2], atol=1e-10)
                assert basis.gap == pytest.approx(w[1] - w[2], abs=1e-10)

    def test_degenerate_kernel_spectrum_warns(self):
        # four points on a square (centered): a double eigenvalue at the cut d=1
        square = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
        fit = csa.kernel_sa_fit(Domain(square, np.array([0, 0, 1, 1])), Domain(square),
                                csa.KernelSpec("linear"), 1)
        assert len(fit.warnings) == 2
        assert fit.warnings[0].startswith("source: degenerate subspace")

    def test_linear_reduction_predictions(self):
        for seed in range(5):
            spec = SynthSpec(D=3, n_s=20, n_t=20, seed=seed)
            source, target = synth_shifted_gaussians(spec)
            sc, _ = center_columns(source)
            tc, _ = center_columns(target)
            Ps = csa.pca_subspace(sc, 2)
            Pt = csa.pca_subspace(tc, 2)
            art = csa.build_alignment(Ps, Pt, sc, tc)
            plain = csa.nn_classify(art.X_hat_a, sc.visible_labels, art.X_hat_t)
            fit = csa.kernel_sa_fit(sc, tc, csa.KernelSpec("linear"), 2)
            kern = csa.nn_classify(fit.Z_a, sc.visible_labels, fit.Z_t)
            assert np.array_equal(plain, kern)
