import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gate_oracle import (
    ValidationError,
    _durr_hoyer_once,
    ae_distribution,
    build_g_operator,
    build_phi1,
    column_state,
    density_exponentiation,
    partial_trace,
    phase_estimation,
    probabilities,
    swap_test,
    swap_test_rng,
    trace_distance,
)
from subalign import classical_sa as csa
from subalign import quantum_core
from subalign import quantum_sa as qsa
from subalign.datasets import Domain
from subalign.errors import ConfigurationError, RangeError
from subalign.quantum_core import (
    BLOCK_ELEMENTS,
    MAX_AE_QUBITS,
    MAX_GROVER_N,
    SEARCH_SLOTS,
    ShotPlan,
    _sort_tables,
    amplitude_estimation,
    grover_min_find,
    pe_outcome_kernel,
    pe_readout,
    signed_overlap,
)

EXACT = ShotPlan()


def _random_state(rng, q):
    v = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
    return v / np.linalg.norm(v)


def _random_density(rng, q):
    B = rng.standard_normal((2**q, 2**q)) + 1j * rng.standard_normal((2**q, 2**q))
    R = B @ B.conj().T
    return R / np.trace(R).real


class TestExports:
    def test_all_lists_engine_and_shot_plan(self):
        engine = {
            "pe_outcome_kernel", "pe_readout", "amplitude_estimation", "signed_overlap",
            "grover_min_find",
        }
        assert set(quantum_core.__all__) == engine | {"ShotPlan"}


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = _random_state(rng, 1)
        b = _random_state(rng, 1)
        rho = partial_trace(np.kron(a, b), (2, 2), 1)
        assert np.allclose(rho, np.outer(a, a.conj()), atol=1e-12)

    def test_bell_state(self):
        amps = np.array([1, 0, 0, 1]) / math.sqrt(2)
        for reg in (0, 1):
            rho = partial_trace(amps, (2, 2), reg)
            assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_covariance_state(self):
        # the identity qPCA forms its input from: tracing the index register
        # out of the column encoding leaves X X^T / ||X||_F^2
        rng = np.random.default_rng(1)
        X = rng.standard_normal((2, 4))
        rho = partial_trace(column_state(X), (4, 2), 0)
        expect = X @ X.T / np.sum(X * X)
        assert np.max(np.abs(rho - expect)) <= 1e-12

    def test_purity_bound(self):
        rng = np.random.default_rng(2)
        rho = partial_trace(_random_state(rng, 3), (4, 2), 1)
        assert np.trace(rho @ rho).real <= 1 + 1e-10


class TestPhaseEstimation:
    def test_z_on_one(self):
        out = phase_estimation(np.diag([1.0, -1.0]), [0.0, 1.0], 3)
        probs = probabilities(out)
        assert probs[4] == pytest.approx(1.0, abs=1e-12)  # "100" = phase 1/2

    def test_eighth_turn(self):
        U = np.diag([1.0, np.exp(1j * math.pi / 4)])
        out = phase_estimation(U, [0.0, 1.0], 3)
        assert probabilities(out)[1] == pytest.approx(1.0, abs=1e-12)

    def test_off_lattice_matches_kernel(self):
        U = np.diag([1.0, np.exp(2j * math.pi / 3)])
        out = phase_estimation(U, [0.0, 1.0], 5)
        probs = probabilities(out)
        expect = pe_outcome_kernel(1.0 / 3.0, 5)
        assert np.max(np.abs(probs - expect)) <= 1e-10
        assert np.argmax(probs) == round(32 / 3) % 32

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            phase_estimation(np.ones((2, 2)), [1.0, 0.0], 3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 7), st.integers(2, 4))
    def test_lattice_eigenphase_deterministic(self, k, n):
        k = k % 2**n
        U = np.diag([np.exp(2j * math.pi * k / 2**n), 1.0])
        out = phase_estimation(U, [1.0, 0.0], n)
        assert probabilities(out)[k] == pytest.approx(1.0, abs=1e-10)


class TestDensityExponentiation:
    def test_time_zero(self):
        rng = np.random.default_rng(3)
        rho, sigma = _random_density(rng, 1), _random_density(rng, 1)
        out = density_exponentiation(rho, sigma, 0.0, 4)
        assert np.max(np.abs(out - sigma)) <= 1e-10

    def test_maximally_mixed_generator(self):
        rng = np.random.default_rng(4)
        rho = np.eye(2) / 2
        sigma = _random_density(rng, 1)
        out = density_exponentiation(rho, sigma, 1.0, 64)
        assert np.max(np.abs(out - sigma)) <= 1e-2

    def test_error_decays_inverse_l(self):
        rng = np.random.default_rng(5)
        rho, sigma = _random_density(rng, 1), _random_density(rng, 1)
        U = scipy.linalg.expm(-1j * rho)
        exact = U @ sigma @ U.conj().T
        errs = []
        for l in [2, 4, 8, 16, 32, 64]:
            out = density_exponentiation(rho, sigma, 1.0, l)
            errs.append(trace_distance(out, exact))
        # monotone non-increasing and ~1/l decay
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
        slope = np.polyfit(np.log([2, 4, 8, 16, 32, 64]), np.log(errs), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_zero_slices_rejected(self):
        rng = np.random.default_rng(6)
        rho = _random_density(rng, 1)
        with pytest.raises(ConfigurationError):
            density_exponentiation(rho, rho, 1.0, 0)


class TestSwapTest:
    def test_self_overlap(self):
        rng = np.random.default_rng(7)
        a = _random_state(rng, 2)
        assert swap_test(a, a, EXACT) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert swap_test(a, b, EXACT) == pytest.approx(0.0, abs=1e-15)
        sampled = swap_test(a, b, ShotPlan(shots=4096, seed=0, mode="sampled"))
        assert abs(sampled) <= 3 * math.sqrt(0.25 / 4096) * 2 + 1e-9

    def test_plus_against_zero(self):
        a = np.array([1.0, 1.0]) / math.sqrt(2)
        b = np.array([1.0, 0.0])
        assert swap_test(a, b, EXACT) == pytest.approx(0.5, abs=1e-12)

    def test_hundred_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = _random_state(rng, 2), _random_state(rng, 2)
            direct = abs(np.vdot(a, b)) ** 2
            assert abs(swap_test(a, b, EXACT) - direct) <= 1e-12


def _lattice_readout(k, m):
    return np.sin(np.pi * np.minimum(k, 2**m - k) / 2**m) ** 2


def _folded(rows, m):
    """Outcome distributions over k = 0..2^m-1 folded onto k = 0..2^(m-1):
    outcomes k and 2^m - k read out the same amplitude."""
    N = 2**m
    folded = rows[..., : N // 2 + 1].copy()
    folded[..., 1 : N // 2] += rows[..., : N // 2 : -1]
    return folded


def _plus_branch(amps, m):
    """The +theta/pi branch of AE, sin^2(theta) = amp: its phase-estimation
    outcome distribution over k = 0..2^m-1."""
    return pe_outcome_kernel(np.arcsin(np.sqrt(amps)) / math.pi, m)


def _argmax_readout(amps, m):
    """The folded most probable outcome of the +theta/pi branch's full
    distribution, in blocks of about 2^16 outcome probabilities. At a lattice
    midpoint both neighbours are most probable, and the one nearer the
    float phase, rounding half to even as `pe_readout` does, stands."""
    N = 2**m
    phase = np.arcsin(np.sqrt(amps)) / math.pi * N
    blocks = np.array_split(np.arange(amps.size), max(1, amps.size * N // 2**16))
    k = np.concatenate([np.argmax(_plus_branch(amps[b], m), axis=-1) for b in blocks])
    midpoint = np.abs(phase - np.floor(phase) - 0.5) < 1e-9
    k[midpoint] = np.round(phase[midpoint])
    return _lattice_readout(k, m)


class TestAmplitudeEstimation:
    def test_lattice_value_exact(self):
        m = 5
        amp = math.sin(math.pi * 3 / 2**m) ** 2
        assert amplitude_estimation([amp], m)[0] == pytest.approx(amp, abs=1e-12)

    def test_zero_amplitude(self):
        assert amplitude_estimation([0.0], 6)[0] == pytest.approx(0.0, abs=1e-12)

    def test_error_bound_frequency(self):
        m = 8
        bound = math.pi / 2**m + math.pi**2 / 2 ** (2 * m)
        hits = 0
        for seed in range(200):
            est = amplitude_estimation([0.3], m, np.random.default_rng(seed))[0]
            hits += abs(est - 0.3) <= bound
        assert hits / 200 >= 0.81

    def test_bad_projector(self):
        s, c = math.sqrt(0.3), math.sqrt(0.7)
        prep = np.array([[c, -s], [s, c]])
        with pytest.raises(ValidationError):
            ae_distribution(prep, np.array([[1.0, 1.0], [0.0, 0.0]]), 4)

    def test_amplitude_outside_unit_interval_rejected(self):
        with pytest.raises(RangeError):
            amplitude_estimation([0.5, 1.5], 4)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_nan_amplitude_rejected(self, sampled):
        rng = np.random.default_rng(0) if sampled else None
        with pytest.raises(RangeError):
            amplitude_estimation([0.5, np.nan], 7, rng)

    def test_exact_error_follows_pi_over_2_to_the_m(self):
        """The exact readout sits at most half a lattice step, pi/2^(m+1),
        from theta, and d(sin^2 theta)/d theta = sin(2 theta) <= 1, so the
        worst error e_m over amplitudes has 2^m e_m <= pi/2. Near amplitude
        1/2 the slope is 1, so from m = 4 on 2^m e_m stays within 0.07 of
        pi/2 (1.525, 1.560, then 1.568 and up on a 20 001-point grid): the
        error halves with each added qubit."""
        grid = np.linspace(0.0, 1.0, 20_001)
        for m in range(1, MAX_AE_QUBITS + 1):
            scaled = 2**m * np.max(np.abs(amplitude_estimation(grid, m) - grid))
            assert scaled <= math.pi / 2
            if m >= 4:
                assert scaled >= 1.5

    @pytest.mark.parametrize("m", range(1, MAX_AE_QUBITS + 1))
    def test_exact_readouts_are_lattice_points(self, m):
        # outcomes k and 2^m - k are one lattice point; round-off must not
        # split it into values an ulp apart
        grid = np.linspace(0.0, 1.0, 4001)
        est = amplitude_estimation(grid, m)
        assert np.unique(est).size <= 2 ** (m - 1) + 1
        # and each is the folded most probable outcome of the +theta/pi branch
        assert np.array_equal(est, _argmax_readout(grid, m))

    def test_exact_readout_memory(self):
        amps = np.random.default_rng(3).random(10**5)
        tracemalloc.start()
        try:
            amplitude_estimation(amps, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * amps.nbytes + 64 * 1024

    def test_sampled_folded_law(self):
        """Sampled readouts follow the folded law of the +theta/pi branch:
        every lattice value's frequency over 20 000 draws lies within 5
        sigma of its probability, sigma floored at one draw. Amplitudes near
        either end of the lattice put much of the unfolded law above 2^(m-1),
        so a wrong fold moves whole lattice values."""
        m, draws = 5, 20_000
        N = 2**m
        amps = np.sin(np.pi * np.array([0.3, 15.7, 7.5]) / N) ** 2
        est = amplitude_estimation(np.repeat(amps, draws), m, np.random.default_rng(7))
        k = np.round(np.arcsin(np.sqrt(est)) / math.pi * N).astype(int).reshape(amps.size, draws)
        assert np.array_equal(_lattice_readout(k, m), est.reshape(amps.size, draws))
        freq = np.array([np.bincount(row, minlength=N // 2 + 1) for row in k]) / draws
        law = _folded(_plus_branch(amps, m), m)
        sigma = np.maximum(np.sqrt(law * (1.0 - law) / draws), 1.0 / draws)
        assert np.all(np.abs(freq - law) <= 5 * sigma)

    def test_sampled_draws_one_outcome_per_entry(self):
        amps = np.random.default_rng(5).uniform(0.0, 1.0, (20, 10))
        est = amplitude_estimation(amps, 4, np.random.default_rng(0))
        assert est.shape == (20, 10)
        # blocking does not change the draws: entry i takes the i-th draw
        rng = np.random.default_rng(0)
        one_by_one = [amplitude_estimation([a], 4, rng)[0] for a in amps.ravel()]
        assert np.array_equal(est.ravel(), one_by_one)
        assert np.unique(amplitude_estimation(np.full(200, 0.3), 4, rng)).size > 1

    def test_sampled_blocks_draw_like_single_entries(self):
        # 300 entries span three sampled blocks at m = 7, the last one short
        amps = np.random.default_rng(6).uniform(0.0, 1.0, 300)
        assert amps.size > 2 * (BLOCK_ELEMENTS // 2)
        est = amplitude_estimation(amps, 7, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        one_by_one = [amplitude_estimation([a], 7, rng)[0] for a in amps]
        assert np.array_equal(est, one_by_one)

    @pytest.mark.parametrize("m, head, tail, weighted", [
        (4, [5, 6, 4, 3, 1, 3, 3, 1, 1, 8], [4, 2, 8, 6, 2, 2, 5, 6, 7, 1], 292_942),
        (10, [363, 364, 261, 184, 76, 218, 226, 70, 73, 504],
         [246, 166, 414, 399, 119, 156, 309, 369, 446, 48], 18_949_207),
    ])
    def test_sampled_draws_are_pinned(self, m, head, tail, weighted):
        """Three sampled blocks and five entries more, amplitudes and draws
        from one default_rng(5): the folded outcomes k match the ones AE drew
        with a loop of its own, before its draws moved into `pe_readout`.
        The first and last ten are pinned, and all of them through the sum
        of k_i i over i = 1.., so a draw taken out of entry order fails."""
        size = 3 * (BLOCK_ELEMENTS // 2) + 5
        rng = np.random.default_rng(5)
        amps = rng.random(size)
        est = amplitude_estimation(amps, m, rng)
        k = np.round(np.arcsin(np.sqrt(est)) / math.pi * 2**m).astype(np.int64)
        assert np.array_equal(_lattice_readout(k, m), est)
        assert k[:10].tolist() == head and k[-10:].tolist() == tail
        assert int(np.sum(k * np.arange(1, size + 1))) == weighted

    def test_sampled_draws_follow_c_entry_order(self):
        """A Fortran-ordered input draws as its C-ordered copy does."""
        amps = np.random.default_rng(8).random((30, 20))
        est = amplitude_estimation(np.asfortranarray(amps), 6, np.random.default_rng(3))
        assert np.array_equal(est, amplitude_estimation(amps, 6, np.random.default_rng(3)))


class TestSignedOverlap:
    def test_exact_returns_overlaps(self):
        re = np.array([[0.25, -1.0], [0.0, 1.0]])
        assert np.array_equal(signed_overlap(re, 16), re)

    def test_sampled_within_shot_noise(self):
        re = np.linspace(-1.0, 1.0, 101)
        shots = 4096
        est = signed_overlap(re, shots, np.random.default_rng(1))
        sigma = np.sqrt(np.maximum(1.0 - re**2, 1e-12) / shots)
        assert np.all(np.abs(est - re) <= 5 * sigma + 1e-9)
        assert np.unique(est[40:61]).size > 1


class TestPeReadout:
    @staticmethod
    def _qsvm_phases():
        """Eigenphases lambda t0 / 2 pi of the Hermitian embedding
        [[0, F], [F^T, 0]] / tr F of an LS-SVM matrix F, the operator HHL
        inverts: +-sigma 0.25 / sigma_max for the singular values sigma of
        F, so half of them are negative. `q_svm_train` reads out the
        positive half."""
        rng = np.random.default_rng(40)
        dom = Domain(rng.standard_normal((3, 9)), np.array([1, -1] * 4 + [1]))
        c, B, C, _ = csa.ls_svm_system(dom, np.eye(3), 1.0)
        F = c * np.eye(10) + B @ C.T
        zero = np.zeros((10, 10))
        lam = np.linalg.eigvalsh(np.block([[zero, F], [F.T, zero]]) / np.trace(F))
        return lam * 0.25 / np.max(np.abs(lam))

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_is_most_probable_outcome_mod_one(self, n):
        qsvm = self._qsvm_phases()
        assert np.sum(qsvm < 0) == 10
        phases = np.concatenate([np.random.default_rng(41 + n).uniform(-1.0, 1.0, 300), qsvm])
        N = 2**n
        k = np.argmax(pe_outcome_kernel(phases, n), axis=-1)
        read = pe_readout(phases, n)
        assert np.array_equal(np.mod(read * N, N), k)
        assert np.all(np.abs(read - phases) <= 0.5 / N)

    def test_sampled_register_is_bounded(self, monkeypatch):
        """A sampled readout builds a 2^n-entry row per phase, so n above
        MAX_AE_QUBITS is rejected before a row is built or a draw taken. The
        nearest-point readout takes any n: the qSVM's derived register
        reaches 48 qubits, where phase 2^n stays exact in float64."""
        def no_rows(phases, n):
            raise AssertionError("a row was built")

        monkeypatch.setattr(quantum_core, "pe_outcome_kernel", no_rows)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match=f"at most {MAX_AE_QUBITS} qubits"):
            pe_readout([0.1, 0.2], MAX_AE_QUBITS + 1, rng)
        assert rng.random() == np.random.default_rng(0).random()
        phases = np.array([0.1, 0.25 / 3.0, 2.0**-47, 0.25])
        assert np.array_equal(pe_readout(phases, 48), np.round(phases * 2**48) / 2**48)


class TestEngineAgainstGateOracle:
    """The spectral engine's outcome distributions against the circuits
    they stand for (tests/gate_oracle.py), within 1e-12."""

    def test_kernel_rows_match_single_phase_calls(self):
        phases = np.random.default_rng(11).uniform(-1.0, 1.0, 40)
        rows = pe_outcome_kernel(phases, 6)
        assert rows.shape == (40, 64)
        for p, row in zip(phases, rows):
            assert np.array_equal(row, pe_outcome_kernel(p, 6))

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_ae_matches_grover_iterate_phase_estimation(self, m):
        amps = np.random.default_rng(12 + m).uniform(0.0, 1.0, 50)
        plus = _plus_branch(amps, m)
        theta = np.arcsin(np.sqrt(amps))
        # the Grover iterate's eigenphases +-theta/pi, weighted equally
        law = 0.5 * (plus + pe_outcome_kernel(-theta / math.pi, m))
        for amp, row, branch in zip(amps, law, plus):
            s, c = math.sqrt(amp), math.sqrt(1.0 - amp)
            prep = np.array([[c, -s], [s, c]])
            circuit = ae_distribution(prep, np.diag([0.0, 1.0]), m)
            assert np.max(np.abs(circuit - row)) <= 1e-12
            # folded, the circuit's law is the +theta/pi branch's alone,
            # the law a sampled readout draws from
            assert np.max(np.abs(_folded(circuit, m) - _folded(branch, m))) <= 1e-12
        # the exact readout is that branch's most probable outcome
        expect = _lattice_readout(np.argmax(plus, axis=-1), m)
        assert np.array_equal(amplitude_estimation(amps, m), expect)

    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_qpca_outcomes_match_density_exponentiation_phase_estimation(self, n):
        rng = np.random.default_rng(20 + n)
        X = rng.standard_normal((3, 6))
        X -= X.mean(axis=1, keepdims=True)
        res = qsa.qpca(csa.scatter_spectrum(X), 2, precision_qubits=n)
        rho = partial_trace(column_state(X), X.shape[::-1], 0)
        # exp(i rho t0) is what density-matrix exponentiation applies; each
        # basis vector is an eigenvector of rho, so its phase estimation
        # peaks at the vector's outcome with the reported probability
        U = scipy.linalg.expm(1j * rho * 0.95 * math.pi)
        for u, k, p in zip(res.basis.P.T, res.outcomes, res.readout_probabilities):
            circuit = probabilities(phase_estimation(U, u, n))
            assert np.argmax(circuit) == k
            assert abs(circuit[k] - p) <= 1e-12

    def test_g_operator_matches_two_peak_distribution(self):
        rng = np.random.default_rng(30)
        for m in (3, 5, 7):
            for _ in range(5):
                u = rng.standard_normal(4)
                u /= np.linalg.norm(u)
                v = rng.standard_normal(4)
                v /= np.linalg.norm(v)
                theta = qsa.overlap_angle(float(u @ v))
                circuit = probabilities(phase_estimation(build_g_operator(u, v), build_phi1(u, v), m))
                peaks = 0.5 * (
                    pe_outcome_kernel(theta / math.pi, m) + pe_outcome_kernel(-theta / math.pi, m)
                )
                assert np.max(np.abs(circuit - peaks)) <= 1e-12


def _search(values, rng, repeats=1):
    """`grover_min_find` on the sort tables of a value matrix, as
    `q_nn_classify` calls it."""
    return grover_min_find(_sort_tables(np.asarray(values, dtype=float)), rng, repeats)


class TestGroverMinFind:
    def test_singleton(self):
        assert _search([[5.0]], EXACT.rng("min_find")).index[0] == 0

    def test_single_run_success_rate(self):
        hits = 0
        for seed in range(400):
            plan = ShotPlan(seed=seed, mode="sampled")
            hits += _search([[3.0, 1.0, 2.0]], plan.rng("min_find")).index[0] == 1
        assert hits / 400 >= 0.5

    def test_repeats_find_argmin_with_bounded_queries(self):
        rng = np.random.default_rng(9)
        budget = math.ceil(22.5 * math.sqrt(64) + 1.4 * math.log2(64) ** 2)
        for trial in range(100):
            values = rng.standard_normal(64)
            plan = ShotPlan(seed=trial, mode="sampled")
            stats = _search(values[None], plan.rng("min_find"), repeats=20)
            assert stats.index[0] == int(np.argmin(values))
            assert stats.oracle_queries <= 20 * budget

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            _sort_tables(np.empty((1, 0)))


def _min_find_rng(seed):
    """The generator `q_nn_classify` hands its searches under a plan of
    this seed."""
    return ShotPlan(seed=seed).rng("min_find")


def _budget(N):
    return math.ceil(22.5 * math.sqrt(N) + 1.4 * math.log2(max(N, 2)) ** 2)


class TestLockstepMinFind:
    @pytest.mark.parametrize("N", [15, 64])
    def test_query_distribution_matches_oracle(self, N):
        """10^4 single searches of the lockstep engine against 10^4 runs of
        the one-search-at-a-time oracle, on the same standard-normal rows.

        Mean: the two sample means are independent, so their difference has
        standard error se = sqrt(var_e/n + var_o/n); allow 5 se (a two-sided
        false alarm of about 6e-7 for a correct engine).
        95th percentile: q is the engine's, the smallest count whose
        empirical CDF reaches 0.95. Each empirical CDF value near the 95th
        percentile has standard error sqrt(0.95 * 0.05 / n), so if both
        samples come from one distribution the oracle's CDF differs from the
        engine's at any count by at most tol = 5 sqrt(2 * 0.95 * 0.05 / n):
        the oracle's CDF is at least 0.95 - tol at q and at most 0.95 + tol
        just below q.
        """
        n = 10_000
        rows = np.random.default_rng(N).standard_normal((n, N))
        stats = _search(rows, _min_find_rng(1))
        engine = stats.target_queries
        rng = np.random.default_rng(2)
        oracle = np.array([_durr_hoyer_once(row, rng)[1] for row in rows])
        se = math.sqrt(engine.var() / n + oracle.var() / n)
        assert abs(engine.mean() - oracle.mean()) <= 5 * se
        q = np.quantile(engine, 0.95, method="inverted_cdf")
        tol = 5 * math.sqrt(2 * 0.95 * 0.05 / n)
        assert np.mean(oracle <= q) >= 0.95 - tol
        assert np.mean(oracle < q) <= 0.95 + tol
        assert engine.max() <= _budget(N)

    def test_pool_refills_and_seeding(self):
        """Eight pool loads and more: every search enters, finishes and is
        folded into its own row, and the draws follow the seed alone."""
        repeats, N = 15, 15
        T = 8 * SEARCH_SLOTS // repeats + 7
        assert T * repeats >= 8 * SEARCH_SLOTS
        rows = np.random.default_rng(12).standard_normal((T, N))
        stats = _search(rows, _min_find_rng(3), repeats)
        assert np.array_equal(stats.index, np.argmin(rows, axis=1))
        assert isinstance(stats.oracle_queries, int)
        assert stats.oracle_queries == int(stats.target_queries.sum())
        assert stats.target_queries.shape == (T,)
        assert stats.target_queries.max() <= repeats * _budget(N)
        again = _search(rows, _min_find_rng(3), repeats)
        for field in ("index", "oracle_queries", "target_queries"):
            assert np.array_equal(getattr(again, field), getattr(stats, field))
        other = _search(rows, _min_find_rng(4), repeats)
        assert not np.array_equal(other.target_queries, stats.target_queries)

    @pytest.mark.parametrize(
        "T, N",
        [(200, 15), (2_000, 15), (10_000, 15), (16, MAX_GROVER_N)],
        ids=["200", "2000", "10000", f"16-{MAX_GROVER_N}"],
    )
    def test_memory_is_bounded_by_the_input(self, T, N):
        """The sort tables and the search together: the tables take 4 bytes
        per entry (half of ``values``), the pool a fixed few tens of KiB:
        holding all T * repeats searches at once would need 32 bytes per
        search (four int64 fields), 4.6 MiB at T = 10^4. At N = MAX_GROVER_N
        the Grover angles take 256 KiB; a table of the hit chance of every
        (marked count, iterations) pair would take 45.75 MiB."""
        values = np.random.default_rng(T).standard_normal((T, N))
        rng = _min_find_rng(0)
        tracemalloc.start()
        try:
            _search(values, rng, repeats=15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 128 * 1024

    @pytest.mark.parametrize(
        "N, seed, repeats, queries, target_queries",
        [
            (15, 7, 3, 138, [18, 19, 14, 19, 17, 17, 21, 13]),
            (64, 8, 1, 181, [7, 41, 8, 40, 46, 30, 3, 6]),
            (4096, 9, 1, 1378, [137, 378, 179, 87, 115, 226, 116, 140]),
            (32767, 10, 1, 4588, [888, 267, 528, 306, 733, 975, 355, 536]),
        ],
    )
    def test_draws_are_pinned(self, N, seed, repeats, queries, target_queries):
        """Fixed searches with their outcomes pinned: a change in the number
        or order of the draws, or in a hit chance, shows here, up to N =
        MAX_GROVER_N."""
        rows = np.random.default_rng(N).standard_normal((8, N))
        stats = _search(rows, _min_find_rng(seed), repeats)
        assert np.array_equal(stats.index, np.argmin(rows, axis=1))
        assert stats.oracle_queries == queries
        assert stats.target_queries.tolist() == target_queries

    def test_queries_grow_as_sqrt_n(self):
        """Mean oracle queries of one search on uniform rows scale as
        sqrt(N) (the Durr-Hoyer bound): the log-log slope over
        N = 16..16384 lies within 0.5 +- 0.1."""
        sizes = [16, 64, 256, 1024, 4096, 16384]
        rng = np.random.default_rng(15)
        means = []
        for N in sizes:
            stats = _search(rng.random((64, N)), _min_find_rng(N))
            means.append(stats.target_queries.mean())
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
        assert abs(slope - 0.5) <= 0.1

    def test_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((40, 15))
        for row in rows:
            first, second = np.sort(rng.choice(15, size=2, replace=False))
            row[first] = row[second] = row.min() - 1.0
        index = _search(rows, _min_find_rng(4), repeats=15).index
        assert np.array_equal(index, np.argmin(rows, axis=1))

    def test_a_single_search_keeps_the_lowest_tied_index(self):
        """With one search per row (repeats=1) the index kept is the lowest
        one holding its value, wherever in the tie group the search's last
        threshold fell: [1, 1, 2] gives 0 under every seed, and rows of
        small integers, most with a tied minimum, keep their first."""
        for seed in range(200):
            assert _search([[1.0, 1.0, 2.0]], _min_find_rng(seed)).index[0] == 0
        rows = np.random.default_rng(17).integers(0, 4, (2_000, 15)).astype(float)
        index = _search(rows, _min_find_rng(6)).index
        kept = rows[np.arange(len(rows)), index]
        assert np.array_equal(index, np.argmax(rows == kept[:, None], axis=1))

    def test_sort_tables_hold_the_int16_limit(self):
        """At N = MAX_GROVER_N, the int16 maximum, a row with ties still
        sorts: ``order`` is a permutation of its entries, and ``below``
        counts the entries strictly below each sorted one."""
        N = MAX_GROVER_N
        assert N == np.iinfo(np.int16).max
        row = np.random.default_rng(16).integers(0, 1000, N).astype(float)
        order, below = _sort_tables(row[None])
        assert order.dtype == below.dtype == np.int16
        assert np.array_equal(np.sort(order[0]), np.arange(N))
        ranked = row[order[0]]
        assert np.all(np.diff(ranked) >= 0)
        assert np.array_equal(below[0], np.searchsorted(np.sort(row), ranked, side="left"))

    def test_rows_past_the_limit_are_rejected(self):
        with pytest.raises(ConfigurationError, match=f"N capped at {MAX_GROVER_N}"):
            _sort_tables(np.zeros((1, MAX_GROVER_N + 1)))

    def test_budget_holds_when_no_run_hits(self):
        """With every hit test failing, each search runs until its budget is
        spent; its last Grover run is cut so it never exceeds the budget."""

        class NeverHits:
            def __init__(self, gen):
                self.gen = gen

            def integers(self, *args, **kwargs):
                return self.gen.integers(*args, **kwargs)

            def random(self, size=None):
                return np.ones(size)

        N = 64
        rows = np.random.default_rng(14).standard_normal((300, N))
        stats = _search(rows, NeverHits(_min_find_rng(5)))
        assert set(np.unique(stats.target_queries)) == {0, _budget(N)}


class TestShotPlanStreams:
    KEYS = [("nn_distances", 0), ("nn_distances", 1), ("min_find",), ("svm_decisions",)]

    def test_stages_draw_from_distinct_streams(self):
        # default_rng(s), default_rng([s]) and default_rng([s, 0]) coincide,
        # so streams keyed that way would repeat each other's shot noise; the
        # gate-level oracle's swap test draws from a stream of its own
        for seed in range(10):
            plan = ShotPlan(shots=64, seed=seed, mode="sampled")
            first = [plan.rng(*key).random() for key in self.KEYS] + [swap_test_rng(plan).random()]
            assert len(set(first)) == len(first)
            assert np.random.default_rng(seed).random() not in first
            assert plan.rng("nn_distances", 1).random() == first[1]

    def test_key_width_is_fixed_per_stage(self):
        plan = ShotPlan(seed=0, mode="sampled")
        for key in [("nn_distances",), ("min_find", 0), ("bogus",)]:
            with pytest.raises(ConfigurationError):
                plan.rng(*key)

