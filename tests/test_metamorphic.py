"""Metamorphic relations: changes of the input whose effect on the output is
known exactly, so each check needs no tolerance.

- SA reads the data only through inner products (PCA, M* and the
  projections), and so does the quantum pipeline, through overlaps; each
  domain is centered first. So a common map x -> Ux + c of both domains, U
  orthogonal, changes no accuracy row and no parity pass flag on the
  classical track, the quantum track in exact mode, and the linear and
  polynomial kernel tracks. The cosine and hard kernels act per coordinate,
  so they are left out.
  That holds in sampled mode too, whose draws are keyed by position.
- The LS-SVM system F (b, alpha) = (0, y) is linear in y, so y -> -y
  negates every decision value of `svm_train` and `q_svm_train` exactly,
  and with it every label whose decision is not exactly 0.
- A permutation of both domains' samples moves every classical NN label
  with its target. An exact-mode quantum NN label stays with its target
  wherever its record has no warning: its distance estimates are the same
  numbers, so only a tie between sources of different labels, which the
  warning flags, lets the search return another label.
- Scaling both domains by a power of two is exact in floating point, and
  1-NN reads only the order of distances, so it changes no NN accuracy row
  on the classical track, the quantum track in exact and sampled mode, and
  the linear, polynomial (homogeneous) and hard (min-max rescaled) kernel
  tracks. The cosine kernel is periodic in each coordinate, so it is left
  out. The SVM rows are left out too: the LS-SVM at one gamma is not
  scale-invariant.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalign import classical_sa as csa
from subalign import quantum_sa as qsa
from subalign.datasets import (
    Domain,
    DomainShift,
    SynthSpec,
    center_columns_in_place,
    save_csv,
    synth_shifted_gaussians,
)
from subalign.errors import SubalignError
from subalign.harness import parse_config_text, run
from subalign.quantum_core import ShotPlan

PROFILE = settings(derandomize=True, max_examples=50, deadline=None)


def _report_rows(folder, source, target, d, extra):
    """Accuracy rows and parity pass flags of one ``track = both`` run on the
    two domains, written as CSV and read back the way a user's files are;
    ``extra`` holds the run's further config lines."""
    folder.mkdir()
    for name, dom in (("s.csv", source), ("t.csv", target)):
        save_csv(dom, str(folder / name))
    report = run(parse_config_text(
        f"dataset.source_csv = {folder / 's.csv'}\ndataset.target_csv = {folder / 't.csv'}\n"
        f"dataset.label_column = {source.dim + 1}\nd = {d}\nseeds = 0\ntrack = both\n"
        f"{extra}output_dir = {folder}\n",
        environ={},
    ))
    accuracy = [(r["track"], r["classifier"], r["accuracy"]) for r in report.accuracy]
    return accuracy, [(r["quantity"], r["pass"]) for r in report.parity]


@PROFILE
@given(
    seed=st.integers(0, 2**16),
    D=st.integers(3, 6),
    n_s=st.integers(8, 16),
    n_t=st.integers(8, 24),
    d=st.integers(1, 3),
    kernel=st.sampled_from(["kernel.kind = linear\n", "kernel.kind = polynomial\nkernel.degree = 2\n"]),
    exact_theta=st.booleans(),
)
def test_rotation_and_translation_change_no_row(tmp_path_factory, seed, D, n_s, n_t, d, kernel,
                                                exact_theta):
    spec = SynthSpec(D=D, n_s=n_s, n_t=n_t, seed=seed, domain_shift=DomainShift(rotation_angle=0.8))
    source, target = synth_shifted_gaussians(spec)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((D, D)))[0]
    c = rng.normal(0.0, 3.0, (D, 1))
    moved = [replace(dom, samples=U @ dom.samples + c) for dom in (source, target)]
    folder = tmp_path_factory.mktemp("relation")
    extra = f"classifier = both\n{kernel}quantum.exact_theta = {exact_theta}\n"
    before = _report_rows(folder / "as-drawn", source, target, d, extra)
    after = _report_rows(folder / "moved", *moved, d, extra)
    assert {row[0] for row in before[0]} == {"classical", "quantum", "kernel"}
    assert after == before


@PROFILE
@given(
    seed=st.integers(0, 2**16),
    D=st.integers(3, 6),
    n_s=st.integers(8, 16),
    n_t=st.integers(8, 24),
    d=st.integers(1, 3),
    k=st.sampled_from([-3, 3]),
    kernel=st.sampled_from(["linear\n", "polynomial\nkernel.degree = 2\n", "hard\n"]),
    exact_theta=st.booleans(),
)
def test_power_of_two_scaling_changes_no_nn_row(tmp_path_factory, seed, D, n_s, n_t, d, k, kernel,
                                                exact_theta):
    spec = SynthSpec(D=D, n_s=n_s, n_t=n_t, seed=seed, domain_shift=DomainShift(rotation_angle=0.8))
    source, target = synth_shifted_gaussians(spec)
    scaled = [replace(dom, samples=dom.samples * 2.0**k) for dom in (source, target)]
    folder = tmp_path_factory.mktemp("relation")
    extra = f"classifier = nn\nkernel.kind = {kernel}quantum.exact_theta = {exact_theta}\n"
    before, _ = _report_rows(folder / "as-drawn", source, target, d, extra)
    after, _ = _report_rows(folder / "scaled", *scaled, d, extra)
    assert {row[0] for row in before} == {"classical", "quantum", "kernel"}
    assert after == before


def _nn_labels(source, target, d):
    """The classical and the exact-mode quantum NN labels on the classical
    alignment of the two domains, which it centers in place, and the
    quantum records' warnings."""
    for dom in (source, target):
        center_columns_in_place(dom)
    Ps, Pt = csa.pca_subspace(source, d), csa.pca_subspace(target, d)
    art = csa.build_alignment(Ps, Pt, source, target)
    y = source.visible_labels
    q_labels, records = qsa.q_nn_classify(art.X_hat_a, y, art.X_hat_t, ShotPlan())
    return csa.nn_classify(art.X_hat_a, y, art.X_hat_t), q_labels, records["warning"]


@PROFILE
@given(
    seed=st.integers(0, 2**16),
    D=st.integers(2, 6),
    n_s=st.integers(4, 40),
    n_t=st.integers(2, 40),
    d=st.integers(1, 3),
)
def test_sample_permutation_moves_nn_labels_with_their_targets(seed, D, n_s, n_t, d):
    d = min(d, D, n_s, n_t)
    spec = SynthSpec(D=D, n_s=n_s, n_t=n_t, seed=seed, domain_shift=DomainShift(rotation_angle=0.8))
    source, target = synth_shifted_gaussians(spec)
    rng = np.random.default_rng(seed)
    ps, pt = rng.permutation(n_s), rng.permutation(n_t)
    permuted = (replace(source, samples=source.samples[:, ps], labels=source.labels[ps]),
                replace(target, samples=target.samples[:, pt], labels=target.labels[pt]))
    labels, q_labels, warning = _nn_labels(source, target, d)
    p_labels, p_q_labels, _ = _nn_labels(*permuted, d)
    assert np.array_equal(p_labels, labels[pt])
    unflagged = ~warning[pt]
    assert np.array_equal(p_q_labels[unflagged], q_labels[pt][unflagged])


def _train(samples, labels, A, gamma):
    domain = Domain(samples, labels)
    return csa.svm_train(domain, A, gamma), qsa.q_svm_train(domain, A, gamma)


@PROFILE
@given(
    seed=st.integers(0, 2**16),
    D=st.integers(2, 6),
    n=st.integers(4, 20),
    r=st.integers(1, 3),
    gamma=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_label_swap_negates_every_svm_decision(seed, D, n, r, gamma):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((D, n))
    y = np.where(rng.random(n) < 0.5, -1, 1)
    A = (rng.standard_normal((D, r)), rng.standard_normal((D, r)))  # A = L R^T
    X = rng.standard_normal((r, 7))  # points as R^T x
    try:
        svm, qsvm = _train(samples, y, A, gamma)
    except SubalignError as exc:  # ill-conditioned or failed postselection: so is the swap
        with pytest.raises(type(exc)):
            _train(samples, -y, A, gamma)
        return
    svm_swapped, qsvm_swapped = _train(samples, -y, A, gamma)
    decision = csa.svm_decision_values(svm, X)
    assert np.array_equal(csa.svm_decision_values(svm_swapped, X), -decision)
    nonzero = decision != 0
    assert np.array_equal(csa.svm_classify(svm_swapped, X)[nonzero], -csa.svm_classify(svm, X)[nonzero])
    labels, info = qsa.q_svm_classify(qsvm, X, ShotPlan())
    labels_swapped, info_swapped = qsa.q_svm_classify(qsvm_swapped, X, ShotPlan())
    assert np.array_equal(info_swapped["decision_value"], -info["decision_value"])
    nonzero = info["decision_value"] != 0
    assert np.array_equal(labels_swapped[nonzero], -labels[nonzero])
