import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from subalign import classical_sa as csa
from subalign import cli, harness
from subalign import quantum_sa as qsa
from subalign.datasets import (
    DomainShift,
    SynthSpec,
    center_columns,
    load_csv,
    save_csv,
    split_label_row,
    synth_shifted_gaussians,
)
from subalign.errors import ConfigurationError, ParseError, SubalignError
from subalign.harness import RunReport, compare_tracks, parse_config_text, run
from subalign.quantum_core import MAX_GROVER_N


# the small sampled-mode config the trace and svm_labels tests run
SAMPLED_D4 = (
    "dataset.D = 4\ndataset.n_s = 12\ndataset.n_t = 20\nd = 2\nseeds = 0\n"
    "track = both\nclassifier = both\nquantum.exact_theta = false\n"
)


def _config(tmp_path, extra=""):
    return parse_config_text(
        f"""
dataset.D = 3
dataset.n_s = 8
dataset.n_t = 6
dataset.rotation = 0.8
d = 2
seeds = 0,1
output_dir = {tmp_path}
"""
        + extra
    )


# CSV inputs that parsing alone does not open
_CSV_PAIR = "dataset.source_csv = s.csv\ndataset.target_csv = t.csv\ndataset.label_column = 3\n"


def _csv_config(tmp_path, label_column, extra=""):
    """`_config` on the CSV pair s.csv, t.csv in ``tmp_path`` instead of a
    synthetic draw; the source's labels are its column ``label_column``."""
    return parse_config_text(
        f"dataset.source_csv = {tmp_path / 's.csv'}\ndataset.target_csv = {tmp_path / 't.csv'}\n"
        f"dataset.label_column = {label_column}\nd = 2\nseeds = 0,1\noutput_dir = {tmp_path}\n"
        + extra
    )


class TestConfigParsing:
    def test_basic_keys(self, tmp_path):
        cfg = _config(tmp_path, "quantum.precision_qubits = 6\ntrack = both\n")
        assert cfg.dataset.D == 3
        assert cfg.precision_qubits == 6
        assert cfg.seeds == (0, 1)
        assert cfg.track == "both"

    def test_comments_and_blanks(self, tmp_path):
        cfg = _config(tmp_path, "# a comment\n\ngamma = 2.5  # trailing\n")
        assert cfg.gamma == 2.5

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        """A comment starts at a # that begins the line or follows
        whitespace. output_dir = runs#1 parsed as runs, in a file and in
        --set alike, so the run wrote into another directory and unlinked
        the report files there; d=2#3 parsed as 2."""
        out = str(tmp_path / "runs#1")
        assert parse_config_text(f"output_dir = {out}  # trailing\n", environ={}).output_dir == out
        args = SimpleNamespace(config=None, set=[f"output_dir={out}"])
        assert cli._config_from_args(args).output_dir == out
        assert parse_config_text("", environ={"SUBALIGN_OUTPUT_DIR": out}).output_dir == out
        with pytest.raises(ConfigurationError, match="^d: malformed value '2#3'"):
            parse_config_text("d=2#3", environ={})

    @pytest.mark.parametrize("text", ["bogus.key = 1", "quantum.repeats = 15"],
                             ids=["bogus", "quantum.repeats"])
    def test_unknown_key(self, text):
        """quantum.repeats is no key: the repeat count follows from the
        target count (`test_nn_repeats_follow_the_target_count`)."""
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config_text(text, environ={})

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config_text("not a pair")

    def test_env_override(self):
        """Only the upper-case names are read: subalign_d is not SUBALIGN_D."""
        cfg = parse_config_text(
            "d = 1\nseeds = 0",
            environ={"SUBALIGN_QUANTUM_PRECISION_QUBITS": "5", "SUBALIGN_GAMMA": "3.0",
                     "subalign_d": "2"},
        )
        assert cfg.precision_qubits == 5
        assert cfg.gamma == 3.0
        assert cfg.d == 1

    def test_d_exceeding_dimension(self):
        with pytest.raises(ConfigurationError, match="d:"):
            parse_config_text("dataset.D = 2\nd = 3")

    @pytest.mark.parametrize("counts", ["dataset.n_s = 3", "dataset.n_t = 3"])
    def test_d_exceeding_a_sample_count(self, counts):
        """PCA keeps at most min(D, n) directions, so d = 4 with three
        samples of a domain is rejected here, not after that domain's pass."""
        with pytest.raises(ConfigurationError, match="^d: 4 exceeds"):
            parse_config_text(f"dataset.D = 8\n{counts}\nd = 4", environ={})

    @pytest.mark.parametrize("classifier", ["svm", "both"])
    def test_svm_needs_two_classes(self, classifier):
        """The LS-SVM takes labels in {-1, +1}, which only the two-class draw
        gives; the NN takes any class count."""
        text = "dataset.classes = 3\n"
        with pytest.raises(ConfigurationError, match="needs dataset.classes = 2"):
            parse_config_text(text + f"classifier = {classifier}\n", environ={})
        assert parse_config_text(text + "classifier = nn\n", environ={}).dataset.class_count == 3

    SYNTH_KEYS = (
        "dataset.D", "dataset.n_s", "dataset.n_t", "dataset.classes", "dataset.separation",
        "dataset.noise_sigma", "dataset.rotation", "dataset.translation", "dataset.scale",
    )

    @pytest.mark.parametrize("text, key", [
        ("dataset.D = 4\nkernel.degree = 3\n", "kernel.degree"),
        ("kernel.kind = cosine\nkernel.degree = 2\n", "kernel.degree"),
        ("dataset.label_column = 3\n", "dataset.label_column"),
        ("dataset.D = 1\nd = 1\ndataset.rotation = 1.0\n", "dataset.rotation"),
        *((_CSV_PAIR + f"{key} = 1\n", key) for key in SYNTH_KEYS),
    ], ids=["degree-linear", "degree-cosine", "label_column-synth", "rotation-D1",
            *(f"{key}-csv" for key in SYNTH_KEYS)])
    def test_keys_the_run_would_ignore_are_rejected(self, text, key):
        """kernel.degree without kernel.kind = polynomial, a synthetic-data
        key beside CSV inputs, dataset.label_column without them and
        dataset.rotation at dataset.D = 1 were dropped, and kernel.degree
        alone turned on a linear-kernel track.
        Each is rejected by name while the config is parsed, before any file
        is read; without the key, the same text parses."""
        with pytest.raises(ConfigurationError, match=f"^{key}: "):
            parse_config_text(text, environ={})
        parse_config_text(text.replace(f"{key} = ", "# "), environ={})

    def test_bool_values(self):
        cfg = parse_config_text("quantum.exact_theta = false")
        assert cfg.exact_theta is False
        with pytest.raises(ConfigurationError):
            parse_config_text("quantum.exact_theta = maybe")

    @pytest.mark.parametrize("key, value", [
        ("d", "abc"), ("seeds", "0,x"), ("gamma", "foo"), ("quantum.shots", "1.5"),
        ("quantum.exact_theta", "maybe"),
    ])
    def test_malformed_value_names_its_key(self, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key}: malformed value '{value}'$"):
            parse_config_text(f"{key} = {value}", environ={})


    @pytest.mark.parametrize("key, value", [
        ("gamma", "nan"), ("gamma", "inf"), ("dataset.separation", "inf"),
        ("dataset.noise_sigma", "nan"), ("dataset.rotation", "nan"),
        ("dataset.translation", "inf"), ("dataset.translation", "-inf"), ("dataset.scale", "nan"),
    ])
    def test_non_finite_value_names_its_key(self, key, value):
        """A NaN gamma passed `gamma > 0` and ended in an SVD that did not
        converge; the other keys failed mid-run as non-finite samples, naming
        no key. Each is now rejected by name while the config is parsed."""
        with pytest.raises(ConfigurationError, match=f"^{key}: must be finite, got '{value}'$"):
            parse_config_text(f"classifier = svm\n{key} = {value}", environ={})

    def test_nan_gamma_fails_validation(self):
        with pytest.raises(ConfigurationError, match="^gamma: must be > 0$"):
            harness.ExperimentConfig(gamma=float("nan")).validate()


class TestRun:
    def test_classical_only_two_seeds(self, tmp_path):
        report = run(_config(tmp_path))
        assert len(report.accuracy) == 2
        assert report.parity == []
        assert (tmp_path / "report_v1.json").exists()
        assert (tmp_path / "accuracy_v1.csv").exists()
        assert (tmp_path / "parity_v1.csv").exists()

    def test_both_tracks_parity_passes(self, tmp_path):
        cfg = _config(tmp_path, "track = both\nquantum.exact_theta = true\n")
        report = run(cfg)
        names = {r["quantity"].split(".", 1)[1] for r in report.parity}
        assert names == {"M_star", "X_hat_a", "nn_labels"}
        assert all(r["pass"] for r in report.parity)
        assert all("tolerance" in r for r in report.parity)

    def test_quantum_track_classifies(self, tmp_path):
        cfg = _config(tmp_path, "track = quantum\nclassifier = both\nquantum.exact_theta = true\n")
        report = run(cfg)
        for seed in cfg.seeds:
            acc = [r for r in report.accuracy if r["seed"] == seed]
            assert sorted((r["track"], r["classifier"]) for r in acc) == [
                ("quantum", "nn"), ("quantum", "svm")
            ]
            assert len([r for r in report.parity if r["quantity"].startswith(f"seed{seed}.")]) == 4

    @pytest.mark.parametrize("kernel", ["none", "hard"])
    @pytest.mark.parametrize("classifier", ["nn", "svm", "both"])
    @pytest.mark.parametrize("track", ["classical", "quantum", "both"])
    def test_rows_come_in_report_order(self, tmp_path, track, classifier, kernel):
        """Per seed: accuracy rows classical (not on track=quantum), kernel,
        quantum, nn before svm; parity rows M*, X_hat_a, then the labels. A
        kernel with the SVM alone is rejected: the kernel track has no SVM."""
        extra = f"track = {track}\nclassifier = {classifier}\n"
        if kernel != "none":
            extra += f"kernel.kind = {kernel}\n"
        if kernel != "none" and classifier == "svm":
            with pytest.raises(ConfigurationError, match="NN alone.*classifier = nn or both"):
                _config(tmp_path, extra)
            return
        cfg = _config(tmp_path, extra)
        report = run(cfg)
        classifiers = ["nn", "svm"] if classifier == "both" else [classifier]
        per_seed = [("classical", c) for c in classifiers if track != "quantum"]
        per_seed += [("kernel", "nn")] if kernel != "none" else []
        per_seed += [("quantum", c) for c in classifiers if track != "classical"]
        assert [(r["seed"], r["track"], r["classifier"]) for r in report.accuracy] == [
            (seed, t, c) for seed in cfg.seeds for t, c in per_seed
        ]
        quantities = ["M_star", "X_hat_a"] + [f"{c}_labels" for c in classifiers]
        assert [r["quantity"] for r in report.parity] == [
            f"seed{seed}.{q}" for seed in cfg.seeds for q in quantities if track != "classical"
        ]

    @staticmethod
    def _spy_svm_decisions(monkeypatch):
        """Record (plan, (labels, info)) of every `q_svm_classify` call."""
        q_svm_classify = harness.qsa.q_svm_classify
        decided = []

        def spy(model, X, plan):
            decided.append((plan, model, q_svm_classify(model, X, plan)))
            return decided[-1][2]

        monkeypatch.setattr(harness.qsa, "q_svm_classify", spy)
        return decided

    def test_trace_keeps_classifier_diagnostics(self, tmp_path, monkeypatch):
        cfg = parse_config_text(SAMPLED_D4 + f"output_dir = {tmp_path}\n")
        decided = self._spy_svm_decisions(monkeypatch)
        run(cfg)
        rows = [json.loads(line) for line in (tmp_path / "trace_v1.jsonl").read_text().splitlines()]
        by_stage = {row["stage"]: row for row in rows}
        # the row counts the sampled decisions below 3/sqrt(shots)
        (plan, model, (_, info)), = decided
        assert not plan.exact
        low = np.abs(info["decision_value"]) < 3.0 / np.sqrt(cfg.shots)
        svm = by_stage["q_svm_classify"]
        assert svm["low_confidence"] == int(np.sum(low))
        assert svm["m"] == 20
        # and the qSVM's postselection probability and N_x
        assert 0 < svm["success_probability"] == model.success_probability <= 1
        assert svm["N_x"] == model.N_x > 0
        # and the qubit count of its phase register
        assert svm["precision_qubits"] == model.precision_qubits > 0
        nn = by_stage["q_nn_classify"]
        assert nn["m"] == 20 and nn["oracle_queries"] > 0 and 0 <= nn["ambiguous"] <= 20
        assert 0 <= nn["unflagged_flips"] <= nn["flips"] <= 20

    @pytest.mark.parametrize("shape, seeds", [
        ("dataset.D = 16\ndataset.n_s = 15\ndataset.n_t = 200\nd = 4\n", range(12)),
        ("dataset.D = 64\ndataset.n_s = 60\ndataset.n_t = 3000\nd = 4\n", range(3)),
        ("dataset.D = 4\ndataset.n_s = 4097\ndataset.n_t = 50\nd = 2\n", range(2)),
    ], ids=["quantum-caps", "D64-blocks", "ns4097-blocks"])
    def test_every_exact_flip_is_flagged(self, tmp_path, shape, seeds):
        """In exact mode a quantum NN label differs from the classical one
        where the AE lattice tied sources of different labels, which flags
        it, or where a Durr-Hoyer search missed the minimum (at most 1% per
        seed), which does not. These seeds are pinned ones on which no
        search misses, so an unflagged flip here is a bug. The flips match
        the nn_labels parity row. At D=64 the 3000 targets go in 6 blocks of
        546 (19 repeats); at n_s = 4097, above the old limit of 4096 sources,
        the 50 targets go in blocks of 40 and 10 (13 repeats)."""
        cfg = parse_config_text(
            shape + f"seeds = {','.join(map(str, seeds))}\ntrack = both\nclassifier = nn\n"
            f"output_dir = {tmp_path}\n"
        )
        parity = {row["quantity"]: row for row in run(cfg).parity}
        rows = [json.loads(line) for line in (tmp_path / "trace_v1.jsonl").read_text().splitlines()]
        rows = [row for row in rows if row["stage"] == "q_nn_classify"]
        assert [row["seed"] for row in rows] == list(seeds)
        for row in rows:
            agree = parity[f"seed{row['seed']}.nn_labels"]["quantum"]
            assert row["flips"] == round((1 - agree) * row["m"])
            assert row["unflagged_flips"] == 0
        assert sum(row["flips"] for row in rows) > 0

    def test_exact_svm_labels_pass_at_the_caps_shape(self, tmp_path):
        """The quantum-caps config, seeds 0-2: with the register sized from
        F's condition number, each exact svm_labels row passes. At a fixed
        n = 10, each of the three failed (agreement 0.915, 0.965, 0.975)."""
        cfg = parse_config_text(
            "dataset.D = 16\ndataset.n_s = 15\ndataset.n_t = 200\nd = 4\nseeds = 0,1,2\n"
            "track = both\nclassifier = both\nquantum.exact_theta = true\n"
            f"output_dir = {tmp_path}\n"
        )
        rows = [row for row in run(cfg).parity if row["quantity"].endswith("svm_labels")]
        assert [row["quantity"] for row in rows] == [f"seed{s}.svm_labels" for s in range(3)]
        assert all(row["pass"] for row in rows)

    def test_nn_repeats_follow_the_target_count(self, tmp_path, monkeypatch):
        """Each search finds its minimum with probability >= 1/2, so m
        targets get r = ceil(log2(100 m)) repeats each: a seed misses any
        minimum with probability m 2^-r <= 1%. It was a fixed 15."""
        received = []
        q_nn_classify = qsa.q_nn_classify

        def spy(*args, repeats, **kwargs):
            received.append(repeats)
            return q_nn_classify(*args, repeats=repeats, **kwargs)

        monkeypatch.setattr(harness.qsa, "q_nn_classify", spy)
        for n_t in (40, 200, 1000):
            run(parse_config_text(
                f"dataset.D = 4\ndataset.n_s = 15\ndataset.n_t = {n_t}\nd = 2\nseeds = 0\n"
                f"track = both\nclassifier = nn\noutput_dir = {tmp_path}\n", environ={},
            ))
        assert received == [12, 15, 17]

    def test_trace_registers_follow_array_shapes(self, tmp_path):
        run(parse_config_text(SAMPLED_D4 + f"output_dir = {tmp_path}\n"))
        rows = [json.loads(line) for line in (tmp_path / "trace_v1.jsonl").read_text().splitlines()]
        registers = {row["stage"]: row["registers"] for row in rows if "registers" in row}
        # M* is d x d, X_hat_s and X_hat_a d x n_s, X_hat_t d x n_t
        assert registers == {
            "M": [["I1", 1], ["I2", 1]],
            "X_hat_s": [["I1", 1], ["I2", 4]],
            "X_hat_a": [["I1", 1], ["I2", 4]],
            "X_hat_t": [["I1", 1], ["I2", 5]],
        }

    @pytest.mark.parametrize("kind, path, dims", [("hard", "features", (4, 4)), ("cosine", "gram", (8, 6))])
    def test_kernel_fit_trace_row_per_seed(self, tmp_path, kind, path, dims):
        cfg = _config(tmp_path, f"kernel.kind = {kind}\n")
        run(cfg)
        rows = [json.loads(line) for line in (tmp_path / "trace_v1.jsonl").read_text().splitlines()]
        rows = [row for row in rows if row["stage"] == "kernel_fit"]
        assert [row["seed"] for row in rows] == [0, 1]
        for row in rows:
            source, target = synth_shifted_gaussians(replace(cfg.dataset, seed=row["seed"]))
            fit = csa.kernel_sa_fit(center_columns(source)[0], center_columns(target)[0],
                                    cfg.kernel, cfg.d)
            assert row["path"] == path and (row["dim_s"], row["dim_t"]) == dims
            for dom, basis in (("s", fit.basis_s), ("t", fit.basis_t)):
                assert row[f"lambda_d_{dom}"] == basis.eigenvalues[-1] > 0
                assert row[f"gap_{dom}"] == basis.gap
            assert row["warnings"] == fit.warnings

    @pytest.mark.parametrize("sigma, warned", [(1.0, False), (0.0, True)])
    def test_pca_trace_row_per_domain_and_seed(self, tmp_path, sigma, warned):
        """A classical run keeps each PCA basis's gap at the cut and its
        degeneracy warning. Without noise every domain has rank 1, so the
        cut at d = 2 falls in a zero eigenvalue pair and warns."""
        cfg = _config(tmp_path, f"dataset.noise_sigma = {sigma}\n")
        run(cfg)
        rows = [json.loads(line) for line in (tmp_path / "trace_v1.jsonl").read_text().splitlines()]
        assert [(row["seed"], row["stage"], row["domain"]) for row in rows] == [
            (0, "pca", "source"), (0, "pca", "target"), (1, "pca", "source"), (1, "pca", "target")
        ]
        for row in rows:
            pair = synth_shifted_gaussians(replace(cfg.dataset, seed=row["seed"]))
            basis = csa.pca_subspace(center_columns(pair[row["domain"] == "target"])[0], cfg.d)
            assert row["gap"] == basis.gap and np.isfinite(row["gap"])
            assert row["warnings"] == basis.warnings
            assert bool(row["warnings"]) is warned

    def test_each_domain_is_decomposed_once(self, tmp_path, monkeypatch):
        """qPCA reads each domain's spectrum from the classical pass, so a
        track=both run at D=16 over two seeds makes one scatter `eigh` per
        domain: 4 calls, where PCA and qPCA each made their own (8)."""
        eigh = np.linalg.eigh
        shapes = []
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: (
            shapes.append(np.shape(a)), eigh(a, *args, **kwargs))[1])
        run(parse_config_text(
            "dataset.D = 16\ndataset.n_s = 15\ndataset.n_t = 40\nd = 4\nseeds = 0,1\n"
            f"track = both\nclassifier = nn\noutput_dir = {tmp_path}\n", environ={}))
        assert shapes == [(16, 16)] * 4

    def test_qpca_trace_row_per_domain_and_seed(self, tmp_path):
        cfg = _config(tmp_path, "track = both\nquantum.exact_theta = true\n")
        run(cfg)
        rows = [json.loads(line) for line in (tmp_path / "trace_v1.jsonl").read_text().splitlines()]
        rows = [row for row in rows if row["stage"] == "qpca"]
        assert [(row["seed"], row["domain"]) for row in rows] == [
            (0, "source"), (0, "target"), (1, "source"), (1, "target")
        ]
        for row in rows:
            pair = synth_shifted_gaussians(replace(cfg.dataset, seed=row["seed"]))
            data = center_columns(pair[row["domain"] == "target"])[0].samples
            res = qsa.qpca(csa.scatter_spectrum(data), cfg.d, cfg.precision_qubits)
            assert row["outcomes"] == res.outcomes.tolist()
            assert row["readout_probabilities"] == res.readout_probabilities.tolist()
            assert all(0 < p <= 1 for p in row["readout_probabilities"])
            assert row["gap"] == res.basis.gap and np.isfinite(row["gap"])
            assert row["warnings"] == res.basis.warnings

    def test_sampled_svm_tolerance_is_shot_bound(self, tmp_path, monkeypatch):
        """The sampled svm_labels tolerance is 0.02 plus the mean Hoeffding
        flip bound exp(-shots r^2 / 2) over the exact overlaps r, plus
        sqrt(ln(100) / 2m) for m targets. The exact overlaps r come from
        the one sampled decision pass."""
        cfg = parse_config_text(SAMPLED_D4 + f"output_dir = {tmp_path}\n")
        decided = self._spy_svm_decisions(monkeypatch)
        row = {r["quantity"]: r for r in run(cfg).parity}["seed0.svm_labels"]
        (plan, _, (_, info)), = decided
        assert not plan.exact
        r = info["exact_overlap"]
        bound = np.mean(np.exp(-cfg.shots * r**2 / 2)) + np.sqrt(np.log(100) / (2 * r.size))
        assert row["tolerance"] == pytest.approx(0.02 + bound, rel=1e-12)
        flips = round(row["abs_err"] * r.size)
        assert row["pass"] == (flips <= np.floor(row["tolerance"] * r.size + 1e-9))

    def test_finite_theta_m_star_tolerance_is_lattice_bound(self, tmp_path):
        """Rounding theta to the pi/2^n lattice can move an entry of M* by
        pi/2^n; this seed's error lies between 2^(1-n) and that bound."""
        cfg = parse_config_text(
            f"dataset.D = 4\ndataset.n_s = 12\ndataset.n_t = 20\nd = 2\nseeds = 0\n"
            f"track = both\nquantum.exact_theta = false\noutput_dir = {tmp_path}\n"
        )
        rows = {row["quantity"]: row for row in run(cfg).parity}
        m_row = rows["seed0.M_star"]
        assert 2.0**-7 < m_row["abs_err"] <= np.pi / 2**8
        assert m_row["tolerance"] == np.pi / 2**8 and m_row["pass"]
        a_row = rows["seed0.X_hat_a"]
        assert a_row["tolerance"] == 2.0**-7 * 3 * max(1.0, a_row["classical"])

    def test_quantum_cap_error(self, tmp_path):
        """The one limit left on the quantum NN is the search's own: the int16
        range of its sort tables."""
        assert MAX_GROVER_N + 1 == 32_768
        cfg = _config(tmp_path, "track = both\n")
        cfg.dataset = harness.SynthSpec(D=3, n_s=MAX_GROVER_N + 1, n_t=6)
        with pytest.raises(ConfigurationError, match=f"caps exceeded.*n_s <= {MAX_GROVER_N}"):
            run(cfg)

    def test_quantum_caps_checked_before_any_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness.csa, "pca_subspace", lambda *args: calls.append(args))
        with pytest.raises(ConfigurationError, match="caps exceeded"):
            run(_config(tmp_path, f"track = both\ndataset.n_s = {MAX_GROVER_N + 1}\n"))
        # CSV inputs are checked as soon as they are loaded
        source, target = synth_shifted_gaussians(SynthSpec(D=3, n_s=MAX_GROVER_N + 1, n_t=6))
        for name, dom in (("s.csv", source), ("t.csv", target)):
            save_csv(dom, str(tmp_path / name))
        cfg = _csv_config(tmp_path, 4, "track = both\n")
        with pytest.raises(ConfigurationError, match="caps exceeded"):
            run(cfg)
        assert calls == []

    def test_csv_svm_labels_checked_before_any_work(self, tmp_path, monkeypatch):
        """A CSV source with labels outside {-1, +1} fails as soon as it is
        loaded when an SVM is configured, not in `ls_svm_system` after both
        domain passes."""
        calls = []
        monkeypatch.setattr(harness.csa, "pca_subspace", lambda *args: calls.append(args))
        source, target = synth_shifted_gaussians(SynthSpec(D=3, n_s=12, n_t=10, class_count=3))
        for name, dom in (("s.csv", source), ("t.csv", target)):
            save_csv(dom, str(tmp_path / name))
        cfg = _csv_config(tmp_path, 4, "classifier = svm\n")
        with pytest.raises(ConfigurationError, match=r"s\.csv: the SVM needs labels in \{-1, \+1\}"):
            run(cfg)
        assert calls == []

    @pytest.mark.parametrize("n_s, n_t, message", [
        (3, 10, r"d: 4 exceeds the feature dimension D=8 or the sample count n_s=3 of .*s\.csv"),
        (12, 3, r"d: 4 exceeds the sample count n_t=3 of .*t\.csv"),
    ], ids=["source", "target"])
    def test_csv_d_checked_before_its_domain_is_centered(self, tmp_path, monkeypatch, n_s, n_t,
                                                         message):
        """A `d` above a CSV domain's feature or sample count fails as soon as
        that domain is loaded, before it is centered, not in `pca_subspace`
        after its pass: a 3-row, 8-feature source, or a 3-row target under a
        larger source."""
        center = harness.center_columns_in_place

        def spy(domain):
            assert domain.n != 3, "a domain with fewer samples than d was centered"
            return center(domain)

        monkeypatch.setattr(harness, "center_columns_in_place", spy)
        source, target = synth_shifted_gaussians(SynthSpec(D=8, n_s=n_s, n_t=n_t))
        for name, dom in (("s.csv", source), ("t.csv", target)):
            save_csv(dom, str(tmp_path / name))
        cfg = _csv_config(tmp_path, 9, "d = 4\n")
        with pytest.raises(ConfigurationError, match=message):
            run(cfg)

    @pytest.mark.parametrize("shape, classifier", [
        ("dataset.D = 256\ndataset.n_s = 2000\ndataset.n_t = 300\nd = 8\n", "svm"),
        ("dataset.D = 64\ndataset.n_s = 64\ndataset.n_t = 100\nd = 12\n", "nn"),
        ("dataset.D = 16\ndataset.n_s = 300\ndataset.n_t = 400\nd = 4\n", "nn"),
    ], ids=["D256-svm", "D64-nn", "ns300-nn"])
    def test_runs_above_the_old_register_caps(self, tmp_path, shape, classifier):
        """The quantum track runs past the old qPCA (D <= 16), qSVM
        (n_s <= 15) and quantum-NN (d <= 8, n_s <= 64) register caps; the
        alignment rows pass. The label rows are data here."""
        cfg = parse_config_text(
            shape + f"seeds = 0,1,2\ntrack = both\nclassifier = {classifier}\n"
            f"output_dir = {tmp_path}\n"
        )
        rows = {row["quantity"]: row for row in run(cfg).parity}
        for seed in cfg.seeds:
            assert rows[f"seed{seed}.M_star"]["pass"]
            assert rows[f"seed{seed}.X_hat_a"]["pass"]
            assert f"seed{seed}.{classifier}_labels" in rows

    @pytest.mark.parametrize("classifier, n_t, flips, exact", [
        ("nn", 200, 4, "true"), ("nn", 50, 1, "true"), ("nn", 20, 1, "false"),
        ("svm", 50, 1, "true"),
    ])
    def test_label_row_counts_flips_as_integers(
        self, tmp_path, monkeypatch, classifier, n_t, flips, exact
    ):
        """A label row passes at exactly floor(tol m) flipped labels and
        fails at one more; in floats 1 - 0.98 = 0.020000000000000018 > 0.02
        and 1 - 0.95 = 0.050000000000000044 > 0.05."""
        classical = getattr(harness.csa, f"{classifier}_classify")
        seen = []
        monkeypatch.setattr(
            harness.csa, f"{classifier}_classify", lambda *a: seen.append(classical(*a)) or seen[-1]
        )
        cfg = parse_config_text(
            f"dataset.D = 3\ndataset.n_s = 12\ndataset.n_t = {n_t}\nd = 2\nseeds = 0\n"
            f"track = both\nclassifier = {classifier}\nquantum.exact_theta = {exact}\n"
            f"output_dir = {tmp_path}\n"
        )
        for k, passes in ((flips, True), (flips + 1, False)):
            def quantum(*args, k=k, **kwargs):
                pred = seen[-1].copy()
                pred[:k] *= -1
                if classifier == "nn":
                    return pred, np.zeros(pred.size, [("oracle_queries", int), ("warning", bool)])
                return pred, {"low_confidence": np.zeros(pred.size, bool)}

            monkeypatch.setattr(harness.qsa, f"q_{classifier}_classify", quantum)
            row = {r["quantity"]: r for r in run(cfg).parity}[f"seed0.{classifier}_labels"]
            assert row["abs_err"] == pytest.approx(k / n_t, abs=1e-15)
            assert row["pass"] is passes, (k, row)

    @pytest.mark.parametrize("classifier", ["nn", "svm"])
    def test_one_array_per_domain(self, tmp_path, classifier):
        """Each domain is held as one array: at D=128 and 5000 points a
        domain is 4.9 MiB, and the whole run peaks below three of them.
        Holding the raw domains next to centered copies peaked at 21.1 (nn)
        and 23.2 MiB (svm)."""
        cfg = parse_config_text(
            "dataset.D = 128\ndataset.n_s = 5000\ndataset.n_t = 5000\nd = 4\n"
            f"track = classical\nclassifier = {classifier}\nseeds = 0\n"
            f"output_dir = {tmp_path}\n",
            environ={},
        )
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 128 * 5000 * 8

    @staticmethod
    def _run_config(tmp_path, monkeypatch, data, track, spec, d=4, classifier="nn"):
        """A run of the domains of ``spec``, drawn by the harness or read
        from CSV files. The CSV files are parsed before tracing starts:
        `load_csv` is replaced by a copy of its result, so a trace shows what
        the harness holds, not the parser's Python objects."""
        text = (f"d = {d}\ntrack = {track}\nclassifier = {classifier}\nseeds = 0\n"
                f"output_dir = {tmp_path}\n")
        if data == "synthetic":
            text += f"dataset.D = {spec.D}\ndataset.n_s = {spec.n_s}\ndataset.n_t = {spec.n_t}\n"
        else:
            source, target = synth_shifted_gaussians(spec)
            parsed = {"s.csv": source, "t.csv": replace(target, labels=None, labels_hidden=False)}
            monkeypatch.setattr(harness, "load_csv", lambda path, label_column=None: replace(
                parsed[path], samples=parsed[path].samples.copy()))
            text += (f"dataset.source_csv = s.csv\ndataset.target_csv = t.csv\n"
                     f"dataset.label_column = {spec.D + 1}\n")
        synth_shifted_gaussians(spec)  # the first draw of a process imports numpy.random
        return parse_config_text(text, environ={})

    @pytest.mark.parametrize("data", ["synthetic", "csv"])
    def test_classical_nn_holds_one_domain(self, tmp_path, monkeypatch, data):
        """On the classical NN track a domain's samples are dropped once it
        is projected, so the run never holds the two domains together."""
        D, n, d = 128, 5000, 4
        cfg = self._run_config(tmp_path, monkeypatch, data, "classical", SynthSpec(D=D, n_s=n, n_t=n), d)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the peak comes while one domain is alive, at its draw or its PCA.
        # Beside the domain: the source's d x n projection and labels, the
        # target's labels, and the larger of the draw's three n-vectors
        # (classes, their means, labels) and the PCA's three D x D arrays
        # (scatter, eigenvectors, their reordered copy). The 1-NN stage holds
        # no domain, and its d x n arrays and blocks come to far less.
        domain = D * n * 8
        beside = (d + 2) * n * 8 + 3 * max(n, D * D) * 8
        assert peak < domain + beside + 64 * 1024

    @classmethod
    def _held_at_classifiers(cls, tmp_path, monkeypatch, data, track, classifier, names,
                             kernel=None):
        """Run at a target-heavy and at a source-heavy shape (the quantum NN
        caps n_s at 64) and record the traced memory held at the entry of
        every call of ``names``, (module, function) pairs. At each shape it
        stays below the larger domain's D x n bytes, so no classifier runs
        while that domain is alive. Returns the calls per run."""
        held = []
        for module, name in names:
            monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), **k: (
                held.append(tracemalloc.get_traced_memory()[0]), f(*a, **k))[1])
        calls = set()
        for spec in (SynthSpec(D=64, n_s=60, n_t=3000), SynthSpec(D=512, n_s=60, n_t=30)):
            cfg = cls._run_config(tmp_path, monkeypatch, data, track, spec, classifier=classifier)
            cfg.kernel = kernel
            held.clear()
            tracemalloc.start()
            try:
                run(cfg)
            finally:
                tracemalloc.stop()
            assert max(held) < spec.D * max(spec.n_s, spec.n_t) * 8, (spec, held)
            calls.add(len(held))
        (count,) = calls
        return count

    @pytest.mark.parametrize("data", ["synthetic", "csv"])
    @pytest.mark.parametrize("track", ["quantum", "both"])
    def test_quantum_nn_holds_no_domain(self, tmp_path, monkeypatch, track, data):
        """The quantum stages read each domain in its own pass (qPCA and the
        state of its projection), so no D x n domain is alive while the
        quantum NN runs: what is held at its entry (the d x n projections,
        their matrices, the bases and the labels) stays below either
        domain's bytes."""
        assert self._held_at_classifiers(
            tmp_path, monkeypatch, data, track, "nn", [(harness.qsa, "q_nn_classify")]
        ) == 1

    @pytest.mark.parametrize("data", ["synthetic", "csv"])
    @pytest.mark.parametrize("track", ["classical", "both"])
    def test_svms_hold_no_target(self, tmp_path, monkeypatch, track, data):
        """Both SVMs decide on the target projection X_hat_t, so without a
        kernel fit the target's samples are dropped after its pass, and both
        train right after the alignment, which drops the source: what is
        held when either SVM decides (the models, the d x n projections, the
        bases and the labels) stays below either domain's bytes. The source
        was held there until both SVMs trained at their own decision."""
        names = [(harness.csa, "svm_classify"), (harness.qsa, "q_svm_classify")]
        calls = self._held_at_classifiers(tmp_path, monkeypatch, data, track, "svm", names)
        assert calls == (1 if track == "classical" else 2)

    @pytest.mark.parametrize("data", ["synthetic", "csv"])
    @pytest.mark.parametrize("track", ["classical", "both"])
    @pytest.mark.parametrize("classifier", ["nn", "both"])
    def test_no_domain_outlives_the_kernel_fit(self, tmp_path, monkeypatch, classifier, track, data):
        """The kernel fit runs right after the target's pass and is the last
        reader of the target's samples, and of the source's unless SVM
        training reads it right after the alignment, so no classifier runs
        while a domain is alive: what is held at the entry of every 1-NN and
        SVM call (the d x n projections, the fit's bases and the labels)
        stays below either domain's bytes. The SVM runs beside the NN, as the
        kernel track classifies with the NN alone."""
        names = [(harness.csa, "nn_classify"), (harness.csa, "svm_classify"),
                 (harness.qsa, "q_nn_classify"), (harness.qsa, "q_svm_classify")]
        calls = self._held_at_classifiers(
            tmp_path, monkeypatch, data, track, classifier, names, csa.KernelSpec("hard")
        )
        # the kernel track's 1-NN, and each track's own classifiers
        assert calls == 1 + (1 if track == "classical" else 2) * (2 if classifier == "both" else 1)

    def test_kernel_track_times_the_fit(self, tmp_path, monkeypatch):
        """The fit runs before the classical alignment and classification
        but its seconds count in the kernel_track row alone."""
        fit = harness.csa.kernel_sa_fit
        monkeypatch.setattr(harness.csa, "kernel_sa_fit", lambda *a, **k: (time.sleep(0.05), fit(*a, **k))[1])
        report = run(_config(tmp_path, "kernel.kind = hard\nclassifier = both\nseeds = 0\n"))
        seconds = {row["stage"]: row["seconds"] for row in report.timings}
        assert seconds["kernel_track"] >= 0.05
        assert seconds["classical_align"] < 0.05 and seconds["classical_classify"] < 0.05

    def test_svm_training_counts_in_its_classify_row(self, tmp_path, monkeypatch):
        """Both SVMs train right after the alignment, before any classifier
        decides, but each training's seconds count in its own track's
        classify row."""
        for module, name in ((harness.csa, "svm_train"), (harness.qsa, "q_svm_train")):
            monkeypatch.setattr(module, name, lambda *a, f=getattr(module, name), **k: (
                time.sleep(0.05), f(*a, **k))[1])
        report = run(_config(tmp_path, "track = both\nclassifier = svm\nseeds = 0\n"))
        seconds = {row["stage"]: row["seconds"] for row in report.timings}
        assert seconds["classical_classify"] >= 0.05 and seconds["quantum_classify"] >= 0.05
        assert seconds["classical_align"] < 0.05 and seconds["quantum_align"] < 0.05

    def test_each_state_is_read_back_once(self, tmp_path, monkeypatch):
        """The M, X_hat_s, X_hat_a and X_hat_t states are each read back to
        their matrix once per seed, where they are made; M and X_hat_s were
        read back twice."""
        as_matrix = qsa.InnerProductState.as_matrix
        calls = []
        monkeypatch.setattr(qsa.InnerProductState, "as_matrix",
                            lambda state: (calls.append(state), as_matrix(state))[1])
        cfg = _config(tmp_path, "track = both\nclassifier = both\n")
        run(cfg)
        assert len(calls) == 4 * len(cfg.seeds)

    def test_csv_seeds_center_their_own_load(self, tmp_path):
        """Every seed loads the CSV files afresh and centers that load in
        place, so two seeds give the same rows bit for bit; centering one
        load twice would move the float rows."""
        source, target = synth_shifted_gaussians(
            SynthSpec(D=4, n_s=12, n_t=20, seed=5, domain_shift=DomainShift(0.5, 1.0, 1.2))
        )
        for name, dom in (("s.csv", source), ("t.csv", target)):
            save_csv(dom, str(tmp_path / name))
        cfg = parse_config_text(
            f"dataset.source_csv = {tmp_path / 's.csv'}\n"
            f"dataset.target_csv = {tmp_path / 't.csv'}\ndataset.label_column = 5\n"
            "d = 2\ntrack = both\nclassifier = both\nkernel.kind = hard\nseeds = 0,1\n"
            f"output_dir = {tmp_path / 'out'}\n",
            environ={},
        )
        report = run(cfg)
        trace = [json.loads(line) for line in (tmp_path / "out" / "trace_v1.jsonl").read_text().splitlines()]
        for row in trace:  # the Durr-Hoyer searches draw from the plan's seed
            row.pop("oracle_queries", None)
        parity = []  # a parity row names its seed in the quantity, "seed0.M_star"
        for row in report.parity:
            seed, quantity = row["quantity"].split(".", 1)
            parity.append({**row, "seed": int(seed.removeprefix("seed")), "quantity": quantity})
        for rows in (report.accuracy, parity, trace):
            seed0, seed1 = ([{k: v for k, v in row.items() if k != "seed"}
                             for row in rows if row["seed"] == seed] for seed in (0, 1))
            assert seed0 and seed0 == seed1

    def test_sampled_run_is_reproducible(self, tmp_path):
        text = (
            "dataset.D = 4\ndataset.n_s = 12\ndataset.n_t = 20\nd = 2\nseeds = 0\n"
            "track = both\nclassifier = both\nquantum.exact_theta = false\n"
        )
        for run_dir in ("a", "b"):
            run(parse_config_text(text + f"output_dir = {tmp_path / run_dir}\n"))
        for name in ("accuracy_v1.csv", "parity_v1.csv", "trace_v1.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_a_run_without_trace_rows_replaces_the_trace(self, tmp_path):
        """A classical run writes no quantum trace rows, so its trace file
        holds its two PCA rows alone: the quantum rows of an earlier run
        into the same directory are not left beside its report."""
        text = (
            "dataset.D = 8\ndataset.n_s = 15\ndataset.n_t = 40\nd = 2\nseeds = 0\n"
            f"classifier = nn\noutput_dir = {tmp_path}\n"
        )
        trace = tmp_path / "trace_v1.jsonl"
        run(parse_config_text(text + "track = both\n"))
        assert len(trace.read_text().splitlines()) == 9
        run(parse_config_text(text + "track = classical\n"))
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert [(row["stage"], row["domain"]) for row in rows] == [("pca", "source"), ("pca", "target")]

    def test_reproducible_accuracy_csv(self, tmp_path):
        run(_config(tmp_path / "a"))
        run(_config(tmp_path / "b"))
        a = (tmp_path / "a" / "accuracy_v1.csv").read_bytes()
        b = (tmp_path / "b" / "accuracy_v1.csv").read_bytes()
        assert a == b

    def test_workers_match_sequential(self, tmp_path):
        seq = run(_config(tmp_path / "seq"))
        cfg = _config(tmp_path / "par", "workers = 2\n")
        par = run(cfg)
        assert seq.accuracy == par.accuracy

    def test_report_json_round_trip(self, tmp_path):
        report = run(_config(tmp_path))
        back = RunReport.from_json((tmp_path / "report_v1.json").read_text())
        assert back.schema_version == report.schema_version
        assert back.accuracy == report.accuracy
        # reports written with the removed qPCA precision sweep still load
        doc = json.loads((tmp_path / "report_v1.json").read_text())
        doc["sweep"] = [{"seed": 0, "precision_qubits": 4, "projector_error": 0.0}]
        assert RunReport.from_json(json.dumps(doc)).parity == report.parity

    def test_report_json_is_the_dataclass_dump(self, tmp_path):
        report = run(_config(tmp_path, "track = both\nquantum.exact_theta = true\n"))
        assert report.accuracy and report.parity and report.timings
        assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)


class TestLoadDomains:
    @staticmethod
    def _assert_same(got, want):
        # tobytes also tells +0.0 from -0.0
        assert got.samples.tobytes() == want.samples.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert (got.name, got.labels_hidden) == (want.name, want.labels_hidden)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shift, sigma", [
        (DomainShift(), 1.0),
        (DomainShift(rotation_angle=0.7, translation=-2.25, scale=1.3), 1.0),
        (DomainShift(rotation_angle=0.7, translation=0.5, scale=0.8), 0.0),
        (DomainShift(), 0.0),
    ])
    def test_synthetic_domains_are_the_pair_bit_for_bit(self, tmp_path, seed, shift, sigma):
        cfg = _config(tmp_path)
        cfg.dataset = SynthSpec(D=3, n_s=20, n_t=30, class_count=3, noise_sigma=sigma,
                                domain_shift=shift, seed=99)
        pair = synth_shifted_gaussians(replace(cfg.dataset, seed=seed))
        for got, want in zip(harness._load_domains(cfg, seed), pair, strict=True):
            self._assert_same(got, want)

    @pytest.mark.parametrize("with_labels", [False, True], ids=["features", "label-column"])
    def test_csv_domains_are_the_loaded_files(self, tmp_path, with_labels):
        """The target file holds the features alone or the label column as
        well; either way the source keeps its labels and the target's are
        hidden."""
        source, target = synth_shifted_gaussians(SynthSpec(D=3, n_s=12, n_t=10, seed=4))
        save_csv(source, str(tmp_path / "s.csv"))
        save_csv(target if with_labels else replace(target, labels=None), str(tmp_path / "t.csv"))
        cfg = _csv_config(tmp_path, 4)
        want_source = load_csv(str(tmp_path / "s.csv"), 4)
        want_target = load_csv(str(tmp_path / "t.csv"))
        if with_labels:
            want_target = split_label_row(want_target, 4)
        want_target.labels_hidden = True
        got_source, got_target = harness._load_domains(cfg, 0)
        self._assert_same(got_source, want_source)
        self._assert_same(got_target, want_target)

    def test_non_integer_target_labels_name_the_file(self, tmp_path):
        """A target label column that is not whole numbers is rejected with
        the file's name; it used to be truncated to integers."""
        source, target = synth_shifted_gaussians(SynthSpec(D=3, n_s=12, n_t=10, seed=4))
        save_csv(source, str(tmp_path / "s.csv"))
        save_csv(replace(target, labels=None), str(tmp_path / "t.csv"))
        rows = (tmp_path / "t.csv").read_text().splitlines()
        labels = ["label", "0.5"] + ["1"] * (len(rows) - 2)  # the first row is the header
        (tmp_path / "t.csv").write_text("".join(f"{r},{v}\n" for r, v in zip(rows, labels)))
        cfg = _csv_config(tmp_path, 4)
        with pytest.raises(ParseError, match="t.csv: label column 4: labels must be integers"):
            list(harness._load_domains(cfg, 0))

    @pytest.mark.parametrize("bad", ["s.csv", "t.csv"])
    @pytest.mark.parametrize("rows, message", [
        (["1,2,1"], "1 data row (a domain needs at least 2)"),
        (["1,2,1", "3,nan,1"], "non-finite cell nan in row 2"),
    ], ids=["one-row", "nan-cell"])
    def test_malformed_csv_names_the_file_and_row(self, tmp_path, bad, rows, message):
        """A CSV with one data row, or with a NaN cell, is rejected with the
        file's name and the row count or row; both used to raise the
        domain's own errors, which name neither."""
        source, target = synth_shifted_gaussians(SynthSpec(D=2, n_s=12, n_t=10, seed=4))
        save_csv(source, str(tmp_path / "s.csv"))
        save_csv(target, str(tmp_path / "t.csv"))
        (tmp_path / bad).write_text("".join(f"{row}\n" for row in rows))
        cfg = _csv_config(tmp_path, 3, "d = 1\n")
        with pytest.raises(ParseError) as err:
            list(harness._load_domains(cfg, 0))
        assert str(err.value) == f"{tmp_path / bad}: {message}"

    @pytest.mark.parametrize("data", ["synthetic", "csv"])
    def test_keeps_no_domain_it_handed_over(self, tmp_path, data):
        """A domain's samples die with the caller's last reference to it,
        although the loader itself is still alive and unfinished."""
        cfg = _config(tmp_path)
        if data == "csv":
            for name, dom in zip(("s.csv", "t.csv"), synth_shifted_gaussians(cfg.dataset)):
                save_csv(dom, str(tmp_path / name))
            cfg = _csv_config(tmp_path, 4)
        domains = harness._load_domains(cfg, 0)
        source = weakref.ref(next(domains).samples)
        target = next(domains)
        assert source() is None
        target_ref = weakref.ref(target.samples)
        del target
        assert target_ref() is None
        assert list(domains) == []


class TestImport:
    def test_harness_import_loads_no_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import subalign.harness; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "[]"

    def test_sequential_run_imports_no_thread_pool(self, tmp_path):
        """Only workers > 1 needs concurrent.futures, and logging, which it
        imports; `test_workers_match_sequential` covers that path."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); from subalign import harness; "
            "harness.run(harness.ExperimentConfig(dataset=harness.SynthSpec(D=4, n_s=12, n_t=10), "
            "d=2, track='both', classifier='both', kernel=harness.csa.KernelSpec('hard'), "
            f"output_dir={str(tmp_path)!r})); "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "[]"

    def test_svm_run_imports_no_numpy_ma(self, tmp_path):
        """numpy.ma costs about 1 MiB and 13 ms when it is first imported,
        and `np.unique` imports it; the LS-SVM label check does without."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); from subalign import harness; "
            "harness.run(harness.ExperimentConfig(dataset=harness.SynthSpec(D=4), d=2, "
            f"classifier='svm', output_dir={str(tmp_path)!r})); "
            "print('numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        assert out.stdout.strip() == "False"


class TestDemo:
    def test_demo_runs_from_a_plain_checkout(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_demo.py"
        env = {key: val for key, val in os.environ.items() if key != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, str(script), "--output-dir", str(tmp_path / "demo")],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        verdicts = [
            line.split()[-1] for line in out.stdout.splitlines()
            if line.split()[:1] in (["M_star"], ["X_hat_a"], ["nn_labels"])
        ]
        assert verdicts == ["ok", "ok", "ok"]


class TestCompareTracks:
    def test_exact_mode_full_agreement(self, tmp_path):
        cfg = _config(tmp_path, "track = both\nquantum.exact_theta = true\n")
        rows = compare_tracks(run(cfg))
        agreement = [r for r in rows if r["kind"] == "agreement"]
        assert agreement and all(r["value"] == 1.0 for r in agreement)

    def test_single_track_rejected(self, tmp_path):
        report = run(_config(tmp_path))
        with pytest.raises(SubalignError, match="parity section; run with track=quantum or both"):
            compare_tracks(report)

    def test_empty_parity_rejected(self, tmp_path):
        report = run(_config(tmp_path))
        report.accuracy.append(
            {"seed": 0, "track": "quantum", "classifier": "nn", "accuracy": 1.0}
        )
        with pytest.raises(SubalignError, match="parity"):
            compare_tracks(report)


class TestCli:
    def test_synth_writes_files(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "--set", "dataset.D=3", "--output", str(tmp_path / "data")]
        )
        assert rc == 0
        assert (tmp_path / "data" / "source.csv").exists()
        assert (tmp_path / "data" / "target.csv").exists()
        assert (tmp_path / "data" / "target_labels.csv").exists()

    def test_run_report_compare_flow(self, tmp_path, capsys):
        out = tmp_path / "runout"
        args = [
            "--set", "dataset.D=3", "--set", "dataset.n_s=8", "--set", "dataset.n_t=6",
            "--set", "d=2", "--set", "track=both", "--set", "quantum.exact_theta=true",
            "--set", f"output_dir={out}",
        ]
        assert cli.main(["run"] + args) == 0
        assert cli.main(["report", "--report", str(out / "report_v1.json")]) == 0
        assert cli.main(["compare", "--report", str(out / "report_v1.json")]) == 0
        text = capsys.readouterr().out
        assert "accuracy" in text or "quantity" in text

    def test_compare_reads_a_quantum_track_report(self, tmp_path, capsys):
        """track=quantum writes no classical accuracy rows, but its parity
        rows are complete, and they are all that compare reads."""
        out = tmp_path / "runout"
        args = [
            "--set", "dataset.D=4", "--set", "dataset.n_s=12", "--set", "dataset.n_t=20",
            "--set", "d=2", "--set", "track=quantum", "--set", "classifier=both",
            "--set", f"output_dir={out}",
        ]
        assert cli.main(["run"] + args) == 0
        capsys.readouterr()
        assert cli.main(["compare", "--report", str(out / "report_v1.json")]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert names == ["M_star", "X_hat_a", "nn_labels", "svm_labels"]

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        rc = cli.main(["run", "--set", "dataset.D=2", "--set", "d=3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_kernel_with_svm_alone_exits_with_code_2(self, tmp_path):
        """The kernel track classifies with the NN alone: a kernel run asking
        for the SVM alone once went to exit 0, writing a kernel nn accuracy
        row it did not ask for and paying for the kernel NN."""
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "subalign.cli", "run", "--set", "kernel.kind=hard",
             "--set", "classifier=svm", "--set", f"output_dir={tmp_path / 'o'}"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert line.startswith("error:") and "NN alone" in line and "classifier = nn or both" in line
        assert not (tmp_path / "o").exists()

    def test_malformed_value_exits_with_code_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--set", "d=abc", "--set", f"output_dir={tmp_path}"])
        assert rc == 2
        assert capsys.readouterr().err == "error: d: malformed value 'abc'\n"

    @pytest.mark.parametrize("gamma, advice", [("1e20", "smaller"), ("1e-20", "larger")])
    def test_singular_svm_advice_points_the_right_way(self, tmp_path, capsys, gamma, advice):
        """A huge gamma makes c = 1/gamma vanish next to the kernel block,
        a tiny one makes the bordered corner's 1/c vanish: the error names
        gamma and the condition number, and points away from the end that
        made the system singular. Both once read "try a larger gamma"."""
        rc = cli.main(["run", "--set", "classifier=svm", "--set", f"gamma={gamma}",
                       "--set", f"output_dir={tmp_path}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"gamma={float(gamma):g}" in err and "condition number" in err
        assert err.rstrip().endswith(f"try a {advice} gamma")

    @staticmethod
    def _write_rows(path, rows):
        path.write_text("".join(",".join(f"{v:g}" for v in row) + "\n" for row in rows))

    def test_unlabeled_source_exits_with_code_2(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        self._write_rows(tmp_path / "s.csv", rng.standard_normal((12, 3)))
        self._write_rows(tmp_path / "t.csv", rng.standard_normal((10, 3)))
        rc = cli.main([
            "run", "--set", f"dataset.source_csv={tmp_path / 's.csv'}",
            "--set", f"dataset.target_csv={tmp_path / 't.csv'}", "--set", "d=2",
            "--set", f"output_dir={tmp_path / 'o'}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dataset.label_column" in err
        assert not (tmp_path / "o").exists()

    def test_feature_count_mismatch_exits_with_code_2(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        source = rng.standard_normal((12, 5))
        source[:, 0] = np.arange(12) % 2  # labels in column 1, four features
        self._write_rows(tmp_path / "s.csv", source)
        # 4 columns would be the features alone, 5 the features and labels
        self._write_rows(tmp_path / "t.csv", rng.standard_normal((10, 3)))
        rc = cli.main([
            "run", "--set", f"dataset.source_csv={tmp_path / 's.csv'}",
            "--set", f"dataset.target_csv={tmp_path / 't.csv'}",
            "--set", "dataset.label_column=1", "--set", "d=2",
            "--set", f"output_dir={tmp_path / 'o'}",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "4 feature columns" in err and "has 3" in err

    def test_gram_overflow_exits_with_code_2(self, tmp_path):
        """A polynomial Gram matrix that overflows is rejected by name, and
        the error line is all the command prints: numpy's overflow warning
        came first. The run once went to exit 0 with kernel accuracy 0.5 and
        a bare NaN (not JSON) in the kernel_fit trace row."""
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "subalign.cli", "run", "--set", "dataset.D=5",
             "--set", "dataset.n_s=40", "--set", "dataset.n_t=30", "--set", "d=2",
             "--set", "kernel.kind=polynomial", "--set", "kernel.degree=300",
             "--set", f"output_dir={tmp_path / 'o'}"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert line.startswith("error:") and "polynomial" in line and "non-finite" in line
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("track", ["classical", "both"])
    def test_overflowing_scatter_exits_with_code_2(self, tmp_path, track):
        """A finite but huge class separation overflows the PCA scatter: the
        run once went to exit 0 after numpy's overflow warning, with a NaN
        eigenvalue, classical NN accuracy 0.45 and a bare NaN gap in the pca
        trace row; on track=both it exited 2 blaming the eigenvalue order."""
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "subalign.cli", "run", "--set", "dataset.separation=1e200",
             "--set", f"track={track}", "--set", f"output_dir={tmp_path / 'o'}"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert line.startswith("error:") and "overflow" in line and "rescale" in line
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("track", ["classical", "both"])
    def test_domain_centered_to_zero_exits_with_code_2(self, tmp_path, track):
        """A translation that swamps every target draw in float64 centers
        the target to exact zeros: the run once went to exit 0 with a
        gap-0 warning and classical NN accuracy 0.525, and on track=both
        exited 2 with qPCA's trace-0 error, which named neither domain."""
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "subalign.cli", "run", "--set", "dataset.translation=1e200",
             "--set", f"track={track}", "--set", f"output_dir={tmp_path / 'o'}"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == 2
        (line,) = out.stderr.splitlines()
        assert line.startswith("error:") and "target domain" in line and "all 0" in line
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exits_with_code_2(self, tmp_path, capsys):
        """A negative seed is rejected for CSV inputs too (they have no
        synth spec to check it), before any work."""
        rng = np.random.default_rng(2)
        source = rng.standard_normal((12, 4))
        source[:, 0] = np.arange(12) % 2
        self._write_rows(tmp_path / "s.csv", source)
        self._write_rows(tmp_path / "t.csv", rng.standard_normal((10, 3)))
        rc = cli.main([
            "run", "--set", f"dataset.source_csv={tmp_path / 's.csv'}",
            "--set", f"dataset.target_csv={tmp_path / 't.csv'}",
            "--set", "dataset.label_column=1", "--set", "d=2", "--set", "track=quantum",
            "--set", "seeds=-1", "--set", f"output_dir={tmp_path / 'o'}",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: seeds: must be non-negative\n"
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _run_synth_pair(tmp_path) -> Path:
        """`run` on the pair `synth` writes; returns the output directory."""
        data, out = tmp_path / "data", tmp_path / "o"
        assert cli.main(["synth", "--set", "dataset.D=4", "--output", str(data)]) == 0
        rc = cli.main([
            "run", "--set", f"dataset.source_csv={data / 'source.csv'}",
            "--set", f"dataset.target_csv={data / 'target.csv'}",
            "--set", "dataset.label_column=5", "--set", "d=2", "--set", "seeds=0",
            "--set", f"output_dir={out}",
        ])
        assert rc == 0
        return out

    def test_synth_pair_runs(self, tmp_path):
        """`synth` writes the target's features alone and its labels to a
        file of their own; `run` takes that pair with the source's label
        column, and reports the unknown target accuracy as NaN."""
        out = self._run_synth_pair(tmp_path)
        rows = (out / "accuracy_v1.csv").read_text().splitlines()
        assert rows[1:] and all(row.endswith(",nan") for row in rows[1:])

    def test_unknown_accuracy_is_json_null(self, tmp_path):
        """The report of an unlabeled target is strict JSON (no NaN token):
        the unknown accuracy is null, and `from_json` reads it back as NaN."""
        path = self._run_synth_pair(tmp_path) / "report_v1.json"
        text = path.read_text()

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads(text, parse_constant=refuse)
        assert doc["accuracy"] and all(row["accuracy"] is None for row in doc["accuracy"])
        back = RunReport.from_json(text)
        assert all(np.isnan(row["accuracy"]) for row in back.accuracy)
        assert cli.main(["report", "--report", str(path)]) == 0

    def test_config_file_plus_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "dataset.D = 3\nd = 1\nseeds = 0\noutput_dir = %s\n" % (tmp_path / "o")
        )
        rc = cli.main(["run", "--config", str(cfg_file), "--set", "d=2"])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "report_v1.json").read_text())
        assert doc["config"]["d"] == 2
