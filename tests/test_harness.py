import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

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
from subalign.errors import ConfigurationError, SubalignError
from subalign.harness import RunReport, compare_tracks, parse_config_text, run


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

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config_text("bogus.key = 1")

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config_text("not a pair")

    def test_env_override(self):
        cfg = parse_config_text(
            "d = 1\nseeds = 0",
            environ={"SUBALIGN_QUANTUM_PRECISION_QUBITS": "5", "SUBALIGN_GAMMA": "3.0"},
        )
        assert cfg.precision_qubits == 5
        assert cfg.gamma == 3.0

    def test_d_exceeding_dimension(self):
        with pytest.raises(ConfigurationError, match="d:"):
            parse_config_text("dataset.D = 2\nd = 3")

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

    @staticmethod
    def _spy_svm_decisions(monkeypatch):
        """Record (plan, (labels, info)) of every `q_svm_classify` call."""
        q_svm_classify = harness.qsa.q_svm_classify
        decided = []

        def spy(model, Xs, A, X, plan):
            decided.append((plan, model, q_svm_classify(model, Xs, A, X, plan)))
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
        nn = by_stage["q_nn_classify"]
        assert nn["m"] == 20 and nn["oracle_queries"] > 0 and 0 <= nn["ambiguous"] <= 20

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
            data = center_columns(pair[row["domain"] == "target"])[0]
            res = qsa.qpca(data, cfg.d, cfg.precision_qubits)
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
        cfg = _config(tmp_path, "track = both\n")
        cfg.dataset = harness.SynthSpec(D=3, n_s=qsa.QNN_MAX_SOURCES + 1, n_t=6)
        with pytest.raises(ConfigurationError, match="caps exceeded"):
            run(cfg)

    def test_quantum_caps_checked_before_any_work(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness.csa, "pca_subspace", lambda *args: calls.append(args))
        with pytest.raises(ConfigurationError, match="caps exceeded"):
            run(_config(tmp_path, "track = both\ndataset.n_s = 65\n"))
        # CSV inputs are checked as soon as they are loaded
        source, target = synth_shifted_gaussians(SynthSpec(D=3, n_s=65, n_t=6))
        for name, dom in (("s.csv", source), ("t.csv", target)):
            save_csv(dom, str(tmp_path / name))
        cfg = _config(
            tmp_path,
            f"track = both\ndataset.source_csv = {tmp_path / 's.csv'}\n"
            f"dataset.target_csv = {tmp_path / 't.csv'}\ndataset.label_column = 4\n",
        )
        with pytest.raises(ConfigurationError, match="caps exceeded"):
            run(cfg)
        assert calls == []

    @pytest.mark.parametrize("shape, classifier", [
        ("dataset.D = 256\ndataset.n_s = 2000\ndataset.n_t = 300\nd = 8\n", "svm"),
        ("dataset.D = 64\ndataset.n_s = 64\ndataset.n_t = 100\nd = 12\n", "nn"),
    ], ids=["D256-svm", "D64-nn"])
    def test_runs_above_the_old_register_caps(self, tmp_path, shape, classifier):
        """The quantum track runs past the old qPCA (D <= 16), qSVM
        (n_s <= 15) and quantum-NN (d <= 8) register caps; the alignment
        rows pass. The label rows are data here."""
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
                    return pred, [{"oracle_queries": 0, "warning": None}] * pred.size
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

    @pytest.mark.parametrize("data", ["synthetic", "csv"])
    def test_classical_nn_holds_one_domain(self, tmp_path, monkeypatch, data):
        """On the classical NN track a domain's samples are dropped once it
        is projected, so the run never holds the two domains together. The
        CSV files are parsed before tracing starts: `load_csv` is replaced by
        a copy of its result, so the trace shows what the harness holds, not
        the parser's Python objects."""
        D, n, d = 128, 5000, 4
        text = f"d = {d}\ntrack = classical\nclassifier = nn\nseeds = 0\noutput_dir = {tmp_path}\n"
        spec = SynthSpec(D=D, n_s=n, n_t=n)
        if data == "synthetic":
            text += f"dataset.D = {D}\ndataset.n_s = {n}\ndataset.n_t = {n}\n"
        else:
            source, target = synth_shifted_gaussians(spec)
            parsed = {"s.csv": source, "t.csv": replace(target, labels=None, labels_hidden=False)}
            monkeypatch.setattr(harness, "load_csv", lambda path, label_column=None: replace(
                parsed[path], samples=parsed[path].samples.copy()))
            text += f"dataset.source_csv = s.csv\ndataset.target_csv = t.csv\ndataset.label_column = {D + 1}\n"
        cfg = parse_config_text(text, environ={})
        synth_shifted_gaussians(spec)  # the first draw of a process imports numpy.random
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
        (DomainShift(rotation_angle=0.7, translation=(1.5, -2.0, 0.25), scale=1.3), 1.0),
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
        cfg = _config(
            tmp_path,
            f"dataset.source_csv = {tmp_path / 's.csv'}\n"
            f"dataset.target_csv = {tmp_path / 't.csv'}\ndataset.label_column = 4\n",
        )
        want_source = load_csv(str(tmp_path / "s.csv"), 4)
        want_target = load_csv(str(tmp_path / "t.csv"))
        if with_labels:
            want_target = split_label_row(want_target, 4)
        want_target.labels_hidden = True
        got_source, got_target = harness._load_domains(cfg, 0)
        self._assert_same(got_source, want_source)
        self._assert_same(got_target, want_target)

    @pytest.mark.parametrize("data", ["synthetic", "csv"])
    def test_keeps_no_domain_it_handed_over(self, tmp_path, data):
        """A domain's samples die with the caller's last reference to it,
        although the loader itself is still alive and unfinished."""
        cfg = _config(tmp_path)
        if data == "csv":
            for name, dom in zip(("s.csv", "t.csv"), synth_shifted_gaussians(cfg.dataset)):
                save_csv(dom, str(tmp_path / name))
            cfg = _config(
                tmp_path,
                f"dataset.source_csv = {tmp_path / 's.csv'}\n"
                f"dataset.target_csv = {tmp_path / 't.csv'}\ndataset.label_column = 4\n",
            )
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
        with pytest.raises(SubalignError, match="both tracks"):
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

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        rc = cli.main(["run", "--set", "dataset.D=2", "--set", "d=3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_value_exits_with_code_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--set", "d=abc", "--set", f"output_dir={tmp_path}"])
        assert rc == 2
        assert capsys.readouterr().err == "error: d: malformed value 'abc'\n"

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
