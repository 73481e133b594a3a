"""Batch experiment runner: executes the classical / quantum / kernel
tracks over seeds, computes accuracies against held-out target labels, and
records quantum-vs-classical parity rows.

Exit-code policy (enforced by the CLI): infrastructure failures are hard
errors; parity disagreements are data, recorded with pass flags.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classical_sa as csa
from . import quantum_sa as qsa
from .datasets import (
    Domain,
    DomainShift,
    SynthSpec,
    center_columns_in_place,
    load_csv,
    split_label_row,
)
from .errors import ConfigurationError, ShapeError, SubalignError
from .quantum_core import ShotPlan

SCHEMA_VERSION = 1
ENV_PREFIX = "SUBALIGN_"

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "run",
    "compare_tracks",
    "parse_config_text",
]


@dataclass
class ExperimentConfig:
    dataset: SynthSpec | None = field(default_factory=SynthSpec)
    source_csv: str | None = None
    target_csv: str | None = None
    label_column: int | None = None
    d: int = 1
    track: str = "classical"
    classifier: str = "nn"
    kernel: csa.KernelSpec | None = None
    precision_qubits: int = 8
    ae_bits: int = 7
    shots: int = 1024
    repeats: int = 15
    exact_theta: bool = True
    gamma: float = 1.0
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "runs"
    workers: int = 1

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigurationError("seeds: at least one seed required")
        if min(self.seeds) < 0:
            raise ConfigurationError("seeds: must be non-negative")
        if self.d < 1:
            raise ConfigurationError("d: must be >= 1")
        if self.track not in ("classical", "quantum", "both"):
            raise ConfigurationError(f"track: unknown value {self.track!r}")
        if self.classifier not in ("nn", "svm", "both"):
            raise ConfigurationError(f"classifier: unknown value {self.classifier!r}")
        if not 1 <= self.precision_qubits <= 12:
            raise ConfigurationError("quantum.precision_qubits: must be in 1..12")
        if not 1 <= self.ae_bits <= 10:
            raise ConfigurationError("quantum.ae_bits: must be in 1..10")
        if self.shots < 1 or self.repeats < 1 or self.workers < 1:
            raise ConfigurationError("shots, repeats, workers must be >= 1")
        if self.gamma <= 0:
            raise ConfigurationError("gamma: must be > 0")
        if self.dataset is None and (self.source_csv is None or self.target_csv is None):
            raise ConfigurationError("dataset: need a synth spec or both CSV paths")
        if self.dataset is not None:
            self.dataset.validate()
            if self.d > self.dataset.D:
                raise ConfigurationError(
                    f"d: {self.d} exceeds the feature dimension D={self.dataset.D}"
                )
            self.check_quantum_caps(self.dataset.n_s)

    def check_quantum_caps(self, n_s: int) -> None:
        """Reject a quantum NN run over ``qsa.QNN_MAX_SOURCES`` sources; the
        harness calls it before any work (for CSV inputs, once loaded)."""
        if self.track not in ("quantum", "both") or self.classifier == "svm":
            return
        if n_s > qsa.QNN_MAX_SOURCES:
            raise ConfigurationError(
                f"quantum caps exceeded: the NN track needs n_s <= {qsa.QNN_MAX_SOURCES}"
            )


@dataclass
class RunReport:
    schema_version: int
    config: dict
    accuracy: list[dict]
    parity: list[dict]
    timings: list[dict]

    def to_json(self) -> str:
        # the fields hold plain dicts and lists already, so they are written
        # as they are: dataclasses.asdict would deep-copy every row first.
        # JSON has no NaN, so an unknown accuracy (unlabeled target) is null.
        accuracy = [
            row if math.isfinite(row["accuracy"]) else {**row, "accuracy": None}
            for row in self.accuracy
        ]
        return json.dumps({**vars(self), "accuracy": accuracy}, indent=2)

    @classmethod
    def from_json(cls, doc: str) -> "RunReport":
        fields = json.loads(doc)
        fields.pop("sweep", None)  # older reports carry a qPCA precision-sweep section
        for row in fields["accuracy"]:
            if row["accuracy"] is None:
                row["accuracy"] = math.nan
        return cls(**fields)


# ---------------------------------------------------------------------------
# config parsing


def _parse_bool(v: str) -> bool:
    if v.lower() in ("1", "true", "yes", "on"):
        return True
    if v.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(v)


def _parse_seeds(v: str) -> tuple[int, ...]:
    return tuple(int(s) for s in v.split(",") if s.strip())


_KEY_MAP = {
    "dataset.D": ("dataset", "D", int),
    "dataset.n_s": ("dataset", "n_s", int),
    "dataset.n_t": ("dataset", "n_t", int),
    "dataset.classes": ("dataset", "class_count", int),
    "dataset.separation": ("dataset", "class_separation", float),
    "dataset.noise_sigma": ("dataset", "noise_sigma", float),
    "dataset.rotation": ("shift", "rotation_angle", float),
    "dataset.translation": ("shift", "translation", float),
    "dataset.scale": ("shift", "scale", float),
    "dataset.source_csv": (None, "source_csv", str),
    "dataset.target_csv": (None, "target_csv", str),
    "dataset.label_column": (None, "label_column", int),
    "d": (None, "d", int),
    "track": (None, "track", str),
    "classifier": (None, "classifier", str),
    "gamma": (None, "gamma", float),
    "kernel.kind": ("kernel", "kind", str),
    "kernel.degree": ("kernel", "degree", int),
    "quantum.precision_qubits": (None, "precision_qubits", int),
    "quantum.ae_bits": (None, "ae_bits", int),
    "quantum.shots": (None, "shots", int),
    "quantum.repeats": (None, "repeats", int),
    "quantum.exact_theta": (None, "exact_theta", _parse_bool),
    "seeds": (None, "seeds", _parse_seeds),
    "output_dir": (None, "output_dir", str),
    "workers": (None, "workers", int),
}


def parse_config_text(text: str, environ: dict | None = None) -> ExperimentConfig:
    """Parse the flat dotted-key config format, then apply SUBALIGN_*
    environment overrides (dots become underscores, case-insensitive)."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs[key] = value
    environ = os.environ if environ is None else environ
    for key in _KEY_MAP:
        env_name = ENV_PREFIX + key.upper().replace(".", "_")
        if env_name in environ:
            pairs[key] = environ[env_name]
    return _build_config(pairs)


def _build_config(pairs: dict[str, str]) -> ExperimentConfig:
    cfg_kwargs: dict = {}
    ds_kwargs: dict = {}
    shift_kwargs: dict = {}
    kernel_kwargs: dict = {}
    groups = {None: cfg_kwargs, "dataset": ds_kwargs, "shift": shift_kwargs, "kernel": kernel_kwargs}
    for key, value in pairs.items():
        if key not in _KEY_MAP:
            raise ConfigurationError(f"unknown config key {key!r}")
        group, name, conv = _KEY_MAP[key]
        try:
            groups[group][name] = conv(value)
        except ValueError:
            raise ConfigurationError(f"{key}: malformed value {value!r}") from None
    if cfg_kwargs.get("source_csv"):
        cfg_kwargs["dataset"] = None
    else:
        spec = SynthSpec(**ds_kwargs)
        if shift_kwargs:
            spec = replace(spec, domain_shift=DomainShift(**shift_kwargs))
        cfg_kwargs["dataset"] = spec
    if kernel_kwargs:
        cfg_kwargs["kernel"] = csa.KernelSpec(**kernel_kwargs)
    cfg = ExperimentConfig(**cfg_kwargs)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# execution


def _load_domains(config: ExperimentConfig, seed: int):
    """Yield this seed's source domain, then its target domain (labels
    hidden). The target is loaded only when it is asked for, and by then no
    reference to the source is left here, nor to the target once it is
    yielded: a caller that drops the source before asking for the target
    never holds both."""
    if config.dataset is not None:
        from .datasets import synth_domains

        yield from synth_domains(replace(config.dataset, seed=seed))
        return
    source = load_csv(config.source_csv, config.label_column)
    if source.labels is None:
        raise ConfigurationError(
            f"{config.source_csv}: the source needs labels; set dataset.label_column"
        )
    config.check_quantum_caps(source.n)
    dim = source.dim
    yield source
    del source
    yield _load_csv_target(config, dim)


def _load_csv_target(config: ExperimentConfig, dim: int) -> Domain:
    """The target CSV as a domain with hidden labels, for a source with
    ``dim`` feature columns."""
    # the target holds the features alone (as `subalign synth` writes it,
    # with the labels in a file of their own) or the label column as well
    target = load_csv(config.target_csv)
    if target.dim == dim + 1:
        target = split_label_row(target, config.label_column)
    elif target.dim != dim:
        raise ShapeError(
            f"source {config.source_csv} has {dim} feature columns but "
            f"target {config.target_csv} has {target.dim} columns (expected "
            f"{dim}, or {dim + 1} with the label column)"
        )
    target.labels_hidden = True
    return target


def _accuracy(pred: np.ndarray, truth: np.ndarray | None) -> float:
    if truth is None:  # unlabeled CSV target: accuracy unknowable
        return float("nan")
    return float(np.mean(pred == truth))


def _parity_row(quantity, classical_val, quantum_val, abs_err, tol):
    rel = abs_err / max(abs(classical_val), 1e-300)
    return {
        "quantity": quantity,
        "classical": float(classical_val),
        "quantum": float(quantum_val),
        "abs_err": float(abs_err),
        "rel_err": float(rel),
        "tolerance": float(tol),
        "pass": bool(abs_err <= tol),
    }


def _label_row(quantity, pred, ref, tol):
    """Label-agreement row. It passes when at most floor(tol m) of the m
    labels flip, counted as integers: in floats 1 - agree rounds above tol at
    exactly that count (1 - 0.98 > 0.02)."""
    agree = float(np.mean(pred == ref))
    row = _parity_row(quantity, 1.0, agree, 1.0 - agree, tol)
    row["pass"] = int(np.count_nonzero(pred != ref)) <= math.floor(tol * pred.size + 1e-9)
    return row


def _run_seed(config: ExperimentConfig, seed: int) -> dict:
    t_start = time.perf_counter()
    # the classical NN track reads a domain's samples only through its d x n
    # projection, so there each domain is dropped once it is projected and
    # the two are never held together; every other stage reads the samples
    # after both domains are loaded
    keep_samples = (
        config.track != "classical" or config.classifier != "nn" or config.kernel is not None
    )
    accuracy, parity, timings, trace = [], [], [], []
    domains = _load_domains(config, seed)
    # each domain was loaded for this seed alone, so it is centered in place:
    # every track works on the centered domains, and no raw copy is kept
    source = next(domains)
    center_columns_in_place(source)
    t0 = time.perf_counter()
    Ps = csa.pca_subspace(source, config.d)
    X_hat_s = Ps.P.T @ source.samples
    align_s = time.perf_counter() - t0
    ys = source.visible_labels
    if not keep_samples:
        del source
    target = next(domains)
    del domains  # and with it the loader's frames, which every later peak would carry
    center_columns_in_place(target)
    t0 = time.perf_counter()
    Pt = csa.pca_subspace(target, config.d)
    X_hat_t = Pt.P.T @ target.samples
    truth = target.labels  # for evaluation only
    if not keep_samples:
        del target
    art = csa.build_alignment(Ps, Pt, X_hat_s, X_hat_t, projected=True)
    if config.track == "classical":
        del X_hat_s  # only the quantum track's parity rows read it
    A_factors = (art.P_a, art.P_t)  # A = P_a P_t^T, never formed
    timings.append({"seed": seed, "stage": "classical_align",
                    "seconds": align_s + time.perf_counter() - t0})

    want_nn = config.classifier in ("nn", "both")
    want_svm = config.classifier in ("svm", "both")
    # the classical labels are both the classical track's output and the
    # reference the quantum track's label parity is measured against
    t0 = time.perf_counter()
    if want_nn:
        nn_pred = csa.nn_classify(art.X_hat_a, ys, art.X_hat_t)
    if want_svm:
        svm_model = csa.svm_train(source, A_factors, config.gamma)
        svm_pred = csa.svm_classify(svm_model, target.samples)
    if config.track in ("classical", "both"):
        if want_nn:
            accuracy.append(
                {"seed": seed, "track": "classical", "classifier": "nn",
                 "accuracy": _accuracy(nn_pred, truth)}
            )
        if want_svm:
            accuracy.append(
                {"seed": seed, "track": "classical", "classifier": "svm",
                 "accuracy": _accuracy(svm_pred, truth)}
            )
    timings.append({"seed": seed, "stage": "classical_classify", "seconds": time.perf_counter() - t0})

    if config.kernel is not None:
        t0 = time.perf_counter()
        fit = csa.kernel_sa_fit(source, target, config.kernel, config.d)
        pred = csa.nn_classify(fit.Z_a, ys, fit.Z_t)
        # the kernel-PCA spectrum at the cut: "features" bases live in the
        # r-dim feature space, "gram" bases in the n-dim index space
        Bs, Bt = fit.basis_s, fit.basis_t
        trace.append({
            "seed": seed, "stage": "kernel_fit", "path": fit.path,
            "dim_s": Bs.P.shape[0], "lambda_d_s": float(Bs.eigenvalues[-1]), "gap_s": Bs.gap,
            "dim_t": Bt.P.shape[0], "lambda_d_t": float(Bt.eigenvalues[-1]), "gap_t": Bt.gap,
            "warnings": fit.warnings,
        })
        accuracy.append(
            {"seed": seed, "track": "kernel", "classifier": "nn",
             "accuracy": _accuracy(pred, truth)}
        )
        timings.append({"seed": seed, "stage": "kernel_track", "seconds": time.perf_counter() - t0})

    if config.track in ("quantum", "both"):
        t0 = time.perf_counter()
        q_bases = []
        for domain, data in (("source", source), ("target", target)):
            res = qsa.qpca(data, config.d, config.precision_qubits)
            # the outcome k each basis vector read out at, its probability, the
            # readout gap at the cut (eigenvalue units) and the lattice-tie warnings
            trace.append({
                "seed": seed, "stage": "qpca", "domain": domain,
                "outcomes": res.outcomes.tolist(),
                "readout_probabilities": res.readout_probabilities.tolist(),
                "gap": res.basis.gap, "warnings": res.basis.warnings,
            })
            q_bases.append(res.basis)
        q_Ps, q_Pt = q_bases
        chain = qsa.q_build_alignment(
            q_Ps, q_Pt, source, target,
            precision_qubits=config.precision_qubits,
            exact_theta=config.exact_theta,
        )
        timings.append({"seed": seed, "stage": "quantum_align", "seconds": time.perf_counter() - t0})
        classical_ref = {
            "M": art.M_star,
            "X_hat_s": X_hat_s,
            "X_hat_a": art.X_hat_a,
            "X_hat_t": art.X_hat_t,
        }
        for stage in ("M", "X_hat_s", "X_hat_a", "X_hat_t"):
            ips = chain.pop(f"{stage}_state")  # the classifiers need only the matrices
            trace.append({
                "seed": seed,
                "stage": stage,
                # index registers |i>^I1 |j>^I2 wide enough for the r x c array
                "registers": [
                    [name, max(1, math.ceil(math.log2(size)))]
                    for name, size in zip(("I1", "I2"), ips.amplitudes.shape)
                ],
                "success_probability": float(ips.success_probability),
                "scale": float(ips.scale),
                "max_deviation": float(np.max(np.abs(ips.as_matrix() - classical_ref[stage]))),
            })
        del ips, classical_ref, X_hat_s  # the classifiers need none of them
        # entrywise tolerances: exact-theta mode is limited by float error.
        # With finite precision, M*_ij = u.v for unit columns u of Ps and v
        # of Pt. Rounding theta to the pi/2^n lattice moves it by at most
        # pi/2^(n+1), and the recovered cosine rec = -cos(2 theta) has slope
        # at most 2, so each entry is off by at most pi/2^n * ||u|| ||v||,
        # which is pi/2^n
        m_tol = 1e-6 if config.exact_theta else math.pi / 2**config.precision_qubits
        m_err = np.max(np.abs(chain["M_star"] - art.M_star))
        parity.append(_parity_row(
            f"seed{seed}.M_star", np.max(np.abs(art.M_star)), np.max(np.abs(chain["M_star"])),
            m_err, m_tol,
        ))
        # X_hat_a: the 2^(1-n) overlap lattice times the scales
        eps = 1e-6 if config.exact_theta else 2.0 ** (1 - config.precision_qubits)
        scale_a = max(1.0, float(np.max(np.abs(art.X_hat_a))))
        a_err = np.max(np.abs(chain["X_hat_a"] - art.X_hat_a))
        parity.append(_parity_row(
            f"seed{seed}.X_hat_a", np.max(np.abs(art.X_hat_a)), np.max(np.abs(chain["X_hat_a"])),
            a_err, eps * 3 * scale_a,
        ))
        plan = ShotPlan(
            shots=config.shots, seed=seed,
            mode="exact_expectation" if config.exact_theta else "sampled",
        )
        t0 = time.perf_counter()
        if want_nn:
            q_pred, diag = qsa.q_nn_classify(
                chain["X_hat_a"], ys, chain["X_hat_t"], plan,
                ae_bits=config.ae_bits, repeats=config.repeats,
            )
            trace.append({
                "seed": seed, "stage": "q_nn_classify", "m": len(diag),
                "oracle_queries": int(sum(row["oracle_queries"] for row in diag)),
                "ambiguous": sum(1 for row in diag if row["warning"]),
            })
            del diag  # its rows keep the (n_t, n_s) estimates alive
            # exact mode can still disagree when the AE lattice ties two
            # distances, so allow a couple of flips; sampled mode gets more
            parity.append(_label_row(
                f"seed{seed}.nn_labels", q_pred, nn_pred, 0.02 if config.exact_theta else 0.05,
            ))
            accuracy.append(
                {"seed": seed, "track": "quantum", "classifier": "nn",
                 "accuracy": _accuracy(q_pred, truth)}
            )
        if want_svm:
            q_model = qsa.q_svm_train(source, A_factors, config.gamma,
                                      precision_qubits=max(config.precision_qubits, 10))
            q_pred, info = qsa.q_svm_classify(q_model, source, A_factors, target.samples, plan)
            trace.append({
                "seed": seed, "stage": "q_svm_classify", "m": len(q_pred),
                "low_confidence": int(np.sum(info["low_confidence"])),
                "success_probability": q_model.success_probability, "N_x": q_model.N_x,
            })
            svm_tol = 0.02
            if not plan.exact:
                # A sampled decision is 2k/shots - 1 with k ~ Binomial(shots,
                # (1 + r)/2), r the exact overlap; sign(0) -> +1. It flips the
                # exact label only if it moves by at least |r|, i.e. k/shots
                # leaves its mean by |r|/2, which Hoeffding bounds by
                # exp(-shots r^2 / 2). The m targets flip independently, so
                # Hoeffding on their mean puts the flipped fraction above the
                # mean bound by more than sqrt(ln(100) / (2m)) with
                # probability below 1%. The exact-mode allowance stays on top.
                r = info["exact_overlap"]
                svm_tol += float(np.mean(np.exp(-config.shots * r**2 / 2)))
                svm_tol += math.sqrt(math.log(100) / (2 * r.size))
            parity.append(_label_row(f"seed{seed}.svm_labels", q_pred, svm_pred, svm_tol))
            accuracy.append(
                {"seed": seed, "track": "quantum", "classifier": "svm",
                 "accuracy": _accuracy(q_pred, truth)}
            )
        timings.append({"seed": seed, "stage": "quantum_classify", "seconds": time.perf_counter() - t0})

    timings.append({"seed": seed, "stage": "total", "seconds": time.perf_counter() - t_start})
    return {"accuracy": accuracy, "parity": parity, "timings": timings, "trace": trace}


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured tracks over every seed and write the report
    files (JSON report plus accuracy/parity CSV tables) to output_dir."""
    config.validate()
    seeds = list(config.seeds)
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(lambda s: _run_seed(config, s), seeds))
    else:
        results = [_run_seed(config, s) for s in seeds]
    # merge deterministically in seed order (map already preserves it)
    report = RunReport(
        schema_version=SCHEMA_VERSION,
        config=dataclasses.asdict(config),
        accuracy=[row for r in results for row in r["accuracy"]],
        parity=[row for r in results for row in r["parity"]],
        timings=[row for r in results for row in r["timings"]],
    )
    trace_rows = [row for r in results for row in r["trace"]]
    _write_outputs(config, report, trace_rows)
    return report


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def _write_outputs(
    config: ExperimentConfig, report: RunReport, trace_rows: list[dict] | None = None
) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"report_v{SCHEMA_VERSION}.json").write_text(report.to_json(), encoding="utf-8")
    if trace_rows:
        with open(out / f"trace_v{SCHEMA_VERSION}.jsonl", "w", encoding="utf-8") as fh:
            for row in trace_rows:
                fh.write(json.dumps(row) + "\n")
    _write_csv(
        out / f"accuracy_v{SCHEMA_VERSION}.csv",
        report.accuracy,
        ["seed", "track", "classifier", "accuracy"],
    )
    _write_csv(
        out / f"parity_v{SCHEMA_VERSION}.csv",
        report.parity,
        ["quantity", "classical", "quantum", "abs_err", "rel_err", "tolerance", "pass"],
    )


def compare_tracks(report: RunReport) -> list[dict]:
    """Summarize a both-track report: per-quantity max error and label
    agreement."""
    tracks = {row["track"] for row in report.accuracy}
    if not {"classical", "quantum"} <= tracks:
        raise SubalignError("report does not contain both tracks; run with track=both")
    if not report.parity:
        raise SubalignError("report has an empty parity section")
    rows = []
    by_quantity: dict[str, list[dict]] = {}
    for rec in report.parity:
        name = rec["quantity"].split(".", 1)[-1]
        by_quantity.setdefault(name, []).append(rec)
    for name, recs in sorted(by_quantity.items()):
        if name.endswith("labels"):
            rows.append({
                "quantity": name, "kind": "agreement",
                "value": float(np.mean([r["quantum"] for r in recs])),
                "all_pass": all(r["pass"] for r in recs),
            })
        else:
            rows.append({
                "quantity": name, "kind": "max_abs_err",
                "value": float(np.max([r["abs_err"] for r in recs])),
                "all_pass": all(r["pass"] for r in recs),
            })
    return rows
