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
import re
import time
from contextlib import contextmanager
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
from .errors import ConfigurationError, ParseError, ShapeError, SubalignError
from .quantum_core import MAX_AE_QUBITS, MAX_GROVER_N, ShotPlan

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
        if self.kernel is not None and self.classifier == "svm":
            raise ConfigurationError(
                "kernel.kind: the kernel track classifies with the NN alone; "
                "set classifier = nn or both"
            )
        if not 1 <= self.precision_qubits <= 12:
            raise ConfigurationError("quantum.precision_qubits: must be in 1..12")
        if not 1 <= self.ae_bits <= MAX_AE_QUBITS:
            raise ConfigurationError(f"quantum.ae_bits: must be in 1..{MAX_AE_QUBITS}")
        if self.shots < 1 or self.workers < 1:
            raise ConfigurationError("shots, workers must be >= 1")
        if not self.gamma > 0:  # written so that NaN fails it too
            raise ConfigurationError("gamma: must be > 0")
        if self.dataset is None and (self.source_csv is None or self.target_csv is None):
            raise ConfigurationError("dataset: need a synth spec or both CSV paths")
        if self.dataset is not None:
            ds = self.dataset
            ds.validate()
            if self.d > min(ds.D, ds.n_s, ds.n_t):
                raise ConfigurationError(
                    f"d: {self.d} exceeds the feature dimension D={ds.D} or a sample "
                    f"count (n_s={ds.n_s}, n_t={ds.n_t})"
                )
            if self.classifier != "nn" and ds.class_count != 2:
                raise ConfigurationError("classifier: the SVM needs dataset.classes = 2")
            self.check_quantum_caps(ds.n_s)

    def check_quantum_caps(self, n_s: int) -> None:
        """Reject a quantum NN run over ``MAX_GROVER_N`` sources; the harness
        calls it before any work (for CSV inputs, once loaded)."""
        if self.track != "classical" and self.classifier != "svm" and n_s > MAX_GROVER_N:
            raise ConfigurationError(
                f"quantum caps exceeded: the NN track needs n_s <= {MAX_GROVER_N}"
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
    "quantum.exact_theta": (None, "exact_theta", _parse_bool),
    "seeds": (None, "seeds", _parse_seeds),
    "output_dir": (None, "output_dir", str),
    "workers": (None, "workers", int),
}


def parse_config_text(text: str, environ: dict | None = None) -> ExperimentConfig:
    """Parse the flat dotted-key config format, then apply SUBALIGN_*
    environment overrides: the key upper-cased, its dots as underscores
    (quantum.shots -> SUBALIGN_QUANTUM_SHOTS); no other spelling is read."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a comment starts at a # that begins the line or follows whitespace
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
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
        if conv is float and not math.isfinite(groups[group][name]):
            raise ConfigurationError(f"{key}: must be finite, got {value!r}")
    # a key that the chosen input ignores is rejected, not dropped
    csv_input = bool(cfg_kwargs.get("source_csv"))
    for key in pairs:
        group = _KEY_MAP[key][0]
        if csv_input and group in ("dataset", "shift"):
            raise ConfigurationError(f"{key}: a synthetic-data key, unused with dataset.source_csv")
        if key == "dataset.label_column" and not csv_input:
            raise ConfigurationError(f"{key}: read only with dataset.source_csv")
        if key == "kernel.degree" and kernel_kwargs.get("kind") != "polynomial":
            raise ConfigurationError(f"{key}: read only with kernel.kind = polynomial")
    if csv_input:
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
    if config.d > min(source.dim, source.n):
        raise ConfigurationError(
            f"d: {config.d} exceeds the feature dimension D={source.dim} or the sample "
            f"count n_s={source.n} of {config.source_csv}"
        )
    if config.classifier != "nn" and not np.all(np.abs(source.labels) == 1):
        raise ConfigurationError(f"{config.source_csv}: the SVM needs labels in {{-1, +1}}")
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
        try:
            target = split_label_row(target, config.label_column)
        except ConfigurationError as exc:
            raise ParseError(
                f"{config.target_csv}: label column {config.label_column}: {exc}"
            ) from None
    elif target.dim != dim:
        raise ShapeError(
            f"source {config.source_csv} has {dim} feature columns but "
            f"target {config.target_csv} has {target.dim} columns (expected "
            f"{dim}, or {dim + 1} with the label column)"
        )
    if config.d > target.n:
        raise ConfigurationError(
            f"d: {config.d} exceeds the sample count n_t={target.n} of {config.target_csv}"
        )
    target.labels_hidden = True
    return target


def _accuracy_row(seed: int, track: str, classifier: str, pred, truth) -> dict:
    # an unlabeled CSV target has no truth, so its accuracy is unknowable
    acc = float("nan") if truth is None else float(np.mean(pred == truth))
    return {"seed": seed, "track": track, "classifier": classifier, "accuracy": acc}


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


@contextmanager
def _stage(seconds: dict, name: str):
    """Add the seconds the block takes to ``seconds[name]``: a stage's
    timing row sums every block timed under its name."""
    t0 = time.perf_counter()
    yield
    seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0


def _product_stage(trace: list, seed: int, stage: str, P, Q, config: ExperimentConfig, classical):
    """One stage of the multiplication pipeline: the state of P^T Q, read
    back to its matrix once, and the matrix's largest entrywise deviation
    from its classical twin ``classical``. Both go into the stage's trace
    row, and no reference to the state outlives the call."""
    state = qsa.matrix_product_state(P, Q, config.precision_qubits, config.exact_theta)
    matrix = state.as_matrix()
    deviation = float(np.max(np.abs(matrix - classical)))
    trace.append({
        "seed": seed, "stage": stage,
        # index registers |i>^I1 |j>^I2 wide enough for the r x c array
        "registers": [[name, max(1, math.ceil(math.log2(size)))]
                      for name, size in zip(("I1", "I2"), matrix.shape)],
        "success_probability": float(state.success_probability),
        "scale": float(state.scale), "max_deviation": deviation,
    })
    return matrix, deviation


def _domain_pass(config: ExperimentConfig, seed: int, name: str, domain: Domain, trace, seconds):
    """One domain's pass: center ``domain`` in place (it was loaded for this
    seed alone) and take the `eigh` of its scatter. Its PCA basis and, on the
    quantum track, its qPCA basis read that exact spectrum (each with a trace
    row); then its projection and the matrix its projection's state reads back
    to (and that stage's row). Returns (basis, X_hat, q_basis, read-back X_hat)."""
    center_columns_in_place(domain)
    with _stage(seconds, "classical_align"):
        spectrum = csa.scatter_spectrum(domain.samples)
        basis = csa._top_basis(*spectrum, config.d)
    if not basis.eigenvalues[0] > 0:  # before qPCA, whose error names no domain
        raise ConfigurationError(
            f"the {name} domain's centered samples are all 0: every sample is the same "
            "point, or a shift or scale swamps the draws in float64"
        )
    # the eigenvalue gap at the cut and the degeneracy warning
    trace.append({"seed": seed, "stage": "pca", "domain": name,
                  "gap": basis.gap, "warnings": basis.warnings})
    if config.track != "classical":
        with _stage(seconds, "quantum_align"):
            res = qsa.qpca(spectrum, config.d, config.precision_qubits)
        # the outcome k each basis vector read out at, its probability, the
        # readout gap at the cut (eigenvalue units) and the lattice-tie warnings
        trace.append({
            "seed": seed, "stage": "qpca", "domain": name,
            "outcomes": res.outcomes.tolist(),
            "readout_probabilities": res.readout_probabilities.tolist(),
            "gap": res.basis.gap, "warnings": res.basis.warnings,
        })
    del spectrum  # after its last reader: no D x D array is alive at the projections
    with _stage(seconds, "classical_align"):
        X_hat = basis.P.T @ domain.samples
    if config.track == "classical":
        return basis, X_hat, None, None
    with _stage(seconds, "quantum_align"):
        q_X_hat, _ = _product_stage(
            trace, seed, f"X_hat_{name[0]}", res.basis.P, domain.samples, config, X_hat
        )
    return basis, X_hat, res.basis, q_X_hat


def _run_seed(config: ExperimentConfig, seed: int) -> dict:
    t_start = time.perf_counter()
    classifiers = ("nn", "svm") if config.classifier == "both" else (config.classifier,)
    quantum = config.track in ("quantum", "both")
    # past its domain's pass, a domain's samples are read only by the kernel
    # fit (its hard-kernel range spans both domains), run right after the
    # target's pass, and by SVM training (both tracks), which reads the
    # source alone and runs right after the alignment: the SVMs decide on
    # X_hat_t. Each domain is dropped as soon as nothing later reads it, so
    # none is alive at any quantum product stage or classifier
    source_read_late = config.kernel is not None or "svm" in classifiers
    parity, trace, seconds = [], [], {}
    domains = _load_domains(config, seed)
    source = next(domains)
    Ps, X_hat_s, q_Ps, q_X_hat_s = _domain_pass(config, seed, "source", source, trace, seconds)
    ys = source.visible_labels
    if not source_read_late:
        del source
    target = next(domains)
    del domains  # and with it the loader's frames, which every later peak would carry
    Pt, X_hat_t, q_Pt, q_X_hat_t = _domain_pass(config, seed, "target", target, trace, seconds)
    truth = target.labels  # for evaluation only
    if config.kernel is not None:
        with _stage(seconds, "kernel_track"):
            fit = csa.kernel_sa_fit(source, target, config.kernel, config.d)
        # the kernel-PCA spectrum at the cut: "features" bases live in the
        # r-dim feature space, "gram" bases in the n-dim index space
        Bs, Bt = fit.basis_s, fit.basis_t
        trace.append({
            "seed": seed, "stage": "kernel_fit", "path": fit.path,
            "dim_s": Bs.P.shape[0], "lambda_d_s": float(Bs.eigenvalues[-1]), "gap_s": Bs.gap,
            "dim_t": Bt.P.shape[0], "lambda_d_t": float(Bt.eigenvalues[-1]), "gap_t": Bt.gap,
            "warnings": fit.warnings,
        })
    del target
    with _stage(seconds, "classical_align"):
        art = csa.build_alignment(Ps, Pt, X_hat_s, X_hat_t, projected=True)
    del X_hat_s  # the aligned source replaces it
    A_factors = (art.P_a, art.P_t)  # A = P_a P_t^T, never formed

    # both SVM trainings, each timed in its track's classify stage
    if "svm" in classifiers:
        with _stage(seconds, "classical_classify"):
            svm_model = csa.svm_train(source, A_factors, config.gamma)
        if quantum:
            with _stage(seconds, "quantum_classify"):
                q_model = qsa.q_svm_train(source, A_factors, config.gamma)
    if source_read_late:
        del source

    if quantum:
        with _stage(seconds, "quantum_align"):
            M, dev_M = _product_stage(trace, seed, "M", q_Ps.P, q_Pt.P, config, art.M_star)
            # X_hat_a = M*^T X_hat_s, from the matrices the M and X_hat_s states read back to
            X_hat_a, dev_a = _product_stage(trace, seed, "X_hat_a", M, q_X_hat_s, config,
                                            art.X_hat_a)
        del q_X_hat_s
        # entrywise tolerances: exact-theta mode is limited by float error.
        # With finite precision, M*_ij = u.v for unit columns u of Ps and v
        # of Pt. Rounding theta to the pi/2^n lattice moves it by at most
        # pi/2^(n+1), and the recovered cosine rec = -cos(2 theta) has slope
        # at most 2, so each entry is off by at most pi/2^n * ||u|| ||v||,
        # which is pi/2^n
        m_tol = 1e-6 if config.exact_theta else math.pi / 2**config.precision_qubits
        parity.append(_parity_row(
            f"seed{seed}.M_star", np.max(np.abs(art.M_star)), np.max(np.abs(M)), dev_M, m_tol,
        ))
        # X_hat_a: the 2^(1-n) overlap lattice times the scales
        eps = 1e-6 if config.exact_theta else 2.0 ** (1 - config.precision_qubits)
        scale_a = max(1.0, float(np.max(np.abs(art.X_hat_a))))
        parity.append(_parity_row(
            f"seed{seed}.X_hat_a", np.max(np.abs(art.X_hat_a)), np.max(np.abs(X_hat_a)),
            dev_a, eps * 3 * scale_a,
        ))

    # the target labels of each (track, classifier), in report order. The
    # classical labels are both the classical track's output and the
    # reference the quantum track's label parity is measured against
    labels = {}
    with _stage(seconds, "classical_classify"):
        if "nn" in classifiers:
            labels["classical", "nn"] = csa.nn_classify(art.X_hat_a, ys, art.X_hat_t)
        if "svm" in classifiers:
            labels["classical", "svm"] = csa.svm_classify(svm_model, art.X_hat_t)

    if config.kernel is not None:
        with _stage(seconds, "kernel_track"):
            labels["kernel", "nn"] = csa.nn_classify(fit.Z_a, ys, fit.Z_t)

    label_tol = {}  # each quantum classifier's label-parity tolerance
    if quantum:
        plan = ShotPlan(
            shots=config.shots, seed=seed,
            mode="exact_expectation" if config.exact_theta else "sampled",
        )
        with _stage(seconds, "quantum_classify"):
            if "nn" in classifiers:
                # a Durr-Hoyer search finds its row's minimum with probability
                # >= 1/2 (grover_min_find), so r repeats all miss with
                # probability <= 2^-r, and a union bound over the m targets
                # keeps a seed's chance of any miss at m 2^-r <= 1%, the
                # budget the sampled svm_labels row uses too
                repeats = math.ceil(math.log2(100 * q_X_hat_t.shape[1]))
                labels["quantum", "nn"], records = qsa.q_nn_classify(
                    X_hat_a, ys, q_X_hat_t, plan, ae_bits=config.ae_bits, repeats=repeats,
                )
                # exact mode, unflagged: a search miss (chance <= 1%) or a bug
                flips = labels["quantum", "nn"] != labels["classical", "nn"]
                trace.append({
                    "seed": seed, "stage": "q_nn_classify", "m": len(records),
                    "oracle_queries": int(records["oracle_queries"].sum()),
                    "ambiguous": int(records["warning"].sum()),
                    "flips": int(flips.sum()),
                    "unflagged_flips": int((flips & ~records["warning"]).sum()),
                })
                # exact mode can still disagree when the AE lattice ties two
                # distances, so allow a couple of flips; sampled mode gets more
                label_tol["nn"] = 0.02 if config.exact_theta else 0.05
            if "svm" in classifiers:
                labels["quantum", "svm"], info = qsa.q_svm_classify(q_model, art.X_hat_t, plan)
                trace.append({
                    "seed": seed, "stage": "q_svm_classify", "m": len(labels["quantum", "svm"]),
                    "low_confidence": int(np.sum(info["low_confidence"])),
                    "success_probability": q_model.success_probability, "N_x": q_model.N_x,
                    "precision_qubits": q_model.precision_qubits,
                })
                label_tol["svm"] = 0.02
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
                    label_tol["svm"] += float(np.mean(np.exp(-config.shots * r**2 / 2)))
                    label_tol["svm"] += math.sqrt(math.log(100) / (2 * r.size))
    for c, tol in label_tol.items():
        parity.append(_label_row(f"seed{seed}.{c}_labels", labels["quantum", c],
                                 labels["classical", c], tol))
    # on track=quantum the classical labels are the parity reference alone
    accuracy = [_accuracy_row(seed, track, c, pred, truth) for (track, c), pred in labels.items()
                if track != "classical" or config.track != "quantum"]

    timings = [{"seed": seed, "stage": name, "seconds": s} for name, s in seconds.items()]
    timings.append({"seed": seed, "stage": "total", "seconds": time.perf_counter() - t_start})
    return {"accuracy": accuracy, "parity": parity, "timings": timings, "trace": trace}


def run(config: ExperimentConfig) -> RunReport:
    """Execute the configured tracks over every seed and write the report
    files (JSON report, accuracy/parity CSV tables and the JSONL trace) to
    output_dir."""
    config.validate()
    seeds = list(config.seeds)
    if config.workers > 1:
        # imported here: it loads logging too, which a sequential run never needs
        from concurrent.futures import ThreadPoolExecutor

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


def _new_file(path: Path):
    """``path`` opened for writing as a new file. An old file is unlinked,
    not truncated: on ext4 with auto_da_alloc, closing a file that was
    truncated and rewritten starts writing it out to disk at once."""
    path.unlink(missing_ok=True)
    return open(path, "w", encoding="utf-8")


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with _new_file(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")


def _write_outputs(config: ExperimentConfig, report: RunReport, trace_rows: list[dict]) -> None:
    """Write every report file, the trace too when it has no rows, so no
    file of an earlier run into ``output_dir`` is left beside this one's."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _new_file(out / f"report_v{SCHEMA_VERSION}.json") as fh:
        fh.write(report.to_json())
    with _new_file(out / f"trace_v{SCHEMA_VERSION}.jsonl") as fh:
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
    """Summarize a report's parity rows: per-quantity max error and label
    agreement."""
    if not report.parity:
        raise SubalignError("report has an empty parity section; run with track=quantum or both")
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
