"""Source/target domain data: synthesis, CSV I/O, centering.

Internally samples are stored column-wise (a D x n matrix, one column per
point). CSV files are row-wise (one row per sample), matching the common
convention; `load_csv`/`save_csv` transpose accordingly.

Ownership: `synth_domains`, `synth_shifted_gaussians` and `load_csv` return
fresh arrays that belong to the caller. `synth_domains` draws one domain at a
time and keeps no reference to a domain it has yielded, so a caller that
drops the source before asking for the target never holds both;
`synth_shifted_gaussians` takes the pair from it. The harness centers the
domains it loads in place (`center_columns_in_place`) and keeps no raw copy;
`center_columns` leaves its input alone and returns a centered copy. Both
run the same arithmetic, so their results are bitwise identical.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ParseError

__all__ = [
    "Domain",
    "DomainShift",
    "SynthSpec",
    "synth_domains",
    "synth_shifted_gaussians",
    "load_csv",
    "split_label_row",
    "save_csv",
    "center_columns",
    "center_columns_in_place",
]


@dataclass
class Domain:
    """A dataset with optional labels.

    ``samples`` is D x n with columns as points. When ``labels_hidden`` is
    set (synthetic target domains), adaptation code must not look at the
    labels; evaluation code reads them through `hidden_labels`.
    """

    samples: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""
    labels_hidden: bool = False

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ConfigurationError("samples must be a 2-d matrix")
        D, n = self.samples.shape
        if D < 1 or n < 2:
            raise ConfigurationError(f"need D >= 1 and n >= 2, got D={D}, n={n}")
        # a NaN or +-inf entry makes the sum NaN or +-inf, so a finite sum
        # clears every entry without the D x n temporary of isfinite; only a
        # sum that is not finite (a bad entry, or an overflow) is checked
        # entrywise
        if not math.isfinite(self.samples.sum()) and not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("samples contain NaN/Inf entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (n,):
                raise ConfigurationError(
                    f"labels length {self.labels.shape} does not match n={n}"
                )

    @property
    def dim(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @property
    def visible_labels(self) -> np.ndarray | None:
        """Labels as adaptation code may see them (None when hidden)."""
        if self.labels_hidden:
            return None
        return self.labels

    def hidden_labels(self) -> np.ndarray:
        """Evaluation-only accessor for withheld labels."""
        if self.labels is None:
            raise ConfigurationError(f"domain {self.name!r} carries no labels")
        return self.labels


@dataclass(frozen=True)
class DomainShift:
    """Transformation applied to the target draw: rotate the first two
    coordinates, then scale, then translate."""

    rotation_angle: float = 0.0
    translation: tuple[float, ...] | float = 0.0
    scale: float = 1.0

    def apply(self, X: np.ndarray) -> np.ndarray:
        """The shifted copy of X (X is not modified)."""
        out = np.array(X, dtype=float)
        self._apply_in_place(out)
        return out

    def _apply_in_place(self, X: np.ndarray) -> None:
        """Shift the float array X in place: rotate rows 0 and 1, scale every
        row, then translate. A step that is the identity (angle 0, scale 1,
        an all-zero translation) makes no pass, so it also leaves a -0.0
        entry as it is."""
        D = X.shape[0]
        t = np.asarray(self.translation, dtype=float)
        if t.ndim == 0:
            t = np.full(D, float(t))
        if t.shape != (D,):
            raise ConfigurationError(f"translation length {t.shape} != D={D}")
        if D >= 2 and self.rotation_angle != 0.0:
            c, s = math.cos(self.rotation_angle), math.sin(self.rotation_angle)
            x0, x1 = c * X[0] - s * X[1], s * X[0] + c * X[1]
            X[0], X[1] = x0, x1
        if self.scale != 1:
            X *= self.scale
        if np.any(t):
            X += t[:, None]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the shifted-Gaussians generator."""

    D: int = 2
    n_s: int = 40
    n_t: int = 40
    class_count: int = 2
    class_separation: float = 4.0
    domain_shift: DomainShift = field(default_factory=DomainShift)
    noise_sigma: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.D < 1 or self.n_s < 2 or self.n_t < 2 or self.class_count < 1:
            raise ConfigurationError(
                f"invalid synth dimensions: D={self.D}, n_s={self.n_s}, "
                f"n_t={self.n_t}, classes={self.class_count}"
            )
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if not 0.0 <= self.domain_shift.rotation_angle < 2 * math.pi:
            raise ConfigurationError("rotation_angle must lie in [0, 2*pi)")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


def _class_means(spec: SynthSpec) -> np.ndarray:
    # Classes separated along axis 1, adjacent means class_separation apart.
    means = np.zeros((spec.D, spec.class_count))
    offsets = (np.arange(spec.class_count) - (spec.class_count - 1) / 2.0)
    means[0] = offsets * spec.class_separation
    return means


def _class_labels(spec: SynthSpec) -> np.ndarray:
    if spec.class_count == 2:
        return np.array([-1, 1])
    return np.arange(spec.class_count)


def _draw(spec: SynthSpec, rng: np.random.Generator, n: int, shift: DomainShift | None = None):
    """n labelled points: class means plus sigma-scaled noise, then moved by
    ``shift`` in place when one is given. The means are nonzero only in row
    0, so the noise is scaled in place (not at all for sigma = 1) and the
    means are added to row 0 only; the samples equal
    means[:, classes] + sigma * Z before the shift."""
    means = _class_means(spec)
    label_values = _class_labels(spec)
    classes = rng.integers(0, spec.class_count, size=n)
    X = rng.standard_normal((spec.D, n))
    if spec.noise_sigma != 1:
        X *= spec.noise_sigma
    if spec.noise_sigma == 0:
        X[1:] = 0.0  # 0 * z is -0.0 for z < 0; adding the zero mean gives +0.0
    X[0] += means[0, classes]
    if shift is not None:
        shift._apply_in_place(X)  # X is this call's own draw
    return X, label_values[classes]


def synth_domains(spec: SynthSpec):
    """Yield a labelled source domain, then a shifted target domain.

    Both come from the same Gaussian-cluster process and one random stream;
    the target draw is additionally transformed by ``spec.domain_shift``, and
    its labels are retained but hidden. The target is drawn only when it is
    asked for, and a yielded domain is held by the caller alone.
    Deterministic under a fixed seed.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    # each domain is built in the yield expression, so this frame keeps no
    # reference to it while it waits
    yield Domain(*_draw(spec, rng, spec.n_s), name="source")
    yield Domain(*_draw(spec, rng, spec.n_t, spec.domain_shift), name="target", labels_hidden=True)


def synth_shifted_gaussians(spec: SynthSpec) -> tuple[Domain, Domain]:
    """The source and target domains of `synth_domains`, drawn together."""
    source, target = synth_domains(spec)
    return source, target


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def load_csv(path: str, label_column: int | None = None) -> Domain:
    """Load a domain from CSV (rows = samples, optional header row).

    ``label_column`` is a 1-based column index holding integer labels.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ParseError(f"{path}: empty file")
    start = 0
    if not all(_is_number(c) for c in rows[0]):
        start = 1  # header row
    width = len(rows[start]) if start < len(rows) else 0
    if label_column is not None and not 1 <= label_column <= width:
        raise ConfigurationError(
            f"{path}: label_column {label_column} outside 1..{width} (the column count)"
        )
    data = []
    for ridx, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ParseError(f"{path}: ragged row {ridx} (expected {width} cells)")
        vals = []
        for cidx, cell in enumerate(row, start=1):
            if not _is_number(cell):
                raise ParseError(f"{path}: non-numeric cell {cell!r} in row {ridx}")
            vals.append(float(cell))
        data.append(vals)
    domain = Domain(np.array(data, dtype=float).T)
    return domain if label_column is None else split_label_row(domain, label_column)


def split_label_row(domain: Domain, label_column: int) -> Domain:
    """``domain`` without its feature row ``label_column`` (1-based, a CSV
    column), which becomes its integer labels. The samples keep the layout
    `load_csv` gives them."""
    row = label_column - 1
    labels = [int(v) for v in domain.samples[row]]
    return Domain(np.delete(domain.samples.T, row, axis=1).T, labels)


def save_csv(domain: Domain, path: str, header: bool = False) -> None:
    """Write a domain to CSV, mirroring the `load_csv` layout."""
    X = domain.samples
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            cols = [f"f{m}" for m in range(X.shape[0])]
            if domain.labels is not None:
                cols.append("label")
            writer.writerow(cols)
        for j in range(X.shape[1]):
            row = [repr(float(v)) for v in X[:, j]]
            if domain.labels is not None:
                row.append(str(int(domain.labels[j])))
            writer.writerow(row)


def center_columns_in_place(domain: Domain) -> np.ndarray:
    """Subtract the per-feature mean from ``domain.samples`` in place and
    return the mean vector. The caller must own the samples array."""
    mean = domain.samples.mean(axis=1)
    domain.samples -= mean[:, None]
    return mean


def center_columns(domain: Domain) -> tuple[Domain, np.ndarray]:
    """Remove the per-feature mean from a copy of the domain (``domain`` is
    not modified); returns the centered domain and the mean vector for reuse
    on query points."""
    centered = replace(domain, samples=domain.samples.copy(order="K"))
    return centered, center_columns_in_place(centered)
