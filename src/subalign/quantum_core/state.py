"""Exact dense statevector / density-operator algebra over named registers.

Registers are listed most-significant first: for a layout [(a, 1), (b, 2)]
the basis index of |a=1, b=2> is 1*4 + 2 = 6. Desk-scale caps: 24 qubits for
statevectors, 12 for density operators.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, EncodingError, ShapeError, ValidationError

MAX_QUBITS = 24
MAX_DENSITY_QUBITS = 12
NORM_TOL = 1e-10


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named registers; first register holds the most significant bits."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.registers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate register names in {names}")
        if any(q < 1 for _, q in self.registers):
            raise ConfigurationError("registers need at least one qubit")
        if self.total > MAX_QUBITS:
            raise ConfigurationError(
                f"layout needs {self.total} qubits, cap is {MAX_QUBITS}"
            )

    @classmethod
    def single(cls, name: str, qubits: int) -> "RegisterLayout":
        return cls(((name, qubits),))

    @property
    def total(self) -> int:
        return sum(q for _, q in self.registers)

    @property
    def dim(self) -> int:
        return 2**self.total

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(2**q for _, q in self.registers)

    def qubits(self, name: str) -> int:
        for reg, q in self.registers:
            if reg == name:
                return q
        raise ConfigurationError(f"unknown register {name!r}")

    def axis(self, name: str) -> int:
        for i, (reg, _) in enumerate(self.registers):
            if reg == name:
                return i
        raise ConfigurationError(f"unknown register {name!r}")

    def without(self, name: str) -> "RegisterLayout":
        self.axis(name)
        return RegisterLayout(tuple(r for r in self.registers if r[0] != name))


@dataclass
class QuantumState:
    """Normalized amplitude vector over an explicit register layout.

    ``global_scale`` carries real norms (e.g. Frobenius norms) that
    amplitude encoding drops, so classical matrix entries stay recoverable.
    """

    amplitudes: np.ndarray
    layout: RegisterLayout
    global_scale: float = 1.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.layout.dim,):
            raise ShapeError(
                f"amplitude length {self.amplitudes.shape} != layout dim {self.layout.dim}"
            )
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {norm} deviates from 1")
        if not math.isfinite(self.global_scale) or self.global_scale < 0:
            raise ValidationError("global_scale must be finite and >= 0")

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.shape)

    def to_json(self) -> str:
        """Debug/golden-test dump: layout plus nonzero amplitudes."""
        entries = [
            [int(i), float(a.real), float(a.imag)]
            for i, a in enumerate(self.amplitudes)
            if abs(a) > 0
        ]
        return json.dumps(
            {
                "layout": [[n, q] for n, q in self.layout.registers],
                "global_scale": self.global_scale,
                "amplitudes": entries,
            }
        )

    @classmethod
    def from_json(cls, doc: str) -> "QuantumState":
        obj = json.loads(doc)
        layout = RegisterLayout(tuple((n, q) for n, q in obj["layout"]))
        amps = np.zeros(layout.dim, dtype=complex)
        for i, re, im in obj["amplitudes"]:
            amps[i] = re + 1j * im
        return cls(amps, layout, obj["global_scale"])


@dataclass
class DensityOperator:
    """Hermitian, trace-one, PSD operator over a register layout."""

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.layout.total > MAX_DENSITY_QUBITS:
            raise ConfigurationError(
                f"density operators capped at {MAX_DENSITY_QUBITS} qubits"
            )
        dim = self.layout.dim
        if self.matrix.shape != (dim, dim):
            raise ShapeError("matrix shape does not match layout")
        if abs(np.trace(self.matrix).real - 1.0) > NORM_TOL:
            raise ValidationError(f"trace {np.trace(self.matrix)} deviates from 1")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > NORM_TOL:
            raise ValidationError("matrix is not Hermitian")
        if np.min(np.linalg.eigvalsh(self.matrix)) < -1e-10:
            raise ValidationError("matrix has negative eigenvalues")

    @property
    def dim(self) -> int:
        return self.layout.dim


# measurement stages that draw shot noise: stage -> (spawn-key code, number
# of index values). A seed's streams are SeedSequence children keyed by
# these, because default_rng(s), default_rng([s]) and default_rng([s, 0]) are
# one and the same generator.
STAGE_KEYS = {
    "nn_distances": (0, 1),  # per target: Hadamard-test overlaps, then AE outcomes
    "min_find": (1, 0),  # every Durr-Hoyer search of one call
    "svm_decisions": (2, 0),  # the qSVM Hadamard tests of one call
    "swap_test": (3, 0),  # the swap test of the gate-level oracle
}


@dataclass(frozen=True)
class ShotPlan:
    """Measurement plan: exact expectations or seeded shot sampling."""

    shots: int = 1
    seed: int = 0
    mode: str = "exact_expectation"

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigurationError("shots must be >= 1")
        if self.mode not in ("exact_expectation", "sampled"):
            raise ConfigurationError(f"unknown plan mode {self.mode!r}")

    @property
    def exact(self) -> bool:
        return self.mode == "exact_expectation"

    def rng(self, stage: str, *index: int) -> np.random.Generator:
        """The generator of one measurement stage (and, for a stage that
        draws per item, of item ``index``): a child of the plan's seed keyed
        (stage code, *index). Every key of one stage has the same length, so
        no two stages or items share a stream."""
        if stage not in STAGE_KEYS:
            raise ConfigurationError(f"unknown measurement stage {stage!r}")
        code, width = STAGE_KEYS[stage]
        if len(index) != width:
            raise ConfigurationError(f"stage {stage!r} takes {width} index value(s)")
        key = (code, *(int(i) for i in index))
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


def amplitude_encode(
    v: np.ndarray,
    pad_to_power_of_two: bool = True,
    layout: RegisterLayout | None = None,
    name: str = "data",
) -> QuantumState:
    """Encode a vector as amplitudes v/||v||, with global_scale = ||v||."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise EncodingError("cannot amplitude-encode the zero vector")
    if layout is None:
        qubits = max(1, math.ceil(math.log2(v.size)))
        layout = RegisterLayout.single(name, qubits)
    if v.size > layout.dim:
        raise ShapeError(f"vector of length {v.size} exceeds layout dim {layout.dim}")
    if v.size < layout.dim and not pad_to_power_of_two:
        raise ShapeError("vector length is not a power of two and padding is off")
    amps = np.zeros(layout.dim, dtype=complex)
    amps[: v.size] = v / norm
    return QuantumState(amps, layout, float(norm))


def encode_matrix(
    X: np.ndarray, index_name: str = "i", feature_name: str = "m"
) -> QuantumState:
    """Encode a D x n matrix column-wise over |index>|feature> registers."""
    X = np.asarray(X, dtype=float)
    D, n = X.shape
    iq = max(1, math.ceil(math.log2(n)))
    fq = max(1, math.ceil(math.log2(D)))
    layout = RegisterLayout(((index_name, iq), (feature_name, fq)))
    padded = np.zeros((2**iq, 2**fq))
    padded[:n, :D] = X.T
    return amplitude_encode(padded.reshape(-1), layout=layout)


def partial_trace(obj: QuantumState | DensityOperator, over: str) -> DensityOperator:
    """Trace out one named register."""
    layout = obj.layout
    axis = layout.axis(over)
    k = len(layout.registers)
    shape = layout.shape
    if isinstance(obj, QuantumState):
        psi = obj.reshaped()
        rho = np.tensordot(psi, psi.conj(), axes=([axis], [axis]))
        # axes are now (others of psi..., others of psi.conj()...)
        dims = [s for i, s in enumerate(shape) if i != axis]
        dim = int(np.prod(dims))
        rho = rho.reshape(dim, dim)
    else:
        rho = obj.matrix.reshape(shape + shape)
        rho = np.trace(rho, axis1=axis, axis2=axis + k)
        dims = [s for i, s in enumerate(shape) if i != axis]
        dim = int(np.prod(dims))
        rho = rho.reshape(dim, dim)
    return DensityOperator(rho, layout.without(over))
