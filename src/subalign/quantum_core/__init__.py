"""Desk-scale exact quantum simulation: the spectral engine (phase-estimation
outcome distributions and the readouts built on them) plus the register-aware
state types it reads and writes."""

from .state import (
    QuantumState,
    RegisterLayout,
    ShotPlan,
    encode_matrix,
    partial_trace,
)
from .algorithms import (
    amplitude_estimation,
    grover_min_find,
    pe_outcome_kernel,
    signed_overlap,
)

__all__ = [
    "QuantumState",
    "RegisterLayout",
    "ShotPlan",
    "amplitude_estimation",
    "encode_matrix",
    "grover_min_find",
    "partial_trace",
    "pe_outcome_kernel",
    "signed_overlap",
]
