"""Desk-scale exact quantum simulation: the spectral engine (phase-estimation
outcome distributions and the readouts built on them) and the measurement
plan its readouts draw shot noise from."""

from .state import ShotPlan
from .algorithms import (
    amplitude_estimation,
    grover_min_find,
    pe_outcome_kernel,
    pe_readout,
    signed_overlap,
)

__all__ = [
    "ShotPlan",
    "amplitude_estimation",
    "grover_min_find",
    "pe_outcome_kernel",
    "pe_readout",
    "signed_overlap",
]
