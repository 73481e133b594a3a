"""Measurement plans: exact expectations, or seeded shot sampling with one
keyed random stream per measurement stage."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


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
