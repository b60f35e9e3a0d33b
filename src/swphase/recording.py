"""In-memory recording container shared by the toolkit."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError

EPOCH_S = 20.0  # hypnogram epoch length
MAX_STAGE_EPOCHS = 4320   # 24 h of 20 s epochs

STAGES = ("W", "N1", "N2", "N3", "REM")
NREM_STAGES = ("N2", "N3")


def epoch_samples(fs: float) -> int:
    """Samples per hypnogram epoch at sampling rate fs."""
    return int(round(EPOCH_S * fs))


@dataclass
class EegRecording:
    samples: np.ndarray          # microvolts
    fs: float                    # Hz
    label: str = "EEG"
    start_time: float = 0.0      # unix seconds, 0 when unknown
    hypnogram: Optional[list] = None  # one stage string per 20 s epoch

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ConfigurationError(f"samples must be 1-D, not {self.samples.shape}")
        finite = np.isfinite(self.samples)
        if not finite.all():
            raise ConfigurationError(f"non-finite sample at index {finite.argmin()}")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ConfigurationError(f"sampling rate {self.fs!r} Hz must be positive, finite")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.fs

    def stage_mask(self, stages) -> np.ndarray:
        """Boolean per-sample mask of the given hypnogram stages; False past
        the last scored epoch."""
        scored = np.repeat(np.isin(self.hypnogram or [], stages), epoch_samples(self.fs))
        mask = np.zeros(len(self.samples), dtype=bool)
        mask[:len(scored)] = scored[:len(mask)]
        return mask

    def nrem_mask(self) -> np.ndarray:
        return self.stage_mask(NREM_STAGES)
