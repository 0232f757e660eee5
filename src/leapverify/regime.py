"""Training-regime classification from consecutive-fingerprint similarity.

The cosine similarity s_t between the activation fingerprints of consecutive
checkpoints acts as a cheap proxy for local trajectory stability: high
similarity means the model's representations are barely moving. Thresholds
split the signal three ways (stable above tau_high, chaotic below tau_low,
transition between); the first checkpoint of a run is always `unknown`
because it has no predecessor to compare against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import cosine_similarity


class RegimeLabel(str, Enum):
    UNKNOWN = "unknown"
    CHAOTIC = "chaotic"
    TRANSITION = "transition"
    STABLE = "stable"


class DegenerateCalibrationError(ValueError):
    """Calibration produced tau_low >= tau_high; caller must widen the data."""


@dataclass(frozen=True)
class Thresholds:
    tau_low: float
    tau_high: float

    def __post_init__(self) -> None:
        if not (-1.0 <= self.tau_low < self.tau_high <= 1.0):
            raise ValueError(
                f"need -1 <= tau_low < tau_high <= 1, got ({self.tau_low}, {self.tau_high})"
            )


def similarity_at(curr_fingerprint: np.ndarray, prev_fingerprint: np.ndarray) -> float:
    """s_t: cosine similarity of consecutive checkpoint fingerprints."""
    return cosine_similarity(curr_fingerprint, prev_fingerprint)


def classify(s: float, th: Thresholds) -> RegimeLabel:
    """stable if s > tau_high, chaotic if s < tau_low, else transition.

    Boundary values fall to transition (both comparisons are strict).
    """
    if s > th.tau_high:
        return RegimeLabel.STABLE
    if s < th.tau_low:
        return RegimeLabel.CHAOTIC
    return RegimeLabel.TRANSITION


def calibrate(similarity_traces: Sequence[Sequence[float]],
              q_low: float = 0.25, q_high: float = 0.75) -> Thresholds:
    """Derive thresholds from per-run similarity traces.

    Candidate (tau_low, tau_high) are the (q_low, q_high) quantiles of each
    trace's s_t distribution, averaged across traces. Hand-picked taus are
    always available by constructing Thresholds directly.
    """
    if not (0.0 <= q_low < q_high <= 1.0):
        raise ValueError("need 0 <= q_low < q_high <= 1")
    traces = [np.asarray(t, dtype=np.float64) for t in similarity_traces]
    if not traces or any(t.size < 2 for t in traces):
        raise ValueError("calibration needs >= 1 trace with >= 2 similarities each")
    lows = [float(np.quantile(t, q_low)) for t in traces]
    highs = [float(np.quantile(t, q_high)) for t in traces]
    tau_low = float(np.mean(lows))
    tau_high = float(np.mean(highs))
    if not tau_low < tau_high:
        raise DegenerateCalibrationError(
            f"degenerate calibration: tau_low {tau_low} >= tau_high {tau_high}"
        )
    return Thresholds(tau_low=tau_low, tau_high=tau_high)


def regime_breakdown(labels: Sequence[RegimeLabel]) -> dict[RegimeLabel, int]:
    """Counts per label over one run's checkpoints (all four keys present)."""
    counts = {label: 0 for label in RegimeLabel}
    for lab in labels:
        counts[lab] += 1
    return counts
