from __future__ import annotations

import numpy as np
import pytest

from leapverify.regime import (
    DegenerateCalibrationError,
    RegimeLabel,
    Thresholds,
    calibrate,
    classify,
    regime_breakdown,
    similarity_at,
)

TH = Thresholds(tau_low=0.90, tau_high=0.99)


def test_classify_bands():
    assert classify(0.995, TH) is RegimeLabel.STABLE
    assert classify(0.95, TH) is RegimeLabel.TRANSITION
    assert classify(0.5, TH) is RegimeLabel.CHAOTIC
    assert classify(-1.0, TH) is RegimeLabel.CHAOTIC


def test_classify_boundaries_fall_to_transition():
    assert classify(0.99, TH) is RegimeLabel.TRANSITION
    assert classify(0.90, TH) is RegimeLabel.TRANSITION


def test_thresholds_validation():
    Thresholds(-1.0, 1.0)
    with pytest.raises(ValueError):
        Thresholds(0.99, 0.90)
    with pytest.raises(ValueError):
        Thresholds(0.95, 0.95)
    with pytest.raises(ValueError):
        Thresholds(-1.1, 0.5)
    with pytest.raises(ValueError):
        Thresholds(0.5, 1.0001)


def test_similarity_at_matches_cosine():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([1.0, 1.0, 0.0])
    assert similarity_at(a, b) == pytest.approx(1.0 / np.sqrt(2.0))


def test_calibrate_hand_oracle():
    # quantiles per trace computed by hand, then averaged across traces
    trace_a = [0.0, 1.0]      # q25 = 0.25, q75 = 0.75
    trace_b = [0.2, 0.4, 0.6, 0.8]  # q25 = 0.35, q75 = 0.65
    th = calibrate([trace_a, trace_b])
    assert th.tau_low == pytest.approx((0.25 + 0.35) / 2.0)
    assert th.tau_high == pytest.approx((0.75 + 0.65) / 2.0)


def test_calibrate_single_trace_uses_its_quantiles():
    th = calibrate([[0.0, 0.5, 1.0]])
    assert th.tau_low == pytest.approx(0.25)
    assert th.tau_high == pytest.approx(0.75)


def test_calibrate_custom_quantiles():
    th = calibrate([[0.0, 1.0]], q_low=0.1, q_high=0.9)
    assert th.tau_low == pytest.approx(0.1)
    assert th.tau_high == pytest.approx(0.9)


def test_calibrate_rejects_degenerate_traces():
    with pytest.raises(DegenerateCalibrationError):
        calibrate([[0.7, 0.7, 0.7]])


def test_calibrate_input_validation():
    with pytest.raises(ValueError):
        calibrate([])
    with pytest.raises(ValueError):
        calibrate([[0.5]])  # a single similarity has no spread
    with pytest.raises(ValueError):
        calibrate([[0.1, 0.9]], q_low=0.75, q_high=0.25)


def test_degenerate_calibration_is_a_value_error():
    assert issubclass(DegenerateCalibrationError, ValueError)


def test_breakdown_counts_every_label():
    labels = [
        RegimeLabel.UNKNOWN,
        RegimeLabel.STABLE, RegimeLabel.STABLE,
        RegimeLabel.CHAOTIC,
    ]
    counts = regime_breakdown(labels)
    assert counts[RegimeLabel.UNKNOWN] == 1
    assert counts[RegimeLabel.STABLE] == 2
    assert counts[RegimeLabel.CHAOTIC] == 1
    assert counts[RegimeLabel.TRANSITION] == 0
    assert set(counts) == set(RegimeLabel)


def test_breakdown_of_empty_sequence():
    counts = regime_breakdown([])
    assert all(v == 0 for v in counts.values())
    assert set(counts) == set(RegimeLabel)
