from __future__ import annotations

import numpy as np
import pytest

from leapverify.core import (
    DegenerateVectorError,
    DimensionError,
    cosine_similarity,
    freeze,
    is_finite,
    l2_norm,
)


def test_freeze_marks_readonly_without_copy():
    x = np.ones(3)
    y = freeze(x)
    assert y is x
    assert not x.flags.writeable


def test_l2_norm():
    assert l2_norm(np.array([3.0, 4.0])) == 5.0
    assert l2_norm(np.zeros(4)) == 0.0


def test_cosine_similarity_basic_angles():
    a = np.array([1.0, 0.0])
    assert cosine_similarity(a, np.array([2.0, 0.0])) == 1.0
    assert cosine_similarity(a, np.array([0.0, 5.0])) == 0.0
    assert cosine_similarity(a, np.array([-3.0, 0.0])) == -1.0


def test_cosine_similarity_clamped_to_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.standard_normal(8)
        s = cosine_similarity(v, 1e-8 * v)
        # parallel vectors: exactly representable or 1 ulp short, never above 1
        assert -1.0 <= s <= 1.0
        assert s == pytest.approx(1.0, abs=1e-12)
        assert cosine_similarity(v, -2.0 * v) >= -1.0


def test_cosine_similarity_errors():
    with pytest.raises(DegenerateVectorError):
        cosine_similarity(np.zeros(3), np.ones(3))
    with pytest.raises(DegenerateVectorError):
        cosine_similarity(np.ones(3), np.zeros(3))
    with pytest.raises(DimensionError):
        cosine_similarity(np.ones(3), np.ones(4))


def test_is_finite():
    assert is_finite(np.array([1.0, -2.0]))
    assert not is_finite(np.array([1.0, float("nan")]))
    assert not is_finite(np.array([float("-inf")]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("values, expected", [
    ([1e308, 1e308], True),  # the sum overflows; every element is finite
    ([-1e308, -1e308, 5.0], True),
    ([float("nan")], False),
    ([float("inf")], False),
    ([float("-inf")], False),
    ([float("inf"), float("-inf")], False),
    ([1.0, float("nan"), float("inf")], False),
])
def test_is_finite_is_exact_when_the_sum_is_not(values, expected):
    assert is_finite(np.array(values)) is expected
