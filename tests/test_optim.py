from __future__ import annotations

import math

import numpy as np
import pytest

from leapverify.core import NonFiniteError
from leapverify.optim import (
    AdamHyper,
    AdamState,
    apply_update,
    fast_forward,
    init_state,
    lr_at,
    snapshot_moments,
)


def reference_step(hyper: AdamHyper, step: int, theta, m, v, g):
    """Straight-line AdamW update with temporaries: returns (theta, m, v).

    The operation order is the one apply_update must keep, so the two agree
    bit for bit.
    """
    if step < hyper.warmup_steps:
        lr = hyper.lr * (step + 1) / hyper.warmup_steps
    else:
        span = hyper.total_steps - hyper.warmup_steps
        lr = hyper.lr * 0.5 * (1.0 + math.cos(math.pi * (step - hyper.warmup_steps) / span))
    m = hyper.beta1 * m + (1.0 - hyper.beta1) * g
    v = hyper.beta2 * v + (1.0 - hyper.beta2) * g * g
    m_hat = m / (1.0 - hyper.beta1 ** (step + 1))
    v_hat = v / (1.0 - hyper.beta2 ** (step + 1))
    theta = theta - lr * (m_hat / (np.sqrt(v_hat) + hyper.eps)) - lr * hyper.weight_decay * theta
    return theta, m, v


def reference_adamw(hyper: AdamHyper, theta0: np.ndarray, grads: list[np.ndarray]) -> np.ndarray:
    """Straight-line reimplementation of the update recurrences for oracle use."""
    theta = theta0.astype(np.float64).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for step, g in enumerate(grads):
        theta, m, v = reference_step(hyper, step, theta, m, v, g)
    return theta


def test_hyper_validation():
    with pytest.raises(ValueError):
        AdamHyper(beta1=1.0)
    with pytest.raises(ValueError):
        AdamHyper(beta2=0.0)
    with pytest.raises(ValueError):
        AdamHyper(lr=0.0)
    with pytest.raises(ValueError):
        AdamHyper(weight_decay=-0.1)
    with pytest.raises(ValueError):
        AdamHyper(warmup_steps=300, total_steps=200)


def test_lr_schedule_shape():
    h = AdamHyper(lr=1e-3, warmup_steps=100, total_steps=2000)
    # first update is already nonzero: lr/warmup, not 0
    assert lr_at(h, 0) == pytest.approx(1e-5)
    assert lr_at(h, 49) == pytest.approx(1e-3 * 50 / 100)
    # ramp peaks at the end of warmup and the cosine starts from the peak
    assert lr_at(h, 99) == pytest.approx(1e-3)
    assert abs(lr_at(h, 100) - 1e-3) <= 1e-12
    assert lr_at(h, 2000) == pytest.approx(0.0, abs=1e-18)
    # monotone decay after warmup
    values = [lr_at(h, s) for s in range(100, 2001, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        lr_at(h, -1)
    with pytest.raises(ValueError):
        lr_at(h, 2001)


def test_lr_without_warmup_and_degenerate_span():
    h = AdamHyper(lr=2.0, warmup_steps=0, total_steps=10)
    assert lr_at(h, 0) == pytest.approx(2.0)
    all_warmup = AdamHyper(lr=2.0, warmup_steps=10, total_steps=10)
    assert lr_at(all_warmup, 10) == 0.0


def test_single_update_hand_values():
    h = AdamHyper(lr=0.1, beta1=0.9, beta2=0.999, weight_decay=0.0,
                  eps=1e-8, warmup_steps=0, total_steps=10)
    theta = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    state, new_theta = apply_update(init_state(2, h), theta, g)
    # bias correction at t=1 collapses m_hat to g and v_hat to g^2
    expected = theta - 0.1 * (g / (np.abs(g) + 1e-8))
    assert np.allclose(new_theta, expected, rtol=0, atol=1e-12)
    assert state.step == 1
    assert np.allclose(state.m, 0.1 * g)
    assert np.allclose(state.v, 0.001 * g * g)


def test_multi_step_matches_reference():
    h = AdamHyper(lr=0.01, weight_decay=0.01, warmup_steps=5, total_steps=60)
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(7)
    grads = [rng.standard_normal(7) for _ in range(60)]

    state = init_state(7, h)
    current = theta.copy()
    for g in grads:
        state, current = apply_update(state, current, g)
    assert np.allclose(current, reference_adamw(h, theta, grads), rtol=1e-12, atol=1e-14)
    assert state.step == 60


def test_apply_update_in_place_is_bitwise_the_reference_formula():
    # 200 steps: warmup, the peak, and the cosine decay down to lr 0
    h = AdamHyper(lr=0.01, weight_decay=0.01, warmup_steps=20, total_steps=199)
    rng = np.random.default_rng(11)
    theta = rng.standard_normal(64)
    ref_theta, ref_m, ref_v = theta.copy(), np.zeros(64), np.zeros(64)
    state = init_state(64, h)
    m_buf, v_buf = state.m, state.v
    for step in range(200):
        g = rng.standard_normal(64) * 10.0 ** rng.uniform(-6, 2)
        ref_theta, ref_m, ref_v = reference_step(h, step, ref_theta, ref_m, ref_v, g)
        _, returned = apply_update(state, theta, g, out=theta)
        assert returned is theta and state.m is m_buf and state.v is v_buf
        assert np.array_equal(theta, ref_theta), f"theta differs at step {step}"
        assert np.array_equal(state.m, ref_m) and np.array_equal(state.v, ref_v)
    assert state.step == 200


def _bad_v(state, theta, g):
    state.v = np.zeros(2)


def _read_only_out(state, theta, g):
    theta.flags.writeable = False


def _past_schedule(state, theta, g):
    state.step = state.hyper.total_steps + 1


def _nan_gradient(state, theta, g):
    g[1] = float("nan")


@pytest.mark.parametrize("spoil, error", [
    (_bad_v, ValueError),
    (_read_only_out, ValueError),
    (_past_schedule, ValueError),
    (_nan_gradient, NonFiniteError),
])
def test_failed_update_writes_nothing(spoil, error):
    h = AdamHyper(lr=0.1, warmup_steps=0, total_steps=5)
    state = init_state(3, h)
    theta = np.ones(3)
    apply_update(state, theta, np.array([0.5, -1.0, 2.0]), out=theta)
    g = np.full(3, 0.25)
    spoil(state, theta, g)
    before = (state.m.copy(), state.v.copy(), state.step, theta.copy())
    with pytest.raises(error):
        apply_update(state, theta, g, out=theta)
    assert np.array_equal(state.m, before[0]) and np.array_equal(state.v, before[1])
    assert state.step == before[2]
    assert np.array_equal(theta, before[3])


def test_apply_update_rejects_bad_gradients():
    h = AdamHyper(total_steps=5, warmup_steps=0)
    state = init_state(2, h)
    with pytest.raises(NonFiniteError):
        apply_update(state, np.ones(2), np.array([1.0, float("nan")]))
    with pytest.raises(ValueError):
        apply_update(state, np.ones(2), np.ones(3))


def test_snapshot_moments_are_independent_copies():
    h = AdamHyper(total_steps=5, warmup_steps=0)
    state, _ = apply_update(init_state(2, h), np.ones(2), np.ones(2))
    m, v = snapshot_moments(state)
    assert m is not state.m and v is not state.v
    assert np.array_equal(m, state.m)
    assert not m.flags.writeable


def test_fast_forward_carry_and_decay():
    h = AdamHyper(beta1=0.9, beta2=0.999, total_steps=100, warmup_steps=0)
    m0, v0 = np.array([1.0, -2.0]), np.array([4.0, 9.0])

    carried = AdamState(m=m0.copy(), v=v0.copy(), step=7, hyper=h)
    fast_forward(carried, 50, "carry")
    assert carried.step == 57
    assert np.array_equal(carried.m, m0)
    assert np.array_equal(carried.v, v0)

    decayed = AdamState(m=m0.copy(), v=v0.copy(), step=7, hyper=h)
    m_buf, v_buf = decayed.m, decayed.v
    fast_forward(decayed, 3, "decay")
    assert decayed.step == 10
    assert decayed.m is m_buf and decayed.v is v_buf  # scaled in place
    assert np.array_equal(decayed.m, m0 * 0.9**3)
    assert np.array_equal(decayed.v, v0 * 0.999**3)

    with pytest.raises(ValueError):
        fast_forward(decayed, 0, "carry")
    with pytest.raises(ValueError):
        fast_forward(decayed, 5, "bogus")
    assert decayed.step == 10
    assert np.array_equal(decayed.m, m0 * 0.9**3)
