from __future__ import annotations

import numpy as np
import pytest

from leapverify.core import NonFiniteError
from leapverify.tasks import _TAG_BATCH, TASK_NAMES, make_task


def central_diff_directional(loss_fn, theta, u, h=1e-5):
    return (loss_fn(theta + h * u) - loss_fn(theta - h * u)) / (2.0 * h)


def assert_grad_matches_direction(task, theta, batch, n_draws=10, rel_tol=1e-5):
    g = task.loss_and_grad(theta, batch).grad
    rng = np.random.default_rng(99)
    loss = lambda t: task.loss_and_grad(t, batch).loss
    for _ in range(n_draws):
        u = rng.standard_normal(theta.shape[0])
        u /= np.linalg.norm(u)
        analytic = float(np.dot(g, u))
        numeric = central_diff_directional(loss, theta, u)
        denom = max(abs(analytic), abs(numeric), 1e-8)
        assert abs(analytic - numeric) / denom <= rel_tol


def test_task_names_and_dimensions():
    assert set(TASK_NAMES) == {"quad-bowl", "mlp-reg", "char-seq"}
    quad = make_task("quad-bowl")
    assert quad.param_dim == 20
    assert quad.fingerprint_dim == 20
    mlp = make_task("mlp-reg")
    assert mlp.param_dim == 64 * 128 + 128 + 128 * 8 + 8 == 9352
    assert mlp.fingerprint_dim == 100 * 8 == 800
    seq = make_task("char-seq")
    assert seq.param_dim == 48 * 32 + 32 + 32 * 12 + 12 == 1964
    assert seq.fingerprint_dim == 100 * 12 == 1200


def test_make_task_unknown_name():
    with pytest.raises(ValueError):
        make_task("mnist")


def test_make_task_overrides():
    assert make_task("quad-bowl", dim=10).param_dim == 10
    assert make_task("mlp-reg", probe_count=10).fingerprint_dim == 80
    assert make_task("char-seq", probe_count=5).fingerprint_dim == 60
    assert make_task("mlp-reg", batch_size=8).batch_size == 8
    assert make_task("mlp-reg", noise=0.5).noise == 0.5
    assert make_task("char-seq", data_seed=3).data_seed == 3
    # None keeps the default, as build_task passes every unset override
    assert make_task("char-seq", noise=None, dim=None).param_dim == 1964
    for name, key in (("char-seq", "noise"), ("mlp-reg", "dim"), ("quad-bowl", "batch_size")):
        with pytest.raises(ValueError, match=f"task '{name}' does not take '{key}'"):
            make_task(name, **{key: 1})


def test_batches_are_pure_functions_of_seed_and_step():
    for name in TASK_NAMES:
        a, b = make_task(name), make_task(name)
        ba = a.batch(42, 7)
        bb = b.batch(42, 7)
        flat = lambda batch: batch.tobytes() if isinstance(batch, np.ndarray) \
            else b"".join(np.asarray(part).tobytes() for part in batch)
        assert flat(ba) == flat(bb)
        assert flat(a.batch(42, 8)) != flat(ba)
        assert flat(a.batch(43, 7)) != flat(ba)


def test_init_params_deterministic_per_seed():
    task = make_task("mlp-reg")
    t1 = task.init_params(42)
    t2 = task.init_params(42)
    assert t1.tobytes() == t2.tobytes()
    assert not t1.flags.writeable
    assert t1.tobytes() != task.init_params(43).tobytes()


def test_quad_bowl_optimum_and_hand_loss():
    task = make_task("quad-bowl", noise=0.0)
    batch = task.batch(0, 0)
    assert np.all(batch == 0.0)
    at_target = task.loss_and_grad(task.target, batch)
    assert at_target.loss == 0.0
    assert np.all(at_target.grad == 0.0)
    assert task.validation_loss(task.target) == 0.0
    # one unit off along coordinate i costs 0.5 * c_i
    for i in (0, 19):
        theta = task.target.copy()
        theta[i] += 1.0
        assert task.validation_loss(theta) == pytest.approx(0.5 * task.curvature[i])


def test_quad_bowl_gradient_per_coordinate():
    task = make_task("quad-bowl")
    theta = task.init_params(1)
    batch = task.batch(1, 3)
    g = task.loss_and_grad(theta, batch).grad
    h = 1e-6
    for i in range(task.param_dim):
        e = np.zeros(task.param_dim)
        e[i] = 1.0
        lo = task.loss_and_grad(theta - h * e, batch).loss
        hi = task.loss_and_grad(theta + h * e, batch).loss
        assert g[i] == pytest.approx((hi - lo) / (2 * h), rel=1e-5, abs=1e-8)


def test_mlp_gradient_matches_finite_differences():
    task = make_task("mlp-reg")
    theta = task.init_params(5)
    assert_grad_matches_direction(task, theta, task.batch(5, 11))


def test_char_seq_gradient_matches_finite_differences():
    task = make_task("char-seq")
    theta = task.init_params(5)
    assert_grad_matches_direction(task, theta, task.batch(5, 11))


def test_mlp_teacher_is_realizable():
    task = make_task("mlp-reg")
    w1, b1, w2, b2 = task._teacher
    teacher_theta = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
    assert task.validation_loss(teacher_theta) == 0.0


def test_char_seq_uniform_logits_score_log_alphabet():
    task = make_task("char-seq")
    zeros = np.zeros(task.param_dim)
    assert task.validation_loss(zeros) == pytest.approx(np.log(12.0), rel=1e-12)
    batch_loss = task.loss_and_grad(zeros, task.batch(0, 0)).loss
    assert batch_loss == pytest.approx(np.log(12.0), rel=1e-12)


def per_row_cumsum_batch(task, seed: int, step: int):
    """char-seq batch drawn with a cumsum of the gathered transition rows."""
    rng = np.random.default_rng((task.data_seed, _TAG_BATCH, seed, step))
    n = task.batch_size
    sym = rng.integers(0, task.alphabet, size=n)
    onehot = np.zeros((n, task.ctx * task.alphabet))
    for pos in range(task.ctx):
        onehot[np.arange(n), pos * task.alphabet + sym] = 1.0
        cdf = np.cumsum(task._transition[sym], axis=1)
        sym = (rng.random(n)[:, None] < cdf).argmax(axis=1)
    return onehot, sym


@pytest.mark.parametrize("seed, step", [(0, 0), (42, 7), (43, 1999), (2**40, 123456)])
def test_char_seq_cdf_table_draws_the_per_row_cumsum_batch(seed, step):
    task = make_task("char-seq")
    x, y = task.batch(seed, step)
    x_ref, y_ref = per_row_cumsum_batch(task, seed, step)
    assert x.tobytes() == x_ref.tobytes()
    assert y.tobytes() == y_ref.tobytes()


def test_char_seq_batch_structure():
    task = make_task("char-seq", batch_size=16)
    x, targets = task.batch(3, 4)
    assert x.shape == (16, 48)
    assert np.all((x == 0.0) | (x == 1.0))
    assert np.all(x.sum(axis=1) == 4)  # one hot symbol per context slot
    assert targets.shape == (16,)
    assert np.all((0 <= targets) & (targets < 12))


def test_fingerprints():
    quad = make_task("quad-bowl")
    theta = quad.init_params(2)
    fp = quad.fingerprint(theta)
    assert fp.tobytes() == theta.tobytes()
    assert fp is not theta
    assert not fp.flags.writeable

    mlp = make_task("mlp-reg")
    assert mlp.fingerprint(mlp.init_params(2)).shape == (800,)
    seq = make_task("char-seq")
    assert seq.fingerprint(seq.init_params(2)).shape == (1200,)


def test_fingerprints_deterministic_given_theta():
    task = make_task("mlp-reg")
    theta = task.init_params(9)
    assert task.fingerprint(theta).tobytes() == task.fingerprint(theta).tobytes()


def test_non_finite_theta_handling():
    task = make_task("quad-bowl")
    bad = np.full(task.param_dim, np.nan)
    assert np.isnan(task.validation_loss(bad))
    with pytest.raises(NonFiniteError):
        task.loss_and_grad(bad, task.batch(0, 0))
    with pytest.raises(NonFiniteError):
        task.fingerprint(bad)
    with pytest.raises(ValueError):
        task.loss_and_grad(np.ones(task.param_dim + 1), task.batch(0, 0))


def test_recommended_lr_present():
    for name, lr in (("quad-bowl", 0.05), ("mlp-reg", 0.01), ("char-seq", 0.02)):
        assert make_task(name).recommended_lr == lr
