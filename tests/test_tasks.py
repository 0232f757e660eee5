from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from leapverify.core import NonFiniteError, freeze
from leapverify.engine import batches_drawn_ahead
from leapverify.optim import AdamHyper, apply_update, init_state
from leapverify.tasks import _TAG_BATCH, BATCH_BLOCK, TASK_NAMES, make_task


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
    assert len(quad.fingerprint(quad.init_params(0))) == 20
    mlp = make_task("mlp-reg")
    assert mlp.param_dim == 64 * 128 + 128 + 128 * 8 + 8 == 9352
    assert len(mlp.fingerprint(mlp.init_params(0))) == 100 * 8 == 800
    seq = make_task("char-seq")
    assert seq.param_dim == 48 * 32 + 32 + 32 * 12 + 12 == 1964
    assert len(seq.fingerprint(seq.init_params(0))) == 100 * 12 == 1200


def test_make_task_unknown_name():
    with pytest.raises(ValueError):
        make_task("mnist")


def test_make_task_overrides():
    assert make_task("quad-bowl", dim=10).param_dim == 10
    for name, probe_count, width in (("mlp-reg", 10, 80), ("char-seq", 5, 60)):
        task = make_task(name, probe_count=probe_count)
        assert len(task.fingerprint(task.init_params(0))) == width
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
        assert batch_bytes(ba) == batch_bytes(bb)
        assert batch_bytes(a.batch(42, 8)) != batch_bytes(ba)
        assert batch_bytes(a.batch(43, 7)) != batch_bytes(ba)


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


def step_rng(task, seed: int, step: int) -> np.random.Generator:
    """The generator of one step's batch, seeded from a tuple as batches were drawn per step."""
    return np.random.default_rng((task.data_seed, _TAG_BATCH, seed, step))


def per_row_cumsum_batch(task, seed: int, step: int):
    """char-seq batch of one step, drawn with a cumsum of the gathered transition rows:
    the one-hot contexts, the next symbols, and those symbols one-hot."""
    rng = step_rng(task, seed, step)
    n = task.batch_size
    sym = rng.integers(0, task.alphabet, size=n)
    onehot = np.zeros((n, task.ctx * task.alphabet))
    for pos in range(task.ctx):
        onehot[np.arange(n), pos * task.alphabet + sym] = 1.0
        cdf = np.cumsum(task._transition[sym], axis=1)
        sym = (rng.random(n)[:, None] < cdf).argmax(axis=1)
    return onehot, sym, np.eye(task.alphabet)[sym]


def per_step_mlp_batch(task, seed: int, step: int):
    """mlp-reg batch of one step: inputs, then the teacher's outputs plus noise."""
    rng = step_rng(task, seed, step)
    w1, b1, w2, b2 = task._teacher
    x = rng.standard_normal((task.batch_size, task.in_dim))
    y = np.tanh(x @ w1 + b1) @ w2 + b2 + task.noise * rng.standard_normal((len(x), task.out_dim))
    return x, y


def per_step_quad_batch(task, seed: int, step: int):
    """quad-bowl batch of one step: the scaled noise vector."""
    return task.noise * step_rng(task, seed, step).standard_normal(task.param_dim)


PER_STEP = {"char-seq": per_row_cumsum_batch, "mlp-reg": per_step_mlp_batch,
            "quad-bowl": per_step_quad_batch}


def batch_bytes(batch) -> bytes:
    parts = (batch,) if isinstance(batch, np.ndarray) else batch
    return b"".join(np.asarray(part).tobytes() for part in parts)


def assert_per_step_batch(task, seed: int, step: int):
    assert batch_bytes(task.batch(seed, step)) == batch_bytes(PER_STEP[task.name](task, seed, step))


@pytest.fixture(scope="module")
def tasks():
    return {name: make_task(name) for name in TASK_NAMES}


# the block edges, a step past the default run and a seed too wide for 32 bits
STEPS = [(0, 0), (42, 7), (42, BATCH_BLOCK - 1), (42, BATCH_BLOCK), (42, 2 * BATCH_BLOCK - 1),
         (43, 1999), (2**40, 123456), (2**40, BATCH_BLOCK)]


@pytest.mark.parametrize("seed, step", STEPS)
def test_char_seq_cdf_table_draws_the_per_row_cumsum_batch(tasks, seed, step):
    x, y, target = tasks["char-seq"].batch(seed, step)
    x_ref, y_ref, target_ref = per_row_cumsum_batch(tasks["char-seq"], seed, step)
    assert x.tobytes() == x_ref.tobytes()
    assert y.tobytes() == y_ref.tobytes()
    assert target.tobytes() == target_ref.tobytes()


@pytest.mark.parametrize("name", ["mlp-reg", "quad-bowl"])
@pytest.mark.parametrize("seed, step", STEPS)
def test_blocked_batches_equal_the_per_step_draw(tasks, name, seed, step):
    assert_per_step_batch(tasks[name], seed, step)


@pytest.mark.parametrize("batch_size", [1, 5])
def test_mlp_batches_equal_the_per_step_draw_at_any_batch_size(batch_size):
    # a teacher forward over a whole block would round a 1-row batch differently
    task = make_task("mlp-reg", batch_size=batch_size)
    for step in (0, BATCH_BLOCK - 1, BATCH_BLOCK):
        assert_per_step_batch(task, 42, step)


@pytest.mark.parametrize("name", TASK_NAMES)
def test_blocked_batches_in_any_call_order(name):
    task = make_task(name)
    for seed, step in ((42, 40), (42, 7), (42, 40), (43, 7), (42, 8), (43, 8), (42, 6),
                       (43, 2 * BATCH_BLOCK), (42, 7)):
        assert_per_step_batch(task, seed, step)


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_batch_held_across_a_block_refill_stays_unchanged(name):
    task = make_task(name)
    held = task.batch(42, 3)
    parts = (held,) if isinstance(held, np.ndarray) else held
    before = batch_bytes(held)
    task.batch(42, BATCH_BLOCK + 3)
    task.batch(43, 3)
    assert batch_bytes(held) == before == batch_bytes(PER_STEP[name](task, 42, 3))
    assert not any(part.flags.writeable for part in parts)


@pytest.mark.parametrize("name", TASK_NAMES)
def test_batches_drawn_ahead_equal_the_per_step_draw_in_any_call_order(name, cpus):
    cpus(2)
    task = make_task(name)
    with batches_drawn_ahead(task, 42, 40 * BATCH_BLOCK):
        # in order, a leap past more blocks than the ring holds, then requests
        # the producer does not serve: an earlier block and another seed
        for seed, step in ((42, 0), (42, 17), (42, 40), (42, 33), (42, 8), (42, 9 * BATCH_BLOCK),
                           (43, 9 * BATCH_BLOCK), (42, 10 * BATCH_BLOCK + 5), (42, 2000)):
            assert_per_step_batch(task, seed, step)
    assert task.producer is None


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_batch_held_across_block_hand_offs_stays_unchanged(name, cpus):
    cpus(2)
    task = make_task(name)
    with batches_drawn_ahead(task, 42, 20 * BATCH_BLOCK):
        assert task.producer is not None
        held = task.batch(42, BATCH_BLOCK + 3)
        before = batch_bytes(held)
        for step in range(BATCH_BLOCK + 4, 20 * BATCH_BLOCK):  # every ring slot is reused
            task.batch(42, step)
    parts = (held,) if isinstance(held, np.ndarray) else held
    assert batch_bytes(held) == before == batch_bytes(PER_STEP[name](task, 42, BATCH_BLOCK + 3))
    assert not any(part.flags.writeable for part in parts)


@pytest.mark.parametrize("data_seed", [0, 7, 2**32 - 1, 2**32, 2**40])
def test_rng_equals_the_tuple_seeded_generator(data_seed):
    task = make_task("quad-bowl", data_seed=data_seed)
    for tags in ((_TAG_BATCH, 0, 0), (_TAG_BATCH, 2**32 - 1, 1999), (_TAG_BATCH, 2**32, 5),
                 (_TAG_BATCH, 2**40, 0), (3,), ()):
        want = np.random.default_rng((data_seed, *tags)).random(64)
        assert task._rng(*tags).random(64).tobytes() == want.tobytes()


def test_char_seq_batch_structure():
    task = make_task("char-seq", batch_size=16)
    x, targets, onehot = task.batch(3, 4)
    assert x.shape == (16, 48)
    assert np.all((x == 0.0) | (x == 1.0))
    assert np.all(x.sum(axis=1) == 4)  # one hot symbol per context slot
    assert targets.shape == (16,)
    assert np.all((0 <= targets) & (targets < 12))
    # the targets one-hot, the rows the loss's gradient subtracts
    assert onehot.shape == (16, 12)
    assert onehot.tobytes() == np.eye(12)[targets].tobytes()
    assert not any(part.flags.writeable for part in (x, targets, onehot))


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


def batches_of_32_and_7_rows(task):
    """Three batches; a network's second one has 7 rows, so its workspaces resize twice."""
    first, last = task.batch(0, 3), task.batch(0, 4)
    if task.name == "quad-bowl":
        return [first, last]
    return [first, tuple(part[:7] for part in first), last]


@pytest.mark.parametrize("name", TASK_NAMES)
def test_loss_and_grad_writes_its_gradient_into_out(name):
    task = make_task(name)
    theta = task.init_params(0)
    buf = np.full(task.param_dim, np.nan)
    for batch in batches_of_32_and_7_rows(task):
        fresh = make_task(name).loss_and_grad(theta, batch)
        tg = task.loss_and_grad(theta, batch, out=buf)
        assert tg.grad is buf
        assert tg.loss == fresh.loss
        assert buf.tobytes() == fresh.grad.tobytes()


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_gradient_returned_without_out_is_its_own(name):
    task = make_task(name)
    theta = task.init_params(0)
    first, *rest = batches_of_32_and_7_rows(task)
    grad = task.loss_and_grad(theta, first).grad
    kept = grad.copy()
    for batch in rest:
        assert task.loss_and_grad(theta, batch).grad is not grad
        task.loss_and_grad(theta, batch, out=np.empty(task.param_dim))
    assert grad.tobytes() == kept.tobytes()


@pytest.mark.parametrize("name", TASK_NAMES)
def test_a_bad_out_is_refused_before_anything_is_written(name):
    task = make_task(name)
    theta, batch = task.init_params(0), task.batch(0, 0)
    for bad in (np.full(task.param_dim + 1, np.nan), np.full(task.param_dim - 1, np.nan),
                np.full((1, task.param_dim), np.nan), freeze(np.full(task.param_dim, np.nan))):
        with pytest.raises(ValueError, match="gradient out"):
            task.loss_and_grad(theta, batch, out=bad)
        assert np.isnan(bad).all()
    out = np.full(task.param_dim, np.nan)
    with pytest.raises(NonFiniteError):
        task.loss_and_grad(np.full(task.param_dim, np.inf), batch, out=out)
    assert np.isnan(out).all()


@pytest.mark.parametrize("name", ["mlp-reg", "char-seq"])
def test_a_training_step_allocates_no_array(name):
    task = make_task(name)
    theta = task.init_params(0).copy()
    grad = np.empty(task.param_dim)
    state = init_state(task.param_dim, AdamHyper(lr=task.recommended_lr, total_steps=100))
    batches = [task.batch(0, step) for step in range(BATCH_BLOCK)]

    def step(batch):
        tg = task.loss_and_grad(theta, batch, out=grad)
        apply_update(state, theta, tg.grad, out=theta)

    step(batches[0])  # sizes the task's workspaces
    tracemalloc.start()
    try:
        for i in range(32):
            step(batches[i % BATCH_BLOCK])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy's iterator may take a buffer for the bias added over the batch's
    # rows; any new gradient, or an intermediate the size of one, reaches this
    assert peak < theta.nbytes


def test_recommended_lr_present():
    for name, lr in (("quad-bowl", 0.05), ("mlp-reg", 0.01), ("char-seq", 0.02)):
        assert make_task(name).recommended_lr == lr
