"""Built-in trainable tasks: loss, gradient, held-out loss, fingerprints.

Three desk-scale systems with very different trajectory character:

* ``quad-bowl``   -- quadratic loss with a configurable curvature spectrum and
  additive gradient noise; trajectories are analytically tractable.
* ``mlp-reg``     -- two-layer tanh MLP (~10^4 params) regressing a fixed
  random teacher; minibatch noise gives a realistic chaotic-to-stable arc.
* ``char-seq``    -- tiny next-symbol prediction over a synthetic alphabet
  driven by a fixed Markov chain.

Everything is deterministic: minibatches are a pure function of
(task, run seed, step), so two runs with the same seed see bit-identical
streams and a fast-forwarded run sees exactly the batches it would have seen
anyway. The held-out validation set and the probe set used for activation
fingerprints are fixed at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError, freeze, is_finite

# rng stream tags so batches / val / probe / teacher draws never collide
_TAG_BATCH, _TAG_VAL, _TAG_PROBE, _TAG_TEACHER, _TAG_INIT = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class TaskGradient:
    loss: float
    grad: np.ndarray


class Task:
    """Interface shared by all built-in tasks."""

    name: str
    param_dim: int
    fingerprint_dim: int
    recommended_lr: float

    def init_params(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def batch(self, seed: int, step: int):
        """Deterministic minibatch for (seed, step)."""
        raise NotImplementedError

    def loss_and_grad(self, theta: np.ndarray, batch) -> TaskGradient:
        raise NotImplementedError

    def validation_loss(self, theta: np.ndarray) -> float:
        """Mean loss over the fixed held-out set; NaN for non-finite theta."""
        raise NotImplementedError

    def fingerprint(self, theta: np.ndarray) -> np.ndarray:
        """Concatenated final-layer activations over the fixed probe set."""
        raise NotImplementedError

    def _require_finite(self, theta: np.ndarray) -> None:
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta length {theta.shape} != param_dim {self.param_dim}")
        if not is_finite(theta):
            raise NonFiniteError("non-finite parameter state")


class QuadBowl(Task):
    """0.5 * sum(c_i (theta_i - target_i)^2) with additive gradient noise.

    The minibatch is the noise vector itself, so the noisy loss is still an
    exact antiderivative of the noisy gradient (finite differences agree).
    Validation loss is the noiseless quadratic; the fingerprint is theta.
    """

    name = "quad-bowl"
    recommended_lr = 0.05

    def __init__(
        self,
        dim: int = 20,
        c_min: float = 0.1,
        c_max: float = 2.0,
        noise: float = 0.01,
        data_seed: int = 7,
        curvature: np.ndarray | None = None,
        target: np.ndarray | None = None,
    ):
        self.param_dim = dim
        self.fingerprint_dim = dim
        self.noise = float(noise)
        self.data_seed = int(data_seed)
        if curvature is None:
            curvature = np.geomspace(c_min, c_max, dim)
        self.curvature = freeze(np.asarray(curvature, dtype=np.float64).reshape(-1))
        if self.curvature.shape != (dim,):
            raise ValueError("curvature length must equal dim")
        if target is None:
            rng = np.random.default_rng((self.data_seed, _TAG_TEACHER))
            target = rng.standard_normal(dim)
        self.target = freeze(np.asarray(target, dtype=np.float64).reshape(-1))
        if self.target.shape != (dim,):
            raise ValueError("target length must equal dim")

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng((self.data_seed, _TAG_INIT, seed))
        return freeze(self.target + rng.standard_normal(self.param_dim))

    def batch(self, seed: int, step: int) -> np.ndarray:
        rng = np.random.default_rng((self.data_seed, _TAG_BATCH, seed, step))
        return self.noise * rng.standard_normal(self.param_dim)

    def loss_and_grad(self, theta: np.ndarray, batch: np.ndarray) -> TaskGradient:
        self._require_finite(theta)
        d = theta - self.target
        loss = 0.5 * float(np.dot(self.curvature * d, d)) + float(np.dot(batch, d))
        grad = self.curvature * d + batch
        return TaskGradient(loss=loss, grad=grad)

    def validation_loss(self, theta: np.ndarray) -> float:
        if not is_finite(theta):
            return float("nan")
        d = theta - self.target
        return 0.5 * float(np.dot(self.curvature * d, d))

    def fingerprint(self, theta: np.ndarray) -> np.ndarray:
        self._require_finite(theta)
        return freeze(theta.copy())


class TanhNetwork:
    """Two-layer tanh network shared by `mlp-reg` and `char-seq`.

    theta packs W1 (in_dim x hidden_dim), b1, W2 (hidden_dim x out_dim) and
    b2; the output is tanh(x W1 + b1) W2 + b2. A mixin, not a Task subclass:
    the benchmark tracer wraps the methods of Task's direct subclasses.
    """

    in_dim: int
    hidden_dim: int
    out_dim: int

    def _unpack(self, theta: np.ndarray):
        i, h, o = self.in_dim, self.hidden_dim, self.out_dim
        k0 = i * h
        k1 = k0 + h
        k2 = k1 + h * o
        return (
            theta[:k0].reshape(i, h),
            theta[k0:k1],
            theta[k1:k2].reshape(h, o),
            theta[k2:],
        )

    def _forward(self, theta: np.ndarray, x: np.ndarray):
        w1, b1, w2, b2 = self._unpack(theta)
        hidden = np.tanh(x @ w1 + b1)
        return hidden, hidden @ w2 + b2

    def _backprop(self, theta: np.ndarray, x: np.ndarray, hidden: np.ndarray,
                  d_out: np.ndarray) -> np.ndarray:
        """Flat gradient of the loss from its gradient d_out at the network output."""
        w2 = self._unpack(theta)[2]
        d_w2 = hidden.T @ d_out
        d_b2 = d_out.sum(axis=0)
        d_hidden = (d_out @ w2.T) * (1.0 - hidden * hidden)
        d_w1 = x.T @ d_hidden
        d_b1 = d_hidden.sum(axis=0)
        return np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])


class MlpRegression(TanhNetwork, Task):
    """Two-layer tanh MLP on synthetic regression against a fixed teacher.

    Targets come from a same-architecture teacher network (drawn once from
    data_seed) plus per-batch observation noise, so the problem is realizable
    and late training genuinely stabilizes. The fingerprint is the network
    output on a fixed probe batch, flattened in probe order
    (probe_count x out_dim values).
    """

    name = "mlp-reg"
    recommended_lr = 0.01

    def __init__(
        self,
        in_dim: int = 64,
        hidden_dim: int = 128,
        out_dim: int = 8,
        batch_size: int = 32,
        noise: float = 0.05,
        n_val: int = 256,
        probe_count: int = 100,
        data_seed: int = 7,
    ):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim
        self.batch_size = batch_size
        self.noise = float(noise)
        self.data_seed = int(data_seed)
        self.param_dim = in_dim * hidden_dim + hidden_dim + hidden_dim * out_dim + out_dim
        self.fingerprint_dim = probe_count * out_dim

        rng = np.random.default_rng((self.data_seed, _TAG_TEACHER))
        self._teacher = self._random_weights(rng, scale=1.0)
        rng = np.random.default_rng((self.data_seed, _TAG_VAL))
        self._x_val = freeze(rng.standard_normal((n_val, in_dim)))
        self._y_val = freeze(self._teacher_forward(self._x_val))
        rng = np.random.default_rng((self.data_seed, _TAG_PROBE))
        self._x_probe = freeze(rng.standard_normal((probe_count, in_dim)))

    def _random_weights(self, rng: np.random.Generator, scale: float):
        w1 = rng.standard_normal((self.in_dim, self.hidden_dim)) * (scale / np.sqrt(self.in_dim))
        b1 = np.zeros(self.hidden_dim)
        w2 = rng.standard_normal((self.hidden_dim, self.out_dim)) * (scale / np.sqrt(self.hidden_dim))
        b2 = np.zeros(self.out_dim)
        return w1, b1, w2, b2

    def _teacher_forward(self, x: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._teacher
        return np.tanh(x @ w1 + b1) @ w2 + b2

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng((self.data_seed, _TAG_INIT, seed))
        w1, b1, w2, b2 = self._random_weights(rng, scale=1.0)
        return freeze(np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))

    def batch(self, seed: int, step: int):
        rng = np.random.default_rng((self.data_seed, _TAG_BATCH, seed, step))
        x = rng.standard_normal((self.batch_size, self.in_dim))
        y = self._teacher_forward(x) + self.noise * rng.standard_normal((self.batch_size, self.out_dim))
        return x, y

    def loss_and_grad(self, theta: np.ndarray, batch) -> TaskGradient:
        self._require_finite(theta)
        x, y = batch
        hidden, pred = self._forward(theta, x)
        err = pred - y
        n = err.size
        loss = 0.5 * float(np.sum(err * err)) / n
        return TaskGradient(loss=loss, grad=self._backprop(theta, x, hidden, err / n))

    def validation_loss(self, theta: np.ndarray) -> float:
        if not is_finite(theta):
            return float("nan")
        _, pred = self._forward(theta, self._x_val)
        err = pred - self._y_val
        return 0.5 * float(np.sum(err * err)) / err.size

    def fingerprint(self, theta: np.ndarray) -> np.ndarray:
        self._require_finite(theta)
        _, pred = self._forward(theta, self._x_probe)
        return freeze(pred.ravel().copy())


class CharSequence(TanhNetwork, Task):
    """Next-symbol prediction over a synthetic alphabet (Markov-chain data).

    One-hot context of length ctx -> tanh hidden layer -> logits, trained with
    cross-entropy. The fingerprint is the logit matrix on a fixed probe batch
    of contexts, flattened (probe_count x alphabet values).
    """

    name = "char-seq"
    recommended_lr = 0.02

    def __init__(
        self,
        alphabet: int = 12,
        ctx: int = 4,
        hidden_dim: int = 32,
        batch_size: int = 32,
        n_val: int = 256,
        probe_count: int = 100,
        data_seed: int = 7,
    ):
        self.alphabet = alphabet
        self.out_dim = alphabet
        self.ctx = ctx
        self.hidden_dim = hidden_dim
        self.batch_size = batch_size
        self.data_seed = int(data_seed)
        self.in_dim = alphabet * ctx
        self.param_dim = self.in_dim * hidden_dim + hidden_dim + hidden_dim * alphabet + alphabet
        self.fingerprint_dim = probe_count * alphabet

        # fixed Markov chain; sharpened rows so sequences carry structure
        rng = np.random.default_rng((self.data_seed, _TAG_TEACHER))
        trans = rng.random((alphabet, alphabet)) ** 3
        self._transition = freeze(trans / trans.sum(axis=1, keepdims=True))
        # row-wise running sums, so equal bit for bit to the cumsum of any row
        self._cdf = freeze(np.cumsum(self._transition, axis=1))
        self._x_val, self._y_val = self._draw_sequences(
            np.random.default_rng((self.data_seed, _TAG_VAL)), n_val
        )
        self._x_probe, _ = self._draw_sequences(
            np.random.default_rng((self.data_seed, _TAG_PROBE)), probe_count
        )

    def _draw_sequences(self, rng: np.random.Generator, n: int):
        """n context windows (one-hot, flattened) and their next symbols."""
        sym = rng.integers(0, self.alphabet, size=n)
        onehot = np.zeros((n, self.ctx * self.alphabet))
        for pos in range(self.ctx):
            onehot[np.arange(n), pos * self.alphabet + sym] = 1.0
            sym = (rng.random(n)[:, None] < self._cdf[sym]).argmax(axis=1)
        return freeze(onehot), freeze(sym.astype(np.int64))

    def init_params(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng((self.data_seed, _TAG_INIT, seed))
        i, h, o = self.in_dim, self.hidden_dim, self.alphabet
        w1 = rng.standard_normal((i, h)) / np.sqrt(i)
        w2 = rng.standard_normal((h, o)) / np.sqrt(h)
        return freeze(np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(o)]))

    def batch(self, seed: int, step: int):
        rng = np.random.default_rng((self.data_seed, _TAG_BATCH, seed, step))
        return self._draw_sequences(rng, self.batch_size)

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def _ce_loss(self, logits: np.ndarray, targets: np.ndarray) -> float:
        logp = self._log_softmax(logits)
        return -float(logp[np.arange(len(targets)), targets].mean())

    def loss_and_grad(self, theta: np.ndarray, batch) -> TaskGradient:
        self._require_finite(theta)
        x, targets = batch
        hidden, logits = self._forward(theta, x)
        loss = self._ce_loss(logits, targets)

        probs = np.exp(self._log_softmax(logits))
        probs[np.arange(len(targets)), targets] -= 1.0
        return TaskGradient(loss=loss, grad=self._backprop(theta, x, hidden, probs / len(targets)))

    def validation_loss(self, theta: np.ndarray) -> float:
        if not is_finite(theta):
            return float("nan")
        _, logits = self._forward(theta, self._x_val)
        return self._ce_loss(logits, self._y_val)

    def fingerprint(self, theta: np.ndarray) -> np.ndarray:
        self._require_finite(theta)
        _, logits = self._forward(theta, self._x_probe)
        return freeze(logits.ravel().copy())


TASK_NAMES = ("quad-bowl", "mlp-reg", "char-seq")


def make_task(name: str, *, batch_size: int | None = None,
              probe_count: int | None = None, noise: float | None = None,
              dim: int | None = None, data_seed: int = 7) -> Task:
    """Construct a built-in task by name, overriding only the passed knobs."""
    kwargs: dict = {"data_seed": data_seed}
    if name == "quad-bowl":
        if noise is not None:
            kwargs["noise"] = noise
        if dim is not None:
            kwargs["dim"] = dim
        return QuadBowl(**kwargs)
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    if probe_count is not None:
        kwargs["probe_count"] = probe_count
    if name == "mlp-reg":
        if noise is not None:
            kwargs["noise"] = noise
        return MlpRegression(**kwargs)
    if name == "char-seq":
        return CharSequence(**kwargs)
    raise ValueError(f"unknown task {name!r}; choose from {TASK_NAMES}")
