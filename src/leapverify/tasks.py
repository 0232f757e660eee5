"""Built-in trainable tasks: loss, gradient, held-out loss, fingerprints.

Three desk-scale systems with very different trajectory character:

* ``quad-bowl``   -- quadratic loss with a geometric curvature spectrum and
  additive gradient noise; trajectories are analytically tractable.
* ``mlp-reg``     -- two-layer tanh MLP (~10^4 params) regressing a fixed
  random teacher; minibatch noise gives a realistic chaotic-to-stable arc.
* ``char-seq``    -- tiny next-symbol prediction over a synthetic alphabet
  driven by a fixed Markov chain.

Everything is deterministic: minibatches are a pure function of
(task, run seed, step), so two runs with the same seed see bit-identical
streams and a fast-forwarded run sees exactly the batches it would have seen
anyway. Step s's batch is drawn from its own generator, seeded by (data_seed,
batch tag, seed, s). A task draws the batches of BATCH_BLOCK consecutive
steps at once, one generator per step (`draw_block`), and keeps the last
block it drew; each block is a tuple of fresh read-only arrays, so a batch
handed out earlier never changes. While a training run has a producer
process drawing its blocks ahead (engine.batches_drawn_ahead), the task
takes each block from it instead when it has one; the producer draws through
the same `draw_block`, so the stream is the same bit for bit. The held-out
validation set and the probe set used for activation fingerprints are
fixed at construction, so a checkpoint's held-out loss is the same in any
process: the run takes it where it attempts a leap, else the producer
does, and the run fingerprints every checkpoint itself.
"""

from __future__ import annotations

import inspect
from collections.abc import Sequence
from itertools import chain
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .core import NonFiniteError, affine_combination, freeze, is_finite

if TYPE_CHECKING:
    from .workers import BlockProducer

# rng stream tags so batches / val / probe / teacher draws never collide
_TAG_BATCH, _TAG_VAL, _TAG_PROBE, _TAG_TEACHER, _TAG_INIT = 1, 2, 3, 4, 5

# steps whose batches are drawn together; 16 divides the default 2000 steps
BATCH_BLOCK = 16


@dataclass(frozen=True)
class TaskGradient:
    loss: float
    grad: np.ndarray


class Task:
    """Interface shared by all built-in tasks."""

    name: str
    param_dim: int
    recommended_lr: float
    data_seed: int
    batch_size: int  # rows of one batch drawn from one generator
    producer: BlockProducer | None = None  # drawing this task's blocks ahead of a run

    def init_params(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def batch(self, seed: int, step: int):
        """Deterministic minibatch for (seed, step)."""
        raise NotImplementedError

    def loss_and_grad(self, theta: np.ndarray, batch,
                      out: np.ndarray | None = None) -> TaskGradient:
        """Mean loss over the batch and its gradient at theta.

        The gradient is written to `out` and returned as its `grad`; without
        `out` it goes to a new array, which later calls leave alone. `out`
        must be a writable array of param_dim values, and is checked, with
        theta, before anything is written to it. The task's own workspaces
        hold every intermediate, so a call with `out` allocates no array.
        """
        raise NotImplementedError

    def validation_loss(self, theta: np.ndarray) -> float:
        """Mean loss over the fixed held-out set; NaN for non-finite theta."""
        raise NotImplementedError

    def fingerprint(self, theta: np.ndarray) -> np.ndarray:
        """Concatenated final-layer activations over the fixed probe set."""
        raise NotImplementedError

    def affine_losses(self, theta: np.ndarray,
                      grids: Sequence[tuple[Sequence[np.ndarray], np.ndarray]],
                      ) -> list[np.ndarray]:
        """Held-out losses of the rows of each grid, one array per grid.

        A grid is a pair (directions, coeffs), and its row i stands for the
        parameters theta + sum_j coeffs[i, j] * directions[j]. This one
        evaluates each row's parameters through validation_loss; a task may
        score the rows together instead, to within rounding.
        """
        return [np.array([self.validation_loss(affine_combination(theta, row, directions))
                          for row in coeffs])
                for directions, coeffs in grids]

    def _draw(self, rngs: Sequence[np.random.Generator], n: int) -> tuple[np.ndarray, ...]:
        """A batch's arrays, frozen, with n rows from each generator in turn.

        Rows i*n to (i+1)*n - 1 are what rngs[i] alone would give, bit for
        bit, so a block of steps and a single draw share this one path.
        """
        raise NotImplementedError

    def draw_block(self, seed: int, first: int) -> tuple[np.ndarray, ...]:
        """The batches of seed's BATCH_BLOCK steps from `first`, as one block."""
        rngs = [self._rng(_TAG_BATCH, seed, s) for s in range(first, first + BATCH_BLOCK)]
        return self._draw(rngs, self.batch_size)

    def _batch_block(self, seed: int, step: int):
        """The drawn block of BATCH_BLOCK steps that holds step, and step's index in it.

        Only the last block drawn is kept, so a run that walks its steps in
        order draws each block once: the producer's, when it has drawn it.
        """
        first = step - step % BATCH_BLOCK
        if self.__dict__.get("_block_at") != (seed, first):
            block = self.producer.take(seed, first) if self.producer is not None else None
            self._block = self.draw_block(seed, first) if block is None else block
            self._block_at = (seed, first)
        return self._block, step - first

    def _rng(self, *tags: int) -> np.random.Generator:
        """The generator of one draw stream of this task's data_seed.

        When every value fits in 32 bits, a uint32 array of them seeds the
        same SeedSequence as their tuple, and builds it in about half the time.
        """
        key = (self.data_seed, *tags)
        if 0 <= min(key) and max(key) < 2**32:
            key = np.array(key, dtype=np.uint32)
        return np.random.default_rng(key)

    def _require_finite(self, theta: np.ndarray) -> None:
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta length {theta.shape} != param_dim {self.param_dim}")
        if not is_finite(theta):
            raise NonFiniteError("non-finite parameter state")

    def _gradient_out(self, out: np.ndarray | None) -> np.ndarray:
        """`out`, checked to take a gradient, or a new gradient array without it."""
        if out is None:
            return np.empty(self.param_dim)
        if out.shape != (self.param_dim,) or not out.flags.writeable:
            raise ValueError(f"gradient out must be a writable array of {self.param_dim} values")
        return out

    def _scratch(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A float buffer of `shape` kept on the task, grown along its first axis only.

        Fresh arrays this size on every call can cost page faults.
        """
        buf = self.__dict__.get(name)
        if buf is None or len(buf) < shape[0]:
            buf = self.__dict__[name] = np.empty(shape)
        return buf[:shape[0]]


class QuadBowl(Task):
    """0.5 * sum(c_i (theta_i - target_i)^2) with additive gradient noise.

    The curvatures c_i run geometrically from 0.1 to 2.0. The minibatch is
    the noise vector itself, so the noisy loss is still an exact
    antiderivative of the noisy gradient (finite differences agree).
    Validation loss is the noiseless quadratic; the fingerprint is theta.
    """

    name = "quad-bowl"
    recommended_lr = 0.05
    batch_size = 1  # a batch is one noise row

    def __init__(self, dim: int = 20, noise: float = 0.01, data_seed: int = 7):
        self.param_dim = dim
        self.noise = float(noise)
        self.data_seed = int(data_seed)
        self.curvature = freeze(np.geomspace(0.1, 2.0, dim))
        self.target = freeze(self._rng(_TAG_TEACHER).standard_normal(dim))

    def init_params(self, seed: int) -> np.ndarray:
        return freeze(self.target + self._rng(_TAG_INIT, seed).standard_normal(self.param_dim))

    def batch(self, seed: int, step: int) -> np.ndarray:
        (noise,), i = self._batch_block(seed, step)
        return noise[i]

    def _draw(self, rngs: Sequence[np.random.Generator], n: int) -> tuple[np.ndarray]:
        z = np.concatenate([rng.standard_normal((n, self.param_dim)) for rng in rngs])
        return (freeze(np.multiply(self.noise, z, out=z)),)

    def loss_and_grad(self, theta: np.ndarray, batch: np.ndarray,
                      out: np.ndarray | None = None) -> TaskGradient:
        self._require_finite(theta)
        grad = self._gradient_out(out)
        d = np.subtract(theta, self.target, out=self._scratch("_train_d", (self.param_dim,)))
        np.multiply(self.curvature, d, out=grad)
        loss = 0.5 * float(np.dot(grad, d)) + float(np.dot(batch, d))
        np.add(grad, batch, out=grad)
        return TaskGradient(loss=loss, grad=grad)

    def validation_loss(self, theta: np.ndarray) -> float:
        if not is_finite(theta):
            return float("nan")
        d = theta - self.target
        return 0.5 * float(np.dot(self.curvature * d, d))

    def fingerprint(self, theta: np.ndarray) -> np.ndarray:
        self._require_finite(theta)
        return freeze(theta.copy())


class TanhNetwork(Task):
    """Two-layer tanh network: the one training, held-out and fingerprint path
    of `mlp-reg` and `char-seq`.

    theta packs W1 (in_dim x hidden_dim), b1, W2 (hidden_dim x out_dim) and
    b2; the output is tanh(x W1 + b1) W2 + b2. A subclass states its sizes,
    its data (`_x_val`, `_y_val` and `_x_probe`, and `_draw`, which returns
    a tuple (inputs, targets, ...) of n rows per generator, frozen; a batch
    is that tuple's rows of one step), `init_params`, and its loss twice:
    `_training_loss` with the gradient at the output, `_output_losses` over
    stacked held-out blocks. A training step runs its
    forward pass, loss and backprop in workspaces the task keeps
    (`_train_workspace`), apart from those of the held-out, probe and grid
    passes, and writes d_W1, d_b1, d_W2 and d_b2 straight into their views
    of the gradient. The float operations and their order are those of the
    same formulas written with temporaries (`hidden.T @ d_out`, ...), so the
    gradient is the same bit for bit. A batch is batch_size rows of a block
    that `_draw` gives for BATCH_BLOCK steps at once, so work that is the
    same row for row at any height, such as char-seq's one-hot fill and
    Markov walk, runs once per block. It must not override batch,
    loss_and_grad, validation_loss or fingerprint: the benchmark tracer
    times only the methods that Task's direct subclasses define.
    """

    in_dim: int
    hidden_dim: int
    out_dim: int
    n_val = 256  # held-out rows
    _x_val: np.ndarray
    _y_val: np.ndarray
    _x_probe: np.ndarray

    def __init__(self, batch_size: int, data_seed: int):
        self.batch_size = batch_size
        self.data_seed = int(data_seed)
        i, h, o = self.in_dim, self.hidden_dim, self.out_dim
        self.param_dim = i * h + h + h * o + o

    def batch(self, seed: int, step: int):
        block, i = self._batch_block(seed, step)
        rows = slice(i * self.batch_size, (i + 1) * self.batch_size)
        return tuple([part[rows] for part in block])

    def loss_and_grad(self, theta: np.ndarray, batch,
                      out: np.ndarray | None = None) -> TaskGradient:
        self._require_finite(theta)
        grad = self._gradient_out(out)
        x = batch[0]
        hidden, output, d_hidden, work, col = self._train_workspace(len(x))
        self._forward(theta, x, hidden, output)
        loss = self._training_loss(output, batch, work, col)
        self._backprop(theta, x, hidden, output, d_hidden, grad)
        return TaskGradient(loss=loss, grad=grad)

    def validation_loss(self, theta: np.ndarray) -> float:
        if not is_finite(theta):
            return float("nan")
        hidden = self._scratch("_val_hidden", (self.n_val, self.hidden_dim))
        out = self._forward(theta, self._x_val, hidden)
        return float(self._output_losses(out[None])[0])

    def fingerprint(self, theta: np.ndarray) -> np.ndarray:
        self._require_finite(theta)
        hidden = self._scratch("_probe_hidden", (len(self._x_probe), self.hidden_dim))
        return freeze(self._forward(theta, self._x_probe, hidden).ravel())

    def _training_loss(self, out: np.ndarray, batch, work: np.ndarray,
                       col: np.ndarray) -> float:
        """Mean loss of a batch's outputs against its targets; overwrites `out`
        with the loss's gradient at the outputs.

        work (out's shape) and col (a column of out's height) are scratch for
        its intermediates, so it allocates no array.
        """
        raise NotImplementedError

    def _output_losses(self, outputs: np.ndarray) -> np.ndarray:
        """Held-out loss of each (n_val, out_dim) block of outputs; may overwrite them."""
        raise NotImplementedError

    def _unpack(self, theta: np.ndarray):
        """Views of W1, b1, W2 and b2 in a flat vector (parameters or gradient).

        The views of the last two vectors unpacked are kept with them, so a
        run, which unpacks its own parameter and gradient buffers at every
        step, builds them once.
        """
        kept = self.__dict__.get("_unpacked", ())
        for vec, views in kept:
            if vec is theta:
                return views
        i, h, o = self.in_dim, self.hidden_dim, self.out_dim
        k0 = i * h
        k1 = k0 + h
        k2 = k1 + h * o
        views = (
            theta[:k0].reshape(i, h),
            theta[k0:k1],
            theta[k1:k2].reshape(h, o),
            theta[k2:],
        )
        self._unpacked = ((theta, views), *kept[:1])
        return views

    def _forward(self, theta: np.ndarray, x: np.ndarray, hidden: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """The network's outputs on x, in `out` or a new array; its hidden layer in `hidden`."""
        w1, b1, w2, b2 = self._unpack(theta)
        np.tanh(np.add(np.matmul(x, w1, out=hidden), b1, out=hidden), out=hidden)
        out = np.matmul(hidden, w2, out=out)
        return np.add(out, b2, out=out)

    def affine_losses(self, theta: np.ndarray,
                      grids: Sequence[tuple[Sequence[np.ndarray], np.ndarray]],
                      ) -> list[np.ndarray]:
        """Task.affine_losses from one first-layer product per distinct vector.

        [x_val 1] [W1; b1] of row i is taken as the base vector's product
        plus sum_j coeffs[i, j] times direction j's. theta and every distinct
        direction array are multiplied once, so grids that share a direction
        object share its product. Per grid, one coefficient matmul over its
        own products and one tanh cover all its rows, and the second layer
        runs batched on each row's W2 and b2. The losses agree with
        validation_loss to rounding (at most 1.3e-15 relative, measured over
        every sweep cell of default run-alls of mlp-reg, 5 seeds, and
        char-seq, 3 seeds), not bit for bit.
        """
        x1, h, o = self._x_val_1, self.hidden_dim, self.out_dim
        n, k1 = len(x1), x1.shape[1] * h
        vectors = {id(v): v for v in chain([theta], *(directions for directions, _ in grids))}
        products = dict(zip(vectors, self._scratch("_grid_products", (len(vectors), n, h))))
        for key, vec in vectors.items():
            np.matmul(x1, vec[:k1].reshape(-1, h), out=products[key])
        losses = []
        for directions, coeffs in grids:
            stack = self._scratch("_grid_parts", (len(directions) + 1, n, h))
            for part, vec in zip(stack, (theta, *directions)):
                np.copyto(part, products[id(vec)])
            hidden = self._scratch("_grid_hidden", (len(coeffs), n, h))
            out = self._scratch("_grid_out", (len(coeffs), n, o))
            weights = np.hstack([np.ones((len(coeffs), 1)), coeffs])
            np.matmul(weights, stack.reshape(len(stack), -1),
                      out=hidden.reshape(len(hidden), -1))
            np.tanh(hidden, out=hidden)
            # W2 and b2 of every row, materialised: small next to W1
            rest = theta[k1:] + coeffs @ np.stack([d[k1:] for d in directions])
            np.matmul(hidden, rest[:, :h * o].reshape(-1, h, o), out=out)
            losses.append(self._output_losses(np.add(out, rest[:, None, h * o:], out=out)))
        return losses

    @cached_property
    def _x_val_1(self) -> np.ndarray:
        """The held-out inputs with a column of ones, so one product adds b1 too."""
        return freeze(np.hstack([self._x_val, np.ones((len(self._x_val), 1))]))

    def _train_workspace(self, n: int) -> tuple[np.ndarray, ...]:
        """The buffers of a training step on n rows: the hidden layer, the
        output, the hidden layer's gradient, and the loss's work block (n x
        out_dim) and column (n x 1).

        They are `_scratch` buffers named `_train_*`, and their views for the
        last batch height are kept, so a run fetches them in one lookup.
        """
        ws = self.__dict__.get("_train_ws")
        if ws is None or len(ws[0]) != n:
            h, o = self.hidden_dim, self.out_dim
            ws = self._train_ws = tuple(
                self._scratch(f"_train_{name}", (n, width))
                for name, width in (("hidden", h), ("out", o), ("d_hidden", h), ("work", o),
                                    ("col", 1)))
        return ws

    def _backprop(self, theta: np.ndarray, x: np.ndarray, hidden: np.ndarray,
                  d_out: np.ndarray, d_hidden: np.ndarray, grad: np.ndarray) -> None:
        """Write to grad the flat gradient of the loss from its gradient d_out at
        the network output; overwrites hidden, and d_hidden is scratch."""
        w2 = self._unpack(theta)[2]
        d_w1, d_b1, d_w2, d_b2 = self._unpack(grad)
        np.matmul(hidden.T, d_out, out=d_w2)
        np.add.reduce(d_out, axis=0, out=d_b2)
        np.matmul(d_out, w2.T, out=d_hidden)
        one_minus_h2 = np.subtract(1.0, np.multiply(hidden, hidden, out=hidden), out=hidden)
        np.multiply(d_hidden, one_minus_h2, out=d_hidden)
        np.matmul(x.T, d_hidden, out=d_w1)
        np.add.reduce(d_hidden, axis=0, out=d_b1)


class MlpRegression(TanhNetwork):
    """Two-layer tanh MLP on synthetic regression against a fixed teacher.

    Targets come from a same-architecture teacher network (drawn once from
    data_seed) plus per-batch observation noise, so the problem is realizable
    and late training genuinely stabilizes. The fingerprint is the network
    output on a fixed probe batch, flattened in probe order
    (probe_count x out_dim values).
    """

    name = "mlp-reg"
    recommended_lr = 0.01
    in_dim, hidden_dim, out_dim = 64, 128, 8

    def __init__(self, batch_size: int = 32, noise: float = 0.05, probe_count: int = 100,
                 data_seed: int = 7):
        super().__init__(batch_size, data_seed)
        self.noise = float(noise)
        self._teacher = self._random_weights(self._rng(_TAG_TEACHER))
        self._x_val = freeze(self._rng(_TAG_VAL).standard_normal((self.n_val, self.in_dim)))
        self._y_val = freeze(self._teacher_forward(self._x_val))
        self._x_probe = freeze(self._rng(_TAG_PROBE).standard_normal((probe_count, self.in_dim)))

    def _random_weights(self, rng: np.random.Generator):
        w1 = rng.standard_normal((self.in_dim, self.hidden_dim)) * (1.0 / np.sqrt(self.in_dim))
        b1 = np.zeros(self.hidden_dim)
        w2 = rng.standard_normal((self.hidden_dim, self.out_dim)) * (1.0 / np.sqrt(self.hidden_dim))
        b2 = np.zeros(self.out_dim)
        return w1, b1, w2, b2

    def _teacher_forward(self, x: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._teacher
        return np.tanh(x @ w1 + b1) @ w2 + b2

    def init_params(self, seed: int) -> np.ndarray:
        w1, b1, w2, b2 = self._random_weights(self._rng(_TAG_INIT, seed))
        return freeze(np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))

    def _draw(self, rngs: Sequence[np.random.Generator], n: int):
        x = np.empty((len(rngs) * n, self.in_dim))
        y = np.empty((len(rngs) * n, self.out_dim))
        for i, rng in enumerate(rngs):
            rows = slice(i * n, (i + 1) * n)
            rng.standard_normal(out=x[rows])
            noise = rng.standard_normal((n, self.out_dim))
            # one batch at a time: BLAS may round a row of a taller product differently
            y[rows] = self._teacher_forward(x[rows]) + self.noise * noise
        return freeze(x), freeze(y)

    def _training_loss(self, out: np.ndarray, batch, work: np.ndarray,
                       col: np.ndarray) -> float:
        err = np.subtract(out, batch[1], out=out)
        square = np.multiply(err, err, out=work)
        loss = 0.5 * float(np.add.reduce(square, axis=None)) / err.size
        np.divide(err, err.size, out=err)
        return loss

    def _output_losses(self, outputs: np.ndarray) -> np.ndarray:
        err = np.subtract(outputs, self._y_val, out=outputs)
        return 0.5 * np.square(err, out=err).sum(axis=(1, 2)) / err[0].size


class CharSequence(TanhNetwork):
    """Next-symbol prediction over a synthetic alphabet (Markov-chain data).

    One-hot context of length ctx -> tanh hidden layer -> logits, trained with
    cross-entropy. The fingerprint is the logit matrix on a fixed probe batch
    of contexts, flattened (probe_count x alphabet values).
    """

    name = "char-seq"
    recommended_lr = 0.02
    alphabet, ctx, hidden_dim = 12, 4, 32
    in_dim, out_dim = alphabet * ctx, alphabet

    def __init__(self, batch_size: int = 32, probe_count: int = 100, data_seed: int = 7):
        super().__init__(batch_size, data_seed)
        # fixed Markov chain; sharpened rows so sequences carry structure
        trans = self._rng(_TAG_TEACHER).random((self.alphabet, self.alphabet)) ** 3
        self._transition = freeze(trans / trans.sum(axis=1, keepdims=True))
        # row-wise running sums, so equal bit for bit to the cumsum of any row
        self._cdf = freeze(np.cumsum(self._transition, axis=1))
        self._x_val, self._y_val, _ = self._draw([self._rng(_TAG_VAL)], self.n_val)
        self._x_probe = self._draw([self._rng(_TAG_PROBE)], probe_count)[0]

    def _draw(self, rngs: Sequence[np.random.Generator], n: int):
        """n context windows (one-hot, flattened), their next symbols, and those
        symbols one-hot (the rows the loss's gradient subtracts) per generator."""
        sym = np.empty(len(rngs) * n, dtype=np.int64)
        uniform = np.empty((len(rngs), self.ctx, n))
        for i, rng in enumerate(rngs):
            sym[i * n:(i + 1) * n] = rng.integers(0, self.alphabet, size=n)
            rng.random(out=uniform[i])  # the same numbers as ctx calls of random(n)
        uniform = uniform.transpose(1, 0, 2).reshape(self.ctx, -1)
        onehot = np.zeros((len(sym), self.in_dim))
        for pos in range(self.ctx):
            onehot[np.arange(len(sym)), pos * self.alphabet + sym] = 1.0
            sym = (uniform[pos][:, None] < self._cdf[sym]).argmax(axis=1)
        target = np.zeros((len(sym), self.alphabet))
        target[np.arange(len(sym)), sym] = 1.0
        return freeze(onehot), freeze(sym.astype(np.int64)), freeze(target)

    def init_params(self, seed: int) -> np.ndarray:
        rng = self._rng(_TAG_INIT, seed)
        i, h, o = self.in_dim, self.hidden_dim, self.out_dim
        w1 = rng.standard_normal((i, h)) / np.sqrt(i)
        w2 = rng.standard_normal((h, o)) / np.sqrt(h)
        return freeze(np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(o)]))

    @staticmethod
    def _log_softmax(logits: np.ndarray, col: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Overwrite logits with their log-softmax along the last axis, and return them.

        col (logits' shape with a last axis of 1) and work (logits' shape)
        are scratch. np.maximum.reduce and np.add.reduce are the reductions
        that .max() and .sum() wrap.
        """
        np.maximum.reduce(logits, axis=-1, keepdims=True, out=col)
        shifted = np.subtract(logits, col, out=logits)
        np.add.reduce(np.exp(shifted, out=work), axis=-1, keepdims=True, out=col)
        return np.subtract(shifted, np.log(col, out=col), out=logits)

    def _row_index(self, n: int) -> np.ndarray:
        """0, 1, ..., n - 1, kept on the task."""
        rows = self.__dict__.get("_rows")
        if rows is None or len(rows) < n:
            rows = self._rows = np.arange(n)
        return rows[:n]

    def _training_loss(self, out: np.ndarray, batch, probs: np.ndarray,
                       col: np.ndarray) -> float:
        _, y, target = batch
        n = len(y)
        rows = self._row_index(n)
        logp = self._log_softmax(out, col, probs)
        np.exp(logp, out=probs)
        np.subtract(probs, target, out=probs)  # p - 0.0 is p: only the target entries move
        # the sum and division that .mean() makes
        loss = -float(np.add.reduce(logp[rows, y], axis=None) / n)
        np.divide(probs, n, out=out)
        return loss

    def _output_losses(self, outputs: np.ndarray) -> np.ndarray:
        col = self._scratch("_val_col", outputs.shape[:-1] + (1,))
        logp = self._log_softmax(outputs, col, self._scratch("_val_work", outputs.shape))
        return -logp[:, self._row_index(len(self._y_val)), self._y_val].mean(axis=1)


TASKS: dict[str, type[Task]] = {cls.name: cls for cls in (QuadBowl, MlpRegression, CharSequence)}
TASK_NAMES = tuple(TASKS)


def make_task(name: str, **overrides) -> Task:
    """Construct a built-in task by name with the given constructor overrides.

    An override of None keeps the task's default; one the task's constructor
    does not take is refused by name, so no setting is silently dropped.
    """
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}; choose from {TASK_NAMES}")
    taken = inspect.signature(TASKS[name]).parameters
    given = {key: value for key, value in overrides.items() if value is not None}
    for key in given:
        if key not in taken:
            raise ValueError(f"task {name!r} does not take {key!r}; "
                             f"it takes {', '.join(taken)}")
    return TASKS[name](**given)
