"""Single-hidden-layer network: tanh units into a logistic output.

Trained by seeded mini-batch gradient descent on mean cross-entropy. The
analytic gradient lives in one routine shared by training and the finite-
difference check, so the check exercises exactly what training uses; only
the check evaluates the loss itself. One forward pass serves scoring, the
loss and the gradient.

Each epoch gathers the shuffled rows once and slices contiguous batches from
them. This is exact: `x_mat[perm][s:e]` holds the same values in the same C
layout as `x_mat[perm[s:e]]`, so the matrix products get identical shapes
and strides, and every elementwise step works on the same operands.

During a fit, w1, b1 and w2 are views of one flat parameter vector, and
`_grads` writes their gradients into the same views of one flat gradient
vector, so each step updates them all with one `theta -= lr * g`. This is
exact too: the views are C-contiguous, as the separate arrays were, so the
products and sums see the same shapes and strides, `matmul(..., out=)` and
`sum(axis=0, out=)` store what they would have returned, and `theta - lr * g`
is elementwise, so each weight gets the same two roundings as in its own
array. The output bias b2 stays a Python float.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linear import _cross_entropy, _sigmoid


def _forward(params, x_mat):
    """(hidden activations, output probabilities), the hidden layer built in place."""
    w1, b1, w2, b2 = params
    hidden = x_mat @ w1
    hidden += b1
    np.tanh(hidden, out=hidden)
    return hidden, _sigmoid(hidden @ w2 + b2)


def _loss(params, x_mat, y) -> float:
    """Mean cross-entropy."""
    return float(_cross_entropy(_forward(params, x_mat)[1], y))


def _views(flat, n_inputs, hidden):
    """(w1, b1, w2) as views of `flat`, which holds w1 row by row, then b1 and w2."""
    size = n_inputs * hidden
    return flat[:size].reshape(n_inputs, hidden), flat[size:-hidden], flat[-hidden:]


def _grads(params, x_mat, y, out):
    """Gradient of the mean cross-entropy w.r.t. (w1, b1, w2, b2): the first
    three are written into the arrays `out`, and b2's is returned."""
    g_w1, g_b1, g_w2 = out
    w2 = params[2]
    hidden, delta_out = _forward(params, x_mat)
    delta_out -= y
    delta_out /= len(y)  # d loss / d (output pre-activation)
    np.matmul(hidden.T, delta_out, out=g_w2)
    g_b2 = float(delta_out.sum())
    delta_hidden = delta_out[:, None] * w2  # np.outer's arithmetic
    delta_hidden *= 1.0 - hidden * hidden
    np.matmul(x_mat.T, delta_hidden, out=g_w1)
    delta_hidden.sum(axis=0, out=g_b1)
    return g_b2


@dataclass(eq=False)
class Mlp:
    hidden: int = 16
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 32
    init_scale: float = 0.1
    w1: list[list[float]] = field(init=False, default_factory=list)
    b1: list[float] = field(init=False, default_factory=list)
    w2: list[float] = field(init=False, default_factory=list)
    b2: float = field(init=False, default_factory=float)

    def _init_params(self, n_inputs: int, rng: np.random.Generator):
        """(theta, b2): w1, b1 and w2 flattened into one vector, and b2."""
        s = self.init_scale
        theta = np.empty((n_inputs + 2) * self.hidden)
        for view in _views(theta, n_inputs, self.hidden):
            view[...] = rng.uniform(-s, s, size=view.shape)
        return theta, float(rng.uniform(-s, s))

    def fit(self, x_mat, y, seed: int = 0):
        y = np.asarray(y, dtype=float)
        n, n_inputs = x_mat.shape
        rng = np.random.default_rng(seed)
        theta, b2 = self._init_params(n_inputs, rng)
        params = [*_views(theta, n_inputs, self.hidden), b2]
        g = np.empty_like(theta)
        g_views = _views(g, n_inputs, self.hidden)
        lr = self.learning_rate
        for _ in range(self.epochs):
            perm = rng.permutation(n)
            x_perm, y_perm = x_mat[perm], y[perm]
            for start in range(0, n, self.batch_size):
                end = start + self.batch_size
                g_b2 = _grads(params, x_perm[start:end], y_perm[start:end], g_views)
                theta -= lr * g
                params[3] -= lr * g_b2
        self.w1, self.b1, self.w2, self.b2 = params
        return self

    def scores(self, x_mat) -> np.ndarray:
        return _forward((self.w1, self.b1, self.w2, self.b2), x_mat)[1]


def gradient_check(mlp: Mlp, x_mat, y, epsilon: float, seed: int = 0, n_coords: int = 40) -> float:
    """Max relative error between analytic and central-difference gradients.

    Evaluated at a seeded random parameter point over at least 20 sampled
    coordinates (all coordinates when the network is small). The relative
    error uses an absolute floor so near-zero gradient coordinates cannot
    inflate the ratio.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must be within [1e-7, 1e-3]")
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    shape = (x_mat.shape[1], mlp.hidden)
    theta, b2 = Mlp(hidden=mlp.hidden, init_scale=0.5)._init_params(shape[0], rng)
    g = np.empty_like(theta)
    g_b2 = _grads((*_views(theta, *shape), b2), x_mat, y, _views(g, *shape))
    flat_analytic = np.append(g, g_b2)
    total = flat_analytic.size
    n_coords = max(20, n_coords)
    coords = (
        np.arange(total) if total <= n_coords else np.sort(rng.choice(total, n_coords, False))
    )

    def loss_with(flat):
        return _loss((*_views(flat[:-1], *shape), flat[-1].item()), x_mat, y)

    flat = np.append(theta, b2)
    worst = 0.0
    for c in coords:
        bumped = flat.copy()
        bumped[c] = flat[c] + epsilon
        up = loss_with(bumped)
        bumped[c] = flat[c] - epsilon
        down = loss_with(bumped)
        numeric = (up - down) / (2.0 * epsilon)
        analytic = flat_analytic[c]
        rel = abs(analytic - numeric) / max(1e-3, abs(analytic) + abs(numeric))
        worst = max(worst, rel)
    return worst
