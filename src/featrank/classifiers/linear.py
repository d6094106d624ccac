"""L2-regularized logistic regression fit by damped Newton iterations.

The objective is mean cross-entropy plus (l2/2) * ||w||^2 over the
non-intercept coefficients. Full Newton steps are backtracked (halved) until
the objective does not increase, which keeps the optimizer monotone even on
separable data; iteration stops at the gradient-norm tolerance or the
iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_P_EPS = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # np.clip(z, -36.0, 36.0) without its wrapper's cost; NaN stays NaN
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -36.0), 36.0)))


def _cross_entropy(p: np.ndarray, y: np.ndarray):
    """Mean cross-entropy of probabilities p, clipped to [eps, 1 - eps], on 0/1 targets y."""
    p = np.clip(p, _P_EPS, 1.0 - _P_EPS)
    return -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


@dataclass(eq=False)
class LogisticGlm:
    l2: float = 1e-4
    tol: float = 1e-6
    max_iter: int = 500
    coef: list[float] = field(init=False, default_factory=list)  # [intercept, weights...]

    def _objective(self, xd, y, w):
        return _cross_entropy(_sigmoid(xd @ w), y) + 0.5 * self.l2 * float(w[1:] @ w[1:])

    def fit(self, x_mat, y, seed: int = 0):
        del seed
        y = np.asarray(y, dtype=float)
        n = len(y)
        xd = np.hstack([np.ones((n, 1)), x_mat])
        d = xd.shape[1]
        reg_mask = np.ones(d)
        reg_mask[0] = 0.0
        w = np.zeros(d)
        obj = self._objective(xd, y, w)
        for _ in range(self.max_iter):
            p = _sigmoid(xd @ w)
            grad = xd.T @ (p - y) / n + self.l2 * reg_mask * w
            if float(np.linalg.norm(grad)) <= self.tol:
                break
            h_weights = np.maximum(p * (1.0 - p), _P_EPS)
            hess = (xd * h_weights[:, None]).T @ xd / n + self.l2 * np.diag(reg_mask)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(hess + 1e-10 * np.eye(d), grad)
            scale = 1.0
            for _ in range(30):
                candidate = w - scale * step
                cand_obj = self._objective(xd, y, candidate)
                if cand_obj <= obj:
                    break
                scale *= 0.5
            else:
                break  # no productive step remains
            w, obj = candidate, cand_obj
        self.coef = w
        return self

    def scores(self, x_mat) -> np.ndarray:
        z = self.coef[0] + x_mat @ self.coef[1:]
        return _sigmoid(z)
