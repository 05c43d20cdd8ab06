"""Adaptively regularized cost-sensitive online gradient descent.

The learner keeps a Gaussian belief over weights: a mean vector ``mu`` used
for prediction and a covariance ``sigma`` that starts at the identity and
shrinks along observed directions.  On each loss-active round the covariance
absorbs a rank-one term through its closed-form inverse update, and the mean
then descends the loss subgradient preconditioned by the covariance.  Both
steps read only the sample's support and update ``sigma`` in place; a
diagonal mode keeps only the diagonal of ``sigma`` for O(nnz) rounds.  Given
a sequence of G step sizes the diagonal learner runs them as lanes: column g
of the d x G ``mu`` and ``sigma`` is the learner with value g, and
``scores``/``step`` apply ``score``/``update`` to every lane, each on its own
row, in the layout ``baselines`` describes.
"""

from __future__ import annotations

import numpy as np

from .baselines import predict_label, step_sizes
from .losses import LossVariant, gradient_scale, lane_gradient_scale, loss

# Largest full sigma allocated (d = 16384): a fixed policy, not a measured limit.
FULL_SIGMA_MAX_BYTES = 2**31


def covariance_update(
    sigma: np.ndarray, positions: np.ndarray, values: np.ndarray, gamma: float
) -> np.ndarray:
    """In place, sigma -= s s^T / (gamma + x^T s) with s = sigma x gathered from
    the support's columns: the inverse of sigma^{-1} + x x^T / gamma.  s s^T
    is exactly symmetric, so sigma stays bitwise symmetric.  Returns ``sigma``."""
    s = sigma[:, positions] @ values
    denom = gamma + float(values @ s[positions])
    # row blocks keep the transient outer product at 64 x d rather than d x d
    for lo in range(0, s.size, 64):
        sigma[lo:lo + 64] -= np.outer(s[lo:lo + 64], s) / denom
    return sigma


def covariance_update_diag(
    sigma: np.ndarray, positions: np.ndarray, values: np.ndarray, gamma: float
) -> np.ndarray:
    """Diagonal analog, in place: each touched entry shrinks by
    (sigma_i x_i)^2 / denom, with denom = gamma + sum_j sigma_j x_j^2 over the
    sample's support.  Returns ``sigma``."""
    sv = sigma[positions]
    sx = sv * values
    denom = gamma + float(values @ sx)
    sigma[positions] = sv - (sx * sx) / denom
    return sigma


class AdaptiveCSGD:
    """Full-matrix or diagonal second-order cost-sensitive learner.

    ``update_rule`` selects whether the mean step is preconditioned by the
    freshly shrunk covariance ("new", the default) or by the covariance from
    before this round ("old", the ablation setting).  A sequence ``eta``
    gives one lane per value; only the diagonal learner takes one.
    """

    def __init__(
        self,
        d: int,
        eta: float,
        gamma: float,
        variant: LossVariant = LossVariant.I,
        diagonal: bool = False,
        update_rule: str = "new",
    ):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if not diagonal and d * d * 8 > FULL_SIGMA_MAX_BYTES:
            raise ValueError(f"full-matrix ACOG at d={d} needs {d * d * 8 / 2**30:.1f} GiB, over "
                             f"{FULL_SIGMA_MAX_BYTES / 2**30:g} GiB; use the -diag variant")
        self.eta = step_sizes(eta, "eta")
        lanes = np.shape(self.eta)
        if lanes and not diagonal:
            raise ValueError("full-matrix ACOG takes one eta; a sequence needs diagonal=True")
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        if update_rule not in ("new", "old"):
            raise ValueError("update_rule must be 'new' or 'old'")
        self.d = d
        self.gamma = gamma
        self.variant = LossVariant(variant)
        self.diagonal = diagonal
        self.update_rule = update_rule
        self.mu = np.zeros((d, *lanes))
        self.sigma = np.ones((d, *lanes)) if diagonal else np.eye(d)

    def score(self, positions: np.ndarray, values: np.ndarray) -> float:
        return float(self.mu[positions] @ values)

    def scores(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Every lane's score on its own row (lanes only)."""
        return np.vecdot(self.mu.take(flat), values)

    def predict(self, positions: np.ndarray, values: np.ndarray) -> tuple[float, int]:
        s = self.score(positions, values)
        return s, predict_label(s)

    def update(self, positions, values, y, rho, score=None):
        s = self.score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        a = gradient_scale(self.variant, y, rho, l)
        if a == 0.0:
            return l
        if self.diagonal:
            before = self.sigma[positions]
            after = covariance_update_diag(self.sigma, positions, values, self.gamma)[positions]
            sigma_used = after if self.update_rule == "new" else before
            # touched coordinates only: both sigma and the gradient live on the support
            self.mu[positions] -= self.eta * a * sigma_used * values
            return l
        # the subgradient lives on the support, so sigma @ g reads only its columns
        g = a * values
        if self.update_rule == "old":
            step = self.sigma[:, positions] @ g
        covariance_update(self.sigma, positions, values, self.gamma)
        if self.update_rule == "new":
            step = self.sigma[:, positions] @ g
        self.mu -= self.eta * step
        return l

    def step(self, flat, values, y, weight, scores, sq_norms=None):
        """``update`` on every lane's own row; a lane whose loss is 0 keeps its
        state."""
        a = lane_gradient_scale(self.variant, y, weight, scores)
        if not np.count_nonzero(a):
            return
        before = self.sigma.take(flat)
        # covariance_update_diag per lane; passive lanes shrink by zero
        sx = before * values
        denom = self.gamma + np.vecdot(values, sx)
        after = before - (sx * sx) / denom[:, None] * (a != 0.0)[:, None]
        self.sigma.put(flat, after)
        sigma_used = after if self.update_rule == "new" else before
        self.mu.put(flat, self.mu.take(flat) - (self.eta * a)[:, None] * sigma_used * values)
