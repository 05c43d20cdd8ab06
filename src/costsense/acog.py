"""Adaptively regularized cost-sensitive online gradient descent.

The learner keeps a Gaussian belief over weights: a mean vector ``mu`` used
for prediction and a covariance ``sigma`` that starts at the identity and
shrinks along observed directions.  On each loss-active round the covariance
absorbs a rank-one term through its closed-form inverse update, and the mean
then descends the loss subgradient preconditioned by the covariance.  A
diagonal mode keeps only the diagonal of ``sigma`` for O(d) rounds.
"""

from __future__ import annotations

import numpy as np

from .baselines import predict_label
from .losses import LossVariant, gradient_scale, loss


def covariance_update(sigma: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """Rank-one shrinkage sigma - (sigma x)(sigma x)^T / (gamma + x^T sigma x).

    Equivalent to inverting sigma^{-1} + x x^T / gamma without forming the
    inverse.  The result is re-symmetrized to stop floating-point drift.
    """
    s = sigma @ x
    denom = gamma + float(x @ s)
    out = sigma - np.outer(s, s) / denom
    return 0.5 * (out + out.T)


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


def mean_update(mu: np.ndarray, sigma_used: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
    """mu - eta * (sigma_used @ g); sigma_used may be the full matrix or a diagonal."""
    if sigma_used.ndim == 1:
        return mu - eta * sigma_used * g
    return mu - eta * (sigma_used @ g)


class AdaptiveCSGD:
    """Full-matrix or diagonal second-order cost-sensitive learner.

    ``update_rule`` selects whether the mean step is preconditioned by the
    freshly shrunk covariance ("new", the default) or by the covariance from
    before this round ("old", the ablation setting).
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
        if not (eta > 0.0 and gamma > 0.0):
            raise ValueError("eta and gamma must be positive")
        if update_rule not in ("new", "old"):
            raise ValueError("update_rule must be 'new' or 'old'")
        self.d = d
        self.eta = eta
        self.gamma = gamma
        self.variant = LossVariant(variant)
        self.diagonal = diagonal
        self.update_rule = update_rule
        self.mu = np.zeros(d)
        self.sigma = np.ones(d) if diagonal else np.eye(d)

    def score(self, positions: np.ndarray, values: np.ndarray) -> float:
        return float(self.mu[positions] @ values)

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
        else:
            x = np.zeros(self.d)
            x[positions] = values
            before = self.sigma
            self.sigma = after = covariance_update(before, x, self.gamma)
        sigma_used = after if self.update_rule == "new" else before
        if self.diagonal:
            # touched coordinates only: both sigma and the gradient live on the support
            self.mu[positions] -= self.eta * a * sigma_used * values
        else:
            self.mu = mean_update(self.mu, sigma_used, a * x, self.eta)
        return l
