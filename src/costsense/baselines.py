"""First-order online reference learners: Perceptron, PA-I, and COG.

All learners share the sparse step interface used by the harness:
``score(positions, values)`` gives mu . x for the current weights and
``update(positions, values, y, rho, score=None)`` performs one online step,
returning the surrogate loss that drove it (0.0 when the step was passive).
Ties score = 0 predict +1 everywhere in this package.
"""

from __future__ import annotations

import numpy as np

from .losses import LossVariant, gradient_scale, loss


def predict_label(score: float) -> int:
    return 1 if score >= 0.0 else -1


class LinearLearner:
    """Dense weight vector plus the shared scoring/prediction rules."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.w = np.zeros(d)

    def score(self, positions: np.ndarray, values: np.ndarray) -> float:
        return float(self.w[positions] @ values)

    def predict(self, positions: np.ndarray, values: np.ndarray) -> tuple[float, int]:
        s = self.score(positions, values)
        return s, predict_label(s)


class Perceptron(LinearLearner):
    """Mistake-driven additive updates: w += y*x whenever y*score <= 0."""

    def update(self, positions, values, y, rho=None, score=None):
        s = self.score(positions, values) if score is None else score
        if y * s <= 0.0:
            self.w[positions] += y * values
            return 1.0
        return 0.0


class PassiveAggressiveI(LinearLearner):
    """PA-I: closed-form margin restoration with aggressiveness capped at C."""

    def __init__(self, d: int, C: float = 1.0):
        super().__init__(d)
        if not C > 0.0:
            raise ValueError("C must be positive")
        self.C = C

    def update(self, positions, values, y, rho=None, score=None):
        s = self.score(positions, values) if score is None else score
        hinge = max(0.0, 1.0 - y * s)
        if hinge == 0.0:
            return 0.0
        sq_norm = float(values @ values)
        tau = min(self.C, hinge / sq_norm)
        self.w[positions] += tau * y * values
        return hinge


class CostSensitiveGD(LinearLearner):
    """COG: subgradient descent on the cost-sensitive surrogate loss."""

    def __init__(self, d: int, eta: float, variant: LossVariant = LossVariant.I):
        super().__init__(d)
        if not eta > 0.0:
            raise ValueError("eta must be positive")
        self.eta = eta
        self.variant = LossVariant(variant)

    def update(self, positions, values, y, rho, score=None):
        s = self.score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        a = gradient_scale(self.variant, y, rho, l)
        if a != 0.0:
            self.w[positions] -= self.eta * a * values
        return l
