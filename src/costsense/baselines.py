"""First-order online reference learners: Perceptron, PA-I, and COG.

All learners share the sparse step interface used by the harness:
``score(positions, values)`` gives mu . x for the current weights and
``update(positions, values, y, rho, score=None)`` performs one online step,
returning the surrogate loss that drove it (0.0 when the step was passive).
Ties score = 0 predict +1 everywhere in this package.

PA-I and COG also come as lanes (:class:`LinearLanes`): one learner per
step-size grid value, run side by side in one pass for grid selection.
"""

from __future__ import annotations

import numpy as np

from .losses import LossVariant, gradient_scale, lane_gradient_scale, loss


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


class LinearLanes:
    """G linear learners side by side: column g of the d x G ``w`` is lane g's
    weights.  A subclass's ``step`` is its scalar class's ``update`` applied
    to every lane at once, entry by entry, with a zero step on passive lanes."""

    def __init__(self, d: int, lanes: int):
        self.w = np.zeros((d, lanes))

    def scores(self, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
        return values @ self.w.take(positions, 0)


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


class PassiveAggressiveILanes(LinearLanes):
    """:class:`PassiveAggressiveI` with cap ``C[g]`` on lane g."""

    def __init__(self, d: int, C: np.ndarray):
        super().__init__(d, len(C))
        self.C = np.asarray(C, dtype=np.float64)

    def step(self, positions, values, y, rho, scores):
        hinge = np.fmax(0.0, 1.0 - y * scores)  # max(0.0, nan) is 0.0, as in update
        if np.count_nonzero(hinge):
            tau = np.minimum(self.C, hinge / float(values @ values))
            self.w[positions] = self.w.take(positions, 0) + np.multiply.outer(values, tau * y)


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


class CostSensitiveGDLanes(LinearLanes):
    """:class:`CostSensitiveGD` with step size ``eta[g]`` on lane g."""

    def __init__(self, d: int, eta: np.ndarray, variant: LossVariant = LossVariant.I):
        super().__init__(d, len(eta))
        self.eta = np.asarray(eta, dtype=np.float64)
        self.variant = LossVariant(variant)

    def step(self, positions, values, y, rho, scores):
        a = lane_gradient_scale(self.variant, y, rho, scores)
        if np.count_nonzero(a):
            self.w[positions] = self.w.take(positions, 0) - np.multiply.outer(values, self.eta * a)
