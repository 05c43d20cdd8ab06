"""First-order online reference learners: Perceptron, PA-I, and COG.

All learners share the sparse step interface used by the harness:
``score(positions, values)`` gives mu . x for the current weights and
``update(positions, values, y, rho, score=None)`` performs one online step,
returning the surrogate loss that drove it (0.0 when the step was passive).
Ties score = 0 predict +1 everywhere in this package.

PA-I and COG given a sequence of G step sizes run them as lanes: column g
of the d x G weights is the learner with value g.  Each lane reads its own
row in a round, so one batch covers every (step size, permutation) pair of
a selection, or every permutation of an evaluation.  ``scores``/``step``
apply ``score``/``update`` to every lane at once: row g of their
``flat``/``values`` (G x K, K the longest row) is lane g's sample, addressed
as ``position * G + g`` in the C-order weights and padded with value 0.0 at
a position no sample uses; ``y``, ``weight`` (``losses.class_weight``)
and ``sq_norms`` (``values @ values``) hold one entry per lane.
"""

from __future__ import annotations

import numpy as np

from .losses import LossVariant, gradient_scale, lane_gradient_scale, loss


def predict_label(score: float) -> int:
    return 1 if score >= 0.0 else -1


def step_sizes(value, name: str):
    """A learner's step-size argument, checked: a number is kept as given (one
    learner), a sequence becomes a float64 array (one lane per value).  Every
    value must be > 0."""
    if np.ndim(value) == 0:
        if not value > 0.0:
            raise ValueError(f"{name} must be positive")
        return value
    lanes = np.asarray(value, dtype=np.float64)
    if lanes.ndim != 1 or lanes.size == 0 or not (lanes > 0.0).all():
        raise ValueError(f"{name} must be positive, or a nonempty 1-D sequence of positive values")
    return lanes


class LinearLearner:
    """Dense weight vector plus the shared scoring/prediction rules."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.w = np.zeros(d)

    def score(self, positions: np.ndarray, values: np.ndarray) -> float:
        return float(self.w[positions] @ values)

    def scores(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Every lane's score on its own row (d x G weights only): one dot
        product per lane, as ``score`` takes it."""
        return np.vecdot(self.w.take(flat), values)

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
    """PA-I: closed-form margin restoration with aggressiveness capped at C
    (one lane per value when ``C`` is a sequence)."""

    def __init__(self, d: int, C: float = 1.0):
        super().__init__(d)
        self.C = step_sizes(C, "C")
        if np.ndim(self.C):
            self.w = np.zeros((d, self.C.size))

    def update(self, positions, values, y, rho=None, score=None):
        s = self.score(positions, values) if score is None else score
        hinge = max(0.0, 1.0 - y * s)
        if hinge == 0.0:
            return 0.0
        sq_norm = float(values @ values)
        tau = min(self.C, hinge / sq_norm)
        self.w[positions] += tau * y * values
        return hinge

    def step(self, flat, values, y, weight, scores, sq_norms):
        """``update`` on every lane's own row, given each row's ``values @
        values``; a lane whose hinge is 0 takes a zero step."""
        hinge = np.fmax(0.0, 1.0 - y * scores)  # max(0.0, nan) is 0.0, as in update
        if np.count_nonzero(hinge):
            tau = np.minimum(self.C, hinge / sq_norms)
            self.w.put(flat, self.w.take(flat) + (tau * y)[:, None] * values)


class CostSensitiveGD(LinearLearner):
    """COG: subgradient descent on the cost-sensitive surrogate loss (one
    lane per value when ``eta`` is a sequence)."""

    def __init__(self, d: int, eta: float, variant: LossVariant = LossVariant.I):
        super().__init__(d)
        self.eta = step_sizes(eta, "eta")
        if np.ndim(self.eta):
            self.w = np.zeros((d, self.eta.size))
        self.variant = LossVariant(variant)

    def update(self, positions, values, y, rho, score=None):
        s = self.score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        a = gradient_scale(self.variant, y, rho, l)
        if a != 0.0:
            self.w[positions] -= self.eta * a * values
        return l

    def step(self, flat, values, y, weight, scores, sq_norms=None):
        """``update`` on every lane's own row; a lane whose loss is 0 takes a
        zero step."""
        a = lane_gradient_scale(self.variant, y, weight, scores)
        if np.count_nonzero(a):
            self.w.put(flat, self.w.take(flat) - (self.eta * a)[:, None] * values)
