"""The learner core, and the first-order learners Perceptron, PA-I and COG.

Every learner is the linear model sign(w . x) of :class:`LinearLearner`,
which also ACOG and the sketched learners derive from; they differ only in
``update(positions, values, y, rho, score=None)``, one online step that
returns the surrogate loss that drove it (0.0 when the step was passive).
``score(positions, values)`` gives w . x for the current weights.  Ties
score = 0 predict +1 everywhere in this package.

PA-I and COG given a sequence of G step sizes run them as lanes: column g
of the d x G weights is the learner with value g; the perceptron, which has
no step size, runs ``lanes`` of them.  Each lane reads its own row in a
round, so one batch covers every (step size, permutation) pair of a
selection, or every permutation of an evaluation.  ``advance(flat, values,
y, weight, sq_norms)`` runs a chunk of rounds (axis 0) and returns their
scores: in each round every lane scores its row and then takes
``update``'s step on it.  Row g of a round's ``flat``/``values`` (G x K, K
the longest row) is lane g's sample, addressed as ``position * G + g`` in
the C-order weights and padded with value 0.0 at a position no sample uses;
``y``, ``weight`` (``losses.class_weight``) and ``sq_norms`` (``values @
values``) hold one entry per round and lane, though a caller passes
``sq_norms`` only to a learner that ``reads_sq_norms`` (PA-I) and None to
the others.  The caller owns the chunks, the labels and rho; the learner
owns the rounds.  Whatever does not depend on a round's scores (the loss
threshold of ``losses.lane_threshold``, the slope and ``eta`` times it, and
the step along x of COG and the perceptron) is computed once per chunk, so
a round's activity test is one multiply and one compare, and the weights a
lane's score gathers are the ones its step updates.
``scores`` gives the scores of frozen lanes.
"""

from __future__ import annotations

import numpy as np

from .losses import LossVariant, gradient_scale, lane_slope, lane_threshold, loss


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
    """Weights ``w``, d x G for a sequence of G step sizes (else d), and the
    scoring and prediction rules.  ``step``, checked by :func:`step_sizes`, is
    kept as the attribute ``step_name``; the perceptron has none."""

    step_name = "eta"
    reads_sq_norms = False  # whether ``advance`` reads its ``sq_norms``

    def __init__(self, d: int, step=None):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        if step is not None:
            step = step_sizes(step, self.step_name)
            setattr(self, self.step_name, step)
        self.w = np.zeros((d, *np.shape(step)))  # np.shape(None) is ()

    def score(self, positions: np.ndarray, values: np.ndarray) -> float:
        return float(self.w[positions] @ values)

    def scores(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Each frozen lane's scores on its own rows (any leading axes are
        rounds): one dot product per row, as ``score`` takes it."""
        return np.vecdot(self.w.take(flat), values)

    def predict(self, positions: np.ndarray, values: np.ndarray) -> tuple[float, int]:
        s = self.score(positions, values)
        return s, predict_label(s)


class Perceptron(LinearLearner):
    """Mistake-driven additive updates: w += y*x whenever y*score <= 0 (d x
    ``lanes`` weights when ``lanes`` is given)."""

    def __init__(self, d: int, *, lanes: int | None = None):
        super().__init__(d)
        if lanes is not None:
            if lanes < 1:
                raise ValueError("lanes must be >= 1")
            self.w = np.zeros((d, lanes))

    def update(self, positions, values, y, rho=None, score=None):
        s = self.score(positions, values) if score is None else score
        if y * s <= 0.0:
            self.w[positions] += y * values
            return 1.0
        return 0.0

    def advance(self, flat, values, y, weight, sq_norms=None):
        """``update`` on every lane's own row, round by round over a chunk;
        returns the chunk's scores.  A lane that scores its row right keeps
        its weights."""
        w = self.w.reshape(-1)  # a view: entry position * G + g
        step = y[..., None] * values
        scores = np.empty(flat.shape[:2])
        for s, f, x, yt, st in zip(scores, flat, values, y, step):
            rows = w[f]
            np.vecdot(rows, x, out=s)
            active = yt * s <= 0.0
            if np.count_nonzero(active):
                w[f] = np.add(rows, st, out=rows, where=active[:, None])
        return scores


class PassiveAggressiveI(LinearLearner):
    """PA-I: closed-form margin restoration with aggressiveness capped at C
    (one lane per value when ``C`` is a sequence)."""

    step_name = "C"
    reads_sq_norms = True

    def __init__(self, d: int, C: float = 1.0):
        super().__init__(d, C)

    def update(self, positions, values, y, rho=None, score=None):
        s = self.score(positions, values) if score is None else score
        hinge = max(0.0, 1.0 - y * s)
        if hinge == 0.0:
            return 0.0
        sq_norm = float(values @ values)
        tau = min(self.C, hinge / sq_norm)
        self.w[positions] += tau * y * values
        return hinge

    def advance(self, flat, values, y, weight, sq_norms):
        """``update`` on every lane's own row, round by round over a chunk,
        given each row's ``values @ values``; returns the chunk's scores.
        PA-I is rho-free: its hinge is the variant-II loss at weight 1, and
        a lane whose hinge is 0 keeps its weights."""
        w, C = self.w.reshape(-1), self.C  # w as a view: entry position * G + g
        scores = np.empty(flat.shape[:2])
        for s, f, x, yt, sq in zip(scores, flat, values, y, sq_norms):
            rows = w[f]
            np.vecdot(rows, x, out=s)
            margin = yt * s
            active = margin < 1.0  # lane_threshold(LossVariant.II, 1.0)
            if np.count_nonzero(active):
                tau = np.minimum(C, (1.0 - margin) / sq)
                w[f] = np.add(rows, (tau * yt)[:, None] * x, out=rows, where=active[:, None])
        return scores


class CostSensitiveGD(LinearLearner):
    """COG: subgradient descent on the cost-sensitive surrogate loss (one
    lane per value when ``eta`` is a sequence)."""

    def __init__(self, d: int, eta: float, variant: LossVariant = LossVariant.I):
        super().__init__(d, eta)
        self.variant = LossVariant(variant)

    def update(self, positions, values, y, rho, score=None):
        s = self.score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        a = gradient_scale(self.variant, y, rho, l)
        if a != 0.0:
            self.w[positions] -= self.eta * a * values
        return l

    def advance(self, flat, values, y, weight, sq_norms=None):
        """``update`` on every lane's own row, round by round over a chunk;
        returns the chunk's scores.  A lane whose loss is 0 keeps its
        weights."""
        w = self.w.reshape(-1)  # a view: entry position * G + g
        thr = lane_threshold(self.variant, weight)
        step = (self.eta * lane_slope(self.variant, y, weight))[..., None] * values
        scores = np.empty(flat.shape[:2])
        for s, f, x, yt, th, st in zip(scores, flat, values, y, thr, step):
            rows = w[f]
            np.vecdot(rows, x, out=s)
            active = yt * s < th
            if np.count_nonzero(active):
                w[f] = np.subtract(rows, st, out=rows, where=active[:, None])
        return scores
