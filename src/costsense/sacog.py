"""Sketched second-order learners.

``SketchedCSGD`` replaces the full covariance with a dense streaming sketch:
the mean update becomes mu - eta*(g - S^T H S g), which costs O(m d) per
active round.  ``SparseSketchedCSGD`` additionally splits the weights as
mu = w + Z^T b so that every update touches only the current sample's
support plus m-sized state, never a dense d-vector.  Both advance their
sketch every round by default, including rounds where the loss guard leaves
the weights untouched.
"""

from __future__ import annotations

import numpy as np

from .baselines import predict_label
from .losses import LossVariant, gradient_scale, loss
from .sketch import OjaSketch, SparseOjaSketch, to_sketch_vector


class _SketchedLearner:
    """Constructor and sketch cadence shared by the sketched learners; each
    subclass names its ``sketch_type`` and allocates its weights."""

    def __init__(
        self,
        d: int,
        eta: float,
        gamma: float,
        m: int = 5,
        variant: LossVariant = LossVariant.I,
        sketch_init: str = "canonical",
        seed: int | None = None,
        sketch_every: int = 1,
        sketch_on_loss_only: bool = False,
    ):
        if np.ndim(eta):
            raise ValueError("sketched learners take one eta, not a sequence")
        if not (eta > 0.0 and gamma > 0.0):
            raise ValueError("eta and gamma must be positive")
        if sketch_every < 1:
            raise ValueError("sketch_every must be >= 1")
        self.d = d
        self.eta = eta
        self.gamma = gamma
        self.variant = LossVariant(variant)
        self.sketch = self.sketch_type(m, d, init=sketch_init, seed=seed)
        self.sketch_every = sketch_every
        self.sketch_on_loss_only = sketch_on_loss_only
        self.rounds = 0
        self._init_weights()

    def _advance_sketch(self, positions, values, active: bool):
        """Count the round; when the sketch is due, feed it xhat = x / sqrt(gamma).
        Returns ``(xhat, sketch.update(...))``, or ``(None, None)`` if it is not."""
        due = (active or not self.sketch_on_loss_only) and self.rounds % self.sketch_every == 0
        self.rounds += 1
        if not due:
            return None, None
        xhat = to_sketch_vector(values, self.gamma)
        return xhat, self.sketch.update(positions, xhat)


class SketchedCSGD(_SketchedLearner):
    """Second-order learner over a dense streaming sketch."""

    sketch_type = OjaSketch

    def _init_weights(self):
        self.mu = np.zeros(self.d)

    def score(self, positions: np.ndarray, values: np.ndarray) -> float:
        return float(self.mu[positions] @ values)

    def predict(self, positions: np.ndarray, values: np.ndarray) -> tuple[float, int]:
        s = self.score(positions, values)
        return s, predict_label(s)

    def update(self, positions, values, y, rho, score=None):
        s = self.score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        self._advance_sketch(positions, values, l > 0.0)
        if l > 0.0:
            a = gradient_scale(self.variant, y, rho, l)
            S, H = self.sketch.S, self.sketch.H
            Sg = a * (S[:, positions] @ values)
            self.mu[positions] -= self.eta * a * values
            self.mu += self.eta * (S.T @ (H * Sg))
        return l


class SparseSketchedCSGD(_SketchedLearner):
    """Sparse sketched learner with the w/b weight split.

    The implied weights are mu = w + Z^T b for the sketch's current Z; they
    are never materialized outside diagnostics, and scoring goes through
    :meth:`lazy_score` in O(m * nnz).
    """

    sketch_type = SparseOjaSketch

    def _init_weights(self):
        self.w = np.zeros(self.d)
        self.b = np.zeros(self.sketch.m)

    def lazy_score(self, positions: np.ndarray, values: np.ndarray) -> float:
        """w . x + b . (Z x) without forming w + Z^T b."""
        Zx = self.sketch.Z[:, positions] @ values
        return float(self.w[positions] @ values) + float(self.b @ Zx)

    # uniform learner interface
    score = lazy_score

    def predict(self, positions: np.ndarray, values: np.ndarray) -> tuple[float, int]:
        s = self.lazy_score(positions, values)
        return s, predict_label(s)

    def materialize_mu(self) -> np.ndarray:
        """The implied dense weights w + Z^T b (diagnostic/test use)."""
        return self.w + self.sketch.Z.T @ self.b

    def update(self, positions, values, y, rho, score=None):
        s = self.lazy_score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        xhat, delta = self._advance_sketch(positions, values, l > 0.0)
        if delta is not None:
            # The sketch moved Z by delta * xhat^T, so w must absorb
            # -xhat * (delta . b) for the implied weights w + Z^T b to stay
            # put; without it every passive round would silently shift the model.
            db = float(delta @ self.b)
            if db != 0.0:
                self.w[positions] -= db * xhat
            if self.sketch.last_fold is not None:
                # Z was folded: move Z^T b into w, or b takes up Z's growth
                self.w += self.sketch.last_fold.T @ self.b
                self.b[:] = 0.0
        if l > 0.0:
            a = gradient_scale(self.variant, y, rho, l)
            sk = self.sketch
            self.w[positions] -= self.eta * a * values
            Zg = a * (sk.Z[:, positions] @ values)
            self.b += self.eta * (sk.F.T @ ((sk.t * sk.lam * sk.H) * (sk.F @ Zg)))
        return l
