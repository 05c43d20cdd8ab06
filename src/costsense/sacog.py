"""Sketched second-order learners.

``SketchedCSGD`` replaces the full covariance with a dense streaming sketch:
the mean update becomes mu - eta*(g - S^T H S g), which costs O(m d) per
active round.  ``SparseSketchedCSGD`` additionally splits the weights as
mu = w + Z^T b so that every update touches only the current sample's
support plus m-sized state, never a dense d-vector.  Both advance their
sketch every round by default, including rounds where the loss guard leaves
the weights untouched.

Given a sequence of G step sizes either learner runs them as lanes, each
with a sketch of its own (``sketch.py``'s ``lanes``): column g of the d x G
``mu`` or ``w`` is lane g's weights, row g of the G x m ``b`` its sketch
coefficients, and ``scores``/``step`` apply ``score``/``update`` to every
lane at once, each on its own row, in the layout ``baselines`` describes.
A lane's state is about (m + 1) x (d + 2m) doubles.  Lanes fall out of
step under ``sketch_on_loss_only``, so each lane counts its own sketch
rounds, and a lane whose sketch is not due keeps its state as it is.
"""

from __future__ import annotations

import numpy as np

from .baselines import predict_label, step_sizes
from .losses import LossVariant, gradient_scale, lane_gradient_scale, loss
from .sketch import OjaSketch, SparseOjaSketch, to_sketch_vector


def _lanes(mask: np.ndarray):
    """The lanes ``mask`` sets: a slice when it sets all (so that state is
    read through views), an index array when it sets some, None when none."""
    if mask.all():
        return slice(None)
    lanes = np.flatnonzero(mask)
    return lanes if lanes.size else None


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
        self.eta = step_sizes(eta, "eta")
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        if sketch_every < 1:
            raise ValueError("sketch_every must be >= 1")
        self.d = d
        self.gamma = gamma
        self.variant = LossVariant(variant)
        self.lanes = self.eta.size if np.ndim(self.eta) else 0
        self.sketch = self.sketch_type(m, d, init=sketch_init, seed=seed, lanes=self.lanes)
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

    def _due_lanes(self, active: np.ndarray):
        """``_advance_sketch``'s rule per lane: count the round and return the
        lanes whose sketch is due (see :func:`_lanes`)."""
        due = self.rounds % self.sketch_every == 0
        self.rounds += 1
        if not due:
            return None
        return _lanes(active) if self.sketch_on_loss_only else slice(None)


class SketchedCSGD(_SketchedLearner):
    """Second-order learner over a dense streaming sketch."""

    sketch_type = OjaSketch

    def _init_weights(self):
        self.mu = np.zeros((self.d, *np.shape(self.eta)))

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
        self._advance_sketch(positions, values, l > 0.0)
        if l > 0.0:
            a = gradient_scale(self.variant, y, rho, l)
            S, H = self.sketch.S, self.sketch.H
            Sg = a * (S[:, positions] @ values)
            self.mu[positions] -= self.eta * a * values
            self.mu += self.eta * (S.T @ (H * Sg))
        return l

    def step(self, flat, values, y, weight, scores, sq_norms=None):
        """``update`` on every lane's own row; a lane whose loss is 0 keeps its
        weights."""
        a = lane_gradient_scale(self.variant, y, weight, scores)
        active = a != 0.0
        positions = flat // self.lanes
        due = self._due_lanes(active)
        if due is not None:
            self.sketch.step(due, positions[due], to_sketch_vector(values[due], self.gamma))
        act = _lanes(active)
        if act is None:
            return
        sk, a, eta, values = self.sketch, a[act], self.eta[act], values[act]
        S = np.sqrt(sk.t[act] * sk.lam[act])[..., None] * sk.V[act]
        rows = S.mT[np.arange(len(a))[:, None], positions[act]]
        Sg = a[:, None] * (rows.mT @ values[..., None])[..., 0]
        flat = flat[act]
        self.mu.put(flat, self.mu.take(flat) - (eta * a)[:, None] * values)
        self.mu[:, act] += (eta[:, None] * (S.mT @ (sk.H[act] * Sg)[..., None])[..., 0]).T


class SparseSketchedCSGD(_SketchedLearner):
    """Sparse sketched learner with the w/b weight split.

    The implied weights are mu = w + Z^T b for the sketch's current Z; they
    are never materialized outside diagnostics, and scoring goes through
    :meth:`lazy_score` in O(m * nnz).
    """

    sketch_type = SparseOjaSketch

    def _init_weights(self):
        self.w = np.zeros((self.d, *np.shape(self.eta)))
        self.b = np.zeros((*np.shape(self.eta), self.sketch.m))

    def lazy_score(self, positions: np.ndarray, values: np.ndarray) -> float:
        """w . x + b . (Z x) without forming w + Z^T b."""
        Zx = self.sketch.Z[:, positions] @ values
        return float(self.w[positions] @ values) + float(self.b @ Zx)

    # uniform learner interface
    score = lazy_score

    def _Zx(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Each lane's Z x on its own row (lanes only)."""
        rows = self.sketch.Z.reshape(-1, self.sketch.m).take(flat, axis=0)
        return (rows.mT @ values[..., None])[..., 0]

    def scores(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Every lane's ``lazy_score`` on its own row (lanes only)."""
        return np.vecdot(self.w.take(flat), values) + np.vecdot(self.b, self._Zx(flat, values))

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

    def step(self, flat, values, y, weight, scores, sq_norms=None):
        """``update`` on every lane's own row; a lane whose loss is 0 keeps its
        weights, and a lane whose sketch is not due its sketch."""
        a = lane_gradient_scale(self.variant, y, weight, scores)
        active = a != 0.0
        due = self._due_lanes(active)
        w = self.w.take(flat)
        if due is not None:
            xhat = to_sketch_vector(values[due], self.gamma)
            delta, fold = self.sketch.step(due, flat[due], xhat)
            # update's delta compensation; where delta . b is 0, which update
            # skips, this subtracts zeros
            w[due] -= np.vecdot(delta, self.b[due])[:, None] * xhat
            if fold is not None:
                lanes, old = fold
                self.w.put(flat, w)
                self.w[:, lanes] += (old.mT @ self.b[lanes][..., None])[..., 0].T
                self.b[lanes] = 0.0
                w = self.w.take(flat)
        act = _lanes(active)
        if act is None:
            self.w.put(flat, w)
            return
        self.w.put(flat, w - (self.eta * a)[:, None] * values)
        sk, a, eta = self.sketch, a[act], self.eta[act]
        Zg = a[:, None] * self._Zx(flat[act], values[act])
        F = sk.F[act]
        v = (sk.t[act] * sk.lam[act] * sk.H[act]) * (F @ Zg[..., None])[..., 0]
        self.b[act] += eta[:, None] * (F.mT @ v[..., None])[..., 0]
