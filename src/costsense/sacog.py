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
coefficients.  ``advance`` runs a chunk of rounds, in each of which every
lane scores its own row and takes ``update``'s step on it, and ``scores``
scores frozen lanes, in the layout ``baselines`` describes: the caller owns
the chunks, labels and rho, the learner the rounds.  Per chunk it computes
the slope, ``eta`` times the slope along x and the sketch's xhat (and xhat
@ xhat); per round, the weights and Z rows gathered for the score are the
ones the step updates.  A lane's state is about (m + 1) x (d + 2m)
doubles.  Lanes fall out of step under ``sketch_on_loss_only``, so each
lane counts its own sketch rounds, and a lane whose sketch is not due
keeps its state as it is.
"""

from __future__ import annotations

import numpy as np

from .baselines import predict_label, step_sizes
from .losses import LossVariant, gradient_scale, lane_active, lane_slope, loss
from .sketch import OjaSketch, SparseOjaSketch, lane_products, sketch_inputs, to_sketch_vector


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
        """Each frozen lane's scores on its own rows (lanes only; any leading
        axes are rounds)."""
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

    def advance(self, flat, values, y, weight, sq_norms=None):
        """``update`` on every lane's own row, round by round over a chunk;
        returns the chunk's scores.  A lane whose loss is 0 keeps its
        weights."""
        mu, sk = self.mu.reshape(-1), self.sketch  # mu as a view: entry position * G + g
        slope = lane_slope(self.variant, y, weight)
        step = (self.eta * slope)[..., None] * values
        positions = flat // self.lanes
        xhat = to_sketch_vector(values, self.gamma)
        scores = np.empty(flat.shape[:2])
        for t, (f, x) in enumerate(zip(flat, values)):
            rows = mu[f]
            s = scores[t] = np.vecdot(rows, x)
            active = lane_active(self.variant, y[t], weight[t], s)
            due = self._due_lanes(active)
            if due is not None:
                sk.step(due, positions[t][due], xhat[t][due])
            act = _lanes(active)
            if act is None:
                continue
            a, x = slope[t][act], x[act]
            tl = sk.t[act] * sk.lam[act]  # the sketch's H is 1 / (1 + tl)
            S = np.sqrt(tl)[..., None] * sk.V[act]
            Sg = a[:, None] * lane_products(S.mT[np.arange(len(a))[:, None], positions[t][act]], x)
            mu[f[act]] = rows[act] - step[t][act]
            HSg = 1.0 / (1.0 + tl) * Sg
            self.mu[:, act] += (self.eta[act][:, None] * (S.mT @ HSg[..., None])[..., 0]).T
        return scores


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

    def scores(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Each frozen lane's ``lazy_score`` on its own rows (lanes only; any
        leading axes are rounds)."""
        Z = self.sketch.Z.reshape(-1, self.sketch.m)
        return np.vecdot(self.w.take(flat), values) + np.vecdot(
            self.b, lane_products(Z.take(flat, axis=0), values))

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

    def advance(self, flat, values, y, weight, sq_norms=None):
        """``update`` on every lane's own row, round by round over a chunk;
        returns the chunk's scores.  A lane whose loss is 0 keeps its
        weights, and a lane whose sketch is not due its sketch."""
        w, sk = self.w.reshape(-1), self.sketch  # w as a view: entry position * G + g
        Z = sk.Z.reshape(-1, sk.m)  # a view: row position * G + g
        slope = lane_slope(self.variant, y, weight)
        step = (self.eta * slope)[..., None] * values
        xhat, xx = sketch_inputs(values, self.gamma)
        scores = np.empty(flat.shape[:2])
        for t, (f, x) in enumerate(zip(flat, values)):
            rows, zrows = w[f], Z.take(f, axis=0)
            s = scores[t] = np.vecdot(rows, x) + np.vecdot(self.b, lane_products(zrows, x))
            active = lane_active(self.variant, y[t], weight[t], s)
            due = self._due_lanes(active)
            if due is not None:
                xh = xhat[t][due]
                delta, zrows[due], fold = sk.step(due, f[due], xh, zrows[due], xx[t][due])
                # update's delta compensation; where delta . b is 0, which
                # update skips, this subtracts zeros
                rows[due] -= np.vecdot(delta, self.b[due])[:, None] * xh
                if fold is not None:
                    lanes, old = fold
                    w[f] = rows
                    self.w[:, lanes] += (old.mT @ self.b[lanes][..., None])[..., 0].T
                    self.b[lanes] = 0.0
                    rows, zrows = w[f], Z.take(f, axis=0)
            act = _lanes(active)
            if act is None:
                if due is not None:
                    w[f] = rows
                continue
            w[f] = np.subtract(rows, step[t], out=rows, where=active[:, None])
            a, tl, F = slope[t][act], sk.t[act] * sk.lam[act], sk.F[act]
            Zg = a[:, None] * lane_products(zrows[act], x[act])
            # t lam H, with the sketch's H = 1 / (1 + t lam)
            v = (tl * (1.0 / (1.0 + tl))) * (F @ Zg[..., None])[..., 0]
            self.b[act] += self.eta[act][:, None] * (F.mT @ v[..., None])[..., 0]
        return scores
