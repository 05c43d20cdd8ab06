"""Sketched second-order learners.

``SketchedCSGD`` replaces the full covariance with a dense streaming sketch:
the mean update becomes mu - eta*(g - S^T H S g), which costs O(m d) per
active round.  ``SparseSketchedCSGD`` additionally splits the weights as
mu = w + Z^T b so that every update touches only the current sample's
support plus m-sized state, never a dense d-vector.  Both advance their
sketch every round by default, including rounds where the loss guard leaves
the weights untouched.  Both derive from the learner core,
``baselines.LinearLearner``, whose ``w`` is the dense mu and the sparse w.

Given a sequence of G step sizes either learner runs them as lanes, each
with a sketch of its own (``sketch.py``'s ``lanes``): column g of the d x G
``mu`` or ``w`` is lane g's weights, row g of the G x m ``b`` its sketch
coefficients, and ``advance`` and ``scores`` follow the lane layout that
``baselines`` describes.  Per chunk ``advance`` also computes the sketch's
xhat (and xhat @ xhat) beside the loss threshold; per round, the Z rows
gathered for the score are the ones the sketch step updates.  A round's
mean (or ``b``) step is computed for every lane and written only where the
lane's loss is positive (``where=``), so a passive lane keeps its weights
bit for bit, with no per-round copy of the active lanes; numpy's stacked
matmul gives each lane the same bits whatever the others hold, so an
active lane's step is the one it would take alone.  A lane's state is about (m + 1) x (d + 2m) + 4m^2
doubles, the last its sketch's bordered matrix.
Lanes fall out of step under ``sketch_on_loss_only``, so each lane counts
its own sketch rounds, and a lane whose sketch is not due keeps its state
as it is.
"""

from __future__ import annotations

import numpy as np

from .baselines import LinearLearner
from .losses import LossVariant, gradient_scale, lane_slope, lane_threshold, loss
from .sketch import (EVERY_LANE, OjaSketch, SparseOjaSketch, lane_products, sketch_inputs,
                     to_sketch_vector)


class _SketchedLearner(LinearLearner):
    """Constructor and sketch cadence shared by the sketched learners; each
    subclass names its ``sketch_type``."""

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
        super().__init__(d, eta)
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        if sketch_every < 1:
            raise ValueError("sketch_every must be >= 1")
        self.gamma = gamma
        self.variant = LossVariant(variant)
        self.lanes = self.eta.size if np.ndim(self.eta) else 0
        self.sketch = self.sketch_type(m, d, init=sketch_init, seed=seed, lanes=self.lanes)
        self._init_sketch_state()
        self.sketch_every = sketch_every
        self.sketch_on_loss_only = sketch_on_loss_only
        self.rounds = 0

    def _init_sketch_state(self):
        """Allocate the state kept beside the sketch; the dense learner keeps none."""

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
        lanes whose sketch is due, as ``sketch.step`` takes them:
        ``EVERY_LANE`` when all are (so that state is stepped in place), an
        index array when some are, None when none is."""
        due = self.rounds % self.sketch_every == 0
        self.rounds += 1
        if not due:
            return None
        if not self.sketch_on_loss_only or active.all():
            return EVERY_LANE
        lanes = np.flatnonzero(active)
        return lanes if lanes.size else None


class SketchedCSGD(_SketchedLearner):
    """Second-order learner over a dense streaming sketch."""

    sketch_type = OjaSketch
    # own entries, not inherited ones: the benchmark's tracer wraps them per class
    score, predict = LinearLearner.score, LinearLearner.predict
    mu = property(lambda self: self.w, doc="The mean weights: the core's ``w``.")

    def update(self, positions, values, y, rho, score=None):
        s = self.score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        self._advance_sketch(positions, values, l > 0.0)
        if l > 0.0:
            a = gradient_scale(self.variant, y, rho, l)
            S, H = self.sketch.S, self.sketch.H
            Sg = a * (S[:, positions] @ values)
            self.w[positions] -= self.eta * a * values
            self.w += self.eta * (S.T @ (H * Sg))
        return l

    def advance(self, flat, values, y, weight, sq_norms=None):
        """``update`` on every lane's own row, round by round over a chunk;
        returns the chunk's scores.  A lane whose loss is 0 keeps its
        weights."""
        mu, sk = self.w.reshape(-1), self.sketch  # mu as a view: entry position * G + g
        lane_mu = self.w.T  # lane by column, as the mean step's product comes
        eta = self.eta[:, None]
        thr = lane_threshold(self.variant, weight)
        slope = lane_slope(self.variant, y, weight)
        step = (self.eta * slope)[..., None] * values
        positions = flat // self.lanes
        xhat = to_sketch_vector(values, self.gamma)
        scores = np.empty(flat.shape[:2])
        for s, f, p, x, xh, yt, th, sl, st in zip(scores, flat, positions, values, xhat, y, thr,
                                                  slope[..., None], step):
            rows = mu[f]
            np.vecdot(rows, x, out=s)
            active = yt * s < th
            due = self._due_lanes(active)
            if due is not None:
                sk.step(due, p[due], xh[due])
            if not np.count_nonzero(active):
                continue
            on = active[:, None]
            tl = sk.t * sk.lam  # the sketch's H is 1 / (1 + tl)
            S = np.sqrt(tl)[..., None] * sk.V
            Sg = sl * lane_products(S.mT[sk.lane, p], x)
            mu[f] = np.subtract(rows, st, out=rows, where=on)
            HSg = 1.0 / (1.0 + tl) * Sg
            np.add(lane_mu, eta * (S.mT @ HSg[..., None])[..., 0], out=lane_mu, where=on)
        return scores


class SparseSketchedCSGD(_SketchedLearner):
    """Sparse sketched learner with the w/b weight split.

    The implied weights are mu = w + Z^T b for the sketch's current Z; they
    are never materialized outside diagnostics, and scoring goes through
    :meth:`lazy_score` in O(m * nnz).
    """

    sketch_type = SparseOjaSketch

    def _init_sketch_state(self):
        self.b = np.zeros((*np.shape(self.eta), self.sketch.m))

    def lazy_score(self, positions: np.ndarray, values: np.ndarray) -> float:
        """w . x + b . (Z x) without forming w + Z^T b."""
        Zx = self.sketch.Z[:, positions] @ values
        return float(self.w[positions] @ values) + float(self.b @ Zx)

    # predict is bound here, not inherited: the benchmark's tracer wraps it per class
    score, predict = lazy_score, LinearLearner.predict

    def scores(self, flat: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Each frozen lane's ``lazy_score``: the core's scores plus the b term."""
        Z = self.sketch.Z.reshape(-1, self.sketch.m)
        return super().scores(flat, values) + np.vecdot(
            self.b, lane_products(Z.take(flat, axis=0), values))

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
        eta = self.eta[:, None]
        thr = lane_threshold(self.variant, weight)
        slope = lane_slope(self.variant, y, weight)
        step = (self.eta * slope)[..., None] * values
        xhat, xx = sketch_inputs(values, self.gamma)
        scores = np.empty(flat.shape[:2])
        for s, f, x, xh, xxt, yt, th, sl, st in zip(scores, flat, values, xhat, xx, y, thr,
                                                    slope[..., None], step):
            rows, zrows = w[f], Z.take(f, axis=0)
            np.add(np.vecdot(rows, x), np.vecdot(self.b, lane_products(zrows, x)), out=s)
            active = yt * s < th
            due = self._due_lanes(active)
            if due is EVERY_LANE:
                # every lane steps: its inputs go unindexed and the stepped
                # rows come back as zrows, with no copy
                delta, zrows, fold = sk.step(due, f, xh, zrows, xxt)
            elif due is not None:
                xh = xh[due]
                delta, zrows[due], fold = sk.step(due, f[due], xh, zrows[due], xxt[due])
            if due is not None:
                # update's delta compensation; where delta . b is 0, which
                # update skips, this subtracts zeros
                rows[due] -= np.vecdot(delta, self.b[due])[:, None] * xh
                if fold is not None:
                    lanes, old = fold
                    w[f] = rows
                    self.w[:, lanes] += (old.mT @ self.b[lanes][..., None])[..., 0].T
                    self.b[lanes] = 0.0
                    rows, zrows = w[f], Z.take(f, axis=0)
            if not np.count_nonzero(active):
                if due is not None:
                    w[f] = rows
                continue
            on = active[:, None]
            w[f] = np.subtract(rows, st, out=rows, where=on)
            tl = sk.t * sk.lam
            Zg = sl * lane_products(zrows, x)
            # t lam H, with the sketch's H = 1 / (1 + t lam)
            v = (tl * (1.0 / (1.0 + tl))) * (sk.F @ Zg[..., None])[..., 0]
            np.add(self.b, eta * (sk.F.mT @ v[..., None])[..., 0], out=self.b, where=on)
        return scores
