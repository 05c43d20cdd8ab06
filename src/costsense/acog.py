"""Adaptively regularized cost-sensitive online gradient descent.

The learner keeps a Gaussian belief over weights: a mean ``mu``, the ``w``
that the learner core (``baselines.LinearLearner``) scores with, and a
covariance ``sigma`` that starts at the identity and shrinks along observed
directions.  On each loss-active round the covariance absorbs a rank-one
term through its closed-form inverse update, and the mean then descends the
loss subgradient preconditioned by the covariance.  Both steps read only the
sample's support; a diagonal mode keeps only the diagonal of ``sigma`` for
O(nnz) rounds.  Given a sequence of G step sizes either learner runs them
as lanes, column g of the d x G ``mu`` being the learner with value g, and
column g of the diagonal learner's d x G ``sigma`` or matrix g of the full
learner's G x d x d stack its covariance; ``advance`` and ``scores``
follow the lane layout that ``baselines`` describes.

A learner of one step size is the per-sample learner (``update``,
``score``, ``predict``), and the full-matrix one's ``update`` subtracts each
round's term from ``sigma`` at once.  ``advance`` runs a learner of a
sequence of step sizes, one lane being ``[eta]``, and the full-matrix one
delays the terms instead.  A round in which any lane is active fills the
next slot of a ``PENDING_TERMS`` x d buffer U per lane, whose slot counter
the lanes share: an active lane writes its term s / sqrt(gamma + x^T s),
where s = sigma x is taken from sigma less the terms U holds, and a passive
lane a zero row.  Once the slots are full, each lane's U is applied to its
sigma as one symmetric rank-k product, sigma -= U^T U (the compact
representation of Byrd, Nocedal and Schnabel, Math. Programming 63, 1994).
Rounds still cost O(d^2) on average, but that part runs as a matrix-matrix
product.
sigma x is gathered from sigma's rows at the support, which holds only
because sigma is symmetric, so the ``sigma`` setter refuses a matrix that
is not.
``sigma`` read from outside is the covariance with the pending terms
applied.
"""

from __future__ import annotations

import numpy as np

from .baselines import LinearLearner
from .losses import LossVariant, gradient_scale, lane_slope, lane_threshold, loss

# Largest full sigma allocated (16384 columns): a fixed policy, not a measured limit.
FULL_SIGMA_MAX_BYTES = 2**31
# Terms a lane pass of full ACOG delays before applying them to sigma at once
PENDING_TERMS = 32


def covariance_update(
    sigma: np.ndarray, positions: np.ndarray, values: np.ndarray, gamma: float
) -> np.ndarray:
    """In place, sigma -= s s^T / (gamma + x^T s) with s = sigma x: the
    inverse of sigma^{-1} + x x^T / gamma.  sigma must be symmetric: s is
    gathered from the support's rows, which are then its columns and cost a
    fraction of a column gather.  s s^T is exactly symmetric, so sigma stays
    bitwise symmetric.  The outer product is built in one buffer, a block of
    rows at a time: 256 KB of rows, or 16 rows past d = 2048 (one block up to
    d = 181).  Returns ``sigma``."""
    s = values @ sigma.take(positions, axis=0)
    denom = gamma + float(values @ s[positions])
    d = s.size
    # einsum zeroes its output and then adds to it, so a buffer that stays
    # in cache is cheaper: at d = 4096, on one core of a 2-core Xeon VM,
    # 64-row blocks were slower than 16
    rows = max(16, 2**18 // (8 * d))
    buf = np.empty((min(rows, d), d))
    for lo in range(0, d, rows):
        block = buf[:min(rows, d - lo)]
        # einsum writes +0.0 where np.outer writes -0.0 (a zero times a
        # negative), but sigma never holds -0.0 (it starts at +0.0 off the
        # diagonal and x - x is +0.0), so sigma - block has np.outer's bits
        np.einsum("i,j->ij", s[lo:lo + rows], s, out=block)
        block /= denom
        sigma[lo:lo + rows] -= block
    return sigma


def _apply_terms(sigma: np.ndarray, terms: np.ndarray) -> None:
    """In place, sigma -= terms^T terms, in blocks of rows whose products
    stay within 4 MB (one block up to d = 724).  numpy computes a block
    times its own transpose as a symmetric rank-k product, and each
    off-diagonal block is computed once and subtracted on both sides, so
    sigma stays bitwise symmetric."""
    d = sigma.shape[0]
    rows = max(1, 2**19 // d)
    for lo in range(0, d, rows):
        hi = lo + rows
        head = terms[:, lo:hi]
        sigma[lo:hi, lo:hi] -= head.T @ head
        if hi < d:
            off = head.T @ terms[:, hi:]
            sigma[lo:hi, hi:] -= off
            sigma[hi:, lo:hi] -= off.T


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


class AdaptiveCSGD(LinearLearner):
    """Full-matrix or diagonal second-order cost-sensitive learner.

    ``update_rule`` selects whether the mean step is preconditioned by the
    freshly shrunk covariance ("new", the default) or by the covariance from
    before this round ("old", the ablation setting).  A sequence ``eta``
    gives one lane per value.
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
        super().__init__(d, eta)
        lane_shape = np.shape(self.eta)  # () for one learner, (G,) for G lanes
        need = np.size(self.eta) * d * d * 8
        if not diagonal and need > FULL_SIGMA_MAX_BYTES:
            raise ValueError(f"full-matrix ACOG over {d} columns needs {need / 2**30:.1f} "
                             f"GiB, over {FULL_SIGMA_MAX_BYTES / 2**30:g} GiB; use the -diag variant")
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        if update_rule not in ("new", "old"):
            raise ValueError("update_rule must be 'new' or 'old'")
        self.gamma = gamma
        self.variant = LossVariant(variant)
        self.diagonal = diagonal
        self.update_rule = update_rule
        if diagonal:
            self._sigma = np.ones(self.w.shape)
        else:
            self._sigma = np.zeros((*lane_shape, d, d))
            self._sigma.reshape(*lane_shape, d * d)[..., ::d + 1] = 1.0  # each lane's identity
        # the terms a lane pass has not applied to _sigma yet, in slots
        # [:_pending] of each lane's PENDING_TERMS x d buffer; a learner of
        # one step size has no lane pass and no buffer
        full_lanes = bool(lane_shape) and not diagonal
        self._terms = np.empty((*lane_shape, PENDING_TERMS, d)) if full_lanes else None
        self._pending = 0

    # own entries, not inherited ones: the benchmark's tracer wraps them per class
    score, predict = LinearLearner.score, LinearLearner.predict
    mu = property(lambda self: self.w, doc="The mean weights: the core's ``w``.")

    @property
    def sigma(self) -> np.ndarray:
        """The covariance: the stored one, updated in place, or while a
        full-matrix lane pass holds terms back, a copy with each lane's
        pending terms applied.  Setting it drops any pending terms; the value
        must have the stored covariance's shape, and a full-matrix one must
        be exactly symmetric, since ``update`` and ``advance`` read sigma x
        from sigma's rows."""
        if not self._pending:
            return self._sigma
        sigma = self._sigma.copy()
        for lane, terms in zip(sigma, self._terms):
            _apply_terms(lane, terms[:self._pending])
        return sigma

    @sigma.setter
    def sigma(self, value: np.ndarray) -> None:
        value = np.ascontiguousarray(value, dtype=np.float64)
        if value.shape != self._sigma.shape:
            what = "diagonal" if self.diagonal else f"{self.d} x {self.d} per lane"
            raise ValueError(f"sigma must have shape {self._sigma.shape} ({what}), "
                             f"got {value.shape}")
        if not self.diagonal and not np.array_equal(value, value.swapaxes(-1, -2)):
            raise ValueError("a full-matrix sigma must be exactly symmetric: advance reads "
                             "sigma x from sigma's rows")
        self._sigma, self._pending = value, 0

    def update(self, positions, values, y, rho, score=None):
        s = self.score(positions, values) if score is None else score
        l = loss(self.variant, s, y, rho)
        a = gradient_scale(self.variant, y, rho, l)
        if a == 0.0:
            return l
        sigma = self._sigma
        if self.diagonal:
            before = sigma[positions]
            after = covariance_update_diag(sigma, positions, values, self.gamma)[positions]
            sigma_used = after if self.update_rule == "new" else before
            # touched coordinates only: both sigma and the gradient live on the support
            self.w[positions] -= self.eta * a * sigma_used * values
            return l
        # the subgradient lives on the support, so sigma @ g reads only its
        # rows there, its columns as sigma is symmetric
        g = a * values
        if self.update_rule == "old":
            step = g @ sigma.take(positions, axis=0)
        covariance_update(sigma, positions, values, self.gamma)
        if self.update_rule == "new":
            step = g @ sigma.take(positions, axis=0)
        self.w -= self.eta * step
        return l

    def advance(self, flat, values, y, weight, sq_norms=None):
        """``update`` on every lane's own row, round by round over a chunk;
        returns the chunk's scores.  A lane whose loss is 0 keeps its state.
        The full-matrix learner delays its covariance terms as the module
        docstring describes.  With sx = sigma x taken before this round's
        term, the new rule's step sigma x is sx * gamma / denom and the old
        rule's is sx, so the mean step reads no sigma."""
        if self.diagonal:
            return self._advance_diag(flat, values, y, weight)
        sigma, terms = self._sigma, self._terms
        g, d = len(sigma), self.d
        mu, w = self.w.reshape(-1), self.w.reshape(d, g)  # views: entry position * G + g
        sigma_rows = sigma.reshape(-1, d)  # a view: lane g's row p is row g * d + p
        lane = np.arange(g)[:, None]
        positions = flat // g
        rows = positions + lane * d  # also lane g's entry p of the flat sx
        thr = lane_threshold(self.variant, weight)
        eta_slope = self.eta * lane_slope(self.variant, y, weight)
        gamma, new = self.gamma, self.update_rule == "new"
        k = self._pending
        scores = np.empty(flat.shape[:2])
        for s, f, p, r, x, yt, th, es in zip(scores, flat, positions, rows, values, y, thr,
                                             eta_slope):
            np.vecdot(mu[f], x, out=s)
            active = yt * s < th
            n = np.count_nonzero(active)
            if not n:
                continue
            # sigma's rows at the support are its columns there, as sigma is
            # symmetric, and numpy gathers columns sigma[:, positions] into
            # Fortran order, so BLAS gets the same layout from the rows
            sx = (x[:, None] @ sigma_rows.take(r, axis=0))[:, 0]
            if k:
                # each lane's held terms at the support, support by slot: the
                # Fortran-ordered layout of the column gather U[:, positions]
                held = terms[lane, :k, p]
                sx -= ((x[:, None] @ held) @ terms[:, :k])[:, 0]
            denom = gamma + np.vecdot(x, sx.reshape(-1).take(r))
            slot = terms[:, k]
            np.divide(sx, np.sqrt(denom)[:, None], out=slot)
            coef = es * (gamma / denom) if new else es
            step = (coef[:, None] * sx).T
            if n < g:  # a passive lane keeps its mu and holds a zero term
                slot[~active] = 0.0
                np.subtract(w, step, out=w, where=active)
            else:
                w -= step
            k += 1
            if k == PENDING_TERMS:
                for lane_sigma, lane_terms in zip(sigma, terms):
                    _apply_terms(lane_sigma, lane_terms)
                k = 0
        self._pending = k
        return scores

    def _advance_diag(self, flat, values, y, weight):
        """The diagonal learner's ``advance``: every lane steps in place in
        its column, under its activity mask."""
        mu, sigma = self.w.reshape(-1), self._sigma.reshape(-1)  # views
        thr = lane_threshold(self.variant, weight)
        eta_slope = (self.eta * lane_slope(self.variant, y, weight))[..., None]
        gamma, old = self.gamma, self.update_rule == "old"
        scores = np.empty(flat.shape[:2])
        for s, f, x, yt, th, es in zip(scores, flat, values, y, thr, eta_slope):
            rows = mu[f]
            np.vecdot(rows, x, out=s)
            active = yt * s < th
            if not np.count_nonzero(active):
                continue
            on = active[:, None]
            before = sigma[f]
            # covariance_update_diag on the active lanes only, in place in
            # before: the new rule's step reads it shrunk, the old rule's a copy
            sx = before * x
            denom = gamma + np.vecdot(x, sx)
            sigma_used = before.copy() if old else before
            sigma[f] = np.subtract(before, (sx * sx) / denom[:, None], out=before, where=on)
            mu[f] = np.subtract(rows, es * sigma_used * x, out=rows, where=on)
        return scores
