"""Adaptively regularized cost-sensitive online gradient descent.

The learner keeps a Gaussian belief over weights: a mean ``mu``, the ``w``
that the learner core (``baselines.LinearLearner``) scores with, and a
covariance ``sigma`` that starts at the identity and shrinks along observed
directions.  On each loss-active round the covariance absorbs a rank-one
term through its closed-form inverse update, and the mean then descends the
loss subgradient preconditioned by the covariance.  Both steps read only the
sample's support; a diagonal mode keeps only the diagonal of ``sigma`` for
O(nnz) rounds.  Given a sequence of G step sizes the diagonal learner runs
them as lanes, column g of the d x G ``mu`` and ``sigma`` being the learner
with value g; its ``advance`` and ``scores`` follow the lane layout that
``baselines`` describes.

The full-matrix learner's ``update`` subtracts each round's term from
``sigma`` at once.  Its ``advance`` delays them instead: the last k terms,
k < ``PENDING_TERMS``, wait as the rows of a small buffer U, and every
``PENDING_TERMS``-th active round applies them to sigma as one symmetric
rank-k product, sigma -= U^T U (the compact representation of Byrd,
Nocedal and Schnabel, Math. Programming 63, 1994).  Rounds still cost
O(d^2) on average, but that part runs as a matrix-matrix product.
``sigma`` read from outside is the covariance with the pending terms
applied, and ``update`` applies them before its own term.
"""

from __future__ import annotations

import numpy as np

from .baselines import LinearLearner
from .losses import LossVariant, gradient_scale, lane_active, lane_slope, loss

# Largest full sigma allocated (16384 columns): a fixed policy, not a measured limit.
FULL_SIGMA_MAX_BYTES = 2**31
# Terms a lane pass of full ACOG delays before applying them to sigma at once
PENDING_TERMS = 32


def covariance_update(
    sigma: np.ndarray, positions: np.ndarray, values: np.ndarray, gamma: float,
    pending: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, float]:
    """In place, sigma -= s s^T / (gamma + x^T s) with s = sigma x gathered from
    the support's columns: the inverse of sigma^{-1} + x x^T / gamma.  s s^T
    is exactly symmetric, so sigma stays bitwise symmetric.  The outer
    product is built in one buffer, a block of rows at a time: 256 KB of
    rows, or 16 rows past d = 2048 (one block up to d = 181).  Returns
    ``sigma``.

    With ``pending``, rows ``U[:k + 1]`` of a ``PENDING_TERMS`` x d buffer
    whose first k rows are terms that sigma does not hold yet, the term is
    delayed too: s is taken from sigma less those terms, s / sqrt(denom)
    goes into the last row, and once that row is the buffer's last, all of
    them are applied to sigma (:func:`_apply_terms`).  Returns s and denom
    then."""
    s = sigma[:, positions] @ values
    if pending is not None:
        held = pending[:-1]
        s -= (held[:, positions] @ values) @ held
        denom = gamma + float(values @ s[positions])
        np.divide(s, np.sqrt(denom), out=pending[-1])
        if len(pending) == PENDING_TERMS:
            _apply_terms(sigma, pending)
        return s, denom
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
    gives one lane per value; only the diagonal learner takes one.
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
        if not diagonal and d * d * 8 > FULL_SIGMA_MAX_BYTES:
            raise ValueError(f"full-matrix ACOG over {d} columns needs {d * d * 8 / 2**30:.1f} "
                             f"GiB, over {FULL_SIGMA_MAX_BYTES / 2**30:g} GiB; use the -diag variant")
        if np.ndim(self.eta) and not diagonal:
            raise ValueError("full-matrix ACOG takes one eta; a sequence needs diagonal=True")
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        if update_rule not in ("new", "old"):
            raise ValueError("update_rule must be 'new' or 'old'")
        self.gamma = gamma
        self.variant = LossVariant(variant)
        self.diagonal = diagonal
        self.update_rule = update_rule
        self._sigma = np.ones(self.w.shape) if diagonal else np.eye(d)
        # the terms a lane pass has not applied to _sigma yet, in _terms[:_pending]
        self._terms = None if diagonal else np.empty((PENDING_TERMS, d))
        self._pending = 0

    # own entries, not inherited ones: the benchmark's tracer wraps them per class
    score, predict = LinearLearner.score, LinearLearner.predict
    mu = property(lambda self: self.w, doc="The mean weights: the core's ``w``.")

    @property
    def sigma(self) -> np.ndarray:
        """The covariance: the stored one, updated in place, or while a lane
        pass holds terms back, a copy with them applied as ``update`` would."""
        if not self._pending:
            return self._sigma
        sigma = self._sigma.copy()
        _apply_terms(sigma, self._terms[:self._pending])
        return sigma

    @sigma.setter
    def sigma(self, value: np.ndarray) -> None:
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
        if self._pending:
            _apply_terms(sigma, self._terms[:self._pending])
            self._pending = 0
        # the subgradient lives on the support, so sigma @ g reads only its columns
        g = a * values
        if self.update_rule == "old":
            step = sigma[:, positions] @ g
        covariance_update(sigma, positions, values, self.gamma)
        if self.update_rule == "new":
            step = sigma[:, positions] @ g
        self.w -= self.eta * step
        return l

    def advance(self, flat, values, y, weight, sq_norms=None):
        """``update`` on every lane's own row, round by round over a chunk;
        returns the chunk's scores.  A lane whose loss is 0 keeps its state.
        The full-matrix learner is one lane, whose covariance terms wait in
        the buffer until ``PENDING_TERMS`` of them are applied at once."""
        if not self.diagonal:
            return self._advance_full(flat, values, y, weight)
        mu, sigma = self.w.reshape(-1), self._sigma.reshape(-1)  # views
        eta_slope = self.eta * lane_slope(self.variant, y, weight)
        scores = np.empty(flat.shape[:2])
        for t, (f, x) in enumerate(zip(flat, values)):
            rows = mu[f]
            s = scores[t] = np.vecdot(rows, x)
            active = lane_active(self.variant, y[t], weight[t], s)
            if not np.count_nonzero(active):
                continue
            on = active[:, None]
            before = sigma[f]
            # covariance_update_diag on the active lanes only, in place in
            # before: the new rule's step reads it shrunk, the old rule's a copy
            sx = before * x
            denom = self.gamma + np.vecdot(x, sx)
            sigma_used = before.copy() if self.update_rule == "old" else before
            sigma[f] = np.subtract(before, (sx * sx) / denom[:, None], out=before, where=on)
            mu[f] = np.subtract(rows, eta_slope[t][:, None] * sigma_used * x, out=rows, where=on)
        return scores

    def _advance_full(self, flat, values, y, weight):
        """The core's one-lane ``advance`` with the covariance terms delayed.
        With sx = sigma x taken before this round's term, the new rule's step
        sigma x is sx * gamma / denom and the old rule's is sx, so the mean
        step reads no sigma."""
        scores = np.empty(flat.shape[:2])
        new = self.update_rule == "new"
        for t, (f, x, yt, r) in enumerate(zip(flat[:, 0], values[:, 0], y[:, 0].tolist(),
                                              weight[:, 0].tolist())):
            s = scores[t, 0] = self.score(f, x)
            a = gradient_scale(self.variant, yt, r, loss(self.variant, s, yt, r))
            if a == 0.0:
                continue
            k = self._pending
            sx, denom = covariance_update(self._sigma, f, x, self.gamma, self._terms[:k + 1])
            self._pending = (k + 1) % PENDING_TERMS
            self.w -= (self.eta * a * (self.gamma / denom if new else 1.0)) * sx
        return scores
