"""Streaming low-rank approximation of the accumulated second-moment matrix.

Two sketches are provided.  ``OjaSketch`` runs streaming eigenvector
estimation with decaying step 1/t and explicit row orthonormalization, and
exposes the pair (S, H) with which ``I_d - S^T H S`` approximates the inverse
of ``I_d + sum_t xhat_t xhat_t^T``.  ``SparseOjaSketch`` maintains the same
subspace factored as F @ Z, where Z changes by a sparse rank-one term per
round and F re-orthonormalizes the rows under the inner product induced by
the Gram matrix K = Z Z^T (a few m x m numpy calls), so each update but a
rare fold costs O(m^3 + m*s), not O(m^2 d).

Both re-orthonormalize by one rule, CholeskyQR2 (Fukaya, Nakatsukasa,
Yanagisawa and Yamamoto, 2014): two passes of Q = R^{-1} Q with R the
Cholesky factor of Q's Gram matrix.  Both stop with
:class:`SketchConditionError` when a pivot shows the basis lost rank, and
neither repairs it, so both accept the same gamma: on the bundled toy file
and the a9a- and ijcnn1-shaped benchmark files, gamma >= 1e-8 runs and
gamma <= 1e-10 stops.

Given ``lanes=G`` a sketch holds G independent sketches, one per lane, and
``step`` advances the lanes it is given, each on its own row, with the same
arithmetic as ``update`` batched over lanes: every m x m factorization is
one stacked call (:func:`decompose` and :func:`orthonormalize_rows` take
stacks), so a round costs a few numpy calls whatever G is.  Each lane has
its own round count ``t`` (a G x 1 column) and ``lam`` (G x m); the dense
sketch keeps ``V`` as G x m x d, the sparse one ``F``/``K`` as G x m x m and
``Z`` as d x G x m, so that ``Z.reshape(-1, m)[position * G + g]`` is column
``position`` of lane g's Z, in the flat addressing of ``baselines``.  Rows
are gathered as lanes x slots x m and multiplied transposed
(:func:`lane_products`), the layout in which the gather ``Z[:, positions]``
reaches BLAS in ``update``.  The sparse sketch's ``step`` takes the rows
its learner gathered to score the round, and the values' ``xhat @ xhat``
its learner computed once per chunk (:func:`sketch_inputs`), and returns
the rows it wrote back.  It writes them through a 1-D view of Z's m-double
rows as ``np.void`` records: one scatter of whole rows, in the order of the
2-D assignment, so a padding slot repeated in a row writes last what the
2-D assignment writes last.

Each CholeskyQR pass is one Cholesky factorization, of a bordered matrix
(:func:`_cholesky_solve`): the lower factor of [[A, B], [B^T, BORDER I]] is
[[R, 0], [B^T R^{-T}, S]] with R = cholesky(A), so LAPACK's forward
substitution inside the factorization gives R^{-1} B (with B = Q, the next
Q; with B = I, R^{-1}), and that factorization is the module's only LAPACK
call.  It calls the stacked LAPACK gufunc behind ``np.linalg.cholesky``
directly: the same bits, without that wrapper's per-call checks, which on
small stacks cost more than LAPACK.  A failed factorization comes back as
NaN, not LinAlgError.  A lane sketch builds its G bordered matrices once,
as ``border`` (the dense sketch's with B = I written in), and a step of n
due lanes factors in the first n of them: each pass writes A, and in
:func:`decompose` B^T, over what the last step left there.  The public
functions, ``update`` and the fold build bordered matrices of their own.

Overflow and invalid values in a step's arithmetic, which an extreme gamma
brings about, and a failed factorization end in a pivot that
:func:`_cholesky` reports as :class:`SketchConditionError`; numpy does not
warn of them first.
"""

from __future__ import annotations

import numpy as np
# private, but its cholesky_lo gufunc is what np.linalg.cholesky calls;
# imported here only, and with no fallback (numpy >= 2.0 has it)
from numpy.linalg import _umath_linalg

# Each round multiplies Z by I + x x^T / t, so K's eigenvalues stay >= 1 and
# tr(K) bounds cond(K), to which F Z's orthonormality error is proportional.
# Past this trace the sketch folds F into Z, which brings K back to I.
FOLD_TRACE = 1e6

# The trailing block of the bordered matrix [[A, B], [B^T, BORDER I]] that
# _cholesky_solve factors.  It never reaches the factor's leading columns; it
# only keeps the trailing Schur complement BORDER I - B^T A^{-1} B positive
# definite, which takes BORDER > 1/lambda_min(K) in decompose and
# > 1/lambda_min(V V^T) in orthonormalize_rows.  K's eigenvalues stay >= 1 in
# the sketch, but not in every K that decompose is given, and V's rows may
# be tiny, so BORDER is a power of two far above either, whose square root
# is still finite.  Were it too small, the factorization would fail and
# raise SketchConditionError on a basis that has not lost rank.
BORDER = 2.0 ** 500

# numpy's error state for a sketch step's arithmetic and for each
# factorization (see the module docstring), as np.linalg's wrappers set it
QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


class SketchConditionError(RuntimeError):
    """The sketch basis lost rank during re-orthonormalization."""


def to_sketch_vector(values: np.ndarray, gamma: float) -> np.ndarray:
    """Scale sample values by 1/sqrt(gamma); the sparsity pattern is unchanged."""
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    return values / np.sqrt(gamma)


def sketch_inputs(values: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's to-sketch vector xhat (:func:`to_sketch_vector`; rows lie
    on the last axis) and ``xhat @ xhat``."""
    xhat = to_sketch_vector(values, gamma)
    with np.errstate(**QUIET):
        return xhat, np.vecdot(xhat, xhat)


def lane_products(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each lane's Z x from its gathered rows (lanes x slots x m) and its
    values (lanes x slots), as ``update`` multiplies ``Z[:, positions]``."""
    return (rows.mT @ values[..., None])[..., 0]


def _cholesky(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the Gram matrix G of a row basis, or of a
    bordered matrix that holds one (:func:`_border`), or of each matrix of a
    stack.  A failed factorization or a pivot <= 1e-10 or NaN in
    any of them means a basis lost rank and raises
    :class:`SketchConditionError`.  Call it under :data:`QUIET`."""
    R = _umath_linalg.cholesky_lo(G, signature="d->d")
    # a failed factorization is all NaN; second-pass pivots are ~1, so
    # there the check only catches NaN
    if not R.diagonal(0, -2, -1).min() > 1e-10:
        raise SketchConditionError("sketch basis lost rank during re-orthonormalization")
    return R


def _border(lead: tuple, m: int) -> np.ndarray:
    """A stack (of shape ``lead``) of 2m x 2m matrices to hold the bordered
    matrix [[A, B], [B^T, BORDER I]] of a CholeskyQR pass, for A the m x m
    Gram matrix of a row basis: BORDER on the trailing diagonal and zero
    elsewhere, until the pass writes A and B^T in.  LAPACK reads the lower
    triangle only, so B's block is never written.  In a matrix's flat view,
    entry 2m*m + k*(2m + 1) is M[m + k, k], and m entries on, M[m + k, m + k]."""
    M = np.zeros(lead + (2 * m, 2 * m))
    M.reshape(lead + (-1,))[..., 2 * m * m + m::2 * m + 1] = BORDER
    return M


def _cholesky_solve(M: np.ndarray) -> np.ndarray:
    """R^{-1} B with R = cholesky(A), for each bordered matrix of M
    (:func:`_border`) holding A and B^T, from one :func:`_cholesky` of it: the
    lower factor of [[A, B], [B^T, BORDER I]] is [[R, 0], [B^T R^{-T}, S]].
    The border's pivots are about 2**250, so the pivot check is R's.  Call
    it under :data:`QUIET`."""
    m = M.shape[-1] // 2
    return _cholesky(M)[..., m:, :m].mT


def orthonormalize_rows(V: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of V (m x d, or a stack of them) by
    CholeskyQR2: two passes of V = R^{-1} V with R = cholesky(V V^T).
    Returns a new array; V = L Q with L lower triangular, so Q's rows are
    Gram-Schmidt's.  Lost rank raises :class:`SketchConditionError`."""
    with np.errstate(**QUIET):
        return _orthonormalize_rows(V)


def _identity_border(lead: tuple, m: int) -> np.ndarray:
    """:func:`_border` with B = I: the bordered stack of
    :func:`_orthonormalize_rows`, in which a pass writes only A."""
    M = _border(lead, m)
    # B = I, so R^{-1} B is R^{-1}: an m x m inverse, then one matmul over
    # V's columns, not a triangular system over them.  On 5 x 1e5 rows, one
    # core of a 2-core Xeon VM, LAPACK took 18 ms a call for the system, 3 ms
    # for the m x m inverse and a matmul
    M.reshape(lead + (-1,))[..., 2 * m * m::2 * m + 1] = 1.0
    return M


def _orthonormalize_rows(V: np.ndarray, M: np.ndarray | None = None) -> np.ndarray:
    """:func:`orthonormalize_rows` for a caller already under :data:`QUIET`,
    in the bordered stack ``M`` (:func:`_identity_border`, of V's stack
    shape) if given, else in a new one."""
    m = V.shape[-2]
    if M is None:
        M = _identity_border(V.shape[:-2], m)
    for _ in range(2):
        np.matmul(V, V.mT, out=M[..., :m, :m])  # A, bitwise as V @ V.mT
        V = _cholesky_solve(M) @ V
    return V


def check_size(m: int, d: int) -> None:
    """A sketch of m rows needs 1 <= m <= d."""
    if not 1 <= m <= d:
        raise ValueError(f"sketch size {m} out of range for dimension {d}")


# the ``due`` of a lane step in which every lane steps, whose state the
# step then updates in place or rebinds; for any other slice or index array
# it gathers the lanes' state and writes it back
EVERY_LANE = slice(None)


def _per_lane(a: np.ndarray, lanes: int) -> np.ndarray:
    """A copy of ``a`` per lane, stacked on a new first axis; ``a`` itself for
    one sketch."""
    return np.repeat(a[None], lanes, axis=0) if lanes else a


class _Sketch:
    """Size check, round count ``t`` and eigenvalue estimates ``lam`` shared
    by both sketches, one row of each per lane given ``lanes``; H =
    1/(1 + t*lam) is computed on each read, never stored."""

    def __init__(self, m: int, d: int, lanes: int = 0):
        check_size(m, d)
        self.m = m
        self.d = d
        self.lanes = lanes
        self.t = np.zeros((lanes, 1), dtype=np.int64) if lanes else 0
        self.lam = _per_lane(np.zeros(m), lanes)
        self.lane = np.arange(lanes)[:, None]  # each lane's index, as a column

    @property
    def H(self) -> np.ndarray:
        return 1.0 / (1.0 + self.t * self.lam)


class OjaSketch(_Sketch):
    """Dense streaming sketch: eigenvalue estimates ``lam`` and orthonormal
    row basis ``V``, from which S = sqrt(t*lam) V and H = 1/(1 + t*lam)."""

    def __init__(self, m: int, d: int, init: str = "canonical", seed: int | None = None,
                 lanes: int = 0):
        super().__init__(m, d, lanes)
        self.V = _per_lane(_init_rows(m, d, init, seed, lanes), lanes)
        self.border = _identity_border((lanes,), m) if lanes else None

    def update(self, positions: np.ndarray, values: np.ndarray) -> None:
        """One streaming step with the (already scaled) to-sketch vector."""
        with np.errstate(**QUIET):
            self.t += 1
            step = 1.0 / self.t
            p = self.V[:, positions] @ values
            self.lam = (1.0 - step) * self.lam + step * p * p
            self.V[:, positions] += step * np.outer(p, values)
            self.V = orthonormalize_rows(self.V)

    def step(self, due, positions: np.ndarray, values: np.ndarray) -> None:
        """``update`` for the lanes ``due`` (:data:`EVERY_LANE`, another slice
        or an index array): lane ``due[j]`` reads row j of
        ``positions``/``values``."""
        with np.errstate(**QUIET):
            t = self.t[due]  # a view for a slice, else a copy written back below
            t += 1
            step = 1.0 / t
            cols = self.V.mT  # lane g's column c is cols[g, c]
            lane = self.lane[due]
            rows = cols[lane, positions]
            p = lane_products(rows, values)
            lam = (1.0 - step) * self.lam[due] + step * p * p
            cols[lane, positions] = rows + step[..., None] * (values[..., None] * p[:, None])
            V = _orthonormalize_rows(self.V[due], self.border[:len(t)])
        if due is EVERY_LANE:
            self.lam, self.V = lam, V
        else:
            self.t[due], self.lam[due], self.V[due] = t, lam, V

    @property
    def S(self) -> np.ndarray:
        return np.sqrt(self.t * self.lam)[..., None] * self.V

    def reconstruct_sigma(self) -> np.ndarray:
        """Materialize I_d - S^T H S (diagnostic use; O(m d^2))."""
        return np.eye(self.d) - self.S.T @ (self.H[:, None] * self.S)


class SparseOjaSketch(_Sketch):
    """Sparsity-respecting variant: the basis is F @ Z with Z updated by one
    rank-one term per round and F re-orthonormalized in the K = Z Z^T inner
    product; once tr(K) > FOLD_TRACE, Z <- F Z and F, K restart near I."""

    def __init__(self, m: int, d: int, init: str = "canonical", seed: int | None = None,
                 lanes: int = 0):
        super().__init__(m, d, lanes)
        self.F = _per_lane(np.eye(m), lanes)
        self.K = _per_lane(np.eye(m), lanes)
        Z = _init_rows(m, d, init, seed, lanes)
        self.Z = np.repeat(Z.T[:, None], lanes, axis=1) if lanes else Z
        self.last_fold = None
        self.border = _border((lanes,), m) if lanes else None
        self.record = np.dtype((np.void, 8 * m))  # one of Z's m-double rows

    def update(self, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
        """One streaming step; returns the direction-update coefficients delta."""
        with np.errstate(**QUIET):
            self.t += 1
            step = 1.0 / self.t
            Zx = self.Z[:, positions] @ values
            p = self.F @ Zx
            self.lam = (1.0 - step) * self.lam + step * p * p
            # the stepsize matrix is (1/t) * identity, so conjugating it by F
            # cancels and delta reduces to (Z xhat) / t
            delta = step * Zx
            # Zx delta^T + delta Zx^T + xx delta delta^T, as one outer product
            xx = float(values @ values)
            self.K += step * (2.0 + xx * step) * np.outer(Zx, Zx)
            self.Z[:, positions] += np.outer(delta, values)
            self.F = decompose(self.F, self.K)
            self.last_fold = None
            if np.trace(self.K) > FOLD_TRACE:
                # Z <- F Z at O(m^2 d); last_fold keeps the old Z for a learner's b
                self.last_fold, self.Z = self.Z, self.F @ self.Z
                self.K = self.Z @ self.Z.T
                self.F = decompose(np.eye(self.m), self.K)
        return delta

    def step(self, due, flat: np.ndarray, values: np.ndarray, rows: np.ndarray, xx: np.ndarray):
        """``update`` for the lanes ``due`` (:data:`EVERY_LANE`, another slice
        or an index array): lane ``due[j]`` reads row j of ``flat``/``values``, whose
        columns of Z are ``rows[j]`` (``Z.reshape(-1, m).take(flat,
        axis=0)``, slots x m) and whose ``values @ values`` is ``xx[j]``.
        Returns the lanes' delta (one row each), their rows after the step,
        and, if any lane folded, ``(lanes, old_Z)``: the folded lanes'
        indices and their Z before the fold, m x d each (``update``'s
        ``last_fold``), else None."""
        with np.errstate(**QUIET):
            t = self.t[due]  # a view for a slice, else a copy written back below
            t += 1
            step = 1.0 / t
            Zx = lane_products(rows, values)
            F = self.F[due]
            p = (F @ Zx[..., None])[..., 0]
            lam = (1.0 - step) * self.lam[due] + step * p * p
            delta = step * Zx
            # update's one outer product: a view for a slice, else a copy
            # written back below
            K = self.K[due]
            K += (step * (2.0 + xx[:, None] * step))[..., None] * (Zx[:, :, None] * Zx[:, None])
            rows = rows + values[..., None] * delta[:, None]
            # a 1-D view of Z's rows as records, row position * G + g: one
            # scatter of whole rows, at a third to a half of the 2-D one's
            # cost, and the same last-write-wins order on repeated slots
            rec = self.record
            self.Z.reshape(-1, self.m).view(rec)[:, 0][flat] = rows.view(rec)[..., 0]
            F = _decompose(F, K, self.border[:len(t)])
            if due is EVERY_LANE:
                self.lam, self.F = lam, F
            else:
                self.t[due], self.lam[due], self.K[due], self.F[due] = t, lam, K, F
            crossed = K.diagonal(0, 1, 2).sum(axis=1) > FOLD_TRACE
            if not np.count_nonzero(crossed):
                return delta, rows, None
            # Z <- F Z in the folding lanes only, each lane's Z as the m x d
            # rows that update multiplies
            lanes = self.lane[due, 0][crossed]
            old = self.Z[:, lanes].transpose(1, 2, 0).copy()
            Z = F[crossed] @ old
            self.Z[:, lanes] = Z.transpose(2, 0, 1)
            self.K[lanes] = K = Z @ Z.mT
            self.F[lanes] = _decompose(np.eye(self.m), K)
        return delta, rows, (lanes, old)

    def reconstruct_sigma(self) -> np.ndarray:
        """Materialize I_d - Z^T F^T (t * lam * H) F Z (diagnostic use)."""
        FZ = self.F @ self.Z
        return np.eye(self.d) - FZ.T @ ((self.t * self.lam * self.H)[:, None] * FZ)


def decompose(F: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Q with Q K Q^T = I and F = L Q, L lower triangular: Gram-Schmidt on the
    rows of F in the inner product a^T K b, done as CholeskyQR2 (two passes of
    R = cholesky(Q K Q^T), Q = R^{-1} Q from Q = F; R's diagonal holds the
    residual norms).  F and K may be stacks of m x m matrices, one Q each.
    A failed Cholesky or a pivot <= 1e-10 or NaN means lost rank and raises
    :class:`SketchConditionError`."""
    with np.errstate(**QUIET):
        return _decompose(F, K)


def _decompose(F: np.ndarray, K: np.ndarray, M: np.ndarray | None = None) -> np.ndarray:
    """:func:`decompose` for a caller already under :data:`QUIET`, in the
    bordered stack ``M`` (:func:`_border`, of F and K's stack shape) if
    given, else in a new one."""
    m = F.shape[-1]
    # B = Q, so R^{-1} B is the next Q
    if M is None:
        M = _border(np.broadcast(F[..., 0, 0], K[..., 0, 0]).shape, m)
    Q = F
    for _ in range(2):
        np.matmul(Q @ K, Q.mT, out=M[..., :m, :m])  # A, bitwise as Q @ K @ Q.mT
        M[..., m:, :m] = Q.mT
        Q = _cholesky_solve(M)
    return Q


def _init_rows(m: int, d: int, init: str, seed: int | None, lanes: int = 0) -> np.ndarray:
    """The m starting rows over d columns.  A lane sketch's last column is
    its padding column (``Dataset.padded``), which stays zero: a random init
    is the one sketch's over the other d - 1, beside a zero column."""
    if init == "canonical":
        return np.eye(m, d)
    if init == "random":
        rng = np.random.Generator(np.random.Philox(key=0 if seed is None else seed))
        V = orthonormalize_rows(rng.standard_normal((m, d - 1 if lanes else d)))
        return np.pad(V, ((0, 0), (0, 1))) if lanes else V
    raise ValueError(f"unknown sketch init {init!r}")
