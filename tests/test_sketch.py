import warnings

import numpy as np
import pytest

from costsense import sketch
from costsense.acog import covariance_update
from costsense.data import load_dataset
from costsense.sketch import (
    FOLD_TRACE,
    OjaSketch,
    SketchConditionError,
    SparseOjaSketch,
    decompose,
    orthonormalize_rows,
    to_sketch_vector,
)


def sparse(*pairs):
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0)
    pos, vals = zip(*pairs)
    return np.array(pos, dtype=np.int64), np.array(vals, dtype=np.float64)


def random_sparse(rng, d, min_nnz=1, max_nnz=None):
    nnz = int(rng.integers(min_nnz, (max_nnz or d) + 1))
    pos = np.sort(rng.choice(d, size=nnz, replace=False))
    return pos, rng.standard_normal(nnz)


class TestToSketchVector:
    def test_scales_by_sqrt_gamma(self):
        np.testing.assert_allclose(to_sketch_vector(np.array([2.0]), 4.0), [1.0])

    def test_gamma_one_is_identity(self):
        v = np.array([1.5, -2.0])
        np.testing.assert_array_equal(to_sketch_vector(v, 1.0), v)

    def test_empty_stays_empty(self):
        assert to_sketch_vector(np.empty(0), 2.0).size == 0

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            to_sketch_vector(np.array([1.0]), 0.0)


class TestDenseSketchInit:
    def test_canonical_rows(self):
        sk = OjaSketch(2, 4)
        np.testing.assert_array_equal(sk.V, np.eye(4)[:2])

    def test_h_starts_at_ones(self):
        np.testing.assert_array_equal(OjaSketch(2, 4).H, [1.0, 1.0])

    def test_s_starts_at_zero(self):
        assert not OjaSketch(2, 4).S.any()

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            OjaSketch(0, 4)
        with pytest.raises(ValueError):
            OjaSketch(5, 4)

    def test_random_init_orthonormal_and_seeded(self):
        a = OjaSketch(3, 10, init="random", seed=5)
        b = OjaSketch(3, 10, init="random", seed=5)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_allclose(a.V @ a.V.T, np.eye(3), atol=1e-12)

    def test_random_init_matches_householder_qr(self):
        # an independent factorization of the same Philox draw: V = Q^T for
        # A^T = Q R with R's diagonal made positive
        A = np.random.Generator(np.random.Philox(key=5)).standard_normal((3, 10))
        Q, R = np.linalg.qr(A.T)
        Q = Q * np.sign(np.diagonal(R))
        V = OjaSketch(3, 10, init="random", seed=5).V
        assert np.abs(V - Q.T).max() <= 1e-13

    @pytest.mark.parametrize("init", ["random", "canonical"])
    def test_lane_init_is_the_scalar_init_beside_a_zero_padding_column(self, init):
        # a lane sketch over d + 1 columns: the last is Dataset.padded's padding column
        V = OjaSketch(3, 10, init=init, seed=5).V
        want = np.concatenate([V, np.zeros((3, 1))], axis=1)
        dense = OjaSketch(3, 11, init=init, seed=5, lanes=2)
        sparse = SparseOjaSketch(3, 11, init=init, seed=5, lanes=2)
        for j in range(2):
            assert dense.V[j].tobytes() == want.tobytes()
            assert sparse.Z[:, j].T.copy().tobytes() == want.tobytes()


class TestDenseSketchUpdate:
    def test_first_update_hand_values(self):
        sk = OjaSketch(1, 2)
        sk.update(*sparse((0, 2.0)))
        np.testing.assert_allclose(sk.lam, [4.0])
        np.testing.assert_allclose(sk.V, [[1.0, 0.0]])
        np.testing.assert_allclose(sk.S, [[2.0, 0.0]])
        np.testing.assert_allclose(sk.H, [0.2])

    def test_orthogonal_direction_decays_lambda_only(self):
        sk = OjaSketch(1, 2)
        sk.update(*sparse((0, 2.0)))
        sk.update(*sparse((1, 1.0)))
        np.testing.assert_allclose(sk.lam, [2.0])  # 0.5*4 + 0.5*0
        np.testing.assert_allclose(sk.V, [[1.0, 0.0]])
        np.testing.assert_allclose(sk.S, [[2.0, 0.0]])
        np.testing.assert_allclose(sk.H, [0.2])

    def test_constant_direction_fixed_point(self):
        c = 1.7
        sk = OjaSketch(1, 3)
        for t in range(1, 41):
            sk.update(*sparse((0, c)))
            np.testing.assert_allclose(sk.lam, [c * c])
            np.testing.assert_allclose(sk.S, [[np.sqrt(t) * c, 0.0, 0.0]])

    def test_rows_stay_orthonormal(self):
        rng = np.random.default_rng(20)
        sk = OjaSketch(4, 12)
        for _ in range(500):
            sk.update(*random_sparse(rng, 12))
            err = np.abs(sk.V @ sk.V.T - np.eye(4)).max()
            assert err <= 1e-8

    def test_s_rows_mutually_orthogonal(self):
        rng = np.random.default_rng(21)
        sk = OjaSketch(3, 8)
        for _ in range(200):
            sk.update(*random_sparse(rng, 8))
        gram = sk.S @ sk.S.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-6 * max(1.0, np.abs(gram).max())


class TestReconstruction:
    def test_fresh_sketch_reconstructs_identity(self):
        np.testing.assert_array_equal(OjaSketch(2, 3).reconstruct_sigma(), np.eye(3))

    def test_single_update_entry(self):
        sk = OjaSketch(1, 2)
        sk.update(*sparse((0, 2.0)))
        recon = sk.reconstruct_sigma()
        assert recon[0, 0] == pytest.approx(0.2)  # (1 + 4)^{-1}
        assert recon[1, 1] == pytest.approx(1.0)

    def test_single_direction_matches_adaptive_covariance(self):
        # with every sample along e_1 and m = 1, the sketch is exact
        rng = np.random.default_rng(22)
        gamma = 1.3
        sk = OjaSketch(1, 2)
        sigma = np.eye(2)
        for t in range(1, 101):
            c = float(rng.uniform(0.2, 2.0))
            sigma = covariance_update(sigma, np.array([0]), np.array([c]), gamma)
            sk.update(np.array([0]), to_sketch_vector(np.array([c]), gamma))
            np.testing.assert_allclose(sk.reconstruct_sigma(), sigma, atol=1e-9)


class TestSparseSketchInit:
    def test_canonical_state(self):
        sk = SparseOjaSketch(2, 4)
        np.testing.assert_array_equal(sk.Z, np.eye(4)[:2])
        np.testing.assert_array_equal(sk.F, np.eye(2))
        np.testing.assert_array_equal(sk.K, np.eye(2))
        np.testing.assert_array_equal(sk.H, [1.0, 1.0])
        np.testing.assert_array_equal(sk.lam, [0.0, 0.0])

    def test_gram_consistency_at_init(self):
        sk = SparseOjaSketch(3, 6)
        np.testing.assert_allclose(sk.K, sk.Z @ sk.Z.T, atol=1e-15)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            SparseOjaSketch(7, 6)


class TestSparseSketchUpdate:
    def test_zero_vector_decays_lambda_and_preserves_basis(self):
        sk = SparseOjaSketch(2, 4)
        sk.update(*sparse((0, 1.5)))
        lam_before = sk.lam.copy()
        F_before = sk.F.copy()
        Z_before = sk.Z.copy()
        sk.update(np.empty(0, dtype=np.int64), np.empty(0))
        np.testing.assert_allclose(sk.lam, 0.5 * lam_before)  # (1 - 1/2) decay
        np.testing.assert_array_equal(sk.Z, Z_before)
        np.testing.assert_allclose(sk.F, F_before, atol=1e-12)

    def test_z_update_touches_only_support(self):
        rng = np.random.default_rng(23)
        sk = SparseOjaSketch(3, 40)
        for _ in range(50):
            sk.update(*random_sparse(rng, 40, max_nnz=5))
        Z_before = sk.Z.copy()
        pos, vals = sparse((7, 1.0), (20, -2.0))
        sk.update(pos, vals)
        changed = np.where(np.abs(sk.Z - Z_before).max(axis=0) > 0)[0]
        assert set(changed.tolist()) <= {7, 20}

    def test_delta_returned_and_stored(self):
        sk = SparseOjaSketch(2, 4)
        delta = sk.update(*sparse((1, 2.0)))
        # t=1, Z=e-rows: delta = (Z xhat)/t = (0, 2)
        np.testing.assert_allclose(delta, [0.0, 2.0])

    def test_gram_matrix_tracks_z(self):
        rng = np.random.default_rng(24)
        sk = SparseOjaSketch(3, 15)
        for _ in range(1000):
            sk.update(*random_sparse(rng, 15))
        assert np.abs(sk.K - sk.Z @ sk.Z.T).max() <= 1e-8

    def test_fz_rows_stay_orthonormal(self):
        rng = np.random.default_rng(25)
        sk = SparseOjaSketch(3, 10)
        for _ in range(400):
            sk.update(*random_sparse(rng, 10))
            FZ = sk.F @ sk.Z
            assert np.abs(FZ @ FZ.T - np.eye(3)).max() <= 1e-6

    def test_folds_on_the_round_the_trace_passes_fold_trace(self, monkeypatch):
        # one sample, again and again: tr(K) grows ~ t^2 / 2 and passes
        # FOLD_TRACE near round 1400
        x = np.full(4, 0.5)
        sk, unfolded = SparseOjaSketch(2, 4), SparseOjaSketch(2, 4)
        traces = []
        for _ in range(3000):
            traces.append(np.trace(sk.K))
            sk.update(np.arange(4), x)
            with monkeypatch.context() as mp:
                mp.setattr(sketch, "FOLD_TRACE", np.inf)
                unfolded.update(np.arange(4), x)
            if sk.last_fold is not None:
                break
        assert sk.last_fold is not None, "no fold in 3000 rounds"
        # just below the limit on the round before, just above it on this one
        assert max(traces) == traces[-1] <= FOLD_TRACE < np.sum(sk.last_fold**2)
        np.testing.assert_array_equal(sk.K, sk.Z @ sk.Z.T)
        assert np.trace(sk.K) == pytest.approx(2.0, rel=1e-12)
        FZ = sk.F @ sk.Z
        assert np.abs(FZ @ FZ.T - np.eye(2)).max() <= 1e-14
        # the fold keeps the basis that the unfolded sketch holds
        assert np.abs(FZ - unfolded.F @ unfolded.Z).max() <= 1e-9
        sk.update(np.arange(4), x)
        assert sk.last_fold is None

    def test_rank_loss_raises_condition_error(self):
        sk = SparseOjaSketch(2, 4)
        sk.K = np.zeros((2, 2))  # corrupted Gram matrix: basis lost its extent
        with pytest.raises(SketchConditionError, match="rank"):
            sk.update(*sparse((0, 1.0)))


class TestDenseSparseEquivalence:
    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_reconstructions_agree(self, m):
        rng = np.random.default_rng(100 + m)
        d = 20
        dense = OjaSketch(m, d)
        sp = SparseOjaSketch(m, d)
        for t in range(600):
            pos, vals = random_sparse(rng, d)
            dense.update(pos, vals)
            sp.update(pos, vals)
            np.testing.assert_allclose(
                dense.V, sp.F @ sp.Z, atol=1e-9
            )
            if t % 50 == 0:
                np.testing.assert_allclose(
                    dense.reconstruct_sigma(), sp.reconstruct_sigma(), atol=1e-6
                )


class TestDecompose:
    def test_identity_passthrough(self):
        np.testing.assert_allclose(decompose(np.eye(2), np.eye(2)), np.eye(2), atol=1e-15)

    def test_diagonal_gram_hand_case(self):
        F, K = np.eye(2), np.diag([4.0, 1.0])
        Q = decompose(F, K)
        np.testing.assert_allclose(Q, np.diag([0.5, 1.0]), atol=1e-15)
        np.testing.assert_allclose(F @ K @ Q.T, np.diag([2.0, 1.0]), atol=1e-15)

    def test_random_instances_factor_and_orthonormalize(self):
        rng = np.random.default_rng(26)
        for _ in range(1000):
            m = int(rng.integers(1, 7))
            F = rng.standard_normal((m, m))
            Z = rng.standard_normal((m, m + int(rng.integers(0, 5))))
            K = Z @ Z.T
            Q = decompose(F, K)
            assert Q.shape == (m, m)
            L = F @ K @ Q.T  # F = L Q, since Q K Q^T = I
            np.testing.assert_allclose(np.triu(L, 1), 0.0, atol=1e-8)
            np.testing.assert_allclose(L @ Q, F, atol=1e-8)
            np.testing.assert_allclose(Q @ K @ Q.T, np.eye(m), atol=1e-8)

    def test_rank_deficient_f_drops_rows(self):
        F = np.array([[1.0, 0.0], [2.0, 0.0]])  # second row dependent
        with pytest.raises(SketchConditionError, match="rank"):
            decompose(F, np.eye(2))

    def test_non_psd_gram_rejected(self):
        K = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SketchConditionError):
            decompose(np.eye(2), K)

    def test_non_finite_gram_rejected(self):
        with pytest.raises(SketchConditionError):
            decompose(np.eye(2), np.full((2, 2), np.nan))


class TestStacks:
    def test_stacked_results_equal_each_slice(self):
        # one stacked call per factorization serves every lane, bit for bit
        rng = np.random.default_rng(5)
        F = rng.standard_normal((6, 4, 4))
        Z = rng.standard_normal((6, 4, 9))
        K = Z @ Z.mT
        Q = decompose(F, K)
        V = orthonormalize_rows(Z)
        for g in range(6):
            np.testing.assert_array_equal(Q[g], decompose(F[g], K[g]))
            np.testing.assert_array_equal(V[g], orthonormalize_rows(Z[g]))

    def test_lost_rank_in_one_lane_raises(self):
        good = np.eye(2)
        with pytest.raises(SketchConditionError, match="rank"):
            decompose(np.stack([good, good]), np.stack([good, np.full((2, 2), np.nan)]))
        collapsed = np.array([[1.0, 0.0, 0.0], [0.0, 1e-11, 0.0]])
        with pytest.raises(SketchConditionError, match="rank"):
            orthonormalize_rows(np.stack([np.eye(3)[:2], collapsed]))

class TestDegenerateRows:
    @pytest.mark.parametrize(
        "second_row",
        [
            # differs from the first row by 1e-14: V V^T is singular in
            # floating point, so the Cholesky factorization fails
            [1.0, 1e-14, 0.0],
            # the factorization succeeds, but its pivot 1e-11 is <= 1e-10
            [0.0, 1e-11, 0.0],
        ],
    )
    def test_orthonormalize_rows_rejects_lost_rank(self, second_row):
        V = np.array([[1.0, 0.0, 0.0], second_row])
        with pytest.raises(SketchConditionError, match="rank"):
            orthonormalize_rows(V)

    @pytest.mark.parametrize("sketch_type", [OjaSketch, SparseOjaSketch],
                             ids=lambda cls: cls.__name__)
    def test_collapsed_basis_raises_from_both_sketches(self, sketch_type):
        # a huge update along (e1 + e2) absorbs both rows in floating point
        sk = sketch_type(2, 3)
        with pytest.raises(SketchConditionError, match="rank"):
            sk.update(np.array([0, 1]), np.array([1e12, 1e12]))


def linalg_cholesky(G):
    """``_cholesky`` as np.linalg's public functions computed it."""
    try:
        R = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        R = None
    if R is None or not np.diagonal(R, axis1=-2, axis2=-1).min() > 1e-10:
        raise SketchConditionError("sketch basis lost rank during re-orthonormalization")
    return R


def linalg_cholesky_solve(A, B):
    """R^{-1} B for R = cholesky(A), read off np.linalg.cholesky of the
    bordered matrix [[A, B], [B^T, BORDER I]], as the kernels compute it."""
    m = A.shape[-1]
    border = np.broadcast_to(sketch.BORDER * np.eye(m), A.shape)
    M = np.concatenate([np.concatenate([A, B], axis=-1),
                        np.concatenate([B.mT, border], axis=-1)], axis=-2)
    return linalg_cholesky(M)[..., m:, :m].mT


def linalg_orthonormalize_rows(V):
    eye = np.broadcast_to(np.eye(V.shape[-2]), V.shape[:-1] + V.shape[-2:-1])
    for _ in range(2):
        V = linalg_cholesky_solve(V @ V.mT, eye) @ V
    return V


def linalg_decompose(F, K):
    Q = F
    for _ in range(2):
        Q = linalg_cholesky_solve(Q @ K @ Q.mT, Q)
    return Q


def inv_orthonormalize_rows(V):
    """CholeskyQR2 by an explicit inverse of each pass's factor."""
    for _ in range(2):
        V = np.linalg.inv(linalg_cholesky(V @ V.mT)) @ V
    return V


def solve_decompose(F, K):
    """CholeskyQR2 in the K inner product by a linear solve with each pass's
    factor."""
    Q = F
    for _ in range(2):
        Q = np.linalg.solve(linalg_cholesky(Q @ K @ Q.mT), Q)
    return Q


def assert_close_by_condition(actual, expected, basis):
    """Each matrix of ``actual`` within 1e-15 * cond(basis) of ``expected``,
    relative to ``expected``'s largest entry: two CholeskyQR2 runs that
    round differently agree to about machine epsilon times the condition
    number of the basis they orthonormalize."""
    scale = np.abs(expected).max(axis=(-2, -1)) * np.linalg.cond(basis)
    assert np.all(np.abs(actual - expected).max(axis=(-2, -1)) <= 1e-15 * scale)


class TestKernelsMatchLinalg:
    """The factorizations call np.linalg's Cholesky gufunc directly, once per
    CholeskyQR pass, on the bordered matrix: their results are bitwise those
    of np.linalg.cholesky on that matrix.  They also agree, to a tolerance
    set by the basis's condition number, with the same CholeskyQR2 computed
    by np.linalg.inv and solve."""

    STACKS = [(), (1,), (5,), (20,), (33,), (165,)]

    @staticmethod
    def gram_pair(rng, lanes, m, width):
        F = rng.standard_normal(lanes + (m, m))
        Z = rng.standard_normal(lanes + (m, width))
        return F, Z @ Z.mT

    @pytest.mark.parametrize("lanes", STACKS, ids=str)
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_cholesky(self, lanes, m):
        rng = np.random.default_rng(m * 1000 + sum(lanes))
        _, K = self.gram_pair(rng, lanes, m, m + 4)
        np.testing.assert_array_equal(sketch._cholesky(K), linalg_cholesky(K))

    @pytest.mark.parametrize("lanes", STACKS, ids=str)
    @pytest.mark.parametrize("m,width", [(1, 3), (5, 5), (5, 123), (3, 1000)])
    def test_orthonormalize_rows(self, lanes, m, width):
        rng = np.random.default_rng(width * 10 + m + sum(lanes))
        V = rng.standard_normal(lanes + (m, width))
        Q = orthonormalize_rows(V)
        np.testing.assert_array_equal(Q, linalg_orthonormalize_rows(V))
        assert_close_by_condition(Q, inv_orthonormalize_rows(V), V)

    @pytest.mark.parametrize("lanes", STACKS, ids=str)
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_decompose(self, lanes, m):
        rng = np.random.default_rng(m * 7 + sum(lanes))
        F, K = self.gram_pair(rng, lanes, m, m + 3)
        eye = np.broadcast_to(np.eye(m), K.shape)  # the fold's decompose(I, K)
        for start in (F, eye):
            Q = decompose(start, K)
            np.testing.assert_array_equal(Q, linalg_decompose(start, K))
            assert_close_by_condition(Q, solve_decompose(start, K), K)


class TestBorder:
    """``BORDER`` only has to keep the bordered matrix's trailing block
    positive definite, which takes more than 1/lambda_min of the Gram
    matrix: a Gram matrix with eigenvalues far below 1 still factors, to
    CholeskyQR2's result, with no false SketchConditionError."""

    def test_square_z_gives_a_near_singular_k(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((20, 5, 5))
        K = Z @ Z.mT
        assert np.linalg.eigvalsh(K)[:, 0].min() < 1e-3
        F = rng.standard_normal((20, 5, 5))
        for start in (F, np.broadcast_to(np.eye(5), K.shape)):
            assert_close_by_condition(decompose(start, K), solve_decompose(start, K), K)

    @pytest.mark.parametrize("lanes", [(), (20,)], ids=str)
    def test_rows_scaled_by_2_to_minus_30(self, lanes):
        # V V^T's eigenvalues are ~2**-60: scaling by a power of two is
        # exact, so the rows orthonormalize to the unscaled rows' bits
        V = np.random.default_rng(4).standard_normal(lanes + (5, 123))
        tiny = V * 2.0**-30
        Q = orthonormalize_rows(tiny)
        np.testing.assert_array_equal(Q, orthonormalize_rows(V))
        assert_close_by_condition(Q, inv_orthonormalize_rows(tiny), tiny)
        F = np.broadcast_to(np.eye(5), lanes + (5, 5))
        K = V @ V.mT
        np.testing.assert_array_equal(decompose(F, K * 2.0**-60), decompose(F, K) * 2.0**30)


class TestFailuresRaiseWithoutWarning:
    """Outside any errstate, a stack that lost rank or holds NaN or +-inf
    raises one SketchConditionError and no RuntimeWarning."""

    @staticmethod
    def bases():
        rng = np.random.default_rng(11)
        good = rng.standard_normal((4, 3, 8))
        cases = {}
        zero_row = good.copy()
        zero_row[2, 1] = 0.0
        cases["zero row"] = zero_row
        near_copy = good.copy()
        near_copy[1, 2] = near_copy[1, 0] * (1 + 1e-14)
        cases["near copy"] = near_copy
        nan = good.copy()
        nan[3, 0, 1] = np.nan
        cases["nan"] = nan
        for sign in (1, -1):
            inf = good.copy()
            inf[0, 1, 2] = sign * np.inf
            cases[f"{sign:+d}inf entry"] = inf
            inf_row = good.copy()
            inf_row[2, 0] = sign * np.inf
            cases[f"{sign:+d}inf row"] = inf_row
        huge = good.copy()
        huge[1] *= 1e300
        cases["overflowing"] = huge
        return cases

    @staticmethod
    def raises_quietly(call, *args):
        assert np.geterr() == {"divide": "warn", "over": "warn", "under": "ignore",
                               "invalid": "warn"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SketchConditionError, match="rank"):
                call(*args)

    @pytest.mark.parametrize("case", list(bases()))
    def test_orthonormalize_rows(self, case):
        self.raises_quietly(orthonormalize_rows, self.bases()[case])

    @pytest.mark.parametrize("case", list(bases()))
    def test_decompose_bad_gram(self, case):
        V = self.bases()[case]
        with np.errstate(over="ignore", invalid="ignore"):
            K = V @ V.mT
        self.raises_quietly(decompose, np.broadcast_to(np.eye(3), K.shape), K)

    @pytest.mark.parametrize("case", list(bases()))
    def test_decompose_bad_rows(self, case):
        V = self.bases()[case]
        self.raises_quietly(decompose, V[..., :3], np.eye(3))


class TestKeptStack:
    """A lane sketch keeps one bordered stack (``border``) and steps n due
    lanes in its first n matrices, into which each CholeskyQR pass writes A,
    and in ``_decompose`` B^T, over whatever the last call left there: no
    block of one call may reach the next."""

    @staticmethod
    def used_stack(make, lanes, call, *args):
        """A prefix of ``lanes`` matrices of a larger stack from ``make``, after
        ``call`` has left its blocks in all of it."""
        M = make((7,), 5)
        with np.errstate(**sketch.QUIET):
            call(*args, M)
        return M[:lanes]

    @pytest.mark.parametrize("lanes", [1, 3, 5])
    def test_decompose_in_a_used_prefix(self, lanes):
        rng = np.random.default_rng(lanes)
        M = self.used_stack(sketch._border, lanes, sketch._decompose,
                            *TestKernelsMatchLinalg.gram_pair(rng, (7,), 5, 8))
        F, K = TestKernelsMatchLinalg.gram_pair(rng, (lanes,), 5, 8)
        with np.errstate(**sketch.QUIET):
            Q = sketch._decompose(F, K, M)
        assert Q.tobytes() == decompose(F, K).tobytes()

    @pytest.mark.parametrize("lanes", [1, 3, 5])
    def test_orthonormalize_rows_in_a_used_prefix(self, lanes):
        rng = np.random.default_rng(lanes)
        M = self.used_stack(sketch._identity_border, lanes, sketch._orthonormalize_rows,
                            rng.standard_normal((7, 5, 123)))
        V = rng.standard_normal((lanes, 5, 123))
        with np.errstate(**sketch.QUIET):
            Q = sketch._orthonormalize_rows(V, M)
        assert Q.tobytes() == orthonormalize_rows(V).tobytes()

    @pytest.mark.parametrize("sketch_type", [OjaSketch, SparseOjaSketch])
    def test_lane_steps_over_prefixes_equal_scalar_updates(self, sketch_type):
        # 4, 1, 3 and 4 due lanes: each step reads a prefix of the stack that
        # the step before it wrote, and each lane must come out as a sketch
        # of its own that ``update`` stepped on the same rows
        d, m, lanes = 40, 5, 4
        rng = np.random.default_rng(8)
        sk = sketch_type(m, d, lanes=lanes)
        scalars = [sketch_type(m, d) for _ in range(lanes)]
        for due, k in zip([sketch.EVERY_LANE, np.array([2]), np.array([0, 1, 3]),
                           sketch.EVERY_LANE], (7, 4, 11, 6)):
            ids = np.arange(lanes) if due is sketch.EVERY_LANE else due
            positions = np.stack([np.sort(rng.choice(d, k, replace=False)) for _ in ids])
            values = rng.standard_normal((ids.size, k))
            if sketch_type is OjaSketch:
                sk.step(due, positions, values)
            else:
                flat = positions * lanes + ids[:, None]
                rows = sk.Z.reshape(-1, m).take(flat, axis=0)
                sk.step(due, flat, values, rows, np.vecdot(values, values))
            for j, g in enumerate(ids):
                scalars[g].update(positions[j], values[j])
        for g, scalar in enumerate(scalars):
            assert sk.t[g, 0] == scalar.t
            if sketch_type is OjaSketch:
                pairs = [(sk.lam[g], scalar.lam), (sk.V[g], scalar.V)]
            else:
                pairs = [(sk.lam[g], scalar.lam), (sk.F[g], scalar.F), (sk.K[g], scalar.K),
                         (sk.Z[:, g].T, scalar.Z)]
            for got, want in pairs:
                assert got.tobytes() == want.tobytes()


def test_record_write_back_on_padded_rows(tmp_path):
    # Dataset.padded's layout: rows of 2 and 3 entries leave several slots
    # at the padding column, and the row of 7 = 4 + 3 entries has two padding
    # slots before its last entry
    p = tmp_path / "padded.libsvm"
    p.write_text("+1 1:1 2:2 3:1 4:3 6:1 7:2 9:1\n-1 2:1 8:2\n+1 1:2 5:1 9:3\n")
    rows = load_dataset(p).padded(3)
    assert (rows.positions[0, 6:8] == rows.width - 1).all()
    m, lanes = 3, 3
    sk = SparseOjaSketch(m, rows.width, lanes=lanes)
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        flat = rows.positions[order] * lanes + np.arange(lanes)[:, None]
        values = rows.values[order]
        want = sk.Z.copy()
        *_, stepped, _ = sk.step(sketch.EVERY_LANE, flat, values,
                                 sk.Z.reshape(-1, m).take(flat, axis=0),
                                 np.vecdot(values, values))
        want.reshape(-1, m)[flat] = stepped
        assert sk.Z.tobytes() == want.tobytes()
        padding = sk.Z[rows.width - 1]
        assert (padding == 0.0).all() and not np.signbit(padding).any()
