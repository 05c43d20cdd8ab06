import numpy as np
import pytest

from costsense.acog import (
    FULL_SIGMA_MAX_BYTES,
    PENDING_TERMS,
    AdaptiveCSGD,
    covariance_update,
    covariance_update_diag,
)
from costsense.baselines import CostSensitiveGD, PassiveAggressiveI
from costsense.losses import LossVariant, gradient_scale, loss
from costsense.sacog import SketchedCSGD, SparseSketchedCSGD
from costsense.sketch import to_sketch_vector


def random_stream(rng, d, T, one_hot=False):
    stream = []
    for _ in range(T):
        if one_hot:
            pos = np.array([rng.integers(0, d)])
            vals = np.array([rng.standard_normal()])
        else:
            nnz = rng.integers(1, d + 1)
            pos = np.sort(rng.choice(d, size=nnz, replace=False))
            vals = rng.standard_normal(nnz)
        y = 1 if rng.random() < 0.4 else -1
        stream.append((pos, vals, y))
    return stream


class TestInit:
    def test_full_starts_at_identity(self):
        m = AdaptiveCSGD(3, eta=1.0, gamma=1.0)
        np.testing.assert_array_equal(m.sigma, np.eye(3))
        np.testing.assert_array_equal(m.mu, np.zeros(3))

    def test_diag_starts_at_ones(self):
        m = AdaptiveCSGD(3, eta=1.0, gamma=1.0, diagonal=True)
        np.testing.assert_array_equal(m.sigma, np.ones(3))

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveCSGD(3, eta=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            AdaptiveCSGD(3, eta=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            AdaptiveCSGD(3, eta=1.0, gamma=1.0, update_rule="sideways")

    def test_full_matrix_over_memory_limit_refused_before_allocating(self):
        d = int((FULL_SIGMA_MAX_BYTES / 8) ** 0.5) + 1
        with pytest.raises(ValueError, match="-diag"):
            AdaptiveCSGD(200_000, eta=1.0, gamma=1.0)  # 298 GiB if it tried
        with pytest.raises(ValueError, match="-diag"):
            AdaptiveCSGD(d, eta=1.0, gamma=1.0)
        assert AdaptiveCSGD(200_000, eta=1.0, gamma=1.0, diagonal=True).sigma.shape == (200_000,)

    @pytest.mark.parametrize(
        "make",
        [
            lambda nan: CostSensitiveGD(3, eta=nan),
            lambda nan: PassiveAggressiveI(3, C=nan),
            lambda nan: AdaptiveCSGD(3, eta=nan, gamma=1.0),
            lambda nan: AdaptiveCSGD(3, eta=1.0, gamma=nan, diagonal=True),
            lambda nan: SketchedCSGD(3, eta=nan, gamma=1.0, m=1),
            lambda nan: SparseSketchedCSGD(3, eta=1.0, gamma=nan, m=1),
            lambda nan: to_sketch_vector(np.ones(2), nan),
        ],
    )
    def test_nan_parameters_rejected_by_every_learner(self, make):
        with pytest.raises(ValueError):
            make(float("nan"))

    @pytest.mark.parametrize("steps", [[], [[0.1, 1.0]], [0.1, 0.0], [0.1, float("nan")]])
    @pytest.mark.parametrize(
        "make",
        [
            lambda steps: CostSensitiveGD(3, eta=steps),
            lambda steps: PassiveAggressiveI(3, C=steps),
            lambda steps: AdaptiveCSGD(3, eta=steps, gamma=1.0, diagonal=True),
            lambda steps: SketchedCSGD(3, eta=steps, gamma=1.0, m=1),
            lambda steps: SparseSketchedCSGD(3, eta=steps, gamma=1.0, m=1),
        ],
    )
    def test_bad_step_size_sequences_rejected(self, make, steps):
        # a sequence must be nonempty, 1-D and positive in every entry
        with pytest.raises(ValueError):
            make(steps)

    def test_full_matrix_step_size_sequence_gives_one_lane_per_value(self):
        # d x G weights beside a G x d x d stack of identities and G term buffers
        m = AdaptiveCSGD(3, eta=[0.1, 1.0], gamma=1.0)
        assert m.mu.shape == (3, 2)
        assert m.sigma.shape == (2, 3, 3)
        assert (m.sigma == np.eye(3)).all()
        assert m._terms.shape == (2, PENDING_TERMS, 3)

    def test_step_size_sequence_gives_one_lane_per_value(self):
        assert CostSensitiveGD(3, eta=[0.1, 1.0]).w.shape == (3, 2)
        assert PassiveAggressiveI(3, C=(0.1, 1.0, 10.0)).w.shape == (3, 3)
        m = AdaptiveCSGD(3, eta=np.array([1.0]), gamma=1.0, diagonal=True)
        assert m.mu.shape == m.sigma.shape == (3, 1)
        assert CostSensitiveGD(3, eta=0.1).w.shape == (3,)


class TestCovarianceUpdate:
    def test_axis_vector_halves_entry(self):
        # oracle: (I + x x^T)^{-1} = diag(1/2, 1) for x = e_1, gamma = 1
        out = covariance_update(np.eye(2), np.array([0]), np.array([1.0]), gamma=1.0)
        np.testing.assert_allclose(out, np.diag([0.5, 1.0]), atol=1e-15)

    def test_scalar_case(self):
        # oracle: sigma^{-1} = 2, add 1 -> 3, invert -> 1/3
        out = covariance_update(np.array([[0.5]]), np.array([0]), np.array([1.0]), gamma=1.0)
        np.testing.assert_allclose(out, [[1.0 / 3.0]], atol=1e-15)

    def test_shrinks_along_any_direction(self):
        rng = np.random.default_rng(6)
        sigma = np.eye(4)
        for _ in range(30):
            x = rng.standard_normal(4)
            before = float(x @ sigma @ x)
            sigma = covariance_update(sigma, np.arange(4), x, gamma=0.7)
            assert float(x @ sigma @ x) < before

    def test_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            d = int(rng.integers(1, 11))
            gamma = float(rng.uniform(0.2, 5.0))
            sigma = np.eye(d)
            inv_acc = np.eye(d)
            for _ in range(rng.integers(1, 200)):
                x = rng.standard_normal(d)
                if rng.random() < 0.35:  # loss-inactive round: no update
                    continue
                sigma = covariance_update(sigma, np.arange(d), x, gamma)
                inv_acc += np.outer(x, x) / gamma
                np.testing.assert_allclose(
                    sigma, np.linalg.inv(inv_acc), atol=1e-8
                )

    def test_diag_matches_full_on_one_hot(self):
        rng = np.random.default_rng(8)
        full = np.eye(5)
        diag = np.ones(5)
        for _ in range(100):
            j = int(rng.integers(0, 5))
            v = float(rng.standard_normal())
            full = covariance_update(full, np.array([j]), np.array([v]), gamma=1.3)
            diag = covariance_update_diag(
                diag, np.array([j]), np.array([v]), gamma=1.3
            )
            np.testing.assert_allclose(np.diag(full), diag, atol=1e-12)
            assert np.abs(full - np.diag(np.diag(full))).max() < 1e-15


    def test_diag_updates_in_place_bitwise_like_copy_formula(self):
        def copy_formula(sigma, positions, values, gamma):
            sv = sigma[positions]
            sx = sv * values
            denom = gamma + float(values @ sx)
            out = sigma.copy()
            out[positions] = sv - (sx * sx) / denom
            return out

        rng = np.random.default_rng(9)
        sigma = np.ones(12)
        for pos, vals, _ in random_stream(rng, 12, 200):
            expected = copy_formula(sigma, pos, vals, 0.7)
            out = covariance_update_diag(sigma, pos, vals, 0.7)
            assert out is sigma
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [124, 1000, 4096])
    def test_row_gather_is_bitwise_the_column_gather(self, d):
        # covariance_update and the full update take sigma x from sigma's
        # rows at the support; on a symmetric sigma that must be the column
        # gather sigma[:, positions] @ values, bit for bit (the test below
        # pins covariance_update to the column gather's formula)
        rng = np.random.default_rng(d)
        sigma = rng.standard_normal((d, d))
        sigma += sigma.T
        for nnz in (1, 2, 3, 4, 5, 7, 8, 16, 17, 31, 33, 64):
            pos = np.sort(rng.choice(d, nnz, replace=False))
            vals = rng.standard_normal(nnz)
            rows = vals @ sigma.take(pos, axis=0)
            assert rows.tobytes() == (sigma[:, pos] @ vals).tobytes(), nnz

    @pytest.mark.parametrize("d", [1, 22, 63, 64, 65, 123, 181, 182, 300, 2100])
    def test_bitwise_like_outer_product_in_64_row_blocks(self, d):
        # the formula the one-buffer einsum replaced; einsum may write +0.0
        # where np.outer writes -0.0, which sigma - block must not show
        def outer_blocks(sigma, positions, values, gamma):
            s = sigma[:, positions] @ values
            denom = gamma + float(values @ s[positions])
            for lo in range(0, s.size, 64):
                sigma[lo:lo + 64] -= np.outer(s[lo:lo + 64], s) / denom
            return sigma

        rng = np.random.default_rng(d)
        sigma, expected = np.eye(d), np.eye(d)
        # supports within the first two thirds of the columns keep s at
        # exactly 0 on the rest, so np.outer(s, s) holds -0.0
        width = max(1, 2 * d // 3)
        negative_zeros = False
        for _ in range(40 if d < 1000 else 8):
            pos = np.sort(rng.choice(width, int(rng.integers(1, min(width, 12) + 1)),
                                     replace=False))
            vals = rng.standard_normal(pos.size)
            vals[rng.random(pos.size) < 0.2] = 0.0
            s = expected[:, pos] @ vals
            negative_zeros |= bool((s == 0).any() and (s < 0).any())
            outer_blocks(expected, pos, vals, 0.7)
            assert covariance_update(sigma, pos, vals, 0.7) is sigma
            assert sigma.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(sigma), np.signbit(expected))
        assert d == 1 or negative_zeros


class TestStep:
    def test_fresh_model_composition(self):
        m = AdaptiveCSGD(2, eta=1.0, gamma=1.0, variant=LossVariant.I)
        l = m.update(np.array([0]), np.array([1.0]), y=1, rho=3.0)
        assert l == pytest.approx(3.0)
        np.testing.assert_allclose(m.sigma, np.diag([0.5, 1.0]), atol=1e-15)
        np.testing.assert_allclose(m.mu, [0.5, 0.0], atol=1e-15)

    def test_zero_loss_leaves_state_bitwise(self):
        m = AdaptiveCSGD(2, eta=1.0, gamma=1.0, variant=LossVariant.I)
        m.mu[0] = 10.0
        sigma_before = m.sigma.copy()
        mu_before = m.mu.copy()
        l = m.update(np.array([0]), np.array([1.0]), y=1, rho=3.0)
        assert l == 0.0
        assert np.array_equal(m.sigma, sigma_before)
        assert np.array_equal(m.mu, mu_before)

    def test_full_equals_diag_on_one_hot_stream(self):
        rng = np.random.default_rng(9)
        full = AdaptiveCSGD(6, eta=0.8, gamma=1.0, variant=LossVariant.II)
        diag = AdaptiveCSGD(6, eta=0.8, gamma=1.0, variant=LossVariant.II, diagonal=True)
        for pos, vals, y in random_stream(rng, 6, 300, one_hot=True):
            full.update(pos, vals, y, rho=2.0)
            diag.update(pos, vals, y, rho=2.0)
            np.testing.assert_allclose(full.mu, diag.mu, atol=1e-12)
            np.testing.assert_allclose(np.diag(full.sigma), diag.sigma, atol=1e-12)

    def test_full_and_diag_differ_on_correlated_data(self):
        # correlated samples build off-diagonal covariance mass the diagonal
        # mode cannot represent; the trajectories must separate
        rng = np.random.default_rng(14)
        full = AdaptiveCSGD(4, eta=1.0, gamma=1.0, variant=LossVariant.I)
        diag = AdaptiveCSGD(4, eta=1.0, gamma=1.0, variant=LossVariant.I, diagonal=True)
        pos = np.arange(4)
        for _ in range(50):
            vals = rng.standard_normal(2) @ np.array(
                [[1.0, 0.8, 0.0, 0.3], [0.0, 0.5, 1.0, 0.7]]
            )
            y = 1 if rng.random() < 0.4 else -1
            full.update(pos, vals, y, rho=2.0)
            diag.update(pos, vals, y, rho=2.0)
        assert np.abs(full.mu - diag.mu).max() > 1e-3
        assert np.abs(full.sigma - np.diag(np.diag(full.sigma))).max() > 1e-3

    def test_old_sigma_rule_differs_and_uses_stale_covariance(self):
        new = AdaptiveCSGD(2, eta=1.0, gamma=1.0, update_rule="new")
        old = AdaptiveCSGD(2, eta=1.0, gamma=1.0, update_rule="old")
        x, y = np.array([0]), 1
        new.update(x, np.array([1.0]), y, rho=3.0)
        old.update(x, np.array([1.0]), y, rho=3.0)
        # stale rule preconditions with the identity: mu step 1.0, not 0.5
        np.testing.assert_allclose(old.mu, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(new.mu, [0.5, 0.0], atol=1e-15)
        # covariance ends up identical either way
        np.testing.assert_allclose(old.sigma, new.sigma, atol=1e-15)


class TestInvariants:
    def test_sigma_symmetric_and_eigenvalues_in_unit_interval(self):
        rng = np.random.default_rng(10)
        m = AdaptiveCSGD(8, eta=0.5, gamma=1.0, variant=LossVariant.I)
        for pos, vals, y in random_stream(rng, 8, 400):
            m.update(pos, vals, y, rho=2.0)
            assert np.abs(m.sigma - m.sigma.T).max() < 1e-10
            eig = np.linalg.eigvalsh(m.sigma)
            assert eig.min() > 0.0
            assert eig.max() <= 1.0 + 1e-12

    def test_trace_monotone_strict_on_active_rounds(self):
        rng = np.random.default_rng(11)
        m = AdaptiveCSGD(5, eta=0.5, gamma=1.0, variant=LossVariant.I)
        for pos, vals, y in random_stream(rng, 5, 300):
            before = np.trace(m.sigma)
            l = m.update(pos, vals, y, rho=2.0)
            after = np.trace(m.sigma)
            if l > 0:
                assert after < before
            else:
                assert after == before

    def test_gamma_to_infinity_degenerates_to_first_order(self):
        rng = np.random.default_rng(12)
        d = 10
        acog = AdaptiveCSGD(d, eta=0.3, gamma=1e12, variant=LossVariant.II)
        cog = CostSensitiveGD(d, eta=0.3, variant=LossVariant.II)
        for pos, vals, y in random_stream(rng, d, 1000):
            acog.update(pos, vals, y, rho=3.0)
            cog.update(pos, vals, y, rho=3.0)
            assert np.abs(acog.mu - cog.w).max() <= 1e-6

    def test_prediction_ignores_sigma(self):
        rng = np.random.default_rng(13)
        m = AdaptiveCSGD(4, eta=0.5, gamma=1.0)
        for pos, vals, y in random_stream(rng, 4, 50):
            m.update(pos, vals, y, rho=2.0)
        probe = random_stream(rng, 4, 40)
        before = [m.predict(p, v)[1] for p, v, _ in probe]
        m.sigma = 0.5 * np.eye(4)  # any positive-definite stand-in
        after = [m.predict(p, v)[1] for p, v, _ in probe]
        assert before == after


def lane_rounds(stream, chunk):
    """``stream`` as one lane's chunks of ``chunk`` rounds for ``advance``,
    each row padded with value 0.0 at position 0 to the longest row, and
    every positive round at class weight 2."""
    k = max(len(pos) for pos, _, _ in stream)
    flat = np.array([np.pad(pos, (0, k - len(pos))) for pos, _, _ in stream])[:, None]
    values = np.array([np.pad(vals, (0, k - len(vals))) for _, vals, _ in stream])[:, None]
    y = np.array([[float(y)] for _, _, y in stream])
    weight = np.where(y == 1.0, 2.0, 1.0)
    for t in range(0, len(stream), chunk):
        yield flat[t:t + chunk], values[t:t + chunk], y[t:t + chunk], weight[t:t + chunk]


class TestDelayedTerms:
    """The full-matrix lane pass holds up to ``PENDING_TERMS`` - 1 covariance
    terms back, and applies them on its own count of active rounds.  One
    lane is a learner of one step size in a sequence."""

    def test_a_learner_of_one_step_size_holds_no_terms(self):
        assert AdaptiveCSGD(4, eta=0.5, gamma=1.0)._terms is None
        assert AdaptiveCSGD(4, eta=[0.5], gamma=1.0)._terms.shape == (1, PENDING_TERMS, 4)

    @pytest.mark.parametrize("update_rule", ["new", "old"])
    def test_reading_sigma_mid_pass_changes_nothing(self, update_rule):
        stream = random_stream(np.random.default_rng(16), 10, 300)
        passes = []
        for read in (False, True):
            m = AdaptiveCSGD(10, eta=[0.5], gamma=0.5, variant=LossVariant.II,
                             update_rule=update_rule)
            scores, pending = [], []
            for chunk in lane_rounds(stream, 7):
                scores.append(m.advance(*chunk))
                if read:
                    pending.append(m._pending)
                    assert np.array_equal(m.sigma[0], m.sigma[0].T)
            passes.append((np.concatenate(scores), m.mu, m.sigma, m._sigma,
                           m._terms[:, :m._pending]))
        assert len({k for k in pending if k}) >= 5  # read at many pending counts
        for unread, read in zip(*passes):
            assert unread.tobytes() == read.tobytes()

    def test_setting_sigma_drops_the_pending_terms(self):
        m = AdaptiveCSGD(8, eta=[0.5], gamma=1.0, variant=LossVariant.II)
        for chunk in lane_rounds(random_stream(np.random.default_rng(17), 8, 199), 50):
            m.advance(*chunk)
        assert m._pending
        effective = m.sigma
        m.sigma = effective
        assert m.sigma is effective

    def test_lane_pass_applies_the_terms_once_per_pending_terms_active_rounds(self):
        # each active round fills one slot, and the stored sigma changes only
        # in the round that fills the last one
        stream = random_stream(np.random.default_rng(18), 6, 150)
        m = AdaptiveCSGD(6, eta=0.5, gamma=1.0, variant=LossVariant.I)
        active = [m.update(pos, vals, y, rho=2.0) > 0.0 for pos, vals, y in stream]
        assert sum(active) >= 2 * PENDING_TERMS
        lanes = AdaptiveCSGD(6, eta=[0.5], gamma=1.0, variant=LossVariant.I)
        pending, applied = [], []
        for chunk in lane_rounds(stream, 1):
            before = lanes._sigma.copy()
            lanes.advance(*chunk)
            pending.append(lanes._pending)
            applied.append(not np.array_equal(lanes._sigma, before))
        assert pending == (np.cumsum(active) % PENDING_TERMS).tolist()
        assert applied == [a and k == 0 for a, k in zip(active, pending)]
        assert np.abs(lanes.sigma[0] - m.sigma).max() <= 1e-12
        assert np.abs(lanes.mu[:, 0] - m.mu).max() <= 1e-12

    def test_terms_applied_in_blocks_of_rows_past_724_columns(self):
        # past 724 columns the terms go into sigma a block of rows at a time,
        # each off-diagonal block subtracted on both sides of the diagonal
        d = 800
        rng = np.random.default_rng(19)
        stream = [(np.sort(rng.choice(d, size=20, replace=False)), 3.0 * unit, 1)
                  for unit in (v / np.linalg.norm(v) for v in rng.standard_normal((40, 20)))]
        m = AdaptiveCSGD(d, eta=[0.5], gamma=1.0, variant=LossVariant.II)
        ref = AdaptiveCSGD(d, eta=0.5, gamma=1.0, variant=LossVariant.II)
        for pos, vals, y in stream:
            assert ref.update(pos, vals, y, rho=2.0) > 0.0
        for chunk in lane_rounds(stream, 40):
            m.advance(*chunk)
        assert m._pending == len(stream) % PENDING_TERMS
        assert np.array_equal(m._sigma[0], m._sigma[0].T)
        assert np.abs(m._sigma - m.sigma).max() > 1e-3  # holds terms back, so applied some
        assert np.abs(m.sigma[0] - ref.sigma).max() <= 1e-12
        assert np.abs(m.mu[:, 0] - ref.mu).max() <= 1e-12

    def test_lane_sigma_applies_each_lanes_pending_terms(self):
        # three lanes, each on rows of its own, against each lane's one-lane
        # pass; passive lanes write zero rows into the shared slots
        rng = np.random.default_rng(20)
        etas, d, rounds = [0.1, 0.5, 2.0], 9, 150
        streams = [random_stream(rng, d, rounds) for _ in etas]
        chunks = list(zip(*(lane_rounds(stream, 40) for stream in streams)))
        lanes = AdaptiveCSGD(d, eta=etas, gamma=0.5, variant=LossVariant.II)
        for lane_chunks in chunks:
            flat, values, y, weight = (np.concatenate(parts, axis=1) for parts in zip(*lane_chunks))
            lanes.advance(flat * len(etas) + np.arange(len(etas))[:, None], values, y, weight)
        assert lanes._pending
        sigma = lanes.sigma
        assert sigma.shape == (len(etas), d, d)
        assert np.abs(lanes._sigma - sigma).max() > 1e-3  # holds terms back
        for g, eta in enumerate(etas):
            one = AdaptiveCSGD(d, eta=[eta], gamma=0.5, variant=LossVariant.II)
            for lane_chunks in chunks:
                one.advance(*lane_chunks[g])
            assert np.array_equal(sigma[g], sigma[g].T)
            assert np.abs(sigma[g] - one.sigma[0]).max() <= 1e-12
            assert np.abs(lanes.mu[:, g] - one.mu[:, 0]).max() <= 1e-12


class TestSigmaSetter:
    """``advance`` reads sigma x from sigma's rows, so the setter takes only
    an exactly symmetric covariance of the stored one's shape."""

    def test_symmetric_sigma_of_the_learners_shape_is_taken(self):
        m = AdaptiveCSGD(4, eta=1.0, gamma=1.0)
        value = 0.5 * np.eye(4)
        m.sigma = value
        assert m.sigma is value
        lanes = AdaptiveCSGD(4, eta=[0.1, 1.0], gamma=1.0)
        lanes.sigma = np.stack([0.5 * np.eye(4), np.eye(4)])
        assert lanes.sigma[0, 0, 0] == 0.5 and lanes.sigma[1, 0, 0] == 1.0

    @pytest.mark.parametrize("eta,shape", [(1.0, (3, 3)), (1.0, (4, 5)), (1.0, (2, 4, 4)),
                                           ([0.1, 1.0], (4, 4)), ([0.1, 1.0], (3, 4, 4))])
    def test_sigma_of_another_shape_refused(self, eta, shape):
        m = AdaptiveCSGD(4, eta=eta, gamma=1.0)
        with pytest.raises(ValueError, match="sigma must have shape"):
            m.sigma = np.zeros(shape)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_strided_sigma_is_stepped_in_place(self, diagonal):
        # advance steps the stored sigma through reshaped views, which a
        # Fortran-ordered value would turn into copies that lose each write
        stream = random_stream(np.random.default_rng(21), 5, 100)
        lanes = [AdaptiveCSGD(5, eta=[0.5, 2.0], gamma=1.0, diagonal=diagonal) for _ in range(2)]
        start = lanes[0].sigma.copy()
        lanes[1].sigma = np.asfortranarray(start)
        for m in lanes:
            for chunk in lane_rounds(stream, 30):
                flat, values, y, weight = (np.repeat(a, 2, axis=1) for a in chunk)
                m.advance(flat * 2 + np.arange(2)[:, None], values, y, weight)
        assert np.abs(lanes[0].sigma - start).max() > 0.1
        assert np.array_equal(lanes[1].sigma, lanes[0].sigma)

    @pytest.mark.parametrize("eta", [1.0, [0.1, 1.0]])
    def test_asymmetric_sigma_refused(self, eta):
        m = AdaptiveCSGD(4, eta=eta, gamma=1.0)
        value = np.array(m.sigma)
        value[..., 0, 1] = 1e-16  # one entry, 1e-16 from its mirror
        with pytest.raises(ValueError, match="exactly symmetric"):
            m.sigma = value
        assert (m.sigma == np.eye(4)).all()


class TestDiagonalLanes:
    @pytest.mark.parametrize("update_rule", ["new", "old"])
    def test_passive_lane_keeps_its_sigma_where_its_shrink_is_nan(self, update_rule):
        # in round 2 lane 0 is passive on x = 1e200, whose (sigma x)^2 / denom
        # is inf / inf, while lane 1 is active on x = 1: each lane's state is
        # the scalar update's on its own rows, which leaves lane 0's untouched
        rows = [[(1.0, 1), (1e200, 1)], [(1.0, 1), (1.0, -1)]]
        lanes = AdaptiveCSGD(1, eta=[0.5, 0.5], gamma=1.0, diagonal=True,
                             update_rule=update_rule)
        flat = np.tile(np.arange(2)[None, :, None], (2, 1, 1))
        values = np.array([[[x] for x, _ in round_] for round_ in zip(*rows)])
        y = np.array([[float(y) for _, y in round_] for round_ in zip(*rows)])
        refs = [AdaptiveCSGD(1, eta=0.5, gamma=1.0, diagonal=True, update_rule=update_rule)
                for _ in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            lanes.advance(flat, values, y, np.where(y == 1.0, 2.0, 1.0))
            for ref, lane_rows in zip(refs, rows):
                for x, label in lane_rows:
                    ref.update(np.array([0]), np.array([x]), label, rho=2.0)
        for g, ref in enumerate(refs):
            assert lanes.sigma[0, g].tobytes() == ref.sigma.tobytes()
            assert lanes.mu[0, g].tobytes() == ref.mu.tobytes()
        assert lanes.sigma[0, 0] == 0.5


class DenseReference:
    """The full-matrix rule in its dense form: x densified, sigma @ x, a new
    re-symmetrized covariance each round and the mean step sigma_used @ g."""

    def __init__(self, d, eta, gamma, variant, update_rule):
        self.eta, self.gamma, self.variant, self.update_rule = eta, gamma, variant, update_rule
        self.mu = np.zeros(d)
        self.sigma = np.eye(d)

    def update(self, positions, values, y, rho):
        l = loss(self.variant, float(self.mu[positions] @ values), y, rho)
        a = gradient_scale(self.variant, y, rho, l)
        if a == 0.0:
            return l
        x = np.zeros(self.mu.size)
        x[positions] = values
        s = self.sigma @ x
        out = self.sigma - np.outer(s, s) / (self.gamma + float(x @ s))
        after = 0.5 * (out + out.T)
        sigma_used = after if self.update_rule == "new" else self.sigma
        self.mu = self.mu - self.eta * (sigma_used @ (a * x))
        self.sigma = after
        return l


class TestDenseReference:
    @pytest.mark.parametrize("update_rule", ["new", "old"])
    def test_support_update_matches_dense_formula(self, update_rule):
        rng = np.random.default_rng(15)
        d = 12
        ref = DenseReference(d, 0.5, 0.8, LossVariant.II, update_rule)
        m = AdaptiveCSGD(d, eta=0.5, gamma=0.8, variant=LossVariant.II,
                         update_rule=update_rule)
        sigma = m.sigma
        active = 0
        for pos, vals, y in random_stream(rng, d, 2500):
            vals = vals / np.linalg.norm(vals)
            active += ref.update(pos, vals, y, rho=2.0) > 0.0
            m.update(pos, vals, y, rho=2.0)
            assert m.sigma is sigma  # updated in place, never rebuilt
            assert np.array_equal(m.sigma, m.sigma.T)
            assert np.abs(m.sigma - ref.sigma).max() <= 1e-12
            assert np.abs(m.mu - ref.mu).max() <= 1e-12
        assert active >= 1000
