import numpy as np
import pytest

from costsense.acog import (
    FULL_SIGMA_MAX_BYTES,
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

    def test_step_size_sequence_refused_without_lanes(self):
        # full-matrix ACOG runs one step size only
        with pytest.raises(ValueError):
            AdaptiveCSGD(3, eta=[0.1, 1.0], gamma=1.0)

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
