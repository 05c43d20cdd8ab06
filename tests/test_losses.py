import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costsense.losses import (
    CostModel,
    LossVariant,
    class_weight,
    gradient_scale,
    lane_active,
    lane_slope,
    loss,
    observe_label,
    resolve_rho,
)


class TestClassWeight:
    def test_positive_gets_rho(self):
        assert class_weight(1, 3.0) == 3.0

    def test_negative_gets_one(self):
        assert class_weight(-1, 3.0) == 1.0

    def test_rho_one_collapses_classes(self):
        assert class_weight(1, 1.0) == class_weight(-1, 1.0) == 1.0


class TestLoss:
    def test_variant_one_zero_model(self):
        assert loss(LossVariant.I, 0.0, 1, 3.0) == 3.0

    def test_variant_one_negative_sample(self):
        assert loss(LossVariant.I, 1.2, -1, 3.0) == pytest.approx(2.2)

    def test_variant_two_scales_slope(self):
        assert loss(LossVariant.II, 0.4, 1, 3.0) == pytest.approx(1.8)

    def test_inactive_region(self):
        assert loss(LossVariant.I, 5.0, 1, 3.0) == 0.0
        assert loss(LossVariant.II, 2.0, 1, 3.0) == 0.0

    @given(
        st.floats(-50, 50),
        st.sampled_from([-1, 1]),
        st.floats(0.01, 100),
        st.sampled_from(list(LossVariant)),
    )
    def test_nonnegative(self, score, y, rho, variant):
        assert loss(variant, score, y, rho) >= 0.0

    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.sampled_from([-1, 1]),
        st.floats(0.01, 100),
        st.sampled_from(list(LossVariant)),
    )
    def test_convex_in_score(self, s1, s2, y, rho, variant):
        mid = loss(variant, 0.5 * (s1 + s2), y, rho)
        avg = 0.5 * (loss(variant, s1, y, rho) + loss(variant, s2, y, rho))
        assert mid <= avg + 1e-12

    def test_rho_one_equals_plain_hinge(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = rng.uniform(-5, 5)
            y = rng.choice([-1, 1])
            hinge = max(0.0, 1.0 - y * s)
            assert loss(LossVariant.I, s, y, 1.0) == pytest.approx(hinge)
            assert loss(LossVariant.II, s, y, 1.0) == pytest.approx(hinge)


class TestSubgradient:
    # the subgradient w.r.t. mu is gradient_scale(...) * x

    def test_active_variant_one(self):
        a = gradient_scale(LossVariant.I, 1, 3.0, 3.0)
        np.testing.assert_allclose(a * np.array([1.0]), [-1.0])

    def test_active_variant_two_scaled(self):
        a = gradient_scale(LossVariant.II, 1, 3.0, 3.0)
        np.testing.assert_allclose(a * np.array([1.0]), [-3.0])

    def test_inactive_is_zero_vector(self):
        assert gradient_scale(LossVariant.I, 1, 3.0, 0.0) == 0.0
        lanes = lane_active(LossVariant.I, 1, 3.0, np.array([3.0, 5.0]))
        assert lanes.tolist() == [False, False]

    def test_lane_rule_matches_scalar_rule(self):
        # lane_active and lane_slope give loss > 0 and gradient_scale point
        # by point, at and near the kink, and a NaN score is passive
        rng = np.random.default_rng(3)
        n = 3000
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        rho = rng.uniform(0.1, 10, n)
        weight = np.where(y == 1, rho, 1.0)
        for variant in LossVariant:
            kink = weight if variant == LossVariant.I else np.ones(n)
            s = y * kink + rng.choice([0.0, 1e-12, 1.0], n) * rng.uniform(-3, 3, n)
            s[::97] = np.nan
            active = lane_active(variant, y, weight, s)
            slope = lane_slope(variant, y, weight)
            assert 0 < np.count_nonzero(active) < n
            for j in range(n):
                yj = int(y[j])
                a = gradient_scale(variant, yj, rho[j], loss(variant, s[j], yj, rho[j]))
                assert active[j] == (a != 0.0)
                if active[j]:
                    assert slope[j] == a

    def test_variant_two_negative_class_unscaled(self):
        # slope follows the class weight: 1 for negatives
        a = gradient_scale(LossVariant.II, -1, 5.0, 2.0)
        assert a == 1.0

    def test_validity_inequality_random_points(self):
        # loss(s + delta) >= loss(s) + g*delta - tol, g the score-derivative
        # implied by the returned vector: d loss/d score = a (from g = a*x
        # and score = mu.x moving along x... here checked in scalar form)
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            variant = LossVariant.I if rng.random() < 0.5 else LossVariant.II
            y = -1 if rng.random() < 0.5 else 1
            rho = rng.uniform(0.1, 10)
            # hit the kink region often
            kink = class_weight(y, rho) if variant == LossVariant.I else 1.0
            s = y * kink + rng.choice([0.0, rng.uniform(-3, 3), rng.uniform(-1e-9, 1e-9)])
            l = loss(variant, s, y, rho)
            a = gradient_scale(variant, y, rho, l)
            delta = rng.uniform(-2, 2)
            assert loss(variant, s + delta, y, rho) >= l + a * delta - 1e-9

    def test_mistake_domination_per_sample(self):
        # on a mistake, the loss is at least rho (positives) or 1 (negatives)
        rng = np.random.default_rng(2)
        for _ in range(5000):
            variant = LossVariant.I if rng.random() < 0.5 else LossVariant.II
            y = -1 if rng.random() < 0.5 else 1
            rho = rng.uniform(0.1, 10)
            s = rng.uniform(-5, 5)
            predicted = 1 if s >= 0 else -1
            if predicted != y:
                assert loss(variant, s, y, rho) >= class_weight(y, rho) - 1e-12


class TestCostModel:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CostModel(alpha_p=0.7, alpha_n=0.7)
        with pytest.raises(ValueError):
            CostModel(c_p=0.5, c_n=0.1)

    def test_alpha_n_cannot_be_zero(self):
        with pytest.raises(ValueError):
            CostModel(alpha_p=1.0, alpha_n=0.0)

    def test_c_n_cannot_be_zero(self):
        with pytest.raises(ValueError):
            CostModel(c_p=1.0, c_n=0.0)

    def test_laplace_starts_at_weight_ratio(self):
        cm = CostModel(rho_mode="laplace")
        assert cm.rho == pytest.approx(1.0)  # (0+1)/(0+1) * (0.5/0.5)
        cm2 = CostModel(alpha_p=0.8, alpha_n=0.2, rho_mode="laplace")
        assert cm2.rho == pytest.approx(4.0)


class TestFixedRhoMode:
    def test_fixed_reads_as_oracle_with_that_rho(self):
        assert CostModel(rho_mode="fixed:2.5") == CostModel(rho_mode="oracle", rho=2.5)
        assert CostModel(metric="cost", rho_mode="fixed:2.5").rho == 2.5  # not c_p/c_n

    @pytest.mark.parametrize("rho_mode, message", [
        ("fixed:abc", "fixed rho must be a number, got 'abc'"),
        ("fixed:nan", "rho must be finite and positive, got nan"),
        ("fixed:0", "rho must be finite and positive, got 0.0"),
    ])
    def test_bad_fixed_rho_refused(self, rho_mode, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CostModel(rho_mode=rho_mode)


class TestResolveRho:
    def test_sum_oracle(self):
        cm = CostModel(metric="sum")
        assert resolve_rho(cm, (100, 900)) == pytest.approx(9.0)

    def test_cost_ratio(self):
        cm = CostModel(metric="cost", c_p=0.9, c_n=0.1)
        assert resolve_rho(cm) == pytest.approx(9.0)

    def test_laplace_running_estimate(self):
        cm = CostModel(metric="sum", rho_mode="laplace")
        observe_label(cm, np.array([-1, -1, -1, 1]))
        assert resolve_rho(cm) == pytest.approx(2.0)  # (3+1)/(1+1)

    def test_sum_oracle_requires_counts(self):
        cm = CostModel(metric="sum")
        with pytest.raises(ValueError):
            resolve_rho(cm)

    def test_sum_oracle_rejects_no_positives(self):
        cm = CostModel(metric="sum")
        with pytest.raises(ValueError):
            resolve_rho(cm, (0, 10))

    def test_pre_supplied_rho_wins(self):
        cm = CostModel(metric="sum", rho=4.5)
        assert resolve_rho(cm) == 4.5


class TestObserveLabel:
    def test_first_positive(self):
        cm = CostModel(rho_mode="laplace")
        observe_label(cm, np.array([1]))
        assert cm.rho == pytest.approx(0.5)  # (0+1)/(1+1)

    def test_noop_in_oracle_mode(self):
        cm = CostModel(rho=2.0)
        observe_label(cm, np.array([1]))
        assert cm.rho == 2.0 and cm.seen_pos == 0

    def test_cost_metric_laplace_rho_constant(self):
        cm = CostModel(metric="cost", rho_mode="laplace")
        before = cm.rho
        observe_label(cm, np.array([1, -1, -1, 1, -1]))
        assert cm.rho == before == pytest.approx(9.0)

    def test_tracks_running_ratio(self):
        cm = CostModel(rho_mode="laplace", alpha_p=0.5, alpha_n=0.5)
        rng = np.random.default_rng(3)
        labels = np.array([1 if rng.random() < 0.25 else -1 for _ in range(500)])
        pos = neg = 0
        for y, rho in zip(labels, observe_label(cm, labels)):
            pos, neg = pos + (y == 1), neg + (y == -1)
            assert rho == pytest.approx((neg + 1) / (pos + 1))
        assert cm.rho == rho


@settings(max_examples=200)
@given(
    st.floats(-20, 20),
    st.sampled_from([-1, 1]),
    st.floats(0.05, 20),
)
def test_variant_one_dominates_weighted_mistakes(score, y, rho):
    # the convexified loss upper-bounds the weighted mistake indicator
    predicted = 1 if score >= 0 else -1
    indicator = class_weight(y, rho) if predicted != y else 0.0
    assert loss(LossVariant.I, score, y, rho) >= indicator - 1e-12
    assert loss(LossVariant.II, score, y, rho) >= indicator - 1e-12
