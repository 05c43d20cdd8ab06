import numpy as np
import pytest

from costsense.acog import AdaptiveCSGD
from costsense.baselines import CostSensitiveGD
from costsense.losses import LossVariant, loss
from costsense.metrics import (
    ConfusionCounts,
    class_rates,
    cost_metric,
    fit_comparator,
    regret_slope,
    stream_losses,
    sum_metric,
    write_trace_csv,
)


def make_stream(rng, d, T, pos_rate=0.25, separable_noise=0.0):
    """Labels from a random linear separator, optionally flipped with noise."""
    w_true = rng.standard_normal(d)
    w_true /= np.linalg.norm(w_true)
    stream = []
    for _ in range(T):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        y = 1 if (x @ w_true) >= 0 else -1
        # class imbalance: reflect surplus positives onto the negative side
        if y == 1 and rng.random() > pos_rate / 0.5:
            x = -x
            y = -1
        if separable_noise > 0 and rng.random() < separable_noise:
            y = -y
        stream.append((np.arange(d), x, y))
    return stream


class TestConfusionCounts:
    def test_correct_positive(self):
        cc = ConfusionCounts().record(1, 1)
        assert (cc.t_pos, cc.m_pos, cc.t_neg, cc.m_neg) == (1, 0, 0, 0)

    def test_missed_positive(self):
        cc = ConfusionCounts().record(-1, 1)
        assert (cc.t_pos, cc.m_pos) == (1, 1)

    def test_false_alarm(self):
        cc = ConfusionCounts().record(1, -1)
        assert (cc.t_neg, cc.m_neg) == (1, 1)


class TestSumMetric:
    def test_half_and_half(self):
        cc = ConfusionCounts(t_pos=1, t_neg=1, m_pos=0, m_neg=1)
        assert sum_metric(cc, 0.5, 0.5) == pytest.approx(0.5)

    def test_all_correct_is_one(self):
        cc = ConfusionCounts(t_pos=10, t_neg=20)
        assert sum_metric(cc, 0.5, 0.5) == pytest.approx(1.0)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            t_pos, t_neg = rng.integers(1, 50, size=2)
            m_pos = rng.integers(0, t_pos + 1)
            m_neg = rng.integers(0, t_neg + 1)
            alpha_p = rng.uniform(0.05, 0.95)
            cc = ConfusionCounts(t_pos, t_neg, m_pos, m_neg)
            val = sum_metric(cc, alpha_p, 1 - alpha_p)
            assert 0.0 <= val <= 1.0
            if m_pos < t_pos:
                worse = ConfusionCounts(t_pos, t_neg, m_pos + 1, m_neg)
                assert sum_metric(worse, alpha_p, 1 - alpha_p) < val

    def test_empty_class_is_error_by_default(self):
        with pytest.raises(ValueError):
            sum_metric(ConfusionCounts(t_pos=0, t_neg=5), 0.5, 0.5)

    def test_empty_class_perfect_convention(self):
        cc = ConfusionCounts(t_pos=0, t_neg=4, m_neg=2)
        assert sum_metric(cc, 0.5, 0.5, empty_class="perfect") == pytest.approx(0.75)

    def test_class_rates_follow_the_empty_class_rule(self):
        cc = ConfusionCounts(t_pos=0, t_neg=4, m_neg=1)
        assert class_rates(cc, "perfect") == (1.0, 0.75)
        assert class_rates(ConfusionCounts(t_pos=2, t_neg=0, m_pos=1), "perfect") == (0.5, 1.0)
        with pytest.raises(ValueError, match="no examples"):
            class_rates(cc)


class TestCostMetric:
    def test_weighted_count(self):
        cc = ConfusionCounts(t_pos=5, t_neg=5, m_pos=2, m_neg=3)
        assert cost_metric(cc, 0.9, 0.1) == pytest.approx(2.1)

    def test_no_mistakes_costs_nothing(self):
        assert cost_metric(ConfusionCounts(t_pos=5, t_neg=5), 0.9, 0.1) == 0.0

    def test_additive_over_disjoint_counts(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = ConfusionCounts(*(int(x) for x in rng.integers(0, 20, size=4)))
            b = ConfusionCounts(*(int(x) for x in rng.integers(0, 20, size=4)))
            both = ConfusionCounts(a.t_pos + b.t_pos, a.t_neg + b.t_neg,
                                   a.m_pos + b.m_pos, a.m_neg + b.m_neg)
            assert cost_metric(both, 0.9, 0.1) == pytest.approx(
                cost_metric(a, 0.9, 0.1) + cost_metric(b, 0.9, 0.1)
            )


class TestComparator:
    def test_separable_toy_beats_online_learner(self):
        # four points split by e1: a fixed max-margin-ish vector gets zero
        # loss, while any single online pass pays for its early mistakes
        pts = [
            (np.array([0]), np.array([1.0]), 1),
            (np.array([0]), np.array([0.9]), 1),
            (np.array([0]), np.array([-1.0]), -1),
            (np.array([0]), np.array([-0.8]), -1),
        ]
        stream = pts * 10
        rho = 2.0
        w_star = fit_comparator(stream, d=1, rho=rho, variant=LossVariant.I, epochs=50)
        comp_total = float(np.sum(stream_losses(w_star, stream, rho, LossVariant.I)))

        learner = CostSensitiveGD(1, eta=0.5, variant=LossVariant.I)
        online_total = 0.0
        for pos, vals, y in stream:
            online_total += learner.update(pos, vals, y, rho=rho)
        assert comp_total < online_total

    def test_one_epoch_equals_single_descent_pass(self):
        stream = [(np.array([0]), np.array([1.0]), 1)] * 5
        w = fit_comparator(stream, d=1, rho=3.0, variant=LossVariant.I,
                           epochs=1, eta0=0.5)
        cog = CostSensitiveGD(1, eta=0.5, variant=LossVariant.I)
        for pos, vals, y in stream:
            cog.update(pos, vals, y, rho=3.0)
        np.testing.assert_allclose(w, cog.w)

    def test_best_total_loss_nonincreasing_in_epochs(self):
        rng = np.random.default_rng(42)
        stream = make_stream(rng, d=5, T=60, separable_noise=0.1)
        rho = 2.0
        prev = None
        for epochs in (1, 5, 20):
            w = fit_comparator(stream, d=5, rho=rho, variant=LossVariant.II,
                               epochs=epochs)
            total = float(np.sum(stream_losses(w, stream, rho, LossVariant.II)))
            if prev is not None:
                assert total <= prev + 1e-9
            prev = total

    def test_epochs_must_be_positive(self):
        with pytest.raises(ValueError):
            fit_comparator([], d=1, rho=1.0, variant=LossVariant.I, epochs=0)


class TestRegretSlope:
    def test_sqrt_series_gives_half(self):
        t = np.arange(1, 2001)
        assert regret_slope(np.sqrt(t)) == pytest.approx(0.5, abs=1e-6)

    def test_linear_series_gives_one(self):
        t = np.arange(1, 2001)
        assert regret_slope(t.astype(float)) == pytest.approx(1.0, abs=1e-6)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            regret_slope(np.sqrt(np.arange(1, 50)))

    def test_nonpositive_tail_rejected(self):
        with pytest.raises(ValueError):
            regret_slope(np.full(200, -3.0))


class TestMetricBounds:
    def _run(self, variant, metric):
        rng = np.random.default_rng(43)
        d, T = 8, 400
        stream = make_stream(rng, d, T, separable_noise=0.05)
        t_pos = sum(1 for _, _, y in stream if y == 1)
        t_neg = T - t_pos
        alpha_p = alpha_n = 0.5
        c_p, c_n = 0.9, 0.1
        rho = (alpha_p * t_neg) / (alpha_n * t_pos) if metric == "sum" else c_p / c_n

        learner = AdaptiveCSGD(d, eta=1.0, gamma=1.0, variant=variant)
        cc = ConfusionCounts()
        losses = []
        for pos, vals, y in stream:
            s = learner.score(pos, vals)
            cc.record(1 if s >= 0 else -1, y)
            losses.append(learner.update(pos, vals, y, rho, score=s))
        w_star = fit_comparator(stream, d, rho, variant, epochs=25)
        comp_total = float(np.sum(stream_losses(w_star, stream, rho, variant)))
        learner_total = float(np.sum(losses))
        regret = learner_total - comp_total
        return cc, rho, comp_total, regret, (t_pos, t_neg)

    @pytest.mark.parametrize("variant", list(LossVariant))
    def test_weighted_sum_lower_bound(self, variant):
        cc, rho, comp_total, regret, (t_pos, t_neg) = self._run(variant, "sum")
        s = sum_metric(cc, 0.5, 0.5)
        bound = 1.0 - (0.5 / t_neg) * (comp_total + regret)
        assert s >= bound - 1e-9

    @pytest.mark.parametrize("variant", list(LossVariant))
    def test_weighted_cost_upper_bound(self, variant):
        cc, rho, comp_total, regret, _ = self._run(variant, "cost")
        c = cost_metric(cc, 0.9, 0.1)
        bound = 0.1 * (comp_total + regret)
        assert c <= bound + 1e-9

    @pytest.mark.parametrize("variant", list(LossVariant))
    def test_per_sample_domination_accumulates(self, variant):
        cc, rho, comp_total, regret, _ = self._run(variant, "sum")
        learner_total = comp_total + regret
        assert rho * cc.m_pos + cc.m_neg <= learner_total + 1e-9


class TestTraceCsv:
    def test_schema_and_round_trip(self, tmp_path):
        rows = [
            (1, 0.5, 0, 1, 0.75, 0.1),
            (2, 1.2345678901234567, 1, 1, 0.5, 1.0),
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,cum_loss,mistakes_pos,mistakes_neg,sum,cost"
        parsed = [l.split(",") for l in lines[1:]]
        for (rnd, cum, mp, mn, s, c), cells in zip(rows, parsed):
            assert int(cells[0]) == rnd
            assert float(cells[1]) == cum  # exact: shortest round-trip repr
            assert (int(cells[2]), int(cells[3])) == (mp, mn)
            assert float(cells[4]) == s and float(cells[5]) == c
