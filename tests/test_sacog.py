import numpy as np
import pytest

from costsense.acog import AdaptiveCSGD
from costsense.losses import LossVariant
from costsense.sacog import SketchedCSGD, SparseSketchedCSGD


def sparse(*pairs):
    pos, vals = zip(*pairs)
    return np.array(pos, dtype=np.int64), np.array(vals, dtype=np.float64)


def random_sparse(rng, d, max_nnz=None):
    nnz = int(rng.integers(1, (max_nnz or d) + 1))
    pos = np.sort(rng.choice(d, size=nnz, replace=False))
    return pos, rng.standard_normal(nnz)


class TestSketchedStep:
    def test_hand_example(self):
        # m=1, d=2, x=(2,0), loss active: sketch gives S=(2,0), H=0.2;
        # g=(-2,0); mu = -eta*(g - S^T H S g) = (0.4, 0)
        mdl = SketchedCSGD(2, eta=1.0, gamma=1.0, m=1, variant=LossVariant.I)
        l = mdl.update(*sparse((0, 2.0)), y=1, rho=10.0)
        assert l == pytest.approx(10.0)
        np.testing.assert_allclose(mdl.mu, [0.4, 0.0], atol=1e-14)

    def test_matches_full_second_order_learner_on_same_stream(self):
        # the hand example's stream keeps the second-order matrix rank one,
        # where the sketched correction is exact
        mdl = SketchedCSGD(2, eta=1.0, gamma=1.0, m=1, variant=LossVariant.I)
        full = AdaptiveCSGD(2, eta=1.0, gamma=1.0, variant=LossVariant.I)
        mdl.update(*sparse((0, 2.0)), y=1, rho=10.0)
        full.update(*sparse((0, 2.0)), y=1, rho=10.0)
        np.testing.assert_allclose(mdl.mu, full.mu, atol=1e-12)

    def test_passive_round_advances_sketch_but_not_mu(self):
        mdl = SketchedCSGD(3, eta=0.5, gamma=1.0, m=2, variant=LossVariant.I)
        mdl.mu[0] = 10.0  # big margin: next positive sample has zero loss
        l = mdl.update(*sparse((0, 1.0)), y=1, rho=2.0)
        assert l == 0.0
        assert mdl.sketch.t == 1
        np.testing.assert_array_equal(mdl.mu, [10.0, 0.0, 0.0])

    def test_zero_sketch_degrades_to_plain_gradient(self):
        # with S = 0 the corrected step is exactly the first-order step
        mdl = SketchedCSGD(3, eta=0.5, gamma=1.0, m=1, sketch_every=10)
        mdl.rounds = 1  # off-cadence: the sketch stays at S = 0
        mdl.update(*sparse((1, 2.0)), y=1, rho=3.0)
        assert mdl.sketch.t == 0
        np.testing.assert_allclose(mdl.mu, [0.0, 0.5 * 2.0, 0.0])

    def test_on_loss_only_flag_skips_passive_rounds(self):
        mdl = SketchedCSGD(
            3, eta=0.5, gamma=1.0, m=1, sketch_on_loss_only=True
        )
        mdl.mu[0] = 10.0
        mdl.update(*sparse((0, 1.0)), y=1, rho=2.0)  # passive
        assert mdl.sketch.t == 0
        mdl.update(*sparse((0, 1.0)), y=-1, rho=2.0)  # active
        assert mdl.sketch.t == 1

    def test_single_direction_stream_tracks_full_learner(self):
        # rank-one data with m=1: sketched and full trajectories coincide
        rng = np.random.default_rng(30)
        sk = SketchedCSGD(4, eta=0.05, gamma=1.0, m=1, variant=LossVariant.I)
        full = AdaptiveCSGD(4, eta=0.05, gamma=1.0, variant=LossVariant.I)
        for _ in range(100):
            c = float(rng.uniform(0.5, 1.5))
            pos, vals = sparse((0, c))
            y = 1  # small eta keeps every round loss-active for rho = 5
            l1 = sk.update(pos, vals, y, rho=5.0)
            l2 = full.update(pos, vals, y, rho=5.0)
            assert l1 > 0 and l2 > 0
            np.testing.assert_allclose(sk.mu, full.mu, atol=1e-9)


class TestSparseSketchedStep:
    def test_lazy_score_collapses_to_w_dot_x_when_b_zero(self):
        mdl = SparseSketchedCSGD(4, eta=1.0, gamma=1.0, m=2)
        mdl.w[:] = [1.0, 2.0, 0.0, -1.0]
        pos, vals = sparse((0, 1.0), (3, 2.0))
        assert mdl.lazy_score(pos, vals) == pytest.approx(-1.0)

    def test_lazy_score_projects_through_z(self):
        mdl = SparseSketchedCSGD(4, eta=1.0, gamma=1.0, m=2)
        mdl.b[:] = [1.0, 0.0]  # Z rows are canonical: picks x's first coord
        pos, vals = sparse((0, 0.7), (2, 5.0))
        assert mdl.lazy_score(pos, vals) == pytest.approx(0.7)

    def test_lazy_score_matches_materialized_weights(self):
        rng = np.random.default_rng(31)
        mdl = SparseSketchedCSGD(12, eta=0.3, gamma=1.0, m=3, variant=LossVariant.II)
        for _ in range(200):
            pos, vals = random_sparse(rng, 12)
            y = 1 if rng.random() < 0.3 else -1
            mdl.update(pos, vals, y, rho=2.0)
            probe_pos, probe_vals = random_sparse(rng, 12)
            lazy = mdl.lazy_score(probe_pos, probe_vals)
            direct = float(mdl.materialize_mu()[probe_pos] @ probe_vals)
            assert abs(lazy - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_materialize_fresh_model_is_zero(self):
        mdl = SparseSketchedCSGD(5, eta=1.0, gamma=1.0, m=2)
        np.testing.assert_array_equal(mdl.materialize_mu(), np.zeros(5))

    def test_materialize_idempotent(self):
        rng = np.random.default_rng(32)
        mdl = SparseSketchedCSGD(6, eta=0.5, gamma=1.0, m=2)
        for _ in range(20):
            pos, vals = random_sparse(rng, 6)
            mdl.update(pos, vals, 1 if rng.random() < 0.5 else -1, rho=2.0)
        np.testing.assert_array_equal(mdl.materialize_mu(), mdl.materialize_mu())

    def test_first_active_round_matches_dense_sketched(self):
        a = SketchedCSGD(2, eta=1.0, gamma=1.0, m=1, variant=LossVariant.I)
        b = SparseSketchedCSGD(2, eta=1.0, gamma=1.0, m=1, variant=LossVariant.I)
        pos, vals = sparse((0, 2.0))
        a.update(pos, vals, y=1, rho=10.0)
        b.update(pos, vals, y=1, rho=10.0)
        np.testing.assert_allclose(b.materialize_mu(), a.mu, atol=1e-12)

    def test_passive_round_fresh_model_leaves_w_b_unchanged(self):
        mdl = SparseSketchedCSGD(3, eta=0.5, gamma=1.0, m=1)
        mdl.w[0] = 10.0  # margin met; b is still zero
        l = mdl.update(*sparse((0, 1.0)), y=1, rho=2.0)
        assert l == 0.0
        assert mdl.sketch.t == 1  # sketch advanced anyway
        np.testing.assert_array_equal(mdl.w, [10.0, 0.0, 0.0])
        np.testing.assert_array_equal(mdl.b, np.zeros(1))

    def test_passive_round_keeps_implied_weights_fixed(self):
        # once b != 0, a passive round moves Z under b; the bookkeeping
        # shift on w must keep w + Z^T b (and so every score) unchanged
        rng = np.random.default_rng(33)
        mdl = SparseSketchedCSGD(6, eta=0.5, gamma=1.0, m=2, variant=LossVariant.I)
        for _ in range(30):
            pos, vals = random_sparse(rng, 6)
            mdl.update(pos, vals, 1 if rng.random() < 0.5 else -1, rho=2.0)
        assert np.any(mdl.b)
        mu_before = mdl.materialize_mu()
        # manufacture a passive round: huge positive margin sample
        big = mu_before.copy()
        pos = np.argsort(-np.abs(big))[:2]
        pos = np.sort(pos)
        vals = np.sign(big[pos]) + (big[pos] == 0)
        l = mdl.update(pos, vals * 100.0, y=1, rho=1e-6)
        if l == 0.0:
            np.testing.assert_allclose(mdl.materialize_mu(), mu_before, atol=1e-12)

    def test_w_update_touches_only_sample_support(self):
        rng = np.random.default_rng(34)
        d = 1000
        mdl = SparseSketchedCSGD(d, eta=0.5, gamma=1.0, m=3, variant=LossVariant.I)
        for _ in range(40):
            pos, vals = random_sparse(rng, d, max_nnz=3)
            w_before = mdl.w.copy()
            mdl.update(pos, vals, 1 if rng.random() < 0.5 else -1, rho=2.0)
            changed = np.where(mdl.w != w_before)[0]
            assert set(changed.tolist()) <= set(pos.tolist())

    def test_lazy_cadence_skips_sketch_but_keeps_weights_consistent(self):
        rng = np.random.default_rng(37)
        mdl = SparseSketchedCSGD(8, eta=0.5, gamma=1.0, m=2, sketch_every=3)
        for t in range(30):
            pos, vals = random_sparse(rng, 8)
            y = 1 if rng.random() < 0.4 else -1
            mu_before = mdl.materialize_mu()
            s = mdl.lazy_score(pos, vals)
            l = mdl.update(pos, vals, y, rho=2.0, score=s)
            if l == 0.0:
                # sketch moves only on-cadence; weights must never drift
                np.testing.assert_allclose(mdl.materialize_mu(), mu_before,
                                           atol=1e-12)
        assert mdl.sketch.t == 10  # rounds 0, 3, 6, ..., 27

    def test_equivalence_holds_under_shared_lazy_cadence(self):
        rng = np.random.default_rng(38)
        d = 15
        a = SketchedCSGD(d, eta=0.5, gamma=1.0, m=3, sketch_every=4,
                         variant=LossVariant.II)
        b = SparseSketchedCSGD(d, eta=0.5, gamma=1.0, m=3, sketch_every=4,
                               variant=LossVariant.II)
        for _ in range(200):
            pos, vals = random_sparse(rng, d)
            y = 1 if rng.random() < 0.3 else -1
            a.update(pos, vals, y, rho=2.5)
            b.update(pos, vals, y, rho=2.5)
            assert np.abs(a.mu - b.materialize_mu()).max() <= 1e-9
        assert a.sketch.t == b.sketch.t == 50

    def test_touched_state_is_dimension_independent(self):
        # embed the same stream in two ambient dimensions: the number of
        # modified entries per round must match (m^2 + m*s work, never O(d))
        def run(d):
            rng = np.random.default_rng(35)
            mdl = SparseSketchedCSGD(d, eta=0.5, gamma=1.0, m=3, variant=LossVariant.I)
            counts = []
            for _ in range(60):
                nnz = int(rng.integers(1, 6))
                pos = np.sort(rng.choice(50, size=nnz, replace=False))
                vals = rng.standard_normal(nnz)
                y = 1 if rng.random() < 0.5 else -1
                before = (
                    mdl.w.copy(),
                    mdl.b.copy(),
                    mdl.sketch.Z.copy(),
                    mdl.sketch.F.copy(),
                    mdl.sketch.K.copy(),
                )
                mdl.update(pos, vals, y, rho=2.0)
                after = (mdl.w, mdl.b, mdl.sketch.Z, mdl.sketch.F, mdl.sketch.K)
                counts.append(sum(int((a != b).sum()) for a, b in zip(before, after)))
            return counts

        assert run(200) == run(5000)


class TestLearnerEquivalence:
    @pytest.mark.parametrize("m,variant", [(1, LossVariant.I), (3, LossVariant.II)])
    def test_per_round_agreement(self, m, variant):
        rng = np.random.default_rng(36 + m)
        d = 25
        a = SketchedCSGD(d, eta=0.5, gamma=1.0, m=m, variant=variant)
        b = SparseSketchedCSGD(d, eta=0.5, gamma=1.0, m=m, variant=variant)
        for _ in range(500):
            pos, vals = random_sparse(rng, d)
            y = 1 if rng.random() < 0.3 else -1
            sa = a.score(pos, vals)
            sb = b.lazy_score(pos, vals)
            assert abs(sa - sb) <= 1e-6 * max(1.0, abs(sa))
            a.update(pos, vals, y, rho=3.0, score=sa)
            b.update(pos, vals, y, rho=3.0, score=sb)
            assert np.abs(a.mu - b.materialize_mu()).max() <= 1e-6

    def test_folds_keep_implied_weights(self):
        # gamma = 1e-2 makes |xhat|^2 ~ 100 |x|^2: the sparse sketch's K
        # passes FOLD_TRACE within a few rounds and folds many times
        rng = np.random.default_rng(38)
        d = 6
        a = SketchedCSGD(d, eta=0.5, gamma=1e-2, m=2)
        b = SparseSketchedCSGD(d, eta=0.5, gamma=1e-2, m=2)
        folds = 0
        for _ in range(300):
            pos, vals = random_sparse(rng, d)
            vals /= np.linalg.norm(vals)
            y = 1 if rng.random() < 0.3 else -1
            a.update(pos, vals, y, rho=3.0)
            b.update(pos, vals, y, rho=3.0)
            folds += b.sketch.last_fold is not None
            assert np.abs(a.mu - b.materialize_mu()).max() <= 1e-9 * max(1.0, np.abs(a.mu).max())
            # w and Z^T b do not grow apart: nothing cancels far above mu's size
            assert np.abs(b.w).max() <= 1e4 * max(1.0, np.abs(a.mu).max())
        assert folds >= 10
