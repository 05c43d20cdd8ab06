"""The two per-round rules every pass shares, checked against plain loops.

Scalar passes and batched lane passes both move rho with ``observe_label``
and count mistakes with ``count_mistakes``, so comparing the two passes
cannot catch a fault in either rule.  These checks compare each rule with
the one-round definition it stands for.
"""

import numpy as np
import pytest

from costsense.baselines import predict_label
from costsense.losses import CostModel, observe_label
from costsense.metrics import ConfusionCounts, count_mistakes

ROUNDS, LANES = 50, 4
# uneven chunks, one of a single round, as a lane pass gathers them
CUTS = [0, 1, 8, 21, 50]


def labels_block(seed=5):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((ROUNDS, LANES)) < 0.3, 1, -1)


def in_chunks(cm, labels):
    return np.concatenate([observe_label(cm, labels[a:b]) for a, b in zip(CUTS, CUTS[1:])])


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_laplace_rho_equals_a_loop_per_lane(dtype):
    labels = labels_block().astype(dtype)
    cm = CostModel(alpha_p=0.3, alpha_n=0.7, rho_mode="laplace")
    got = in_chunks(cm, labels)
    expected = np.empty((ROUNDS, LANES))
    for j in range(LANES):
        pos = neg = 0
        for t in range(ROUNDS):
            pos, neg = pos + (labels[t, j] == 1), neg + (labels[t, j] != 1)
            expected[t, j] = (0.3 * (neg + 1)) / (0.7 * (pos + 1))
    assert np.array_equal(got, expected)  # bitwise
    assert np.array_equal(cm.rho, expected[-1])
    assert cm.seen_pos.tolist() == np.count_nonzero(labels == 1, axis=0).tolist()
    # one lane alone, as the scalar pass feeds it, gives that lane's column
    one = CostModel(alpha_p=0.3, alpha_n=0.7, rho_mode="laplace")
    assert np.array_equal(in_chunks(one, labels[:, 2]), expected[:, 2])


@pytest.mark.parametrize("fields,rho", [
    (dict(metric="cost", rho_mode="laplace"), 9.0),
    (dict(metric="cost"), 9.0),
    (dict(rho=2.5), 2.5),
    (dict(metric="cost", rho=2.5), 2.5),
], ids=["cost-laplace", "cost-oracle", "fixed", "fixed-cost"])
def test_fixed_rho_is_returned_as_is(fields, rho):
    cm = CostModel(**fields)
    for a, b in zip(CUTS, CUTS[1:]):
        assert observe_label(cm, labels_block()[a:b]) == rho
    assert cm.rho == rho and (cm.seen_pos, cm.seen_neg) == (0, 0)


def test_tally_equals_a_record_loop():
    rng = np.random.default_rng(9)
    labels = labels_block(9)
    scores = rng.choice([-1.5, -0.0, 0.0, np.nan, 1e-300, -1e-300, 2.0], size=(ROUNDS, LANES))
    m_pos, m_neg = count_mistakes(labels, scores)
    for j in range(LANES):
        cc = ConfusionCounts()
        for s, y in zip(scores[:, j].tolist(), labels[:, j].tolist()):
            cc.record(predict_label(s), y)
        assert (m_pos[j], m_neg[j]) == (cc.m_pos, cc.m_neg)
        assert tuple(map(int, count_mistakes(labels[:, j], scores[:, j]))) == (cc.m_pos, cc.m_neg)
    # ties predict +1 and NaN predicts -1
    ties = count_mistakes(np.array([-1, 1, -1, 1]), np.array([0.0, -0.0, np.nan, np.nan]))
    assert tuple(map(int, ties)) == (1, 1)
