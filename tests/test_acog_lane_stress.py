"""Stress tests of full-matrix ACOG's lane path on adversarial streams.

A lane pass (``AdaptiveCSGD.advance``) delays each loss-active round's
covariance term and applies ``PENDING_TERMS`` of them at once, where the
scalar ``update`` subtracts each term as it comes.  Hypothesis (derandomized,
no example database) draws the shape of each stream: duplicated rows,
one-hot rows and collinear rows, with norms over [1e-3, 1e3], under both
loss variants and both update rules.  Each stream runs through a one-lane
learner's ``advance`` (``eta=[0.5]``) one round at a time and through
``update`` beside it.  After every round,
so at every count of pending terms from 0 to ``PENDING_TERMS`` - 1:

- the lane learner's effective sigma is bitwise symmetric and its
  eigenvalues lie in (0, 1], up to ``EIG_SLACK`` above 1;
- sigma is within criterion 4's 1e-8 of the scalar recursion, and so is
  mu, relative to max(1, max |mu|).

The streams run for up to 600 rounds, and a stream whose active rounds are
few is checked anyway; ``test_streams_apply_the_terms_several_times`` shows
that the strategies reach several applications.
"""

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from costsense.acog import PENDING_TERMS, AdaptiveCSGD
from costsense.losses import LossVariant

# no shrink phase: a failing stream is reported as drawn, at once
STRESS = settings(derandomize=True, database=None, deadline=None, max_examples=30,
                  phases=[Phase.explicit, Phase.generate],
                  suppress_health_check=[HealthCheck.too_slow])

BOUND = 1e-8  # criterion 4's entrywise bound against the exact covariance
EIG_SLACK = 1e-12  # eigvalsh's rounding above 1, as in test_acog.py

dims = st.integers(1, 24)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
seeds = st.integers(0, 2**32 - 1)
rules = st.tuples(st.sampled_from(list(LossVariant)), st.sampled_from(["new", "old"]))


def unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def feed(stream, d, rule, seed, gamma=1.0):
    """Run ``stream`` of (positions, values) rows through a lane learner's
    ``advance`` and a scalar learner's ``update``, checking the bounds after
    every round.  Labels are random, one in three positive, at rho 3.
    Returns the number of loss-active rounds."""
    variant, update_rule = rule
    kw = dict(gamma=gamma, variant=variant, update_rule=update_rule)
    lanes, scalar = AdaptiveCSGD(d, eta=[0.5], **kw), AdaptiveCSGD(d, eta=0.5, **kw)
    rng = np.random.default_rng(seed)
    active = 0
    for pos, vals in stream:
        y = 1.0 if rng.random() < 1 / 3 else -1.0
        weight = 3.0 if y == 1.0 else 1.0
        lanes.advance(pos[None, None], vals[None, None], np.array([[y]]), np.array([[weight]]))
        active += scalar.update(pos, vals, y, weight) > 0.0
        assert lanes._pending == active % PENDING_TERMS
        sigma = lanes.sigma[0]
        assert np.array_equal(sigma, sigma.T)
        eig = np.linalg.eigvalsh(sigma)
        assert eig.min() > 0.0 and eig.max() <= 1.0 + EIG_SLACK, (eig.min(), eig.max())
        assert np.abs(sigma - scalar.sigma).max() <= BOUND
        mu = scalar.mu
        assert np.abs(lanes.mu[:, 0] - mu).max() <= BOUND * max(1.0, np.abs(mu).max())
    return active


def duplicated(d, distinct, rounds, scale, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(distinct):
        pos = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        rows.append((pos, scale * unit(rng, pos.size)))
    return [rows[i] for i in rng.integers(0, distinct, size=rounds)]


def collinear(d, rounds, seed):
    # one direction at norms over [1e-3, 1e3], either sign
    rng = np.random.default_rng(seed)
    pos, direction = np.arange(d), unit(rng, d)
    norms = 10.0 ** rng.uniform(-3.0, 3.0, size=rounds) * rng.choice([-1.0, 1.0], size=rounds)
    return [(pos, c * direction) for c in norms]


@STRESS
@given(dims, st.integers(1, 3), st.integers(50, 600), scales, rules, seeds)
def test_duplicated_rows(d, distinct, rounds, scale, rule, seed):
    feed(duplicated(d, distinct, rounds, scale, seed), d, rule, seed)


@STRESS
@given(dims, st.lists(st.tuples(st.integers(0, 23), scales, st.booleans()),
                      min_size=1, max_size=300), rules, seeds)
def test_one_hot_rows(d, draws, rule, seed):
    stream = [(np.array([j % d]), np.array([-v if neg else v])) for j, v, neg in draws]
    feed(stream, d, rule, seed)


@STRESS
@given(dims, st.integers(50, 600), rules, seeds)
def test_collinear_rows(d, rounds, rule, seed):
    feed(collinear(d, rounds, seed), d, rule, seed)


def test_streams_apply_the_terms_several_times():
    # the strategies' long streams reach several applications and stop
    # between two of them; at gamma 1e-2 on unit-scale rows most rounds are active
    active = feed(duplicated(12, 3, 600, 1.0, 5), 12, (LossVariant.II, "new"), 5, gamma=1e-2)
    assert active >= 3 * PENDING_TERMS and active % PENDING_TERMS
    active = feed(collinear(7, 500, 6), 7, (LossVariant.I, "old"), 6)
    assert active >= 3 * PENDING_TERMS and active % PENDING_TERMS
