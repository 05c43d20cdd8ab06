"""Stress tests of the dense and sparse Oja sketches on adversarial streams.

Hypothesis (derandomized, no example database) draws the shape of each
stream: duplicated samples, one-hot samples, samples confined to a subspace
of rank < m, and learner streams that open with a long run of one class.
Sample norms range over [1e-3, 1e3], the span that x / sqrt(gamma) covers
for gamma in [1e-6, 1e6] on unit-norm rows, so the sparse sketch's Gram
matrix crosses ``FOLD_TRACE`` on many of them and folds F into Z.  After
every round each bound below holds; a ``SketchConditionError`` fails the test,
since K's eigenvalues stay >= 1 and the basis cannot lose rank.

Each bound is at least five times the worst value measured over these strategies.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from costsense.losses import LossVariant
from costsense.sacog import SketchedCSGD, SparseSketchedCSGD
from costsense.sketch import OjaSketch, SparseOjaSketch

# no shrink phase: a failing stream is reported as drawn, at once
STRESS = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                  phases=[Phase.explicit, Phase.generate],
                  suppress_health_check=[HealthCheck.too_slow])

# worst measured: K 2.0e-13, FZ 7.7e-11, V 1.7e-11, gap 1.4e-9, mu 9.7e-10
K_BOUND = 2e-12  # max |K - Z Z^T|, relative to max(1, max |Z Z^T|)
FZ_BOUND = 1e-9  # max |(F Z)(F Z)^T - I|
V_BOUND = 2e-10  # max |V V^T - I| of the dense sketch
GAP_BOUND = 1.5e-8  # max |V - F Z|: dense and sparse bases agree
MU_BOUND = 5e-9  # max |mu_dense - (w + Z^T b)|, relative to max(1, max |mu_dense|)

dims = st.integers(2, 24).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, min(5, d))))
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
seeds = st.integers(0, 2**32 - 1)


def dense_errors(dense):
    m = dense.m
    return {"V": np.abs(dense.V @ dense.V.T - np.eye(m)).max()}


def sparse_errors(dense, sparse):
    ZZ = sparse.Z @ sparse.Z.T
    FZ = sparse.F @ sparse.Z
    return {
        "K": np.abs(sparse.K - ZZ).max() / max(1.0, np.abs(ZZ).max()),
        "FZ": np.abs(FZ @ FZ.T - np.eye(sparse.m)).max(),
        "gap": np.abs(dense.V - FZ).max(),
    }


BOUNDS = {"K": K_BOUND, "FZ": FZ_BOUND, "V": V_BOUND, "gap": GAP_BOUND, "mu": MU_BOUND}


def assert_within_bounds(errors):
    # a NaN fails the comparison as well
    bad = {k: v for k, v in errors.items() if not v <= BOUNDS[k]}
    assert not bad, bad


def feed(stream, m, d, check_every=1):
    """Run both sketches over ``stream``, checking the bounds every
    ``check_every`` rounds.  Returns the number of rounds the sparse sketch folded."""
    dense, sparse = OjaSketch(m, d), SparseOjaSketch(m, d)
    folds = 0
    for t, (pos, vals) in enumerate(stream):
        dense.update(pos, vals)
        sparse.update(pos, vals)
        folds += sparse.last_fold is not None
        if t % check_every == 0:
            errors = dense_errors(dense)
            errors.update(sparse_errors(dense, sparse))
            assert_within_bounds(errors)
    return folds


def normalized(x):
    return x / np.linalg.norm(x)


def unit(rng, n):
    return normalized(rng.standard_normal(n))


@STRESS
@given(dims, st.integers(1, 3), st.integers(50, 600), scales, seeds)
def test_duplicated_samples(dm, distinct, rounds, scale, seed):
    d, m = dm
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(distinct):
        pos = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        samples.append((pos, scale * unit(rng, pos.size)))
    order = rng.integers(0, distinct, size=rounds)
    feed((samples[i] for i in order), m, d)


@STRESS
@given(dims, st.lists(st.tuples(st.integers(0, 23), scales, st.booleans()),
                      min_size=1, max_size=300))
def test_one_hot_samples(dm, draws):
    d, m = dm
    stream = [(np.array([j % d]), np.array([-v if neg else v])) for j, v, neg in draws]
    feed(stream, m, d)


@STRESS
@given(dims, st.integers(50, 600), scales, seeds)
def test_samples_of_rank_below_m(dm, rounds, scale, seed):
    d, m = dm
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, m)) if m > 1 else 1
    basis = rng.standard_normal((r, d))
    pos = np.arange(d)
    stream = ((pos, scale * normalized(rng.standard_normal(r) @ basis)) for _ in range(rounds))
    feed(stream, m, d)


@settings(STRESS, max_examples=2)
@given(st.integers(2, 12), seeds)
def test_long_duplicated_stream(d, seed):
    # one unit sample for 10k rounds: Z grows along it and, without folds,
    # cond(K) ~ t^2; here K passes FOLD_TRACE and is folded back to I
    rng = np.random.default_rng(seed)
    sample = (np.arange(d), unit(rng, d))
    assert feed((sample for _ in range(10_001)), min(3, d), d, check_every=500) >= 1


@STRESS
@given(dims, st.integers(100, 500), st.integers(50, 300), st.sampled_from([1, -1]),
       st.sampled_from(list(LossVariant)), st.booleans(), scales, seeds)
def test_learners_after_long_prefix_of_one_class(dm, prefix, rest, first_label, variant,
                                                 loss_only, scale, seed):
    d, m = dm
    rng = np.random.default_rng(seed)
    kw = dict(eta=0.5, gamma=scale**-2, m=m, variant=variant, sketch_on_loss_only=loss_only)
    dense, sparse = SketchedCSGD(d, **kw), SparseSketchedCSGD(d, **kw)
    labels = [first_label] * prefix + [1 if rng.random() < 0.3 else -1 for _ in range(rest)]
    for y in labels:
        pos = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        vals = unit(rng, pos.size)
        dense.update(pos, vals, y, rho=3.0)
        sparse.update(pos, vals, y, rho=3.0)
        errors = sparse_errors(dense.sketch, sparse.sketch)
        errors.update(dense_errors(dense.sketch))
        mu = dense.mu
        errors["mu"] = np.abs(mu - sparse.materialize_mu()).max() / max(1.0, np.abs(mu).max())
        assert_within_bounds(errors)


def test_bounds_catch_a_corrupted_sketch():
    # the checks above must be able to fail: a sketch whose K no longer
    # matches Z breaks the K bound
    dense, sparse = OjaSketch(2, 4), SparseOjaSketch(2, 4)
    sparse.K[0, 0] += 1e-6
    with pytest.raises(AssertionError, match="K"):
        assert_within_bounds(sparse_errors(dense, sparse))
