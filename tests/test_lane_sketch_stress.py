"""Stress tests of the sketch lane path on adversarial streams.

Every canonical-init sketched pass runs as lanes: ``OjaSketch.step``,
``SparseOjaSketch.step`` with its per-lane fold, the stacked ``decompose``
and ``orthonormalize_rows``, and the learners' ``advance``.  Here
test_sketch_stress's strategies drive G >= 3 lanes that fall out of step:
each lane reads a stream of its own, at a scale of its own, and only some
lanes step in a round, by a drawn mask, by ``sketch_on_loss_only`` or by
``sketch_every``, so some lanes fold while others do not.  After every
round every lane meets test_sketch_stress's bounds, with its constants, and
a ``SketchConditionError`` fails the test.

Rows are padded as ``Dataset.padded`` pads them: to the round's longest,
at a column (d) that no sample uses, with value 0.0.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sketch_stress import BOUNDS, STRESS, dims, normalized, scales, seeds, unit

from costsense.losses import LossVariant, lane_class_weight
from costsense.sacog import SketchedCSGD, SparseSketchedCSGD
from costsense.sketch import OjaSketch, SparseOjaSketch

# lane stacks cost a few numpy calls a round whatever G is, but the checks
# run every round, so fewer examples than the scalar file keep this file
# near its time budget
LANES = settings(STRESS, max_examples=15)

lane_counts = st.integers(3, 5)


def lane_errors(V, sparse) -> dict:
    """test_sketch_stress's errors of every lane at once, one entry per lane:
    the dense basis ``V`` (G x m x width) and the sparse sketch's."""
    eye = np.eye(sparse.m)
    Z = sparse.Z.transpose(1, 2, 0)  # lane g's m x width Z
    ZZ = Z @ Z.mT
    FZ = sparse.F @ Z
    return {
        "V": np.abs(V @ V.mT - eye).max(axis=(1, 2)),
        "K": np.abs(sparse.K - ZZ).max(axis=(1, 2)) / np.maximum(1.0, np.abs(ZZ).max(axis=(1, 2))),
        "FZ": np.abs(FZ @ FZ.mT - eye).max(axis=(1, 2)),
        "gap": np.abs(V - FZ).max(axis=(1, 2)),
    }


def assert_lanes_within_bounds(errors):
    # every lane against each bound; a NaN fails the comparison as well
    bad = {k: v.tolist() for k, v in errors.items() if not (v <= BOUNDS[k]).all()}
    assert not bad, bad


def pad(rows, d):
    """Each lane's (positions, values) as G x K arrays, padded at column d."""
    k = max(pos.size for pos, _ in rows)
    positions = np.full((len(rows), k), d)
    values = np.zeros((len(rows), k))
    for g, (pos, vals) in enumerate(rows):
        positions[g, :pos.size] = pos
        values[g, :pos.size] = vals
    return positions, values


def feed_lanes(streams, m, d, due_mask):
    """Run both sketches with a lane per stream, lane g stepping on its row
    of round t where ``due_mask[t, g]``; checks every lane after every round.
    Returns how many rounds each lane's sparse sketch folded."""
    lanes = len(streams)
    dense = OjaSketch(m, d + 1, lanes=lanes)
    sparse = SparseOjaSketch(m, d + 1, lanes=lanes)
    folds = np.zeros(lanes, dtype=np.int64)
    for mask, rows in zip(due_mask, zip(*streams)):
        ids = np.flatnonzero(mask)
        if ids.size == 0:
            continue
        due = slice(None) if ids.size == lanes else ids
        positions, values = pad([rows[g] for g in ids], d)
        dense.step(due, positions, values)
        flat = positions * lanes + ids[:, None]
        zrows = sparse.Z.reshape(-1, m).take(flat, axis=0)
        *_, fold = sparse.step(due, flat, values, zrows, np.vecdot(values, values))
        if fold is not None:
            folds[fold[0]] += 1
        assert_lanes_within_bounds(lane_errors(dense.V, sparse))
    return folds


def due_masks(rng, lanes, rounds):
    """Which lanes step in each round: every lane its own rate in [0.3, 1]."""
    return rng.random((rounds, lanes)) < rng.uniform(0.3, 1.0, lanes)


@LANES
@given(dims, lane_counts, st.integers(1, 3), st.integers(50, 400),
       st.lists(scales, min_size=5, max_size=5), seeds)
def test_lanes_of_duplicated_samples(dm, lanes, distinct, rounds, lane_scales, seed):
    d, m = dm
    rng = np.random.default_rng(seed)
    streams = []
    for scale in lane_scales[:lanes]:
        samples = []
        for _ in range(distinct):
            pos = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            samples.append((pos, scale * unit(rng, pos.size)))
        streams.append([samples[i] for i in rng.integers(0, distinct, size=rounds)])
    feed_lanes(streams, m, d, due_masks(rng, lanes, rounds))


@LANES
@given(dims, lane_counts, st.integers(1, 300), seeds)
def test_lanes_of_one_hot_samples(dm, lanes, rounds, seed):
    d, m = dm
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(lanes):
        values = rng.choice([-1.0, 1.0], rounds) * 10.0 ** rng.uniform(-3, 3, rounds)
        streams.append([(np.array([j]), np.array([v]))
                        for j, v in zip(rng.integers(0, d, size=rounds), values)])
    feed_lanes(streams, m, d, due_masks(rng, lanes, rounds))


@LANES
@given(dims, lane_counts, st.integers(50, 400), seeds)
def test_lanes_of_samples_of_rank_below_m(dm, lanes, rounds, seed):
    d, m = dm
    rng = np.random.default_rng(seed)
    pos = np.arange(d)
    streams = []
    for _ in range(lanes):
        r = int(rng.integers(1, m)) if m > 1 else 1
        basis = rng.standard_normal((r, d))
        scale = 10.0 ** rng.uniform(-3, 3)
        streams.append([(pos, scale * normalized(rng.standard_normal(r) @ basis))
                        for _ in range(rounds)])
    feed_lanes(streams, m, d, due_masks(rng, lanes, rounds))


def test_some_lanes_fold_while_others_do_not():
    # one duplicated sample per lane at scales 1e3, 1 and 1e-3: the first
    # lane's tr(K) passes FOLD_TRACE within a few rounds, and is folded back
    # again and again, while the others never reach it
    d, m, rounds = 6, 3, 400
    rng = np.random.default_rng(0)
    streams = [[(np.arange(d), scale * unit(rng, d))] * rounds for scale in (1e3, 1.0, 1e-3)]
    folds = feed_lanes(streams, m, d, due_masks(rng, 3, rounds))
    assert folds[0] >= 1 and folds[1] == 0 and folds[2] == 0, folds


@LANES
@given(dims, lane_counts, st.integers(100, 400), st.integers(50, 200),
       st.sampled_from(list(LossVariant)), st.booleans(), st.integers(1, 3), scales, seeds)
def test_lane_learners_after_long_prefix_of_one_class(dm, lanes, prefix, rest, variant, loss_only,
                                                      every, scale, seed):
    # each lane opens with a one-class run of its own length and label, at
    # its own eta; sketch_on_loss_only and sketch_every leave lanes out of
    # step, so their sketches count different rounds
    d, m = dm
    rng = np.random.default_rng(seed)
    etas = 10.0 ** rng.uniform(-2, 1, lanes)
    kw = dict(eta=etas, gamma=scale**-2, m=m, variant=variant, sketch_every=every,
              sketch_on_loss_only=loss_only)
    dense, sparse = SketchedCSGD(d + 1, **kw), SparseSketchedCSGD(d + 1, **kw)
    rounds = prefix + rest
    first = rng.choice([-1, 1], lanes)
    ones = rng.integers(prefix // 2, prefix + 1, lanes)
    y = np.where(np.arange(rounds)[:, None] < ones, first,
                 np.where(rng.random((rounds, lanes)) < 0.3, 1, -1)).astype(np.float64)
    weight = lane_class_weight(y, 3.0)
    lane = np.arange(lanes)[:, None]
    for t in range(rounds):
        rows = [(np.sort(rng.choice(d, size=n, replace=False)), unit(rng, n))
                for n in rng.integers(1, d + 1, lanes)]
        positions, values = pad(rows, d)
        chunk = ((positions * lanes + lane)[None], values[None], y[t:t + 1], weight[t:t + 1])
        dense.advance(*chunk)
        sparse.advance(*chunk)
        errors = lane_errors(dense.sketch.V, sparse.sketch)
        mu = dense.mu
        implied = sparse.w + np.einsum("dgm,gm->dg", sparse.sketch.Z, sparse.b)
        errors["mu"] = np.abs(mu - implied).max(axis=0) / np.maximum(1.0, np.abs(mu).max(axis=0))
        assert_lanes_within_bounds(errors)
