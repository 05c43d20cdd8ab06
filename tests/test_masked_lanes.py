"""A sketched lane's step, or a perceptron lane's, touches no other lane.

``SketchedCSGD.advance`` and ``SparseSketchedCSGD.advance`` compute each
round's mean (or ``b``) step for every lane and write it back only where the
lane's loss is positive (``where=``), as ``Perceptron.advance`` writes y x
back only where a lane's score was a mistake.  So a passive lane keeps its
weights bit for bit, and what a lane does cannot depend on what the other
lanes hold, even inf or NaN.  Both rest on numpy: ``where=`` leaving masked
entries untouched, and stacked matmul giving each lane the same bits
whatever the other lanes hold.
"""

from pathlib import Path

import numpy as np
import pytest

from costsense import harness
from costsense.data import load_dataset
from costsense.harness import ExperimentConfig
from costsense.losses import lane_active
from costsense.sketch import lane_products, to_sketch_vector

TOY = Path(__file__).resolve().parent.parent / "datasets" / "toy_imbalanced.libsvm"

CADENCES = {"every": {}, "lazy-3": dict(sketch_lazy=3), "loss-only": dict(sketch_on_loss_only=True)}


@pytest.fixture(scope="module")
def toy():
    return load_dataset(TOY)


@pytest.mark.parametrize("cadence", CADENCES)
@pytest.mark.parametrize("algo", ["sacog2", "ssacog2"])
def test_passive_lanes_keep_their_weights(toy, monkeypatch, algo, cadence):
    # chunks of one round: after each, every lane whose loss was 0 has the
    # weights it had before.  The sparse learner's w also absorbs its
    # sketch's move in the rounds the sketch is due, -(delta . b) xhat on
    # the row's entries, with delta = Z x / t: expected as update takes it
    cfg = ExperimentConfig(algo=algo, rho_mode="laplace", **CADENCES[cadence])
    checked = {"lanes": 0, "due lanes": 0, "mixed rounds": 0}
    make = harness.make_learner

    def make_learner(*args):
        lanes = make(*args)
        advance, sk = lanes.advance, lanes.sketch

        def checked_advance(flat, values, y, weight, sq_norms=None):
            w, b, t = lanes.w.copy(), getattr(lanes, "b", None), sk.t.copy()
            if b is not None:
                b, zrows = b.copy(), sk.Z.reshape(-1, sk.m).take(flat[0], axis=0)
            scores = advance(flat, values, y, weight, sq_norms)
            passive = ~lane_active(lanes.variant, y[0], weight[0], scores[0])
            checked["mixed rounds"] += bool(passive.any() and not passive.all())
            checked["lanes"] += np.count_nonzero(passive)
            if b is not None:
                assert np.array_equal(lanes.b[passive], b[passive])
                due = (sk.t != t)[:, 0]
                xhat = to_sketch_vector(values[0], lanes.gamma)
                delta = 1.0 / sk.t * lane_products(zrows, xhat)
                moved = w.reshape(-1)[flat[0]] - np.vecdot(delta, b)[:, None] * xhat
                w.reshape(-1)[flat[0][due]] = moved[due]
                checked["due lanes"] += np.count_nonzero(passive & due & b.any(axis=1))
            assert np.array_equal(lanes.w[:, passive], w[:, passive])
            return scores
        lanes.advance = checked_advance
        return lanes

    monkeypatch.setattr(harness, "make_learner", make_learner)
    slots = toy.padded(cfg.sketch_size).positions.shape[1]
    etas = [eta for eta in (0.01, 1.0, 100.0) for _ in range(2)]
    seeds = [3, 4] * 3
    monkeypatch.setattr(harness, "LANE_GATHER_ENTRIES", len(etas) * slots)
    harness._pass_rows(cfg, toy, etas, seeds, [toy.order(s) for s in seeds])
    assert checked["mixed rounds"] > 50 and checked["lanes"] > 100
    if algo == "ssacog2" and cadence != "loss-only":
        assert checked["due lanes"] > 100


def test_passive_perceptron_lanes_keep_their_weights(toy, monkeypatch):
    # chunks of one round: after each, a lane that scored its row right has
    # the weights it had before, and a mistaken lane added y x to its row's
    cfg = ExperimentConfig(algo="perceptron")
    checked = {"lanes": 0, "mixed rounds": 0}
    make = harness.make_learner

    def make_learner(*args):
        lanes = make(*args)
        advance = lanes.advance

        def checked_advance(flat, values, y, weight, sq_norms=None):
            w = lanes.w.copy()
            scores = advance(flat, values, y, weight, sq_norms)
            passive = y[0] * scores[0] > 0.0
            checked["mixed rounds"] += bool(passive.any() and not passive.all())
            checked["lanes"] += np.count_nonzero(passive)
            assert lanes.w[:, passive].tobytes() == w[:, passive].tobytes()
            w.reshape(-1)[flat[0]] += y[0][:, None] * values[0]
            assert lanes.w[:, ~passive].tobytes() == w[:, ~passive].tobytes()
            return scores
        lanes.advance = checked_advance
        return lanes

    monkeypatch.setattr(harness, "make_learner", make_learner)
    seeds = list(range(6))
    monkeypatch.setattr(harness, "LANE_GATHER_ENTRIES", len(seeds) * toy.padded().positions.shape[1])
    harness._pass_rows(cfg, toy, [1.0] * len(seeds), seeds, [toy.order(s) for s in seeds])
    assert checked["mixed rounds"] > 50 and checked["lanes"] > 100


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("cadence", CADENCES)
@pytest.mark.parametrize("algo", ["sacog2", "ssacog2"])
def test_lanes_beside_overflowing_lanes_keep_their_own_pass(toy, algo, cadence):
    # eta 1e300 and 1e308 overflow their lanes' weights to inf and NaN (as a
    # one-lane pass at that eta does, with the same warnings); the block gives
    # every lane the mistakes of its own one-lane pass
    cfg = ExperimentConfig(algo=algo, **CADENCES[cadence])
    etas = [1.0, 1e300, 1e-3, 1e308]
    order = toy.order(0)

    def mistakes(rows):
        return [(r["mistakes_pos"], r["mistakes_neg"]) for r in rows]

    block = mistakes(harness._pass_rows(cfg, toy, etas, [0] * len(etas), [order] * len(etas)))
    alone = [mistakes(harness._pass_rows(cfg, toy, [eta], [0], [order]))[0] for eta in etas]
    assert block == alone
    if cadence == "every":
        assert block == [(15, 39), (17, 52), (21, 39), (73, 1)]
