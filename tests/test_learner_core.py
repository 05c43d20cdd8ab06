"""One constructor rule for every learner.

``baselines.LinearLearner`` checks the dimension and the step size and
allocates the weights for every learner that takes a step size: PA-I (its
``C``), COG, diagonal and full ACOG and both sketched learners.  So each of
them refuses the same bad arguments, and a number gives d weights while a
sequence of G values gives d x G (one lane per value).
"""

import inspect

import numpy as np
import pytest

from costsense.acog import AdaptiveCSGD
from costsense.baselines import CostSensitiveGD, LinearLearner, PassiveAggressiveI, Perceptron
from costsense.sacog import SketchedCSGD, SparseSketchedCSGD

LEARNERS = {
    "pa1": lambda d, step: PassiveAggressiveI(d, C=step),
    "cog": lambda d, step: CostSensitiveGD(d, eta=step),
    "acog-diag": lambda d, step: AdaptiveCSGD(d, eta=step, gamma=1.0, diagonal=True),
    "acog-full": lambda d, step: AdaptiveCSGD(d, eta=step, gamma=1.0),
    "sacog": lambda d, step: SketchedCSGD(d, eta=step, gamma=1.0, m=1),
    "ssacog": lambda d, step: SparseSketchedCSGD(d, eta=step, gamma=1.0, m=1),
}
every_learner = pytest.mark.parametrize("make", LEARNERS.values(), ids=LEARNERS.keys())


@every_learner
@pytest.mark.parametrize("d", [0, -20_000])  # not full ACOG's size check: d * d is large
def test_dimension_below_one_refused(make, d):
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        make(d, 1.0)


@every_learner
@pytest.mark.parametrize("step", [0.0, -1.0, [], [[0.1, 1.0]]], ids=["zero", "negative", "empty", "2-D"])
def test_bad_step_size_refused(make, step):
    with pytest.raises(ValueError):
        make(3, step)


@every_learner
def test_weights_have_one_column_per_step_size(make):
    assert make(3, 0.5).w.shape == (3,)
    assert make(3, [0.1, 1.0]).w.shape == (3, 2)


@every_learner
def test_every_learner_is_the_core(make):
    assert isinstance(make(3, 0.5), LinearLearner)


@pytest.mark.parametrize("make", [LEARNERS["acog-diag"], LEARNERS["acog-full"], LEARNERS["sacog"]])
def test_mean_is_the_core_weights_and_read_only(make):
    learner = make(3, 0.5)
    assert learner.mu is learner.w
    with pytest.raises(AttributeError):
        learner.mu = np.ones(3)


def test_perceptron_takes_the_dimension_alone():
    assert Perceptron(3).w.shape == (3,)
    with pytest.raises(TypeError):
        Perceptron(3, 0.5)


def test_perceptron_lanes_are_weight_columns():
    assert Perceptron(3, lanes=2).w.shape == (3, 2)
    with pytest.raises(ValueError, match="^lanes must be >= 1$"):
        Perceptron(3, lanes=0)


def test_sketched_signatures_name_their_arguments():
    names = ["d", "eta", "gamma", "m", "variant", "sketch_init", "seed", "sketch_every",
             "sketch_on_loss_only"]
    for cls in (SketchedCSGD, SparseSketchedCSGD):
        assert list(inspect.signature(cls).parameters) == names
