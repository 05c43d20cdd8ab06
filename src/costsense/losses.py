"""Cost-sensitive hinge surrogates and the class-bias multiplier rho.

Two convex stand-ins for the weighted mistake indicator are supported:
variant I widens the margin demanded of the rare class
(``max(0, rho_y - y*score)``), variant II steepens its slope
(``rho_y * max(0, 1 - y*score)``), where ``rho_y`` is ``rho`` for positive
labels and 1 for negative ones.  Both collapse to the ordinary hinge when
rho = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class LossVariant(IntEnum):
    I = 1
    II = 2


def class_weight(y: int, rho: float) -> float:
    """rho for the positive class, 1 for the negative class."""
    return rho if y == 1 else 1.0


def loss(variant: LossVariant, score: float, y: int, rho: float) -> float:
    """Surrogate loss at a precomputed score = mu . x."""
    if variant == LossVariant.I:
        return max(0.0, class_weight(y, rho) - y * score)
    return class_weight(y, rho) * max(0.0, 1.0 - y * score)


def gradient_scale(variant: LossVariant, y: int, rho: float, loss_value: float) -> float:
    """Coefficient a such that the subgradient w.r.t. mu is a * x.

    Zero when the hinge is inactive (loss exactly 0), so a zero return means
    "no update".  Variant II scales the slope by the class weight.
    """
    if loss_value <= 0.0:
        return 0.0
    if variant == LossVariant.I:
        return -float(y)
    return -class_weight(y, rho) * float(y)


def lane_class_weight(y: np.ndarray, rho) -> np.ndarray:
    """:func:`class_weight` of each label in ``y``, at one rho or at each
    label's own."""
    return np.where(y == 1, rho, 1.0)


def lane_slope(variant: LossVariant, y: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """:func:`gradient_scale` of an active loss per lane, from each lane's
    label and class weight (any shape, e.g. a chunk of rounds): ``-y`` for
    variant I, ``-weight * y`` for variant II."""
    if variant == LossVariant.I:
        return -y
    return -weight * y


def lane_active(variant: LossVariant, y: np.ndarray, weight, scores: np.ndarray) -> np.ndarray:
    """Where each lane's :func:`loss` is > 0, by the same floating-point test;
    a NaN score is passive.  The reference rule that tests compare
    :func:`lane_threshold` against; no ``advance`` calls it."""
    if variant == LossVariant.I:
        return weight - y * scores > 0.0
    return weight * (1.0 - y * scores) > 0.0


# the largest class weight at which a variant-II loss can round to 0 while
# y * score < 1: there weight * 2**-53 (1 - y * score just below 1) is at
# most 2**-1075, which rounds to 0
_TINY_WEIGHT = 2.0**-1022


def lane_threshold(variant: LossVariant, weight):
    """``thr`` with ``lane_active(variant, y, weight, s) == (y * s < thr)``
    for every weight >= 0 and every score, +-0, +-inf and NaN included, so
    that a round's activity test is one multiply and one compare.

    Variant I's is the weight itself: under gradual underflow a - b > 0
    exactly when b < a.  Variant II's is 1.0 for a weight above 2**-1022 and
    -inf for a zero weight; for a weight in between it is the exact boundary,
    which lies in (0, 1) (:func:`_variant_two_boundary`)."""
    if variant == LossVariant.I:
        return weight
    weight = np.asarray(weight, dtype=np.float64)
    thr = np.where(weight > _TINY_WEIGHT, 1.0, -np.inf)
    tiny = (weight > 0.0) & (weight <= _TINY_WEIGHT)
    if tiny.any():
        thr[tiny] = _variant_two_boundary(weight[tiny])
    return thr


def _variant_two_boundary(weight: np.ndarray) -> np.ndarray:
    """The least p with weight * (1 - p) not > 0, for each weight in
    (0, 2**-1022].  p = 0 keeps the loss at the weight and p = 1 zeroes it,
    and the loss falls with p, so a bisection over the bit patterns of the
    floats in [0, 1], which order as the floats do, finds it."""
    lo = np.zeros(weight.shape, dtype=np.int64)  # 0.0: active
    hi = np.full(weight.shape, np.float64(1.0).view(np.int64))  # 1.0: passive
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        active = weight * (1.0 - mid.view(np.float64)) > 0.0
        lo, hi = np.where(active, mid, lo), np.where(active, hi, mid)
    return hi.view(np.float64)


# the metrics a cost model optimizes, named as in ExperimentConfig
METRICS = ("sum", "cost")


@dataclass
class CostModel:
    """Metric weights plus the bias parameter rho and its supply mode.

    ``metric`` is ``"sum"`` or ``"cost"``; ``rho_mode`` is ``"oracle"``,
    ``"laplace"`` or ``"fixed:<value>"``, which is read as oracle mode with
    that ``rho``, and a given ``rho`` is fixed.  The cost metric's rho is
    c_p/c_n.  A sum-metric oracle rho comes from the dataset's class counts
    (:func:`resolve_rho`); a Laplace one is :meth:`laplace_rho` of the labels
    :func:`observe_label` has counted, per lane once it has seen lanes.
    """

    metric: str = "sum"
    alpha_p: float = 0.5
    alpha_n: float = 0.5
    c_p: float = 0.9
    c_n: float = 0.1
    rho_mode: str = "oracle"
    rho: float | None = None
    seen_pos: int = 0
    seen_neg: int = 0

    def __post_init__(self):
        if self.rho_mode.startswith("fixed:"):
            value = self.rho_mode.removeprefix("fixed:")
            try:
                self.rho_mode, self.rho = "oracle", float(value)
            except ValueError:
                raise ValueError(f"fixed rho must be a number, got {value!r}") from None
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.rho_mode not in ("oracle", "laplace"):
            raise ValueError(f"rho_mode must be 'oracle', 'laplace' or a fixed rho, "
                             f"got {self.rho_mode!r}")
        if not (0.0 <= self.alpha_p <= 1.0 and 0.0 < self.alpha_n <= 1.0):
            raise ValueError("alpha_p in [0,1] and alpha_n in (0,1] required")
        if abs(self.alpha_p + self.alpha_n - 1.0) > 1e-12:
            raise ValueError("alpha_p + alpha_n must equal 1")
        if not (0.0 <= self.c_p <= 1.0 and 0.0 < self.c_n <= 1.0):
            raise ValueError("c_p in [0,1] and c_n in (0,1] required")
        if abs(self.c_p + self.c_n - 1.0) > 1e-12:
            raise ValueError("c_p + c_n must equal 1")
        if self.rho is not None and not 0.0 < self.rho < math.inf:
            raise ValueError(f"rho must be finite and positive, got {self.rho}")
        if self.rho is None and self.metric == "cost":
            self.rho = self.c_p / self.c_n
        elif self.rho is None and self.rho_mode == "laplace":
            self.rho = self.laplace_rho(self.seen_pos, self.seen_neg)

    def laplace_rho(self, seen_pos, seen_neg):
        """The add-one-smoothed class ratio after ``seen_pos`` positive and
        ``seen_neg`` negative labels (ints, or arrays of counts)."""
        return (self.alpha_p * (seen_neg + 1)) / (self.alpha_n * (seen_pos + 1))


def resolve_rho(cm: CostModel, dataset_counts: tuple | None = None):
    """The rho this model should use right now.

    ``dataset_counts`` is (T_p, T_n), two counts or two arrays of per-lane
    counts, and is required only for the sum metric in oracle mode with no
    rho given.  Arrays give each lane's oracle rho, elementwise as for its
    own two counts; every lane needs a positive example.
    """
    if cm.rho is not None:
        return cm.rho
    if dataset_counts is None:
        raise ValueError("sum-metric oracle rho needs dataset counts (T_p, T_n)")
    t_p, t_n = dataset_counts
    if np.min(t_p) <= 0:
        raise ValueError("oracle rho undefined with no positive examples; "
                         "use rho mode 'laplace' or 'fixed:<value>' (--rho-mode)")
    return (cm.alpha_p * t_n) / (cm.alpha_n * t_p)


def observe_label(cm: CostModel, labels: np.ndarray):
    """Fold a nonempty block of revealed labels (+1/-1) into the running
    Laplace estimate and return each round's rho, counting that round's own
    label.

    Axis 0 of ``labels`` is rounds; any further axis is a lane with its own
    counts.  Outside Laplace mode, and under the cost metric, the stream does
    not move rho: the one fixed rho is returned and nothing is counted.
    """
    if cm.rho_mode != "laplace" or cm.metric == "cost":
        return cm.rho
    pos = cm.seen_pos + np.cumsum(labels == 1, axis=0)
    neg = cm.seen_neg + np.cumsum(labels != 1, axis=0)
    rho = cm.laplace_rho(pos, neg)
    cm.seen_pos, cm.seen_neg, cm.rho = pos[-1], neg[-1], rho[-1]
    return rho
