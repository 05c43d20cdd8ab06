"""Cost-sensitive performance accounting and empirical regret measurement.

Mistakes are tallied prequentially: the prediction is made before the label
is revealed, with ties (score = 0) counted as positive predictions and NaN
scores as negative ones.  The weighted sum metric lives in [0, 1]; callers
that want the percent scale used in benchmark tables multiply by 100 at the
reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import CostSensitiveGD
from .losses import LossVariant, loss


@dataclass
class ConfusionCounts:
    """Labels seen and mistakes made, split by class."""

    t_pos: int = 0
    t_neg: int = 0
    m_pos: int = 0
    m_neg: int = 0

    def record(self, predicted: int, truth: int) -> "ConfusionCounts":
        if truth == 1:
            self.t_pos += 1
            if predicted != 1:
                self.m_pos += 1
        else:
            self.t_neg += 1
            if predicted != -1:
                self.m_neg += 1
        return self

    @property
    def sensitivity(self) -> float:
        if self.t_pos == 0:
            raise ZeroDivisionError("sensitivity undefined with no positive examples")
        return (self.t_pos - self.m_pos) / self.t_pos

    @property
    def specificity(self) -> float:
        if self.t_neg == 0:
            raise ZeroDivisionError("specificity undefined with no negative examples")
        return (self.t_neg - self.m_neg) / self.t_neg


def count_mistakes(labels: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative mistakes of each lane over a block of rounds: axis 0
    of ``labels`` (+1/-1) and ``scores`` is rounds, any further axis a lane.  A
    score predicts +1 when it is >= 0 (``predict_label``'s rule)."""
    plus = scores >= 0.0
    return (np.count_nonzero((labels == 1) & ~plus, axis=0),
            np.count_nonzero((labels != 1) & plus, axis=0))


def class_rates(cc: ConfusionCounts, empty_class: str = "error") -> tuple[float, float]:
    """(sensitivity, specificity) in [0, 1].  A class with no examples is an
    error, or counts as fully correct under ``empty_class="perfect"``."""
    if (cc.t_pos == 0 or cc.t_neg == 0) and empty_class != "perfect":
        raise ValueError(
            "sum metric undefined: a class has no examples "
            "(pass empty_class='perfect' to count it as fully correct)"
        )
    return (cc.sensitivity if cc.t_pos else 1.0), (cc.specificity if cc.t_neg else 1.0)


def sum_metric(
    cc: ConfusionCounts, alpha_p: float, alpha_n: float, empty_class: str = "error"
) -> float:
    """alpha_p * sensitivity + alpha_n * specificity, in [0, 1], with
    :func:`class_rates`'s rule for a class with no examples."""
    sens, spec = class_rates(cc, empty_class)
    return alpha_p * sens + alpha_n * spec


def cost_metric(cc: ConfusionCounts, c_p: float, c_n: float) -> float:
    """c_p * (positive mistakes) + c_n * (negative mistakes), in raw units."""
    return c_p * cc.m_pos + c_n * cc.m_neg


def stream_losses(
    w: np.ndarray, stream, rho: float, variant: LossVariant
) -> np.ndarray:
    """Per-round losses of a fixed weight vector over (positions, values, y) triples."""
    out = np.empty(len(stream))
    for i, (positions, values, y) in enumerate(stream):
        out[i] = loss(variant, float(w[positions] @ values), y, rho)
    return out


def fit_comparator(
    stream,
    d: int,
    rho: float,
    variant: LossVariant,
    epochs: int = 50,
    eta0: float = 1.0,
) -> np.ndarray:
    """Approximate best fixed weight vector in hindsight.

    Runs ``epochs`` sequential subgradient passes over the stream with step
    eta0/sqrt(k) on epoch k and returns the end-of-epoch iterate with the
    lowest total loss seen (the zero start included).  One epoch is exactly
    a constant-step cost-sensitive gradient (COG) pass.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    variant = LossVariant(variant)
    cog = CostSensitiveGD(d, eta0, variant)
    best_w = cog.w.copy()
    best_total = float(np.sum(stream_losses(cog.w, stream, rho, variant)))
    for k in range(1, epochs + 1):
        cog.eta = eta0 / np.sqrt(k)
        for positions, values, y in stream:
            cog.update(positions, values, y, rho)
        total = float(np.sum(stream_losses(cog.w, stream, rho, variant)))
        if total < best_total:
            best_total = total
            best_w = cog.w.copy()
    return best_w


def regret_slope(series) -> float:
    """Least-squares slope of log(max(regret_t, 1)) against log(t).

    Fitted over the second half of the series; needs at least 100 rounds and
    a positive regret somewhere in that tail.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if n < 100:
        raise ValueError(f"need at least 100 rounds, got {n}")
    tail = slice(n // 2, n)
    t = np.arange(1, n + 1, dtype=np.float64)[tail]
    r = np.maximum(series[tail], 1.0)
    if not np.any(series[tail] > 0):
        raise ValueError("regret is nonpositive over the fitted tail")
    slope, _ = np.polyfit(np.log(t), np.log(r), 1)
    return float(slope)


def write_trace_csv(path, rows) -> None:
    """Per-round trace: ``round,cum_loss,mistakes_pos,mistakes_neg,sum,cost``.

    ``rows`` yields (round, cum_loss, m_pos, m_neg, sum_value, cost_value)
    tuples; numbers are written with full round-trip precision.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("round,cum_loss,mistakes_pos,mistakes_neg,sum,cost\n")
        for rnd, cum_loss, m_pos, m_neg, s, c in rows:
            fh.write(f"{rnd},{cum_loss!r},{m_pos},{m_neg},{s!r},{c!r}\n")
