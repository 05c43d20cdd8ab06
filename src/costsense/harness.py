"""Experiment orchestration: grid selection, permutation sweeps, CV, CSV output.

One experiment = pick a step size from the grid on dedicated selection
permutations, then evaluate the learner prequentially over ``permutations``
seeded shuffles of the dataset, reporting per-run and aggregate metrics.
Every pass of the three phases is run by :func:`_pass_rows`: selection a
pass per (grid value, selection permutation), evaluation a pass per
evaluation permutation at the selected value, and k-fold mode a pass per
fold, whose frozen learner then scores the fold's held-out rows; and
:func:`run_single`, which can record a :class:`RunTrace`, runs one pass
over one order.  Every pass runs as a lane of :func:`_lane_rounds`, the one
streaming loop, on the columns the rows use, and the passes of a phase run
batched: ``make_learner`` given a sequence of step sizes builds one learner
with a lane per value, and each lane reads the rows in its own order.  A
sketched lane carries a sketch of its own, about (m + 1) x (u + 2m) + 4m^2
doubles with u the columns the rows use (all d under a random init), and a
full-ACOG lane a u x u covariance.
Selection and evaluation orders (``Dataset.order``) and CV's fold splits
and training orders (``Dataset.cv_split``) are the dataset's, computed
once and kept for as long as the loaded dataset lives.  Everything
downstream of (config, base seed) is deterministic; elapsed-time columns
are the only environment-dependent output.  A row's ``elapsed_ms`` is the
wall time of the pass that produced it divided by its lane count, so a
one-lane pass reports its own time, and the rows of a batched pass add up
to the pass's time.

Reported ``sum``/``sensitivity``/``specificity`` are percentages; ``cost``
is in raw units.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .acog import FULL_SIGMA_MAX_BYTES, AdaptiveCSGD
from .baselines import CostSensitiveGD, PassiveAggressiveI, Perceptron
# permutation and split_folds are not called here since Dataset.cv_split
# keeps the folds, but perfbench/tracing.py wraps both under these names
from .data import Dataset, load_dataset, permutation, split_folds  # noqa: F401
from .losses import (METRICS, CostModel, LossVariant, lane_class_weight, loss, observe_label,
                     resolve_rho)
from .metrics import ConfusionCounts, class_rates, cost_metric, count_mistakes, sum_metric
from .sacog import SketchedCSGD, SparseSketchedCSGD
from .sketch import check_size

ALGO_IDS = (
    "perceptron",
    "pa1",
    "cog1",
    "cog2",
    "acog1",
    "acog2",
    "acog1-diag",
    "acog2-diag",
    "sacog1",
    "sacog2",
    "ssacog1",
    "ssacog2",
)

SKETCHED_ALGOS = ("sacog1", "sacog2", "ssacog1", "ssacog2")
FULL_ACOG_ALGOS = ("acog1", "acog2")
# the covariances of one block of full-ACOG lanes stay within this many
# bytes, so two lanes share a block only up to 1,024 columns: a wide lane
# costs its O(u^2) rounds whether or not it shares them
FULL_LANES_MAX_BYTES = 2**24
# a batched pass gathers the rows of this many (round, lane, slot) entries
# at a time, about 256 KiB per gathered array
LANE_GATHER_ENTRIES = 2**15
RHO_FREE_ALGOS = ("perceptron", "pa1")

# grid selection runs on this many permutations, whose seeds lie far above
# any sane evaluation seed range
SELECTION_PERMUTATIONS = 3
SELECTION_SEED_OFFSET = 1_000_003

CSV_COLUMNS = (
    "run_id",
    "seed",
    "eta",
    "sum",
    "cost",
    "sensitivity",
    "specificity",
    "mistakes_pos",
    "mistakes_neg",
    "elapsed_ms",
)
CSV_STD_COLUMNS = tuple(c + "_std" for c in CSV_COLUMNS[3:])

PAPER_ETA_GRID = tuple(10.0**k for k in range(-5, 6))

# the values each string field of ExperimentConfig may take; the CLI offers these
CHOICES = {"algo": ALGO_IDS, "metric": METRICS, "sketch_init": ("canonical", "random"),
           "update_rule": ("new", "old"), "empty_class": ("error", "perfect")}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str | None = None
    algo: str = "acog2"
    metric: str = "sum"
    alpha_p: float = 0.5
    alpha_n: float = 0.5
    c_p: float = 0.9
    c_n: float = 0.1
    rho_mode: str = "oracle"  # "oracle", "laplace", or "fixed:<value>"
    eta_grid: tuple = PAPER_ETA_GRID
    gamma: float = 1.0
    sketch_size: int = 5
    sketch_init: str = "canonical"
    sketch_lazy: int = 1
    sketch_on_loss_only: bool = False
    update_rule: str = "new"
    permutations: int = 20
    seed: int = 0
    folds: int = 0
    out: str | None = None
    empty_class: str = "error"
    d_override: int | None = None

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not self.eta_grid:
            raise ValueError("eta grid must be nonempty")
        if not all(0.0 < v < math.inf for v in (*self.eta_grid, self.gamma)):
            raise ValueError(f"eta {self.eta_grid} and gamma {self.gamma} must be finite and > 0")
        for name in ("permutations", "sketch_size", "sketch_lazy"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # permutation seeds run up to this one; Philox keys stop below 2**128
        last = self.seed + max(self.permutations, self.folds,
                               SELECTION_SEED_OFFSET + SELECTION_PERMUTATIONS) - 1
        if last >= 2**128:
            raise ValueError(f"seed {self.seed} too large: its runs need permutation seeds "
                             f"up to {last}, past the 2**128 key range")
        if self.folds != 0 and self.folds < 2:
            raise ValueError("folds must be 0 (online protocol) or >= 2")
        if self.d_override is not None and self.d_override < 1:
            raise ValueError(f"d_override must be >= 1, got {self.d_override}")
        if self.out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(self.out))):
            raise ValueError(f"no directory to write {self.out!r} into")
        if self.out is not None and os.path.isdir(self.out):
            raise ValueError(f"cannot write the report to {self.out!r}: it is a directory")
        CostModel(self.metric, self.alpha_p, self.alpha_n, self.c_p, self.c_n, self.rho_mode)

    @property
    def loss_variant(self) -> LossVariant:
        stem = self.algo.removesuffix("-diag")
        return LossVariant.II if stem.endswith("2") else LossVariant.I


@dataclass
class RunTrace:
    """Per-round record of one run, enough to replay it against a comparator."""

    order: np.ndarray
    losses: list = field(default_factory=list)
    m_pos_series: list = field(default_factory=list)
    m_neg_series: list = field(default_factory=list)
    rho_final: float = 0.0


@dataclass
class RunReport:
    config: ExperimentConfig
    eta: float
    rows: list
    aggregate: dict
    std: dict
    grid: dict = field(default_factory=dict)  # eta -> mean selection score; empty if none ran


def make_learner(cfg: ExperimentConfig, d: int, eta):
    """The learner ``cfg.algo`` names, at step size ``eta``: one lane, or for
    a sequence of step sizes a lane per value (the perceptron ignores the
    values)."""
    variant = cfg.loss_variant
    algo = cfg.algo
    if algo == "perceptron":
        return Perceptron(d) if np.ndim(eta) == 0 else Perceptron(d, lanes=len(eta))
    if algo == "pa1":
        # the grid value plays the role of the aggressiveness cap C
        return PassiveAggressiveI(d, C=eta)
    if algo in ("cog1", "cog2"):
        return CostSensitiveGD(d, eta, variant)
    if algo in ("acog1", "acog2", "acog1-diag", "acog2-diag"):
        return AdaptiveCSGD(
            d,
            eta,
            cfg.gamma,
            variant,
            diagonal=algo.endswith("-diag"),
            update_rule=cfg.update_rule,
        )
    cls = SketchedCSGD if algo.startswith("sacog") else SparseSketchedCSGD
    return cls(
        d,
        eta,
        cfg.gamma,
        m=cfg.sketch_size,
        variant=variant,
        sketch_init=cfg.sketch_init,
        seed=cfg.seed,
        sketch_every=cfg.sketch_lazy,
        sketch_on_loss_only=cfg.sketch_on_loss_only,
    )


def make_cost_model(cfg: ExperimentConfig, counts: tuple[int, int]) -> CostModel:
    """A pass's fresh cost model from the config, with oracle rho resolved from
    the class counts ``counts`` = (T_p, T_n).  The rho-free learners' rho is
    fixed at 1, where both surrogates are the plain hinge."""
    mode = "fixed:1" if cfg.algo in RHO_FREE_ALGOS else cfg.rho_mode
    cm = CostModel(cfg.metric, cfg.alpha_p, cfg.alpha_n, cfg.c_p, cfg.c_n, mode)
    cm.rho = resolve_rho(cm, counts)
    return cm


def _row(cfg: ExperimentConfig, seed: int, eta: float, cc: ConfusionCounts,
         elapsed_ms: float) -> dict:
    sens, spec = class_rates(cc, cfg.empty_class)
    return {
        "seed": seed,
        "eta": eta,
        "sum": 100.0 * sum_metric(cc, cfg.alpha_p, cfg.alpha_n, cfg.empty_class),
        "cost": cost_metric(cc, cfg.c_p, cfg.c_n),
        "sensitivity": 100.0 * sens,
        "specificity": 100.0 * spec,
        "mistakes_pos": cc.m_pos,
        "mistakes_neg": cc.m_neg,
        "elapsed_ms": elapsed_ms,
    }


def run_single(
    cfg: ExperimentConfig,
    dataset: Dataset,
    eta: float,
    perm_seed: int,
    collect_trace: bool = False,
):
    """One prequential pass over the dataset's seeded order
    ``dataset.order(perm_seed)``, as a one-lane :func:`_pass_rows` call.
    Returns a metrics row dict, plus a :class:`RunTrace` when requested,
    whose loss in each round is what the scalar ``update`` returns there: the
    surrogate :func:`loss` at the round's rho, or the perceptron's 0/1 mistake.
    """
    order = dataset.order(perm_seed)
    chunks = [] if collect_trace else None
    (row,) = _pass_rows(cfg, dataset, [eta], [perm_seed], [order], record=chunks)
    if not collect_trace:
        return row
    scores, labels, rhos = (np.concatenate(c)[:, 0] for c in zip(*chunks))
    if cfg.algo == "perceptron":
        losses = np.where(labels * scores <= 0.0, 1.0, 0.0).tolist()
    else:
        losses = [loss(cfg.loss_variant, s, y, r)
                  for s, y, r in zip(scores.tolist(), labels.tolist(), rhos.tolist())]
    # each round as a lane of its own gives its mistakes, summed up to it
    m_pos, m_neg = (np.cumsum(m).tolist() for m in count_mistakes(labels[None], scores[None]))
    return row, RunTrace(order, losses, m_pos, m_neg, float(rhos[-1]))


def _lane_bytes(cfg: ExperimentConfig, width: int) -> int:
    """One lane's state over ``width`` columns, in bytes: the weights of the
    perceptron, PA-I and COG, mu and sigma of diagonal ACOG, a sketched
    learner's weights, m sketch rows, m x m factors and 2m x 2m bordered
    matrix (``sketch.py``'s kept stack), or full ACOG's covariance."""
    if cfg.algo in FULL_ACOG_ALGOS:
        return 8 * width * width
    if cfg.algo in SKETCHED_ALGOS:
        m = cfg.sketch_size
        return 8 * ((m + 1) * (width + 2 * m) + 4 * m * m)
    return 8 * width * (2 if cfg.algo.startswith("acog") else 1)


def _class_counts(dataset: Dataset, rows: np.ndarray) -> tuple[int, int]:
    """(T_p, T_n) of the rows with indices ``rows``."""
    t_pos = int(np.count_nonzero(dataset.labels[rows] == 1))
    return t_pos, len(rows) - t_pos


def _lane_rounds(lanes, cm, dataset: Dataset, padded, orders: list, step: bool = True,
                 record: list | None = None):
    """Each lane's positive and negative mistakes on its rows ``orders[g]``,
    all equally long.  With ``step`` this is the prequential loop, split
    between two owners: this loop owns the chunks, labels, rho and mistakes,
    gathering each chunk of rounds, folding its labels into rho
    (:func:`observe_label`) and counting its mistakes (:func:`count_mistakes`,
    one count per lane); the learner's ``advance`` owns the rounds, in each
    of which every lane scores its row and steps on it.  ``record``, when
    given, receives each chunk's (scores, labels, rho), rounds by lanes.
    Without ``step``, the frozen lanes score a chunk at once."""
    g, k = len(orders), padded.positions.shape[1]
    lane = np.arange(g)[:, None]  # entry c * g + j of the state is lane j's column c
    chunk = max(1, LANE_GATHER_ENTRIES // (g * k))
    m_pos = m_neg = 0
    for t0 in range(0, len(orders[0]), chunk):
        idx = np.stack([order[t0:t0 + chunk] for order in orders], axis=1)
        # take(axis=0) gathers whole rows, at a third to a half of [idx]'s cost
        flat = padded.positions.take(idx, axis=0)
        flat *= g
        flat += lane
        values = padded.values.take(idx, axis=0)
        y = dataset.labels[idx].astype(np.float64)
        if step:
            rho = observe_label(cm, y)
            scores = lanes.advance(flat, values, y, lane_class_weight(y, rho),
                                   dataset.sq_norms[idx] if lanes.reads_sq_norms else None)
            if record is not None:
                record.append((scores, y, np.broadcast_to(rho, y.shape)))
        else:
            scores = lanes.scores(flat, values)
        pos, neg = count_mistakes(y, scores)
        m_pos, m_neg = m_pos + pos, m_neg + neg
    return m_pos, m_neg


def _pass_rows(cfg: ExperimentConfig, dataset: Dataset, etas: list, seeds: list,
               orders: list, counts: list | None = None, heldout: list | None = None,
               record: list | None = None) -> list:
    """The row of each pass g at step size ``etas[g]`` over ``orders[g]``,
    whose class counts (T_p, T_n) are ``counts[g]``, the dataset's unless
    given: a prequential pass's, or with ``heldout`` the frozen learner's on
    the rows ``heldout[g]``.  ``record`` goes to :func:`_lane_rounds` for the
    prequential rounds; :func:`run_single` passes it for its one pass.

    Passes whose orders (and held-out rows) are equally long form a group,
    and a group runs in blocks, each one pass of :func:`_lane_rounds`, in
    whose round t lane g reads row ``orders[g][t]`` of
    :meth:`Dataset.padded`.  So lane state covers the columns in use plus
    the padding column, not d: full ACOG's sigma too, whose unused rows and
    columns would stay the identity's.  A sketched learner keeps the columns
    of its init, 0..m-1 or all d for a random one, and m is checked against
    d, not the width.  Each lane's oracle rho comes from its own class
    counts.  A block holds as many lanes as keep their state
    (:func:`_lane_bytes` per lane) within ``FULL_SIGMA_MAX_BYTES``, or for
    full ACOG their covariances within ``FULL_LANES_MAX_BYTES``, and at
    least one.
    """
    keep = 0
    if cfg.algo in SKETCHED_ALGOS:
        check_size(cfg.sketch_size, dataset.d)
        keep = dataset.d if cfg.sketch_init == "random" else cfg.sketch_size
    padded = dataset.padded(keep)
    budget = FULL_LANES_MAX_BYTES if cfg.algo in FULL_ACOG_ALGOS else FULL_SIGMA_MAX_BYTES
    block = max(1, budget // _lane_bytes(cfg, padded.width))
    if counts is None:
        counts = [(dataset.t_pos, dataset.t_neg)] * len(orders)

    def length(g):
        return len(orders[g]), 0 if heldout is None else len(heldout[g])

    rows = [None] * len(orders)
    for _, group in itertools.groupby(sorted(range(len(orders)), key=length), key=length):
        group = list(group)
        for lo in range(0, len(group), block):
            ids = group[lo:lo + block]
            learner = make_learner(cfg, padded.width, [etas[i] for i in ids])
            cms = [make_cost_model(cfg, counts[i]) for i in ids]
            cm = cms[0]
            cm.rho = np.array([c.rho for c in cms])
            start = time.perf_counter()
            mistakes = _lane_rounds(learner, cm, dataset, padded, [orders[i] for i in ids],
                                    record=record)
            if heldout is not None:
                mistakes = _lane_rounds(learner, None, dataset, padded,
                                        [heldout[i] for i in ids], step=False)
            elapsed_ms = (time.perf_counter() - start) * 1e3 / len(ids)
            for i, mp, mn in zip(ids, *(m.tolist() for m in mistakes)):
                tally = counts[i] if heldout is None else _class_counts(dataset, heldout[i])
                cc = ConfusionCounts(*tally, mp, mn)
                rows[i] = _row(cfg, seeds[i], etas[i], cc, elapsed_ms)
    return rows


def selection_rows(cfg: ExperimentConfig, dataset: Dataset, grid: list) -> dict:
    """Each grid value's rows on the selection permutations, in seed order.

    Selection seeds are disjoint from the evaluation seeds, so chosen
    hyperparameters never peek at evaluation shuffles.  Each permutation is
    the dataset's :meth:`Dataset.order`, shared by every grid value.
    """
    seeds = [cfg.seed + SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]
    orders = [dataset.order(s) for s in seeds]
    p = len(seeds)
    rows = _pass_rows(cfg, dataset, [eta for eta in grid for _ in seeds],
                      seeds * len(grid), orders * len(grid))
    return {eta: rows[i * p:(i + 1) * p] for i, eta in enumerate(grid)}


def grid_select(cfg: ExperimentConfig, dataset: Dataset, table: dict | None = None) -> float:
    """Best step size by mean score on the selection permutations; ties go to
    the smaller value.

    The grid is a set: duplicates run once.  ``table``, when given, receives
    each grid value's mean selection score.  A grid of one distinct value,
    or the perceptron (which ignores the step size, so every value ties), is
    settled without a pass.
    """
    grid = sorted(set(cfg.eta_grid))
    if len(grid) == 1 or cfg.algo == "perceptron":
        return grid[0]
    means = {eta: float(np.mean([r[cfg.metric] for r in rows]))
             for eta, rows in selection_rows(cfg, dataset, grid).items()}
    if table is not None:
        table.update(means)
    # max and min keep the first of equal means, and the grid is sorted
    return (max if cfg.metric == "sum" else min)(means, key=means.get)


def aggregate_rows(rows: list) -> tuple[dict, dict]:
    """Mean and sample std per metric column, independent of row order."""
    rows = sorted(rows, key=lambda r: r["seed"])
    agg, std = {}, {}
    for key in CSV_COLUMNS[3:]:
        vals = np.array([r[key] for r in rows], dtype=np.float64)
        agg[key] = float(np.mean(vals))
        std[key] = float(np.std(vals, ddof=1)) if len(rows) > 1 else 0.0
    return agg, std


def _report(cfg: ExperimentConfig, eta: float, rows: list, grid: dict) -> RunReport:
    agg, std = aggregate_rows(rows)
    report = RunReport(config=cfg, eta=eta, rows=rows, aggregate=agg, std=std, grid=grid)
    if cfg.out:
        emit_csv(report, cfg.out)
    return report


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None) -> RunReport:
    """Grid-select, then evaluate over ``permutations`` seeded runs; a config
    with ``folds`` >= 2 runs :func:`run_cv` instead."""
    if cfg.folds:
        return run_cv(cfg, dataset)
    if dataset is None:
        dataset = load_dataset(cfg.dataset, d_override=cfg.d_override)
    # as run_cv does, before any pass: oracle rho, then a class missing from
    # the data, which fails every row (class_rates)
    make_cost_model(cfg, (dataset.t_pos, dataset.t_neg))
    class_rates(ConfusionCounts(dataset.t_pos, dataset.t_neg), cfg.empty_class)
    table = {}
    eta = grid_select(cfg, dataset, table)
    seeds = [cfg.seed + i for i in range(cfg.permutations)]
    orders = [dataset.order(s) for s in seeds]
    rows = _pass_rows(cfg, dataset, [eta] * len(seeds), seeds, orders)
    return _report(cfg, eta, rows, table)


def run_cv(cfg: ExperimentConfig, dataset: Dataset | None = None) -> RunReport:
    """k-fold generalization mode: one online pass over the training folds,
    then frozen scoring of the held-out fold, whose mistakes are counted once
    (:func:`count_mistakes`).

    The training stream for fold i is a single permutation seeded with
    ``seed + i``; oracle rho comes from the training portion's class counts.
    The dataset keeps the split and the training streams
    (:meth:`Dataset.cv_split`), so every CV experiment on it shares them.
    The folds run as the lanes of :func:`_pass_rows`: fold sizes differ by
    at most one, so their lanes form at most two groups of equal lengths.
    """
    if cfg.folds < 2:
        raise ValueError("run_cv needs folds >= 2")
    if dataset is None:
        dataset = load_dataset(cfg.dataset, d_override=cfg.d_override)
    # the fold count is checked against the row count, every fold's oracle
    # rho and then every held-out fold's classes, before any pass
    split = dataset.cv_split(cfg.folds, cfg.seed)
    orders = [order for order, _ in split]
    folds = [heldout for _, heldout in split]
    counts = []
    for i, order in enumerate(orders):
        counts.append(_class_counts(dataset, order))
        try:
            make_cost_model(cfg, counts[-1])
        except ValueError as exc:  # e.g. oracle rho of a training fold with no positives
            raise ValueError(f"CV fold {i + 1} of {cfg.folds}: {exc}") from None
    for i, heldout in enumerate(folds):
        try:
            class_rates(ConfusionCounts(*_class_counts(dataset, heldout)), cfg.empty_class)
        except ValueError as exc:
            raise ValueError(f"{exc}; the held-out rows of CV fold {i + 1} of {cfg.folds} "
                             "lack a class") from None
    table = {}
    eta = grid_select(cfg, dataset, table)
    seeds = [cfg.seed + i for i in range(cfg.folds)]
    rows = _pass_rows(cfg, dataset, [eta] * cfg.folds, seeds, orders, counts, folds)
    return _report(cfg, eta, rows, table)


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def emit_csv(report: RunReport, path) -> None:
    """Header, one row per run, then an aggregate row with the std columns.

    Floats are written with shortest round-trip precision, so parsing the
    file reproduces the report's numbers exactly.
    """
    header = ",".join(CSV_COLUMNS + CSV_STD_COLUMNS)
    lines = [header]
    for run_id, row in enumerate(sorted(report.rows, key=lambda r: r["seed"])):
        cells = [str(run_id)] + [_cell(row[c]) for c in CSV_COLUMNS[1:]]
        cells += [""] * len(CSV_STD_COLUMNS)
        lines.append(",".join(cells))
    agg_cells = ["aggregate", "", _cell(report.eta)]
    agg_cells += [_cell(report.aggregate[c]) for c in CSV_COLUMNS[3:]]
    agg_cells += [_cell(report.std[c]) for c in CSV_COLUMNS[3:]]
    lines.append(",".join(agg_cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
