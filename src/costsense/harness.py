"""Experiment orchestration: grid selection, permutation sweeps, CV, CSV output.

One experiment = pick a step size from the grid on dedicated selection
permutations, then evaluate the learner prequentially over ``permutations``
seeded shuffles of the dataset, reporting per-run and aggregate metrics.
For the learners with O(d) state (:data:`LANE_ALGOS`) one pass per
selection permutation advances every grid value at once: ``make_learner``
given the grid builds one learner whose step size is a sequence, with one
lane per value.
Everything downstream of (config, base seed) is deterministic; elapsed-time
columns are the only environment-dependent output.

Reported ``sum``/``sensitivity``/``specificity`` are percentages; ``cost``
is in raw units.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .acog import FULL_SIGMA_MAX_BYTES, AdaptiveCSGD
from .baselines import CostSensitiveGD, PassiveAggressiveI, Perceptron, predict_label
from .data import Dataset, load_dataset, permutation, split_folds
from .losses import CostModel, LossVariant, Metric, RhoMode, observe_label, resolve_rho
from .metrics import ConfusionCounts, class_rates, cost_metric, sum_metric
from .sacog import SketchedCSGD, SparseSketchedCSGD

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

# learners whose state is O(d) per step size: grid selection runs every grid
# value in one pass per selection permutation, as lanes of one batch
LANE_ALGOS = ("pa1", "cog1", "cog2", "acog1-diag", "acog2-diag")
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
CSV_STD_COLUMNS = (
    "sum_std",
    "cost_std",
    "sensitivity_std",
    "specificity_std",
    "mistakes_pos_std",
    "mistakes_neg_std",
    "elapsed_ms_std",
)

PAPER_ETA_GRID = tuple(10.0**k for k in range(-5, 6))


@dataclass
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
        if self.algo not in ALGO_IDS:
            raise ValueError(f"unknown algo {self.algo!r}; choose from {ALGO_IDS}")
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
        for name, allowed in (("metric", ("sum", "cost")), ("update_rule", ("new", "old")),
                              ("sketch_init", ("canonical", "random")),
                              ("empty_class", ("error", "perfect"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}")
        mode, sep, value = self.rho_mode.partition(":")
        rho = None
        if mode == "fixed" and sep:
            try:
                rho = float(value)
            except ValueError:
                raise ValueError(f"fixed rho must be a number, got {value!r}") from None
        elif sep or mode not in ("oracle", "laplace"):
            raise ValueError("rho_mode must be 'oracle', 'laplace', or 'fixed:<value>'")
        # every pass starts from a copy of this validated template
        self._cost_model = CostModel(
            metric=Metric(self.metric), alpha_p=self.alpha_p, alpha_n=self.alpha_n,
            c_p=self.c_p, c_n=self.c_n, rho=rho,
            rho_mode=RhoMode.LAPLACE if mode == "laplace" else RhoMode.FIXED_ORACLE,
        )

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
    """The learner ``cfg.algo`` names, at step size ``eta``; a sequence of
    step sizes gives one learner with a lane per value (:data:`LANE_ALGOS`
    only)."""
    variant = cfg.loss_variant
    algo = cfg.algo
    if algo == "perceptron":
        return Perceptron(d)
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


def make_cost_model(cfg: ExperimentConfig, counts: tuple[int, int] | None) -> CostModel:
    """A fresh copy of the config's cost model, with oracle rho resolved."""
    cm = copy.copy(cfg._cost_model)
    if cm.rho is None:
        cm.rho = resolve_rho(cm, counts)
    return cm


def _online_pass(learner, cm, dataset, order, cc=None, trace=None) -> None:
    """Score, update and (optionally) record every example of ``order`` in turn.

    The revealed label joins the Laplace estimate before the update, so the
    update's rho always reflects every label seen so far.  ``cm`` is None
    for the rho-free learners.
    """
    laplace = cm is not None and cm.rho_mode == RhoMode.LAPLACE
    for positions, values, y in dataset.rows(order):
        s = learner.score(positions, values)
        if cc is not None:
            cc.record(predict_label(s), y)
        if laplace:
            observe_label(cm, y)
        l = learner.update(positions, values, y, cm.rho if cm is not None else None, score=s)
        if trace is not None:
            trace.losses.append(l)
            trace.m_pos_series.append(cc.m_pos)
            trace.m_neg_series.append(cc.m_neg)


def _pass_cost_model(cfg: ExperimentConfig, counts: tuple[int, int]) -> CostModel | None:
    """A pass's cost model: None for the rho-free learners."""
    return make_cost_model(cfg, counts) if cfg.algo not in RHO_FREE_ALGOS else None


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
    order: np.ndarray | None = None,
):
    """One prequential pass over a seeded permutation of the dataset.

    ``order`` is ``permutation(len(dataset), perm_seed)``, computed here
    unless the caller already has it.  Returns a metrics row dict, plus a
    :class:`RunTrace` when requested.
    """
    if order is None:
        order = permutation(len(dataset), perm_seed)
    learner = make_learner(cfg, dataset.d, eta)
    cm = _pass_cost_model(cfg, (dataset.t_pos, dataset.t_neg))
    cc = ConfusionCounts()
    trace = RunTrace(order=order) if collect_trace else None
    start = time.perf_counter()
    _online_pass(learner, cm, dataset, order, cc, trace)
    row = _row(cfg, perm_seed, eta, cc, (time.perf_counter() - start) * 1e3)
    if collect_trace:
        trace.rho_final = cm.rho if cm is not None else 1.0
        return row, trace
    return row


def _lane_rows(cfg: ExperimentConfig, dataset: Dataset, grid: list, seeds: list,
               orders: list) -> dict:
    """``selection_rows`` for :data:`LANE_ALGOS`: one pass per order advances
    a block of grid values as lanes.

    The loop is :func:`_online_pass` with ``ConfusionCounts.record``'s tally
    kept per lane.  Every lane sees the same labels in the same order, so
    one cost model serves them all.  Blocks keep lane state (two d-vectors
    per lane at most) within ``FULL_SIGMA_MAX_BYTES``.
    """
    rows = {eta: [] for eta in grid}
    block = max(1, FULL_SIGMA_MAX_BYTES // (16 * dataset.d))
    counts = (dataset.t_pos, dataset.t_neg)
    for lo in range(0, len(grid), block):
        etas = grid[lo:lo + block]
        for seed, order in zip(seeds, orders):
            lanes = make_learner(cfg, dataset.d, etas)
            cm = _pass_cost_model(cfg, counts)
            laplace = cm is not None and cm.rho_mode == RhoMode.LAPLACE
            # rounds each lane predicted +1 (predict_label's s >= 0.0), per label
            plus_pos = np.zeros(len(etas), dtype=np.int64)
            plus_neg = np.zeros(len(etas), dtype=np.int64)
            start = time.perf_counter()
            for positions, values, y in dataset.rows(order):
                s = lanes.scores(positions, values)
                plus = plus_pos if y == 1 else plus_neg
                plus += s >= 0.0
                if laplace:
                    observe_label(cm, y)
                lanes.step(positions, values, y, cm.rho if cm is not None else None, s)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            for eta, hits, m_neg in zip(etas, plus_pos.tolist(), plus_neg.tolist()):
                cc = ConfusionCounts(dataset.t_pos, dataset.t_neg, dataset.t_pos - hits, m_neg)
                rows[eta].append(_row(cfg, seed, eta, cc, elapsed_ms))
    return rows


def selection_rows(cfg: ExperimentConfig, dataset: Dataset, grid: list) -> dict:
    """Each grid value's rows on the selection permutations, in seed order.

    Selection seeds are disjoint from the evaluation seeds, so chosen
    hyperparameters never peek at evaluation shuffles.  Each permutation is
    computed once and shared by every grid value.
    """
    seeds = [cfg.seed + SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]
    orders = [permutation(len(dataset), s) for s in seeds]
    if cfg.algo in LANE_ALGOS:
        return _lane_rows(cfg, dataset, grid, seeds, orders)
    return {
        eta: [run_single(cfg, dataset, eta, s, order=o) for s, o in zip(seeds, orders)]
        for eta in grid
    }


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
    for key in ("sum", "cost", "sensitivity", "specificity",
                "mistakes_pos", "mistakes_neg", "elapsed_ms"):
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
    """Grid-select, then evaluate over ``permutations`` seeded runs."""
    if dataset is None:
        dataset = load_dataset(cfg.dataset, d_override=cfg.d_override)
    table = {}
    eta = grid_select(cfg, dataset, table)
    rows = [
        run_single(cfg, dataset, eta, cfg.seed + i) for i in range(cfg.permutations)
    ]
    return _report(cfg, eta, rows, table)


def run_cv(cfg: ExperimentConfig, dataset: Dataset | None = None) -> RunReport:
    """k-fold generalization mode: one online pass over the training folds,
    then frozen scoring of the held-out fold.

    The training stream for fold i is a single permutation seeded with
    ``seed + i``; oracle rho comes from the training portion's class counts.
    """
    if cfg.folds < 2:
        raise ValueError("run_cv needs folds >= 2")
    if dataset is None:
        dataset = load_dataset(cfg.dataset, d_override=cfg.d_override)
    # the fold count is checked against the row count before any selection pass
    folds = split_folds(len(dataset), cfg.folds, cfg.seed)
    table = {}
    eta = grid_select(cfg, dataset, table)
    rows = []
    for i, heldout in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        t_pos = int(np.count_nonzero(dataset.labels[train_idx] == 1))
        try:
            learner = make_learner(cfg, dataset.d, eta)
            cm = _pass_cost_model(cfg, (t_pos, len(train_idx) - t_pos))
        except ValueError as exc:  # e.g. oracle rho of a training fold with no positives
            raise ValueError(f"CV fold {i + 1} of {cfg.folds}: {exc}") from None
        order = train_idx[permutation(len(train_idx), cfg.seed + i)]
        start = time.perf_counter()
        _online_pass(learner, cm, dataset, order)
        cc = ConfusionCounts()
        for positions, values, y in dataset.rows(heldout):
            cc.record(learner.predict(positions, values)[1], y)
        rows.append(_row(cfg, cfg.seed + i, eta, cc, (time.perf_counter() - start) * 1e3))
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
    agg_cells += [_cell(report.std[c.removesuffix("_std")]) for c in CSV_STD_COLUMNS]
    lines.append(",".join(agg_cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
