"""CV folds as lanes against one scalar pass per fold.

``run_cv`` trains the folds of a ``LANE_ALGOS`` config, full ACOG's among
them, as the lanes of one batched pass per group of equally long folds, and
those of every other config (the perceptron) as one-lane passes, and then
scores each fold's held-out rows with its frozen lane.  Each fold's row must count
the mistakes that a scalar reference counts: a learner from
``make_learner`` over all d columns, trained by :func:`scalar_pass` (score,
then the per-sample ``update``, row by row) on the fold's training order,
with oracle rho from the training rows' class counts, then its ``score`` on
each held-out row.  The toy set's 320 rows split into folds of 107, 107
and 106 rows, so every case runs two groups.

:func:`scalar_pass` and :func:`scalar_single` are also the reference that
``test_lanes.py`` and ``test_harness.py`` check ``run_single`` and the
experiment passes against.
"""

import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from costsense import harness
from costsense.data import load_dataset, permutation, split_folds
from costsense.harness import (
    ALGO_IDS,
    SKETCHED_ALGOS,
    ExperimentConfig,
    RunTrace,
    make_cost_model,
    make_learner,
    run_cv,
)
from costsense.losses import observe_label
from costsense.metrics import ConfusionCounts, count_mistakes

TOY = Path(__file__).resolve().parent.parent / "datasets" / "toy_imbalanced.libsvm"


def strip(row):
    return {k: v for k, v in row.items() if k != "elapsed_ms"}


@pytest.fixture(scope="module")
def toy():
    return load_dataset(TOY)


def scalar_pass(learner, cm, ds, order, losses=None):
    """Score then ``update`` on every row of ``order`` in turn; returns the
    scores, and appends each ``update``'s return to ``losses`` when given.
    Each round's rho counts that round's revealed label (``observe_label``,
    once for the whole pass)."""
    rho = observe_label(cm, ds.labels[order])
    rhos = rho.tolist() if isinstance(rho, np.ndarray) else itertools.repeat(rho)
    scores = []
    for (positions, values, y), r in zip(ds.rows(order), rhos):
        s = learner.score(positions, values)
        l = learner.update(positions, values, y, r, score=s)
        scores.append(s)
        if losses is not None:
            losses.append(l)
    return np.array(scores, dtype=np.float64)


def scalar_single(cfg, ds, eta, seed):
    """The reference for ``run_single(cfg, ds, eta, seed, collect_trace=True)``:
    a learner over all d columns, trained by :func:`scalar_pass` over
    ``ds.order(seed)``.  Returns its row without ``elapsed_ms``, and its
    trace."""
    order = ds.order(seed)
    learner = make_learner(cfg, ds.d, eta)
    cm = make_cost_model(cfg, (ds.t_pos, ds.t_neg))
    trace = RunTrace(order=order)
    scores = scalar_pass(learner, cm, ds, order, trace.losses)
    labels = ds.labels[order]
    cc = ConfusionCounts(ds.t_pos, ds.t_neg, *map(int, count_mistakes(labels, scores)))
    trace.m_pos_series, trace.m_neg_series = (
        np.cumsum(m).tolist() for m in count_mistakes(labels[None], scores[None]))
    trace.rho_final = float(cm.rho)
    return strip(harness._row(cfg, seed, eta, cc, 0.0)), trace


def scalar_cv_rows(cfg, ds):
    """The reference: each fold's row from a scalar pass, then frozen scores,
    without ``elapsed_ms`` (a one-value grid, so no selection runs)."""
    (eta,) = cfg.eta_grid
    folds = split_folds(len(ds), cfg.folds, cfg.seed)
    rows = []
    for i, heldout in enumerate(folds):
        train = np.concatenate([f for j, f in enumerate(folds) if j != i])
        order = train[permutation(len(train), cfg.seed + i)]
        t_pos = int(np.sum(ds.labels[train] == 1))
        learner = make_learner(cfg, ds.d, eta)
        scalar_pass(learner, make_cost_model(cfg, (t_pos, len(train) - t_pos)), ds, order)
        cc = ConfusionCounts()
        for positions, values, y in ds.rows(heldout):
            cc.record(1 if learner.score(positions, values) >= 0.0 else -1, y)
        rows.append(strip(harness._row(cfg, cfg.seed + i, eta, cc, 0.0)))
    return rows


def assert_lanes_match(cfg, ds):
    with mock.patch.object(harness, "_lane_rounds", wraps=harness._lane_rounds) as rounds:
        rows = run_cv(cfg, ds).rows
    assert rounds.called
    assert [strip(r) for r in rows] == scalar_cv_rows(cfg, ds)


def cv_config(algo, **kw):
    return ExperimentConfig(algo=algo, **{"eta_grid": (0.5,), "folds": 3, "seed": 4, **kw})


@pytest.mark.parametrize("algo", ALGO_IDS)
def test_fold_lanes_match_scalar_folds(toy, algo):
    assert_lanes_match(cv_config(algo), toy)


@pytest.mark.parametrize("metric", ["sum", "cost"])
@pytest.mark.parametrize("rho_mode", ["oracle", "laplace", "fixed:2.5"])
@pytest.mark.parametrize("algo", ["cog2", "ssacog2", "acog2"])
def test_fold_lanes_match_under_every_rho(toy, algo, rho_mode, metric):
    assert_lanes_match(cv_config(algo, rho_mode=rho_mode, metric=metric), toy)


@pytest.mark.parametrize("option", [dict(algo="acog2", update_rule="old"),
                                    dict(algo="sacog2", sketch_init="random"),
                                    dict(algo="ssacog2", sketch_init="random")],
                         ids=["acog2-old", "sacog2-random", "ssacog2-random"])
def test_fold_lanes_match_under_each_option(toy, option):
    assert_lanes_match(cv_config(**option), toy)


@pytest.mark.parametrize("cadence", [dict(sketch_lazy=3), dict(sketch_on_loss_only=True)],
                         ids=["lazy3", "lossonly"])
@pytest.mark.parametrize("algo", SKETCHED_ALGOS)
def test_sketched_fold_lanes_match_under_each_cadence(toy, algo, cadence):
    assert_lanes_match(cv_config(algo, **cadence), toy)


def test_leave_one_out_runs_one_lane_per_row(toy):
    # one group of n lanes, each holding out one row: a held-out class is empty
    cfg = cv_config("cog2", folds=len(toy), empty_class="perfect")
    assert_lanes_match(cfg, toy)


def test_blocks_within_a_group_change_no_row(toy, monkeypatch):
    cfg = cv_config("acog2-diag", rho_mode="laplace")
    whole = [strip(r) for r in run_cv(cfg, toy).rows]
    # a byte budget of one lane's two columns runs one lane per pass
    monkeypatch.setattr(harness, "FULL_SIGMA_MAX_BYTES", 16 * toy.padded().width)
    assert [strip(r) for r in run_cv(cfg, toy).rows] == whole


def test_group_splits_its_elapsed_time(toy, monkeypatch):
    # every pass reads the clock twice; a fake clock makes each pass take 33 s
    clock = itertools.count(0.0, 33.0)
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    rows = run_cv(cv_config("cog2"), toy).rows
    # folds 1 and 2 (107 held out) share a pass, fold 3 (106) has its own
    assert [r["elapsed_ms"] for r in rows] == [33e3 / 2, 33e3 / 2, 33e3]


@pytest.mark.parametrize("algo", ["cog2", "acog2"])
def test_lowest_failing_fold_named_before_any_pass(tmp_path, monkeypatch, algo):
    # 8 rows in folds of 3, 3 and 2: every positive is held out by the third
    # fold, alone in the second group, so its training rows hold none
    folds = split_folds(8, 3, 0)
    assert [len(f) for f in folds] == [3, 3, 2]
    labels = np.full(8, -1)
    labels[folds[2]] = 1
    data = tmp_path / "fold3.libsvm"
    data.write_text("".join(f"{y:+d} 1:1 {i + 2}:0.5\n" for i, y in enumerate(labels)))
    ds = load_dataset(data)
    monkeypatch.setattr(harness, "make_learner", None)  # any pass would fail on it
    cfg = ExperimentConfig(algo=algo, eta_grid=(0.1, 1.0), folds=3, seed=0)
    with pytest.raises(ValueError, match="^CV fold 3 of 3: oracle rho undefined"):
        run_cv(cfg, ds)
    # with no positive anywhere every fold fails, and the first is named
    data.write_text("-1 1:1\n" * 8)
    with pytest.raises(ValueError, match="^CV fold 1 of 3: oracle rho undefined"):
        run_cv(cfg, load_dataset(data))
