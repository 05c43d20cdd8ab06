"""One-learner blocks of ``_pass_rows`` against the scalar reference passes.

The configs that do not run as lanes (the perceptron, full ACOG and the
sketched learners with a random sketch init) run each selection, evaluation
and CV pass as a block of one learner at the dataset's d.  That block is
code of its own, so its rows are checked against the references that do not
go through it: ``run_single`` for the online protocol, and for k-fold mode
``scalar_cv_rows`` of ``test_cv_lanes`` (``make_learner``, ``_online_pass``
on the fold's training order, then ``score`` on each held-out row).  No
golden covers a random sketch init.
"""

from pathlib import Path

import numpy as np
import pytest
from test_cv_lanes import scalar_cv_rows

from costsense import harness
from costsense.data import load_dataset
from costsense.harness import (
    SELECTION_PERMUTATIONS,
    SELECTION_SEED_OFFSET,
    ExperimentConfig,
    run_cv,
    run_experiment,
    run_single,
)

TOY = Path(__file__).resolve().parent.parent / "datasets" / "toy_imbalanced.libsvm"

CASES = [
    dict(algo="perceptron"),
    dict(algo="acog1"),
    dict(algo="acog2"),
    dict(algo="acog2", rho_mode="laplace"),
    dict(algo="acog2", update_rule="old"),
    dict(algo="sacog2", sketch_init="random"),
    dict(algo="ssacog2", sketch_init="random"),
]
IDS = ["-".join(case.values()) for case in CASES]


@pytest.fixture(scope="module")
def toy():
    return load_dataset(TOY)


def strip(row):
    return {k: v for k, v in row.items() if k != "elapsed_ms"}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_online_blocks_match_run_single(toy, case):
    cfg = ExperimentConfig(eta_grid=(0.1, 1.0), permutations=2, seed=3, **case)
    assert not harness._runs_as_lanes(cfg)
    report = run_experiment(cfg, toy)
    assert [strip(r) for r in report.rows] == [
        strip(run_single(cfg, toy, report.eta, cfg.seed + i)) for i in range(cfg.permutations)]
    if cfg.algo == "perceptron":
        return  # every step size ties, so no selection pass runs
    selection_seeds = [cfg.seed + SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]
    assert report.grid == {
        eta: float(np.mean([run_single(cfg, toy, eta, s)[cfg.metric] for s in selection_seeds]))
        for eta in cfg.eta_grid}


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cv_blocks_match_scalar_folds(toy, case):
    cfg = ExperimentConfig(eta_grid=(0.5,), folds=3, seed=4, **case)
    assert not harness._runs_as_lanes(cfg)
    assert [strip(r) for r in run_cv(cfg, toy).rows] == scalar_cv_rows(cfg, toy)
