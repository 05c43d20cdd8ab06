"""Grid selection's lanes against one scalar pass per step size.

For the learners in ``LANE_ALGOS`` grid selection advances every grid value
in one pass per selection permutation.  Each (eta, selection seed) lane must
count the same mistakes as ``run_single`` with that eta and seed, and
``grid_select`` must pick the eta that a loop over scalar passes picks.
The data are the toy set and the benchmark's seed-0 ijcnn1-shaped file,
written by ``perfbench/workloads.py`` (only read) into a temporary directory.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from costsense.data import load_dataset
from costsense.harness import (
    LANE_ALGOS,
    SELECTION_PERMUTATIONS,
    SELECTION_SEED_OFFSET,
    ExperimentConfig,
    grid_select,
    make_learner,
    make_lanes,
    run_single,
    selection_rows,
)

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "datasets" / "toy_imbalanced.libsvm"

ALGO_RULES = [("pa1", "new"), ("cog1", "new"), ("cog2", "new"),
              ("acog1-diag", "new"), ("acog1-diag", "old"),
              ("acog2-diag", "new"), ("acog2-diag", "old")]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    with mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=["toy", "ijcnn1"])
def dataset(request, tmp_path_factory):
    if request.param == "toy":
        return load_dataset(TOY)
    workloads = _workloads()
    path = tmp_path_factory.mktemp("lanes") / "ijcnn1.libsvm"
    workloads.generate(workloads.SHAPES["ijcnn1"], 0, path)
    return load_dataset(path)


def scalar_choice(means: dict, metric: str) -> float:
    """The scalar loop's rule: first strictly better mean over the sorted grid."""
    sign = 1.0 if metric == "sum" else -1.0
    best = None
    for eta in sorted(means):
        if best is None or sign * means[eta] > sign * means[best]:
            best = eta
    return best


def test_every_case_is_a_lane_algo():
    assert {algo for algo, _ in ALGO_RULES} == set(LANE_ALGOS)


@pytest.mark.parametrize("metric", ["sum", "cost"])
@pytest.mark.parametrize("rho_mode", ["oracle", "laplace", "fixed:2.5"])
@pytest.mark.parametrize("algo,rule", ALGO_RULES)
def test_lanes_match_scalar_passes(dataset, algo, rule, rho_mode, metric):
    cfg = ExperimentConfig(algo=algo, update_rule=rule, rho_mode=rho_mode, metric=metric)
    grid = sorted(cfg.eta_grid)
    seeds = [SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]
    lanes = selection_rows(cfg, dataset, grid)
    scalar = {eta: [run_single(cfg, dataset, eta, s) for s in seeds] for eta in grid}
    for eta in grid:
        got = [(r["seed"], r["mistakes_pos"], r["mistakes_neg"]) for r in lanes[eta]]
        want = [(r["seed"], r["mistakes_pos"], r["mistakes_neg"]) for r in scalar[eta]]
        assert got == want, eta
    means = {eta: float(np.mean([r[metric] for r in rows])) for eta, rows in scalar.items()}
    table = {}
    assert grid_select(cfg, dataset, table) == scalar_choice(means, metric)
    assert table == means


def test_lane_blocks_follow_the_memory_policy(monkeypatch):
    # a tiny byte budget splits the grid into one-lane blocks; rows do not change
    from costsense import harness

    ds = load_dataset(TOY)
    cfg = ExperimentConfig(algo="acog2-diag", rho_mode="laplace")
    grid = sorted(cfg.eta_grid)
    whole = selection_rows(cfg, ds, grid)
    monkeypatch.setattr(harness, "FULL_SIGMA_MAX_BYTES", 16 * ds.d)
    blocks = selection_rows(cfg, ds, grid)
    strip = lambda rows: {e: [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rs]
                          for e, rs in rows.items()}
    assert strip(blocks) == strip(whole)


@pytest.mark.parametrize("algo,rule", ALGO_RULES)
def test_lane_state_tracks_scalar_learners(algo, rule):
    # 3000 rounds of random sparse unit rows, rho changing every round
    rng = np.random.default_rng(7)
    d = 40
    cfg = ExperimentConfig(algo=algo, update_rule=rule)
    grid = sorted(cfg.eta_grid)
    lanes = make_lanes(cfg, d, grid)
    learners = [make_learner(cfg, d, eta) for eta in grid]
    for t in range(3000):
        positions = np.sort(rng.choice(d, size=rng.integers(1, 12), replace=False))
        values = rng.standard_normal(positions.size)
        values /= np.linalg.norm(values)
        y = 1 if rng.random() < 0.2 else -1
        rho = 1.0 + 8.0 * rng.random()
        s = lanes.scores(positions, values)
        for g, learner in enumerate(learners):
            assert s[g] == pytest.approx(learner.score(positions, values), rel=1e-12, abs=1e-12)
            learner.update(positions, values, y, rho)
        lanes.step(positions, values, y, rho, s)
    for g, learner in enumerate(learners):
        if algo.startswith("acog"):
            pairs = [(lanes.mu[:, g], learner.mu), (lanes.sigma[:, g], learner.sigma)]
        else:
            pairs = [(lanes.w[:, g], learner.w)]
        for lane, scalar in pairs:
            atol = 1e-12 * max(1.0, np.abs(scalar).max())
            np.testing.assert_allclose(lane, scalar, rtol=1e-12, atol=atol)
