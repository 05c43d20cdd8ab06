"""Batched lane passes against one scalar pass per (step size, permutation).

For the learners in ``LANE_ALGOS`` grid selection runs every (eta, selection
seed) pair, and evaluation every permutation, as lanes of one pass in which
each lane reads the rows in its own order.  Each lane must count the same
mistakes as ``run_single`` with that eta and seed, and ``grid_select`` must
pick the eta that a loop over scalar passes picks.  The data are the toy set
(rows of 3 to 10 features, so padding is exercised) and the benchmark's
seed-0 ijcnn1-shaped file, written by ``perfbench/workloads.py`` (only read)
into a temporary directory.  Scalar passes are cached per module and shared
between the selection and evaluation checks.
"""

import importlib.util
import itertools
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from costsense import harness
from costsense.data import load_dataset
from costsense.harness import (
    LANE_ALGOS,
    SELECTION_PERMUTATIONS,
    SELECTION_SEED_OFFSET,
    ExperimentConfig,
    grid_select,
    make_learner,
    run_experiment,
    run_single,
    selection_rows,
)
from costsense.losses import lane_class_weight

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


@pytest.fixture(scope="module")
def scalar_cache(dataset):
    """Scalar rows on one dataset, keyed by config and pass."""
    return {}


def strip(row):
    return {k: v for k, v in row.items() if k != "elapsed_ms"}


def scalar_rows(cache, cfg, dataset, eta, seeds):
    """``run_single``'s rows at ``eta``, one per seed, without ``elapsed_ms``;
    each pass runs once per dataset."""
    out = []
    for seed in seeds:
        key = (cfg.algo, cfg.update_rule, cfg.rho_mode, cfg.metric, eta, seed)
        if key not in cache:
            cache[key] = strip(run_single(cfg, dataset, eta, seed))
        out.append(cache[key])
    return out


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


SELECTION_SEEDS = [SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]


@pytest.mark.parametrize("metric", ["sum", "cost"])
@pytest.mark.parametrize("rho_mode", ["oracle", "laplace", "fixed:2.5"])
@pytest.mark.parametrize("algo,rule", ALGO_RULES)
def test_lanes_match_scalar_passes(dataset, scalar_cache, algo, rule, rho_mode, metric):
    cfg = ExperimentConfig(algo=algo, update_rule=rule, rho_mode=rho_mode, metric=metric)
    grid = sorted(cfg.eta_grid)
    lanes = selection_rows(cfg, dataset, grid)
    scalar = {eta: scalar_rows(scalar_cache, cfg, dataset, eta, SELECTION_SEEDS) for eta in grid}
    for eta in grid:
        assert [strip(r) for r in lanes[eta]] == scalar[eta], eta
    means = {eta: float(np.mean([r[metric] for r in rows])) for eta, rows in scalar.items()}
    table = {}
    assert grid_select(cfg, dataset, table) == scalar_choice(means, metric)
    assert table == means


@pytest.mark.parametrize("metric", ["sum", "cost"])
@pytest.mark.parametrize("rho_mode", ["oracle", "laplace", "fixed:2.5"])
@pytest.mark.parametrize("algo,rule", ALGO_RULES)
def test_evaluation_lanes_match_scalar_passes(dataset, scalar_cache, algo, rule, rho_mode,
                                              metric):
    # base seed SELECTION_SEED_OFFSET: the evaluation seeds are the selection
    # seeds of base seed 0, whose scalar passes the test above has cached
    cfg = ExperimentConfig(algo=algo, update_rule=rule, rho_mode=rho_mode, metric=metric,
                           permutations=SELECTION_PERMUTATIONS, seed=SELECTION_SEED_OFFSET)
    report = run_experiment(cfg, dataset)
    assert [strip(r) for r in report.rows] == scalar_rows(
        scalar_cache, cfg, dataset, report.eta, SELECTION_SEEDS)


@pytest.mark.parametrize("algo,rule", ALGO_RULES)
def test_compaction_is_invisible(algo, rule):
    # far more columns than the toy set uses: lane state covers the used ones only
    narrow, wide = load_dataset(TOY), load_dataset(TOY, d_override=100_000)
    assert wide.padded.width == narrow.padded.width < 20
    cfg = ExperimentConfig(algo=algo, update_rule=rule, rho_mode="laplace", permutations=3)
    a, b = run_experiment(cfg, narrow), run_experiment(cfg, wide)
    assert (a.eta, a.grid) == (b.eta, b.grid)
    assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]


def test_lane_blocks_follow_the_memory_policy(monkeypatch):
    # a byte budget of one lane's two columns runs one lane per pass; rows do not change
    ds = load_dataset(TOY)
    cfg = ExperimentConfig(algo="acog2-diag", rho_mode="laplace", permutations=3)
    whole = run_experiment(cfg, ds)
    monkeypatch.setattr(harness, "FULL_SIGMA_MAX_BYTES", 16 * ds.padded.width)
    blocks = run_experiment(cfg, ds)
    assert (blocks.eta, blocks.grid) == (whole.eta, whole.grid)
    assert [strip(r) for r in blocks.rows] == [strip(r) for r in whole.rows]


def test_shared_pass_splits_its_elapsed_time(monkeypatch):
    # every pass reads the clock twice; a fake clock makes each pass take 33 s
    clock = itertools.count(0.0, 33.0)
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    ds = load_dataset(TOY)
    cfg = ExperimentConfig(algo="cog2", permutations=20)
    grid = sorted(cfg.eta_grid)
    selection = selection_rows(cfg, ds, grid)  # 11 values x 3 permutations, one pass
    assert {r["elapsed_ms"] for rows in selection.values() for r in rows} == {33e3 / 33}
    report = run_experiment(cfg, ds)  # the evaluation pass has 20 lanes
    assert {r["elapsed_ms"] for r in report.rows} == {33e3 / 20}
    assert run_single(cfg, ds, 1.0, 0)["elapsed_ms"] == 33e3


@pytest.mark.parametrize("algo,rule", ALGO_RULES)
def test_lane_state_tracks_scalar_learners(algo, rule):
    # 3000 rounds; each lane reads its own random sparse rows, padded with
    # position d, and its own label and rho
    rng = np.random.default_rng(7)
    d, k = 40, 11
    cfg = ExperimentConfig(algo=algo, update_rule=rule)
    grid = sorted(cfg.eta_grid)
    g = len(grid)
    lanes = make_learner(cfg, d + 1, grid)
    learners = [make_learner(cfg, d, eta) for eta in grid]
    lane = np.arange(g)[:, None]
    for t in range(3000):
        # lane g's row: the first nnz[g] of a random ordering of the columns
        positions = np.argsort(rng.random((g, d)), axis=1)[:, :k]
        nnz = rng.integers(1, k + 1, size=g)
        real = np.arange(k) < nnz[:, None]
        values = rng.standard_normal((g, k)) * real
        # norms 0.5 to 2: PA-I's step reads each row's squared norm
        values *= rng.uniform(0.5, 2.0, size=(g, 1)) / np.linalg.norm(values, axis=1, keepdims=True)
        flat = np.where(real, positions, d) * g + lane
        y = np.where(rng.random(g) < 0.2, 1.0, -1.0)
        rho = 1.0 + 8.0 * rng.random(g)
        s = lanes.scores(flat, values)
        rows = [(positions[j, :nnz[j]], values[j, :nnz[j]]) for j in range(g)]
        for j, (learner, (p, x)) in enumerate(zip(learners, rows)):
            assert s[j] == pytest.approx(learner.score(p, x), rel=1e-12, abs=1e-12)
            learner.update(p, x, int(y[j]), rho[j])
        sq_norms = np.array([float(x @ x) for _, x in rows])
        lanes.step(flat, values, y, lane_class_weight(y, rho), s, sq_norms)
    if algo.startswith("acog"):
        assert (lanes.mu[d] == 0.0).all() and (lanes.sigma[d] == 1.0).all()  # padding column
    else:
        assert (lanes.w[d] == 0.0).all()
    for j, learner in enumerate(learners):
        if algo.startswith("acog"):
            pairs = [(lanes.mu[:d, j], learner.mu), (lanes.sigma[:d, j], learner.sigma)]
        else:
            pairs = [(lanes.w[:d, j], learner.w)]
        for got, scalar in pairs:
            atol = 1e-12 * max(1.0, np.abs(scalar).max())
            np.testing.assert_allclose(got, scalar, rtol=1e-12, atol=atol)
