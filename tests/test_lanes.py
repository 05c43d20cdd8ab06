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

The sketched learners, whose lanes each carry a sketch of their own, are
checked the same way on the toy set with a two-value grid (their scalar
passes cost about 40 ms each there), under each rho mode and metric and
each sketch cadence (every round, every third round, loss-active rounds
only), and with a random sketch init under both protocols.  So are the
perceptron and full ACOG, whose passes run one lane per block.  Lane state
is checked against scalar learners over a stream on which the sparse sketch
folds many times.
"""

import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from costsense import harness
from costsense.data import Dataset, load_dataset
from costsense.harness import (
    LANE_ALGOS,
    SKETCHED_ALGOS,
    SELECTION_PERMUTATIONS,
    SELECTION_SEED_OFFSET,
    ExperimentConfig,
    grid_select,
    make_learner,
    run_cv,
    run_experiment,
    run_single,
    selection_rows,
)
from costsense.losses import lane_class_weight
from costsense.sacog import SparseSketchedCSGD
from test_cv_lanes import scalar_cv_rows

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
        key = (cfg.algo, cfg.update_rule, cfg.sketch_lazy, cfg.sketch_on_loss_only,
               cfg.rho_mode, cfg.metric, eta, seed)
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
    assert {algo for algo, _ in ALGO_RULES} | set(SKETCHED_ALGOS) == set(LANE_ALGOS)


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


@pytest.mark.parametrize("algo,rule", ALGO_RULES + [("sacog2", "new"), ("ssacog2", "new")])
def test_compaction_is_invisible(algo, rule):
    # far more columns than the toy set uses: lane state covers the used ones
    # (and a sketch's first m) only
    narrow, wide = load_dataset(TOY), load_dataset(TOY, d_override=100_000)
    assert wide.padded().width == narrow.padded().width < 20
    assert wide.padded(5).width == narrow.padded(5).width < 20
    cfg = ExperimentConfig(algo=algo, update_rule=rule, rho_mode="laplace", permutations=3)
    a, b = run_experiment(cfg, narrow), run_experiment(cfg, wide)
    assert (a.eta, a.grid) == (b.eta, b.grid)
    assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]


def test_lane_blocks_follow_the_memory_policy(monkeypatch):
    # a byte budget of one lane's two columns runs one lane per pass; rows do not change
    ds = load_dataset(TOY)
    cfg = ExperimentConfig(algo="acog2-diag", rho_mode="laplace", permutations=3)
    whole = run_experiment(cfg, ds)
    monkeypatch.setattr(harness, "FULL_SIGMA_MAX_BYTES", 16 * ds.padded().width)
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
        rows = [(positions[j, :nnz[j]], values[j, :nnz[j]]) for j in range(g)]
        sq_norms = np.array([float(x @ x) for _, x in rows])
        (s,) = lanes.advance(flat[None], values[None], y[None], lane_class_weight(y, rho)[None],
                             sq_norms[None])
        for j, (learner, (p, x)) in enumerate(zip(learners, rows)):
            assert s[j] == pytest.approx(learner.score(p, x), rel=1e-12, abs=1e-12)
            learner.update(p, x, int(y[j]), rho[j])
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


SKETCH_GRID = (0.1, 10.0)
CADENCES = {"every": {}, "lazy3": dict(sketch_lazy=3), "lossonly": dict(sketch_on_loss_only=True)}
# every rho mode and metric for the variant-II learners, one for variant I,
# and each cadence for all four
SKETCH_CASES = [(algo, "every", "oracle", "sum") for algo in SKETCHED_ALGOS]
SKETCH_CASES += [(algo, "every", rho_mode, metric) for algo in ("sacog2", "ssacog2")
                 for rho_mode in ("oracle", "laplace", "fixed:2.5") for metric in ("sum", "cost")
                 if (rho_mode, metric) != ("oracle", "sum")]
SKETCH_CASES += [(algo, cadence, "laplace", "sum") for algo in SKETCHED_ALGOS
                 for cadence in ("lazy3", "lossonly")]


@pytest.fixture(scope="module")
def toy():
    return load_dataset(TOY)


@pytest.fixture(scope="module")
def sketch_cache():
    """Scalar rows of the sketched learners on the toy set, keyed by config and pass."""
    return {}


def sketch_config(algo, cadence, rho_mode, metric, **kw):
    return ExperimentConfig(algo=algo, rho_mode=rho_mode, metric=metric, eta_grid=SKETCH_GRID,
                            **CADENCES[cadence], **kw)


@pytest.mark.parametrize("algo,cadence,rho_mode,metric", SKETCH_CASES)
def test_sketched_lanes_match_scalar_passes(toy, sketch_cache, monkeypatch, algo, cadence,
                                            rho_mode, metric):
    # the rows grid_select chooses from, kept from its own selection pass
    passes = []
    rows_of = harness.selection_rows

    def kept(*args):
        passes.append(rows_of(*args))
        return passes[-1]

    monkeypatch.setattr(harness, "selection_rows", kept)
    cfg = sketch_config(algo, cadence, rho_mode, metric)
    table = {}
    chosen = grid_select(cfg, toy, table)
    scalar = {eta: scalar_rows(sketch_cache, cfg, toy, eta, SELECTION_SEEDS)
              for eta in SKETCH_GRID}
    (lanes,) = passes
    for eta in SKETCH_GRID:
        assert [strip(r) for r in lanes[eta]] == scalar[eta], eta
    means = {eta: float(np.mean([r[metric] for r in rows])) for eta, rows in scalar.items()}
    assert chosen == scalar_choice(means, metric)
    assert table == means


@pytest.mark.parametrize("algo,cadence,rho_mode,metric", SKETCH_CASES)
def test_sketched_evaluation_lanes_match_scalar_passes(toy, sketch_cache, algo, cadence,
                                                       rho_mode, metric):
    # one evaluation pass at each grid value; its seeds are the selection
    # seeds of base seed 0, whose scalar passes the test above has cached
    cfg = sketch_config(algo, cadence, rho_mode, metric, permutations=SELECTION_PERMUTATIONS,
                        seed=SELECTION_SEED_OFFSET)
    for eta in SKETCH_GRID:
        report = run_experiment(dataclasses.replace(cfg, eta_grid=(eta,)), toy)
        assert [strip(r) for r in report.rows] == scalar_rows(
            sketch_cache, cfg, toy, eta, SELECTION_SEEDS)


def assert_passes_match_run_single(cfg, toy):
    """``cfg``'s experiment runs through ``_lane_rounds``, and its rows and
    selection table are those of ``run_single``'s passes."""
    with mock.patch.object(harness, "_lane_rounds", wraps=harness._lane_rounds) as rounds:
        report = run_experiment(cfg, toy)
    assert rounds.called
    assert [strip(r) for r in report.rows] == [
        strip(run_single(cfg, toy, report.eta, cfg.seed + i)) for i in range(cfg.permutations)]
    if cfg.algo == "perceptron":
        return  # every step size ties, so no selection pass runs
    selection_seeds = [cfg.seed + SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]
    assert report.grid == {
        eta: float(np.mean([run_single(cfg, toy, eta, s)[cfg.metric] for s in selection_seeds]))
        for eta in cfg.eta_grid}


# the perceptron and full ACOG, which run one lane per pass, and a random
# sketch init, whose lanes keep all d columns
RUN_SINGLE_CASES = [
    dict(algo="perceptron"),
    dict(algo="acog1"),
    dict(algo="acog2"),
    dict(algo="acog2", rho_mode="laplace"),
    dict(algo="acog2", update_rule="old"),
    dict(algo="sacog2", sketch_init="random"),
    dict(algo="ssacog2", sketch_init="random"),
]


@pytest.mark.parametrize("case", RUN_SINGLE_CASES,
                         ids=["-".join(case.values()) for case in RUN_SINGLE_CASES])
def test_lane_passes_match_run_single(toy, case):
    cfg = ExperimentConfig(eta_grid=(0.1, 1.0), permutations=2, seed=3, **case)
    assert_passes_match_run_single(cfg, toy)


@pytest.mark.parametrize("algo", SKETCHED_ALGOS)
def test_random_sketch_init_lanes_match_scalar_passes(toy, algo):
    # a random init is drawn over d, so its lanes keep every column; under
    # both protocols, with lanes that fall out of step
    cfg = ExperimentConfig(algo=algo, sketch_init="random", eta_grid=SKETCH_GRID, seed=5,
                           rho_mode="laplace", sketch_on_loss_only=True, permutations=3)
    assert_passes_match_run_single(cfg, toy)
    cv = dataclasses.replace(cfg, eta_grid=(0.5,), folds=3)
    assert [strip(r) for r in run_cv(cv, toy).rows] == scalar_cv_rows(cv, toy)


@pytest.mark.parametrize("algo", ["sacog2", "ssacog2"])
def test_oversized_sketch_refused_by_lane_passes(toy, algo):
    # the compacted width is at least m + 1, so m is checked against d itself
    cfg = ExperimentConfig(algo=algo, sketch_size=toy.d + 1, eta_grid=SKETCH_GRID)
    with pytest.raises(ValueError) as scalar:
        run_single(cfg, toy, 1.0, 0)
    with pytest.raises(ValueError) as selection:
        grid_select(cfg, toy)
    with pytest.raises(ValueError) as evaluation:
        run_experiment(ExperimentConfig(algo=algo, sketch_size=toy.d + 1, eta_grid=(1.0,)), toy)
    assert str(selection.value) == str(evaluation.value) == str(scalar.value)
    assert "sketch size 11 out of range for dimension 10" in str(scalar.value)


def test_sketched_lane_blocks_follow_the_memory_policy(toy, monkeypatch):
    # a byte budget of one sketched lane runs one lane per pass; rows do not change
    cfg = ExperimentConfig(algo="ssacog2", eta_grid=SKETCH_GRID, rho_mode="laplace",
                           sketch_on_loss_only=True, permutations=3)
    whole = run_experiment(cfg, toy)
    one_lane = harness._lane_bytes(cfg, toy.padded(cfg.sketch_size).width)
    monkeypatch.setattr(harness, "FULL_SIGMA_MAX_BYTES", one_lane)
    blocks = run_experiment(cfg, toy)
    assert (blocks.eta, blocks.grid) == (whole.eta, whole.grid)
    assert [strip(r) for r in blocks.rows] == [strip(r) for r in whole.rows]


def sketched_state(lanes, j, learners, d):
    """(lane, scalar) pairs of lane j's state and learner j's."""
    sk, learner = lanes.sketch, learners[j]
    scalar = learner.sketch
    pairs = [(sk.lam[j], scalar.lam)]
    if isinstance(learner, SparseSketchedCSGD):
        return pairs + [(lanes.w[:d, j], learner.w), (lanes.b[j], learner.b),
                        (sk.Z[:d, j].T, scalar.Z), (sk.F[j], scalar.F), (sk.K[j], scalar.K)]
    return pairs + [(lanes.mu[:d, j], learner.mu), (sk.V[j, :, :d], scalar.V)]


@pytest.mark.parametrize("cadence", ["every", "lossonly"])
@pytest.mark.parametrize("algo", ["sacog2", "ssacog2"])
def test_sketched_lane_state_tracks_scalar_learners(algo, cadence):
    # gamma 1e-2 on rows of norm 1 to 3: the sparse sketch folds every few
    # rounds, in each lane at its own time.  Lane j reads rows j * rounds ..,
    # laid out as Dataset.padded lays them out for a lane pass
    rng = np.random.default_rng(11)
    d, k, rounds = 30, 8, 250
    grid = [0.01, 0.1, 1.0, 10.0]
    g = len(grid)
    nnz = rng.integers(1, k + 1, size=g * rounds)
    positions = np.concatenate([np.sort(rng.choice(d, n, replace=False)) for n in nnz])
    values = rng.standard_normal(positions.size)
    indptr = np.concatenate([[0], np.cumsum(nnz)])
    norms = np.sqrt(np.add.reduceat(values * values, indptr[:-1]))
    values *= np.repeat(rng.uniform(1.0, 3.0, size=nnz.size) / norms, nnz)
    labels = np.where(rng.random(nnz.size) < 0.3, 1, -1)
    ds = Dataset(labels, indptr, positions, values, d)
    cfg = ExperimentConfig(algo=algo, gamma=1e-2, **CADENCES[cadence])
    padded = ds.padded(cfg.sketch_size)
    assert padded.width == d + 1
    lanes = make_learner(cfg, padded.width, grid)
    learners = [make_learner(cfg, d, eta) for eta in grid]
    lane = np.arange(g)[:, None]
    folds = 0
    for t in range(rounds):
        rows = np.arange(g) * rounds + t
        flat = padded.positions[rows] * g + lane
        y = labels[rows].astype(np.float64)
        rho = 1.0 + 4.0 * rng.random(g)
        (s,) = lanes.advance(flat[None], padded.values[rows][None], y[None],
                             lane_class_weight(y, rho)[None])
        for j, learner in enumerate(learners):
            p, x, label = ds[int(rows[j])]
            assert s[j] == learner.score(p, x)
            learner.update(p, x, label, rho[j])
            folds += getattr(learner.sketch, "last_fold", None) is not None
        for j, learner in enumerate(learners):
            assert lanes.sketch.t[j, 0] == learner.sketch.t
            for got, want in sketched_state(lanes, j, learners, d):
                atol = 1e-12 * max(1.0, np.abs(want).max())
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
    if algo == "ssacog2":
        assert folds >= 10 * g
        assert (lanes.w[d] == 0.0).all() and (lanes.sketch.Z[d] == 0.0).all()  # padding column
    else:
        assert (lanes.mu[d] == 0.0).all() and (lanes.sketch.V[:, :, d] == 0.0).all()
