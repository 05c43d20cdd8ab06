"""A lane pass does not depend on where its chunks end.

``harness._lane_rounds`` hands a lane learner's ``advance`` one chunk of
rounds at a time, and the learner computes what does not depend on the
round's scores (the slope, ``eta`` times it, the sketch's xhat and
xhat @ xhat) once per chunk, while its sketch cadence counts rounds across
chunks.  Every learner must give bitwise the same scores and lane state
whether its pass advances in chunks of 1, of 7, or of the default size (the
whole toy pass): under both loss variants, each rho mode, the old update
rule, each sketch cadence, a random sketch init, and on a stream on which
the sparse sketch folds.  Every learner runs one pass of every lane.  A
state view that turned out to be a copy would lose every write and fail
here too.
"""

from pathlib import Path

import numpy as np
import pytest

from costsense import harness
from costsense.data import Dataset, load_dataset, permutation
from costsense.harness import ALGO_IDS, SKETCHED_ALGOS, ExperimentConfig
from costsense.sketch import SparseOjaSketch

TOY = Path(__file__).resolve().parent.parent / "datasets" / "toy_imbalanced.libsvm"

ETAS = [0.01, 1.0, 100.0]
SEEDS = [3, 4]

CASES = [(algo, {}) for algo in ALGO_IDS]
CASES += [(algo, dict(rho_mode=rho_mode)) for algo in ("cog1", "acog2-diag", "sacog2", "ssacog1")
          for rho_mode in ("laplace", "fixed:2.5")]
CASES += [(algo, dict(update_rule="old")) for algo in ("acog2", "acog1-diag", "acog2-diag")]
CASES += [(algo, dict(sketch_init="random")) for algo in ("sacog2", "ssacog2")]
CASES += [(algo, cadence) for algo in SKETCHED_ALGOS
          for cadence in (dict(sketch_lazy=3), dict(sketch_on_loss_only=True, rho_mode="laplace"))]


def lane_state(lanes) -> dict:
    """Every array of a lane learner's state, by name."""
    names = [name for name in ("w", "mu", "sigma", "b") if hasattr(lanes, name)]
    state = {name: getattr(lanes, name) for name in names}
    sketch = getattr(lanes, "sketch", None)
    if sketch is not None:
        for name in ("t", "lam", "V", "F", "K", "Z"):
            if hasattr(sketch, name):
                state["sketch." + name] = getattr(sketch, name)
    return state


def chunked_pass(monkeypatch, cfg, ds, chunk):
    """The lane pass over every (eta, seed) of ``ETAS`` x ``SEEDS``, in
    chunks of ``chunk`` rounds (None: the default).
    Returns their scores (one row per round), the lengths of their chunks,
    each pass's lane state, their rows, and how many lanes their sparse
    sketch folded, over all their rounds."""
    learners, scores, lengths, folds = [], [], [], []
    make = harness.make_learner

    def make_learner(*args):
        lanes = make(*args)
        advance = lanes.advance

        def recorded(flat, *rest):
            lengths.append(len(flat))
            scores.append(advance(flat, *rest))
            return scores[-1]
        lanes.advance = recorded
        sketch = getattr(lanes, "sketch", None)
        if isinstance(sketch, SparseOjaSketch):
            step = sketch.step

            def counted(*args):
                out = step(*args)
                folds.append(0 if out[-1] is None else len(out[-1][0]))
                return out
            sketch.step = counted
        learners.append(lanes)
        return lanes

    monkeypatch.setattr(harness, "make_learner", make_learner)
    if chunk is not None:
        slots = ds.padded(cfg.sketch_size if cfg.algo in SKETCHED_ALGOS else 0).positions.shape[1]
        lanes = len(ETAS) * len(SEEDS)
        monkeypatch.setattr(harness, "LANE_GATHER_ENTRIES", chunk * lanes * slots)
    etas = [eta for eta in ETAS for _ in SEEDS]
    seeds = SEEDS * len(ETAS)
    rows = harness._pass_rows(cfg, ds, etas, seeds, [permutation(len(ds), s) for s in seeds])
    monkeypatch.undo()
    states = [lane_state(lanes) for lanes in learners]
    return np.concatenate(scores), lengths, states, rows, sum(folds)


def assert_bitwise_equal(got: list, want: list):
    assert len(got) == len(want)
    for got, want in zip(got, want):
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].shape == want[name].shape, name
            assert got[name].tobytes() == want[name].tobytes(), name


def check_chunks(monkeypatch, cfg, ds):
    scores, lengths, state, rows, folds = chunked_pass(monkeypatch, cfg, ds, None)
    assert lengths == [len(ds)] * len(state)
    for chunk in (1, 7):
        got, lengths, got_state, got_rows, _ = chunked_pass(monkeypatch, cfg, ds, chunk)
        assert max(lengths) == chunk and sum(lengths) == len(ds) * len(state)
        assert got.tobytes() == scores.tobytes()
        assert_bitwise_equal(got_state, state)
        strip = [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in (*rows, *got_rows)]
        assert strip[len(rows):] == strip[:len(rows)]
    return folds


@pytest.fixture(scope="module")
def toy():
    return load_dataset(TOY)


def test_every_lane_algo_is_covered():
    assert {algo for algo, _ in CASES} == set(ALGO_IDS)
    assert {ExperimentConfig(algo=algo).loss_variant for algo in ALGO_IDS} == {1, 2}


@pytest.mark.parametrize("algo,kw", CASES, ids=[f"{a}-{'-'.join(map(str, kw.values()))}"
                                               for a, kw in CASES])
def test_chunk_edges_are_invisible(toy, monkeypatch, algo, kw):
    check_chunks(monkeypatch, ExperimentConfig(algo=algo, **kw), toy)


@pytest.mark.parametrize("algo", ["sacog2", "ssacog2"])
def test_chunk_edges_are_invisible_while_the_sketch_folds(monkeypatch, algo):
    # gamma 1e-2 on rows of norm 1 to 3, as in test_lanes.py: the sparse
    # sketch folds every few rounds, in each lane at its own time
    rng = np.random.default_rng(11)
    d, k, n = 30, 8, 200
    nnz = rng.integers(1, k + 1, size=n)
    positions = np.concatenate([np.sort(rng.choice(d, m, replace=False)) for m in nnz])
    values = rng.standard_normal(positions.size)
    indptr = np.concatenate([[0], np.cumsum(nnz)])
    norms = np.sqrt(np.add.reduceat(values * values, indptr[:-1]))
    values *= np.repeat(rng.uniform(1.0, 3.0, size=n) / norms, nnz)
    labels = np.where(rng.random(n) < 0.3, 1, -1)
    ds = Dataset(labels, indptr, positions, values, d)
    cfg = ExperimentConfig(algo=algo, gamma=1e-2, rho_mode="laplace")
    folds = check_chunks(monkeypatch, cfg, ds)
    if algo == "ssacog2":
        assert folds >= 5 * len(ETAS) * len(SEEDS)
