"""The benchmark's tracer must still find every method and function it wraps.

``perfbench/tracing.py`` patches learner methods through the ``__dict__`` of
the class that owns them, and module functions by name.  Moving one of them
breaks only traced benchmark runs, so this test installs the unmodified
tracer, runs small experiments under both protocols on the toy set, and
checks that the learner counters were hit.  The batched lane passes of
both protocols call no patched learner method, and full ACOG's one-lane
passes call ``covariance_update`` but not its ``update``.  So the scalar
updates are reached through the perceptron's one-lane passes (its CV run),
which run its own ``update``, and through plain ``update`` loops over
learners from ``costsense.harness.make_learner``: the sketched learners with
a random sketch init, and diagonal ACOG.
"""

import importlib.util
from pathlib import Path

import costsense
from costsense.data import load_dataset
from costsense.harness import ExperimentConfig, run_cv, run_experiment

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "datasets" / "toy_imbalanced.libsvm"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def update_loop(cfg, ds):
    """Score then update on every row of ``ds.order(0)`` at step size 1, as
    the per-sample API runs; the harness functions are looked up at call
    time, so the tracer's wrappers run."""
    learner = costsense.harness.make_learner(cfg, ds.d, 1.0)
    rho = costsense.harness.make_cost_model(cfg, (ds.t_pos, ds.t_neg)).rho
    for positions, values, y in ds.rows(ds.order(0)):
        learner.update(positions, values, y, rho, score=learner.score(positions, values))


def test_tracer_installs_and_counts_every_learner_layer(tmp_path):
    tracer = load_tracing().Tracer()
    try:
        tracer.install(costsense)  # a partial install is undone in finally too
        top = tracer.open("workload", workload="toy")
        ds = load_dataset(TOY)
        runs = [(run_experiment, algo, dict(eta_grid=(0.1, 1.0), permutations=2))
                for algo in ("cog2", "acog2-diag", "ssacog2")]
        # the lane learners run as batched lanes under both protocols; the
        # perceptron's one-lane passes call its update, full ACOG's its
        # covariance_update
        runs += [(run_cv, algo, dict(eta_grid=(1.0,), folds=3)) for algo in ("acog2", "perceptron")]
        # and plain update loops call the other learners' update
        runs += [(update_loop, algo, dict(sketch_init="random")) for algo in ("sacog2", "ssacog2")]
        runs += [(update_loop, "acog2-diag", {})]
        for run, algo, kw in runs:
            span = tracer.open("experiment", algo=algo,
                               mode="cv" if run is run_cv else "experiment")
            cfg = ExperimentConfig(algo=algo, out=str(tmp_path / f"{algo}.csv"), **kw)
            run(cfg, ds)
            tracer.close(span)
        tracer.close(top)
    finally:
        tracer.uninstall(costsense)
    calls = {}
    for span in tracer.spans:
        for name, counter in span.counters.items():
            calls[name] = calls.get(name, 0) + counter[0]
    for name in ("baselines.update", "acog.update", "sacog.update", "sketch.sparse_update",
                 "sketch.oja_update", "acog.covariance_update", "acog.covariance_update_diag"):
        assert calls.get(name, 0) > 0, name
