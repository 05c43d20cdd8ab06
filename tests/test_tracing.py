"""The benchmark's tracer must still find every method and function it wraps.

``perfbench/tracing.py`` patches learner methods through the ``__dict__`` of
the class that owns them, and module functions by name.  Moving one of them
breaks only traced benchmark runs, so this test installs the unmodified
tracer, runs small experiments under both protocols on the toy set, and
checks that the learner counters were hit.  The batched lane passes of
both protocols call no patched learner method, so the scalar updates are
reached through the one-lane passes, whose learner runs its own ``update``
(CV runs of the perceptron and of full ACOG), and through scalar reference
passes (``run_single``) of the sketched learners with a random sketch init
and of diagonal ACOG.
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


def test_tracer_installs_and_counts_every_learner_layer(tmp_path):
    tracer = load_tracing().Tracer()
    try:
        tracer.install(costsense)  # a partial install is undone in finally too
        top = tracer.open("workload", workload="toy")
        ds = load_dataset(TOY)
        runs = [(run_experiment, algo, dict(eta_grid=(0.1, 1.0), permutations=2))
                for algo in ("cog2", "acog2-diag", "ssacog2")]
        # the lane learners run as batched lanes under both protocols; the
        # perceptron's and full ACOG's one-lane passes call their update
        runs += [(run_cv, algo, dict(eta_grid=(1.0,), folds=3)) for algo in ("acog2", "perceptron")]
        # and so do scalar passes, run through the patched harness function
        runs += [(lambda cfg, ds: costsense.harness.run_single(cfg, ds, 1.0, 0), algo,
                  dict(sketch_init="random")) for algo in ("sacog2", "ssacog2")]
        runs += [(lambda cfg, ds: costsense.harness.run_single(cfg, ds, 1.0, 0, collect_trace=True),
                  "acog2-diag", {})]
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
