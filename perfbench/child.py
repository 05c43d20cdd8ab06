"""One repetition of a workload, in a fresh process pinned to one core.

It does what a person reproducing the paper does: ``load_dataset`` on the
generated LIBSVM file (``SETUP_LOADS`` times, keeping the last), then
``run_experiment`` or ``run_cv`` for each algorithm through to the CSV on
disk.  The last line of its output is a JSON record of each timed interval
(monotonic start and end, CPU seconds), peak memory and each experiment's
outcome; with tracing on it adds the per-layer metrics and writes the spans
to a file.

Usage: python3 perfbench/child.py SPEC.json   (run.py writes the spec)
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


SETUP_LOADS = 3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Interval:
    """Monotonic wall clock and CPU time between ``start`` and ``stop``."""

    def __init__(self):
        self.start, self._cpu = time.monotonic(), time.process_time()

    def stop(self) -> dict:
        return {"start": self.start, "end": time.monotonic(),
                "cpu": time.process_time() - self._cpu}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import costsense
    from costsense import ExperimentConfig

    if Path(costsense.__file__).resolve().parent != (src / "costsense").resolve():
        print(f"costsense imported from {costsense.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out_dir"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(costsense)
        top = tracer.open("workload", workload=wl.name)
    run = costsense.harness.run_cv if wl.mode == "cv" else costsense.harness.run_experiment

    loads = []
    for _ in range(SETUP_LOADS):
        dataset = None  # free the previous copy first, as a single load would
        clock = Interval()
        dataset = costsense.data.load_dataset(spec["data"])
        loads.append(clock.stop())
    rss_after_load = _peak_rss_mb()

    experiments = []
    clock_all = Interval()
    for algo in wl.algos:
        csv_path = out_dir / f"{algo}.csv"
        cfg = ExperimentConfig(
            algo=algo, metric=wl.metric, rho_mode=wl.rho_mode, eta_grid=wl.eta_grid,
            permutations=wl.permutations, folds=wl.folds, seed=spec["seed"], out=str(csv_path),
        )
        record = {"algo": algo, "csv": str(csv_path), "error": None, "eta": None}
        span = tracer.open("experiment", algo=algo, mode=wl.mode) if tracer else None
        clock = Interval()
        try:
            record["eta"] = run(cfg, dataset).eta
        except Exception:  # one failed experiment must not stop the others
            record["error"] = traceback.format_exc()
        record["interval"] = clock.stop()
        if span is not None:
            tracer.close(span)
        experiments.append(record)
    result = {
        "loads": loads,
        "experiment": clock_all.stop(),
        "peak_rss_mb": _peak_rss_mb(),
        "rows": len(dataset),
        "d": dataset.d,
        "t_pos": dataset.t_pos,
        "t_neg": dataset.t_neg,
        "experiments": experiments,
    }
    if tracer is not None:
        tracer.close(top)
        tracer.uninstall(costsense)
        algos = {s.exp: s.attrs["algo"] for s in tracer.spans if s.name == "experiment"}
        layers, tails = layer_metrics(tracer, algos, dataset.d, len(dataset), rss_after_load)
        result["layers"] = layers
        result["tails"] = tails
        spans_path = out_dir / "spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
        result["spans"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
