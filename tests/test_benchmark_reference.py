"""The benchmark's correctness reference, checked in tier-1.

``perfbench/reference.json`` records, for each workload and seed, every
experiment's selected eta and the digest of its CSV's deterministic columns.
This test generates each workload's file at seed 0 with the benchmark's own
generator, runs the workload's algorithms the way ``perfbench/child.py``
does, and checks each CSV with ``run.check_csv`` against that record.  A
numerical change that flips a single mistake count then fails here, not
only in benchmark runs.  Grid selection alone is also checked on the
ijcnn1-grid files of seeds 0-9.  ``perfbench/`` is only read; the data and CSVs go
to a temporary directory.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from costsense.data import load_dataset
from costsense.harness import ExperimentConfig, grid_select, run_cv, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_run():
    """Import ``perfbench/run.py`` without leaving its sibling modules on
    ``sys.path``/``sys.modules`` or its BLAS settings in ``os.environ``."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)
    return module


RUN = load_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_seed0_matches_benchmark_reference(name, tmp_path):
    wl = RUN.WORKLOADS[name]
    expected = RUN.load_reference()[name]["0"]
    data = tmp_path / f"{wl.shape.name}.libsvm"
    RUN.generate(wl.shape, 0, data)
    ds = load_dataset(data)
    run = run_cv if wl.mode == "cv" else run_experiment
    for algo in wl.algos:
        out = tmp_path / f"{algo}.csv"
        cfg = ExperimentConfig(
            algo=algo, metric=wl.metric, rho_mode=wl.rho_mode, eta_grid=wl.eta_grid,
            permutations=wl.permutations, folds=wl.folds, seed=0, out=str(out),
        )
        eta = run(cfg, ds).eta
        digest, problems = RUN.check_csv(str(out), wl, 0, ds.t_pos, ds.t_neg)
        assert problems == [], algo
        assert {"eta": eta, "digest": digest} == expected[algo], algo


@pytest.mark.parametrize("seed", range(10))
def test_ijcnn1_grid_selection_matches_benchmark_reference(seed, tmp_path):
    # selection only: the eta each algorithm picks on the paper grid
    wl = RUN.WORKLOADS["ijcnn1-grid"]
    expected = RUN.load_reference()[wl.name][str(seed)]
    data = tmp_path / f"{wl.shape.name}.libsvm"
    RUN.generate(wl.shape, seed, data)
    ds = load_dataset(data)
    for algo in wl.algos:
        cfg = ExperimentConfig(algo=algo, metric=wl.metric, rho_mode=wl.rho_mode,
                               eta_grid=wl.eta_grid, seed=seed)
        assert grid_select(cfg, ds) == expected[algo]["eta"], algo
