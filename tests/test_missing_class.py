"""A class missing from the rows a report counts is refused before any pass.

Under ``empty_class="error"`` every row of a run whose rows lack a class
fails in ``class_rates``.  ``run_experiment`` checks the dataset's classes,
and ``run_cv`` each held-out fold's (the lowest such fold named), before
they run a pass: ``make_learner`` is replaced by None, so any pass would
fail with a ``TypeError`` instead.
"""

from pathlib import Path

import pytest

from costsense import harness
from costsense.data import load_dataset, split_folds
from costsense.harness import ExperimentConfig, run_cv, run_experiment

TOY = Path(__file__).resolve().parent.parent / "datasets" / "toy_imbalanced.libsvm"
MESSAGE = r"^sum metric undefined: .*--empty-class perfect"


def _all_negative(tmp_path):
    """The toy set with every label -1."""
    data = tmp_path / "negatives.libsvm"
    data.write_text("".join("-1" + line[2:] for line in TOY.read_text().splitlines(True)))
    return load_dataset(data)


def test_dataset_without_positives_refused_before_selection(tmp_path, monkeypatch):
    ds = _all_negative(tmp_path)
    assert ds.t_pos == 0 and ds.t_neg == 320
    monkeypatch.setattr(harness, "make_learner", None)
    cfg = ExperimentConfig(algo="cog2", rho_mode="laplace", eta_grid=(0.1, 1.0))
    with pytest.raises(ValueError, match=MESSAGE):
        run_experiment(cfg, ds)


def test_dataset_without_positives_reports_oracle_rho_first(tmp_path, monkeypatch):
    """As in run_cv, an undefined oracle rho is reported before a missing class."""
    monkeypatch.setattr(harness, "make_learner", None)
    cfg = ExperimentConfig(algo="cog2", eta_grid=(0.1, 1.0))
    with pytest.raises(ValueError, match="^oracle rho undefined"):
        run_experiment(cfg, _all_negative(tmp_path))


def test_held_out_fold_without_a_class_refused_before_any_pass(monkeypatch):
    ds = load_dataset(TOY)
    folds = split_folds(len(ds), 78, 0)
    lacking = [i for i, f in enumerate(folds) if len(set(ds.labels[f].tolist())) < 2]
    assert lacking  # 73 positives over 78 folds of four or five rows
    monkeypatch.setattr(harness, "make_learner", None)
    cfg = ExperimentConfig(algo="cog2", eta_grid=(0.1, 1.0), folds=78, seed=0)
    with pytest.raises(ValueError, match=MESSAGE) as err:
        run_cv(cfg, ds)
    assert f"held-out rows of CV fold {lacking[0] + 1} of 78 lack a class" in str(err.value)

