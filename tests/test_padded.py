"""``Dataset.padded``: one layout per dataset where the rows cover the kept
columns, shared read-only by every pass, and row norms only for PA-I."""

import numpy as np
import pytest

from costsense import data
from costsense.data import load_dataset
from costsense.harness import ExperimentConfig, run_experiment


@pytest.fixture
def five_columns(tmp_path):
    # rows that use columns 1-5 between them, and no other
    p = tmp_path / "five.libsvm"
    p.write_text("+1 1:1 3:2\n-1 2:1 4:1 5:3\n-1 1:2 5:1\n+1 2:1 3:1\n-1 4:2\n")
    return p


def test_kept_columns_in_use_share_the_unkept_layout(five_columns):
    ds = load_dataset(five_columns)
    assert ds.padded(5) is ds.padded(0)
    assert ds.padded(3) is ds.padded(0)
    assert ds.padded(0).width == 6


def test_row_norms_are_computed_once_per_dataset(tmp_path, monkeypatch):
    p = tmp_path / "gap.libsvm"
    p.write_text("+1 4:1\n-1 5:1 7:1 9:1\n")
    ds = load_dataset(p)
    calls, row_dots = [], data._row_dots
    monkeypatch.setattr(data, "_row_dots", lambda *args: calls.append(args) or row_dots(*args))
    cfg = ExperimentConfig(algo="pa1", eta_grid=(0.1, 1.0), permutations=2)
    run_experiment(cfg, ds)
    norms = ds.sq_norms
    run_experiment(cfg, ds)
    assert ds.sq_norms is norms and len(calls) == 1


@pytest.mark.parametrize("name", ["positions", "values", "sq_norms"])
def test_shared_arrays_are_read_only(five_columns, name):
    ds = load_dataset(five_columns)
    array = getattr(ds if name == "sq_norms" else ds.padded(), name)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 1


@pytest.mark.parametrize("algo,reads", [("cog2", False), ("sacog2", False), ("pa1", True)])
def test_only_pa1_passes_compute_row_norms(five_columns, algo, reads):
    ds = load_dataset(five_columns)
    run_experiment(ExperimentConfig(algo=algo, eta_grid=(0.1, 1.0), permutations=2), ds)
    assert ("sq_norms" in vars(ds)) == reads
    if reads:
        np.testing.assert_array_equal(ds.sq_norms, [float(v @ v) for _, v, _ in
                                                    ds.rows(np.arange(len(ds)))])


def test_pa1_row_norms_on_rows_of_16_or_more_entries(tmp_path):
    # rows of 1 to 40 entries in shuffled order: BLAS's dot adds a row of 16+
    # in blocks, and the norms must still be the one-row products, bit for bit
    rng = np.random.default_rng(3)
    p = tmp_path / "long.libsvm"
    p.write_text("".join(
        f"{'+1' if j % 3 else '-1'} "
        + " ".join(f"{i}:{v!r}" for i, v in zip(np.sort(rng.choice(50, size=k, replace=False)) + 1,
                                                  rng.uniform(0.1, 2.0, k).tolist()))
        + "\n" for j, k in enumerate(rng.permutation(np.repeat(np.arange(1, 41), 2)))))
    ds = load_dataset(p)
    assert np.diff(ds.indptr).max() == 40
    run_experiment(ExperimentConfig(algo="pa1", eta_grid=(0.1, 1.0), permutations=2), ds)
    want = np.array([float(v @ v) for _, v, _ in ds.rows(np.arange(len(ds)))])
    assert ds.sq_norms.tobytes() == want.tobytes()
