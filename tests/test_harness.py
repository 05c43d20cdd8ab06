import csv
import dataclasses
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from costsense import cli
from costsense.baselines import Perceptron
from costsense.data import load_dataset, permutation
from costsense.harness import (
    ALGO_IDS,
    SELECTION_PERMUTATIONS,
    SELECTION_SEED_OFFSET,
    ExperimentConfig,
    RunReport,
    aggregate_rows,
    emit_csv,
    grid_select,
    make_cost_model,
    make_learner,
    run_cv,
    run_experiment,
    run_single,
)
from costsense.losses import observe_label
from costsense.metrics import ConfusionCounts, sum_metric
from costsense.sketch import SketchConditionError
from test_cv_lanes import scalar_single

TOY = Path(__file__).resolve().parent.parent / "datasets" / "toy_imbalanced.libsvm"
SRC = Path(__file__).resolve().parent.parent / "src"
# the CLI subprocess imports this checkout's package, installed or not
CLI_ENV = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="module")
def toy():
    return load_dataset(TOY)


@pytest.fixture
def no_selection(monkeypatch):
    """Fail the test if grid selection runs a pass."""
    from costsense import harness

    def no_pass(*args):
        raise AssertionError("a selection pass ran")
    monkeypatch.setattr(harness, "selection_rows", no_pass)


def strip_elapsed(row):
    return {k: v for k, v in row.items() if not k.startswith("elapsed")}


class TestRunSingle:
    def test_smoke_on_separable_points(self, tmp_path):
        p = tmp_path / "sep.libsvm"
        p.write_text("+1 1:1\n+1 1:0.9\n-1 1:-1\n-1 1:-0.8\n")
        ds = load_dataset(p)
        cfg = ExperimentConfig(algo="perceptron", eta_grid=(1.0,), permutations=1)
        row = run_single(cfg, ds, eta=1.0, perm_seed=0)
        assert 0.0 <= row["sum"] <= 100.0
        assert row["mistakes_pos"] + row["mistakes_neg"] <= len(ds)

    def test_deterministic_given_seed(self, toy):
        cfg = ExperimentConfig(algo="acog2", eta_grid=(1.0,))
        a = run_single(cfg, toy, eta=1.0, perm_seed=7)
        b = run_single(cfg, toy, eta=1.0, perm_seed=7)
        assert strip_elapsed(a) == strip_elapsed(b)

    def test_different_seeds_usually_differ(self, toy):
        cfg = ExperimentConfig(algo="cog2", eta_grid=(1.0,))
        rows = [run_single(cfg, toy, 1.0, s) for s in range(5)]
        sums = {r["sum"] for r in rows}
        assert len(sums) > 1

    def test_all_algo_ids_run(self, toy):
        for algo in ("perceptron", "pa1", "cog1", "acog1", "acog2-diag",
                     "sacog2", "ssacog1"):
            cfg = ExperimentConfig(algo=algo, eta_grid=(1.0,), sketch_size=3)
            row = run_single(cfg, toy, eta=1.0, perm_seed=0)
            assert np.isfinite(row["sum"])

    def test_laplace_mode_runs(self, toy):
        cfg = ExperimentConfig(algo="acog2", eta_grid=(1.0,), rho_mode="laplace")
        row, trace = run_single(cfg, toy, 1.0, 0, collect_trace=True)
        # final estimate should sit near the true ratio alpha-scaled
        expected = (toy.t_neg + 1) / (toy.t_pos + 1)
        assert trace.rho_final == pytest.approx(expected)

    def test_fixed_rho_mode(self, toy):
        cfg = ExperimentConfig(algo="cog1", eta_grid=(1.0,), rho_mode="fixed:2.5")
        row = run_single(cfg, toy, 1.0, 0)
        assert np.isfinite(row["cost"])

    def test_trace_collects_per_round_state(self, toy):
        cfg = ExperimentConfig(algo="acog1", eta_grid=(0.5,))
        row, trace = run_single(cfg, toy, 0.5, 3, collect_trace=True)
        assert len(trace.losses) == len(toy)
        assert len(trace.order) == len(toy)
        assert trace.m_pos_series[-1] == row["mistakes_pos"]
        assert all(l >= 0 for l in trace.losses)

    @pytest.mark.parametrize("metric", ["sum", "cost"])
    @pytest.mark.parametrize("rho_mode", ["oracle", "laplace", "fixed:2.5"])
    @pytest.mark.parametrize("algo", ALGO_IDS)
    def test_trace_matches_scalar_updates(self, toy, algo, rho_mode, metric):
        # the lane pass's trace against the per-sample update's returns; full
        # ACOG's lane pass delays its covariance terms, so its losses may
        # differ in the last bits
        cfg = ExperimentConfig(algo=algo, rho_mode=rho_mode, metric=metric)
        for eta, seed in ((0.1, 0), (1.0, 3)):
            row, trace = run_single(cfg, toy, eta, seed, collect_trace=True)
            want_row, want = scalar_single(cfg, toy, eta, seed)
            assert strip_elapsed(row) == want_row
            assert (trace.order == want.order).all()
            assert (trace.m_pos_series, trace.m_neg_series, trace.rho_final) == (
                want.m_pos_series, want.m_neg_series, want.rho_final)
            if algo in ("acog1", "acog2"):
                np.testing.assert_allclose(trace.losses, want.losses, rtol=1e-12, atol=1e-12)
            else:
                assert trace.losses == want.losses

    def test_full_acog_over_wide_data_runs_as_its_experiment(self):
        # sigma covers the columns in use, as in an experiment's passes, not d
        wide = load_dataset(TOY, d_override=200_000)
        cfg = ExperimentConfig(algo="acog2", eta_grid=(1.0,), permutations=1, seed=2)
        row = run_single(cfg, wide, 1.0, 2)
        assert strip_elapsed(row) == strip_elapsed(run_experiment(cfg, wide).rows[0])


class TestGridSelect:
    def test_single_element_grid(self, toy, no_selection):
        # a grid is a set: one value given twice is still one value, for the
        # lane learners and the one-pass-per-value learners alike
        for algo in ("cog2", "acog2", "ssacog2"):
            for grid in ((0.25,), (0.25, 0.25)):
                table = {}
                assert grid_select(ExperimentConfig(algo=algo, eta_grid=grid), toy, table) == 0.25
                assert table == {}

    def _selection_means(self, cfg, toy):
        seeds = [cfg.seed + SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]
        return {
            eta: np.mean([scalar_single(cfg, toy, eta, s)[0][cfg.metric] for s in seeds])
            for eta in cfg.eta_grid
        }

    def test_picks_best_mean_sum(self, toy):
        cfg = ExperimentConfig(algo="cog2", eta_grid=(1e-12, 0.1, 1.0, 10.0))
        means = self._selection_means(cfg, toy)
        expected = max(sorted(means), key=lambda e: (means[e], -e))
        assert grid_select(cfg, toy) == expected

    def test_tie_breaks_toward_smaller(self, toy):
        # the perceptron ignores the grid value entirely: every eta ties
        cfg = ExperimentConfig(algo="perceptron", eta_grid=(10.0, 0.1, 1.0))
        assert grid_select(cfg, toy) == 0.1

    def test_cost_mode_minimizes(self, toy):
        cfg = ExperimentConfig(algo="cog2", metric="cost", eta_grid=(1e-12, 1.0, 10.0))
        means = self._selection_means(cfg, toy)
        expected = min(sorted(means), key=lambda e: (means[e], e))
        assert grid_select(cfg, toy) == expected

    @pytest.mark.parametrize("metric", ["sum", "cost"])
    def test_equal_means_go_to_the_smaller_eta(self, toy, metric, monkeypatch):
        from costsense import harness

        # 0.1 scores worse than 1 and 10, which tie; rows come in grid order
        best, worse = (75.0, 2.0), (50.0, 9.0)
        scores = {0.1: worse, 1.0: best, 10.0: best}

        def rows(cfg, dataset, grid):
            assert grid == sorted(scores)
            return {eta: [dict(zip(("sum", "cost"), scores[eta]))] * 2 for eta in grid}

        monkeypatch.setattr(harness, "selection_rows", rows)
        cfg = ExperimentConfig(algo="cog2", metric=metric, eta_grid=(10.0, 1.0, 0.1))
        table = {}
        assert grid_select(cfg, toy, table) == 1.0
        column = 0 if metric == "sum" else 1
        assert table == {eta: score[column] for eta, score in scores.items()}

    @pytest.mark.parametrize("algo", ["perceptron", "acog2", "sacog2", "ssacog2", "cog2"])
    def test_each_selection_permutation_computed_once(self, algo, monkeypatch):
        from costsense import data, harness

        seeds = []

        def counted(n, seed):
            seeds.append(seed)
            return permutation(n, seed)
        monkeypatch.setattr(data, "permutation", counted)
        cfg = ExperimentConfig(algo=algo, eta_grid=(0.1, 1.0, 10.0))
        table = {}
        # a fresh dataset: a loaded one keeps the orders it has computed
        grid_select(cfg, load_dataset(TOY), table)
        if algo == "perceptron":
            # it ignores eta, so the smallest value wins the tie without a pass
            assert seeds == [] and table == {}
        else:
            offset = harness.SELECTION_SEED_OFFSET
            assert seeds == [offset, offset + 1, offset + 2]
            assert sorted(table) == [0.1, 1.0, 10.0]

    def test_table_holds_the_mean_selection_scores(self, toy):
        cfg = ExperimentConfig(algo="acog2", eta_grid=(10.0, 0.1, 1.0), metric="cost")
        table = {}
        eta = grid_select(cfg, toy, table)
        assert table == {e: float(m) for e, m in self._selection_means(cfg, toy).items()}
        assert list(table) == [0.1, 1.0, 10.0]
        assert table[eta] == min(table.values())


class TestRunExperiment:
    def test_experiments_on_one_dataset_share_each_order(self, monkeypatch):
        from costsense import data

        seeds = []

        def counted(n, seed):
            seeds.append(seed)
            return permutation(n, seed)
        monkeypatch.setattr(data, "permutation", counted)
        ds = load_dataset(TOY)
        for algo in ("cog2", "acog2-diag"):
            run_experiment(ExperimentConfig(algo=algo, eta_grid=(0.1, 1.0, 10.0)), ds)
        selection = [SELECTION_SEED_OFFSET + i for i in range(SELECTION_PERMUTATIONS)]
        assert sorted(seeds) == list(range(20)) + selection
        order = ds.order(0)
        assert ds.order(0) is order
        with pytest.raises(ValueError):
            order[0] = order[1]

    def test_single_permutation_has_zero_std(self, toy):
        cfg = ExperimentConfig(algo="cog1", eta_grid=(1.0,), permutations=1)
        report = run_experiment(cfg, toy)
        assert report.std["sum"] == 0.0

    def test_aggregate_equals_mean_of_rows(self, toy):
        cfg = ExperimentConfig(algo="acog2-diag", eta_grid=(1.0,), permutations=5)
        report = run_experiment(cfg, toy)
        for key in ("sum", "cost", "sensitivity", "specificity"):
            vals = [r[key] for r in report.rows]
            assert report.aggregate[key] == pytest.approx(np.mean(vals), abs=1e-12)
            assert report.std[key] == pytest.approx(np.std(vals, ddof=1), abs=1e-12)

    def test_rows_internally_consistent_with_weights(self, toy):
        cfg = ExperimentConfig(algo="cog2", eta_grid=(1.0,), permutations=3,
                               alpha_p=0.8, alpha_n=0.2, c_p=0.75, c_n=0.25)
        report = run_experiment(cfg, toy)
        for r in report.rows:
            recomputed_sum = 0.8 * r["sensitivity"] + 0.2 * r["specificity"]
            assert r["sum"] == pytest.approx(recomputed_sum, abs=1e-9)
            recomputed_cost = 0.75 * r["mistakes_pos"] + 0.25 * r["mistakes_neg"]
            assert r["cost"] == pytest.approx(recomputed_cost, abs=1e-12)
            sens_from_counts = 100.0 * (toy.t_pos - r["mistakes_pos"]) / toy.t_pos
            assert r["sensitivity"] == pytest.approx(sens_from_counts, abs=1e-9)

    def test_row_order_never_changes_aggregate(self, toy):
        cfg = ExperimentConfig(algo="cog2", eta_grid=(1.0,), permutations=6)
        report = run_experiment(cfg, toy)
        agg_fwd, std_fwd = aggregate_rows(report.rows)
        agg_rev, std_rev = aggregate_rows(list(reversed(report.rows)))
        assert agg_fwd == agg_rev and std_fwd == std_rev

    def test_report_keeps_the_selection_table(self, toy):
        cfg = ExperimentConfig(algo="cog2", eta_grid=(0.1, 1.0), permutations=1)
        report = run_experiment(cfg, toy)
        table = {}
        assert grid_select(cfg, toy, table) == report.eta
        assert report.grid == table and len(table) == 2
        one = run_experiment(ExperimentConfig(algo="cog2", eta_grid=(1.0,), permutations=1), toy)
        assert one.grid == {}

    def test_writes_csv_when_out_set(self, toy, tmp_path):
        out = tmp_path / "report.csv"
        cfg = ExperimentConfig(
            algo="cog1", eta_grid=(1.0,), permutations=2, out=str(out)
        )
        run_experiment(cfg, toy)
        assert out.exists()


class TestEmitCsv:
    def test_column_order_and_round_trip(self, toy, tmp_path):
        cfg = ExperimentConfig(algo="acog2", eta_grid=(1.0,), permutations=3)
        report = run_experiment(cfg, toy)
        path = tmp_path / "r.csv"
        emit_csv(report, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        header = lines[0].split(",")
        assert header[:10] == [
            "run_id", "seed", "eta", "sum", "cost", "sensitivity",
            "specificity", "mistakes_pos", "mistakes_neg", "elapsed_ms",
        ]
        assert header[10:] == [
            "sum_std", "cost_std", "sensitivity_std", "specificity_std",
            "mistakes_pos_std", "mistakes_neg_std", "elapsed_ms_std",
        ]
        data_rows = [l.split(",") for l in lines[1:] if l]
        assert len(data_rows) == 4  # 3 runs + aggregate
        for cells, row in zip(data_rows[:3], sorted(report.rows, key=lambda r: r["seed"])):
            assert float(cells[3]) == row["sum"]  # exact round trip
            assert float(cells[4]) == row["cost"]
            assert int(cells[7]) == row["mistakes_pos"]
        agg = data_rows[3]
        assert agg[0] == "aggregate"
        assert float(agg[3]) == report.aggregate["sum"]
        assert float(agg[10]) == report.std["sum"]

    def test_identical_config_and_seed_identical_bytes(self, toy, tmp_path):
        # determinism contract, elapsed columns excluded
        def emit(path):
            cfg = ExperimentConfig(algo="acog1", eta_grid=(0.1, 1.0),
                                   permutations=3, seed=11, out=str(path))
            run_experiment(cfg, toy)
            rows = [l.split(",") for l in Path(path).read_text().split("\n") if l]
            drop = {9, 16}  # elapsed_ms, elapsed_ms_std
            return [[c for i, c in enumerate(r) if i not in drop] for r in rows]

        assert emit(tmp_path / "a.csv") == emit(tmp_path / "b.csv")


class TestRunCv:
    def test_constant_zero_model_scores_alpha_p(self, toy):
        # untrained learner: sign(0) = +1 everywhere, so sensitivity is 1,
        # specificity 0, and the weighted sum collapses to alpha_p
        learner = Perceptron(toy.d)
        cc = ConfusionCounts()
        for positions, values, y in toy.rows(np.arange(50)):
            _, pred = learner.predict(positions, values)
            cc.record(pred, y)
        assert sum_metric(cc, 0.3, 0.7) == pytest.approx(0.3)

    def test_fold_rows_and_determinism(self, toy):
        cfg = ExperimentConfig(algo="acog2", eta_grid=(1.0,), folds=5, seed=2)
        a = run_cv(cfg, toy)
        b = run_cv(cfg, toy)
        assert len(a.rows) == 5
        assert [strip_elapsed(r) for r in a.rows] == [strip_elapsed(r) for r in b.rows]

    def test_cv_experiments_on_one_dataset_share_each_split(self, monkeypatch):
        from costsense import data

        calls = []

        def counted(n, seed):
            calls.append((n, seed))
            return permutation(n, seed)
        monkeypatch.setattr(data, "permutation", counted)
        ds = load_dataset(TOY)
        for algo in ("cog2", "acog2", "ssacog2"):
            run_cv(ExperimentConfig(algo=algo, eta_grid=(1.0,), folds=3, seed=4), ds)
        # the split at seed 4, then one training order per fold at seed 4 + i
        assert [seed for _, seed in calls] == [4, 4, 5, 6]
        assert calls[0][0] == len(ds) and sum(n for n, _ in calls[1:]) == 2 * len(ds)

    def test_run_experiment_runs_cv_when_folds_are_set(self, toy):
        cfg = ExperimentConfig(algo="cog2", eta_grid=(0.1, 1.0), folds=3, seed=4)
        rows = [strip_elapsed(r) for r in run_experiment(cfg, toy).rows]
        assert rows == [strip_elapsed(r) for r in run_cv(cfg, toy).rows]
        assert len(rows) == 3

    def test_rejects_bad_fold_count(self, toy):
        cfg = ExperimentConfig(algo="cog1", eta_grid=(1.0,), folds=0)
        with pytest.raises(ValueError):
            run_cv(cfg, toy)

    def test_fold_count_checked_before_selection(self, toy, no_selection):
        cfg = ExperimentConfig(algo="cog2", folds=len(toy) + 1)
        with pytest.raises(ValueError, match=f"fold count {len(toy) + 1} out of range"):
            run_cv(cfg, toy)

    def test_cv_beats_chance_on_toy(self, toy):
        cfg = ExperimentConfig(algo="acog2", eta_grid=(0.1, 1.0, 10.0), folds=5)
        report = run_cv(cfg, toy)
        assert report.aggregate["sum"] > 55.0

    def test_cv_german_reproduction_regime(self):
        # published 5-fold figure for the diagonal variant is about 66;
        # the exact CV protocol is underdetermined, so assert the regime
        path = TOY.parent / "german.numer"
        if not path.exists():
            pytest.skip("german.numer not vendored; see datasets/README.md")
        ds = load_dataset(path)
        cfg = ExperimentConfig(algo="acog2-diag", folds=5, seed=0)
        report = run_cv(cfg, ds)
        assert 60.0 <= report.aggregate["sum"] <= 72.0


class TestConfigValidation:
    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algo="adagrad")

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(eta_grid=())

    def test_bad_rho_mode(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho_mode="sometimes")

    @pytest.mark.parametrize(
        "rho_mode", ["fixed:nan", "fixed:inf", "fixed:abc", "fixed:-1", "fixed:0"]
    )
    def test_bad_fixed_rho_rejected_before_any_data(self, rho_mode):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="missing.libsvm", rho_mode=rho_mode)

    def test_bad_cost_weights_rejected_at_construction(self):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(dataset="missing.libsvm", alpha_p=2.0)

    @pytest.mark.parametrize("folds", [-1, 1])
    def test_degenerate_fold_count_rejected(self, folds):
        with pytest.raises(ValueError, match="folds"):
            ExperimentConfig(folds=folds)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(algo="cog2", eta_grid=(float("nan"),)),
            dict(algo="cog2", eta_grid=(1.0, float("inf"))),
            dict(algo="cog2", eta_grid=(-1.0,)),
            dict(algo="pa1", eta_grid=(0.0,)),
            dict(algo="acog2-diag", gamma=float("nan")),
            dict(algo="acog2", gamma=0.0),
            dict(algo="acog2", gamma=float("inf")),
            dict(algo="sacog2", sketch_size=0),
            dict(algo="ssacog2", sketch_lazy=0),
            dict(algo="sacog2", sketch_init="bogus"),
            dict(algo="cog2", update_rule="bogus"),
            dict(algo="cog2", empty_class="bogus"),
        ],
    )
    def test_degenerate_learner_settings_rejected_before_any_data(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="missing.libsvm", **bad)

    def test_largest_seed_within_the_key_range(self):
        # its last selection permutation seed is 2**128 - 1, Philox's largest key
        largest = 2**128 - SELECTION_SEED_OFFSET - SELECTION_PERMUTATIONS
        ExperimentConfig(seed=largest)
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=largest + 1)
        with pytest.raises(ValueError, match="seed"):  # one evaluation seed too many
            ExperimentConfig(seed=largest, permutations=SELECTION_SEED_OFFSET + SELECTION_PERMUTATIONS + 1)

    def test_out_that_is_a_directory_rejected_before_any_data(self, tmp_path):
        with pytest.raises(ValueError, match="is a directory"):
            ExperimentConfig(dataset="missing.libsvm", out=str(tmp_path))

    def test_run_cv_checks_folds_before_loading(self):
        cfg = ExperimentConfig(dataset="missing.libsvm", folds=0)
        with pytest.raises(ValueError, match="folds"):
            run_cv(cfg)

    def test_config_is_frozen(self):
        cfg = ExperimentConfig(algo="cog2")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.metric = "cost"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.permutations = 0

    def test_replaced_field_reaches_the_cost_model(self, toy):
        # the cost model is built from the fields on each call, never cached
        cfg = ExperimentConfig(algo="cog2", eta_grid=(0.1, 1.0), permutations=2)
        counts = (toy.t_pos, toy.t_neg)
        assert make_cost_model(cfg, counts).rho == pytest.approx(toy.t_neg / toy.t_pos)
        cost = dataclasses.replace(cfg, metric="cost")
        assert make_cost_model(cost, counts).rho == pytest.approx(9.0)
        direct = ExperimentConfig(algo="cog2", eta_grid=(0.1, 1.0), permutations=2, metric="cost")
        a, b = run_experiment(cost, toy), run_experiment(direct, toy)
        assert [strip_elapsed(r) for r in a.rows] == [strip_elapsed(r) for r in b.rows]
        with pytest.raises(ValueError, match="permutations"):
            dataclasses.replace(cfg, permutations=0)

    @pytest.mark.parametrize("algo", ["perceptron", "pa1"])
    @pytest.mark.parametrize("metric", ["sum", "cost"])
    @pytest.mark.parametrize("rho_mode", ["oracle", "laplace", "fixed:2.5"])
    def test_rho_free_learners_get_a_unit_cost_model(self, algo, metric, rho_mode):
        # no positives: an oracle rho of these counts would be undefined
        cfg = ExperimentConfig(algo=algo, metric=metric, rho_mode=rho_mode)
        cm = make_cost_model(cfg, (0, 10))
        assert cm.rho == 1.0
        assert observe_label(cm, np.array([1, -1, 1, 1])) == 1.0
        assert (cm.rho, cm.seen_pos, cm.seen_neg) == (1.0, 0, 0)

    def test_variant_derived_from_algo_id(self):
        from costsense.losses import LossVariant

        assert ExperimentConfig(algo="acog1-diag").loss_variant == LossVariant.I
        assert ExperimentConfig(algo="ssacog2").loss_variant == LossVariant.II


class TestCli:
    @pytest.fixture
    def seen(self, monkeypatch):
        """The config each ``cli.main`` call runs, which runs nothing."""
        seen = {}

        def fake_run(cfg):
            seen["cfg"] = cfg
            zeros = dict.fromkeys(("sum", "cost", "sensitivity", "specificity"), 0.0)
            return RunReport(cfg, 1.0, [], zeros, zeros)

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        return seen

    def test_flags_reach_config_fields(self, seen):
        assert cli.main(["run", "--dataset", str(TOY), "--algo", "cog2",
                         "--cp", "0.75", "--cn", "0.25", "--rho-mode", "fixed:3"]) == 0
        cfg = seen["cfg"]
        assert (cfg.c_p, cfg.c_n, cfg.rho_mode) == (0.75, 0.25, "fixed:3")

    def test_unset_flags_take_the_config_defaults(self, seen):
        assert cli.main(["run", "--dataset", "x", "--algo", "cog1"]) == 0
        assert seen["cfg"] == ExperimentConfig(dataset="x", algo="cog1")

    def test_sketch_condition_error_reported(self, monkeypatch, capsys):
        def fail(cfg):
            raise SketchConditionError("Gram matrix is not positive semidefinite")

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert cli.main(["run", "--dataset", str(TOY), "--algo", "sacog2"]) == 2
        assert capsys.readouterr().err.startswith("error: Gram matrix")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--folds", "1"],
            ["--rho-mode", "fixed:nan"],
            ["--seed", "-1"],
            # past Philox's 2**128 key range: the evaluation seed itself, and
            # the selection seeds of the largest seed below 2**128
            ["--eta-grid", "1", "--permutations", "1", "--seed", str(2**128)],
            ["--eta-grid", "1,10", "--seed", str(2**128 - 1)],
            ["--d-override", "0"],
            ["--out", "missing_dir/report.csv"],
        ],
    )
    def test_bad_config_reported_before_reading_data(self, flags, capsys):
        assert cli.main(["run", "--dataset", "missing.libsvm", "--algo", "cog1"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.libsvm" not in err

    @pytest.mark.parametrize("folds", [[], ["--folds", "3"]])
    def test_out_that_is_a_directory_is_one_error_line(self, folds, tmp_path, monkeypatch,
                                                       capsys):
        from costsense import harness

        monkeypatch.setattr(harness, "make_learner", None)  # any pass would fail on it
        assert cli.main(["run", "--dataset", str(TOY), "--algo", "acog2", "--eta-grid", "1",
                         "--out", str(tmp_path)] + folds) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is a directory" in err and err.count("\n") == 1

    @pytest.mark.parametrize("empty_class", ["perfect", "error"])
    def test_cv_fold_without_positives(self, empty_class, tmp_path, capsys):
        # one positive in six rows: two of the three held-out folds have none
        data = tmp_path / "one_pos.libsvm"
        data.write_text("+1 1:1 2:0.5\n-1 1:0.2 2:1\n-1 1:-1 2:0.3\n"
                        "-1 1:0.4 2:-1\n-1 1:-0.5 2:-0.5\n-1 1:0.1 2:0.9\n")
        code = cli.main(["run", "--dataset", str(data), "--algo", "cog2",
                         "--rho-mode", "laplace", "--folds", "3", "--eta-grid", "1",
                         "--empty-class", empty_class, "--out", str(tmp_path / "cv.csv")])
        captured = capsys.readouterr()
        if empty_class == "perfect":
            assert code == 0, captured.err
            assert "sensitivity  100.000" in captured.out
        else:
            assert code == 2
            assert captured.err.startswith("error: sum metric undefined")

    def test_cv_training_fold_without_positives_names_the_fold(self, tmp_path, capsys):
        # one positive in six rows: the fold that holds it out trains on none
        data = tmp_path / "one_pos.libsvm"
        data.write_text("+1 1:1 2:0.5\n-1 1:0.2 2:1\n-1 1:-1 2:0.3\n"
                        "-1 1:0.4 2:-1\n-1 1:-0.5 2:-0.5\n-1 1:0.1 2:0.9\n")
        code = cli.main(["run", "--dataset", str(data), "--algo", "cog2", "--folds", "3",
                         "--eta-grid", "1", "--empty-class", "perfect"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: CV fold ") and " of 3: oracle rho undefined" in err
        assert "laplace" in err and "fixed:<value>" in err and "Traceback" not in err

    def test_selection_table_printed_under_summary(self, capsys):
        assert cli.main(["run", "--dataset", str(TOY), "--algo", "acog2-diag",
                         "--eta-grid", "0.1,1", "--permutations", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        head = out.index("  eta selection, mean sum over 3 permutations:")
        assert out[head - 1].startswith("  specificity")
        assert [line.split()[0] for line in out[head + 1:]] == ["0.1", "1"]
        assert sum(line.endswith("<- selected") for line in out) == 1

    def test_full_acog_over_memory_limit_reported(self, tmp_path, capsys):
        # sigma covers the columns in use plus the padding column: rows using
        # 16,384 columns need a 16,385-wide sigma, past 2 GiB
        wide = tmp_path / "wide.libsvm"
        wide.write_text("+1 " + " ".join(f"{j}:1" for j in range(1, 16385)) + "\n-1 1:1\n")
        assert cli.main(["run", "--dataset", str(wide), "--algo", "acog2", "--eta-grid", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: full-matrix ACOG") and "-diag" in err
        assert err.count("\n") == 1
        # a d far past the limit whose columns go unused runs, with the same rows
        tables = []
        for extra in ([], ["--d-override", "200000"]):
            out = tmp_path / f"acog{len(extra)}.csv"
            assert cli.main(["run", "--dataset", str(TOY), "--algo", "acog2", "--eta-grid", "0.1,1",
                             "--permutations", "2", "--out", str(out), *extra]) == 0
            with open(out, newline="") as fh:
                tables.append([{k: v for k, v in row.items() if not k.startswith("elapsed_ms")}
                               for row in csv.DictReader(fh)])
        assert tables[0] == tables[1] and len(tables[0]) == 3

    @pytest.mark.parametrize("algo", ["sacog2", "ssacog2"])
    def test_sketched_learners_share_one_gamma_range(self, algo, capsys):
        args = ["run", "--dataset", str(TOY), "--algo", algo,
                "--eta-grid", "1", "--permutations", "1", "--gamma"]
        assert cli.main(args + ["1e-8"]) == 0
        assert "sum           49.587" in capsys.readouterr().out
        assert cli.main(args + ["1e-12"]) == 2
        assert capsys.readouterr().err.startswith("error: sketch basis lost rank")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("init", ["canonical", "random"])
    @pytest.mark.parametrize("folds", [[], ["--folds", "3"]])
    @pytest.mark.parametrize("algo,gamma", [("sacog2", "1e-300"), ("ssacog2", "1e-300"),
                                            ("ssacog2", "1e-320")])
    def test_extreme_gamma_is_one_error_line(self, algo, gamma, folds, init, capsys):
        # the sketch's arithmetic overflows at once (at 1e-320 even xhat @
        # xhat); its lost-rank check is the one report, with no numpy
        # warning before it
        args = ["run", "--dataset", str(TOY), "--algo", algo, "--gamma", gamma,
                "--eta-grid", "1", "--sketch-init", init] + folds
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: sketch basis lost rank during re-orthonormalization\n"

    @pytest.mark.parametrize("algo", ["sacog2", "cog2", "sacog2 --sketch-init random"])
    def test_allocation_failure_reported(self, algo):
        # every pass runs as lanes and fails in the d-long mask of the
        # columns in use (random-init sacog2 keeps all d of them); with the
        # child's address space capped at 2 GiB
        # the allocation fails at once whatever the kernel's overcommit setting
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "costsense.cli", "run",
             "--dataset", str(TOY), "--algo", *algo.split(), "--eta-grid", "1",
             "--permutations", "1", "--d-override", str(10**11)],
            capture_output=True, text=True, env=CLI_ENV, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: Unable to allocate")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("line,message", [
        ("+1 99999999999999999999:1", "feature index 99999999999999999999 past the int64 range"),
        # rows the bulk parse must refuse, so that the line path reports them
        ("+1 1:1e400", "non-finite feature value '1:1e400'"),
        ("+1 0:1", "feature index 0 < 1"),
        ("+1 3:1 2:1", "feature index 2 not increasing (previous 3)"),
        ("2 1:1", "non-binary label '2'"),
        ("+1 1.5:1", "malformed token '1.5:1'"),
        ("+1 1:1:1", "malformed token '1:1:1'"),
    ])
    def test_unloadable_row_reported_with_its_line(self, tmp_path, line, message):
        data = tmp_path / "huge.libsvm"
        data.write_text(f"+1 1:1\n{line}\n-1 2:1\n")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "costsense.cli", "run",
             "--dataset", str(data), "--algo", "cog2", "--eta-grid", "1", "--permutations", "1"],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: line 2: {message}\n"

    def test_end_to_end_run(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "costsense.cli", "run",
             "--dataset", str(TOY), "--algo", "acog2-diag",
             "--eta-grid", "0.1,1", "--permutations", "2",
             "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "sum" in proc.stdout

    def test_cv_mode_via_folds_flag(self, tmp_path):
        out = tmp_path / "cv.csv"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "costsense.cli", "run",
             "--dataset", str(TOY), "--algo", "cog2",
             "--eta-grid", "1", "--folds", "3", "--out", str(out)],
            capture_output=True, text=True, env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CV" in proc.stdout
        assert out.exists()
