"""The benchmark harness end to end: grid selection, permutation sweep,
cross-validation, CSV reports, and a regret trace.

The same run is available from the shell:

    costsense run --dataset datasets/toy_imbalanced.libsvm --algo acog2 \
        --eta-grid 0.01,0.1,1,10 --permutations 10 --seed 0 --out report.csv
"""

from pathlib import Path

import numpy as np

from costsense import (
    ExperimentConfig,
    LossVariant,
    fit_comparator,
    load_dataset,
    regret_slope,
    run_cv,
    run_experiment,
    run_single,
    stream_losses,
    write_trace_csv,
)
from costsense.metrics import ConfusionCounts, cost_metric, sum_metric

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "datasets" / "toy_imbalanced.libsvm"
ds = load_dataset(DATA)

# --- one experiment: pick eta on held-out shuffles, evaluate on 10 ----------
cfg = ExperimentConfig(dataset=str(DATA), algo="acog2",
                       eta_grid=(0.01, 0.1, 1.0, 10.0),
                       permutations=10, seed=0, out="report_acog2.csv")
report = run_experiment(cfg, ds)
print(f"acog2: chose eta={report.eta:g}; "
      f"sum {report.aggregate['sum']:.2f} +/- {report.std['sum']:.2f}, "
      f"cost {report.aggregate['cost']:.2f} +/- {report.std['cost']:.2f}")
print(f"per-run sums: {[round(r['sum'], 2) for r in report.rows]}")
print("CSV written to report_acog2.csv")

# --- generalization mode: 5-fold train/test ---------------------------------
cv = run_cv(ExperimentConfig(algo="acog2", eta_grid=(0.1, 1.0, 10.0),
                             folds=5, seed=0), ds)
print(f"\n5-fold CV sum: {cv.aggregate['sum']:.2f} "
      f"(folds: {[round(r['sum'], 1) for r in cv.rows]})")

# --- regret against the best fixed predictor in hindsight -------------------
row, trace = run_single(ExperimentConfig(algo="acog2", eta_grid=(1.0,)),
                        ds, eta=1.0, perm_seed=0, collect_trace=True)
stream = list(ds.rows(trace.order))
rho = ds.t_neg / ds.t_pos
w_star = fit_comparator(stream, ds.d, rho, LossVariant.II, epochs=50)
comp = stream_losses(w_star, stream, rho, LossVariant.II)
regret = np.cumsum(trace.losses) - np.cumsum(comp)
print(f"\nfinal regret {regret[-1]:.1f}, "
      f"fitted log-log slope {regret_slope(regret):.2f} (sublinear < 1)")

# --- per-round trace CSV (round,cum_loss,mistakes_pos,mistakes_neg,sum,cost)
rows = []
cum = 0.0
t_pos = t_neg = 0
for t, y in enumerate(ds.labels[trace.order].tolist(), start=1):
    cum += trace.losses[t - 1]
    t_pos += y == 1
    t_neg += y == -1
    cc = ConfusionCounts(t_pos, t_neg,
                         trace.m_pos_series[t - 1], trace.m_neg_series[t - 1])
    rows.append((t, cum, cc.m_pos, cc.m_neg,
                 sum_metric(cc, 0.5, 0.5, empty_class="perfect"),
                 cost_metric(cc, 0.9, 0.1)))
write_trace_csv("trace_acog2.csv", rows)
print("per-round trace written to trace_acog2.csv")
