"""Adaptive regularization against first-order baselines on imbalanced data.

Each learner streams the same shuffled dataset once; the table reports the
weighted sum of sensitivity and specificity (balanced accuracy at 0.5/0.5)
and the weighted mistake cost.  The second-order learners keep a per-
direction confidence and take bolder steps along unexplored directions.
"""

from pathlib import Path

from costsense import (
    AdaptiveCSGD,
    ConfusionCounts,
    CostSensitiveGD,
    LossVariant,
    PassiveAggressiveI,
    Perceptron,
    SketchedCSGD,
    SparseSketchedCSGD,
    cost_metric,
    load_dataset,
    permutation,
    sum_metric,
)

ROOT = Path(__file__).resolve().parent.parent
ds = load_dataset(ROOT / "datasets" / "toy_imbalanced.libsvm")
rho = ds.t_neg / ds.t_pos  # oracle bias for alpha_p = alpha_n = 0.5
print(f"{len(ds)} samples, d={ds.d}, imbalance 1:{rho:.2f}, rho={rho:.3f}\n")

learners = {
    "perceptron": Perceptron(ds.d),
    "pa-I": PassiveAggressiveI(ds.d, C=1.0),
    "cog-II": CostSensitiveGD(ds.d, eta=0.1, variant=LossVariant.II),
    "acog-II": AdaptiveCSGD(ds.d, eta=1.0, gamma=1.0, variant=LossVariant.II),
    "acog-II-diag": AdaptiveCSGD(ds.d, eta=1.0, gamma=1.0,
                                 variant=LossVariant.II, diagonal=True),
    "sacog-II (m=5)": SketchedCSGD(ds.d, eta=1.0, gamma=1.0, m=5,
                                   variant=LossVariant.II),
    "ssacog-II (m=5)": SparseSketchedCSGD(ds.d, eta=1.0, gamma=1.0, m=5,
                                          variant=LossVariant.II),
}

order = permutation(len(ds), seed=0)
print(f"{'learner':<16} {'sum %':>7} {'sens %':>7} {'spec %':>7} {'cost':>7}")
for name, learner in learners.items():
    cc = ConfusionCounts()
    for positions, values, y in ds.rows(order):
        s = learner.score(positions, values)
        cc.record(1 if s >= 0 else -1, y)
        learner.update(positions, values, y, rho, score=s)
    print(f"{name:<16} {100 * sum_metric(cc, 0.5, 0.5):7.2f} "
          f"{100 * cc.sensitivity:7.2f} {100 * cc.specificity:7.2f} "
          f"{cost_metric(cc, 0.9, 0.1):7.2f}")

print("\nthe adaptive learners improve on the plain cost-sensitive gradient"
      "\nstep, and the two sketched learners print identical rows: they are"
      "\none algorithm maintained in two data structures.")
