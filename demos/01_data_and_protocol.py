"""Loading LIBSVM data and streaming it prequentially.

Every sample is unit-normalized at load; the online protocol predicts on
each arriving sample before seeing its label, then updates.
"""

from pathlib import Path

import numpy as np

from costsense import Perceptron, load_dataset, permutation, split_folds

ROOT = Path(__file__).resolve().parent.parent

ds = load_dataset(ROOT / "datasets" / "toy_imbalanced.libsvm")
print(f"loaded {len(ds)} examples, d={ds.d}, "
      f"{ds.t_pos} positive : {ds.t_neg} negative (1:{ds.t_neg / ds.t_pos:.2f})")

# every row is (0-based positions, unit-norm values, label)
positions, values, label = next(ds.rows(np.arange(1)))
print(f"first example: label {label:+d}, {positions.size} nonzeros, "
      f"norm {np.linalg.norm(values):.12f}")

# a seeded shuffle is reproducible across machines
order = permutation(len(ds), seed=0)
print("permutation head:", order[:10].tolist())
assert permutation(len(ds), seed=0).tolist() == order.tolist()

# predict -> reveal -> update, one pass
learner = Perceptron(ds.d)
mistakes = 0
for positions, values, label in ds.rows(order):
    _, predicted = learner.predict(positions, values)
    mistakes += predicted != label
    learner.update(positions, values, label)
print(f"perceptron made {mistakes} mistakes on one pass "
      f"({100 * mistakes / len(ds):.1f}% error)")

# folds partition the index range with near-equal sizes
folds = split_folds(len(ds), k=5, seed=0)
print("fold sizes:", [len(f) for f in folds],
      "| disjoint union:", sorted(np.concatenate(folds).tolist()) == list(range(len(ds))))
