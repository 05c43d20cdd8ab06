"""The two cost-sensitive hinge variants and the class-bias multiplier rho.

Variant I moves the margin the rare class must clear; variant II steepens
its slope.  rho encodes how much a positive mistake outweighs a negative
one: T_n/T_p-scaled for the weighted-sum metric, c_p/c_n for weighted cost.
"""

import numpy as np

from costsense import CostModel, LossVariant, loss, observe_label, resolve_rho

rho = 3.0
print(f"rho = {rho}: a positive mistake is worth {rho}x a negative one\n")

print("score    loss-I(+1)  loss-II(+1)  loss-I(-1)  loss-II(-1)")
for s in np.linspace(-2, 4, 7):
    row = [loss(LossVariant.I, s, 1, rho), loss(LossVariant.II, s, 1, rho),
           loss(LossVariant.I, s, -1, rho), loss(LossVariant.II, s, -1, rho)]
    print(f"{s:5.1f}    " + "  ".join(f"{v:9.2f}" for v in row))

print("\nwith rho = 1 both variants are the ordinary hinge:")
for s in (-0.5, 0.0, 0.5):
    h = max(0.0, 1.0 - s)
    print(f"  score {s:+.1f}: hinge {h:.1f}, "
          f"I {loss(LossVariant.I, s, 1, 1.0):.1f}, "
          f"II {loss(LossVariant.II, s, 1, 1.0):.1f}")

# oracle rho needs the class counts up front ...
cm = CostModel(metric="sum")
print(f"\noracle rho for T_p=300, T_n=700: {resolve_rho(cm, (300, 700)):.4f}")

# ... the add-one-smoothed running estimate does not: it takes a block of
# labels and returns the rho of each round, that round's label counted
cm = CostModel(metric="sum", rho_mode="laplace")
labels = np.where(np.random.default_rng(1).random(1200) < 0.3, 1, -1)
rhos = observe_label(cm, labels)
print("online estimate as labels stream in (true ratio 7:3 -> 2.33):")
for t in (10, 100, 1200):
    print(f"  after {t:5d} labels: rho = {rhos[t - 1]:.4f}")

# cost-metric rho is a constant ratio, counts never enter
cm = CostModel(metric="cost", c_p=0.9, c_n=0.1)
print(f"cost-metric rho = c_p/c_n = {resolve_rho(cm):.1f}")
