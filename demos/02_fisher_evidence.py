"""
Pooling weak per-fill evidence with Fisher's method
===================================================

One suspicious fill proves nothing. Five mildly suspicious fills can be
damning. Fisher's method turns k p-values into one: -2 * sum(log p) is
chi-squared with 2k degrees of freedom when the fills are innocent, and its
survival probability is the combined p-value.
"""

import numpy as np

from darkscope import chisq_survival_even, combine
from darkscope.evidence import fisher_fold

# ---------------------------------------------------------------------------
# Five fills, none individually damning at the 1% level.

fills = [0.08, 0.12, 0.06, 0.30, 0.09]
result = combine(fills)
print("per-fill p-values:", fills)
print(f"statistic -2*sum(log p) = {result.statistic:.3f}")
print(f"combined p            = {result.combined_p:.5f}")

# ---------------------------------------------------------------------------
# With one p-value, Fisher is the identity: nothing is conjured from thin air.

for p in (0.001, 0.05, 0.5):
    print(f"combine([{p}]) -> {combine([p]).combined_p:.6f}")

# ---------------------------------------------------------------------------
# The chi-squared survival function is evaluated in closed form (even
# degrees of freedom only): exp(-x/2) * sum_{j<k} (x/2)^j / j!.

print("\nsurvival probabilities S(x, dof):")
for x, dof in [(0.0, 10), (18.31, 10), (22.87, 10), (100.0, 10)]:
    print(f"  S({x:6.2f}, {dof}) = {chisq_survival_even(x, dof):.6g}")

# ---------------------------------------------------------------------------
# Streaming form: a rolling ledger per venue keeps the last k_max p-values
# and recombines after every fill, so each fill yields a fresh decision
# input. fisher_fold computes every update of a stream at once; here one
# ledger (code 0) takes seven fills, one a second. Watch evidence accumulate
# against a venue that keeps printing p ~ 0.05 fills.

fills = 7
k, statistic, combined_p = fisher_fold(
    np.zeros(fills, dtype=np.intp), np.arange(1, fills + 1) * 1_000_000_000, np.full(fills, 0.05), k_max=5
)
print("\nrolling ledger on a venue leaking mildly (every fill p = 0.05):")
for i in range(fills):
    print(f"  fill {i + 1}: k={k[i]}  statistic={statistic[i]:6.2f}  combined_p={combined_p[i]:.5f}")
print("three fills in, the venue is already past a 1% threshold")
