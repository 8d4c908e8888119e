"""
Choosing between two candidates by a biased coin
================================================

For a two-candidate family there is a randomized rule whose *expected*
error beats the factor-3 floor that binds every deterministic rule: select
each candidate with probability proportional to how decisively the other
one loses.  Its expected error is at most 2 d1 + Delta, at the price of
only two scanned terms and no inner products.
"""

import numpy as np

from l1select import (
    best_in_family,
    empirical_deviation,
    l1_distance,
    lower_bound_pair,
    randomized_two,
    sample_empirical,
)

# On the fence instance the deterministic floor is a factor approaching 3;
# the randomized rule's mixture is exactly (1/2, 1/2) there, and its
# expected error lands at a factor 2, not 3.

inst = lower_bound_pair(1e-3)
report = randomized_two(inst.family, inst.empirical)
errors = [l1_distance(row, inst.truth) for row in inst.family.matrix]
expected = report.mixture[0] * errors[0] + report.mixture[1] * errors[1]
_, d1 = best_in_family(inst.family, inst.truth)

print(f"fence instance: mixture {tuple(round(p, 6) for p in report.mixture)}")
print(f"expected error {expected:.6f} = {expected / d1:.4f} x best achievable {d1:.6f}")
print(f"deterministic floor on this instance: {errors[0] / d1:.4f} x best")

# Sampling noise knocks the empirical distribution off the fence and the
# mixture tilts with it, in whichever direction the noise happens to point.
# Because the truth itself sits exactly on the fence, growing the sample
# pulls the weights back toward (1/2, 1/2).

print()
print(f"{'n':>7} {'weight on far':>14} {'weight on near':>15} {'expected error':>15}")
rng_seed = 11
for n in (30, 300, 3000, 30000):
    h = sample_empirical(inst.truth, n, seed=rng_seed)
    report = randomized_two(inst.family, h)
    expected = report.mixture[0] * errors[0] + report.mixture[1] * errors[1]
    print(f"{n:>7} {report.mixture[0]:>14.4f} {report.mixture[1]:>15.4f} {expected:>15.6f}")

# The guarantee 2 d1 + Delta holds for every one of those draws; check it.

for n in (30, 300, 3000, 30000):
    h = sample_empirical(inst.truth, n, seed=rng_seed)
    report = randomized_two(inst.family, h)
    expected = report.mixture[0] * errors[0] + report.mixture[1] * errors[1]
    bound = 2 * d1 + empirical_deviation(inst.truth, h, inst.family)
    assert expected <= bound + 1e-9
print()
print("expected error <= 2 d1 + Delta held for every sample size")

# Repeated runs with different selector seeds draw different candidates but
# identical mixtures: the randomness is only in the final coin flip.

picks = [randomized_two(inst.family, inst.empirical, seed=s) for s in range(10)]
assert len({p.mixture for p in picks}) == 1
counts = np.bincount([p.selected_index for p in picks], minlength=2)
print(f"10 seeds on the fence instance picked far/near {counts[0]}/{counts[1]} times")
