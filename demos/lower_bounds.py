"""
Adversarial instances where selection provably loses a factor
=============================================================

Two constructions put a floor under what any selection rule can promise.
The first is a pair of candidates with the empirical mass exactly on the
comparison fence, where keeping the wrong candidate costs a factor that
approaches 3.  The second is a four-candidate family with a win cycle,
where counting wins picks a candidate nearly 9 times worse than the best
one on offer.
"""

import numpy as np

from l1select import (
    Ledger,
    Outcome,
    compare,
    efficient_min_loss_weight,
    l1_distance,
    lower_bound_pair,
    lower_bound_tournament,
    scheffe_tournament,
)

# ----------------------------------------------------------------------
# The pair construction.  Both candidates sit at distance >= 1/2 from the
# truth, but one is three times closer than the other.  The empirical
# distribution is chosen so their comparison is an exact draw: no test
# based on that single comparison can tell them apart.

print("pair construction: error of each candidate vs. the gap eps")
print(f"{'eps':>8} {'far':>12} {'near':>12} {'ratio':>10}")
for eps in (1e-1, 1e-2, 1e-3, 1e-4):
    inst = lower_bound_pair(eps)
    err_far = l1_distance(inst.family.matrix[0], inst.truth)
    err_near = l1_distance(inst.family.matrix[1], inst.truth)
    print(f"{eps:>8} {err_far:>12.6f} {err_near:>12.6f} {err_far / err_near:>10.4f}")

# The ratio climbs toward 3 as the gap shrinks: a selector that resolves
# the draw the wrong way pays (3/2 - 2 eps) / (1/2 + 2 eps).

# The elimination selector resolves the draw by keeping the first-listed
# candidate, which here is the far one -- exactly the adversarial outcome
# the construction forces.

inst = lower_bound_pair(1e-3)
report = efficient_min_loss_weight(inst.family, inst.empirical, Ledger())
print()
print(f"elimination selector keeps {report.selected_name!r} "
      f"(error {l1_distance(inst.family.matrix[report.selected_index], inst.truth):.4f})")

# ----------------------------------------------------------------------
# The win-cycle construction.  Four candidates (one duplicated) are set up
# so that f2 beats f1, f3 beats f2, and f1 beats f3 and its copy.  Counting
# wins then crowns f1 with two wins -- more than anyone else -- even though
# f2 is almost nine times closer to the truth.

nine = lower_bound_tournament(1e-3)
report = scheffe_tournament(nine.family, nine.empirical, Ledger())

print()
print("win-cycle construction at gap 1e-3")
for name, row in zip(nine.family.names, nine.family.matrix):
    marker = "  <-- selected" if name == report.selected_name else ""
    print(f"  {name:>4}: error {l1_distance(row, nine.truth):.6f}{marker}")

err_far = l1_distance(nine.family.matrix[0], nine.truth)
err_near = l1_distance(nine.family.matrix[1], nine.truth)
print(f"selected-to-best ratio: {err_far / err_near:.4f} (supremum 9 as the gap shrinks)")

# ----------------------------------------------------------------------
# The same cycle seen as raw comparison outcomes: each row of the table
# below is one candidate's wins.

wins = np.zeros(nine.family.size, dtype=int)
for i in range(nine.family.size):
    for j in range(nine.family.size):
        if i == j:
            continue
        if compare(nine.family, i, j, nine.empirical, Ledger()) is Outcome.FIRST_WINS:
            wins[i] += 1
print()
print("win counts:", dict(zip(nine.family.names, wins.tolist())))
