"""
What each selector pays, in exact counts
========================================

Every selector charges its work to a ledger: one unit per inner product of
the empirical distribution with a test function, one unit per scanned
difference term.  The counts are closed-form functions of the family size,
so the table below is exact, not a timing estimate -- though wall time is
shown too.
"""

import time

import numpy as np

from l1select import (
    Family,
    efficient_min_loss_weight,
    min_distance,
    min_loss_weight,
    modified_min_distance,
    random_instance,
    scheffe_tournament,
)

# Each row of the table runs one selector on a random instance with m
# candidates on a 6-atom support and reports the ledger.  Each row gets a
# family of its own, so no row reuses the pair table the elimination row
# builds.  Every selector takes the family itself: the elimination selector
# preprocesses it, and the others compute the table rows they read.

SELECTORS = {
    "tournament": scheffe_tournament,
    "mindist": min_distance,
    "modified": modified_min_distance,
    "minloss": min_loss_weight,
    "efficient": efficient_min_loss_weight,
}

CLOSED_FORMS = {
    "tournament": ("m(m-1)/2 products", lambda m: m * (m - 1) // 2),
    "mindist": ("m^2(m-1) terms", lambda m: m * m * (m - 1)),
    "modified": ("m(m-1) terms", lambda m: m * (m - 1)),
    "minloss": ("m(m-1)/2 products", lambda m: m * (m - 1) // 2),
    "efficient": ("m-1 products", lambda m: m - 1),
}

print(f"{'m':>4} {'selector':>10} {'products':>9} {'terms':>7} {'closed form':>20} {'us':>8}")
for m in (2, 4, 8, 16, 32):
    inst = random_instance(m, 6, m, noise=0.1)
    for name, select in SELECTORS.items():
        family = Family(inst.family.support, inst.family.candidates)
        start = time.perf_counter()
        report = select(family, inst.empirical)
        micros = (time.perf_counter() - start) * 1e6
        label, formula = CLOSED_FORMS[name]
        counted = report.h_products if "products" in label else report.term_evaluations
        assert counted == formula(m), (name, m)
        print(f"{m:>4} {name:>10} {report.h_products:>9} {report.term_evaluations:>7} "
              f"{label:>20} {micros:>8.1f}")

# The asymmetry is the point: the exhaustive scan pays a cubic number of
# terms, the tournament and the loss-weight selector pay a quadratic number
# of products, and the elimination selector needs just m - 1 products --
# linear in the family -- while keeping the same factor-3 guarantee.

print()
print("products used at m = 32:")
inst = random_instance(32, 6, 32, noise=0.1)
for name in ("tournament", "minloss", "efficient"):
    report = SELECTORS[name](inst.family, inst.empirical)
    print(f"  {name:>10}: {report.h_products}")

# Ratios between successive family sizes confirm the orders of growth.

print()
print("cost growth when m doubles (counts at 2m over counts at m):")
for name, column in (("mindist", "term_evaluations"), ("efficient", "h_products")):
    counts = []
    for m in (8, 16, 32):
        inst = random_instance(m, 6, m, noise=0.1)
        counts.append(getattr(SELECTORS[name](inst.family, inst.empirical), column))
    growth = np.array(counts[1:]) / np.array(counts[:-1])
    print(f"  {name:>10}: {np.round(growth, 3).tolist()}")
