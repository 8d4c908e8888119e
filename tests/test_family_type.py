"""One family type: preprocessing fills in a family's distance order, and
every public function that takes a family gives the same result on a
preprocessed family as on a fresh copy of its rows."""

from __future__ import annotations

import numpy as np
import pytest

from l1select import (
    Family,
    InstanceReference,
    Ledger,
    best_in_family,
    check_bound,
    check_elimination_invariant,
    compare,
    efficient_min_loss_weight,
    empirical_deviation,
    empirical_deviation_restricted,
    loss_weight,
    lower_bound_pair,
    lower_bound_tournament,
    min_distance,
    min_loss_weight,
    modified_min_distance,
    preprocess,
    random_instance,
    relaxed_selection_check,
    scheffe_tournament,
    yatracos_class,
    yatracos_restricted,
)


def _each(family: Family, call):
    """``call(i)`` for every candidate index ``i`` of ``family``."""
    return [call(i) for i in range(family.size)]


def _reference_values(family: Family, g, h) -> tuple:
    reference = InstanceReference(family, g, h)
    verdicts = _each(family, lambda i: reference.elimination_verdicts(i, 1.0))
    return reference.best_index, reference.d1, reference.deviation, reference.restricted_deviation, verdicts


# Name -> the result of the function on a family f, given the truth g and
# the empirical mass h of the instance.
FAMILY_FUNCTIONS = {
    "scheffe_tournament": lambda f, g, h: scheffe_tournament(f, h),
    "min_distance": lambda f, g, h: min_distance(f, h),
    "modified_min_distance": lambda f, g, h: modified_min_distance(f, h),
    "min_loss_weight": lambda f, g, h: min_loss_weight(f, h),
    "efficient_min_loss_weight": lambda f, g, h: efficient_min_loss_weight(f, h),
    "compare": lambda f, g, h: [
        compare(f, i, j, h, Ledger()) for i in range(f.size) for j in range(f.size) if i != j
    ],
    "loss_weight": lambda f, g, h: _each(f, lambda i: loss_weight(f, h, i)),
    "relaxed_selection_check": lambda f, g, h: _each(
        f, lambda i: relaxed_selection_check(f, h, i, 1.0, include_draws=True)
    ),
    "check_bound": lambda f, g, h: _each(f, lambda i: check_bound(i, f, g, h, 3.0, 2.0, "restricted")),
    "check_bound_with_reference": lambda f, g, h: _each(
        f, lambda i: check_bound(i, f, g, h, 3.0, 2.0, reference=InstanceReference(f, g, h))
    ),
    "check_elimination_invariant": lambda f, g, h: _each(
        f, lambda i: check_elimination_invariant(f, h, i, include_draws=True)
    ),
    "empirical_deviation": lambda f, g, h: empirical_deviation(g, h, f),
    "empirical_deviation_restricted": lambda f, g, h: _each(
        f, lambda i: empirical_deviation_restricted(g, h, f, i)
    ),
    "best_in_family": lambda f, g, h: best_in_family(f, g),
    "yatracos_class": lambda f, g, h: yatracos_class(f),
    "yatracos_restricted": lambda f, g, h: _each(f, lambda i: yatracos_restricted(f, i)),
    "InstanceReference": _reference_values,
}

INSTANCES = {
    "pair_draw": lambda: lower_bound_pair(1e-2),
    "win_cycle": lambda: lower_bound_tournament(1e-3),
    "singleton": lambda: random_instance(3, 5, 1, noise=0.1),
    "random_m6": lambda: random_instance(11, 7, 6, noise=0.1),
    "random_m9_noiseless": lambda: random_instance(12, 4, 9),
}


def _cold_copy(family: Family) -> Family:
    """A family of the same candidates that keeps no pair table yet."""
    return Family(family.support, family.candidates)


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("name", sorted(FAMILY_FUNCTIONS))
def test_preprocessed_family_gives_the_family_result(name, instance):
    inst = INSTANCES[instance]()
    g, h = inst.truth, inst.empirical.mass
    call = FAMILY_FUNCTIONS[name]
    family = _cold_copy(inst.family)
    prep = preprocess(_cold_copy(inst.family))
    assert call(prep, g, h) == call(family, g, h)


def test_one_reference_serves_a_family_and_its_preprocessed_form():
    """A reference built on a family is accepted before and after the
    family is preprocessed, with the results of from-scratch checks on a
    fresh copy of its rows; the fresh copy, another family with the same
    rows, is refused it."""
    inst = random_instance(4, 6, 7, noise=0.1)
    g, h = inst.truth, inst.empirical.mass
    fresh, family = _cold_copy(inst.family), _cold_copy(inst.family)
    assert np.array_equal(fresh.matrix, family.matrix)
    reference = InstanceReference(family, g, h)
    for preprocessed in (False, True):
        if preprocessed:
            assert preprocess(family) is family
        for i in range(family.size):
            want = check_bound(i, fresh, g, h, 3.0, 2.0)
            assert check_bound(i, family, g, h, 3.0, 2.0, reference=reference) == want
            assert check_elimination_invariant(family, h, i, reference=reference) == (
                check_elimination_invariant(fresh, h, i)
            )
    with pytest.raises(ValueError, match="^reference was built for another family$"):
        check_bound(0, fresh, g, h, 3.0, 2.0, reference=reference)
