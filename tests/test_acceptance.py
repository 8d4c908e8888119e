"""End-to-end acceptance checks.

Closed-form behavior of the adversarial constructions, bulk guarantee sweeps
over seeded random instances, exact cost accounting, win-rule agreement, the
sign-alignment inequality, the randomized pair bound, and the VC-dimension
gap example.  Every tolerance and trial count here is part of the package's
contract.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest

from l1select import (
    Family,
    InstanceReference,
    Ledger,
    Support,
    best_in_family,
    check_bound,
    check_elimination_invariant,
    check_quadruple,
    check_win_equivalence,
    efficient_min_loss_weight,
    empirical_deviation,
    l1_distance,
    lower_bound_pair,
    lower_bound_tournament,
    min_distance,
    min_loss_weight,
    modified_min_distance,
    preprocess,
    random_instance,
    randomized_two,
    scheffe_tournament,
    swap_pair,
    vc_dimension,
    vc_dimension_by_traces,
    vc_gap_family,
    yatracos_class,
    yatracos_restricted,
)
from l1select import test_function as make_test_function

GUARANTEE_TOL = 1e-9
CLOSED_FORM_TOL = 1e-12
SWEEP_TRIALS = 10_000
SWEEP_SEED = 0
SWEEP_MAX_OMEGA = 6
SWEEP_MAX_FAMILY = 8
NOISE_CYCLE = (0.0, 0.02, 0.1, 0.3)

_FULL_COEFFICIENTS = {
    "tournament": (9.0, 8.0),
    "mindist": (3.0, 2.0),
    "modified": (3.0, 2.0),
    "minloss": (3.0, 2.0),
    "efficient": (3.0, 2.0),
}
_RESTRICTED_ALGORITHMS = ("modified", "minloss", "efficient")


def _run_all(family, h):
    prep = preprocess(family)
    return prep, {
        "tournament": scheffe_tournament(prep, h, Ledger()),
        "mindist": min_distance(family, h, Ledger()),
        "modified": modified_min_distance(family, h, Ledger()),
        "minloss": min_loss_weight(prep, h, Ledger()),
        "efficient": efficient_min_loss_weight(prep, h, Ledger()),
    }


@pytest.fixture(scope="session")
def guarantee_sweep():
    """One pass over the seeded instance stream, shared by the sweep checks.

    Mirrors the ``verify`` command's stream: support size <= 6, family size
    <= 8, noise levels cycling through (0, 0.02, 0.1, 0.3) so every fourth
    instance has h = g exactly.
    """
    start = time.perf_counter()
    master = np.random.default_rng(SWEEP_SEED)
    ks = master.integers(1, SWEEP_MAX_OMEGA + 1, size=SWEEP_TRIALS)
    ms = master.integers(1, SWEEP_MAX_FAMILY + 1, size=SWEEP_TRIALS)
    seeds = master.integers(0, 2**62, size=SWEEP_TRIALS)

    full_margin = {name: np.inf for name in _FULL_COEFFICIENTS}
    full_failures = {name: 0 for name in _FULL_COEFFICIENTS}
    restricted_margin = {name: np.inf for name in _RESTRICTED_ALGORITHMS}
    restricted_failures = {name: 0 for name in _RESTRICTED_ALGORITHMS}
    invariant_checks = 0
    invariant_failures = 0
    two_checks = 0
    two_failures = 0
    two_margin = np.inf
    two_skipped_degenerate = 0

    for t in range(SWEEP_TRIALS):
        inst = random_instance(int(seeds[t]), int(ks[t]), int(ms[t]), NOISE_CYCLE[t % 4])
        family, g, h = inst.family, inst.truth, inst.empirical
        prep, reports = _run_all(family, h)

        for name, (a, b) in _FULL_COEFFICIENTS.items():
            bound = check_bound(reports[name].selected_index, family, g, h, a, b, "full")
            full_margin[name] = min(full_margin[name], bound.margin)
            full_failures[name] += not bound.passed
        for name in _RESTRICTED_ALGORITHMS:
            bound = check_bound(
                reports[name].selected_index, family, g, h, 3.0, 2.0, "restricted"
            )
            restricted_margin[name] = min(restricted_margin[name], bound.margin)
            restricted_failures[name] += not bound.passed

        invariant_checks += 1
        invariant_failures += not check_elimination_invariant(
            prep, h, reports["efficient"].selected_index, 1.0
        )

        if family.size == 2:
            if l1_distance(family.matrix[0], family.matrix[1]) == 0.0:
                two_skipped_degenerate += 1
            else:
                report = randomized_two(family, h)
                errors = [l1_distance(row, g) for row in family.matrix]
                expected = report.mixture[0] * errors[0] + report.mixture[1] * errors[1]
                _, d1 = best_in_family(family, g)
                margin = (2.0 * d1 + empirical_deviation(g, h, family)) - expected
                two_checks += 1
                two_margin = min(two_margin, margin)
                two_failures += margin < -GUARANTEE_TOL

    return SimpleNamespace(
        trials=SWEEP_TRIALS,
        elapsed=time.perf_counter() - start,
        full_margin=full_margin,
        full_failures=full_failures,
        restricted_margin=restricted_margin,
        restricted_failures=restricted_failures,
        invariant_checks=invariant_checks,
        invariant_failures=invariant_failures,
        two_checks=two_checks,
        two_failures=two_failures,
        two_margin=two_margin,
        two_skipped_degenerate=two_skipped_degenerate,
    )


class TestPairLowerBound:
    """The two-candidate construction with the empirical mass on the fence."""

    def test_closed_form_errors_and_ratio_trend(self, record_property):
        start = time.perf_counter()
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            inst = lower_bound_pair(eps)
            err_far = l1_distance(inst.family.matrix[0], inst.truth)
            err_near = l1_distance(inst.family.matrix[1], inst.truth)
            assert err_far == pytest.approx(1.5 - 2 * eps, abs=CLOSED_FORM_TOL)
            assert err_near == pytest.approx(0.5 + 2 * eps, abs=CLOSED_FORM_TOL)
            ratios.append(err_far / err_near)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] >= 2.99
        # Recorded, not asserted: the near candidate's error is 1/2 + 2*eps
        # (all four table cells contribute), which exceeds the sometimes
        # quoted 1/2 + eps by exactly eps.
        record_property(
            "near_candidate_error",
            {"atomwise_sum": 0.5 + 2e-3, "half_plus_eps_variant": 0.5 + 1e-3, "gap": 1e-3},
        )
        assert time.perf_counter() - start < 1.0


class TestWinCycleLowerBound:
    """The four-candidate win-cycle construction at gap 1e-3."""

    def _instance(self):
        return lower_bound_tournament(1e-3)

    def test_tournament_selects_the_weak_candidate(self):
        start = time.perf_counter()
        inst = self._instance()
        report = scheffe_tournament(preprocess(inst.family), inst.empirical, Ledger())
        assert report.selected_index == 0
        assert report.selected_name == "f1"
        err_far = l1_distance(inst.family.matrix[0], inst.truth)
        err_near = l1_distance(inst.family.matrix[1], inst.truth)
        assert err_far == pytest.approx(2.0 - 72e-3, abs=CLOSED_FORM_TOL)
        assert err_near == pytest.approx(2.0 / 9.0 + 32e-3, abs=CLOSED_FORM_TOL)
        assert time.perf_counter() - start < 1.0

    def test_pair_products_match_their_closed_forms(self):
        inst = self._instance()
        e = inst.eps
        m = inst.family.matrix
        h = inst.empirical.mass
        t12 = make_test_function(m[0], m[1]).signs
        t13 = make_test_function(m[0], m[2]).signs
        t23 = make_test_function(m[1], m[2]).signs
        table = [
            (float((m[0] * t12).sum()), 7.0 / 9.0 - 14 * e),
            (float((h * t12).sum()), -7.0 / 9.0 + 14 * e),
            (float((m[1] * t12).sum()), -1.0),
            (float((m[0] * t13).sum()), 1.0 / 3.0 + 30 * e),
            (float((h * t13).sum()), -1.0 / 3.0 + 42 * e),
            (float((m[2] * t13).sum()), -1.0 + 36 * e),
            (float((m[1] * t23).sum()), -1.0 / 3.0 + 60 * e),
            (float((h * t23).sum()), -5.0 / 9.0 + 28 * e),
            (float((m[2] * t23).sum()), -7.0 / 9.0 + 14 * e),
        ]
        for got, want in table:
            assert got == pytest.approx(want, abs=CLOSED_FORM_TOL)

    def test_error_ratio_reaches_the_demanded_factor(self):
        inst = self._instance()
        e = inst.eps
        err_far = l1_distance(inst.family.matrix[0], inst.truth)
        err_near = l1_distance(inst.family.matrix[1], inst.truth)
        ratio = err_far / err_near
        assert ratio >= 8.5, (
            f"error ratio at gap {e!r} is {ratio:.6f} = (2 - 72e)/(2/9 + 32e); "
            f"8.5 is only attainable for gaps <= 1/3096 ~= 3.23e-4 "
            f"(the ratio's supremum as the gap shrinks is 9), so the demanded "
            f"factor cannot be met at gap 1e-3"
        )


class TestGuaranteeSweep:
    """Error bounds over the full seeded instance stream."""

    def test_factor_three_selectors_meet_their_bound(self, guarantee_sweep):
        for name in ("mindist", "modified", "minloss", "efficient"):
            assert guarantee_sweep.full_failures[name] == 0, (
                f"{name}: min margin {guarantee_sweep.full_margin[name]}"
            )
            assert guarantee_sweep.full_margin[name] >= -GUARANTEE_TOL

    def test_tournament_meets_the_factor_nine_bound(self, guarantee_sweep):
        assert guarantee_sweep.full_failures["tournament"] == 0
        assert guarantee_sweep.full_margin["tournament"] >= -GUARANTEE_TOL

    def test_randomized_pair_expected_error(self, guarantee_sweep):
        assert guarantee_sweep.two_checks > 0
        assert guarantee_sweep.two_failures == 0
        assert guarantee_sweep.two_margin >= -GUARANTEE_TOL

    def test_sweep_size_and_runtime(self, guarantee_sweep):
        assert guarantee_sweep.trials == SWEEP_TRIALS
        assert guarantee_sweep.elapsed < 60.0


class TestRestrictedDeviationSweep:
    """The sharper bound with the deviation restricted to the best member's
    pairs, for the selectors that satisfy it."""

    def test_scan_and_loss_weight_selectors_meet_the_sharper_bound(self, guarantee_sweep):
        for name in _RESTRICTED_ALGORITHMS:
            assert guarantee_sweep.restricted_failures[name] == 0, (
                f"{name}: min restricted margin {guarantee_sweep.restricted_margin[name]}"
            )
            assert guarantee_sweep.restricted_margin[name] >= -GUARANTEE_TOL


class TestCostExactness:
    """Ledger counts equal their closed forms for every family size."""

    @pytest.mark.parametrize("m", range(2, 17))
    def test_ledger_counts_match_closed_forms(self, m):
        inst = random_instance(1000 + m, 5, m, noise=0.1)
        _, reports = _run_all(inst.family, inst.empirical)
        assert reports["tournament"].h_products == m * (m - 1) // 2
        assert reports["mindist"].term_evaluations == m * m * (m - 1)
        assert reports["modified"].term_evaluations == m * (m - 1)
        assert reports["minloss"].h_products == m * (m - 1) // 2
        assert reports["efficient"].h_products == m - 1


class TestEliminationInvariantSweep:
    """The elimination selector's output condition, against brute-force
    loss-weights, on every sweep instance."""

    def test_selected_candidate_passes_at_c_equals_one(self, guarantee_sweep):
        assert guarantee_sweep.invariant_checks == SWEEP_TRIALS
        assert guarantee_sweep.invariant_failures == 0


# (m, k) of the draw-prone sweep: one pair block and several (P > 256 from
# m=24), cached and uncached triu indices (m > 100), and supports past
# numpy's 128-term summation block.
DRAW_PRONE_SIZES = ((2, 300), (7, 129), (24, 64), (25, 200), (40, 6), (64, 129), (101, 17), (120, 300))


def _draw_prone_instances(seed: int, m: int, k: int):
    """A random family of ``m`` members on ``k`` atoms with some rows copied
    onto others, its truth, and the empirical vectors the screens' rounding
    slacks exist for: the sampled one, a member, that member one ulp up and
    one ulp down at its heaviest atom, and the midpoint of two members."""
    inst = random_instance(seed, k, m, noise=0.1)
    rows = inst.family.matrix.copy()
    rng = np.random.default_rng(seed)
    for src, dst in rng.integers(0, m, size=(m // 8 + 1, 2)):
        rows[dst] = rows[src]
    member = rows[seed % m]
    x = int(np.argmax(member))
    nudged = [member.copy(), member.copy()]
    nudged[0][x] = np.nextafter(member[x], np.inf)
    nudged[1][x] = np.nextafter(member[x], -np.inf)
    midpoint = (rows[0] + rows[-1]) / 2
    return rows, inst.truth, (inst.empirical.mass, member, *nudged, midpoint)


def _family_of_rows(rows: np.ndarray):
    """A fresh family, keeping no pair table, of the rows of ``rows``."""
    names = [f"f{i}" for i in range(rows.shape[0])]
    return Family._from_matrix(Support.default(rows.shape[1]), names, rows.copy())


class TestDrawProneOracleSweep:
    """Every selector, on a cold family and on a preprocessed copy, meets
    its bound, charges its closed-form cost and, for the elimination
    selector, passes the invariant, on families large enough to run the
    multi-block code, with copied rows and ``h`` on or an ulp off a member."""

    @pytest.mark.parametrize("m, k", DRAW_PRONE_SIZES)
    def test_bounds_costs_and_invariant(self, m, k):
        rows, g, empiricals = _draw_prone_instances(m * 1000 + k, m, k)
        costs = {
            "tournament": (m * (m - 1) // 2, 0),
            "mindist": (0, m * m * (m - 1)),
            "modified": (0, m * (m - 1)),
            "minloss": (m * (m - 1) // 2, 0),
            "efficient": (m - 1, 0),
        }
        selectors = {
            "tournament": scheffe_tournament,
            "mindist": min_distance,
            "modified": modified_min_distance,
            "minloss": min_loss_weight,
            "efficient": efficient_min_loss_weight,
        }
        for h in empiricals:
            prep = preprocess(_family_of_rows(rows))
            reference = InstanceReference(prep, g, h)
            for name, select in selectors.items():
                cold = select(_family_of_rows(rows), h, Ledger())
                warm = select(prep, h, Ledger())
                assert cold == warm, name
                assert (warm.h_products, warm.term_evaluations) == costs[name], name
                a, b = _FULL_COEFFICIENTS[name]
                modes = ("full", "restricted") if name in _RESTRICTED_ALGORITHMS else ("full",)
                for mode in modes:
                    bound = check_bound(warm.selected_index, prep, g, h, a, b, mode, reference=reference)
                    assert bound.passed, (name, mode, bound.margin)
                if name == "efficient":
                    assert check_elimination_invariant(prep, h, warm.selected_index, 1.0, reference=reference)


class TestWinRuleAgreement:
    """The threshold comparison and the region-mass comparison agree exactly,
    draws included."""

    def test_random_triples(self):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            tri = rng.dirichlet(np.ones(k), size=3)
            assert check_win_equivalence(tri[0], tri[1], tri[2])

    def test_construction_instances(self):
        instances = []
        for eps in (1e-2, 1e-3, 1e-4):
            inst = lower_bound_pair(eps)
            instances.extend([inst, swap_pair(inst)])
        for eps in (1e-3, 1.5e-2, 1.0 / 60.0):
            instances.append(lower_bound_tournament(eps))
        for inst in instances:
            m = inst.family.matrix
            h = inst.empirical.mass
            for i in range(inst.family.size):
                for j in range(inst.family.size):
                    if i != j:
                        assert check_win_equivalence(m[i], m[j], h), (inst.label, i, j)


class TestQuadrupleInequality:
    """(f_i - f_j) . (T_ij - T_kl) is nonnegative up to rounding."""

    def test_random_quadruples(self):
        rng = np.random.default_rng(77)
        worst = np.inf
        for _ in range(10_000):
            k = int(rng.integers(1, 7))
            four = rng.dirichlet(np.ones(k), size=4)
            worst = min(worst, check_quadruple(four[0], four[1], four[2], four[3]))
        assert worst >= -1e-12


class TestMixtureLowerBound:
    """No mixture that leans on the far candidate can beat factor two on the
    pair construction."""

    def test_mixtures_cannot_beat_factor_two(self):
        for swapped in (False, True):
            inst = lower_bound_pair(1e-3)
            if swapped:
                inst = swap_pair(inst)
            far = 1 if swapped else 0
            e = inst.eps
            g = inst.truth
            matrix = inst.family.matrix
            _, d1 = best_in_family(inst.family, g)
            assert d1 == pytest.approx(0.502, abs=1e-9)
            floor = 1.0 - 2 * e
            for alpha in np.linspace(0.5, 1.0, 26):
                mixture = alpha * matrix[far] + (1 - alpha) * matrix[1 - far]
                err = float(np.abs(mixture - g).sum())
                assert err == pytest.approx(0.5 + alpha * (1 - 2 * e), abs=CLOSED_FORM_TOL)
                assert err >= floor - CLOSED_FORM_TOL
            assert floor >= 0.998 - 1e-9
            assert floor / d1 >= 1.98


class TestVcGapExample:
    """Restricted set systems can have strictly smaller VC dimension than the
    full system: the 32-candidate family on 5 atoms."""

    def test_restricted_dimension_is_strictly_smaller(self, record_property):
        start = time.perf_counter()
        family = vc_gap_family(4)
        full_system = yatracos_class(family)
        vc_full = vc_dimension(full_system)
        assert vc_dimension_by_traces(full_system) == vc_full
        vc_restricted = max(
            vc_dimension(yatracos_restricted(family, i)) for i in range(family.size)
        )
        elapsed = time.perf_counter() - start
        record_property(
            "vc_dimensions",
            {"computed": (vc_full, vc_restricted), "nominal": (4, 1), "seconds": elapsed},
        )
        assert vc_restricted < vc_full
        assert (vc_full, vc_restricted) == (4, 1)
        assert elapsed < 10.0
