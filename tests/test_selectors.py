"""The six selection procedures: outputs, tie-breaking, traces and exact costs."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from l1select import (
    Candidate,
    DegeneratePairError,
    EmpiricalDistribution,
    EmptyFamilyError,
    Family,
    Ledger,
    Outcome,
    Support,
    best_in_family,
    check_bound,
    compare,
    efficient_min_loss_weight,
    empirical_deviation,
    l1_distance,
    loss_weight,
    lower_bound_pair,
    lower_bound_tournament,
    min_distance,
    min_loss_weight,
    modified_min_distance,
    preprocess,
    random_instance,
    randomized_two,
    relaxed_selection_check,
    sample_empirical,
    scheffe_tournament,
    swap_pair,
)
from l1select import selectors
from l1select import test_function as make_test_function
from l1select.core import _pair_layer, _pair_signs
from l1select.selectors import (
    TraceEvent,
    _loss_weights,
    _min_distance_shortlist,
    _pair_outcomes,
    _win_counts,
)
from conftest import make_family

ALG_RUNNERS = {
    "tournament": lambda fam, h: scheffe_tournament(preprocess(fam), h, Ledger()),
    "mindist": lambda fam, h: min_distance(fam, h, Ledger()),
    "modified": lambda fam, h: modified_min_distance(fam, h, Ledger()),
    "minloss": lambda fam, h: min_loss_weight(preprocess(fam), h, Ledger()),
    "efficient": lambda fam, h: efficient_min_loss_weight(preprocess(fam), h, Ledger()),
}


def singleton_family():
    return make_family([[0.25, 0.25, 0.25, 0.25]])


class TestTournament:
    def test_cycle_instance_selects_worst(self, tournament_instance):
        """The win cycle gives f1 two wins and everyone else one, so the
        most-wins rule picks the candidate farthest from the truth."""
        report = scheffe_tournament(
            preprocess(tournament_instance.family), tournament_instance.empirical, Ledger()
        )
        assert report.selected_name == "f1"
        assert report.h_products == 6

    def test_singleton(self):
        report = scheffe_tournament(
            preprocess(singleton_family()), EmpiricalDistribution([0.25] * 4), Ledger()
        )
        assert report.selected_index == 0
        assert report.h_products == 0

    def test_draw_breaks_to_lowest_index(self, pair_instance):
        """The only pair draws, so both have zero wins and f1 wins the tie."""
        report = scheffe_tournament(
            preprocess(pair_instance.family), pair_instance.empirical, Ledger()
        )
        assert report.selected_index == 0


class TestMinDistance:
    def test_pair_tie_breaks_to_first(self, pair_instance):
        """Both candidates score 1/2+2eps on the only test function."""
        report = min_distance(pair_instance.family, pair_instance.empirical, Ledger())
        assert report.selected_index == 0
        assert report.term_evaluations == 4

    def test_singleton_scores_zero(self):
        report = min_distance(singleton_family(), EmpiricalDistribution([0.25] * 4), Ledger())
        assert report.selected_index == 0
        assert report.term_evaluations == 0

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            min_distance(Family(Support.default(1), []), EmpiricalDistribution([1.0]), Ledger())


class TestModifiedMinDistance:
    def test_pair_tie_breaks_to_first(self, pair_instance):
        report = modified_min_distance(pair_instance.family, pair_instance.empirical, Ledger())
        assert report.selected_index == 0
        assert report.term_evaluations == 2

    def test_selects_bad_candidate_on_original_and_swap(self, pair_instance):
        """A deterministic tie-break outputs the first candidate on both the
        instance and its relabeling, so on one of the two it must output the
        far candidate — the adversarial argument behind the factor-3 lower
        bound."""
        swapped = swap_pair(pair_instance)
        r1 = modified_min_distance(pair_instance.family, pair_instance.empirical, Ledger())
        r2 = modified_min_distance(swapped.family, swapped.empirical, Ledger())
        assert r1.selected_index == 0
        assert r2.selected_index == 0
        err1 = l1_distance(pair_instance.family.matrix[0], pair_instance.truth)
        err2 = l1_distance(swapped.family.matrix[0], swapped.truth)
        assert max(err1, err2) == pytest.approx(1.5 - 2 * pair_instance.eps, abs=1e-12)


class TestLossWeight:
    def test_draw_counts_as_not_winning(self, pair_instance):
        """f1 only draws against f2, so its loss-weight is their distance."""
        prep = preprocess(pair_instance.family)
        lw = loss_weight(prep, pair_instance.empirical, 0, Ledger())
        assert lw.value == pytest.approx(1.0 + 4.0 * pair_instance.eps, abs=1e-12)
        assert lw.witness == 1

    def test_undefeated_candidate(self, tournament_instance):
        """f2 beats f1 and loses to f3 (and its duplicate); the witness is the
        lowest-index maximizer."""
        prep = preprocess(tournament_instance.family)
        h = tournament_instance.empirical
        lw = loss_weight(prep, h, 1, Ledger())
        m = tournament_instance.family.matrix
        assert lw.value == l1_distance(m[1], m[2])
        assert lw.witness == 2

    def test_winner_of_everything_gets_minus_infinity(self):
        family = make_family([[1.0, 0.0], [0.5, 0.5], [0.4, 0.6]])
        h = EmpiricalDistribution([1.0, 0.0])
        prep = preprocess(family)
        lw = loss_weight(prep, h, 0, Ledger())
        assert lw.value == -math.inf
        assert lw.witness is None
        assert lw.undefeated

    def test_charges_one_product_per_rival(self, simple_family, uniform_empirical):
        ledger = Ledger()
        loss_weight(preprocess(simple_family), uniform_empirical, 0, ledger)
        assert ledger.h_products == 2

    def test_index_validated(self, simple_family, uniform_empirical):
        with pytest.raises(IndexError):
            loss_weight(preprocess(simple_family), uniform_empirical, 5, Ledger())


class TestMinLossWeight:
    def test_pair_tie_breaks_to_first(self, pair_instance):
        report = min_loss_weight(preprocess(pair_instance.family), pair_instance.empirical, Ledger())
        assert report.selected_index == 0
        assert report.h_products == 1

    def test_singleton_is_undefeated(self):
        report = min_loss_weight(
            preprocess(singleton_family()), EmpiricalDistribution([0.25] * 4), Ledger()
        )
        assert report.selected_index == 0
        assert report.h_products == 0

    def test_each_pair_compared_once(self, tournament_instance):
        ledger = Ledger()
        min_loss_weight(preprocess(tournament_instance.family), tournament_instance.empirical, ledger)
        assert ledger.h_products == 6


class TestEfficientMinLossWeight:
    def test_pair_draw_removes_second(self, pair_instance):
        report = efficient_min_loss_weight(
            preprocess(pair_instance.family), pair_instance.empirical, Ledger()
        )
        assert report.selected_index == 0
        assert report.h_products == 1
        (event,) = report.trace
        assert (event.first, event.second) == (0, 1)
        assert event.outcome is Outcome.DRAW
        assert event.removed == 1

    def test_four_candidates_use_three_products(self, tournament_instance):
        ledger = Ledger()
        report = efficient_min_loss_weight(
            preprocess(tournament_instance.family), tournament_instance.empirical, ledger
        )
        assert ledger.h_products == 3
        assert len(report.trace) == 3

    def test_trace_removals_are_consistent(self, tournament_instance):
        report = efficient_min_loss_weight(
            preprocess(tournament_instance.family), tournament_instance.empirical, Ledger()
        )
        removed = set()
        for event in report.trace:
            assert event.first not in removed and event.second not in removed
            loser = event.first if event.outcome is Outcome.SECOND_WINS else event.second
            if event.outcome is Outcome.FIRST_WINS:
                loser = event.second
            assert event.removed == loser
            removed.add(event.removed)
        assert report.selected_index not in removed

    def test_singleton_makes_no_comparisons(self):
        report = efficient_min_loss_weight(
            preprocess(singleton_family()), EmpiricalDistribution([0.25] * 4), Ledger()
        )
        assert report.h_products == 0
        assert report.trace == ()

    def test_draw_handling_flag_flips_survivor_on_pure_draw(self, pair_instance):
        report = efficient_min_loss_weight(
            preprocess(pair_instance.family),
            pair_instance.empirical,
            Ledger(),
            draw_removes_first=True,
        )
        assert report.selected_index == 1
        assert report.trace[0].removed == 0


class TestRandomizedTwo:
    def test_truth_on_fence_gives_even_mixture(self, pair_instance):
        """With h = g both deviations are equal, so r = 1 and p = 1/2; the
        exact expected error lands at 1.00 against the bound 2*d1 = 1.04."""
        f1, f2 = pair_instance.family.candidates
        report = randomized_two(f1, f2, pair_instance.empirical, rng_seed=0)
        assert report.mixture == pytest.approx((0.5, 0.5), abs=1e-12)
        assert report.term_evaluations == 2
        assert report.h_products == 0

        e = pair_instance.eps
        g = pair_instance.truth
        errs = [l1_distance(c.mass, g) for c in (f1, f2)]
        expected = report.mixture[0] * errs[0] + report.mixture[1] * errs[1]
        assert expected == pytest.approx(1.0, abs=1e-12)
        _, d1 = best_in_family(pair_instance.family, g)
        delta = empirical_deviation(g, pair_instance.empirical, pair_instance.family)
        assert expected <= 2 * d1 + delta + 1e-9
        assert 2 * d1 + delta == pytest.approx(1.04, abs=1e-10)
        assert e == pytest.approx(1e-2, abs=1e-11)

    def test_empirical_equal_to_second_selects_it_surely(self):
        f1 = Candidate("f1", [0.5, 0.5, 0.0])
        f2 = Candidate("f2", [0.2, 0.3, 0.5])
        h = EmpiricalDistribution([0.2, 0.3, 0.5])
        for seed in range(5):
            report = randomized_two(f1, f2, h, rng_seed=seed)
            assert report.mixture == (0.0, 1.0)
            assert report.selected_index == 1

    def test_empirical_equal_to_first_selects_it_surely(self):
        f1 = Candidate("f1", [0.5, 0.5, 0.0])
        f2 = Candidate("f2", [0.2, 0.3, 0.5])
        h = EmpiricalDistribution([0.5, 0.5, 0.0])
        for seed in range(5):
            report = randomized_two(f1, f2, h, rng_seed=seed)
            assert report.mixture == (1.0, 0.0)
            assert report.selected_index == 0

    def test_identical_candidates_rejected(self):
        f = Candidate("f1", [0.5, 0.5])
        g = Candidate("f2", [0.5, 0.5])
        with pytest.raises(DegeneratePairError):
            randomized_two(f, g, EmpiricalDistribution([0.4, 0.6]), rng_seed=0)

    def test_seed_determinism(self, pair_instance):
        f1, f2 = pair_instance.family.candidates
        a = randomized_two(f1, f2, pair_instance.empirical, rng_seed=123)
        b = randomized_two(f1, f2, pair_instance.empirical, rng_seed=123)
        assert a == b

    def test_term_sum_overflow_still_mixes_evenly(self):
        """Each term is 1e308, so n1 + n2 overflows; the weights are still
        the exact ratio of the two terms."""
        f1 = Candidate("f1", [1e308, 0.0])
        f2 = Candidate("f2", [0.0, 1e308])
        with np.errstate(over="ignore"):
            report = randomized_two(f1, f2, np.array([0.5, 0.5]), rng_seed=0)
        assert report.mixture == (0.5, 0.5)

    def test_term_sum_overflow_warns_nothing(self):
        """The degenerate-pair check compares the masses exactly, so masses
        near the float maximum raise no numpy overflow warning."""
        f1 = Candidate("f1", [1e308, 0.0])
        f2 = Candidate("f2", [0.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = randomized_two(f1, f2, np.array([0.5, 0.5]), rng_seed=0)
        assert report.mixture == (0.5, 0.5)

    def test_both_terms_zero_give_even_mixture(self):
        """Subnormal masses make both terms round to exactly zero; neither
        candidate is favoured, so the mixture is even instead of 0 / 0."""
        f1 = Candidate("f1", [5e-324, 0.0])
        f2 = Candidate("f2", [0.0, 5e-324])
        for seed in range(4):
            report = randomized_two(f1, f2, np.array([0.5, 0.5]), rng_seed=seed)
            assert report.mixture == (0.5, 0.5)
            assert report.term_evaluations == 2

    def test_overflowing_term_rejected(self):
        f1 = Candidate("f1", [1.7e308, 1.7e308, 0.0])
        f2 = Candidate("f2", [0.0, 0.0, 1.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            randomized_two(f1, f2, np.array([0.5, 0.25, 0.25]), rng_seed=0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_mixture_weights_are_a_distribution(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(k), size=3)
        if float(np.abs(rows[0] - rows[1]).sum()) == 0.0:
            return
        report = randomized_two(
            Candidate("f1", rows[0]), Candidate("f2", rows[1]),
            EmpiricalDistribution(rows[2]), rng_seed=seed,
        )
        p, q = report.mixture
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
        assert p + q == pytest.approx(1.0, abs=1e-12)


class TestRelaxedSelectionCheck:
    def test_efficient_output_always_passes_at_one(self):
        for seed in range(30):
            inst = random_instance(seed, 4, 6, noise=0.05)
            prep = preprocess(inst.family)
            report = efficient_min_loss_weight(prep, inst.empirical, Ledger())
            result = relaxed_selection_check(prep, inst.empirical, report.selected_index, 1.0)
            assert result.passed, f"seed {seed}: margin {result.margin}"

    def test_singleton_vacuously_true(self):
        prep = preprocess(singleton_family())
        result = relaxed_selection_check(prep, EmpiricalDistribution([0.25] * 4), 0, 1.0)
        assert result.passed
        assert result.margin == math.inf

    def test_relaxation_factor_validated(self, pair_instance):
        """A NaN factor is no factor >= 1; accepted, it would make every
        slack NaN, which min skips, and the check pass vacuously."""
        prep = preprocess(pair_instance.family)
        for c in (0.5, float("nan")):
            with pytest.raises(ValueError, match="relaxation factor must be >= 1"):
                relaxed_selection_check(prep, pair_instance.empirical, 0, c)

    def test_passing_candidates_at_two_meet_widened_bound(self):
        """Any candidate passing the relaxed condition at C=2 obeys the
        (1+2C) d1 + 2C delta guarantee."""
        checked = 0
        for seed in range(80):
            inst = random_instance(seed, 5, 5, noise=0.1)
            prep = preprocess(inst.family)
            for c in range(inst.family.size):
                if relaxed_selection_check(prep, inst.empirical, c, 2.0).passed:
                    bound = check_bound(
                        c, inst.family, inst.truth, inst.empirical, 5.0, 4.0
                    )
                    assert bound.passed, f"seed {seed} candidate {c}: margin {bound.margin}"
                    checked += 1
        assert checked > 50


class TestCostFormulas:
    """Exact ledger counts as closed forms in the family size."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_counts(self, m):
        inst = random_instance(seed=100 + m, k=5, m=m, noise=0.1)
        fam, h = inst.family, inst.empirical

        assert scheffe_tournament(preprocess(fam), h, Ledger()).h_products == m * (m - 1) // 2
        assert min_distance(fam, h, Ledger()).term_evaluations == m * m * (m - 1)
        assert modified_min_distance(fam, h, Ledger()).term_evaluations == m * (m - 1)
        assert min_loss_weight(preprocess(fam), h, Ledger()).h_products == m * (m - 1) // 2
        assert efficient_min_loss_weight(preprocess(fam), h, Ledger()).h_products == m - 1

    def test_no_algorithm_touches_the_other_counter(self, simple_family, uniform_empirical):
        assert scheffe_tournament(preprocess(simple_family), uniform_empirical, Ledger()).term_evaluations == 0
        assert min_distance(simple_family, uniform_empirical, Ledger()).h_products == 0
        assert modified_min_distance(simple_family, uniform_empirical, Ledger()).h_products == 0
        assert min_loss_weight(preprocess(simple_family), uniform_empirical, Ledger()).term_evaluations == 0
        assert efficient_min_loss_weight(preprocess(simple_family), uniform_empirical, Ledger()).term_evaluations == 0


class TestDeterminismAndEquivariance:
    def test_identical_runs_produce_identical_reports(self):
        inst = random_instance(7, 5, 6, noise=0.2)
        for name, run in ALG_RUNNERS.items():
            a = run(inst.family, inst.empirical)
            b = run(inst.family, inst.empirical)
            assert a == b, f"{name} not deterministic"

    def test_permutation_equivariance_on_generic_instances(self):
        """On instances with no draws and no score ties, relabeling the
        candidates relabels the selection."""
        rng = np.random.default_rng(2024)
        checked = 0
        for seed in range(60):
            inst = random_instance(seed, 5, 5, noise=0.15)
            fam, h = inst.family, inst.empirical
            if not self._generic(fam, h):
                continue
            perm = rng.permutation(fam.size)
            permuted = Family(
                fam.support,
                [Candidate(fam.candidates[i].name, fam.matrix[i]) for i in perm],
            )
            for name, run in ALG_RUNNERS.items():
                base = run(fam, h).selected_index
                moved = run(permuted, h).selected_index
                assert perm[moved] == base, f"{name} seed {seed}: {base} vs perm {moved}"
                checked += 1
        assert checked >= 100

    @staticmethod
    def _generic(fam, h) -> bool:
        """No pair draws, no distance ties, and distinct per-candidate scores
        for every score-based rule."""
        prep = preprocess(fam)
        dists = sorted(l1_distance(fam[i], fam[j]) for i, j in prep.pairs)
        if any(a == b for a, b in zip(dists, dists[1:])):
            return False
        wins = [0] * fam.size
        for i, j in prep.pairs:
            out = compare(prep, i, j, h, Ledger())
            if out is Outcome.DRAW:
                return False
            wins[i if out is Outcome.FIRST_WINS else j] += 1
        if len(set(wins)) != len(wins):
            return False
        hv = h.mass
        all_pair_signs = _pair_signs(fam.matrix).signs
        mindist_scores = [
            float(np.abs((all_pair_signs * (fam.matrix[c] - hv)).sum(axis=1)).max())
            for c in range(fam.size)
        ]
        modified_scores = [
            float(
                np.abs(
                    (np.sign(fam.matrix[c] - np.delete(fam.matrix, c, axis=0)) * (fam.matrix[c] - hv)).sum(axis=1)
                ).max()
            )
            for c in range(fam.size)
        ]
        for scores in (mindist_scores, modified_scores):
            if len(set(scores)) != len(scores):
                return False
        lws = [loss_weight(prep, h, c, Ledger()).value for c in range(fam.size)]
        return len(set(lws)) == len(lws)


def assert_matches_compare_path(prep, h) -> int:
    """Check the vectorised pair outcomes, wins, loss-weights and selections
    against per-pair :func:`compare` calls; return the number of draws."""
    m = prep.size
    wins = [0] * m
    draws = 0
    first, second = _pair_outcomes(prep, h, Ledger())
    for lex, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        outcome = compare(prep, i, j, h, Ledger())
        assert (bool(first[lex]), bool(second[lex])) == (
            outcome is Outcome.FIRST_WINS,
            outcome is Outcome.SECOND_WINS,
        ), f"pair {(i, j)}: {outcome}"
        if outcome is Outcome.FIRST_WINS:
            wins[i] += 1
        elif outcome is Outcome.SECOND_WINS:
            wins[j] += 1
        else:
            draws += 1
    lws = [loss_weight(prep, h, c, Ledger()).value for c in range(m)]
    assert _win_counts(prep, h, Ledger()).tolist() == wins
    assert _loss_weights(prep, h, Ledger()).tolist() == lws

    ledger = Ledger()
    tournament = scheffe_tournament(prep, h, ledger)
    assert tournament.selected_index == max(range(m), key=lambda c: (wins[c], -c))
    minloss = min_loss_weight(prep, h, ledger)
    assert minloss.selected_index == min(range(m), key=lambda c: (lws[c], c))
    assert ledger.h_products == m * (m - 1)
    return draws


class TestVectorisedPairOutcomes:
    """The one-pass tournament and min-loss-weight agree with compare bit for
    bit, draws included."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(1, 7),
        st.sampled_from([None, 1, 2, 3, 4, 10]),
        st.booleans(),
    )
    def test_random_families(self, seed, m, k, n, duplicate_last):
        inst = random_instance(seed, k, m, noise=0.1)
        rows = inst.family.matrix.copy()
        if duplicate_last and m > 1:
            rows[-1] = rows[0]
        h = inst.empirical if n is None else sample_empirical(inst.truth, n, seed)
        assert_matches_compare_path(preprocess(make_family(rows)), h)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1.5e-2])
    @pytest.mark.parametrize(
        "build", [lower_bound_pair, lambda e: swap_pair(lower_bound_pair(e)), lower_bound_tournament],
        ids=["pair", "swap_pair", "tournament"],
    )
    def test_draw_constructions(self, build, eps):
        inst = build(eps)
        prep = preprocess(inst.family)
        draws = sum(assert_matches_compare_path(prep, h) for h in (inst.empirical, inst.truth))
        assert draws > 0

    def test_one_ulp_draws_on_a_large_support(self):
        """Nudge one atom of h an ulp at a time until compare calls the pair
        an exact draw, on k=64 where the reduction order matters: a matrix
        product sums in another order and misses most of these draws."""
        draws = 0
        for seed in range(20):
            inst = random_instance(seed, 64, 2, noise=0.1)
            prep = preprocess(inst.family)
            h = inst.family.matrix.mean(axis=0)
            x = int(np.flatnonzero(make_test_function(inst.family[0], inst.family[1]).signs > 0)[0])
            for _ in range(200):
                outcome = compare(prep, 0, 1, h, Ledger())
                if outcome is Outcome.DRAW:
                    draws += assert_matches_compare_path(prep, h)
                    break
                h[x] = np.nextafter(h[x], -np.inf if outcome is Outcome.FIRST_WINS else np.inf)
        assert draws >= 10


def reference_min_distance_scores(rows: np.ndarray, h) -> np.ndarray:
    """Every candidate's min-distance score, one exact row-wise pass over the
    whole pair table per candidate."""
    hv = np.asarray(getattr(h, "mass", h), dtype=np.float64)
    m = rows.shape[0]
    if m < 2:
        return np.zeros(m)
    idx_i, idx_j = np.triu_indices(m, k=1)
    signs = np.sign(rows[idx_i] - rows[idx_j])
    return np.array([np.abs((signs * (rows[c] - hv)).sum(axis=1)).max() for c in range(m)])


def reference_modified_scores(rows: np.ndarray, h) -> np.ndarray:
    """Every candidate's modified min-distance score, scanning its own m-1
    test functions."""
    hv = np.asarray(getattr(h, "mass", h), dtype=np.float64)
    m = rows.shape[0]
    scores = np.zeros(m)
    for i in range(m):
        if m > 1:
            signs = np.sign(rows[i] - np.delete(rows, i, axis=0))
            scores[i] = np.abs((signs * (rows[i] - hv)).sum(axis=1)).max()
    return scores


def assert_min_distance_selectors_match_reference(rows: np.ndarray, h) -> None:
    family = make_family(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        want = int(np.argmin(reference_min_distance_scores(rows, h)))
        want_modified = int(np.argmin(reference_modified_scores(rows, h)))
        assert min_distance(family, h, Ledger()).selected_index == want
        assert modified_min_distance(family, h, Ledger()).selected_index == want_modified


class TestMinDistanceScreen:
    """The matrix-product screen plus exact recheck selects what scoring every
    candidate exactly row by row selects, ties and one-ulp gaps included."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
        st.sampled_from(["empirical", "truth", "member", "sample"]),
    )
    def test_random_families_with_duplicates(self, seed, m, k, copies, data):
        """Copied rows score exactly alike, so the lowest index must win; k
        ranges past numpy's 128-term pairwise summation block."""
        inst = random_instance(seed, k, m, noise=0.1)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        h = {
            "empirical": inst.empirical,
            "truth": inst.truth,
            "member": rows[seed % m],
            "sample": sample_empirical(inst.truth, 100, seed),
        }[data]
        assert_min_distance_selectors_match_reference(rows, h)

    def test_screen_leaves_one_candidate_on_generic_instances(self):
        """The rounding slack is tiny next to the gaps between generic
        scores, so only the winner needs the exact rescoring."""
        for seed in range(8):
            inst = random_instance(seed, 64, 32, noise=(0.0, 0.02, 0.1, 0.3)[seed % 4])
            rows = inst.family.matrix
            signs = _pair_signs(rows).signs
            shortlist = _min_distance_shortlist(rows - inst.empirical.mass, signs)
            assert shortlist.tolist() == [int(np.argmin(reference_min_distance_scores(rows, inst.empirical)))]

    @pytest.mark.parametrize("seed", range(6))
    def test_masses_near_the_float_max_recheck_everyone(self, seed):
        """Above half the float maximum the rounding bound can overflow, so
        the screen keeps every candidate.  Where an exact score overflows as
        well, both selectors refuse the family instead of choosing among
        infinite scores."""
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 1.0, size=(5, 8)) * 1e308
        rows[3] = rows[1]
        h = rng.dirichlet(np.ones(8))
        with np.errstate(over="ignore"):
            diffs = rows - h
            signs = _pair_signs(rows).signs
            assert _min_distance_shortlist(diffs, signs).tolist() == list(range(5))
        family = make_family(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            references = (
                (min_distance, reference_min_distance_scores(rows, h)),
                (modified_min_distance, reference_modified_scores(rows, h)),
            )
        for select, scores in references:
            if np.all(np.isfinite(scores)):
                assert select(family, h, Ledger()).selected_index == int(np.argmin(scores))
            else:
                with pytest.raises(ValueError, match="overflow"):
                    select(family, h, Ledger())

    @pytest.mark.parametrize("seed", range(6))
    def test_norms_past_half_the_float_max_with_finite_scores(self, seed):
        """Rows between 0.6 and 1 times 2e307 on eight atoms: every
        ||f - h||_1 exceeds half the float maximum, so the screen keeps
        everyone, but no partial sum can pass 8 * 2e307 and no score
        overflows.  Both selectors must pick what the reference picks."""
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.6, 1.0, size=(5, 8)) * 2e307
        rows[3] = rows[1]
        h = rng.dirichlet(np.ones(8))
        diffs = rows - h
        assert np.abs(diffs).sum(axis=1).min() > np.finfo(np.float64).max / 2
        assert _min_distance_shortlist(diffs, _pair_signs(rows).signs).tolist() == list(range(5))
        assert np.all(np.isfinite(reference_min_distance_scores(rows, h)))
        assert np.all(np.isfinite(reference_modified_scores(rows, h)))
        assert_min_distance_selectors_match_reference(rows, h)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1.5e-2])
    @pytest.mark.parametrize(
        "build", [lower_bound_pair, lambda e: swap_pair(lower_bound_pair(e)), lower_bound_tournament],
        ids=["pair", "swap_pair", "tournament"],
    )
    def test_draw_constructions(self, build, eps):
        inst = build(eps)
        for h in (inst.empirical, inst.truth):
            assert_min_distance_selectors_match_reference(inst.family.matrix, h)

    def test_one_ulp_near_ties(self):
        """With two candidates both scores come from the one test function T,
        and they tie where h . T meets the pair's threshold.  Walk one atom of
        h an ulp at a time across that point on k=64, where the summation
        order matters: both selectors must follow the reference at every
        step, exact ties and one-ulp crossings included."""
        crossings = ties = 0
        for seed in range(20):
            inst = random_instance(seed, 64, 2, noise=0.1)
            rows = inst.family.matrix
            h = rows.mean(axis=0)
            x = int(np.flatnonzero(rows[0] > rows[1])[0])
            for _ in range(400):
                scores = reference_min_distance_scores(rows, h)
                if scores[0] <= scores[1]:
                    break
                h[x] = np.nextafter(h[x], np.inf)
            for _ in range(6):
                h[x] = np.nextafter(h[x], -np.inf)
            winners = set()
            for _ in range(13):
                scores = reference_min_distance_scores(rows, h)
                winners.add(int(np.argmin(scores)))
                ties += scores[0] == scores[1]
                assert_min_distance_selectors_match_reference(rows, h)
                h[x] = np.nextafter(h[x], np.inf)
            crossings += winners == {0, 1}
        assert crossings >= 5
        assert ties >= 20


class TestSharedPairTable:
    """A family builds each layer of its pair table at most once, on first
    need, and builds none while it keeps the outcome layer that preprocess
    builds."""

    @pytest.mark.parametrize("preprocess_first", [True, False])
    def test_one_build_serves_preprocess_and_both_distance_selectors(
        self, pair_table_builds, preprocess_first
    ):
        """The distance selectors build the sign layer alone, which both
        share; a later preprocess builds the outcome layer, which replaces
        the sign layer.  After a preprocess, nothing else is built."""
        inst = random_instance(3, 16, 12, noise=0.1)
        family = Family(inst.family.support, inst.family.candidates)
        assert pair_table_builds == []
        if preprocess_first:
            preprocess(family)
        min_distance(family, inst.empirical)
        modified_min_distance(family, inst.empirical)
        preprocess(family)
        scheffe_tournament(family, inst.empirical)
        min_loss_weight(family, inst.empirical)
        min_distance(family, inst.empirical)
        layers = ["outcomes"] if preprocess_first else ["signs", "outcomes"]
        assert pair_table_builds == [(layer, (12, 16)) for layer in layers]
        assert family._lex_pairs.thresholds is not None

    def test_each_layer_is_built_at_most_once(self, pair_table_builds):
        """The outcome layer replaces the sign layer, so the family keeps one
        P x k sign array, which the distance selectors then read."""
        inst = random_instance(4, 16, 12, noise=0.1)
        family = Family(inst.family.support, inst.family.candidates)
        for _ in range(2):
            min_distance(family, inst.empirical)
            modified_min_distance(family, inst.empirical)
        signs = family._lex_pairs.signs
        for _ in range(2):
            scheffe_tournament(family, inst.empirical)
            min_loss_weight(family, inst.empirical)
            min_distance(family, inst.empirical)
        assert pair_table_builds == [("signs", (12, 16)), ("outcomes", (12, 16))]
        layer = family._lex_pairs
        assert layer.signs is not signs and np.array_equal(layer.signs, signs)
        for arr in layer:
            assert not arr.flags.writeable

    def test_preprocessed_arrays_are_the_family_table(self):
        """A preprocessed family reads the family's own outcome layer: its
        endpoints are that layer's gathered through ``order``, which lists
        the layer's distances nonincreasing, a second preprocess reuses the
        layer, and every array is read-only."""
        family = random_instance(5, 10, 7).family
        layer = _pair_layer(family, outcomes=True)
        prep = preprocess(family)
        assert family._lex_pairs is layer
        assert preprocess(family).family._lex_pairs is layer
        assert np.array_equal(prep.pair_i, layer.pair_i[prep.order])
        assert np.array_equal(prep.pair_j, layer.pair_j[prep.order])
        assert np.all(np.diff(layer.distances[prep.order]) <= 0.0)
        for arr in (*layer, prep.order, prep.pair_i, prep.pair_j):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
    )
    def test_pair_order_does_not_change_a_selection(self, seed, m, k, copies):
        """Whether the distance selectors read the sign layer of a cold
        family or the outcome layer of a preprocessed one, they pick the
        candidate the row-wise reference picks."""
        inst = random_instance(seed, k, m, noise=0.1)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        h = inst.empirical
        fresh, preprocessed = make_family(rows), make_family(rows)
        prep = preprocess(preprocessed)
        want = int(np.argmin(reference_min_distance_scores(rows, h)))
        want_modified = int(np.argmin(reference_modified_scores(rows, h)))
        for family in (fresh, preprocessed):
            assert min_distance(family, h).selected_index == want
            assert modified_min_distance(family, h).selected_index == want_modified
        assert fresh._lex_pairs.thresholds is None
        assert preprocessed._lex_pairs.thresholds is not None and prep.family is preprocessed

    def test_empirical_deviation_builds_its_own_signs(self, pair_table_builds):
        """The oracle recomputes from raw vectors even when the family
        already holds a table, and builds the sign layer alone, which it
        does not keep."""
        inst = random_instance(6, 8, 6, noise=0.1)
        prep = preprocess(inst.family)
        layer = inst.family._lex_pairs
        assert pair_table_builds == [("outcomes", (6, 8))]
        deviation = empirical_deviation(inst.truth, inst.empirical, inst.family)
        assert pair_table_builds == [("outcomes", (6, 8)), ("signs", (6, 8))]
        assert inst.family._lex_pairs is layer and prep.family is inst.family
        terms = (layer.signs * (inst.truth - inst.empirical.mass)).sum(axis=1)
        assert deviation == float(np.abs(terms).max())


COLD_SELECTORS = {
    "tournament": scheffe_tournament,
    "mindist": min_distance,
    "modified": modified_min_distance,
    "minloss": min_loss_weight,
    "efficient": efficient_min_loss_weight,
}


def assert_cold_selects_like_preprocessed(rows: np.ndarray, h) -> None:
    """The five selectors on a cold family (building the layer each reads)
    give the report, index, ledger and trace, that they give on a
    preprocessed copy; the cold family's outcome layer is the copy's bit for
    bit, and gathered through the copy's distance order it gives the copy's
    endpoints."""
    cold, warm = make_family(rows), make_family(rows)
    prep = preprocess(warm)
    for name, select in COLD_SELECTORS.items():
        got, want = select(cold, h, Ledger()), select(prep, h, Ledger())
        assert got == want, name
        assert select(warm, h, Ledger()) == want, name
    layer = cold._lex_pairs
    idx_i, idx_j = np.triu_indices(rows.shape[0], k=1)
    assert np.array_equal(layer.pair_i, idx_i) and np.array_equal(layer.pair_j, idx_j)
    for cold_arr, warm_arr in zip(layer, warm._lex_pairs):
        assert np.array_equal(cold_arr, warm_arr)
    assert np.array_equal(layer.pair_i[prep.order], prep.pair_i)
    assert np.array_equal(layer.pair_j[prep.order], prep.pair_j)


class TestColdFamilyLayers:
    """Selections on a family that was never preprocessed equal those on a
    preprocessed one, read from the smaller lexicographic layers."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=6),
        st.sampled_from(["empirical", "truth", "member"]),
    )
    def test_random_families_with_copied_rows(self, seed, m, k, copies, data):
        """Copied rows make draws, zero distances and tied scores; m up to 40
        spans several pair blocks and k passes numpy's 128-term summation
        block."""
        inst = random_instance(seed, k, m, noise=0.1)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        h = {"empirical": inst.empirical, "truth": inst.truth, "member": rows[seed % m]}[data]
        assert_cold_selects_like_preprocessed(rows, h)

    def test_one_ulp_draws_on_a_large_support(self):
        """Walk one atom of h an ulp at a time until compare calls the pair
        (0, 1) an exact draw, on k=64: the fused pass of the cold path must
        find the same draw, and the tournament and min-loss-weight selectors
        must pick what they pick on the preprocessed family."""
        draws = 0
        for seed in range(20):
            rows = random_instance(seed, 64, 3, noise=0.1).family.matrix
            prep = preprocess(make_family(rows))
            h = rows[:2].mean(axis=0)
            x = int(np.flatnonzero(rows[0] > rows[1])[0])
            for _ in range(200):
                outcome = compare(prep, 0, 1, h, Ledger())
                if outcome is Outcome.DRAW:
                    break
                h[x] = np.nextafter(h[x], -np.inf if outcome is Outcome.FIRST_WINS else np.inf)
            else:
                continue
            draws += 1
            first, second = _pair_outcomes(make_family(rows), h, Ledger())
            for lex, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
                outcome = compare(prep, i, j, h, Ledger())
                assert (first[lex], second[lex]) == (
                    outcome is Outcome.FIRST_WINS,
                    outcome is Outcome.SECOND_WINS,
                )
            assert (first[0], second[0]) == (False, False)
            assert_cold_selects_like_preprocessed(rows, h)
        assert draws >= 10

    @pytest.mark.parametrize(
        "name, layer_bytes_per_pair",
        [
            ("mindist", 64 * 8),
            ("modified", 64 * 8),
            ("tournament", 64 * 8 + 16),
            ("minloss", 64 * 8 + 16),
            ("efficient", 64 * 8 + 16 + 24),
        ],
    )
    def test_cold_peak_memory_is_the_layer_read(self, name, layer_bytes_per_pair):
        """At m=96, k=64 a cold selection holds the arrays of the layer it
        reads (2.3 MB of signs, plus distances and thresholds for the
        outcome selectors, plus the distance order and its endpoints for
        the elimination selector) and block-sized temporaries: no temporary
        as large as the layer, such as a P x k product with h."""
        family = make_family(random_instance(0, 64, 96).family.matrix)
        h = np.full(64, 1 / 64)
        tracemalloc.start()
        try:
            COLD_SELECTORS[name](family, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 95 // 2 * layer_bytes_per_pair + 1_000_000

    @pytest.mark.parametrize(
        "name, message",
        [
            ("tournament", "cannot preprocess an empty family"),
            ("mindist", "cannot select from an empty family"),
            ("modified", "cannot select from an empty family"),
            ("minloss", "cannot preprocess an empty family"),
            ("efficient", "cannot preprocess an empty family"),
        ],
    )
    def test_singleton_and_empty_families(self, name, message, pair_table_builds):
        """A singleton selects its member at no cost; an empty family is
        refused with the message a preprocess-first run gave, and builds
        nothing."""
        select = COLD_SELECTORS[name]
        report = select(singleton_family(), np.full(4, 0.25), Ledger())
        assert (report.selected_index, report.h_products, report.term_evaluations) == (0, 0, 0)
        with pytest.raises(EmptyFamilyError, match=f"^{message}$"):
            select(Family(Support.default(4), []), np.full(4, 0.25), Ledger())
        assert [shape for _, shape in pair_table_builds] == [(1, 4)]

    def test_cold_family_with_overflowing_values_is_refused(self):
        """Masses near the float maximum overflow distances or thresholds:
        the outcome selectors refuse a cold family with the error preprocess
        gives, and keep no layer."""
        rows = np.random.default_rng(0).uniform(size=(5, 8)) * 1e308
        family = make_family(rows)
        with pytest.raises(ValueError) as refused:
            preprocess(family)
        for select in (scheffe_tournament, min_loss_weight):
            with pytest.raises(ValueError) as raised:
                select(family, np.full(8, 1 / 8))
            assert str(raised.value) == str(refused.value)
            assert family._lex_pairs is None


BAD_EMPIRICALS = {
    "nan": [float("nan"), 0.5, 0.25, 0.25],
    "inf": [float("inf"), 0.0, 0.0, 0.0],
    "negative": [-0.25, 0.75, 0.25, 0.25],
}


def reference_elimination(family: Family, h) -> tuple[TraceEvent, ...]:
    """The elimination walk, driven by :func:`compare` on ``family``, over
    the pairs lexsorted by nonincreasing distance from the raw rows, ties
    in (i, j) order; a draw removes the second candidate."""
    m = family.size
    idx_i, idx_j = np.triu_indices(m, k=1)
    distances = np.abs(family.matrix[idx_i] - family.matrix[idx_j]).sum(axis=1)
    alive = set(range(m))
    trace = []
    for p in np.lexsort((idx_j, idx_i, -distances)):
        i, j = int(idx_i[p]), int(idx_j[p])
        if len(alive) == 1:
            break
        if i in alive and j in alive:
            outcome = compare(family, i, j, h, Ledger())
            removed = i if outcome is Outcome.SECOND_WINS else j
            alive.discard(removed)
            trace.append(TraceEvent(i, j, outcome, removed))
    return tuple(trace)


class TestOneSelectorSignature:
    """compare, loss_weight, relaxed_selection_check and the elimination
    selector read the outcome layer by lexicographic index, so a family,
    cold or preprocessed, and its preprocessed form give the same answers."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 40),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
        st.sampled_from(["empirical", "truth", "member"]),
    )
    def test_family_and_preprocessed_family_agree(self, seed, m, k, copies, data):
        """Copied rows make draws and tied distances; ``member`` puts h on
        a candidate, which draws every pair of its copies."""
        inst = random_instance(seed, k, m, noise=0.1)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        h = {"empirical": inst.empirical, "truth": inst.truth, "member": rows[seed % m]}[data]
        cold, warm = make_family(rows), make_family(rows)
        prep = preprocess(warm)
        for i, j in itertools.permutations(range(m), 2):
            assert compare(cold, i, j, h, Ledger()) is compare(prep, i, j, h, Ledger())
        for i in range(m):
            want = loss_weight(prep, h, i)
            assert loss_weight(cold, h, i) == want and loss_weight(warm, h, i) == want
            for include_draws in (False, True):
                check = relaxed_selection_check(prep, h, i, 1.5, include_draws=include_draws)
                for target in (cold, warm):
                    assert relaxed_selection_check(target, h, i, 1.5, include_draws=include_draws) == check
        ledgers = [Ledger() for _ in range(3)]
        reports = [efficient_min_loss_weight(t, h, ledger) for t, ledger in zip((cold, warm, prep), ledgers)]
        assert reports[0] == reports[1] == reports[2]
        assert ledgers[0] == ledgers[1] == ledgers[2] == Ledger(max(m - 1, 0), 0)
        assert reports[0].trace == reference_elimination(cold, h)
        assert cold._lex_pairs.thresholds is not None


class TestEmpiricalValidation:
    """Non-finite or negative empirical mass is rejected by every selector
    instead of yielding a selection."""

    @pytest.mark.parametrize("bad", sorted(BAD_EMPIRICALS))
    @pytest.mark.parametrize("algorithm", sorted(ALG_RUNNERS))
    def test_deterministic_selectors_reject(self, simple_family, algorithm, bad):
        with pytest.raises(ValueError, match="non-finite|negative"):
            ALG_RUNNERS[algorithm](simple_family, np.array(BAD_EMPIRICALS[bad]))

    @pytest.mark.parametrize("bad", sorted(BAD_EMPIRICALS))
    def test_randomized_rejects(self, simple_family, bad):
        with pytest.raises(ValueError, match="non-finite|negative"):
            randomized_two(simple_family[0], simple_family[1], np.array(BAD_EMPIRICALS[bad]))

    @pytest.mark.parametrize("bad", sorted(BAD_EMPIRICALS))
    def test_compare_rejects(self, pair_instance, bad):
        """Before the check, a NaN made compare call the pair a draw."""
        ledger = Ledger()
        with pytest.raises(ValueError, match="non-finite|negative"):
            compare(preprocess(pair_instance.family), 0, 1, np.array(BAD_EMPIRICALS[bad]), ledger)
        assert ledger.h_products == 0

    @pytest.mark.parametrize("bad", sorted(BAD_EMPIRICALS))
    def test_loss_weight_rejects(self, simple_family, bad):
        ledger = Ledger()
        with pytest.raises(ValueError, match="non-finite|negative"):
            loss_weight(preprocess(simple_family), np.array(BAD_EMPIRICALS[bad]), 0, ledger)
        assert ledger.h_products == 0

    @pytest.mark.parametrize("bad", sorted(BAD_EMPIRICALS))
    def test_relaxed_selection_check_rejects(self, pair_instance, bad):
        """Before the check, a NaN made every rival a draw and the check
        passed with an infinite margin."""
        with pytest.raises(ValueError, match="non-finite|negative"):
            relaxed_selection_check(preprocess(pair_instance.family), np.array(BAD_EMPIRICALS[bad]), 0)

    def test_h_is_checked_once_per_public_call(self, simple_family, monkeypatch):
        checked = []
        original = selectors._validated_h
        monkeypatch.setattr(selectors, "_validated_h", lambda h, k: checked.append(k) or original(h, k))
        prep = preprocess(simple_family)
        h = np.full(4, 0.25)
        loss_weight(prep, h, 1)
        relaxed_selection_check(prep, h, 1, include_draws=True)
        assert checked == [4, 4]

    def test_efficient_nan_no_longer_selects_by_draws(self, pair_instance):
        """A NaN makes every comparison a draw, so without the check the
        elimination selector would silently return index 0."""
        h = np.array([float("nan"), 0.5, 0.25, 0.25])
        ledger = Ledger()
        with pytest.raises(ValueError, match="non-finite"):
            efficient_min_loss_weight(preprocess(pair_instance.family), h, ledger)
        assert ledger.h_products == 0
