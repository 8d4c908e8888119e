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
    CapacityError,
    Candidate,
    DegeneratePairError,
    EmpiricalDistribution,
    EmptyFamilyError,
    Family,
    Instance,
    InstanceReference,
    Ledger,
    NormalizationError,
    Outcome,
    Support,
    SupportMismatchError,
    best_in_family,
    check_bound,
    check_elimination_invariant,
    check_win_equivalence,
    compare,
    efficient_min_loss_weight,
    empirical_deviation,
    empirical_deviation_restricted,
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
    scheffe_win,
    swap_pair,
)
from l1select import selectors
from l1select import test_function as make_test_function
from l1select import core
from l1select.core import _PairTable, _checked_mass
from l1select.selectors import (
    LossWeightValue,
    TraceEvent,
    _endpoint_terms,
    _identity_slack,
    _loss_weights,
    _min_distance_shortlist,
    _outcomes,
    _pair_pass,
    _rounding_slack,
    _win_counts,
)
from conftest import MASS_BOUND, largest_accepted_exponent, make_family

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

    def test_walk_holds_no_order_sized_lists(self):
        """On a preprocessed m=1000, k=8 family the walk holds block-sized
        temporaries and its m-1 trace events, nothing as long as the
        499,500 pairs of the distance order."""
        family = preprocess(random_instance(0, 8, 1000, noise=0.1).family)
        h = np.full(8, 1 / 8)
        tracemalloc.start()
        try:
            report = efficient_min_loss_weight(family, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.h_products, len(report.trace)) == (999, 999)
        assert peak < 1_000_000


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
        """The largest accepted masses on two atoms, MASS_BOUND / 2 each:
        n1 + n2 is about MASS_BOUND, far from overflow, and the weights are
        the exact ratio of the two terms.  At 1e308 each, where n1 + n2
        would overflow, f1 is refused."""
        f1 = Candidate("f1", [MASS_BOUND / 2, 0.0])
        f2 = Candidate("f2", [0.0, MASS_BOUND / 2])
        report = randomized_two(f1, f2, np.array([0.5, 0.5]), rng_seed=0)
        assert report.mixture == (0.5, 0.5)
        with pytest.raises(ValueError, match="^candidate 'f1' has mass entries too large"):
            randomized_two(np.array([1e308, 0.0]), f2, np.array([0.5, 0.5]), rng_seed=0)

    def test_term_sum_overflow_warns_nothing(self):
        """Neither the largest accepted masses nor the refusal of masses
        near the float maximum raise a numpy warning."""
        f1 = Candidate("f1", [MASS_BOUND / 2, 0.0])
        f2 = Candidate("f2", [0.0, MASS_BOUND / 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = randomized_two(f1, f2, np.array([0.5, 0.5]), rng_seed=0)
            with pytest.raises(ValueError, match="too large"):
                Candidate("f1", [1e308, 0.0])
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
        """A term that could overflow needs masses past the bound, which
        are refused, as a candidate or a raw vector, before any term is
        evaluated: near the float maximum and one ulp past the bound alike.
        Exactly at the bound both terms are finite."""
        f2 = Candidate("f2", [0.0, 0.0, 0.5, 0.5])
        h = np.full(4, 0.25)
        for f1 in ([1.7e308, 1.7e308, 0.0, 0.0], [np.nextafter(MASS_BOUND / 4, np.inf), 0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="^candidate 'f1' has mass entries too large"):
                randomized_two(Candidate("f1", f1), f2, h, rng_seed=0)
            with pytest.raises(ValueError, match="^candidate 'f1' has mass entries too large"):
                randomized_two(np.array(f1), f2, h, rng_seed=0)
        f1 = Candidate("f1", [MASS_BOUND / 4, MASS_BOUND / 4, 0.0, 0.0])
        report = randomized_two(f1, f2, h, rng_seed=0)
        assert report.mixture == (1.0 / (MASS_BOUND / 2 + 1.0), (MASS_BOUND / 2) / (MASS_BOUND / 2 + 1.0))

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
        for scores in (reference_min_distance_scores(fam.matrix, h), reference_modified_scores(fam.matrix, h)):
            if len(set(scores.tolist())) != len(scores):
                return False
        lws = [loss_weight(prep, h, c, Ledger()).value for c in range(fam.size)]
        return len(set(lws)) == len(lws)


@pytest.fixture
def rechecked_rows(monkeypatch):
    """A list that grows by the number of rows at every row-wise recheck of
    the outcome screen: a ``_row_products`` call."""
    counts = []
    row_products = selectors._row_products

    def counted(signs, v, rows):
        counts.append(rows.shape[0])
        return row_products(signs, v, rows)

    monkeypatch.setattr(selectors, "_row_products", counted)
    return counts


def reference_pair_outcomes(pairs, h) -> tuple[np.ndarray, np.ndarray]:
    """Both outcome masks over the rows of a pair table, each row's h . T
    summed on its own as :func:`compare` sums it."""
    hv = np.asarray(getattr(h, "mass", h), dtype=np.float64)
    prods = np.array([float((hv * row).sum()) for row in pairs.signs])
    return prods > pairs.thresholds, prods < pairs.thresholds


def all_pair_outcomes(family, h):
    """(table, first, second): the rows of every pair of the family's pair
    table and their screened outcome masks, from the block pass of the
    tournament: the kept table itself, or the computed blocks joined."""
    hv, slack = _pair_pass(family, h, Ledger())
    parts = []
    for block in core._table_blocks(family):
        first, second = _outcomes(block, hv, slack)
        if block is not family._lex_pairs:  # computed blocks share one sign buffer
            block = block._replace(signs=block.signs.copy())
        parts.append((block, first, second))
    if len(parts) == 1:
        return parts[0]
    tables, first, second = zip(*parts)
    return _PairTable(*map(np.concatenate, zip(*tables))), np.concatenate(first), np.concatenate(second)


def candidate_outcomes(family, h, candidate: int):
    """(rows, first, second): the candidate's m-1 rows of the family's pair
    table, as ``loss_weight`` reads them, and their screened outcome masks."""
    hv, slack = _pair_pass(family, h, Ledger(), family.size - 1)
    pairs = core._candidate_rows(family, candidate)
    return (pairs, *_outcomes(pairs, hv, slack))


def assert_screen_matches_row_wise(family, h) -> None:
    """The screened masks of the pass over every pair, and of each
    candidate's pass over its m-1 pairs, equal the row-wise reference."""
    passes = [(None, all_pair_outcomes(family, h))]
    passes += [(c, candidate_outcomes(family, h, c)) for c in range(family.size)]
    for candidate, (pairs, first, second) in passes:
        want_first, want_second = reference_pair_outcomes(pairs, h)
        assert np.array_equal(first, want_first) and np.array_equal(second, want_second), candidate


def assert_matches_compare_path(prep, h) -> int:
    """Check the vectorised pair outcomes, wins, loss-weights and selections
    against per-pair :func:`compare` calls; return the number of draws."""
    m = prep.size
    wins = [0] * m
    draws = 0
    assert_screen_matches_row_wise(prep, h)
    outcomes = all_pair_outcomes(prep, h)
    layer, first, second = outcomes
    assert layer is prep._lex_pairs
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
    assert _win_counts(m, *outcomes).tolist() == wins
    assert _loss_weights(np.full(m, -np.inf), *outcomes).tolist() == lws

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

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=4),
        st.sampled_from(["empirical", "truth", "member", "sample"]),
    )
    def test_screen_on_copied_rows_and_large_supports(self, seed, m, k, copies, data):
        """Copied rows make exact draws, which the screen leaves to the
        row-wise recheck; k ranges past numpy's 128-term pairwise summation
        block."""
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
        assert_matches_compare_path(preprocess(make_family(rows)), h)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1.5e-2])
    @pytest.mark.parametrize(
        "build", [lower_bound_pair, lambda e: swap_pair(lower_bound_pair(e)), lower_bound_tournament],
        ids=["pair", "swap_pair", "tournament"],
    )
    def test_draw_constructions(self, build, eps, rechecked_rows):
        inst = build(eps)
        prep = preprocess(inst.family)
        draws = sum(assert_matches_compare_path(prep, h) for h in (inst.empirical, inst.truth))
        assert draws > 0
        assert sum(rechecked_rows) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_scaling_by_a_power_of_two_keeps_every_outcome(self, seed):
        """Rows and h scaled by one power of two give the unscaled masks:
        at the largest scale the mass check accepts, where the slack must
        neither overflow nor decide a near row, and at 2**-1060, where the
        masses are subnormal and the slack rounds to (almost) nothing.
        Small integer masses keep the subnormal scaling, and every sum,
        exact; h on a member or on the midpoint of two rows puts pairs on
        or near their thresholds."""
        rng = np.random.default_rng(seed)
        unit = random_instance(seed, 64, 6, noise=0.1).family.matrix.copy()
        counts = rng.integers(0, 64, size=(6, 64)).astype(float)
        for rows, generic, tiny in (
            (unit, rng.dirichlet(np.ones(64)), []),
            (counts, rng.integers(0, 64, size=64).astype(float), [-1060]),
        ):
            rows[3] = rows[1]
            for h in (rows[1], (rows[0] + rows[2]) / 2, generic):
                unscaled = all_pair_outcomes(make_family(rows), h)[1:]
                for s in (largest_accepted_exponent(64, rows, h), *tiny):
                    family, hs = make_family(np.ldexp(rows, s)), np.ldexp(h, s)
                    scaled = all_pair_outcomes(family, hs)[1:]
                    assert all(map(np.array_equal, scaled, unscaled)), s
                    assert_screen_matches_row_wise(family, hs)

    def test_one_ulp_draws_on_a_large_support(self, rechecked_rows):
        """Nudge one atom of h an ulp at a time until compare calls the pair
        an exact draw, on k=64 where the reduction order matters: a matrix
        product sums in another order and misses most of these draws, so
        the screen leaves them to the row-wise recheck."""
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
        assert sum(rechecked_rows) > 0


def reference_loss_weight(prep, h, i: int):
    """Loss-weight of candidate ``i`` from per-pair :func:`compare` calls:
    the rivals in index order, a larger distance replacing the maximum only
    when strictly larger."""
    rows = prep.matrix
    best, witness = -math.inf, None
    for j in range(prep.size):
        if j != i and compare(prep, i, j, h, Ledger()) is not Outcome.FIRST_WINS:
            d = l1_distance(rows[i], rows[j])
            if d > best:
                best, witness = d, j
    return selectors.LossWeightValue(best, witness)


def reference_relaxed_check(prep, h, selected: int, c: float, include_draws: bool):
    """The relaxed output condition from per-pair :func:`compare` calls and
    :func:`reference_loss_weight`, each rival's slack folded into the margin
    by Python's ``min``."""
    rows = prep.matrix
    margin = math.inf
    for j in range(prep.size):
        if j == selected:
            continue
        outcome = compare(prep, selected, j, h, Ledger())
        if outcome is Outcome.SECOND_WINS or (include_draws and outcome is Outcome.DRAW):
            slack = c * reference_loss_weight(prep, h, j).value - l1_distance(rows[selected], rows[j])
            margin = min(margin, slack)
    return selectors.CheckResult(passed=margin >= 0.0, margin=margin)


def assert_loss_weights_match_reference(prep, h) -> None:
    """``loss_weight`` (value and witness) and ``relaxed_selection_check``
    (verdict and margin) of every candidate equal the per-pair reference,
    floats compared with ``==`` and by repr; ``loss_weight`` charges exactly
    m-1 products to the caller's ledger."""
    m = prep.size
    for i in range(m):
        ledger = Ledger()
        got, want = loss_weight(prep, h, i, ledger), reference_loss_weight(prep, h, i)
        assert got == want and repr(got) == repr(want), f"candidate {i}"
        assert ledger == Ledger(m - 1, 0)
        for c in (1, 1.5, 2):
            for include_draws in (False, True):
                got = relaxed_selection_check(prep, h, i, c, include_draws=include_draws)
                want = reference_relaxed_check(prep, h, i, c, include_draws)
                assert got == want and repr(got) == repr(want), f"candidate {i}, c={c}, draws={include_draws}"


class TestLossWeightAgainstCompare:
    """loss_weight and relaxed_selection_check, read from one vectorised
    pass, give what per-pair compare calls give, draws and ties included."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
        st.sampled_from(["empirical", "truth", "member", "sample"]),
    )
    def test_random_families_with_copied_rows(self, seed, m, k, copies, data):
        """Copied rows make draws, zero distances and tied loss-weights;
        ``member`` puts h on a candidate, which draws every pair of its
        copies.  k ranges past numpy's 128-term pairwise summation block."""
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
        assert_loss_weights_match_reference(preprocess(make_family(rows)), h)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1.5e-2])
    @pytest.mark.parametrize(
        "build", [lower_bound_pair, lambda e: swap_pair(lower_bound_pair(e)), lower_bound_tournament],
        ids=["pair", "swap_pair", "tournament"],
    )
    def test_draw_constructions(self, build, eps, rechecked_rows):
        inst = build(eps)
        prep = preprocess(inst.family)
        for h in (inst.empirical, inst.truth):
            assert_loss_weights_match_reference(prep, h)
        assert sum(rechecked_rows) > 0

    def test_one_ulp_draws_on_a_large_support(self, rechecked_rows):
        """Walk one atom of h an ulp at a time until compare calls the pair
        (0, 1) an exact draw, on k=64 where the reduction order matters."""
        draws = 0
        for seed in range(20):
            rows = random_instance(seed, 64, 3, noise=0.1).family.matrix
            prep = preprocess(make_family(rows))
            h = rows[:2].mean(axis=0)
            x = int(np.flatnonzero(rows[0] > rows[1])[0])
            for _ in range(200):
                outcome = compare(prep, 0, 1, h, Ledger())
                if outcome is Outcome.DRAW:
                    draws += 1
                    assert_loss_weights_match_reference(prep, h)
                    break
                h[x] = np.nextafter(h[x], -np.inf if outcome is Outcome.FIRST_WINS else np.inf)
        assert draws >= 10
        assert sum(rechecked_rows) > 0

    def test_singleton(self):
        prep = preprocess(singleton_family())
        assert_loss_weights_match_reference(prep, np.full(4, 0.25))
        assert loss_weight(prep, np.full(4, 0.25), 0) == selectors.LossWeightValue(-math.inf, None)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_relaxed_check_makes_one_pass_on_no_callers_ledger(self, m, monkeypatch):
        """The check's P products are charged in one pass to a ledger of
        its own, and a caller's ledger alongside it is left untouched."""
        inst = random_instance(m, 5, m, noise=0.1)
        prep = preprocess(inst.family)
        caller = Ledger()
        loss_weight(prep, inst.empirical, 0, caller)
        charges = []
        add = Ledger.add_h_products

        def spied(ledger, n=1):
            charges.append((ledger, n))
            add(ledger, n)

        monkeypatch.setattr(Ledger, "add_h_products", spied)
        relaxed_selection_check(prep, inst.empirical, 0, include_draws=True)
        assert [n for _, n in charges] == [m * (m - 1) // 2]
        assert all(ledger is not caller for ledger, _ in charges)
        assert caller == Ledger(m - 1, 0)


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


def reference_sign_blocks(rows: np.ndarray) -> list[np.ndarray]:
    """Every pair's sign(f_i - f_j) in lexicographic order, as one block."""
    idx_i, idx_j = np.triu_indices(rows.shape[0], k=1)
    return [np.sign(rows[idx_i] - rows[idx_j])]


def screen(rows: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """The min-distance screen's shortlist over every pair as one block,
    with no bound."""
    diffs = rows - hv
    slack = _rounding_slack(rows.shape[1], np.abs(diffs).sum(axis=1))
    return _min_distance_shortlist(diffs, slack, reference_sign_blocks(rows), math.inf, np.zeros(rows.shape[0]))


def assert_min_distance_selectors_match_reference(rows: np.ndarray, h) -> None:
    """Both distance selectors pick what the row-wise reference picks on a
    cold family, which keeps no pair table after them, and report the same
    on a family that keeps one and on its preprocessed form."""
    cold, warm = make_family(rows), make_family(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        want = int(np.argmin(reference_min_distance_scores(rows, h)))
        want_modified = int(np.argmin(reference_modified_scores(rows, h)))
        prep = preprocess(warm)
        for select, index in ((min_distance, want), (modified_min_distance, want_modified)):
            report = select(cold, h, Ledger())
            assert report.selected_index == index
            assert select(warm, h, Ledger()) == report == select(prep, h, Ledger())
    assert cold._lex_pairs is None


class TestMinDistanceScreen:
    """The matrix-product screen plus exact recheck selects what scoring every
    candidate exactly row by row selects, ties and one-ulp gaps included."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=4),
        st.sampled_from(["empirical", "truth", "member", "sample"]),
    )
    def test_random_families_with_duplicates(self, seed, m, k, copies, data):
        """Copied rows score exactly alike, so the lowest index must win; k
        ranges past numpy's 128-term pairwise summation block, and m past
        the 256-pair block (from m=24), so candidates drop between blocks,
        with copies in different blocks, on cold and kept families."""
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
            assert screen(rows, inst.empirical.mass).tolist() == [
                int(np.argmin(reference_min_distance_scores(rows, inst.empirical)))
            ]

    def test_only_a_shortlist_of_several_is_rescored(self, monkeypatch):
        """The seed, the candidate nearest h in L1, is screened alone once
        over every block before the others are, and is never scored exactly
        on its own.  Its own pairs drop some candidates before the first
        block, so no block's product takes all m.  A lone survivor of the
        screen is the selection, with no exact rescoring.  A copy of the
        winner ties with it exactly, so both survive and are rescored in one
        pass, and the lower index wins."""
        screened, rescored = [], []
        term_maxima, exact_scores = selectors._term_maxima, selectors._exact_scores

        def counted_screen(diffs, signs):
            screened.append(diffs.shape[0])
            return term_maxima(diffs, signs)

        def counted_rescore(diffs, blocks):
            rescored.append(diffs.shape[0])
            return exact_scores(diffs, blocks)

        monkeypatch.setattr(selectors, "_term_maxima", counted_screen)
        monkeypatch.setattr(selectors, "_exact_scores", counted_rescore)
        m = 64
        blocks = -(-m * (m - 1) // 2 // core._PAIR_BLOCK)
        for seed in range(8):
            inst = random_instance(seed, 64, m, noise=(0.0, 0.02, 0.1, 0.3)[seed % 4])
            rows, h = inst.family.matrix.copy(), inst.empirical
            for rescorings in ([], [2]):
                scores = reference_min_distance_scores(rows, h)
                assert np.count_nonzero(scores == scores.min()) == max(sum(rescorings), 1)
                screened.clear()
                rescored.clear()
                assert min_distance(make_family(rows), h, Ledger()).selected_index == int(np.argmin(scores))
                assert screened[:blocks] == [1] * blocks
                assert max(screened[blocks:], default=0) < m
                assert rescored == rescorings
                winner = int(np.argmin(scores))
                rows[(winner + 13) % m] = rows[winner]

    @staticmethod
    def shortlist_block_reads(monkeypatch) -> list[int]:
        """A list that grows by one for every block of test functions that
        :func:`_min_distance_shortlist` reads."""
        reads = []
        shortlist = selectors._min_distance_shortlist

        def counted(diffs, slack, blocks, bound, approx):
            def counting():
                for signs in blocks:
                    reads.append(signs.shape[0])
                    yield signs

            return shortlist(diffs, slack, counting(), bound, approx)

        monkeypatch.setattr(selectors, "_min_distance_shortlist", counted)
        return reads

    def test_screen_stops_at_one_survivor(self, monkeypatch):
        """On cold m=96, k=64 families, whose 4560 pairs make 18 blocks of
        raw signs, with h sampled from a truth near one member, the
        candidates' own pairs with the seed and at most the first block
        leave that member alone, and the screen reads no further block: at
        most 2 of the 18.  It is what exact scoring of every candidate
        selects.  (With a truth far from every member many candidates score
        alike, and the screen reads on until the scores part.)"""
        reads = self.shortlist_block_reads(monkeypatch)
        m = 96
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rows = rng.dirichlet(np.ones(64), size=m)
            w = rng.uniform(0.0, 0.3)
            truth = (1.0 - w) * rows[seed] + w * rng.dirichlet(np.ones(64))
            h = sample_empirical(truth, (1000, 10_000, 100_000)[seed % 3], seed)
            family = make_family(rows)
            reads.clear()
            report = min_distance(family, h, Ledger())
            assert report.selected_index == int(np.argmin(reference_min_distance_scores(rows, h)))
            assert len(reads) <= 2, seed
            assert family._lex_pairs is None

    def test_screen_reads_every_block_when_the_best_score_ties(self, monkeypatch):
        """With the best row copied, two candidates tie on the exact score,
        so neither is ever dropped: the screen reads all 18 blocks and the
        lower index of the two wins."""
        reads = self.shortlist_block_reads(monkeypatch)
        m = 96
        for seed in range(4):
            inst = random_instance(seed, 64, m, noise=0.1)
            rows = inst.family.matrix.copy()
            best = int(np.argmin(reference_min_distance_scores(rows, inst.empirical)))
            copy = (best + 37) % m
            rows[copy] = rows[best]
            scores = reference_min_distance_scores(rows, inst.empirical)
            assert np.flatnonzero(scores == scores.min()).tolist() == sorted((best, copy))
            reads.clear()
            report = min_distance(make_family(rows), inst.empirical, Ledger())
            assert report.selected_index == min(best, copy)
            assert len(reads) == -(-m * (m - 1) // 2 // core._PAIR_BLOCK) == 18

    @pytest.mark.parametrize("keep_table", [False, True])
    def test_branch_and_bound_drops_candidates_between_blocks(self, monkeypatch, keep_table):
        """On generic m=64, k=64 families the seed's bound drops candidates
        between blocks, so the seed's pass and the screen together multiply
        fewer than m . P candidate-pair products; with no dropping they
        would multiply P + m . P."""
        products = []
        term_maxima = selectors._term_maxima

        def counted(diffs, signs):
            products.append(diffs.shape[0] * signs.shape[0])
            return term_maxima(diffs, signs)

        monkeypatch.setattr(selectors, "_term_maxima", counted)
        m = 64
        for seed in range(8):
            inst = random_instance(seed, 64, m, noise=(0.0, 0.02, 0.1, 0.3)[seed % 4])
            family = make_family(inst.family.matrix)
            if keep_table:
                preprocess(family)
            products.clear()
            report = min_distance(family, inst.empirical, Ledger())
            want = reference_min_distance_scores(family.matrix, inst.empirical)
            assert report.selected_index == int(np.argmin(want))
            assert sum(products) < m * (m * (m - 1) // 2)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 30),
        st.integers(1, 200),
        st.sampled_from(["unit", "mass_bound", "subnormal"]),
    )
    def test_identity_terms_lie_within_the_slack(self, seed, m, k, scale):
        """The modified screen's terms t + d/2 - h . T and t - d/2 - h . T
        lie within the documented slack of the row-wise sums they stand for:
        on unnormalized rows with copies and zeros, on the same rows and h
        scaled to the mass bound, and scaled below the normal range."""
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(k, 0.3), size=m) * rng.uniform(0.5, 2.0, size=(m, 1))
        rows[m // 2] = rows[0]
        h = rng.dirichlet(np.full(k, 0.3))
        s = {"unit": 0, "mass_bound": largest_accepted_exponent(k, rows, h), "subnormal": -1060}[scale]
        rows, h = np.ldexp(rows, s), np.ldexp(h, s)
        table = preprocess(make_family(rows))._lex_pairs
        first, second = _endpoint_terms(table, h)
        slack = _identity_slack(k, float(rows.sum(axis=1).max()), float(h.sum()))
        for endpoint, terms in ((table.pair_i, first), (table.pair_j, second)):
            rowwise = ((rows[endpoint] - h) * table.signs).sum(axis=1)
            assert np.all(np.abs(terms - rowwise) <= slack)

    @pytest.mark.parametrize("seed", range(6))
    def test_masses_near_the_float_max_recheck_everyone(self, seed):
        """Masses near the float maximum, on which the screen's rounding
        bound could fail, are refused, as a family and as a raw h.  At the
        largest accepted power of two the bound holds, so the screen need
        not keep everyone: it shortlists what it shortlists unscaled, and
        both selectors report what they report unscaled."""
        rng = np.random.default_rng(seed)
        unit = rng.uniform(0.0, 1.0, size=(5, 8))
        unit[3] = unit[1]
        h = rng.dirichlet(np.ones(8))
        with pytest.raises(ValueError, match="^candidate 'f1' has mass entries too large"):
            make_family(unit * 1e308)
        family = make_family(unit)
        for select in (min_distance, modified_min_distance):
            with pytest.raises(ValueError, match="^empirical distribution has mass entries too large"):
                select(family, h * 1e308, Ledger())
        s = largest_accepted_exponent(8, unit, h)
        rows, hs = np.ldexp(unit, s), np.ldexp(h, s)
        shortlist = screen(rows, hs).tolist()
        assert shortlist == screen(unit, h).tolist()
        assert len(shortlist) < 5
        for select in (min_distance, modified_min_distance):
            assert select(make_family(rows), hs, Ledger()) == select(family, h, Ledger())

    @pytest.mark.parametrize("seed", range(6))
    def test_norms_past_half_the_float_max_with_finite_scores(self, seed):
        """Rows between 0.6 and 1 times 2e307 on eight atoms, whose
        ||f - h||_1 would pass half the float maximum, are refused.  At the
        largest accepted power of two every ||f - h||_1 stays at or below a
        quarter of the float maximum, no score overflows, and both
        selectors pick what the reference picks."""
        rng = np.random.default_rng(seed)
        unit = rng.uniform(0.6, 1.0, size=(5, 8))
        unit[3] = unit[1]
        h = rng.dirichlet(np.ones(8))
        with pytest.raises(ValueError, match="^candidate 'f1' has mass entries too large"):
            make_family(unit * 2e307)
        s = largest_accepted_exponent(8, unit, h)
        rows, hs = np.ldexp(unit, s), np.ldexp(h, s)
        assert np.abs(rows - hs).sum(axis=1).max() <= np.finfo(np.float64).max / 4
        assert np.all(np.isfinite(reference_min_distance_scores(rows, hs)))
        assert np.all(np.isfinite(reference_modified_scores(rows, hs)))
        assert_min_distance_selectors_match_reference(rows, hs)

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


# Every reader of the pair table but the elimination selector, as a call of
# a family and h that returns everything it answers.
STREAMING_READERS = {
    "tournament": scheffe_tournament,
    "mindist": min_distance,
    "modified": modified_min_distance,
    "minloss": min_loss_weight,
    "loss_weight": lambda fam, h: [loss_weight(fam, h, i, Ledger()) for i in range(fam.size)],
    "relaxed": lambda fam, h: [
        relaxed_selection_check(fam, h, i, 1.5, include_draws=draws)
        for i in range(fam.size)
        for draws in (False, True)
    ],
    "compare": lambda fam, h: [
        compare(fam, i, j, h, Ledger()) for i, j in itertools.permutations(range(fam.size), 2)
    ],
}


class TestSharedPairTable:
    """Only preprocess builds a pair table, once per family.  Every other
    reader but the elimination selector builds none: it reads the kept
    table when there is one and computes the rows it needs otherwise."""

    @pytest.mark.parametrize("preprocess_first", [True, False])
    def test_distance_selectors_build_nothing(self, pair_table_builds, preprocess_first):
        """On a cold family every selector but the elimination one,
        ``loss_weight``, ``relaxed_selection_check`` and ``compare`` build
        and keep nothing, and answer as on a preprocessed copy; a later
        preprocess builds the table once, and after it nothing else is
        built."""
        inst = random_instance(3, 16, 12, noise=0.1)
        family = Family(inst.family.support, inst.family.candidates)
        warm = preprocess(Family(inst.family.support, inst.family.candidates))
        pair_table_builds.clear()
        if preprocess_first:
            preprocess(family)
        answers = {name: read(family, inst.empirical) for name, read in STREAMING_READERS.items()}
        assert (family._lex_pairs is None) == (not preprocess_first)
        assert answers == {name: read(warm, inst.empirical) for name, read in STREAMING_READERS.items()}
        preprocess(family)
        assert answers == {name: read(family, inst.empirical) for name, read in STREAMING_READERS.items()}
        assert pair_table_builds == [(12, 16)]

    def test_the_table_is_built_at_most_once(self, pair_table_builds):
        """Repeated queries on a cold family build nothing; preprocess
        builds the table once, which a second preprocess, the elimination
        selector and every later query read, and the answers do not
        change."""
        inst = random_instance(4, 16, 12, noise=0.1)
        family = Family(inst.family.support, inst.family.candidates)
        readers = list(STREAMING_READERS.values()) * 2
        cold = [read(family, inst.empirical) for read in readers]
        assert pair_table_builds == [] and family._lex_pairs is None
        for _ in range(2):
            preprocess(family)
            efficient_min_loss_weight(family, inst.empirical)
        assert [read(family, inst.empirical) for read in readers] == cold
        assert pair_table_builds == [(12, 16)]
        for arr in family._lex_pairs:
            assert not arr.flags.writeable

    def test_preprocessed_arrays_are_the_family_table(self):
        """A preprocessed family reads the family's own pair table: its
        endpoints are the table's gathered through ``order``, which lists
        the table's distances nonincreasing, a second preprocess reuses the
        table, and every array is read-only."""
        family = random_instance(5, 10, 7).family
        prep = preprocess(family)
        layer = family._lex_pairs
        assert preprocess(family)._lex_pairs is layer
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
        """Whether the distance selectors stream the raw rows of a cold
        family or read the table of a preprocessed one, they pick the
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
        assert fresh._lex_pairs is None
        assert preprocessed._lex_pairs is not None and prep._lex_pairs is preprocessed._lex_pairs

    def test_empirical_deviation_never_reads_a_kept_table(self, pair_table_builds):
        """The oracle recomputes the test functions from raw vectors even
        when the family keeps a table: a kept table whose signs are all
        zero does not change the deviation, and nothing is built."""
        inst = random_instance(6, 8, 6, noise=0.1)
        preprocess(inst.family)
        layer = inst.family._lex_pairs
        terms = (layer.signs * (inst.truth - inst.empirical.mass)).sum(axis=1)
        inst.family._lex_pairs = layer._replace(signs=np.zeros_like(layer.signs))
        deviation = empirical_deviation(inst.truth, inst.empirical, inst.family)
        assert deviation == float(np.abs(terms).max()) > 0.0
        assert pair_table_builds == [(6, 8)]


class TestStreamedScansPastTheGuard:
    """Every reader of the pair table but the elimination selector streams
    its rows, so the guard, which limits preprocess alone, does not limit
    them."""

    @pytest.mark.parametrize("m", [96, 150])
    def test_guard_refuses_the_table_not_the_scans(self, monkeypatch, m):
        """With the guard below this family's 2.5 or 6.1 MB table,
        preprocess refuses it.  Every other selector, ``loss_weight``,
        ``relaxed_selection_check``, ``compare`` and a bound check still
        complete in block-sized temporaries, answer what they answer on a
        copy preprocessed before the guard was lowered, the distance
        selectors pick what the row-wise references do, and the family
        keeps no table.  At m=150, past the triu cache, each call works out
        its blocks' endpoints from their lexicographic indices."""
        inst = random_instance(m, 64, m, noise=0.1)
        rows = inst.family.matrix.copy()
        rows[5] = rows[2]
        g, h = inst.truth, inst.empirical
        reads = {
            "tournament": lambda fam: scheffe_tournament(fam, h),
            "mindist": lambda fam: min_distance(fam, h),
            "modified": lambda fam: modified_min_distance(fam, h),
            "minloss": lambda fam: min_loss_weight(fam, h),
            "loss_weight": lambda fam: loss_weight(fam, h, 5),
            "relaxed": lambda fam: relaxed_selection_check(fam, h, 2, include_draws=True),
            "compare": lambda fam: compare(fam, 5, 2, h, Ledger()),
        }
        warm = preprocess(make_family(rows))
        want = {name: read(warm) for name, read in reads.items()}
        monkeypatch.setattr(core, "_PAIR_TABLE_MAX_BYTES", 100_000)
        family = make_family(rows)
        with pytest.raises(CapacityError, match="^pair table of"):
            preprocess(family)
        idx_i, idx_j = np.triu_indices(m, k=1)
        deviation = float(np.abs((np.sign(rows[idx_i] - rows[idx_j]) * (g - h.mass)).sum(axis=1)).max())
        d1 = float(np.abs(rows - g).sum(axis=1).min())
        picks = [int(np.argmin(scores(rows, h))) for scores in (reference_min_distance_scores, reference_modified_scores)]
        tracemalloc.start()
        try:
            got = {name: read(family) for name, read in reads.items()}
            bound = check_bound(picks[0], family, g, h, 3.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert [got["mindist"].selected_index, got["modified"].selected_index] == picks
        assert (bound.lhs, bound.rhs) == (float(np.abs(rows[picks[0]] - g).sum()), 3.0 * d1 + 2.0 * deviation)
        assert peak < 1_200_000
        assert family._lex_pairs is None

    def test_tournament_and_min_loss_weight_past_the_guard(self):
        """At m=2000, k=64 the pair table needs 1.09 GB, past the guard, so
        preprocess refuses the family.  The tournament and min-loss-weight
        selectors stream its rows in block-sized memory, holding no triu
        indices (32 MB here), and charge their closed-form products."""
        family = random_instance(2000, 64, 2000, noise=0.1).family
        h = np.full(64, 1 / 64)
        with pytest.raises(CapacityError, match="^pair table of"):
            preprocess(family)
        tracemalloc.start()
        try:
            reports = [select(family, h) for select in (scheffe_tournament, min_loss_weight)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(r.h_products, r.term_evaluations) for r in reports] == [(2000 * 1999 // 2, 0)] * 2
        assert peak < 4_000_000
        assert family._lex_pairs is None


COLD_SELECTORS = {
    "tournament": scheffe_tournament,
    "mindist": min_distance,
    "modified": modified_min_distance,
    "minloss": min_loss_weight,
    "efficient": efficient_min_loss_weight,
}


def assert_cold_selects_like_preprocessed(rows: np.ndarray, h) -> None:
    """The five selectors on a cold family give the report, index, ledger
    and trace, that they give on a preprocessed copy.  The cold family
    keeps no table until the elimination selector, last, preprocesses it;
    its table is then the copy's bit for bit, and gathered through the
    copy's distance order it gives the copy's endpoints."""
    cold, warm = make_family(rows), make_family(rows)
    prep = preprocess(warm)
    for name, select in COLD_SELECTORS.items():
        assert cold._lex_pairs is None, name
        got, want = select(cold, h, Ledger()), select(prep, h, Ledger())
        assert got == want, name
    layer = cold._lex_pairs
    idx_i, idx_j = np.triu_indices(rows.shape[0], k=1)
    assert np.array_equal(layer.pair_i, idx_i) and np.array_equal(layer.pair_j, idx_j)
    for cold_arr, warm_arr in zip(layer, warm._lex_pairs):
        assert np.array_equal(cold_arr, warm_arr)
    assert np.array_equal(layer.pair_i[prep.order], prep.pair_i)
    assert np.array_equal(layer.pair_j[prep.order], prep.pair_j)


class TestColdFamilyLayers:
    """Selections on a family that was never preprocessed, which stream the
    rows of its pair table, equal those on a preprocessed one, which read
    the kept table."""

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
        (0, 1) an exact draw, on k=64: the block pass of the cold path must
        find the same draw, the selectors must pick what they pick on the
        preprocessed family, and every other reader, ``loss_weight``,
        ``relaxed_selection_check`` and ``compare`` among them, must answer
        as it does there."""
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
            _, first, second = all_pair_outcomes(make_family(rows), h)
            for lex, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
                outcome = compare(prep, i, j, h, Ledger())
                assert (first[lex], second[lex]) == (
                    outcome is Outcome.FIRST_WINS,
                    outcome is Outcome.SECOND_WINS,
                )
            assert (first[0], second[0]) == (False, False)
            assert_cold_selects_like_preprocessed(rows, h)
            cold = make_family(rows)
            for name, read in STREAMING_READERS.items():
                assert read(cold, h) == read(prep, h), name
        assert draws >= 10

    @pytest.mark.parametrize(
        "name, table_bytes_per_pair",
        [
            ("tournament", 0),
            ("mindist", 0),
            ("modified", 0),
            ("minloss", 0),
            ("loss_weight", 0),
            ("relaxed", 0),
            ("deviation", 0),
            ("efficient", 64 * 8 + 16 + 24),
        ],
    )
    def test_cold_peak_memory_is_the_layer_read(self, name, table_bytes_per_pair):
        """At m=96, k=64 a cold selection holds block-sized temporaries, no
        temporary as large as the table, such as a P x k product with h.
        Every reader but the elimination selector streams the table's rows:
        it peaks under 1 MB and leaves the family keeping no table.  The
        elimination selector preprocesses the family, which keeps the table
        it builds (2.3 MB of signs plus distances and thresholds) and the
        distance order with its endpoints."""
        family = make_family(random_instance(0, 64, 96).family.matrix)
        h = np.full(64, 1 / 64)
        select = {
            **COLD_SELECTORS,
            "loss_weight": lambda fam, h: loss_weight(fam, h, 7),
            "relaxed": lambda fam, h: relaxed_selection_check(fam, h, 7, include_draws=True),
            "deviation": lambda fam, h: empirical_deviation(h, h, fam),
        }[name]
        tracemalloc.start()
        try:
            select(family, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 95 // 2 * table_bytes_per_pair + 1_000_000
        assert (family._lex_pairs is None) == (table_bytes_per_pair == 0)

    @pytest.mark.parametrize("name", list(COLD_SELECTORS))
    def test_singleton_and_empty_families(self, name, pair_table_builds):
        """A singleton selects its member at no cost; only the elimination
        selector builds its empty table, by preprocessing it, since the
        others compute no blocks for a family without pairs.  An empty
        family is refused with one message, before ``h`` is checked, and
        builds nothing."""
        select = COLD_SELECTORS[name]
        report = select(singleton_family(), np.full(4, 0.25), Ledger())
        assert (report.selected_index, report.h_products, report.term_evaluations) == (0, 0, 0)
        for h in (np.full(4, 0.25), np.full(3, 1 / 3)):
            with pytest.raises(EmptyFamilyError, match="^cannot select from an empty family$"):
                select(Family(Support.default(4), []), h, Ledger())
        assert pair_table_builds == ([(1, 4)] if name == "efficient" else [])

    def test_cold_family_with_overflowing_values_is_refused(self):
        """Masses near the float maximum, whose distances or thresholds
        would overflow, are refused before a family of them exists, so no
        table of them is ever computed.  At the largest accepted power of
        two the outcome selectors, on a cold family, compute blocks of
        finite distances and thresholds and report what they report
        unscaled, and the table preprocess builds is finite too."""
        unit = np.random.default_rng(0).uniform(size=(5, 8))
        with pytest.raises(ValueError, match="^candidate 'f1' has mass entries too large"):
            make_family(unit * 1e308)
        h = np.full(8, 1 / 8)
        s = largest_accepted_exponent(8, unit, h)
        family = make_family(np.ldexp(unit, s))
        for select in (scheffe_tournament, min_loss_weight):
            assert select(family, np.ldexp(h, s)) == select(make_family(unit), h)
        for layer in (*core._table_blocks(family), preprocess(family)._lex_pairs):
            assert np.isfinite(layer.distances).all() and np.isfinite(layer.thresholds).all()


def reference_elimination(family: Family, h, draw_removes_first: bool = False) -> tuple[TraceEvent, ...]:
    """The elimination walk, driven by :func:`compare` on ``family``, over
    every pair lexsorted by nonincreasing distance from the raw rows, ties
    in (i, j) order; a draw removes the second candidate, or the first
    with ``draw_removes_first``."""
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
            first_loses = outcome is Outcome.SECOND_WINS or (outcome is Outcome.DRAW and draw_removes_first)
            removed = i if first_loses else j
            alive.discard(removed)
            trace.append(TraceEvent(i, j, outcome, removed))
    return tuple(trace)


class TestOneSelectorSignature:
    """compare, loss_weight, relaxed_selection_check and the elimination
    selector read the pair table by lexicographic index, or compute its
    rows from a cold family's raw rows, so a family, cold or preprocessed,
    and its preprocessed form give the same answers."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=4),
        st.sampled_from(["empirical", "truth", "member"]),
    )
    def test_family_and_preprocessed_family_agree(self, seed, m, k, copies, data):
        """Copied rows make draws and tied distances; ``member`` puts h on
        a candidate, which draws every pair of its copies; k passes numpy's
        128-term summation block.  The cold family keeps no table until the
        elimination selector preprocesses it."""
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
        assert cold._lex_pairs is None
        ledgers = [Ledger() for _ in range(3)]
        reports = [efficient_min_loss_weight(t, h, ledger) for t, ledger in zip((cold, warm, prep), ledgers)]
        assert reports[0] == reports[1] == reports[2]
        assert ledgers[0] == ledgers[1] == ledgers[2] == Ledger(max(m - 1, 0), 0)
        assert reports[0].trace == reference_elimination(cold, h)
        assert cold._lex_pairs is not None


def elimination_inputs(m: int, k: int, data: str):
    """Rows of ``m`` candidates on ``k`` atoms and an h.  From m=3 on, row 0
    is copied to row m//2 and row 1 to row m-1.  ``member`` puts h on row
    0, ``ulp`` one ulp above it at one atom: either way rows 0 and m//2
    beat every other candidate and draw with each other, on a zero test
    function, in the walk's last comparison."""
    inst = random_instance(m * 1000 + k, k, m, noise=0.1)
    rows = inst.family.matrix.copy()
    if m >= 3:
        rows[m // 2], rows[m - 1] = rows[0], rows[1]
    h = inst.empirical.mass if data == "empirical" else rows[0].copy()
    if data == "ulp":
        h[k // 2] = np.nextafter(h[k // 2], np.inf)
    return rows, h


def assert_walks_like_reference(rows: np.ndarray, h) -> tuple[TraceEvent, ...]:
    """Under both draw rules, the elimination selector on a cold family and
    on a preprocessed one reports the trace of :func:`reference_elimination`
    and its survivor, and charges exactly m-1 products and no term.
    Returns the trace under the default rule."""
    m = rows.shape[0]
    warm = preprocess(make_family(rows))
    traces = []
    for draw_removes_first in (False, True):
        want = reference_elimination(warm, h, draw_removes_first)
        removed = {event.removed for event in want}
        survivor = next(c for c in range(m) if c not in removed)
        for family in (make_family(rows), warm):
            ledger = Ledger()
            report = efficient_min_loss_weight(family, h, ledger, draw_removes_first=draw_removes_first)
            assert report.trace == want, draw_removes_first
            assert report.selected_index == survivor
            assert ledger == Ledger(m - 1, 0)
        traces.append(want)
    return traces[0]


class TestEliminationWalk:
    """The elimination selector walks the distance order a block of pairs
    at a time and rechecks in Python only the pairs whose endpoints are
    both alive at the block's start; its trace and ledger are those of the
    walk over every pair that :func:`compare` drives."""

    @pytest.mark.parametrize("data", ["empirical", "member", "ulp"])
    @pytest.mark.parametrize("k", [5, 129, 300])
    @pytest.mark.parametrize("m", [33, 64, 120])
    def test_traces_across_blocks(self, m, k, data):
        """m=33 spans 3 blocks of pairs, m=120 28; k passes numpy's
        128-term summation block.  With h on a copied row, or one ulp off
        it, the last comparison is a draw, so the draw rule decides the
        survivor."""
        rows, h = elimination_inputs(m, k, data)
        trace = assert_walks_like_reference(rows, h)
        if data != "empirical":
            assert (trace[-1].first, trace[-1].second, trace[-1].outcome) == (0, m // 2, Outcome.DRAW)

    @pytest.mark.parametrize("data", ["empirical", "member", "ulp"])
    @pytest.mark.parametrize("k", [1, 129])
    @pytest.mark.parametrize("m", [1, 2])
    def test_one_and_two_candidates(self, m, k, data):
        """A singleton makes no comparison.  Two candidates make one, on
        distinct rows and on copied ones, which draw."""
        rows, h = elimination_inputs(m, k, data)
        assert len(assert_walks_like_reference(rows, h)) == m - 1
        if m == 2:
            rows[1] = rows[0]
            (event,) = assert_walks_like_reference(rows, h)
            assert event.outcome is Outcome.DRAW


# A family of three distributions on four atoms, a uniform vector and two
# of the family's rows: the fixed, valid inputs of the entry points below.
MASS_FAMILY = make_family([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], [0.25] * 4])
UNIFORM = np.full(4, 0.25)
ROW0, ROW1 = MASS_FAMILY.matrix[0], MASS_FAMILY.matrix[1]


def reference_from(g, h) -> InstanceReference:
    """A reference on MASS_FAMILY built from copies of ``g`` and ``h``, with
    UNIFORM in place of either where the mass check refuses it.  A check
    handed the reference with ``g`` and ``h`` themselves compares them with
    its copies entry by entry, and refuses a malformed one as a mass
    vector."""

    def copy_or_uniform(v):
        try:
            return _checked_mass(v, "v", 4).copy()
        except ValueError:
            return UNIFORM.copy()

    return InstanceReference(MASS_FAMILY, copy_or_uniform(g), copy_or_uniform(h))


# Every public entry point that takes a mass vector, as a call of that one
# vector ``v`` and a ledger; ``(g)``, ``(h)``, ``(f1)`` and so on name the
# argument ``v`` fills when an entry point takes several.
MASS_ENTRY_POINTS = {
    "Candidate": lambda v, ledger: Candidate("f", v),
    "Candidate(distribution)": lambda v, ledger: Candidate("f", v, distribution=True),
    "EmpiricalDistribution": lambda v, ledger: EmpiricalDistribution(v),
    "Family": lambda v, ledger: Family(Support.default(4), [Candidate("f", v)]),
    "compare": lambda v, ledger: compare(MASS_FAMILY, 0, 1, v, ledger),
    "scheffe_win(fi)": lambda v, ledger: scheffe_win(v, ROW1, UNIFORM),
    "scheffe_win(fj)": lambda v, ledger: scheffe_win(ROW0, v, UNIFORM),
    "scheffe_win(h)": lambda v, ledger: scheffe_win(ROW0, ROW1, v),
    "empirical_deviation(g)": lambda v, ledger: empirical_deviation(v, UNIFORM, MASS_FAMILY),
    "empirical_deviation(h)": lambda v, ledger: empirical_deviation(UNIFORM, v, MASS_FAMILY),
    "empirical_deviation_restricted(g)": lambda v, ledger: empirical_deviation_restricted(
        v, UNIFORM, MASS_FAMILY, 0
    ),
    "empirical_deviation_restricted(h)": lambda v, ledger: empirical_deviation_restricted(
        UNIFORM, v, MASS_FAMILY, 0
    ),
    "tournament": lambda v, ledger: scheffe_tournament(MASS_FAMILY, v, ledger),
    "mindist": lambda v, ledger: min_distance(MASS_FAMILY, v, ledger),
    "modified": lambda v, ledger: modified_min_distance(MASS_FAMILY, v, ledger),
    "minloss": lambda v, ledger: min_loss_weight(MASS_FAMILY, v, ledger),
    "efficient": lambda v, ledger: efficient_min_loss_weight(preprocess(MASS_FAMILY), v, ledger),
    "loss_weight": lambda v, ledger: loss_weight(MASS_FAMILY, v, 0, ledger),
    "relaxed_selection_check": lambda v, ledger: relaxed_selection_check(MASS_FAMILY, v, 0),
    "randomized_two(f1)": lambda v, ledger: randomized_two(v, ROW1, UNIFORM),
    "randomized_two(f2)": lambda v, ledger: randomized_two(ROW0, v, UNIFORM),
    "randomized_two(h)": lambda v, ledger: randomized_two(ROW0, ROW1, v),
    "best_in_family": lambda v, ledger: best_in_family(MASS_FAMILY, v),
    "InstanceReference(g)": lambda v, ledger: InstanceReference(MASS_FAMILY, v, UNIFORM),
    "InstanceReference(h)": lambda v, ledger: InstanceReference(MASS_FAMILY, UNIFORM, v),
    "check_bound(g)": lambda v, ledger: check_bound(0, MASS_FAMILY, v, UNIFORM, 3.0, 2.0),
    "check_bound(h)": lambda v, ledger: check_bound(0, MASS_FAMILY, UNIFORM, v, 3.0, 2.0),
    "check_bound(g, reference)": lambda v, ledger: check_bound(
        0, MASS_FAMILY, v, UNIFORM, 3.0, 2.0, reference=reference_from(v, UNIFORM)
    ),
    "check_bound(h, reference)": lambda v, ledger: check_bound(
        0, MASS_FAMILY, UNIFORM, v, 3.0, 2.0, reference=reference_from(UNIFORM, v)
    ),
    "check_elimination_invariant": lambda v, ledger: check_elimination_invariant(MASS_FAMILY, v, 0),
    "check_elimination_invariant(reference)": lambda v, ledger: check_elimination_invariant(
        MASS_FAMILY, v, 0, reference=reference_from(UNIFORM, v)
    ),
    "check_win_equivalence(fi)": lambda v, ledger: check_win_equivalence(v, ROW1, UNIFORM),
    "check_win_equivalence(fj)": lambda v, ledger: check_win_equivalence(ROW0, v, UNIFORM),
    "check_win_equivalence(h)": lambda v, ledger: check_win_equivalence(ROW0, ROW1, v),
    "Instance": lambda v, ledger: Instance(MASS_FAMILY, v, EmpiricalDistribution(UNIFORM), "t"),
    "sample_empirical": lambda v, ledger: sample_empirical(v, 10, 0),
}
# Entry points given no support size, which cannot tell a wrong length.
SUPPORTLESS = {"Candidate", "Candidate(distribution)", "EmpiricalDistribution", "sample_empirical"}

# Bad mass vectors on four atoms, each with the class every entry point
# raises for it and a word of the message.
BAD_MASSES = {
    "nan": ([float("nan"), 0.5, 0.25, 0.25], ValueError, "non-finite"),
    "inf": ([float("inf"), 0.0, 0.0, 0.0], ValueError, "non-finite"),
    "-inf": ([-float("inf"), 1.0, 0.0, 0.0], ValueError, "non-finite"),
    "negative": ([-0.25, 0.75, 0.25, 0.25], ValueError, "negative"),
    "short": ([0.5, 0.5], SupportMismatchError, "on a support of size"),
    "huge": ([1e308, 0.0, 0.0, 0.0], ValueError, "too large"),
    "past_the_bound": ([np.nextafter(MASS_BOUND / 4, np.inf), 0.0, 0.0, 0.0], ValueError, "too large"),
}


def assert_refused(entry: str, bad: str) -> None:
    """``entry`` raises exactly the documented class for ``bad``, and
    charges no ledger."""
    values, error, word = BAD_MASSES[bad]
    if bad == "short" and entry in SUPPORTLESS:
        return
    ledger = Ledger()
    with pytest.raises(ValueError, match=word) as raised:
        MASS_ENTRY_POINTS[entry](np.array(values), ledger)
    assert type(raised.value) is error
    assert ledger == Ledger()


# The rows of MASS_ENTRY_POINTS that a test below names on its own.
NAMED_ENTRY_POINTS = {
    *ALG_RUNNERS,
    "compare",
    "loss_weight",
    "relaxed_selection_check",
    "randomized_two(f1)",
    "randomized_two(f2)",
    "randomized_two(h)",
}


class TestEmpiricalValidation:
    """Every public entry point that takes a mass vector refuses a NaN,
    infinite, negative or too large entry with ValueError and, when it knows the
    support, a wrong length with SupportMismatchError, instead of yielding
    an answer.  The rows of one table, MASS_ENTRY_POINTS, are shared out
    among the tests below."""

    @pytest.mark.parametrize("bad", sorted(BAD_MASSES))
    @pytest.mark.parametrize("algorithm", sorted(ALG_RUNNERS))
    def test_deterministic_selectors_reject(self, algorithm, bad):
        assert_refused(algorithm, bad)

    @pytest.mark.parametrize("bad", sorted(BAD_MASSES))
    def test_randomized_rejects(self, bad):
        """Before f1 and f2 were checked, a negative f1 was selected
        against, and a NaN f1 failed as a malformed test function."""
        for arg in ("f1", "f2", "h"):
            assert_refused(f"randomized_two({arg})", bad)

    @pytest.mark.parametrize("bad", sorted(BAD_MASSES))
    def test_compare_rejects(self, bad):
        """Before the check, a NaN made compare call the pair a draw."""
        assert_refused("compare", bad)

    @pytest.mark.parametrize("bad", sorted(BAD_MASSES))
    def test_loss_weight_rejects(self, bad):
        assert_refused("loss_weight", bad)

    @pytest.mark.parametrize("bad", sorted(BAD_MASSES))
    def test_relaxed_selection_check_rejects(self, bad):
        """Before the check, a NaN made every rival a draw and the check
        passed with an infinite margin."""
        assert_refused("relaxed_selection_check", bad)

    @pytest.mark.parametrize("bad", sorted(BAD_MASSES))
    @pytest.mark.parametrize("entry", sorted(set(MASS_ENTRY_POINTS) - NAMED_ENTRY_POINTS))
    def test_other_entry_points_reject(self, entry, bad):
        """Before the check, best_in_family broadcast a short g,
        scheffe_win let a NaN through, and InstanceReference accepted any h
        until a deviation was first read."""
        assert_refused(entry, bad)

    @pytest.mark.parametrize("entry", sorted(MASS_ENTRY_POINTS))
    def test_signed_zero_and_subnormal_entries_accepted(self, entry):
        for first in (-0.0, 5e-324):
            MASS_ENTRY_POINTS[entry](np.array([first, 0.5, 0.25, 0.25]), Ledger())

    def test_huge_masses_pass_the_check_without_warning(self):
        """Masses near the float maximum are refused, as a candidate and as
        an empirical distribution, for their size rather than their sum,
        with no overflow warning.  At the bound a candidate is accepted, and
        an empirical distribution is refused for its sum, which is finite."""
        huge = np.full(4, 1e308)
        with pytest.raises(ValueError, match="^candidate 'f' has mass entries too large"):
            Candidate("f", huge)
        with pytest.raises(ValueError, match="^empirical distribution has mass entries too large") as refused:
            EmpiricalDistribution(huge)
        assert type(refused.value) is ValueError
        edge = np.full(4, MASS_BOUND / 4)
        assert Candidate("f", edge).mass.tolist() == edge.tolist()
        with pytest.raises(NormalizationError) as refused:
            EmpiricalDistribution(edge)
        assert str(refused.value) == f"empirical distribution must sum to 1, got {MASS_BOUND!r}"

    def test_empty_vector(self):
        """An empty candidate is accepted until a family places it on a
        support; an empty empirical distribution does not sum to 1."""
        assert Candidate("f", []).mass.shape == (0,)
        with pytest.raises(NormalizationError, match="must sum to 1, got 0.0"):
            EmpiricalDistribution([])
        with pytest.raises(SupportMismatchError):
            compare(MASS_FAMILY, 0, 1, [], Ledger())

    def test_h_is_checked_once_per_public_call(self, simple_family, monkeypatch):
        checked = []
        original = selectors._checked_mass

        def counted(values, noun, k=None, **kwargs):
            checked.append(k)
            return original(values, noun, k, **kwargs)

        monkeypatch.setattr(selectors, "_checked_mass", counted)
        prep = preprocess(simple_family)
        h = np.full(4, 0.25)
        loss_weight(prep, h, 1)
        relaxed_selection_check(prep, h, 1, include_draws=True)
        assert checked == [4, 4]

    def test_h_is_refused_before_any_layer_is_built(self, pair_table_builds):
        """A refused h costs no pair table: the tournament and min-loss-weight
        selectors used to build the pair table before checking h."""
        queries = [
            *COLD_SELECTORS.values(),
            lambda family, h: compare(family, 0, 1, h, Ledger()),
            lambda family, h: loss_weight(family, h, 0),
            lambda family, h: relaxed_selection_check(family, h, 0),
        ]
        for query in queries:
            with pytest.raises(ValueError, match="non-finite"):
                query(make_family(MASS_FAMILY.matrix), np.array([float("nan"), 0.5, 0.25, 0.25]))
        assert pair_table_builds == []

    def test_efficient_nan_no_longer_selects_by_draws(self, pair_instance):
        """A NaN makes every comparison a draw, so without the check the
        elimination selector would silently return index 0."""
        h = np.array([float("nan"), 0.5, 0.25, 0.25])
        ledger = Ledger()
        with pytest.raises(ValueError, match="non-finite"):
            efficient_min_loss_weight(preprocess(pair_instance.family), h, ledger)
        assert ledger.h_products == 0


def bound_instances() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Families (as rows) and raw h that a power of two scales up to the
    mass check's bound.  In the random ones, on 8 and 64 atoms, the largest
    entry is raised to the float just below a power of two, so that scaled,
    k times it is the bound exactly; the draw constructions, on 4 and 6
    atoms, are kept as they are."""
    out = {}
    for seed, k, m in ((0, 8, 6), (1, 8, 9), (2, 64, 12), (3, 64, 2)):
        inst = random_instance(seed, k, m, noise=(0.0, 0.02, 0.1, 0.3)[seed])
        rows, h = inst.family.matrix.copy(), inst.empirical.mass.copy()
        top = max(rows.max(), h.max())
        edge = np.nextafter(math.ldexp(1.0, math.frexp(top)[1]), 0.0)
        rows[rows == top] = edge
        h[h == top] = edge
        out[f"random-{seed}-k{k}-m{m}"] = (rows, h)
    for eps in (1e-2, 1e-3):
        for name, inst in (
            ("pair", lower_bound_pair(eps)),
            ("swap_pair", swap_pair(lower_bound_pair(eps))),
            ("tournament", lower_bound_tournament(eps)),
        ):
            out[f"{name}-{eps}"] = (inst.family.matrix, inst.empirical.mass)
    return out


BOUND_INSTANCES = bound_instances()


class TestMassBound:
    """The mass check's bound leaves no sum room to overflow: a family and a
    raw h scaled by a power of two up to the bound select, trace and charge
    exactly as unscaled, with every distance, threshold, loss-weight and
    margin scaled exactly and no warning (the suite makes a RuntimeWarning
    an error).  One ulp past the bound is refused."""

    @pytest.mark.parametrize("name", sorted(BOUND_INSTANCES))
    def test_scaled_to_the_bound_selects_as_unscaled(self, name):
        rows, h = BOUND_INSTANCES[name]
        m, k = rows.shape
        s = largest_accepted_exponent(k, rows, h)
        big_rows, big_h = np.ldexp(rows, s), np.ldexp(h, s)
        if name.startswith("random"):
            assert k * max(big_rows.max(), big_h.max()) == MASS_BOUND
        assert k * 2 * max(big_rows.max(), big_h.max()) > MASS_BOUND
        family, big = make_family(rows), make_family(big_rows)
        for algorithm, select in COLD_SELECTORS.items():
            assert select(big, big_h, Ledger()) == select(family, h, Ledger()), algorithm
            assert select(preprocess(make_family(big_rows)), big_h) == select(preprocess(family), h), algorithm
        for i, j in itertools.permutations(range(m), 2):
            assert compare(big, i, j, big_h, Ledger()) is compare(family, i, j, h, Ledger())
        for i in range(m):
            want = loss_weight(family, h, i)
            assert loss_weight(big, big_h, i) == LossWeightValue(math.ldexp(want.value, s), want.witness)
            for c, include_draws in itertools.product((1.0, 1.5, 2.0), (False, True)):
                want = relaxed_selection_check(family, h, i, c, include_draws=include_draws)
                got = relaxed_selection_check(big, big_h, i, c, include_draws=include_draws)
                assert (got.passed, got.margin) == (want.passed, math.ldexp(want.margin, s))
        if not np.array_equal(rows[0], rows[1]):
            for seed in range(4):
                want = randomized_two(rows[0], rows[1], h, seed)
                assert randomized_two(big_rows[0], big_rows[1], big_h, seed) == want

    @pytest.mark.parametrize("name", [name for name in sorted(BOUND_INSTANCES) if name.startswith("random")])
    def test_one_ulp_past_the_bound_is_refused(self, name):
        rows, h = BOUND_INSTANCES[name]
        m, k = rows.shape
        past = np.nextafter(MASS_BOUND / k, np.inf)
        family = make_family(rows)
        bad_rows = rows.copy()
        bad_rows[m - 1, 0] = past
        with pytest.raises(ValueError, match=f"^candidate 'f{m}' has mass entries too large"):
            make_family(bad_rows)
        with pytest.raises(ValueError, match="^mass matrix has mass entries too large"):
            Family._from_matrix(family.support, family.names, bad_rows)
        bad_h = h.copy()
        bad_h[0] = past
        queries = [
            *COLD_SELECTORS.values(),
            lambda family, h: compare(family, 0, m - 1, h, Ledger()),
            lambda family, h: loss_weight(family, h, 0),
            lambda family, h: relaxed_selection_check(family, h, 0),
            lambda family, h: randomized_two(family[0], family[m - 1], h),
        ]
        for query in queries:
            with pytest.raises(ValueError, match="^empirical distribution has mass entries too large"):
                query(family, bad_h)
