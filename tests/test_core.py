"""Core types and pairwise-comparison operations.

Frozen numeric cases come from the two-candidate lower-bound construction at
eps = 0.01 (written out as literal decimals so the expected values are
independent of the generator module) and from the four-candidate instance.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from l1select import (
    CapacityError,
    Candidate,
    EmpiricalDistribution,
    EmptyFamilyError,
    Family,
    InvalidPairError,
    Ledger,
    NormalizationError,
    Outcome,
    PreprocessedFamily,
    Support,
    SupportMismatchError,
    compare,
    efficient_min_loss_weight,
    empirical_deviation,
    empirical_deviation_restricted,
    inner_product,
    l1_distance,
    min_distance,
    modified_min_distance,
    preprocess,
    random_instance,
    scheffe_set,
    scheffe_win,
)
from l1select import core, min_loss_weight, scheffe_tournament
from l1select import test_function as make_test_function
from l1select.core import _pair_layer, _pair_outcome_arrays
from conftest import make_family

# The two-candidate construction at eps = 0.01, as literal decimals.
F1 = np.array([0.0, 0.26, 0.5, 0.24])
F2 = np.array([0.51, 0.24, 0.0, 0.25])
G = np.array([0.5, 0.5, 0.0, 0.0])


def random_mass_vectors(k: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(k), size=count)


def ordered_distances(prep) -> np.ndarray:
    """The family's pair distances in the preprocessed distance order."""
    return _pair_layer(prep.family, outcomes=True).distances[prep.order]


class TestSupport:
    def test_default_labels(self):
        assert Support.default(3).atoms == ("A1", "A2", "A3")

    def test_index_of(self):
        s = Support(("x", "y"))
        assert s.index_of("y") == 1
        with pytest.raises(KeyError):
            s.index_of("z")

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            Support(("a", "a"))


class TestCandidate:
    def test_mass_is_frozen_copy(self):
        src = np.array([0.5, 0.5])
        c = Candidate("f", src)
        src[0] = 0.0
        assert c.mass[0] == 0.5
        with pytest.raises(ValueError):
            c.mass[0] = 1.0

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Candidate("f", [0.5, -0.1])

    def test_distribution_flag_checks_normalization(self):
        with pytest.raises(NormalizationError):
            Candidate("f", [0.5, 0.4], distribution=True)
        assert Candidate("f", [0.5, 0.5], distribution=True).is_distribution()

    def test_unnormalized_allowed_by_default(self):
        assert not Candidate("f", [0.5, 0.4]).is_distribution()


class TestEmpiricalDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(NormalizationError):
            EmpiricalDistribution([0.6, 0.6])

    def test_sample_count_must_be_positive(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([1.0], sample_count=0)

    def test_sample_count_stored(self):
        assert EmpiricalDistribution([1.0], sample_count=7).sample_count == 7


class TestFamilyType:
    def test_duplicate_names_rejected(self):
        c = Candidate("f", [1.0])
        with pytest.raises(ValueError):
            Family(Support.default(1), [c, c])

    def test_support_length_mismatch(self):
        with pytest.raises(SupportMismatchError):
            Family(Support.default(2), [Candidate("f", [1.0])])

    def test_matrix_is_read_only(self, simple_family):
        with pytest.raises(ValueError):
            simple_family.matrix[0, 0] = 1.0

    def test_len_getitem_names(self, simple_family):
        assert len(simple_family) == 3
        assert simple_family[1].name == "f2"
        assert simple_family.names == ("f1", "f2", "f3")


class TestTestFunction:
    """Atomwise sign of the difference of two mass vectors."""

    def test_pair_table_signs(self):
        assert_array_equal(make_test_function(F1, F2).signs, [-1.0, 1.0, 1.0, -1.0])

    def test_identical_inputs_give_zero(self):
        assert_array_equal(make_test_function(F1, F1).signs, np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(SupportMismatchError):
            make_test_function(F1, np.array([0.5, 0.5]))

    def test_entries_restricted_to_signs(self):
        with pytest.raises(ValueError):
            from l1select import TestFunction

            TestFunction([0.5, -1.0])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_antisymmetry(self, seed, k):
        """T(fi, fj) = -T(fj, fi) entrywise, exactly."""
        a, b = random_mass_vectors(k, 2, seed)
        assert_array_equal(make_test_function(a, b).signs, -make_test_function(b, a).signs)


class TestInnerProduct:
    def test_pair_value(self):
        t = make_test_function(F1, F2)
        assert inner_product(F1, t) == pytest.approx(0.52, abs=1e-12)
        assert inner_product(F2, t) == pytest.approx(-0.52, abs=1e-12)

    def test_truth_is_on_the_fence(self):
        assert inner_product(G, make_test_function(F1, F2)) == 0.0

    def test_zero_test_function(self):
        assert inner_product(F1, make_test_function(F2, F2)) == 0.0


class TestL1Distance:
    def test_pair_distance(self):
        assert l1_distance(F1, F2) == pytest.approx(1.04, abs=1e-12)

    def test_self_distance_zero(self):
        assert l1_distance(F1, F1) == 0.0

    def test_four_candidate_worst_error(self, tournament_instance):
        e = tournament_instance.eps
        err = l1_distance(tournament_instance.family.matrix[0], tournament_instance.truth)
        assert err == pytest.approx(2.0 - 72.0 * e, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    def test_recovered_by_test_function_exactly(self, seed, k):
        """(fi - fj) . T recovers the L1 distance bit-for-bit: multiplying a
        difference by its own sign vector equals taking absolute values, and
        both sides sum the same addends in the same order."""
        a, b = random_mass_vectors(k, 2, seed)
        t = make_test_function(a, b)
        assert inner_product(a - b, t) == l1_distance(a, b)


class TestCompare:
    def test_pair_draw_when_truth_observed(self, pair_instance):
        """With h equal to the truth the pair comparison lands exactly on the
        threshold."""
        prep = preprocess(pair_instance.family)
        ledger = Ledger()
        assert compare(prep, 0, 1, pair_instance.empirical, ledger) is Outcome.DRAW
        assert ledger.h_products == 1
        assert ledger.term_evaluations == 0

    def test_four_candidate_win_cycle(self, tournament_instance):
        """f1 beats f3, f3 beats f2, f2 beats f1."""
        prep = preprocess(tournament_instance.family)
        h = tournament_instance.empirical
        assert compare(prep, 0, 2, h, Ledger()) is Outcome.FIRST_WINS
        assert compare(prep, 1, 2, h, Ledger()) is Outcome.SECOND_WINS
        assert compare(prep, 0, 1, h, Ledger()) is Outcome.SECOND_WINS

    def test_duplicate_candidates_draw(self, tournament_instance):
        prep = preprocess(tournament_instance.family)
        assert compare(prep, 2, 3, tournament_instance.empirical, Ledger()) is Outcome.DRAW

    def test_self_comparison_rejected(self, simple_family, uniform_empirical):
        with pytest.raises(InvalidPairError):
            compare(preprocess(simple_family), 1, 1, uniform_empirical, Ledger())

    def test_exactly_one_product_charged_per_call(self, simple_family, uniform_empirical):
        prep = preprocess(simple_family)
        ledger = Ledger()
        for i in range(3):
            for j in range(3):
                if i != j:
                    compare(prep, i, j, uniform_empirical, ledger)
        assert ledger.h_products == 6

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 5))
    def test_antisymmetric_outcomes(self, seed, m, k):
        rows = random_mass_vectors(k, m + 1, seed)
        family = make_family(rows[:m])
        h = EmpiricalDistribution(rows[m])
        prep = preprocess(family)
        for i in range(m):
            for j in range(i + 1, m):
                fwd = compare(prep, i, j, h, Ledger())
                rev = compare(prep, j, i, h, Ledger())
                assert fwd is rev.flipped(), f"pair ({i},{j}): {fwd} vs {rev}"


class TestScheffe:
    def test_pair_region(self):
        assert_array_equal(scheffe_set(F1, F2), [1, 2])

    def test_self_region_empty(self):
        assert scheffe_set(F1, F1).size == 0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_regions_partition_support(self, seed, k):
        a, b = random_mass_vectors(k, 2, seed)
        fwd, rev = set(scheffe_set(a, b)), set(scheffe_set(b, a))
        equal = {int(x) for x in np.flatnonzero(a == b)}
        assert fwd | rev | equal == set(range(k))
        assert not (fwd & rev)

    def test_win_draw_when_truth_observed(self, pair_instance):
        m = pair_instance.family.matrix
        assert scheffe_win(m[0], m[1], pair_instance.empirical) is Outcome.DRAW

    def test_win_identical_candidates(self):
        h = np.array([0.25, 0.25, 0.25, 0.25])
        assert scheffe_win(F1, F1, h) is Outcome.DRAW

    def test_win_requires_normalized_inputs(self):
        with pytest.raises(NormalizationError):
            scheffe_win(F1, F2, np.array([0.5, 0.4, 0.0, 0.0]))
        with pytest.raises(NormalizationError):
            scheffe_win(np.array([0.5, 0.4, 0.0, 0.0]), F2, G)


class TestEmpiricalDeviation:
    def test_zero_when_h_equals_g(self, pair_instance):
        dev = empirical_deviation(
            pair_instance.truth, pair_instance.empirical, pair_instance.family
        )
        assert dev == 0.0

    def test_known_two_candidate_value(self):
        family = make_family([F1, F2])
        h = EmpiricalDistribution([0.4, 0.6, 0.0, 0.0])
        assert empirical_deviation(G, h, family) == pytest.approx(0.2, abs=1e-12)

    def test_single_member_family_has_no_tests(self):
        family = make_family([F1])
        assert empirical_deviation(G, EmpiricalDistribution(G), family) == 0.0

    def test_restricted_equals_full_for_two_members(self):
        family = make_family([F1, F2])
        h = EmpiricalDistribution([0.4, 0.6, 0.0, 0.0])
        assert empirical_deviation_restricted(G, h, family, 1) == pytest.approx(0.2, abs=1e-12)

    def test_restricted_index_validated(self, simple_family):
        with pytest.raises(IndexError):
            empirical_deviation_restricted(G, G, simple_family, 3)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(2, 5))
    def test_restricted_never_exceeds_full(self, seed, m, k):
        rows = random_mass_vectors(k, m + 2, seed)
        family = make_family(rows[:m])
        g, h = rows[m], rows[m + 1]
        full = empirical_deviation(g, h, family)
        assert full >= 0.0
        for i in range(m):
            assert empirical_deviation_restricted(g, h, family, i) <= full


class TestPreprocess:
    def test_single_pair_distance(self, pair_instance):
        family = pair_instance.family
        prep = preprocess(family)
        assert prep.pairs == ((0, 1),)
        assert ordered_distances(prep)[0] == l1_distance(family[0], family[1])
        assert ordered_distances(prep)[0] == pytest.approx(1.0 + 4.0 * pair_instance.eps, abs=1e-12)

    def test_singleton_family_has_no_pairs(self):
        prep = preprocess(make_family([[1.0]]))
        assert prep.pairs == ()

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            preprocess(Family(Support.default(1), []))

    def test_duplicate_pair_sorts_last(self, tournament_instance):
        """The duplicated candidate pair has distance zero, hence comes last
        in the nonincreasing pair order."""
        family = tournament_instance.family
        prep = preprocess(family)
        assert prep.pairs[-1] == (2, 3)
        assert ordered_distances(prep)[-1] == l1_distance(family[2], family[3]) == 0.0

    def test_charges_nothing(self, simple_family):
        # preprocess takes no ledger at all: member-only work is free by
        # construction.  The comparison below only documents that the
        # distances, read through the order, are nonincreasing.
        distances = ordered_distances(preprocess(simple_family))
        assert all(distances[p] >= distances[p + 1] for p in range(len(distances) - 1))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(2, 5))
    def test_pair_order_nonincreasing_with_lexicographic_ties(self, seed, m, k):
        family = make_family(random_mass_vectors(k, m, seed))
        prep = preprocess(family)
        distances = ordered_distances(prep)
        for p in range(len(prep.pairs) - 1):
            d0, d1 = distances[p], distances[p + 1]
            assert d0 >= d1
            if d0 == d1:
                assert prep.pairs[p] < prep.pairs[p + 1]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 20))
    def test_thresholds_match_member_products(self, seed, m, k):
        """The kept threshold of each pair, read through the distance
        order, is, bit for bit, the average of the two members' products
        with the pair's test function, computed from the raw vectors."""
        rows = random_mass_vectors(k, m, seed)
        prep = preprocess(make_family(rows))
        thresholds = _pair_layer(prep.family, outcomes=True).thresholds
        for pos, (i, j) in enumerate(prep.pairs):
            t = make_test_function(rows[i], rows[j])
            expected = 0.5 * (inner_product(rows[i], t) + inner_product(rows[j], t))
            assert thresholds[prep.order[pos]] == expected

    def test_pair_endpoints_follow_pair_order(self, tournament_instance):
        prep = preprocess(tournament_instance.family)
        assert list(zip(prep.pair_i.tolist(), prep.pair_j.tolist())) == list(prep.pairs)
        assert all(prep.pair_position[pair] == pos for pos, pair in enumerate(prep.pairs))
        for arr in (prep.order, prep.pair_i, prep.pair_j):
            assert not arr.flags.writeable

    def test_holds_the_distance_order_and_nothing_else(self, simple_family):
        """A preprocessed family adds the order and the endpoints gathered
        through it; the pair data stays in the family's layer."""
        prep = preprocess(simple_family)
        assert set(PreprocessedFamily.__slots__) == {
            "family", "order", "pair_i", "pair_j", "_pairs", "_pair_position"
        }
        public = {name for name in dir(prep) if not name.startswith("_")}
        assert public == {"family", "order", "pair_i", "pair_j", "size", "pairs", "pair_position"}

    @pytest.mark.parametrize("m, k", [(7, 5), (96, 64)])
    def test_holds_one_pair_by_atom_array(self, m, k):
        """The test functions are kept once, in the family's outcome layer:
        neither the preprocessed family nor the family holds another P x k
        array, and a preprocess of a cold family retains that array, the
        P-long arrays and nothing of its size besides."""
        pairs = m * (m - 1) // 2
        family = make_family(random_mass_vectors(k, m, 0))
        tracemalloc.start()
        try:
            prep = preprocess(family)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        held = [getattr(prep, name) for name in prep.__slots__ if name != "family"]
        held += [family.matrix, *family._lex_pairs]
        tables = [arr for arr in held if isinstance(arr, np.ndarray) and arr.shape == (pairs, k)]
        assert len(tables) == 1 and tables[0] is family._lex_pairs.signs
        assert retained < pairs * (8 * k + 56) + 100_000

    def test_large_family_peak_memory_is_quadratic(self):
        """At m=96, k=64 the pair table itself is P*k*8 = 2.3 MB (P = 4560
        pairs); building it must not allocate an m x P x k intermediate
        (224 MB)."""
        family = make_family(random_mass_vectors(64, 96, 0))
        tracemalloc.start()
        try:
            preprocess(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000

    def test_oversized_pair_table_fails_before_allocating(self):
        """m=20000 on 6 atoms needs a 12.8 GB pair table: every builder of
        any layer of it raises CapacityError instead of allocating it."""
        family = make_family(np.full((20000, 6), 1 / 6))
        h = np.full(6, 1 / 6)
        builders = [
            preprocess,
            lambda fam: efficient_min_loss_weight(fam, h),
            lambda fam: min_distance(fam, h),
            lambda fam: modified_min_distance(fam, h),
            lambda fam: scheffe_tournament(fam, h),
            lambda fam: min_loss_weight(fam, h),
            lambda fam: empirical_deviation(h, h, fam),
        ]
        tracemalloc.start()
        try:
            for build in builders:
                with pytest.raises(CapacityError, match="pair table"):
                    build(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_oversized_pair_table_is_never_cached(self, pair_table_builds):
        """A refused build keeps nothing: every later call reaches the guard
        of its layer again and raises again."""
        family = make_family(np.full((20000, 6), 1 / 6))
        h = np.full(6, 1 / 6)
        builders = [
            ("outcomes", preprocess),
            ("outcomes", lambda fam: efficient_min_loss_weight(fam, h)),
            ("signs", lambda fam: min_distance(fam, h)),
            ("signs", lambda fam: modified_min_distance(fam, h)),
            ("outcomes", lambda fam: scheffe_tournament(fam, h)),
            ("outcomes", lambda fam: min_loss_weight(fam, h)),
        ]
        for _ in range(2):
            for _, build in builders:
                with pytest.raises(CapacityError, match="pair table"):
                    build(family)
        assert pair_table_builds == [(layer, (20000, 6)) for layer, _ in builders] * 2
        assert family._lex_pairs is None

    def test_each_layer_has_its_own_budget(self):
        """Guard arithmetic alone, nothing allocated: on one atom, m=8000
        gives 31,996,000 pairs, whose sign layer (24 bytes a pair) passes the
        1 GiB guard while the outcome layer (40), which preprocess builds,
        is refused."""
        core._check_pair_table_capacity(8000, 1, "signs")
        with pytest.raises(CapacityError, match="pair table \\(outcomes layer\\)"):
            core._check_pair_table_capacity(8000, 1, "outcomes")


def reference_pair_table(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pair table built the old way: lexicographic signs, a lexsort by
    distance, a gather into that order, and thresholds from the raw vectors."""
    idx_i, idx_j = np.triu_indices(rows.shape[0], k=1)
    signs = np.sign(rows[idx_i] - rows[idx_j])
    distances = np.abs(rows[idx_i] - rows[idx_j]).sum(axis=1)
    order = np.lexsort((idx_j, idx_i, -distances))
    pair_i, pair_j, signs = idx_i[order], idx_j[order], signs[order]
    thresholds = np.array(
        [
            0.5 * (inner_product(rows[i], t) + inner_product(rows[j], t))
            for i, j, t in zip(pair_i, pair_j, signs)
        ]
    )
    return pair_i, pair_j, signs, distances[order], thresholds


def assert_table_matches_reference(rows: np.ndarray) -> None:
    """The outcome layer of ``rows``, gathered through the distance order
    of its preprocessed family, is the reference table bit for bit, with
    the preprocessed endpoints; and the order is the lexicographic index of
    each listed pair."""
    prep = preprocess(make_family(rows))
    gathered = tuple(arr[prep.order] for arr in _pair_layer(prep.family, outcomes=True))
    for built, want in zip(gathered, reference_pair_table(rows)):
        assert np.array_equal(built, want)
    assert np.array_equal(prep.pair_i, gathered[0]) and np.array_equal(prep.pair_j, gathered[1])
    m = rows.shape[0]
    lex = prep.pair_i * (2 * m - prep.pair_i - 1) // 2 + (prep.pair_j - prep.pair_i - 1)
    assert np.array_equal(prep.order, lex)


class TestPairTable:
    """The outcome layer, gathered through the distance order, equals the
    table the old lexicographic build sorted."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 200),
        st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=6),
    )
    def test_equals_the_sorted_lexicographic_table(self, seed, m, k, copies):
        """Copied rows make zero and tied distances; m up to 40 spans
        several pair blocks and k passes numpy's 128-term summation block."""
        rows = random_instance(seed, k, m, noise=0.1).family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        assert_table_matches_reference(rows)

    def test_one_ulp_distance_ties(self):
        """Rows 1 and 2 start as copies, so their distances to row 0 tie; one
        atom of row 2 then walks an ulp at a time through the tie on k=64."""
        for seed in range(10):
            rows = random_instance(seed, 64, 4, noise=0.1).family.matrix.copy()
            rows[2] = rows[1]
            x = seed % 64
            for _ in range(6):
                rows[2, x] = np.nextafter(rows[2, x], -np.inf)
            for _ in range(13):
                assert_table_matches_reference(rows)
                rows[2, x] = np.nextafter(rows[2, x], np.inf)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 9),
        st.integers(1, 20),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3),
    )
    def test_compare_through_position_agrees_with_pair_position(self, seed, m, k, copies):
        """compare finds a pair by its lexicographic index; the pair's place
        in the distance order, mapped through ``order``, reaches the signs
        and distance that test_function and l1_distance give on the raw
        rows, and the threshold compare decides by."""
        inst = random_instance(seed, k, m, noise=0.1)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        prep = preprocess(make_family(rows))
        layer = _pair_layer(prep.family, outcomes=True)
        h = inst.empirical.mass
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                lex = prep.order[prep.pair_position[(min(i, j), max(i, j))]]
                pair_signs = layer.signs[lex]
                assert np.array_equal(
                    make_test_function(rows[i], rows[j]).signs, pair_signs if i < j else -pair_signs
                )
                product = float((h * pair_signs).sum())
                threshold = layer.thresholds[lex]
                if i > j:
                    product, threshold = -product, -threshold
                want = (
                    Outcome.FIRST_WINS if product > threshold
                    else Outcome.SECOND_WINS if product < threshold
                    else Outcome.DRAW
                )
                assert compare(prep, i, j, h, Ledger()) is want
                assert l1_distance(rows[i], rows[j]) == layer.distances[lex]

    def test_pairs_and_pair_position_are_lazy_read_only_views(self):
        inst = random_instance(2, 8, 9, noise=0.1)
        prep = preprocess(inst.family)
        efficient_min_loss_weight(prep, inst.empirical)
        compare(prep, 3, 1, inst.empirical, Ledger())
        assert prep._pairs is None and prep._pair_position is None
        pairs, position = prep.pairs, prep.pair_position
        assert prep.pairs is pairs and prep.pair_position is position
        assert pairs == tuple(zip(prep.pair_i.tolist(), prep.pair_j.tolist()))
        assert dict(position) == {pair: pos for pos, pair in enumerate(pairs)}
        with pytest.raises(TypeError):
            position[(0, 1)] = 0
        with pytest.raises(AttributeError):
            prep.pairs = ()
        assert preprocess(inst.family)._pairs is None

    @pytest.mark.parametrize("i, j", [(-1, 2), (2, 9), (9, 10)])
    def test_pair_out_of_range_rejected(self, i, j):
        prep = preprocess(random_instance(0, 4, 9).family)
        with pytest.raises(IndexError):
            compare(prep, i, j, np.full(4, 0.25), Ledger())

    @pytest.mark.parametrize("seed", range(6))
    def test_overflowing_thresholds_rejected(self, seed):
        """Masses near the float maximum overflow the distances and
        thresholds (some thresholds are NaN, so every compare on them would
        be a silent draw): the build warns nothing, and preprocess refuses
        the table.  The distance selectors read only its signs, but their
        scores overflow too, so they refuse the family as well, without a
        warning."""
        rows = np.random.default_rng(seed).uniform(size=(5, 8)) * 1e308
        table = _pair_outcome_arrays(rows)
        assert not (np.isfinite(table.distances).all() and np.isfinite(table.thresholds).all())
        family = make_family(rows)
        with pytest.raises(ValueError, match="overflow"):
            preprocess(family)
        h = np.full(8, 1 / 8)
        for select in (min_distance, modified_min_distance):
            with pytest.raises(ValueError, match="overflow"):
                select(family, h)


class TestQuadrupleProperty:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_sign_alignment_inequality(self, seed, k):
        """(fi - fj) . (Tij - Tkl) >= 0 up to float noise, for any quadruple."""
        rows = random_mass_vectors(k, 4, seed)
        fi, fj, fk, fl = rows
        tij = make_test_function(fi, fj).signs
        tkl = make_test_function(fk, fl).signs
        value = float(((fi - fj) * (tij - tkl)).sum())
        assert value >= -1e-12
