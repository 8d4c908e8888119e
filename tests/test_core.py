"""Core types and pairwise-comparison operations.

Frozen numeric cases come from the two-candidate lower-bound construction at
eps = 0.01 (written out as literal decimals so the expected values are
independent of the generator module) and from the four-candidate instance.
"""

from __future__ import annotations

import itertools
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
    check_quadruple,
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
import l1select
from l1select import core
from l1select import test_function as make_test_function
from conftest import largest_accepted_exponent, make_family

# The two-candidate construction at eps = 0.01, as literal decimals.
F1 = np.array([0.0, 0.26, 0.5, 0.24])
F2 = np.array([0.51, 0.24, 0.0, 0.25])
G = np.array([0.5, 0.5, 0.0, 0.0])


def random_mass_vectors(k: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(k), size=count)


def ordered_distances(prep) -> np.ndarray:
    """The family's pair distances in the preprocessed distance order."""
    return prep._lex_pairs.distances[prep.order]


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


# The real-vector primitives, each with one argument taken from the table
# below; every other argument is a finite vector on four atoms.
REAL_VECTOR_ENTRY_POINTS = {
    "test_function(fi)": lambda v: make_test_function(v, F2),
    "test_function(fj)": lambda v: make_test_function(F1, v),
    "inner_product(v)": lambda v: inner_product(v, make_test_function(F1, F2)),
    "inner_product(t)": lambda v: inner_product(F1, v),
    "l1_distance(fi)": lambda v: l1_distance(v, F2),
    "l1_distance(fj)": lambda v: l1_distance(F1, v),
    "scheffe_set(fi)": lambda v: scheffe_set(v, F2),
    "scheffe_set(fj)": lambda v: scheffe_set(F1, v),
    **{
        f"check_quadruple({name})": lambda v, _at=at: check_quadruple(
            *(v if q == _at else row for q, row in enumerate((F1, F2, G, F2)))
        )
        for at, name in enumerate(("fi", "fj", "fk", "fl"))
    },
}

# Bad real vectors, each with the class every primitive raises for it and
# the end of the message.
BAD_REAL_VECTORS = {
    "nan": ([float("nan"), 0.0, 0.0, 0.0], ValueError, "has non-finite entries$"),
    "inf": ([float("inf"), 0.0, 0.0, 0.0], ValueError, "has non-finite entries$"),
    "-inf": ([0.0, 1.0, -float("inf"), 0.0], ValueError, "has non-finite entries$"),
    "short": ([0.5, 0.5], SupportMismatchError, "on different supports: sizes \\[2, 4\\]$"),
}


class TestRealVectorValidation:
    """The real-vector primitives take any finite vectors of one length,
    signed ones too, and refuse a NaN or infinite entry with ValueError and
    a wrong length with SupportMismatchError.  Before the check,
    l1_distance and inner_product returned nan or inf, scheffe_set dropped
    a NaN atom and test_function refused a NaN as a bad sign."""

    @pytest.mark.parametrize("bad", sorted(BAD_REAL_VECTORS))
    @pytest.mark.parametrize("entry", sorted(REAL_VECTOR_ENTRY_POINTS))
    def test_rejects(self, entry, bad):
        values, error, message = BAD_REAL_VECTORS[bad]
        with pytest.raises(ValueError, match=message) as raised:
            REAL_VECTOR_ENTRY_POINTS[entry](np.array(values))
        assert type(raised.value) is error

    @pytest.mark.parametrize("entry", sorted(REAL_VECTOR_ENTRY_POINTS))
    def test_signed_vectors_accepted(self, entry):
        REAL_VECTOR_ENTRY_POINTS[entry](np.array([-1.0, 2.0, 0.0, -0.5]))

    def test_a_difference_recovers_the_distance(self):
        """The documented signed use: (fi - fj) . T is the L1 distance."""
        assert inner_product(F1 - F2, make_test_function(F1, F2)) == l1_distance(F1, F2)


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

    @pytest.mark.parametrize("k", [1, 127, 128, 129, 300])
    def test_outcome_rule_matches_compare_bit_for_bit(self, k):
        """``_outcome_at`` on the kept table gives, on every pair, what
        ``compare`` gives in both orders and what the row-wise
        ``ndarray.sum`` of h * T against the threshold gives, at k around
        numpy's 128-term pairwise summation block.  h is walked an ulp at a
        time onto the threshold of the pair (0, 1), which makes exact
        draws on a nonzero test function; the copied rows 2 and 3 draw on
        a zero one at every step."""
        draws = 0
        for seed in range(12):
            rows = np.random.default_rng(seed).uniform(size=(4, k))
            rows[:2] = rows[:2][np.argsort(-rows[:2, 0])]  # T of (0, 1) is +1 at atom 0
            rows[3] = rows[2]
            prep = preprocess(make_family(rows))
            table = prep._lex_pairs
            h = rows[:2].mean(axis=0)
            for _ in range(300):
                for lex, (i, j) in enumerate(itertools.combinations(range(4), 2)):
                    got = core._outcome_at(table, lex, h, Ledger())
                    h_dot_t = float((h * table.signs[lex]).sum())
                    want = (
                        Outcome.FIRST_WINS if h_dot_t > table.thresholds[lex]
                        else Outcome.SECOND_WINS if h_dot_t < table.thresholds[lex]
                        else Outcome.DRAW
                    )
                    assert got is want is compare(prep, i, j, h, Ledger()), (seed, i, j)
                    assert compare(prep, j, i, h, Ledger()) is want.flipped()
                    if (i, j) == (2, 3):
                        assert got is Outcome.DRAW
                first = core._outcome_at(table, 0, h, Ledger())
                if first is Outcome.DRAW:
                    draws += 1
                    break
                h[0] = np.nextafter(h[0], -np.inf if first is Outcome.FIRST_WINS else np.inf)
        assert draws >= 5


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
        thresholds = prep._lex_pairs.thresholds
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
        """Preprocessing makes no second object: it fills in the order and
        the endpoints gathered through it on the family, which keeps its
        rows and its pair table, and the family's public names stay as
        they were."""
        public = {name for name in dir(simple_family) if not name.startswith("_")}
        assert simple_family.order is simple_family.pair_i is simple_family.pair_j is None
        matrix = simple_family.matrix
        prep = preprocess(simple_family)
        assert prep is simple_family
        assert prep.matrix is matrix and prep._lex_pairs is not None
        assert all(isinstance(arr, np.ndarray) for arr in (prep.order, prep.pair_i, prep.pair_j))
        assert {name for name in dir(prep) if not name.startswith("_")} == public
        assert {"order", "pair_i", "pair_j", "pairs", "pair_position"} <= public

    def test_preprocessed_family_is_the_family_type(self):
        assert PreprocessedFamily is Family
        assert l1select.PreprocessedFamily is l1select.Family

    def test_a_second_preprocess_or_selection_sorts_nothing(self, monkeypatch):
        """The order is built once per family: the elimination selector
        preprocesses a plain family, and preprocessing again or selecting
        again reads the kept arrays."""
        sorts = []
        build = core._distance_order
        monkeypatch.setattr(core, "_distance_order", lambda layer: sorts.append(layer) or build(layer))
        inst = random_instance(5, 6, 7, noise=0.1)
        family = Family(inst.family.support, inst.family.candidates)
        first = efficient_min_loss_weight(family, inst.empirical)
        order = family.order
        assert len(sorts) == 1 and order is not None
        assert preprocess(family) is family and family.order is order
        assert efficient_min_loss_weight(family, inst.empirical) == first
        assert len(sorts) == 1 and family.order is order

    def test_a_refused_preprocess_fills_in_nothing(self, monkeypatch):
        family = make_family(random_mass_vectors(4, 6, 0))
        monkeypatch.setattr(core, "_PAIR_TABLE_MAX_BYTES", 0)
        with pytest.raises(CapacityError):
            preprocess(family)
        assert family.order is family.pair_i is family.pair_j is family._lex_pairs is None

    @pytest.mark.parametrize("m, k", [(7, 5), (96, 64)])
    def test_holds_one_pair_by_atom_array(self, m, k):
        """The test functions are kept once, in the family's pair table:
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
        """m=20000 on 6 atoms needs a 12.8 GB pair table: preprocess, the
        one builder of it, and the elimination selector, which preprocesses
        its family, raise CapacityError instead of allocating it.  Every
        other selector streams the table's rows and is not refused; at
        this size they would scan 2*10**8 pairs."""
        family = make_family(np.full((20000, 6), 1 / 6))
        h = np.full(6, 1 / 6)
        builders = [preprocess, lambda fam: efficient_min_loss_weight(fam, h)]
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
        again and raises again."""
        family = make_family(np.full((20000, 6), 1 / 6))
        h = np.full(6, 1 / 6)
        builders = [preprocess, lambda fam: efficient_min_loss_weight(fam, h)]
        for _ in range(2):
            for build in builders:
                with pytest.raises(CapacityError, match="pair table"):
                    build(family)
        assert pair_table_builds == [(20000, 6)] * len(builders) * 2
        assert family._lex_pairs is None

    def test_one_budget_counts_the_whole_table(self):
        """Guard arithmetic alone, nothing allocated: the table holds 8k + 32
        bytes a pair, so on 64 atoms m=1987 (1,961,191 pairs, 1,073,361,504
        bytes) passes the 1 GiB guard and m=1988 is refused; on one atom
        the ceiling is m=7327."""
        for k, m in ((64, 1987), (1, 7327)):
            core._check_pair_table_capacity(m, k)
            with pytest.raises(CapacityError, match="^pair table of"):
                core._check_pair_table_capacity(m + 1, k)


class TestSignBlocks:
    """The test functions read block by block are every pair's
    sign(f_i - f_j), in lexicographic order, whether sliced from the table
    a family keeps or computed from its raw rows."""

    @pytest.mark.parametrize("m", [1, 2, 5, 100, 101, 150])
    def test_blocks_list_every_pair_in_lexicographic_order(self, m):
        """m=101 and m=150 slice the blocks from uncached triu indices."""
        rows = random_mass_vectors(6, m, m)
        if m > 3:
            rows[3] = rows[1]
        idx_i, idx_j = np.triu_indices(m, k=1)
        want = np.sign(rows[idx_i] - rows[idx_j])
        pairs = idx_i.shape[0]
        family = make_family(rows)
        raw = list(core._sign_blocks(family))
        assert family._lex_pairs is None
        preprocess(family)
        kept = list(core._sign_blocks(family))
        for blocks in (raw, kept):
            sizes = [signs.shape[0] for signs in blocks]
            assert sizes == [min(core._PAIR_BLOCK, pairs - s) for s in range(0, pairs, core._PAIR_BLOCK)]
            assert_array_equal(np.concatenate(blocks) if blocks else np.empty((0, 6)), want)
        assert all(np.shares_memory(signs, family._lex_pairs.signs) for signs in kept)

    @pytest.mark.parametrize("m", [1, 2, 5, 24, 101, 150])
    def test_table_blocks_of_raw_rows_are_the_kept_table(self, m):
        """A family that keeps no table yields its table rows block by
        block, computed by the code that builds the table, so they are
        bit-identical to the table it builds later; a family that keeps one
        yields it whole.  Cold blocks share one sign buffer, so each is
        copied before the next is made."""
        rows = random_mass_vectors(6, m, m)
        if m > 3:
            rows[3] = rows[1]
        family = make_family(rows)
        cold = [tuple(arr.copy() for arr in block) for block in core._table_blocks(family)]
        assert family._lex_pairs is None
        pairs = m * (m - 1) // 2
        assert [block[2].shape[0] for block in cold] == [
            min(core._PAIR_BLOCK, pairs - s) for s in range(0, pairs, core._PAIR_BLOCK)
        ]
        table = preprocess(family)._lex_pairs
        for part, whole in zip(zip(*cold), table):
            assert_array_equal(np.concatenate(part), whole)
        kept = list(core._table_blocks(family))
        assert len(kept) == 1 and kept[0] is table

    @pytest.mark.parametrize("m", [1, 2, 5, 24, 101, 150])
    def test_candidate_rows_are_the_kept_rows(self, m):
        """A candidate's m-1 rows, computed from the raw rows whether or not
        the family keeps a table, are bit for bit the rows of the kept table
        that pair it with a rival, in table order; nothing is kept by
        computing them."""
        rows = random_mass_vectors(130, m, m)
        if m > 3:
            rows[3] = rows[1]
        cold, warm = make_family(rows), preprocess(make_family(rows))
        table = warm._lex_pairs
        for c in range(m):
            mine = np.flatnonzero((table.pair_i == c) | (table.pair_j == c))
            for target in (cold, warm):
                for got, want in zip(core._candidate_rows(target, c), table):
                    assert_array_equal(got, want[mine])
        assert cold._lex_pairs is None


    @pytest.mark.parametrize("m", [0, 1, 2, 5, 100, 101, 150, 300])
    def test_endpoint_blocks_are_the_triu_indices(self, m):
        """The endpoints of each block, sliced from the cached triu indices
        or worked out from the block's lexicographic indices past the cache,
        joined are the triu indices, in blocks of ``_PAIR_BLOCK`` pairs."""
        blocks = list(core._endpoint_blocks(m))
        pairs = m * (m - 1) // 2
        assert [pair_i.shape[0] for pair_i, _ in blocks] == [
            min(core._PAIR_BLOCK, pairs - s) for s in range(0, pairs, core._PAIR_BLOCK)
        ]
        want = np.triu_indices(m, k=1)
        for got, idx in zip(zip(*blocks), want):
            assert_array_equal(np.concatenate(got) if got else np.empty(0, dtype=np.intp), idx)

    def test_streamed_blocks_hold_no_triu_indices(self):
        """At m=20000 the triu indices alone would take 3.2 GB, three times
        the guard.  The first blocks of the table rows and of the signs,
        computed from the raw rows, come out in a traced peak under 1 MB,
        with the endpoints of the lexicographic order."""
        family = make_family(np.full((20000, 6), 1 / 6))
        tracemalloc.start()
        try:
            rows = [block.pair_j.copy() for block in itertools.islice(core._table_blocks(family), 3)]
            signs = [block.shape for block in itertools.islice(core._raw_sign_blocks(family.matrix), 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_array_equal(np.concatenate(rows), np.arange(1, 3 * core._PAIR_BLOCK + 1))
        assert signs == [(core._PAIR_BLOCK, 6)] * 3
        assert peak < 1_000_000
        assert family._lex_pairs is None


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
    """The pair table of ``rows``, gathered through the distance order
    of its preprocessed family, is the reference table bit for bit, with
    the preprocessed endpoints; and the order is the lexicographic index of
    each listed pair."""
    prep = preprocess(make_family(rows))
    gathered = tuple(arr[prep.order] for arr in prep._lex_pairs)
    for built, want in zip(gathered, reference_pair_table(rows)):
        assert np.array_equal(built, want)
    assert np.array_equal(prep.pair_i, gathered[0]) and np.array_equal(prep.pair_j, gathered[1])
    m = rows.shape[0]
    lex = prep.pair_i * (2 * m - prep.pair_i - 1) // 2 + (prep.pair_j - prep.pair_i - 1)
    assert np.array_equal(prep.order, lex)


class TestPairTable:
    """The pair table, gathered through the distance order, equals the
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
        layer = prep._lex_pairs
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
        """Neither view is built by preprocessing, a selection or a compare;
        each is built on first use and kept, and reading either on a family
        never preprocessed preprocesses it first."""
        inst = random_instance(2, 8, 9, noise=0.1)
        prep = preprocess(Family(inst.family.support, inst.family.candidates))
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
        for read in (lambda f: f.pairs, lambda f: f.pair_position):
            cold = Family(inst.family.support, inst.family.candidates)
            assert cold.order is None
            assert read(cold) == read(prep)
            assert np.array_equal(cold.order, prep.order)

    @pytest.mark.parametrize("i, j", [(-1, 2), (2, 9), (9, 10)])
    def test_pair_out_of_range_rejected(self, i, j):
        prep = preprocess(random_instance(0, 4, 9).family)
        with pytest.raises(IndexError):
            compare(prep, i, j, np.full(4, 0.25), Ledger())

    @pytest.mark.parametrize("seed", range(6))
    def test_overflowing_thresholds_rejected(self, seed):
        """Masses near the float maximum, whose distances and thresholds
        would overflow, are refused when the family is built, candidate by
        candidate or as one matrix, so no pair table of them exists.  The
        same rows scaled to the largest accepted power of two give finite
        distances and thresholds, exactly 2**s times the unscaled ones, and
        no warning."""
        unit = np.random.default_rng(seed).uniform(size=(5, 8))
        rows = unit * 1e308
        with pytest.raises(ValueError, match="^candidate 'f1' has mass entries too large"):
            make_family(rows)
        with pytest.raises(ValueError, match="^mass matrix has mass entries too large"):
            Family._from_matrix(Support.default(8), [f"f{i}" for i in range(5)], rows)
        s = largest_accepted_exponent(8, unit)
        scaled = preprocess(make_family(np.ldexp(unit, s)))._lex_pairs
        table = preprocess(make_family(unit))._lex_pairs
        assert_array_equal(scaled.signs, table.signs)
        assert_array_equal(scaled.distances, np.ldexp(table.distances, s))
        assert_array_equal(scaled.thresholds, np.ldexp(table.thresholds, s))
        assert np.isfinite(scaled.distances).all() and np.isfinite(scaled.thresholds).all()


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
