"""Instance generators: adversarial constructions, the VC-gap family, random
instances and empirical sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from l1select import (
    EPS_GRID,
    Ledger,
    NormalizationError,
    Outcome,
    compare,
    l1_distance,
    lower_bound_pair,
    lower_bound_tournament,
    preprocess,
    random_instance,
    sample_empirical,
    swap_pair,
    vc_gap_family,
)
from l1select import test_function as make_test_function


class TestLowerBoundPair:
    def test_table_masses(self):
        inst = lower_bound_pair(0.01)
        e = inst.eps
        assert_array_equal(inst.family.matrix[0], [0.0, 0.25 + e, 0.5, 0.25 - e])
        assert_array_equal(inst.family.matrix[1], [0.5 + e, 0.25 - e, 0.0, 0.25])
        assert_array_equal(inst.truth, [0.5, 0.5, 0.0, 0.0])
        assert_array_equal(inst.empirical.mass, inst.truth)

    def test_eps_snaps_to_dyadic_grid(self):
        inst = lower_bound_pair(0.0033)
        assert inst.eps == round(0.0033 / EPS_GRID) * EPS_GRID
        assert abs(inst.eps - 0.0033) <= EPS_GRID / 2

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.25, 0.3, 1e-15])
    def test_eps_range_enforced(self, bad):
        with pytest.raises(ValueError):
            lower_bound_pair(bad)

    def test_rows_are_distributions(self):
        for eps in (1e-2, 1e-3, 1e-4, 0.2):
            inst = lower_bound_pair(eps)
            for row in inst.family.matrix:
                assert abs(row.sum() - 1.0) <= 1e-12

    def test_defining_identities_hold_exactly(self):
        """The construction is snapped so its balance conditions are float
        identities, not approximations: the candidates' products with the
        test function are exact opposites and the truth sits exactly on the
        comparison fence."""
        for eps in (1e-2, 1e-3, 1e-4, 0.011):
            inst = lower_bound_pair(eps)
            f1, f2 = inst.family.matrix
            t = make_test_function(f1, f2).signs
            p1 = float((f1 * t).sum())
            p2 = float((f2 * t).sum())
            assert p1 == 0.5 + 2 * inst.eps
            assert p2 == -p1
            assert float((inst.empirical.mass * t).sum()) == 0.0

    def test_closed_form_errors(self):
        inst = lower_bound_pair(1e-3)
        e = inst.eps
        assert l1_distance(inst.family.matrix[0], inst.truth) == pytest.approx(
            1.5 - 2 * e, abs=1e-12
        )
        assert l1_distance(inst.family.matrix[1], inst.truth) == pytest.approx(
            0.5 + 2 * e, abs=1e-12
        )

    def test_error_ratio_increases_toward_three(self):
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            inst = lower_bound_pair(eps)
            err1 = l1_distance(inst.family.matrix[0], inst.truth)
            err2 = l1_distance(inst.family.matrix[1], inst.truth)
            ratios.append(err1 / err2)
        assert ratios[0] < ratios[1] < ratios[2] < 3.0


class TestSwapPair:
    def test_involution(self, pair_instance):
        twice = swap_pair(swap_pair(pair_instance))
        assert twice.label == pair_instance.label
        assert twice.family.names == pair_instance.family.names
        assert_array_equal(twice.family.matrix, pair_instance.family.matrix)

    def test_swap_reverses_candidates_and_keeps_data(self, pair_instance):
        swapped = swap_pair(pair_instance)
        assert swapped.family.names == ("f2", "f1")
        assert_array_equal(swapped.family.matrix[0], pair_instance.family.matrix[1])
        assert_array_equal(swapped.truth, pair_instance.truth)
        assert_array_equal(swapped.empirical.mass, pair_instance.empirical.mass)
        assert swapped.label.endswith("/swapped")

    def test_requires_two_candidates(self, tournament_instance):
        with pytest.raises(ValueError):
            swap_pair(tournament_instance)

    def test_mixture_error_closed_form(self, pair_instance):
        """Any convex combination that puts alpha >= 1/2 on the far candidate
        has error 1/2 + alpha (1 - 2 eps) >= 1 - 2 eps."""
        e = pair_instance.eps
        f1, f2 = pair_instance.family.matrix
        g = pair_instance.truth
        for alpha in np.linspace(0.5, 1.0, 6):
            mixture = alpha * f1 + (1 - alpha) * f2
            err = float(np.abs(mixture - g).sum())
            assert err == pytest.approx(0.5 + alpha * (1 - 2 * e), abs=1e-12)
            assert err >= 1 - 2 * e - 1e-12


class TestLowerBoundTournament:
    def test_family_shape(self, tournament_instance):
        assert tournament_instance.family.names == ("f1", "f2", "f3", "f3p")
        assert tournament_instance.family.support.size == 6

    def test_duplicate_is_bit_identical(self, tournament_instance):
        m = tournament_instance.family.matrix
        assert_array_equal(m[2], m[3])

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 0.0167, 0.1])
    def test_eps_range_enforced(self, bad):
        with pytest.raises(ValueError):
            lower_bound_tournament(bad)

    def test_upper_end_of_range_is_valid(self):
        inst = lower_bound_tournament(1.0 / 60.0)
        assert np.all(inst.family.matrix >= 0.0)
        assert np.all(inst.truth >= 0.0)

    def test_rows_are_distributions(self, tournament_instance):
        for row in tournament_instance.family.matrix:
            assert abs(row.sum() - 1.0) <= 1e-12
        assert abs(tournament_instance.truth.sum() - 1.0) <= 1e-12

    def test_product_closed_forms(self, tournament_instance):
        """The construction's three pair products, each in closed form."""
        e = tournament_instance.eps
        m = tournament_instance.family.matrix
        h = tournament_instance.empirical.mass
        t12 = make_test_function(m[0], m[1]).signs
        t13 = make_test_function(m[0], m[2]).signs
        t23 = make_test_function(m[1], m[2]).signs
        expected = {
            "f1.T12": (float((m[0] * t12).sum()), 7.0 / 9.0 - 14 * e),
            "h.T12": (float((h * t12).sum()), -7.0 / 9.0 + 14 * e),
            "f2.T12": (float((m[1] * t12).sum()), -1.0),
            "f1.T13": (float((m[0] * t13).sum()), 1.0 / 3.0 + 30 * e),
            "h.T13": (float((h * t13).sum()), -1.0 / 3.0 + 42 * e),
            "f3.T13": (float((m[2] * t13).sum()), -1.0 + 36 * e),
            "f2.T23": (float((m[1] * t23).sum()), -1.0 / 3.0 + 60 * e),
            "h.T23": (float((h * t23).sum()), -5.0 / 9.0 + 28 * e),
            "f3.T23": (float((m[2] * t23).sum()), -7.0 / 9.0 + 14 * e),
        }
        for name, (got, want) in expected.items():
            assert got == pytest.approx(want, abs=1e-12), name

    @given(st.floats(min_value=1e-6, max_value=1.0 / 60.0, exclude_min=False))
    def test_win_cycle_holds_across_the_gap_range(self, eps):
        """f1 beats f3 and its copy, f3 beats f2, f2 beats f1, at every valid
        gap."""
        inst = lower_bound_tournament(eps)
        prep = preprocess(inst.family)
        h = inst.empirical
        assert compare(prep, 0, 2, h, Ledger()) is Outcome.FIRST_WINS
        assert compare(prep, 0, 3, h, Ledger()) is Outcome.FIRST_WINS
        assert compare(prep, 2, 1, h, Ledger()) is Outcome.FIRST_WINS
        assert compare(prep, 1, 0, h, Ledger()) is Outcome.FIRST_WINS


class TestVcGapFamily:
    def test_family_size_and_support(self):
        family = vc_gap_family(4)
        assert family.size == 32
        assert family.support.atoms == ("0", "1", "2", "3", "4")

    @pytest.mark.parametrize("bad", [1, 0, 7, -2])
    def test_n_range_enforced(self, bad):
        with pytest.raises(ValueError):
            vc_gap_family(bad)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_candidate_is_a_distribution(self, n):
        family = vc_gap_family(n)
        assert family.size == 2 ** (n + 1)
        for row in family.matrix:
            assert np.all(row >= 0.0)
            assert abs(row.sum() - 1.0) <= 1e-12

    def test_mass_formula_spot_checks(self):
        """P(k) = (1/4n)(1 + (1/2 - a0)(1/2 - ak)) 2^(-sum_j aj 2^j) for the
        all-zeros and all-ones strings at n = 2."""
        family = vc_gap_family(2)
        by_name = {c.name: c.mass for c in family.candidates}
        base = 1.0 / 8.0
        zeros = by_name["000"]
        assert zeros[1] == pytest.approx(base * 1.25, abs=1e-15)
        assert zeros[2] == pytest.approx(base * 1.25, abs=1e-15)
        ones = by_name["111"]
        weight = 2.0 ** -(2 + 4)
        assert ones[1] == pytest.approx(base * 1.25 * weight, abs=1e-15)
        assert ones[2] == pytest.approx(base * 1.25 * weight, abs=1e-15)
        for name, mass in by_name.items():
            assert mass[0] == pytest.approx(1.0 - mass[1:].sum(), abs=1e-15), name

    def test_names_are_bit_strings(self):
        family = vc_gap_family(2)
        assert family.names[:4] == ("000", "100", "010", "110")
        assert len(set(family.names)) == 8


class TestRandomInstance:
    def test_seed_determinism(self):
        a = random_instance(42, 5, 6, noise=0.1)
        b = random_instance(42, 5, 6, noise=0.1)
        assert_array_equal(a.family.matrix, b.family.matrix)
        assert_array_equal(a.truth, b.truth)
        assert_array_equal(a.empirical.mass, b.empirical.mass)
        assert a.label == b.label

    def test_zero_noise_gives_exact_truth(self):
        inst = random_instance(3, 4, 5, noise=0.0)
        assert_array_equal(inst.empirical.mass, inst.truth)

    def test_positive_noise_perturbs(self):
        inst = random_instance(3, 4, 5, noise=0.2)
        assert float(np.abs(inst.empirical.mass - inst.truth).sum()) > 0.0

    @pytest.mark.parametrize("kwargs", [dict(k=0, m=3), dict(k=3, m=0)])
    def test_size_validation(self, kwargs):
        with pytest.raises(ValueError):
            random_instance(0, noise=0.0, **kwargs)

    @pytest.mark.parametrize("noise", [-0.1, float("nan")])
    def test_negative_noise_rejected(self, noise):
        with pytest.raises(ValueError, match=f"^noise must be >= 0, got {noise}$"):
            random_instance(0, 3, 3, noise=noise)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
    def test_all_vectors_are_distributions(self, seed, k, m):
        inst = random_instance(seed, k, m, noise=0.3)
        for row in inst.family.matrix:
            assert abs(row.sum() - 1.0) <= 1e-9
        assert abs(inst.truth.sum() - 1.0) <= 1e-9
        assert abs(inst.empirical.mass.sum() - 1.0) <= 1e-9


class TestSampleEmpirical:
    def test_entries_are_multiples_of_one_over_n(self):
        g = np.array([0.5, 0.3, 0.2])
        h = sample_empirical(g, 40, seed=1)
        scaled = h.mass * 40
        assert_array_equal(scaled, np.round(scaled))
        assert h.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert h.sample_count == 40

    def test_point_mass_is_reproduced_exactly(self):
        g = np.array([0.0, 1.0, 0.0])
        for n in (1, 7, 1000):
            assert_array_equal(sample_empirical(g, n, seed=0).mass, g)

    def test_seed_determinism(self):
        g = np.array([0.25, 0.75])
        assert_array_equal(sample_empirical(g, 100, 9).mass, sample_empirical(g, 100, 9).mass)

    def test_requires_distribution(self):
        with pytest.raises(NormalizationError):
            sample_empirical(np.array([0.5, 0.4]), 10, 0)
        with pytest.raises(ValueError):
            sample_empirical(np.array([1.0]), 0, 0)

    def test_large_sample_concentrates(self):
        """At n = 1e5 the sampled frequencies sit well within 0.02 of the
        truth in L1 for the pair construction's truth vector."""
        g = np.array([0.5, 0.5, 0.0, 0.0])
        h = sample_empirical(g, 100_000, seed=7)
        assert float(np.abs(h.mass - g).sum()) <= 0.02

    def test_median_distance_nonincreasing_in_sample_size(self):
        """Across 100 seeds per sample size, the median L1 distance to the
        truth does not increase as n grows."""
        g = np.array([0.5, 0.5, 0.0, 0.0])
        medians = []
        for n in (10, 100, 1000, 10_000):
            dists = [
                float(np.abs(sample_empirical(g, n, seed).mass - g).sum())
                for seed in range(100)
            ]
            medians.append(float(np.median(dists)))
        assert all(a >= b for a, b in zip(medians, medians[1:])), medians
