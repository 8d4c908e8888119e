"""Brute-force verifiers: error bounds, the elimination invariant, win-rule
equivalence, the quadruple inequality, Yatracos classes and VC dimension."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1select import (
    Candidate,
    CapacityError,
    EmpiricalDistribution,
    EmptyFamilyError,
    Family,
    InstanceReference,
    Ledger,
    Outcome,
    SetSystem,
    Support,
    SupportMismatchError,
    best_in_family,
    check_bound,
    check_elimination_invariant,
    check_quadruple,
    check_win_equivalence,
    compare,
    efficient_min_loss_weight,
    empirical_deviation,
    empirical_deviation_restricted,
    l1_distance,
    lower_bound_pair,
    lower_bound_tournament,
    min_distance,
    min_loss_weight,
    modified_min_distance,
    preprocess,
    random_instance,
    scheffe_tournament,
    swap_pair,
    vc_dimension,
    vc_dimension_by_traces,
    vc_gap_family,
    yatracos_class,
    yatracos_restricted,
)
from l1select import oracle
from l1select.cli import _evaluate_instance
from l1select.oracle import _brute_loss_weight, _direct_outcome, _elimination_verdicts
from conftest import make_family


def dirichlet_rows(seed: int, k: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).dirichlet(np.ones(k), size=count)


class TestBestInFamily:
    def test_pair_instance_best_is_second(self, pair_instance):
        idx, d1 = best_in_family(pair_instance.family, pair_instance.truth)
        assert idx == 1
        assert d1 == pytest.approx(0.52, abs=1e-10)

    def test_member_equal_to_truth(self):
        family = make_family([[0.3, 0.7], [0.5, 0.5]])
        idx, d1 = best_in_family(family, np.array([0.5, 0.5]))
        assert (idx, d1) == (1, 0.0)

    def test_four_candidate_instance(self, tournament_instance):
        idx, d1 = best_in_family(tournament_instance.family, tournament_instance.truth)
        assert idx == 1
        assert d1 == pytest.approx(2.0 / 9.0 + 32.0 * tournament_instance.eps, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        family = make_family([[0.4, 0.6], [0.6, 0.4]])
        idx, _ = best_in_family(family, np.array([0.5, 0.5]))
        assert idx == 0

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            best_in_family(Family(Support.default(1), []), np.array([1.0]))

    def test_never_exceeds_any_selection_error(self):
        for seed in range(25):
            inst = random_instance(seed, 4, 6, noise=0.1)
            _, d1 = best_in_family(inst.family, inst.truth)
            prep = preprocess(inst.family)
            for report in (
                scheffe_tournament(prep, inst.empirical, Ledger()),
                min_distance(inst.family, inst.empirical, Ledger()),
                min_loss_weight(prep, inst.empirical, Ledger()),
            ):
                err = l1_distance(inst.family.matrix[report.selected_index], inst.truth)
                assert d1 <= err + 1e-15


class TestCheckBound:
    def test_elimination_selector_on_pair_instance(self, pair_instance):
        prep = preprocess(pair_instance.family)
        report = efficient_min_loss_weight(prep, pair_instance.empirical, Ledger())
        bound = check_bound(
            report.selected_index, pair_instance.family, pair_instance.truth,
            pair_instance.empirical, 3.0, 2.0,
        )
        assert bound.lhs == pytest.approx(1.48, abs=1e-10)
        assert bound.rhs == pytest.approx(1.56, abs=1e-10)
        assert bound.margin == pytest.approx(0.08, abs=1e-10)
        assert bound.passed

    def test_selecting_the_best_member_gives_double_margin(self):
        family = make_family([[0.3, 0.7], [0.5, 0.5]])
        g = np.array([0.4, 0.6])
        h = EmpiricalDistribution(g)
        idx, d1 = best_in_family(family, g)
        bound = check_bound(idx, family, g, h, 3.0, 2.0)
        assert bound.lhs == pytest.approx(d1, abs=1e-15)
        assert bound.margin == pytest.approx(2 * d1, abs=1e-12)

    def test_tournament_on_four_candidate_instance(self, tournament_instance):
        prep = preprocess(tournament_instance.family)
        report = scheffe_tournament(prep, tournament_instance.empirical, Ledger())
        bound = check_bound(
            report.selected_index, tournament_instance.family, tournament_instance.truth,
            tournament_instance.empirical, 9.0, 8.0,
        )
        assert bound.lhs == pytest.approx(1.928, abs=1e-12)
        assert bound.rhs == pytest.approx(2.288, abs=1e-12)
        assert bound.passed

    @pytest.mark.parametrize("selected", [-1, 2])
    def test_selected_out_of_range_rejected(self, pair_instance, selected):
        """A negative index would otherwise grade the last candidate, so a
        selector returning -1 would pass."""
        with pytest.raises(IndexError, match=f"candidate index {selected} out of range for family of size 2"):
            check_bound(
                selected, pair_instance.family, pair_instance.truth, pair_instance.empirical, 3.0, 2.0
            )

    def test_delta_mode_validated(self, pair_instance):
        with pytest.raises(ValueError):
            check_bound(
                0, pair_instance.family, pair_instance.truth, pair_instance.empirical,
                3.0, 2.0, "bogus",
            )

    def test_restricted_mode_never_loosens(self):
        for seed in range(20):
            inst = random_instance(seed, 5, 6, noise=0.2)
            full = check_bound(0, inst.family, inst.truth, inst.empirical, 3.0, 2.0, "full")
            restricted = check_bound(
                0, inst.family, inst.truth, inst.empirical, 3.0, 2.0, "restricted"
            )
            assert restricted.rhs <= full.rhs + 1e-15


class TestEliminationInvariant:
    def test_efficient_output_passes_on_random_instances(self):
        for seed in range(50):
            inst = random_instance(seed, 5, 7, noise=0.1)
            prep = preprocess(inst.family)
            report = efficient_min_loss_weight(prep, inst.empirical, Ledger())
            assert check_elimination_invariant(prep, inst.empirical, report.selected_index, 1.0)

    def test_deliberately_wrong_selection_fails(self):
        """Found by search: picking the candidate with the largest
        loss-weight violates the output condition on this instance."""
        inst = random_instance(0, 4, 5, noise=0.1)
        hv = inst.empirical.mass
        lws = [
            _brute_loss_weight(inst.family.matrix, hv, i) for i in range(inst.family.size)
        ]
        worst = int(np.argmax(lws))
        assert worst == 4
        assert not check_elimination_invariant(inst.family, inst.empirical, worst, 1.0)

    def test_singleton_vacuous(self):
        family = make_family([[1.0]], support=Support.default(1))
        assert check_elimination_invariant(family, EmpiricalDistribution([1.0]), 0, 1.0)

    def test_relaxation_below_one_rejected(self, pair_instance):
        """A NaN factor is no factor >= 1; accepted, it would make every
        rival's check false and the invariant pass vacuously."""
        for c in (0.9, float("nan")):
            with pytest.raises(ValueError, match="relaxation factor must be >= 1"):
                check_elimination_invariant(pair_instance.family, pair_instance.empirical, 0, c)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("nan", ValueError),
            ("inf", ValueError),
            ("negative", ValueError),
            ("short", SupportMismatchError),
        ],
    )
    def test_invalid_h_rejected(self, bad, error):
        """Candidate 0 fails the invariant on this instance.  A NaN would
        make every outcome a draw, so both readings would pass vacuously,
        and a short h would fail only inside numpy: each is refused as the
        selectors refuse it, by both readings, with or without a reference."""
        inst = random_instance(0, 6, 8, 0.3)
        assert not check_elimination_invariant(inst.family, inst.empirical, 0, 1.0)
        h = inst.empirical.mass.copy()
        if bad == "short":
            h = h[:3]
        else:
            h[0] = {"nan": float("nan"), "inf": float("inf"), "negative": -0.25}[bad]
        for include_draws in (False, True):
            with pytest.raises(error):
                check_elimination_invariant(inst.family, h, 0, 1.0, include_draws=include_draws)
            reference = InstanceReference(inst.family, inst.truth, h)
            with pytest.raises(error):
                check_elimination_invariant(
                    inst.family, h, 0, 1.0, include_draws=include_draws, reference=reference
                )

    def test_larger_relaxation_is_monotone(self):
        for seed in range(20):
            inst = random_instance(seed, 4, 5, noise=0.2)
            for c in range(inst.family.size):
                if check_elimination_invariant(inst.family, inst.empirical, c, 1.0):
                    assert check_elimination_invariant(inst.family, inst.empirical, c, 3.0)


class TestOutcomeBitIdentity:
    """The oracle's outcome recomputation must agree with the selector's
    comparison on every instance, including one-ulp borderline cases."""

    def test_near_duplicate_single_atom_family(self):
        """The threshold sum (f1.T + f2.T)/2 rounds to even here, turning a
        one-ulp strict loss into a draw; selector and oracle must read the
        draw identically, and the elimination invariant must hold under both
        draw conventions."""
        below_one = float(np.nextafter(1.0, 0.0))
        family = Family(
            Support.default(1),
            [Candidate("f1", [below_one]), Candidate("f2", [1.0])],
        )
        h = EmpiricalDistribution([1.0])
        prep = preprocess(family)
        assert compare(prep, 0, 1, h, Ledger()) is Outcome.DRAW
        assert _direct_outcome(family.matrix[0], family.matrix[1], h.mass) is Outcome.DRAW

        report = efficient_min_loss_weight(prep, h, Ledger())
        assert report.selected_index == 0
        assert check_elimination_invariant(prep, h, 0, 1.0)
        assert check_elimination_invariant(prep, h, 0, 1.0, include_draws=True)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 6))
    def test_agreement_on_random_instances(self, seed, m, k):
        rows = dirichlet_rows(seed, k, m + 1)
        family = make_family(rows[:m])
        h = EmpiricalDistribution(rows[m])
        prep = preprocess(family)
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                assert (
                    compare(prep, i, j, h, Ledger())
                    is _direct_outcome(family.matrix[i], family.matrix[j], h.mass)
                ), f"outcome mismatch on pair ({i},{j})"


class TestWinEquivalence:
    def test_pair_instance_draws_on_both_routes(self, pair_instance):
        m = pair_instance.family.matrix
        assert check_win_equivalence(m[0], m[1], pair_instance.empirical.mass)

    def test_identical_candidates(self):
        v = np.array([0.25, 0.25, 0.5])
        assert check_win_equivalence(v, v, np.array([0.2, 0.3, 0.5]))

    def test_random_normalized_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            tri = rng.dirichlet(np.ones(k), size=3)
            assert check_win_equivalence(tri[0], tri[1], tri[2])

    def test_requires_normalized_inputs(self):
        with pytest.raises(ValueError):
            check_win_equivalence(
                np.array([0.5, 0.4]), np.array([0.5, 0.5]), np.array([0.5, 0.5])
            )


class TestQuadruple:
    def test_same_pair_cancels_exactly(self):
        a = np.array([0.1, 0.5, 0.4])
        b = np.array([0.3, 0.3, 0.4])
        assert check_quadruple(a, b, a, b) == 0.0

    def test_all_equal(self):
        v = np.array([0.5, 0.5])
        assert check_quadruple(v, v, v, v) == 0.0

    def test_value_on_pair_against_its_reverse(self):
        """Reversing the second pair's orientation doubles the distance."""
        a = np.array([0.1, 0.5, 0.4])
        b = np.array([0.3, 0.3, 0.4])
        assert check_quadruple(a, b, b, a) == pytest.approx(2 * l1_distance(a, b), abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_random_quadruples_are_nonnegative(self, seed, k):
        rows = dirichlet_rows(seed, k, 4)
        value = check_quadruple(rows[0], rows[1], rows[2], rows[3])
        assert value >= -1e-12


class TestYatracos:
    def test_pair_instance_class(self, pair_instance):
        system = yatracos_class(pair_instance.family)
        assert set(system.sets) == {frozenset({1, 2}), frozenset({0, 3})}

    def test_singleton_family_empty_class(self):
        system = yatracos_class(make_family([[1.0, 0.0]]))
        assert system.sets == ()

    def test_restricted_union_covers_class(self):
        for seed in range(10):
            inst = random_instance(seed, 4, 5, noise=0.0)
            full = set(yatracos_class(inst.family).sets)
            union = set()
            for i in range(inst.family.size):
                restricted = yatracos_restricted(inst.family, i)
                assert len(restricted.sets) <= inst.family.size - 1
                union |= set(restricted.sets)
            assert union == full

    def test_family_capacity_guard(self):
        rows = np.random.default_rng(0).dirichlet(np.ones(3), size=65)
        with pytest.raises(CapacityError):
            yatracos_class(make_family(rows))


class TestSetSystem:
    def test_sets_must_fit_domain(self):
        with pytest.raises(ValueError):
            SetSystem(2, (frozenset({0, 5}),))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SetSystem(3, (frozenset({0}), frozenset({0})))


class TestVcDimension:
    def test_power_set_shatters_everything(self):
        sets = tuple(
            frozenset(i for i in range(3) if mask >> i & 1) for mask in range(8)
        )
        assert vc_dimension(SetSystem(3, sets)) == 3

    def test_empty_set_only(self):
        assert vc_dimension(SetSystem(3, (frozenset(),))) == 0

    def test_no_sets(self):
        assert vc_dimension(SetSystem(3, ())) == -1

    def test_singletons_shatter_one_point(self):
        sets = tuple(frozenset({i}) for i in range(4))
        assert vc_dimension(SetSystem(4, sets)) == 1

    def test_domain_capacity_guard(self):
        with pytest.raises(CapacityError):
            vc_dimension(SetSystem(13, (frozenset({0}),)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 12))
    def test_two_implementations_agree(self, seed, domain, nsets):
        rng = np.random.default_rng(seed)
        masks = set()
        for _ in range(nsets):
            masks.add(int(rng.integers(0, 2**domain)))
        sets = tuple(
            frozenset(i for i in range(domain) if mask >> i & 1) for mask in sorted(masks)
        )
        system = SetSystem(domain, sets)
        assert vc_dimension(system) == vc_dimension_by_traces(system)

    def test_restricted_never_exceeds_full(self):
        for n in (2, 3):
            from l1select import vc_gap_family

            family = vc_gap_family(n)
            full = vc_dimension(yatracos_class(family))
            for i in range(family.size):
                assert vc_dimension(yatracos_restricted(family, i)) <= full


# Each deterministic selector with the (a, b) of the bound it guarantees.
SELECTIONS = {
    "tournament": (lambda fam, h: scheffe_tournament(preprocess(fam), h, Ledger()), 9.0, 8.0),
    "mindist": (lambda fam, h: min_distance(fam, h, Ledger()), 3.0, 2.0),
    "modified": (lambda fam, h: modified_min_distance(fam, h, Ledger()), 3.0, 2.0),
    "minloss": (lambda fam, h: min_loss_weight(preprocess(fam), h, Ledger()), 3.0, 2.0),
    "efficient": (lambda fam, h: efficient_min_loss_weight(preprocess(fam), h, Ledger()), 3.0, 2.0),
}


def bound_bits(check) -> tuple:
    """Every field of a BoundCheck, floats by their exact bits."""
    floats = (check.coefficient_best, check.coefficient_deviation, check.lhs, check.rhs, check.margin)
    return (*(float(x).hex() for x in floats), check.passed)


def rows_with_copies(seed: int, m: int, k: int, coarse: bool, copies) -> np.ndarray:
    """Random mass rows; ``coarse`` rows take three values only, so atoms tie
    and regions repeat, and ``copies`` overwrite rows with earlier ones."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 3, size=(m, k)).astype(float) if coarse else rng.dirichlet(np.ones(k), size=m)
    for src, dst in copies:
        rows[dst % m] = rows[src % m]
    return rows


class TestInstanceReference:
    """One shared reference gives every bound check the bits a from-scratch
    check computes."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(1, 12),
        st.sampled_from([0.0, 0.02, 0.1, 0.3]),
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=3),
    )
    def test_shared_reference_matches_from_scratch(self, seed, m, k, noise, copies):
        inst = random_instance(seed, k, m, noise)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        family = make_family(rows)
        g, h = inst.truth, inst.empirical
        reference = InstanceReference(family, g, h)
        for name, (select, a, b) in SELECTIONS.items():
            selected = select(family, h).selected_index
            for mode in ("full", "restricted"):
                shared = check_bound(selected, family, g, h, a, b, mode, reference=reference)
                alone = check_bound(selected, family, g, h, a, b, mode)
                assert bound_bits(shared) == bound_bits(alone), (name, mode)

    def test_values_are_the_oracle_functions(self):
        for seed in range(10):
            inst = random_instance(seed, 5, 6, noise=0.1)
            family, g, h = inst.family, inst.truth, inst.empirical
            reference = InstanceReference(family, g, h)
            best, d1 = best_in_family(family, g)
            assert (reference.best_index, reference.d1) == (best, d1)
            assert reference.deviation == empirical_deviation(g, h, family)
            assert reference.restricted_deviation == empirical_deviation_restricted(g, h, family, best)

    def test_each_quantity_is_computed_once_and_only_on_demand(self, monkeypatch):
        calls = []
        for name in ("best_in_family", "empirical_deviation", "empirical_deviation_restricted"):
            original = getattr(oracle, name)
            monkeypatch.setattr(
                oracle, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
            )
        inst = random_instance(0, 5, 6, noise=0.1)
        reference = InstanceReference(inst.family, inst.truth, inst.empirical)
        assert calls == ["best_in_family"]
        for mode in ("full", "restricted", "full", "restricted"):
            check_bound(0, inst.family, inst.truth, inst.empirical, 3.0, 2.0, mode, reference=reference)
        assert calls == ["best_in_family", "empirical_deviation", "empirical_deviation_restricted"]

    def test_standalone_checks_compute_from_scratch(self, monkeypatch):
        calls = []
        original = oracle.best_in_family
        monkeypatch.setattr(oracle, "best_in_family", lambda *args: calls.append(1) or original(*args))
        inst = random_instance(1, 4, 5, noise=0.1)
        for _ in range(3):
            check_bound(0, inst.family, inst.truth, inst.empirical, 3.0, 2.0)
        assert len(calls) == 3

    def test_reference_of_another_family_rejected(self):
        first, second = random_instance(0, 4, 5, noise=0.1), random_instance(1, 4, 5, noise=0.1)
        reference = InstanceReference(first.family, first.truth, first.empirical)
        with pytest.raises(ValueError, match="another family"):
            check_bound(0, second.family, second.truth, second.empirical, 3.0, 2.0, reference=reference)

    def test_empty_family_rejected(self):
        family = Family(Support.default(2), [])
        with pytest.raises(EmptyFamilyError):
            InstanceReference(family, [0.5, 0.5], [0.5, 0.5])


def brute_force_invariant(matrix: np.ndarray, hv: np.ndarray, selected: int, c: float, include_draws: bool) -> bool:
    """The elimination invariant with every rival's loss-weight recomputed
    from raw rows each time it is needed."""
    m = matrix.shape[0]

    def distance(i, j):
        return float(np.abs(matrix[i] - matrix[j]).sum())

    for j in range(m):
        if j == selected:
            continue
        outcome = _direct_outcome(matrix[selected], matrix[j], hv)
        if outcome is Outcome.SECOND_WINS or (include_draws and outcome is Outcome.DRAW):
            weight = max(
                (distance(j, r) for r in range(m)
                 if r != j and _direct_outcome(matrix[j], matrix[r], hv) is not Outcome.FIRST_WINS),
                default=-math.inf,
            )
            if distance(selected, j) > c * weight:
                return False
    return True


class TestEliminationInvariantAgainstBruteForce:
    """Every candidate as the selection, both relaxations, both draw
    readings: the invariant agrees with the brute force above and computes
    each rival's loss-weight at most once per call."""

    def _assert_agrees(self, family, h, monkeypatch):
        hv = np.asarray(getattr(h, "mass", h), dtype=np.float64)
        weighed = []
        original = oracle._brute_loss_weight
        monkeypatch.setattr(
            oracle, "_brute_loss_weight",
            lambda matrix, hvec, i: weighed.append(i) or original(matrix, hvec, i),
        )
        verdicts = []
        for selected in range(family.size):
            for c in (1.0, 3.0):
                for include_draws in (False, True):
                    weighed.clear()
                    got = check_elimination_invariant(family, h, selected, c, include_draws=include_draws)
                    assert got == brute_force_invariant(family.matrix, hv, selected, c, include_draws)
                    assert len(weighed) == len(set(weighed))
                    verdicts.append(got)
        return verdicts

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3),
    )
    def test_random_families(self, seed, m, k, noise, copies):
        inst = random_instance(seed, k, m, noise)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._assert_agrees(make_family(rows), inst.empirical, monkeypatch)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1.5e-2])
    @pytest.mark.parametrize(
        "build", [lower_bound_pair, lambda e: swap_pair(lower_bound_pair(e)), lower_bound_tournament],
        ids=["pair", "swap_pair", "tournament"],
    )
    def test_draw_constructions(self, build, eps, monkeypatch):
        inst = build(eps)
        verdicts = []
        for h in (inst.empirical, inst.truth):
            verdicts += self._assert_agrees(inst.family, h, monkeypatch)
        assert True in verdicts


class TestEliminationVerdicts:
    """Both readings of the elimination invariant come from one pass, which
    an instance reference keeps for verify's two checks."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 6),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=3),
    )
    def test_verdicts_equal_two_separate_calls(self, seed, m, k, noise, copies):
        inst = random_instance(seed, k, m, noise)
        rows = inst.family.matrix.copy()
        for src, dst in copies:
            rows[dst % m] = rows[src % m]
        family, h = make_family(rows), inst.empirical
        reference = InstanceReference(family, inst.truth, h)
        for selected in range(m):
            for c in (1.0, 3.0):
                separate = tuple(
                    brute_force_invariant(rows, h.mass, selected, c, include_draws)
                    for include_draws in (False, True)
                )
                assert _elimination_verdicts(family, h, selected, c) == separate
                for shared in (None, reference):
                    assert separate == tuple(
                        check_elimination_invariant(
                            family, h, selected, c, include_draws=include_draws, reference=shared
                        )
                        for include_draws in (False, True)
                    )

    def test_one_outcome_pass_per_verify_instance(self, monkeypatch):
        """verify checks the strict and the draw reading of each instance,
        but compares the selected candidate with each rival once, and weighs
        each rival once."""
        outcomes, weighed = [], []
        direct, brute = oracle._direct_outcome, oracle._brute_loss_weight
        monkeypatch.setattr(
            oracle, "_direct_outcome", lambda fi, fj, hv: outcomes.append(fi.tobytes()) or direct(fi, fj, hv)
        )
        monkeypatch.setattr(
            oracle, "_brute_loss_weight", lambda matrix, hv, j: weighed.append(j) or brute(matrix, hv, j)
        )
        rivals_weighed = 0
        for seed in range(20):
            inst = random_instance(seed, 6, 8, noise=0.3)
            prep = preprocess(make_family(inst.family.matrix))
            selected = efficient_min_loss_weight(prep, inst.empirical).selected_index
            outcomes.clear()
            weighed.clear()
            result = _evaluate_instance(inst, "full", False)
            assert result["invariant_ok"]
            assert outcomes.count(inst.family.matrix[selected].tobytes()) == 7
            assert len(weighed) == len(set(weighed))
            assert len(outcomes) == 7 * (1 + len(weighed))
            rivals_weighed += len(weighed)
        assert rivals_weighed > 0

    def test_reference_of_another_family_rejected(self):
        first, second = random_instance(0, 4, 5, noise=0.1), random_instance(1, 4, 5, noise=0.1)
        reference = InstanceReference(first.family, first.truth, first.empirical)
        with pytest.raises(ValueError, match="another family"):
            check_elimination_invariant(second.family, second.empirical, 0, reference=reference)


def nested_loop_regions(matrix: np.ndarray, pairs) -> tuple[frozenset[int], ...]:
    """A region system built pair by pair, one region at a time, in the
    order of ``pairs``: the construction the vectorised comparison replaces."""
    seen: dict[frozenset[int], None] = {}
    for i, j in pairs:
        seen.setdefault(frozenset(int(x) for x in np.flatnonzero(matrix[i] > matrix[j])), None)
    return tuple(seen)


def assert_yatracos_match_nested_loops(family: Family) -> None:
    m, matrix = family.size, family.matrix
    ordered = [(i, j) for i in range(m) for j in range(m) if i != j]
    assert yatracos_class(family).sets == nested_loop_regions(matrix, ordered)
    for i in range(m):
        own = [(i, j) for j in range(m) if j != i]
        assert yatracos_restricted(family, i).sets == nested_loop_regions(matrix, own)


class TestYatracosAgainstNestedLoops:
    """The vectorised region systems hold the same sets, in the same
    first-appearance order, as the pair-by-pair construction."""

    # Up to 64 x 63 regions per family, each rebuilt by the reference: fewer
    # examples keep the test near a second.
    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 64),
        st.integers(1, 20),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=4),
    )
    def test_random_families(self, seed, m, k, coarse, copies):
        assert_yatracos_match_nested_loops(make_family(rows_with_copies(seed, m, k, coarse, copies)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vc_gap_families(self, n):
        assert_yatracos_match_nested_loops(vc_gap_family(n))
