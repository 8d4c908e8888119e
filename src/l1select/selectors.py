"""Selection procedures over a family of candidate densities.

Six ways to pick a candidate close in L1 to the unknown truth using only the
empirical mass vector:

* ``scheffe_tournament``     -- most pairwise wins; m(m-1)/2 data products.
* ``min_distance``           -- smallest worst-case term over all ordered
                                pairs' test functions; m^2(m-1) term scans.
* ``modified_min_distance``  -- like min_distance but each candidate is scored
                                only on its own pairs; m(m-1) term scans.
* ``min_loss_weight``        -- smallest loss-weight; m(m-1)/2 data products.
* ``efficient_min_loss_weight`` -- same guarantee from exactly m-1 data
                                products via distance-ordered elimination.
* ``randomized_two``         -- randomized choice between two candidates with
                                expected error at most twice the best.

Every data-dependent inner product is charged to a :class:`~l1select.core.Ledger`;
the counts above are exact, not asymptotic.  Deterministic procedures break
ties by lowest candidate index.

Every deterministic selector, ``loss_weight`` and ``relaxed_selection_check``
take a :class:`~l1select.core.Family` or a
:class:`~l1select.core.PreprocessedFamily` and read the pair table's layer
they need (see :mod:`l1select.core`): the distance selectors its signs, the
others its signs, distances and thresholds.  ``efficient_min_loss_weight``
also reads the distance order, and preprocesses a family it is given.

The empirical mass ``h`` is checked only for finite entries, no negative
entry and a support of the family's size.  Library callers may pass an
unnormalized ``h``; no selector spends time checking its sum.  The paper's
guarantees assume a normalized ``h``, which the command line enforces by
reading it into an :class:`~l1select.core.EmpiricalDistribution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DegeneratePairError,
    EmptyFamilyError,
    Family,
    Ledger,
    Outcome,
    PreprocessedFamily,
    _as_vector,
    _check_candidate_index,
    _compare_valid,
    _family_of,
    _outcome_at,
    _pair_blocks,
    _pair_index,
    _pair_layer,
    _validated_h,
    compare,  # re-exported: callers reach the pairwise compare as selectors.compare too
    preprocess,
    test_function,
)

__all__ = [
    "TraceEvent",
    "SelectionReport",
    "LossWeightValue",
    "CheckResult",
    "scheffe_tournament",
    "min_distance",
    "modified_min_distance",
    "loss_weight",
    "min_loss_weight",
    "efficient_min_loss_weight",
    "randomized_two",
    "relaxed_selection_check",
]


@dataclass(frozen=True)
class TraceEvent:
    """One pairwise comparison inside a selection run."""

    first: int
    second: int
    outcome: Outcome
    removed: int | None = None

    def to_dict(self) -> dict:
        return {
            "pair": [self.first, self.second],
            "outcome": self.outcome.value,
            "removed": self.removed,
        }


@dataclass(frozen=True)
class SelectionReport:
    """What a selection procedure chose and what it cost.

    ``h_products`` and ``term_evaluations`` are the counts charged by this run
    alone, and match the closed-form costs in the module docstring exactly.
    ``mixture`` is the pair of selection probabilities used by the randomized
    procedure; ``trace`` is the ordered comparison log of the elimination
    procedure.
    """

    algorithm: str
    selected_index: int
    selected_name: str
    h_products: int
    term_evaluations: int
    trace: tuple[TraceEvent, ...] | None = None
    seed: int | None = None
    mixture: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "selected_index": self.selected_index,
            "selected_name": self.selected_name,
            "h_products": self.h_products,
            "term_evaluations": self.term_evaluations,
        }
        if self.trace is not None:
            out["trace"] = [event.to_dict() for event in self.trace]
        if self.seed is not None:
            out["seed"] = self.seed
        if self.mixture is not None:
            out["mixture"] = list(self.mixture)
        return out


@dataclass(frozen=True)
class LossWeightValue:
    """Loss-weight of a candidate: the largest L1 distance to any rival it
    fails to beat, or -inf when it beats every rival."""

    value: float
    witness: int | None

    @property
    def undefeated(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict with the smallest constraint slack that produced it."""

    passed: bool
    margin: float


def _ensure_ledger(ledger: Ledger | None) -> Ledger:
    return ledger if ledger is not None else Ledger()


def _report(target, algorithm: str, selected: int, ledger: Ledger,
            h0: int, t0: int, **extra) -> SelectionReport:
    return SelectionReport(
        algorithm=algorithm,
        selected_index=selected,
        selected_name=_family_of(target).candidates[selected].name,
        h_products=ledger.h_products - h0,
        term_evaluations=ledger.term_evaluations - t0,
        **extra,
    )


def _row_products(signs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v . T for every row T of ``signs``: row-wise sums of the elementwise
    products, the reduction :func:`~l1select.core.compare` uses, taken over
    blocks of pairs so that no temporary grows with the table."""
    products = np.empty(signs.shape[0])
    for block in _pair_blocks(signs.shape[0]):
        products[block] = (signs[block] * v).sum(axis=1)
    return products


def _outcome_layer(target: Family | PreprocessedFamily):
    """The pairs, signs, distances and thresholds the outcome selectors read."""
    family = _family_of(target)
    if family.size == 0:
        raise EmptyFamilyError("cannot preprocess an empty family")
    return _pair_layer(family, outcomes=True)


def _pair_outcomes(target: Family | PreprocessedFamily, h, ledger: Ledger) -> tuple[np.ndarray, np.ndarray]:
    """Outcomes of every pair in the order of the layer :func:`_outcome_layer`
    returns, in one vectorised pass.

    Returns boolean masks (first_wins, second_wins) over the pairs; a pair in
    neither is a draw.  The products are row-wise sums of the same elementwise
    terms :func:`~l1select.core.compare` sums, so every outcome is
    bit-identical to it (a matrix product would reduce in another order and
    could flip a one-ulp draw).  Charges one data product per pair.
    """
    pairs = _outcome_layer(target)
    hv = _validated_h(h, _family_of(target).support.size)
    prods = _row_products(pairs.signs, hv)
    ledger.add_h_products(prods.shape[0])
    return prods > pairs.thresholds, prods < pairs.thresholds


def _win_counts(target: Family | PreprocessedFamily, h, ledger: Ledger) -> np.ndarray:
    """Pairwise wins of every candidate; a draw awards no win."""
    first, second = _pair_outcomes(target, h, ledger)
    pairs, m = _outcome_layer(target), target.size
    return np.bincount(pairs.pair_i[first], minlength=m) + np.bincount(pairs.pair_j[second], minlength=m)


def _loss_weights(target: Family | PreprocessedFamily, h, ledger: Ledger) -> np.ndarray:
    """Loss-weight of every candidate (see :func:`loss_weight`), with each
    pair's outcome counted in both directions."""
    first, second = _pair_outcomes(target, h, ledger)
    pairs = _outcome_layer(target)
    values = np.full(target.size, -np.inf)
    np.maximum.at(values, pairs.pair_i[~first], pairs.distances[~first])
    np.maximum.at(values, pairs.pair_j[~second], pairs.distances[~second])
    return values


def scheffe_tournament(
    target: Family | PreprocessedFamily, h, ledger: Ledger | None = None
) -> SelectionReport:
    """Select the candidate winning the most pairwise comparisons.

    Every unordered pair is compared exactly once (m(m-1)/2 data products);
    a draw awards no win to either side.  Ties in the win count go to the
    lowest index, so a single-candidate family selects its only member with
    zero products.  Reads the family's outcome layer.
    """
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    selected = int(np.argmax(_win_counts(target, h, ledger)))
    return _report(target, "tournament", selected, ledger, h0, t0)


def _check_scores_finite(scores: np.ndarray) -> None:
    """Refuse a selection among scores that overflowed: masses near the float
    maximum make a term sum inf (or inf - inf), and an argmin over such
    scores would pick an arbitrary index."""
    if not np.all(np.isfinite(scores)):
        raise ValueError("distance scores overflow: candidate masses too large")


def _min_distance_shortlist(diffs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Candidates whose exact min-distance score may be the smallest.

    Every candidate is screened at once with matrix products over blocks of
    pairs: approx[c] = max over pairs of |diffs[c] . T|.  Each term of such a
    product is an exact product (+-d or 0), so any two summation orders, the
    BLAS one included, differ by at most 2 gamma_k ||d_c||_1 <= k eps
    ||d_c||_1; ``slack`` is four times that.  A candidate with approx - slack above the smallest
    approx + slack therefore scores strictly above the winner exactly, and is
    dropped.  When some ||d_c||_1 exceeds half the float maximum, a partial
    sum may overflow, the bound fails, and every candidate is kept.
    """
    m, k = diffs.shape
    with np.errstate(over="ignore"):
        norms = np.abs(diffs).sum(axis=1)
    if not np.all(norms <= np.finfo(np.float64).max / 2):
        return np.arange(m)
    approx = np.zeros(m)
    for block in _pair_blocks(signs.shape[0]):
        products = diffs @ signs[block].T
        np.maximum(approx, np.abs(products, out=products).max(axis=1), out=approx)
    slack = (4.0 * k * np.finfo(np.float64).eps) * norms
    return np.flatnonzero(approx - slack <= (approx + slack).min())


def min_distance(target: Family | PreprocessedFamily, h, ledger: Ledger | None = None) -> SelectionReport:
    """Select the candidate whose worst term over every ordered pair's test
    function is smallest.

    Each candidate f is scored by max over ordered pairs (i, j), i != j, of
    |(f - h) . T_ij|.  The cost model charges every ordered term with no
    caching credit -- m . m(m-1) = m^2(m-1) term evaluations -- even though
    T_ji = -T_ij makes the two orientations' absolute terms equal.

    The scores are computed in two steps.  Matrix products over blocks of
    pairs screen every candidate within a rigorous bound on their rounding
    error and keep only those that may attain the minimum.  Those are scored
    exactly, by row-wise sums over every pair, and the lowest-index minimum
    wins.  A dropped candidate provably scores strictly above the winner, so
    the selection is the one exact scoring of every candidate gives,
    whatever order the matrix product sums in, and whatever order the pairs
    are listed in.  The ledger still charges the full m^2(m-1).

    Only the test functions are read, from the family's kept layer (the
    sign layer, built on first use, or an outcome layer).  A shortlisted
    score that overflows raises ``ValueError``.
    """
    family = _family_of(target)
    if family.size == 0:
        raise EmptyFamilyError("cannot select from an empty family")
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    hv = _validated_h(h, family.support.size)
    signs = _pair_layer(family, outcomes=False).signs
    ledger.add_term_evaluations(2 * family.size * signs.shape[0])
    selected = 0
    if signs.shape[0]:
        diffs = family.matrix - hv
        shortlist = _min_distance_shortlist(diffs, signs)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = np.array([np.abs(_row_products(signs, diffs[c])).max() for c in shortlist])
        _check_scores_finite(scores)
        selected = int(shortlist[np.argmin(scores)])
    return _report(family, "mindist", selected, ledger, h0, t0)


def modified_min_distance(
    target: Family | PreprocessedFamily, h, ledger: Ledger | None = None
) -> SelectionReport:
    """Select the candidate whose worst term over its own pairs is smallest.

    Candidate i is scored by max over j != i of |(f_i - h) . T_ij| only, so
    the scan costs m(m-1) term evaluations instead of m^2(m-1), with the same
    error guarantee.  Both endpoints of every unordered pair are scored from
    one pass over the test functions of the family's kept layer; T_ji =
    -T_ij only negates the row sum, so the scores are those of scanning each
    candidate's own pairs.  A score that overflows raises
    ``ValueError``.
    """
    family = _family_of(target)
    if family.size == 0:
        raise EmptyFamilyError("cannot select from an empty family")
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    hv = _validated_h(h, family.support.size)
    idx_i, idx_j, signs = _pair_layer(family, outcomes=False)[:3]
    diffs = family.matrix - hv
    scores = np.zeros(family.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _pair_blocks(signs.shape[0]):
            for endpoint in (idx_i[block], idx_j[block]):
                np.maximum.at(scores, endpoint, np.abs((diffs[endpoint] * signs[block]).sum(axis=1)))
    _check_scores_finite(scores)
    ledger.add_term_evaluations(2 * signs.shape[0])
    selected = int(np.argmin(scores))
    return _report(family, "modified", selected, ledger, h0, t0)


def loss_weight(
    target: Family | PreprocessedFamily, h, i: int, ledger: Ledger | None = None
) -> LossWeightValue:
    """Loss-weight of candidate ``i``: the largest L1 distance to a rival that
    ``i`` fails to beat (draws count as failures to beat).

    Compares ``i`` against each of the other m-1 candidates, charging m-1
    data products, after checking ``h`` once.  Returns -inf with no witness
    when ``i`` beats everyone; otherwise the witness is the lowest-index
    rival attaining the maximum.
    """
    family = _family_of(target)
    _check_candidate_index(family, i)
    hv = _validated_h(h, family.support.size)
    return _loss_weight(_outcome_layer(family), family.size, hv, i, _ensure_ledger(ledger))


def _loss_weight(layer, m: int, hv: np.ndarray, i: int, ledger: Ledger) -> LossWeightValue:
    """:func:`loss_weight` on the outcome ``layer`` of ``m`` candidates, for
    a checked index and an ``hv`` already validated."""
    best = -math.inf
    witness: int | None = None
    for j in range(m):
        if j == i:
            continue
        if _compare_valid(layer, m, i, j, hv, ledger) is not Outcome.FIRST_WINS:
            d = float(layer.distances[_pair_index(m, i, j)])
            if d > best:
                best, witness = d, j
    return LossWeightValue(best, witness)


def min_loss_weight(
    target: Family | PreprocessedFamily, h, ledger: Ledger | None = None
) -> SelectionReport:
    """Select the candidate with the smallest loss-weight.

    Each unordered pair is compared once and the outcome reused in both
    directions, so the run charges m(m-1)/2 data products rather than the
    m(m-1) of calling :func:`loss_weight` per candidate.  An undefeated
    candidate has loss-weight -inf and therefore wins; ties go to the lowest
    index.  Reads the family's outcome layer.
    """
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    selected = int(np.argmin(_loss_weights(target, h, ledger)))
    return _report(target, "minloss", selected, ledger, h0, t0)


def efficient_min_loss_weight(
    target: Family | PreprocessedFamily,
    h,
    ledger: Ledger | None = None,
    *,
    draw_removes_first: bool = False,
) -> SelectionReport:
    """Eliminate candidates along the distance order of the pairs; exactly
    m-1 data products.

    Repeatedly take the first pair in the distance order (largest L1
    distance, lexicographic on ties) whose endpoints both survive, compare
    the pair, and remove the loser -- on a draw the second-listed candidate
    is removed, keeping exactly one removal per comparison.  A
    :class:`~l1select.core.Family` is preprocessed first, after ``h`` is
    checked; a :class:`~l1select.core.PreprocessedFamily` is walked as it
    is.  Each compared pair's signs and threshold are read from the
    family's outcome layer.  The survivor satisfies the same 3-vs-2
    guarantee as :func:`min_loss_weight`: whenever it fails to beat a rival
    f', its distance to f' is at most the rival's loss-weight.

    ``draw_removes_first`` flips which endpoint a draw removes; the guarantee
    holds either way, and the knob exists so verification can demonstrate
    that.
    """
    hv = _validated_h(h, _family_of(target).support.size)
    prep = target if isinstance(target, PreprocessedFamily) else preprocess(target)
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    alive = [True] * prep.size
    remaining = prep.size
    trace: list[TraceEvent] = []
    layer = _outcome_layer(prep)
    for lex, i, j in zip(prep.order.tolist(), prep.pair_i.tolist(), prep.pair_j.tolist()):
        if remaining == 1:
            break
        if not (alive[i] and alive[j]):
            continue
        outcome = _outcome_at(layer, lex, hv, ledger)
        if outcome is Outcome.SECOND_WINS:
            removed = i
        elif outcome is Outcome.DRAW and draw_removes_first:
            removed = i
        else:
            removed = j
        alive[removed] = False
        remaining -= 1
        trace.append(TraceEvent(i, j, outcome, removed))
    selected = alive.index(True)
    return _report(prep, "efficient", selected, ledger, h0, t0, trace=tuple(trace))


def randomized_two(f1, f2, h, rng_seed: int = 0) -> SelectionReport:
    """Randomized choice between two candidates with expected error at most
    2 . min(err1, err2) + deviation.

    With T the pair's test function and n_i = |(f_i - h) . T|, the first
    candidate is chosen with probability n2 / (n1 + n2) -- the exact value of
    1 / (r + 1) for the term ratio r = n1 / n2, with r = infinity (n2 = 0)
    selecting the second candidate outright.  When both terms are zero
    neither candidate is favoured and the mixture is even.  The two terms are
    charged as term evaluations.  The draw comes from a seeded PCG64
    generator, and the report carries the seed plus both mixture weights
    exactly.
    """
    v1, v2 = _as_vector(f1), _as_vector(f2)
    if np.array_equal(v1, v2):
        raise DegeneratePairError("randomized selection needs two candidates at positive L1 distance")
    signs = test_function(v1, v2).signs
    hv = _validated_h(h, signs.shape[0])
    ledger = Ledger()
    n1 = abs(float(((v1 - hv) * signs).sum()))
    n2 = abs(float(((v2 - hv) * signs).sum()))
    ledger.add_term_evaluations(2)
    if not (math.isfinite(n1) and math.isfinite(n2)):
        raise ValueError("randomized selection term overflowed: candidate masses too large")
    if not math.isfinite(n1 + n2):
        n1, n2 = n1 / 2, n2 / 2
    mixture = (0.5, 0.5) if n1 + n2 == 0.0 else (n2 / (n1 + n2), n1 / (n1 + n2))
    draw = float(np.random.default_rng(rng_seed).random())
    selected = 0 if draw < mixture[0] else 1
    names = (getattr(f1, "name", "f1"), getattr(f2, "name", "f2"))
    return SelectionReport(
        algorithm="randomized",
        selected_index=selected,
        selected_name=names[selected],
        h_products=ledger.h_products,
        term_evaluations=ledger.term_evaluations,
        seed=rng_seed,
        mixture=mixture,
    )


def relaxed_selection_check(
    target: Family | PreprocessedFamily,
    h,
    selected: int,
    c: float = 1.0,
    *,
    include_draws: bool = False,
) -> CheckResult:
    """Check that every rival the selected candidate loses to has loss-weight
    at least 1/c times their distance.

    This is the elimination procedure's output condition, relaxed by a factor
    ``c >= 1``: for every rival f' to which the selected candidate strictly
    loses, l1(selected, f') <= c . loss_weight(f').  Any candidate passing at
    relaxation ``c`` inherits the error guarantee (1 + 2c) . best + 2c .
    deviation.  ``include_draws`` tightens the quantifier to rivals the
    selected candidate merely fails to beat; the default is the strict-loss
    reading.  The returned margin is the smallest slack c . loss_weight(f') -
    l1(selected, f') over the rivals checked (+inf when none apply).  ``h``
    is checked once, as every selector checks it.
    """
    if not c >= 1.0:
        raise ValueError(f"relaxation factor must be >= 1, got {c}")
    family = _family_of(target)
    m = family.size
    _check_candidate_index(family, selected)
    hv = _validated_h(h, family.support.size)
    layer = _outcome_layer(family)
    scratch = Ledger()
    margin = math.inf
    for j in range(m):
        if j == selected:
            continue
        outcome = _compare_valid(layer, m, selected, j, hv, scratch)
        applies = outcome is Outcome.SECOND_WINS or (include_draws and outcome is Outcome.DRAW)
        if not applies:
            continue
        rival_lw = _loss_weight(layer, m, hv, j, scratch).value
        margin = min(margin, c * rival_lw - float(layer.distances[_pair_index(m, selected, j)]))
    return CheckResult(passed=margin >= 0.0, margin=margin)
