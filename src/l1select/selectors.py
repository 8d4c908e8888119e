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
take a :class:`~l1select.core.Family`, preprocessed or not, and build and
keep nothing: only :func:`~l1select.core.preprocess` builds a pair table
(see :mod:`l1select.core`).  Each reads the table the family keeps, or
computes the rows it needs from the raw rows, bit-identical, and drops
them; ``loss_weight`` always computes its candidate's m-1 rows.
``efficient_min_loss_weight`` also reads the distance order, so it
preprocesses the family it is given, once.

The tournament, ``min_loss_weight`` and ``relaxed_selection_check`` read
their pair outcomes from one pass over the table's blocks, ``loss_weight``
from its candidate's m-1 rows, each bit-identical to
:func:`~l1select.core.compare`; ``relaxed_selection_check`` charges no
caller's ledger.  The pass decides every pair of a block from one matrix
product and sums row by row, as ``compare`` does, only the pairs that the
product's rounding bound leaves undecided.  The distance selectors screen
their candidates the same way and score exactly, row by row, only those
the screen cannot rule out: ``min_distance`` by branch and bound over
blocks of pairs, ``modified_min_distance`` from the pair table's
identities.  Their ledgers charge the paper's cost model, not the work
done.  The elimination selector, whose cost the paper counts one product at
a time, compares pair by pair, each pair as ``compare`` decides it; it
walks the distance order a block of pairs at a time and visits in Python
only the pairs whose endpoints are both alive at the block's start.

Every mass vector is checked once per call as :mod:`l1select.core`
describes.  The paper's guarantees assume a normalized ``h``, which the
command line enforces by reading it into an
:class:`~l1select.core.EmpiricalDistribution`.
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
    _check_candidate_index,
    _PAIR_BLOCK,
    _PairTable,
    _candidate_rows,
    _checked_mass,
    _outcome_at,
    _pair_blocks,
    _sign_blocks,
    _table_blocks,
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

# The spacing of floats just above 1, twice the unit roundoff.
_EPS = float(np.finfo(np.float64).eps)
# Four times the smallest subnormal: covers the few halvings below the normal
# range in the modified min-distance screen (see _identity_slack).
_UNDERFLOW_SLACK = 2.0**-1072


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


def _report(family: Family, algorithm: str, selected: int, ledger: Ledger,
            h0: int, t0: int, **extra) -> SelectionReport:
    return SelectionReport(
        algorithm=algorithm,
        selected_index=selected,
        selected_name=family.candidates[selected].name,
        h_products=ledger.h_products - h0,
        term_evaluations=ledger.term_evaluations - t0,
        **extra,
    )


def _row_products(signs: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """v . T for the rows T of ``signs`` listed in ``rows``: row-wise sums
    of the elementwise products, the reduction
    :func:`~l1select.core.compare` uses, taken over blocks of rows so that
    no temporary grows with the table."""
    products = np.empty(rows.shape[0])
    for block in _pair_blocks(rows.shape[0]):
        products[block] = (signs[rows[block]] * v).sum(axis=1)
    return products


def _rounding_slack(k: int, norm):
    """A bound past which a matrix product decides a sign that row-wise sums
    decide exactly: 4 k eps ``norm``, for products of vectors ``v`` with
    ``norm`` the computed ||v||_1 and pair rows of ``k`` entries in
    {-1, 0, +1}.

    Every term s_x v_x is then exactly +-v_x or 0, so a product is a sum of
    k exact terms, whatever the order.  Each rounded addition is exact to a
    relative u = eps/2, with no underflow error (the exact sum of two floats
    below the normal range is a float), so any summation tree over the k
    terms, numpy's pairwise row sums as much as a BLAS kernel's blocked
    accumulators, is within gamma_{k-1} ||v||_1 of the exact sum, where
    gamma_n = n u / (1 - n u).  A fused multiply-add s_x v_x + acc rounds
    once, so it is such an addition.  Two orders therefore differ by at
    most 2 gamma_{k-1} ||v||_1, about (k - 1) eps ||v||_1.  The slack is
    four times k eps times the computed norm, which covers that with room
    for the rounding of the norm itself (a relative gamma_{k-1}), of the
    slack's own product (a relative u), and of one subtraction or addition
    of a threshold or the slack before the comparison (a relative u each),
    as long as k eps is far below 1, as for any k that fits in memory.
    A value that clears the computed slack in a comparison therefore lies
    on the same side for both orders, exact ties included.

    The mass check keeps ||v||_1 at most a quarter of the float maximum
    for v = h or f - h, so no partial sum overflows.  Subnormal-scale sums
    are exact: every float is a multiple of 2**-1074 and every such multiple
    below 2**-1021 is a float, so when ||v||_1 is below 2**-1021 both
    orders give the exact sum and the slack, which may round to 0 there,
    need not cover anything.  Above it the slack is at least k 2**-1071, so
    its own underflow error, at most 2**-1075, is a sixteenth of it at most.
    """
    return (4.0 * k * _EPS) * norm


def _outcomes(pairs: _PairTable, hv: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """The outcome masks (first wins, second wins) over the rows of
    ``pairs``, rows of a pair table, for an ``hv`` already checked; a row
    in neither mask is a draw.

    One matrix product gives every row's margin h . T - threshold.  A
    margin beyond ``slack``, :func:`_rounding_slack` of ||h||_1, decides
    its row: the row-wise sum :func:`~l1select.core.compare` takes lies on
    the same side of the threshold.  Only the rows within it are summed
    row-wise, as ``compare`` sums them, and compared with their
    thresholds, so every outcome is bit-identical to ``compare``'s, exact
    draws included.
    """
    margins = pairs.signs @ hv - pairs.thresholds
    first, second = margins > slack, margins < -slack
    near = np.flatnonzero(~(first | second))
    if near.size:
        prods = _row_products(pairs.signs, hv, near)
        first[near] = prods > pairs.thresholds[near]
        second[near] = prods < pairs.thresholds[near]
    return first, second


def _pair_pass(family: Family, h, ledger: Ledger, pairs: int | None = None) -> tuple[np.ndarray, float]:
    """``h`` checked, and the slack :func:`_outcomes` decides with, for one
    pass over ``pairs`` rows of the family's pair table, every pair's P by
    default, which is charged here: one data product per pair, however it
    is decided.  An empty family is refused first."""
    _check_nonempty(family)
    hv = _checked_mass(h, "empirical distribution", family.support.size)
    ledger.add_h_products(family.size * (family.size - 1) // 2 if pairs is None else pairs)
    return hv, _rounding_slack(hv.shape[0], float(hv.sum()))


def _check_nonempty(family: Family) -> None:
    """Refuse an empty family, as every selector does before checking ``h``."""
    if family.size == 0:
        raise EmptyFamilyError("cannot select from an empty family")


def _win_counts(m: int, layer: _PairTable, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Pairwise wins of each of the ``m`` candidates from the outcomes of
    the pairs of ``layer``; a draw awards no win."""
    return np.bincount(layer.pair_i[first], minlength=m) + np.bincount(layer.pair_j[second], minlength=m)


def _loss_weights(values: np.ndarray, layer: _PairTable, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Raise ``values``, running loss-weights of the candidates (see
    :func:`loss_weight`), to those the outcomes of the pairs of ``layer``
    give, each pair counted in both directions, and return them."""
    np.maximum.at(values, layer.pair_i[~first], layer.distances[~first])
    np.maximum.at(values, layer.pair_j[~second], layer.distances[~second])
    return values


def scheffe_tournament(family: Family, h, ledger: Ledger | None = None) -> SelectionReport:
    """Select the candidate winning the most pairwise comparisons.

    Every unordered pair is compared exactly once (m(m-1)/2 data products);
    a draw awards no win to either side.  Ties in the win count go to the
    lowest index, so a single-candidate family selects its only member with
    zero products.  Walks the family's pair table, kept or computed block
    by block, and sums the wins over the blocks.
    """
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    hv, slack = _pair_pass(family, h, ledger)
    wins = np.zeros(family.size, dtype=np.intp)
    for block in _table_blocks(family):
        wins += _win_counts(family.size, block, *_outcomes(block, hv, slack))
    return _report(family, "tournament", int(np.argmax(wins)), ledger, h0, t0)


def _term_maxima(diffs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """max over the rows T of ``signs`` of |d . T| for every row d of
    ``diffs``, from one matrix product."""
    products = diffs @ signs.T
    return np.abs(products, out=products).max(axis=1)


def _min_distance_shortlist(diffs: np.ndarray, slack: np.ndarray, blocks, bound: float,
                            approx: np.ndarray) -> np.ndarray:
    """Candidates whose exact min-distance score may be the smallest, given
    a ``bound`` at or above some candidate's exact score and ``approx``,
    for each candidate a value within ``slack`` of some term
    |diffs[c] . T| of a pair's test function T (0 if none).

    The candidates are screened with a matrix product per block of
    ``blocks`` (see :func:`~l1select.core._sign_blocks`): ``approx`` is
    raised to the running max over the pairs so far of |diffs[c] . T|,
    each within ``slack[c]``, :func:`_rounding_slack` of ||diffs[c]||_1, of
    the row-wise sum it stands for.  A candidate whose approx - slack passes
    ``bound`` scores strictly above that candidate exactly.  It is dropped
    before the next block, so the products shrink as candidates drop.  Once
    one candidate is left, no further block is read: every dropped
    candidate scores exactly above ``bound``, which is at least the
    smallest exact score, so the one left is the only candidate with the
    smallest score.  After the last block, a survivor with approx - slack
    above the smallest approx + slack scores strictly above some other
    survivor exactly, and is dropped too.  Every candidate with the
    smallest exact score is kept.
    """
    alive = np.arange(diffs.shape[0])
    blocks = iter(blocks)
    while True:
        keep = approx - slack <= bound
        if not keep.all():
            alive, diffs, slack, approx = alive[keep], diffs[keep], slack[keep], approx[keep]
            if alive.size == 1:
                return alive
        signs = next(blocks, None)
        if signs is None:
            return alive[approx - slack <= (approx + slack).min()]
        np.maximum(approx, _term_maxima(diffs, signs), out=approx)


def _exact_scores(diffs: np.ndarray, blocks) -> np.ndarray:
    """max over the pairs in ``blocks`` of |d . T| for every row d of
    ``diffs``, each product a row-wise sum, as
    :func:`~l1select.core.compare` sums it."""
    scores = np.zeros(diffs.shape[0])
    for signs in blocks:
        np.maximum(scores, [np.abs((signs * d).sum(axis=1)).max() for d in diffs], out=scores)
    return scores


def min_distance(family: Family, h, ledger: Ledger | None = None) -> SelectionReport:
    """Select the candidate whose worst term over every ordered pair's test
    function is smallest.

    Each candidate f is scored by max over ordered pairs (i, j), i != j, of
    |(f - h) . T_ij|.  The cost model charges every ordered term with no
    caching credit -- m . m(m-1) = m^2(m-1) term evaluations -- even though
    T_ji = -T_ij makes the two orientations' absolute terms equal.  The
    ledger counts that model, not the floating-point work, which the steps
    below cut far below m . P products of length k on generic inputs.

    The scores are found by branch and bound over blocks of pairs.  The
    candidate nearest ``h`` in L1, the seed, is screened first, with one
    matrix product per block; its screened score plus the rounding slack
    of :func:`_rounding_slack` bounds its exact score, and so the minimum,
    from above.  Every
    candidate's term on its own pair with the seed, one row-wise sum each,
    is a first screened score: a candidate far from the seed, and so from
    ``h``, is dropped by it before any block is read.  Matrix products
    then screen the rest block by block, and
    :func:`_min_distance_shortlist` drops a candidate, and leaves it out of
    the later products, once its screened score less the slack passes that
    bound.  It reads no further block once one candidate is left, which on
    inputs with one clearly nearest member happens before or after the
    first block, and after the last block it drops the survivors that
    provably score above another survivor.  A family whose pairs fit in
    one block is screened with no bound, since nothing could be dropped
    between blocks.  A lone survivor is the selection.  Otherwise the
    survivors are scored exactly, by row-wise sums over every pair, and the
    lowest-index minimum wins.  Every dropped candidate scores strictly
    above some other candidate exactly, so the selection is the one exact
    scoring of every candidate gives, whatever order the matrix products
    sum in, and whatever order the pairs are listed in.

    Only the test functions are read, block by block: from the pair table
    the family keeps, or from the raw rows, once for the seed, once for
    the screen, as far as it goes, and once more for a rescoring.  Nothing
    is kept.
    """
    _check_nonempty(family)
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    hv = _checked_mass(h, "empirical distribution", family.support.size)
    ledger.add_term_evaluations(family.size * family.size * (family.size - 1))
    diffs = family.matrix - hv
    norms = np.abs(diffs).sum(axis=1)
    slack = _rounding_slack(family.support.size, norms)
    bound, approx = math.inf, np.zeros(family.size)
    if family.size * (family.size - 1) // 2 > _PAIR_BLOCK:  # candidates drop between blocks only
        seed = int(np.argmin(norms))
        screened = (_term_maxima(diffs[seed:seed + 1], signs)[0] for signs in _sign_blocks(family))
        bound = max(screened) + slack[seed]
        # Each candidate's term on its pair with the seed: a row-wise sum, so within its slack.
        approx = np.abs((np.sign(family.matrix - family.matrix[seed]) * diffs).sum(axis=1))
    shortlist = _min_distance_shortlist(diffs, slack, _sign_blocks(family), bound, approx)
    selected = int(shortlist[0])
    if shortlist.size > 1:
        selected = int(shortlist[np.argmin(_exact_scores(diffs[shortlist], _sign_blocks(family)))])
    return _report(family, "mindist", selected, ledger, h0, t0)


def _identity_slack(k: int, norm: float, h_norm: float) -> float:
    """A bound on how far the screen of :func:`modified_min_distance` puts
    any candidate's score from its row-wise one: 8 k eps (2N + H) + 2**-1072
    on ``k`` atoms, with N = ``norm``, the largest computed ||f_c||_1 of
    the family, and H = ``h_norm``, the computed ||h||_1.

    Take a pair (i, j) of the pair table, with test function T, distance d
    and threshold t.  T is exactly sign(f_i - f_j): a rounded difference
    keeps its sign.  With a = f_i . T and b = f_j . T, in exact arithmetic
    d = a - b and t = (a + b)/2, so

        (f_i - h) . T = t + d/2 - h . T,   (f_j - h) . T = t - d/2 - h . T,

    and the screen evaluates the right-hand sides from the table's d and t
    and a matrix product for h . T.  Write u = eps/2, gamma_n = n u/(1 - n u)
    and N_i, N_j, H for the exact norms.  The table sums k rounded terms
    |f_i - f_j| for d, so it is within gamma_k (N_i + N_j).  It sums k exact
    terms +-f[x] or 0 for a and for b, each within gamma_{k-1} of its norm,
    and rounds their sum once more, so 2t is within gamma_k (N_i + N_j).
    h . T is within gamma_{k-1} H in any summation order, as in
    :func:`_rounding_slack`.  Halving t and d is exact unless the half falls
    below the normal range, where each is off by at most 2**-1075.  The two
    additions that form a term each round by a relative u of a value at
    most about N_i + N_j + H, since |t| and d/2 are at most (N_i + N_j)/2
    and |h . T| at most H.  So the screen's term is within about
    (k + 2) u (N_i + N_j + H) + 2**-1074 of the exact (f_i - h) . T, and
    likewise for f_j.  The row-wise term, the sum of the k rounded terms
    (f_i[x] - h[x]) T[x] as :func:`~l1select.core.compare` sums it, is
    within gamma_k (N_i + H) of it.  The two differ by at most about
    (k + 1) eps (N_i + N_j + H) + 2**-1074, at most (k + 1) eps (2N + H) +
    2**-1074, and neither absolute values nor maxima over a candidate's
    pairs widen the gap.  The slack covers that four times over for any k,
    which leaves
    room for the rounding of the norms, of the slack itself and of one
    addition or subtraction in a comparison, as :func:`_rounding_slack`
    does, as long as k eps is far below 1.

    At the mass bound every norm is at most F/8, with F the float maximum
    (see :func:`~l1select.core._checked_mass`), so |t|, d/2 and |h . T| are
    at most F/8, every value a term is built from at most 3F/8, and the
    slack about 3 k eps F: nothing overflows.  Below the normal range every
    addition is exact, so the only absolute errors are those of the two
    halvings and of the slack's own product, which underflows only when
    every norm is below the normal range; the 2**-1072 covers them.
    """
    return (8.0 * k * _EPS) * (2.0 * norm + h_norm) + _UNDERFLOW_SLACK


def _endpoint_terms(block: _PairTable, hv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_i - h) . T and (f_j - h) . T for every pair (i, j) of ``block``,
    rows of a pair table, from its identities t + d/2 - h . T and
    t - d/2 - h . T: one matrix product and O(P) arithmetic.  Each is
    within :func:`_identity_slack` of the row-wise sum it stands for."""
    centre = block.thresholds - block.signs @ hv
    half = 0.5 * block.distances
    return centre + half, centre - half


def _own_pair_scores(rows: np.ndarray, hv: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """max over the rows f_j of ``rows`` of |(f_c - h) . sign(f_c - f_j)| for
    each candidate c in ``candidates``, each product a row-wise sum, as
    :func:`~l1select.core.compare` sums it; the zero test function of
    c with itself adds a zero term.  Candidates are taken a few at a time,
    so that their test functions fill about one block of pairs."""
    step = max(1, _PAIR_BLOCK // rows.shape[0])
    scores = np.empty(candidates.size)
    for start in range(0, candidates.size, step):
        chunk = slice(start, start + step)
        own = rows[candidates[chunk]]
        terms = (np.sign(own[:, np.newaxis] - rows) * (own - hv)[:, np.newaxis]).sum(axis=2)
        scores[chunk] = np.abs(terms, out=terms).max(axis=1)
    return scores


def modified_min_distance(family: Family, h, ledger: Ledger | None = None) -> SelectionReport:
    """Select the candidate whose worst term over its own pairs is smallest.

    Candidate i is scored by max over j != i of |(f_i - h) . T_ij| only, so
    the scan costs m(m-1) term evaluations instead of m^2(m-1), with the same
    error guarantee.  The ledger counts that model, not the floating-point
    work done.

    Both endpoints of every unordered pair are screened at once from the
    pair table's identities (see :func:`_identity_slack`): one matrix
    product h . T per block of pairs plus O(P) arithmetic on its distances
    and thresholds.  A kept table is read as one block.  A family that keeps
    none computes each block's distances and thresholds from its raw rows
    by the code that builds the table, so they are bit-identical to the
    kept ones, and drops them after use.  A candidate whose screened score,
    less the slack, passes the smallest screened score plus slack scores
    strictly above that candidate exactly, and is dropped.  A lone survivor
    is the selection.  Otherwise each survivor is scored exactly, by
    row-wise sums over its own m-1 test functions computed from the raw
    rows (T_ji = -T_ij only negates a row sum), and the lowest-index
    minimum wins, as scoring every candidate so would pick.
    """
    _check_nonempty(family)
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    hv = _checked_mass(h, "empirical distribution", family.support.size)
    ledger.add_term_evaluations(family.size * (family.size - 1))
    rows = family.matrix
    approx = np.zeros(family.size)
    for block in _table_blocks(family):
        first, second = _endpoint_terms(block, hv)
        np.maximum.at(approx, block.pair_i, np.abs(first))
        np.maximum.at(approx, block.pair_j, np.abs(second))
    slack = _identity_slack(family.support.size, float(rows.sum(axis=1).max()), float(hv.sum()))
    shortlist = (approx <= approx.min() + 2.0 * slack).nonzero()[0]
    selected = int(shortlist[0])
    if shortlist.size > 1:
        selected = int(shortlist[np.argmin(_own_pair_scores(rows, hv, shortlist))])
    return _report(family, "modified", selected, ledger, h0, t0)


def loss_weight(family: Family, h, i: int, ledger: Ledger | None = None) -> LossWeightValue:
    """Loss-weight of candidate ``i``: the largest L1 distance to a rival that
    ``i`` fails to beat (draws count as failures to beat).

    Compares ``i`` against each of the other m-1 candidates, charging m-1
    data products: the outcomes of ``i``'s m-1 rows of the family's pair
    table, computed from the raw rows and decided as the tournament and
    :func:`min_loss_weight` decide them.  Returns -inf with no witness when
    ``i`` beats everyone; otherwise the witness is the lowest-index rival
    attaining the maximum.
    """
    _check_candidate_index(family, i)
    hv, slack = _pair_pass(family, h, _ensure_ledger(ledger), family.size - 1)
    pairs = _candidate_rows(family, i)
    first, second = _outcomes(pairs, hv, slack)
    # i is the second endpoint of its pairs with rivals 0..i-1, the first of the rest.
    beats = np.concatenate((second[:i], first[i:]))
    if beats.all():
        return LossWeightValue(-math.inf, None)
    distances = np.where(beats, -np.inf, pairs.distances)
    rival = int(np.argmax(distances))  # the first maximum: the lowest-index rival
    return LossWeightValue(float(distances[rival]), rival + (rival >= i))


def min_loss_weight(family: Family, h, ledger: Ledger | None = None) -> SelectionReport:
    """Select the candidate with the smallest loss-weight.

    Each unordered pair is compared once and the outcome reused in both
    directions, so the run charges m(m-1)/2 data products rather than the
    m(m-1) of calling :func:`loss_weight` per candidate.  An undefeated
    candidate has loss-weight -inf and therefore wins; ties go to the lowest
    index.  Walks the family's pair table, kept or computed block by block,
    and raises the loss-weights block by block.
    """
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    hv, slack = _pair_pass(family, h, ledger)
    values = np.full(family.size, -np.inf)
    for block in _table_blocks(family):
        _loss_weights(values, block, *_outcomes(block, hv, slack))
    return _report(family, "minloss", int(np.argmin(values)), ledger, h0, t0)


def efficient_min_loss_weight(
    family: Family,
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
    is removed, keeping exactly one removal per comparison.  The family is
    preprocessed (see :func:`~l1select.core.preprocess`) after ``h`` is
    checked, which does nothing when it carries its order.  Each compared
    pair's signs and threshold are read from the pair table that preprocess
    keeps, and the pair is decided by the rule :func:`~l1select.core.compare`
    uses, charging one data product.

    The order is walked a block of pairs at a time (see
    :func:`~l1select.core._pair_blocks`).  One vectorised step keeps the
    block's pairs whose endpoints are both alive at its start; those, and
    only those, are rechecked in order in Python, since a comparison
    earlier in the block may have removed an endpoint, and compared pair by
    pair.  A pair the step drops has a removed endpoint, so the walk would
    have skipped it anyway: the trace and the ledger are those of a walk
    over every pair, which stops after m-1 comparisons.  No block-sized
    product with ``h`` is taken; only the compared pairs are multiplied.

    The survivor satisfies the same 3-vs-2 guarantee as
    :func:`min_loss_weight`: whenever it fails to beat a rival f', its
    distance to f' is at most the rival's loss-weight.

    ``draw_removes_first`` flips which endpoint a draw removes; the guarantee
    holds either way, and the knob exists so verification can demonstrate
    that.
    """
    _check_nonempty(family)
    hv = _checked_mass(h, "empirical distribution", family.support.size)
    preprocess(family)
    ledger = _ensure_ledger(ledger)
    h0, t0 = ledger.h_products, ledger.term_evaluations
    alive = np.ones(family.size, dtype=bool)
    alive_now = [True] * family.size  # the same flags, which the per-pair recheck reads faster from a list
    remaining = family.size
    trace: list[TraceEvent] = []
    layer = family._lex_pairs
    for chunk in _pair_blocks(family.order.shape[0]):
        if remaining == 1:
            break
        pair_i, pair_j = family.pair_i[chunk], family.pair_j[chunk]
        live = (alive[pair_i] & alive[pair_j]).nonzero()[0]
        for lex, i, j in zip(family.order[chunk][live].tolist(), pair_i[live].tolist(), pair_j[live].tolist()):
            if not (alive_now[i] and alive_now[j]):
                continue
            outcome = _outcome_at(layer, lex, hv, ledger)
            if outcome is Outcome.SECOND_WINS:
                removed = i
            elif outcome is Outcome.DRAW and draw_removes_first:
                removed = i
            else:
                removed = j
            alive[removed] = alive_now[removed] = False
            remaining -= 1
            trace.append(TraceEvent(i, j, outcome, removed))
            if remaining == 1:
                break
    selected = alive_now.index(True)
    return _report(family, "efficient", selected, ledger, h0, t0, trace=tuple(trace))


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
    names = (getattr(f1, "name", "f1"), getattr(f2, "name", "f2"))
    v1 = _checked_mass(f1, f"candidate {names[0]!r}")
    v2 = _checked_mass(f2, f"candidate {names[1]!r}", v1.shape[0])
    if np.array_equal(v1, v2):
        raise DegeneratePairError("randomized selection needs two candidates at positive L1 distance")
    signs = test_function(v1, v2).signs
    hv = _checked_mass(h, "empirical distribution", v1.shape[0])
    ledger = Ledger()
    n1 = abs(float(((v1 - hv) * signs).sum()))
    n2 = abs(float(((v2 - hv) * signs).sum()))
    ledger.add_term_evaluations(2)
    mixture = (0.5, 0.5) if n1 + n2 == 0.0 else (n2 / (n1 + n2), n1 / (n1 + n2))
    draw = float(np.random.default_rng(rng_seed).random())
    selected = 0 if draw < mixture[0] else 1
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
    family: Family,
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
    l1(selected, f') over the rivals checked (+inf when none apply).

    Every rival's loss-weight, and the selected candidate's wins and
    losses, come from one pass over the blocks of the family's pair table,
    the pass :func:`min_loss_weight` makes; its P data products are
    charged to no caller's ledger.
    """
    if not c >= 1.0:
        raise ValueError(f"relaxation factor must be >= 1, got {c}")
    _check_candidate_index(family, selected)
    hv, slack = _pair_pass(family, h, Ledger())
    loss_weights = np.full(family.size, -np.inf)
    checked = []  # the rivals checked in each block and their distances
    for layer in _table_blocks(family):
        first, second = _outcomes(layer, hv, slack)
        _loss_weights(loss_weights, layer, first, second)
        is_first = layer.pair_i == selected
        applies = np.where(is_first, second, first)  # where the selected candidate strictly loses
        if include_draws:
            applies |= ~(first | second)
        applies &= is_first | (layer.pair_j == selected)
        checked.append((np.where(is_first, layer.pair_j, layer.pair_i)[applies], layer.distances[applies]))
    # fmin skips the NaN slack of an infinite c against a zero loss-weight.
    with np.errstate(over="ignore", invalid="ignore"):
        margin = min(
            (float(np.fmin.reduce(c * loss_weights[rivals] - distances, initial=math.inf))
             for rivals, distances in checked),
            default=math.inf,
        )
    return CheckResult(passed=margin >= 0.0, margin=margin)
