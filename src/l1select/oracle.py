"""Brute-force ground truth for every guarantee the selectors claim.

Everything here recomputes from raw mass vectors: distances by summing
absolute differences, loss-weights by exhaustive comparison, and VC
dimension by enumerating subsets.  None of it reuses the thresholds or
distances of the pair table a :class:`~l1select.core.Family` keeps, or the
distance order of a :class:`~l1select.core.PreprocessedFamily`, so
agreement between a selector and these checks is evidence, not circularity.

One deliberate exception: pair *outcomes* are recomputed with the same
threshold formula :func:`~l1select.core.compare` uses, evaluated in the same
operation order so the result is bit-identical.  The elimination invariant
is a statement about the game induced by a single win rule; two
algebraically equivalent evaluations of that rule can disagree at one ulp
(e.g. a threshold sum that rounds to even), and checking the selector's
moves against a second rule would test a claim that is simply false in
floating point.  Route-vs-route agreement is still tested, but separately
and on its own terms, by :func:`check_win_equivalence`.

Verification functions take the true density ``g`` as an argument.  That is
a simulation privilege: selection itself never sees ``g``.

:func:`check_bound` called alone re-derives the best member, ``d1`` and the
deviation from raw vectors on every call.  A sweep that checks several
selections of one instance builds one :class:`InstanceReference` instead and
passes it to each check: the reference computes the same quantities with the
same functions, from ``family.matrix``, ``g`` and ``h`` only, once per
instance, so every check reads the values a from-scratch call would compute,
bit for bit.  The same reference, passed to
:func:`check_elimination_invariant`, answers the strict and the draw
readings of the invariant from one pass.

The region systems of :func:`yatracos_class` and :func:`yatracos_restricted`
come from one vectorised comparison of the candidates' rows, deduplicated in
first-appearance order of the ordered pairs (i, j).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    CapacityError,
    EmptyFamilyError,
    Family,
    Outcome,
    PreprocessedFamily,
    _as_vector,
    _check_candidate_index,
    _family_of,
    _validated_h,
    compare,
    Ledger,
    empirical_deviation,
    empirical_deviation_restricted,
    l1_distance,
    preprocess,
    scheffe_win,
)

__all__ = [
    "GUARANTEE_TOL",
    "QUADRUPLE_TOL",
    "BoundCheck",
    "InstanceReference",
    "SetSystem",
    "best_in_family",
    "check_bound",
    "check_elimination_invariant",
    "check_win_equivalence",
    "check_quadruple",
    "yatracos_class",
    "yatracos_restricted",
    "vc_dimension",
    "vc_dimension_by_traces",
]

# Slack allowed when checking an error-bound inequality in floating point.
GUARANTEE_TOL = 1e-9
# Slack allowed for the sign-alignment inequality of candidate quadruples.
QUADRUPLE_TOL = 1e-12

_VC_MAX_DOMAIN = 12
_VC_MAX_FAMILY = 64


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of testing ``error <= a * best + b * deviation`` on one instance."""

    coefficient_best: float
    coefficient_deviation: float
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class SetSystem:
    """A deduplicated collection of atom-index subsets over a finite domain."""

    domain_size: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        for s in self.sets:
            if any(not 0 <= x < self.domain_size for x in s):
                raise ValueError("set system contains an atom outside its domain")
        if len(set(self.sets)) != len(self.sets):
            raise ValueError("set system must be deduplicated")


def best_in_family(family: Family, g) -> tuple[int, float]:
    """Index and L1 error of the family member closest to ``g`` (exhaustive argmin,
    lowest index on ties)."""
    if family.size == 0:
        raise EmptyFamilyError("no best member in an empty family")
    gv = _as_vector(g)
    dists = np.abs(family.matrix - gv).sum(axis=1)
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])


class InstanceReference:
    """The oracle quantities of one instance (``family``, ``g``, ``h``), each
    computed once and shared by every :func:`check_bound` on that instance.

    ``best_index`` and ``d1`` come from one :func:`best_in_family` call at
    construction.  The full deviation and the deviation restricted to the
    best member are computed on first use, by
    :func:`~l1select.core.empirical_deviation` and
    :func:`~l1select.core.empirical_deviation_restricted`.  Everything is
    derived from ``family.matrix``, ``g`` and ``h``: never from a family's
    cached pair table or a :class:`~l1select.core.PreprocessedFamily`.  A
    reference describes one instance only and is dropped with it.
    """

    def __init__(self, family: Family, g, h):
        self.family = family
        self.g = _as_vector(g)
        self.h = h
        self.best_index, self.d1 = best_in_family(family, self.g)
        self._elimination_verdicts: dict[tuple[int, float], tuple[bool, bool]] = {}

    def elimination_verdicts(self, selected: int, c: float) -> tuple[bool, bool]:
        """The strict and the draw reading of the elimination invariant for
        ``selected`` at relaxation ``c``, from one :func:`_elimination_verdicts`
        pass kept per (selected, c)."""
        key = (selected, c)
        if key not in self._elimination_verdicts:
            self._elimination_verdicts[key] = _elimination_verdicts(self.family, self.h, selected, c)
        return self._elimination_verdicts[key]

    @functools.cached_property
    def deviation(self) -> float:
        """Largest |(g - h) . T| over every pair's test function."""
        return empirical_deviation(self.g, self.h, self.family)

    @functools.cached_property
    def restricted_deviation(self) -> float:
        """Largest |(g - h) . T| over the best member's own test functions."""
        return empirical_deviation_restricted(self.g, self.h, self.family, self.best_index)


def check_bound(
    selected: int,
    family: Family,
    g,
    h,
    a: float,
    b: float,
    delta_mode: str = "full",
    *,
    reference: InstanceReference | None = None,
) -> BoundCheck:
    """Test the inequality ``l1(f_selected, g) <= a * d1 + b * deviation``.

    ``d1`` is recomputed by exhaustive argmin.  With ``delta_mode="full"`` the
    deviation ranges over every pair's test function; with ``"restricted"`` it
    ranges only over the pairs of the best member, which is the sharper form
    the scan- and loss-weight-based selectors also satisfy.  The check passes
    when the margin ``rhs - lhs`` is at least ``-GUARANTEE_TOL``.  A
    ``selected`` outside [0, m) raises IndexError.

    ``reference``, when given, supplies ``d1`` and the deviation; it must
    have been built from this ``family``, ``g`` and ``h``.  Without it the
    check builds its own, so the result is the same either way.
    """
    if delta_mode not in ("full", "restricted"):
        raise ValueError(f"delta_mode must be 'full' or 'restricted', got {delta_mode!r}")
    _check_candidate_index(family, selected)
    if reference is None:
        reference = InstanceReference(family, g, h)
    elif reference.family is not family:
        raise ValueError("reference was built for another family")
    dev = reference.deviation if delta_mode == "full" else reference.restricted_deviation
    lhs = l1_distance(family.matrix[selected], g)
    rhs = a * reference.d1 + b * dev
    margin = rhs - lhs
    return BoundCheck(a, b, lhs, rhs, margin, margin >= -GUARANTEE_TOL)


def _direct_outcome(fi: np.ndarray, fj: np.ndarray, hv: np.ndarray) -> Outcome:
    """The canonical win rule recomputed from raw mass vectors.

    Uses the same threshold form as :func:`~l1select.core.compare` — with
    T = sign(fi - fj), candidate i wins when h . T exceeds
    (fi . T + fj . T) / 2 — and the same operation order, so outcomes are
    bit-identical to the selector's even in one-ulp borderline cases.  See
    the module docstring for why outcome determination must not be a second
    independent route.
    """
    signs = np.sign(fi - fj)
    h_dot_t = float((hv * signs).sum())
    threshold = 0.5 * (float((fi * signs).sum()) + float((fj * signs).sum()))
    if h_dot_t > threshold:
        return Outcome.FIRST_WINS
    if h_dot_t < threshold:
        return Outcome.SECOND_WINS
    return Outcome.DRAW


def _brute_loss_weight(matrix: np.ndarray, hv: np.ndarray, i: int) -> float:
    """Loss-weight of candidate ``i`` from scratch: the largest distance to a
    rival it fails to beat, -inf when it beats them all."""
    worst = -np.inf
    for j in range(matrix.shape[0]):
        if j == i:
            continue
        if _direct_outcome(matrix[i], matrix[j], hv) is not Outcome.FIRST_WINS:
            worst = max(worst, float(np.abs(matrix[i] - matrix[j]).sum()))
    return worst


def _elimination_verdicts(
    prep_or_family: PreprocessedFamily | Family, h, selected: int, c: float = 1.0
) -> tuple[bool, bool]:
    """Both readings of :func:`check_elimination_invariant` from one pass:
    (strict, with draws).

    The selected candidate's outcome against each rival and each needed
    rival's brute-force loss-weight are computed once, from raw mass
    vectors.  A strict loss bears on both readings and a draw on the second
    only, so a violated strict reading also violates the draw reading.
    ``h`` is rejected unless it is finite, nonnegative and on the family's
    support, as every selector rejects it.
    """
    if not c >= 1.0:
        raise ValueError(f"relaxation factor must be >= 1, got {c}")
    family = _family_of(prep_or_family)
    _check_candidate_index(family, selected)
    matrix = family.matrix
    hv = _validated_h(h, family.support.size)
    strict = with_draws = True
    for j in range(family.size):
        if j == selected:
            continue
        outcome = _direct_outcome(matrix[selected], matrix[j], hv)
        if outcome is Outcome.FIRST_WINS or (outcome is Outcome.DRAW and not with_draws):
            continue
        dist = float(np.abs(matrix[selected] - matrix[j]).sum())
        if dist > c * _brute_loss_weight(matrix, hv, j):
            with_draws = False
            if outcome is Outcome.SECOND_WINS:
                strict = False
                break
    return strict, with_draws


def check_elimination_invariant(
    prep_or_family: PreprocessedFamily | Family,
    h,
    selected: int,
    c: float = 1.0,
    *,
    include_draws: bool = False,
    reference: InstanceReference | None = None,
) -> bool:
    """Verify the elimination selector's output condition against brute-force
    loss-weights.

    For every rival the selected candidate strictly loses to (or merely fails
    to beat, when ``include_draws`` is set), its distance to that rival must
    be at most ``c`` times the rival's loss-weight.  All outcomes, distances
    and loss-weights are recomputed from raw mass vectors.  Vacuously true
    for a singleton family.  An ``h`` that is not finite, nonnegative and on
    the family's support is rejected, as every selector rejects it.

    ``reference``, when given, must have been built from this family and
    ``h``; it keeps both readings of each (selected, c) it is asked for, so
    checking the strict and the draw reading costs one pass.
    """
    if reference is None:
        verdicts = _elimination_verdicts(prep_or_family, h, selected, c)
    elif reference.family is not _family_of(prep_or_family):
        raise ValueError("reference was built for another family")
    else:
        verdicts = reference.elimination_verdicts(selected, c)
    return verdicts[include_draws]


def check_win_equivalence(fi, fj, h) -> bool:
    """True when the threshold comparison and the region-mass comparison give
    the identical outcome (including draws) for a pair of distributions.

    The first route preprocesses a two-member family and runs
    :func:`~l1select.core.compare`; the second evaluates
    :func:`~l1select.core.scheffe_win` directly.  Both require normalized
    inputs.
    """
    from .core import Candidate, Support  # local import to avoid cycles in __init__

    a, b = _as_vector(fi), _as_vector(fj)
    family = Family(
        Support.default(a.shape[0]),
        [Candidate("first", a, distribution=True), Candidate("second", b, distribution=True)],
    )
    threshold_route = compare(preprocess(family), 0, 1, h, Ledger())
    region_route = scheffe_win(a, b, h)
    return threshold_route is region_route


def check_quadruple(fi, fj, fk, fl) -> float:
    """Evaluate (f_i - f_j) . (T_ij - T_kl) and confirm it is nonnegative.

    The product of a difference with its own sign vector dominates its product
    with any other sign vector, so the value is >= 0 up to roundoff; a value
    below ``-QUADRUPLE_TOL`` raises.
    """
    a, b = _as_vector(fi), _as_vector(fj)
    k, l = _as_vector(fk), _as_vector(fl)
    diff = a - b
    t_own = np.sign(diff)
    t_other = np.sign(k - l)
    value = float((diff * (t_own - t_other)).sum())
    if value < -QUADRUPLE_TOL:
        raise ValueError(f"sign-alignment inequality violated: {value!r}")
    return value


def _distinct_regions(greater: np.ndarray) -> tuple[frozenset[int], ...]:
    """The distinct rows of a boolean region matrix as atom-index sets, in
    order of first appearance.  Rows are told apart by their packed bytes, so
    a set is built only for each distinct region."""
    packed = np.packbits(greater, axis=1)
    width = packed.shape[1]
    buffer = packed.tobytes()
    seen: dict[bytes, frozenset[int]] = {}
    for r in range(greater.shape[0]):
        key = buffer[r * width : (r + 1) * width]
        if key not in seen:
            seen[key] = frozenset(np.flatnonzero(greater[r]).tolist())
    return tuple(seen.values())


def yatracos_class(family: Family) -> SetSystem:
    """All regions where one candidate strictly exceeds another, deduplicated.

    The system collects A_ij = {x : f_i(x) > f_j(x)} over ordered pairs
    i != j, preserving first-appearance order in (i, j) order.  All m(m-1)
    regions come from one comparison of every row with every other.  Guarded
    at ``_VC_MAX_FAMILY`` members since the downstream VC computation is
    exponential by design.
    """
    if family.size > _VC_MAX_FAMILY:
        raise CapacityError(
            f"family of {family.size} members exceeds the brute-force guard of {_VC_MAX_FAMILY}"
        )
    matrix = family.matrix
    greater = matrix[:, None, :] > matrix[None, :, :]
    off_diagonal = ~np.eye(family.size, dtype=bool)
    return SetSystem(family.support.size, _distinct_regions(greater[off_diagonal]))


def yatracos_restricted(family: Family, i: int) -> SetSystem:
    """The regions of candidate ``i`` only: {A_ij : j != i}, deduplicated in
    order of j."""
    _check_candidate_index(family, i)
    matrix = family.matrix
    greater = np.delete(matrix[i] > matrix, i, axis=0)
    return SetSystem(family.support.size, _distinct_regions(greater))


def _check_vc_domain(system: SetSystem) -> None:
    if system.domain_size > _VC_MAX_DOMAIN:
        raise CapacityError(
            f"domain of {system.domain_size} atoms exceeds the brute-force guard of {_VC_MAX_DOMAIN}"
        )


def vc_dimension(system: SetSystem) -> int:
    """Largest subset size the system shatters, by bitmask enumeration.

    A subset S is shattered when the projections {A intersect S} realize all
    2^|S| traces.  Returns -1 for a system with no sets (nothing, not even
    the empty subset, is shattered).  Ascending search with early exit: if no
    d-subset is shattered, no larger subset can be.
    """
    _check_vc_domain(system)
    if not system.sets:
        return -1
    masks = {sum(1 << x for x in s) for s in system.sets}
    n = system.domain_size
    dim = 0
    for d in range(1, n + 1):
        if (1 << d) > len(masks):
            break
        shattered_one = False
        for atoms in itertools.combinations(range(n), d):
            sub = sum(1 << x for x in atoms)
            if len({mask & sub for mask in masks}) == (1 << d):
                shattered_one = True
                break
        if not shattered_one:
            break
        dim = d
    return dim


def vc_dimension_by_traces(system: SetSystem) -> int:
    """Independent VC computation: descending search over frozenset projections.

    Counts traces with set operations instead of bit arithmetic and scans
    subset sizes from an upper bound downward, so it shares neither data
    representation nor search order with :func:`vc_dimension`.
    """
    _check_vc_domain(system)
    if not system.sets:
        return -1
    distinct = set(system.sets)
    n = system.domain_size
    # No subset larger than log2(#sets) can be shattered.
    upper = 0
    while (1 << (upper + 1)) <= len(distinct) and upper + 1 <= n:
        upper += 1
    for d in range(upper, 0, -1):
        for atoms in itertools.combinations(range(n), d):
            subset = frozenset(atoms)
            traces = {s & subset for s in distinct}
            if len(traces) == (1 << d):
                return d
    return 0
