"""Core types and operations for L1 selection over finite-support densities.

Everything lives on a finite support of ``k`` labelled atoms.  A candidate
density is a finite nonnegative mass vector (it need not sum to one); an
empirical distribution is a normalized mass vector, typically built from
sample frequencies.  The central primitive is the sign test function of a
candidate pair,

    T[x] = sign(f_i[x] - f_j[x])  in {-1, 0, +1},

whose inner product against the empirical mass decides which of the two
candidates is the better fit.  Comparisons are charged to a :class:`Ledger`
so that the exact number of data-dependent inner products used by each
selection procedure can be asserted, not estimated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SupportMismatchError",
    "NormalizationError",
    "EmptyFamilyError",
    "InvalidPairError",
    "DegeneratePairError",
    "CapacityError",
    "Outcome",
    "Support",
    "Candidate",
    "EmpiricalDistribution",
    "Family",
    "TestFunction",
    "PreprocessedFamily",
    "Ledger",
    "NORMALIZATION_TOL",
    "test_function",
    "inner_product",
    "l1_distance",
    "compare",
    "scheffe_set",
    "scheffe_win",
    "empirical_deviation",
    "empirical_deviation_restricted",
    "preprocess",
]

# Mass vectors flagged as probability distributions must sum to 1 within this.
NORMALIZATION_TOL = 1e-9

# Largest pair table (P x k signs plus the two P-long endpoint arrays) that
# _pair_test_signs will build; larger families fail fast with CapacityError
# instead of exhausting memory.
_PAIR_TABLE_MAX_BYTES = 1 << 30
# Pairs per block when a computation walks the pair table, so its temporaries
# stay block-sized (and cache-resident) instead of growing with the table.
# Larger blocks run slightly faster but make BLAS touch more packing memory in
# the min-distance screen (at m=96, k=64: about 0.5 MB more peak RSS at 512).
_PAIR_BLOCK = 256


class SupportMismatchError(ValueError):
    """Mass vectors or test functions defined on different supports."""


class NormalizationError(ValueError):
    """A mass vector required to be a probability distribution is not."""


class EmptyFamilyError(ValueError):
    """An operation that needs at least one candidate got none."""


class InvalidPairError(ValueError):
    """A pairwise operation was asked to compare a candidate with itself."""


class DegeneratePairError(ValueError):
    """Two candidates required to be distinct coincide in L1."""


class CapacityError(ValueError):
    """A computation was asked to exceed its size guard."""


class Outcome(enum.Enum):
    """Result of comparing an ordered candidate pair against empirical data."""

    FIRST_WINS = "first"
    SECOND_WINS = "second"
    DRAW = "draw"

    def flipped(self) -> "Outcome":
        if self is Outcome.FIRST_WINS:
            return Outcome.SECOND_WINS
        if self is Outcome.SECOND_WINS:
            return Outcome.FIRST_WINS
        return Outcome.DRAW


def _as_vector(values) -> np.ndarray:
    """Coerce a mass-like object (Candidate, EmpiricalDistribution, array) to 1-D float64."""
    mass = getattr(values, "mass", values)
    arr = np.asarray(mass, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D mass vector, got shape {arr.shape}")
    return arr


def _check_same_length(*vectors: np.ndarray) -> int:
    sizes = {v.shape[0] for v in vectors}
    if len(sizes) != 1:
        raise SupportMismatchError(f"mass vectors live on different supports: sizes {sorted(sizes)}")
    return sizes.pop()


@dataclass(frozen=True)
class Support:
    """An ordered finite set of distinct atom labels."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("support atoms must be distinct")

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index_of(self, label: str) -> int:
        try:
            return self.atoms.index(label)
        except ValueError:
            raise KeyError(f"unknown atom label {label!r}") from None

    @classmethod
    def default(cls, k: int) -> "Support":
        """The conventional support A1..Ak."""
        if k < 1:
            raise ValueError(f"support size must be >= 1, got {k}")
        return cls(tuple(f"A{i}" for i in range(1, k + 1)))


class Candidate:
    """A named nonnegative mass vector over a finite support.

    A candidate need not be normalized; set ``distribution=True`` to assert
    that it is one (entries >= 0, total mass 1 within ``NORMALIZATION_TOL``).
    The mass array is copied and frozen.
    """

    __slots__ = ("name", "mass")

    def __init__(self, name: str, mass, *, distribution: bool = False):
        arr = _as_vector(mass).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"candidate {name!r} has non-finite mass entries")
        if np.any(arr < 0.0):
            raise ValueError(f"candidate {name!r} has negative mass entries")
        if distribution and abs(float(arr.sum()) - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(
                f"candidate {name!r} flagged as a distribution but has total mass {arr.sum()!r}"
            )
        arr.flags.writeable = False
        self.name = name
        self.mass = arr

    def is_distribution(self, tol: float = NORMALIZATION_TOL) -> bool:
        return bool(np.all(self.mass >= 0.0)) and abs(float(self.mass.sum()) - 1.0) <= tol

    def __repr__(self):
        return f"Candidate({self.name!r}, total_mass={float(self.mass.sum()):.6g})"


class EmpiricalDistribution:
    """A normalized mass vector, optionally remembering how many samples built it."""

    __slots__ = ("mass", "sample_count")

    def __init__(self, mass, sample_count: int | None = None):
        arr = _as_vector(mass).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError("empirical mass has non-finite entries")
        if np.any(arr < 0.0):
            raise ValueError("empirical mass has negative entries")
        if abs(float(arr.sum()) - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(f"empirical mass must sum to 1, got {arr.sum()!r}")
        if sample_count is not None and sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {sample_count}")
        arr.flags.writeable = False
        self.mass = arr
        self.sample_count = sample_count

    def __repr__(self):
        n = "" if self.sample_count is None else f", n={self.sample_count}"
        return f"EmpiricalDistribution(k={self.mass.shape[0]}{n})"


class Family:
    """An ordered collection of candidates over a shared support.

    Candidate names must be distinct so selection reports are unambiguous.
    The stacked mass matrix (one row per candidate) is precomputed and frozen.
    The pair table (endpoints and test functions of every unordered pair) is
    built on first use and kept, read-only, for :func:`preprocess` and the
    distance selectors to share.
    """

    __slots__ = ("support", "candidates", "matrix", "_pair_table")

    def __init__(self, support: Support, candidates: Iterable[Candidate]):
        cands = tuple(candidates)
        names = [c.name for c in cands]
        if len(set(names)) != len(names):
            raise ValueError("candidate names must be distinct within a family")
        for c in cands:
            if c.mass.shape[0] != support.size:
                raise SupportMismatchError(
                    f"candidate {c.name!r} has {c.mass.shape[0]} entries on a support of size {support.size}"
                )
        matrix = (
            np.stack([c.mass for c in cands])
            if cands
            else np.empty((0, support.size), dtype=np.float64)
        )
        matrix.flags.writeable = False
        self.support = support
        self.candidates = cands
        self.matrix = matrix
        self._pair_table = None

    @property
    def size(self) -> int:
        return len(self.candidates)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.candidates)

    def __getitem__(self, i: int) -> Candidate:
        return self.candidates[i]

    def __len__(self) -> int:
        return len(self.candidates)

    def __repr__(self):
        return f"Family(m={self.size}, k={self.support.size})"


@dataclass(frozen=True)
class TestFunction:
    """A vector of signs in {-1, 0, +1} acting on mass vectors by inner product."""

    signs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.signs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("test function signs must be a 1-D vector")
        if not np.all(np.isin(arr, (-1.0, 0.0, 1.0))):
            raise ValueError("test function entries must lie in {-1, 0, +1}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "signs", arr)

    def __neg__(self) -> "TestFunction":
        return TestFunction(-self.signs)

    @property
    def size(self) -> int:
        return self.signs.shape[0]


@dataclass
class Ledger:
    """Monotone counters for the data-dependent cost of one selection run.

    ``h_products`` counts inner products of the empirical mass against a test
    function (one per pairwise comparison).  ``term_evaluations`` counts the
    scalar terms of the form (f - h) . T requested by the scan-based
    selectors, with no caching credit.
    """

    h_products: int = 0
    term_evaluations: int = 0

    def add_h_products(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("ledger counters are monotone")
        self.h_products += n

    def add_term_evaluations(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("ledger counters are monotone")
        self.term_evaluations += n


def test_function(fi, fj) -> TestFunction:
    """Sign vector of ``fi - fj``: +1 where fi exceeds fj, -1 where it falls short.

    Exact zeros map to sign 0, so ``test_function(f, f)`` is identically zero
    and ``test_function(fi, fj) == -test_function(fj, fi)`` entrywise.
    """
    a, b = _as_vector(fi), _as_vector(fj)
    _check_same_length(a, b)
    return TestFunction(np.sign(a - b))


def inner_product(v, t) -> float:
    """Inner product of a mass-like vector with a test function (or raw sign vector)."""
    vec = _as_vector(v)
    signs = t.signs if isinstance(t, TestFunction) else _as_vector(t)
    _check_same_length(vec, signs)
    # Elementwise multiply + pairwise sum: the same reduction order as
    # np.abs(...).sum(), so |d| . 1 and d . sign(d) agree bit for bit.
    return float((vec * signs).sum())


def l1_distance(fi, fj) -> float:
    """L1 distance between two mass vectors.

    Equals ``inner_product(fi - fj, test_function(fi, fj))`` exactly, because
    x * sign(x) == |x| holds entrywise in IEEE arithmetic and both sides are
    summed in the same order.
    """
    a, b = _as_vector(fi), _as_vector(fj)
    _check_same_length(a, b)
    return float(np.abs(a - b).sum())


def compare(prep: "PreprocessedFamily", i: int, j: int, h, ledger: Ledger) -> Outcome:
    """Compare candidates ``i`` and ``j`` against the empirical mass ``h``.

    Candidate i wins when its signed excess over the data is smaller than
    candidate j's on the pair's test function.  With T = test_function(fi, fj)
    and t = (fi . T + fj . T) / 2 precomputed, this reduces to the single
    data-dependent product h . T:

        h . T >  t   ->  FIRST_WINS
        h . T <  t   ->  SECOND_WINS
        h . T == t   ->  DRAW

    Exactly one ``h_products`` ledger increment per call.  The outcome is
    antisymmetric: swapping i and j flips FIRST_WINS and SECOND_WINS.
    """
    if i == j:
        raise InvalidPairError(f"cannot compare candidate {i} with itself")
    a, b = (i, j) if i < j else (j, i)
    pos = prep.pair_position[(a, b)]
    hvec = _as_vector(h)
    _check_same_length(hvec, prep.test_signs[pos])
    h_dot_t = float((hvec * prep.test_signs[pos]).sum())
    ledger.add_h_products(1)
    thr = prep.thresholds[pos]
    if i > j:
        h_dot_t, thr = -h_dot_t, -thr
    if h_dot_t > thr:
        return Outcome.FIRST_WINS
    if h_dot_t < thr:
        return Outcome.SECOND_WINS
    return Outcome.DRAW


def scheffe_set(fi, fj) -> np.ndarray:
    """Indices of the atoms where fi strictly exceeds fj (sorted ascending)."""
    a, b = _as_vector(fi), _as_vector(fj)
    _check_same_length(a, b)
    return np.flatnonzero(a > b)


def scheffe_win(fi, fj, h) -> Outcome:
    """Decide the pair by total mass over the region where fi exceeds fj.

    All three inputs must be probability distributions (this route is only
    equivalent to :func:`compare` for normalized mass vectors).  Candidate i
    wins when its total mass over ``scheffe_set(fi, fj)`` is closer to the
    empirical mass of that region than candidate j's.
    """
    a, b, hv = _as_vector(fi), _as_vector(fj), _as_vector(h)
    _check_same_length(a, b, hv)
    for label, vec in (("first", a), ("second", b), ("empirical", hv)):
        if np.any(vec < 0.0) or abs(float(vec.sum()) - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(f"scheffe_win requires normalized inputs; {label} vector is not")
    region = a > b
    mass_i = float(a[region].sum())
    mass_j = float(b[region].sum())
    mass_h = float(hv[region].sum())
    err_i = abs(mass_i - mass_h)
    err_j = abs(mass_j - mass_h)
    if err_i < err_j:
        return Outcome.FIRST_WINS
    if err_i > err_j:
        return Outcome.SECOND_WINS
    return Outcome.DRAW


def _pair_test_signs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign vectors for all unordered pairs (i<j), in lexicographic pair order.

    Raises :class:`CapacityError`, before allocating anything, when the table
    would exceed ``_PAIR_TABLE_MAX_BYTES``.
    """
    m, k = matrix.shape
    pairs = m * (m - 1) // 2
    table_bytes = pairs * (k * matrix.itemsize + 2 * np.dtype(np.intp).itemsize)
    if table_bytes > _PAIR_TABLE_MAX_BYTES:
        raise CapacityError(
            f"pair table of {pairs} pairs on {k} atoms needs {table_bytes} bytes, "
            f"over the guard of {_PAIR_TABLE_MAX_BYTES}"
        )
    idx_i, idx_j = np.triu_indices(m, k=1)
    signs = np.empty((pairs, k))
    for block in _pair_blocks(pairs):
        np.sign(matrix[idx_i[block]] - matrix[idx_j[block]], out=signs[block])
    return idx_i, idx_j, signs


def _pair_table(family: Family) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The family's read-only pair table (endpoints i < j and sign vectors),
    built by :func:`_pair_test_signs` on first use and then kept.

    Pairs come in lexicographic order until :func:`preprocess` replaces the
    table with its distance-sorted one; callers must not depend on the order.
    A build that raises :class:`CapacityError` caches nothing.
    """
    if family._pair_table is None:
        table = _pair_test_signs(family.matrix)
        for arr in table:
            arr.flags.writeable = False
        family._pair_table = table
    return family._pair_table


def _pair_blocks(pairs: int) -> list[slice]:
    """Consecutive slices of at most ``_PAIR_BLOCK`` pairs covering ``pairs``."""
    return [slice(start, start + _PAIR_BLOCK) for start in range(0, pairs, _PAIR_BLOCK)]


def empirical_deviation(g, h, family: Family) -> float:
    """Largest discrepancy between ``g`` and ``h`` over the family's test functions.

    Equals max over unordered candidate pairs of |(g - h) . T_ij|; zero for
    families with fewer than two members (their only test function is 0).
    """
    gv, hv = _as_vector(g), _as_vector(h)
    _check_same_length(gv, hv)
    if gv.shape[0] != family.support.size:
        raise SupportMismatchError(
            f"mass vectors of size {gv.shape[0]} on a family support of size {family.support.size}"
        )
    if family.size < 2:
        return 0.0
    _, _, signs = _pair_test_signs(family.matrix)
    return float(np.abs((signs * (gv - hv)).sum(axis=1)).max())


def empirical_deviation_restricted(g, h, family: Family, i: int) -> float:
    """Deviation of ``h`` from ``g`` over candidate ``i``'s test functions only.

    Max over j != i of |(g - h) . T_ij|; never exceeds the unrestricted
    deviation.  Zero when candidate ``i`` has no partner.
    """
    if not 0 <= i < family.size:
        raise IndexError(f"candidate index {i} out of range for family of size {family.size}")
    gv, hv = _as_vector(g), _as_vector(h)
    _check_same_length(gv, hv, family.matrix[i])
    if family.size < 2:
        return 0.0
    others = np.delete(family.matrix, i, axis=0)
    signs = np.sign(family.matrix[i] - others)
    return float(np.abs((signs * (gv - hv)).sum(axis=1)).max())


class PreprocessedFamily:
    """A family with all data-independent pair quantities precomputed.

    For every unordered pair (i < j) this stores the endpoints, the test
    function, the L1 distance and the comparison threshold
    (fi . T + fj . T) / 2.  Pairs are listed in strictly nonincreasing
    distance order, ties broken lexicographically by (i, j).  Building the
    table takes O(m^2 k) time and memory and touches no empirical data, so it
    charges nothing to any ledger.  The sorted endpoints and test functions
    replace the family's pair table, so the distance selectors read the same
    arrays.
    """

    __slots__ = (
        "family",
        "pairs",
        "pair_position",
        "pair_i",
        "pair_j",
        "test_signs",
        "distances",
        "thresholds",
    )

    def __init__(self, family: Family):
        if family.size == 0:
            raise EmptyFamilyError("cannot preprocess an empty family")
        matrix = family.matrix
        idx_i, idx_j, signs = _pair_table(family)
        dists = np.empty(idx_i.shape[0])
        for block in _pair_blocks(idx_i.shape[0]):
            dists[block] = np.abs(matrix[idx_i[block]] - matrix[idx_j[block]]).sum(axis=1)
        order = np.lexsort((idx_j, idx_i, -dists))
        # Unlink the unsorted table, so it is freed when ``signs`` is rebound
        # instead of living on through the thresholds below.
        family._pair_table = None
        pair_i, pair_j, signs = idx_i[order], idx_j[order], signs[order]
        # Row-wise products with the same elementwise terms and last-axis
        # reduction as inner_product, so each threshold is bit-identical to
        # 0.5 * (inner_product(fi, T) + inner_product(fj, T)).
        thresholds = 0.5 * ((matrix[pair_i] * signs).sum(axis=1) + (matrix[pair_j] * signs).sum(axis=1))

        self.family = family
        self.pairs = tuple(zip(pair_i.tolist(), pair_j.tolist()))
        self.pair_position = {pair: pos for pos, pair in enumerate(self.pairs)}
        self.pair_i = pair_i
        self.pair_j = pair_j
        self.test_signs = signs
        self.distances = dists[order]
        self.thresholds = thresholds
        for arr in (self.pair_i, self.pair_j, self.test_signs, self.distances, self.thresholds):
            arr.flags.writeable = False
        family._pair_table = (pair_i, pair_j, signs)

    @property
    def size(self) -> int:
        return self.family.size

    def test_function_for(self, i: int, j: int) -> TestFunction:
        """The pair's test function, oriented so positive entries favor ``i``."""
        if i == j:
            raise InvalidPairError(f"no test function for the pair ({i}, {i})")
        a, b = (i, j) if i < j else (j, i)
        signs = self.test_signs[self.pair_position[(a, b)]]
        return TestFunction(signs if i < j else -signs)

    def distance(self, i: int, j: int) -> float:
        a, b = (i, j) if i < j else (j, i)
        return float(self.distances[self.pair_position[(a, b)]])


def preprocess(family: Family) -> PreprocessedFamily:
    """Precompute all pair test functions, distances and thresholds for a
    family, in O(m^2 k) time and memory."""
    return PreprocessedFamily(family)
