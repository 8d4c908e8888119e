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

Every public function of the package that takes a mass vector (a
candidate, a truth ``g`` or an empirical ``h``) checks it once per call, in
one place: it refuses a NaN, infinite or negative entry, or a length times
largest entry over an eighth of the float maximum (so that no sum downstream
can overflow), with ValueError, and a length other than the support's with
:class:`SupportMismatchError`.  Where the vector must be a distribution (an
:class:`EmpiricalDistribution`, a candidate built with
``distribution=True``, the inputs of :func:`scheffe_win` and of
``sample_empirical``), a total more than ``NORMALIZATION_TOL`` from 1 is
refused with :class:`NormalizationError`.
Elsewhere the total is not checked, so library callers may pass an
unnormalized ``h``; the selectors' guarantees assume a normalized one.
The real-vector primitives, :func:`test_function`, :func:`inner_product`,
:func:`l1_distance`, :func:`scheffe_set` and the oracle's
``check_quadruple``, take any finite vectors of one length, signed ones
too, and refuse a NaN or infinite entry with ValueError and a wrong length
with :class:`SupportMismatchError`.

The pair table of a family (every unordered pair's endpoints, test function,
L1 distance and comparison threshold) lists the pairs in lexicographic
(i, j) order.  Only :func:`preprocess` builds it, in one fused blocked pass,
and keeps it read-only on the :class:`Family`, with the distance order:
one stable argsort of the table's distances, and the pair endpoints
gathered through it.  Nothing else builds or keeps a table.  Every other
reader computes the rows it needs from the raw rows with
:func:`_table_rows`, the code that builds the table, so they are
bit-identical to the kept ones, and drops them after use, unless it reads
the kept table where the family has one:

* the tournament, the min-loss-weight and modified min-distance selectors
  and ``relaxed_selection_check`` walk :func:`_table_blocks`, the kept
  table as one block or 256 computed pairs at a time;
* :func:`compare` computes its pair's one row and ``loss_weight`` its
  candidate's m-1 rows, whether or not the family keeps a table;
* the min-distance selector reads the test functions alone, from
  :func:`_sign_blocks`;
* :func:`empirical_deviation` computes the test functions from the raw
  rows, block by block, on every call, whatever the family keeps.

Only the elimination selector needs the distance order, and it preprocesses
the family it is given.  There is one family type: ``PreprocessedFamily``
is another name for :class:`Family`.  A table over
``_PAIR_TABLE_MAX_BYTES``, counted from the arrays it holds, is refused with
:class:`CapacityError` before anything is allocated.  That guard is on
:func:`preprocess` alone: a streamed reader holds one block of rows at a
time, and past the cached triu indices of small families works out the
block's endpoints from their lexicographic indices
(:func:`_endpoint_blocks`), so it holds O(m) memory besides.
"""

from __future__ import annotations

import enum
import functools
import types
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
# Largest accepted length times largest entry of a mass vector (see _checked_mass).
_MASS_BOUND = float(np.finfo(np.float64).max) / 8

# Largest pair table that a family builds; larger families fail fast with
# CapacityError instead of exhausting memory.
_PAIR_TABLE_MAX_BYTES = 1 << 30
# Bytes per pair that the table holds besides its k signs: two endpoints, a
# distance and a threshold.
_PAIR_BYTES = 2 * np.dtype(np.intp).itemsize + 2 * 8
# Families of up to this many candidates share cached read-only triu index
# arrays, 16 bytes per pair: at most 2.7 MB over every m up to the bound.
_TRIU_CACHE_MAX_M = 100
# Pairs per block when a computation walks the pair table, so its temporaries
# stay block-sized (and cache-resident) instead of growing with the table.
# Larger blocks run slightly faster but make BLAS touch more packing memory in
# the min-distance screen (at m=96, k=64: about 0.5 MB more peak RSS at 512).
_PAIR_BLOCK = 256
# Pairs whose endpoints a streamed walk past the triu cache works out at a
# time, a whole number of blocks, so that the numpy calls it takes are
# shared by many blocks and its memory stays bounded.
_ENDPOINT_SPAN = 32 * _PAIR_BLOCK


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


def _checked_mass(values, noun: str, k: int | None = None, *, normalized: bool = False) -> np.ndarray:
    """``values`` coerced by :func:`_as_vector`, refused unless it is a mass
    vector; ``noun`` names it in the message.

    Refuses a length other than ``k``, when ``k`` is given
    (:class:`SupportMismatchError`), a NaN, infinite or negative entry, a
    length times largest entry above ``_MASS_BOUND`` (ValueError) and, with
    ``normalized``, a total more than ``NORMALIZATION_TOL`` from 1
    (:class:`NormalizationError`).  Every public function that takes a mass
    vector checks it here, once per call.

    With F the float maximum, an accepted vector of length k has entries at
    most F/8k, so its norm and its product with any test function are at
    most F/8, rounding aside.  So every sum built from one or two accepted
    vectors stays at or below F/4, and none downstream needs an overflow
    guard: distances, ||f - h||_1 and min-distance terms are at most F/4,
    below the F/2 where the screen's rounding bound could fail; thresholds
    and h . T at most F/8; the randomized selector's n1 + n2 at most F/2.
    """
    arr = _as_vector(values)
    if k is not None and arr.shape[0] != k:
        raise SupportMismatchError(f"{noun} has {arr.shape[0]} entries on a support of size {k}")
    _check_entries(arr, noun, arr.shape[0])
    if normalized:
        total = float(arr.sum())
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise NormalizationError(f"{noun} must sum to 1, got {total!r}")
    return arr


def _check_entries(arr: np.ndarray, noun: str, length: int) -> None:
    """Refuse (ValueError) the entries of ``arr``, mass vectors of ``length``
    entries, unless finite, nonnegative and at most ``_MASS_BOUND / length``.
    Two reductions test all three: NaN fails both comparisons, inf the
    product (a Python float, so no overflow warning); the entries are
    scanned again only to word a refusal."""
    top = float(arr.max(initial=0.0))
    if not (arr.min(initial=0.0) >= 0.0 and top * length <= _MASS_BOUND):
        if not np.isfinite(arr).all():
            fault = "non-finite mass entries"
        elif not arr.min() >= 0.0:
            fault = "negative mass entries"
        else:
            fault = f"mass entries too large: {length} times {top!r} exceeds {_MASS_BOUND!r}"
        raise ValueError(f"{noun} has {fault}")


def _real_vectors(*values, noun: str = "pair") -> tuple[np.ndarray, ...]:
    """``values`` coerced by :func:`_as_vector`, refused unless they have
    one length (:class:`SupportMismatchError`) and every entry is finite
    (ValueError; ``noun`` names them in the message).  Signed entries are
    accepted: the real-vector primitives also take differences such as
    ``a - b``."""
    vectors = tuple(map(_as_vector, values))
    sizes = {v.shape[0] for v in vectors}
    if len(sizes) != 1:
        raise SupportMismatchError(f"mass vectors live on different supports: sizes {sorted(sizes)}")
    if not all(np.isfinite(v).all() for v in vectors):
        raise ValueError(f"{noun} has non-finite entries")
    return vectors


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
        arr = _checked_mass(mass, f"candidate {name!r}", normalized=distribution).copy()
        arr.flags.writeable = False
        self.name = name
        self.mass = arr

    @classmethod
    def _view(cls, name: str, mass: np.ndarray) -> "Candidate":
        """A candidate over an already checked, read-only mass vector, kept
        without a copy."""
        candidate = cls.__new__(cls)
        candidate.name = name
        candidate.mass = mass
        return candidate

    def is_distribution(self, tol: float = NORMALIZATION_TOL) -> bool:
        return abs(float(self.mass.sum()) - 1.0) <= tol

    def __repr__(self):
        return f"Candidate({self.name!r}, total_mass={float(self.mass.sum()):.6g})"


class EmpiricalDistribution:
    """A normalized mass vector, optionally remembering how many samples built it."""

    __slots__ = ("mass", "sample_count")

    def __init__(self, mass, sample_count: int | None = None):
        arr = _checked_mass(mass, "empirical distribution", normalized=True).copy()
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
    The pair table (see the module docstring) and ``order``, ``pair_i`` and
    ``pair_j``, the distance order of the pairs and their endpoints gathered
    through it, are None until :func:`preprocess` fills them in, read-only;
    nothing else fills them in.
    """

    __slots__ = ("support", "candidates", "matrix", "_lex_pairs",
                 "order", "pair_i", "pair_j", "_pairs", "_pair_position")

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
        self._set_rows(support, cands, matrix)

    def _set_rows(self, support: Support, candidates: tuple, matrix: np.ndarray) -> None:
        """Set the support, the candidates and the read-only matrix, with
        nothing derived from them built yet."""
        self.support, self.candidates, self.matrix = support, candidates, matrix
        self._lex_pairs = self.order = self.pair_i = self.pair_j = self._pairs = self._pair_position = None

    @classmethod
    def _from_matrix(cls, support: Support, names: Sequence[str], matrix: np.ndarray) -> "Family":
        """The family whose candidates are the rows of a float64 ``matrix``,
        checked in one pass over the whole matrix; the candidates are
        read-only views of its rows.  Raises ValueError when building each
        :class:`Candidate` and then the family would raise; the message does
        not name the candidate at fault.
        """
        names = tuple(names)
        if matrix.shape != (len(names), support.size) or len(set(names)) != len(names):
            raise ValueError("mass matrix fails the candidate checks")
        _check_entries(matrix, "mass matrix", support.size)
        matrix.flags.writeable = False
        family = cls.__new__(cls)
        family._set_rows(support, tuple(map(Candidate._view, names, matrix)), matrix)
        return family

    @property
    def size(self) -> int:
        return len(self.candidates)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.candidates)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs (i, j) in distance order, built on first use; the
        family is preprocessed first."""
        if self._pairs is None:
            preprocess(self)
            self._pairs = tuple(zip(self.pair_i.tolist(), self.pair_j.tolist()))
        return self._pairs

    @property
    def pair_position(self) -> Mapping[tuple[int, int], int]:
        """Read-only map from each pair (i, j), i < j, to its place in the
        distance order, built on first use."""
        if self._pair_position is None:
            self._pair_position = types.MappingProxyType({pair: pos for pos, pair in enumerate(self.pairs)})
        return self._pair_position

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
    a, b = _real_vectors(fi, fj)
    return TestFunction(np.sign(a - b))


def inner_product(v, t) -> float:
    """Inner product of a mass-like vector with a test function (or raw sign vector)."""
    vec, signs = _real_vectors(v, t.signs if isinstance(t, TestFunction) else t)
    # Elementwise multiply + pairwise sum: the same reduction order as
    # np.abs(...).sum(), so |d| . 1 and d . sign(d) agree bit for bit.
    return float((vec * signs).sum())


def l1_distance(fi, fj) -> float:
    """L1 distance between two mass vectors.

    Equals ``inner_product(fi - fj, test_function(fi, fj))`` exactly, because
    x * sign(x) == |x| holds entrywise in IEEE arithmetic and both sides are
    summed in the same order.
    """
    a, b = _real_vectors(fi, fj)
    return float(np.abs(a - b).sum())


def compare(family: Family, i: int, j: int, h, ledger: Ledger) -> Outcome:
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
    The pair's row is computed from its two raw rows by the code that
    builds the pair table, so it is bit-identical to the kept row, and
    dropped.
    """
    hvec = _checked_mass(h, "empirical distribution", family.support.size)
    a, b = _ordered_pair(family.size, i, j)
    outcome = _outcome_at(_table_rows(family.matrix, [a], [b]), 0, hvec, ledger)
    return outcome if i < j else outcome.flipped()


def _outcome_at(layer: "_PairTable", lex: int, hvec: np.ndarray, ledger: Ledger) -> Outcome:
    """Outcome of the pair at lexicographic index ``lex`` of a pair table
    ``layer``, its lower index first, for an ``hvec`` already checked to
    match the support."""
    # The pairwise reduction ndarray.sum runs, without its Python wrapper.
    h_dot_t = float(np.add.reduce(hvec * layer.signs[lex]))
    ledger.add_h_products(1)
    thr = layer.thresholds[lex]
    if h_dot_t > thr:
        return Outcome.FIRST_WINS
    if h_dot_t < thr:
        return Outcome.SECOND_WINS
    return Outcome.DRAW


def scheffe_set(fi, fj) -> np.ndarray:
    """Indices of the atoms where fi strictly exceeds fj (sorted ascending)."""
    a, b = _real_vectors(fi, fj)
    return np.flatnonzero(a > b)


def scheffe_win(fi, fj, h) -> Outcome:
    """Decide the pair by total mass over the region where fi exceeds fj.

    All three inputs must be probability distributions (this route is only
    equivalent to :func:`compare` for normalized mass vectors).  Candidate i
    wins when its total mass over ``scheffe_set(fi, fj)`` is closer to the
    empirical mass of that region than candidate j's.
    """
    a = _checked_mass(fi, "first candidate", normalized=True)
    b = _checked_mass(fj, "second candidate", a.shape[0], normalized=True)
    hv = _checked_mass(h, "empirical distribution", a.shape[0], normalized=True)
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


class _PairTable(NamedTuple):
    """A family's pair table, over every unordered pair (i < j) of its
    candidates in lexicographic order; its endpoints are the triu indices."""

    pair_i: np.ndarray
    pair_j: np.ndarray
    signs: np.ndarray  # P x k test functions sign(f_i - f_j)
    distances: np.ndarray
    thresholds: np.ndarray  # (f_i . T + f_j . T) / 2


def _ordered_pair(m: int, i: int, j: int) -> tuple[int, int]:
    """The pair of candidates ``i`` and ``j`` among ``m`` candidates, its
    lower index first."""
    a, b = (i, j) if i < j else (j, i)
    if a == b:
        raise InvalidPairError(f"no pair ({i}, {j}): a candidate is not paired with itself")
    if a < 0 or b >= m:
        raise IndexError(f"pair ({i}, {j}) out of range for family of size {m}")
    return a, b


def _check_pair_table_capacity(m: int, k: int) -> None:
    """Raise :class:`CapacityError` when the pair table of ``m`` candidates
    on ``k`` atoms would hold more than ``_PAIR_TABLE_MAX_BYTES``: P x k
    signs plus its four P-long arrays."""
    pairs = m * (m - 1) // 2
    table_bytes = pairs * (k * 8 + _PAIR_BYTES)
    if table_bytes > _PAIR_TABLE_MAX_BYTES:
        raise CapacityError(
            f"pair table of {pairs} pairs on {k} atoms needs {table_bytes} bytes, "
            f"over the guard of {_PAIR_TABLE_MAX_BYTES}"
        )


@functools.lru_cache(maxsize=_TRIU_CACHE_MAX_M)
def _cached_triu_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.triu_indices(m, k=1)
    for arr in idx:
        arr.flags.writeable = False
    return idx


def _triu_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (i, j), i < j, of every pair in lexicographic order; kept
    for small ``m``, where building them costs more than using them."""
    return _cached_triu_indices(m) if m <= _TRIU_CACHE_MAX_M else np.triu_indices(m, k=1)


def _pair_outcome_arrays(matrix: np.ndarray) -> _PairTable:
    """The pair table of the rows of ``matrix``: every pair's test
    function, distance and threshold, in lexicographic order, in one fused
    pass of :func:`_table_rows` over blocks of pairs.

    Raises :class:`CapacityError`, before allocating anything, when the
    table would exceed ``_PAIR_TABLE_MAX_BYTES``.
    """
    m, k = matrix.shape
    _check_pair_table_capacity(m, k)
    idx_i, idx_j = _triu_indices(m)
    pairs = idx_i.shape[0]
    signs = np.empty((pairs, k))
    distances = np.empty(pairs)
    thresholds = np.empty(pairs)
    for block in _pair_blocks(pairs):
        rows = _table_rows(matrix, idx_i[block], idx_j[block], signs[block])
        distances[block], thresholds[block] = rows.distances, rows.thresholds
    return _PairTable(idx_i, idx_j, signs, distances, thresholds)


def _table_rows(matrix: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, signs=None) -> _PairTable:
    """The rows of the pair table of the rows of ``matrix`` for the pairs
    (``pair_i``, ``pair_j``), computed from the raw rows, the test functions
    written into ``signs`` when it is given.

    The endpoints are gathered once.  Each threshold sums the same
    elementwise terms along the last axis as :func:`inner_product`, so it is
    bit-identical to 0.5 * (inner_product(fi, T) + inner_product(fj, T)).
    """
    fi, fj = matrix.take(pair_i, axis=0), matrix.take(pair_j, axis=0)
    diffs = fi - fj
    signs = np.sign(diffs, out=signs)
    distances = np.abs(diffs, out=diffs).sum(axis=1)
    fi *= signs
    fj *= signs
    return _PairTable(pair_i, pair_j, signs, distances, 0.5 * (fi.sum(axis=1) + fj.sum(axis=1)))


def _sign_blocks(family: Family) -> Iterator[np.ndarray]:
    """The test functions of each block of the family's pairs in
    lexicographic order: slices of the pair table the family keeps, or
    :func:`_raw_sign_blocks` when it keeps none."""
    layer = family._lex_pairs
    if layer is None:
        return _raw_sign_blocks(family.matrix)
    return (layer.signs[b] for b in _pair_blocks(layer.signs.shape[0]))


def _table_blocks(family: Family) -> Iterator[_PairTable]:
    """The family's pair table as one block when it keeps one, or else its
    rows block by block, each computed from the raw rows by
    :func:`_table_rows`, the code that builds the table.  The blocks share
    one sign buffer, so each is valid only until the next is made.  A
    family of one member that keeps no table yields no block."""
    layer = family._lex_pairs
    if layer is not None:
        yield layer
        return
    signs = np.empty((min(family.size * (family.size - 1) // 2, _PAIR_BLOCK), family.support.size))
    for pair_i, pair_j in _endpoint_blocks(family.size):
        yield _table_rows(family.matrix, pair_i, pair_j, signs[: pair_i.shape[0]])


def _candidate_rows(family: Family, c: int) -> _PairTable:
    """The m-1 rows of the family's pair table that pair candidate ``c``
    with a rival, in lexicographic order, which lists the rivals in index
    order too, computed from the raw rows by :func:`_table_rows`."""
    # The n-th rival is n below c and n + 1 from c on.
    nth = np.arange(family.size - 1)
    return _table_rows(family.matrix, np.minimum(nth, c), np.maximum(nth + 1, c))


def _raw_sign_blocks(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """The test functions of each block of the pairs of the rows of
    ``matrix`` in lexicographic order, computed from its raw rows, dropped
    after use."""
    for pair_i, pair_j in _endpoint_blocks(matrix.shape[0]):
        diffs = matrix.take(pair_i, axis=0)
        diffs -= matrix.take(pair_j, axis=0)
        # Not in place: np.sign over its own input ran 2.7x slower (numpy 2.4.6).
        yield np.sign(diffs)


def _endpoint_blocks(m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The endpoints (i, j) of the pairs of ``m`` candidates in each block
    of :func:`_pair_blocks`, in lexicographic order: slices of the cached
    triu indices, or past the cache of :func:`_endpoint_spans`, so a walk
    never holds the triu indices' 16 bytes a pair (3.2 GB at m=20000)."""
    spans = (_cached_triu_indices(m),) if m <= _TRIU_CACHE_MAX_M else _endpoint_spans(m)
    for idx_i, idx_j in spans:
        for block in _pair_blocks(idx_i.shape[0]):
            yield idx_i[block], idx_j[block]


def _endpoint_spans(m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The endpoints (i, j) of the pairs of ``m`` candidates in
    lexicographic order, ``_ENDPOINT_SPAN`` pairs at a time: each span's
    rows i repeated as often as they pair within it, and each j from its
    lexicographic index.  O(m) memory besides one span."""
    pairs = m * (m - 1) // 2
    rows = np.arange(m - 1)
    bounds = np.append(rows * (2 * m - rows - 1) // 2, pairs)  # row i's pairs are bounds[i]:bounds[i + 1]
    for start in range(0, pairs, _ENDPOINT_SPAN):
        stop = min(start + _ENDPOINT_SPAN, pairs)
        first, last = bounds.searchsorted([start, stop - 1], side="right") - 1
        pair_i = np.repeat(rows[first : last + 1], np.diff(bounds[first : last + 2].clip(start, stop)))
        yield pair_i, np.arange(start, stop) - bounds[pair_i] + pair_i + 1


def _check_candidate_index(family: Family, i: int) -> None:
    """Raise IndexError unless ``i`` indexes a candidate of ``family``."""
    if not 0 <= i < family.size:
        raise IndexError(f"candidate index {i} out of range for family of size {family.size}")


def _pair_blocks(pairs: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_PAIR_BLOCK`` pairs covering ``pairs``."""
    return (slice(start, start + _PAIR_BLOCK) for start in range(0, pairs, _PAIR_BLOCK))


def empirical_deviation(g, h, family: Family) -> float:
    """Largest discrepancy between ``g`` and ``h`` over the family's test functions.

    Equals max over unordered candidate pairs of |(g - h) . T_ij|; zero for
    families with fewer than two members (their only test function is 0).
    The test functions come from ``family.matrix`` in blocks of pairs on
    every call, never from a table the family keeps.
    """
    gv = _checked_mass(g, "truth", family.support.size)
    hv = _checked_mass(h, "empirical distribution", family.support.size)
    diff = gv - hv
    terms = (np.abs((signs * diff).sum(axis=1)).max() for signs in _raw_sign_blocks(family.matrix))
    return float(max(terms, default=0.0))


def empirical_deviation_restricted(g, h, family: Family, i: int) -> float:
    """Deviation of ``h`` from ``g`` over candidate ``i``'s test functions only.

    Max over j != i of |(g - h) . T_ij|; never exceeds the unrestricted
    deviation.  Zero when candidate ``i`` has no partner.
    """
    _check_candidate_index(family, i)
    gv = _checked_mass(g, "truth", family.support.size)
    hv = _checked_mass(h, "empirical distribution", family.support.size)
    if family.size < 2:
        return 0.0
    others = np.delete(family.matrix, i, axis=0)
    signs = np.sign(family.matrix[i] - others)
    return float(np.abs((signs * (gv - hv)).sum(axis=1)).max())


def preprocess(family: Family) -> Family:
    """Build and keep the family's pair table and distance order, in
    O(m^2 k) time and memory, and return the family; a family that has
    them is returned as it is.  This is the one code that builds a pair
    table.

    The table, P * (8k + 32) bytes, is built by one fused pass over blocks
    of pairs (see the module docstring).  ``order`` lists the lexicographic
    indices of the pairs by nonincreasing L1 distance, ties broken
    lexicographically by (i, j), and ``pair_i`` and ``pair_j`` the pairs'
    endpoints gathered through it; the three arrays add 24 bytes a pair.
    Everything is kept read-only.  Touches no empirical data, so it charges
    nothing to any ledger.  An empty family (:class:`EmptyFamilyError`) or
    a table over ``_PAIR_TABLE_MAX_BYTES`` (:class:`CapacityError`) is
    refused, and nothing is filled in.
    """
    if family.order is None:
        if family.size == 0:
            raise EmptyFamilyError("cannot preprocess an empty family")
        layer = _pair_outcome_arrays(family.matrix)
        for arr in layer:
            arr.flags.writeable = False
        family.order, family.pair_i, family.pair_j = _distance_order(layer)
        family._lex_pairs = layer
    return family


def _distance_order(layer: _PairTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distance order of a pair table and the endpoints gathered
    through it, read-only."""
    # Stable, so equal distances keep the table's lexicographic order.
    order = np.argsort(-layer.distances, kind="stable")
    arrays = (order, layer.pair_i[order], layer.pair_j[order])
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


# The type of a preprocessed family, kept as a name for code that imports it:
# preprocessing fills in a Family, it makes no other type.
PreprocessedFamily = Family
