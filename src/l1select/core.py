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

The pair table of a family (every unordered pair's endpoints, test function,
L1 distance and comparison threshold) lists the pairs in lexicographic
(i, j) order, in one of two layers built on first need and kept read-only
on the :class:`Family`:

* the sign layer: the P x k test functions, all that the distance
  selectors read;
* the outcome layer: the signs with the distances and thresholds, from one
  fused pass, all that :func:`compare` and the tournament, min-loss-weight
  and elimination selectors read.

A family keeps one layer: the outcome layer replaces the sign layer.  A
pair is found in it by its closed-form lexicographic index.
:func:`preprocess` adds only the distance order, one stable argsort of the
outcome layer's distances, and the pair endpoints gathered through it; only
the elimination selector reads them.  Each layer has its own byte budget,
counted from the arrays it holds, and a layer over ``_PAIR_TABLE_MAX_BYTES``
is refused with :class:`CapacityError` before anything is allocated.
"""

from __future__ import annotations

import enum
import functools
import types
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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

# Largest layer of a pair table that a family builds; larger families fail
# fast with CapacityError instead of exhausting memory.
_PAIR_TABLE_MAX_BYTES = 1 << 30
# Bytes per pair that each layer holds besides its k signs: two endpoints,
# then a distance and a threshold.
_INDEX_BYTES = np.dtype(np.intp).itemsize
_LAYER_PAIR_BYTES = {
    "signs": 2 * _INDEX_BYTES,
    "outcomes": 2 * _INDEX_BYTES + 2 * 8,
}
# Families of up to this many candidates share cached read-only triu index
# arrays, 16 bytes per pair: at most 2.7 MB over every m up to the bound.
_TRIU_CACHE_MAX_M = 100
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

    @classmethod
    def _view(cls, name: str, mass: np.ndarray) -> "Candidate":
        """A candidate over an already checked, read-only mass vector, kept
        without a copy."""
        candidate = cls.__new__(cls)
        candidate.name = name
        candidate.mass = mass
        return candidate

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
    One layer of the pair table (see the module docstring), the sign or the
    outcome layer, is built on first need and kept read-only.
    """

    __slots__ = ("support", "candidates", "matrix", "_lex_pairs")

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
        self._lex_pairs = None

    @classmethod
    def _from_matrix(cls, support: Support, names: Sequence[str], matrix: np.ndarray) -> "Family":
        """The family whose candidates are the rows of a float64 ``matrix``,
        checked in one pass over the whole matrix; the candidates are
        read-only views of its rows.  Raises ValueError when building each
        :class:`Candidate` and then the family would raise; the message does
        not name the candidate at fault.
        """
        names = tuple(names)
        if (
            matrix.shape != (len(names), support.size)
            or len(set(names)) != len(names)
            or not np.isfinite(matrix).all()
            or (matrix < 0.0).any()
        ):
            raise ValueError("mass matrix fails the candidate checks")
        matrix.flags.writeable = False
        family = cls.__new__(cls)
        family.support = support
        family.candidates = tuple(map(Candidate._view, names, matrix))
        family.matrix = matrix
        family._lex_pairs = None
        return family

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


def compare(target: "Family | PreprocessedFamily", i: int, j: int, h, ledger: Ledger) -> Outcome:
    """Compare candidates ``i`` and ``j`` against the empirical mass ``h``.

    Candidate i wins when its signed excess over the data is smaller than
    candidate j's on the pair's test function.  With T = test_function(fi, fj)
    and t = (fi . T + fj . T) / 2 precomputed, this reduces to the single
    data-dependent product h . T:

        h . T >  t   ->  FIRST_WINS
        h . T <  t   ->  SECOND_WINS
        h . T == t   ->  DRAW

    Exactly one ``h_products`` ledger increment per call.  The outcome is
    antisymmetric: swapping i and j flips FIRST_WINS and SECOND_WINS.  ``h``
    is rejected unless it is finite, nonnegative and on the family's support.
    ``target`` is a family or a preprocessed one; either way the pair is read
    from the family's outcome layer, built on first need.
    """
    family = _family_of(target)
    hvec = _validated_h(h, family.support.size)
    return _compare_valid(_pair_layer(family, outcomes=True), family.size, i, j, hvec, ledger)


def _compare_valid(layer: "_PairTable", m: int, i: int, j: int, hvec: np.ndarray, ledger: Ledger) -> Outcome:
    """:func:`compare` on the outcome ``layer`` of ``m`` candidates, for an
    ``hvec`` already passed through :func:`_validated_h`."""
    outcome = _outcome_at(layer, _pair_index(m, i, j), hvec, ledger)
    return outcome if i < j else outcome.flipped()


def _validated_h(h, k: int) -> np.ndarray:
    """The empirical mass as a vector, rejected unless it is finite,
    nonnegative and on a support of size ``k``.  Every selector, and every
    public comparison, runs it once per call, not once per inner compare."""
    hv = _as_vector(h)
    if hv.shape[0] != k:
        raise SupportMismatchError(f"empirical mass of size {hv.shape[0]} on a support of size {k}")
    if not np.all(np.isfinite(hv)):
        raise ValueError("empirical mass has non-finite entries")
    if np.any(hv < 0.0):
        raise ValueError("empirical mass has negative entries")
    return hv


def _outcome_at(layer: "_PairTable", lex: int, hvec: np.ndarray, ledger: Ledger) -> Outcome:
    """Outcome of the pair at lexicographic index ``lex`` of an outcome
    ``layer``, its lower index first, for an ``hvec`` already checked to
    match the support."""
    h_dot_t = float((hvec * layer.signs[lex]).sum())
    ledger.add_h_products(1)
    thr = layer.thresholds[lex]
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


class _PairTable(NamedTuple):
    """One layer of a family's pair table, over every unordered pair (i < j)
    of its candidates in lexicographic order; its endpoints are the triu
    indices.  The sign layer has no distances or thresholds.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    signs: np.ndarray  # P x k test functions sign(f_i - f_j)
    distances: np.ndarray | None
    thresholds: np.ndarray | None  # (f_i . T + f_j . T) / 2


def _pair_index(m: int, i: int, j: int) -> int:
    """Lexicographic index of the pair of candidates ``i`` and ``j`` among
    the pairs of ``m`` candidates."""
    a, b = (i, j) if i < j else (j, i)
    if a == b:
        raise InvalidPairError(f"no pair ({i}, {j}): a candidate is not paired with itself")
    if a < 0 or b >= m:
        raise IndexError(f"pair ({i}, {j}) out of range for family of size {m}")
    return a * (2 * m - a - 1) // 2 + (b - a - 1)


def _check_pair_table_capacity(m: int, k: int, layer: str) -> None:
    """Raise :class:`CapacityError` when ``layer`` ("signs" or "outcomes")
    of the pair table of ``m`` candidates on ``k`` atoms would hold more
    than ``_PAIR_TABLE_MAX_BYTES``: P x k signs plus the P-long arrays of
    that layer."""
    pairs = m * (m - 1) // 2
    layer_bytes = pairs * (k * 8 + _LAYER_PAIR_BYTES[layer])
    if layer_bytes > _PAIR_TABLE_MAX_BYTES:
        raise CapacityError(
            f"pair table ({layer} layer) of {pairs} pairs on {k} atoms needs {layer_bytes} bytes, "
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


def _pair_signs(matrix: np.ndarray) -> _PairTable:
    """The sign layer of the rows of ``matrix``: every pair's test function,
    in lexicographic order, built in blocks of pairs from the raw rows.

    Raises :class:`CapacityError`, before allocating anything, when the
    layer would exceed ``_PAIR_TABLE_MAX_BYTES``.
    """
    m, k = matrix.shape
    _check_pair_table_capacity(m, k, "signs")
    idx_i, idx_j = _triu_indices(m)
    signs = np.empty((idx_i.shape[0], k))
    for block in _pair_blocks(idx_i.shape[0]):
        diffs = matrix.take(idx_i[block], axis=0)
        diffs -= matrix.take(idx_j[block], axis=0)
        np.sign(diffs, out=signs[block])
    return _PairTable(idx_i, idx_j, signs, None, None)


def _pair_outcome_arrays(matrix: np.ndarray) -> _PairTable:
    """The outcome layer of the rows of ``matrix``: every pair's test
    function, distance and threshold, in lexicographic order, in one fused
    blocked pass.

    Each block gathers its rows once.  Each threshold sums the same
    elementwise terms along the last axis as :func:`inner_product`, so it is
    bit-identical to 0.5 * (inner_product(fi, T) + inner_product(fj, T)).
    Sums that overflow give non-finite distances or thresholds, silently;
    :func:`_pair_layer` refuses them.

    Raises :class:`CapacityError`, before allocating anything, when the
    layer would exceed ``_PAIR_TABLE_MAX_BYTES``.
    """
    m, k = matrix.shape
    _check_pair_table_capacity(m, k, "outcomes")
    idx_i, idx_j = _triu_indices(m)
    pairs = idx_i.shape[0]
    signs = np.empty((pairs, k))
    distances = np.empty(pairs)
    thresholds = np.empty(pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _pair_blocks(pairs):
            fi, fj = matrix.take(idx_i[block], axis=0), matrix.take(idx_j[block], axis=0)
            diffs = fi - fj
            block_signs = np.sign(diffs, out=signs[block])
            distances[block] = np.abs(diffs, out=diffs).sum(axis=1)
            fi *= block_signs
            fj *= block_signs
            thresholds[block] = 0.5 * (fi.sum(axis=1) + fj.sum(axis=1))
    return _PairTable(idx_i, idx_j, signs, distances, thresholds)


def _kept(table: _PairTable) -> _PairTable:
    """``table`` with every array made read-only, refused with ValueError
    when it has distances or thresholds that overflowed."""
    if table.distances is not None and not (
        np.isfinite(table.distances).all() and np.isfinite(table.thresholds).all()
    ):
        raise ValueError("pair distances or thresholds overflow: candidate masses too large")
    for arr in table:
        if arr is not None:
            arr.flags.writeable = False
    return table


def _pair_layer(family: Family, *, outcomes: bool) -> _PairTable:
    """The pair arrays a selection reads: the family's layer, built on first
    need and kept.

    That is the sign layer, or with ``outcomes`` the outcome layer, whose
    signs, distances and thresholds come from one fused pass and replace a
    kept sign layer.  An outcome layer whose distances or thresholds
    overflow is refused with ValueError, and a refused build keeps nothing.
    """
    layer = family._lex_pairs
    if layer is None or (outcomes and layer.thresholds is None):
        build = _pair_outcome_arrays if outcomes else _pair_signs
        layer = family._lex_pairs = _kept(build(family.matrix))
    return layer


def _check_candidate_index(family: Family, i: int) -> None:
    """Raise IndexError unless ``i`` indexes a candidate of ``family``."""
    if not 0 <= i < family.size:
        raise IndexError(f"candidate index {i} out of range for family of size {family.size}")


def _family_of(target: "Family | PreprocessedFamily") -> Family:
    """The family of a selection target, which may be either."""
    return target.family if isinstance(target, PreprocessedFamily) else target


def _pair_blocks(pairs: int) -> list[slice]:
    """Consecutive slices of at most ``_PAIR_BLOCK`` pairs covering ``pairs``."""
    return [slice(start, start + _PAIR_BLOCK) for start in range(0, pairs, _PAIR_BLOCK)]


def empirical_deviation(g, h, family: Family) -> float:
    """Largest discrepancy between ``g`` and ``h`` over the family's test functions.

    Equals max over unordered candidate pairs of |(g - h) . T_ij|; zero for
    families with fewer than two members (their only test function is 0).
    The test functions come from a sign layer built from ``family.matrix``
    on every call, never from a layer the family keeps.
    """
    gv, hv = _as_vector(g), _as_vector(h)
    _check_same_length(gv, hv)
    if gv.shape[0] != family.support.size:
        raise SupportMismatchError(
            f"mass vectors of size {gv.shape[0]} on a family support of size {family.support.size}"
        )
    if family.size < 2:
        return 0.0
    signs = _pair_signs(family.matrix).signs
    return float(np.abs((signs * (gv - hv)).sum(axis=1)).max())


def empirical_deviation_restricted(g, h, family: Family, i: int) -> float:
    """Deviation of ``h`` from ``g`` over candidate ``i``'s test functions only.

    Max over j != i of |(g - h) . T_ij|; never exceeds the unrestricted
    deviation.  Zero when candidate ``i`` has no partner.
    """
    _check_candidate_index(family, i)
    gv, hv = _as_vector(g), _as_vector(h)
    _check_same_length(gv, hv, family.matrix[i])
    if family.size < 2:
        return 0.0
    others = np.delete(family.matrix, i, axis=0)
    signs = np.sign(family.matrix[i] - others)
    return float(np.abs((signs * (gv - hv)).sum(axis=1)).max())


class PreprocessedFamily:
    """A family with the distance order of its pairs: the preprocessing the
    elimination selector needs.

    ``order`` lists the lexicographic indices of the pairs by nonincreasing
    L1 distance, ties broken lexicographically by (i, j); ``pair_i`` and
    ``pair_j`` are the pairs' endpoints gathered through it.  Everything
    else about a pair, its test function, distance and threshold, stays in
    the family's outcome layer, in lexicographic order.  Building takes
    O(m^2 k) time and memory and touches no empirical data, so it charges
    nothing to any ledger.
    """

    __slots__ = ("family", "order", "pair_i", "pair_j", "_pairs", "_pair_position")

    def __init__(self, family: Family):
        if family.size == 0:
            raise EmptyFamilyError("cannot preprocess an empty family")
        layer = _pair_layer(family, outcomes=True)
        # Stable, so equal distances keep the layer's lexicographic order.
        order = np.argsort(-layer.distances, kind="stable")
        arrays = (order, layer.pair_i[order], layer.pair_j[order])
        for arr in arrays:
            arr.flags.writeable = False
        self.family = family
        self.order, self.pair_i, self.pair_j = arrays
        self._pairs = None
        self._pair_position = None

    @property
    def size(self) -> int:
        return self.family.size

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs (i, j) in list order, built on first use."""
        if self._pairs is None:
            self._pairs = tuple(zip(self.pair_i.tolist(), self.pair_j.tolist()))
        return self._pairs

    @property
    def pair_position(self) -> Mapping[tuple[int, int], int]:
        """Read-only map from each pair (i, j), i < j, to its place in the
        list, built on first use."""
        if self._pair_position is None:
            self._pair_position = types.MappingProxyType(
                {pair: pos for pos, pair in enumerate(self.pairs)}
            )
        return self._pair_position


def preprocess(family: Family) -> PreprocessedFamily:
    """The distance order of a family's pairs, in O(m^2 k) time and memory.

    Builds the family's outcome layer, P * (8k + 32) bytes, unless it keeps
    one; the order and the two gathered endpoint arrays add 24 bytes a pair,
    P * (8k + 56) in all.  Only
    :func:`~l1select.selectors.efficient_min_loss_weight` reads the order,
    and it preprocesses a :class:`Family` itself.  An outcome layer over
    ``_PAIR_TABLE_MAX_BYTES`` is refused (:class:`CapacityError`), as are
    distances or thresholds that overflow (ValueError).
    """
    return PreprocessedFamily(family)
