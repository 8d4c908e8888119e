"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from l1select import (
    Candidate,
    EmpiricalDistribution,
    Family,
    Support,
    core,
    lower_bound_pair,
    lower_bound_tournament,
)

# Timing assertions elsewhere make per-example deadlines meaningless noise.
settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


# The mass check's bound on a vector's length times its largest entry: an
# eighth of the float maximum.
MASS_BOUND = float(np.finfo(np.float64).max) / 8


def largest_accepted_exponent(k: int, *arrays) -> int:
    """The largest s such that every array scaled by 2**s, read as mass
    vectors of ``k`` entries, passes the mass check: k times its largest
    entry is at most MASS_BOUND."""
    top = max(float(np.max(a)) for a in arrays)
    s = math.floor(math.log2(MASS_BOUND / (k * top)))
    while k * math.ldexp(top, s + 1) <= MASS_BOUND:
        s += 1
    while k * math.ldexp(top, s) > MASS_BOUND:
        s -= 1
    return s


def make_family(rows, names=None, support=None) -> Family:
    """Build a family from a list of mass rows with defaulted names/support."""
    matrix = np.asarray(rows, dtype=np.float64)
    if support is None:
        support = Support.default(matrix.shape[1])
    if names is None:
        names = [f"f{i + 1}" for i in range(matrix.shape[0])]
    return Family(support, [Candidate(n, row) for n, row in zip(names, matrix)])


@pytest.fixture
def pair_instance():
    """The two-candidate lower-bound construction at eps close to 1e-2.

    With h equal to the truth the single comparison is an exact draw, which
    exercises every tie-breaking rule downstream.
    """
    return lower_bound_pair(1e-2)


@pytest.fixture
def tournament_instance():
    """The four-candidate construction (f1, f2, f3 and a duplicate of f3)
    whose win cycle makes the most-wins rule select the worst candidate."""
    return lower_bound_tournament(1e-3)


@pytest.fixture
def simple_family():
    """A small hand-written family of three distributions on four atoms."""
    return make_family(
        [
            [0.4, 0.3, 0.2, 0.1],
            [0.1, 0.2, 0.3, 0.4],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )


@pytest.fixture
def uniform_empirical():
    return EmpiricalDistribution([0.25, 0.25, 0.25, 0.25])


@pytest.fixture
def pair_table_builds(monkeypatch):
    """A list that grows by the matrix shape at every build of a pair table:
    the test functions with their distances and thresholds."""
    builds = []
    build = core._pair_outcome_arrays

    def counted(matrix):
        builds.append(matrix.shape)
        return build(matrix)

    monkeypatch.setattr(core, "_pair_outcome_arrays", counted)
    return builds
