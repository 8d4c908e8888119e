"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

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
    """A list that grows by the matrix shape of every pair-table build."""
    builds = []
    build = core._pair_test_signs

    def counting(matrix):
        builds.append(matrix.shape)
        return build(matrix)

    monkeypatch.setattr(core, "_pair_test_signs", counting)
    return builds
