"""Instance generators: adversarial constructions, a VC-gap family, random
instances, and empirical sampling.

The two adversarial constructions are parameterized by a gap ``eps`` and are
built so that their defining identities hold in double precision, not just on
paper.  ``lower_bound_pair`` demonstrates that no deterministic comparison
rule can beat three times the best achievable error; ``lower_bound_tournament``
does the same for the win-count tournament at constant nine.  ``vc_gap_family``
builds a family whose full region system has a much larger VC dimension than
any single candidate's regions.  ``random_instance`` and ``sample_empirical``
supply seeded raw material for property sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Candidate,
    EmpiricalDistribution,
    Family,
    Support,
    _checked_mass,
)

__all__ = [
    "EPS_GRID",
    "Instance",
    "lower_bound_pair",
    "swap_pair",
    "lower_bound_tournament",
    "vc_gap_family",
    "random_instance",
    "sample_empirical",
]

# lower_bound_pair snaps eps to this dyadic grid.  Every table entry is then a
# sum of a few bits between 2^-1 and 2^-41, hence exactly representable, and
# every inner product of the construction is computed without rounding: draws
# that should be exact draws really are.  The snap moves eps by at most 2^-42,
# far inside the 1e-12 tolerance of the construction's closed forms.
EPS_GRID = 2.0**-41

_SWAP_SUFFIX = "/swapped"


@dataclass
class Instance:
    """A family, the truth it approximates, and the empirical data shown to
    selectors, plus a provenance label (and the effective gap for the
    constructions that have one)."""

    family: Family
    truth: np.ndarray
    empirical: EmpiricalDistribution
    label: str
    eps: float | None = None

    def __post_init__(self):
        truth = _checked_mass(self.truth, "truth", self.family.support.size).copy()
        truth.flags.writeable = False
        self.truth = truth


def lower_bound_pair(eps: float) -> Instance:
    """Two candidates and a truth for which every draw-tolerant comparison rule
    errs by nearly three times the best candidate.

    Over four atoms, with ``e`` the grid-snapped gap:

        f1 = (0,       1/4 + e,  1/2,  1/4 - e)
        f2 = (1/2 + e, 1/4 - e,  0,    1/4    )
        g = h = (1/2, 1/2, 0, 0)

    The construction satisfies f1 . T = -f2 . T = 1/2 + 2e and h . T = 0
    exactly for the pair's test function T, so comparing the pair against h is
    an exact draw; a selector that then prefers the first-listed candidate
    picks f1 with error 3/2 - 2e even though f2 achieves 1/2 + 2e.

    Args:
        eps: gap in (0, 1/4); snapped to the nearest multiple of ``EPS_GRID``.

    Raises:
        ValueError: if ``eps`` (or its snapped value) falls outside (0, 1/4).
    """
    if not 0.0 < eps < 0.25:
        raise ValueError(f"eps must lie in (0, 1/4), got {eps}")
    e = round(eps / EPS_GRID) * EPS_GRID
    if not 0.0 < e < 0.25:
        raise ValueError(f"eps={eps} snaps outside (0, 1/4) on the 2**-41 grid")
    support = Support.default(4)
    f1 = Candidate("f1", [0.0, 0.25 + e, 0.5, 0.25 - e], distribution=True)
    f2 = Candidate("f2", [0.5 + e, 0.25 - e, 0.0, 0.25], distribution=True)
    g = np.array([0.5, 0.5, 0.0, 0.0])
    return Instance(
        family=Family(support, [f1, f2]),
        truth=g,
        empirical=EmpiricalDistribution(g),
        label=f"pair-lower-bound(eps={e!r})",
        eps=e,
    )


def swap_pair(instance: Instance) -> Instance:
    """The same two-candidate instance with the candidates listed in the other
    order.

    A deterministic selector sees identical comparison data on the original
    and the swap (only the listing order changed), so whichever index it
    prefers, on one of the two instances that index holds the bad candidate.
    Applying the swap twice returns the original instance.
    """
    if instance.family.size != 2:
        raise ValueError(f"swap needs a family of exactly 2 candidates, got {instance.family.size}")
    first, second = instance.family.candidates
    swapped = Family(instance.family.support, [second, first])
    if instance.label.endswith(_SWAP_SUFFIX):
        label = instance.label[: -len(_SWAP_SUFFIX)]
    else:
        label = instance.label + _SWAP_SUFFIX
    return Instance(
        family=swapped,
        truth=instance.truth,
        empirical=instance.empirical,
        label=label,
        eps=instance.eps,
    )


def lower_bound_tournament(eps: float) -> Instance:
    """Four candidates (one duplicated) on six atoms for which the win-count
    tournament errs by nearly nine times the best candidate.

    With gap ``e`` the truth and candidates are

        g = h = (2/3 - 21e,  1/9 - 2e,  9e,         0,          2/9 + 14e,  0        )
        f1    = (0,          18e,       2/3 - 12e,  2/9 - 13e,  9e,         1/9 - 2e )
        f2    = (2/3 - 30e,  0,         0,          0,          2/9 + 14e,  1/9 + 16e)
        f3    = (2/3 - 21e,  9e,        9e,         2/9 - 4e,   0,          1/9 + 7e )

    and the family is (f1, f2, f3, f3p) with f3p an exact copy of f3.  The
    pairwise wins cycle -- f1 beats f3 (and its copy), f3 beats f2, f2 beats
    f1 -- so f1 collects two wins and the tournament selects it, with error
    2 - 72e against the best member f2 at 2/9 + 32e.

    Args:
        eps: gap in (0, 1/60]; the upper end keeps every table entry >= 0.

    Raises:
        ValueError: if ``eps`` is out of range.
    """
    if not 0.0 < eps <= 1.0 / 60.0:
        raise ValueError(f"eps must lie in (0, 1/60], got {eps}")
    e = float(eps)
    support = Support.default(6)
    g = np.array([2.0 / 3.0 - 21 * e, 1.0 / 9.0 - 2 * e, 9 * e, 0.0, 2.0 / 9.0 + 14 * e, 0.0])
    f1 = [0.0, 18 * e, 2.0 / 3.0 - 12 * e, 2.0 / 9.0 - 13 * e, 9 * e, 1.0 / 9.0 - 2 * e]
    f2 = [2.0 / 3.0 - 30 * e, 0.0, 0.0, 0.0, 2.0 / 9.0 + 14 * e, 1.0 / 9.0 + 16 * e]
    f3 = np.array([2.0 / 3.0 - 21 * e, 9 * e, 9 * e, 2.0 / 9.0 - 4 * e, 0.0, 1.0 / 9.0 + 7 * e])
    family = Family(
        support,
        [
            Candidate("f1", f1, distribution=True),
            Candidate("f2", f2, distribution=True),
            Candidate("f3", f3, distribution=True),
            Candidate("f3p", f3, distribution=True),
        ],
    )
    return Instance(
        family=family,
        truth=g,
        empirical=EmpiricalDistribution(g),
        label=f"tournament-lower-bound(eps={e!r})",
        eps=e,
    )


def vc_gap_family(n: int) -> Family:
    """A family whose full region system shatters ``n`` atoms while each single
    candidate's regions shatter only one.

    The support is {0, ..., n}.  For every (n+1)-bit string a0 a1 ... an there
    is one candidate P with

        P(k) = (1 / 4n) * (1 + (1/2 - a0) * (1/2 - ak)) * 2^(-sum_{j>=1} aj * 2^j)

    for k in {1..n}, and P(0) the residual mass.  The weight factor makes any
    two strings differing beyond the first bit order their masses uniformly,
    so only first-bit partners produce interesting exceedance regions.

    Args:
        n: number of non-residual atoms, between 2 and 6 (family size 2^(n+1)).

    Raises:
        ValueError: if ``n`` is out of range or any residual would be negative.
    """
    if not 2 <= n <= 6:
        raise ValueError(f"n must lie in [2, 6], got {n}")
    support = Support(tuple(str(k) for k in range(n + 1)))
    base = 1.0 / (4.0 * n)
    candidates = []
    for code in range(2 ** (n + 1)):
        bits = [(code >> j) & 1 for j in range(n + 1)]
        weight = 2.0 ** -sum(bits[j] << j for j in range(1, n + 1))
        mass = np.zeros(n + 1)
        for k in range(1, n + 1):
            mass[k] = base * (1.0 + (0.5 - bits[0]) * (0.5 - bits[k])) * weight
        residual = 1.0 - mass[1:].sum()
        if residual < 0.0:
            raise ValueError(f"n={n} leaves a negative residual mass for string {bits}")
        mass[0] = residual
        name = "".join(str(b) for b in bits)
        candidates.append(Candidate(name, mass, distribution=True))
    return Family(support, candidates)


def random_instance(seed: int, k: int, m: int, noise: float = 0.0) -> Instance:
    """A seeded random instance: ``m`` random distributions over ``k`` atoms,
    a truth that is either fresh or a perturbed member, and empirical data at
    a controlled distance from the truth.

    ``noise`` bounds the total-variation perturbation of the empirical vector:
    h = (1 - t) * g + t * u for a random distribution u, with t = min(noise, 1).
    ``noise=0`` returns h identical to g, so the family sees zero deviation.

    Args:
        seed: RNG seed; the instance is a pure function of (seed, k, m, noise).
        k: support size, >= 1.
        m: family size, >= 1.
        noise: perturbation bound, >= 0.

    Raises:
        ValueError: on non-positive sizes or negative or NaN noise.
    """
    if k < 1:
        raise ValueError(f"support size must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    if not noise >= 0.0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    alpha = np.ones(k)
    matrix = rng.dirichlet(alpha, size=m)
    if rng.random() < 0.5:
        g = rng.dirichlet(alpha)
    else:
        w = rng.uniform(0.0, 0.3)
        g = (1.0 - w) * matrix[rng.integers(m)] + w * rng.dirichlet(alpha)
    t = min(noise, 1.0)
    h = g.copy() if t == 0.0 else (1.0 - t) * g + t * rng.dirichlet(alpha)
    family = Family(
        Support.default(k),
        [Candidate(f"f{i + 1}", matrix[i], distribution=True) for i in range(m)],
    )
    return Instance(
        family=family,
        truth=g,
        empirical=EmpiricalDistribution(h),
        label=f"random(seed={seed},k={k},m={m},noise={noise})",
    )


def sample_empirical(g, n: int, seed: int) -> EmpiricalDistribution:
    """Empirical frequencies of ``n`` i.i.d. draws from the distribution ``g``.

    Entries of the result are integer multiples of 1/n and sum to one;
    ``sample_count`` records ``n``.  A point mass reproduces itself exactly
    for any sample size.

    Args:
        g: a normalized mass vector (within ``NORMALIZATION_TOL``).
        n: number of draws, >= 1.
        seed: RNG seed.

    Raises:
        ValueError: if ``g`` has a non-finite or negative entry, or ``n`` < 1.
        NormalizationError: if ``g`` does not sum to 1.
    """
    gv = _checked_mass(g, "sampled distribution", normalized=True)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, gv / gv.sum())
    return EmpiricalDistribution(counts / n, sample_count=n)
