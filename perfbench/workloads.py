"""The benchmark's workloads: inputs made from a seed, one timed operation,
and an output check that runs after the operation, outside its timed span.

Each workload object has
  setup(seed, workdir)  make every input; called before the first timed op,
  prepare(i)            untimed work op ``i`` needs first (a fresh input file),
  op(i)                 timed call number ``i``; it completes ``ops_per_call`` ops,
  check(i, result)      how many of the call's ops gave a wrong output,
  working_set()         computed sizes of the data the op touches.

The program is reached only through its public names, looked up on their
modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import l1select
from l1select import cli, selectors

ALGORITHMS = ("tournament", "mindist", "modified", "minloss", "efficient")

# CLI algorithm name -> selector function in l1select.selectors.
SELECTOR_FUNCTIONS = {
    "tournament": "scheffe_tournament",
    "mindist": "min_distance",
    "modified": "modified_min_distance",
    "minloss": "min_loss_weight",
    "efficient": "efficient_min_loss_weight",
    "randomized": "randomized_two",
}

# The paper's guarantee, error <= a * d1 + b * Delta, as (a, b).  Kept here
# rather than read from the program so that a program that loosened its own
# table would still be caught.
BOUNDS = {
    "tournament": (9.0, 8.0),
    "mindist": (3.0, 2.0),
    "modified": (3.0, 2.0),
    "minloss": (3.0, 2.0),
    "efficient": (3.0, 2.0),
}

NOISE_CYCLE = (0.0, 0.02, 0.1, 0.3)

# `verify` appends these reference instances to the random ones: the pair
# construction and its swap at three gaps, and the tournament at two.
VERIFY_REFERENCE_INSTANCES = 8

# Enough latency samples that p90 has ten beyond it.
MIN_SAMPLES = 100

L2_BYTES_PER_CORE = 2 * 1024 * 1024


def closed_form(algorithm: str, m: int) -> tuple[int, int]:
    """(h_products, term_evaluations) one selection on ``m`` candidates must charge."""
    return {
        "tournament": (m * (m - 1) // 2, 0),
        "mindist": (0, m * m * (m - 1)),
        "modified": (0, m * (m - 1)),
        "minloss": (m * (m - 1) // 2, 0),
        "efficient": (max(m - 1, 0), 0),
        "randomized": (0, 2),
    }[algorithm]


def check_selection(algorithm: str, report: dict, family, truth, h) -> bool:
    """A selection is correct when its index and name agree, its ledger
    counts equal the closed forms, it meets the paper's bound, and, for the
    elimination selector, the elimination invariant holds."""
    index = report["selected_index"]
    if report["algorithm"] != algorithm or not 0 <= index < family.size:
        return False
    if report["selected_name"] != family.names[index]:
        return False
    if (report["h_products"], report["term_evaluations"]) != closed_form(algorithm, family.size):
        return False
    a, b = BOUNDS[algorithm]
    if not l1select.check_bound(index, family, truth, h, a, b).passed:
        return False
    if algorithm == "efficient":
        return l1select.check_elimination_invariant(family, h, index)
    return True


def working_set(m: int, k: int) -> dict:
    """Computed, not measured: bytes of the pair table and of the m x P x k
    intermediate that building it allocates, against the L2 of one core."""
    pairs = m * (m - 1) // 2
    table = pairs * k * 8
    intermediate = m * pairs * k * 8
    return {
        "m": m,
        "k": k,
        "pairs": pairs,
        "pair_table_bytes": table,
        "preprocess_intermediate_bytes": intermediate,
        "l2_bytes_per_core": L2_BYTES_PER_CORE,
        "pair_table_fits_l2": table <= L2_BYTES_PER_CORE,
        "intermediate_fits_l2": intermediate <= L2_BYTES_PER_CORE,
        "label": "computed",
    }


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**62))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class VerifySweep:
    """Repeated in-process ``l1select verify --trials 50 --seed seed+i``."""

    name = "verify-sweep"
    trials = 50
    ops_per_call = trials

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int) -> tuple[int, str]:
        return _run_cli(["verify", "--trials", str(self.trials), "--seed", str(self.seed + i)])

    def check(self, i: int, result: tuple[int, str]) -> int:
        # A wrong summary cannot be pinned on one trial: all of the call's count.
        return 0 if self._summary_ok(i, result) else self.ops_per_call

    def _summary_ok(self, i: int, result: tuple[int, str]) -> bool:
        code, out = result
        if code != 0:
            return False
        summary = json.loads(out)
        expected_checks = self.trials + VERIFY_REFERENCE_INSTANCES
        if summary["status"] != "ok" or summary["trials"] != self.trials:
            return False
        if set(summary["bounds"]) != set(BOUNDS):
            return False
        if any(b["checks"] != expected_checks for b in summary["bounds"].values()):
            return False
        if i == 0:
            # The same seed must give byte-identical output.
            return self.op(0) == result
        return True

    def working_set(self) -> dict:
        return working_set(m=8, k=6)


class SelectLarge:
    """Repeated in-process ``l1select select`` on m=96, k=64 files, each op
    reading a family file no earlier op has read."""

    name = "select-large"
    m, k = 96, 64
    ops_per_call = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.dir = workdir
        self.dir.mkdir(parents=True)
        self.rng = np.random.default_rng(seed)
        self.instances = []
        for i in range(MIN_SAMPLES):
            self.prepare(i)

    def _paths(self, i: int) -> tuple[Path, Path]:
        return self.dir / f"family-{i}.json", self.dir / f"empirical-{i}.json"

    def prepare(self, i: int) -> None:
        """Write the files of op ``i`` (and of any op before it) if not yet written."""
        while len(self.instances) <= i:
            j = len(self.instances)
            inst = l1select.random_instance(
                _draw_seed(self.rng), self.k, self.m, NOISE_CYCLE[j % len(NOISE_CYCLE)]
            )
            family_path, empirical_path = self._paths(j)
            l1select.write_family(family_path, inst.family)
            l1select.write_empirical(empirical_path, inst.empirical)
            self.instances.append(inst)

    def op(self, i: int) -> tuple[int, str]:
        family_path, empirical_path = self._paths(i)
        return _run_cli(
            [
                "select",
                "--family", str(family_path),
                "--empirical", str(empirical_path),
                "--algorithm", ALGORITHMS[i % len(ALGORITHMS)],
            ]
        )

    def check(self, i: int, result: tuple[int, str]) -> int:
        code, out = result
        inst = self.instances[i]
        self.instances[i] = None  # each instance is checked once; free it
        ok = code == 0 and check_selection(
            ALGORITHMS[i % len(ALGORITHMS)], json.loads(out), inst.family, inst.truth, inst.empirical
        )
        return 0 if ok else 1

    def working_set(self) -> dict:
        return working_set(self.m, self.k)


class QueryStream:
    """Library use: one m=64, k=64 family preprocessed at setup, then
    selector calls on a stream of sampled empirical vectors.

    One call of ``op`` is a round of five ops, one per deterministic
    selector, each on the next vector of the stream.  Latency is sampled
    per round: the five selectors differ in cost by a factor of thirty, so
    a percentile over single calls would sit on the edge between two
    selectors' costs and jump between them from run to run.
    """

    name = "query-stream"
    m, k = 64, 64
    stream_length = 4096
    sample_sizes = (100, 1000, 10_000, 100_000)
    ops_per_call = len(ALGORITHMS)

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        inst = l1select.random_instance(_draw_seed(rng), self.k, self.m)
        self.family, self.truth = inst.family, inst.truth
        self.prep = l1select.preprocess(inst.family)
        self.stream = [
            l1select.sample_empirical(
                self.truth, self.sample_sizes[j % len(self.sample_sizes)], _draw_seed(rng)
            )
            for j in range(self.stream_length)
        ]

    def prepare(self, i: int) -> None:
        pass

    def _empirical(self, i: int, j: int):
        return self.stream[(i * self.ops_per_call + j) % self.stream_length]

    def op(self, i: int) -> list:
        reports = []
        for j, algorithm in enumerate(ALGORITHMS):
            select = getattr(selectors, SELECTOR_FUNCTIONS[algorithm])
            target = self.family if algorithm in ("mindist", "modified") else self.prep
            reports.append(select(target, self._empirical(i, j)))
        return reports

    def check(self, i: int, reports: list) -> int:
        return sum(
            not check_selection(algorithm, report.to_dict(), self.family, self.truth, self._empirical(i, j))
            for j, (algorithm, report) in enumerate(zip(ALGORITHMS, reports))
        )

    def working_set(self) -> dict:
        return working_set(self.m, self.k)


WORKLOADS = {w.name: w for w in (VerifySweep, SelectLarge, QueryStream)}
