"""Smoke test of the benchmark itself: a few ops of every workload.

    python3 perfbench/smoke.py

Asserts that every metric named in BENCHMARK.json is printed, with its
unit, in both the untraced and the traced run of every workload, that
``failed_ratio`` and the unbounded ``latency_ms.p50`` are printed, and that
the output check counts a deliberately wrong selection.  Exits 0 when all hold.
"""

import contextlib
import dataclasses
import io
import json
import sys

import numpy as np

import run
import workloads

SMOKE_CALLS = 5  # select-large: one op of each selector


def run_and_print(workload, seed: int, trace: bool) -> tuple[dict, str]:
    result, unbounded = run.run(workload, seed, seconds=0, trace=trace, min_samples=SMOKE_CALLS)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(workload, seed, result, unbounded)
    return result, out.getvalue()


def assert_metrics_printed(
    declared: list[dict], unbounded: dict, result: dict, text: str, label: str
) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    lines = text.splitlines()
    assert json.loads(lines[-1]) == result, f"{label}: last line is not the result object"
    printed = {m: v["unit"] for m, v in result["metrics"].items()}
    assert printed == expected, f"{label}: metrics differ from BENCHMARK.json: {printed} != {expected}"
    for name, unit in {**expected, **unbounded}.items():
        assert any(
            line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines
        ), f"{label}: {name} is not printed with unit {unit}"
    assert result["attempted"] >= 1 and result["correct"], f"{label}: {result}"


def farthest_candidate(report, family, truth):
    """The selection replaced by the candidate farthest from the truth."""
    index = int(np.argmax(np.abs(family.matrix - truth).sum(axis=1)))
    return dataclasses.replace(report, selected_index=index, selected_name=family.names[index])


def assert_wrong_selection_counted() -> None:
    # With seed 1 the truth lies close to a family member, so the paper's
    # bound rules out the candidate farthest from it.
    workload = workloads.QueryStream()
    check = workload.check

    def tampered_check(i, reports):
        if i == 0:  # minloss on 100000 samples
            reports = list(reports)
            reports[3] = farthest_candidate(reports[3], workload.family, workload.truth)
        return check(i, reports)

    workload.check = tampered_check
    result, text = run_and_print(workload, seed=1, trace=False)
    assert result["failed"] == 1 and not result["correct"], result
    ratio = next(float(l.split()[1]) for l in text.splitlines() if l.startswith("failed_ratio "))
    assert ratio == 1 / result["attempted"], text


def main() -> int:
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, cls in workloads.WORKLOADS.items():
        for trace, key, unbounded in (
            (False, "end_to_end", {"latency_ms.p50": "ms", "failed_ratio": "ratio"}),
            (True, "per_layer", {"failed_ratio": "ratio"}),
        ):
            result, text = run_and_print(cls(), seed=0, trace=trace)
            label = f"{name} trace={int(trace)}"
            assert_metrics_printed(benchmark[key], unbounded, result, text, label)
            print(f"ok {name} trace={int(trace)}: {len(result['metrics'])} metrics")
    assert_wrong_selection_counted()
    print("ok a wrong selection index is counted in failed_ratio")
    return 0


if __name__ == "__main__":
    sys.exit(main())
