"""Command-line front end: selection, verification sweeps, cost benchmarks,
and instance generation.

Exit codes are a stable contract: 0 success, 1 verification failure, 2 file
parse error, 3 invalid parameters.  All commands are deterministic given
``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .core import Family, Ledger, _check_pair_table_capacity, preprocess
from .generators import (
    Instance,
    lower_bound_pair,
    lower_bound_tournament,
    random_instance,
    swap_pair,
    vc_gap_family,
)
from .io import (
    FileFormatError,
    read_empirical,
    read_family,
    write_empirical,
    write_family,
    write_mass_vector,
)
from .oracle import (
    GUARANTEE_TOL,
    InstanceReference,
    best_in_family,
    check_bound,
    check_elimination_invariant,
    check_quadruple,
    check_win_equivalence,
    vc_dimension,
    vc_dimension_by_traces,
    yatracos_class,
    yatracos_restricted,
)
from .selectors import (
    efficient_min_loss_weight,
    min_distance,
    min_loss_weight,
    modified_min_distance,
    randomized_two,
    scheffe_tournament,
)

# (coefficient_best, coefficient_deviation) guaranteed by each deterministic
# selector, and whether the sharper family-restricted deviation also works.
_BOUNDS = {
    "tournament": (9.0, 8.0, False),
    "mindist": (3.0, 2.0, False),
    "modified": (3.0, 2.0, True),
    "minloss": (3.0, 2.0, True),
    "efficient": (3.0, 2.0, True),
}

ALGORITHMS = (*_BOUNDS, "randomized")

_NOISE_CYCLE = (0.0, 0.02, 0.1, 0.3)


def _run_selector(algorithm: str, family, empirical, seed: int, *, draw_flip: bool = False):
    """Run the selector named ``algorithm`` on ``family`` with a fresh
    ledger.  The table of selectors is built at each call, so that each is
    resolved, and can be traced, through this module's attribute.  For the
    same reason the family is preprocessed here before the elimination
    selector runs, which would otherwise preprocess it itself."""
    if algorithm == "efficient":
        preprocess(family)
    select, options = {
        "tournament": (scheffe_tournament, {}),
        "mindist": (min_distance, {}),
        "modified": (modified_min_distance, {}),
        "minloss": (min_loss_weight, {}),
        "efficient": (efficient_min_loss_weight, {"draw_removes_first": draw_flip}),
        "randomized": (randomized_two, {"seed": seed}),
    }[algorithm]
    return select(family, empirical, Ledger(), **options)


class _ParameterError(ValueError):
    """Invalid command parameters (exit code 3)."""


def _cmd_select(args) -> int:
    family = read_family(args.family)
    empirical = read_empirical(args.empirical, family.support)
    report = _run_selector(args.algorithm, family, empirical, args.seed)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


# --------------------------------------------------------------------------
# verify


def _instance_record(inst: Instance, failure: dict) -> dict:
    return {
        "label": inst.label,
        "support": list(inst.family.support.atoms),
        "candidates": [
            {"name": c.name, "mass": [float(x) for x in c.mass]} for c in inst.family.candidates
        ],
        "empirical_mass": [float(x) for x in inst.empirical.mass],
        "truth_mass": [float(x) for x in inst.truth],
        "failure": failure,
    }


def _evaluate_instance(inst: Instance, delta_mode: str, draw_flip: bool) -> dict:
    """Run every selector and oracle check on one instance; return the
    selections, margins and the first failure (if any).  The bound checks,
    the two-candidate check and both readings of the elimination invariant
    share one reference, so the members' L1 errors, each deviation and the
    invariant's outcomes and loss-weights are computed once per instance.
    The family is preprocessed once, here, before any selector runs, so
    every selector reads the pair table that preprocess keeps."""
    family, g, h = inst.family, inst.truth, inst.empirical
    preprocess(family)
    reference = InstanceReference(family, g, h)
    result = {"bounds": {}, "selected": {}, "failure": None}

    def fail(kind: str, detail: dict):
        if result["failure"] is None:
            result["failure"] = {"kind": kind, **detail}

    for algorithm, (a, b, supports_restricted) in _BOUNDS.items():
        report = _run_selector(algorithm, family, h, 0, draw_flip=draw_flip)
        result["selected"][algorithm] = report.selected_index
        mode = "restricted" if (delta_mode == "restricted" and supports_restricted) else "full"
        bound = check_bound(
            report.selected_index, family, reference.g, reference.h, a, b, mode, reference=reference
        )
        result["bounds"][algorithm] = bound.margin
        if not bound.passed:
            fail("bound", {"algorithm": algorithm, "margin": bound.margin, "delta_mode": mode})
        if algorithm == "efficient":
            # Both readings come from one pass, which the reference keeps.
            strict_ok = check_elimination_invariant(
                family, reference.h, report.selected_index, 1.0, reference=reference
            )
            draws_ok = check_elimination_invariant(
                family, reference.h, report.selected_index, 1.0, include_draws=True, reference=reference
            )
            result["invariant_ok"] = strict_ok
            result["invariant_draw_disagrees"] = strict_ok != draws_ok
            if not strict_ok:
                fail("elimination_invariant", {"selected": report.selected_index})

    if family.size == 2 and not np.array_equal(family.matrix[0], family.matrix[1]):
        report = _run_selector("randomized", family, h, 0)
        errors = reference.errors
        expected = report.mixture[0] * errors[0] + report.mixture[1] * errors[1]
        margin = (2.0 * reference.d1 + reference.deviation) - expected
        result["expected_two_margin"] = margin
        if margin < -GUARANTEE_TOL:
            fail("expected_error_two", {"margin": margin})
    return result


def _reference_instances() -> tuple[list[Instance], Instance, Instance]:
    """The construction instances a sweep ends with, and among them the pair
    and the tournament construction at gap 1e-3, which the closed-form spot
    checks read."""
    pairs = [lower_bound_pair(eps) for eps in (1e-2, 1e-3, 1e-4)]
    nines = [lower_bound_tournament(eps) for eps in (1e-3, 1.5e-2)]
    refs = [made for inst in pairs for made in (inst, swap_pair(inst))]
    return refs + nines, pairs[1], nines[0]


def _reference_checks(pair: Instance, nine: Instance, nine_selected: int) -> list[tuple[str, bool]]:
    """Closed-form spot checks on the constructions ``pair`` and ``nine`` at
    gap 1e-3; the sweep's tournament selected ``nine_selected`` on ``nine``."""
    checks: list[tuple[str, bool]] = []
    e = pair.eps
    g = pair.truth
    err1 = float(np.abs(pair.family.matrix[0] - g).sum())
    err2 = float(np.abs(pair.family.matrix[1] - g).sum())
    checks.append(("pair_err_first_closed_form", abs(err1 - (1.5 - 2 * e)) <= 1e-12))
    checks.append(("pair_err_second_closed_form", abs(err2 - (0.5 + 2 * e)) <= 1e-12))
    best_idx, _ = best_in_family(pair.family, g)
    checks.append(("pair_best_is_second", best_idx == 1))
    checks.append(("tournament_selects_first", nine.family.candidates[nine_selected].name == "f1"))
    err1 = float(np.abs(nine.family.matrix[0] - nine.truth).sum())
    err2 = float(np.abs(nine.family.matrix[1] - nine.truth).sum())
    checks.append(("tournament_err_first_closed_form", abs(err1 - (2 - 72e-3)) <= 1e-12))
    checks.append(("tournament_err_second_closed_form", abs(err2 - (2.0 / 9.0 + 32e-3)) <= 1e-12))
    return checks


def _verify_instances(args, refs: list[Instance]):
    """The sweep's random instances, one per trial, then ``refs``."""
    master = np.random.default_rng(args.seed)
    ks = master.integers(1, args.max_omega + 1, size=args.trials)
    ms = master.integers(1, args.max_family + 1, size=args.trials)
    inst_seeds = master.integers(0, 2**62, size=args.trials)
    for t in range(args.trials):
        yield random_instance(int(inst_seeds[t]), int(ks[t]), int(ms[t]), _NOISE_CYCLE[t % 4])
    yield from refs


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise _ParameterError(f"--trials must be >= 1, got {args.trials}")
    if args.max_omega < 1 or args.max_family < 1:
        raise _ParameterError("--max-omega and --max-family must be >= 1")
    # Refuse, before any trial runs, a sweep whose largest family could not
    # get the pair table that preprocessing every instance builds.
    _check_pair_table_capacity(args.max_family, args.max_omega)

    # Each random instance is generated, evaluated and dropped before the
    # next, so the sweep holds one random family (and its pair table) at a
    # time besides the eight small constructions, which the spot checks read
    # again; only the first failing instance is kept, for counterexample.json.
    refs, pair, nine = _reference_instances()
    results = []
    first_failure = None
    for inst in _verify_instances(args, refs):
        result = _evaluate_instance(inst, args.delta_mode, args.flip_draw_removal)
        results.append(result)
        if inst is nine:
            nine_selected = result["selected"]["tournament"]
        if first_failure is None and result["failure"]:
            first_failure = (inst, result["failure"])

    bounds_summary = {}
    for algorithm, (a, b, supports_restricted) in _BOUNDS.items():
        mode = "restricted" if (args.delta_mode == "restricted" and supports_restricted) else "full"
        margins = [float(r["bounds"][algorithm]) for r in results]
        bounds_summary[algorithm] = {
            "coefficients": [a, b],
            "delta_mode": mode,
            "checks": len(margins),
            "min_margin": min(margins),
            "failures": int(sum(m < -GUARANTEE_TOL for m in margins)),
        }
    two_margins = [float(r["expected_two_margin"]) for r in results if "expected_two_margin" in r]
    invariant_failures = int(sum(not r["invariant_ok"] for r in results))
    draw_disagreements = int(sum(bool(r["invariant_draw_disagrees"]) for r in results))

    counterexample_path = None

    # Win-rule equivalence on random normalized triples.
    eq_rng = np.random.default_rng(args.seed + 1)
    eq_checks = min(args.trials, 1000)
    eq_failures = 0
    for _ in range(eq_checks):
        k = int(eq_rng.integers(2, max(args.max_omega, 2) + 1))
        tri = eq_rng.dirichlet(np.ones(k), size=3)
        if not check_win_equivalence(tri[0], tri[1], tri[2]):
            eq_failures += 1

    # Sign-alignment inequality on random quadruples.
    quad_rng = np.random.default_rng(args.seed + 2)
    quad_checks = min(args.trials, 10_000)
    quad_min = math.inf
    quad_failures = 0
    for _ in range(quad_checks):
        k = int(quad_rng.integers(1, args.max_omega + 1))
        four = quad_rng.dirichlet(np.ones(k), size=4)
        try:
            quad_min = min(quad_min, float(check_quadruple(four[0], four[1], four[2], four[3])))
        except ValueError:
            quad_failures += 1

    # VC gap on the n=4 family, with both implementations cross-checked.
    vc_family = vc_gap_family(4)
    full_system = yatracos_class(vc_family)
    vc_full = vc_dimension(full_system)
    vc_full_alt = vc_dimension_by_traces(full_system)
    vc_restricted = max(
        vc_dimension(yatracos_restricted(vc_family, i)) for i in range(vc_family.size)
    )
    vc_ok = (vc_full == vc_full_alt) and (vc_restricted < vc_full)

    reference_checks = _reference_checks(pair, nine, nine_selected)
    reference_failures = [name for name, ok in reference_checks if not ok]

    failed = bool(
        first_failure
        or any(v["failures"] for v in bounds_summary.values())
        or invariant_failures
        or eq_failures
        or quad_failures
        or any(m < -GUARANTEE_TOL for m in two_margins)
        or not vc_ok
        or reference_failures
    )
    if first_failure:
        inst, failure = first_failure
        counterexample_path = _written(
            Path.cwd() / "counterexample.json",
            lambda path, record: path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8"),
            _instance_record(inst, failure),
        )

    summary = {
        "trials": args.trials,
        "seed": args.seed,
        "max_omega": args.max_omega,
        "max_family": args.max_family,
        "delta_mode": args.delta_mode,
        "draw_flip_mode": bool(args.flip_draw_removal),
        "bounds": bounds_summary,
        "expected_error_two": {
            "coefficients": [2.0, 1.0],
            "checks": len(two_margins),
            "min_margin": min(two_margins) if two_margins else None,
            "failures": int(sum(m < -GUARANTEE_TOL for m in two_margins)),
        },
        "elimination_invariant": {
            "checks": len(results),
            "failures": invariant_failures,
            "draw_reading_disagreements": draw_disagreements,
        },
        "win_equivalence": {"checks": eq_checks, "failures": eq_failures},
        "quadruple": {
            "checks": quad_checks,
            "min_value": None if quad_min is math.inf else quad_min,
            "failures": quad_failures,
        },
        "vc_gap": {
            "n": 4,
            "vc_full": int(vc_full),
            "vc_full_second_implementation": int(vc_full_alt),
            "vc_restricted_max": int(vc_restricted),
            "gap_confirmed": bool(vc_restricted < vc_full),
        },
        "reference_checks": {name: ok for name, ok in reference_checks},
        "pair_best_error": {
            "value": 0.5 + 2 * pair.eps,
            "closed_form": "1/2 + 2*eps (atomwise sum of the pair table)",
        },
        "status": "failed" if failed else "ok",
        "counterexample": counterexample_path,
    }
    print(json.dumps(summary, indent=2))
    return 1 if failed else 0


# --------------------------------------------------------------------------
# bench


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise _ParameterError(f"--sizes must be a comma-separated list of integers: {exc}")
    if not sizes or any(m < 1 for m in sizes):
        raise _ParameterError(f"--sizes entries must be >= 1, got {args.sizes!r}")
    if args.omega < 1:
        raise _ParameterError(f"--omega must be >= 1, got {args.omega}")
    # Refuse, before any row runs, sizes whose largest family could not get
    # the pair table the elimination row builds.
    _check_pair_table_capacity(max(sizes), args.omega)

    rows = []
    for m in sizes:
        inst = random_instance(args.seed + m, args.omega, m, noise=0.1)
        algorithms = list(_BOUNDS) + (["randomized"] if m == 2 else [])
        for algorithm in algorithms:
            # A family of its own per row, so no row reads the pair table the
            # elimination row builds: every wall time includes computing the
            # signs.
            family = Family(inst.family.support, inst.family.candidates)
            start = time.perf_counter_ns()
            report = _run_selector(algorithm, family, inst.empirical, args.seed)
            elapsed = time.perf_counter_ns() - start
            rows.append(
                {
                    "family_size": m,
                    "algorithm": algorithm,
                    "h_products": report.h_products,
                    "term_evaluations": report.term_evaluations,
                    "wall_time_ns": elapsed,
                }
            )

    fieldnames = ["family_size", "algorithm", "h_products", "term_evaluations", "wall_time_ns"]
    if args.out:
        try:
            out = open(args.out, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise _ParameterError(f"cannot write {args.out}: {exc}")
    else:
        out = sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# --------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _ParameterError(f"cannot create output directory {args.out}: {exc}")

    if args.example in ("three", "nine"):
        if args.eps is None:
            raise _ParameterError(f"--example {args.example} requires --eps")
        gen = lower_bound_pair if args.example == "three" else lower_bound_tournament
        inst = gen(args.eps)
        files = _write_instance(outdir, inst)
    elif args.example == "vcdim":
        if args.n is None:
            raise _ParameterError("--example vcdim requires --n")
        files = {"family": _written(outdir / "family.json", write_family, vc_gap_family(args.n))}
    elif args.example == "random":
        inst = random_instance(args.seed, args.k, args.m, args.noise)
        files = _write_instance(outdir, inst)
    else:  # unreachable: argparse restricts choices
        raise _ParameterError(f"unknown example {args.example!r}")
    print(json.dumps({"example": args.example, "files": files}, indent=2))
    return 0


def _write_instance(outdir: Path, inst: Instance) -> dict:
    return {
        "family": _written(outdir / "family.json", write_family, inst.family),
        "empirical": _written(outdir / "empirical.json", write_empirical, inst.empirical),
        "truth": _written(outdir / "truth.json", write_mass_vector, inst.truth),
    }


def _written(path: Path, write, value) -> str:
    """Write ``value`` to ``path`` with ``write(path, value)`` and return the
    path; a file that cannot be written exits 3, naming it."""
    try:
        write(path, value)
    except OSError as exc:
        raise _ParameterError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return str(path)


# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: each build
    leaves hundreds of objects in reference cycles."""
    parser = argparse.ArgumentParser(
        prog="l1select",
        description="Select finite-support densities by L1 error; verify the guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="run one selector on a family and empirical file")
    p_select.add_argument("--family", required=True, help="family JSON file")
    p_select.add_argument("--empirical", required=True, help="empirical JSON file (mass or samples)")
    p_select.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p_select.add_argument("--seed", type=int, default=0, help="RNG seed (randomized selector)")
    p_select.set_defaults(func=_cmd_select)

    p_verify = sub.add_parser("verify", help="run the oracle suite on random + reference instances")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--max-omega", type=int, default=6, help="largest support size")
    p_verify.add_argument("--max-family", type=int, default=8, help="largest family size")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--delta-mode",
        choices=("full", "restricted"),
        default="full",
        help="use the sharper family-restricted deviation for the selectors that satisfy it",
    )
    p_verify.add_argument(
        "--flip-draw-removal", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="exact cost counts (and wall time) per family size")
    p_bench.add_argument("--sizes", required=True, help="comma-separated family sizes, e.g. 2,4,8")
    p_bench.add_argument("--omega", type=int, default=6, help="support size")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)

    p_gen = sub.add_parser("gen", help="write instance files for a generator")
    p_gen.add_argument("--example", required=True, choices=("three", "nine", "vcdim", "random"))
    p_gen.add_argument("--eps", type=float, default=None, help="gap for three/nine")
    p_gen.add_argument("--n", type=int, default=None, help="atom count for vcdim")
    p_gen.add_argument("--seed", type=int, default=0, help="seed for random")
    p_gen.add_argument("--k", type=int, default=4, help="support size for random")
    p_gen.add_argument("--m", type=int, default=5, help="family size for random")
    p_gen.add_argument("--noise", type=float, default=0.1, help="empirical noise for random")
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
