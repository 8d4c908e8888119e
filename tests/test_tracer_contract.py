"""The contract between the command line and the benchmark's span tracer.

The tracer in ``perfbench/`` wraps each public function at the module
attribute its callers resolve (``l1select.cli.scheffe_tournament``, ...)
and counts every selection's ledger charges against their closed forms.  A
change that stops ``cli`` from calling a selector through its module
attribute silently loses those spans and counts; these tests catch it.
The tracer also reads the distance order of the elimination selector's
argument, which every family gives, preprocessed by its caller or not.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from l1select import Family, cli, random_instance, selectors, write_empirical, write_family

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("tournament", "mindist", "modified", "minloss", "efficient")


def test_traced_select_and_verify_keep_every_span_and_count(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(tmp_path)
    tracing = importlib.import_module("tracing")
    inst = random_instance(11, 6, 7, noise=0.1)
    family_path, empirical_path = tmp_path / "family.json", tmp_path / "empirical.json"
    write_family(family_path, inst.family)
    write_empirical(empirical_path, inst.empirical)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        for algorithm in DETERMINISTIC:
            argv = ["select", "--family", str(family_path), "--empirical", str(empirical_path)]
            assert cli.main([*argv, "--algorithm", algorithm]) == 0
        assert cli.main(["verify", "--trials", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert tracer.missing == []
    for algorithm in DETERMINISTIC:
        assert f"selectors.{algorithm}.h_products" in tracer.counts, algorithm
    assert tracer.counts["selectors.ledger_mismatches"] == 0
    assert tracer.counts["selectors.efficient.scanned"] > 0


def test_traced_library_elimination_on_a_plain_family_counts_its_scan(monkeypatch):
    """A library caller may hand the elimination selector a family it never
    preprocessed; the tracer counts that selection's scan like a cli one."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    inst = random_instance(11, 6, 7, noise=0.1)
    family = Family(inst.family.support, inst.family.candidates)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        selectors.efficient_min_loss_weight(family, inst.empirical)
    finally:
        tracer.uninstall()

    assert tracer.counts["selectors.efficient.h_products"] == family.size - 1
    assert tracer.counts["selectors.ledger_mismatches"] == 0
    assert tracer.counts["selectors.efficient.scanned"] > 0
