"""File formats and the command-line interface."""

from __future__ import annotations

import csv
import gc
import io
import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from l1select import (
    FileFormatError,
    lower_bound_pair,
    lower_bound_tournament,
    random_instance,
    read_empirical,
    read_family,
    read_mass_vector,
    write_empirical,
    write_family,
    write_mass_vector,
)
from l1select import cli, core, oracle
from l1select.cli import main
from conftest import make_family


GOOD_ENTRY = {"name": "f", "mass": [0.5, 0.5]}
# One fault per family file, on the second candidate where it can be, with
# the message read_family gives for it.
FAMILY_FAULTS = {
    "bad_support": (
        {"support": ["a", 1], "candidates": [GOOD_ENTRY]},
        "support must be a list of atom labels",
    ),
    "candidates_not_a_list": (
        {"support": ["a", "b"], "candidates": {"f": [0.5, 0.5]}},
        "candidates must be a list",
    ),
    "entry_not_an_object": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, ["g", [0.5, 0.5]]]},
        "each candidate must be an object",
    ),
    "missing_name": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"mass": [0.5, 0.5]}]},
        "missing required key 'name'",
    ),
    "name_not_a_string": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": 7, "mass": [0.5, 0.5]}]},
        "candidate names must be strings",
    ),
    "missing_mass": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g"}]},
        "missing required key 'mass'",
    ),
    "mass_not_a_list": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": 0.5}]},
        "mass of 'g' must be a list of numbers",
    ),
    "non_numeric_mass": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": [0.5, "x"]}]},
        "mass of 'g' must be a list of numbers",
    ),
    "boolean_mass": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": [True, False]}]},
        "mass of 'g' must be a list of numbers",
    ),
    "boolean_among_numbers": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": [True, 0.5]}]},
        "mass of 'g' must be a list of numbers",
    ),
    "nan_mass": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": [float("nan"), 0.5]}]},
        "candidate 'g' has non-finite mass entries",
    ),
    "negative_mass": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": [-0.5, 1.5]}]},
        "candidate 'g' has negative mass entries",
    ),
    "mass_too_large": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": [1e308, 0.5]}]},
        "candidate 'g' has mass entries too large: 2 times 1e+308 exceeds 2.2471164185778946e+307",
    ),
    "row_of_the_wrong_length": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, {"name": "g", "mass": [1.0]}]},
        "candidate 'g' has 1 entries on a support of size 2",
    ),
    "duplicate_names": (
        {"support": ["a", "b"], "candidates": [GOOD_ENTRY, GOOD_ENTRY]},
        "candidate names must be distinct within a family",
    ),
    "duplicate_atoms": (
        {"support": ["a", "a"], "candidates": [GOOD_ENTRY]},
        "support atoms must be distinct",
    ),
}
# An integer literal too large for a float.
HUGE_INT = "1" * 400


class TestFamilyFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        """Serialized floats use the shortest round-trip representation, so
        even the ninth-based tournament masses survive a write/read cycle
        unchanged."""
        family = lower_bound_tournament(1e-3).family
        path = tmp_path / "family.json"
        write_family(path, family)
        loaded = read_family(path)
        assert loaded.names == family.names
        assert loaded.support.atoms == family.support.atoms
        assert_array_equal(loaded.matrix, family.matrix)

    def test_random_round_trip(self, tmp_path):
        family = random_instance(11, 6, 7, noise=0.1).family
        path = tmp_path / "family.json"
        write_family(path, family)
        assert_array_equal(read_family(path).matrix, family.matrix)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="not found"):
            read_family(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(FileFormatError, match="not valid JSON"):
            read_family(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(FileFormatError, match="JSON object"):
            read_family(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"candidates": []}, "missing required key 'support'"),
            ({"support": ["a"]}, "missing required key 'candidates'"),
            ({"support": [1], "candidates": []}, "atom labels"),
            ({"support": ["a"], "candidates": {}}, "must be a list"),
            ({"support": ["a"], "candidates": ["x"]}, "must be an object"),
            ({"support": ["a"], "candidates": [{"mass": [1.0]}]}, "missing required key 'name'"),
            ({"support": ["a"], "candidates": [{"name": 3, "mass": [1.0]}]}, "names must be strings"),
            ({"support": ["a"], "candidates": [{"name": "f", "mass": ["x"]}]}, "list of numbers"),
        ],
    )
    def test_schema_violations(self, tmp_path, payload, message):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FileFormatError, match=message):
            read_family(path)

    def test_inconsistent_lengths_are_wrapped(self, tmp_path):
        payload = {
            "support": ["a", "b"],
            "candidates": [{"name": "f", "mass": [0.5, 0.25, 0.25]}],
        }
        path = tmp_path / "family.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FileFormatError):
            read_family(path)

    @pytest.mark.parametrize("fault", sorted(FAMILY_FAULTS))
    def test_single_fault_message_and_exit_two(self, tmp_path, pair_files, capsys, fault):
        payload, message = FAMILY_FAULTS[fault]
        path = tmp_path / "bad-family.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FileFormatError) as info:
            read_family(path)
        assert str(info.value) == f"{path}: {message}"
        _, emp = pair_files
        code = main(["select", "--family", str(path), "--empirical", emp, "--algorithm", "mindist"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_candidates_are_read_only_views_of_the_matrix(self, tmp_path):
        family = random_instance(4, 5, 6, noise=0.1).family
        path = tmp_path / "family.json"
        write_family(path, family)
        loaded = read_family(path)
        assert not loaded.matrix.flags.writeable
        for row, candidate in zip(loaded.matrix, loaded.candidates):
            assert candidate.mass.base is loaded.matrix
            assert_array_equal(candidate.mass, row)
            assert not candidate.mass.flags.writeable

    def test_integers_past_int64_are_read_as_floats(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(
            '{"support": ["a", "b"], "candidates": [{"name": "f", "mass": [100000000000000000000000000000, 1]}]}',
            encoding="utf-8",
        )
        assert read_family(path).matrix.tolist() == [[1e29, 1.0]]


class TestEmpiricalFiles:
    def test_mass_round_trip(self, tmp_path, pair_instance):
        path = tmp_path / "empirical.json"
        write_empirical(path, pair_instance.empirical)
        loaded = read_empirical(path, pair_instance.family.support)
        assert_array_equal(loaded.mass, pair_instance.empirical.mass)
        assert loaded.sample_count is None

    def test_samples_are_aggregated(self, tmp_path, pair_instance):
        path = tmp_path / "empirical.json"
        samples = ["A1"] * 2 + ["A2"] * 1 + ["A1"] * 1
        path.write_text(json.dumps({"samples": samples}), encoding="utf-8")
        support = pair_instance.family.support
        assert support.atoms == ("A1", "A2", "A3", "A4")
        loaded = read_empirical(path, support)
        assert_array_equal(loaded.mass, [0.75, 0.25, 0.0, 0.0])
        assert loaded.sample_count == 4

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({}, "exactly one"),
            ({"mass": [1.0], "samples": ["a1"]}, "exactly one"),
            ({"samples": []}, "nonempty list"),
            ({"samples": [1, 2]}, "atom labels"),
            ({"samples": ["zz"]}, "unknown atom labels"),
            ({"mass": [0.5, 0.4, 0.0, 0.0]}, "."),
        ],
    )
    def test_invalid_files(self, tmp_path, pair_instance, payload, message):
        path = tmp_path / "empirical.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FileFormatError, match=message):
            read_empirical(path, pair_instance.family.support)

    def test_oversized_integer_in_a_mass_vector(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text('{"mass": [%s, 0]}' % HUGE_INT, encoding="utf-8")
        with pytest.raises(FileFormatError, match="too large for a float"):
            read_mass_vector(path)

    @pytest.mark.parametrize("mass", [[True, False, False, False], [0.5, 0.5, 0, False]])
    def test_booleans_are_not_masses(self, tmp_path, pair_files, capsys, mass):
        """JSON true and false are no numbers, though Python reads them as
        1 and 0: an empirical file or a stored mass vector holding one is
        refused, and select exits 2."""
        path = tmp_path / "bad-empirical.json"
        path.write_text(json.dumps({"mass": mass}), encoding="utf-8")
        message = f"{path}: mass must be a list of numbers"
        with pytest.raises(FileFormatError) as info:
            read_mass_vector(path)
        assert str(info.value) == message
        fam, _ = pair_files
        code = main(["select", "--family", fam, "--empirical", str(path), "--algorithm", "mindist"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mass_vector_round_trip(self, tmp_path):
        truth = lower_bound_pair(1e-3).truth
        path = tmp_path / "truth.json"
        write_mass_vector(path, truth)
        assert_array_equal(read_mass_vector(path), truth)


@pytest.fixture()
def pair_files(tmp_path, pair_instance):
    fam = tmp_path / "family.json"
    emp = tmp_path / "empirical.json"
    write_family(fam, pair_instance.family)
    write_empirical(emp, pair_instance.empirical)
    return str(fam), str(emp)


class TestSelectCommand:
    def test_efficient_on_the_pair_construction(self, pair_files, capsys):
        fam, emp = pair_files
        assert main(["select", "--family", fam, "--empirical", emp, "--algorithm", "efficient"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["algorithm"] == "efficient"
        assert report["selected_index"] == 0
        assert report["selected_name"] == "f1"
        assert report["h_products"] == 1
        assert report["trace"] == [{"pair": [0, 1], "outcome": "draw", "removed": 1}]

    def test_every_deterministic_algorithm_runs(self, pair_files, capsys):
        fam, emp = pair_files
        for algorithm in ("tournament", "mindist", "modified", "minloss", "efficient"):
            assert main(
                ["select", "--family", fam, "--empirical", emp, "--algorithm", algorithm]
            ) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["algorithm"] == algorithm
            assert report["selected_index"] in (0, 1)

    def test_randomized_reports_mixture_and_seed(self, pair_files, capsys):
        fam, emp = pair_files
        code = main(
            ["select", "--family", fam, "--empirical", emp, "--algorithm", "randomized", "--seed", "5"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 5
        assert report["mixture"] == pytest.approx([0.5, 0.5])
        assert report["term_evaluations"] == 2
        assert report["h_products"] == 0

    def test_randomized_with_both_terms_zero_mixes_evenly(self, tmp_path, capsys):
        """Subnormal masses make both terms zero: an even mixture and exit 0,
        not a ZeroDivisionError traceback."""
        fam = tmp_path / "family.json"
        emp = tmp_path / "empirical.json"
        fam.write_text(
            json.dumps(
                {
                    "support": ["A1", "A2"],
                    "candidates": [
                        {"name": "f1", "mass": [5e-324, 0.0]},
                        {"name": "f2", "mass": [0.0, 5e-324]},
                    ],
                }
            ),
            encoding="utf-8",
        )
        emp.write_text(json.dumps({"mass": [0.5, 0.5]}), encoding="utf-8")
        code = main(
            ["select", "--family", str(fam), "--empirical", str(emp), "--algorithm", "randomized"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mixture"] == [0.5, 0.5]

    def test_randomized_rejects_larger_families(self, tmp_path, tournament_instance, capsys):
        fam = tmp_path / "family.json"
        emp = tmp_path / "empirical.json"
        write_family(fam, tournament_instance.family)
        write_empirical(emp, tournament_instance.empirical)
        code = main(
            ["select", "--family", str(fam), "--empirical", str(emp), "--algorithm", "randomized"]
        )
        assert code == 3
        assert "exactly 2 candidates" in capsys.readouterr().err

    def test_samples_form_empirical(self, tmp_path, pair_instance, capsys):
        fam = tmp_path / "family.json"
        emp = tmp_path / "empirical.json"
        write_family(fam, pair_instance.family)
        emp.write_text(json.dumps({"samples": ["A1", "A2", "A1", "A2"]}), encoding="utf-8")
        assert main(["select", "--family", str(fam), "--empirical", str(emp), "--algorithm", "mindist"]) == 0
        assert json.loads(capsys.readouterr().out)["term_evaluations"] == 4

    def test_missing_family_file_exits_two(self, tmp_path, pair_files, capsys):
        _, emp = pair_files
        code = main(
            ["select", "--family", str(tmp_path / "no.json"), "--empirical", emp, "--algorithm", "mindist"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_empirical_exits_two(self, tmp_path, pair_files):
        fam, _ = pair_files
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["select", "--family", fam, "--empirical", str(bad), "--algorithm", "mindist"]) == 2

    def test_empirical_on_another_support_exits_two(self, tmp_path, pair_files, capsys):
        fam, _ = pair_files
        short = tmp_path / "short.json"
        short.write_text(json.dumps({"mass": [0.5, 0.5]}), encoding="utf-8")
        code = main(["select", "--family", fam, "--empirical", str(short), "--algorithm", "efficient"])
        assert code == 2
        assert "2 entries on a support of size 4" in capsys.readouterr().err

    def test_oversized_integer_in_the_family_exits_two(self, tmp_path, capsys):
        fam = tmp_path / "family.json"
        emp = tmp_path / "empirical.json"
        fam.write_text(
            '{"support": ["a", "b"], "candidates": [{"name": "f", "mass": [%s, 0]},'
            ' {"name": "g", "mass": [0, 1]}]}' % HUGE_INT,
            encoding="utf-8",
        )
        emp.write_text('{"mass": [0.5, 0.5]}', encoding="utf-8")
        code = main(["select", "--family", str(fam), "--empirical", str(emp), "--algorithm", "tournament"])
        assert code == 2
        assert "mass of 'f' holds an integer too large for a float" in capsys.readouterr().err

    def test_oversized_integer_in_the_empirical_exits_two(self, tmp_path, pair_files, capsys):
        fam, _ = pair_files
        emp = tmp_path / "empirical.json"
        emp.write_text('{"mass": [%s, 0, 0, 0]}' % HUGE_INT, encoding="utf-8")
        code = main(["select", "--family", fam, "--empirical", str(emp), "--algorithm", "tournament"])
        assert code == 2
        assert "too large for a float" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["tournament", "minloss", "efficient"])
    def test_overflowing_thresholds_exit_three(self, tmp_path, capsys, algorithm):
        """Masses near the float maximum, whose thresholds would overflow,
        are refused as the family file is read: exit 2, naming the first
        candidate at fault, as for a NaN or negative mass, before any
        threshold exists.  (They exited 3 when preprocessing refused the
        overflowed thresholds.)"""
        rows = np.random.default_rng(0).uniform(size=(5, 8)) * 1e308
        fam, emp = write_huge_instance(tmp_path, rows)
        code = main(["select", "--family", fam, "--empirical", emp, "--algorithm", algorithm])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {fam}: candidate 'f1' has mass entries too large")

    @pytest.mark.parametrize("algorithm", ["mindist", "modified"])
    def test_overflowing_scores_exit_three(self, tmp_path, capsys, algorithm):
        """The distance selectors read only the signs of such a family, and
        their scores would overflow: the file is refused as it is read
        (exit 2, naming the candidate, no traceback) before any score is
        computed.  (They exited 3 when the overflowed scores were
        refused.)"""
        rows = np.random.default_rng(0).uniform(size=(5, 8)) * 1e308
        rows[0] = 1 / 8
        fam, emp = write_huge_instance(tmp_path, rows)
        code = main(["select", "--family", fam, "--empirical", emp, "--algorithm", algorithm])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {fam}: candidate 'f2' has mass entries too large")
        assert "Traceback" not in captured.err


def write_huge_instance(tmp_path, rows) -> tuple[str, str]:
    """A family file of ``rows`` on eight atoms and a uniform empirical
    file, written as JSON without building a family of them."""
    fam = tmp_path / "family.json"
    emp = tmp_path / "empirical.json"
    candidates = [{"name": f"f{i + 1}", "mass": row.tolist()} for i, row in enumerate(rows)]
    fam.write_text(
        json.dumps({"support": [f"A{x}" for x in range(1, 9)], "candidates": candidates}), encoding="utf-8"
    )
    emp.write_text(json.dumps({"mass": [1 / 8] * 8}), encoding="utf-8")
    return str(fam), str(emp)


class TestVerifyCommand:
    def _run(self, capsys, *extra):
        code = main(["verify", "--trials", "25", "--seed", "3", *extra])
        return code, json.loads(capsys.readouterr().out)

    def test_small_sweep_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, summary = self._run(capsys)
        assert code == 0
        assert summary["status"] == "ok"
        assert summary["counterexample"] is None
        assert summary["elimination_invariant"]["failures"] == 0
        assert summary["win_equivalence"]["failures"] == 0
        assert summary["quadruple"]["failures"] == 0
        assert summary["quadruple"]["min_value"] >= -1e-12
        assert all(v["failures"] == 0 for v in summary["bounds"].values())
        assert all(summary["reference_checks"].values())

    def test_output_is_deterministic(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, first = self._run(capsys)
        _, second = self._run(capsys)
        assert first == second

    def test_family_cap_is_checked_before_any_trial(self, capsys):
        """--max-family 6000 on 6 atoms allows a pair table past the guard:
        exit 3 at once, without building any family."""
        tracemalloc.start()
        try:
            code = main(["verify", "--max-family", "6000", "--max-omega", "6", "--trials", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "pair table" in capsys.readouterr().err
        assert peak < 1_000_000

    def test_a_call_leaves_little_cyclic_garbage(self, capsys, tmp_path, monkeypatch):
        """The argument parser is built once, not per call: a parser leaves
        about 270 objects in reference cycles."""
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "--trials", "5"]
        assert main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            garbage = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
        assert garbage < 50

    def test_reused_parser_keeps_no_state_between_calls(self, capsys, pair_files):
        fam, emp = pair_files
        select = ["select", "--family", fam, "--empirical", emp, "--algorithm", "randomized"]
        assert main([*select, "--seed", "5"]) == 0
        seeded = capsys.readouterr().out
        assert main(select) == 0
        first = capsys.readouterr().out
        assert main(select) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["seed"] == 0
        assert json.loads(seeded)["seed"] == 5

    def test_threads_do_not_change_the_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, serial = self._run(capsys)
        monkeypatch.setenv("THREADS", "4")
        _, threaded = self._run(capsys)
        assert serial == threaded

    def test_restricted_delta_mode_switches_the_right_selectors(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, summary = self._run(capsys, "--delta-mode", "restricted")
        assert code == 0
        modes = {name: entry["delta_mode"] for name, entry in summary["bounds"].items()}
        assert modes == {
            "tournament": "full",
            "mindist": "full",
            "modified": "restricted",
            "minloss": "restricted",
            "efficient": "restricted",
        }

    def test_vc_gap_is_reported(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, summary = self._run(capsys)
        vc = summary["vc_gap"]
        assert vc["vc_full"] == vc["vc_full_second_implementation"]
        assert vc["vc_restricted_max"] < vc["vc_full"]
        assert vc["gap_confirmed"] is True

    def test_draw_removal_flip_passes_or_documents_a_counterexample(
        self, capsys, tmp_path, monkeypatch
    ):
        """With the elimination procedure's draw handling reversed, the sweep
        either still passes or dumps the first failing instance; the summary
        records which happened."""
        monkeypatch.chdir(tmp_path)
        code, summary = self._run(capsys, "--flip-draw-removal")
        assert summary["draw_flip_mode"] is True
        if summary["status"] == "ok":
            assert code == 0
            assert summary["counterexample"] is None
        else:
            assert code == 1
            dump = tmp_path / "counterexample.json"
            assert summary["counterexample"] == str(dump)
            record = json.loads(dump.read_text(encoding="utf-8"))
            assert {"label", "candidates", "empirical_mass", "failure"} <= set(record)

    def test_instances_are_evaluated_as_they_are_generated(self, capsys, tmp_path, monkeypatch):
        """Each instance is evaluated before the next is generated, so the
        sweep never holds every family (and its pair table) at once."""
        monkeypatch.chdir(tmp_path)
        events = []
        generate, evaluate = cli.random_instance, cli._evaluate_instance

        def generating(*args):
            events.append("generate")
            return generate(*args)

        def evaluating(*args):
            events.append("evaluate")
            return evaluate(*args)

        monkeypatch.setattr(cli, "random_instance", generating)
        monkeypatch.setattr(cli, "_evaluate_instance", evaluating)
        code, _ = self._run(capsys)
        assert code == 0
        assert events[:50] == ["generate", "evaluate"] * 25

    @pytest.mark.parametrize("delta_mode", ["full", "restricted"])
    def test_oracle_work_is_done_once_per_instance(self, capsys, tmp_path, monkeypatch, delta_mode):
        """Each instance gets one pass of L1 errors, which gives its best
        member, and one of each deviation it needs, however many bound
        checks read them."""
        monkeypatch.chdir(tmp_path)
        counts: dict[str, int] = {}
        for name in ("_errors", "empirical_deviation", "empirical_deviation_restricted"):
            original = getattr(oracle, name)

            def counting(*args, _f=original, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _f(*args)

            monkeypatch.setattr(oracle, name, counting)
            if hasattr(cli, name):
                monkeypatch.setattr(cli, name, counting)
        per_instance = []
        evaluate = cli._evaluate_instance

        def evaluating(inst, *args):
            counts.clear()
            result = evaluate(inst, *args)
            per_instance.append((inst.family.size, dict(counts)))
            return result

        monkeypatch.setattr(cli, "_evaluate_instance", evaluating)
        code = main(["verify", "--trials", "20", "--seed", "3", "--delta-mode", delta_mode])
        capsys.readouterr()
        assert code == 0
        assert len(per_instance) == 28
        assert sum(m >= 2 for m, _ in per_instance) >= 20
        restricted = 1 if delta_mode == "restricted" else 0
        for _, called in per_instance:
            assert called.get("_errors") == 1
            assert called.get("empirical_deviation") == 1
            assert called.get("empirical_deviation_restricted", 0) == restricted

    def test_each_construction_is_built_and_selected_from_once(self, capsys, tmp_path, monkeypatch):
        """The closed-form spot checks read the construction instances the
        sweep evaluated: each construction is built once per call, and the
        tournament runs once per instance, the reference ones included."""
        monkeypatch.chdir(tmp_path)
        calls: dict[str, list] = {}
        for name in ("lower_bound_pair", "lower_bound_tournament", "scheffe_tournament"):
            original = getattr(cli, name)

            def counting(*args, _f=original, _name=name):
                calls.setdefault(_name, []).append(args[0])
                return _f(*args)

            monkeypatch.setattr(cli, name, counting)
        code, summary = self._run(capsys)
        assert code == 0 and all(summary["reference_checks"].values())
        assert calls["lower_bound_pair"] == [1e-2, 1e-3, 1e-4]
        assert calls["lower_bound_tournament"] == [1e-3, 1.5e-2]
        assert len(calls["scheffe_tournament"]) == 25 + 8
        assert len({id(family) for family in calls["scheffe_tournament"]}) == 25 + 8

    def test_each_instance_builds_one_outcome_layer_and_sorts_it_once(
        self, capsys, tmp_path, monkeypatch, pair_table_builds
    ):
        """Each sweep family is preprocessed once, before any selector
        runs: that builds its pair table and sorts it once, and every
        selector reads the kept table; the oracle's deviation builds
        nothing."""
        monkeypatch.chdir(tmp_path)
        deviation = oracle.empirical_deviation

        def deviating(g, h, family):
            pair_table_builds.append("deviation")
            return deviation(g, h, family)

        monkeypatch.setattr(oracle, "empirical_deviation", deviating)
        sorts = []
        build = core._distance_order

        def sorting(layer):
            sorts.append(layer)
            return build(layer)

        monkeypatch.setattr(core, "_distance_order", sorting)
        per_instance = []
        evaluate = cli._evaluate_instance

        def evaluating(inst, *args):
            pair_table_builds.clear()
            sorts.clear()
            result = evaluate(inst, *args)
            per_instance.append((inst.family, list(pair_table_builds), list(sorts)))
            return result

        monkeypatch.setattr(cli, "_evaluate_instance", evaluating)
        code = main(["verify", "--trials", "20", "--seed", "3"])
        capsys.readouterr()
        assert code == 0
        assert len(per_instance) == 28
        for family, built, sorted_ in per_instance:
            shape = family.matrix.shape
            assert built == [shape, "deviation"]
            assert len(sorted_) == 1 and sorted_[0] is family._lex_pairs

    @pytest.mark.parametrize("delta_mode", ["full", "restricted"])
    def test_shared_reference_gives_the_from_scratch_checks(self, capsys, tmp_path, monkeypatch, delta_mode):
        """Every bound check of the sweep, run again without the shared
        reference, gives the same check bit for bit."""
        monkeypatch.chdir(tmp_path)
        check = cli.check_bound
        checked = []

        def checking(selected, family, g, h, a, b, mode, *, reference):
            shared = check(selected, family, g, h, a, b, mode, reference=reference)
            alone = check(selected, family, g, h, a, b, mode)
            assert [float(x).hex() for x in (shared.lhs, shared.rhs, shared.margin)] == [
                float(x).hex() for x in (alone.lhs, alone.rhs, alone.margin)
            ]
            assert shared == alone
            checked.append(mode)
            return shared

        monkeypatch.setattr(cli, "check_bound", checking)
        code = main(["verify", "--trials", "20", "--seed", "3", "--delta-mode", delta_mode])
        capsys.readouterr()
        assert code == 0
        assert len(checked) == 5 * 28
        assert ("restricted" in checked) == (delta_mode == "restricted")

    def test_invalid_parameters_exit_three(self, capsys):
        assert main(["verify", "--trials", "0"]) == 3
        assert main(["verify", "--trials", "5", "--max-omega", "0"]) == 3
        capsys.readouterr()


class TestBenchCommand:
    def test_exact_cost_columns(self, capsys):
        assert main(["bench", "--sizes", "2,4,8", "--omega", "5"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        costs = {
            (int(r["family_size"]), r["algorithm"]): (
                int(r["h_products"]),
                int(r["term_evaluations"]),
            )
            for r in rows
        }
        for m in (2, 4, 8):
            assert costs[(m, "tournament")][0] == m * (m - 1) // 2
            assert costs[(m, "mindist")][1] == m * m * (m - 1)
            assert costs[(m, "modified")][1] == m * (m - 1)
            assert costs[(m, "minloss")][0] == m * (m - 1) // 2
            assert costs[(m, "efficient")][0] == m - 1
        assert costs[(2, "randomized")] == (0, 2)
        assert (4, "randomized") not in costs

    def test_csv_output_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "3", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert {r["algorithm"] for r in rows} == {
            "tournament", "mindist", "modified", "minloss", "efficient",
        }
        assert all(int(r["wall_time_ns"]) >= 0 for r in rows)

    @pytest.mark.parametrize("sizes", ["", "2,x", "0", "-3"])
    def test_bad_sizes_exit_three(self, sizes, capsys):
        assert main(["bench", "--sizes", sizes]) == 3
        capsys.readouterr()

    def test_no_row_reuses_a_pair_table(self, capsys, pair_table_builds):
        """No row reads a table an earlier row built: only the elimination
        row builds one, by preprocessing its family, so its wall time
        includes the build, and every other row streams the table's rows
        and builds none."""
        assert main(["bench", "--sizes", "4", "--omega", "5"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["algorithm"] for r in rows] == ["tournament", "mindist", "modified", "minloss", "efficient"]
        assert pair_table_builds == [(4, 5)]

    def test_family_too_large_for_the_pair_table_exits_three(self, capsys):
        """Sizes whose largest family could not get the elimination row's
        pair table exit 3 before any row runs, so no row streams the 2*10**8
        pairs of m=20000 first."""
        tracemalloc.start()
        try:
            code = main(["bench", "--sizes", "2,20000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        captured = capsys.readouterr()
        assert "pair table" in captured.err and captured.out == ""
        assert peak < 1_000_000


class TestUnreadableAndUnwritablePaths:
    """A path that cannot be read exits 2 and one that cannot be written
    exits 3, each with a one-line message naming the path, never with a
    traceback and exit 1, the code of a failed verification."""

    @pytest.mark.parametrize("which", ["--family", "--empirical"])
    @pytest.mark.parametrize("fault", ["directory", "not_utf8"])
    def test_unreadable_input_exits_two(self, tmp_path, pair_files, capsys, which, fault):
        bad = tmp_path / "bad.json"
        if fault == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b'{"mass": [0.5, \xff0.5]}')
        paths = dict(zip(("--family", "--empirical"), pair_files))
        paths[which] = str(bad)
        argv = ["select", "--family", paths["--family"], "--empirical", paths["--empirical"]]
        assert main([*argv, "--algorithm", "mindist"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert ("cannot read" if fault == "directory" else "not UTF-8 text") in err

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["gen", "--example", "three", "--eps", "0.001"], "family.json"),
            (["gen", "--example", "random"], "empirical.json"),
            (["gen", "--example", "nine", "--eps", "0.001"], "truth.json"),
            (["gen", "--example", "vcdim", "--n", "3"], "family.json"),
        ],
    )
    def test_unwritable_gen_output_exits_three(self, tmp_path, capsys, argv, blocked):
        (tmp_path / blocked).mkdir()
        assert main([*argv, "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path / blocked}: Is a directory\n"

    def test_unwritable_counterexample_exits_three(self, tmp_path, capsys, monkeypatch):
        """A sweep that fails (here: the tournament held to an error of 0)
        but cannot dump its counterexample exits 3, naming the file."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(cli._BOUNDS, "tournament", (0.0, 0.0, False))
        (tmp_path / "counterexample.json").mkdir()
        assert main(["verify", "--trials", "5", "--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {tmp_path / 'counterexample.json'}: Is a directory\n"

    def test_failing_sweep_still_dumps_its_counterexample(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(cli._BOUNDS, "tournament", (0.0, 0.0, False))
        assert main(["verify", "--trials", "5", "--seed", "0"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["counterexample"] == str(tmp_path / "counterexample.json")
        record = json.loads((tmp_path / "counterexample.json").read_text(encoding="utf-8"))
        assert record["failure"]["algorithm"] == "tournament"

    def test_nan_noise_is_refused_by_name(self, tmp_path, capsys):
        assert main(["gen", "--example", "random", "--noise", "nan", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "error: noise must be >= 0, got nan\n"


class TestGenCommand:
    def test_pair_example_round_trips(self, tmp_path, capsys):
        out = tmp_path / "pair"
        assert main(["gen", "--example", "three", "--eps", "0.01", "--out", str(out)]) == 0
        files = json.loads(capsys.readouterr().out)["files"]
        inst = lower_bound_pair(0.01)
        family = read_family(files["family"])
        assert_array_equal(family.matrix, inst.family.matrix)
        assert_array_equal(read_empirical(files["empirical"], family.support).mass, inst.empirical.mass)
        assert_array_equal(read_mass_vector(files["truth"]), inst.truth)

    def test_tournament_example(self, tmp_path, capsys):
        out = tmp_path / "nine"
        assert main(["gen", "--example", "nine", "--eps", "0.001", "--out", str(out)]) == 0
        files = json.loads(capsys.readouterr().out)["files"]
        assert read_family(files["family"]).names == ("f1", "f2", "f3", "f3p")

    def test_vcdim_example_writes_family_only(self, tmp_path, capsys):
        out = tmp_path / "vc"
        assert main(["gen", "--example", "vcdim", "--n", "3", "--out", str(out)]) == 0
        files = json.loads(capsys.readouterr().out)["files"]
        assert set(files) == {"family"}
        assert read_family(files["family"]).size == 16

    def test_random_example(self, tmp_path, capsys):
        out = tmp_path / "rnd"
        code = main(
            ["gen", "--example", "random", "--seed", "7", "--k", "3", "--m", "4", "--noise", "0.1", "--out", str(out)]
        )
        assert code == 0
        files = json.loads(capsys.readouterr().out)["files"]
        inst = random_instance(7, 3, 4, 0.1)
        assert_array_equal(read_family(files["family"]).matrix, inst.family.matrix)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--example", "three", "--out", "x"],
            ["gen", "--example", "nine", "--out", "x"],
            ["gen", "--example", "vcdim", "--out", "x"],
            ["gen", "--example", "three", "--eps", "0.5", "--out", "x"],
        ],
    )
    def test_missing_or_bad_parameters_exit_three(self, tmp_path, monkeypatch, argv, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        capsys.readouterr()

    def test_generated_files_feed_select(self, tmp_path, capsys):
        out = tmp_path / "pipe"
        assert main(["gen", "--example", "three", "--eps", "0.02", "--out", str(out)]) == 0
        files = json.loads(capsys.readouterr().out)["files"]
        code = main(
            ["select", "--family", files["family"], "--empirical", files["empirical"], "--algorithm", "tournament"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["h_products"] == 1
