"""Golden outputs: the command-line results that refactors must keep
byte-identical.

Each file under ``tests/golden/`` holds what one command set printed when
the file was written; the tests rerun the commands and compare bytes.  The
outputs do not depend on the BLAS in use: every decision a matrix product
screens is rechecked by exact row-wise sums.  ``bench`` is compared without
its ``wall_time_ns`` column.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` like any other change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import pathlib
import sys
import tempfile

import pytest

from l1select import random_instance, write_empirical, write_family
from l1select.cli import ALGORITHMS, main

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")
DETERMINISTIC = tuple(a for a in ALGORITHMS if a != "randomized")


def _stdout(argv) -> str:
    """What ``l1select argv`` prints to stdout; it must exit 0."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buffer.getvalue()


def _select_all(family: str, empirical: str, algorithms) -> str:
    return "".join(
        _stdout(["select", "--family", family, "--empirical", empirical, "--algorithm", a])
        for a in algorithms
    )


def _select_three(workdir: pathlib.Path) -> str:
    out = workdir / "three"
    _stdout(["gen", "--example", "three", "--eps", "0.001", "--out", str(out)])
    return _select_all(str(out / "family.json"), str(out / "empirical.json"), ALGORITHMS)


def _select_random(workdir: pathlib.Path) -> str:
    inst = random_instance(0, 64, 96, 0.1)
    family, empirical = workdir / "family.json", workdir / "empirical.json"
    write_family(family, inst.family)
    write_empirical(empirical, inst.empirical)
    return _select_all(str(family), str(empirical), DETERMINISTIC)


def _bench(workdir: pathlib.Path) -> str:
    rows = csv.DictReader(io.StringIO(_stdout(["bench", "--sizes", "2,8,32"])))
    fields = [f for f in rows.fieldnames if f != "wall_time_ns"]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


# Golden file name -> the command set whose output it holds.
COMMANDS = {
    "verify_trials200_seed0.json": lambda _: _stdout(["verify", "--trials", "200", "--seed", "0"]),
    "verify_trials200_seed5_restricted_flip.json": lambda _: _stdout(
        ["verify", "--trials", "200", "--seed", "5", "--delta-mode", "restricted", "--flip-draw-removal"]
    ),
    "verify_trials50_family120_omega160_seed0.json": lambda _: _stdout(
        ["verify", "--trials", "50", "--max-family", "120", "--max-omega", "160", "--seed", "0"]
    ),
    "select_three_eps0.001.txt": _select_three,
    "select_random_m96_k64.txt": _select_random,
    "bench_sizes_2_8_32.csv": _bench,
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_the_golden_file(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert COMMANDS[name](tmp_path) == (GOLDEN_DIR / name).read_text(encoding="utf-8")


def _write_golden_files() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, command in COMMANDS.items():
        with tempfile.TemporaryDirectory() as workdir:
            (GOLDEN_DIR / name).write_text(command(pathlib.Path(workdir)), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden_files()
