"""JSON file formats for families and empirical mass vectors.

A family file holds the support labels and one named mass vector per
candidate; an empirical file holds either a normalized mass vector or a raw
list of sampled atom labels (aggregated to frequencies at load time, keeping
only the sample count).  Floats are serialized with Python's shortest
round-trip decimal representation (at most 17 significant digits), so a
write-then-read cycle reproduces every vector bit for bit.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np

from .core import Candidate, EmpiricalDistribution, Family, Support

__all__ = [
    "FileFormatError",
    "read_family",
    "write_family",
    "read_empirical",
    "write_empirical",
    "read_mass_vector",
    "write_mass_vector",
]


class FileFormatError(ValueError):
    """An instance file is missing, malformed, or internally inconsistent."""


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise FileFormatError(f"{path}: file not found") from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: expected a JSON object at top level")
    return data


def _require(data: dict, key: str, path) -> object:
    if key not in data:
        raise FileFormatError(f"{path}: missing required key {key!r}")
    return data[key]


def _as_float_list(values, what: str, path) -> list[float]:
    # Exact types: JSON true and false decode to bool, a subclass of int.
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise FileFormatError(f"{path}: {what} must be a list of numbers")
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise FileFormatError(f"{path}: {what} holds an integer too large for a float") from None


def read_family(path) -> Family:
    """Load a family file: ``{"support": [...], "candidates": [{"name", "mass"}, ...]}``."""
    data = _load_json(path)
    support_labels = _require(data, "support", path)
    if not isinstance(support_labels, list) or not all(isinstance(s, str) for s in support_labels):
        raise FileFormatError(f"{path}: support must be a list of atom labels")
    entries = _require(data, "candidates", path)
    if not isinstance(entries, list):
        raise FileFormatError(f"{path}: candidates must be a list")
    try:
        support = Support(tuple(support_labels))
        try:
            return _stacked_family(support, entries)
        except ValueError:
            # Read candidate by candidate instead, so that the error names
            # the first candidate at fault.
            return Family(support, [_read_candidate(entry, path) for entry in entries])
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _stacked_family(support: Support, entries: list) -> Family:
    """The family of ``entries`` with all mass rows stacked into one array
    and checked in one pass.  Raises ValueError, without saying which
    candidate is at fault, on any entry :func:`_read_candidate` or
    :class:`Family` would reject, booleans included, which numpy would
    read as 0 and 1, and on integers of 2**64 or more, which numpy keeps as
    Python objects."""
    names, rows = [], []
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("mass"), list)
        ):
            raise ValueError("malformed candidate entry")
        names.append(entry["name"])
        rows.append(entry["mass"])
    matrix = np.array(rows) if rows else np.empty((0, support.size))
    # numpy reads true and false as 1 and 0, so only a matrix holding a 0 or
    # a 1 can hide one; the scan of every entry's type runs only then.
    if matrix.dtype.kind not in "iuf" or (
        ((matrix == 0) | (matrix == 1)).any() and bool in set(map(type, itertools.chain.from_iterable(rows)))
    ):
        raise ValueError("mass entries are not all numbers")
    return Family._from_matrix(support, names, matrix.astype(np.float64, copy=False))


def _read_candidate(entry, path) -> Candidate:
    if not isinstance(entry, dict):
        raise FileFormatError(f"{path}: each candidate must be an object")
    name = _require(entry, "name", path)
    if not isinstance(name, str):
        raise FileFormatError(f"{path}: candidate names must be strings")
    return Candidate(name, _as_float_list(_require(entry, "mass", path), f"mass of {name!r}", path))


def write_family(path, family: Family) -> None:
    payload = {
        "support": list(family.support.atoms),
        "candidates": [
            {"name": c.name, "mass": [float(x) for x in c.mass]} for c in family.candidates
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_empirical(path, support: Support) -> EmpiricalDistribution:
    """Load an empirical file: either ``{"mass": [...]}`` or ``{"samples": [...]}``.

    A mass vector must have one entry per atom of ``support``.  Sample labels
    must belong to ``support``; they are aggregated to frequencies and the
    sample count is retained.
    """
    data = _load_json(path)
    has_mass, has_samples = "mass" in data, "samples" in data
    if has_mass == has_samples:
        raise FileFormatError(f"{path}: provide exactly one of 'mass' or 'samples'")
    try:
        if has_mass:
            mass = _as_float_list(data["mass"], "mass", path)
            if len(mass) != support.size:
                raise FileFormatError(
                    f"{path}: mass has {len(mass)} entries on a support of size {support.size}"
                )
            return EmpiricalDistribution(mass)
        samples = data["samples"]
        if not isinstance(samples, list) or not samples or not all(isinstance(s, str) for s in samples):
            raise FileFormatError(f"{path}: samples must be a nonempty list of atom labels")
        counts = Counter(samples)
        unknown = sorted(set(counts) - set(support.atoms))
        if unknown:
            raise FileFormatError(f"{path}: samples reference unknown atom labels {unknown}")
        n = len(samples)
        mass = np.array([counts.get(atom, 0) / n for atom in support.atoms])
        return EmpiricalDistribution(mass, sample_count=n)
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_empirical(path, empirical: EmpiricalDistribution) -> None:
    payload = {"mass": [float(x) for x in empirical.mass]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_mass_vector(path) -> np.ndarray:
    """Load a bare mass vector file ``{"mass": [...]}`` (used for stored truths)."""
    data = _load_json(path)
    return np.array(_as_float_list(_require(data, "mass", path), "mass", path))


def write_mass_vector(path, mass) -> None:
    payload = {"mass": [float(x) for x in np.asarray(mass, dtype=float)]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
