"""Reading and writing the JSON ensemble-spec format.

A spec file looks like

    {
      "dimension": 2,
      "states": [
        {"prior": 0.5, "matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [0.5, 0.0]]]},
        {"prior": 0.5, "ket": [[0.7071067811865476, 0.0],
                               [0.7071067811865476, 0.0]]}
      ],
      "tolerance": 1e-9
    }

Complex numbers are [re, im] pairs, matrices row-major nested lists.
Each member's ket or matrix is decoded to an array as soon as the member's
object closes, so at most one member's nested lists are alive at a time;
an entry that does not convert stays a list, and the per-entry readers
name its first bad value.  Kets are normalized on load (a warning fires
when the correction exceeds 1e-6); priors are checked to sum to 1 within
1e-9 and then renormalized exactly.  Matrices are checked (Hermitian,
positive semidefinite, unit trace) by Ensemble alone, and its errors are
reported under the member's field path.  The optional tolerance field
overrides the verification default unless the command line sets one.  NaN
and infinities are rejected.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, StateError
from .transforms import KrausOperator

_KET_NORM_WARN = 1e-6
_PRIOR_SUM_TOL = 1e-9


class SpecError(ValueError):
    """Malformed or inconsistent input file."""


def _reject_constant(token):
    raise SpecError(f"non-finite number {token!r} in input")


def _load_json(path):
    """The parsed document, and whether its text holds a true or false literal.

    Without such a literal, every well-formed ket and matrix in an object
    arrives as a float array of [re, im] pairs (see _pair_array).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}") from exc
    literals = "true" in text or "false" in text
    hook = None if literals else _arrays_as_they_close
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_hook=hook)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    return doc, literals


def _pair_array(entry, ndim: int):
    """A ket (ndim 1) or square matrix (ndim 2) of [re, im] pairs as a float
    array of shape (k,) * ndim + (2,), or None when the entry is anything else:
    not numbers, not finite, ragged, or of another shape."""
    try:
        arr = np.asarray(entry)
    except ValueError:  # ragged nesting
        return None
    if (arr.ndim != ndim + 1 or arr.shape[-1] != 2 or len(set(arr.shape[:-1])) != 1
            or arr.dtype.kind not in "fiu"):
        return None
    arr = np.asarray(arr, dtype=np.float64)
    return arr if np.isfinite(arr).all() else None


_ARRAY_FIELDS = (("ket", 1), ("matrix", 2))


def _arrays_as_they_close(obj: dict) -> dict:
    """json object_hook: replace a well-formed ket or matrix by its array."""
    for key, ndim in _ARRAY_FIELDS:
        value = obj.get(key)
        if isinstance(value, list):
            arr = _pair_array(value, ndim)
            if arr is not None:
                obj[key] = arr
    return obj


def _real(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{field} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise SpecError(f"{field} is not finite")
    return x


def _complex(entry, field: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise SpecError(f"{field} must be an [re, im] pair, got {entry!r}")
    return complex(_real(entry[0], f"{field}[0]"), _real(entry[1], f"{field}[1]"))


def _vector(entry, dim: int, field: str) -> np.ndarray:
    if not isinstance(entry, list) or len(entry) != dim:
        raise SpecError(f"{field} must be a list of {dim} complex entries")
    return np.array([_complex(x, f"{field}[{k}]") for k, x in enumerate(entry)])


def _matrix(entry, dim: int, field: str) -> np.ndarray:
    if not isinstance(entry, list) or len(entry) != dim:
        raise SpecError(f"{field} must be a {dim} x {dim} matrix")
    return np.vstack([_vector(row, dim, f"{field}[{k}]") for k, row in enumerate(entry)])


def _complex_array(entry, dim: int, ndim: int, field: str, literals: bool) -> np.ndarray:
    """A ket (ndim 1) or matrix (ndim 2) of [re, im] pairs as a complex array.

    The entry is the float array _load_json decoded, or a list: one numpy
    conversion reads a well-formed list.  numpy reads a true among numbers
    as 1.0, so a file holding a true/false literal goes through the
    per-entry walkers, as does any entry that does not convert to finite
    numbers of the right shape (a string, null, ragged or wrong-length
    list); the walkers raise the message naming the first bad entry.
    """
    if isinstance(entry, np.ndarray):
        arr = entry
    else:
        arr = None if literals else _pair_array(entry, ndim)
    if arr is not None and arr.shape[0] == dim:
        return arr.view(np.complex128)[..., 0]
    if isinstance(entry, np.ndarray):  # of another dimension
        entry = entry.tolist()
    walk = _vector if ndim == 1 else _matrix
    return walk(entry, dim, field)


@dataclass(frozen=True)
class ParsedSpec:
    ensemble: Ensemble
    tolerance: float | None


def read_spec(path) -> ParsedSpec:
    """Load an ensemble spec; the matrices are validated by Ensemble alone."""
    doc, literals = _load_json(path)
    if not isinstance(doc, dict):
        raise SpecError("spec root must be an object")
    if "dimension" not in doc:
        raise SpecError("missing dimension")
    dim = doc["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SpecError(f"dimension must be a positive integer, got {dim!r}")
    raw_states = doc.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise SpecError("states must be a non-empty list")

    priors = []
    states = []
    fields = []
    for k, entry in enumerate(raw_states):
        field = f"states[{k}]"
        if not isinstance(entry, dict):
            raise SpecError(f"{field} must be an object")
        if "prior" not in entry:
            raise SpecError(f"{field} is missing its prior")
        p = _real(entry["prior"], f"{field}.prior")
        if p <= 0.0:
            raise SpecError(f"{field}.prior must be strictly positive, got {p!r}")
        priors.append(p)
        has_ket = "ket" in entry
        has_matrix = "matrix" in entry
        if has_ket == has_matrix:
            raise SpecError(f"{field} needs exactly one of ket or matrix")
        if has_ket:
            field += ".ket"
            v = _complex_array(entry["ket"], dim, 1, field, literals)
            norm = float(np.linalg.norm(v))
            if norm == 0.0:
                raise SpecError(f"{field} is the zero vector")
            if abs(norm - 1.0) > _KET_NORM_WARN:
                warnings.warn(f"{field} renormalized (norm was {norm!r})", stacklevel=2)
            v = v / norm
            states.append(np.outer(v, v.conj()))
        else:
            field += ".matrix"
            states.append(_complex_array(entry["matrix"], dim, 2, field, literals))
        fields.append(field)

    total = sum(priors)
    if abs(total - 1.0) > _PRIOR_SUM_TOL:
        raise SpecError(f"priors sum to {total:.6g}, expected 1")
    priors = np.asarray(priors) / total

    tolerance = None
    if "tolerance" in doc:
        tolerance = _real(doc["tolerance"], "tolerance")
        if tolerance <= 0.0:
            raise SpecError("tolerance must be positive")

    try:
        ens = Ensemble(dim, tuple(states), priors)
    except StateError as exc:
        raise SpecError(f"{fields[exc.index]} {exc.problem}") from exc
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return ParsedSpec(ens, tolerance)


def parse_spec(path) -> Ensemble:
    """Load an ensemble spec file, applying normalization and validation."""
    return read_spec(path).ensemble


def load_kraus(path) -> KrausOperator:
    """Operation element from a JSON file holding one nested [re, im] matrix."""
    doc, literals = _load_json(path)
    if isinstance(doc, dict) and "matrix" in doc:
        doc = doc["matrix"]
    if not isinstance(doc, (list, np.ndarray)) or not len(doc):
        raise SpecError("kraus file must hold a square matrix of [re, im] pairs")
    m = _complex_array(doc, len(doc), 2, "matrix", literals)
    try:
        return KrausOperator(m)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def matrix_to_json(m) -> list:
    """Nested [re, im] pairs of a complex array (of any shape)."""
    a = np.asarray(m)
    return np.stack([a.real, a.imag], -1).tolist()
