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
Kets are normalized on load (a warning fires when the correction exceeds
1e-6); priors are checked to sum to 1 within 1e-9 and then renormalized
exactly.  Matrices are checked (Hermitian, positive semidefinite, unit
trace) by Ensemble alone, and its errors are reported under the member's
field path.  The optional tolerance field overrides the verification
default unless the command line sets one.  NaN and infinities are rejected.
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
    """The parsed document, and whether its text holds a true or false literal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    return doc, "true" in text or "false" in text


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

    One numpy conversion reads a well-formed entry.  numpy reads a true
    among numbers as 1.0, so a file holding a true/false literal goes
    through the per-entry walkers, as does any entry that does not convert
    to finite numbers of the right shape (a string, null, ragged or
    wrong-length list); the walkers raise the message naming the first bad
    entry.
    """
    if not literals:
        try:
            arr = np.asarray(entry)
        except ValueError:  # ragged nesting
            arr = None
        if arr is not None and arr.shape == (dim,) * ndim + (2,) and arr.dtype.kind in "fiu":
            arr = np.asarray(arr, dtype=np.float64)
            if np.isfinite(arr).all():
                return arr.view(np.complex128)[..., 0]
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
    if not isinstance(doc, list) or not doc:
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


def vector_to_json(v) -> list:
    return matrix_to_json(np.asarray(v).reshape(-1))
