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
A file is streamed: it is read in chunks of _READ_CHUNK characters, and
each member of the states array is decoded on its own as soon as its text
is in, so neither the file's bytes nor its whole text is ever held, and
at most one member's text and nested lists are alive at a time.  A valid
file is decoded once; a file that is not JSON is read again whole only to
give json.loads's own message.  Each member's ket or matrix is decoded to
an array as its object closes; an entry that does not convert stays a
list, and the per-entry readers name its first bad value.  Kets are
normalized on load (a warning fires when the correction exceeds 1e-6);
priors are checked to sum to 1 within 1e-9 and then renormalized exactly.
Matrices are checked (Hermitian, positive semidefinite, unit trace) by
Ensemble alone, in place on the decoded arrays, which it adopts, and its
errors are reported under the member's field path.  The optional tolerance field overrides the verification default
unless the command line sets one.  NaN and infinities are rejected.
"""

from __future__ import annotations

import json
import math
import re
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


# Characters read from a spec or Kraus file at a time.
_READ_CHUNK = 1 << 18
_WHITESPACE = re.compile(r"[ \t\n\r]*").match  # JSON's, as json.decoder skips it
_NUMBER_CHARS = re.compile(r"[0-9.eE+-]*").match
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


class _NotJSON(Exception):
    """The streamed text breaks JSON's grammar; _not_json names where."""


class _Stream:
    """A JSON text read _READ_CHUNK characters at a time.

    buf[pos:] is the text read but not yet consumed.  literals records
    whether the text of a decoded value held a true or false literal.
    """

    def __init__(self, fh):
        self.fh = fh
        self.buf = ""
        self.pos = 0
        self.eof = False
        self.literals = False

    def _read(self, want=1, stop=None):
        """Read chunks until the unconsumed text has at least `want`
        characters and holds the character `stop`, or the file ends."""
        pieces = [self.buf[self.pos:]]
        have = len(pieces[0])
        found = stop is None or stop in pieces[0]
        while (have < want or not found) and not self.eof:
            chunk = self.fh.read(_READ_CHUNK)
            self.eof = not chunk
            pieces.append(chunk)
            have += len(chunk)
            found = found or stop in chunk
        self.buf = "".join(pieces)
        self.pos = 0

    def peek(self) -> str:
        """The next character after whitespace, or "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.buf[self.pos:self.pos + 1]
            self._read()

    def expect(self, chars: str) -> str:
        c = self.peek()
        if not c or c not in chars:
            raise _NotJSON
        self.pos += 1
        return c

    def value(self, stop=None):
        """The JSON value at the next character, read on until `stop` first.

        A value without a true or false literal in its text that is an
        object has its well-formed ket or matrix decoded to an array, as the
        object closes.  A decode that fails, or a number that the text read
        so far may continue ("1" of "1e-9"), reads on to twice the text and
        starts again; at the end of the file the text is not JSON.
        """
        self.peek()
        if stop is not None and self.buf.find(stop, self.pos) < 0:
            self._read(stop=stop)
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
                if (self.eof or not isinstance(value, (int, float))
                        or _NUMBER_CHARS(self.buf, end).end() < len(self.buf)):
                    break
            except json.JSONDecodeError:
                if self.eof:
                    raise _NotJSON from None
            self._read(want=2 * (len(self.buf) - self.pos) + 1)
        start, self.pos = self.pos, end
        if self.buf.find("true", start, end) >= 0 or self.buf.find("false", start, end) >= 0:
            self.literals = True
        elif isinstance(value, dict):
            _arrays_as_they_close(value)
        return value

    def document(self):
        """The whole document.  Only a root object and its states array are
        tokenized here: each member, and every other value, is one value()."""
        if self.peek() != "{":
            self._read(want=math.inf)  # a bare Kraus matrix is one value
            doc = self.value()
        else:
            self.pos += 1
            doc = {}
            if self.peek() == "}":
                self.pos += 1
            else:
                while True:
                    if self.peek() != '"':
                        raise _NotJSON
                    key = self.value()
                    self.expect(":")
                    doc[key] = self.members() if key == "states" and self.peek() == "[" else self.value()
                    if self.expect(",}") == "}":
                        break
            if not self.literals:
                _arrays_as_they_close(doc)
        if self.peek():
            raise _NotJSON  # json.loads: extra data
        return doc

    def members(self) -> list:
        self.pos += 1
        out = []
        if self.peek() == "]":
            self.pos += 1
            return out
        while True:
            out.append(self.value(stop="}"))
            if self.expect(",]") == "]":
                return out


def _not_json(path):
    """Raise json.loads's own error for the whole file (a SpecError), or the
    UnicodeDecodeError of reading it whole; the streamed read only finds
    that the file is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    raise RuntimeError(f"{path}: the streamed reader rejected a document json.loads accepts")


def _load_json(path):
    """The parsed document, and whether its text holds a true or false literal.

    The file is streamed (see _Stream), so its text is never held whole.
    Every well-formed ket or matrix in an object whose text holds no such
    literal arrives as a float array of [re, im] pairs (see _pair_array).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stream = _Stream(fh)
            try:
                return stream.document(), stream.literals
            except (_NotJSON, UnicodeDecodeError):
                pass
        _not_json(path)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}") from exc


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
    """Load an ensemble spec; the matrices are validated by Ensemble alone,
    in place on the arrays just decoded, so each member is held once."""
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
        ens = Ensemble._adopt(dim, tuple(states), priors)
    except StateError as exc:
        raise SpecError(f"{fields[exc.index]} {exc.problem}") from exc
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return ParsedSpec(ens, tolerance)


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
