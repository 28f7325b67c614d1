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
A file is streamed: it is read in chunks of _READ_CHUNK characters, the
root object and each member of the states array are tokenized field by
field, and each matrix (a member's, a Kraus file's root matrix or a bare
Kraus array) is decoded one [[re, im], ...] row at a time into its float
array.  So neither the file's bytes nor its whole text is ever held, and
at most one chunk of text, one row's nested lists and one d x d array are
alive at a time.  A valid file is decoded once; a file that is not JSON is
read again whole only to give json.loads's own message.  A ket that does
not convert stays a list, and so does a matrix with such a row, its filled
rows arrays.  The per-entry readers (_vector, _matrix) view a finite float
array of the right shape as complex and walk anything else entry by entry
to name its first bad value.  numpy reads true as 1.0, so the rule is per
value: a ket or matrix row whose own text holds a true or false literal
stays a list, and a literal elsewhere changes nothing.
Kets are normalized on load (a warning fires when the correction exceeds
1e-6) and are their own factors; priors are checked to sum to 1 within
1e-9 and then renormalized exactly.  Matrices are checked (Hermitian,
positive semidefinite, unit trace) and factored by the constructor's own
routine (ensembles._checked_state) as their objects close, and a failed
check is reported under the member's field path.  The optional tolerance
field overrides the verification default unless the command line sets
one.  NaN and infinities are rejected: in a ket or a Kraus matrix by the
per-entry readers, in a member matrix first by its checks as it closes.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble, _checked_state
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

    buf[pos:] is the text read but not yet consumed.
    """

    def __init__(self, fh):
        self.fh = fh
        self.buf = ""
        self.pos = 0
        self.eof = False

    def _read(self, want=1):
        """Read chunks until the unconsumed text has at least `want`
        characters, or the file ends."""
        pieces = [self.buf[self.pos:]]
        have = len(pieces[0])
        while have < want and not self.eof:
            chunk = self.fh.read(_READ_CHUNK)
            self.eof = not chunk
            pieces.append(chunk)
            have += len(chunk)
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

    def _decoded(self):
        """(the JSON value at the next character, whether its text is free of
        quotes and of the letters t, f and n).  No number holds them, the
        true, false and null literals begin with them, and a string needs
        quotes.  A decode that fails, or a number that the text read so far
        may continue ("1" of "1e-9"), reads on to twice the text and starts
        again; at the end of the file the text is not JSON."""
        self.peek()
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
        return value, all(self.buf.find(c, start, end) < 0 for c in 'tfn"')

    def value(self):
        return self._decoded()[0]

    def ket(self):
        """A ket's value, as a float array of [re, im] pairs when its text
        has no literal or string (see _decoded) and it converts (_pairs)."""
        value, plain = self._decoded()
        arr = _pairs(value) if plain else None
        return value if arr is None else arr

    def matrix(self):
        """A matrix's value.  A list is decoded one row at a time, and each
        row of [re, im] pairs (_pairs) fills the next row of a float array of
        shape (k, k, 2), k the first row's length, grown as rows arrive.  A
        row that breaks that form (a true, false, null or string in its
        text, another length, not pairs of numbers, a row past the k-th), or
        fewer than k rows, leaves the matrix a list for the per-entry
        walkers: the rows filled, as arrays, then the rest as decoded."""
        if self.peek() != "[":
            return self.value()
        arr, n, rows = None, 0, []  # rows [0, n) filled, then the rows after a break
        for _ in self._items():
            row, plain = self._decoded()
            r = _pairs(row) if plain and not rows else None
            if r is not None and arr is None:
                arr = np.empty((1,) + r.shape)
            if r is not None and r.shape == arr.shape[1:] and n < len(r):
                if n == len(arr):  # doubled as rows arrive: k pairs in a row do not make k rows
                    arr = np.concatenate((arr, np.empty((min(n, len(r) - n),) + r.shape)))
                arr[n] = r
                n += 1
            else:
                rows.append(row)
        if n and not rows and n == arr.shape[1]:
            return arr
        return (list(arr[:n]) if n else []) + rows

    def object(self, fields):
        """The object at the next character.  Its `key` field is read by
        fields[key] when there is one, else as one value()."""
        obj = {}
        for _ in self._items("}"):
            if self.peek() != '"':
                raise _NotJSON
            key = self.value()
            self.expect(":")
            obj[key] = fields.get(key, _Stream.value)(self)
        return obj

    def members(self):
        """The states array: each member object tokenized field by field and
        factored as it closes (_factored)."""
        if self.peek() != "[":
            return self.value()
        return [_factored(self.object(_MEMBER_FIELDS) if self.peek() == "{" else self.value())
                for _ in self._items()]

    def _items(self, close="]"):
        """Stop at each element of the array (or, with close "}", each field
        of the object) at the next character in turn, for the caller to
        read it, and consume the brackets and commas around them."""
        self.pos += 1
        if self.peek() == close:
            self.pos += 1
            return
        while True:
            yield
            if self.expect("," + close) == close:
                return

    def document(self):
        """The whole document: a root object tokenized field by field, or a
        bare Kraus matrix."""
        doc = self.object(_ROOT_FIELDS) if self.peek() == "{" else self.matrix()
        if self.peek():
            raise _NotJSON  # json.loads: extra data
        return doc


_MEMBER_FIELDS = {"ket": _Stream.ket, "matrix": _Stream.matrix}
_ROOT_FIELDS = {"states": _Stream.members, "matrix": _Stream.matrix}


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
    """The parsed document.

    The file is streamed (see _Stream), so its text is never held whole.
    Every well-formed ket or matrix whose text holds no literal or string
    arrives as a float array of [re, im] pairs (see _Stream.ket and
    _Stream.matrix).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return _Stream(fh).document()
            except (_NotJSON, UnicodeDecodeError):
                pass
        _not_json(path)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _pairs(entry):
    """A list of [re, im] pairs (a ket, or a matrix row) as a float array of
    shape (k, 2), or None when it is anything else: ragged, of another
    shape, or holding an object or a number beyond the float range.  numpy
    reads true as 1.0, null as NaN and a string of digits as its number, so
    it is given only a value whose text has no literal or string (see
    _Stream._decoded); _vector and _matrix check that the numbers are finite."""
    try:
        arr = np.array(entry, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):  # ragged, an object, a huge integer
        return None
    return arr if arr.ndim == 2 and arr.shape[1] == 2 else None


def _factored(member):
    """The member with its decoded matrix replaced by its factor, dropping the
    d x d array; one that fails its checks stays for read_spec to name."""
    m = member.get("matrix") if isinstance(member, dict) else None
    with contextlib.suppress(ValueError):
        if isinstance(m, np.ndarray):
            member["matrix"] = _checked_state(m.view(np.complex128)[..., 0])
    return member


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
    if not isinstance(entry, (list, tuple, np.ndarray)) or len(entry) != 2:
        raise SpecError(f"{field} must be an [re, im] pair, got {entry!r}")
    return complex(_real(entry[0], f"{field}[0]"), _real(entry[1], f"{field}[1]"))


def _vector(entry, dim: int, field: str) -> np.ndarray:
    """A ket or matrix row as a complex array (see the module docstring)."""
    if isinstance(entry, np.ndarray) and entry.shape == (dim, 2) and np.isfinite(entry).all():
        return entry.view(np.complex128)[..., 0]
    if not isinstance(entry, (list, np.ndarray)) or len(entry) != dim:
        raise SpecError(f"{field} must be a list of {dim} complex entries")
    return np.array([_complex(x, f"{field}[{k}]") for k, x in enumerate(entry)])


def _matrix(entry, dim: int, field: str) -> np.ndarray:
    """A matrix, its rows arrays, lists or both, as a complex array."""
    if isinstance(entry, np.ndarray) and entry.shape == (dim, dim, 2) and np.isfinite(entry).all():
        return entry.view(np.complex128)[..., 0]
    if not isinstance(entry, (list, np.ndarray)) or len(entry) != dim:
        raise SpecError(f"{field} must be a {dim} x {dim} matrix")
    return np.vstack([_vector(row, dim, f"{field}[{k}]") for k, row in enumerate(entry)])


@dataclass(frozen=True)
class ParsedSpec:
    ensemble: Ensemble
    tolerance: float | None


def read_spec(path) -> ParsedSpec:
    """Load an ensemble spec; each matrix is checked and factored as it is
    read, so each member is held once, as its factor, and a failed check
    is reported after every member is read."""
    doc = _load_json(path)
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
    factors = []
    problem = None
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
            v = _vector(entry["ket"], dim, field)
            norm = float(np.linalg.norm(v))
            if norm == 0.0:
                raise SpecError(f"{field} is the zero vector")
            if abs(norm - 1.0) > _KET_NORM_WARN:
                warnings.warn(f"{field} renormalized (norm was {norm!r})", stacklevel=2)
            factors.append((v / norm)[:, None])
            continue
        field += ".matrix"
        m = entry["matrix"]
        if isinstance(m, np.ndarray) and m.dtype == np.complex128:  # factored as it closed
            if len(m) != dim:
                raise SpecError(f"{field} must be a {dim} x {dim} matrix")
        else:
            m = _matrix(m, dim, field)
            try:
                m = _checked_state(m)
            except ValueError as exc:
                problem = problem or f"{field} {exc}"
        factors.append(m)

    total = sum(priors)
    if abs(total - 1.0) > _PRIOR_SUM_TOL:
        raise SpecError(f"priors sum to {total:.6g}, expected 1")
    priors = np.asarray(priors) / total

    tolerance = None
    if "tolerance" in doc:
        tolerance = _real(doc["tolerance"], "tolerance")
        if tolerance <= 0.0:
            raise SpecError("tolerance must be positive")

    if problem is not None:
        raise SpecError(problem)
    try:
        ens = Ensemble._of(dim, tuple(factors), priors)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return ParsedSpec(ens, tolerance)


def load_kraus(path) -> KrausOperator:
    """Operation element from a JSON file holding one nested [re, im] matrix."""
    doc = _load_json(path)
    if isinstance(doc, dict) and "matrix" in doc:
        doc = doc["matrix"]
    if not isinstance(doc, (list, np.ndarray)) or not len(doc):
        raise SpecError("kraus file must hold a square matrix of [re, im] pairs")
    m = _matrix(doc, len(doc), "matrix")
    try:
        return KrausOperator(m)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def matrix_to_json(m) -> list:
    """Nested [re, im] pairs of a complex array (of any shape)."""
    a = np.asarray(m)
    return np.stack([a.real, a.imag], -1).tolist()
