"""Truncated or corrupted specs and Kraus files fail exactly as json.loads
over the whole file and the per-entry walkers say, at any chunk size of the
streamed reader."""

import json

import numpy as np
import pytest

from maxconf import SpecError, load_kraus, read_spec, specio
from maxconf.specio import matrix_to_json

from helpers import streamed_and_whole
from randomgen import random_density

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_BASE = json.dumps(
    {
        "dimension": 2,
        "states": [
            {"prior": 0.25, "ket": [[0.6, 0.0], [0.0, 0.8]]},
            {"prior": 0.75, "matrix": [[[0.75, 0.0], [0.125, -0.25]], [[0.125, 0.25], [0.25, 0.0]]]},
        ],
        "tolerance": 1e-9,
    },
    indent=1,
)
_JSON_CHARS = '{}[],:"\\ \n0123456789-+.eEtrufalsnNIy'


@st.composite
def damaged_specs(draw):
    """A valid spec truncated, or with one character replaced, dropped or added."""
    at = draw(st.integers(0, len(_BASE) - 1))
    how = draw(st.sampled_from(["truncate", "replace", "drop", "add"]))
    c = draw(st.sampled_from(_JSON_CHARS))
    if how == "truncate":
        return _BASE[:at]
    if how == "replace":
        return _BASE[:at] + c + _BASE[at + 1:]
    if how == "drop":
        return _BASE[:at] + _BASE[at + 1:]
    return _BASE[:at] + c + _BASE[at:]


@pytest.fixture(scope="module")
def damaged_path(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "spec.json"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(damaged_specs(), st.sampled_from([None, 1, 3, 16]))
def test_damaged_specs_fail_as_json_loads_does(damaged_path, text, chunk):
    damaged_path.write_text(text, encoding="utf-8")
    path = str(damaged_path)
    streamed, whole = streamed_and_whole(read_spec, path, chunk)
    assert streamed == whole
    try:
        json.loads(text, parse_constant=specio._reject_constant)
    except json.JSONDecodeError as exc:
        assert streamed == ("SpecError", f"{path} is not valid JSON: {exc}")
    except SpecError as exc:
        assert streamed == ("SpecError", str(exc))


_SENTINEL = 123.25
# The texts the reader gave before it decoded a matrix one row at a time,
# when each member was one decode and a literal anywhere in its text left
# its matrix to the per-entry walkers.
DAMAGED_MATRIX_TEXTS = [
    ("spec", "literal in the last row", "states[0].matrix[7][5][1] must be a number, got True"),
    ("spec", "short row", "states[0].matrix[3] must be a list of 8 complex entries"),
    ("spec", "ragged pair", "states[0].matrix[4][2] must be an [re, im] pair, got [1, 2, 3]"),
    ("spec", "string entry", "states[0].matrix[5][6][0] must be a number, got '0.5'"),
    ("spec", "overflow", "states[0].matrix[6][1][0] is not finite"),
    ("spec", "one row too many", "states[0].matrix must be a 8 x 8 matrix"),
    ("spec", "truncated mid-row", "{path} is not valid JSON: Expecting ',' delimiter: line 1 column 1911 (char 1910)"),
    ("spec", "dimension after states", "states[0].matrix must be a 4 x 4 matrix"),
    ("bare", "literal in the last row", "matrix[7][5][1] must be a number, got True"),
    ("bare", "short row", "matrix[3] must be a list of 8 complex entries"),
    ("bare", "ragged pair", "matrix[4][2] must be an [re, im] pair, got [1, 2, 3]"),
    ("bare", "string entry", "matrix[5][6][0] must be a number, got '0.5'"),
    ("bare", "overflow", "matrix[6][1][0] is not finite"),
    ("bare", "one row too many", "matrix[0] must be a list of 9 complex entries"),
    ("bare", "truncated mid-row", "{path} is not valid JSON: Expecting ',' delimiter: line 1 column 1858 (char 1857)"),
    ("wrapped", "literal in the last row", "matrix[7][5][1] must be a number, got True"),
    ("wrapped", "short row", "matrix[3] must be a list of 8 complex entries"),
    ("wrapped", "ragged pair", "matrix[4][2] must be an [re, im] pair, got [1, 2, 3]"),
    ("wrapped", "string entry", "matrix[5][6][0] must be a number, got '0.5'"),
    ("wrapped", "overflow", "matrix[6][1][0] is not finite"),
    ("wrapped", "one row too many", "matrix[0] must be a list of 9 complex entries"),
    ("wrapped", "truncated mid-row", "{path} is not valid JSON: Expecting ',' delimiter: line 1 column 1869 (char 1868)"),
]


def _damaged_matrix_text(case, form):
    """A seeded d=8 matrix damaged as `case` says, as a spec's first member,
    a bare Kraus file or a {"matrix": ...} Kraus file."""
    m = matrix_to_json(random_density(np.random.default_rng(20), 8, 3))
    if case == "literal in the last row":
        m[7][5][1] = True
    elif case == "short row":
        m[3] = m[3][:7]
    elif case == "ragged pair":
        m[4][2] = [1, 2, 3]
    elif case == "string entry":
        m[5][6][0] = "0.5"
    elif case == "overflow":
        m[6][1][0] = _SENTINEL
    elif case == "one row too many":
        m.append(m[0])
    if form == "spec":
        states = [{"prior": 0.5, "matrix": m}, {"prior": 0.5, "ket": [[1, 0]] + [[0, 0]] * 7}]
        doc = ({"states": states, "dimension": 4} if case == "dimension after states"
               else {"dimension": 8, "states": states})
    else:
        doc = m if form == "bare" else {"matrix": m}
    text = json.dumps(doc).replace(repr(_SENTINEL), "1e400")
    if case == "truncated mid-row":
        text = text[:text.index(json.dumps(m[5])) + 100]
    return text


@pytest.mark.parametrize("form, case, message", DAMAGED_MATRIX_TEXTS,
                         ids=[f"{form}-{case}" for form, case, _ in DAMAGED_MATRIX_TEXTS])
@pytest.mark.parametrize("chunk", [None, 3], ids=lambda c: f"chunk-{c}")
def test_damaged_matrices_are_named_as_before(tmp_path, form, case, message, chunk):
    path = tmp_path / "damaged.json"
    path.write_text(_damaged_matrix_text(case, form), encoding="utf-8")
    load = read_spec if form == "spec" else load_kraus
    streamed, whole = streamed_and_whole(load, str(path), chunk)
    assert streamed == whole == ("SpecError", message.replace("{path}", str(path)))



def _overflowed_spec(ket, matrix):
    """A two-member spec text with each _SENTINEL in ket or matrix written as 1e999."""
    doc = {"dimension": 2, "states": [{"prior": 0.25, "ket": ket}, {"prior": 0.75, "matrix": matrix}]}
    return json.dumps(doc).replace(repr(_SENTINEL), "1e999")


# Values the streamed reader decodes to float arrays that the per-entry
# readers still walk to name the first bad entry: a row that is not square,
# and infinities, which the stream does not check.
STREAMED_ARRAY_TEXTS = [
    ("one-row kraus", json.dumps([[[0.5, 0.0]] * 5]), "matrix[0] must be a list of 1 complex entries"),
    ("ket overflow",
     _overflowed_spec([[0.6, 0.0], [_SENTINEL, 0.8]], [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
     "states[0].ket[1][0] is not finite"),
    ("matrix overflow",
     _overflowed_spec([[0.6, 0.0], [0.0, 0.8]], [[[0.5, 0.0], [0.0, 0.0]], [[_SENTINEL, 0.0], [0.5, 0.0]]]),
     "states[1].matrix[1][0][0] is not finite"),
]


@pytest.mark.parametrize("case, text, message", STREAMED_ARRAY_TEXTS,
                         ids=[case for case, _, _ in STREAMED_ARRAY_TEXTS])
@pytest.mark.parametrize("chunk", [None, 3], ids=lambda c: f"chunk-{c}")
def test_streamed_arrays_are_named_as_lists_are(tmp_path, case, text, message, chunk):
    path = tmp_path / "damaged.json"
    path.write_text(text, encoding="utf-8")
    load = load_kraus if case == "one-row kraus" else read_spec
    streamed, whole = streamed_and_whole(load, str(path), chunk)
    assert streamed == whole == ("SpecError", message)
