"""Truncated or corrupted specs fail exactly as json.loads over the whole
file says, at any chunk size of the streamed reader."""

import json

import pytest

from maxconf import SpecError, read_spec, specio

from helpers import streamed_and_whole

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
