"""Array leaves of any shape and value render exactly as their plain form.

Property test over the pom and concentrate trees of the fixtures with every
array leaf redrawn; the fixed trees are checked in test_output.py.
"""

import numpy as np
import pytest

from maxconf import read_spec, reports

from helpers import ARRAY_TREES, array_leaves, rendered

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

# Signed zeros, subnormals, the extremes of the range, and any other finite float.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1.7976931348623157e308)
REALS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
ENTRIES = st.builds(complex, REALS, REALS)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4)


def _array(draw):
    return draw(hnp.arrays(np.complex128, draw(SHAPES), elements=ENTRIES))


@st.composite
def trees(draw):
    """A fixture's pom or concentrate tree with every array leaf redrawn:
    1x1, non-square and 1-d shapes included."""
    build, _ = ARRAY_TREES[draw(st.sampled_from(sorted(ARRAY_TREES)))]
    spec = draw(st.sampled_from(["worked_example", "trine"]))
    tree = build(read_spec(f"fixtures/{spec}.json").ensemble)
    for container, key in array_leaves(tree):
        container[key] = _array(draw)
    return tree


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trees(), st.sampled_from(["machine", "text"]))
def test_array_leaves_render_as_their_plain_form(tree, fmt):
    assert rendered(tree, fmt) == rendered(reports.plain(tree), fmt)
