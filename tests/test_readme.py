"""README's Library block runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

from maxconf import confidence_of, max_confidence, optimal_effect

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_block_runs_and_attains_the_trine_bound():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    ens = namespace["ens"]
    bound = max_confidence(ens, 0)
    assert abs(bound - 2 / 3) <= 1e-12
    # the bound and the trace through the effect's factor agree to roundoff
    assert abs(confidence_of(ens, optimal_effect(ens, 0), 0) - bound) <= 1e-15
    assert abs(confidence_of(ens, namespace["effect"], 0) - bound) <= 1e-15
