"""Peak Python memory of reading a spec and printing a pom report.

A member's nested [re, im] lists are decoded to an array as soon as the
member closes, and the report keeps its effects as arrays until each row is
printed, so neither step holds the whole document as Python lists.  Both
peaks stay within a small multiple of the file size: about 2x, the file's
text while it is parsed, where holding the lists once costs more than 4x.
"""

import contextlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from maxconf import cli
from maxconf.randomgen import random_ensemble
from maxconf.specio import matrix_to_json, read_spec

PEAK_PER_FILE_BYTE = 3.0


@pytest.fixture(scope="module")
def large_spec(tmp_path_factory):
    ens = random_ensemble(np.random.default_rng(1), 32, [4] * 88)
    doc = {
        "dimension": ens.dim,
        "states": [
            {"prior": float(p), "matrix": matrix_to_json(rho)}
            for p, rho in zip(ens.priors, ens.states)
        ],
    }
    path = tmp_path_factory.mktemp("memory") / "d32-n88.json"
    path.write_text(json.dumps(doc))
    size = os.path.getsize(path)
    assert size >= 4e6
    return str(path), size


def test_read_spec_and_pom_peaks_are_a_small_multiple_of_the_file(large_spec, monkeypatch):
    path, size = large_spec
    read_peaks = []

    def traced_read_spec(spec_path):
        spec = read_spec(spec_path)
        read_peaks.append(tracemalloc.get_traced_memory()[1])
        return spec

    # One traced run of the command gives both peaks: the peak when read_spec
    # returns, and the peak of the whole command.
    monkeypatch.setattr(cli, "read_spec", traced_read_spec)
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert cli.main(["pom", path, "--output", "machine"]) == 0
        pom_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_peaks[0] <= PEAK_PER_FILE_BYTE * size, f"read_spec: {read_peaks[0] / size:.2f}x"
    assert pom_peak <= PEAK_PER_FILE_BYTE * size, f"pom: {pom_peak / size:.2f}x"
