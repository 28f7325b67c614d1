"""Peak Python memory of reading a spec, printing a pom report and
completing a measurement.

A member's nested [re, im] lists are decoded to an array as soon as the
member closes, and the report keeps its effects as arrays until each row is
printed, so neither step holds the whole document as Python lists.  Both
peaks stay within a small multiple of the file size, where holding the
lists once costs more than 4x.  The spec is streamed in and the report
streamed out, so neither the file's text nor the printed report is ever
held whole: what remains is the ensemble, the effects and one member's
text, about 0.7x the file for the read and 1.1x for the whole command,
where holding the text cost 2x.

complete_pom hands the effects it builds to POM without a copy, so its
peak is one copy of each effect plus a few d x d temporaries, about 1.2x
the effects; a second, validated copy of each effect costs 2.2x.
"""

import contextlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from maxconf import cli
from maxconf.measurement import complete_pom
from maxconf.specio import matrix_to_json, read_spec

from randomgen import random_ensemble

PEAK_PER_FILE_BYTE = 3.0
# Streamed: the read holds less than the file, the command at most half more.
READ_PEAK_PER_FILE_BYTE = 1.0
COMMAND_PEAK_PER_FILE_BYTE = 1.5
# complete_pom: one copy of each effect and a few d x d temporaries.
COMPLETE_POM_PEAK_PER_EFFECT_BYTE = 1.3


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


@pytest.fixture(scope="module")
def pom_peaks(large_spec):
    """{form: (peak when read_spec returns, peak of the whole command)} of
    one traced run of `pom` in each form."""
    path, _ = large_spec
    read_peaks = []

    def traced_read_spec(spec_path):
        spec = read_spec(spec_path)
        read_peaks.append(tracemalloc.get_traced_memory()[1])
        return spec

    peaks = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "read_spec", traced_read_spec)
        for form in ("machine", "text"):
            tracemalloc.start()
            try:
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    assert cli.main(["pom", path, "--output", form]) == 0
                peaks[form] = (read_peaks[-1], tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return peaks


def test_read_spec_and_pom_peaks_are_a_small_multiple_of_the_file(large_spec, pom_peaks):
    _, size = large_spec
    read_peak, pom_peak = pom_peaks["machine"]
    assert read_peak <= PEAK_PER_FILE_BYTE * size, f"read_spec: {read_peak / size:.2f}x"
    assert pom_peak <= PEAK_PER_FILE_BYTE * size, f"pom: {pom_peak / size:.2f}x"


@pytest.mark.parametrize("form", ["machine", "text"])
def test_streamed_read_and_report_hold_less_than_the_text(large_spec, pom_peaks, form):
    _, size = large_spec
    read_peak, pom_peak = pom_peaks[form]
    assert read_peak <= READ_PEAK_PER_FILE_BYTE * size, f"read_spec: {read_peak / size:.2f}x"
    assert pom_peak <= COMMAND_PEAK_PER_FILE_BYTE * size, f"pom {form}: {pom_peak / size:.2f}x"


def test_complete_pom_holds_one_copy_of_each_effect():
    ens = random_ensemble(np.random.default_rng(2), 32, [1, 4] * 16)
    # warm the cached support, which outlives the call
    ens.support.inv, ens.support.inv_sqrt
    tracemalloc.start()
    try:
        pom = complete_pom(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(e.nbytes for _, e in pom.all_effects())
    assert peak <= COMPLETE_POM_PEAK_PER_EFFECT_BYTE * size, f"complete_pom: {peak / size:.2f}x"
