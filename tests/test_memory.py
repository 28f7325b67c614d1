"""Peak Python memory of reading a spec, printing a pom report and
completing a measurement.

A member's nested [re, im] lists are decoded to an array as soon as the
member closes, and the report makes its effects only as each is printed, so
neither step holds the whole document as Python lists.  Both peaks stay
within a small multiple of the file size, where holding the lists once
costs more than 4x.  The spec is streamed in and the report streamed out,
so neither the file's text nor the printed report is ever held whole:
what remains is the ensemble, one member's text and a few d x d arrays,
about 0.7x the file for the read and for the whole command, where holding
the text cost 2x.

Ensemble adopts the arrays read_spec decodes and validates them in place,
so the read holds each member once: about 1.7x the states' bytes, where a
validated copy of each member cost 2.1x.  complete_pom keeps no effect:
each is rebuilt whenever it is read, so completing the measurement and
reading every effect once peaks at about 7 effects' bytes whatever the
number of members, where holding them all cost n + 7.
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
# Streamed: the read and the whole command hold less than the file.
READ_PEAK_PER_FILE_BYTE = 0.8
COMMAND_PEAK_PER_FILE_BYTE = 0.8
# Adopted: the states once, plus one member's text and a few temporaries.
READ_PEAK_PER_STATE_BYTE = 1.9
# complete_pom against all its effects' bytes: a few d x d arrays, no effect.
COMPLETE_POM_PEAK_PER_EFFECT_BYTE = 0.3
# complete_pom and one pass over its effects, in units of one effect's bytes.
COMPLETE_POM_PEAK_IN_EFFECTS = 8.0


def _spec_file(ens, path):
    doc = {
        "dimension": ens.dim,
        "states": [
            {"prior": float(p), "matrix": matrix_to_json(rho)}
            for p, rho in zip(ens.priors, ens.states)
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def large_spec(tmp_path_factory):
    ens = random_ensemble(np.random.default_rng(1), 32, [4] * 88)
    path = _spec_file(ens, tmp_path_factory.mktemp("memory") / "d32-n88.json")
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


def test_read_spec_holds_each_member_once(tmp_path):
    path = _spec_file(random_ensemble(np.random.default_rng(3), 64, [1, 4] * 16), tmp_path / "d64-n32.json")
    tracemalloc.start()
    try:
        spec = read_spec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(rho.nbytes for rho in spec.ensemble.states)
    assert peak <= READ_PEAK_PER_STATE_BYTE * size, f"read_spec: {peak / size:.2f}x the states"


@pytest.mark.parametrize("n", [32, 64])
def test_complete_pom_and_a_pass_over_its_effects_hold_no_effect(n):
    ens = random_ensemble(np.random.default_rng(2), 32, [1, 4] * (n // 2))
    # warm the cached support and bounds, which outlive the call
    ens.support.inv, ens.support.inv_sqrt
    for j in range(ens.n_states):
        ens.top(j)
    tracemalloc.start()
    try:
        pom = complete_pom(ens)
        for _, e in pom.effects:
            assert e.shape == (ens.dim, ens.dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = ens.dim * ens.dim * np.dtype(np.complex128).itemsize
    assert peak <= COMPLETE_POM_PEAK_IN_EFFECTS * one, f"n={n}: {peak / one:.2f} effects"


def test_complete_pom_holds_one_copy_of_each_effect():
    # at most: it now holds none, and its peak is a few d x d arrays
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
