"""Peak Python memory of reading a spec, printing a pom report and
completing a measurement.

A matrix's nested [re, im] lists are decoded into its array a row at a
time, and the report makes its effects only as each is printed, so
neither step holds the whole document as Python lists.  Both peaks stay
within a small multiple of the file size, where holding the lists once
costs more than 4x.  The spec is streamed in and the report streamed out,
so neither the file's text nor the printed report is ever held whole:
what remains is the ensemble's factors, one chunk of text and a few d x d
arrays, about 0.4x the file for the read and for the whole command, where
holding the text cost 2x and holding every member 0.7x.

The reader checks and factors each matrix member as it closes and drops
the decoded array, so the ensemble holds only the factors F_j
(rho_j = F_j F_j^dagger): after the read at most one member's bytes and
the factors are held, under the states' bytes, where adopting every
decoded member cost 1.7x to 2x.  Each matrix, a member's or a Kraus
file's, is decoded one row at a time into its array, so the read peaks
at one chunk of text, one row's lists, that array and its factoring,
about 7 of its d x d bytes at d=128, where one member's whole text and
nested lists took 15 to 18.  A matrix that breaks that form is left as
lists for the per-entry walkers, and its rows are made once more from the
array only after the last row's decoded lists are dropped, so a one-row
bare Kraus file peaks at 1.3x the whole-file reader, where holding that row
twice took 2x.  complete_pom keeps each effect as its
factor and the fail effect, so completing the measurement and reading
every effect once peaks at under 7 effects' bytes for up to 2d members,
where holding them all cost n + 7.  simulate builds its outcome table
from the factors, with no stacked copy of the states or the effects, and
fills that one table a column at a time, where a list of columns and its
copies held 3x.  verify makes each d x d and R x R matrix it checks once,
in place, and drops it once read, R the total member rank, so it peaks
under 8 matrices of side max(d, R), where copies of each gap and a Python
sum of the R x R sandwiches took 8.6 to 9.5.
"""

import contextlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from maxconf import SpecError, cli, specio
from maxconf.linalg import gram
from maxconf.measurement import complete_pom, outcome_table, simulate_measurement
from maxconf.reports import verify_report
from maxconf.specio import load_kraus, matrix_to_json, read_spec

from randomgen import random_ensemble, random_kraus, random_members
from helpers import members_doc, whole_file_load_json, write_json

PEAK_PER_FILE_BYTE = 3.0
# Streamed: the read and the whole command hold less than the file.
READ_PEAK_PER_FILE_BYTE = 0.5
COMMAND_PEAK_PER_FILE_BYTE = 0.5
# Factored as read: one chunk of text, one member's array, and the factors.
READ_PEAK_PER_STATE_BYTE = 1.0
# The same peak at d=128 in units of one member's d x d bytes, whatever the
# number of members: the 2^18-character chunk is now most of it.
READ_PEAK_IN_MEMBERS = 8.0
# A matrix left as lists against the whole-file reader, which holds the text and the lists once.
FALLBACK_PEAK_PER_WHOLE_FILE_PEAK = 1.5
# complete_pom against all its effects' bytes: the factors and a few d x d arrays.
COMPLETE_POM_PEAK_PER_EFFECT_BYTE = 0.2
# complete_pom and one pass over its effects, in units of one effect's bytes.
COMPLETE_POM_PEAK_IN_EFFECTS = 7.0
# A one-trial simulate against the states' bytes: the factors and the table.
SIMULATE_PEAK_PER_STATE_BYTE = 0.25
# outcome_table against the table's bytes: the table and one column's temporaries.
OUTCOME_TABLE_PEAK_PER_TABLE_BYTE = 1.3
# verify_report on a fresh ensemble, in units of one complex max(d, R) x max(d, R) matrix.
VERIFY_PEAK_IN_MATRICES = 8.0


def _state_bytes(ens):
    return ens.n_states * ens.dim * ens.dim * np.dtype(np.complex128).itemsize


@pytest.fixture(scope="module")
def large_spec(tmp_path_factory):
    ens = random_ensemble(np.random.default_rng(1), 32, [4] * 88)
    path = write_json(tmp_path_factory.mktemp("memory") / "d32-n88.json", members_doc(ens.states, ens.priors))
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
    ens = random_ensemble(np.random.default_rng(3), 64, [1, 4] * 16)
    path = write_json(tmp_path / "d64-n32.json", members_doc(ens.states, ens.priors))
    tracemalloc.start()
    try:
        spec = read_spec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = _state_bytes(spec.ensemble)
    assert peak <= READ_PEAK_PER_STATE_BYTE * size, f"read_spec: {peak / size:.2f}x the states"


def test_read_spec_holds_the_factors_and_at_most_one_member(tmp_path):
    states, priors = random_members(np.random.default_rng(4), 128, [4] * 16)
    path = write_json(tmp_path / "d128-n16-rank4.json", members_doc(states, priors))
    del states
    tracemalloc.start()
    try:
        spec = read_spec(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ens = spec.ensemble
    factors = sum(ens.factor(j).nbytes for j in range(ens.n_states))
    assert ens.state_ranks == (4,) * 16 and factors == _state_bytes(ens) // 32
    one = _state_bytes(ens) // ens.n_states
    assert held <= one + factors, f"read_spec holds {held} bytes"
    assert peak <= READ_PEAK_IN_MEMBERS * one, f"read_spec peaks at {peak / one:.1f} members' bytes"


@pytest.mark.parametrize("form", ["bare", "wrapped"])
def test_load_kraus_peaks_at_a_few_matrices(tmp_path, form):
    rows = matrix_to_json(random_kraus(np.random.default_rng(6), 128).matrix)
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(rows if form == "bare" else {"matrix": rows}))
    del rows
    tracemalloc.start()
    try:
        k = load_kraus(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = k.matrix.nbytes
    assert k.matrix.shape == (128, 128)
    assert peak <= READ_PEAK_IN_MEMBERS * one, f"load_kraus peaks at {peak / one:.1f} matrices' bytes"


def test_a_matrix_left_as_lists_holds_its_last_row_once(tmp_path):
    # one row of 200000 pairs fills the array's first row, then fails the
    # square check, so the whole matrix goes back to lists
    path = tmp_path / "row.json"
    path.write_text(json.dumps([[[0.5, 0.25]] * 200000]))

    def traced():
        tracemalloc.start()
        try:
            with pytest.raises(SpecError) as exc:
                load_kraus(str(path))
            return tracemalloc.get_traced_memory()[1], str(exc.value)
        finally:
            tracemalloc.stop()

    peak, error = traced()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specio, "_load_json", whole_file_load_json)
        whole_peak, whole_error = traced()
    assert error == whole_error == "matrix[0] must be a list of 1 complex entries"
    assert peak <= FALLBACK_PEAK_PER_WHOLE_FILE_PEAK * whole_peak, f"{peak / whole_peak:.2f}x the whole-file reader"


def test_a_one_trial_simulate_holds_no_stacked_states_or_effects():
    ens = random_ensemble(np.random.default_rng(5), 64, [1, 4] * 16)
    pom = complete_pom(ens)
    tracemalloc.start()
    try:
        simulate_measurement(ens, pom, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = _state_bytes(ens)
    assert peak <= SIMULATE_PEAK_PER_STATE_BYTE * size, f"simulate: {peak / size:.2f}x the states"


def test_the_outcome_table_is_held_once():
    # 1000 qubit kets give a 1000 x 1001 table, far larger than their factors
    ens = random_ensemble(np.random.default_rng(8), 2, [1] * 1000)
    pom = complete_pom(ens)
    tracemalloc.start()
    try:
        table = outcome_table(ens, pom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1000, 1001)
    assert peak <= OUTCOME_TABLE_PEAK_PER_TABLE_BYTE * table.nbytes, f"{peak / table.nbytes:.2f}x the table"


@pytest.mark.parametrize("n", [32, 64])
def test_complete_pom_and_a_pass_over_its_effects_hold_no_effect(n):
    ens = random_ensemble(np.random.default_rng(2), 32, [1, 4] * (n // 2))
    # warm the cached factors, support and bounds, which outlive the call
    for j in range(ens.n_states):
        ens.top(j)
    tracemalloc.start()
    try:
        pom = complete_pom(ens)
        for _, e in pom.effects:
            assert gram(*e).shape == (ens.dim, ens.dim)  # each formed as pom prints it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = ens.dim * ens.dim * np.dtype(np.complex128).itemsize
    assert peak <= COMPLETE_POM_PEAK_IN_EFFECTS * one, f"n={n}: {peak / one:.2f} effects"


def test_complete_pom_holds_one_copy_of_each_effect():
    # at most: it now holds none, and its peak is a few d x d arrays
    ens = random_ensemble(np.random.default_rng(2), 32, [1, 4] * 16)
    # warm the cached factors and support, which outlive the call
    ens.support
    tracemalloc.start()
    try:
        pom = complete_pom(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (ens.n_states + 1) * ens.dim * ens.dim * np.dtype(np.complex128).itemsize
    assert peak <= COMPLETE_POM_PEAK_PER_EFFECT_BYTE * size, f"complete_pom: {peak / size:.2f}x"


@pytest.mark.parametrize("dim, ranks", [(32, [4] * 16), (64, [1, 4] * 8)], ids=["R>d", "R<d"])
def test_verify_report_peaks_at_a_few_matrices(dim, ranks):
    ens = random_ensemble(np.random.default_rng(2), dim, ranks)
    tracemalloc.start()
    try:
        _, ok = verify_report(ens, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    side = max(dim, sum(ranks))
    one = side * side * np.dtype(np.complex128).itemsize
    assert ok
    assert peak <= VERIFY_PEAK_IN_MATRICES * one, f"verify_report peaks at {peak / one:.2f} matrices"
