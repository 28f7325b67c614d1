"""Every number the command line prints stays within 1e-14 of the values
stored in outputs_before.json, which were printed while each member was
held as its d x d matrix and every bound and effect went through rho^{-1}
or rho^{-1/2}.  The factor route changes last digits only: counts, labels,
verdicts and the keys of every report stay the same.

simulate's counts, frequencies and bands depend on its random stream,
which has changed since outputs_before.json was written, so they are
checked against the reference sampler (splitmix.one_shot_sample) and its
every other number against the stored values.  A band,
3 sqrt(x (1 - x) / count) + 1 / (2 count), turns a 1e-16 move of an
expected confidence x next to 1 into one of 1e-9, so it is compared as
x (1 - x) / count.  The inputs are the three fixtures and two seeded specs,
one of mixed members written as matrices and one of pure members written as
kets.

near_parallel's transform values after the filter were re-pinned when
filters came to act on the kept support only, A U U^dagger F_i: the
average's dropped 2.5e-13 eigenvalue no longer reaches the filtered
members, so confidence_after and prior_after moved by 1.9e-13 to 0.5
within 2.2e-16, and success_probability by 6.3e-14.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import numpy as np
import pytest

from maxconf import Ensemble, KrausOperator, reports
from maxconf.cli import main
from maxconf.linalg import _kept_factor, hermitian_in_place
from maxconf.measurement import complete_pom
from maxconf.specio import matrix_to_json, read_spec

from randomgen import random_ket, random_members
from splitmix import one_shot_sample

COMMANDS = ("bound", "pom", "verify", "simulate", "concentrate", "transform")
FIXTURES = ("worked_example", "trine", "near_parallel")
TOL = 1e-14
SIM_TRIALS, SIM_SEED = 70001, 5

with open(Path(__file__).with_name("outputs_before.json"), encoding="utf-8") as fh:
    BEFORE = json.load(fh)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def write_inputs(root: Path) -> dict:
    """spec name -> (spec path, Kraus path) for the fixtures and seeded specs."""
    filter2 = _write(root / "filter2.json", matrix_to_json(np.diag([1.0, 0.5])))
    inputs = {name: (f"fixtures/{name}.json", filter2) for name in FIXTURES}
    states, priors = random_members(np.random.default_rng(1), 16, [1, 2] * 4)
    d16 = {"dimension": 16, "states": [
        {"prior": float(p), "matrix": matrix_to_json(rho)} for p, rho in zip(priors, states)]}
    rng = np.random.default_rng(5)
    kets = [random_ket(rng, 5) for _ in range(7)]
    priors = 0.1 + rng.random(7)
    d5 = {"dimension": 5, "states": [
        {"prior": float(p), "ket": matrix_to_json(k)} for p, k in zip(priors / priors.sum(), kets)]}
    for name, doc in (("d16", d16), ("d5-kets", d5)):
        dim = doc["dimension"]
        kraus = matrix_to_json(np.diag(np.linspace(1.0, 0.5, dim)))
        inputs[name] = (_write(root / f"{name}.json", doc), _write(root / f"{name}.kraus.json", kraus))
    return inputs


def machine_output(inputs, spec, command) -> tuple:
    """(exit code, parsed machine output or the error line) of one command on one spec."""
    path, kraus = inputs[spec]
    argv = [command, path, "--output", "machine"]
    if command == "transform":
        argv += ["--kraus", kraus]
    elif command == "simulate":
        argv += ["--trials", str(SIM_TRIALS), "--seed", str(SIM_SEED)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, json.loads(out.getvalue()) if code in (0, 1) else err.getvalue()


def differences(doc, before, path="", tol=TOL):
    """Paths where doc differs from before: a float by more than tol,
    anything else at all."""
    if isinstance(before, dict) and isinstance(doc, dict) and doc.keys() == before.keys():
        return [p for key in before for p in differences(doc[key], before[key], f"{path}.{key}", tol)]
    if isinstance(before, list) and isinstance(doc, list) and len(doc) == len(before):
        return [p for k, (a, b) in enumerate(zip(doc, before)) for p in differences(a, b, f"{path}[{k}]", tol)]
    if type(before) is float and type(doc) in (float, int):
        return [] if abs(doc - before) <= tol else [f"{path}: {before!r} -> {doc!r}"]
    return [] if doc == before and type(doc) is type(before) else [f"{path}: {before!r} -> {doc!r}"]


def band_as_variance(doc):
    """A simulate output with each band b of count n given as
    ((b - 1 / (2n)) / 3)^2, that is x (1 - x) / n."""
    doc = copy.deepcopy(doc)
    for entry in doc["outcomes"]:
        if entry["count"]:
            entry["band_3sigma"] = ((entry["band_3sigma"] - 0.5 / entry["count"]) / 3.0) ** 2
    return doc


def reference_simulate(inputs, spec, before):
    """before's simulate output with its counts, frequencies and bands from
    the reference sampler, and each band as band_as_variance gives it."""
    ens = read_spec(inputs[spec][0]).ensemble
    counts, correct = one_shot_sample(ens, complete_pom(ens), SIM_TRIALS, SIM_SEED)
    expected = copy.deepcopy(before)
    for entry, n, hits in zip(expected["outcomes"], counts[:-1], correct, strict=True):
        x = entry["expected_confidence"]
        entry.update(count=n, frequency=hits / n if n else None,
                     band_3sigma=x * (1.0 - x) / n if n else None)
    expected["fail"].update(count=counts[-1], frequency=counts[-1] / SIM_TRIALS)
    return expected


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("parity"))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", sorted(BEFORE))
def test_every_printed_number_stays_within_1e_14_of_the_matrix_route(inputs, spec, command):
    code, doc = machine_output(inputs, spec, command)
    before = BEFORE[spec][command]
    assert code == before["exit"]
    expected = before["output"]
    if command == "simulate":
        doc, expected = band_as_variance(doc), reference_simulate(inputs, spec, expected)
    assert differences(doc, expected) == []


@pytest.mark.parametrize("spec", sorted(BEFORE))
def test_printed_effects_are_exactly_hermitian_with_a_real_diagonal(inputs, spec):
    _, doc = machine_output(inputs, spec, "pom")
    matrices = [state["effect"] for state in doc["states"]] + [doc["fail_effect"]]
    for m in matrices:
        for i, row in enumerate(m):
            assert row[i][1] == 0.0
            for j, (re, im) in enumerate(row):
                assert m[j][i] == [re, -im]


def _stdout(inputs, spec, command):
    path, _ = inputs[spec]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([command, path, "--output", "machine"])
    return out.getvalue()


@pytest.mark.parametrize("command", ["pom", "verify"])
@pytest.mark.parametrize("spec", sorted(BEFORE))
def test_stdout_is_byte_identical_across_runs(inputs, spec, command):
    assert _stdout(inputs, spec, command) == _stdout(inputs, spec, command)


# A matrix member is rescaled to unit trace after its rank cut (README's
# Conventions).  Against each member held as its cut factor as it came, these
# printed numbers move by more than 1e-14 on negative_roundoff, whose member
# 0 drops its -5e-11 eigenvalue together with the 5e-11 of trace it
# balanced.  None moves by more than 5e-11 there (pom's inconclusive
# probability moves most, by 4.5e-11), nor by more than 2e-15 on the other
# fixtures and seeded specs (8.3e-16 measured, on d16).
RESCALE_MOVES = {
    "pom": {".states[0].effect[0][0][0]", ".states[0].effect[1][1][0]", ".fail_effect[0][0][0]",
            ".fail_effect[1][1][0]", ".inconclusive_probability"},
    "verify": {".checks.purification_residual"},
    "concentrate": {".schmidt_before[0]", ".schmidt_before[1]", ".schmidt_before[2]",
                    ".success_probability", ".kraus[0][0][0]", ".kraus[1][1][0]",
                    ".fail_effect[0][0][0]", ".fail_effect[1][1][0]"},
    "transform": {".success_probability", ".states[0].prior_after", ".states[1].prior_after"},
}


def cut_as_it_came(path):
    """(the spec's ensemble, the same with each matrix member held as its
    kept factor before the rescale to unit trace)."""
    read = read_spec(path).ensemble
    with open(path, encoding="utf-8") as fh:
        members = json.load(fh)["states"]
    factors = []
    for j, member in enumerate(members):
        if "matrix" in member:
            h = hermitian_in_place(np.array(member["matrix"]).view(np.complex128)[..., 0].copy())
            factors.append(_kept_factor(h, np.linalg.eigvalsh(h)))
        else:
            factors.append(read.factor(j))
    return read, Ensemble._of(read.dim, tuple(factors), read.priors)


def printed(ens) -> dict:
    """command -> its report in plain form, or the message of its input error."""
    kraus = KrausOperator(np.diag(np.linspace(1.0, 0.5, ens.dim)))
    tol = reports.DEFAULT_TOLERANCE
    runs = {"bound": lambda: reports.bound_report(ens), "pom": lambda: reports.pom_report(ens),
            "verify": lambda: reports.verify_report(ens, tol)[0],
            "concentrate": lambda: reports.concentrate_report(ens),
            "transform": lambda: reports.transform_report(ens, kraus, tol)[0]}
    out = {}
    for command, run in runs.items():
        try:
            out[command] = run()
        except ValueError as exc:
            out[command] = str(exc)
    return out


@pytest.mark.parametrize("spec", ["negative_roundoff", "worked_example", "trine", "near_parallel",
                                  "tiny_prior", "d16", "d5-kets"])
def test_the_unit_trace_rescale_moves_only_negative_roundoffs_slack(inputs, spec):
    path = inputs[spec][0] if spec in inputs else f"fixtures/{spec}.json"
    rescaled, as_it_came = (printed(ens) for ens in cut_as_it_came(path))
    worst = 5e-11 if spec == "negative_roundoff" else 2e-15
    for command, doc in rescaled.items():
        assert differences(doc, as_it_came[command], tol=worst) == []
        moved = {d.split(": ")[0] for d in differences(doc, as_it_came[command])}
        assert moved == (RESCALE_MOVES.get(command, set()) if spec == "negative_roundoff" else set()), command


def test_negative_roundoff_verifies_at_1e_13_once_rescaled():
    rescaled, as_it_came = cut_as_it_came("fixtures/negative_roundoff.json")
    report, ok = reports.verify_report(rescaled, 1e-13)
    assert ok and report["checks"]["purification_residual"] <= 1e-15
    report, ok = reports.verify_report(as_it_came, 1e-13)
    assert not ok and report["checks"]["purification_residual"] > 1e-11
