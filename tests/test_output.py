"""The output contract of the command line.

Machine output must parse to exactly the report tree the library builds,
with each row of a numeric array on its own line.  The pom and concentrate
trees keep matrices as complex arrays until they are printed, and both
renderers print them exactly as their plain() form, the nested [re, im]
pairs the library returns: on the fixtures' trees, and as a property over
those trees with every array leaf redrawn.  Text output is pinned byte for
byte: by stored sha256 on the fixtures, and against the original text
renderer (kept below as the reference) on a seeded d=16 ensemble.  The
seeded specs' last digits depend on the BLAS build, so their verify and
concentrate hashes, text and machine, hold for the numpy build they were
taken with.

Every number the command line prints stays within 1e-14 of the values
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
x (1 - x) / count.

Every command runs on the same inputs: the fixtures worked_example, trine
and near_parallel with the diag(1, 0.5) filter, and three seeded specs
with the filter diag(linspace(1, 0.5, d)): d16, eight members of ranks 1
and 2 written as matrices; d5-kets, seven pure members written as kets;
and d8_rank16, four rank-4 members whose total rank exceeds d.
"""

import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from maxconf import Ensemble, KrausOperator, allowed_subspace, purify, read_spec, reports, schmidt
from maxconf.linalg import _kept_factor, frobenius, gram, hermitian_in_place
from maxconf.measurement import complete_pom
from maxconf.specio import load_kraus, matrix_to_json

from randomgen import hermitize, random_ensemble, random_ket, random_members
from splitmix import one_shot_sample
from helpers import ARRAY_TREES, array_leaves, members_doc, rendered, run, write_json

COMMANDS = ("bound", "pom", "verify", "concentrate", "transform")
FIXTURES = ("worked_example", "trine", "near_parallel")
SPECS = ("worked_example", "trine", "d16")
TOL = 1e-14
SIM_TRIALS, SIM_SEED = 70001, 5

with open(Path(__file__).with_name("outputs_before.json"), encoding="utf-8") as fh:
    BEFORE = json.load(fh)

# sha256 of `maxconf <command> fixtures/<spec>.json` text output (transform
# with the diag(1, 0.5) filter, simulate with --trials 70001 --seed 5).
# These pin the bytes; beside them, every number the same commands print in
# machine form stays within 1e-14 of outputs_before.json.
TEXT_SHA256 = {
    ("worked_example", "bound"):
        "983adc65ae734a5afd8245842966be8efca4df61b320f90cbea7078e1da7c13d",
    ("worked_example", "pom"):
        "29110933f25d12c40f72a9e71c52d67ee6c6df0f55d0667839b7597548c158c9",
    ("worked_example", "verify"):
        "3aef84286a2d092adf85175021c7766e9009accd60a6f168640514987ab44c0e",
    ("worked_example", "concentrate"):
        "e4e09e8d758a7ec952cd72a7c1c67ffef1c03714a5e7daa2a4a06fbe5b0744ad",
    ("worked_example", "transform"):
        "a700c400246231dc3c1c2b1fb64f67d1512f0bfcaed701c4dc0391a704fa1a18",
    ("trine", "bound"):
        "38eb15e395bf1feee6f223f877fa92e15a3d5de4114b3cb7486355e7805e5399",
    ("trine", "pom"):
        "a0f72109c89b255be28cdd0567dc0707d06f60dfd0a2681ef3dab3b703a633b3",
    ("trine", "verify"):
        "9258c6340c95e57b10a4c18819aaae10a1d05e48fa6b7fd82f9e512657f2d6ba",
    ("trine", "concentrate"):
        "8c68ea53f951cc30bc70f575ba45f1fb1c35693e5638c43bc6678762364e48d1",
    ("trine", "transform"):
        "5b470386b48e596c3d1e4c884c6f0d709e7bb281021eac555b9c9df400cc78a6",
    ("trine", "simulate"):
        "3414b6b181c82fd9df6a95efa3b44728f96de9d6c6832e95ce33563a9c1d9152",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """spec name -> (spec path, Kraus path)."""
    root = tmp_path_factory.mktemp("inputs")
    filter2 = write_json(root / "filter2.json", matrix_to_json(np.diag([1.0, 0.5])))
    inputs = {name: (f"fixtures/{name}.json", filter2) for name in FIXTURES}
    rng = np.random.default_rng(5)
    kets = [random_ket(rng, 5) for _ in range(7)]
    weights = 0.1 + rng.random(7)
    wide = random_ensemble(np.random.default_rng(25), 8, [4] * 4)
    members = {
        "d16": random_members(np.random.default_rng(1), 16, [1, 2] * 4),
        "d5-kets": (kets, weights / weights.sum()),
        "d8_rank16": (wide.states, wide.priors),
    }
    for name, (states, priors) in members.items():
        kraus = matrix_to_json(np.diag(np.linspace(1.0, 0.5, len(states[0]))))
        inputs[name] = (write_json(root / f"{name}.json", members_doc(states, priors)),
                        write_json(root / f"{name}.kraus.json", kraus))
    return inputs


def _argv(inputs, spec, command, output):
    """argv of `maxconf <command> <spec> --output <output>`, transform with
    the spec's filter and simulate with the fixed trials and seed."""
    path, kraus = inputs[spec]
    argv = [command, path, "--output", output]
    if command == "transform":
        argv += ["--kraus", kraus]
    elif command == "simulate":
        argv += ["--trials", str(SIM_TRIALS), "--seed", str(SIM_SEED)]
    return argv


def _stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    return out


def machine_output(capsys, inputs, spec, command) -> tuple:
    """(exit code, parsed machine output or the error line) of one command on one spec."""
    code, out, err = run(capsys, *_argv(inputs, spec, command, "machine"))
    return code, json.loads(out) if code in (0, 1) else err


def library_report(ens, command, kraus):
    """command's report as the library builds it for the command line."""
    tol = reports.DEFAULT_TOLERANCE
    if command == "bound":
        return reports.bound_report(ens)
    if command == "pom":
        return reports.pom_report(ens)
    if command == "verify":
        return reports.verify_report(ens, tol)[0]
    if command == "concentrate":
        return reports.concentrate_report(ens)
    return reports.transform_report(ens, kraus, tol)[0]


def _report(inputs, spec, command):
    path, kraus = inputs[spec]
    return library_report(read_spec(path).ensemble, command, load_kraus(kraus))


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


@pytest.mark.parametrize("command", COMMANDS + ("simulate",))
@pytest.mark.parametrize("spec", sorted(BEFORE))
def test_every_printed_number_stays_within_1e_14_of_the_matrix_route(capsys, inputs, spec, command):
    code, doc = machine_output(capsys, inputs, spec, command)
    before = BEFORE[spec][command]
    assert code == before["exit"]
    expected = before["output"]
    if command == "simulate":
        doc, expected = band_as_variance(doc), reference_simulate(inputs, spec, expected)
    assert differences(doc, expected) == []


@pytest.mark.parametrize("spec", sorted(BEFORE))
def test_printed_effects_are_exactly_hermitian_with_a_real_diagonal(capsys, inputs, spec):
    _, doc = machine_output(capsys, inputs, spec, "pom")
    matrices = [state["effect"] for state in doc["states"]] + [doc["fail_effect"]]
    for m in matrices:
        for i, row in enumerate(m):
            assert row[i][1] == 0.0
            for j, (re, im) in enumerate(row):
                assert m[j][i] == [re, -im]


@pytest.mark.parametrize("command", ["pom", "verify"])
@pytest.mark.parametrize("spec", sorted(BEFORE))
def test_stdout_is_byte_identical_across_runs(capsys, inputs, spec, command):
    argv = _argv(inputs, spec, command, "machine")
    assert _stdout(capsys, argv) == _stdout(capsys, argv)


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
    out = {}
    for command in COMMANDS:
        try:
            out[command] = library_report(ens, command, kraus)
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


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("command", COMMANDS)
def test_machine_output_parses_to_the_report(capsys, inputs, spec, command):
    out = _stdout(capsys, _argv(inputs, spec, command, "machine"))
    expected = json.loads(json.dumps(_report(inputs, spec, command), indent=2, sort_keys=True))
    assert json.loads(out) == expected


def test_machine_output_prints_one_matrix_row_per_line(capsys, inputs):
    out = _stdout(capsys, _argv(inputs, "d16", "pom", "machine"))
    doc = json.loads(out)
    rows = [line.strip().rstrip(",") for line in out.splitlines() if line.lstrip().startswith("[[")]
    # eight effects plus the fail effect, sixteen rows each
    assert len(rows) == 16 * (len(doc["states"]) + 1)
    for row in rows:
        assert len(json.loads(row)) == 16


def test_machine_output_keeps_sorted_keys_and_two_space_structure(capsys, inputs):
    out = _stdout(capsys, _argv(inputs, "worked_example", "verify", "machine"))
    # no numeric matrix in a verify report: the layout is json.dumps's own
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("spec, command", sorted(TEXT_SHA256))
def test_text_output_bytes_are_pinned(capsys, inputs, spec, command):
    out = _stdout(capsys, _argv(inputs, spec, command, "text"))
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_SHA256[(spec, command)]


# sha256 of `maxconf <command> <spec> --output <form>` on the seeded specs:
# d16 (eight members of ranks 1 and 2, total rank R = 12 < d) and d8_rank16
# (four rank-4 members, R = 16 > d).  Taken with numpy 2.4 and its bundled
# OpenBLAS; another BLAS may move their last digits.  verify and concentrate
# build their d x d and R x R intermediates in place, so these pin that each
# in-place step adds and scales in the order the plain expressions did.
SEEDED_SHA256 = {
    ("d16", "verify", "text"):
        "6fbb0ebd24f988ae68f70f61b56cabf31850d02cb6b5b0a7d419b7804b49619d",
    ("d16", "verify", "machine"):
        "b05ca79f9ca95c68d405b6db5e64238d6b3b2350e1ab761eee0ca568a7745beb",
    ("d16", "concentrate", "text"):
        "4085dd0f8b3a14d57e59914ce4dee3e86d860cb6614a814d0122a712912387fd",
    ("d16", "concentrate", "machine"):
        "6a8a00f48c8d523cc6e298febfc0337410fcf6c67035c75f77beac98e735a222",
    ("d8_rank16", "verify", "text"):
        "715e8e96796f1c77da68de783f0184441547e13a7598444b7bbe86fc3165bf72",
    ("d8_rank16", "verify", "machine"):
        "e1b0736557fdf3928ddf55e0e9ce1f53986d1bac6cddaa4a34b84a171eef784b",
    ("d8_rank16", "concentrate", "text"):
        "3bfb2225085d5be4511eb49c5d7c48947b2648621f61391f51e1844376fdcd0f",
    ("d8_rank16", "concentrate", "machine"):
        "18d9921defd5fe5c9d9bd15b0389250c87d3a37a71aacdca423fa76f5ec8d332",
}


@pytest.mark.parametrize("spec, command, output", sorted(SEEDED_SHA256))
def test_seeded_output_bytes_are_pinned(capsys, inputs, spec, command, output):
    out = _stdout(capsys, _argv(inputs, spec, command, output))
    assert hashlib.sha256(out.encode()).hexdigest() == SEEDED_SHA256[(spec, command, output)]


@pytest.mark.parametrize("spec", ["d16", "d8_rank16"])
def test_verify_gaps_are_the_plain_expressions_bit_for_bit(inputs, spec):
    # on any BLAS: the gaps verify builds in place against the expressions they replaced
    ens = read_spec(inputs[spec][0]).ensemble
    bs = purify(ens)
    basis, sd = allowed_subspace(bs), schmidt(bs)
    a, u, v = bs.amplitudes, sd.left_vectors, sd.right_vectors
    expected = {
        "purification_residual": frobenius(hermitize(a @ a.conj().T) - gram(ens.stacked())),
        "schmidt_reconstruction": frobenius(sd.reconstruct() - u @ (u.conj().T @ a)),
        "projector_gap": frobenius(v @ v.conj().T - basis @ basis.conj().T),
    }
    checks = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)[0]["checks"]
    assert {name: checks[name] for name in expected} == expected


# verify's machine output as printed while the allowed subspace was whitened
# through rho_L^{-1/2} (the average state), on the fixtures and the seeded d16
# spec.  Only roundoff-level gaps may move, so every number stays within 1e-14.
with open(Path(__file__).with_name("verify_before.json"), encoding="utf-8") as fh:
    VERIFY_BEFORE = json.load(fh)


@pytest.mark.parametrize("spec", sorted(VERIFY_BEFORE))
def test_verify_numbers_stay_within_1e_14_of_the_whitened_subspace(capsys, inputs, spec):
    doc = json.loads(_stdout(capsys, _argv(inputs, spec, "verify", "machine")))
    assert differences(doc, VERIFY_BEFORE[spec]) == []


# `maxconf verify fixtures/trine.json --tolerance 1e-30` in text: exceeded
# lists every gap above the tolerance (all but those that are exactly 0.0),
# each on a "-: " line.  The trine's purification columns are its scaled
# kets, so its residual, projector gap and marginal deviation are 0.0, and
# no leakage is above 1e-30.
FAILING_VERIFY_SHA256 = "574d8ad178ce910b9bd34099127c79245afe51bc43dfb5b5d347a0f2c17d35ee"


def test_text_output_of_a_failing_verify_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "fixtures/trine.json", "--tolerance", "1e-30")
    assert code == 1
    assert "\nexceeded:\n  -: schmidt_reconstruction\n" in out
    report, ok = reports.verify_report(read_spec("fixtures/trine.json").ensemble, 1e-30)
    assert not ok and out == reference_render_text(report)
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_VERIFY_SHA256


@pytest.mark.parametrize("command", COMMANDS)
def test_text_output_matches_the_reference_renderer(capsys, inputs, command):
    out = _stdout(capsys, _argv(inputs, "d16", command, "text"))
    assert out == reference_render_text(_report(inputs, "d16", command))


# sha256 of json.dumps(<command>_report(fixture), sort_keys=True), as built
# from the factors; worked_example's mixed member by pivoted Cholesky,
# rescaled to unit trace, and concentrate's purification from the member
# factors.
REPORT_SHA256 = {
    ("worked_example", "pom"):
        "42a569830ab827e1a180a6cffe97c28445910bf1c553387f42cfb85a627dd988",
    ("worked_example", "concentrate"):
        "d85babc214a2a2eb3fbd182d3fddd6b171f3175ee435bfbf0c1e5fee2eb84360",
    ("trine", "pom"):
        "2e6adf9a036d9492068759f8d60148c49e66eed6da04c13b075c73cbe02a1755",
    ("trine", "concentrate"):
        "4d5eac8cfd75fdf76db564eba28061833546b7c9a981191e20ed18f483bd30fd",
}


@pytest.mark.parametrize("command", sorted(ARRAY_TREES))
@pytest.mark.parametrize("spec", ("worked_example", "trine"))
def test_fixture_trees_render_as_their_plain_form(spec, command):
    build, report = ARRAY_TREES[command]
    ens = read_spec(f"fixtures/{spec}.json").ensemble
    tree = build(ens)
    assert array_leaves(tree)
    for fmt in ("machine", "text"):
        assert rendered(tree, fmt) == rendered(reports.plain(tree), fmt)
    assert reports.plain(tree) == report(ens)
    digest = hashlib.sha256(json.dumps(report(ens), sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_SHA256[(spec, command)]


def test_plain_leaves_other_nodes_alone():
    tree = {"a": [1, 2.5, None, True, "x"], "b": {"c": np.array([[1 - 2j]])}}
    assert reports.plain(tree) == {"a": [1, 2.5, None, True, "x"], "b": {"c": [[[1.0, -2.0]]]}}


# Array leaves of any shape and value render exactly as their plain form.
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


# The text renderer as first released, visiting every scalar.


def _numeric_tree(node) -> bool:
    if isinstance(node, bool):
        return False
    if isinstance(node, (int, float)):
        return True
    if isinstance(node, list):
        return bool(node) and all(_numeric_tree(x) for x in node)
    return False


def _scalar(node) -> str:
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, float):
        return repr(float(node))
    return str(node)


def _walk(node, depth, lines, label):
    pad = "  " * depth
    head = f"{pad}{label}" if label is not None else pad
    if isinstance(node, dict):
        if label is not None:
            lines.append(f"{head}:")
            depth += 1
        for key, value in node.items():
            _walk(value, depth, lines, key)
    elif isinstance(node, list):
        if _numeric_tree(node) or not node:
            lines.append(f"{head}: {json.dumps(node)}")
        else:
            lines.append(f"{head}:")
            for item in node:
                if isinstance(item, dict):
                    lines.append(f"{pad}  -")
                    for key, value in item.items():
                        _walk(value, depth + 2, lines, key)
                else:
                    _walk(item, depth + 1, lines, "-")
    else:
        lines.append(f"{head}: {_scalar(node)}")


def reference_render_text(report):
    lines = []
    _walk(report, 0, lines, None)
    return "\n".join(lines) + "\n"
