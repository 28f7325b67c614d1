"""The output contract of the command line.

Machine output must parse to exactly the report tree the library builds,
with each row of a numeric array on its own line.  The pom and concentrate
trees keep matrices as complex arrays until they are printed, and both
renderers print them exactly as their plain() form, the nested [re, im]
pairs the library returns.  Text output is pinned byte for byte: by stored
sha256 on the fixtures, and against the original text renderer (kept below
as the reference) on a seeded d=16 ensemble.  The seeded specs' last digits
depend on the BLAS build, so their verify and concentrate hashes, text and
machine, hold for the numpy build they were taken with.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from maxconf import allowed_subspace, purify, read_spec, reports, schmidt
from maxconf.cli import main
from maxconf.linalg import frobenius, gram
from maxconf.specio import load_kraus, matrix_to_json

from randomgen import hermitize, random_ensemble
from helpers import ARRAY_TREES, array_leaves, rendered

COMMANDS = ("bound", "pom", "verify", "concentrate", "transform")
SPECS = ("worked_example", "trine", "d16")

# sha256 of `maxconf <command> fixtures/<spec>.json` text output (transform
# with the diag(1, 0.5) filter, simulate with --trials 70001 --seed 5).
# Every hash moved in its last digits when the numbers came to be taken from
# square-root factors: bounds, effects and traces from the member factors in
# place of rho^{-1} and rho^{-1/2}, verify's conditional states through the
# effect factors, and concentrate's filter from the SVD of the amplitude
# matrix; every number is within 1e-14 of the values printed before
# (test_parity.py, against outputs_before.json).  Earlier moves: worked_example
# pom, verify and transform printed a confidence of 1.0000000000000002 that
# is now clamped to 1.0, worked_example verify's schmidt_reconstruction is
# measured against the kept Schmidt space, and both verify outputs moved when
# the allowed subspace became the support of the right marginal (within 1e-14
# of verify_before.json, see below), and every worked_example hash moved when
# its mixed member came to be factored by pivoted Cholesky in place of eigh.
# verify and concentrate moved in their last digits when the purification
# came to be built from the member factors and the allowed subspace from a
# QR of the amplitude matrix's transpose (test_parity.py still holds).  Both
# verify hashes moved when each outcome came to be read from two diagonal
# sandwiches in place of a formed conditional: leakage is now the weight of
# the amplitudes' part outside the allowed subspace, Z = A - (A B^*) B^T,
# about 1e-32 where Tr(Q rho Q) with Q = I - B B^dagger formed printed up to
# 1.4e-17, and a bound_gap moved by 2.2e-16 with the bound read from the
# basis's rows (test_parity.py and verify_before.json still hold).  The
# trine simulate hash moved when simulate came to draw from SplitMix64 in
# place of numpy's default generator, which moved every count, and its band
# gained the continuity correction 1 / (2 count) (test_parity.py checks
# both against its reference sampler).  worked_example transform moved by
# at most 3.3e-16 per number (a confidence_after 0.9999999999999998 -> 1.0
# among them) when filters came to act on the kept support, A U U^dagger F_i.
TEXT_SHA256 = {
    ("worked_example", "bound"):
        "cab17462d55cefe0e7e1fb290c4b4dc068c79ff14270c64d556b3399d0b1ed4c",
    ("worked_example", "pom"):
        "b3beccfa9d8b72c9c540449686ecf9e27727a5da64d409fbdd4c9274259665d9",
    ("worked_example", "verify"):
        "f0c02a584f1b5eefb46bdb7c471dd32ff010d9940ac596a4673b244f398ab3e9",
    ("worked_example", "concentrate"):
        "35b39382707276235e3a551b388a2052b60c69cf13f1d18462f1050f348b29a0",
    ("worked_example", "transform"):
        "4223d2bc5b71fef4ee4fa18fd675f7b0db3c42dda924bd162a9ae8608fbff214",
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


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """spec name -> (spec path, Kraus path)."""
    root = tmp_path_factory.mktemp("inputs")
    filter2 = _write(root / "filter2.json", matrix_to_json(np.diag([1.0, 0.5])))
    ens = random_ensemble(np.random.default_rng(1), 16, [1, 2] * 4)
    d16 = {
        "dimension": 16,
        "states": [
            {"prior": float(p), "matrix": matrix_to_json(rho)}
            for p, rho in zip(ens.priors, ens.states)
        ],
    }
    filter16 = matrix_to_json(np.diag(np.linspace(1.0, 0.5, 16)))
    wide = random_ensemble(np.random.default_rng(25), 8, [4] * 4)
    d8_rank16 = {
        "dimension": 8,
        "states": [
            {"prior": float(p), "matrix": matrix_to_json(rho)}
            for p, rho in zip(wide.priors, wide.states)
        ],
    }
    return {
        "worked_example": ("fixtures/worked_example.json", filter2),
        "trine": ("fixtures/trine.json", filter2),
        "d16": (_write(root / "d16.json", d16), _write(root / "filter16.json", filter16)),
        "d8_rank16": (_write(root / "d8_rank16.json", d8_rank16), None),  # no transform runs on it
    }


def _argv(inputs, spec, command, output):
    path, kraus = inputs[spec]
    argv = [command, path, "--output", output]
    if command == "transform":
        argv += ["--kraus", kraus]
    elif command == "simulate":
        argv += ["--trials", "70001", "--seed", "5"]
    return argv


def _stdout(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    return captured.out


def _report(inputs, spec, command):
    path, kraus = inputs[spec]
    ens = read_spec(path).ensemble
    tol = reports.DEFAULT_TOLERANCE
    if command == "bound":
        return reports.bound_report(ens)
    if command == "pom":
        return reports.pom_report(ens)
    if command == "verify":
        return reports.verify_report(ens, tol)[0]
    if command == "concentrate":
        return reports.concentrate_report(ens)
    return reports.transform_report(ens, load_kraus(kraus), tol)[0]


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
        "d6ac589f2c50200b3c4852b7ca0979f3c4e616d71fc4fa56532ee305f21628eb",
    ("d16", "verify", "machine"):
        "4559d8c139ced755032c158e1d23a7918179ea25107af98b35b30b9d650ceacd",
    ("d16", "concentrate", "text"):
        "900fa41db6651e01882e5b1636406d9d348d9b88a974dc3b0ddfe83e2a111ac6",
    ("d16", "concentrate", "machine"):
        "8c734fe3bbba36e68404df8777010cc99582e9bbb9d1ae07fc61183a36ab7d70",
    ("d8_rank16", "verify", "text"):
        "2598433016ac4b08c6798afdf5f50840cbfff3684c09e1ae4156fa8dd2586c07",
    ("d8_rank16", "verify", "machine"):
        "8f901ee2a7d090e8643d30adc920a7f5838b1ebd435fc6beee6ddab0484b7a4b",
    ("d8_rank16", "concentrate", "text"):
        "88f6ac562d68f20ba36e63d84f427ab30f7922328c0cc1350cecbbafa5fe1cc3",
    ("d8_rank16", "concentrate", "machine"):
        "642d8715818cfaf514682aaae1e34af0adb55028fa4f4be7c94e106f1d773cfc",
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


def _within(doc, before, path=""):
    """Paths where doc differs from before: a number by more than 1e-14,
    anything else at all."""
    if isinstance(before, dict) and isinstance(doc, dict) and doc.keys() == before.keys():
        return [p for key in before for p in _within(doc[key], before[key], f"{path}.{key}")]
    if isinstance(before, list) and isinstance(doc, list) and len(doc) == len(before):
        return [p for k, (a, b) in enumerate(zip(doc, before)) for p in _within(a, b, f"{path}[{k}]")]
    if type(before) is float and type(doc) is float:
        return [] if abs(doc - before) <= 1e-14 else [path]
    return [] if doc == before else [path]


@pytest.mark.parametrize("spec", sorted(VERIFY_BEFORE))
def test_verify_numbers_stay_within_1e_14_of_the_whitened_subspace(capsys, inputs, spec):
    path = inputs[spec][0] if spec in inputs else f"fixtures/{spec}.json"
    doc = json.loads(_stdout(capsys, ["verify", path, "--output", "machine"]))
    assert _within(doc, VERIFY_BEFORE[spec]) == []


# `maxconf verify fixtures/trine.json --tolerance 1e-30` in text: exceeded
# lists every gap above the tolerance (all but those that are exactly 0.0),
# each on a "-: " line.  The trine's purification columns are its scaled
# kets, so its residual, projector gap and marginal deviation are 0.0.  It
# moved with the verify hashes above: states[2].leakage, 4.6e-18 then, is
# now 6.5e-32 and so no longer listed, and no leakage is above 1e-30.
FAILING_VERIFY_SHA256 = "574d8ad178ce910b9bd34099127c79245afe51bc43dfb5b5d347a0f2c17d35ee"


def test_text_output_of_a_failing_verify_is_pinned(capsys):
    code = main(["verify", "fixtures/trine.json", "--tolerance", "1e-30"])
    out = capsys.readouterr().out
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
# from the factors; worked_example's mixed member by pivoted Cholesky, and
# concentrate's purification from the member factors.
REPORT_SHA256 = {
    ("worked_example", "pom"):
        "4ffdbb928717cb5d2491f503ee6b014b6b9e35311d5496c78f9da790d24fb2c1",
    ("worked_example", "concentrate"):
        "7e85c06f70da63da00468ea08a5ff24face2d076c4928194395eeb42af92dbc6",
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
