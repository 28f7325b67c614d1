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
# Every worked_example hash moved, by at most 4.4e-16 per number, when a
# matrix member came to be rescaled to unit trace after its rank cut
# (test_parity.py pins how far each fixture's numbers moved).
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
# All eight moved in their last digits when a matrix member came to be
# rescaled to unit trace after its rank cut.
SEEDED_SHA256 = {
    ("d16", "verify", "text"):
        "735274c5fdaa575ca8cd6e45f55209d8d6f6ebfde69b3a477f5898723a6cf4d7",
    ("d16", "verify", "machine"):
        "47918993639feeaf56460d6704e4feeff07b3e3aed8ff011ede0bb9b81874296",
    ("d16", "concentrate", "text"):
        "9611536f2008f258fb709299242e028a815bdc3b6633f11dc8a5a0b5b8baafdc",
    ("d16", "concentrate", "machine"):
        "0593d7df42245cc3865ac28b9b0d5193b0c688ed875db9c760045980adca8e1e",
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
