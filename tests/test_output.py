"""The output contract of the command line.

Machine output must parse to exactly the report tree the library builds,
with each row of a numeric array on its own line.  The pom and concentrate
trees keep matrices as complex arrays until they are printed, and both
renderers print them exactly as their plain() form, the nested [re, im]
pairs the library returns.  Text output is pinned byte for byte: by stored
sha256 on the fixtures, and against the original text renderer (kept below
as the reference) on a seeded d=16 ensemble, whose last digits depend on
the BLAS build and so cannot be pinned by hash.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from maxconf import read_spec, reports
from maxconf.cli import main
from maxconf.specio import load_kraus, matrix_to_json

from randomgen import random_ensemble
from helpers import ARRAY_TREES, array_leaves, rendered

COMMANDS = ("bound", "pom", "verify", "concentrate", "transform")
SPECS = ("worked_example", "trine", "d16")

# sha256 of `maxconf <command> fixtures/<spec>.json` text output (transform
# with the diag(1, 0.5) filter, simulate with --trials 70001 --seed 5).
# All equal the first release's output except worked_example pom, verify and
# transform, where it printed the confidence 1.0000000000000002 that is now
# clamped to 1.0, worked_example verify, whose schmidt_reconstruction is
# now measured against the kept Schmidt space, and both verify outputs, whose
# projector_gap, bound_gap and leakage moved in their last digits when the
# allowed subspace became the support of the right marginal (every number
# within 1e-14 of verify_before.json, see below).
TEXT_SHA256 = {
    ("worked_example", "bound"):
        "6681c3abc6b7fdefe59e9a8040dbd7d7b7568c6b070d55b39cd9a83d09d407b0",
    ("worked_example", "pom"):
        "8fb4d1df51a979ace4169a767be97483ee146f786442cd1af8671aefcb9f4de7",
    ("worked_example", "verify"):
        "1ce555b2e8d73ea280c01f812d1b00190c05ec4140dcdc5b6271753bddd65b3f",
    ("worked_example", "concentrate"):
        "dd4797865fa09ff208824ade9fccffa405e847db9f62025f2b35b6d9f56a47e3",
    ("worked_example", "transform"):
        "5dd01e6bea821f81bc035bd3af7057d677b0dcda9c5ab68e4fc62ad7eb307ea7",
    ("trine", "bound"):
        "e35a53358a9fa5350a5b5e5f792e4498b54455c2b67fdd7f38e2ad12e0807254",
    ("trine", "pom"):
        "325d93fc445cfffd1b5111be029e9ac6671aa5a3147f1162dc60c2e7eca4bae8",
    ("trine", "verify"):
        "a1d918c0fe440c1653bc5b8a678b93124664c12d1685eb2386533779af0ff4f4",
    ("trine", "concentrate"):
        "2ccc466ce2ec00239ce0b1c357bd55d8e31ac0eec482b3971be2cdc52e1bacd9",
    ("trine", "transform"):
        "1eab758512e667577509cd106d842899c6b11dd9bdc32f509e780c44b8526b78",
    ("trine", "simulate"):
        "3716628ab6b86e0bec23a8e31244f53eb7295aa8f5dd1097330d1bdd8bd7fdaa",
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
    return {
        "worked_example": ("fixtures/worked_example.json", filter2),
        "trine": ("fixtures/trine.json", filter2),
        "d16": (_write(root / "d16.json", d16), _write(root / "filter16.json", filter16)),
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


# `maxconf verify fixtures/trine.json --tolerance 1e-30` in text: every gap is
# above the tolerance, so exceeded lists ten names, each on a "-: " line.
FAILING_VERIFY_SHA256 = "32d0569fe84026f1b39b70cb381ffad90d34c7032010e677d1d733d19712808f"


def test_text_output_of_a_failing_verify_is_pinned(capsys):
    code = main(["verify", "fixtures/trine.json", "--tolerance", "1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    assert "\nexceeded:\n  -: marginal_deviation\n" in out
    report, ok = reports.verify_report(read_spec("fixtures/trine.json").ensemble, 1e-30)
    assert not ok and out == reference_render_text(report)
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_VERIFY_SHA256


@pytest.mark.parametrize("command", COMMANDS)
def test_text_output_matches_the_reference_renderer(capsys, inputs, command):
    out = _stdout(capsys, _argv(inputs, "d16", command, "text"))
    assert out == reference_render_text(_report(inputs, "d16", command))


# sha256 of json.dumps(<command>_report(fixture), sort_keys=True), as built
# before the trees held arrays.
REPORT_SHA256 = {
    ("worked_example", "pom"):
        "3e34bba63b422f1623e87e7a9a97cf5795c781c2632f9cfc898b97b6a1196c70",
    ("worked_example", "concentrate"):
        "3dd59aff6ae8c982e8b417d927929b3efee4ddde6bc23ad475d9eaf230eb3363",
    ("trine", "pom"):
        "494762906f2da3618d30ed83b9a3ba9e8422990a3233ec038fc8c3008c8214b6",
    ("trine", "concentrate"):
        "93484447a0ad5994fc84251288ab5f84ce7214326efdd7ff176fef0769e80750",
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
