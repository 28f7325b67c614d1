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

import numpy as np
import pytest

from maxconf import parse_spec, reports
from maxconf.cli import main
from maxconf.randomgen import random_ensemble
from maxconf.specio import load_kraus, matrix_to_json

from helpers import ARRAY_TREES, array_leaves, rendered

COMMANDS = ("bound", "pom", "verify", "concentrate", "transform")
SPECS = ("worked_example", "trine", "d16")

# sha256 of `maxconf <command> fixtures/<spec>.json` text output (transform
# with the diag(1, 0.5) filter, simulate with --trials 70001 --seed 5).
# All equal the first release's output except worked_example pom, verify and
# transform, where it printed the confidence 1.0000000000000002 that is now
# clamped to 1.0, and worked_example verify, whose schmidt_reconstruction is
# now measured against the kept Schmidt space (see the test below).
TEXT_SHA256 = {
    ("worked_example", "bound"):
        "6681c3abc6b7fdefe59e9a8040dbd7d7b7568c6b070d55b39cd9a83d09d407b0",
    ("worked_example", "pom"):
        "8fb4d1df51a979ace4169a767be97483ee146f786442cd1af8671aefcb9f4de7",
    ("worked_example", "verify"):
        "2fba6031932494f9e2594c3e8b355bee757d2a25c366ef832fe8c5c2f1744567",
    ("worked_example", "concentrate"):
        "dd4797865fa09ff208824ade9fccffa405e847db9f62025f2b35b6d9f56a47e3",
    ("worked_example", "transform"):
        "5dd01e6bea821f81bc035bd3af7057d677b0dcda9c5ab68e4fc62ad7eb307ea7",
    ("trine", "bound"):
        "e35a53358a9fa5350a5b5e5f792e4498b54455c2b67fdd7f38e2ad12e0807254",
    ("trine", "pom"):
        "325d93fc445cfffd1b5111be029e9ac6671aa5a3147f1162dc60c2e7eca4bae8",
    ("trine", "verify"):
        "94aa4e93e7b3b1a92b9cafd3bf2be71dfb3b83a3ff2ff6f4dddfcfa751d38ee3",
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
    ens = parse_spec(path)
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


# worked_example verify as printed when schmidt_reconstruction compared the
# Schmidt sum with the untruncated amplitudes; that key read 3.583948318490248e-16.
WORKED_VERIFY_BEFORE = {
    "checks": {
        "fail_leakage": 2.3129646346357432e-17,
        "marginal_deviation": 0.0,
        "projector_gap": 5.874748045952207e-16,
        "purification_residual": 7.850462293418876e-17,
    },
    "command": "verify",
    "dimension": 2,
    "exceeded": [],
    "states": [
        {"achievability_gap": 0.0, "bound": 1.0, "bound_gap": 0.0,
         "crosspicture_gap": 0.0, "label": 0, "leakage": 9.251858538542981e-18},
        {"achievability_gap": 0.0, "bound": 0.6666666666666667,
         "bound_gap": 1.1102230246251565e-16, "crosspicture_gap": 1.1102230246251565e-16,
         "label": 1, "leakage": 9.25185853854298e-18},
    ],
    "status": "pass",
    "tolerance": 1e-09,
}


def test_worked_example_verify_changes_only_the_schmidt_reconstruction(capsys, inputs):
    doc = json.loads(_stdout(capsys, _argv(inputs, "worked_example", "verify", "machine")))
    assert abs(doc["checks"].pop("schmidt_reconstruction") - 3.583948318490248e-16) < 1e-14
    assert doc == WORKED_VERIFY_BEFORE


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
    ens = parse_spec(f"fixtures/{spec}.json")
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
