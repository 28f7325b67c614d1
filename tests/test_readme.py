"""README's Library block runs as written, each figure README gives for a
numerical rule is the constant that decides it, the mutant count it gives is
the length of the list, and every public function and class in the package
is used or documented, so none of them can drift."""

import ast
import math
import re
from pathlib import Path

import pytest

import maxconf
from maxconf import confidence_of, ensembles, max_confidence, measurement, specio, transforms
from maxconf.linalg import CONDITIONAL_TOL, FAIL_OUTCOME_TOL, HERMITICITY_TOL, PSD_TOL, RANK_TOL
from maxconf.reports import DEFAULT_TOLERANCE

from mutants import MUTANTS

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "maxconf").glob("*.py"))
# The text with each run of whitespace as one space, so a line break never splits a phrase.
FLAT = " ".join(README.read_text().split())
CONVENTIONS = FLAT.split("## Conventions", 1)[1]
NUMBER = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"


def test_the_library_block_runs_and_attains_the_trine_bound():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    ens = namespace["ens"]
    bound = max_confidence(ens, 0)
    assert abs(bound - 2 / 3) <= 1e-12
    # the bound and the trace through the effect's factor agree to roundoff
    assert abs(confidence_of(ens, namespace["effect"], 0) - bound) <= 1e-15


def test_every_exported_name_is_in_the_readme():
    text = README.read_text()
    missing = [name for name in maxconf.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not missing


# Each rule README gives a figure for: the phrase that gives it, and the constant that decides it.
RULES = {
    "rank": (rf"counts as nonzero when it is above ({NUMBER}) times the largest", RANK_TOL),
    "PSD slack": (rf"most negative eigenvalue is at least ({NUMBER}) times its scale", -PSD_TOL),
    "undefined conditional": (rf"at most ({NUMBER}) times the effect's Frobenius norm", CONDITIONAL_TOL),
    "fail outcome": (rf"when the inconclusive probability is above ({NUMBER})", FAIL_OUTCOME_TOL),
    "default tolerance": (rf"`--tolerance <real>` \(default ({NUMBER});", DEFAULT_TOLERANCE),
    "[0, 1] clamp": (rf"outside by at most ({NUMBER});", measurement._UNIT_SLACK),
    "completeness": (rf"sum to the identity within ({NUMBER})\.", measurement._COMPLETENESS_TOL),
    "prior sum": (rf"priors must sum to 1 within ({NUMBER})", specio._PRIOR_SUM_TOL),
    "ket renormalization warning": (rf"a warning fires if the correction exceeds ({NUMBER})", specio._KET_NORM_WARN),
    "Hermiticity": (rf"\|\|m - m\^dagger\|\|_F at most ({NUMBER}) times \|\|m\|\|_F", HERMITICITY_TOL),
    "unit trace": (rf"its trace within ({NUMBER}) of 1", ensembles._TRACE_TOL),
    "Schmidt sum": (rf"A Schmidt spectrum sums to 1 within ({NUMBER})", ensembles._TRACE_TOL),
    "Schmidt sum allowance": (rf"short by at most ({NUMBER}) times its largest coefficient", RANK_TOL),
    "Schmidt orthonormality": (rf"\|\|B\^dagger B - I\|\|_F at most ({NUMBER})", ensembles._ORTHONORMAL_TOL),
    "top singular space": (rf"every squared singular value within ({NUMBER}) relative of C_j", ensembles._DEGENERACY_TOL),
    "constructor prior sum": (rf"they must already sum to 1 within ({NUMBER})", ensembles._PRIOR_SUM_TOL),
    "two-party norm": (rf"whose Frobenius norm must be 1 within ({NUMBER})", ensembles._NORM_TOL),
    "annihilated member": (rf"\|\|A (?:U U\^dagger )?F_j\|\|_F\^2 at most ({NUMBER})", transforms._ANNIHILATION_FLOOR),
    "sample block": (rf"Trials run in blocks of 2\^({NUMBER})", math.log2(measurement._SAMPLE_CHUNK)),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_figure_readme_gives_is_the_constant_that_decides_it(rule):
    pattern, constant = RULES[rule]
    figures = [float(x) for x in re.findall(pattern, FLAT)]
    assert figures, f"README no longer states the {rule} rule"
    assert figures == [constant] * len(figures)


def test_the_mutant_count_readme_states_is_the_length_of_the_list():
    assert [int(x) for x in re.findall(r"the list of (\d+) takes", FLAT)] == [len(MUTANTS)]


def test_every_figure_of_the_residual_convention_is_the_default_tolerance():
    # verify compares every residual it reports, leakages and the marginal deviation included, with one tolerance
    bullets = [b for b in CONVENTIONS.split(" - ") if "residual" in b]
    figures = [float(x) for b in bullets for x in re.findall(r"\b\d+(?:\.\d+)?e-\d+\b", b)]
    assert figures
    assert figures == [DEFAULT_TOLERANCE] * len(figures)


def test_every_public_function_and_class_is_used_exported_or_documented():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    text = README.read_text()
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and node.name not in maxconf.__all__
        and not re.search(rf"\b{node.name}\b", text)
    ]
    assert not unused
