"""Which tests kill which one-line mutant of the package: `python tests/mutants.py`.

Each entry of MUTANTS replaces its old text, which must occur exactly once,
in a temporary copy of src/, tests/, fixtures/, README.md and pyproject.toml;
the whole suite but tests/test_mutants.py runs there and its failed node ids
are printed.  A clean run comes first and must pass (else exit 2); the exit
code is 1 if any mutant survives.  Nothing is written into the checkout.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "fixtures", "README.md", "pyproject.toml")


def _scaled(name: str, module: str, value: str) -> list:
    """The constant `name = value` in src/maxconf/<module>.py, times 100 and over 100."""
    mantissa, exponent = value.split("e")
    return [(f"{module}.{name}{label}", f"src/maxconf/{module}.py", f"{name} = {value}",
             f"{name} = {mantissa}e{int(exponent) + shift}") for label, shift in (("*100", 2), ("/100", -2))]


# (name, file, exact old text, new text)
MUTANTS = [
    *_scaled("RANK_TOL", "linalg", "1e-12"),
    *_scaled("PSD_TOL", "linalg", "1e-10"),
    *_scaled("HERMITICITY_TOL", "linalg", "1e-9"),
    *_scaled("CONDITIONAL_TOL", "linalg", "1e-14"),
    *_scaled("FAIL_OUTCOME_TOL", "linalg", "1e-12"),
    *_scaled("_TRACE_TOL", "ensembles", "1e-10"),
    *_scaled("_DEGENERACY_TOL", "ensembles", "1e-12"),
    *_scaled("_PRIOR_SUM_TOL", "ensembles", "1e-12"),
    *_scaled("_NORM_TOL", "ensembles", "1e-12"),
    *_scaled("_ORTHONORMAL_TOL", "ensembles", "1e-10"),
    *_scaled("_UNIT_SLACK", "measurement", "1e-10"),
    *_scaled("_COMPLETENESS_TOL", "measurement", "1e-9"),
    *_scaled("_PRIOR_SUM_TOL", "specio", "1e-9"),
    *_scaled("_ANNIHILATION_FLOOR", "transforms", "1e-14"),
    ("complete_pom's t x0.999", "src/maxconf/measurement.py",
     "t = 1.0 / float(np.linalg.svd(", "t = 0.999 / float(np.linalg.svd("),
    ("_checked_state's unit-trace rescale dropped", "src/maxconf/ensembles.py",
     "return _readonly(f / np.sqrt(np.vdot(f, f).real))", "return _readonly(f)"),
    ("_unit_interval's clamp dropped", "src/maxconf/measurement.py",
     "return min(max(value, 0.0), 1.0)", "return value"),
    ("apply_kraus's min(success, 1.0) dropped", "src/maxconf/transforms.py",
     "weights / success), min(success, 1.0)", "weights / success), success"),
    ("_kept_factor's eigh fallback never taken", "src/maxconf/linalg.py",
     "if abs(trace - np.vdot(f, f).real) > RANK_TOL * trace:", "if False:"),
    ("SchmidtDecomposition's rank-rule allowance dropped", "src/maxconf/ensembles.py",
     "if not -_TRACE_TOL - dropped <= lam.sum()", "if not -_TRACE_TOL <= lam.sum()"),
    ("allowed_subspace from the eigh of the right marginal", "src/maxconf/ensembles.py",
     "q, r = np.linalg.qr(bs.amplitudes.T)",
     "q, r = (lambda w, v: (v, np.diag(np.sqrt(np.abs(w)))))(*np.linalg.eigh(bs.right_marginal()))"),
    ("simulate's halving probe one edge late", "src/maxconf/measurement.py",
     "edges[cell + (half - 1)]", "edges[cell + half]"),
    ("simulate's halving keeps the lower half's size", "src/maxconf/measurement.py",
     "n -= half", "n = half"),
    ("monotonicity_check's raised bound not violated", "src/maxconf/transforms.py",
     'if after > before + tol:\n            verdict = "violated"', 'if after > before + tol:\n            verdict = "decreased"'),
    ("monotonicity_check's full-rank drop not violated", "src/maxconf/transforms.py",
     'elif full:\n            verdict = "violated"', 'elif full:\n            verdict = "decreased"'),
    ("ConfidenceReport's inconclusive clamp dropped", "src/maxconf/measurement.py",
     '"inconclusive_probability", min(max(inconclusive, 0.0), 1.0))', '"inconclusive_probability", inconclusive)'),
]

_NODE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.MULTILINE)


def run_suite(mutant=None) -> tuple:
    """(pytest's exit code, its failed and errored node ids, seconds) on a copy, mutated if given."""
    with tempfile.TemporaryDirectory(prefix="maxconf-mutant-") as tmp:
        shutil.copytree(ROOT, tmp, dirs_exist_ok=True, ignore=lambda folder, names: [
            n for n in names if n == "__pycache__" or (Path(folder) == ROOT and n not in COPIED)])
        if mutant is not None:
            _, file, old, new = mutant
            path = Path(tmp, file)
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{mutant[0]}: {old!r} occurs {text.count(old)} times in {file}, expected once")
            path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        # tests/test_mutants.py fails on every mutant, by design, so it is left out here.
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
                               "--ignore=tests/test_mutants.py"], cwd=tmp, env=env, capture_output=True, text=True)
        return proc.returncode, sorted(set(_NODE.findall(proc.stdout))), time.perf_counter() - start


def main() -> int:
    code, nodes, seconds = run_suite()
    print(f"unmutated: exit {code}, {len(nodes)} failed, {seconds:.0f} s", flush=True)
    if code != 0:
        print("\n".join(f"  {node}" for node in nodes))
        return 2
    survivors = []
    for mutant in MUTANTS:
        code, nodes, seconds = run_suite(mutant)
        if code == 0:
            survivors.append(f"{mutant[0]} ({mutant[1]})")
        verdict = f"killed by {len(nodes)}" if code != 0 else "SURVIVED"
        print(f"\n{mutant[0]} ({mutant[1]}): {verdict}, {seconds:.0f} s", *(f"  {node}" for node in nodes),
              sep="\n", flush=True)
    print(f"\n{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed"
          + "".join(f"\nsurvived: {name}" for name in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
