"""Report assembly and rendering for the command line front end.

Each subcommand produces one report tree of dicts, lists and scalars.  The
pom and concentrate trees (pom_tree, concentrate_tree) may also hold complex
arrays: each matrix stays an array from the computation until it is
printed.  An array leaf may also be a function of no arguments that makes
the array: pom_tree's effects are made only when they are reached, one at
a time.  plain() gives the library's JSON form of a tree, with every array
as nested [re, im] pairs (specio.matrix_to_json); pom_report and
concentrate_report return that form.  Both renderers print an array leaf
one row at a time, with exactly the bytes of its plain form.  Both return
the output as an iterator of string pieces, each made as it is taken; the
bytes they print are given in README's Command line section.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from .ensembles import purify, allowed_subspace, schmidt
from .linalg import DEFAULT_TOLERANCE, FAIL_OUTCOME_TOL, frobenius, gram  # DEFAULT_TOLERANCE is re-exported
from .measurement import (
    complete_pom,
    confidence_report,
    max_confidence,
    simulate_measurement,
)
from .nosignalling import bound_bipartite, conditional_diagonals, marginal_invariance
from .specio import matrix_to_json
from .transforms import apply_kraus, concentrate, monotonicity_check


def _kind(ens, j: int) -> str:
    return "pure" if ens.is_pure(j) else "mixed"


def bound_report(ens) -> dict:
    states = [
        {
            "label": j,
            "prior": float(ens.priors[j]),
            "kind": _kind(ens, j),
            "bound": max_confidence(ens, j),
        }
        for j in range(ens.n_states)
    ]
    return {"command": "bound", "dimension": ens.dim, "states": states}


def plain(tree):
    """The tree with every array leaf as nested [re, im] pairs."""
    if callable(tree):
        tree = tree()
    if isinstance(tree, dict):
        return {key: plain(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [plain(item) for item in tree]
    if isinstance(tree, np.ndarray):
        return matrix_to_json(tree)
    return tree


def pom_tree(ens) -> dict:
    """The pom report with each effect as a complex array leaf, made only
    when plain() or a renderer reaches it."""
    pom = complete_pom(ens)
    rep = confidence_report(ens, pom)
    states = bound_report(ens)["states"]
    for state, (_, _, achieved, prob), (_, e) in zip(states, rep.records, pom.effects):
        state.update(confidence=achieved, outcome_probability=prob, effect=lambda e=e: gram(*e))
    return {
        "command": "pom",
        "dimension": ens.dim,
        "states": states,
        "fail_effect": pom.fail,
        "inconclusive_probability": rep.inconclusive_probability,
    }


def pom_report(ens) -> dict:
    """pom_tree in plain form, kept as the entry the benchmark's library-sweep calls."""
    return plain(pom_tree(ens))


def verify_report(ens, tolerance: float) -> tuple[dict, bool]:
    """Cross-picture verification tree plus an overall pass flag."""
    bs = purify(ens)
    basis = allowed_subspace(bs)
    sd = schmidt(bs)

    # each gap's matrix is made once, written over in place, and dropped once its norm is read
    gaps = {}
    m = bs.left_marginal()
    m -= ens.average
    gaps["purification_residual"] = frobenius(m)
    u = sd.left_vectors  # against U_k U_k^dagger A, the amplitudes on the kept Schmidt space
    m = sd.reconstruct()
    m -= u @ (u.conj().T @ bs.amplitudes)
    gaps["schmidt_reconstruction"] = frobenius(m)
    v = sd.right_vectors
    m = v @ v.conj().T
    m -= basis @ basis.conj().T
    gaps["projector_gap"] = frobenius(m)
    del m, u, v, sd
    pom = complete_pom(ens)
    gaps["marginal_deviation"] = marginal_invariance(bs, pom)

    rep = confidence_report(ens, pom)
    fail = rep.inconclusive_probability > FAIL_OUTCOME_TOL
    # each effect through its factor pair, the fail effect when reported:
    # two diagonal sandwiches per outcome, no effect matrix or conditional made
    effects = [e for _, e in pom.effects] + ([pom.fail] if fail else [])
    readings = conditional_diagonals(bs, basis, effects)
    per_state = []
    for (label, bound, achieved, _), (_, diagonal, leakage) in zip(rep.records, readings):
        entry = {
            "label": label,
            "bound": bound,
            "bound_gap": abs(bound_bipartite(bs, basis, label) - bound),
            "achievability_gap": abs(achieved - bound),
            "crosspicture_gap": abs(float(diagonal[list(bs.index_sets[label])].sum()) - achieved),
            "leakage": leakage,
        }
        per_state.append(entry)
    gaps["fail_leakage"] = readings[-1][2] if fail else None

    exceeded = sorted(
        name
        for name, value in gaps.items()
        if value is not None and value > tolerance
    )
    for entry in per_state:
        for name in ("bound_gap", "achievability_gap", "crosspicture_gap", "leakage"):
            if entry[name] > tolerance:
                exceeded.append(f"states[{entry['label']}].{name}")

    report = {
        "command": "verify",
        "dimension": ens.dim,
        "tolerance": float(tolerance),
        "checks": gaps,
        "states": per_state,
        "exceeded": exceeded,
        "status": "pass" if not exceeded else "fail",
    }
    return report, not exceeded


def _band_3sigma(p: float, n: int) -> float:
    """3 sqrt(p (1 - p) / n) + 1 / (2n): the 3-sigma band of a frequency of
    n shots with continuity correction, so that a single miss at p near 1,
    where the bare band is near 0, is not out of it."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n) + 0.5 / n


def simulate_report(ens, trials: int, seed: int) -> dict:
    pom = complete_pom(ens)
    rep = confidence_report(ens, pom)
    sim = simulate_measurement(ens, pom, trials, seed)
    outcomes = []
    for k, label in enumerate(sim.labels):
        expected = rep.records[k][2]
        count = sim.outcome_counts[k]
        freq = sim.conditional_frequencies[k]
        band = _band_3sigma(expected, count) if count else None
        outcomes.append(
            {
                "label": label,
                "count": count,
                "frequency": freq,
                "expected_confidence": expected,
                "band_3sigma": band,
            }
        )
    return {
        "command": "simulate",
        "dimension": ens.dim,
        "trials": sim.trials,
        "seed": sim.seed,
        "outcomes": outcomes,
        "fail": {
            "count": sim.fail_count,
            "frequency": sim.fail_frequency,
            "expected_probability": rep.inconclusive_probability,
        },
    }


def concentrate_tree(ens) -> dict:
    """The concentrate report with the filter and fail effect as complex arrays."""
    result = concentrate(purify(ens))
    after = schmidt(result.post_state)
    return {
        "command": "concentrate",
        "dimension": ens.dim,
        "schmidt_before": [float(x) for x in result.before.coefficients],
        "schmidt_after": [float(x) for x in after.coefficients],
        "success_probability": result.success_probability,
        "kraus": result.kraus.matrix,
        "fail_effect": result.fail_effect,
    }


def concentrate_report(ens) -> dict:
    """concentrate_tree in plain form, kept as the entry the benchmark's library-sweep calls."""
    return plain(concentrate_tree(ens))


def transform_report(ens, kraus, tolerance: float) -> tuple[dict, bool]:
    transformed, success = apply_kraus(ens, kraus)
    states = []
    ok = True
    for j, record in enumerate(monotonicity_check(ens, transformed, tol=tolerance)):
        ok = ok and record.ok
        states.append(
            {
                "label": j,
                "prior_before": float(ens.priors[j]),
                "prior_after": float(transformed.priors[j]),
                "confidence_before": record.confidence_before,
                "confidence_after": record.confidence_after,
                "full_rank_on_support": record.full_rank_on_support,
                "verdict": record.verdict,
            }
        )
    report = {
        "command": "transform",
        "dimension": ens.dim,
        "kraus_rank": kraus.rank,
        "success_probability": success,
        "states": states,
        "status": "pass" if ok else "fail",
    }
    return report, ok


_ROW = json.JSONEncoder(sort_keys=True, allow_nan=False)


def _pair_rows(a: np.ndarray):
    """The encoded items of an array leaf's plain form, one per index of its
    first axis: a matrix row as [[re, im], ...], a vector entry as [re, im].
    Report arrays are matrices or vectors with no empty axis."""
    for row in a:
        yield _ROW.encode(np.stack([row.real, row.imag], -1).tolist())


def _leaf_rank(node) -> int:
    """Nesting depth of a numeric array (lists of numbers), 0 for anything else.

    Report arrays are homogeneous, so the chain of first elements decides and
    no other scalar is visited.
    """
    rank = 0
    while isinstance(node, list) and node:
        node = node[0]
        rank += 1
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return 0
    return rank


def _machine(node, pad: str) -> Iterator[str]:
    inner = pad + "  "
    if callable(node):
        node = node()
    if isinstance(node, dict) and node:
        sep = "{\n"
        for key in sorted(node):
            yield f"{sep}{inner}{_ROW.encode(key)}: "
            yield from _machine(node[key], inner)
            sep = ",\n"
        yield f"\n{pad}}}"
    elif isinstance(node, np.ndarray):
        sep = "[\n"
        for row in _pair_rows(node):
            yield f"{sep}{inner}{row}"
            sep = ",\n"
        yield f"\n{pad}]"
    elif isinstance(node, list) and node:
        rank = _leaf_rank(node)
        if rank == 1:
            yield _ROW.encode(node)
            return
        sep = "[\n"
        for item in node:
            if rank:
                yield f"{sep}{inner}{_ROW.encode(item)}"
            else:
                yield f"{sep}{inner}"
                yield from _machine(item, inner)
            sep = ",\n"
        yield f"\n{pad}]"
    else:
        yield _ROW.encode(node)


def render_machine(report: dict) -> Iterator[str]:
    """Canonical JSON as an iterator of string pieces to write in order.

    Keys are sorted and structure is indented by two spaces as with
    json.dumps(indent=2, sort_keys=True), except that a numeric array is
    printed one row per line (a flat one on a single line).  Pieces are
    encoded as they are taken, so a value JSON cannot hold (NaN) raises
    ValueError after the pieces before it.
    """
    yield from _machine(report, "")
    yield "\n"


def _scalar(node) -> str:
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, float):
        return repr(float(node))
    return str(node)


def _walk(node, depth: int, label) -> Iterator[str]:
    pad = "  " * depth
    head = f"{pad}{label}" if label is not None else pad
    if callable(node):
        node = node()
    if isinstance(node, dict):
        if label is not None:
            yield f"{head}:\n"
            depth += 1
        for key, value in node.items():
            yield from _walk(value, depth, key)
    elif isinstance(node, np.ndarray):
        rows = _pair_rows(node)
        yield f"{head}: [{next(rows, '')}"
        for row in rows:
            yield f", {row}"
        yield "]\n"
    elif isinstance(node, list):
        if not node or _leaf_rank(node):
            yield f"{head}: {json.dumps(node)}\n"
        else:
            yield f"{head}:\n"
            for item in node:
                if isinstance(item, dict):
                    yield f"{pad}  -\n"
                    for key, value in item.items():
                        yield from _walk(value, depth + 2, key)
                else:
                    yield from _walk(item, depth + 1, "-")
    else:
        yield f"{head}: {_scalar(node)}\n"


def render_text(report: dict) -> Iterator[str]:
    """Indented key: value lines as an iterator of pieces, in order; each
    line is one piece, except that an array leaf's comes one row at a time."""
    return _walk(report, 0, None)


def render(report: dict, output: str) -> Iterator[str]:
    """The report's pieces in the requested form, produced as they are taken."""
    return render_machine(report) if output == "machine" else render_text(report)
