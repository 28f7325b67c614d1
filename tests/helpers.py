"""Shared ensemble builders, report and reader helpers used across the tests."""

import json
import warnings

import numpy as np
import pytest

from maxconf import BipartiteState, Ensemble, SpecError, reports, specio
from maxconf.linalg import gram


def worked(p: float, q: float) -> Ensemble:
    """One mixed qubit state diag(q, 1-q) with prior p, one pure |+> with prior 1-p."""
    rho0 = np.diag([q, 1.0 - q]).astype(complex)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho1 = np.outer(plus, plus.conj())
    return Ensemble(2, (rho0, rho1), np.array([p, 1.0 - p]))


def worked_bound(p: float, q: float) -> float:
    """Closed-form maximum confidence for the pure member of worked(p, q)."""
    return (1.0 - p) / (1.0 - p + 2.0 * p * q * (1.0 - q))


def worked_purification(p: float, q: float) -> BipartiteState:
    """The worked example's purification written out column by column."""
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    amps = np.column_stack(
        [
            np.sqrt(p * q) * np.array([1.0, 0.0]),
            np.sqrt(p * (1.0 - q)) * np.array([0.0, 1.0]),
            np.sqrt(1.0 - p) * plus,
        ]
    ).astype(complex)
    return BipartiteState(amps, ((0, 1), (2,)))


def worked_perp(p: float, q: float) -> np.ndarray:
    """Unit vector spanning the unreachable right-side direction."""
    k = 1.0 / np.sqrt(1.0 - p + 2.0 * p * q * (1.0 - q))
    return k * np.array(
        [
            np.sqrt((1.0 - p) * (1.0 - q)),
            np.sqrt((1.0 - p) * q),
            -np.sqrt(2.0 * p * q * (1.0 - q)),
        ]
    )


def trine_kets():
    return [
        np.array([np.cos(k * np.pi / 3.0), np.sin(k * np.pi / 3.0)]) for k in range(3)
    ]


def trine(priors=None) -> Ensemble:
    if priors is None:
        priors = [1.0 / 3.0] * 3
    return Ensemble.from_pure(trine_kets(), priors)


def effect_matrices(pom) -> list:
    """(label, E_k) for each effect of pom, the matrix made from its factor
    pair as the pom report prints it."""
    return [(label, gram(*e)) for label, e in pom.effects]


def outcome_matrices(pom) -> list:
    """The matrices of pom's effects, then its fail effect when it has one."""
    return [e for _, e in effect_matrices(pom)] + ([] if pom.fail is None else [pom.fail])


def bell_state() -> BipartiteState:
    amps = np.eye(2, dtype=complex) / np.sqrt(2.0)
    return BipartiteState(amps, ((0,), (1,)))


# command -> (builder of its tree with array leaves, library report)
ARRAY_TREES = {
    "pom": (reports.pom_tree, reports.pom_report),
    "concentrate": (reports.concentrate_tree, reports.concentrate_report),
}


def rendered(tree, fmt: str) -> str:
    return "".join(reports.render(tree, fmt))


def array_leaves(tree) -> list:
    """(container, key) of every array leaf in a pom or concentrate tree."""
    leaves = [(tree, key) for key, value in tree.items() if isinstance(value, np.ndarray)]
    for state in tree.get("states", []):
        leaves += [(state, key) for key, value in state.items() if isinstance(value, np.ndarray)]
    return leaves


def whole_file_load_json(path):
    """Reference reader for specio._load_json: json.loads over the file's whole text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc.strerror or exc}") from exc
    literals = "true" in text or "false" in text
    hook = None if literals else specio._arrays_as_they_close
    try:
        doc = json.loads(text, parse_constant=specio._reject_constant, object_hook=hook)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from exc
    return doc, literals


def outcome(load, path):
    """What load(path) gives: the bytes it holds, or its error's type and text."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = load(path)
    except ValueError as exc:  # SpecError, or a file that is not UTF-8
        return type(exc).__name__, str(exc)
    notes = [str(w.message) for w in caught]
    if isinstance(result, specio.KrausOperator):
        return result.matrix.tobytes(), result.rank, notes
    ens = result.ensemble
    return ens.dim, ens.priors.tobytes(), [s.tobytes() for s in ens.states], result.tolerance, notes


def streamed_and_whole(load, path, chunk=None):
    """The outcome of load(path) streamed (in chunks of `chunk` characters if
    given), and with the whole-file reader."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(specio, "_READ_CHUNK", chunk)
        streamed = outcome(load, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specio, "_load_json", whole_file_load_json)
        whole = outcome(load, path)
    return streamed, whole

