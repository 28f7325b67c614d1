"""Shared ensemble builders and report helpers used across the tests."""

import numpy as np

from maxconf import BipartiteState, Ensemble, reports


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
    return BipartiteState(2, 3, amps, ((0, 1), (2,)))


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


def bell_state() -> BipartiteState:
    amps = np.eye(2, dtype=complex) / np.sqrt(2.0)
    return BipartiteState(2, 2, amps, ((0,), (1,)))


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
