"""Seeded random objects for the verification suites.

Every generator takes a numpy Generator so a whole suite is reproducible
from one integer seed.
"""

from __future__ import annotations

import numpy as np

from maxconf.ensembles import BipartiteState, Ensemble
from maxconf.linalg import _symmetrized, gram
from maxconf.measurement import POM
from maxconf.transforms import KrausOperator


def hermitize(m) -> np.ndarray:
    """Hermitian part (m + m^dagger) / 2, as a new complex128 array: the
    reference that gram, sandwich and the fail effects are compared with."""
    return _symmetrized(np.array(m, dtype=np.complex128))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Gaussian, phases fixed)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_ket(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return hermitize(rho / np.trace(rho).real)


def random_members(rng: np.random.Generator, dim: int, ranks) -> tuple:
    """(states, priors): one exactly Hermitian state per entry of `ranks` (1 = pure)."""
    states = []
    for r in ranks:
        if r == 1:
            k = random_ket(rng, dim)
            states.append(np.outer(k, k.conj()))
        else:
            states.append(random_density(rng, dim, r))
    priors = 0.1 + rng.random(len(states))
    priors /= priors.sum()
    return tuple(states), priors


def random_ensemble(rng: np.random.Generator, dim: int, ranks) -> Ensemble:
    """Ensemble with one member per entry of `ranks` (1 = pure)."""
    states, priors = random_members(rng, dim, ranks)
    return Ensemble(dim, states, priors)


def ensemble_suite(seed: int, count: int) -> list:
    """Seeded ensembles covering d in {2,3,4} with 2..6 purification columns.

    Members are pure and mixed freely; a member's rank never exceeds the
    system dimension and the ranks sum to the right-side dimension N.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        n_states = int(rng.integers(2, 5))
        n_total = int(rng.integers(n_states, min(6, n_states * dim) + 1))
        ranks = [1] * n_states
        extra = n_total - n_states
        while extra > 0:
            j = int(rng.integers(0, n_states))
            if ranks[j] < dim:
                ranks[j] += 1
                extra -= 1
        out.append(random_ensemble(rng, dim, ranks))
    return out


def random_effect(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random PSD effect with top eigenvalue uniform in (0, 1]."""
    e = random_density(rng, dim, dim)
    top = np.linalg.eigvalsh(e)[-1]
    return e * (rng.random() + 1e-12) / top


def random_complete_pom(rng: np.random.Generator, dim: int, n_outcomes: int) -> POM:
    """Complete measurement: Wishart pieces g g^dagger whitened by their sum
    S, effect k the factor pair (S^{-1/2} g_k, 1), the last piece the fail."""
    pieces = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
              for _ in range(n_outcomes + 1)]
    lam, v = np.linalg.eigh(hermitize(sum(g @ g.conj().T for g in pieces)))
    w = (v / np.sqrt(lam)) @ v.conj().T
    effects = tuple((k, (w @ g, 1.0)) for k, g in enumerate(pieces[:-1]))
    return POM(effects, gram(w @ pieces[-1]))


def random_kraus(rng: np.random.Generator, dim: int, rank: int | None = None,
                 min_singular: float = 0.0) -> KrausOperator:
    """Haar-random unitary composed with a random diagonal contraction.

    Singular values are uniform in (min_singular, 1]; passing `rank` zeroes
    the trailing ones.  The result is a contraction, so it is a valid
    operation element for any ensemble.
    """
    if rank is None:
        rank = dim
    c = min_singular + (1.0 - min_singular) * rng.random(dim)
    c[rank:] = 0.0
    u = random_unitary(rng, dim)
    return KrausOperator(u @ np.diag(c))


def random_bipartite(rng: np.random.Generator, dim_left: int, dim_right: int,
                     schmidt_rank: int) -> BipartiteState:
    """Random pure state with the requested Schmidt rank, singleton index sets."""
    r = schmidt_rank
    if r > min(dim_left, dim_right):
        raise ValueError("Schmidt rank exceeds a local dimension")
    lam = 0.05 + rng.random(r)
    lam /= lam.sum()
    u = random_unitary(rng, dim_left)[:, :r]
    w = random_unitary(rng, dim_right)[:, :r]
    amps = (u * np.sqrt(lam)) @ w.T
    amps = amps / np.linalg.norm(amps)
    sets = tuple((i,) for i in range(dim_right))
    return BipartiteState(amps, sets)
