"""Discrimination ensembles and their bipartite companions.

An Ensemble is a finite set of density operators with strictly positive
prior probabilities.  Every ensemble has a canonical two-party picture:
a pure state

    |Psi> = sum_i sqrt(beta_i) |beta_i>_L |i>_R

whose left marginal is the average state sum_i p_i rho_i and whose right
index labels are grouped into one contiguous block sigma(j) per ensemble
member, with sum over i in sigma(j) of beta_i |beta_i><beta_i| = p_j rho_j.
Conditioned on a right-side index in sigma(j), the left system holds rho_j
with probability p_j, so measurements on the left realize discrimination
of the ensemble while the right side keeps the record.

An Ensemble holds member j as its factor F_j, rho_j = F_j F_j^dagger: a ket
is its own factor, and a matrix, read from a spec or given to the
constructor, is factored by pivoted Cholesky at the rank its eigvalsh check
found (linalg._kept_factor).  support (one SVD of the stacked factors) and
top(j) are made once, on first use, for the measurement route; the
bipartite route computes its own, from the factors (purify) and a QR.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    Support,
    _kept_factor,
    _readonly,
    _require_finite,
    as_matrix,
    fix_phase,
    frobenius,
    gram,
    hermitian_in_place,
    hermitize,
    kept_svd,
    real_trace,
    within_psd_slack,
)

_TRACE_TOL = 1e-10
_PRIOR_SUM_TOL = 1e-12
_NORM_TOL = 1e-12
# Squared singular values within this relative distance of the top one share its space.
_DEGENERACY_TOL = 1e-9


class StateError(ValueError):
    """One ensemble member, at position index, failed validation."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"state {index} {problem}")
        self.index = index


def _checked_state(h: np.ndarray) -> np.ndarray:
    """A member's checks on a square complex array the caller owns: finite,
    Hermitian (made exactly so in place), PSD within the slack at its trace,
    unit trace.  Returns its factor at the rank of the eigvalsh that checks
    it (linalg._kept_factor).  Raises ValueError; the caller names the member.
    """
    try:
        hermitian_in_place(h)
    except ValueError as exc:
        raise ValueError(str(exc).removeprefix("matrix ")) from None
    vals = np.linalg.eigvalsh(h)
    if not within_psd_slack(vals[0], real_trace(h)):
        raise ValueError(f"is not positive semidefinite (most negative eigenvalue {float(vals[0])!r})")
    if abs(real_trace(h) - 1.0) > _TRACE_TOL:
        raise ValueError(f"has trace {real_trace(h)!r}, expected 1")
    return _kept_factor(h, vals)


class _States(Sequence):
    """The states, read-only, each rebuilt as F_j F_j^dagger from its factor when read."""

    def __init__(self, factors):
        self._factors = tuple(_readonly(f) for f in factors)

    def __len__(self) -> int:
        return len(self._factors)

    def factor(self, j: int) -> np.ndarray:
        return self._factors[j]

    def __getitem__(self, j: int) -> np.ndarray:
        return gram(self._factors[j])  # IndexError past the end ends iteration


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States rho_i with priors p_i on a d-dimensional system, validated on construction.

    The constructor checks a copy of each state (eigvalsh, which gives its
    rank) and factors it at once by pivoted Cholesky, with one eigh on
    fallback (_checked_state), as read_spec does.  read_spec, apply_kraus
    and from_pure hand over factors with _of.  states is a read-only
    sequence rebuilt from the factors, so it can differ from the input by
    the eigenvalues the rank rule drops.
    """

    dim: int
    states: Sequence
    priors: np.ndarray

    def __post_init__(self):
        self._settle()
        factors = []
        for k, rho in enumerate(self.states):
            h = as_matrix(np.array(rho, dtype=np.complex128))
            if h.shape != (self.dim, self.dim):
                raise StateError(k, f"has shape {h.shape}, expected ({self.dim}, {self.dim})")
            try:
                factors.append(_checked_state(h))
            except ValueError as exc:
                raise StateError(k, str(exc)) from None
        object.__setattr__(self, "states", _States(factors))

    @classmethod
    def _of(cls, dim: int, factors: tuple, priors) -> "Ensemble":
        """The ensemble of finite d x r_j factors whose states have unit trace."""
        ens = object.__new__(cls)
        for name, value in (("dim", dim), ("states", factors), ("priors", priors)):
            object.__setattr__(ens, name, value)
        ens._settle()
        object.__setattr__(ens, "states", _States(factors))
        return ens

    def _settle(self):
        """Validate the dimension, the member count and the priors; keep the priors read-only."""
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.states) == 0:
            raise ValueError("ensemble needs at least one state")
        priors = np.array(self.priors, dtype=np.float64)  # a copy: the caller's stays writable
        if priors.shape != (len(self.states),):
            raise ValueError("one prior per state required")
        if not np.all(np.isfinite(priors)):
            raise ValueError("priors must be finite")
        if np.any(priors <= 0.0):
            raise ValueError("priors must be strictly positive")
        if abs(priors.sum() - 1.0) > _PRIOR_SUM_TOL:
            raise ValueError(f"priors sum to {float(priors.sum())!r}, expected 1")
        object.__setattr__(self, "priors", _readonly(priors))

    @classmethod
    def from_pure(cls, kets, priors) -> "Ensemble":
        kets = [np.asarray(k, dtype=np.complex128).reshape(-1) for k in kets]
        if not kets:
            raise ValueError("ensemble needs at least one state")
        dim = kets[0].size
        factors = []
        for j, k in enumerate(kets):
            if k.size != dim:
                raise ValueError("kets must share one dimension")
            n = np.linalg.norm(_require_finite(k, f"ket {j}"))
            if n == 0.0:
                raise ValueError("zero ket")
            factors.append((k / n)[:, None])
        return cls._of(dim, tuple(factors), np.asarray(priors, dtype=np.float64))

    @property
    def n_states(self) -> int:
        return len(self.states)

    def factor(self, j: int) -> np.ndarray:
        """Member j's d x r_j factor F_j, rho_j = F_j F_j^dagger."""
        return self.states.factor(j)

    @property
    def state_ranks(self) -> tuple:
        return tuple(self.factor(j).shape[1] for j in range(self.n_states))

    def is_pure(self, j: int) -> bool:
        return self.factor(j).shape[1] == 1

    def stacked(self) -> np.ndarray:
        """[sqrt(p_1) F_1, ..., sqrt(p_n) F_n], whose Gram matrix is the average."""
        return np.hstack([np.sqrt(p) * self.factor(j) for j, p in enumerate(self.priors)])

    @cached_property
    def average(self) -> np.ndarray:
        """The mixture sum_i p_i rho_i actually handed to the measurement."""
        return gram(self.stacked())

    @cached_property
    def _stacked_svd(self) -> tuple:
        """One SVD stacked() = U S V^dagger, kept rows only: the support (s^2, U)
        and, per member, its columns of V^dagger, which are its whitened block
        G_j = diag(1/s) U^dagger sqrt(p_j) F_j with no division by s."""
        u, s, vh = kept_svd(self.stacked())
        ends = np.cumsum(self.state_ranks)[:-1]
        return Support(_readonly(s ** 2), _readonly(u)), np.hsplit(_readonly(vh), ends)

    @cached_property
    def support(self) -> Support:
        """The average's support, the kept (s^2, U) of the stacked SVD."""
        return self._stacked_svd[0]

    @cached_property
    def _tops(self) -> list:
        return [None] * self.n_states

    def top(self, j: int) -> tuple:
        """Member j's bound C_j = sigma_max(G_j)^2, unclamped, and T_j.

        G_j is member j's whitened block from the stacked SVD.  T_j is G_j
        for a pure member, otherwise the left singular vectors whose squared
        singular values are within 1e-9 relative of C_j, so a degenerate top
        space is never split by roundoff.  Made on first use and kept beside
        support; the bipartite route never reads it.
        """
        if self._tops[j] is None:
            g = self._stacked_svd[1][j]
            if g.shape[1] == 1:
                self._tops[j] = (float(np.vdot(g, g).real), _readonly(g))
            else:
                u, sv, _ = np.linalg.svd(g, full_matrices=False)
                top = sv * sv
                self._tops[j] = (float(top[0]), _readonly(u[:, top >= top[0] * (1.0 - _DEGENERACY_TOL)]))
        return self._tops[j]


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure two-party state given by its amplitude matrix.

    amplitudes[a, i] is the coefficient of |a>_L |i>_R, so its shape gives
    both dimensions.  index_sets partitions the right-side labels into one
    tuple per ensemble member.
    """

    amplitudes: np.ndarray
    index_sets: tuple

    def __post_init__(self):
        amps = as_matrix(_require_finite(np.array(self.amplitudes, dtype=np.complex128), "amplitude matrix"))
        n = np.linalg.norm(amps)
        if abs(n - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {float(n)!r} deviates from 1 beyond {_NORM_TOL}")
        sets = tuple(tuple(int(i) for i in s) for s in self.index_sets)
        seen = [i for s in sets for i in s]
        if sorted(seen) != list(range(amps.shape[1])):
            raise ValueError("index sets must partition the right-side labels")
        object.__setattr__(self, "amplitudes", _readonly(amps))
        object.__setattr__(self, "index_sets", sets)

    def left_marginal(self) -> np.ndarray:
        return hermitize(self.amplitudes @ self.amplitudes.conj().T)

    def right_marginal(self) -> np.ndarray:
        return hermitize(self.amplitudes.T @ self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt form of a bipartite pure state.

    coefficients are the squared singular values of the amplitude matrix,
    descending, summing to 1 for a normalized state; column m of
    left_vectors / right_vectors carries the m-th Schmidt pair, so
    sum_m sqrt(coefficients[m]) left[:, m] right[:, m]^T rebuilds the
    amplitude matrix.
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        lam = _require_finite(np.array(self.coefficients, dtype=np.float64), "Schmidt spectrum")
        if np.any(lam <= 0.0):
            raise ValueError("Schmidt coefficients must be positive")
        if abs(lam.sum() - 1.0) > 1e-10:
            raise ValueError(f"Schmidt coefficients sum to {float(lam.sum())!r}")
        object.__setattr__(self, "coefficients", _readonly(lam))
        for name in ("left", "right"):
            block = _require_finite(as_matrix(getattr(self, f"{name}_vectors")), f"{name} Schmidt basis")
            if frobenius(block.conj().T @ block - np.eye(lam.size)) > 1e-10:
                raise ValueError(f"{name} Schmidt vectors are not orthonormal")
            object.__setattr__(self, f"{name}_vectors", block)

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * np.sqrt(self.coefficients)) @ self.right_vectors.T


def purify(ens: Ensemble) -> BipartiteState:
    """Canonical purification of an ensemble, from the member factors.

    Each member contributes one contiguous block of right-side labels, in
    ensemble order: a pure member the column sqrt(p_j) F_j, phase fixed
    (largest-magnitude entry real positive), a mixed member the columns U S
    of kept_svd(sqrt(p_j) F_j), one per kept eigenvalue of p_j rho_j.  Raw
    factors would make verify repeat the measurement route's products.
    """
    blocks = []
    index_sets = []
    cursor = 0
    for j, p in enumerate(ens.priors):
        f = np.sqrt(p) * ens.factor(j)
        if f.shape[1] > 1:
            u, s, _ = kept_svd(f)
            f = u * s
        else:
            f = fix_phase(f[:, 0])[:, None]
        blocks.append(f)
        index_sets.append(tuple(range(cursor, cursor + f.shape[1])))
        cursor += f.shape[1]
    amps = np.hstack(blocks)
    amps = amps / np.linalg.norm(amps)
    return BipartiteState(amps, tuple(index_sets))


def schmidt(bs: BipartiteState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the amplitude matrix.

    Only the kept squared singular values (linalg.kept) are Schmidt
    coefficients, so the rank is the support rank of the left marginal.
    """
    u, s, vh = kept_svd(bs.amplitudes)
    return SchmidtDecomposition(s * s, u, vh.T)


def allowed_subspace(bs: BipartiteState) -> np.ndarray:
    """Orthonormal basis B, read-only R x D, of the right-side subspace
    reachable by left measurements.

    The span of the right Schmidt vectors, the column space of A^T, found
    apart from the Schmidt SVD: B = Q U_kept, from a Householder QR
    A^T = Q R and kept_svd(R), whose singular values are A's, so D is the
    Schmidt rank and B B^dagger the projector onto the subspace.
    Conditional right states of any outcome live inside it; that
    containment is what stops the left party from signalling.
    """
    q, r = np.linalg.qr(bs.amplitudes.T)
    u, _, _ = kept_svd(r)
    return _readonly(q @ u)
