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

An Ensemble holds one validated, read-only copy of each member: a copy of
the caller's array, or the array itself when a reader that built it for
the ensemble hands it over.  It decomposes lazily and once: support is
the average state's factorization, and top(j) member j's bound with its
top eigenspace, made when member j is first asked for.  The measurement
route reads both; the bipartite route computes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    Support,
    _readonly,
    as_matrix,
    fix_phase,
    frobenius,
    hermitian_eigen,
    hermitian_in_place,
    hermitize,
    kept,
    real_trace,
    require_hermitian,
    support,
    within_psd_slack,
)

_TRACE_TOL = 1e-10
_PRIOR_SUM_TOL = 1e-12
_NORM_TOL = 1e-12
_MARGINAL_CONSISTENCY_TOL = 1e-8
# Eigenvalues within this relative distance of the top one share its eigenspace.
_DEGENERACY_TOL = 1e-9


class StateError(ValueError):
    """One ensemble member failed validation.

    index is the member's position and problem the message without the
    member's name, so that a reader of input files can name the member by
    its own field path.
    """

    def __init__(self, index: int, problem: str):
        super().__init__(f"state {index} {problem}")
        self.index = index
        self.problem = problem


@dataclass(frozen=True, eq=False)
class Ensemble:
    """States rho_i with priors p_i on a d-dimensional system, validated on construction.

    The constructor validates and keeps a copy of each state, so the
    caller's arrays stay as they were.  Code that has just built the
    states for the ensemble (read_spec, apply_kraus, from_pure) hands them over with
    _adopt instead: the same checks run on them in place, so each state is
    held once.  Either way the stored states are Hermitian and read-only.
    """

    dim: int
    states: tuple
    priors: np.ndarray
    state_ranks: tuple = field(init=False)  # kept eigenvalues of the PSD check

    def __post_init__(self):
        self._settle(np.array(rho, dtype=np.complex128) for rho in self.states)

    @classmethod
    def _adopt(cls, dim: int, states: tuple, priors) -> "Ensemble":
        """The ensemble of complex arrays the caller built for it and keeps
        no reference to: the constructor's checks run on them, not on copies."""
        ens = object.__new__(cls)
        for name, value in (("dim", dim), ("states", states), ("priors", priors)):
            object.__setattr__(ens, name, value)
        ens._settle(states)
        return ens

    def _settle(self, owned):
        """Validate the priors and the arrays of owned, one state per array
        in order, symmetrizing each in place; store them read-only."""
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
        checked = []
        ranks = []
        for k, h in enumerate(owned):
            h = as_matrix(h)
            if h.shape != (self.dim, self.dim):
                raise StateError(k, f"has shape {h.shape}, expected ({self.dim}, {self.dim})")
            if not np.all(np.isfinite(h)):
                raise StateError(k, "has a non-finite entry")
            try:
                h = hermitian_in_place(h)
            except ValueError:
                raise StateError(k, f"is not Hermitian within relative tolerance {HERMITICITY_TOL}") from None
            vals = np.linalg.eigvalsh(h)
            if not within_psd_slack(vals[0], real_trace(h)):
                raise StateError(
                    k, f"is not positive semidefinite (most negative eigenvalue {float(vals[0])!r})"
                )
            if abs(real_trace(h) - 1.0) > _TRACE_TOL:
                raise StateError(k, f"has trace {real_trace(h)!r}, expected 1")
            checked.append(_readonly(h))
            ranks.append(int(np.count_nonzero(kept(vals))))
        priors.setflags(write=False)
        object.__setattr__(self, "states", tuple(checked))
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "state_ranks", tuple(ranks))

    @classmethod
    def from_pure(cls, kets, priors) -> "Ensemble":
        kets = [np.asarray(k, dtype=np.complex128).reshape(-1) for k in kets]
        if not kets:
            raise ValueError("ensemble needs at least one state")
        dim = kets[0].size
        states = []
        for k in kets:
            if k.size != dim:
                raise ValueError("kets must share one dimension")
            n = np.linalg.norm(k)
            if n == 0.0:
                raise ValueError("zero ket")
            k = k / n
            states.append(np.outer(k, k.conj()))
        return cls._adopt(dim, tuple(states), np.asarray(priors, dtype=np.float64))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def average(self) -> np.ndarray:
        """The mixture sum_i p_i rho_i actually handed to the measurement."""
        return _readonly(sum(p * rho for p, rho in zip(self.priors, self.states)))

    @cached_property
    def support(self) -> Support:
        """Support of the average; the bipartite route never reads it."""
        return support(self.average)

    @cached_property
    def _tops(self) -> list:
        return [None] * self.n_states

    def top(self, j: int) -> tuple:
        """Member j's maximum-confidence bound C_j, unclamped, with the
        eigenvectors of the whole top eigenspace of
        p_j rho^{-1/2} rho_j rho^{-1/2} for a mixed member (None for a pure
        one, whose bound p_j Tr(rho_j rho^{-1}) needs no decomposition).

        Eigenvalues within 1e-9 relative of the maximum all enter, so
        degenerate directions are never split by roundoff.  Decomposed on
        first use and kept beside support; the bipartite route never reads it.
        """
        if self._tops[j] is None:
            p, rho = self.priors[j], self.states[j]
            if self.is_pure(j):
                self._tops[j] = (float(p * real_trace(rho @ self.support.inv)), None)
            else:
                s = self.support.inv_sqrt
                vals, vecs = hermitian_eigen(hermitize(p * (s @ rho @ s)))
                keep = vals >= vals[0] * (1.0 - _DEGENERACY_TOL)
                self._tops[j] = (float(vals[0]), _readonly(vecs[:, keep]))
        return self._tops[j]

    def is_pure(self, j: int) -> bool:
        return self.state_ranks[j] == 1


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Pure two-party state given by its amplitude matrix.

    amplitudes[a, i] is the coefficient of |a>_L |i>_R.  index_sets
    partitions the right-side labels into one tuple per ensemble member.
    """

    dim_left: int
    dim_right: int
    amplitudes: np.ndarray
    index_sets: tuple

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dim_left, self.dim_right):
            raise ValueError(f"amplitude matrix shape {amps.shape}, expected ({self.dim_left}, {self.dim_right})")
        n = np.linalg.norm(amps)
        if abs(n - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {float(n)!r} deviates from 1 beyond {_NORM_TOL}")
        sets = tuple(tuple(int(i) for i in s) for s in self.index_sets)
        seen = [i for s in sets for i in s]
        if sorted(seen) != list(range(self.dim_right)):
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
        lam = np.asarray(self.coefficients, dtype=np.float64)
        if np.any(lam <= 0.0):
            raise ValueError("Schmidt coefficients must be positive")
        if abs(lam.sum() - 1.0) > 1e-10:
            raise ValueError(f"Schmidt coefficients sum to {float(lam.sum())!r}")
        for name, block in (("left", self.left_vectors), ("right", self.right_vectors)):
            g = block.conj().T @ block
            if frobenius(g - np.eye(lam.size)) > 1e-10:
                raise ValueError(f"{name} Schmidt vectors are not orthonormal")

    @property
    def rank(self) -> int:
        return int(self.coefficients.size)

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * np.sqrt(self.coefficients)) @ self.right_vectors.T


@dataclass(frozen=True, eq=False)
class SubspaceProjector:
    """Orthogonal projector onto the reachable right-side subspace."""

    dim: int
    matrix: np.ndarray
    rank: int

    def __post_init__(self):
        m = require_hermitian(self.matrix, name="projector")
        if m.shape != (self.dim, self.dim):
            raise ValueError("projector dimension mismatch")
        if frobenius(m @ m - m) > 1e-10:
            raise ValueError("projector is not idempotent within 1e-10")
        if abs(real_trace(m) - self.rank) > 1e-9:
            raise ValueError(f"projector trace {real_trace(m)!r} does not match rank {self.rank}")
        object.__setattr__(self, "matrix", _readonly(m))

    def complement(self) -> np.ndarray:
        return np.eye(self.dim) - self.matrix


def purify(ens: Ensemble) -> BipartiteState:
    """Canonical purification of an ensemble.

    Each member contributes one contiguous block of right-side labels, in
    ensemble order: a pure rho_j = |psi_j><psi_j| contributes the single
    column sqrt(p_j) |psi_j>, a mixed rho_j one column sqrt(beta_i) |beta_i>
    per kept eigenvalue of p_j rho_j (descending).  Eigenvector phases
    are fixed (largest-magnitude entry real positive) so the construction
    is reproducible.
    """
    columns = []
    index_sets = []
    cursor = 0
    for p, rho in zip(ens.priors, ens.states):
        supp = support(p * rho)
        block = []
        for beta, v in zip(supp.eigenvalues, supp.eigenvectors.T):
            block.append(np.sqrt(beta) * fix_phase(v))
        columns.extend(block)
        index_sets.append(tuple(range(cursor, cursor + len(block))))
        cursor += len(block)
    amps = np.column_stack(columns)
    amps = amps / np.linalg.norm(amps)
    return BipartiteState(ens.dim, cursor, amps, tuple(index_sets))


def schmidt(bs: BipartiteState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the amplitude matrix.

    Only the kept squared singular values (linalg.kept) are Schmidt
    coefficients, so the rank is the support rank of the left marginal.
    """
    u, s, vh = np.linalg.svd(bs.amplitudes, full_matrices=False)
    lam = s * s
    keep = kept(lam)
    return SchmidtDecomposition(lam[keep], u[:, keep], vh[keep, :].T)


def allowed_subspace(bs: BipartiteState, rho_l: np.ndarray) -> SubspaceProjector:
    """Projector onto the right-side subspace reachable by left measurements.

    Computed as the left partial trace of
    (rho_L^{-1/2} tensor I) |Psi><Psi| (rho_L^{-1/2} tensor I),
    which equals the sum of projectors onto the right Schmidt vectors.
    Conditional right states of any outcome live inside this subspace;
    that containment is what stops the left party from signalling.
    """
    rho_l = require_hermitian(rho_l, name="left marginal")
    if frobenius(bs.left_marginal() - rho_l) > _MARGINAL_CONSISTENCY_TOL:
        raise ValueError("left marginal inconsistent with the bipartite state")
    supp = support(rho_l)
    phi = supp.inv_sqrt @ bs.amplitudes
    proj = hermitize(phi.T @ phi.conj())
    return SubspaceProjector(bs.dim_right, proj, supp.rank)
