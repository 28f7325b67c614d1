"""Local filtering of ensembles and entanglement concentration.

A single operation element A maps the ensemble member rho_i to
A rho_i A^dagger / Tr(rho_i A^dagger A) with the priors reweighted by the
per-state success probabilities.  Local filtering can never raise any
maximum confidence, and leaves every one unchanged when A is invertible
on the support of the average state.  concentrate flattens the Schmidt
spectrum of a bipartite state with the filter A = sqrt(lambda_min) rho^{-1/2}
on its left marginal rho, at success probability lambda_min * D.
Ranks follow linalg.kept: an element's rank is the support rank of A^dagger A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import BipartiteState, Ensemble, SchmidtDecomposition, schmidt
from .linalg import _require_finite, as_matrix, hermitize, kept, kept_svd
from .measurement import max_confidence

_WEIGHT_TOL = 1e-10
_ANNIHILATION_FLOOR = 1e-14
_EQUALITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class KrausOperator:
    """Operation element with its numerical rank (kept squared singular values)."""

    matrix: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError("operation element must be square")
        if m.size == 0:
            raise ValueError("operation element is empty")
        s = np.linalg.svd(_require_finite(m, "operation element"), compute_uv=False)
        if s[0] == 0.0:
            raise ValueError("zero operation element")
        m = np.array(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", int(np.count_nonzero(kept(s * s))))


def apply_kraus(ens: Ensemble, kraus: KrausOperator) -> tuple[Ensemble, float]:
    """Transformed ensemble plus the overall success probability.

    Member i's factor is A F_i / sqrt(t_i), t_i = ||A F_i||^2, reduced to its
    kept directions by a thin SVD when it has several columns.  Raises when
    the element overweights the ensemble (Tr(rho A^dagger A) > 1 beyond
    slack) or annihilates a member.
    """
    a = kraus.matrix
    if a.shape != (ens.dim, ens.dim):
        raise ValueError("operation element dimension mismatch")
    images = [a @ ens.factor(i) for i in range(ens.n_states)]
    t = np.array([np.vdot(af, af).real for af in images])  # Tr(rho_i A^dagger A)
    weights = ens.priors * t
    success = float(weights.sum())
    if success > 1.0 + _WEIGHT_TOL:
        raise ValueError(f"operation element overweights the ensemble: Tr(rho A^+A) = {success!r}")
    factors = []
    for i, (af, t_i) in enumerate(zip(images, t)):
        if t_i <= _ANNIHILATION_FLOOR:
            raise ValueError(f"operation element annihilates state {i}")
        if af.shape[1] > 1:
            u, sv, _ = kept_svd(af)
            af = u * sv
        factors.append(af / np.sqrt(t_i))
    return Ensemble._of(ens.dim, tuple(factors), weights / success), success


@dataclass(frozen=True, eq=False)
class MonotonicityRecord:
    """Before/after confidences of one member under a filter."""

    label: int
    confidence_before: float
    confidence_after: float
    full_rank_on_support: bool
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict != "violated"


def monotonicity_check(ens: Ensemble, transformed: Ensemble, tol: float = _EQUALITY_TOL) -> tuple:
    """Confirm filtering cannot raise any member's confidence; one record per member.

    transformed is apply_kraus(ens, kraus)[0]; the element is full rank on
    the support of rho when the transformed average keeps its support rank.
    Verdicts: "invariant" when before and after agree within tol, "decreased"
    when the confidence genuinely dropped, "violated" when the after value
    exceeds the before value beyond tol, or when a full-rank element moved it.
    """
    full = transformed.support.rank == ens.support.rank
    records = []
    for j in range(ens.n_states):
        before = max_confidence(ens, j)
        after = max_confidence(transformed, j)
        if after > before + tol:
            verdict = "violated"
        elif abs(after - before) <= tol:
            verdict = "invariant"
        elif full:
            verdict = "violated"
        else:
            verdict = "decreased"
        records.append(MonotonicityRecord(j, float(before), float(after), full, verdict))
    return tuple(records)


@dataclass(frozen=True, eq=False)
class ConcentrationResult:
    """Outcome of Schmidt-spectrum flattening on a bipartite state."""

    kraus: KrausOperator
    success_probability: float
    fail_effect: np.ndarray
    post_state: BipartiteState
    before: SchmidtDecomposition


def concentrate(bs: BipartiteState) -> ConcentrationResult:
    """Flatten the Schmidt spectrum by filtering the left system with
    A = sqrt(lambda_min) rho^{-1/2}, rho the left marginal: A^dagger A plus
    the fail effect resolves the identity, and the fail effect has one zero
    direction per multiplicity of lambda_min.  On success (probability
    lambda_min * D) the state becomes maximally entangled across its
    original Schmidt rank D.  The amplitude matrix is the left marginal's
    factor, so its Schmidt decomposition (schmidt, one SVD) gives the
    support (lambda, U) and the post-state U V^T / sqrt(D), exactly flat;
    the result keeps it as `before`.  Product states cannot be concentrated.
    """
    sch = schmidt(bs)
    if sch.rank < 2:
        raise ValueError("cannot concentrate: Schmidt rank 1 (product state)")
    lam, v = sch.coefficients, sch.left_vectors
    lam_min = float(lam[-1])  # at most 1 / D, so lambda_min * D is a probability up to roundoff
    a = KrausOperator(np.sqrt(lam_min) * ((v / np.sqrt(lam)) @ v.conj().T))
    fail = hermitize(np.eye(v.shape[0]) - lam_min * ((v / lam) @ v.conj().T))
    post = BipartiteState(v @ sch.right_vectors.T / np.sqrt(sch.rank), bs.index_sets)
    return ConcentrationResult(a, min(lam_min * lam.size, 1.0), fail, post, sch)
