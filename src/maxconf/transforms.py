"""Local filtering of ensembles and entanglement concentration.

A single operation element A maps the ensemble member rho_i to
A P rho_i P A^dagger / Tr(P rho_i P A^dagger A), with P the projector onto
the average's kept support, and reweights the priors by those per-state
success probabilities; a member that lies wholly in the directions the
rank rule dropped (P rho_i P = 0) is mapped to A rho_i A^dagger instead.
Local filtering can never raise any maximum confidence, and leaves every
one unchanged when A is invertible on the support of the average state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import BipartiteState, Ensemble, SchmidtDecomposition, schmidt
from .linalg import DEFAULT_TOLERANCE, _require_finite, _symmetrized, as_matrix, kept, kept_svd
from .measurement import _UNIT_SLACK, max_confidence

_ANNIHILATION_FLOOR = 1e-14


def _weight(image: np.ndarray) -> float:
    """||A F||^2, the trace of the image's state."""
    return np.vdot(image, image).real


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

    Member i's factor is A U U^dagger F_i / sqrt(t_i), t_i = ||A U U^dagger F_i||^2,
    with U = ens.support.eigenvectors, so the element never acts on directions
    the rank rule dropped; a member whose image on U is annihilated keeps its
    whole image A F_i.  A thin SVD reduces the factor to its kept directions when it
    has several columns.  The priors are normalized by sum_i p_i t_i, which
    differs from Tr(rho A^dagger A) only by the dropped eigenvalues, and the
    success probability is that sum clamped at 1.  Raises when the element
    overweights the ensemble (the sum exceeds 1 beyond slack) or annihilates
    a member (A F_i = 0, whatever its part on U).
    """
    a = kraus.matrix
    if a.shape != (ens.dim, ens.dim):
        raise ValueError("operation element dimension mismatch")
    basis = ens.support.eigenvectors
    a_basis, basis_h = a @ basis, basis.conj().T
    wholes = [a @ ens.factor(i) for i in range(ens.n_states)]
    images = [a_basis @ (basis_h @ ens.factor(i)) for i in range(ens.n_states)]
    images = [af if _weight(af) > _ANNIHILATION_FLOOR else whole for af, whole in zip(images, wholes)]
    t = np.array([_weight(af) for af in images])  # Tr(P rho_i P A^dagger A), P = U U^dagger
    weights = ens.priors * t
    success = float(weights.sum())
    if success > 1.0 + _UNIT_SLACK:
        raise ValueError(f"operation element overweights the ensemble: Tr(rho A^+A) = {success!r}")
    factors = []
    for i, (whole, af, t_i) in enumerate(zip(wholes, images, t)):
        if _weight(whole) <= _ANNIHILATION_FLOOR:
            raise ValueError(f"operation element annihilates state {i}")
        if af.shape[1] > 1:
            u, sv, _ = kept_svd(af)
            af = u * sv
        factors.append(af / np.sqrt(t_i))
    return Ensemble._of(ens.dim, tuple(factors), weights / success), min(success, 1.0)


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


def monotonicity_check(ens: Ensemble, transformed: Ensemble, tol: float = DEFAULT_TOLERANCE) -> tuple:
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
    """Flatten the Schmidt spectrum with the filter README's Library gives:
    A^dagger A plus the fail effect resolves the identity, and the fail
    effect has one zero direction per multiplicity of lambda_min.  The
    amplitude matrix is the left marginal's factor, so its Schmidt
    decomposition (schmidt, one SVD) gives the support (lambda, U) and the
    post-state U V^T / sqrt(D), exactly flat.  Product states cannot be
    concentrated.
    """
    sch = schmidt(bs)
    if sch.rank < 2:
        raise ValueError("cannot concentrate: Schmidt rank 1 (product state)")
    lam, v = sch.coefficients, sch.left_vectors
    lam_min = float(lam[-1])  # at most 1 / D, so lambda_min * D is a probability up to roundoff
    a = KrausOperator(np.sqrt(lam_min) * ((v / np.sqrt(lam)) @ v.conj().T))
    # I - lambda_min rho^{-1} in one array: 0 - x, then + 1 on the diagonal, rounds as I - x
    # does and keeps its signs of zero
    fail = (v / lam) @ v.conj().T
    fail *= lam_min
    np.subtract(0.0, fail, out=fail)
    fail.flat[:: len(fail) + 1] += 1.0
    fail = _symmetrized(fail)
    post = BipartiteState(v @ sch.right_vectors.T / np.sqrt(sch.rank), bs.index_sets)
    return ConcentrationResult(a, min(lam_min * lam.size, 1.0), fail, post, sch)
