"""Local filtering of ensembles and entanglement concentration.

A single operation element A maps the ensemble member rho_i to
A rho_i A^dagger / Tr(rho_i A^dagger A) with the priors reweighted by the
per-state success probabilities.  Local filtering can never raise any
maximum confidence, and leaves every one unchanged when A is invertible
on the support of the average state.  The canonical example is the
two-step filter A = sqrt(lambda_min) rho^{-1/2}, which flattens the
average state (and, on the purification, the Schmidt spectrum) at success
probability lambda_min * D; two_step_filter and concentrate share it.
Ranks follow linalg.kept: an element's rank is the support rank of A^dagger A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import BipartiteState, Ensemble
from .linalg import Support, as_matrix, hermitize, kept, real_trace, support
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
        if not np.all(np.isfinite(m)):
            raise ValueError("operation element has a non-finite entry")
        s = np.linalg.svd(m, compute_uv=False)
        if s[0] == 0.0:
            raise ValueError("zero operation element")
        m = np.array(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", int(np.count_nonzero(kept(s * s))))


def apply_kraus(ens: Ensemble, kraus: KrausOperator) -> tuple[Ensemble, float]:
    """Transformed ensemble plus the overall success probability.

    The transformed members are this function's own arrays, so the
    ensemble adopts them (Ensemble._adopt) rather than copying each.
    Raises when the element overweights the ensemble
    (Tr(rho A^dagger A) > 1 beyond slack) or annihilates a member.
    """
    a = kraus.matrix
    if a.shape != (ens.dim, ens.dim):
        raise ValueError("operation element dimension mismatch")
    gram = a.conj().T @ a
    weight = real_trace(ens.average @ gram)
    if weight > 1.0 + _WEIGHT_TOL:
        raise ValueError(f"operation element overweights the ensemble: Tr(rho A^+A) = {weight!r}")
    new_states = []
    new_weights = []
    for i, rho_i in enumerate(ens.states):
        t_i = real_trace(rho_i @ gram)
        if t_i <= _ANNIHILATION_FLOOR:
            raise ValueError(f"operation element annihilates state {i}")
        new_states.append(hermitize(a @ rho_i @ a.conj().T) / t_i)
        new_weights.append(ens.priors[i] * t_i)
    success = float(sum(new_weights))
    priors = np.asarray(new_weights) / success
    return Ensemble._adopt(ens.dim, tuple(new_states), priors), success


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


def _flattening(supp: Support) -> tuple[KrausOperator, float, np.ndarray]:
    """sqrt(lambda_min) rho^{-1/2}, its success probability lambda_min * D, the fail effect."""
    lam_min = float(supp.eigenvalues[-1])
    a = KrausOperator(np.sqrt(lam_min) * supp.inv_sqrt)
    fail = hermitize(np.eye(supp.eigenvectors.shape[0]) - lam_min * supp.inv)
    return a, lam_min * supp.rank, fail


@dataclass(frozen=True, eq=False)
class TwoStepFilter:
    """Flattening filter: element, success probability, fail effect, result."""

    kraus: KrausOperator
    success_probability: float
    fail_effect: np.ndarray
    ensemble: Ensemble


def two_step_filter(ens: Ensemble) -> TwoStepFilter:
    """Filter whose success branch flattens the average state.

    A = sqrt(p_succ / D) rho^{-1/2} with p_succ = lambda_min * D, where
    lambda_min is the smallest retained eigenvalue of rho and D its rank.
    A^dagger A plus the fail effect resolves the identity, the fail effect
    has one zero direction per lambda_min multiplicity, and the transformed
    average is the maximally mixed state on the support.
    """
    a, p_succ, fail = _flattening(ens.support)
    transformed, _ = apply_kraus(ens, a)
    return TwoStepFilter(a, p_succ, fail, transformed)


@dataclass(frozen=True, eq=False)
class ConcentrationResult:
    """Outcome of Schmidt-spectrum flattening on a bipartite state."""

    kraus: KrausOperator
    success_probability: float
    fail_effect: np.ndarray
    post_state: BipartiteState


def concentrate(bs: BipartiteState) -> ConcentrationResult:
    """Flatten the Schmidt spectrum by filtering the left system.

    On success (probability lambda_min * D) the state becomes maximally
    entangled across its original Schmidt rank D.  Product states cannot
    be concentrated.
    """
    supp = support(bs.left_marginal())
    if supp.rank < 2:
        raise ValueError("cannot concentrate: Schmidt rank 1 (product state)")
    a, p_succ, fail = _flattening(supp)
    amps = a.matrix @ bs.amplitudes
    amps = amps / np.linalg.norm(amps)
    post = BipartiteState(amps, bs.index_sets)
    return ConcentrationResult(a, p_succ, fail, post)


@dataclass(frozen=True, eq=False)
class ResolutionCheck:
    """Whether projectors onto pure states admit an exact identity resolution."""

    weights: np.ndarray
    residual: float
    exact: bool


def projective_resolution(ens: Ensemble, tol: float = 1e-9) -> ResolutionCheck:
    """Test whether weighted projectors onto the members resolve the support.

    Solves sum_j w_j |psi_j><psi_j| = P_supp by least squares over real
    weights and reports the residual; `exact` requires both a vanishing
    residual and nonnegative weights.  Decisive whenever the projectors are
    linearly independent (the generic case); all members must be pure.
    Used after two_step_filter to tell an exact projective second step
    apart from one needing its own inconclusive remainder.
    """
    if not all(ens.is_pure(j) for j in range(ens.n_states)):
        raise ValueError("projective resolution is defined for pure-state ensembles")
    target = ens.support.projector
    cols = []
    for rho_j in ens.states:
        cols.append(np.concatenate([rho_j.real.reshape(-1), rho_j.imag.reshape(-1)]))
    a = np.column_stack(cols)
    b = np.concatenate([target.real.reshape(-1), target.imag.reshape(-1)])
    w, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ w - b))
    exact = residual <= tol and bool(np.all(w >= -tol))
    return ResolutionCheck(w, residual, exact)
