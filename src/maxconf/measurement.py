"""Maximum-confidence measurements.

The confidence of outcome omega_j is the posterior probability that the
prepared state really was rho_j:

    P(rho_j | omega_j) = p_j Tr(rho_j Pi_j) / Tr(rho Pi_j),

with rho = sum_i p_i rho_i.  Over all effects this is bounded by

    C_j = p_j Tr(rho_j rho^{-1})                      (rho_j pure)
    C_j = gamma_max(p_j rho^{-1/2} rho_j rho^{-1/2})  (rho_j mixed)

with inverses restricted to the support of rho, and the bound is attained
by Pi_j proportional to rho^{-1} p_j rho_j rho^{-1} (pure) or
rho^{-1/2} P_max rho^{-1/2} with P_max the projector onto the full top
eigenspace (mixed).  Scaling an effect changes outcome probabilities but
never its confidence, so one overall scale completes the collection into
a measurement with an inconclusive remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .linalg import (
    frobenius,
    hermitian_eigen,
    hermitize,
    real_trace,
    require_hermitian,
    within_psd_slack,
)

_COMPLETENESS_TOL = 1e-9
_DEGENERACY_TOL = 1e-9
_OUTCOME_PROB_FLOOR = 1e-14
# Roundoff tolerated outside [0, 1] on a confidence before it is an error.
_UNIT_SLACK = 1e-10
# Trials sampled per block, so memory stays flat in the number of trials.
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class POM:
    """Probability operator measurement: labelled effects plus optional fail.

    effects is a tuple of (label, matrix) pairs.  Each effect must be PSD
    (within the slack at scale 1) and the effects must sum to at most the
    identity; when fail is present they must resolve it within 1e-9.
    """

    effects: tuple
    fail: np.ndarray | None = None

    def __post_init__(self):
        if len(self.effects) == 0 and self.fail is None:
            raise ValueError("a measurement needs at least one effect")
        if len(self.effects) > 0:
            dim = np.asarray(self.effects[0][1]).shape[0]
        else:
            dim = np.asarray(self.fail).shape[0]
        checked = []
        total = np.zeros((dim, dim), dtype=np.complex128)
        for label, e in self.effects:
            h = require_hermitian(e, name=f"effect {label}")
            if h.shape != (dim, dim):
                raise ValueError("effects must share one dimension")
            if not within_psd_slack(np.linalg.eigvalsh(h)[0], 1.0):
                raise ValueError(f"effect {label} is not positive semidefinite")
            h.setflags(write=False)
            checked.append((int(label), h))
            total += h
        fail = self.fail
        if fail is not None:
            fail = require_hermitian(fail, name="fail effect")
            if not within_psd_slack(np.linalg.eigvalsh(fail)[0], 1.0):
                raise ValueError("fail effect is not positive semidefinite")
            if frobenius(total + fail - np.eye(dim)) > _COMPLETENESS_TOL:
                raise ValueError("effects plus fail do not resolve the identity")
            fail.setflags(write=False)
        elif np.linalg.eigvalsh(total)[-1] > 1.0 + _COMPLETENESS_TOL:
            raise ValueError("effects exceed the identity")
        object.__setattr__(self, "effects", tuple(checked))
        object.__setattr__(self, "fail", fail)

    @property
    def dim(self) -> int:
        if self.effects:
            return self.effects[0][1].shape[0]
        return self.fail.shape[0]

    @property
    def complete(self) -> bool:
        return self.fail is not None

    def all_effects(self) -> list:
        """(label, matrix) pairs with the fail effect appended last as label None."""
        out = list(self.effects)
        if self.fail is not None:
            out.append((None, self.fail))
        return out


def _unit_interval(value: float, name: str) -> float:
    """Clamp roundoff just outside [0, 1]; beyond the slack it is an error."""
    if not -_UNIT_SLACK <= value <= 1.0 + _UNIT_SLACK:
        raise ValueError(f"{name} out of range: {value!r}")
    return min(max(value, 0.0), 1.0)


def confidence_of(ens: Ensemble, effect: np.ndarray, j: int) -> float:
    """Posterior probability of state j given the outcome tied to `effect`.

    Invariant under rescaling of the effect.  Raises when the outcome
    probability Tr(rho effect) is too small for the conditional to exist.
    """
    e = require_hermitian(effect, name="effect")
    denom = real_trace(ens.average @ e)
    if denom <= _OUTCOME_PROB_FLOOR:
        raise ValueError(f"outcome probability {denom!r} too small: conditional undefined")
    numer = ens.priors[j] * real_trace(ens.states[j] @ e)
    return _unit_interval(float(numer / denom), f"confidence for state {j}")


def max_confidence(ens: Ensemble, j: int) -> float:
    """Largest achievable confidence for ensemble member j."""
    if ens.is_pure(j):
        value = float(ens.priors[j] * real_trace(ens.states[j] @ ens.support.inv))
    else:
        s = ens.support.inv_sqrt
        x = hermitize(ens.priors[j] * (s @ ens.states[j] @ s))
        value = float(np.linalg.eigvalsh(x)[-1])
    return _unit_interval(value, f"bound for state {j}")


def optimal_effect(ens: Ensemble, j: int) -> np.ndarray:
    """Unnormalized effect attaining max_confidence(ens, j).

    For a mixed member the top eigenspace is taken whole: eigenvalues within
    1e-9 relative of the maximum all enter, so degenerate directions are
    never split by roundoff.
    """
    if ens.is_pure(j):
        rinv = ens.support.inv
        return hermitize(rinv @ (ens.priors[j] * ens.states[j]) @ rinv)
    s = ens.support.inv_sqrt
    x = hermitize(ens.priors[j] * (s @ ens.states[j] @ s))
    eig = hermitian_eigen(x)
    top = eig.eigenvalues[0]
    keep = eig.eigenvalues >= top * (1.0 - _DEGENERACY_TOL)
    v = eig.eigenvectors[:, keep]
    p_max = v @ v.conj().T
    return hermitize(s @ p_max @ s)


def complete_pom(ens: Ensemble) -> POM:
    """Scale the optimal effects into a single measurement.

    All effects share the largest scale t keeping I - t sum_j D_j positive
    semidefinite on the support of rho (t = 1 / gamma_max of the sum); the
    remainder, including the orthocomplement of the support, becomes the
    fail effect.  Every conclusive outcome then still attains its
    maximum-confidence bound.
    """
    dirs = [optimal_effect(ens, j) for j in range(ens.n_states)]
    total = hermitize(sum(dirs))
    gamma = float(np.linalg.eigvalsh(total)[-1])
    t = 1.0 / gamma
    for d in dirs:
        d *= t  # in place: each direction is this function's own array
    fail = hermitize(np.eye(ens.dim) - t * total)
    return POM(tuple(enumerate(dirs)), fail)


@dataclass(frozen=True, eq=False)
class ConfidenceReport:
    """Per-state bound / achieved-confidence / outcome-probability summary."""

    records: tuple  # (label, bound, achieved, outcome_probability)
    inconclusive_probability: float

    def __post_init__(self):
        total = self.inconclusive_probability
        for label, bound, achieved, prob in self.records:
            for name, value in (("bound", bound), ("confidence", achieved), ("probability", prob)):
                if not -1e-10 <= value <= 1.0 + 1e-10:
                    raise ValueError(f"{name} for state {label} out of range: {value!r}")
            total += prob
        if not -1e-10 <= self.inconclusive_probability <= 1.0 + 1e-10:
            raise ValueError("inconclusive probability out of range")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"outcome probabilities sum to {total!r}")


def confidence_report(ens: Ensemble, pom: POM) -> ConfidenceReport:
    if not pom.complete:
        raise ValueError("report requires a complete measurement")
    rho = ens.average
    records = []
    for label, e in pom.effects:
        records.append(
            (
                label,
                max_confidence(ens, label),
                confidence_of(ens, e, label),
                real_trace(rho @ e),
            )
        )
    return ConfidenceReport(tuple(records), real_trace(rho @ pom.fail))


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Empirical outcome statistics of a finite-shot measurement run.

    outcome_counts follows the effect order of the measurement with the
    fail outcome last.  conditional_frequencies[k] is the fraction of
    outcome-k shots whose prepared label matched the outcome label, or
    None when the outcome never fired (and for the fail outcome).
    """

    trials: int
    seed: int
    labels: tuple
    outcome_counts: tuple
    correct_counts: tuple
    conditional_frequencies: tuple

    @property
    def fail_count(self) -> int:
        return self.outcome_counts[-1]

    @property
    def fail_frequency(self) -> float:
        return self.fail_count / self.trials


def simulate_measurement(ens: Ensemble, pom: POM, trials: int, seed: int) -> SimulationResult:
    """Sample prepared labels and outcomes, counting correct identifications.

    Sampling is inverse-CDF over cumulative probabilities: first the
    prepared label from the priors, then the outcome from Tr(rho_i Pi_k)
    in effect order with fail last, one uniform pair per trial from
    numpy's seeded generator.  Deterministic for fixed (seed, trials).
    Trials run in blocks of _SAMPLE_CHUNK; within a block they are grouped
    by prepared label and each group finds its outcomes by binary search in
    that label's cumulative row, so working memory is O(block), independent
    of both the number of trials and the number of outcomes.
    """
    if not pom.complete:
        raise ValueError("simulation requires a complete measurement")
    if trials < 1:
        raise ValueError("trials must be positive")
    labelled = pom.all_effects()
    # prob[i, k] = Tr(rho_i Pi_k)
    effects = np.array([e for _, e in labelled])
    prob = np.einsum("iab,kba->ik", np.array(ens.states), effects).real
    prob = np.clip(prob, 0.0, None)
    prob /= prob.sum(axis=1, keepdims=True)

    n_out = len(labelled)
    cum_priors = np.cumsum(ens.priors)
    # Roundoff can push a partial sum above 1.0 before the last outcome;
    # clamping keeps each row sorted for the binary search and, as every
    # uniform is below 1, moves no outcome.
    cum = np.minimum(np.cumsum(prob, axis=1), 1.0)
    cum[:, -1] = 1.0
    rng = np.random.default_rng(seed)
    # Consecutive draws continue one stream, so the blocks see exactly the
    # uniforms a single (trials, 2) draw would.
    joint = np.zeros((ens.n_states, n_out), dtype=np.int64)
    for start in range(0, trials, _SAMPLE_CHUNK):
        u = rng.random((min(_SAMPLE_CHUNK, trials - start), 2))
        prepared = np.searchsorted(cum_priors, u[:, 0], side="right")
        np.minimum(prepared, ens.n_states - 1, out=prepared)
        # Outcome uniforms grouped by prepared label: label i owns
        # u_out[edges[i]:edges[i + 1]].
        edges = np.zeros(ens.n_states + 1, dtype=np.int64)
        np.cumsum(np.bincount(prepared, minlength=ens.n_states), out=edges[1:])
        u_out = u[np.argsort(prepared), 1]
        for i in range(ens.n_states):
            outcome = np.searchsorted(cum[i], u_out[edges[i]:edges[i + 1]], side="right")
            joint[i] += np.bincount(outcome, minlength=n_out)

    outcome_counts = joint.sum(axis=0)
    labels = tuple(label for label, _ in pom.effects)
    correct = [int(joint[label, k]) for k, label in enumerate(labels)]
    freqs = [
        hits / int(outcome_counts[k]) if outcome_counts[k] > 0 else None
        for k, hits in enumerate(correct)
    ]
    return SimulationResult(
        trials=trials,
        seed=seed,
        labels=labels,
        outcome_counts=tuple(int(c) for c in outcome_counts),
        correct_counts=tuple(correct),
        conditional_frequencies=tuple(freqs),
    )
