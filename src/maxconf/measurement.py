"""Maximum-confidence measurements.

The confidence of outcome omega_j is the posterior probability that the
prepared state really was rho_j:

    P(rho_j | omega_j) = p_j Tr(rho_j Pi_j) / Tr(rho Pi_j),

with rho = sum_i p_i rho_i.  Over all effects this is bounded by

    C_j = gamma_max(p_j rho^{-1/2} rho_j rho^{-1/2})

with inverses restricted to the support of rho (Croke et al., PRL 96,
070401, 2006).  With rho_j = F_j F_j^dagger and (s^2, U) the support of
rho, C_j = sigma_max(G_j)^2 for the whitened block
G_j = diag(1/s) U^dagger sqrt(p_j) F_j, which is member j's columns of the
stacked SVD's V^dagger (Ensemble.top), and the bound is attained by
W_j W_j^dagger with W_j = U diag(1/s) T_j, T_j the top left singular space
of G_j.  Scaling an effect changes outcome probabilities but never its
confidence, so one overall scale t completes the collection into a
measurement with an inconclusive remainder.  The completed measurement
hands out effect k as its factor pair (W_k, t), takes every trace as
t ||W_k^dagger F_i||^2 (linalg.sandwich), and keeps the fail effect as its
only d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .linalg import (
    _readonly,
    frobenius,
    gram,
    hermitian_in_place,
    psd_factor,
    sandwich,
    within_psd_slack,
)

_COMPLETENESS_TOL = 1e-9
_OUTCOME_PROB_FLOOR = 1e-14
# Roundoff tolerated outside [0, 1] on a confidence before it is an error.
_UNIT_SLACK = 1e-10
# Trials sampled per block, so memory stays flat in the number of trials.
_SAMPLE_CHUNK = 1 << 16


def _finite_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has a non-finite entry")
    return hermitian_in_place(m, name=name)


def _checked_fail(total: np.ndarray, fail) -> np.ndarray | None:
    """POM's checks against total, the sum of the effects: a fail effect is
    finite, Hermitian (made so in place) and PSD and completes them to the
    identity; without one they must not exceed it."""
    if fail is not None:
        fail = _readonly(_finite_hermitian(fail, "fail effect"))
        if not within_psd_slack(np.linalg.eigvalsh(fail)[0], 1.0):
            raise ValueError("fail effect is not positive semidefinite")
        residual = total + fail
        residual.flat[:: len(fail) + 1] -= 1.0
        if frobenius(residual) > _COMPLETENESS_TOL:
            raise ValueError("effects plus fail do not resolve the identity")
    elif np.linalg.eigvalsh(total)[-1] > 1.0 + _COMPLETENESS_TOL:
        raise ValueError("effects exceed the identity")
    return fail


@dataclass(frozen=True, eq=False)
class POM:
    """Probability operator measurement: labelled effects plus optional fail.

    effects is a sequence of (label, matrix) pairs.  Each effect must be
    finite and PSD (within the slack at scale 1) and the effects must sum
    to at most the identity; when fail is present they must resolve it
    within 1e-9.

    The constructor validates a copy of each matrix it is given, so the
    caller's arrays stay as they were.  It keeps effect k as the factor
    pair (W_k, t) of E_k = t W_k W_k^dagger: W_k the factor of the positive
    eigenvalues from the eigh that checks it, and t = 1.  The POM that
    complete_pom returns holds the factors it built.  Either way effects is
    a tuple of (label, (W_k, t)) and fail a read-only d x d matrix or None;
    linalg.gram(W_k, t) makes an effect matrix.
    """

    effects: tuple
    fail: np.ndarray | None = None

    def __post_init__(self):
        effects, total = [], None
        for label, e in self.effects:
            h = _finite_hermitian(np.array(e, dtype=np.complex128), f"effect {label}")
            if total is None:
                total = np.zeros_like(h)
            elif h.shape != total.shape:
                raise ValueError("effects must share one dimension")
            vals, vecs = np.linalg.eigh(h)
            if not within_psd_slack(vals[0], 1.0):
                raise ValueError(f"effect {label} is not positive semidefinite")
            total += h
            effects.append((int(label), (psd_factor(vals, vecs, vals > 0.0), 1.0)))
        fail = None if self.fail is None else np.array(self.fail, dtype=np.complex128)
        if total is None:
            if fail is None:
                raise ValueError("a measurement needs at least one effect")
            total = np.zeros_like(fail)
        self._set(tuple(effects), _checked_fail(total, fail))

    def _set(self, effects: tuple, fail) -> "POM":
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "fail", fail)
        return self

    @property
    def complete(self) -> bool:
        return self.fail is not None


def _stacked_factors(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """[F_1 ... F_n] and the column where each member's block starts."""
    members = [ens.factor(i) for i in range(ens.n_states)]
    return np.hstack(members), np.cumsum([0] + [m.shape[1] for m in members[:-1]])


def outcome_table(ens: Ensemble, pom: POM) -> np.ndarray:
    """Tr(rho_i E_k), one row per member and one column per effect, the
    fail effect last when there is one, taken through the member factors."""
    f, starts = _stacked_factors(ens)
    outcomes = [e for _, e in pom.effects] + ([] if pom.fail is None else [pom.fail])
    cols = [sandwich(e, f, diagonal=True) for e in outcomes]
    return np.add.reduceat(np.reshape(cols, (len(cols), f.shape[1])), starts, axis=1).T


def _unit_interval(value: float, name: str) -> float:
    """Clamp roundoff just outside [0, 1]; beyond the slack it is an error."""
    if not -_UNIT_SLACK <= value <= 1.0 + _UNIT_SLACK:
        raise ValueError(f"{name} out of range: {value!r}")
    return min(max(value, 0.0), 1.0)


def _posterior(numer: float, denom: float, j: int) -> float:
    if denom <= _OUTCOME_PROB_FLOOR:
        raise ValueError(f"outcome probability {denom!r} too small: conditional undefined")
    return _unit_interval(float(numer / denom), f"confidence for state {j}")


def confidence_of(ens: Ensemble, effect, j: int) -> float:
    """Posterior probability of state j given the outcome tied to `effect`:
    a d x d matrix, or the factor pair (W, t) of t W W^dagger in which
    POM.effects and optimal_effect hand out an effect.

    Invariant under rescaling of the effect.  Raises when the outcome
    probability Tr(rho effect) is too small for the conditional to exist.
    """
    f, starts = _stacked_factors(ens)
    joint = ens.priors * np.add.reduceat(sandwich(effect, f, diagonal=True, checked=True), starts)
    return _posterior(joint[j], joint.sum(), j)


def max_confidence(ens: Ensemble, j: int) -> float:
    """Largest achievable confidence for ensemble member j."""
    return _unit_interval(ens.top(j)[0], f"bound for state {j}")


def _whitening(ens: Ensemble) -> np.ndarray:
    """U diag(1/s), with (s^2, U) the support of the average."""
    supp = ens.support
    return supp.eigenvectors / np.sqrt(supp.eigenvalues)


def optimal_effect(ens: Ensemble, j: int) -> tuple:
    """(W_j, 1.0), W_j = U diag(1/s) T_j: the factor pair of the effect
    W_j W_j^dagger attaining max_confidence(ens, j)."""
    return _readonly(_whitening(ens) @ ens.top(j)[1]), 1.0


def complete_pom(ens: Ensemble) -> POM:
    """Scale the optimal effects into a single measurement.

    All effects share the largest scale t keeping I - t sum_j W_j W_j^dagger
    PSD, t = 1 / sigma_max([W_1 ... W_n])^2; the remainder, including the
    orthocomplement of the support of rho, becomes the fail effect, so every
    conclusive outcome still attains its bound.  The measurement keeps the
    column blocks W_j of U diag(1/s) [T_1 ... T_n], t and the checked fail effect.
    """
    tops = [ens.top(j)[1] for j in range(ens.n_states)]
    whitening = _whitening(ens)
    w = np.empty((ens.dim, sum(v.shape[1] for v in tops)), dtype=np.complex128)
    factors = np.hsplit(w, np.cumsum([v.shape[1] for v in tops[:-1]]))
    for j, (f, v) in enumerate(zip(factors, tops)):
        np.matmul(whitening, v, out=f)
        if not np.all(np.isfinite(f)):
            raise ValueError(f"effect {j} has a non-finite entry")
        _readonly(f)
    del whitening
    t = 1.0 / float(np.linalg.svd(_readonly(w), compute_uv=False)[0]) ** 2
    total = gram(w, t)  # exactly Hermitian, so a fail effect of roundoff size is too
    fail = np.eye(ens.dim, dtype=np.complex128)
    fail -= total
    effects = tuple((j, (f, t)) for j, f in enumerate(factors))
    return object.__new__(POM)._set(effects, _checked_fail(total, fail))


@dataclass(frozen=True, eq=False)
class ConfidenceReport:
    """Per-state bound / achieved-confidence / outcome-probability summary."""

    records: tuple  # (label, bound, achieved, outcome_probability)
    inconclusive_probability: float

    def __post_init__(self):
        total = self.inconclusive_probability
        for label, _, _, prob in self.records:
            if not -_UNIT_SLACK <= prob <= 1.0 + _UNIT_SLACK:
                raise ValueError(f"probability for state {label} out of range: {prob!r}")
            total += prob
        if not -_UNIT_SLACK <= self.inconclusive_probability <= 1.0 + _UNIT_SLACK:
            raise ValueError("inconclusive probability out of range")
        if abs(total - 1.0) > _COMPLETENESS_TOL:
            raise ValueError(f"outcome probabilities sum to {total!r}")


def confidence_report(ens: Ensemble, pom: POM) -> ConfidenceReport:
    """Bounds, achieved confidences and outcome probabilities, from one outcome_table."""
    if not pom.complete:
        raise ValueError("report requires a complete measurement")
    joint = outcome_table(ens, pom) * ens.priors[:, None]  # p_i Tr(rho_i E_k)
    prob = joint.sum(axis=0)
    records = []
    for k, (label, _) in enumerate(pom.effects):
        records.append(
            (label, max_confidence(ens, label), _posterior(joint[label, k], prob[k], label), float(prob[k]))
        )
    return ConfidenceReport(tuple(records), float(prob[-1]))


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
    in effect order with fail last (outcome_table), one uniform pair per
    trial from numpy's seeded generator.  Deterministic for fixed (seed, trials).
    Trials run in blocks of _SAMPLE_CHUNK; within a block they are grouped
    by prepared label and each group finds its outcomes by binary search in
    that label's cumulative row, so working memory is O(block), independent
    of both the number of trials and the number of outcomes.
    """
    if not pom.complete:
        raise ValueError("simulation requires a complete measurement")
    if trials < 1:
        raise ValueError("trials must be positive")
    prob = np.clip(outcome_table(ens, pom), 0.0, None)  # prob[i, k] = Tr(rho_i Pi_k)
    n_out = prob.shape[1]
    prob /= prob.sum(axis=1, keepdims=True)

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
