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
eigenspace (mixed).  A mixed member's bound and effect come from one
decomposition, kept by Ensemble.top.  Scaling an effect changes outcome probabilities but
never its confidence, so one overall scale completes the collection into
a measurement with an inconclusive remainder.  Each completed effect is
then fixed by its member, the average state and that one scale, so the
completed measurement keeps only the scale and the fail effect and
rebuilds an effect, bit for bit the same, whenever it is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ensembles import Ensemble
from .linalg import (
    _readonly,
    frobenius,
    hermitian_in_place,
    hermitize,
    real_trace,
    require_hermitian,
    within_psd_slack,
)

_COMPLETENESS_TOL = 1e-9
_OUTCOME_PROB_FLOOR = 1e-14
# Roundoff tolerated outside [0, 1] on a confidence before it is an error.
_UNIT_SLACK = 1e-10
# Trials sampled per block, so memory stays flat in the number of trials.
_SAMPLE_CHUNK = 1 << 16


class _Effects(Sequence):
    """A measurement's (label, read-only matrix) pairs, in order.

    matrix(k) gives entry k's matrix each time the entry is read: a stored
    array, or one rebuilt from the ensemble (complete_pom).  labels are
    read without making any matrix.
    """

    def __init__(self, labels: tuple, matrix):
        self.labels = labels
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, k: int) -> tuple:
        k = range(len(self.labels))[k]  # IndexError past the end ends iteration
        return self.labels[k], self._matrix(k)


def _finite_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has a non-finite entry")
    return hermitian_in_place(m, name=name)


def _checked(pairs, finish) -> tuple:
    """POM's validation, over (label, matrix) pairs whose arrays it may overwrite.

    One pass takes the pairs one at a time: each matrix is checked finite,
    made Hermitian and read-only in place, checked against the first
    one's shape, and its lowest eigenvalue is kept while it is summed into
    the total.  finish(total) then gives the scale of every effect and the
    fail effect (or None).  Each effect's PSD check runs at that scale, in
    order, and then the fail effect's checks and completeness.  Returns
    the labels, the scale and the checked fail effect.
    """
    labels, lowest, total = [], [], None
    for label, e in pairs:
        h = _readonly(_finite_hermitian(e, f"effect {label}"))
        if total is None:
            total = np.zeros_like(h)
        elif h.shape != total.shape:
            raise ValueError("effects must share one dimension")
        total += h
        labels.append(int(label))
        lowest.append(np.linalg.eigvalsh(h)[0])
    scale, fail = finish(total)
    for label, low in zip(labels, lowest):
        if not within_psd_slack(scale * low, 1.0):
            raise ValueError(f"effect {label} is not positive semidefinite")
    if fail is not None:
        fail = _readonly(_finite_hermitian(fail, "fail effect"))
        if total is None:
            total = np.zeros_like(fail)
        if not within_psd_slack(np.linalg.eigvalsh(fail)[0], 1.0):
            raise ValueError("fail effect is not positive semidefinite")
        if frobenius(scale * total + fail - np.eye(len(fail))) > _COMPLETENESS_TOL:
            raise ValueError("effects plus fail do not resolve the identity")
    elif np.linalg.eigvalsh(scale * total)[-1] > 1.0 + _COMPLETENESS_TOL:
        raise ValueError("effects exceed the identity")
    return tuple(labels), scale, fail


@dataclass(frozen=True, eq=False)
class POM:
    """Probability operator measurement: labelled effects plus optional fail.

    effects is a sequence of (label, matrix) pairs.  Each effect must be
    finite and PSD (within the slack at scale 1) and the effects must sum
    to at most the identity; when fail is present they must resolve it
    within 1e-9.

    The constructor validates and keeps a copy of each matrix it is given,
    so the caller's arrays stay as they were.  The POM that complete_pom
    returns holds no effect arrays: each effect is rebuilt from the
    ensemble whenever it is read, bit for bit the same each time, after
    the same checks ran on it once.  Either way effects is a sequence,
    not a tuple, read one effect at a time, and every matrix read from it
    is Hermitian and read-only; effects.labels are read without making any.
    """

    effects: Sequence
    fail: np.ndarray | None = None

    def __post_init__(self):
        owned = tuple((label, np.array(e, dtype=np.complex128)) for label, e in self.effects)
        fail = None if self.fail is None else np.array(self.fail, dtype=np.complex128)
        if not owned and fail is None:
            raise ValueError("a measurement needs at least one effect")
        labels, _, fail = _checked(owned, lambda total: (1.0, fail))
        object.__setattr__(self, "effects", _Effects(labels, lambda k: owned[k][1]))
        object.__setattr__(self, "fail", fail)

    @classmethod
    def _of(cls, effects: _Effects, fail: np.ndarray) -> "POM":
        """The measurement of effects and a fail effect that _checked has passed."""
        pom = object.__new__(cls)
        object.__setattr__(pom, "effects", effects)
        object.__setattr__(pom, "fail", fail)
        return pom

    @property
    def dim(self) -> int:
        return (self.fail if self.fail is not None else self.effects[0][1]).shape[0]

    @property
    def complete(self) -> bool:
        return self.fail is not None

    def all_effects(self) -> Sequence:
        """effects with the fail effect appended last as label None: a
        sequence like effects, whose matrices are made as they are read."""
        effects, fail = self.effects, self.fail
        if fail is None:
            return effects
        n = len(effects)
        return _Effects(effects.labels + (None,), lambda k: fail if k == n else effects[k][1])


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
    return _unit_interval(ens.top(j)[0], f"bound for state {j}")


def optimal_effect(ens: Ensemble, j: int) -> np.ndarray:
    """Unnormalized effect attaining max_confidence(ens, j), built from
    the member's cached top eigenspace (Ensemble.top)."""
    if ens.is_pure(j):
        rinv = ens.support.inv
        return hermitize(rinv @ (ens.priors[j] * ens.states[j]) @ rinv)
    s = ens.support.inv_sqrt
    v = ens.top(j)[1]
    return hermitize(s @ (v @ v.conj().T) @ s)


def _scaled_effect(ens: Ensemble, t: float, j: int) -> np.ndarray:
    """Effect j of complete_pom(ens): the scale t times direction j."""
    e = optimal_effect(ens, j)
    e *= t
    return _readonly(e)


def complete_pom(ens: Ensemble) -> POM:
    """Scale the optimal effects into a single measurement.

    All effects share the largest scale t keeping I - t sum_j D_j positive
    semidefinite on the support of rho (t = 1 / gamma_max of the sum); the
    remainder, including the orthocomplement of the support, becomes the
    fail effect.  Every conclusive outcome then still attains its
    maximum-confidence bound.

    One pass builds the directions D_j one at a time: POM's checks
    (_checked) run on each while it is summed, and on the scaled effects
    and the fail effect once t is known.  The returned POM keeps only t
    and the fail effect: effect j is t D_j rebuilt whenever it is read,
    from the cached decompositions, with the same float operations.
    """
    def finish(total):
        # A sum of exactly Hermitian arrays (each is, once checked) is exactly Hermitian.
        t = 1.0 / float(np.linalg.eigvalsh(total)[-1])
        return t, hermitize(np.eye(ens.dim) - t * total)

    labels, t, fail = _checked(((j, optimal_effect(ens, j)) for j in range(ens.n_states)), finish)
    return POM._of(_Effects(labels, partial(_scaled_effect, ens, t)), fail)


@dataclass(frozen=True, eq=False)
class ConfidenceReport:
    """Per-state bound / achieved-confidence / outcome-probability summary."""

    records: tuple  # (label, bound, achieved, outcome_probability)
    inconclusive_probability: float

    def __post_init__(self):
        total = self.inconclusive_probability
        for label, bound, achieved, prob in self.records:
            for name, value in (("bound", bound), ("confidence", achieved), ("probability", prob)):
                if not -_UNIT_SLACK <= value <= 1.0 + _UNIT_SLACK:
                    raise ValueError(f"{name} for state {label} out of range: {value!r}")
            total += prob
        if not -_UNIT_SLACK <= self.inconclusive_probability <= 1.0 + _UNIT_SLACK:
            raise ValueError("inconclusive probability out of range")
        if abs(total - 1.0) > _COMPLETENESS_TOL:
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
    # prob[i, k] = Tr(rho_i Pi_k)
    effects = np.array([e for _, e in pom.all_effects()])
    n_out = len(effects)
    prob = np.einsum("iab,kba->ik", np.array(ens.states), effects).real
    prob = np.clip(prob, 0.0, None)
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
    labels = pom.effects.labels
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
