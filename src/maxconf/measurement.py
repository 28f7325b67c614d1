"""Maximum-confidence measurements.

The confidence of outcome omega_j is the posterior probability that the
prepared state really was rho_j, P(rho_j | omega_j) = p_j Tr(rho_j Pi_j) /
Tr(rho Pi_j) with rho = sum_i p_i rho_i.  Over all effects it is at most
C_j = gamma_max(p_j rho^{-1/2} rho_j rho^{-1/2}), inverses on the support of
rho (Croke et al., PRL 96, 070401, 2006).  README's Library says how the
bound, its effect and the completed measurement are read off the member
factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import Ensemble
from .linalg import (
    _readonly,
    _require_finite,
    as_matrix,
    checked_effect,
    frobenius,
    gram,
    hermitian_in_place,
    outcome_probability,
    sandwich,
    within_psd_slack,
)

_COMPLETENESS_TOL = 1e-9
# Roundoff tolerated outside [0, 1] on a probability or confidence before it is an error.
_UNIT_SLACK = 1e-10
# Trials sampled per block, so memory stays flat in the number of trials.
_SAMPLE_CHUNK = 1 << 13
# A draw is m 2^-53 with m < 2^53.
_MANTISSA_BITS = 53
# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its increment and its two mixing multipliers.
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


@dataclass(frozen=True, eq=False)
class POM:
    """Probability operator measurement: labelled effects and the fail effect
    that completes them.

    effects holds (label, (W_k, t_k)), effect k as the factor pair of
    E_k = t_k W_k W_k^dagger, each checked by linalg.checked_effect at the
    fail effect's dimension.  README's Library gives the rest of the contract.
    """

    effects: tuple
    fail: np.ndarray

    def __post_init__(self):
        fail = as_matrix(np.array(self.fail, dtype=np.complex128), "fail effect")
        effects, total = [], 0.0
        for label, e in self.effects:
            name = f"effect {label}"
            if not isinstance(e, tuple):
                raise ValueError(f"{name} must be a factor pair (W, t)")
            w, t = checked_effect(e, len(fail), name)
            w = _readonly(np.array(w, dtype=np.complex128))
            total += gram(w, t)
            effects.append((int(label), (w, t)))
        self._adopt(tuple(effects), total, fail)

    def _adopt(self, effects: tuple, total, fail: np.ndarray) -> "POM":
        """Keep effects and fail, a complex128 array the POM owns, once fail is finite,
        Hermitian (made so in place) and PSD and completes total, the effects' sum, to I."""
        fail = _readonly(hermitian_in_place(fail, "fail effect"))
        if not within_psd_slack(np.linalg.eigvalsh(fail)[0], 1.0):
            raise ValueError("fail effect is not positive semidefinite")
        residual = total + fail
        residual.flat[:: len(fail) + 1] -= 1.0
        if frobenius(residual) > _COMPLETENESS_TOL:
            raise ValueError("effects plus fail do not resolve the identity")
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "fail", fail)
        return self


def _stacked_factors(ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """[F_1 ... F_n] and the column where each member's block starts."""
    members = [ens.factor(i) for i in range(ens.n_states)]
    return np.hstack(members), np.cumsum([0] + [m.shape[1] for m in members[:-1]])


def outcome_table(ens: Ensemble, pom: POM) -> np.ndarray:
    """Tr(rho_i E_k), one row per member and one column per effect, the
    fail effect last, taken through the member factors, one contiguous
    column at a time: column-major, as sums over members read it.  Each
    effect's label must name a member of ens."""
    for label, _ in pom.effects:
        ens._member(label)
    f, starts = _stacked_factors(ens)
    outcomes = [e for _, e in pom.effects] + [pom.fail]
    table = np.empty((ens.n_states, len(outcomes)), order="F")
    for k, e in enumerate(outcomes):
        np.add.reduceat(sandwich(e, f, diagonal=True), starts, out=table[:, k])
    return table


def _unit_interval(value: float, name: str) -> float:
    """Clamp roundoff just outside [0, 1]; beyond the slack it is an error."""
    if not -_UNIT_SLACK <= value <= 1.0 + _UNIT_SLACK:
        raise ValueError(f"{name} out of range: {value!r}")
    return min(max(value, 0.0), 1.0)


def _posterior(numer: float, denom: float, effect, j: int) -> float:
    return _unit_interval(float(numer / outcome_probability(denom, effect)), f"confidence for state {j}")


def confidence_of(ens: Ensemble, effect, j: int) -> float:
    """Posterior probability of state j given the outcome tied to `effect`:
    a d x d matrix, or the factor pair (W, t) of t W W^dagger in which
    POM.effects hands out an effect, checked by linalg.checked_effect.

    Invariant under rescaling of the effect.  Raises when the outcome
    probability Tr(rho effect) is too small for the conditional to exist.
    """
    effect = checked_effect(effect, ens.dim, "effect")
    f, starts = _stacked_factors(ens)
    joint = ens.priors * np.add.reduceat(sandwich(effect, f, diagonal=True), starts)
    return _posterior(joint[ens._member(j)], joint.sum(), effect, j)


def max_confidence(ens: Ensemble, j: int) -> float:
    """Largest achievable confidence for ensemble member j."""
    return _unit_interval(ens.top(j)[0], f"bound for state {j}")


def complete_pom(ens: Ensemble) -> POM:
    """Scale the optimal effects into a single measurement.

    All effects share the largest scale t keeping I - t sum_j W_j W_j^dagger
    PSD, t = 1 / sigma_max([W_1 ... W_n])^2; the remainder, including the
    orthocomplement of the support of rho, becomes the fail effect, so every
    conclusive outcome still attains its bound.  The measurement keeps the
    column blocks W_j of U diag(1/s) [T_1 ... T_n], t and the checked fail effect.
    """
    tops = [ens.top(j)[1] for j in range(ens.n_states)]
    whitening = ens.support.eigenvectors / np.sqrt(ens.support.eigenvalues)  # U diag(1/s)
    w = np.empty((ens.dim, sum(v.shape[1] for v in tops)), dtype=np.complex128)
    factors = np.hsplit(w, np.cumsum([v.shape[1] for v in tops[:-1]]))
    for j, (f, v) in enumerate(zip(factors, tops)):
        np.matmul(whitening, v, out=f)
        _readonly(_require_finite(f, f"effect {j}"))
    del whitening
    t = 1.0 / float(np.linalg.svd(_readonly(w), compute_uv=False)[0]) ** 2
    total = gram(w, t)  # exactly Hermitian, so a fail effect of roundoff size is too
    fail = np.eye(ens.dim, dtype=np.complex128)
    fail -= total
    effects = tuple((j, (f, t)) for j, f in enumerate(factors))
    # Not the constructor: it would copy every W_j and the fail effect and rebuild total one
    # gram at a time, nearly doubling a pom report's peak (12.3 effects, not 6.5, at d=32 n=64).
    return object.__new__(POM)._adopt(effects, total, fail)


@dataclass(frozen=True, eq=False)
class ConfidenceReport:
    """Per-state bound / achieved-confidence / outcome-probability summary."""

    records: tuple  # (label, bound, achieved, outcome_probability)
    inconclusive_probability: float

    def __post_init__(self):
        """Range-check each probability and their sum, then clamp each into [0, 1] (README)."""
        inconclusive = self.inconclusive_probability
        records = tuple((label, bound, achieved, _unit_interval(prob, f"probability for state {label}"))
                        for label, bound, achieved, prob in self.records)
        if not -_UNIT_SLACK <= inconclusive <= 1.0 + _UNIT_SLACK:
            raise ValueError("inconclusive probability out of range")
        total = sum((prob for *_, prob in self.records), inconclusive)
        if abs(total - 1.0) > _COMPLETENESS_TOL:
            raise ValueError(f"outcome probabilities sum to {total!r}")
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "inconclusive_probability", min(max(inconclusive, 0.0), 1.0))


def confidence_report(ens: Ensemble, pom: POM) -> ConfidenceReport:
    """Bounds, achieved confidences and outcome probabilities, from one outcome_table."""
    joint = outcome_table(ens, pom) * ens.priors[:, None]  # p_i Tr(rho_i E_k)
    prob = joint.sum(axis=0)
    records = []
    for k, (label, effect) in enumerate(pom.effects):
        achieved = _posterior(joint[label, k], prob[k], effect, label)
        records.append((label, max_confidence(ens, label), achieved, float(prob[k])))
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


def _draws(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64's outputs start .. start + count - 1 of seed, each shifted
    right by 11 bits: the integers m < 2^53 of the uniforms u = m 2^-53.

    Output j mixes the state seed + (j + 1) gamma, so any stretch of the
    stream is computed from its counters alone.  Every step is in place on
    uint64 arrays, which wrap mod 2^64 where numpy scalars would warn.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _SPLITMIX_GAMMA
    z += np.uint64(seed)
    t = z >> 30
    z ^= t
    z *= _SPLITMIX_MIX[0]
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _SPLITMIX_MIX[1]
    np.right_shift(z, 31, out=t)
    z ^= t
    z >>= 64 - _MANTISSA_BITS
    return z


def _integer_edges(cum: np.ndarray) -> np.ndarray:
    """ceil(c 2^53), in place, for rows of cumulative sums c clamped at 1.0 and ended at 1.0:
    u = m 2^-53 is at or past c exactly when m >= ceil(c 2^53), and no m < 2^53 reaches 2^53."""
    np.minimum(cum, 1.0, out=cum)
    cum[..., -1] = 1.0
    cum *= float(1 << _MANTISSA_BITS)
    return np.ceil(cum, out=cum).astype(np.uint64)


def simulate_measurement(ens: Ensemble, pom: POM, trials: int, seed: int) -> SimulationResult:
    """Sample prepared labels and outcomes, counting correct identifications,
    by the rule in README's Conventions: the label from the priors, then the
    outcome from outcome_table's row, from draws 2i and 2i + 1 of _draws.
    Both draws are compared on integers with the edges of _integer_edges.  Trials run in
    blocks of _SAMPLE_CHUNK, and each trial's outcome is found by halving its label's row
    of edges, ceil(log2 outcomes) exact comparisons: O(block) memory, whatever the trials,
    members and outcomes.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed!r}")
    prob = np.clip(outcome_table(ens, pom), 0.0, None)  # prob[i, k] = Tr(rho_i Pi_k)
    n_out = prob.shape[1]
    prob /= prob.sum(axis=1, keepdims=True)
    label_edges = _integer_edges(np.cumsum(ens.priors))
    edges = _integer_edges(np.cumsum(prob, axis=1, out=prob))
    del prob  # before the reshape, which copies the column-major table
    edges = edges.reshape(-1)  # row i starts at i n_out
    joint = np.zeros(ens.n_states * n_out, dtype=np.int64)
    for start in range(0, trials, _SAMPLE_CHUNK):
        m = _draws(seed, 2 * start, 2 * min(_SAMPLE_CHUNK, trials - start)).reshape(-1, 2)
        cell = np.searchsorted(label_edges, m[:, 0], side="right")
        cell *= n_out  # the label's row; its last edge, 2^53, is above every draw
        draw = m[:, 1].copy()
        del m
        n = n_out  # the cell lies in [cell, cell + n)
        while n > 1:
            half = n // 2
            cell += half * (edges[cell + (half - 1)] <= draw)
            n -= half
        np.add.at(joint, cell, 1)  # counts a repeated cell each time, as joint[cell] += 1 would not
        del cell, draw  # before the next block's draws: a block peaks near 0.27 MB

    joint = joint.reshape(ens.n_states, n_out)
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
