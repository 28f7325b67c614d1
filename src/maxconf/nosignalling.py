"""Bipartite checks that left-side measurements cannot signal.

Conditioned on outcome omega of an effect Pi on the left half of the
purification, the right system holds

    rho_{R|omega} = Tr_L[ |Psi><Psi| (Pi tensor I) ] / P(omega).

Whatever Pi is chosen, rho_{R|omega} stays inside the subspace spanned by
the right Schmidt vectors, and the outcome-averaged right state equals the
unmeasured right marginal.  The confidence of outcome j is the weight of
rho_{R|j} on the index block sigma(j), which is how the measurement-side
bound reappears as a geometric statement about one subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import BipartiteState, SubspaceProjector
from .linalg import frobenius, hermitize, real_trace, sandwich

_PROB_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ConditionalRightState:
    """Right-side state given one left-side outcome."""

    state: np.ndarray
    probability: float


def conditional_right_state(bs: BipartiteState, effect) -> ConditionalRightState:
    """Right-side state given the outcome of effect Pi: a d x d matrix, or
    the factor pair (W, t) of Pi = t W W^dagger, the form in which a
    measurement hands out its effects (POM.effects).

    Tr_L[|Psi><Psi| (Pi tensor I)] is A^T Pi^* A^* in terms of the amplitude
    matrix A (linalg.sandwich), which never forms Pi from a pair.
    """
    m = sandwich(effect, bs.amplitudes, checked=True)
    p = real_trace(m)
    if p <= _PROB_FLOOR:
        raise ValueError(f"outcome probability {p!r} too small: conditional undefined")
    return ConditionalRightState(hermitize(m) / p, float(p))


def confidence_bipartite(bs: BipartiteState, effect, j: int) -> float:
    """Weight of the conditional right state on index block sigma(j).

    Equals p_j Tr(rho_j Pi) / Tr(rho Pi) computed on the left side.
    """
    crs = conditional_right_state(bs, effect)
    idx = list(bs.index_sets[j])
    return float(np.sum(np.diag(crs.state)[idx].real))


def bound_bipartite(bs: BipartiteState, p_d: SubspaceProjector, j: int) -> float:
    """Maximum confidence for member j read off the allowed subspace.

    The largest eigenvalue of P_D Pi_sigma P_D, with Pi_sigma the
    projector onto the block, is that of Pi_sigma P_D Pi_sigma, the block
    of P_D on sigma(j); a single right label i gives <i| P_D |i>.
    """
    idx = list(bs.index_sets[j])
    block = p_d.matrix[np.ix_(idx, idx)]
    if len(idx) == 1:
        return float(block[0, 0].real)
    return float(np.linalg.eigvalsh(block)[-1])


def state_leakage(rho_r: np.ndarray, p_d: SubspaceProjector) -> float:
    """Weight of a right-side state outside the allowed subspace."""
    q = p_d.complement()
    return max(real_trace(q @ rho_r @ q), 0.0)


def subspace_leakage(bs: BipartiteState, p_d: SubspaceProjector, effect) -> float:
    """Leakage of the conditional right state of `effect`; must vanish."""
    crs = conditional_right_state(bs, effect)
    return state_leakage(crs.state, p_d)


def marginal_invariance(bs: BipartiteState, pom) -> float:
    """Frobenius deviation between the outcome-averaged right state and the marginal.

    Sums the unnormalized conditionals over every effect the measurement
    carries (fail included when present), so zero-probability outcomes are
    harmless.  Complete measurements must come out at most 1e-10; a
    measurement missing its fail element reports the weight it dropped.
    Each effect enters through its factor pair and the fail effect through
    its matrix.
    """
    outcomes = [e for _, e in pom.effects] + ([] if pom.fail is None else [pom.fail])
    total = sum(sandwich(e, bs.amplitudes) for e in outcomes)
    return frobenius(hermitize(total) - bs.right_marginal())
