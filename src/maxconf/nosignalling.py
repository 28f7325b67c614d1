"""Bipartite checks that left-side measurements cannot signal.

Conditioned on outcome omega of an effect Pi on the left half of the
purification, the right system holds

    rho_{R|omega} = Tr_L[ |Psi><Psi| (Pi tensor I) ] / P(omega)
                  = A^T Pi^* A^* / P(omega)

in terms of the amplitude matrix A.  Whatever Pi is, rho_{R|omega} stays
inside the allowed subspace and the outcome-averaged right state equals
the unmeasured right marginal; README's Library says how each is read.
"""

from __future__ import annotations

import numpy as np

from .ensembles import BipartiteState
from .linalg import _symmetrized, checked_effect, frobenius, outcome_probability, sandwich


def conditional_diagonals(bs: BipartiteState, basis: np.ndarray, effects) -> list[tuple[float, np.ndarray, float]]:
    """(P, diagonal, leakage) of the right-side state given the outcome of
    each effect Pi: its probability P, the diagonal of rho_{R|Pi}, whose sum
    over the labels sigma(j) is the confidence of outcome j read on the
    right side, and its weight Tr(Q rho_{R|Pi} Q) outside the subspace that
    basis B spans, Q = I - B B^dagger.

    An effect is a d x d matrix or a factor pair (W, t), checked by
    linalg.checked_effect.  Z = A - (A B^*) B^T is formed once, for
    Q A^T = Z^T.  Raises when an outcome is too improbable for a conditional
    (linalg.outcome_probability).
    """
    a = bs.amplitudes
    z = a - (a @ basis.conj()) @ basis.T
    readings = []
    for effect in effects:
        effect = checked_effect(effect, len(a), "effect")
        diagonal = sandwich(effect, a, diagonal=True)
        p = outcome_probability(float(diagonal.sum()), effect)
        outside = float(sandwich(effect, z, diagonal=True).sum())
        readings.append((p, diagonal / p, max(outside / p, 0.0)))
    return readings


def bound_bipartite(bs: BipartiteState, basis: np.ndarray, j: int) -> float:
    """Maximum confidence for member j read off the allowed subspace's basis B:
    the largest eigenvalue of P_D Pi_sigma P_D, P_D = B B^dagger, is the top
    squared singular value of B's rows on sigma(j), for one row its squared norm.
    """
    rows = basis[list(bs.index_sets[j])]
    if len(rows) == 1:
        return float(np.vdot(rows[0], rows[0]).real)
    return float(np.linalg.svd(rows, compute_uv=False)[0] ** 2)


def marginal_invariance(bs: BipartiteState, pom) -> float:
    """Frobenius deviation between the outcome-averaged right state and the marginal.

    Sums the unnormalized conditionals over every effect the measurement
    carries, fail included, so zero-probability outcomes are harmless;
    verify compares it with its one tolerance.  Each effect enters through
    its factor pair and the fail effect through its matrix.  Each sandwich
    is added into the first in place, so one R x R sum and one term are
    alive at a time.
    """
    outcomes = [e for _, e in pom.effects] + [pom.fail]
    total = sandwich(outcomes[0], bs.amplitudes)
    for e in outcomes[1:]:
        total += sandwich(e, bs.amplitudes)
    total = _symmetrized(total)
    total -= bs.right_marginal()
    return frobenius(total)
