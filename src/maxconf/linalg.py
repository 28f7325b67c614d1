"""Dense complex linear algebra shared by every other module.

Operators are complex128 numpy arrays.  Each rule of README's Conventions
is decided here once: the rank by kept(), positivity by within_psd_slack(),
a caller's operator by hermitian_in_place(), and whether a conditional
exists by outcome_probability().  A caller's effect, a matrix or a factor
pair (W, t), is read only by sandwich() and outcome_probability().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rank: kept() keeps the entries of a spectrum above RANK_TOL times the largest.
RANK_TOL = 1e-12
# Tolerance verify and transform compare their residuals with, unless a caller supplies one.
DEFAULT_TOLERANCE = 1e-9
# Relative Frobenius deviation tolerated before a matrix is rejected
# as non-Hermitian.
HERMITICITY_TOL = 1e-9
# PSD slack: the most negative eigenvalue may reach -PSD_TOL times the scale, the
# trace for a (weighted) state, so rho_j and p_j rho_j agree, and 1 for an effect.
PSD_TOL = 1e-10
# A conditional given an outcome is undefined at or below this probability
# relative to the effect's Frobenius norm, so rescaling an effect never decides it.
CONDITIONAL_TOL = 1e-14
# verify reads the fail outcome only when the inconclusive probability is above this.
FAIL_OUTCOME_TOL = 1e-12


def kept(spectrum: np.ndarray) -> np.ndarray:
    """Rank mask; singular values go in squared, so a matrix's rank is its Gram matrix's."""
    return spectrum > RANK_TOL * spectrum.max()


def kept_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD m = U S V^dagger cut to the kept singular values, kept(s * s):
    (U, s, V^dagger) with s descending."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = kept(s * s)
    return u[:, keep], s[keep], vh[keep]


def within_psd_slack(lowest: float, scale: float) -> bool:
    return lowest >= -PSD_TOL * scale


def _require_finite(a, name: str):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has a non-finite entry")
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(m, name: str | None = None) -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        what = f"{name} must be a matrix" if name else "expected a matrix"
        raise ValueError(f"{what}, got array of dimension {arr.ndim}")
    return arr


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def hermitian_in_place(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that m, an array the caller owns, is finite, square and
    Hermitian, a non-finite entry first; its Hermitian part is written over
    m and returned, so eigensolvers see an exactly Hermitian operand."""
    arr = as_matrix(_require_finite(m, name))
    n, k = arr.shape
    if n != k:
        raise ValueError(f"{name} is not square: shape {arr.shape}")
    scale = frobenius(arr)
    re, im = arr.real, arr.imag  # the anti-Hermitian part, one real half at a time
    if math.hypot(frobenius(re - re.T), frobenius(im + im.T)) > HERMITICITY_TOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian within relative tolerance {HERMITICITY_TOL}")
    return _symmetrized(arr)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 written over m, a complex128 array, one real half at a time."""
    re, im = m.real, m.imag
    re += re.T
    im -= im.T
    m /= 2
    return m


def _kept_factor(h: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """F with F F^dagger = h, a checked Hermitian matrix, at the kept rank of
    spectrum, its eigvalsh eigenvalues.  Pivoted Cholesky takes at most rank
    columns, each at the largest remaining diagonal entry of h - F F^dagger,
    so no d x d array is made, and stops when none is positive.  When that
    leaves more than RANK_TOL of h's trace out, as eigenvalues in the PSD
    slack or just below the cutoff can, F is the kept eigenpairs of one eigh.
    """
    rank = int(np.count_nonzero(kept(spectrum)))
    f = np.zeros((len(h), rank), dtype=np.complex128)
    remaining = h.diagonal().real.copy()
    for s in range(rank):
        k = int(np.argmax(remaining))
        if remaining[k] <= 0.0:
            f = f[:, :s]
            break
        col = f[:, s]
        np.subtract(h[:, k], f[:, :s] @ f[k, :s].conj(), out=col)
        col /= np.sqrt(remaining[k])
        remaining -= col.real ** 2 + col.imag ** 2
        remaining[k] = 0.0
    trace = real_trace(h)
    if abs(trace - np.vdot(f, f).real) > RANK_TOL * trace:
        vals, vecs = np.linalg.eigh(h)
        keep = kept(vals)
        f = vecs[:, keep] * np.sqrt(vals[keep])
    return _readonly(f)


def gram(f: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The Hermitian part of scale * f f^dagger, read-only complex128, with one d x d temporary."""
    m = (f @ f.conj().T).astype(np.complex128, copy=False)
    m *= scale
    return _readonly(_symmetrized(m))


def checked_effect(effect, d: int, name: str):
    """A caller's effect on a d-dimensional system, checked once: the factor
    pair (W, t) of t W W^dagger needs a finite matrix W and a finite t >= 0,
    and comes back as (W, float(t)); a tuple of another length is not one.  A
    matrix comes back as a copy checked by hermitian_in_place.  Either must
    have d rows."""
    pair = isinstance(effect, tuple)
    if pair:
        if len(effect) != 2:
            raise ValueError(f"{name} must be a factor pair (W, t)")
        w, t = effect
        effect = as_matrix(_require_finite(w, name)), float(_require_finite(t, name))
        if effect[1] < 0.0:
            raise ValueError(f"{name} has a negative scale t = {effect[1]!r}")
    else:
        effect = hermitian_in_place(np.array(effect, dtype=np.complex128), name)
    if len(effect[0] if pair else effect) != d:
        raise ValueError(f"{name} must have {d} rows")
    return effect


def sandwich(effect, a: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """a^T E^* a^*, the conjugate of a^dagger E a, for an effect E on the
    left system that a's rows index; with diagonal, the real part of its
    diagonal, one entry per column of a.

    E comes as a d x d matrix or as the factor pair (W, t) of E = t W W^dagger,
    read as t X^T X^* with X = W^dagger a, so that E is never formed.  This and
    outcome_probability's norm are the two places where the forms differ.
    A caller's effect is checked first, by checked_effect.  The result is a
    fresh array, which the caller may overwrite.
    """
    if not isinstance(effect, tuple):
        if diagonal:
            g = effect @ a
            return (a.real * g.real + a.imag * g.imag).sum(axis=0)  # Re a_c^dagger (E a_c)
        return a.T @ effect.conj() @ a.conj()
    w, t = effect
    x = w.conj().T @ a
    if diagonal:
        return t * (x.real ** 2 + x.imag ** 2).sum(axis=0)
    m = x.T @ x.conj()
    m *= t
    return m


def outcome_probability(p: float, effect) -> float:
    """p, the probability Tr(rho E) of the outcome of effect E, when a
    conditional given it is defined: above CONDITIONAL_TOL times ||E||_F,
    taken for a factor pair (W, t) as t ||W^dagger W||_F so that E is never
    formed.  Raises ValueError otherwise."""
    if isinstance(effect, tuple):
        w, t = np.asarray(effect[0]), effect[1]
        scale = abs(t) * frobenius(w.conj().T @ w)
    else:
        scale = frobenius(effect)
    if p <= CONDITIONAL_TOL * scale:
        raise ValueError(f"outcome probability {float(p)!r} too small: conditional undefined")
    return p


@dataclass(frozen=True, eq=False)
class Support:
    """Retained eigenpairs of a PSD matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)


def real_trace(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    return v * (abs(pivot) / pivot)
