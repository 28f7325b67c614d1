"""Dense complex linear algebra shared by every other module.

Operators are plain numpy arrays (complex128, row major).  Bipartite
operators use the left-major composite index: basis state |a>_L |i>_R
sits at row a * R + i, R the right-side dimension.  kept() alone decides
which eigenvalues count as zero, and within_psd_slack() what counts as
positive.
A PSD matrix is held as a factor F, F F^dagger rebuilt by gram():
psd_factor() takes it from an eigendecomposition, pivoted_factor() from
the matrix's own columns with no decomposition.  An effect is read, as a
matrix or as such a factor, only by sandwich().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Rank: kept() keeps the entries of a spectrum above RANK_TOL times the largest.
RANK_TOL = 1e-12
# Relative Frobenius deviation tolerated before a matrix is rejected
# as non-Hermitian.
HERMITICITY_TOL = 1e-9
# PSD slack: the most negative eigenvalue may reach -PSD_TOL times the scale, the
# trace for a (weighted) state, so rho_j and p_j rho_j agree, and 1 for an effect.
PSD_TOL = 1e-10


def kept(spectrum: np.ndarray) -> np.ndarray:
    """Rank mask; singular values go in squared, so a matrix's rank is its Gram matrix's."""
    return spectrum > RANK_TOL * spectrum.max()


def within_psd_slack(lowest: float, scale: float) -> bool:
    return lowest >= -PSD_TOL * scale


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of dimension {arr.ndim}")
    return arr


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dagger) / 2."""
    return (m + m.conj().T) / 2


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """Validate that m is square and Hermitian, return its Hermitian part.

    The symmetrized matrix is returned so that downstream eigensolvers see
    an exactly Hermitian operand regardless of roundoff in the input.  It
    is a new array; m is left as it is.
    """
    return hermitian_in_place(np.array(m, dtype=np.complex128), name)


def hermitian_in_place(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """require_hermitian for an array the caller owns: the same checks and
    messages, then the Hermitian part, with hermitize's float operations,
    is written over m and returned."""
    arr = as_matrix(m)
    n, k = arr.shape
    if n != k:
        raise ValueError(f"{name} is not square: shape {arr.shape}")
    scale = frobenius(arr)
    re, im = arr.real, arr.imag  # the anti-Hermitian part, one real half at a time
    if math.hypot(frobenius(re - re.T), frobenius(im + im.T)) > HERMITICITY_TOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian within relative tolerance {HERMITICITY_TOL}")
    return _symmetrized(arr)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """hermitize(m), bit for bit, written over m one real half at a time."""
    re, im = m.real, m.imag
    re += re.T
    im -= im.T
    m /= 2
    return m


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """numpy's (eigenvalues, eigenvectors) pair of a Hermitian matrix, both
    read-only and in descending order: column k belongs to eigenvalue k."""
    vals, vecs = np.linalg.eigh(require_hermitian(m))
    return _readonly(np.ascontiguousarray(vals[::-1])), _readonly(np.ascontiguousarray(vecs[:, ::-1]))


def psd_factor(vals: np.ndarray, vecs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """F = vecs[:, keep] sqrt(vals[keep]): F F^dagger keeps the selected eigenpairs."""
    return _readonly(vecs[:, keep] * np.sqrt(vals[keep]))


def pivoted_factor(h: np.ndarray, rank: int) -> np.ndarray:
    """F with F F^dagger = h for a PSD h of known rank, by pivoted Cholesky.

    Each of at most `rank` steps takes the column of the largest remaining
    diagonal entry of h - F F^dagger, so no d x d array is made.  It stops
    early, with fewer columns, when no remaining diagonal entry is positive.
    """
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
    return _readonly(f)


def gram(f: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """hermitize(scale * f f^dagger), read-only, with one d x d temporary."""
    m = f @ f.conj().T
    m *= scale
    return _readonly(_symmetrized(m))


def sandwich(effect, a: np.ndarray, diagonal: bool = False, checked: bool = False) -> np.ndarray:
    """a^T E^* a^*, the conjugate of a^dagger E a, for an effect E on the
    left system that a's rows index; with diagonal, the real part of its
    diagonal, one entry per column of a.

    E comes as a d x d matrix or as the factor pair (W, t) of E = t W W^dagger,
    read as t X^T X^* with X = W^dagger a, so that E is never formed.  This is
    the one place where the two forms differ.  checked marks a caller's
    effect: a matrix is validated by require_hermitian, and either form must
    act on the left system.
    """
    pair = isinstance(effect, tuple)
    if checked and not pair:
        effect = require_hermitian(effect, name="effect")
    if checked and len(effect[0] if pair else effect) != len(a):
        raise ValueError("effect must act on the left system")
    if not pair:
        if diagonal:
            g = effect @ a
            return (a.real * g.real + a.imag * g.imag).sum(axis=0)  # Re a_c^dagger (E a_c)
        return a.T @ effect.conj() @ a.conj()
    w, t = effect
    x = w.conj().T @ a
    if diagonal:
        return t * (x.real ** 2 + x.imag ** 2).sum(axis=0)
    return t * (x.T @ x.conj())


@dataclass(frozen=True, eq=False)
class Support:
    """Retained eigenpairs of a PSD matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)

    @cached_property
    def projector(self) -> np.ndarray:
        return _readonly(self.eigenvectors @ self.eigenvectors.conj().T)


def support(m) -> Support:
    """The kept eigenpairs of a state or weighted state; the rest are zeros.

    Raises ValueError beyond the PSD slack (at the trace) and for the zero matrix.
    """
    vals, vecs = hermitian_eigen(m)
    if not within_psd_slack(vals[-1], vals.sum()):
        raise ValueError(f"matrix has a negative eigenvalue beyond tolerance: {vals[-1]:.3e}")
    if vals[0] <= 0.0:
        raise ValueError(f"matrix has no support (largest eigenvalue {vals[0]:.3e})")
    keep = kept(vals)
    return Support(_readonly(vals[keep]), _readonly(vecs[:, keep]))


def real_trace(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0.0:
        return v
    return v * (abs(pivot) / pivot)
