"""Dense complex linear algebra shared by every other module.

Operators are plain numpy arrays (complex128, row major).  Bipartite
operators use the left-major composite index: basis state |a>_L |i>_R
sits at row a * R + i, R the right-side dimension.  kept() alone decides
which eigenvalues count as zero, and within_psd_slack() what counts as
positive.
hermitian_eigen() is the one full eigendecomposition: support() and
Ensemble.top() are its callers.
"""

from __future__ import annotations

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


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


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
    if frobenius(arr - arr.conj().T) > HERMITICITY_TOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian within relative tolerance {HERMITICITY_TOL}")
    arr += arr.conj().T
    arr /= 2
    return arr


def hermitian_eigen(m) -> tuple[np.ndarray, np.ndarray]:
    """numpy's (eigenvalues, eigenvectors) pair of a Hermitian matrix, both
    read-only and in descending order: column k belongs to eigenvalue k."""
    vals, vecs = np.linalg.eigh(require_hermitian(m))
    return _readonly(np.ascontiguousarray(vals[::-1])), _readonly(np.ascontiguousarray(vecs[:, ::-1]))


@dataclass(frozen=True, eq=False)
class Support:
    """Retained eigenpairs of a PSD matrix, eigenvalues descending; the
    pseudo-inverse, its square root and the projector act on their span."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)

    @cached_property
    def projector(self) -> np.ndarray:
        return _readonly(self.eigenvectors @ self.eigenvectors.conj().T)

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        v = self.eigenvectors
        return _readonly((v / np.sqrt(self.eigenvalues)) @ v.conj().T)

    @cached_property
    def inv(self) -> np.ndarray:
        v = self.eigenvectors
        return _readonly((v / self.eigenvalues) @ v.conj().T)


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
