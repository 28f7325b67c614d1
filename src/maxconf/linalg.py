"""Dense complex linear algebra shared by every other module.

Operators are plain numpy arrays (complex128, row major).  Bipartite
operators use the left-major composite index: basis state |a>_L |i>_R
sits at row a * dim_right + i.  support() alone decides which eigenvalues
of a PSD matrix count as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative cutoff separating "zero" eigenvalues from the support.
RANK_TOL = 1e-12
# Relative Frobenius deviation tolerated before a matrix is rejected
# as non-Hermitian.
HERMITICITY_TOL = 1e-9
# Slack allowed on the most negative eigenvalue of a nominally
# positive semidefinite operator.
PSD_TOL = 1e-10


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
    an exactly Hermitian operand regardless of roundoff in the input.
    """
    arr = as_matrix(m)
    n, k = arr.shape
    if n != k:
        raise ValueError(f"{name} is not square: shape {arr.shape}")
    scale = frobenius(arr)
    if frobenius(arr - arr.conj().T) > HERMITICITY_TOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian within relative tolerance {HERMITICITY_TOL}")
    return hermitize(arr)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors[:, k] is the
    unit-norm eigenvector paired with eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(m) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    h = require_hermitian(m)
    vals, vecs = np.linalg.eigh(h)
    vals = _readonly(np.ascontiguousarray(vals[::-1].real))
    vecs = _readonly(np.ascontiguousarray(vecs[:, ::-1]))
    return EigenSystem(vals, vecs)


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
    """Eigenpairs above RANK_TOL of the largest eigenvalue; the rest are zeros.

    Raises ValueError for the zero matrix and beyond the PSD slack.
    """
    eig = hermitian_eigen(m)
    top = float(eig.eigenvalues[0])
    if eig.eigenvalues[-1] < -PSD_TOL * max(top, 0.0):
        raise ValueError(f"matrix has a negative eigenvalue beyond tolerance: {eig.eigenvalues[-1]:.3e}")
    if top <= 0.0:
        raise ValueError(f"matrix has no support (largest eigenvalue {top:.3e})")
    keep = eig.eigenvalues > RANK_TOL * top
    return Support(_readonly(eig.eigenvalues[keep]), _readonly(eig.eigenvectors[:, keep]))


def real_trace(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0.0:
        return v
    return v * (abs(pivot) / pivot)
