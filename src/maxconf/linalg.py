"""Dense complex linear algebra shared by every other module.

Operators are plain numpy arrays (complex128, row major).  Bipartite
operators use the left-major composite index: basis state |a>_L |i>_R
sits at row a * dim_right + i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative cutoff separating "zero" eigenvalues from the support.
RANK_TOL = 1e-12
# Relative Frobenius deviation tolerated before a matrix is rejected
# as non-Hermitian.
HERMITICITY_TOL = 1e-9
# Slack allowed on the most negative eigenvalue of a nominally
# positive semidefinite operator.
PSD_TOL = 1e-10


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


def require_hermitian(m, name: str = "matrix", tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate that m is square and Hermitian, return its Hermitian part.

    The symmetrized matrix is returned so that downstream eigensolvers see
    an exactly Hermitian operand regardless of roundoff in the input.
    """
    arr = as_matrix(m)
    n, k = arr.shape
    if n != k:
        raise ValueError(f"{name} is not square: shape {arr.shape}")
    scale = frobenius(arr)
    if frobenius(arr - arr.conj().T) > tol * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian within relative tolerance {tol}")
    return hermitize(arr)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and sorted descending; eigenvectors[:, k] is the
    unit-norm eigenvector paired with eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(m, name: str = "matrix") -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    h = require_hermitian(m, name=name)
    vals, vecs = np.linalg.eigh(h)
    vals = np.ascontiguousarray(vals[::-1].real)
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenSystem(vals, vecs)


def _support_spectrum(m, name: str, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Retained (eigenvalue, eigenvector) pairs of a PSD matrix's support."""
    eig = hermitian_eigen(m, name=name)
    top = float(eig.eigenvalues[0])
    if eig.eigenvalues[-1] < -PSD_TOL * max(top, 0.0):
        raise ValueError(
            f"{name} has a negative eigenvalue beyond tolerance: {eig.eigenvalues[-1]:.3e}"
        )
    if top <= 0.0:
        raise ValueError(f"{name} has no support (largest eigenvalue {top:.3e})")
    keep = eig.eigenvalues > rank_tol * top
    return eig.eigenvalues[keep], eig.eigenvectors[:, keep]


def support_rank(m, rank_tol: float = RANK_TOL) -> int:
    vals, _ = _support_spectrum(m, "matrix", rank_tol)
    return int(vals.size)


def support_projector(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    _, vecs = _support_spectrum(m, "matrix", rank_tol)
    return vecs @ vecs.conj().T


def support_inv_sqrt(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Inverse square root of a PSD matrix restricted to its support.

    Eigenvalues at or below rank_tol relative to the largest one are treated
    as exact zeros and excluded; the result annihilates their eigenvectors.
    Raises ValueError for the zero matrix (no support) and for matrices with
    a negative eigenvalue beyond the PSD slack.
    """
    vals, vecs = _support_spectrum(m, "matrix", rank_tol)
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def support_inv(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a PSD matrix via its eigendecomposition."""
    vals, vecs = _support_spectrum(m, "matrix", rank_tol)
    return (vecs / vals) @ vecs.conj().T


def real_trace(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its largest-magnitude entry is real positive."""
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0.0:
        return v
    return v * (abs(pivot) / pivot)
