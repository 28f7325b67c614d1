import numpy as np
import pytest

from maxconf.linalg import (
    hermitian_eigen,
    hermitize,
    support,
)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(g)


def random_psd(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


class TestHermitianEigen:
    def test_identity(self):
        vals, _ = hermitian_eigen(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        vals, vecs = hermitian_eigen(np.diag([0.25, 0.75]))
        assert np.allclose(vals, [0.75, 0.25], atol=1e-14)
        # eigenvector of the top eigenvalue is e1
        assert abs(abs(vecs[1, 0]) - 1.0) < 1e-14

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals, vecs = hermitian_eigen(x)
        assert np.allclose(vals, [1.0, -1.0], atol=1e-14)
        v = vecs[:, 0]
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.abs(np.outer(v, v.conj()) - np.outer(expected, expected)).max() < 1e-14

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 5, 8):
            m = random_hermitian(rng, dim)
            vals, v = hermitian_eigen(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm((v * vals) @ v.conj().T - m) <= 1e-9 * scale
            gram = v.conj().T @ v
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10
            assert abs(vals.sum() - np.trace(m).real) <= 1e-10 * max(scale, 1.0)
            assert np.all(np.diff(vals) <= 1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            hermitian_eigen(m)

    def test_accepts_tiny_hermiticity_noise(self):
        m = np.diag([1.0, 2.0]).astype(complex)
        m[0, 1] = 1e-13
        vals, _ = hermitian_eigen(m)
        assert np.allclose(vals, [2.0, 1.0], atol=1e-12)


class TestSupportInvSqrt:
    def test_identity(self):
        assert np.allclose(support(np.eye(3)).inv_sqrt, np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        r = support(np.diag([4.0, 0.0])).inv_sqrt
        assert np.allclose(r, np.diag([0.5, 0.0]), atol=1e-14)

    def test_sandwich_gives_support_projector(self):
        rng = np.random.default_rng(11)
        for dim, rank in ((3, 2), (4, 2), (5, 4)):
            m = random_psd(rng, dim, rank)
            r = support(m).inv_sqrt
            proj = support(m).projector
            assert np.linalg.norm(r @ m @ r - proj) <= 1e-9
            assert np.linalg.norm(hermitize(r) - r) <= 1e-12
            assert support(m).rank == rank

    def test_inverse_on_support(self):
        rng = np.random.default_rng(12)
        m = random_psd(rng, 4, 4)
        assert np.linalg.norm(support(m).inv @ m - np.eye(4)) <= 1e-8

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="support"):
            support(np.zeros((2, 2))).inv_sqrt

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            support(np.diag([1.0, -0.1])).inv_sqrt

    def test_rank_tolerance_is_relative(self):
        # 1e-9 relative to a top eigenvalue of 1e6 stays in the support
        m = np.diag([1e6, 1e-3])
        assert support(m).rank == 2
        assert support(np.diag([1e6, 1e-7])).rank == 1
