import numpy as np
import pytest

from maxconf.linalg import (
    as_matrix,
    hermitian_eigen,
    hermitize,
    kept,
    pivoted_factor,
    psd_factor,
    support,
)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(g)


def random_psd(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def test_as_matrix_rejects_an_array_of_three_dimensions():
    with pytest.raises(ValueError, match="^expected a matrix, got array of dimension 3$"):
        as_matrix(np.zeros((2, 2, 2)))


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


def inverse_root(supp, power):
    """rho^{-power} on the support, from its kept eigenpairs."""
    v = supp.eigenvectors
    return (v / supp.eigenvalues ** power) @ v.conj().T


class TestSupport:
    def test_identity(self):
        supp = support(np.eye(3))
        assert np.allclose(supp.eigenvalues, 1.0, atol=1e-14)
        assert np.allclose(supp.projector, np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        supp = support(np.diag([4.0, 0.0]))
        assert np.allclose(supp.eigenvalues, [4.0], atol=1e-14)
        assert np.allclose(inverse_root(supp, 0.5), np.diag([0.5, 0.0]), atol=1e-14)
        assert np.allclose(supp.projector, np.diag([1.0, 0.0]), atol=1e-14)

    def test_sandwich_gives_support_projector(self):
        rng = np.random.default_rng(11)
        for dim, rank in ((3, 2), (4, 2), (5, 4)):
            m = random_psd(rng, dim, rank)
            supp = support(m)
            r = inverse_root(supp, 0.5)
            assert np.linalg.norm(r @ m @ r - supp.projector) <= 1e-9
            assert supp.rank == rank

    def test_inverse_on_support(self):
        rng = np.random.default_rng(12)
        m = random_psd(rng, 4, 4)
        assert np.linalg.norm(inverse_root(support(m), 1.0) @ m - np.eye(4)) <= 1e-8

    def test_factor_rebuilds_the_kept_part(self):
        rng = np.random.default_rng(13)
        m = random_psd(rng, 5, 3)
        vals, vecs = np.linalg.eigh(m)
        f = psd_factor(vals, vecs, kept(vals))
        assert f.shape == (5, 3) and not f.flags.writeable
        assert np.linalg.norm(f @ f.conj().T - m) <= 1e-12 * np.linalg.norm(m)

    @pytest.mark.parametrize("dim, rank", [(5, 1), (5, 3), (8, 8)])
    def test_pivoted_factor_rebuilds_a_psd_matrix_of_known_rank(self, dim, rank):
        m = random_psd(np.random.default_rng(14), dim, rank)
        f = pivoted_factor(m, rank)
        assert f.shape == (dim, rank) and not f.flags.writeable
        assert np.linalg.norm(f @ f.conj().T - m) <= 1e-12 * np.linalg.norm(m)

    def test_pivoted_factor_stops_without_a_positive_pivot(self):
        f = pivoted_factor(np.diag([0.5, 0.0, 0.5]).astype(complex), 3)
        assert f.shape == (3, 2)
        assert np.abs(f @ f.conj().T - np.diag([0.5, 0.0, 0.5])).max() <= 1e-15

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="support"):
            support(np.zeros((2, 2)))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            support(np.diag([1.0, -0.1]))

    def test_rank_tolerance_is_relative(self):
        # 1e-9 relative to a top eigenvalue of 1e6 stays in the support
        m = np.diag([1e6, 1e-3])
        assert support(m).rank == 2
        assert support(np.diag([1e6, 1e-7])).rank == 1
