import re

import numpy as np
import pytest

from maxconf.linalg import (
    _kept_factor,
    as_matrix,
    checked_effect,
    gram,
    hermitian_in_place,
    kept,
    kept_svd,
    sandwich,
)

from randomgen import hermitize


def random_psd(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def test_as_matrix_rejects_an_array_of_three_dimensions():
    with pytest.raises(ValueError, match="^expected a matrix, got array of dimension 3$"):
        as_matrix(np.zeros((2, 2, 2)))


class TestKeptSvd:
    @pytest.mark.parametrize("rows, cols, rank", [
        (5, 3, 3), (3, 5, 3), (6, 6, 6), (8, 6, 2), (4, 9, 3), (7, 7, 1),
    ])
    def test_equals_the_hand_cut_bit_for_bit(self, rows, cols, rank):
        rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
        g = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        h = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        m = g @ h
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        keep = kept(s * s)
        assert np.count_nonzero(keep) == rank
        cut = kept_svd(m)
        for mine, hand in zip(cut, (u[:, keep], s[keep], vh[keep])):
            assert mine.shape == hand.shape and mine.tobytes() == hand.tobytes()

    def test_drops_a_singular_value_below_the_cutoff(self):
        # s^2 relative 1e-14 is dropped, 1e-10 kept: the cut is on s squared
        m = np.diag([1.0, 1e-5, 1e-7]).astype(complex)
        u, s, vh = kept_svd(m)
        assert u.shape == (3, 2) and vh.shape == (2, 3)
        assert s.tolist() == [1.0, 1e-5]


class TestGram:
    def test_a_real_factor_gives_its_complex_effect(self):
        e = gram(np.array([[1.0], [0.0]]))
        assert e.dtype == np.complex128 and not e.flags.writeable
        assert e.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        f = np.random.default_rng(41).standard_normal((5, 3))
        assert np.array_equal(gram(f, 0.3), hermitize(0.3 * (f @ f.T)))

    @pytest.mark.parametrize("dim, cols, scale", [(2, 1, 1.0), (5, 3, 0.3), (8, 8, 2.5)])
    def test_a_complex_factor_keeps_its_bits(self, dim, cols, scale):
        # one in-place pass, bit for bit the hermitized product
        rng = np.random.default_rng(dim * 10 + cols)
        f = rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))
        m = f @ f.conj().T
        m *= scale
        assert gram(f, scale).tobytes() == hermitize(m).tobytes()


class TestNonFiniteOperands:
    """Every comparison with NaN is false, so only an explicit check names it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_matrix_is_rejected_before_its_other_checks(self, bad):
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            hermitian_in_place(np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex))
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            hermitian_in_place(np.array([[1.0, bad, 0.0], [0.0, 1.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError, match="^effect has a non-finite entry$"):
            hermitian_in_place(np.array([[1.0, bad], [0.0, 1.0]], dtype=complex), "effect")
        with pytest.raises(ValueError, match="^effect has a non-finite entry$"):
            checked_effect(np.array([[1.0, bad], [0.0, 1.0]]), 2, "effect")

    @pytest.mark.parametrize("pair", [
        (np.array([[np.nan], [1.0]]), 1.0),
        (np.array([[np.inf], [1.0]]), 1.0),
        (np.array([[1.0], [0.0]]), np.nan),
        (np.array([[1.0], [0.0]]), np.inf),
        (np.array([[1.0], [0.0]]), -np.inf),
    ], ids=["nan-W", "inf-W", "nan-t", "inf-t", "minus-inf-t"])
    def test_a_factor_pair_is_rejected_when_checked(self, pair):
        with pytest.raises(ValueError, match="^effect 3 has a non-finite entry$"):
            checked_effect(pair, 2, "effect 3")


class TestHermitianInPlace:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="^matrix is not square: shape \\(2, 3\\)$"):
            hermitian_in_place(np.ones((2, 3), dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="^matrix is not Hermitian within relative tolerance 1e-09$"):
            hermitian_in_place(m)

    def test_accepts_tiny_hermiticity_noise_and_writes_the_hermitian_part_over_its_operand(self):
        m = np.diag([1.0, 2.0]).astype(complex)
        m[0, 1] = 1e-13
        reference = (m + m.conj().T) / 2
        h = hermitian_in_place(m)
        assert h is m and h.tobytes() == reference.tobytes()
        assert np.allclose(np.linalg.eigvalsh(h), [1.0, 2.0], atol=1e-12)


class TestHermitize:
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 3e5])
    def test_equals_the_reference_bit_for_bit(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 100)
        for dim in (1, 2, 3, 7, 16, 33, 64):
            m = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            before = m.copy()
            h = hermitize(m)
            assert h.dtype == np.complex128 and h is not m
            assert h.tobytes() == ((m + m.conj().T) / 2).tobytes()
            assert m.tobytes() == before.tobytes()


class TestCheckedEffect:
    def test_a_checked_matrix_leaves_the_callers_array_as_it_is(self):
        rng = np.random.default_rng(16)
        e = random_psd(rng, 3, 2)
        e[0, 1] += 1e-13  # Hermitian within tolerance, but not exactly
        before = e.copy()
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        checked = sandwich(checked_effect(e, 3, "effect"), a)
        assert e.tobytes() == before.tobytes()
        assert checked.tobytes() == sandwich(hermitize(e), a).tobytes()

    def test_a_pair_comes_back_with_its_own_factor_and_a_float_scale(self):
        w = np.ones((3, 2), dtype=complex)
        checked_w, t = checked_effect((w, 2), 3, "effect")
        assert checked_w is w and type(t) is float and t == 2.0
        assert checked_effect((w, 0.0), 3, "effect")[1] == 0.0  # the zero effect is PSD

    @pytest.mark.parametrize("t", [-1e-300, -0.5, -np.float64(2.0)])
    def test_a_negative_scale_is_rejected(self, t):
        # t W W^dagger is negative for any W != 0, whatever a fail effect makes up
        with pytest.raises(ValueError, match=f"^effect 0 has a negative scale t = {re.escape(repr(float(t)))}$"):
            checked_effect((np.eye(2), t), 2, "effect 0")

    @pytest.mark.parametrize("effect", [np.eye(3), (np.ones((3, 1)), 1.0), (np.ones((1, 2)), 1.0)],
                             ids=["matrix", "pair", "pair-of-one-row"])
    def test_a_row_count_other_than_the_dimension_is_rejected(self, effect):
        with pytest.raises(ValueError, match="^effect must have 2 rows$"):
            checked_effect(effect, 2, "effect")

    def test_a_factor_that_is_not_a_matrix_is_rejected(self):
        with pytest.raises(ValueError, match="^expected a matrix, got array of dimension 1$"):
            checked_effect((np.ones(2), 1.0), 2, "effect")


def support_of(m):
    """(U, s^2) of m's kept factor, the route Ensemble.support takes for the average."""
    u, s, _ = kept_svd(_kept_factor(m, np.linalg.eigvalsh(m)))
    return u, s * s


class TestSupport:
    def test_identity(self):
        f = _kept_factor(np.eye(3, dtype=complex), np.ones(3))
        assert f.shape == (3, 3)
        assert np.abs(f @ f.conj().T - np.eye(3)).max() <= 1e-14

    def test_rank_deficient_diagonal(self):
        m = np.diag([4.0, 0.0]).astype(complex)
        f = _kept_factor(m, np.linalg.eigvalsh(m))
        assert f[:, 0].tolist() == [2.0, 0.0] and f.shape == (2, 1)
        u, vals = support_of(m)
        assert np.allclose(vals, [4.0], atol=1e-14)
        assert np.allclose(u @ u.conj().T, np.diag([1.0, 0.0]), atol=1e-14)

    def test_sandwich_gives_support_projector(self):
        rng = np.random.default_rng(11)
        for dim, rank in ((3, 2), (4, 2), (5, 4)):
            m = hermitize(random_psd(rng, dim, rank))
            u, vals = support_of(m)
            r = (u / np.sqrt(vals)) @ u.conj().T
            assert np.linalg.norm(r @ m @ r - u @ u.conj().T) <= 1e-9
            assert u.shape[1] == rank

    def test_inverse_on_support(self):
        rng = np.random.default_rng(12)
        m = hermitize(random_psd(rng, 4, 4))
        u, vals = support_of(m)
        assert np.linalg.norm((u / vals) @ u.conj().T @ m - np.eye(4)) <= 1e-8

    @pytest.mark.parametrize("dim, rank", [(5, 1), (5, 3), (8, 8)])
    def test_kept_factor_rebuilds_a_psd_matrix_at_its_kept_rank(self, dim, rank):
        m = hermitize(random_psd(np.random.default_rng(14), dim, rank))
        f = _kept_factor(m, np.linalg.eigvalsh(m))
        assert f.shape == (dim, rank) and not f.flags.writeable
        assert np.linalg.norm(f @ f.conj().T - m) <= 1e-12 * np.linalg.norm(m)

    def test_kept_factor_stops_without_a_positive_pivot(self):
        # a spectrum that counts one more kept eigenvalue than the pivots find
        m = np.diag([0.5, 0.0, 0.5]).astype(complex)
        f = _kept_factor(m, np.array([0.5, 0.5, 0.5]))
        assert f.shape == (3, 2)
        assert np.abs(f @ f.conj().T - m).max() <= 1e-15

    def test_kept_factor_drops_eigenvalues_under_the_cutoff(self):
        m = np.diag([1.0, 1e-14]).astype(complex)
        f = _kept_factor(m, np.linalg.eigvalsh(m))
        assert f.shape == (2, 1) and f[:, 0].tolist() == [1.0, 0.0]

    def test_kept_factor_falls_back_to_one_eigh_relative_to_the_trace(self):
        # Pivoted Cholesky leaves the -5e-11 direction's Schur complement out:
        # far under RANK_TOL in absolute terms at a trace of 1e-6, but more
        # than RANK_TOL of that trace, so eigh drops exactly it.
        q, _ = np.linalg.qr(random_psd(np.random.default_rng(15), 3, 3))
        m = hermitize(1e-6 * (q @ np.diag([0.5, 0.5 + 5e-11, -5e-11]) @ q.conj().T))
        vals, vecs = np.linalg.eigh(m)
        keep = kept(vals)
        f = _kept_factor(m, np.linalg.eigvalsh(m))
        assert f.tobytes() == (vecs[:, keep] * np.sqrt(vals[keep])).tobytes()
        assert f.shape == (3, 2) and not f.flags.writeable

    def test_rank_tolerance_is_relative(self):
        # 1e-9 relative to a top eigenvalue of 1e6 stays in the support
        assert kept(np.array([1e6, 1e-3])).tolist() == [True, True]
        assert kept(np.array([1e6, 1e-7])).tolist() == [True, False]
