import numpy as np
import pytest

from maxconf import (
    BipartiteState,
    Ensemble,
    allowed_subspace,
    purify,
    schmidt,
)
from maxconf.ensembles import StateError

from randomgen import ensemble_suite, random_bipartite
from helpers import (
    bell_state,
    trine,
    trine_kets,
    worked,
    worked_perp,
    worked_purification,
)


class TestEnsembleValidation:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble.from_pure([np.array([1, 0]), np.array([0, 1])], [0.6, 0.5])

    def test_priors_strictly_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Ensemble.from_pure([np.array([1, 0]), np.array([0, 1])], [1.0, 0.0])

    def test_states_must_be_psd(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        good = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="positive semidefinite"):
            Ensemble(2, (bad, good), np.array([0.5, 0.5]))

    def test_states_must_have_unit_trace(self):
        bad = np.diag([0.6, 0.6]).astype(complex)
        with pytest.raises(ValueError, match="trace"):
            Ensemble(2, (bad,), np.array([1.0]))

    def test_states_must_be_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            Ensemble(2, (bad,), np.array([1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Ensemble(3, (np.eye(2, dtype=complex) / 2,), np.array([1.0]))

    def test_priors_must_be_finite(self):
        # every comparison with NaN is false, so only an explicit check stops it
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                Ensemble(2, (np.eye(2) / 2, np.diag([1.0, 0.0])), np.array([bad, 1.0]))

    def test_states_must_be_finite(self, monkeypatch):
        def no_decomposition(*args, **kwargs):
            raise AssertionError("decomposed a non-finite state")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_decomposition)
        for bad in (np.nan, np.inf):
            rho = np.array([[0.5, bad], [bad, 0.5]])
            with pytest.raises(StateError, match="state 0 has a non-finite entry") as info:
                Ensemble(2, (rho, np.eye(2) / 2), np.array([0.5, 0.5]))
            assert info.value.index == 0

    def test_from_pure_needs_a_state(self):
        with pytest.raises(ValueError, match="at least one state"):
            Ensemble.from_pure([], [])


class TestPurify:
    def test_single_pure_state(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0])], [1.0])
        bs = purify(ens)
        assert bs.dim_right == 1
        assert bs.index_sets == ((0,),)
        assert np.allclose(bs.amplitudes, [[1.0], [0.0]], atol=1e-14)

    def test_two_pure_states_direct_columns(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), plus], [0.5, 0.5])
        bs = purify(ens)
        expected = np.column_stack([np.sqrt(0.5) * np.array([1.0, 0.0]), np.sqrt(0.5) * plus])
        assert np.abs(bs.amplitudes - expected).max() <= 1e-12
        assert bs.index_sets == ((0,), (1,))

    def test_worked_example_layout(self):
        # q > 1/2 so the mixed block's eigenvalues p*q > p*(1-q) come out
        # in the documented column order
        p, q = 0.5, 0.8
        bs = purify(worked(p, q))
        assert bs.index_sets == ((0, 1), (2,))
        expected = worked_purification(p, q)
        assert np.abs(bs.amplitudes - expected.amplitudes).max() <= 1e-12

    def test_block_reconstruction(self):
        for ens in ensemble_suite(101, 20):
            bs = purify(ens)
            for j, idx in enumerate(bs.index_sets):
                cols = bs.amplitudes[:, list(idx)]
                block = cols @ cols.conj().T
                target = ens.priors[j] * ens.states[j]
                assert np.linalg.norm(block - target) <= 1e-10

    def test_normalized(self):
        for ens in ensemble_suite(102, 10):
            bs = purify(ens)
            assert abs(np.linalg.norm(bs.amplitudes) - 1.0) <= 1e-12

    def test_left_marginal_is_average(self):
        for ens in ensemble_suite(103, 10):
            bs = purify(ens)
            assert np.linalg.norm(bs.left_marginal() - ens.average) <= 1e-10


class TestRhoLeft:
    def test_trine_average_is_maximally_mixed(self):
        direct = sum(np.outer(k, k.conj()) for k in trine_kets()) / 3.0
        ens = trine()
        assert np.abs(ens.average - direct).max() <= 1e-14
        assert np.abs(ens.average - np.eye(2) / 2.0).max() <= 1e-12

    def test_worked_average_by_hand(self):
        # p = q = 1/2: rho = [[1/2, 1/4], [1/4, 1/2]]
        expected = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert np.abs(worked(0.5, 0.5).average - expected).max() <= 1e-14


class TestSchmidt:
    def test_bell(self):
        sd = schmidt(bell_state())
        assert np.allclose(sd.coefficients, [0.5, 0.5], atol=1e-14)
        assert sd.rank == 2

    def test_product_state(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 1.0
        bs = BipartiteState(2, 2, amps, ((0,), (1,)))
        sd = schmidt(bs)
        assert sd.rank == 1
        assert np.allclose(sd.coefficients, [1.0], atol=1e-14)

    def test_sine_cosine_split(self):
        theta = 0.7
        amps = np.diag([np.cos(theta), np.sin(theta)]).astype(complex)
        bs = BipartiteState(2, 2, amps, ((0,), (1,)))
        sd = schmidt(bs)
        assert np.allclose(sd.coefficients, [np.cos(theta) ** 2, np.sin(theta) ** 2], atol=1e-14)

    def test_coefficients_match_left_marginal_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            bs = random_bipartite(rng, 3, 4, 3)
            sd = schmidt(bs)
            spectrum = np.linalg.eigvalsh(bs.left_marginal())[::-1][: sd.rank]
            assert np.abs(sd.coefficients - spectrum).max() <= 1e-10

    def test_reconstructs_amplitudes(self):
        for ens in ensemble_suite(104, 15):
            bs = purify(ens)
            sd = schmidt(bs)
            assert np.linalg.norm(sd.reconstruct() - bs.amplitudes) <= 1e-9

    def test_invariant_under_right_relabelling(self):
        rng = np.random.default_rng(22)
        bs = random_bipartite(rng, 3, 5, 3)
        perm = rng.permutation(5)
        relabelled = BipartiteState(
            3, 5, bs.amplitudes[:, perm], tuple((i,) for i in range(5))
        )
        a = schmidt(bs).coefficients
        b = schmidt(relabelled).coefficients
        assert np.abs(a - b).max() <= 1e-12


class TestAllowedSubspace:
    def test_bell_reaches_everything(self):
        bs = bell_state()
        pd = allowed_subspace(bs, bs.left_marginal())
        assert pd.rank == 2
        assert np.abs(pd.matrix - np.eye(2)).max() <= 1e-12

    def test_single_state_purification(self):
        ens = Ensemble.from_pure([np.array([0.6, 0.8])], [1.0])
        bs = purify(ens)
        pd = allowed_subspace(bs, ens.average)
        assert pd.rank == 1
        assert np.abs(pd.matrix - np.array([[1.0]])).max() <= 1e-12

    def test_worked_example_orthogonal_complement(self):
        for p, q in ((0.5, 0.5), (0.3, 0.2), (0.7, 0.6), (0.2, 0.9)):
            bs = worked_purification(p, q)
            pd = allowed_subspace(bs, bs.left_marginal())
            perp = worked_perp(p, q)
            expected = np.eye(3) - np.outer(perp, perp.conj())
            assert np.abs(pd.matrix - expected).max() <= 1e-10
            assert pd.rank == 2

    def test_trace_formula_matches_schmidt_projectors(self):
        for ens in ensemble_suite(105, 30):
            bs = purify(ens)
            pd = allowed_subspace(bs, ens.average)
            sd = schmidt(bs)
            direct = sd.right_vectors @ sd.right_vectors.conj().T
            assert np.linalg.norm(pd.matrix - direct) <= 1e-10
            assert pd.rank == sd.rank

    def test_projector_fixes_right_marginal(self):
        for ens in ensemble_suite(106, 10):
            bs = purify(ens)
            pd = allowed_subspace(bs, ens.average)
            rr = bs.right_marginal()
            assert np.linalg.norm(pd.matrix @ rr - rr) <= 1e-10

    def test_inconsistent_marginal_rejected(self):
        bs = bell_state()
        with pytest.raises(ValueError, match="inconsistent"):
            allowed_subspace(bs, np.diag([0.9, 0.1]).astype(complex))


class TestBipartiteStateValidation:
    def test_norm_enforced(self):
        amps = np.eye(2, dtype=complex)  # norm sqrt(2)
        with pytest.raises(ValueError, match="norm"):
            BipartiteState(2, 2, amps, ((0,), (1,)))

    def test_index_sets_must_partition(self):
        amps = np.eye(2, dtype=complex) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="partition"):
            BipartiteState(2, 2, amps, ((0,), (0,)))
        with pytest.raises(ValueError, match="partition"):
            BipartiteState(2, 2, amps, ((0,),))
