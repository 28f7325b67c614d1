import re

import numpy as np
import pytest

from maxconf import (
    BipartiteState,
    Ensemble,
    SchmidtDecomposition,
    SubspaceProjector,
    allowed_subspace,
    purify,
    schmidt,
)
from maxconf.ensembles import StateError, checked_state

from randomgen import ensemble_suite, random_bipartite, random_members, random_unitary
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

    def test_priors_are_copied(self):
        # the stored priors are frozen; the caller's array must not be
        p = np.array([0.5, 0.5])
        ens = Ensemble(2, (np.eye(2) / 2, np.diag([1.0, 0.0])), p)
        p[0] = 0.7
        assert ens.priors[0] == 0.5
        assert not ens.priors.flags.writeable

    def test_from_pure_needs_a_state(self):
        with pytest.raises(ValueError, match="at least one state"):
            Ensemble.from_pure([], [])

    @pytest.mark.parametrize("build, message", [
        (lambda: Ensemble(0, (np.eye(2) / 2,), [1.0]), "dimension must be positive"),
        (lambda: Ensemble(2, (), []), "ensemble needs at least one state"),
        (lambda: Ensemble(2, (np.eye(2) / 2,), [0.5, 0.5]), "one prior per state required"),
        (lambda: Ensemble.from_pure([np.ones(2), np.ones(3)], [0.5, 0.5]), "kets must share one dimension"),
        (lambda: Ensemble.from_pure([np.ones(2), np.zeros(2)], [0.5, 0.5]), "zero ket"),
    ], ids=["dimension", "no-state", "prior-count", "ket-dimensions", "zero-ket"])
    def test_rejections_name_their_problem(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


BAD_STATES = [
    (np.diag([1.5, -0.5]), "state 1 is not positive semidefinite (most negative eigenvalue -0.5)"),
    (np.diag([0.6, 0.6]), "state 1 has trace 1.2, expected 1"),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "state 1 is not Hermitian within relative tolerance 1e-09"),
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), "state 1 has a non-finite entry"),
    (np.eye(3) / 3, "state 1 has shape (3, 3), expected (2, 2)"),
]


class TestFactoredStates:
    """Each member is held as its factor: the reader's check factors by one
    eigh, the public constructor by pivoted Cholesky on first use."""

    def test_reader_and_constructor_factors_give_the_same_states(self):
        rng = np.random.default_rng(61)
        states, priors = random_members(rng, 6, [1, 3, 2])
        owned = tuple(rho + 1e-13j * (rho - rho.T) for rho in states)  # Hermitian up to roundoff
        public = Ensemble(6, owned, priors)
        factors = tuple(checked_state(rho.copy()) for rho in owned)
        handed = Ensemble._of(6, factors, priors)
        for j, (rho, mine) in enumerate(zip(states, factors)):
            assert handed.factor(j) is mine and not mine.flags.writeable
            assert not public.factor(j).flags.writeable
            rebuilt = public.states[j]
            assert not rebuilt.flags.writeable and np.array_equal(rebuilt, rebuilt.conj().T)
            assert np.abs(rebuilt - rho).max() <= 1e-15
            assert np.abs(rebuilt - handed.states[j]).max() <= 1e-15
        assert handed.state_ranks == public.state_ranks == (1, 3, 2)

    def test_a_member_with_an_admitted_negative_eigenvalue_is_factored_by_eigh(self):
        # Pivoted Cholesky would leave the -5e-11 direction's Schur complement,
        # larger than RANK_TOL, out of the trace; eigh drops exactly it.
        u = random_unitary(np.random.default_rng(62), 3)
        rho = u @ np.diag([0.5, 0.5 + 5e-11, -5e-11]) @ u.conj().T
        public = Ensemble(3, (rho, np.eye(3) / 3), np.array([0.5, 0.5]))
        assert public.factor(0).tobytes() == checked_state(rho.copy()).tobytes()
        assert public.state_ranks == (2, 3)

    @pytest.mark.parametrize("bad, message", BAD_STATES,
                             ids=["psd", "trace", "hermitian", "finite", "shape"])
    def test_raises_the_constructors_error(self, bad, message):
        states = (np.eye(2, dtype=complex) / 2, bad.astype(complex))
        with pytest.raises(StateError) as info:
            Ensemble(2, states, np.array([0.5, 0.5]))
        assert str(info.value) == message and info.value.index == 1
        if bad.shape == (2, 2):  # the reader's walker rejects another shape first
            with pytest.raises(ValueError) as problem:
                checked_state(bad.astype(complex))
            assert f"state 1 {problem.value}" == message


class TestPurify:
    def test_single_pure_state(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0])], [1.0])
        bs = purify(ens)
        assert bs.amplitudes.shape == (2, 1)
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
        bs = BipartiteState(amps, ((0,), (1,)))
        sd = schmidt(bs)
        assert sd.rank == 1
        assert np.allclose(sd.coefficients, [1.0], atol=1e-14)

    def test_sine_cosine_split(self):
        theta = 0.7
        amps = np.diag([np.cos(theta), np.sin(theta)]).astype(complex)
        bs = BipartiteState(amps, ((0,), (1,)))
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
        relabelled = BipartiteState(bs.amplitudes[:, perm], tuple((i,) for i in range(5)))
        a = schmidt(bs).coefficients
        b = schmidt(relabelled).coefficients
        assert np.abs(a - b).max() <= 1e-12


class TestAllowedSubspace:
    def test_bell_reaches_everything(self):
        bs = bell_state()
        pd = allowed_subspace(bs)
        assert pd.rank == 2
        assert np.abs(pd.matrix - np.eye(2)).max() <= 1e-12

    def test_single_state_purification(self):
        ens = Ensemble.from_pure([np.array([0.6, 0.8])], [1.0])
        bs = purify(ens)
        pd = allowed_subspace(bs)
        assert pd.rank == 1
        assert np.abs(pd.matrix - np.array([[1.0]])).max() <= 1e-12

    def test_worked_example_orthogonal_complement(self):
        for p, q in ((0.5, 0.5), (0.3, 0.2), (0.7, 0.6), (0.2, 0.9)):
            bs = worked_purification(p, q)
            pd = allowed_subspace(bs)
            perp = worked_perp(p, q)
            expected = np.eye(3) - np.outer(perp, perp.conj())
            assert np.abs(pd.matrix - expected).max() <= 1e-10
            assert pd.rank == 2

    def test_trace_formula_matches_schmidt_projectors(self):
        for ens in ensemble_suite(105, 30):
            bs = purify(ens)
            pd = allowed_subspace(bs)
            sd = schmidt(bs)
            direct = sd.right_vectors @ sd.right_vectors.conj().T
            assert np.linalg.norm(pd.matrix - direct) <= 1e-10
            assert pd.rank == sd.rank

    def test_projector_fixes_right_marginal(self):
        for ens in ensemble_suite(106, 10):
            bs = purify(ens)
            pd = allowed_subspace(bs)
            rr = bs.right_marginal()
            assert np.linalg.norm(pd.matrix @ rr - rr) <= 1e-10

    @pytest.mark.parametrize("theta", [3e-6, 1e-5, 1e-4, 1e-3])
    def test_turned_near_parallel_pairs_give_an_idempotent_projector(self, theta):
        # Whitening the amplitudes by rho_L^{-1/2} squared the average's
        # conditioning: on these 100 orientations per angle it failed the
        # 1e-10 idempotency check 100, 100, 100 and 62 times.
        for seed in range(100):
            u = random_unitary(np.random.default_rng(seed), 2)
            kets = [u @ np.array([1.0, 0.0]), u @ np.array([np.cos(theta), np.sin(theta)])]
            pd = allowed_subspace(purify(Ensemble.from_pure(kets, [0.5, 0.5]))).matrix
            assert np.linalg.norm(pd @ pd - pd) <= 1e-14


class TestSchmidtAndProjectorValidation:
    # the Schmidt form of the Bell state, one entry spoilt at a time
    @pytest.mark.parametrize("coefficients, left, right, message", [
        ([1.0, 0.0], np.eye(2), np.eye(2), "Schmidt coefficients must be positive"),
        ([0.5, 0.6], np.eye(2), np.eye(2), "Schmidt coefficients sum to 1.1"),
        ([0.5, 0.5], np.diag([1.0, 2.0]), np.eye(2), "left Schmidt vectors are not orthonormal"),
        ([0.5, 0.5], np.eye(2), np.ones((2, 2)), "right Schmidt vectors are not orthonormal"),
    ], ids=["zero-coefficient", "sum", "left", "right"])
    def test_schmidt_rejections(self, coefficients, left, right, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SchmidtDecomposition(np.array(coefficients), left.astype(complex), right.astype(complex))

    @pytest.mark.parametrize("matrix, rank, message", [
        (np.diag([1.0, 0.5]), 2, "projector is not idempotent within 1e-10"),
        (np.diag([1.0, 0.0]), 2, "projector trace 1.0 does not match rank 2"),
    ], ids=["idempotent", "trace"])
    def test_projector_rejections(self, matrix, rank, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SubspaceProjector(matrix.astype(complex), rank)


class TestBipartiteStateValidation:
    def test_norm_enforced(self):
        amps = np.eye(2, dtype=complex)  # norm sqrt(2)
        with pytest.raises(ValueError, match="norm"):
            BipartiteState(amps, ((0,), (1,)))

    def test_index_sets_must_partition(self):
        amps = np.eye(2, dtype=complex) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="partition"):
            BipartiteState(amps, ((0,), (0,)))
        with pytest.raises(ValueError, match="partition"):
            BipartiteState(amps, ((0,),))
