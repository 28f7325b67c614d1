import json
import re

import numpy as np
import pytest

from maxconf import (
    BipartiteState,
    Ensemble,
    SchmidtDecomposition,
    allowed_subspace,
    purify,
    read_spec,
    reports,
    schmidt,
)
from maxconf.ensembles import StateError, _checked_state
from maxconf.linalg import fix_phase, kept, kept_svd
from maxconf.specio import matrix_to_json

from randomgen import ensemble_suite, hermitize, random_bipartite, random_members, random_unitary
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
        (lambda: Ensemble.from_pure([np.ones(2), [np.nan, 1.0]], [0.5, 0.5]), "ket 1 has a non-finite entry"),
        (lambda: Ensemble.from_pure([[np.inf, 1.0], np.ones(2)], [0.5, 0.5]), "ket 0 has a non-finite entry"),
    ], ids=["dimension", "no-state", "prior-count", "ket-dimensions", "zero-ket", "nan-ket", "inf-ket"])
    def test_rejections_name_their_problem(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    # Each rule at README's figure for it: passed at 0.99 of it, refused at 1.01.
    EDGES = {
        "unit trace": (lambda x: Ensemble(2, (np.diag([0.5, 0.5 + x]),), [1.0]), 1e-10, "has trace"),
        "PSD slack": (lambda x: Ensemble(2, (np.diag([1.0 + x, -x]),), [1.0]), 1e-10, "not positive semidefinite"),
        "prior sum": (lambda x: Ensemble.from_pure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5 + x]), 1e-12, "priors sum"),
        "two-party norm": (lambda x: BipartiteState(np.eye(2) * (1.0 + x) / np.sqrt(2.0), ((0,), (1,))), 1e-12,
                           "state norm"),
    }

    @pytest.mark.parametrize("rule", sorted(EDGES))
    def test_each_rule_decides_at_its_figure(self, rule):
        build, figure, message = self.EDGES[rule]
        build(0.99 * figure)
        with pytest.raises(ValueError, match=message):
            build(1.01 * figure)

    @pytest.mark.parametrize("eps, columns", [(1.5e-13, 2), (1.5e-11, 1)])
    def test_a_top_space_takes_every_value_within_1e_12_relative(self, eps, columns):
        # member 0's two whitened top values differ by about 2 eps / 3 relative
        ens = Ensemble(3, (np.diag([0.5 * (1 + eps), 0.5 * (1 - eps), 0.0]), np.diag([0.25, 0.25, 0.5])),
                       [0.5, 0.5])
        assert ens.top(0)[1].shape == (3, columns)


BAD_STATES = [
    (np.diag([1.5, -0.5]), "state 1 is not positive semidefinite (most negative eigenvalue -0.5)"),
    (np.diag([0.6, 0.6]), "state 1 has trace 1.2, expected 1"),
    (np.array([[0.5, 0.5], [0.0, 0.5]]), "state 1 is not Hermitian within relative tolerance 1e-09"),
    (np.array([[0.5, np.nan], [np.nan, 0.5]]), "state 1 has a non-finite entry"),
    (np.eye(3) / 3, "state 1 has shape (3, 3), expected (2, 2)"),
]


class TestFactoredStates:
    """Each member is held as its factor: the reader's check and the public
    constructor both factor by pivoted Cholesky as the member is checked."""

    def test_reader_and_constructor_factors_give_the_same_states(self):
        rng = np.random.default_rng(61)
        states, priors = random_members(rng, 6, [1, 3, 2])
        owned = tuple(rho + 1e-13j * (rho - rho.T) for rho in states)  # Hermitian up to roundoff
        public = Ensemble(6, owned, priors)
        factors = tuple(_checked_state(rho.copy()) for rho in owned)
        handed = Ensemble._of(6, factors, priors)
        for j, (rho, mine) in enumerate(zip(states, factors)):
            assert handed.factor(j) is mine and not mine.flags.writeable
            assert public.factor(j).tobytes() == mine.tobytes() and not public.factor(j).flags.writeable
            rebuilt = public.states[j]
            assert not rebuilt.flags.writeable and np.array_equal(rebuilt, rebuilt.conj().T)
            assert np.abs(rebuilt - rho).max() <= 1e-15
            assert np.abs(rebuilt - handed.states[j]).max() <= 1e-15
        assert handed.state_ranks == public.state_ranks == (1, 3, 2)

    @pytest.mark.parametrize("dim, ranks", [(8, [1, 3, 2, 4]), (16, [1, 3, 2, 4] * 2)])
    def test_read_spec_and_the_constructor_hold_the_same_factors(self, tmp_path, dim, ranks):
        states, priors = random_members(np.random.default_rng(dim), dim, ranks)
        path = tmp_path / "members.json"
        path.write_text(json.dumps({"dimension": dim, "states": [
            {"prior": float(p), "matrix": matrix_to_json(rho)} for p, rho in zip(priors, states)]}))
        read = read_spec(str(path)).ensemble
        built = Ensemble(dim, states, read.priors)
        for j in range(len(ranks)):
            assert built.factor(j).tobytes() == read.factor(j).tobytes()
        bounds = [[s["bound"].hex() for s in reports.bound_report(ens)["states"]] for ens in (read, built)]
        assert bounds[0] == bounds[1]

    def test_a_member_with_an_admitted_negative_eigenvalue_is_factored_by_eigh(self):
        # Pivoted Cholesky would leave the -5e-11 direction's Schur complement,
        # larger than RANK_TOL, out of the trace; eigh drops exactly it, and
        # the kept factor is rescaled to unit trace.
        u = random_unitary(np.random.default_rng(62), 3)
        rho = u @ np.diag([0.5, 0.5 + 5e-11, -5e-11]) @ u.conj().T
        public = Ensemble(3, (rho, np.eye(3) / 3), np.array([0.5, 0.5]))
        vals, vecs = np.linalg.eigh(hermitize(rho))
        keep = kept(vals)
        f = vecs[:, keep] * np.sqrt(vals[keep])
        assert public.factor(0).tobytes() == (f / np.sqrt(np.vdot(f, f).real)).tobytes()
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
                _checked_state(bad.astype(complex))
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


    def test_pure_member_column_is_its_phase_fixed_scaled_ket(self):
        for ens in ensemble_suite(107, 10):
            bs = purify(ens)
            for j, idx in enumerate(bs.index_sets):
                if ens.is_pure(j):
                    col = bs.amplitudes[:, idx[0]]
                    expected = fix_phase(np.sqrt(ens.priors[j]) * ens.factor(j)[:, 0])
                    assert np.abs(col - expected).max() <= 1e-15
                    top = col[np.argmax(np.abs(col))]
                    assert top.imag == 0.0 and top.real > 0.0

    def test_mixed_member_columns_are_its_scaled_singular_vectors(self):
        # U S of kept_svd(sqrt(p_j) F_j): orthogonal columns, norms descending
        for ens in ensemble_suite(108, 10):
            bs = purify(ens)
            for j, idx in enumerate(bs.index_sets):
                cols = bs.amplitudes[:, list(idx)]
                _, s, _ = kept_svd(np.sqrt(ens.priors[j]) * ens.factor(j))
                g = cols.conj().T @ cols
                assert np.abs(g - np.diag(s * s)).max() <= 1e-13
                assert np.all(np.diff(np.diag(g).real) <= 0.0)


class TestEnsembleSupport:
    def test_identity(self):
        ens = Ensemble.from_pure(list(np.eye(3)), [1 / 3, 1 / 3, 1 / 3])
        supp = ens.support
        assert np.allclose(supp.eigenvalues, 1 / 3, atol=1e-15)
        assert np.abs(supp.eigenvectors @ supp.eigenvectors.conj().T - np.eye(3)).max() <= 1e-15

    def test_diagonal_sorted_descending(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.25, 0.75])
        supp = ens.support
        assert np.allclose(supp.eigenvalues, [0.75, 0.25], atol=1e-15)
        # eigenvector of the top eigenvalue is e1
        assert abs(abs(supp.eigenvectors[1, 0]) - 1.0) < 1e-14

    def test_rank_is_the_allowed_subspace_rank(self):
        # the measurement route's stacked SVD and the bipartite route's QR agree
        for ens in ensemble_suite(109, 20):
            assert ens.support.rank == allowed_subspace(purify(ens)).shape[1]


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

    def test_invariant_under_right_relabelling(self):
        rng = np.random.default_rng(22)
        bs = random_bipartite(rng, 3, 5, 3)
        perm = rng.permutation(5)
        relabelled = BipartiteState(bs.amplitudes[:, perm], tuple((i,) for i in range(5)))
        a = schmidt(bs).coefficients
        b = schmidt(relabelled).coefficients
        assert np.abs(a - b).max() <= 1e-12

    # d = 128: |0> (and |1> at prior 1e-6) beside I/r on the other r directions, each of
    # whose eigenvalues in the average is 0.99e-12 of the largest, so the rank rule drops
    # r x 0.99e-12 > 1e-10 of Schmidt weight
    @staticmethod
    def _dominant_beside_dropped(kets):
        r = 128 - kets
        p = r * 0.99e-12
        members = [np.diag(np.eye(128)[k]) for k in range(kets)] + [np.diag(np.r_[np.zeros(kets), np.ones(r) / r])]
        priors = ([1.0 - 1e-6 - p, 1e-6] if kets == 2 else [1.0 - p]) + [p]
        return Ensemble(128, members, priors)

    def test_a_spectrum_the_rank_rule_cut_by_more_than_1e_10_verifies_and_concentrates(self):
        ens = self._dominant_beside_dropped(2)
        report, ok = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
        assert ok and report["status"] == "pass"
        assert len(reports.concentrate_tree(ens)["schmidt_before"]) == 2

    def test_its_rank_one_variant_is_a_product_state(self):
        ens = self._dominant_beside_dropped(1)
        sd = schmidt(purify(ens))
        assert sd.rank == 1 and 1.0 - sd.coefficients.sum() > 1e-10
        with pytest.raises(ValueError, match=r"^cannot concentrate: Schmidt rank 1 \(product state\)$"):
            reports.concentrate_tree(ens)


def projector(b: np.ndarray) -> np.ndarray:
    return b @ b.conj().T


class TestAllowedSubspace:
    def test_bell_reaches_everything(self):
        b = allowed_subspace(bell_state())
        assert b.shape == (2, 2)
        assert np.abs(projector(b) - np.eye(2)).max() <= 1e-12

    def test_single_state_purification(self):
        ens = Ensemble.from_pure([np.array([0.6, 0.8])], [1.0])
        b = allowed_subspace(purify(ens))
        assert b.shape == (1, 1)
        assert np.abs(projector(b) - np.array([[1.0]])).max() <= 1e-12

    def test_worked_example_orthogonal_complement(self):
        for p, q in ((0.5, 0.5), (0.3, 0.2), (0.7, 0.6), (0.2, 0.9)):
            b = allowed_subspace(worked_purification(p, q))
            perp = worked_perp(p, q)
            expected = np.eye(3) - np.outer(perp, perp.conj())
            assert np.abs(projector(b) - expected).max() <= 1e-10
            assert b.shape == (3, 2)

    def test_trace_formula_matches_schmidt_projectors(self):
        for ens in ensemble_suite(105, 30):
            bs = purify(ens)
            b = allowed_subspace(bs)
            sd = schmidt(bs)
            assert np.linalg.norm(projector(b) - projector(sd.right_vectors)) <= 1e-10
            assert b.shape[1] == sd.rank

    def test_projector_fixes_right_marginal(self):
        for ens in ensemble_suite(106, 10):
            bs = purify(ens)
            rr = bs.right_marginal()
            assert np.linalg.norm(projector(allowed_subspace(bs)) @ rr - rr) <= 1e-10

    def test_the_basis_is_read_only(self):
        b = allowed_subspace(bell_state())
        with pytest.raises(ValueError, match="read-only"):
            b[0, 0] = 0.0

    @pytest.mark.parametrize("theta", [3e-6, 1e-5, 1e-4, 1e-3])
    def test_turned_near_parallel_pairs_give_an_orthonormal_basis(self, theta):
        # Whitening the amplitudes by rho_L^{-1/2} squared the average's
        # conditioning: on these 100 orientations per angle its projector
        # failed the 1e-10 idempotency check 100, 100, 100 and 62 times.
        for seed in range(100):
            u = random_unitary(np.random.default_rng(seed), 2)
            kets = [u @ np.array([1.0, 0.0]), u @ np.array([np.cos(theta), np.sin(theta)])]
            b = allowed_subspace(purify(Ensemble.from_pure(kets, [0.5, 0.5])))
            assert np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])) <= 1e-14


class TestSchmidtAndProjectorValidation:
    # the Schmidt form of the Bell state, one entry spoilt at a time
    @pytest.mark.parametrize("coefficients, left, right, message", [
        ([1.0, 0.0], np.eye(2), np.eye(2), "Schmidt coefficients must be positive"),
        ([0.5, 0.6], np.eye(2), np.eye(2), "Schmidt coefficients sum to 1.1"),
        ([0.5, 0.5], np.diag([1.0, 2.0]), np.eye(2), "left Schmidt vectors are not orthonormal"),
        ([0.5, 0.5], np.eye(2), np.ones((2, 2)), "right Schmidt vectors are not orthonormal"),
        ([np.nan, 0.5], np.eye(2), np.eye(2), "Schmidt spectrum has a non-finite entry"),
        ([np.inf, 0.5], np.eye(2), np.eye(2), "Schmidt spectrum has a non-finite entry"),
        ([0.5, 0.5], np.diag([1.0, np.nan]), np.eye(2), "left Schmidt basis has a non-finite entry"),
        ([0.5, 0.5], np.eye(2), np.full((2, 2), np.nan), "right Schmidt basis has a non-finite entry"),
    ], ids=["zero-coefficient", "sum", "left", "right", "nan-coefficient", "inf-coefficient",
            "nan-left", "nan-right"])
    def test_schmidt_rejections(self, coefficients, left, right, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SchmidtDecomposition(np.array(coefficients), left.astype(complex), right.astype(complex))

    @pytest.mark.parametrize("scale, accepted", [(0.99, True), (1.01, False)])
    def test_schmidt_vectors_are_orthonormal_within_1e_10(self, scale, accepted):
        # ||B^dagger B - I||_F = scale x 1e-10 for B = diag(1 + x, 1), to first order 2x
        left = np.diag([1.0 + scale * 1e-10 / 2.0, 1.0]).astype(complex)
        deviation = np.linalg.norm(left.conj().T @ left - np.eye(2))
        assert abs(deviation - scale * 1e-10) <= 1e-15
        if accepted:
            SchmidtDecomposition([0.5, 0.5], left, np.eye(2))
        else:
            with pytest.raises(ValueError, match="^left Schmidt vectors are not orthonormal$"):
                SchmidtDecomposition([0.5, 0.5], left, np.eye(2))

    def test_a_list_of_coefficients_is_stored_as_an_array(self):
        sd = SchmidtDecomposition([0.5, 0.5], np.eye(2), np.eye(2))
        assert sd.rank == 2
        assert sd.coefficients.dtype == np.float64 and not sd.coefficients.flags.writeable
        assert np.abs(sd.reconstruct() - np.eye(2) / np.sqrt(2.0)).max() <= 1e-15


class TestBipartiteStateValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_amplitude_is_rejected_by_name(self, bad):
        amps = np.eye(2, dtype=complex) / np.sqrt(2.0)
        amps[1, 0] = bad
        with pytest.raises(ValueError, match="^amplitude matrix has a non-finite entry$"):
            BipartiteState(amps, ((0,), (1,)))

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
