import numpy as np
import pytest

from maxconf import (
    BipartiteState,
    Ensemble,
    KrausOperator,
    apply_kraus,
    concentrate,
    max_confidence,
    monotonicity_check,
    purify,
    read_spec,
    reports,
    schmidt,
)
from maxconf.linalg import kept, real_trace
from maxconf.measurement import confidence_of

from randomgen import (
    ensemble_suite,
    hermitize,
    random_ensemble,
    random_kraus,
    random_unitary,
)
from helpers import trine, worked


class TestKrausOperator:
    def test_rank_computed_from_singular_values(self):
        a = KrausOperator(np.diag([1.0, 0.5, 0.0]))
        assert a.rank == 2

    @pytest.mark.parametrize("small, rank", [(1e-8, 1), (1e-5, 2)])
    def test_rank_is_the_support_rank_of_the_gram_matrix(self, small, rank):
        a = KrausOperator(np.diag([1.0, small]))
        assert a.rank == np.count_nonzero(kept(np.linalg.eigvalsh(a.matrix.conj().T @ a.matrix))) == rank

    def test_zero_element_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            KrausOperator(np.zeros((2, 2)))

    def test_empty_element_rejected(self):
        with pytest.raises(ValueError, match="^operation element is empty$"):
            KrausOperator(np.zeros((0, 0)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            KrausOperator(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected_before_the_svd(self, monkeypatch, bad):
        def no_decomposition(*args, **kwargs):
            raise AssertionError("decomposed a non-finite element")

        monkeypatch.setattr(np.linalg, "svd", no_decomposition)
        with pytest.raises(ValueError, match="^operation element has a non-finite entry$"):
            KrausOperator(np.array([[1.0, 0.0], [bad, 0.5]]))


class TestApplyKraus:
    def test_states_match_the_matrix_route(self):
        # factors A F_i / sqrt(t_i), reduced by a thin SVD, against
        # A rho_i A^dagger / Tr(rho_i A^dagger A) formed as matrices
        rng = np.random.default_rng(52)
        ens = random_ensemble(rng, 5, [1, 2, 3])
        kraus = random_kraus(rng, 5, rank=4, min_singular=0.3)
        a = kraus.matrix
        gram = a.conj().T @ a
        out, _ = apply_kraus(ens, kraus)
        states = tuple(hermitize(a @ rho @ a.conj().T) / real_trace(rho @ gram) for rho in ens.states)
        public = Ensemble(ens.dim, states, out.priors)
        for factored, formed in zip(out.states, public.states):
            assert np.abs(factored - formed).max() <= 1e-14 and not factored.flags.writeable
        assert out.state_ranks == public.state_ranks == (1, 2, 3)

    def test_unitary_preserves_priors_and_rotates_states(self):
        rng = np.random.default_rng(51)
        for ens in ensemble_suite(401, 10):
            u = random_unitary(rng, ens.dim)
            out, p_succ = apply_kraus(ens, KrausOperator(u))
            assert abs(p_succ - 1.0) <= 1e-10
            for j in range(ens.n_states):
                assert abs(out.priors[j] - ens.priors[j]) <= 1e-10
                rotated = u @ ens.states[j] @ u.conj().T
                assert np.abs(out.states[j] - rotated).max() <= 1e-10

    def test_projective_filter_by_hand(self):
        # A = |0><0| on {|0>, |+>} at equal priors: success 3/4, posterior
        # priors (2/3, 1/3), both survivors collapse onto |0>
        ens = Ensemble.from_pure(
            [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)], [0.5, 0.5]
        )
        out, p_succ = apply_kraus(ens, KrausOperator(np.diag([1.0, 0.0])))
        assert abs(p_succ - 0.75) <= 1e-12
        assert abs(out.priors[0] - 2.0 / 3.0) <= 1e-12
        assert abs(out.priors[1] - 1.0 / 3.0) <= 1e-12
        zero = np.diag([1.0, 0.0]).astype(complex)
        for j in range(2):
            assert np.abs(out.states[j] - zero).max() <= 1e-12

    def test_success_probability_is_total_retained_weight(self):
        rng = np.random.default_rng(52)
        for ens in ensemble_suite(402, 10):
            a = random_kraus(rng, ens.dim, min_singular=0.2)
            out, p_succ = apply_kraus(ens, a)
            expected = sum(
                p * np.trace(a.matrix @ rho @ a.matrix.conj().T).real
                for p, rho in zip(ens.priors, ens.states)
            )
            assert abs(p_succ - expected) <= 1e-10

    def test_success_probability_never_exceeds_one(self):
        # a unitary keeps every weight, and sum_i p_i Tr(rho_i A^dagger A)
        # rounded above 1, up to 1.0000000000000007, on 57 of these 300 draws
        rng = np.random.default_rng(0)
        for _ in range(300):
            ens = random_ensemble(rng, 4, [1, 2, 3])
            kraus = KrausOperator(random_unitary(rng, 4))
            report, _ = reports.transform_report(ens, kraus, reports.DEFAULT_TOLERANCE)
            assert report["success_probability"] <= 1.0

    def test_a_weight_within_1e_10_above_one_is_clamped_and_beyond_it_refused(self):
        ens = trine()
        _, success = apply_kraus(ens, KrausOperator(np.sqrt(1.0 + 0.99e-10) * np.eye(2)))
        assert success == 1.0
        with pytest.raises(ValueError, match="overweights"):
            apply_kraus(ens, KrausOperator(np.sqrt(1.0 + 1.01e-10) * np.eye(2)))

    def test_a_member_is_annihilated_at_a_weight_of_1e_14(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        apply_kraus(ens, KrausOperator(np.diag([1.0, np.sqrt(1.01e-14)])))
        with pytest.raises(ValueError, match="annihilates state 1"):
            apply_kraus(ens, KrausOperator(np.diag([1.0, np.sqrt(0.99e-14)])))

    def test_the_near_parallel_fixture_keeps_its_merged_priors(self):
        # the filter would lift the average's dropped eigenvalue (2.5e-13) above
        # the rank cutoff and so raise both bounds to 1.0; acting on the kept
        # support only, it leaves the merged members at their priors
        ens = read_spec("fixtures/near_parallel.json").ensemble
        kraus = random_kraus(np.random.default_rng(12), 2, min_singular=0.3)
        report, ok = reports.transform_report(ens, kraus, reports.DEFAULT_TOLERANCE)
        assert ok
        for state in report["states"]:
            assert state["verdict"] == "invariant"
            assert abs(state["confidence_before"] - 0.5) <= 1e-12
            assert abs(state["confidence_after"] - 0.5) <= 1e-12

    def test_a_member_wholly_under_the_rank_cutoff_keeps_its_weight(self):
        # The average's 1e-13 eigenvalue is dropped, so |1> has no weight on the
        # kept support |0>; the identity must still leave it as it was, with its
        # prior counted in the success probability, not annihilate it.
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [1 - 1e-13, 1e-13])
        report, ok = reports.transform_report(ens, KrausOperator(np.eye(2)), reports.DEFAULT_TOLERANCE)
        assert ok and report["success_probability"] == 1.0
        for state in report["states"]:
            assert state["verdict"] == "invariant"
            assert state["prior_after"] == state["prior_before"]
            assert state["confidence_after"] == state["confidence_before"]

    def test_annihilated_member_rejected(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        with pytest.raises(ValueError, match="annihilates state 1"):
            apply_kraus(ens, KrausOperator(np.diag([1.0, 0.0])))

    def test_overweight_element_rejected(self):
        ens = trine()
        with pytest.raises(ValueError, match="overweights"):
            apply_kraus(ens, KrausOperator(2.0 * np.eye(2)))


class TestMonotonicity:
    def test_full_rank_elements_leave_confidence_invariant(self):
        rng = np.random.default_rng(54)
        for ens in ensemble_suite(404, 15):
            a = random_kraus(rng, ens.dim, min_singular=0.3)
            for record in monotonicity_check(ens, apply_kraus(ens, a)[0]):
                assert record.full_rank_on_support
                assert record.verdict == "invariant"

    def test_rank_one_element_erases_distinguishability(self):
        # a rank-1 filter maps every survivor onto the same ket, so the
        # confidence falls to the posterior prior for the minority members
        ens = trine()
        a = KrausOperator(np.diag([1.0, 0.0]))
        rec1 = monotonicity_check(ens, apply_kraus(ens, a)[0])[1]
        assert rec1.verdict == "decreased"
        assert abs(rec1.confidence_before - 2.0 / 3.0) <= 1e-12
        assert abs(rec1.confidence_after - 1.0 / 6.0) <= 1e-12
        rec0 = monotonicity_check(ens, apply_kraus(ens, a)[0])[0]
        assert abs(rec0.confidence_after - 2.0 / 3.0) <= 1e-12
        assert rec0.verdict == "invariant"
        assert not rec0.full_rank_on_support

    @pytest.mark.parametrize("reverse", [False, True], ids=["raised", "full-rank-lowered"])
    def test_a_raised_bound_or_a_full_rank_drop_is_violated(self, reverse):
        # monotonicity_check takes any pair of ensembles: member 1's bound goes from
        # 0.704225352112676 in worked(0.5, 0.3) to 1.0 for the orthogonal kets |0>, |1>,
        # and back down again at the same support rank 2, as no full-rank element may move it
        ens = worked(0.5, 0.3)
        orthogonal = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.array([0.5, 0.5]))
        before, after = (orthogonal, ens) if reverse else (ens, orthogonal)
        rec1 = monotonicity_check(before, after)[1]
        assert (rec1.verdict, rec1.ok, rec1.full_rank_on_support) == ("violated", False, True)
        assert sorted([rec1.confidence_before, rec1.confidence_after]) == pytest.approx([0.704225352112676, 1.0],
                                                                                       abs=1e-12)


class TestConcentrate:
    @staticmethod
    def _two_qubit(theta):
        amps = np.diag([np.cos(theta), np.sin(theta)]).astype(complex)
        return BipartiteState(amps, ((0,), (1,)))

    def test_partially_entangled_pair_by_hand(self):
        res = concentrate(self._two_qubit(np.pi / 6.0))
        assert abs(res.success_probability - 0.5) <= 1e-12
        coeffs = schmidt(res.post_state).coefficients
        assert np.abs(coeffs - 0.5).max() <= 1e-12

    def test_maximally_entangled_pair_succeeds_surely(self):
        res = concentrate(self._two_qubit(np.pi / 4.0))
        assert abs(res.success_probability - 1.0) <= 1e-12
        assert np.linalg.norm(res.fail_effect) <= 1e-12

    def test_product_state_rejected(self):
        amps = np.zeros((2, 2), dtype=complex)
        amps[0, 0] = 1.0
        bs = BipartiteState(amps, ((0,), (1,)))
        with pytest.raises(ValueError, match="cannot concentrate"):
            concentrate(bs)

    # The flattening filter A = sqrt(lambda_min) rho^{-1/2} on an ensemble's
    # purification: rho is the ensemble's average, the left marginal.
    def test_qubit_pair_by_hand(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.75, 0.25])
        res = concentrate(purify(ens))
        assert abs(res.success_probability - 0.5) <= 1e-12
        assert np.abs(res.fail_effect - np.diag([2.0 / 3.0, 0.0])).max() <= 1e-12
        total = res.kraus.matrix.conj().T @ res.kraus.matrix + res.fail_effect
        assert np.abs(total - np.eye(2)).max() <= 1e-12
        assert np.abs(res.post_state.left_marginal() - 0.5 * np.eye(2)).max() <= 1e-12

    def test_fail_effect_zero_mode_per_minimal_eigenvalue(self):
        ens = Ensemble.from_pure(list(np.eye(3)), [0.5, 0.25, 0.25])
        res = concentrate(purify(ens))
        vals = np.linalg.eigvalsh(res.fail_effect)
        assert np.count_nonzero(np.abs(vals) <= 1e-12) == 2
        assert abs(res.success_probability - 0.75) <= 1e-12

    def test_already_flat_average_passes_for_free(self):
        res = concentrate(purify(trine()))
        assert abs(res.success_probability - 1.0) <= 1e-12
        assert np.linalg.norm(res.fail_effect) <= 1e-12

    def test_element_resolves_the_identity_and_flattens_the_average(self):
        for ens in ensemble_suite(406, 15):
            res = concentrate(purify(ens))
            vals, vecs = np.linalg.eigh(ens.average)
            v = vecs[:, kept(vals)]
            target = v @ v.conj().T / v.shape[1]
            assert np.abs(res.post_state.left_marginal() - target).max() <= 1e-10
            assert np.abs(apply_kraus(ens, res.kraus)[0].average - target).max() <= 1e-10
            total = res.kraus.matrix.conj().T @ res.kraus.matrix + res.fail_effect
            assert np.abs(total - np.eye(ens.dim)).max() <= 1e-10
            assert np.linalg.eigvalsh(res.fail_effect)[0] >= -1e-12

    def test_pure_members_keep_their_confidence_and_projectors_attain_it(self):
        rng = np.random.default_rng(56)
        for dim, n in ((2, 3), (3, 3), (4, 4)):
            ens = random_ensemble(rng, dim, [1] * n)
            flat, _ = apply_kraus(ens, concentrate(purify(ens)).kraus)
            for j in range(n):
                before = max_confidence(ens, j)
                assert abs(max_confidence(flat, j) - before) <= 1e-9
                assert abs(confidence_of(flat, flat.states[j], j) - before) <= 1e-9

    def test_the_fail_effect_is_the_plain_expression_bit_for_bit(self):
        # built in place, it keeps every bit and sign of zero of I - lambda_min rho^{-1} made Hermitian
        for ens in ensemble_suite(408, 10) + [random_ensemble(np.random.default_rng(10), 8, [4] * 4)]:
            bs = purify(ens)
            sch = schmidt(bs)
            if sch.rank < 2:
                continue
            lam, v = sch.coefficients, sch.left_vectors
            expected = hermitize(np.eye(len(v)) - float(lam[-1]) * ((v / lam) @ v.conj().T))
            assert concentrate(bs).fail_effect.tobytes() == expected.tobytes()
