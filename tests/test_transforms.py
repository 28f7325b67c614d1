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
    projective_resolution,
    purify,
    schmidt,
    two_step_filter,
)
from maxconf.linalg import dagger, hermitize, real_trace, support
from maxconf.measurement import confidence_of

from randomgen import (
    ensemble_suite,
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
        assert a.rank == support(dagger(a.matrix) @ a.matrix).rank == rank

    def test_zero_element_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            KrausOperator(np.zeros((2, 2)))

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
    def test_states_match_the_public_constructor_bit_for_bit(self):
        rng = np.random.default_rng(52)
        ens = random_ensemble(rng, 5, [1, 2, 3])
        kraus = random_kraus(rng, 5, min_singular=0.3)
        a = kraus.matrix
        gram = a.conj().T @ a
        out, _ = apply_kraus(ens, kraus)
        states = tuple(hermitize(a @ rho @ a.conj().T) / real_trace(rho @ gram) for rho in ens.states)
        public = Ensemble(ens.dim, states, out.priors)
        for adopted, copied in zip(out.states, public.states):
            assert adopted.tobytes() == copied.tobytes() and not adopted.flags.writeable

    def test_unitary_preserves_priors_and_rotates_states(self):
        rng = np.random.default_rng(51)
        for ens in ensemble_suite(401, 10):
            u = random_unitary(rng, ens.dim)
            out, p_succ = apply_kraus(ens, KrausOperator(u))
            assert abs(p_succ - 1.0) <= 1e-10
            for j in range(ens.n_states):
                assert abs(out.priors[j] - ens.priors[j]) <= 1e-10
                rotated = u @ ens.states[j] @ dagger(u)
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
                p * np.trace(a.matrix @ rho @ dagger(a.matrix)).real
                for p, rho in zip(ens.priors, ens.states)
            )
            assert abs(p_succ - expected) <= 1e-10

    def test_annihilated_member_rejected(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        with pytest.raises(ValueError, match="annihilates state 1"):
            apply_kraus(ens, KrausOperator(np.diag([1.0, 0.0])))

    def test_overweight_element_rejected(self):
        ens = trine()
        with pytest.raises(ValueError, match="overweights"):
            apply_kraus(ens, KrausOperator(2.0 * np.eye(2)))


class TestMonotonicity:
    def test_filtering_never_raises_confidence(self):
        rng = np.random.default_rng(53)
        for ens in ensemble_suite(403, 25):
            a = random_kraus(rng, ens.dim)
            j = rng.integers(ens.n_states)
            try:
                record = monotonicity_check(ens, apply_kraus(ens, a)[0])[j]
            except ValueError:
                continue
            assert record.ok
            assert record.confidence_after <= record.confidence_before + 1e-9

    def test_full_rank_elements_leave_confidence_invariant(self):
        rng = np.random.default_rng(54)
        for ens in ensemble_suite(404, 15):
            a = random_kraus(rng, ens.dim, min_singular=0.3)
            for record in monotonicity_check(ens, apply_kraus(ens, a)[0]):
                assert record.full_rank_on_support
                assert record.verdict == "invariant"

    def test_unitaries_leave_confidence_invariant(self):
        rng = np.random.default_rng(55)
        for ens in ensemble_suite(405, 10):
            u = KrausOperator(random_unitary(rng, ens.dim))
            record = monotonicity_check(ens, apply_kraus(ens, u)[0])[0]
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


class TestTwoStepFilter:
    def test_qubit_by_hand(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.75, 0.25])
        flt = two_step_filter(ens)
        assert abs(flt.success_probability - 0.5) <= 1e-12
        assert np.abs(flt.fail_effect - np.diag([2.0 / 3.0, 0.0])).max() <= 1e-12
        total = dagger(flt.kraus.matrix) @ flt.kraus.matrix + flt.fail_effect
        assert np.abs(total - np.eye(2)).max() <= 1e-12
        assert np.abs(flt.ensemble.average - 0.5 * np.eye(2)).max() <= 1e-12

    def test_fail_effect_zero_mode_per_minimal_eigenvalue(self):
        ens = Ensemble.from_pure(
            [np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]], [0.5, 0.25, 0.25]
        )
        flt = two_step_filter(ens)
        vals = np.linalg.eigvalsh(flt.fail_effect)
        assert np.count_nonzero(np.abs(vals) <= 1e-12) == 2
        assert abs(flt.success_probability - 0.75) <= 1e-12

    def test_already_flat_average_passes_for_free(self):
        flt = two_step_filter(trine())
        assert abs(flt.success_probability - 1.0) <= 1e-12
        assert np.linalg.norm(flt.fail_effect) <= 1e-12

    def test_transformed_average_is_flat_on_support(self):
        for ens in ensemble_suite(406, 15):
            flt = two_step_filter(ens)
            supp = support(ens.average).projector
            d = round(np.trace(supp).real)
            target = supp / d
            assert np.abs(flt.ensemble.average - target).max() <= 1e-10
            total = dagger(flt.kraus.matrix) @ flt.kraus.matrix + flt.fail_effect
            assert np.abs(total - np.eye(ens.dim)).max() <= 1e-10
            assert np.linalg.eigvalsh(flt.fail_effect)[0] >= -1e-12

    def test_pure_members_keep_their_confidence_and_projectors_attain_it(self):
        rng = np.random.default_rng(56)
        for dim, n in ((2, 3), (3, 3), (4, 4)):
            ens = random_ensemble(rng, dim, [1] * n)
            flt = two_step_filter(ens)
            for j in range(n):
                before = max_confidence(ens, j)
                after = max_confidence(flt.ensemble, j)
                assert abs(after - before) <= 1e-9
                achieved = confidence_of(flt.ensemble, flt.ensemble.states[j], j)
                assert abs(achieved - before) <= 1e-9


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

    def test_ensemble_purifications_flatten(self):
        for ens in ensemble_suite(407, 10):
            bs = purify(ens)
            dec = schmidt(bs)
            if dec.rank < 2:
                continue
            res = concentrate(bs)
            flat = schmidt(res.post_state)
            assert np.abs(flat.coefficients - 1.0 / dec.rank).max() <= 1e-9
            expected = dec.coefficients[-1] * dec.rank
            assert abs(res.success_probability - expected) <= 1e-10
            vals = np.linalg.eigvalsh(res.fail_effect)
            assert vals[0] >= -1e-12


class TestProjectiveResolution:
    def test_trine_weights_exact(self):
        chk = projective_resolution(trine())
        assert chk.exact
        assert np.abs(chk.weights - 2.0 / 3.0).max() <= 1e-12
        assert chk.residual <= 1e-12

    def test_orthogonal_basis_weights_one(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.4, 0.6])
        chk = projective_resolution(ens)
        assert chk.exact
        assert np.abs(chk.weights - 1.0).max() <= 1e-12

    def test_two_skew_states_cannot_resolve(self):
        # two non-orthogonal qubit projectors never span the identity; the
        # least-squares optimum is w = 25/34 on both with a fixed residual
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.6, 0.8])], [0.5, 0.5])
        chk = projective_resolution(ens)
        assert not chk.exact
        assert np.abs(chk.weights - 25.0 / 34.0).max() <= 1e-9
        assert abs(chk.residual - 0.7276068751089988) <= 1e-9

    def test_mixed_members_rejected(self):
        with pytest.raises(ValueError, match="pure"):
            projective_resolution(worked(0.5, 0.5))
