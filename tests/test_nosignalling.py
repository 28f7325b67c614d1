import re

import numpy as np
import pytest

from maxconf import (
    POM,
    Ensemble,
    allowed_subspace,
    complete_pom,
    confidence_of,
    max_confidence,
    optimal_effect,
    purify,
)
from maxconf.linalg import gram, hermitize
from maxconf.nosignalling import (
    bound_bipartite,
    conditional_right_state,
    confidence_bipartite,
    marginal_invariance,
    state_leakage,
    subspace_leakage,
)

from randomgen import ensemble_suite, random_effect
from helpers import (
    bell_state,
    effect_matrices,
    trine,
    worked,
    worked_bound,
    worked_perp,
    worked_purification,
)


class TestConditionalRightState:
    def test_bell_projective_outcome(self):
        bs = bell_state()
        effect = np.diag([1.0, 0.0]).astype(complex)
        cond = conditional_right_state(bs, effect)
        assert abs(cond.probability - 0.5) <= 1e-12
        assert np.abs(cond.state - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_identity_effect_recovers_right_marginal(self):
        for ens in ensemble_suite(301, 10):
            bs = purify(ens)
            cond = conditional_right_state(bs, np.eye(ens.dim))
            assert abs(cond.probability - 1.0) <= 1e-10
            assert np.abs(cond.state - bs.right_marginal()).max() <= 1e-10

    def test_worked_example_conditional_is_pure(self):
        # the fully confident outcome steers the far side onto a single ket
        for p in (0.3, 0.5, 0.7):
            for q in (0.2, 0.5, 0.8):
                ens = worked(p, q)
                bs = worked_purification(p, q)
                cond = conditional_right_state(bs, optimal_effect(ens, 0))
                phi = np.zeros(3)
                phi[:2] = [np.sqrt(q), -np.sqrt(1.0 - q)]
                expected = np.outer(phi, phi)
                assert np.abs(cond.state - expected).max() <= 1e-9

    def test_optimal_effect_projects_the_basis_label(self):
        # for a pure member carrying right index i, measuring its optimal
        # effect steers the far side onto P_D |i><i| P_D (normalized)
        for ens in ensemble_suite(308, 15):
            bs = purify(ens)
            pd = allowed_subspace(bs).matrix
            for j in range(ens.n_states):
                if not ens.is_pure(j):
                    continue
                (i,) = bs.index_sets[j]
                cond = conditional_right_state(bs, optimal_effect(ens, j))
                basis = np.zeros(len(pd))
                basis[i] = 1.0
                target = pd @ np.outer(basis, basis) @ pd
                target = target / np.trace(target).real
                assert np.abs(cond.state - target).max() <= 1e-9

    def test_zero_probability_outcome_rejected(self):
        bs = bell_state()
        effect = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="undefined"):
            conditional_right_state(bs, effect)


class TestConfidenceBipartite:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(41)
        for ens in ensemble_suite(302, 15):
            bs = purify(ens)
            for _ in range(5):
                e = random_effect(rng, ens.dim)
                for j in range(ens.n_states):
                    via_left = confidence_of(ens, e, j)
                    via_pair = confidence_bipartite(bs, e, j)
                    assert abs(via_left - via_pair) <= 1e-10


class TestBoundBipartite:
    def test_matches_left_side_bound(self):
        for ens in ensemble_suite(303, 20):
            bs = purify(ens)
            pd = allowed_subspace(bs)
            for j in range(ens.n_states):
                pair = bound_bipartite(bs, pd, j)
                assert abs(pair - max_confidence(ens, j)) <= 1e-9

    def test_orthogonal_supports_give_unit_bounds(self):
        # when the total rank fills the right side the allowed subspace is
        # everything, so every label can be identified with certainty
        kets = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        ens = Ensemble.from_pure(kets, [0.4, 0.6])
        bs = purify(ens)
        pd = allowed_subspace(bs)
        assert np.abs(pd.matrix - np.eye(2)).max() <= 1e-12
        for j in range(len(bs.index_sets)):
            assert abs(bound_bipartite(bs, pd, j) - 1.0) <= 1e-12

    def test_worked_example_values(self):
        for p in (0.3, 0.6):
            for q in (0.4, 0.8):
                bs = worked_purification(p, q)
                pd = allowed_subspace(bs)
                mixed = bound_bipartite(bs, pd, 0)
                pure = bound_bipartite(bs, pd, 1)
                assert abs(mixed - 1.0) <= 1e-9
                assert abs(pure - worked_bound(p, q)) <= 1e-9


class TestLeakage:
    def test_conditional_states_stay_in_allowed_subspace(self):
        rng = np.random.default_rng(42)
        for ens in ensemble_suite(304, 15):
            bs = purify(ens)
            pd = allowed_subspace(bs)
            for _ in range(8):
                e = random_effect(rng, ens.dim)
                cond = conditional_right_state(bs, e)
                assert state_leakage(cond.state, pd) <= 1e-10

    def test_forbidden_direction_has_full_leakage(self):
        for p in (0.3, 0.7):
            for q in (0.2, 0.6):
                bs = worked_purification(p, q)
                pd = allowed_subspace(bs)
                perp = worked_perp(p, q)
                rho = np.outer(perp, perp.conj())
                assert abs(state_leakage(rho, pd) - 1.0) <= 1e-9

    def test_subspace_leakage_traces_every_conditional(self):
        # subspace_leakage is state_leakage of the conditional of an effect
        rng = np.random.default_rng(44)
        for ens in ensemble_suite(307, 8):
            bs = purify(ens)
            pd = allowed_subspace(bs)
            e = random_effect(rng, ens.dim)
            via_pair = subspace_leakage(bs, pd, e)
            cond = conditional_right_state(bs, e)
            assert abs(via_pair - state_leakage(cond.state, pd)) <= 1e-14
            assert via_pair <= 1e-10

    def test_a_factor_pair_gives_the_conditional_of_its_matrix(self):
        # A measurement's effects enter as (W, t), t W W^dagger never formed.
        for ens in ensemble_suite(308, 8):
            bs = purify(ens)
            pd = allowed_subspace(bs)
            for label, pair in complete_pom(ens).effects:
                w, t = pair
                matrix = t * (w @ w.conj().T)
                via_pair = conditional_right_state(bs, pair)
                cond = conditional_right_state(bs, matrix)
                assert abs(via_pair.probability - cond.probability) <= 1e-12
                assert np.abs(via_pair.state - cond.state).max() <= 1e-10
                assert abs(confidence_bipartite(bs, pair, label) - confidence_bipartite(bs, matrix, label)) <= 1e-10
                assert subspace_leakage(bs, pd, pair) <= 1e-10
        with pytest.raises(ValueError, match="left system"):
            conditional_right_state(purify(trine([0.5, 0.3, 0.2])), (np.ones((3, 1)), 1.0))

    @pytest.mark.parametrize("effect, message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "effect is not Hermitian within relative tolerance 1e-09"),
        (np.eye(3), "effect must act on the left system"),
        ((np.ones((3, 1)), 1.0), "effect must act on the left system"),
    ], ids=["not-hermitian", "matrix-dimension", "pair-dimension"])
    def test_a_callers_effect_is_checked_on_both_routes(self, effect, message):
        ens = trine()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            confidence_of(ens, effect, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            conditional_right_state(purify(ens), effect)

    def test_complement_projector_leaks_entirely(self):
        bs = worked_purification(0.4, 0.3)
        pd = allowed_subspace(bs)
        comp = pd.complement()
        comp_rank = len(comp) - pd.rank
        assert abs(state_leakage(comp, pd) - comp_rank) <= 1e-9


class TestMarginalInvariance:
    def test_complete_pom_cannot_signal(self):
        for ens in ensemble_suite(305, 15):
            bs = purify(ens)
            pom = complete_pom(ens)
            assert marginal_invariance(bs, pom) <= 1e-10

    def test_bell_projective(self):
        bs = bell_state()
        pom = POM(
            ((0, np.diag([1.0, 0.0]).astype(complex)),),
            np.diag([0.0, 1.0]).astype(complex),
        )
        assert marginal_invariance(bs, pom) <= 1e-12

    def test_dropping_the_fail_outcome_breaks_the_accounting(self):
        # discarding recorded outcomes is detectable; unread measurement is not
        ens = trine([0.5, 0.3, 0.2])
        bs = purify(ens)
        pom = complete_pom(ens)
        assert np.linalg.norm(pom.fail) > 0.1
        assert marginal_invariance(bs, pom) <= 1e-10
        bare = POM(effect_matrices(pom), None)
        deviation = marginal_invariance(bs, bare)
        assert abs(deviation - 0.264575131106459) <= 1e-9

    def test_random_complete_poms_cannot_signal(self):
        from randomgen import random_complete_pom

        rng = np.random.default_rng(43)
        for ens in ensemble_suite(306, 10):
            bs = purify(ens)
            pom = random_complete_pom(rng, ens.dim, 3)
            assert marginal_invariance(bs, pom) <= 1e-10
