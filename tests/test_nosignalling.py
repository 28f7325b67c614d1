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
    purify,
    read_spec,
    reports,
)
from maxconf.linalg import frobenius, gram, sandwich
from maxconf.nosignalling import (
    bound_bipartite,
    conditional_diagonals,
    marginal_invariance,
)

from randomgen import ensemble_suite, hermitize, random_effect, random_ensemble
from helpers import (
    bell_state,
    trine,
    worked,
    worked_bound,
    worked_perp,
    worked_purification,
)


def reading(bs, effect):
    """(P, diagonal, leakage) of the right-side state given effect's outcome."""
    return conditional_diagonals(bs, allowed_subspace(bs), [effect])[0]


def leakage_of_the_conditional(bs, effect):
    """Tr(Q rho Q) with the conditional rho and Q = I - B B^dagger formed in full."""
    m = sandwich(effect, bs.amplitudes)
    rho = hermitize(m) / np.trace(m).real
    b = allowed_subspace(bs)
    q = np.eye(len(b)) - b @ b.conj().T
    return np.trace(q @ rho @ q).real


class TestConditionalDiagonals:
    def test_bell_projective_outcome(self):
        p, diagonal, leakage = reading(bell_state(), np.diag([1.0, 0.0]).astype(complex))
        assert abs(p - 0.5) <= 1e-12
        assert np.abs(diagonal - [1.0, 0.0]).max() <= 1e-12
        assert leakage <= 1e-30

    def test_identity_effect_recovers_right_marginal(self):
        for ens in ensemble_suite(301, 10):
            bs = purify(ens)
            p, diagonal, _ = reading(bs, np.eye(ens.dim))
            assert abs(p - 1.0) <= 1e-10
            assert np.abs(diagonal - bs.right_marginal().diagonal().real).max() <= 1e-10

    def test_worked_example_conditional_is_pure(self):
        # the fully confident outcome steers the far side onto a single ket
        for p in (0.3, 0.5, 0.7):
            for q in (0.2, 0.5, 0.8):
                ens = worked(p, q)
                bs = worked_purification(p, q)
                _, diagonal, leakage = reading(bs, complete_pom(ens).effects[0][1])
                phi = np.zeros(3)
                phi[:2] = [np.sqrt(q), -np.sqrt(1.0 - q)]
                assert np.abs(diagonal - phi ** 2).max() <= 1e-9
                assert leakage <= 1e-18

    def test_optimal_effect_projects_the_basis_label(self):
        # for a pure member carrying right index i, measuring its optimal
        # effect steers the far side onto P_D |i><i| P_D (normalized)
        for ens in ensemble_suite(308, 15):
            bs = purify(ens)
            b = allowed_subspace(bs)
            for j, effect in complete_pom(ens).effects:
                if not ens.is_pure(j):
                    continue
                (i,) = bs.index_sets[j]
                _, diagonal, _ = reading(bs, effect)
                column = b @ b[i].conj()  # P_D |i>
                target = np.abs(column) ** 2 / np.vdot(column, column).real
                assert np.abs(diagonal - target).max() <= 1e-9

    def test_zero_probability_outcome_rejected(self):
        bs = bell_state()
        effect = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="undefined"):
            reading(bs, effect)

    @pytest.mark.parametrize("scale", [1e-15, 1e-30, 1e15])
    def test_a_rescaled_effect_keeps_its_conditional(self, scale):
        ens = trine()
        bs = purify(ens)
        w, t = complete_pom(ens).effects[0][1]
        p_ref, diagonal_ref, _ = reading(bs, (w, t))
        for effect in ((w, scale * t), gram(w, scale * t)):
            p, diagonal, leakage = reading(bs, effect)
            assert abs(p / (scale * p_ref) - 1.0) <= 1e-12
            assert np.abs(diagonal - diagonal_ref).max() <= 1e-12
            assert leakage <= 1e-18

    def test_an_effect_orthogonal_to_the_support_is_undefined(self):
        bs = purify(Ensemble.from_pure([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])], [0.5, 0.5]))
        for effect in ((np.array([[0.0], [0.0], [1.0]]), 1e-20), np.diag([0.0, 0.0, 1e20])):
            with pytest.raises(ValueError, match=r"^outcome probability 0\.0 too small: conditional undefined$"):
                reading(bs, effect)

    def test_one_reading_per_effect_in_order(self):
        ens = trine([0.5, 0.3, 0.2])
        bs = purify(ens)
        effects = [e for _, e in complete_pom(ens).effects]
        readings = conditional_diagonals(bs, allowed_subspace(bs), effects)
        assert len(readings) == len(effects)
        for effect, (p, diagonal, leakage) in zip(effects, readings):
            q, other, outside = reading(bs, effect)
            assert (p, leakage) == (q, outside) and np.array_equal(diagonal, other)


class TestConfidenceBipartite:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(41)
        for ens in ensemble_suite(302, 15):
            bs = purify(ens)
            for _ in range(5):
                e = random_effect(rng, ens.dim)
                _, diagonal, _ = reading(bs, e)
                for j in range(ens.n_states):
                    via_left = confidence_of(ens, e, j)
                    via_pair = diagonal[list(bs.index_sets[j])].sum()
                    assert abs(via_left - via_pair) <= 1e-10


class TestBoundBipartite:
    def test_matches_left_side_bound(self):
        for ens in ensemble_suite(303, 20):
            bs = purify(ens)
            b = allowed_subspace(bs)
            for j in range(ens.n_states):
                pair = bound_bipartite(bs, b, j)
                assert abs(pair - max_confidence(ens, j)) <= 1e-9

    def test_orthogonal_supports_give_unit_bounds(self):
        # when the total rank fills the right side the allowed subspace is
        # everything, so every label can be identified with certainty
        kets = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        ens = Ensemble.from_pure(kets, [0.4, 0.6])
        bs = purify(ens)
        b = allowed_subspace(bs)
        assert np.abs(b @ b.conj().T - np.eye(2)).max() <= 1e-12
        for j in range(len(bs.index_sets)):
            assert abs(bound_bipartite(bs, b, j) - 1.0) <= 1e-12

    def test_worked_example_values(self):
        for p in (0.3, 0.6):
            for q in (0.4, 0.8):
                bs = worked_purification(p, q)
                b = allowed_subspace(bs)
                mixed = bound_bipartite(bs, b, 0)
                pure = bound_bipartite(bs, b, 1)
                assert abs(mixed - 1.0) <= 1e-9
                assert abs(pure - worked_bound(p, q)) <= 1e-9


class TestLeakage:
    def test_conditional_states_stay_in_allowed_subspace(self):
        rng = np.random.default_rng(42)
        for ens in ensemble_suite(304, 15):
            bs = purify(ens)
            effects = [random_effect(rng, ens.dim) for _ in range(8)]
            for _, _, leakage in conditional_diagonals(bs, allowed_subspace(bs), effects):
                assert leakage <= 1e-10

    def test_forbidden_direction_has_full_leakage(self):
        for p in (0.3, 0.7):
            for q in (0.2, 0.6):
                b = allowed_subspace(worked_purification(p, q))
                perp = worked_perp(p, q)
                leakage = 1.0 - np.linalg.norm(b.conj().T @ perp) ** 2  # Tr(Q |perp><perp| Q)
                assert abs(leakage - 1.0) <= 1e-9

    def test_subspace_leakage_traces_every_conditional(self):
        # verify's leakage is the weight of each conclusive outcome's
        # conditional outside the allowed subspace, here formed in full,
        # and any effect's conditional stays in the allowed subspace
        rng = np.random.default_rng(44)
        for ens in ensemble_suite(307, 8):
            bs = purify(ens)
            e = random_effect(rng, ens.dim)
            assert leakage_of_the_conditional(bs, e) <= 1e-10
            report, _ = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
            pom = complete_pom(ens)
            assert len(report["states"]) == len(pom.effects)
            for entry, (_, effect) in zip(report["states"], pom.effects):
                assert abs(entry["leakage"] - leakage_of_the_conditional(bs, effect)) <= 1e-14
                assert entry["leakage"] <= 1e-10

    @pytest.mark.parametrize("spec", ["tiny-mixed", "near_parallel"])
    def test_the_fail_outcomes_leakage_is_the_weight_the_rank_rule_dropped(self, spec):
        # Z = A - (A B^*) B^T is the amplitudes' part outside the allowed
        # subspace, on the average's directions the rank rule dropped, where
        # the fail effect F is the identity.  So P_fail * fail_leakage =
        # Tr(Z^dagger F Z) is ||Z||_F^2 itself, and since 0 <= F <= I it can
        # never exceed it: a leakage less the dropped weight reads roundoff on
        # every input.  tiny-mixed is I/3 at prior 2.4e-12 beside |0>
        # (test_roundoff.py's strict xfail), 1.6e-12 on both sides;
        # near_parallel drops 2.5e-13, under verify's fail-outcome gate.
        if spec == "tiny-mixed":
            ens = Ensemble(3, (np.eye(3) / 3, np.diag([1.0, 0.0, 0.0])), np.array([2.4e-12, 1 - 2.4e-12]))
        else:
            ens = read_spec(f"fixtures/{spec}.json").ensemble
        bs = purify(ens)
        basis = allowed_subspace(bs)
        a = bs.amplitudes
        dropped = frobenius(a - (a @ basis.conj()) @ basis.T) ** 2
        p, _, leakage = conditional_diagonals(bs, basis, [complete_pom(ens).fail])[0]
        assert dropped > 1e-13
        assert abs(p * leakage - dropped) <= 2e-16 * dropped

    def test_a_factor_pair_gives_the_conditional_of_its_matrix(self):
        # A measurement's effects enter as (W, t), t W W^dagger never formed.
        for ens in ensemble_suite(308, 8):
            bs = purify(ens)
            for label, pair in complete_pom(ens).effects:
                w, t = pair
                matrix = t * (w @ w.conj().T)
                p_pair, diagonal_pair, leakage = reading(bs, pair)
                p, diagonal, _ = reading(bs, matrix)
                assert abs(p_pair - p) <= 1e-12
                assert np.abs(diagonal_pair - diagonal).max() <= 1e-10
                block = list(bs.index_sets[label])
                assert abs(diagonal_pair[block].sum() - diagonal[block].sum()) <= 1e-10
                assert leakage <= 1e-10
        with pytest.raises(ValueError, match="^effect must have 2 rows$"):
            reading(purify(trine([0.5, 0.3, 0.2])), (np.ones((3, 1)), 1.0))

    @pytest.mark.parametrize("effect, message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "effect is not Hermitian within relative tolerance 1e-09"),
        (np.eye(3), "effect must have 2 rows"),
        ((np.ones((3, 1)), 1.0), "effect must have 2 rows"),
        ((np.ones((2, 1)), -1.0), "effect has a negative scale t = -1.0"),
    ], ids=["not-hermitian", "matrix-dimension", "pair-dimension", "negative-scale"])
    def test_a_callers_effect_is_checked_on_both_routes(self, effect, message):
        ens = trine()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            confidence_of(ens, effect, 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reading(purify(ens), effect)

    def test_a_non_finite_effect_is_rejected_by_every_route(self):
        ens = trine()
        bs = purify(ens)
        message = "^effect has a non-finite entry$"
        for effect in (np.array([[np.nan, 0.0], [0.0, 1.0]]), (np.array([[np.nan], [1.0]]), 1.0),
                       (np.array([[1.0], [0.0]]), np.inf)):
            with pytest.raises(ValueError, match=message):
                reading(bs, effect)
            with pytest.raises(ValueError, match=message):
                confidence_of(ens, effect, 0)


class TestMarginalInvariance:
    def test_complete_pom_cannot_signal(self):
        for ens in ensemble_suite(305, 15):
            bs = purify(ens)
            pom = complete_pom(ens)
            assert marginal_invariance(bs, pom) <= 1e-10

    def test_bell_projective(self):
        bs = bell_state()
        pom = POM(((0, (np.array([[1.0], [0.0]]), 1.0)),), np.diag([0.0, 1.0]))
        assert marginal_invariance(bs, pom) <= 1e-12

    def test_random_complete_poms_cannot_signal(self):
        from randomgen import random_complete_pom

        rng = np.random.default_rng(43)
        for ens in ensemble_suite(306, 10):
            bs = purify(ens)
            pom = random_complete_pom(rng, ens.dim, 3)
            assert marginal_invariance(bs, pom) <= 1e-10

    def test_the_in_place_sum_is_the_plain_sum_bit_for_bit(self):
        # the expression it replaced: a Python sum of each outcome's sandwich,
        # t X^T X^* or A^T F^* A^*, made Hermitian, less the made-Hermitian marginal
        wide = random_ensemble(np.random.default_rng(9), 6, [4, 4, 3])
        for ens in ensemble_suite(308, 10) + [wide]:
            bs, pom = purify(ens), complete_pom(ens)
            a = bs.amplitudes
            terms = [t * ((w.conj().T @ a).T @ (w.conj().T @ a).conj()) for _, (w, t) in pom.effects]
            total = sum(terms + [a.T @ pom.fail.conj() @ a.conj()])
            expected = float(np.linalg.norm(hermitize(total) - hermitize(a.T @ a.conj())))
            assert marginal_invariance(bs, pom) == expected
