import re
import tracemalloc

import numpy as np
import pytest

from maxconf import (
    ConfidenceReport,
    Ensemble,
    POM,
    complete_pom,
    confidence_of,
    confidence_report,
    max_confidence,
    optimal_effect,
    simulate_measurement,
)
from maxconf.linalg import gram, hermitize, real_trace, support
from maxconf.measurement import _SAMPLE_CHUNK, outcome_table
from maxconf.specio import read_spec

from randomgen import ensemble_suite, random_complete_pom, random_effect, random_ensemble, random_unitary
from helpers import effect_matrices, outcome_matrices, trine, trine_kets, worked, worked_bound


class TestConfidenceOf:
    def test_identity_effect_returns_prior(self):
        for ens in ensemble_suite(201, 10):
            for j in range(ens.n_states):
                c = confidence_of(ens, np.eye(ens.dim), j)
                assert abs(c - ens.priors[j]) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for ens in ensemble_suite(202, 10):
            e = random_effect(rng, ens.dim)
            for j in range(ens.n_states):
                a = confidence_of(ens, e, j)
                b = confidence_of(ens, 0.37 * e, j)
                assert abs(a - b) <= 1e-12

    def test_optimal_effect_scale_freedom(self):
        # as its factor pair (W, c) and as the matrix c W W^dagger
        for ens in ensemble_suite(212, 10):
            for j in range(ens.n_states):
                w, t = optimal_effect(ens, j)
                reference = confidence_of(ens, (w, t), j)
                for c in (1e-3, 1.0, 1e3):
                    assert abs(confidence_of(ens, (w, c), j) - reference) <= 1e-12
                    assert abs(confidence_of(ens, gram(w, c), j) - reference) <= 1e-12

    def test_confidence_beyond_roundoff_still_raises(self):
        # an indefinite "effect" gives a genuine 2.0, which is not clamped
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        with pytest.raises(ValueError, match="out of range"):
            confidence_of(ens, np.diag([1.0, -0.5]), 0)

    def test_zero_probability_outcome_rejected(self):
        ens = Ensemble.from_pure(
            [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])], [0.5, 0.5]
        )
        probe = np.zeros((3, 3), dtype=complex)
        probe[2, 2] = 1.0
        with pytest.raises(ValueError, match="undefined"):
            confidence_of(ens, probe, 0)


class TestMaxConfidence:
    def test_trine_hand_value(self):
        # priors 1/3 and rho = I/2 give (1/3) <psi| 2I |psi> = 2/3
        ens = trine()
        for j in range(3):
            assert abs(max_confidence(ens, j) - 2.0 / 3.0) <= 1e-12

    def test_worked_example_closed_form(self):
        for p in (0.2, 0.5, 0.8):
            for q in (0.3, 0.5, 0.9):
                ens = worked(p, q)
                assert abs(max_confidence(ens, 0) - 1.0) <= 1e-9
                assert abs(max_confidence(ens, 1) - worked_bound(p, q)) <= 1e-9

    def test_orthogonal_states_fully_distinguishable(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.3, 0.7])
        assert abs(max_confidence(ens, 0) - 1.0) <= 1e-12
        assert abs(max_confidence(ens, 1) - 1.0) <= 1e-12

    def test_pure_and_mixed_formulas_agree_on_rank_one(self):
        # evaluate both branch formulas directly on pure members
        for ens in ensemble_suite(203, 20):
            supp = support(ens.average)
            v, lam = supp.eigenvectors, supp.eigenvalues
            rinv = (v / lam) @ v.conj().T
            s = (v / np.sqrt(lam)) @ v.conj().T
            for j in range(ens.n_states):
                if not ens.is_pure(j):
                    continue
                via_trace = ens.priors[j] * np.trace(ens.states[j] @ rinv).real
                x = ens.priors[j] * (s @ ens.states[j] @ s)
                via_eig = np.linalg.eigvalsh((x + x.conj().T) / 2)[-1]
                assert abs(via_trace - via_eig) <= 1e-10
                assert abs(max_confidence(ens, j) - via_trace) <= 1e-10

    def test_result_range(self):
        for ens in ensemble_suite(204, 30):
            for j in range(ens.n_states):
                c = max_confidence(ens, j)
                assert ens.priors[j] - 1e-10 <= c <= 1.0 + 1e-10

    def test_linearly_independent_members_reach_exactly_one(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])], [0.5, 0.5])
        pom = complete_pom(ens)
        for label, e in pom.effects:
            assert max_confidence(ens, label) == 1.0
            assert 0.0 <= confidence_of(ens, e, label) <= 1.0

    def test_no_effect_beats_the_bound(self):
        rng = np.random.default_rng(32)
        for ens in ensemble_suite(205, 25):
            bounds = [max_confidence(ens, j) for j in range(ens.n_states)]
            for _ in range(40):
                e = random_effect(rng, ens.dim)
                for j in range(ens.n_states):
                    assert confidence_of(ens, e, j) <= bounds[j] + 1e-9


class TestOptimalEffect:
    def test_achieves_the_bound(self):
        for ens in ensemble_suite(206, 25):
            for j in range(ens.n_states):
                e = optimal_effect(ens, j)
                gap = abs(confidence_of(ens, e, j) - max_confidence(ens, j))
                assert gap <= 1e-9

    def test_effects_are_psd(self):
        for ens in ensemble_suite(207, 10):
            for j in range(ens.n_states):
                vals = np.linalg.eigvalsh(gram(*optimal_effect(ens, j)))
                assert vals[0] >= -1e-10 * max(vals[-1], 1.0)

    def test_worked_example_directions(self):
        p, q = 0.4, 0.7
        ens = worked(p, q)
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        e0 = gram(*optimal_effect(ens, 0))
        assert abs(psi.conj() @ e0 @ psi) <= 1e-12
        e1 = gram(*optimal_effect(ens, 1))
        u = np.array([1.0 - q, q])
        u = u / np.linalg.norm(u)
        vals, vecs = np.linalg.eigh(e1)
        v = vecs[:, -1]
        residual = v - (u.conj() @ v) * u
        assert np.linalg.norm(residual) <= 1e-9
        assert vals[0] <= 1e-12 * vals[-1]


class TestCompletePom:
    def test_trine_scaling_by_hand(self):
        # directions rho^{-1} p rho_j rho^{-1} = (4/3) |psi_j><psi_j| sum to
        # 2I, so t = 1/2 and each effect is (2/3) of a projector
        pom = complete_pom(trine())
        for (label, e), ket in zip(effect_matrices(pom), trine_kets()):
            expected = (2.0 / 3.0) * np.outer(ket, ket.conj())
            assert np.abs(e - expected).max() <= 1e-12
        assert np.linalg.norm(pom.fail) <= 1e-10

    def test_resolves_identity(self):
        for ens in ensemble_suite(208, 25):
            pom = complete_pom(ens)
            total = sum(outcome_matrices(pom))
            assert np.linalg.norm(total - np.eye(ens.dim)) <= 1e-9
            assert np.linalg.eigvalsh(pom.fail)[0] >= -1e-12

    def test_every_outcome_still_attains_its_bound(self):
        for ens in ensemble_suite(209, 15):
            pom = complete_pom(ens)
            for label, e in pom.effects:
                gap = abs(confidence_of(ens, e, label) - max_confidence(ens, label))
                assert gap <= 1e-9

    def test_scale_is_maximal(self):
        # pushing the common scale any higher drives the fail effect negative
        for ens in ensemble_suite(210, 10):
            dirs = [gram(*optimal_effect(ens, j)) for j in range(ens.n_states)]
            total = sum(dirs)
            t = 1.0 / np.linalg.eigvalsh((total + total.conj().T) / 2)[-1]
            grown = np.eye(ens.dim) - (t * 1.001) * total
            assert np.linalg.eigvalsh((grown + grown.conj().T) / 2)[0] < -1e-12

    def test_symmetric_unambiguous_two_state_limit(self):
        # equiprobable pure states with real overlap cos(2 theta): the
        # inconclusive probability of the completed measurement matches the
        # known optimum cos(2 theta); a brute-force scan over scale factors
        # confirms no valid common scale does better
        for theta in (0.3, 0.5, np.pi / 4 - 0.1):
            k0 = np.array([np.cos(theta), np.sin(theta)])
            k1 = np.array([np.cos(theta), -np.sin(theta)])
            ens = Ensemble.from_pure([k0, k1], [0.5, 0.5])
            pom = complete_pom(ens)
            rho = ens.average
            inconclusive = np.trace(rho @ pom.fail).real
            assert abs(inconclusive - np.cos(2.0 * theta)) <= 1e-9

            dirs = [gram(*optimal_effect(ens, j)) for j in range(2)]
            total = sum(dirs)
            best = None
            for t in np.linspace(0.0, 2.0, 4001):
                candidate = np.eye(2) - t * total
                if np.linalg.eigvalsh((candidate + candidate.conj().T) / 2)[0] >= -1e-12:
                    value = np.trace(rho @ candidate).real
                    best = value if best is None else min(best, value)
            assert best is not None
            assert inconclusive <= best + 1e-6


class TestConfidenceReport:
    def test_trine_values(self):
        ens = trine()
        rep = confidence_report(ens, complete_pom(ens))
        for label, bound, achieved, prob in rep.records:
            assert abs(bound - 2.0 / 3.0) <= 1e-12
            assert abs(achieved - 2.0 / 3.0) <= 1e-12
            assert abs(prob - 1.0 / 3.0) <= 1e-12
        assert abs(rep.inconclusive_probability) <= 1e-12

    def test_probabilities_sum_to_one(self):
        for ens in ensemble_suite(211, 10):
            rep = confidence_report(ens, complete_pom(ens))
            total = rep.inconclusive_probability + sum(r[3] for r in rep.records)
            assert abs(total - 1.0) <= 1e-9

    def test_requires_complete_pom(self):
        ens = trine()
        pom = complete_pom(ens)
        bare = POM(effect_matrices(pom), None)
        with pytest.raises(ValueError, match="complete"):
            confidence_report(ens, bare)

    @pytest.mark.parametrize("prob, inconclusive, message", [
        (1.5, -0.5, "probability for state 0 out of range: 1.5"),
        (-0.5, 1.5, "probability for state 0 out of range: -0.5"),
        (0.5, 1.5, "inconclusive probability out of range"),
        (0.5, -0.5, "inconclusive probability out of range"),
        (0.5, 0.25, "outcome probabilities sum to 0.75"),
    ])
    def test_rejects_probabilities_out_of_range_or_not_summing_to_one(self, prob, inconclusive, message):
        # Bounds and confidences arrive range-checked and clamped (_unit_interval).
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConfidenceReport(((0, 0.5, 0.5, prob),), inconclusive)


class TestOutcomeTable:
    def test_matches_traces_against_the_formed_effects(self):
        # Tr(rho_i E_k) through the factors, for complete_pom's effects and for
        # a POM the public constructor factored, fail column last.
        rng = np.random.default_rng(36)
        for ens in ensemble_suite(210, 12):
            poms = (complete_pom(ens), random_complete_pom(rng, ens.dim, 3),
                    POM(((0, random_effect(rng, ens.dim)),)))
            for pom in poms:
                expected = [[real_trace(rho @ e) for e in outcome_matrices(pom)] for rho in ens.states]
                table = outcome_table(ens, pom)
                assert table.shape == (ens.n_states, len(outcome_matrices(pom)))
                assert np.abs(table - np.array(expected)).max() <= 1e-12


def one_shot_sample(ens, pom, trials, seed):
    """(outcome counts, correct counts) from a single (trials, 2) draw."""
    matrices = outcome_matrices(pom)
    prob = np.array([[real_trace(rho @ e) for e in matrices] for rho in ens.states])
    prob = np.clip(prob, 0.0, None)
    prob /= prob.sum(axis=1, keepdims=True)
    u = np.random.default_rng(seed).random((trials, 2))
    prepared = np.searchsorted(np.cumsum(ens.priors), u[:, 0], side="right")
    prepared = np.minimum(prepared, ens.n_states - 1)
    cum = np.cumsum(prob, axis=1)
    cum[:, -1] = 1.0
    outcome = (u[:, 1:] >= cum[prepared]).sum(axis=1)
    counts = np.bincount(outcome, minlength=len(matrices))
    correct = [
        int(np.count_nonzero((outcome == k) & (prepared == label)))
        for k, (label, _) in enumerate(pom.effects)
    ]
    return tuple(int(c) for c in counts), tuple(correct)


def sampler_case(name):
    if name == "trine":
        ens = trine([0.2, 0.3, 0.5])  # misidentifications and a fail outcome
        return ens, complete_pom(ens)
    if name == "d16-n32":
        ens = random_ensemble(np.random.default_rng(22), 16, [1] * 32)
        return ens, complete_pom(ens)
    if name == "fail-only":
        return trine([0.2, 0.3, 0.5]), POM((), np.eye(2))
    # "overshoot": orthogonal members and diagonal effects that give member 0
    # the outcome probabilities 0.25, 0.45, 0.3 and 0 (each through its factor
    # sqrt(0.25) and so on), whose running sum rounds above 1.0 before the
    # last (fail) outcome
    ens = Ensemble(3, tuple(np.diag(row) for row in np.eye(3)), np.full(3, 1.0 / 3.0))
    effects = [np.diag([0.25, 0.5, 0.2]), np.diag([0.45, 0.25, 0.3]), np.diag([0.3, 0.25, 0.5])]
    pom = POM(tuple(enumerate(effects)), np.eye(3) - effects[0] - effects[1] - effects[2])
    prob = np.clip(outcome_table(ens, pom)[0], 0.0, None)
    assert np.cumsum(prob / prob.sum())[-2] > 1.0
    return ens, pom


_BLOCK_EDGES = [1, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1, 3 * _SAMPLE_CHUNK - 1]
# The trine cases keep their bare trial-count ids.
_SAMPLER_CASES = [pytest.param("trine", t, id=str(t)) for t in _BLOCK_EDGES] + [
    pytest.param(name, t, id=f"{name}-{t}")
    for name in ("d16-n32", "fail-only", "overshoot")
    for t in _BLOCK_EDGES
]


class TestSimulate:
    @pytest.mark.parametrize("case, trials", _SAMPLER_CASES)
    def test_blocked_sampling_matches_one_draw(self, case, trials):
        ens, pom = sampler_case(case)
        sim = simulate_measurement(ens, pom, trials, 21)
        assert (sim.outcome_counts, sim.correct_counts) == one_shot_sample(ens, pom, trials, 21)

    def test_memory_does_not_grow_with_outcomes(self):
        # two blocks of trials; a (block x outcomes) table would cost
        # 65536 x 65 x 8 B = 34 MB on the 65-outcome ensemble
        def peak(ens):
            pom = complete_pom(ens)
            tracemalloc.start()
            try:
                simulate_measurement(ens, pom, 2 * _SAMPLE_CHUNK, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        wide = random_ensemble(np.random.default_rng(23), 16, [1] * 64)
        assert wide.n_states + 1 == 65
        assert peak(wide) <= 2 * peak(trine())

    def test_orthogonal_states_never_misidentified(self):
        # equal priors make the completed measurement exactly projective
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        pom = complete_pom(ens)
        sim = simulate_measurement(ens, pom, 20000, 3)
        assert sim.fail_count == 0
        for f in sim.conditional_frequencies:
            assert f == 1.0

    def test_unequal_priors_leave_fail_weight_on_minority_state(self):
        # the common scale is set by the largest direction, so the less
        # likely state keeps an inconclusive component but is never mislabeled
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.4, 0.6])
        pom = complete_pom(ens)
        sim = simulate_measurement(ens, pom, 20000, 3)
        assert sim.fail_count > 0
        for f in sim.conditional_frequencies:
            assert f == 1.0

    def test_fail_only_pom(self):
        ens = trine()
        pom = POM((), np.eye(2))
        sim = simulate_measurement(ens, pom, 500, 1)
        assert sim.fail_count == 500
        assert sim.outcome_counts == (500,)
        assert sim.conditional_frequencies == ()

    def test_deterministic_per_seed(self):
        ens = trine()
        pom = complete_pom(ens)
        a = simulate_measurement(ens, pom, 5000, 11)
        b = simulate_measurement(ens, pom, 5000, 11)
        assert a.outcome_counts == b.outcome_counts
        assert a.correct_counts == b.correct_counts
        c = simulate_measurement(ens, pom, 5000, 12)
        assert c.outcome_counts != a.outcome_counts

    def test_counts_sum_to_trials(self):
        ens = worked(0.5, 0.5)
        pom = complete_pom(ens)
        sim = simulate_measurement(ens, pom, 7777, 5)
        assert sum(sim.outcome_counts) == 7777

    def test_incomplete_pom_rejected(self):
        ens = trine()
        pom = complete_pom(ens)
        with pytest.raises(ValueError, match="complete"):
            simulate_measurement(ens, POM(effect_matrices(pom), None), 100, 0)

    def test_trials_must_be_positive(self):
        ens = trine()
        with pytest.raises(ValueError, match="trials"):
            simulate_measurement(ens, complete_pom(ens), 0, 0)

    def test_trine_frequencies_near_two_thirds(self):
        ens = trine()
        sim = simulate_measurement(ens, complete_pom(ens), 100000, 9)
        for f in sim.conditional_frequencies:
            assert abs(f - 2.0 / 3.0) <= 0.01

    def test_frequencies_match_predicted_confidences(self):
        # empirical conditional frequencies stay within four binomial
        # standard deviations of the predicted confidence of each outcome
        for ens in ensemble_suite(213, 5):
            pom = complete_pom(ens)
            sim = simulate_measurement(ens, pom, 50000, 17)
            for k, (label, e) in enumerate(pom.effects):
                count = sim.outcome_counts[k]
                if count < 100:
                    continue
                predicted = min(max(confidence_of(ens, e, label), 0.0), 1.0)
                sigma = np.sqrt(predicted * (1.0 - predicted) / count)
                assert abs(sim.conditional_frequencies[k] - predicted) <= 4.0 * sigma + 1e-12


class TestPomValidation:
    def test_rejects_non_psd_effect(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            POM(((0, np.diag([1.0, -0.2])),), None)

    def test_rejects_effects_exceeding_identity(self):
        with pytest.raises(ValueError, match="exceed"):
            POM(((0, np.eye(2)), (1, 0.5 * np.eye(2))), None)

    def test_rejects_bad_completion(self):
        with pytest.raises(ValueError, match="identity"):
            POM(((0, 0.5 * np.eye(2)),), 0.25 * np.eye(2))

    def test_needs_some_effect(self):
        with pytest.raises(ValueError, match="at least one"):
            POM((), None)

    def test_rejects_effects_of_different_dimensions(self):
        with pytest.raises(ValueError, match="^effects must share one dimension$"):
            POM(((0, 0.5 * np.eye(2)), (1, 0.5 * np.eye(3))), None)

    def test_rejects_a_fail_effect_that_is_not_psd(self):
        with pytest.raises(ValueError, match="^fail effect is not positive semidefinite$"):
            POM(((0, np.diag([1.2, 0.5])),), np.diag([-0.2, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_effect_before_decomposing(self, monkeypatch, bad):
        # every comparison with NaN is false, so only an explicit check stops it
        eigh = np.linalg.eigh

        def finite_only(m):
            assert np.all(np.isfinite(m)), "decomposed a non-finite matrix"
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", finite_only)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: finite_only(m)[0])
        with pytest.raises(ValueError, match="^effect 0 has a non-finite entry$"):
            POM(((0, [[bad, 0.0], [0.0, 1.0]]),), None)
        with pytest.raises(ValueError, match="^effect 1 has a non-finite entry$"):
            POM(((0, 0.25 * np.eye(2)), (1, np.diag([0.25, bad]))), np.eye(2) / 2)
        with pytest.raises(ValueError, match="^fail effect has a non-finite entry$"):
            POM(((0, 0.5 * np.eye(2)),), [[0.5, bad], [bad, 0.5]])


class TestCompletePomKeepsEveryCheck:
    """complete_pom hands the factors it built to POM; an effect
    t W_j W_j^dagger is Hermitian and PSD by construction, and the checks
    that remain (finite factors, the fail effect's) still run."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_factor_raises_the_constructors_error(self, bad):
        ens = trine()
        bound, vectors = ens.top(1)
        ens.__dict__["_tops"][1] = (bound, np.full_like(vectors, bad))
        with pytest.raises(ValueError) as public:
            POM(((0, 0.25 * np.eye(2)), (1, np.diag([0.25, bad]))), None)
        with pytest.raises(ValueError) as owned, np.errstate(invalid="ignore"):
            complete_pom(ens)
        assert str(public.value) == str(owned.value) == "effect 1 has a non-finite entry"

    def test_a_turned_trine_completes_with_a_fail_effect_of_roundoff_size(self):
        # no inconclusive outcome: the fail effect is roundoff, and the sum it
        # completes is made exactly Hermitian so that it passes the relative check
        u = random_unitary(np.random.default_rng(3), 2)
        ens = Ensemble.from_pure([u @ k for k in trine_kets()], [1 / 3] * 3)
        pom = complete_pom(ens)
        assert np.abs(pom.fail).max() <= 1e-15
        assert [r[2] for r in confidence_report(ens, pom).records] == pytest.approx([2 / 3] * 3, abs=1e-12)

    def test_every_effect_is_hermitian_and_psd_and_the_fail_effect_completes_them(self):
        for ens in ensemble_suite(214, 10):
            pom = complete_pom(ens)
            total = pom.fail.copy()
            for _, e in effect_matrices(pom):
                assert np.array_equal(e, e.conj().T) and not np.any(np.diag(e).imag)
                assert np.linalg.eigvalsh(e)[0] >= -1e-12
                total += e
            assert np.linalg.norm(total - np.eye(ens.dim)) <= 1e-12

    @pytest.mark.parametrize(
        "make",
        [
            lambda: read_spec("fixtures/trine.json").ensemble,
            lambda: read_spec("fixtures/worked_example.json").ensemble,
            lambda: read_spec("fixtures/near_parallel.json").ensemble,
            lambda: random_ensemble(np.random.default_rng(41), 6, [1, 3, 2, 1, 4]),
        ],
        ids=["trine", "worked_example", "near_parallel", "seeded-mixed"],
    )
    def test_public_constructor_accepts_the_result(self, make):
        pom = complete_pom(make())
        assert not pom.fail.flags.writeable
        for _, (w, _) in pom.effects:
            assert not w.flags.writeable
        again = POM(effect_matrices(pom), pom.fail)  # refactored by eigh: equal up to roundoff
        assert [label for label, _ in again.effects] == [label for label, _ in pom.effects]
        for e, e_again in zip(outcome_matrices(pom), outcome_matrices(again)):
            assert np.abs(e - e_again).max() <= 1e-14 * max(1.0, np.abs(e).max())

    def test_public_constructor_leaves_the_callers_arrays_alone(self):
        effect = np.array([[0.5, 1e-12], [0.0, 0.5]], dtype=np.complex128)
        fail = np.eye(2, dtype=np.complex128) - effect
        before = effect.copy(), fail.copy()
        pom = POM(((0, effect),), fail)
        assert effect.flags.writeable and fail.flags.writeable
        assert np.array_equal(effect, before[0]) and np.array_equal(fail, before[1])
        stored = gram(*pom.effects[0][1])
        assert np.array_equal(stored, stored.conj().T)
        assert np.abs(stored - hermitize(effect)).max() <= 1e-15


def eager_complete_pom(ens):
    """complete_pom as computed on d x d matrices: each direction
    rho^{-1} p_j rho_j rho^{-1} (pure) or rho^{-1/2} P_max rho^{-1/2}
    (mixed, P_max onto the top eigenspace of p_j rho^{-1/2} rho_j rho^{-1/2}),
    scaled by 1 / gamma_max of their sum."""
    supp = support(ens.average)
    v, lam = supp.eigenvectors, supp.eigenvalues
    rinv, s = (v / lam) @ v.conj().T, (v / np.sqrt(lam)) @ v.conj().T
    dirs = []
    for j, rho in enumerate(ens.states):
        if ens.is_pure(j):
            dirs.append(rinv @ (ens.priors[j] * rho) @ rinv)
        else:
            vals, vecs = np.linalg.eigh(hermitize(ens.priors[j] * (s @ rho @ s)))
            top = vecs[:, vals >= vals[-1] * (1.0 - 1e-9)]
            dirs.append(s @ top @ top.conj().T @ s)
    total = hermitize(sum(dirs))
    t = 1.0 / float(np.linalg.eigvalsh(total)[-1])
    return [hermitize(t * m) for m in dirs], hermitize(np.eye(ens.dim) - t * total)


REBUILT_CASES = pytest.mark.parametrize("make", [
    lambda: read_spec("fixtures/trine.json").ensemble,
    lambda: read_spec("fixtures/worked_example.json").ensemble,
    lambda: read_spec("fixtures/near_parallel.json").ensemble,
    lambda: random_ensemble(np.random.default_rng(43), 5, [2, 1, 3, 1]),
    lambda: random_ensemble(np.random.default_rng(44), 16, [1, 4] * 6),
], ids=["trine", "worked_example", "near_parallel", "seeded-mixed-d5", "seeded-mixed-d16"])


class TestEffectPairs:
    """complete_pom keeps no effect arrays: it hands out effect k as the
    pair (W_k, t), and the pom report forms the matrix as gram(W_k, t)."""

    @REBUILT_CASES
    def test_each_effect_is_a_read_only_factor_pair_forming_the_same_matrix_twice(self, make):
        pom = complete_pom(make())
        assert [label for label, _ in pom.effects] == list(range(len(pom.effects)))
        scales = {t for _, (_, t) in pom.effects}
        assert len(scales) == 1
        for _, (w, t) in pom.effects:
            assert not w.flags.writeable
            e, again = gram(w, t), gram(w, t)
            assert again is not e and e.tobytes() == again.tobytes()
            assert not e.flags.writeable

    @REBUILT_CASES
    def test_effects_match_an_eager_completion_on_matrices(self, make):
        effects, fail = eager_complete_pom(make())
        pom = complete_pom(make())
        assert [label for label, _ in pom.effects] == list(range(len(effects)))
        for e, expected in zip(outcome_matrices(pom), effects + [fail], strict=True):
            assert np.abs(e - expected).max() <= 1e-12
