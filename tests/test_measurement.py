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
    simulate_measurement,
)
from maxconf.linalg import gram, kept, real_trace
from maxconf.measurement import _SAMPLE_CHUNK, _draws, _integer_edges, outcome_table
from maxconf.specio import read_spec

from randomgen import (
    ensemble_suite,
    hermitize,
    random_complete_pom,
    random_density,
    random_effect,
    random_ensemble,
    random_unitary,
)
from helpers import effect_matrices, outcome_matrices, trine, trine_kets, worked, worked_bound
from splitmix import one_shot_sample, splitmix64, uniforms


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
            pom = complete_pom(ens)
            for j in range(ens.n_states):
                w, t = pom.effects[j][1]
                reference = confidence_of(ens, (w, t), j)
                for c in (1e-3, 1.0, 1e3):
                    assert abs(confidence_of(ens, (w, c), j) - reference) <= 1e-12
                    assert abs(confidence_of(ens, gram(w, c), j) - reference) <= 1e-12

    def test_confidence_beyond_roundoff_still_raises(self):
        # an indefinite "effect" gives a genuine 2.0, which is not clamped
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        with pytest.raises(ValueError, match="out of range"):
            confidence_of(ens, np.diag([1.0, -0.5]), 0)

    def test_a_tuple_that_is_not_a_pair_is_named(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5])
        with pytest.raises(ValueError, match=r"^effect must be a factor pair \(W, t\)$"):
            confidence_of(ens, (np.eye(2),), 0)

    def test_zero_probability_outcome_rejected(self):
        ens = Ensemble.from_pure(
            [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])], [0.5, 0.5]
        )
        probe = np.zeros((3, 3), dtype=complex)
        probe[2, 2] = 1.0
        with pytest.raises(ValueError, match="undefined"):
            confidence_of(ens, probe, 0)

    @pytest.mark.parametrize("scale", [1e-15, 1e-30, 1e15])
    def test_a_rescaled_effect_keeps_its_conditional(self, scale):
        # At 1e-15 the outcome probability, 6.7e-16, is below any fixed floor.
        ens = trine()
        w, t = complete_pom(ens).effects[0][1]
        for effect in ((w, scale * t), gram(w, scale * t)):
            assert abs(confidence_of(ens, effect, 0) - 2 / 3) <= 1e-12

    def test_a_conditional_exists_above_1e_14_times_the_effects_norm(self):
        # on |0>, diag(a, 1) has outcome probability a and a norm within 1e-28 of 1
        ens = Ensemble.from_pure([np.array([1.0, 0.0])], [1.0])
        assert confidence_of(ens, np.diag([1.01e-14, 1.0]), 0) == 1.0
        with pytest.raises(ValueError, match="conditional undefined"):
            confidence_of(ens, np.diag([0.99e-14, 1.0]), 0)

    def test_an_effect_orthogonal_to_the_support_is_undefined_at_any_scale(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])], [0.5, 0.5])
        w = np.array([[0.0], [0.0], [1.0]], dtype=complex)
        for effect in ((w, 1e-20), (w, 1.0), gram(w, 1e20)):
            with pytest.raises(ValueError, match=r"^outcome probability 0\.0 too small: conditional undefined$"):
                confidence_of(ens, effect, 0)


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

    def test_linearly_independent_members_reach_exactly_one(self):
        ens = Ensemble.from_pure([np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])], [0.5, 0.5])
        pom = complete_pom(ens)
        for label, e in pom.effects:
            assert max_confidence(ens, label) == 1.0
            assert 0.0 <= confidence_of(ens, e, label) <= 1.0


class TestOptimalEffect:
    def test_a_member_beside_a_prior_of_3e_10_attains_its_bound(self):
        # rho is member 0's state to 3e-10, so member 0's three whitened squared
        # singular values all lie within 1e-9 relative of its bound, yet are
        # distinct; an effect on all three attained their weighted mean,
        # 4.9e-10 short of the bound.
        rng = np.random.default_rng(34)
        states = (random_density(rng, 3, 3), random_density(rng, 3, 3))
        ens = Ensemble(3, states, np.array([1.0 - 3e-10, 3e-10]))
        for label, _, achieved, _ in confidence_report(ens, complete_pom(ens)).records:
            assert abs(achieved - max_confidence(ens, label)) <= 1e-13

    def test_worked_example_directions(self):
        p, q = 0.4, 0.7
        ens = worked(p, q)
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        pom = complete_pom(ens)
        e0 = gram(*pom.effects[0][1])
        assert abs(psi.conj() @ e0 @ psi) <= 1e-12
        e1 = gram(*pom.effects[1][1])
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

            dirs = [gram(w) for _, (w, _) in pom.effects]
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
        # a POM the public constructor took, fail column last.
        rng = np.random.default_rng(36)
        for ens in ensemble_suite(210, 12):
            for pom in (complete_pom(ens), random_complete_pom(rng, ens.dim, ens.n_states)):
                expected = [[real_trace(rho @ e) for e in outcome_matrices(pom)] for rho in ens.states]
                table = outcome_table(ens, pom)
                assert table.shape == (ens.n_states, len(outcome_matrices(pom)))
                assert np.abs(table - np.array(expected)).max() <= 1e-12


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
    effects = np.array([[0.25, 0.5, 0.2], [0.45, 0.25, 0.3], [0.3, 0.25, 0.5]])
    pom = POM(tuple((k, (np.diag(np.sqrt(e)), 1.0)) for k, e in enumerate(effects)),
              np.diag(1.0 - effects[0] - effects[1] - effects[2]))
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

    def test_two_thousand_members_match_a_row_search(self):
        # 2100 members, with more than 500 trials prepared as labels 2047 and
        # up, whose rows sit past 2^11 rows into the edge table; the reference
        # finds each trial's outcome in its own row, where one_shot_sample's
        # (trials x outcomes) table would take about 300 MB
        n = 2100
        rng = np.random.default_rng(24)
        priors = np.linspace(1.0, 3.0, n)
        ens = Ensemble.from_pure(list(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))),
                                 priors / priors.sum())
        pom = complete_pom(ens)
        trials = 2 * _SAMPLE_CHUNK + 1
        prob = np.clip(outcome_table(ens, pom), 0.0, None)
        cum = np.cumsum(prob / prob.sum(axis=1, keepdims=True), axis=1)
        cum[:, -1] = 1.0
        u = uniforms(25, trials)
        prepared = np.minimum(np.searchsorted(np.cumsum(ens.priors), u[:, 0], side="right"), n - 1)
        joint = np.zeros((n, n + 1), dtype=np.int64)
        for i, v in zip(prepared, u[:, 1]):
            joint[i, np.count_nonzero(v >= cum[i])] += 1
        assert joint[2047:].sum() > 500, joint[2047:].sum()
        sim = simulate_measurement(ens, pom, trials, 25)
        assert sim.outcome_counts == tuple(joint.sum(axis=0).tolist())
        assert sim.correct_counts == tuple(int(joint[label, k]) for k, (label, _) in enumerate(pom.effects))

    def test_generator_draws_are_whole_multiples_of_two_to_the_minus_53(self):
        # the sampler compares draws with its edges as integers m = u 2^53,
        # the top 53 bits of each 64-bit output
        for seed in (0, 1, 21):
            m = _draws(seed, 0, 1 << 16)
            assert m.dtype == np.uint64
            assert 2 ** 52 <= int(m.max()) < 2 ** 53

    def test_draws_match_splitmix64s_published_outputs(self):
        published = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                     4593380528125082431, 16408922859458223821]
        assert splitmix64(1234567, 5) == published
        assert _draws(1234567, 0, 5).tolist() == [x >> 11 for x in published]

    @pytest.mark.parametrize("seed", [0, 1234567, (1 << 64) - 1])
    def test_any_stretch_of_draws_is_the_reference_stream_at_its_counters(self, seed):
        # the state seed + (j + 1) gamma wraps past 2^64 at once for the largest seed
        stream = [x >> 11 for x in splitmix64(seed, 3 * _SAMPLE_CHUNK)]
        for start, count in ((0, 1), (5, 3), (_SAMPLE_CHUNK - 1, _SAMPLE_CHUNK + 2)):
            assert _draws(seed, start, count).tolist() == stream[start:start + count]

    @pytest.mark.parametrize("cum", [
        np.cumsum([0.1] * 10),  # last entry 0.9999999999999999, below 1
        np.array([0.25, 0.7, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -52]),  # a partial sum above 1
        np.array([3, 1 << 52, (1 << 53) - 1, 1 << 53]) * 2.0 ** -53,  # dyadic k 2^-53
        np.array([1e-300, 0.5, 1.0]),
        np.array([1.0 / 3.0, 2.0 / 3.0, 1.0]),
        np.cumsum(np.random.default_rng(26).dirichlet(np.ones(7))),
    ], ids=["tenths", "overshoot", "dyadic", "1e-300", "thirds", "random"])
    def test_integer_edges_place_every_draw_as_the_float_rule_does(self, cum):
        # u = m 2^-53 against a cumulative c, with the last outcome taking
        # whatever lies past the end, at the draws on either side of each edge
        edges = _integer_edges(cum.copy())
        # the last edge, 2^53, is above every draw and no edge is past it
        assert edges[-1] == 1 << 53 and edges.max() == 1 << 53
        m = np.unique(np.concatenate([edges - 1, edges, edges + 1]))
        m = m[m < 1 << 53]
        expected = np.minimum(np.searchsorted(cum, m * 2.0 ** -53, side="right"), cum.size - 1)
        assert np.searchsorted(edges, m, side="right").tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_sixty_four_bits_is_rejected(self, seed):
        # 2^64 would alias seed 0 mod 2^64
        ens = trine()
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            simulate_measurement(ens, complete_pom(ens), 10, seed)

    def test_largest_seed_is_accepted(self):
        ens = trine()
        pom = complete_pom(ens)
        sim = simulate_measurement(ens, pom, 100, (1 << 64) - 1)
        assert (sim.outcome_counts, sim.correct_counts) == one_shot_sample(ens, pom, 100, (1 << 64) - 1)

    @staticmethod
    def _simulate_peak(ens, trials):
        pom = complete_pom(ens)
        simulate_measurement(ens, pom, 1, 5)  # one-time costs of a first call stay untraced
        tracemalloc.start()
        try:
            simulate_measurement(ens, pom, trials, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_outcomes(self):
        # two blocks of trials; a (block x outcomes) table would cost
        # 8192 x 65 x 8 B = 4.3 MB on the 65-outcome ensemble
        wide = random_ensemble(np.random.default_rng(23), 16, [1] * 64)
        assert wide.n_states + 1 == 65
        assert self._simulate_peak(wide, 2 * _SAMPLE_CHUNK) <= 2 * self._simulate_peak(trine(), 2 * _SAMPLE_CHUNK)

    def test_memory_does_not_grow_with_trials(self):
        two, many = (self._simulate_peak(trine(), blocks * _SAMPLE_CHUNK) for blocks in (2, 64))
        assert many <= 1.25 * two, f"{two} B at 2 blocks, {many} B at 64"
        assert many < 1 << 20

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


FIXTURES = ["trine", "worked_example", "near_parallel", "tiny_prior", "negative_roundoff"]


def half(d=2, bad=None):
    """The factor pair of I/2 on d dimensions, W = I / sqrt(2), its last
    diagonal entry replaced by bad when given."""
    w = np.eye(d) / np.sqrt(2.0)
    if bad is not None:
        w[-1, -1] = bad
    return w, 1.0


class TestPomValidation:
    def test_rejects_a_matrix_effect(self):
        with pytest.raises(ValueError, match=r"^effect 0 must be a factor pair \(W, t\)$"):
            POM(((0, 0.5 * np.eye(2)),), 0.5 * np.eye(2))
        with pytest.raises(ValueError, match=r"^effect 1 must be a factor pair \(W, t\)$"):
            POM(((0, half()), (1, [np.eye(2) / np.sqrt(2.0), 1.0])), np.zeros((2, 2)))

    def test_rejects_a_tuple_effect_that_is_not_a_pair(self):
        w, t = half()
        with pytest.raises(ValueError, match=r"^effect 0 must be a factor pair \(W, t\)$"):
            POM(((0, (w, t, 1)),), np.eye(2) / 2)

    def test_names_a_fail_effect_that_is_not_a_matrix(self):
        with pytest.raises(ValueError, match="^fail effect must be a matrix, got array of dimension 0$"):
            POM(((0, half()),), None)

    @pytest.mark.parametrize("t", [-0.5, -1e-300])
    def test_rejects_a_negative_scale_that_the_fail_effect_would_make_up(self, t):
        # -0.5 I plus a fail effect of 1.5 I resolves the identity, but the
        # effect is negative
        with pytest.raises(ValueError, match=f"^effect 0 has a negative scale t = {re.escape(repr(t))}$"):
            POM(((0, (np.eye(2), t)),), (1.0 - t) * np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_factor_or_scale_before_decomposing(self, monkeypatch, bad):
        # every comparison with NaN is false, so only an explicit check stops it
        eigh = np.linalg.eigh

        def finite_only(m):
            assert np.all(np.isfinite(m)), "decomposed a non-finite matrix"
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", finite_only)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: finite_only(m)[0])
        with pytest.raises(ValueError, match="^effect 0 has a non-finite entry$"):
            POM(((0, half(bad=bad)),), np.eye(2) / 2)
        with pytest.raises(ValueError, match="^effect 1 has a non-finite entry$"):
            POM(((0, half()), (1, (np.eye(2), bad))), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^fail effect has a non-finite entry$"):
            POM(((0, half()),), [[0.5, bad], [bad, 0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_factor_is_named_before_its_rows(self, bad):
        with pytest.raises(ValueError, match="^effect 0 has a non-finite entry$"):
            POM(((0, half(3, bad)),), np.eye(2))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_rejects_a_factor_whose_rows_are_not_the_fail_effects_dimension(self, rows):
        with pytest.raises(ValueError, match="^effect 1 must have 2 rows$"):
            POM(((0, half()), (1, (np.ones((rows, 1)), 0.25))), 0.25 * np.eye(2))

    def test_rejects_bad_completion(self):
        with pytest.raises(ValueError, match="^effects plus fail do not resolve the identity$"):
            POM(((0, half()),), 0.25 * np.eye(2))

    def test_completeness_is_checked_at_1e_9(self):
        effects = ((0, (np.array([[1.0], [0.0]]), 1.0)),)
        POM(effects, np.diag([0.0, 1.0 + 0.99e-9]))
        with pytest.raises(ValueError, match="do not resolve the identity"):
            POM(effects, np.diag([0.0, 1.0 + 1.01e-9]))

    def test_rejects_a_fail_effect_that_is_not_psd(self):
        with pytest.raises(ValueError, match="^fail effect is not positive semidefinite$"):
            POM(((0, (np.diag(np.sqrt([1.2, 0.5])), 1.0)),), np.diag([-0.2, 0.5]))

    def test_decomposes_the_fail_effect_alone(self, monkeypatch):
        # each effect is PSD by construction; one eigvalsh checks the fail effect
        calls = []

        def refused(*args, **kwargs):
            raise AssertionError("an effect was decomposed")

        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np.linalg, "svd", refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        pom = POM(((0, (np.eye(3), 0.5)), (1, (np.diag([1.0, 0.5, 0.0])[:, :2], 0.5))),
                  np.diag([0.0, 0.375, 0.5]))
        assert calls == [(3, 3)]
        assert [(w.shape, t) for _, (w, t) in pom.effects] == [((3, 3), 0.5), ((3, 2), 0.5)]


class TestMemberIndex:
    """A member index outside [0, n) is an error that names it; -1 does not
    read the last member."""

    @pytest.mark.parametrize("j", [-1, 2])
    def test_every_entry_point_rejects_it(self, j):
        ens = worked(0.5, 0.25)
        message = f"^member index {j} outside \\[0, 2\\)$"
        with pytest.raises(ValueError, match=message):
            ens.top(j)
        with pytest.raises(ValueError, match=message):
            max_confidence(ens, j)
        with pytest.raises(ValueError, match=message):
            confidence_of(ens, np.eye(2), j)
        pom = complete_pom(ens)
        (_, pair), rest = pom.effects[0], pom.effects[1:]
        relabelled = POM(((j, pair),) + rest, pom.fail)
        with pytest.raises(ValueError, match=message):
            outcome_table(ens, relabelled)
        with pytest.raises(ValueError, match=message):
            confidence_report(ens, relabelled)
        with pytest.raises(ValueError, match=message):
            simulate_measurement(ens, relabelled, 10, 0)


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
            POM(((0, half()), (1, half(bad=bad))), np.zeros((2, 2)))
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

    @pytest.mark.parametrize("name", FIXTURES)
    def test_the_public_constructor_rebuilds_the_result_bit_for_bit(self, name):
        ens = read_spec(f"fixtures/{name}.json").ensemble
        pom = complete_pom(ens)
        assert not pom.fail.flags.writeable
        for _, (w, _) in pom.effects:
            assert not w.flags.writeable
        again = POM(pom.effects, pom.fail)
        assert again.fail is not pom.fail and again.fail.tobytes() == pom.fail.tobytes()
        for (label, (w, t)), (label_again, (w_again, t_again)) in zip(pom.effects, again.effects, strict=True):
            assert (label_again, t_again) == (label, t)
            assert w_again is not w and not w_again.flags.writeable and w_again.tobytes() == w.tobytes()
        assert outcome_table(ens, again).tobytes() == outcome_table(ens, pom).tobytes()
        report, report_again = confidence_report(ens, pom), confidence_report(ens, again)
        assert report_again.records == report.records
        assert report_again.inconclusive_probability == report.inconclusive_probability

    def test_public_constructor_leaves_the_callers_arrays_alone(self):
        w = np.array([[0.5, 1e-12], [0.0, 0.5]], dtype=np.complex128)
        fail = np.eye(2, dtype=np.complex128) - w @ w.conj().T
        fail[0, 1] += 1e-13  # Hermitian within tolerance, but not exactly
        before = w.copy(), fail.copy()
        pom = POM(((0, (w, 1.0)),), fail)
        assert w.flags.writeable and fail.flags.writeable
        assert np.array_equal(w, before[0]) and np.array_equal(fail, before[1])
        stored, _ = pom.effects[0][1]
        assert stored is not w and np.array_equal(stored, w) and not stored.flags.writeable
        assert np.array_equal(pom.fail, pom.fail.conj().T)
        assert np.abs(pom.fail - hermitize(fail)).max() <= 1e-15


def eager_complete_pom(ens):
    """complete_pom as computed on d x d matrices: each direction
    rho^{-1} p_j rho_j rho^{-1} (pure) or rho^{-1/2} P_max rho^{-1/2}
    (mixed, P_max onto the top eigenspace of p_j rho^{-1/2} rho_j rho^{-1/2}),
    scaled by 1 / gamma_max of their sum."""
    lam, v = np.linalg.eigh(ens.average)
    v, lam = v[:, kept(lam)], lam[kept(lam)]
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
