"""Property suite over the edge families, against one independent oracle.

The oracle builds the average from the member factors in 40 digits with
mpmath, which maxconf never imports, and reads off it the support rank,
each member's bound on the kept support (Croke et al., PRL 96, 070401,
2006), the kept eigenvalues and the completed measurement's outcome
probabilities.  On every family it checks each bound, each achieved
confidence of the completed measurement, by its report and by
confidence_of, verify's bipartite bound and concentrate's success
probability lambda_min * D at an absolute 1e-12, with no guard on the
average's conditioning; the support rank wherever no eigenvalue lies near
the rank cutoff; and the outcome and inconclusive probabilities at 1e-12
plus the roundoff a mixed member's top space may turn by, where that is
under 1e-9.  Examples are derandomized, so every run draws the same
ensembles, and the inputs in EXAMPLES, once refused or misread, run too.

The families are: overcomplete pure and mixed members, one prior possibly
scaled down to anywhere from 1e-4 to 1e-12; linearly independent pure
members; near-parallel pairs at a random orientation, at any angle from
1e-7 to 1e-1 rad; a member whose whitened top eigenspace is degenerate of
multiplicity 2 or 3; a rank-deficient average; a qutrit member with an
eigenvalue nearly as negative as the PSD slack admits beside a pure member on
its null space; and matrix members each at its own draw of the edges the
reader admits: the PSD slack, the Hermiticity slack and the trace slack.

Besides bound, pom and verify, the paper's own claims run over every
family: each bound's dual certificate, no signalling for random complete
measurements, filters that never raise a bound (and move none when
invertible), concentration at lambda_min * D, the maximum confidence as
what concentrating and then measuring gives and as the bound read off the
right Schmidt vectors, and simulated frequencies inside their 3-sigma
bands.  The filter properties run family by family, so a family they fail
on can be pinned as a strict xfail on its own.
"""

import numpy as np
import pytest

from maxconf import (
    Ensemble,
    allowed_subspace,
    apply_kraus,
    bound_bipartite,
    complete_pom,
    concentrate,
    conditional_diagonals,
    confidence_of,
    confidence_report,
    marginal_invariance,
    max_confidence,
    monotonicity_check,
    purify,
    reports,
    schmidt,
)
from maxconf.ensembles import _TRACE_TOL
from maxconf.linalg import HERMITICITY_TOL, PSD_TOL

from randomgen import random_complete_pom, random_density, random_ket, random_kraus, random_unitary

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
TOL = 1e-9


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def _state(rng, dim, rank):
    if rank == 1:
        k = random_ket(rng, dim)
        return np.outer(k, k.conj())
    return random_density(rng, dim, rank)


def _priors(rng, n):
    p = 0.1 + rng.random(n)
    return p / p.sum()


def _embedded(basis, state):
    """A state on the span of basis's orthonormal columns, in the full space."""
    return basis @ state @ basis.conj().T


@st.composite
def overcomplete(draw):
    """Pure and mixed members whose ranks add up to more than d."""
    dim = draw(st.integers(2, 6))
    ranks = draw(st.lists(st.integers(1, dim), min_size=2, max_size=6).filter(lambda r: sum(r) > dim))
    rng = np.random.default_rng(draw(SEEDS))
    priors = _priors(rng, len(ranks))
    small = draw(st.none() | st.integers(0, len(ranks) - 1))
    if small is not None:
        tiny = 10.0 ** draw(st.floats(-12.0, -4.0))
        priors *= (1.0 - tiny) / (priors.sum() - priors[small])
        priors[small] = tiny
    return Ensemble(dim, tuple(_state(rng, dim, r) for r in ranks), priors)


@st.composite
def independent(draw):
    """At most d random kets, linearly independent with probability one."""
    dim = draw(st.integers(2, 6))
    n = draw(st.integers(2, dim))
    rng = np.random.default_rng(draw(SEEDS))
    return Ensemble.from_pure([random_ket(rng, dim) for _ in range(n)], _priors(rng, n))


def turned_pair(theta: float, seed: int) -> Ensemble:
    """Two equiprobable qubit kets theta rad apart, turned by a seeded random unitary."""
    u = random_unitary(np.random.default_rng(seed), 2)
    kets = [u @ np.array([1.0, 0.0]), u @ np.array([np.cos(theta), np.sin(theta)])]
    return Ensemble.from_pure(kets, [0.5, 0.5])


@st.composite
def near_parallel(draw):
    """A turned pair at any theta from 1e-7 to 1e-1."""
    return turned_pair(10.0 ** draw(st.floats(-7.0, -1.0)), draw(SEEDS))


@st.composite
def degenerate(draw):
    """Member 0 is the maximally mixed state on a random m-plane P, m = 2
    or 3.  Member 1 is the same plus a random state on P's complement, and
    any further pure members live on that complement, so the average is a
    multiple of the identity on P and member 0's whitened top eigenspace is
    all of P."""
    m = draw(st.integers(2, 3))
    dim = draw(st.integers(m + 1, 6))
    rng = np.random.default_rng(draw(SEEDS))
    u = random_unitary(rng, dim)
    plane, rest = u[:, :m], u[:, m:]
    w = 0.1 + 0.8 * rng.random()
    tau = random_density(rng, dim - m, int(rng.integers(1, dim - m + 1)))
    states = [
        _embedded(plane, np.eye(m) / m),
        _embedded(plane, w * np.eye(m) / m) + (1 - w) * _embedded(rest, tau),
    ]
    for _ in range(draw(st.integers(0, 2))):
        states.append(_embedded(rest, _state(rng, dim - m, 1)))
    return Ensemble(dim, tuple(states), _priors(rng, len(states)))


@st.composite
def rank_deficient(draw):
    """Members confined to a random k-dimensional subspace, k < d."""
    dim = draw(st.integers(3, 6))
    k = draw(st.integers(2, dim - 1))
    ranks = draw(st.lists(st.integers(1, k), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(SEEDS))
    basis = random_unitary(rng, dim)[:, :k]
    states = tuple(_embedded(basis, _state(rng, k, r)) for r in ranks)
    return Ensemble(dim, states, _priors(rng, len(ranks)))


@st.composite
def negative_roundoff(draw):
    """diag(1/2, 1/2 + eps, -eps) with eps up to 0.99 of the PSD slack of
    1e-10, and a pure member on its -eps direction, in a random basis: the
    factor drops the negative eigenvalue, so both bounds are 1.  The random
    basis moves -eps by roundoff, 8e-18 at eps = 1e-10, so eps at the slack
    itself is rejected for some bases."""
    eps = 10.0 ** draw(st.floats(-13.0, float(np.log10(0.99 * PSD_TOL))))
    rng = np.random.default_rng(draw(SEEDS))
    u = random_unitary(rng, 3)
    states = (_embedded(u, np.diag([0.5, 0.5 + eps, -eps])), _embedded(u, np.diag([0.0, 0.0, 1.0])))
    p = draw(st.floats(0.05, 0.95))
    return Ensemble(3, states, np.array([p, 1.0 - p]))


@st.composite
def slack_edge(draw):
    """Matrix members of rank below d, each at its own draw of the edges the
    reader admits: a null eigenvalue at -0.99 PSD_TOL, the kept ones raised
    so the trace stays 1; an anti-Hermitian part at 0.49 HERMITICITY_TOL of
    the norm (the check reads ||m - m^dagger||, twice that); a trace at
    1 +- 0.99 _TRACE_TOL."""
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    states = []
    for _ in range(n):
        negative, skew, sign = draw(st.tuples(st.booleans(), st.booleans(), st.sampled_from([-1, 0, 1])))
        rank = int(rng.integers(1, dim))
        vals = np.zeros(dim)
        vals[:rank] = 0.1 + rng.random(rank)
        vals /= vals.sum()
        if negative:
            vals *= 1.0 + 0.99 * PSD_TOL
            vals[rank] = -0.99 * PSD_TOL
        m = _embedded(random_unitary(rng, dim), np.diag(vals * (1.0 + sign * 0.99 * _TRACE_TOL)))
        if skew:
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a -= a.conj().T
            m += (0.49 * HERMITICITY_TOL * np.linalg.norm(m) / np.linalg.norm(a)) * a
        states.append(m)
    return Ensemble(dim, tuple(states), _priors(rng, n))


FAMILIES = {
    "overcomplete": overcomplete(),
    "independent": independent(),
    "near-parallel": near_parallel(),
    "degenerate": degenerate(),
    "rank-deficient": rank_deficient(),
    "negative-roundoff": negative_roundoff(),
    "slack-edge": slack_edge(),
}
ENSEMBLES = st.one_of(*FAMILIES.values())


def _prior_1e_6() -> Ensemble:
    rng = np.random.default_rng(2)
    return Ensemble(4, (_state(rng, 4, 4), _state(rng, 4, 1)), np.array([1e-6, 1.0 - 1e-6]))


# Valid ensembles a report once refused or misread because of roundoff, run
# besides the drawn ones: a family's by its tests, all by the tests over every
# family.  Turned pairs: a formed effect's entries grow like 1/theta^2, so
# confidence_of on complete_pom's effects as matrices was refused on about half
# the seeds; the bound of turned_pair(1e-5, 0) read 1.0000020581683202 and
# verify's achievability_gap on turned_pair(1e-3, 1) 1.97e-08.  A mixed member
# at a prior of 1e-6 beside a ket failed the PSD slack of scale 1.
EXAMPLES = {
    "near-parallel": [turned_pair(t, seed) for t in (3e-6, 1e-5, 1e-4) for seed in range(4)] + [turned_pair(1e-3, 1)],
    "overcomplete": [_prior_1e_6()],
}


def with_examples(test, family=None):
    """test with the inputs EXAMPLES lists for family, or for every family, as explicit examples."""
    for name, inputs in EXAMPLES.items():
        if family in (None, name):
            for ens in inputs:
                test = example(ens)(test)
    return test


def _bounds(ens):
    return np.array([max_confidence(ens, j) for j in range(ens.n_states)])


def _kept_support(rho):
    """The eigenvalues of rho above 1e-12 of the largest, ascending, and their eigenvectors."""
    spectrum, vectors = np.linalg.eigh(rho)
    keep = spectrum > 1e-12 * spectrum[-1]
    return spectrum[keep], vectors[:, keep]


def _oracle(mpmath, ens):
    """In 40 digits: the eigenvalues of rho, summed as p_j F_j F_j^dagger
    from the member factors, ascending; each member's bound on rho's top r
    eigenpairs (lambda, Q), r = Ensemble.support.rank, the top eigenvalue of
    G G^dagger, G = diag(1/sqrt(lambda)) Q^dagger sqrt(p_j) F_j; and the
    completed measurement's outcome probabilities, the inconclusive one
    last.  W_j = Q diag(1/sqrt(lambda)) T_j, with T_j as README's Library
    gives it (G itself for a pure member, else the eigenvectors of
    G G^dagger within 1e-12 relative of its top), is scaled by
    t = 1 / sigma_max([W_1 ... W_n])^2; outcome j has probability
    Tr(rho t W_j W_j^dagger) = t sum_i p_i Tr(rho_i W_j W_j^dagger), and the
    fail outcome Tr(rho (I - t sum_j W_j W_j^dagger)).  Last, the
    least distance from a mixed member's top eigenvalue of G G^dagger to
    the next one outside its top space (1 when every member is pure)."""
    with mpmath.workdps(40):
        factors = [mpmath.matrix(ens.factor(j).tolist()) for j in range(ens.n_states)]
        priors = [mpmath.mpf(float(p)) for p in ens.priors]
        rho = mpmath.zeros(ens.dim)
        for p, f in zip(priors, factors):
            rho += p * (f * f.H)
        lam, q = mpmath.eigh(rho)  # ascending
        kept = range(ens.dim - ens.support.rank, ens.dim)
        whiten = mpmath.matrix([[mpmath.conj(q[i, k]) / mpmath.sqrt(lam[k]) for i in range(ens.dim)]
                                for k in kept])
        bounds, effects, gap = [], [], 1.0
        for p, f in zip(priors, factors):
            g = whiten * f * mpmath.sqrt(p)
            if f.cols == 1:  # T_j = G_j for a pure member
                top, vectors = [mpmath.norm(g) ** 2], g
            else:
                top, vectors = mpmath.eigh(g * g.H)
            bounds.append(float(max(top)))  # no index -1 in mpmath
            inside = [top[k] >= max(top) * (1 - 1e-12) for k in range(len(top))]
            gap = min([gap] + [float(max(top) - top[k]) for k in range(len(top)) if not inside[k]])
            w = [whiten.H * vectors.column(k) for k in range(len(top)) if inside[k]]
            effects.append(sum((x * x.H for x in w), mpmath.zeros(ens.dim)))
        total = sum(effects, mpmath.zeros(ens.dim))
        t = 1 / max(mpmath.eigh(total, eigvals_only=True))
        outcomes = [t * e for e in effects] + [mpmath.eye(ens.dim) - t * total]
        indices = [(a, b) for a in range(ens.dim) for b in range(ens.dim)]
        probabilities = [float(mpmath.re(mpmath.fsum(e[a, b] * rho[b, a] for a, b in indices))) for e in outcomes]
    return [float(x) for x in lam], bounds, probabilities, gap


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_bound_derived_number_matches_the_40_digit_oracle(mpmath, family):
    # A tiny bound is accurate in absolute terms only, so the tolerance is absolute.
    @settings(SETTINGS, max_examples=30)
    @given(FAMILIES[family])
    def check(ens):
        spectrum, oracle, probabilities, gap = _oracle(mpmath, ens)
        # README's rank rule, applied apart from the library; roundoff may
        # carry an eigenvalue near the cutoff to either side of it.
        cutoff = 1e-12 * spectrum[-1]
        if not any(cutoff / 10 < x < 10 * cutoff for x in spectrum):
            assert ens.support.rank == sum(x > cutoff for x in spectrum)
        bs = purify(ens)
        basis = allowed_subspace(bs)
        for j, expected in enumerate(oracle):
            bound = max_confidence(ens, j)
            assert ens.priors[j] - TOL <= bound <= 1.0
            assert abs(bound - expected) <= 1e-12
            assert abs(bound_bipartite(bs, basis, j) - expected) <= 1e-12
        # Roundoff of about eps in G G^dagger turns a mixed member's top space
        # by up to eps / gap, and with it t and every outcome probability, so
        # these are left unchecked where that could pass 1e-9.
        slack = 1e-12 + 64 * np.finfo(float).eps / gap
        pom = complete_pom(ens)
        report = confidence_report(ens, pom)
        for label, _, achieved, probability in report.records:
            assert abs(achieved - oracle[label]) <= 1e-12
            assert slack > 1e-9 or abs(probability - probabilities[label]) <= slack
        assert slack > 1e-9 or abs(report.inconclusive_probability - probabilities[-1]) <= slack
        for label, effect in pom.effects:  # a caller's route, through the pair handed out
            assert abs(confidence_of(ens, effect, label) - oracle[label]) <= 1e-12
        rank = ens.support.rank
        if rank >= 2:  # lambda_min * D, the least of the oracle's kept eigenvalues
            assert abs(concentrate(bs).success_probability - spectrum[-rank] * rank) <= 1e-12

    with_examples(check, family)()


@SETTINGS
@given(ENSEMBLES)
def test_the_completed_measurement_is_at_the_largest_scale(ens):
    # A larger scale than 1/gamma would push the fail effect's zero below zero.
    _, on_support = _kept_support(ens.average)
    fail = complete_pom(ens).fail
    assert abs(np.linalg.eigvalsh(on_support.conj().T @ fail @ on_support)[0]) <= TOL


@SETTINGS
@given(ENSEMBLES, SEEDS)
def test_bounds_are_unitarily_invariant_and_permutation_equivariant(ens, seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, ens.dim)
    order = rng.permutation(ens.n_states)
    bounds = _bounds(ens)
    turned = Ensemble(ens.dim, tuple(u @ rho @ u.conj().T for rho in ens.states), ens.priors)
    permuted = Ensemble(ens.dim, tuple(ens.states[k] for k in order), ens.priors[order])
    assert np.abs(_bounds(turned) - bounds).max() <= TOL
    assert np.abs(_bounds(permuted) - bounds[order]).max() <= TOL


@with_examples
@SETTINGS
@given(ENSEMBLES)
def test_verify_passes(ens):
    # A conclusive outcome's leakage is the weight of the amplitudes' part
    # outside the allowed subspace, Z = A - (A B^*) B^T, so it reads roundoff;
    # so does the fail outcome's where README's rank rule drops no direction.
    report, ok = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
    assert ok, report["exceeded"]
    fail = report["checks"]["fail_leakage"] if _kept_support(ens.average)[0].size == ens.dim else None
    assert max([state["leakage"] for state in report["states"]] + [fail or 0.0]) <= 1e-18


@SETTINGS
@given(slack_edge())
def test_verify_passes_at_1e_12_at_the_slack_edges(ens):
    # Each member is rescaled to unit trace after its rank cut, so no admitted slack reaches a residual.
    report, ok = reports.verify_report(ens, 1e-12)
    assert ok, report["exceeded"]


@SETTINGS
@given(degenerate())
def test_a_degenerate_top_eigenspace_is_taken_whole(ens):
    _, vectors = ens.top(0)  # in the whitened coordinates of the support
    assert vectors.shape == (ens.support.rank, ens.state_ranks[0])


@SETTINGS
@given(ENSEMBLES)
def test_each_bound_has_its_dual_certificate(ens):
    # C_j rho - p_j rho_j >= 0 gives p_j Tr(rho_j E) <= C_j Tr(rho E) for
    # every E >= 0, so no measurement beats C_j (Croke et al., PRL 96,
    # 070401, 2006).  Bounds are defined on the kept support of rho, where
    # the fail effect does not reach, so the certificate is read there.  Its
    # trace C_j - p_j vanishes when the bound is the prior, so the PSD slack
    # is taken at the trace of C_j rho, the scale of both terms.
    _, v = _kept_support(ens.average)
    rho = v.conj().T @ ens.average @ v
    for j, bound in enumerate(_bounds(ens)):
        gap = bound * rho - ens.priors[j] * (v.conj().T @ ens.states[j] @ v)
        assert np.linalg.eigvalsh(gap)[0] >= -PSD_TOL * bound * np.trace(rho).real


@SETTINGS
@given(ENSEMBLES, SEEDS, st.integers(1, 4))
def test_no_measurement_on_the_left_signals_to_the_right(ens, seed, outcomes):
    # Croke, Andersson & Barnett, PRA 77, 012113 (2008): any complete
    # measurement leaves the right marginal as it was, and every outcome
    # steers the right side inside the span of its Schmidt vectors.
    bs = purify(ens)
    pom = random_complete_pom(np.random.default_rng(seed), ens.dim, outcomes)
    assert max(marginal_invariance(bs, p) for p in (pom, complete_pom(ens))) <= 1e-10
    effects = [e for _, e in pom.effects] + [pom.fail]
    for _, _, leakage in conditional_diagonals(bs, allowed_subspace(bs), effects):
        assert leakage <= 1e-10


# The rank rule merges near-parallel members whose average has an eigenvalue
# under 1e-12 of the largest, so each bound is its prior; a filter acts on
# the kept support only, so it cannot re-weight the merged members' priors.
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_filter_never_raises_a_bound(family):
    @SETTINGS
    @given(FAMILIES[family], SEEDS)
    def check(ens, seed):
        rng = np.random.default_rng(seed)
        kraus = random_kraus(rng, ens.dim, rank=int(rng.integers(1, ens.dim + 1)))
        transformed, _ = apply_kraus(ens, kraus)
        for record in monotonicity_check(ens, transformed, tol=TOL):
            assert record.confidence_after <= record.confidence_before + TOL

    check()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_filter_invertible_on_the_support_moves_no_bound(family):
    @SETTINGS
    @given(FAMILIES[family], SEEDS)
    def check(ens, seed):
        kraus = random_kraus(np.random.default_rng(seed), ens.dim, min_singular=0.2)
        transformed, _ = apply_kraus(ens, kraus)
        for record in monotonicity_check(ens, transformed, tol=TOL):
            assert abs(record.confidence_after - record.confidence_before) <= TOL

    check()


@SETTINGS
@given(ENSEMBLES)
def test_concentration_flattens_the_schmidt_spectrum(ens):
    # Bennett et al., PRA 53, 2046 (1996): the Procrustean filter leaves D
    # equal Schmidt coefficients; the oracle test checks its success
    # probability, lambda_min * D.
    bs = purify(ens)
    rank = _kept_support(ens.average)[0].size
    if rank < 2:
        with pytest.raises(ValueError, match="Schmidt rank 1"):
            concentrate(bs)
        return
    result = concentrate(bs)
    flat = np.linalg.svd(result.post_state.amplitudes, compute_uv=False) ** 2
    assert np.abs(flat[:rank] - 1.0 / rank).max() <= TOL
    assert np.all(flat[rank:] <= 1e-12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_bound_is_what_concentrating_then_measuring_gives(family):
    # The filter A = sqrt(lambda_min) rho^{-1/2} of concentrate(purify(ens)),
    # applied to the ensemble, leaves the average flat, Pi_D / D, so each
    # filtered bound is D p'_j lambda_max(rho'_j), and it is C_j; the
    # composed effect A^dagger V'_j V'_j^dagger A, V'_j the top singular
    # vector of the filtered factor, attains C_j on the ensemble itself.
    # A is formed through rho^{-1/2}, and its condition number is
    # sqrt(cond), cond = lambda_max / lambda_min of rho on its support, so
    # each route through it loses digits in proportion: a tiny prior or a
    # near-parallel pair takes cond to 1e12, and those examples need a bound
    # of about 1e-10 where a well-conditioned one needs 1e-14.  Over 600
    # examples per family every error stayed within 32 eps sqrt(cond).
    roundoff = 64 * np.finfo(float).eps

    @SETTINGS
    @given(FAMILIES[family])
    def check(ens):
        bs = purify(ens)
        if schmidt(bs).rank < 2:
            return  # a product state cannot be concentrated
        res = concentrate(bs)
        filtered, p = apply_kraus(ens, res.kraus)
        lam = res.before.coefficients
        rank, tol = lam.size, roundoff * np.sqrt(lam[0] / lam[-1])
        assert abs(p - res.success_probability) <= tol
        u = ens.support.eigenvectors
        assert np.abs(filtered.average - u @ u.conj().T / rank).max() <= tol
        for j in range(ens.n_states):
            bound = max_confidence(ens, j)
            v, s, _ = np.linalg.svd(filtered.factor(j), full_matrices=False)
            assert abs(rank * filtered.priors[j] * s[0] ** 2 - bound) <= tol
            assert abs(max_confidence(filtered, j) - bound) <= tol
            composed = (res.kraus.matrix.conj().T @ v[:, :1], 1.0)
            assert abs(confidence_of(ens, composed, j) - bound) <= tol

    check()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_bound_read_off_the_right_schmidt_rows_is_the_bound(family):
    # concentrate's post-state is U V^T / sqrt(D), so the concentrated member
    # j has D p'_j lambda_max(rho'_j) = sigma_max(V[sigma(j), :])^2: the
    # no-signalling bound read off the right Schmidt vectors V, a second
    # orthonormal basis of the allowed subspace beside verify's QR basis B.
    @SETTINGS
    @given(FAMILIES[family])
    def check(ens):
        bs = purify(ens)
        rows = schmidt(bs).right_vectors
        for j in range(ens.n_states):
            assert abs(bound_bipartite(bs, rows, j) - max_confidence(ens, j)) <= 1e-12

    check()


SIMULATION_SEEDS = (0, 1, 2)


@SETTINGS
@given(ENSEMBLES)
def test_simulated_conditional_frequencies_fall_in_their_3_sigma_band(ens):
    # A frequency leaves its band by chance on about 0.3% of outcomes, so one
    # seed may miss; a wrong expected confidence or a biased sampler moves the
    # frequency on every seed, so each outcome must be inside on most seeds.
    misses = {}
    for seed in SIMULATION_SEEDS:
        for outcome in reports.simulate_report(ens, 20000, seed)["outcomes"]:
            band = outcome["band_3sigma"]  # None when the outcome never fired
            if band is not None and abs(outcome["frequency"] - outcome["expected_confidence"]) > band:
                misses.setdefault(outcome["label"], []).append((seed, outcome))
    assert all(2 * len(m) < len(SIMULATION_SEEDS) for m in misses.values()), misses


def test_a_single_miss_near_one_lies_in_the_continuity_corrected_band():
    # One miss in 3156 shots at an expected confidence of 0.99998 is off by
    # 2.97e-4.  The bare 3 sqrt(p (1 - p) / n) is 2.39e-4 and misses it; the
    # continuity correction 1 / (2n) widens the band to 3.97e-4.
    p, n = 0.99998, 3156
    deviation = p - (n - 1) / n
    bare = 3.0 * np.sqrt(p * (1.0 - p) / n)
    band = reports._band_3sigma(p, n)
    assert (round(deviation, 6), round(bare, 6), round(band, 6)) == (2.97e-4, 2.39e-4, 3.97e-4)
    assert bare < deviation < band

