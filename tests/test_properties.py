"""Property suite over the edge families, against an independent oracle.

The oracle is the top generalized eigenvalue of the pencil (p_j rho_j, rho)
(Croke et al., PRL 96, 070401, 2006), taken from scipy, which maxconf never
imports.  Examples are derandomized, so every run draws the same ensembles.

The families are: overcomplete pure and mixed members, one prior possibly
scaled down to 1e-4; linearly independent pure members; near-parallel
pairs at a random orientation; a rank-2 member whose whitened top
eigenspace is doubly degenerate; and a rank-deficient average.
Near-parallel angles from 3e-6 to 1e-3 rad and priors of 1e-5 or less are
left out only because the library's absolute roundoff slacks reject some
of them; test_roundoff.py pins those rejections.
"""

import numpy as np
import pytest

from maxconf import Ensemble, complete_pom, confidence_of, max_confidence, reports

from randomgen import random_density, random_ket, random_unitary

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
TOL = 1e-9
NEAR_PARALLEL_ANGLES = (1e-7, 3e-7, 1e-6, 1e-2, 1e-1)


@pytest.fixture(scope="module")
def scipy_linalg():
    return pytest.importorskip("scipy.linalg")


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
        priors *= (1.0 - 1e-4) / (priors.sum() - priors[small])
        priors[small] = 1e-4
    return Ensemble(dim, tuple(_state(rng, dim, r) for r in ranks), priors)


@st.composite
def independent(draw):
    """At most d random kets, linearly independent with probability one."""
    dim = draw(st.integers(2, 6))
    n = draw(st.integers(2, dim))
    rng = np.random.default_rng(draw(SEEDS))
    return Ensemble.from_pure([random_ket(rng, dim) for _ in range(n)], _priors(rng, n))


@st.composite
def near_parallel(draw):
    """Two equiprobable qubit kets theta rad apart, turned by a random unitary."""
    theta = draw(st.sampled_from(NEAR_PARALLEL_ANGLES))
    u = random_unitary(np.random.default_rng(draw(SEEDS)), 2)
    kets = [u @ np.array([1.0, 0.0]), u @ np.array([np.cos(theta), np.sin(theta)])]
    return Ensemble.from_pure(kets, [0.5, 0.5])


@st.composite
def degenerate(draw):
    """Member 0 is half the projector onto a random plane P.  Member 1 is
    the same plus a random state on P's complement, and any further pure
    members live on that complement, so the average is a multiple of the
    identity on P and member 0's whitened top eigenspace is all of P."""
    dim = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(SEEDS))
    u = random_unitary(rng, dim)
    plane, rest = u[:, :2], u[:, 2:]
    w = 0.1 + 0.8 * rng.random()
    tau = random_density(rng, dim - 2, int(rng.integers(1, dim - 1)))
    states = [
        _embedded(plane, np.eye(2) / 2),
        _embedded(plane, w * np.eye(2) / 2) + (1 - w) * _embedded(rest, tau),
    ]
    for _ in range(draw(st.integers(0, 2))):
        states.append(_embedded(rest, _state(rng, dim - 2, 1)))
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


ENSEMBLES = st.one_of(overcomplete(), independent(), near_parallel(), degenerate(), rank_deficient())


def _bounds(ens):
    return np.array([max_confidence(ens, j) for j in range(ens.n_states)])


@SETTINGS
@given(ENSEMBLES)
def test_bounds_lie_between_the_prior_and_one_and_match_the_oracle(scipy_linalg, ens):
    rho = ens.average
    spectrum = np.linalg.eigvalsh(rho)
    full_rank = spectrum[0] > 1e-9 * spectrum[-1]
    for j, bound in enumerate(_bounds(ens)):
        assert ens.priors[j] - TOL <= bound <= 1.0
        if full_rank:
            oracle = scipy_linalg.eigh(ens.priors[j] * ens.states[j], rho, eigvals_only=True)[-1]
            assert abs(bound - oracle) <= TOL


@SETTINGS
@given(ENSEMBLES)
def test_the_completed_measurement_attains_every_bound_at_the_largest_scale(ens):
    pom = complete_pom(ens)
    for label, e in pom.effects:
        assert abs(confidence_of(ens, e, label) - max_confidence(ens, label)) <= TOL
    # A larger scale than 1/gamma would push the fail effect's zero below zero.
    spectrum, vectors = np.linalg.eigh(ens.average)
    on_support = vectors[:, spectrum > 1e-12 * spectrum[-1]]
    assert abs(np.linalg.eigvalsh(on_support.conj().T @ pom.fail @ on_support)[0]) <= TOL


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


@SETTINGS
@given(ENSEMBLES)
def test_verify_passes(ens):
    report, ok = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
    assert ok, report["exceeded"]


@SETTINGS
@given(degenerate())
def test_a_degenerate_top_eigenspace_is_taken_whole(ens):
    _, vectors = ens.top(0)
    assert vectors.shape == (ens.dim, 2)
