"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line (run with -s to see them).
The random ensembles are drawn once at module import so every criterion
exercises the same two hundred cases.
"""

import time

import numpy as np

from maxconf import (
    POM,
    allowed_subspace,
    apply_kraus,
    complete_pom,
    concentrate,
    confidence_of,
    max_confidence,
    optimal_effect,
    purify,
    schmidt,
    simulate_measurement,
)
from maxconf.linalg import gram
from maxconf.nosignalling import (
    bound_bipartite,
    marginal_invariance,
    subspace_leakage,
)

from randomgen import (
    ensemble_suite,
    random_bipartite,
    random_complete_pom,
    random_effect,
    random_kraus,
)
from helpers import trine, worked, worked_bound

SUITE = ensemble_suite(11, 200)
GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def _report(number, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL")
        raise
    print(f"ACCEPTANCE {number}: PASS")


def test_acceptance_1_closed_form_bounds():
    # qubit family: one mixed diagonal state against |+>, both confidences
    # must match their closed forms to 1e-9 across the full prior grid
    def body():
        start = time.perf_counter()
        for p in GRID:
            for q in GRID:
                ens = worked(p, q)
                assert abs(max_confidence(ens, 0) - 1.0) <= 1e-9
                assert abs(max_confidence(ens, 1) - worked_bound(p, q)) <= 1e-9
        assert time.perf_counter() - start < 1.0

    _report(1, body)


def test_acceptance_2_optimal_effect_geometry():
    # the fully confident outcome must annihilate the pure member, and the
    # other optimal effect must be rank one along ((1-q), q)
    def body():
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for p in GRID:
            for q in GRID:
                ens = worked(p, q)
                e0 = gram(*optimal_effect(ens, 0))
                assert abs(psi.conj() @ e0 @ psi) <= 1e-12
                e1 = gram(*optimal_effect(ens, 1))
                vals, vecs = np.linalg.eigh(e1)
                assert vals[0] <= 1e-12 * vals[-1]
                u = np.array([1.0 - q, q])
                u = u / np.linalg.norm(u)
                v = vecs[:, -1]
                assert np.linalg.norm(v - (u.conj() @ v) * u) <= 1e-9

    _report(2, body)


def test_acceptance_3_bipartite_bound_agreement():
    # the bound computed from the purification's allowed subspace must agree
    # with the direct single-system bound on every suite member
    def body():
        start = time.perf_counter()
        for ens in SUITE:
            bs = purify(ens)
            pd = allowed_subspace(bs)
            for j in range(ens.n_states):
                gap = abs(bound_bipartite(bs, pd, j) - max_confidence(ens, j))
                assert gap <= 1e-9
        assert time.perf_counter() - start < 10.0

    _report(3, body)


def test_acceptance_4_no_signalling():
    # conditional far-side states stay inside the allowed subspace for
    # arbitrary effects, and complete measurements leave the far marginal
    # untouched
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(4)
        for ens in SUITE:
            bs = purify(ens)
            pd = allowed_subspace(bs)
            for _ in range(20):
                e = random_effect(rng, ens.dim)
                assert subspace_leakage(bs, pd, e) <= 1e-10
            pom = random_complete_pom(rng, ens.dim, ens.n_states)
            assert marginal_invariance(bs, pom) <= 1e-10
        assert time.perf_counter() - start < 30.0

    _report(4, body)


def test_acceptance_5_bound_is_tight_and_unbeatable():
    # the reported bound is achieved by the optimal effect and never exceeded
    # by a thousand random effects per ensemble
    def body():
        rng = np.random.default_rng(5)
        for idx, ens in enumerate(SUITE):
            d = ens.dim
            bounds = np.array([max_confidence(ens, j) for j in range(ens.n_states)])
            for j in range(ens.n_states):
                achieved = confidence_of(ens, optimal_effect(ens, j), j)
                assert abs(achieved - bounds[j]) <= 1e-9

            g = rng.normal(size=(1000, d, d)) + 1j * rng.normal(size=(1000, d, d))
            effects = g @ g.conj().transpose(0, 2, 1)
            tops = np.linalg.eigvalsh(effects)[:, -1]
            effects = effects / tops[:, None, None]
            denom = np.einsum("kab,ba->k", effects, ens.average).real
            keep = denom > 1e-12
            for j in range(ens.n_states):
                numer = ens.priors[j] * np.einsum("kab,ba->k", effects, ens.states[j]).real
                ratio = numer[keep] / denom[keep]
                assert np.all(ratio <= bounds[j] + 1e-9)
            if idx % 50 == 0:
                k = int(np.flatnonzero(keep)[0])
                direct = confidence_of(ens, effects[k], 0)
                vectorized = ens.priors[0] * np.einsum(
                    "ab,ba->", effects[k], ens.states[0]
                ).real / denom[k]
                assert abs(direct - vectorized) <= 1e-12

    _report(5, body)


def test_acceptance_6_symmetric_trine_measurement():
    # the completed trine measurement is exactly projective-free of fail
    # weight, and a simulated million trials identify each preparation with
    # frequency 2/3 within half a percent
    def body():
        start = time.perf_counter()
        ens = trine()
        pom = complete_pom(ens)
        assert np.linalg.norm(pom.fail) <= 1e-10
        sim = simulate_measurement(ens, pom, 1_000_000, 42)
        assert sim.fail_count == 0
        for f in sim.conditional_frequencies:
            assert 0.6617 <= f <= 0.6717
        assert time.perf_counter() - start < 10.0

    _report(6, body)


def test_acceptance_7_entanglement_concentration():
    # flattening filters drawn from a hundred random bipartite states succeed
    # with probability lambda_min * D and leave an exactly uniform spectrum
    def body():
        rng = np.random.default_rng(7)
        for _ in range(100):
            r = int(rng.integers(2, 5))
            dl = int(rng.integers(r, 6))
            dr = int(rng.integers(r, 6))
            bs = random_bipartite(rng, dl, dr, r)
            res = concentrate(bs)
            flat = schmidt(res.post_state)
            assert flat.rank == r
            assert np.abs(flat.coefficients - 1.0 / r).max() <= 1e-9
            lam = np.linalg.eigvalsh(bs.left_marginal())
            lam_min = lam[lam > 1e-12 * lam[-1]][0]
            assert abs(res.success_probability - lam_min * r) <= 1e-10
            assert np.linalg.eigvalsh(res.fail_effect)[0] >= -1e-12

    _report(7, body)


def test_acceptance_8_filtering_monotonicity():
    # five hundred random filters never raise any confidence, and two hundred
    # full-rank filters leave every confidence invariant
    def body():
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 500:
            ens = SUITE[int(rng.integers(len(SUITE)))]
            a = random_kraus(rng, ens.dim)
            try:
                out, _ = apply_kraus(ens, a)
            except ValueError:
                continue
            for j in range(ens.n_states):
                assert max_confidence(out, j) <= max_confidence(ens, j) + 1e-9
            checked += 1
        for _ in range(200):
            ens = SUITE[int(rng.integers(len(SUITE)))]
            a = random_kraus(rng, ens.dim, min_singular=0.2)
            out, _ = apply_kraus(ens, a)
            for j in range(ens.n_states):
                assert abs(max_confidence(out, j) - max_confidence(ens, j)) <= 1e-9

    _report(8, body)
