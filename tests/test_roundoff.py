"""Roundoff rejections of valid ensembles, pinned as strict expected failures.

Each case is a valid ensemble that a report rejects because a fixed
absolute slack (the [0, 1] slack on a bound or confidence, the PSD slack
of an effect, the projector's idempotency check) is tighter than the
roundoff of an ill-conditioned average state.  Once the slacks follow
the conditioning these cases pass, strict xfail reports that as a
failure, and the pin is removed.
"""

import numpy as np
import pytest

from maxconf import Ensemble, read_spec, reports

from randomgen import random_density, random_ket, random_kraus, random_unitary


def turned_pair(theta: float, seed: int) -> Ensemble:
    """Two equiprobable qubit kets theta rad apart, turned by a seeded random unitary."""
    u = random_unitary(np.random.default_rng(seed), 2)
    kets = [u @ np.array([1.0, 0.0]), u @ np.array([np.cos(theta), np.sin(theta)])]
    return Ensemble.from_pure(kets, [0.5, 0.5])


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="bound for state 0 out of range: 1.0000020581683202 (absolute [0, 1] slack)")
def test_bound_of_a_turned_pair_1e_5_rad_apart():
    reports.bound_report(turned_pair(1e-5, 0))


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="confidence for state 1 out of range: 1.0049546986957285 (absolute [0, 1] slack)")
def test_pom_of_a_turned_pair_1e_5_rad_apart():
    reports.pom_report(turned_pair(1e-5, 2))


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="projector is not idempotent within 1e-10 (absolute idempotency slack)")
def test_verify_of_a_turned_pair_1e_3_rad_apart():
    reports.verify_report(turned_pair(1e-3, 1), reports.DEFAULT_TOLERANCE)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="effect 1 is not positive semidefinite (PSD slack at scale 1, prior 1e-6)")
def test_pom_with_a_prior_of_1e_6():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4, 4)
    ket = random_ket(rng, 4)
    ens = Ensemble(4, (rho, np.outer(ket, ket.conj())), np.array([1e-6, 1.0 - 1e-6]))
    reports.pom_report(ens)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="bound for state 0 out of range: 1.0001205640422055 (filter lifts a dropped "
                          "eigenvalue of the average just above the rank cutoff)")
def test_transform_of_the_near_parallel_fixture():
    ens = read_spec("fixtures/near_parallel.json").ensemble
    kraus = random_kraus(np.random.default_rng(12), ens.dim, min_singular=0.3)
    reports.transform_report(ens, kraus, reports.DEFAULT_TOLERANCE)
