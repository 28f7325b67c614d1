"""One support factorization per matrix: decomposition counts and independence.

The measurement route reads the average state's support from the cached
Ensemble.support; the bipartite route behind verify computes its own.
"""

from collections import Counter

import numpy as np
import pytest

from maxconf import Ensemble, reports, support

from randomgen import random_ensemble, random_kraus
from helpers import trine, worked

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")

# Ceilings on eigh + eigvalsh + svd calls per report, for n members of which
# m are mixed, all linear in n.  Later changes may only lower them.
CEILINGS = {
    "bound": lambda n, m: 1 + m,
    "pom": lambda n, m: n + 2 * m + 3,
    "verify": lambda n, m: 2 * n + 3 * m + 5,
    "transform": lambda n, m: n + 2 * m + 2,
    "concentrate": lambda n, m: n + 4,
}

REPORTS = {
    "bound": lambda ens, kraus: reports.bound_report(ens),
    "pom": lambda ens, kraus: reports.pom_report(ens),
    "verify": lambda ens, kraus: reports.verify_report(ens, reports.DEFAULT_TOLERANCE),
    "transform": lambda ens, kraus: reports.transform_report(ens, kraus, reports.DEFAULT_TOLERANCE),
    "concentrate": lambda ens, kraus: reports.concentrate_report(ens),
}


@pytest.fixture
def decompositions(monkeypatch):
    """Counter of numpy.linalg decomposition calls made from now on."""
    calls = Counter()
    for name in DECOMPOSITIONS:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("command", sorted(REPORTS))
def test_decompositions_per_report_are_linear_in_members(command, n, decompositions):
    rng = np.random.default_rng(n)
    ranks = [1 if j % 2 == 0 else 2 for j in range(n)]
    ens = random_ensemble(rng, 16, ranks)
    kraus = random_kraus(rng, 16, min_singular=0.3)
    decompositions.clear()
    REPORTS[command](ens, kraus)
    total = sum(decompositions.values())
    assert total <= CEILINGS[command](n, ranks.count(2)), dict(decompositions)


def near_parallel(theta):
    """Two equiprobable kets theta rad apart; the average's small eigenvalue is not kept."""
    return lambda: Ensemble.from_pure(
        [np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])], [0.5, 0.5]
    )


@pytest.mark.parametrize("build", [
    trine,
    lambda: worked(0.5, 0.7),
    lambda: random_ensemble(np.random.default_rng(7), 8, [1, 2, 1, 3]),
    near_parallel(1e-6),
    near_parallel(1e-7),
], ids=["trine", "worked", "random-d8", "near-parallel-1e-6", "near-parallel-1e-7"])
def test_verify_does_not_read_the_cached_support(build):
    report, ok = reports.verify_report(build(), reports.DEFAULT_TOLERANCE)
    assert ok and report["status"] == "pass"

    ens = build()
    ens.__dict__["support"] = support(1.01 * ens.average)
    report, ok = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
    assert not ok and report["status"] == "fail"
    for j in range(ens.n_states):
        assert f"states[{j}].bound_gap" in report["exceeded"]
