"""One support factorization per matrix and one decomposition per member:
decomposition counts and independence.

The measurement route reads the average state's support from the cached
Ensemble.support and each member's bound and top eigenspace from
Ensemble.top; the bipartite route behind verify computes its own.
"""

from collections import Counter

import numpy as np
import pytest

from maxconf import Ensemble, KrausOperator, max_confidence, optimal_effect, read_spec, reports, support

from randomgen import random_ensemble, random_kraus, random_unitary
from helpers import trine, worked

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")

# Ceilings on eigh + eigvalsh + svd calls per report, for n members of which
# m are mixed, all linear in n.  Later changes may only lower them.
CEILINGS = {
    "bound": lambda n, m: 1 + m,
    "pom": lambda n, m: n + m + 3,
    "verify": lambda n, m: 2 * n + 2 * m + 5,
    "simulate": lambda n, m: n + m + 3,
    "transform": lambda n, m: n + 2 * m + 2,
    "concentrate": lambda n, m: n + 4,
}

REPORTS = {
    "bound": lambda ens, kraus: reports.bound_report(ens),
    "pom": lambda ens, kraus: reports.pom_report(ens),
    "verify": lambda ens, kraus: reports.verify_report(ens, reports.DEFAULT_TOLERANCE),
    "simulate": lambda ens, kraus: reports.simulate_report(ens, 1000, 0),
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


def test_bound_and_effect_share_one_decomposition_per_member(decompositions):
    ranks = [1, 2, 1, 3]
    for j, rank in enumerate(ranks):
        ens = random_ensemble(np.random.default_rng(5), 8, ranks)
        decompositions.clear()
        max_confidence(ens, j)
        optimal_effect(ens, j)
        assert sum(decompositions.values()) <= 1 + (rank > 1), dict(decompositions)


def near_parallel(theta):
    """Two equiprobable kets theta rad apart; the average's small eigenvalue is not kept."""
    return lambda: Ensemble.from_pure(
        [np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])], [0.5, 0.5]
    )


VERIFY_CASES = pytest.mark.parametrize("build", [
    trine,
    lambda: worked(0.5, 0.7),
    lambda: random_ensemble(np.random.default_rng(7), 8, [1, 2, 1, 3]),
    near_parallel(1e-6),
    near_parallel(1e-7),
], ids=["trine", "worked", "random-d8", "near-parallel-1e-6", "near-parallel-1e-7"])


def _verify_fails_every_bound_gap(build, corrupt):
    """verify passes on build(), then fails every bound_gap once corrupt has
    changed a cache of the measurement route on a fresh build()."""
    report, ok = reports.verify_report(build(), reports.DEFAULT_TOLERANCE)
    assert ok and report["status"] == "pass"

    ens = build()
    corrupt(ens)
    report, ok = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
    assert not ok and report["status"] == "fail"
    for j in range(ens.n_states):
        assert f"states[{j}].bound_gap" in report["exceeded"]


@VERIFY_CASES
def test_verify_does_not_read_the_cached_support(build):
    def corrupt(ens):
        ens.__dict__["support"] = support(1.01 * ens.average)

    _verify_fails_every_bound_gap(build, corrupt)


@VERIFY_CASES
def test_verify_does_not_read_the_cached_bounds(build):
    def corrupt(ens):
        tops = [ens.top(j) for j in range(ens.n_states)]
        ens.__dict__["_tops"] = [(0.99 * bound, vectors) for bound, vectors in tops]

    _verify_fails_every_bound_gap(build, corrupt)


def _bounds_by_report(build, kraus):
    """Each member's bound as bound, pom, verify and transform report it,
    each on a freshly built ensemble."""
    pom = reports.pom_report(build())
    verify, _ = reports.verify_report(build(), reports.DEFAULT_TOLERANCE)
    transform, _ = reports.transform_report(build(), kraus, reports.DEFAULT_TOLERANCE)
    return {
        "bound": [s["bound"] for s in reports.bound_report(build())["states"]],
        "pom": [s["bound"] for s in pom["states"]],
        "verify": [s["bound"] for s in verify["states"]],
        "transform": [s["confidence_before"] for s in transform["states"]],
    }


@pytest.mark.parametrize("build", [
    lambda: read_spec("fixtures/trine.json").ensemble,
    lambda: read_spec("fixtures/worked_example.json").ensemble,
    lambda: read_spec("fixtures/near_parallel.json").ensemble,
    lambda: random_ensemble(np.random.default_rng(11), 6, [2, 1, 3, 2, 1]),
], ids=["trine", "worked_example", "near_parallel", "seeded-mixed"])
def test_every_report_gives_bit_identical_bounds(build):
    # A scaled unitary moves no bound, so transform's own bounds stay in range
    # (test_roundoff.py pins a random filter that does not).
    dim = build().dim
    kraus = KrausOperator(0.9 * random_unitary(np.random.default_rng(12), dim))
    by_report = _bounds_by_report(build, kraus)
    for name, bounds in by_report.items():
        assert [b.hex() for b in bounds] == [b.hex() for b in by_report["bound"]], name
