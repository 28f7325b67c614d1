"""One factorization per matrix and one decomposition per member:
decomposition counts and independence.

Each member is held as its factor, made by pivoted Cholesky at the rank of
the eigvalsh that checks it, as the reader closes it or the public
constructor is given it.
The measurement route reads the average state's support, from one SVD of
the stacked factors, from the cached Ensemble.support and each member's
bound and top singular space from Ensemble.top; the bipartite route
behind verify computes its own, from one small SVD per mixed member, a
QR of the amplitude matrix's transpose and one SVD of its triangle.
"""

import json
from collections import Counter

import numpy as np
import pytest

from maxconf import Ensemble, KrausOperator, complete_pom, max_confidence, measurement, nosignalling, read_spec, reports
from maxconf.linalg import Support
from maxconf.specio import matrix_to_json

from randomgen import random_ensemble, random_kraus, random_members, random_unitary
from helpers import trine, worked

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")

# Ceilings on eigh + eigvalsh + svd calls per report after construction, by
# the public constructor or by read_spec, for n members of which m are
# mixed, all linear in n.  Later changes may only lower them.  The
# measurement route takes one SVD of the stacked factors, one small SVD per
# mixed member, one SVD for the scale and one eigvalsh of the fail effect.
# A pure member costs the bipartite route nothing.
CEILINGS = {
    "bound": lambda n, m: 1 + m,
    "pom": lambda n, m: m + 3,
    "verify": lambda n, m: 3 * m + 5,
    "simulate": lambda n, m: m + 3,
    "transform": lambda n, m: 3 * m + 2,
    "concentrate": lambda n, m: m + 3,
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
    """Counter of numpy.linalg decomposition and QR calls made from now on."""
    calls = Counter()
    for name in DECOMPOSITIONS + ("qr",):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def read_members(tmp_path, dim, states, priors) -> Ensemble:
    """The ensemble read_spec builds from the members written as matrices."""
    doc = {"dimension": dim, "states": [
        {"prior": float(p), "matrix": matrix_to_json(rho)} for p, rho in zip(priors, states)]}
    path = tmp_path / "members.json"
    path.write_text(json.dumps(doc))
    return read_spec(str(path)).ensemble


@pytest.mark.parametrize("built_by", ["constructor", "read_spec"])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("command", sorted(REPORTS))
def test_decompositions_per_report_are_linear_in_members(command, n, built_by, decompositions, tmp_path):
    rng = np.random.default_rng(n)
    ranks = [1 if j % 2 == 0 else 2 for j in range(n)]
    if built_by == "constructor":
        ens = random_ensemble(rng, 16, ranks)
    else:
        ens = read_members(tmp_path, 16, *random_members(rng, 16, ranks))
    kraus = random_kraus(rng, 16, min_singular=0.3)
    decompositions.clear()
    REPORTS[command](ens, kraus)
    total = sum(decompositions[name] for name in DECOMPOSITIONS)
    assert total <= CEILINGS[command](n, ranks.count(2)), dict(decompositions)
    # the allowed subspace's QR, counted on its own
    assert decompositions["qr"] == (command == "verify"), dict(decompositions)


@pytest.fixture
def decomposed_shapes(monkeypatch):
    """Shapes of the matrices numpy.linalg decomposes from now on."""
    shapes = []
    for name in DECOMPOSITIONS:
        def recorded(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def test_pom_decomposes_three_d_sized_matrices_and_one_small_block_per_mixed_member(
        decomposed_shapes, tmp_path):
    ranks = [1, 4] * 8
    ens = read_members(tmp_path, 32, *random_members(np.random.default_rng(3), 32, ranks))
    decomposed_shapes.clear()
    reports.pom_report(ens)
    blocks = [shape for shape in decomposed_shapes if shape == (ens.support.rank, 4)]
    d_sized = [shape for shape in decomposed_shapes if shape not in blocks]
    # the stacked factors (d x R), the scale's [W_1 ... W_n] and the fail effect
    assert d_sized == [(32, sum(ranks)), (32, len(ranks)), (32, 32)]
    # the whitened block G_j of each mixed member: support rank x r_j
    assert blocks == [(ens.support.rank, 4)] * ranks.count(4)


def test_the_public_constructor_checks_by_eigvalsh_and_factors_with_no_decomposition(decompositions):
    states, priors = random_members(np.random.default_rng(4), 8, [1, 3, 2])
    ens = Ensemble(8, states, priors)
    assert dict(decompositions) == {"eigvalsh": 3}
    decompositions.clear()
    ens.factor(1), ens.factor(1), ens.states[1]
    assert dict(decompositions) == {}
    assert ens.state_ranks == (1, 3, 2)
    ens.support
    assert dict(decompositions) == {"svd": 1}


def test_bound_and_effect_share_one_decomposition_per_member(decompositions):
    ranks = [1, 2, 1, 3]
    for j, rank in enumerate(ranks):
        ens = random_ensemble(np.random.default_rng(5), 8, ranks)
        decompositions.clear()
        max_confidence(ens, j)
        assert sum(decompositions.values()) <= 1 + (rank > 1), dict(decompositions)
    # the effects reuse each member's top singular space: complete_pom adds
    # only the SVD of its scale and the eigvalsh that checks the fail effect
    for j in range(len(ranks)):
        max_confidence(ens, j)
    decompositions.clear()
    complete_pom(ens)
    assert dict(decompositions) == {"svd": 1, "eigvalsh": 1}


def test_verify_reads_each_outcome_from_two_diagonal_sandwiches_and_forms_no_effect(monkeypatch):
    # Each conclusive outcome, and the fail outcome when fail_leakage is
    # reported, is read from two diagonal sandwiches, of the amplitudes and
    # of their part outside the allowed subspace: no R x R conditional is
    # made.  The only full sandwiches are marginal_invariance's, summed into
    # the outcome-averaged right state.  The marginal, the readings and the
    # confidence report take each effect through its factor pair: verify
    # forms no effect matrix.  gram, the one way a factor pair becomes a
    # matrix, runs once, on complete_pom's [W_1 ... W_n] for the fail effect.
    formed = []
    sandwiches = []
    in_marginal = []
    real_gram = measurement.gram
    real_sandwich = nosignalling.sandwich
    real_marginal = nosignalling.marginal_invariance

    def counted(f, scale=1.0):
        formed.append(f.shape)
        return real_gram(f, scale)

    def counted_sandwich(effect, a, diagonal=False):
        sandwiches.append((diagonal, bool(in_marginal)))
        return real_sandwich(effect, a, diagonal=diagonal)

    def marked_marginal(bs, pom):
        in_marginal.append(True)
        try:
            return real_marginal(bs, pom)
        finally:
            in_marginal.pop()

    for module in (measurement, reports):
        monkeypatch.setattr(module, "gram", counted)
    monkeypatch.setattr(nosignalling, "sandwich", counted_sandwich)
    monkeypatch.setattr(reports, "marginal_invariance", marked_marginal)
    ens = random_ensemble(np.random.default_rng(6), 8, [1, 2, 1, 3])
    report, ok = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
    assert ok and report["checks"]["fail_leakage"] is not None
    columns = sum(ens.top(j)[1].shape[1] for j in range(ens.n_states))
    assert formed == [(ens.dim, columns)]
    outcomes = ens.n_states + 1
    assert sandwiches.count((True, False)) == 2 * outcomes
    assert sandwiches.count((False, True)) == outcomes
    assert len(sandwiches) == 3 * outcomes


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


def _verify_fails(build, corrupt, gap):
    """verify passes on build(), then fails `gap` of every member once
    corrupt has changed a cache of the measurement route on a fresh build()."""
    report, ok = reports.verify_report(build(), reports.DEFAULT_TOLERANCE)
    assert ok and report["status"] == "pass"

    ens = build()
    corrupt(ens)
    report, ok = reports.verify_report(ens, reports.DEFAULT_TOLERANCE)
    assert not ok and report["status"] == "fail"
    for j in range(ens.n_states):
        assert f"states[{j}].{gap}" in report["exceeded"]


@VERIFY_CASES
def test_verify_does_not_read_the_cached_support(build):
    # The effects read U: turned by a fixed unitary, no effect attains its bound.
    def corrupt(ens):
        supp = ens.support
        u = random_unitary(np.random.default_rng(9), ens.dim)
        ens.__dict__["support"] = Support(supp.eigenvalues, u @ supp.eigenvectors)

    _verify_fails(build, corrupt, "achievability_gap")


@VERIFY_CASES
@pytest.mark.parametrize("part", ["U", "V"])
def test_verify_does_not_read_the_stacked_svd(build, part):
    # U is turned as above; the whitened blocks, the rows of V^dagger that the
    # bounds read, are scaled by 0.99, which lowers every bound by 2%.
    def corrupt(ens):
        supp, blocks = ens._stacked_svd
        if part == "U":
            u = random_unitary(np.random.default_rng(9), ens.dim)
            ens.__dict__["_stacked_svd"] = (Support(supp.eigenvalues, u @ supp.eigenvectors), blocks)
        else:
            ens.__dict__["_stacked_svd"] = (supp, [0.99 * g for g in blocks])

    _verify_fails(build, corrupt, "achievability_gap" if part == "U" else "bound_gap")


@VERIFY_CASES
def test_verify_does_not_read_the_cached_bounds(build):
    def corrupt(ens):
        tops = [ens.top(j) for j in range(ens.n_states)]
        ens.__dict__["_tops"] = [(0.99 * bound, vectors) for bound, vectors in tops]

    _verify_fails(build, corrupt, "bound_gap")


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
