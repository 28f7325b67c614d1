"""Valid ensembles whose reports were rejected by roundoff.

Each case is a valid ensemble that a report used to reject, because a
fixed absolute slack (the [0, 1] slack on a bound or confidence, the PSD
slack of an effect) was tighter than the roundoff of forming rho^{-1} or
rho^{-1/2} from an ill-conditioned average state, or that verify failed
because that roundoff reached a gap.  Every bound, effect and trace now
comes from square-root factors, whose conditioning is the square root of
rho's, so each case gives a report with the right numbers.  verify's
allowed subspace comes from a QR of the amplitude matrix's transpose, not
from the eigh of the right marginal, whose conditioning is squared, and
each leakage from the amplitudes' part outside it, not from a formed
complement projector.  One valid spec that verify still fails, because of
the rank rule and not of roundoff, is pinned as a strict xfail.
"""

import json

import numpy as np
import pytest

from maxconf import Ensemble, complete_pom, confidence_of, reports
from maxconf.cli import main
from maxconf.specio import matrix_to_json

from randomgen import random_density, random_ket, random_kraus, random_members, random_unitary


def turned_pair(theta: float, seed: int) -> Ensemble:
    """Two equiprobable qubit kets theta rad apart, turned by a seeded random unitary."""
    u = random_unitary(np.random.default_rng(seed), 2)
    kets = [u @ np.array([1.0, 0.0]), u @ np.array([np.cos(theta), np.sin(theta)])]
    return Ensemble.from_pure(kets, [0.5, 0.5])


def test_bound_of_a_turned_pair_1e_5_rad_apart():
    # the average's small eigenvalue, 2.5e-11, is kept: the kets are
    # linearly independent and each bound is 1 (it read 1.0000020581683202)
    for state in reports.bound_report(turned_pair(1e-5, 0))["states"]:
        assert abs(state["bound"] - 1.0) <= 1e-10


def test_pom_of_a_turned_pair_1e_5_rad_apart():
    # the confidence of state 1 read 1.0049546986957285
    report = reports.pom_report(turned_pair(1e-5, 2))
    for state in report["states"]:
        assert abs(state["bound"] - 1.0) <= 1e-10
        assert abs(state["confidence"] - 1.0) <= 1e-10


def test_verify_of_a_turned_pair_1e_3_rad_apart():
    # states[0].achievability_gap read 1.97e-08, above the 1e-9 tolerance
    report, ok = reports.verify_report(turned_pair(1e-3, 1), reports.DEFAULT_TOLERANCE)
    assert ok, report["exceeded"]
    assert max(state["achievability_gap"] for state in report["states"]) <= 1e-12


@pytest.mark.parametrize("theta", [3e-6, 1e-5, 1e-4])
def test_confidence_of_a_handed_out_effect_keeps_its_digits(theta):
    # A formed effect's entries grow like 1/theta^2; confidence_of on
    # complete_pom's effects as matrices raised "confidence for state 0 out
    # of range" on 106, 88 and 78 of 200 reads at these angles.  It now reads
    # the factor pairs that POM.effects hands out.
    for seed in range(100):
        ens = turned_pair(theta, seed)
        for label, e in complete_pom(ens).effects:
            assert abs(confidence_of(ens, e, label) - 1.0) <= 1e-12


def test_pom_with_a_prior_of_1e_6():
    # effect 1 was not positive semidefinite at the PSD slack of scale 1
    rng = np.random.default_rng(2)
    rho = random_density(rng, 4, 4)
    ket = random_ket(rng, 4)
    ens = Ensemble(4, (rho, np.outer(ket, ket.conj())), np.array([1e-6, 1.0 - 1e-6]))
    report = reports.pom_report(ens)
    for state in report["states"]:
        assert abs(state["confidence"] - state["bound"]) <= 1e-12
    # three of the four directions are member 0's alone
    assert abs(report["states"][0]["bound"] - 1.0) <= 1e-12
    total = sum(state["outcome_probability"] for state in report["states"])
    assert abs(total + report["inconclusive_probability"] - 1.0) <= 1e-12


@pytest.mark.parametrize("prior", [1e-6, 1e-8, 1e-10, 1e-12])
def test_verify_passes_with_one_tiny_prior(prior):
    # With the allowed subspace from the eigh of the right marginal, verify
    # failed 1, 19, 20 and 0 of these 200 ensembles, each on projector_gap
    # (up to 1.9e-5); fixtures/tiny_prior.json is a two-member case at 1e-8.
    rng = np.random.default_rng(0)
    failed = []
    for k in range(200):
        dim, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        states, priors = random_members(rng, dim, [int(rng.integers(1, dim + 1)) for _ in range(n)])
        priors = priors * (1.0 - prior) / priors[1:].sum()
        priors[0] = prior
        report, ok = reports.verify_report(Ensemble(dim, states, priors), reports.DEFAULT_TOLERANCE)
        if not ok:
            failed.append((k, report["exceeded"]))
    assert not failed


FIXTURES = ("near_parallel", "negative_roundoff", "tiny_prior", "trine", "worked_example")


def _leakages(report):
    return [state["leakage"] for state in report["states"]] + [
        x for x in [report["checks"]["fail_leakage"]] if x is not None]


@pytest.mark.parametrize("fixture", FIXTURES)
def test_verify_prints_no_leakage_above_1e_18(capsys, fixture):
    # Each leakage is the weight of the amplitudes' part outside the allowed
    # subspace, Z = A - (A B^*) B^T, not Tr(Q rho Q) with Q = I - B B^dagger
    # formed: near_parallel.json printed 5.6e-17 that way.
    assert main(["verify", f"fixtures/{fixture}.json", "--output", "machine"]) == 0
    leakages = _leakages(json.loads(capsys.readouterr().out))
    assert leakages and max(leakages) <= 1e-18


@pytest.mark.parametrize("theta", [3e-6, 1e-5, 1e-4, 1e-3])
def test_verify_of_turned_near_parallel_pairs_prints_no_leakage_above_1e_18(theta):
    for seed in range(100):
        report, ok = reports.verify_report(turned_pair(theta, seed), reports.DEFAULT_TOLERANCE)
        assert ok and max(_leakages(report)) <= 1e-18, (seed, report["exceeded"])


@pytest.mark.xfail(strict=True,
                   reason="the rank rule drops the tiny member's directions that the fail outcome lies in")
def test_verify_passes_when_a_tiny_member_lies_under_the_rank_cutoff(capsys, tmp_path):
    # Member 0 is I/3 at prior 2.4e-12 beside the ket |0> at 1 - 2.4e-12.
    # The average's eigenvalues of 8e-13 fall under 1e-12 of the largest and
    # are dropped, so bound prints 8e-13 for member 0, below its prior, and
    # the fail outcome, of probability 1.6e-12 (above verify's 1e-12 gate),
    # lies wholly outside the allowed subspace: fail_leakage prints 1.0.
    spec = tmp_path / "tiny_mixed.json"
    spec.write_text(json.dumps({"dimension": 3, "states": [
        {"prior": 2.4e-12, "matrix": matrix_to_json(np.eye(3) / 3)},
        {"prior": 1 - 2.4e-12, "ket": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    ]}))
    code = main(["verify", str(spec), "--output", "machine"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report["exceeded"]


def test_transform_of_the_near_parallel_fixture(capsys, tmp_path):
    # the filter would lift the average's dropped eigenvalue (2.5e-13) above
    # the rank cutoff and so raise both bounds to 1.0; acting on the kept
    # support only, it leaves the merged members at their priors
    kraus = random_kraus(np.random.default_rng(12), 2, min_singular=0.3)
    path = tmp_path / "filter.json"
    path.write_text(json.dumps(matrix_to_json(kraus.matrix)))
    code = main(["transform", "fixtures/near_parallel.json", "--kraus", str(path), "--output", "machine"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    for state in report["states"]:
        assert state["verdict"] == "invariant"
        assert abs(state["confidence_before"] - 0.5) <= 1e-12
        assert abs(state["confidence_after"] - 0.5) <= 1e-12


def test_transform_keeps_a_member_wholly_under_the_rank_cutoff(capsys, tmp_path):
    # The average's 1e-13 eigenvalue is dropped, so |1> has no weight on the
    # kept support |0>; the identity must still leave it as it was, with its
    # prior counted in the success probability, not annihilate it.
    spec = tmp_path / "tiny_ket.json"
    spec.write_text(json.dumps({"dimension": 2, "states": [
        {"prior": 1 - 1e-13, "ket": [[1.0, 0.0], [0.0, 0.0]]},
        {"prior": 1e-13, "ket": [[0.0, 0.0], [1.0, 0.0]]},
    ]}))
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(matrix_to_json(np.eye(2))))
    code = main(["transform", str(spec), "--kraus", str(path), "--output", "machine"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["success_probability"] == 1.0
    for state in report["states"]:
        assert state["verdict"] == "invariant"
        assert state["prior_after"] == state["prior_before"]
        assert state["confidence_after"] == state["confidence_before"]


def _numbers(node, key):
    """Every value stored under `key` anywhere in a report."""
    if isinstance(node, dict):
        return [v for k, v in node.items() if k == key] + [x for v in node.values() for x in _numbers(v, key)]
    if isinstance(node, list):
        return [x for v in node for x in _numbers(v, key)]
    return []


@pytest.mark.parametrize("command", ["bound", "pom", "verify", "simulate", "concentrate", "transform"])
def test_every_subcommand_accepts_an_admitted_negative_eigenvalue(capsys, tmp_path, command):
    # member 0 is diag(0.5, 0.5 + 5e-11, -5e-11), inside the PSD slack; the
    # bound read 1.00000000045 and every command but concentrate exited 2
    argv = [command, "fixtures/negative_roundoff.json", "--output", "machine"]
    if command == "transform":
        kraus = tmp_path / "filter.json"
        kraus.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.5, 0.75]))))
        argv += ["--kraus", str(kraus)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out)
    values = [x for key in ("bound", "confidence", "expected_confidence", "confidence_before",
                            "confidence_after") for x in _numbers(report, key)]
    assert values or command == "concentrate"
    assert all(0.0 <= x <= 1.0 for x in values)
    if command in ("bound", "pom"):
        assert _numbers(report, "bound") == [1.0, 1.0]
