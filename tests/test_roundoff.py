"""Valid ensembles whose reports were rejected by roundoff.

Each case is a valid ensemble that a report used to reject, because a
fixed absolute slack (the [0, 1] slack on a bound or confidence, the PSD
slack of an effect) was tighter than the roundoff of forming rho^{-1} or
rho^{-1/2} from an ill-conditioned average state, or that verify failed
because that roundoff reached a gap.  Every bound, effect and trace now
comes from square-root factors, whose conditioning is the square root of
rho's, so each case gives a report with the right numbers.
"""

import json

import numpy as np
import pytest

from maxconf import Ensemble, complete_pom, confidence_of, optimal_effect, read_spec, reports
from maxconf.cli import main
from maxconf.specio import matrix_to_json

from randomgen import random_density, random_ket, random_kraus, random_unitary


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
    # the factor pairs that POM.effects and optimal_effect hand out.
    for seed in range(100):
        ens = turned_pair(theta, seed)
        for label, e in complete_pom(ens).effects:
            assert abs(confidence_of(ens, e, label) - 1.0) <= 1e-12
        for j in range(ens.n_states):
            assert abs(confidence_of(ens, optimal_effect(ens, j), j) - 1.0) <= 1e-12


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


def test_transform_of_the_near_parallel_fixture():
    # the filter lifts the average's dropped eigenvalue (2.5e-13) above the
    # rank cutoff; a bound after it read 1.0001205640422055 and raised
    ens = read_spec("fixtures/near_parallel.json").ensemble
    kraus = random_kraus(np.random.default_rng(12), ens.dim, min_singular=0.3)
    report, _ = reports.transform_report(ens, kraus, reports.DEFAULT_TOLERANCE)
    for state in report["states"]:
        assert abs(state["confidence_before"] - 0.5) <= 1e-12
        assert abs(state["confidence_after"] - 1.0) <= 1e-10


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
