import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxconf import max_confidence, read_spec, reports
from maxconf.cli import main
from maxconf.specio import matrix_to_json

from randomgen import random_ensemble

WORKED = "fixtures/worked_example.json"
TRINE = "fixtures/trine.json"
NEAR_PARALLEL = "fixtures/near_parallel.json"
TINY_PRIOR = "fixtures/tiny_prior.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_text_output_lists_every_state(self, capsys):
        code, out, err = run(capsys, "bound", TRINE)
        assert code == 0
        assert err == ""
        assert out.count("bound") >= 3
        assert "0.6666666666666666" in out

    def test_machine_output_round_trips_library_floats(self, capsys):
        code, out, _ = run(capsys, "bound", WORKED, "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        ens = read_spec(WORKED).ensemble
        for entry in doc["states"]:
            assert entry["bound"] == max_confidence(ens, entry["label"])

    def test_worked_example_kinds(self, capsys):
        _, out, _ = run(capsys, "bound", WORKED, "--output", "machine")
        doc = json.loads(out)
        kinds = [entry["kind"] for entry in doc["states"]]
        assert kinds == ["mixed", "pure"]


class TestPom:
    def test_trine_effects_and_no_fail_weight(self, capsys):
        code, out, _ = run(capsys, "pom", TRINE, "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["inconclusive_probability"]) <= 1e-12
        fail = np.array([[complex(re, im) for re, im in row] for row in doc["fail_effect"]])
        assert np.abs(fail).max() <= 1e-12
        assert len(doc["states"]) == 3


class TestVerify:
    def test_fixtures_pass(self, capsys):
        for spec in (WORKED, TRINE, NEAR_PARALLEL, TINY_PRIOR):
            code, out, _ = run(capsys, "verify", spec)
            assert code == 0
            assert "status" in out
            assert "pass" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", WORKED, "--tolerance", "1e-30", "--output", "machine")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert doc["exceeded"]

    def test_machine_report_checks_are_tiny(self, capsys):
        _, out, _ = run(capsys, "verify", TRINE, "--output", "machine")
        doc = json.loads(out)
        for name, value in doc["checks"].items():
            if value is None:
                continue
            assert value <= 1e-9, name
        for entry in doc["states"]:
            assert entry["bound_gap"] <= 1e-9
            assert entry["achievability_gap"] <= 1e-9
            assert entry["crosspicture_gap"] <= 1e-9
            assert entry["leakage"] <= 1e-10


class TestSimulate:
    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", TRINE, "--trials", "20000", "--seed", "42", "--output", "machine")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_changes_counts(self, capsys):
        _, a, _ = run(capsys, "simulate", TRINE, "--trials", "5000", "--seed", "1", "--output", "machine")
        _, b, _ = run(capsys, "simulate", TRINE, "--trials", "5000", "--seed", "2", "--output", "machine")
        assert a != b
        counts = lambda s: [o["count"] for o in json.loads(s)["outcomes"]]
        assert counts(a) != counts(b)

    def test_largest_seed_is_accepted(self, capsys):
        code, out, err = run(capsys, "simulate", TRINE, "--trials", "100", "--seed", "18446744073709551615",
                             "--output", "machine")
        assert (code, err) == (0, "")
        assert json.loads(out)["seed"] == (1 << 64) - 1

    def test_conditional_frequencies_near_bound(self, capsys):
        _, out, _ = run(
            capsys, "simulate", TRINE, "--trials", "100000", "--seed", "42", "--output", "machine"
        )
        doc = json.loads(out)
        assert doc["trials"] == 100000
        for entry in doc["outcomes"]:
            assert abs(entry["frequency"] - 2.0 / 3.0) <= 0.01
            assert abs(entry["expected_confidence"] - 2.0 / 3.0) <= 1e-12
            assert abs(entry["frequency"] - entry["expected_confidence"]) <= entry["band_3sigma"]
        assert doc["fail"]["count"] == 0

    def test_linearly_independent_members_do_not_crash(self, capsys, tmp_path):
        # confidence 1 used to round to 1+4e-16 and break the 3-sigma band
        spec = tmp_path / "independent.json"
        spec.write_text(json.dumps({
            "dimension": 3,
            "states": [
                {"prior": 0.5, "ket": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                {"prior": 0.5, "ket": [[0.6, 0.0], [0.8, 0.0], [0.0, 0.0]]},
            ],
        }))
        code, out, err = run(capsys, "simulate", str(spec), "--output", "machine")
        assert code == 0, err
        for entry in json.loads(out)["outcomes"]:
            assert math.isfinite(entry["band_3sigma"])

    def test_roundoff_below_zero_prints_as_a_probability_in_range(self, capsys, tmp_path):
        # two orthogonal kets turned by 9 pi / 100: the fail outcome's probability
        # comes out at -2.2e-16 and is clamped into [0, 1], as bounds and confidences are
        spec = tmp_path / "turned.json"
        c, s = 0.9602936856769431, 0.2789911060392293
        spec.write_text(json.dumps({"dimension": 2, "states": [
            {"prior": 0.5, "ket": [[c, 0.0], [s, 0.0]]},
            {"prior": 0.5, "ket": [[-s, 0.0], [c, 0.0]]},
        ]}))
        _, pom, _ = run(capsys, "pom", str(spec), "--output", "machine")
        _, sim, _ = run(capsys, "simulate", str(spec), "--output", "machine")
        assert json.loads(pom)["inconclusive_probability"] >= 0.0
        assert json.loads(sim)["fail"]["expected_probability"] >= 0.0

    def test_no_command_imports_numpy_random(self, tmp_path):
        # importing numpy.random costs about 5.5 MB of resident memory, and
        # simulate draws its uniforms from SplitMix64 on numpy's core; a fresh
        # process shows what each command loads
        kraus = tmp_path / "identity.json"
        kraus.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
        commands = [["bound", TRINE], ["pom", TRINE], ["verify", TRINE], ["concentrate", TRINE],
                    ["transform", TRINE, "--kraus", str(kraus)], ["simulate", TRINE, "--trials", "10"]]
        script = (
            "import contextlib, json, os, sys\n"
            "import maxconf.cli\n"
            "seen = ['numpy.random' in sys.modules]\n"
            "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink):\n"
            "    for argv in json.loads(sys.argv[1]):\n"
            "        assert maxconf.cli.main(argv) == 0, argv\n"
            "        seen.append('numpy.random' in sys.modules)\n"
            "print(json.dumps(seen))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                               capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == [False] * 7


class TestTransform:
    def test_unitary_preserves_bounds(self, capsys, tmp_path):
        kraus = tmp_path / "hadamard.json"
        h = 1.0 / np.sqrt(2.0)
        kraus.write_text(json.dumps([[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]]))
        code, out, _ = run(capsys, "transform", WORKED, "--kraus", str(kraus), "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        for entry in doc["states"]:
            assert entry["verdict"] == "invariant"

    def test_rank_deficient_filter_reports_decrease(self, capsys, tmp_path):
        kraus = tmp_path / "collapse.json"
        kraus.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
        code, out, _ = run(capsys, "transform", TRINE, "--kraus", str(kraus), "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        verdicts = [entry["verdict"] for entry in doc["states"]]
        assert verdicts.count("decreased") == 2
        assert verdicts.count("invariant") == 1

    def test_missing_kraus_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", WORKED])
        assert exc.value.code == 2
        assert "kraus" in capsys.readouterr().err


class TestConcentrate:
    def test_flattens_schmidt_spectrum(self, capsys):
        code, out, _ = run(capsys, "concentrate", WORKED, "--output", "machine")
        assert code == 0
        doc = json.loads(out)
        after = doc["schmidt_after"]
        assert len(after) == 2
        for lam in after:
            assert abs(lam - 0.5) <= 1e-12
        assert 0.0 < doc["success_probability"] <= 1.0


class TestErrors:
    def test_missing_file_exits_two(self, capsys):
        code, out, err = run(capsys, "bound", "no/such/spec.json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "cannot read" in err

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    def test_semantic_error_exits_two(self, capsys, tmp_path):
        doc = {
            "dimension": 2,
            "states": [
                {"prior": 0.6, "ket": [[1.0, 0.0], [0.0, 0.0]]},
                {"prior": 0.5, "ket": [[0.0, 0.0], [1.0, 0.0]]},
            ],
        }
        bad = tmp_path / "sum.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bound", str(bad))
        assert code == 2
        assert "priors sum to 1.1" in err

    def test_a_spec_that_is_not_json_exits_two_with_the_parsers_message(self, capsys, tmp_path):
        bad = tmp_path / "keys.json"
        bad.write_text("{1: 2}")
        code, out, err = run(capsys, "bound", str(bad))
        assert code == 2 and out == ""
        assert err == (f"error: {bad} is not valid JSON: Expecting property name enclosed "
                       "in double quotes: line 1 column 2 (char 1)\n")

    @pytest.mark.parametrize("rows, message", [
        (matrix_to_json(np.eye(3)), "transform: operation element dimension mismatch"),
        # five pairs in one row decode to an array that is not square, which the per-entry reader names
        ([[[0.5, 0.0]] * 5], "matrix[0] must be a list of 1 complex entries"),
    ], ids=["identity3", "one-row"])
    def test_a_kraus_element_of_another_dimension_exits_two(self, capsys, tmp_path, rows, message):
        kraus = tmp_path / "kraus.json"
        kraus.write_text(json.dumps(rows))
        code, out, err = run(capsys, "transform", TRINE, "--kraus", str(kraus))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_a_closed_stdout_pipe_exits_two_with_one_line(self, tmp_path):
        # pom's machine output on this spec is far past the 64 KB pipe buffer,
        # so the write is still going when the reader closes its end
        ens = random_ensemble(np.random.default_rng(8), 32, [1] * 8)
        spec = tmp_path / "d32.json"
        spec.write_text(json.dumps({
            "dimension": ens.dim,
            "states": [{"prior": float(p), "matrix": matrix_to_json(rho)}
                       for p, rho in zip(ens.priors, ens.states)],
        }))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.Popen([sys.executable, "-m", "maxconf.cli", "pom", str(spec), "--output", "machine"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 2
        assert err == "error: pom: [Errno 32] Broken pipe\n"

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", TRINE])
        assert exc.value.code == 2

    def test_overweight_kraus_exits_two(self, capsys, tmp_path):
        kraus = tmp_path / "big.json"
        kraus.write_text(json.dumps([[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]))
        code, _, err = run(capsys, "transform", TRINE, "--kraus", str(kraus))
        assert code == 2
        assert "overweights" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
    @pytest.mark.parametrize("command", ["verify", "transform"])
    def test_tolerance_flag_must_be_finite_and_positive(self, capsys, tmp_path, command, value):
        kraus = tmp_path / "identity.json"
        kraus.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
        extra = ("--kraus", str(kraus)) if command == "transform" else ()
        code, out, err = run(capsys, command, TRINE, *extra, f"--tolerance={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tolerance must be finite and positive")

    def test_tolerance_flag_is_refused_where_no_report_reads_it(self, capsys):
        for command in ("bound", "pom", "simulate", "concentrate"):
            with pytest.raises(SystemExit) as exc:
                main([command, TRINE, "--tolerance", "1e-9"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --tolerance 1e-9" in capsys.readouterr().err
        code, _, _ = run(capsys, "verify", TRINE, "--tolerance", "1e-9")
        assert code == 0

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--seed=-1"),
        ("simulate", "--seed=18446744073709551616"),  # 2^64 would alias seed 0
        ("simulate", "--trials=0"),
        ("verify", "--tolerance=nan"),
    ])
    def test_flags_are_checked_before_the_spec_is_read(self, capsys, command, flag):
        code, out, err = run(capsys, command, "no/such/spec.json", flag)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag.split('=')[0]} must be")

    def test_computation_error_names_its_stage(self, capsys, tmp_path):
        # one pure member purifies to a product state, which cannot be concentrated
        spec = tmp_path / "single.json"
        spec.write_text(json.dumps({
            "dimension": 2,
            "states": [{"prior": 1.0, "ket": [[1.0, 0.0], [0.0, 0.0]]}],
        }))
        code, out, err = run(capsys, "concentrate", str(spec))
        assert code == 2
        assert out == ""
        assert err == "error: concentrate: cannot concentrate: Schmidt rank 1 (product state)\n"

    @pytest.mark.parametrize("command", ["pom", "verify", "simulate"])
    def test_a_tiny_outcome_probability_still_gives_a_report(self, capsys, tmp_path, command):
        # The conclusive outcome of the 1e-15 member has probability 3.6e-16,
        # far above 1e-14 times its effect's norm, so its conditional exists.
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps({
            "dimension": 2,
            "states": [
                {"prior": 1e-15, "ket": [[1.0, 0.0], [0.0, 0.0]]},
                {"prior": 1 - 1e-15, "ket": [[0.6, 0.0], [0.8, 0.0]]},
            ],
        }))
        code, out, err = run(capsys, command, str(spec), "--output", "machine")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        if command == "verify":
            assert doc["status"] == "pass"
        else:
            rows, key = (doc["states"], "confidence") if command == "pom" else (doc["outcomes"], "expected_confidence")
            assert [0.0 <= row[key] <= 1.0 for row in rows] == [True, True]

    def test_input_error_keeps_its_field_path(self, capsys, tmp_path):
        spec = tmp_path / "bad_prior.json"
        spec.write_text(json.dumps({
            "dimension": 2,
            "states": [
                {"prior": "half", "ket": [[1.0, 0.0], [0.0, 0.0]]},
                {"prior": 0.5, "ket": [[0.0, 0.0], [1.0, 0.0]]},
            ],
        }))
        code, _, err = run(capsys, "simulate", str(spec))
        assert code == 2
        assert err.startswith("error: states[0].prior ")

    def test_render_error_names_its_stage_after_a_partial_report(self, capsys, monkeypatch):
        real_pom_tree = reports.pom_tree

        def nan_tree(ens):
            tree = real_pom_tree(ens)
            tree["inconclusive_probability"] = math.nan
            return tree

        monkeypatch.setattr(reports, "pom_tree", nan_tree)
        code, out, err = run(capsys, "pom", WORKED, "--output", "machine")
        assert code == 2
        assert err == "error: pom: Out of range float values are not JSON compliant\n"
        # The report streams, so the keys sorted before the bad value are out.
        assert out.startswith('{\n  "command": "pom",\n  "dimension": 2,\n  "fail_effect": [\n')
        assert '"inconclusive_probability"' in out and '"states"' not in out


def _numbers(node, key):
    """Every value stored under `key` anywhere in a report."""
    if isinstance(node, dict):
        return [v for k, v in node.items() if k == key] + [x for v in node.values() for x in _numbers(v, key)]
    if isinstance(node, list):
        return [x for v in node for x in _numbers(v, key)]
    return []


class TestOneCutoffPolicy:
    """Every subcommand agrees on what is positive and what has rank."""

    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.1, 0.9)])
    @pytest.mark.parametrize("neg", [7e-11, 9.9e-11])
    def test_member_within_the_psd_slack_passes_every_route(self, capsys, tmp_path, neg, priors):
        # diag(0.5, 0.5 + neg, -neg) is within the slack, and so is p_0 times
        # it; before its factor dropped -neg, the bound read 1.00000000045 and
        # every command but concentrate exited 2
        spec = tmp_path / "slack.json"
        spec.write_text(json.dumps({
            "dimension": 3,
            "states": [
                {"prior": priors[0], "matrix": matrix_to_json(np.diag([0.5, 0.5 + neg, -neg]))},
                {"prior": priors[1], "matrix": matrix_to_json(np.diag([0.0, 0.0, 1.0]))},
            ],
        }))
        kraus = tmp_path / "filter.json"
        kraus.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.5, 0.75]))))
        for command in ("bound", "pom", "verify", "simulate", "concentrate", "transform"):
            extra = ["--kraus", str(kraus)] if command == "transform" else []
            code, out, err = run(capsys, command, str(spec), "--output", "machine", *extra)
            assert code == 0, err
            doc = json.loads(out)
            values = [x for key in ("bound", "confidence", "expected_confidence", "confidence_before",
                                    "confidence_after") for x in _numbers(doc, key)]
            assert values or command == "concentrate"
            assert all(0.0 <= x <= 1.0 for x in values)
            if command in ("bound", "pom"):
                assert _numbers(doc, "bound") == [1.0, 1.0]
            if command == "verify":
                assert doc["status"] == "pass"

    def test_filter_singular_within_the_cutoff_decreases_confidence(self, capsys, tmp_path):
        # s = 1e-8 enters the rank rule as s^2 = 1e-16, under the cutoff, so the
        # filter has rank 1 and the transformed average loses a support direction
        kraus = tmp_path / "filter.json"
        kraus.write_text(json.dumps(matrix_to_json(np.diag([1.0, 1e-8]))))
        code, out, err = run(capsys, "transform", WORKED, "--kraus", str(kraus), "--output", "machine")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["kraus_rank"] == 1
        assert [entry["verdict"] for entry in doc["states"]] == ["decreased", "decreased"]
        assert not any(entry["full_rank_on_support"] for entry in doc["states"])


class TestDiagnostics:
    def test_renormalized_ket_warns_on_one_line(self, capsys, tmp_path):
        spec = tmp_path / "unnormalized.json"
        spec.write_text(json.dumps({
            "dimension": 2,
            "states": [
                {"prior": 0.5, "ket": [[1.0, 0.0], [1.0, 0.0]]},
                {"prior": 0.5, "ket": [[1.0, 0.0], [0.0, 0.0]]},
            ],
        }))
        code, out, err = run(capsys, "bound", str(spec))
        assert code == 0
        assert "bound" in out
        assert err == f"warning: states[0].ket renormalized (norm was {math.sqrt(2.0)!r})\n"


class TestTextRendering:
    def test_floats_round_trip_in_text_mode(self, capsys):
        _, out, _ = run(capsys, "bound", TRINE)
        assert "0.6666666666666666" in out
        assert "0.3333333333333333" in out

    def test_verify_text_mentions_each_check(self, capsys):
        _, out, _ = run(capsys, "verify", WORKED)
        for key in ("purification_residual", "marginal_deviation", "status"):
            assert key in out
