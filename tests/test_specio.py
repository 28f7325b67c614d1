import io
import json
import sys
import warnings

import numpy as np
import pytest

from maxconf import SpecError, load_kraus, read_spec, reports
from maxconf import specio
from maxconf.cli import main
from maxconf.specio import matrix_to_json

from randomgen import random_density, random_kraus
from helpers import streamed_and_whole, trine_kets


FIXTURES = "fixtures"


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def qubit_spec(**overrides):
    doc = {
        "dimension": 2,
        "states": [
            {"prior": 0.5, "ket": [[1.0, 0.0], [0.0, 0.0]]},
            {"prior": 0.5, "ket": [[0.0, 0.0], [1.0, 0.0]]},
        ],
    }
    doc.update(overrides)
    return doc


class TestFixtures:
    def test_worked_example_loads(self):
        ens = read_spec(f"{FIXTURES}/worked_example.json").ensemble
        assert ens.dim == 2
        assert ens.n_states == 2
        assert np.abs(ens.states[0] - 0.5 * np.eye(2)).max() <= 1e-12
        plus = np.full((2, 2), 0.5)
        assert np.abs(ens.states[1] - plus).max() <= 1e-12

    def test_trine_loads_and_renormalizes_priors(self):
        ens = read_spec(f"{FIXTURES}/trine.json").ensemble
        assert ens.n_states == 3
        assert abs(float(np.sum(ens.priors)) - 1.0) <= 1e-15
        for state, ket in zip(ens.states, trine_kets()):
            assert np.abs(state - np.outer(ket, ket.conj())).max() <= 1e-9


class TestValidation:
    def test_prior_sum_off_by_too_much(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["prior"] = 0.6
        doc["states"][1]["prior"] = 0.5
        with pytest.raises(SpecError, match="priors sum to 1.1"):
            read_spec(write_spec(tmp_path, doc))

    def test_small_prior_drift_is_renormalized(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["prior"] = 0.5 + 0.99e-9
        ens = read_spec(write_spec(tmp_path, doc)).ensemble
        assert abs(float(np.sum(ens.priors)) - 1.0) <= 1e-15
        doc["states"][0]["prior"] = 0.5 + 1.01e-9  # past the 1e-9 the sum may miss 1 by
        with pytest.raises(SpecError, match="priors sum to"):
            read_spec(write_spec(tmp_path, doc))

    def test_zero_prior_rejected(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["prior"] = 0.0
        with pytest.raises(SpecError, match="strictly positive"):
            read_spec(write_spec(tmp_path, doc))

    def test_unnormalized_ket_warns(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["ket"] = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.warns(UserWarning, match="renormalized"):
            ens = read_spec(write_spec(tmp_path, doc)).ensemble
        assert abs(np.trace(ens.states[0]).real - 1.0) <= 1e-12

    def test_tiny_norm_drift_stays_quiet(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["ket"] = [[1.0 + 1e-8, 0.0], [0.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read_spec(write_spec(tmp_path, doc))

    def test_zero_ket_rejected(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["ket"] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(SpecError, match="zero vector"):
            read_spec(write_spec(tmp_path, doc))

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dimension": 2, "states": [{"prior": NaN, "ket": [[1,0],[0,0]]}]}')
        with pytest.raises(SpecError, match="non-finite"):
            read_spec(str(path))

    def test_infinity_rejected(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"dimension": 2, "states": [{"prior": Infinity, "ket": [[1,0],[0,0]]}]}')
        with pytest.raises(SpecError, match="non-finite"):
            read_spec(str(path))

    def test_malformed_complex_entry(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["ket"] = [[1.0], [0.0, 0.0]]
        with pytest.raises(SpecError, match=r"\[re, im\] pair"):
            read_spec(write_spec(tmp_path, doc))

    def test_dimension_mismatch(self, tmp_path):
        doc = qubit_spec(dimension=3)
        with pytest.raises(SpecError, match="list of 3"):
            read_spec(write_spec(tmp_path, doc))

    def test_non_psd_matrix_reports_worst_eigenvalue(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0] = {
            "prior": 0.5,
            "matrix": [
                [[1.2, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [-0.2, 0.0]],
            ],
        }
        with pytest.raises(SpecError, match="most negative eigenvalue -0.2"):
            read_spec(write_spec(tmp_path, doc))

    def test_wrong_trace_rejected(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0] = {
            "prior": 0.5,
            "matrix": [
                [[0.9, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.2, 0.0]],
            ],
        }
        with pytest.raises(SpecError, match="trace"):
            read_spec(write_spec(tmp_path, doc))

    def test_non_hermitian_matrix_rejected(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0] = {
            "prior": 0.5,
            "matrix": [
                [[0.5, 0.0], [0.3, 0.0]],
                [[0.0, 0.0], [0.5, 0.0]],
            ],
        }
        with pytest.raises(SpecError, match="Hermitian"):
            read_spec(write_spec(tmp_path, doc))

    def test_ket_and_matrix_together_rejected(self, tmp_path):
        doc = qubit_spec()
        doc["states"][0]["matrix"] = [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
        ]
        with pytest.raises(SpecError, match="exactly one"):
            read_spec(write_spec(tmp_path, doc))

    def test_missing_dimension(self, tmp_path):
        doc = qubit_spec()
        del doc["dimension"]
        with pytest.raises(SpecError, match="missing dimension"):
            read_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize("text", ["{}", "{ }"])
    def test_an_empty_object_misses_its_dimension(self, tmp_path, text):
        path = tmp_path / "empty.json"
        path.write_text(text)
        with pytest.raises(SpecError, match="^missing dimension$"):
            read_spec(str(path))

    def test_bool_dimension_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="positive integer"):
            read_spec(write_spec(tmp_path, qubit_spec(dimension=True)))

    def test_missing_file(self):
        with pytest.raises(SpecError, match="cannot read"):
            read_spec("no/such/file.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="not valid JSON"):
            read_spec(str(path))


class TestArrayParsing:
    """Whole-array reads must name a bad entry as the per-entry reader does."""

    HALF = [[0.5, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("ket", [[True, 0.0], [0.0, 0.0]], r"states\[0\]\.ket\[0\]\[0\] must be a number, got True"),
            ("ket", [[1.0, 0.0], ["0", 0.0]], r"states\[0\]\.ket\[1\]\[0\] must be a number, got '0'"),
            ("ket", [[1.0, 0.0], [0.0, None]], r"states\[0\]\.ket\[1\]\[1\] must be a number, got None"),
            ("ket", [[1.0, 0.0], [0.0]], r"states\[0\]\.ket\[1\] must be an \[re, im\] pair"),
            ("ket", [[1.0, 0.0], [0.0, 0.0, 0.0]], r"states\[0\]\.ket\[1\] must be an \[re, im\] pair"),
            ("ket", [[1.0, 0.0]], r"states\[0\]\.ket must be a list of 2 complex entries"),
            ("ket", [[float("nan"), 0.0], [0.0, 0.0]], "non-finite number 'NaN'"),
            (
                "matrix",
                [[[0.5, False], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                r"states\[0\]\.matrix\[0\]\[0\]\[1\] must be a number, got False",
            ),
            (
                "matrix",
                [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["0.5", 0.0]]],
                r"states\[0\]\.matrix\[1\]\[1\]\[0\] must be a number, got '0.5'",
            ),
            (
                "matrix",
                [[[0.5, 0.0], [0.0, 0.0]], [[0.0, None], [0.5, 0.0]]],
                r"states\[0\]\.matrix\[1\]\[0\]\[1\] must be a number, got None",
            ),
            (
                "matrix",
                [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
                r"states\[0\]\.matrix\[1\] must be a list of 2 complex entries",
            ),
            (
                "matrix",
                [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                r"states\[0\]\.matrix must be a 2 x 2 matrix",
            ),
            (
                "matrix",
                [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0, 1.0]]],
                r"states\[0\]\.matrix\[1\]\[1\] must be an \[re, im\] pair",
            ),
            # well formed, but square in another dimension
            ("matrix", [[[1.0, 0.0]]], r"states\[0\]\.matrix must be a 2 x 2 matrix"),
        ],
    )
    def test_bad_entries_are_named(self, tmp_path, key, value, message):
        doc = qubit_spec()
        doc["states"][0] = {"prior": 0.5, key: value}
        with pytest.raises(SpecError, match=message):
            read_spec(write_spec(tmp_path, doc))

    @pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400], ids=["float", "integer"])
    def test_overflowing_entry_is_not_finite(self, tmp_path, literal):
        doc = qubit_spec()
        doc["states"][1]["ket"] = [[0.0, 0.0], [123.25, 0.0]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace("123.25", literal))
        with pytest.raises(SpecError, match=r"states\[1\]\.ket\[1\]\[0\] is not finite"):
            read_spec(str(path))

    def test_overflowing_entry_in_wrapped_kraus_file_is_not_finite(self, tmp_path):
        path = tmp_path / "k.json"
        doc = {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [123.25, 0.0]]]}
        path.write_text(json.dumps(doc).replace("123.25", "1e400"))
        with pytest.raises(SpecError, match=r"matrix\[1\]\[1\]\[0\] is not finite"):
            load_kraus(str(path))

    def test_bool_in_kraus_file_rejected(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]]))
        with pytest.raises(SpecError, match=r"matrix\[1\]\[1\]\[0\] must be a number, got True"):
            load_kraus(str(path))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (
                [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]],
                r"^states\[1\]\.matrix is not positive semidefinite \(most negative eigenvalue -0\.2",
            ),
            ([[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]]], r"^states\[1\]\.matrix has trace 1\.1"),
            ([[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], r"^states\[1\]\.matrix is not Hermitian"),
        ],
    )
    def test_ensemble_errors_carry_the_field_path(self, tmp_path, matrix, message):
        doc = qubit_spec()
        doc["states"][1] = {"prior": 0.5, "matrix": matrix}
        with pytest.raises(SpecError, match=message):
            read_spec(write_spec(tmp_path, doc))

    def test_array_read_matches_per_entry_read_bit_for_bit(self):
        rng = np.random.default_rng(7)
        entry = rng.normal(size=(5, 5, 2)).tolist()
        entry[0][1] = [-0.0, 3]
        entry[2][2] = [1, -0.0]
        rows = specio._Stream(io.StringIO(json.dumps(entry))).matrix()
        assert isinstance(rows, np.ndarray)
        fast = specio._matrix(rows, 5, "m")
        assert fast.tobytes() == specio._matrix(entry, 5, "m").tobytes()

    def test_parse_decomposes_each_matrix_member_at_most_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        states = [random_density(rng, 6, rank) for rank in (1, 2, 3, 6)]
        doc = {
            "dimension": 6,
            "states": [{"prior": 0.25, "matrix": matrix_to_json(rho)} for rho in states],
        }
        path = write_spec(tmp_path, doc)
        calls = []
        modules = [np.linalg] + [m for name, m in sys.modules.items() if name.startswith("maxconf")]
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        read_spec(path)
        assert len(calls) <= len(states)

    def test_a_literal_in_another_field_leaves_every_matrix_factored_as_it_closes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(9)
        states = [random_density(rng, 6, rank) for rank in (1, 2, 3, 6)]
        doc = {
            "dimension": 6,
            "states": [{"prior": 0.25, "matrix": matrix_to_json(rho)} for rho in states],
        }
        plain = read_spec(write_spec(tmp_path, doc, "plain.json")).ensemble
        doc["states"][1]["note"] = True
        path = write_spec(tmp_path, doc, "noted.json")
        factored, calls = [], []
        real_factored = specio._factored

        def recorded(member):
            out = real_factored(member)
            factored.append(isinstance(out["matrix"], np.ndarray) and out["matrix"].dtype == np.complex128)
            return out

        monkeypatch.setattr(specio, "_factored", recorded)
        modules = [np.linalg] + [m for name, m in sys.modules.items() if name.startswith("maxconf")]
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        noted = read_spec(path).ensemble
        # the literal rule is per field: member 1's note leaves its matrix an array
        assert factored == [True] * len(states)
        assert calls == ["eigvalsh"] * len(states)
        for j in range(len(states)):
            assert noted.factor(j).tobytes() == plain.factor(j).tobytes()

    def test_a_literal_in_an_unread_field_changes_no_byte_of_pom(self, tmp_path, capsys):
        # the note comes first, ahead of every field a command reads
        plain = "fixtures/worked_example.json"
        with open(plain) as fh:
            noted = write_spec(tmp_path, {"note": True, **json.load(fh)}, "noted.json")
        printed = []
        for path in (plain, noted):
            assert main(["pom", path, "--output", "machine"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


class TestTolerance:
    def test_tolerance_field_surfaces(self, tmp_path):
        parsed = read_spec(write_spec(tmp_path, qubit_spec(tolerance=1e-7)))
        assert parsed.tolerance == 1e-7

    def test_tolerance_defaults_to_none(self, tmp_path):
        parsed = read_spec(write_spec(tmp_path, qubit_spec()))
        assert parsed.tolerance is None

    def test_non_positive_tolerance_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="tolerance must be positive"):
            read_spec(write_spec(tmp_path, qubit_spec(tolerance=0.0)))


class TestLoadKraus:
    def test_bare_matrix(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]))
        k = load_kraus(str(path))
        assert np.abs(k.matrix - np.diag([1.0, 0.5])).max() <= 1e-15

    def test_wrapped_matrix(self, tmp_path):
        path = tmp_path / "k.json"
        doc = {"matrix": [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        k = load_kraus(str(path))
        expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert np.abs(k.matrix - expected).max() <= 1e-15

    def test_malformed_kraus_rejected(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"matrix": "nope"}')
        with pytest.raises(SpecError, match="square matrix"):
            load_kraus(str(path))

    def test_a_long_first_row_reserves_no_square_array(self, tmp_path):
        # the array grows as rows arrive: 100000 x 100000 pairs would take 160 GB
        path = tmp_path / "k.json"
        path.write_text(json.dumps([[[1, 0]] * 100_000]))
        with pytest.raises(SpecError, match=r"^matrix\[0\] must be a list of 1 complex entries$"):
            load_kraus(str(path))

    def test_zero_kraus_rejected(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
        with pytest.raises(SpecError, match="zero"):
            load_kraus(str(path))


class TestSerialization:
    def test_matrix_round_trip_through_spec(self, tmp_path):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho = rho / np.trace(rho).real
        doc = {
            "dimension": 3,
            "states": [{"prior": 1.0, "matrix": matrix_to_json(rho)}],
        }
        ens = read_spec(write_spec(tmp_path, doc)).ensemble
        assert np.abs(ens.states[0] - rho).max() <= 1e-15

    def test_vector_serialization_shape(self):
        v = np.array([1.0 + 2.0j, -0.5])
        out = matrix_to_json(v)
        assert out == [[1.0, 2.0], [-0.5, 0.0]]


MIXED = [[[0.75, 0.0], [0.125, -0.25]], [[0.125, 0.25], [0.25, 0.0]]]
SPEC_TEXTS = {
    "states first": '{"states": [{"ket": [[0.6, 0], [0.8, 0]], "prior": 0.25},'
                    ' {"matrix": %s, "prior": 0.75}], "tolerance": 1e-7, "dimension": 2}' % json.dumps(MIXED),
    "duplicate keys": '{"dimension": 3, "states": 5, "tolerance": -1, "dimension": 2,'
                      ' "states": [{"prior": 1.0, "prior": 0.5, "ket": [[1, 0], [0, 0]]},'
                      ' {"prior": 0.5, "matrix": %s}], "tolerance": 1e-8}' % json.dumps(MIXED),
    "whitespace": ' \n\t{ \r\n"dimension"\n:\t2 ,\n "states" : [ \n{ "prior" : 0.5 ,"ket":[ [ 1.0 ,0 ]\n,[0,0]]}'
                  '\n\n, {"prior":0.5,\n"matrix":\n%s}\n ]\n} \n' % json.dumps(MIXED, indent=3),
    "true in a later member": '{"dimension": 2, "states": [{"prior": 0.5, "ket": [[1, 0], [0, 0]]},'
                              ' {"prior": 0.5, "ket": [[0, 0], [true, 0]]}]}',
    "false in another key": '{"dimension": 2, "states": [{"prior": 0.5, "ket": [[1, 0], [0, 0]]},'
                            ' {"prior": 0.5, "matrix": %s, "checked": false}]}' % json.dumps(MIXED),
    "string holding a brace": '{"dimension": 2, "states": [{"note": "}}]", "prior": 1.0,'
                              ' "matrix": %s}], "about": "{[\\"}"}' % json.dumps(MIXED),
    "empty states": '{"dimension": 2, "states": []}',
    "states not a list": '{"dimension": 2, "states": {"prior": 1.0}}',
    "member not an object": '{"dimension": 2, "states": [{"prior": 1.0, "ket": [[1, 0], [0, 0]]}, 7]}',
    "root not an object": '[{"dimension": 2}]',
    "large integer": '{"dimension": 2, "states": [{"prior": 1.0, "ket": [[1, 0], [%s, 0]]}]}' % ("1" * 400),
    "extra data": '{"dimension": 2, "states": []} []',
    "trailing comma": '{"dimension": 2, "states": [{"prior": 1.0, "ket": [[1, 0], [0, 0]]},]}',
    "nan before a syntax error": '{"dimension": NaN, "states": [}',
    "syntax error before a nan": '{"dimension": 2 "states": [NaN]}',
    "byte order mark": '\ufeff{"dimension": 2, "states": []}',
    "empty file": "",
}
KRAUS_TEXTS = {
    "bare": json.dumps([[[1.0, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.25, 0.0]]]),
    "wrapped": json.dumps({"matrix": [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]], "note": "x"}),
    "wrapped, literal elsewhere": '{"unitary": true, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "wrapped, literal in a later field": '{"matrix": [[[0.5, -0.0], [0, 0.25]], [[-0.25, 1e-3], [1, 0]]],'
                                         ' "checked": false}',
    "bare, literal inside": "[[[1, 0], [0, 0]], [[0, 0], [false, 0]]]",
    "wrapped, truncated": '{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]',
}


class TestStreamedRead:
    """The streamed reader gives what json.loads over the whole file gives."""

    @pytest.mark.parametrize("chunk", [None, 1, 2, 7, 64], ids=lambda c: f"chunk-{c}")
    @pytest.mark.parametrize("name", sorted(SPEC_TEXTS))
    def test_specs_match_the_whole_file_read(self, tmp_path, name, chunk):
        path = tmp_path / "spec.json"
        path.write_text(SPEC_TEXTS[name], encoding="utf-8")
        streamed, whole = streamed_and_whole(read_spec, str(path), chunk)
        assert streamed == whole

    @pytest.mark.parametrize("chunk", [None, 1, 5], ids=lambda c: f"chunk-{c}")
    @pytest.mark.parametrize("name", sorted(KRAUS_TEXTS))
    def test_kraus_files_match_the_whole_file_read(self, tmp_path, name, chunk):
        path = tmp_path / "kraus.json"
        path.write_text(KRAUS_TEXTS[name], encoding="utf-8")
        streamed, whole = streamed_and_whole(load_kraus, str(path), chunk)
        assert streamed == whole

    def test_fields_and_literals_are_read_as_before(self, tmp_path):
        path = tmp_path / "spec.json"
        for name, expected in [
            ("states first", 1e-7),
            ("duplicate keys", 1e-8),
        ]:
            path.write_text(SPEC_TEXTS[name])
            assert read_spec(str(path)).tolerance == expected
        path.write_text(SPEC_TEXTS["true in a later member"])
        with pytest.raises(SpecError, match=r"^states\[1\]\.ket\[1\]\[0\] must be a number, got True$"):
            read_spec(str(path))

    def test_members_straddling_chunk_edges(self, tmp_path):
        rng = np.random.default_rng(12)
        doc = {
            "dimension": 5,
            "states": [{"prior": 0.25, "matrix": matrix_to_json(random_density(rng, 5, r))}
                       for r in (1, 2, 3, 5)],
        }
        path = write_spec(tmp_path, doc)
        for chunk in (1, 3, 10, 97, 1000):
            streamed, whole = streamed_and_whole(read_spec, path, chunk)
            assert streamed == whole, chunk

    def test_d8_matrices_decode_alike_when_every_number_straddles_a_chunk_edge(self, tmp_path):
        rng = np.random.default_rng(14)
        doc = {
            "dimension": 8,
            "states": [{"prior": p, "matrix": matrix_to_json(random_density(rng, 8, r))}
                       for p, r in ((0.25, 1), (0.25, 3), (0.5, 8))],
        }
        spec = write_spec(tmp_path, doc)
        rows = matrix_to_json(random_kraus(rng, 8, 5).matrix)
        kraus = [write_spec(tmp_path, rows, "bare.json"), write_spec(tmp_path, {"matrix": rows}, "wrapped.json")]
        read = {}
        for chunk in (None, 2):  # every number here, "0.0" at the shortest, straddles a chunk edge
            with pytest.MonkeyPatch.context() as mp:
                if chunk is not None:
                    mp.setattr(specio, "_READ_CHUNK", chunk)
                ens = read_spec(spec).ensemble
                with open(kraus[0], encoding="utf-8") as fh:
                    bare = specio._Stream(fh).document()
                assert isinstance(bare, np.ndarray) and bare.shape == (8, 8, 2)
                read[chunk] = (
                    [ens.factor(j).tobytes() for j in range(ens.n_states)],
                    [s["bound"] for s in reports.bound_report(ens)["states"]],
                    bare.tobytes(),
                    [load_kraus(path).matrix.tobytes() for path in kraus],
                )
        assert read[2] == read[None]
        assert read[2][3] == [bare.view(np.complex128)[..., 0].tobytes()] * 2

    def test_file_that_is_not_utf8_fails_as_before(self, tmp_path):
        path = tmp_path / "spec.json"
        text = json.dumps(qubit_spec()).encode()
        path.write_bytes(text[:30] + b"\xff" + text[30:])
        streamed, whole = streamed_and_whole(read_spec, str(path), chunk=8)
        assert streamed == whole
        assert streamed[0] == "UnicodeDecodeError"

    def test_each_matrix_row_is_decoded_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        doc = {
            "dimension": 6,
            "states": [{"prior": 0.2, "matrix": matrix_to_json(random_density(rng, 6, 2))}
                       for _ in range(5)],
        }
        path = write_spec(tmp_path, doc)
        decoded = []

        class Counting:
            def raw_decode(self, text, pos):
                value, end = decoder.raw_decode(text, pos)
                decoded.append(text[pos:end])
                return value, end

        decoder = specio._DECODER
        monkeypatch.setattr(specio, "_DECODER", Counting())
        monkeypatch.setattr(specio, "_READ_CHUNK", 100)  # a row is about 250 characters
        read_spec(path)
        rows = [json.dumps(row) for m in doc["states"] for row in m["matrix"]]
        # no member or whole matrix is ever one decode: each row is, once
        assert [t for t in decoded if t[:2] == "[["] == rows
        assert not [t for t in decoded if t[0] == "{" or t[:3] == "[[["]
