import json

import pytest

from lspectra.cli import main, parse_window, UsageError
from lspectra.graded import GradedGroup
from lspectra.forms import LinkingForm


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_window(self):
        assert parse_window("-4..4") == (-4, 4)
        assert parse_window("0..12") == (0, 12)
        with pytest.raises(UsageError):
            parse_window("4..-4")
        with pytest.raises(UsageError):
            parse_window("4")


class TestTable:
    def test_tsv_rows(self, capsys):
        code, out = run(["table", "--name", "Ls", "--window", "-4..4", "--format", "tsv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "-4\tZ"
        assert lines[1] == "-3\tZ/2"
        assert lines[5] == "1\tZ/2"
        assert lines[-1] == "4\tZ"

    def test_json_roundtrips_through_parser(self, capsys):
        code, out = run(["table", "--name", "Ln", "--window", "-8..8"], capsys)
        assert code == 0
        tab = GradedGroup.from_json(json.loads(out))
        assert tab.window == (-8, 8)

    def test_deterministic_bytes(self, capsys):
        _, out1 = run(["table", "--name", "Lgs", "--window", "-16..16"], capsys)
        _, out2 = run(["table", "--name", "Lgs", "--window", "-16..16"], capsys)
        assert out1 == out2

    def test_unknown_name_is_usage_error(self, capsys):
        code, _ = run(["table", "--name", "bogus", "--window", "-4..4"], capsys)
        assert code == 2


class TestDual:
    def test_named_table(self, capsys):
        code, out = run(["dual", "--name", "Lq", "--window", "-8..8", "--format", "tsv"], capsys)
        assert code == 0
        rows = dict(line.split("\t") for line in out.strip().splitlines())
        assert rows["0"] == "Z"
        assert rows["1"] == "Z/2"  # the L^s pattern

    def test_input_file(self, tmp_path, capsys):
        doc = {"window": [-2, 2], "period": None, "groups": {"0": "Z/5"}}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        code, out = run(["dual", "--input", str(path), "--format", "tsv"], capsys)
        assert code == 0
        rows = dict(line.split("\t") for line in out.strip().splitlines())
        assert rows["-1"] == "Z/5"

    def test_json_output_roundtrips(self, capsys):
        code, out = run(["dual", "--name", "Ln", "--window", "-8..8"], capsys)
        assert code == 0
        assert GradedGroup.from_json(json.loads(out)).window == (-8, 8)


class TestInvariant:
    def test_signature(self, tmp_path, capsys):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps([[2, -1], [-1, 2]]))
        code, out = run(["invariant", "--name", "signature", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_arf(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text(json.dumps([[1, 1], [0, 1]]))
        code, out = run(["invariant", "--name", "arf", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 1

    def test_beta_roundtrip(self, tmp_path, capsys):
        form = LinkingForm.skew_unit(1)
        path = tmp_path / "l.json"
        path.write_text(json.dumps(form.to_json()))
        code, out = run(["invariant", "--name", "beta", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_beta_from_structured_complex(self, tmp_path, capsys):
        from lspectra.poincare import representative, tensor_structured

        t = tensor_structured(representative("E"), representative("F"))
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(t.to_json()))
        code, out = run(["invariant", "--name", "beta", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_missing_file(self, capsys):
        code, _ = run(["invariant", "--name", "beta", "--input", "/nonexistent.json"], capsys)
        assert code == 2


class TestCertifyEf:
    def test_prints_beta_four(self, capsys):
        code, out = run(["certify-ef"], capsys)
        assert code == 0
        assert out.strip() == "beta = 4"


class TestVerify:
    def test_suite_a_passes(self, capsys):
        code, out = run(["verify", "A", "--window", "-12..12", "--format", "tsv"], capsys)
        assert code == 0
        assert "FAIL" not in out

    def test_suite_b_passes(self, capsys):
        code, out = run(["verify", "B", "--window", "-12..12", "--format", "tsv"], capsys)
        assert code == 0

    @pytest.mark.parametrize("window", ["-12..18", "-5..30"])
    def test_suite_b_passes_on_asymmetric_windows(self, window, capsys):
        # the Anderson duals reflect degrees, so the padded window must
        # contain the reflection of the requested one
        code, out = run(["verify", "B", "--window", window, "--format", "tsv"], capsys)
        assert code == 0
        rows = out.splitlines()
        assert len(rows) == 10
        assert all(row.split("\t")[1] == "PASS" for row in rows)

    @pytest.mark.parametrize("window", ["5..5", "5..6", "-1..1", "0..3", "-3..0", "2..5"])
    def test_suite_a_passes_on_short_windows(self, window, capsys):
        code, out = run(["verify", "A", "--window", window, "--format", "tsv"], capsys)
        assert code == 0
        assert all(row.split("\t")[1] == "PASS" for row in out.splitlines())

    def test_presentations(self, capsys):
        code, out = run(["verify", "presentations", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(item["passed"] for item in report)


class TestTorsor:
    def test_ln(self, capsys):
        code, out = run(["torsor", "--name", "Ln", "--window", "-8..8", "--format", "tsv"], capsys)
        assert code == 0
        assert out.strip() == "Z/2 + Z/2"

    def test_needs_period(self, capsys):
        code, _ = run(["torsor", "--name", "Lgs", "--window", "-8..8"], capsys)
        assert code == 2

    @pytest.mark.parametrize("window", ["0..3", "0..2"])
    def test_window_shorter_than_period_is_usage_error(self, window, capsys):
        code = main(["torsor", "--name", "Ln", "--window", window, "--period", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
