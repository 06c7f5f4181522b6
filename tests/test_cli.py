import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import random
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest

from lspectra.abelian import MAX_SUMMANDS, FgAbGroup, IntMatrix
from lspectra.chain import IntComplex
from lspectra import cli
from lspectra.cli import _emit_table, _glue_window, build_parser, main, parse_window, UsageError
from lspectra.graded import MAX_WIDTH, GradedGroup, OutOfWindowError, anderson_dual
from lspectra.ltables import TABLE_NAMES, table
from lspectra.forms import F2QuadForm, LinkingForm, nondegenerate
from lspectra.poincare import (
    StructuredComplex,
    linking_form,
    representative,
    tensor_structured,
)

from helpers import block_diagonal, random_group, rendered_by_degree, skew_unit


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

    @pytest.mark.parametrize("argv", [["certify-ef", "--window", "3..1"], ["verify", "A", "--input", "x"],
                                      ["verify", "A", "--name", "Ls"], ["table", "--name", "Ls", "--input", "x"]])
    def test_option_the_verb_does_not_read_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


# every verb, suite and option, their abbreviations and --opt=value forms, the end of options, help and junk
TOKENS = (*cli._VERBS, "A", "B", "presentations", "--window", "--name", "--input", "--format", "--period",
          "--win", "--n", "--i", "--f", "--p", "--window=-4..4", "--name=Ls", "--format=tsv", "--period=4",
          "--", "-h", "--help", "X", "-4..4", "json")


class _Parsed(BaseException):
    """Carries what main's parser made of a command line out of main, before any verb runs."""


def _outcome(parse, argv):
    """("parsed", the values with func by name, stdout), ("error", the UsageError text, stdout)
    or ("exit", the exit code, stdout) of parse(argv)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            ns = parse(argv)
    except UsageError as exc:
        return "error", str(exc), out.getvalue()
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return "parsed", {**vars(ns), "func": ns.func.__name__}, out.getvalue()


class TestParserDifferential:
    """main builds only the parser of a leading verb, and every command line reads as it does
    with every verb: the same values, the same error and the same help."""

    @pytest.fixture
    def main_parse(self, monkeypatch):
        """argv -> (what main's parser makes of it, the verb main built that parser for, None for
        every verb); no verb runs."""
        calls, built = [], {}

        def spy(build, verb):
            calls.append(verb)
            if verb not in built:  # one parser per verb: parsing leaves a parser as it was
                parser = built[verb] = build() if verb is None else build(verb)

                def parse_args(argv, parser=parser):
                    raise _Parsed(_outcome(functools.partial(argparse.ArgumentParser.parse_args, parser), argv))

                parser.parse_args = parse_args
            return built[verb]

        monkeypatch.setattr(cli, "build_parser", functools.partial(spy, build_parser, None))
        monkeypatch.setattr(cli, "_verb_parser", functools.partial(spy, cli._verb_parser))

        def parse(argv):
            calls.clear()
            try:
                main(argv)
            except _Parsed as stop:
                (verb,) = calls
                return stop.args[0], verb
            raise AssertionError(f"main returned without parsing {argv}")

        return parse

    def test_every_line_of_at_most_three_tokens(self, main_parse):
        oracle = build_parser()
        for k in range(4):
            for argv in map(list, itertools.product(TOKENS, repeat=k)):
                got, verb = main_parse(argv)
                assert got == _outcome(oracle.parse_args, _glue_window(argv)), argv
                assert verb == (argv[0] if argv and argv[0] in cli._VERBS else None), argv

    def test_longer_lines(self, main_parse):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        oracle = build_parser()

        @hypothesis.settings(derandomize=True, max_examples=400, deadline=None, database=None,
                             suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(argv=st.lists(st.sampled_from(TOKENS) | st.text(max_size=6), min_size=4, max_size=10))
        def same(argv):
            assert main_parse(argv)[0] == _outcome(oracle.parse_args, _glue_window(argv))

        same()

    def test_a_leading_verb_builds_one_parser_and_no_subparsers(self, monkeypatch, capsys):
        parsers, subparsers = [], []
        init, add_subparsers = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: parsers.append(kw.get("prog")) or init(self, *a, **kw))
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                            lambda self, **kw: subparsers.append(kw) or add_subparsers(self, **kw))
        for verb, argv in [("table", ["--name", "Lgs", "--window", "-376..375"]), ("certify-ef", []),
                           ("verify", ["A", "--format", "tsv"]), ("dual", ["-h"])]:
            parsers.clear()
            assert main([verb, *argv]) in (0, 1)
            assert (parsers, subparsers) == ([f"lspectra {verb}"], []), verb
        parsers.clear()
        capsys.readouterr()
        assert main(["--help"]) == 0
        assert len(subparsers) == 1 and len(parsers) == 1 + len(cli._VERBS)
        assert "{table,dual,invariant,certify-ef,verify,torsor}" in capsys.readouterr().out


class TestRendering:
    """A table's text, each core group rendered once, is each degree's group rendered on its own."""

    @staticmethod
    def _check(G):
        expected = rendered_by_degree(G)
        doc = {"window": list(G.window), "period": G.period, "groups": {str(n): text for n, text in expected}}
        assert G.rendered() == expected
        assert G.to_json() == doc
        tsv, js, old = io.StringIO(), io.StringIO(), io.StringIO()
        _emit_table(G, "tsv", tsv)
        assert tsv.getvalue() == "".join(f"{n}\t{text}\n" for n, text in expected)
        _emit_table(G, "json", js)
        json.dump(doc, old, indent=2)
        assert js.getvalue() == old.getvalue() + "\n"

    @pytest.mark.parametrize("window", [(-376, 375), (1648, 2048), (-2048, -1649)])
    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_named_tables_and_their_duals(self, name, window):
        tab = table(name, window)
        self._check(tab)
        self._check(anderson_dual(tab))

    def test_random_finite_tables(self):
        rng = random.Random(23)
        for _ in range(300):
            lo = rng.randint(-60, 60)
            hi = lo + rng.randint(0, 40)
            period = rng.choice([None, None, 1, 2, 3, 4, 8])
            base = [random_group(rng) if rng.random() < 0.7 else FgAbGroup() for _ in range(period or hi - lo + 1)]
            groups = {str(n): base[(n - lo) % len(base)].render() for n in range(lo, hi + 1) if rng.random() < 0.8}
            if period:  # a periodic table states every degree
                groups = {str(n): base[(n - lo) % period].render() for n in range(lo, hi + 1)}
            self._check(GradedGroup.from_json({"window": [lo, hi], "period": period, "groups": groups}))

    def test_any_core_and_tails(self):
        # the texts past the core repeat with the tails; a degree that no tail reaches raises as G[n] does
        rng = random.Random(37)
        for _ in range(2000):
            a = rng.randint(-20, 20)
            core = [random_group(rng) for _ in range(rng.randint(1, 11))]
            tails = tuple(rng.choice([None, *range(1, len(core) + 1)]) for _ in range(2))
            lo = rng.randint(-40, 40)
            G = GradedGroup.from_core((lo, lo + rng.randint(0, 40)), None, (a, a + len(core) - 1),
                                      lambda n: core[n - a], tails)
            try:
                expected = rendered_by_degree(G)
            except OutOfWindowError as exc:
                with pytest.raises(OutOfWindowError) as raised:
                    G.rendered()
                assert raised.value.args == exc.args
            else:
                assert G.rendered() == expected

    @staticmethod
    def _prints(argv, tab, capsys):
        """main(argv) prints tab: its JSON as json.dumps lays it out, its TSV one render() per degree."""
        for fmt, expected in (("json", json.dumps(tab.to_json(), indent=2) + "\n"),
                              ("tsv", "".join(f"{n}\t{tab[n].render()}\n" for n in tab.degrees()))):
            assert main([*argv, "--format", fmt]) == 0
            assert capsys.readouterr().out == expected, (argv, fmt)

    @classmethod
    def _prints_dual(cls, argv, tab, capsys):
        """main(argv) prints the dual of tab, or exits 2 where its window does not dualise."""
        try:
            dual = anderson_dual(tab)
        except OutOfWindowError:
            assert main(argv) == 2, argv
            assert capsys.readouterr().out == ""
        else:
            cls._prints(argv, dual, capsys)

    def test_seeded_windows_through_main(self, capsys):
        # windows anywhere, shorter than one period, and wholly inside the lower or the upper tail
        # (every table is computed on -8..7); each table, and its dual where the window dualises
        rng = random.Random(35)
        spans = {"anywhere": lambda: (lo := rng.randint(-2048, 1748), lo + rng.randint(0, 300)),
                 "short": lambda: (lo := rng.randint(-40, 40), lo + rng.randint(0, 6)),
                 "lower tail": lambda: (hi := rng.randint(-400, -9), hi - rng.randint(0, 200))[::-1],
                 "upper tail": lambda: (lo := rng.randint(8, 400), lo + rng.randint(0, 200))}
        for name in TABLE_NAMES:
            for kind, span in spans.items():
                for lo, hi in (span(), span()):
                    window = f"--window={lo}..{hi}"
                    tab = table(name, (lo, hi))
                    self._prints(["table", "--name", name, window], tab, capsys)
                    self._prints_dual(["dual", "--name", name, window], tab, capsys)

    def test_finite_input_tables_through_main(self, tmp_path, capsys):
        # dual --input prints the dual of a finite table, with period null and with the period set
        rng = random.Random(36)
        path = tmp_path / "table.json"
        for _ in range(60):
            lo = rng.randint(-60, 60)
            hi = lo + rng.randint(0, 30)
            period = rng.choice([None, 1, 2, 4, 8])
            base = [random_group(rng) for _ in range(period or hi - lo + 1)]
            doc = {"window": [lo, hi], "period": period,
                   "groups": {str(n): base[(n - lo) % len(base)].render() for n in range(lo, hi + 1)}}
            path.write_text(json.dumps(doc))
            self._prints_dual(["dual", "--input", str(path)], GradedGroup.from_json(doc), capsys)


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestOneWritePerDocument:
    """Every verb's stdout, a document or its help, arrives in one write, so an unbuffered stdout
    makes one write(2) of it."""

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize("argv", [
        ["table", "--name", "Lgs", "--window", "-232..279"], ["dual", "--name", "Ls"], ["certify-ef"],
        ["verify", "A"], ["verify", "B"], ["verify", "presentations", "--window", "-8..8"],
        ["torsor", "--name", "Ln", "--window", "-8..8"], ["invariant", "--name", "signature", "--input", "gram"],
        ["invariant", "--name", "arf", "--input", "quadratic"], ["invariant", "--name", "beta", "--input", "form"],
    ], ids=lambda argv: "-".join(token for token in argv[:4] if not token.startswith("-")))
    def test_one_write(self, argv, fmt, tmp_path, monkeypatch):
        files = {"gram": [[2, -1], [-1, 2]], "quadratic": [[1, 1], [0, 1]], "form": skew_unit(1).to_json()}
        for stem, doc in files.items():
            (tmp_path / stem).write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        out = _CountedWrites()
        monkeypatch.setattr(sys, "stdout", out)
        assert main([*argv, "--format", fmt]) == 0
        assert out.writes == 1 and out.getvalue().endswith("\n")

    @pytest.mark.parametrize("argv", [["-h"], *([verb, "-h"] for verb in cli._VERBS)])
    def test_help_is_one_write(self, argv, monkeypatch):
        out = _CountedWrites()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        assert out.writes == 1 and out.getvalue().startswith("usage: lspectra")


class TestNameOrInput:
    """table needs --name; dual and torsor read --name or --input, and refuse both, or --window beside --input."""

    @pytest.mark.parametrize("argv, message", [
        (["table"], "table needs --name"), (["table", "--window", "-4..4", "--format", "tsv"], "table needs --name"),
        (["torsor"], "torsor needs --name or --input"), (["torsor", "--period", "4"], "torsor needs --name or --input"),
        (["dual", "--window", "-4..4"], "dual needs --name or --input")])
    def test_missing_name_is_named(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("verb", ["dual", "torsor"])
    @pytest.mark.parametrize("extra", [[], ["--window", "-4..4"], ["--format", "tsv"]])
    def test_name_and_input_together_are_refused(self, verb, extra, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"window": [0, 7], "period": 4, "groups": {"0": "Z/5", "4": "Z/5"}}))
        code = main([verb, "--input", str(path)] + extra)
        captured = capsys.readouterr()
        if "--window" in extra:  # the file's own window is read, so a window beside it is refused
            assert (code, captured.out, captured.err) == (
                2, "", f"error: {verb} takes --window or --input, not both\n")
        else:
            assert code == 0  # the file alone is read
        code = main([verb, "--name", "Ls", "--input", str(path)] + extra)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {verb} takes --name or --input, not both\n")


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

    @pytest.mark.parametrize("verb", ["table", "dual", "torsor"])
    def test_every_verb_names_the_tables_it_knows(self, verb, capsys):
        code = main([verb, "--name", "bogus"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: unknown table 'bogus'; choose from Ls, ")
        assert len(captured.err.splitlines()) == 1


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

    @pytest.mark.parametrize("name, window", [("Ln", "3..3"), ("Lgs", "0..0")])
    def test_window_too_short_to_dualise_is_usage_error(self, name, window, capsys):
        code = main(["dual", "--name", name, "--window", window])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {window}: ")
        assert len(captured.err.splitlines()) == 1


class TestInvariant:
    def test_signature(self, tmp_path, capsys):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps([[2, -1], [-1, 2]]))
        code, out = run(["invariant", "--name", "signature", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_arf(self, tmp_path, capsys):
        # the zero form has Arf 0, as it has beta and signature 0
        for matrix, value in (([[1, 1], [0, 1]], 1), ([], 0)):
            path = tmp_path / "q.json"
            path.write_text(json.dumps(matrix))
            code, out = run(["invariant", "--name", "arf", "--input", str(path)], capsys)
            assert code == 0
            assert json.loads(out) == {"invariant": "arf", "value": value}

    def test_beta_roundtrip(self, tmp_path, capsys):
        form = skew_unit(1)
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

    def test_a_zero_torsion_modulus_fails_its_row(self):
        # L^gs with z_i of modulus 0, which is no relation (Z/0 = Z): its basis turns free and its table wrong,
        # so its row fails with exit 1, not a division by zero; a fresh interpreter, as presentations are shared
        script = "\n".join([
            "from lspectra import ltables",
            "from lspectra.cli import main",
            "genuine = ltables._build_presentation",
            "def build(name):",
            "    pres = genuine(name)",
            "    if name == 'Lgs':",
            "        e, z = pres.torsion_patterns",
            "        pres = ltables.RingPresentation(pres.name, pres.generators, pres.rewrites, (e, (z[0], 0)))",
            "    return pres",
            "ltables._build_presentation = build",
            "raise SystemExit(main(['verify', 'presentations', '--format', 'tsv']))",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
        assert (done.returncode, done.stderr) == (1, "")
        assert [row.split("\t")[0] for row in done.stdout.splitlines() if "\tFAIL" in row] == ["presentation-Lgs"]


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

    @pytest.mark.parametrize("window", ["0..7", "0..3"])
    def test_period_zero_is_refused(self, window, capsys):
        # a given --period of 0 is not "no period": the table's own period must not stand in
        code = main(["torsor", "--name", "Ls", "--window", window, "--period", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: period must be positive\n"


def _e_tensor_planes(k):
    """E (x) (F + hyperbolic + F + ...) with k planes: carrier homology (Z/2)^(2k)."""
    planes = [IntMatrix([[1, 1], [0, 1]] if i % 2 == 0 else [[0, 1], [0, 0]]) for i in range(k)]
    psi = {(0, 1): block_diagonal(*planes)}
    f = StructuredComplex(IntComplex({1: 2 * k}), "quadratic", 2, psi)
    return tensor_structured(representative("E"), f)


class TestDeskScaleBound:
    def test_largest_enumerated_form_prints_beta(self, tmp_path, capsys):
        # 2^12 elements, the bound itself; three F planes give beta 4
        path = tmp_path / "planes.json"
        path.write_text(json.dumps(_e_tensor_planes(6).to_json()))
        code, out = run(["invariant", "--name", "beta", "--input", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_form_above_the_bound_is_extracted_but_not_enumerated(self, tmp_path, capsys):
        S = _e_tensor_planes(7)
        form = linking_form(S)
        assert form.group.order() == 1 << 14
        assert nondegenerate(form)
        path = tmp_path / "planes.json"
        path.write_text(json.dumps(S.to_json()))
        code = main(["invariant", "--name", "beta", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert "desk-scale bound" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("planes, value", [(6, 1), (7, None)])
    def test_arf_enumerates_at_most_2_to_the_12_vectors(self, planes, value, tmp_path, capsys):
        # Arf-1 and hyperbolic planes alternating: dimension 12 has Arf 1, dimension 14 is refused
        blocks = [IntMatrix([[1, 1], [0, 1]] if i % 2 == 0 else [[0, 1], [0, 0]])
                  for i in range(planes)]
        path = tmp_path / "q.json"
        path.write_text(json.dumps(block_diagonal(*blocks).tolist()))
        code = main(["invariant", "--name", "arf", "--input", str(path)])
        captured = capsys.readouterr()
        if value is None:
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith(f"error: {path}: EnumerationBoundError: ")
            assert len(captured.err.splitlines()) == 1
        else:
            assert (code, json.loads(captured.out)["value"]) == (0, value)


M61 = 2 ** 61 - 1  # a prime: trial division of it never finishes


def run_cli(args, timeout=10):
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter, killed after ``timeout`` s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "lspectra.cli", *args], capture_output=True,
                          text=True, timeout=timeout, env=env)
    return done.returncode, done.stdout, done.stderr


class TestLargePrimeOrders:
    """Inputs whose groups have a large prime order finish: none is factored."""

    def test_dual_of_a_table(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"window": [0, 3], "period": None, "groups": {"0": f"Z/{M61}"}}))
        code, out, _ = run_cli(["dual", "--input", str(path), "--format", "tsv"])
        assert code == 0
        assert dict(line.split("\t") for line in out.strip().splitlines())["-1"] == f"Z/{M61}"

    def test_torsor_of_a_periodic_table(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"window": [0, 7], "period": 4,
                                    "groups": {"0": f"Z/{M61}", "4": f"Z/{M61}"}}))
        code, out, _ = run_cli(["torsor", "--input", str(path)])  # the file's own window, 0..7
        assert code == 0
        assert json.loads(out) == {"torsor": "0"}

    def test_beta_of_a_form_on_a_large_prime_order(self, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"factors": [2 ** 127 - 1], "q": {"(0)": "0"}}))
        code, out, err = run_cli(["invariant", "--name", "beta", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ")
        assert len(err.splitlines()) == 1


# E (x) F as a structured complex, whose beta is 4; the text- cases below change one field of it
_E_TENSOR_F = {"ranks": {"0": 2, "1": 2}, "differentials": {"1": [[2, 0], [0, 2]]}, "kind": "quadratic",
               "dimension": 1, "psi": {"0,0": [[-1, -1], [0, -1]], "0,1": [[-1, -1], [0, -1]]}}

MALFORMED_INPUTS = {
    "odd-order-form": (["invariant", "--name", "beta"],
                       {"factors": [3], "q": {"(0)": "0", "(1)": "1/3", "(2)": "1/3"}}),
    "degenerate-form": (["invariant", "--name", "beta"],
                        {"factors": [2], "q": {"(0)": "0", "(1)": "1/2"}}),
    "form-without-q": (["invariant", "--name", "beta"], {"factors": [2]}),
    "form-missing-element": (["invariant", "--name", "beta"], {"factors": [2], "q": {"(0)": "0"}}),
    "ragged-signature": (["invariant", "--name", "signature"], [[1, 2], [3]]),
    "bad-group-dual": (["dual"], {"window": [-2, 2], "period": None, "groups": {"0": "Z/x"}}),
    "bad-group-torsor": (["torsor", "--period", "4"],
                         {"window": [-2, 2], "period": None, "groups": {"0": "Z/x"}}),
    "odd-torsion-complex": (["invariant", "--name", "beta"], {
        "ranks": {"1": 1, "0": 1}, "differentials": {"1": [[3]]},
        "kind": "quadratic", "dimension": 1, "psi": {"0,0": [[1]], "0,1": [[1]]}}),
    "structure-relations-fail": (["invariant", "--name", "beta"], {
        "ranks": {"0": 1, "-1": 1}, "differentials": {"0": [[2]]},
        "kind": "symmetric", "dimension": -1, "psi": {"0,0": [[1]], "0,-1": [[-1]]}}),
    # E (x) F with a string entry, once read as the integer it spells
    "string-differential-entry": (["invariant", "--name", "beta"], {
        "ranks": {"0": 2, "1": 2}, "differentials": {"1": [["2", 0], [0, 2]]},
        "kind": "quadratic", "dimension": 1, "psi": {"0,0": [[-1, -1], [0, -1]], "0,1": [[-1, -1], [0, -1]]}}),
    # documents of the wrong JSON shape
    "list-as-form": (["invariant", "--name", "beta"], [1, 2]),
    "number-as-factors": (["invariant", "--name", "beta"], {"factors": 2, "q": {}}),
    "list-as-form-values": (["invariant", "--name", "beta"], {"factors": [2], "q": []}),
    "flat-signature-matrix": (["invariant", "--name", "signature"], [1, 2]),
    "number-as-window-dual": (["dual"], {"window": 5}),
    "number-as-window-torsor": (["torsor", "--period", "4"], {"window": 5}),
    "short-window-dual": (["dual"], {"window": [5]}),
    "list-as-groups-torsor": (["torsor", "--period", "4"], {"window": [0, 2], "groups": []}),
    # a table that is not the polynomial of its generator data: q(1) = 0 on Z/4
    "non-quadratic-table": (["invariant", "--name", "beta"],
                            {"factors": [4], "q": {"(0)": "0", "(1)": "0", "(2)": "0", "(3)": "1/2"}}),
    "form-extra-element": (["invariant", "--name", "beta"],
                           {"factors": [2], "q": {"(0)": "0", "(1)": "1/4", "(5)": "1/2"}}),
    "form-duplicate-element": (["invariant", "--name", "beta"],
                               {"factors": [2], "q": {"(0)": "0", "(1)": "1/4", "(1,)": "3/4"}}),
    # factors that are not the ascending invariant-factor chain the keys are read against:
    # a form on Z/4 + Z/2 keyed in that order, and Z/2 + Z/4 keyed as such but listing 1
    "descending-factors": (["invariant", "--name", "beta"], {
        "factors": [4, 2], "q": {f"({x},{y})": "0" for x in range(4) for y in range(2)}}),
    "unit-in-factors": (["invariant", "--name", "beta"], {
        **LinkingForm.cyclic(1, 1).direct_sum(LinkingForm.cyclic(2, 1)).to_json(),
        "factors": [1, 2, 4]}),
    # numbers that are not integers
    "float-signature": (["invariant", "--name", "signature"], [[1.5]]),
    "bool-signature": (["invariant", "--name", "signature"], [[True]]),
    "bool-arf": (["invariant", "--name", "arf"], [[True, 1], [0, 1]]),
    "float-differential-complex": (["invariant", "--name", "beta"], {
        "ranks": {"1": 1, "0": 1}, "differentials": {"1": [[4.0]]},
        "kind": "quadratic", "dimension": 1, "psi": {"0,0": [[1]], "0,1": [[1]], "1,1": [[1]]}}),
    "bool-period-dual": (["dual"], {"window": [-2, 2], "period": True, "groups": {}}),
    "float-period-torsor": (["torsor"], {"window": [0, 7], "period": 4.0, "groups": {}}),
    # integer fields that hold text, once read as the integers they spell
    "text-window-dual": (["dual"], {"window": [" 0", "\u0663"], "period": None, "groups": {"0": "Z"}}),
    "text-period-dual": (["dual"], {"window": [0, 7], "period": "4", "groups": {}}),
    "text-period-torsor": (["torsor"], {"window": [0, 7], "period": "4", "groups": {}}),
    "text-rank-complex": (["invariant", "--name", "beta"], {**_E_TENSOR_F, "ranks": {"0": "2", "1": 2}}),
    "text-dimension-complex": (["invariant", "--name", "beta"], {**_E_TENSOR_F, "dimension": "1"}),
    # a zero denominator, and a free rank whose list of generators does not fit in memory
    "zero-denominator-form": (["invariant", "--name", "beta"], {"factors": [2], "q": {"(0)": "0", "(1)": "1/0"}}),
    "huge-free-rank-dual": (["dual"], {"window": [0, 3], "groups": {"0": "Z^99999999999"}}),
    "huge-free-rank-torsor": (["torsor", "--period", "4"], {"window": [0, 3], "groups": {"0": "Z^99999999999"}}),
    # integer text other than ASCII digits with an optional leading minus, once read by int()
    "digit-degree-dual": (["dual"], {"window": [0, 3], "groups": {"\u0663": "Z"}}),
    "spaced-degree-dual": (["dual"], {"window": [0, 3], "groups": {" 0": "Z/2"}}),
    "plus-degree-dual": (["dual"], {"window": [0, 3], "groups": {"+0": "Z/2"}}),
    "spaced-order-dual": (["dual"], {"window": [0, 3], "groups": {"0": "Z/ 2"}}),
    "underscored-order-dual": (["dual"], {"window": [0, 3], "groups": {"0": "Z/1_6"}}),
    "digit-free-rank-dual": (["dual"], {"window": [0, 3], "groups": {"0": "Z^\u0662"}}),
    "spaced-rank-key-complex": (["invariant", "--name", "beta"], {**_E_TENSOR_F, "ranks": {" 0": 2, "1": 2}}),
    "digit-differential-key-complex": (["invariant", "--name", "beta"],
                                       {**_E_TENSOR_F, "differentials": {"\u0661": [[2, 0], [0, 2]]}}),
    "spaced-psi-key-complex": (["invariant", "--name", "beta"],
                               {**_E_TENSOR_F, "psi": {"0, 0": [[-1, -1], [0, -1]], "0,1": [[-1, -1], [0, -1]]}}),
    "underscored-psi-key-complex": (["invariant", "--name", "beta"],
                                    {**_E_TENSOR_F, "psi": {"0,0": [[-1, -1], [0, -1]], "0,0_1": [[-1, -1], [0, -1]]}}),
    # the hyperbolic plane on (Z/2)^2, q(x, y) = x y / 2, with the key of one element where q is 0 respelled
    **{f"{name}-form-key": (["invariant", "--name", "beta"], {"factors": [2, 2], "q": {
        **{k: v for k, v in LinkingForm.hyperbolic(1).to_json()["q"].items() if k != replaced}, key: "0"}})
       for name, key, replaced in (("spaced", "( 0,1)", "(0,1)"), ("digit", "(\u0660,1)", "(0,1)"),
                                   ("plus", "(+1,0)", "(1,0)"), ("underscored", "(1_0,0)", "(1,0)"))},
    # a reversed window, a matrix that is not symmetric, and one that is not upper triangular mod 2
    "reversed-window-dual": (["dual"], {"window": [3, 1], "groups": {}}),
    "asymmetric-signature": (["invariant", "--name", "signature"], [[1, 2], [3, 4]]),
    "lower-triangular-arf": (["invariant", "--name", "arf"], [[0, 0], [1, 0]]),
    # a complex whose extracted linking form is degenerate: Z/2 with q = 0
    "degenerate-extraction-complex": (["invariant", "--name", "beta"], {
        "ranks": {"1": 1, "0": 1}, "differentials": {"1": [[2]]}, "kind": "quadratic", "dimension": 1, "psi": {}}),
    # a negative rank or order in a group string, once read as the trivial group or as its size
    "negative-rank-group": (["dual"], {"window": [0, 1], "period": None, "groups": {"0": "Z^-1", "1": "Z"}}),
    "negative-rank-beside-torsion": (["dual"], {"window": [0, 1], "period": None,
                                                "groups": {"0": "Z^-3 + Z/2", "1": "Z"}}),
    "negative-order-group": (["dual"], {"window": [0, 1], "period": None, "groups": {"0": "Z/-2", "1": "Z"}}),
    # a negative rank in a complex, once dropped
    "negative-rank-complex": (["invariant", "--name", "beta"], {
        "ranks": {"1": 1, "0": 1, "5": -3}, "differentials": {"1": [[2]]}, "kind": "quadratic", "dimension": 1,
        "psi": {"1,1": [[1]]}}),
}


class TestIncompleteFormTable:
    """A form table without some element's value is refused by that element's name."""

    @pytest.mark.parametrize("q,message", [
        ({"(0,0)": "0"}, "table holds 1 values for 4 elements"),
        # the right size, with (1,1) keyed as (2,1)
        ({"(0,0)": "0", "(1,0)": "1/4", "(0,1)": "1/4", "(2,1)": "1/2"},
         "table has no value for the element (1, 1)"),
    ], ids=["generators-missing", "stray-key"])
    def test_exits_two_with_its_own_message(self, q, message, tmp_path, capsys):
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"factors": [2, 2], "q": q}))
        code = main(["invariant", "--name", "beta", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}: ValueError: {message}\n"
        assert "KeyError" not in captured.err


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_two_with_one_line(self, case, tmp_path, capsys):
        argv, doc = MALFORMED_INPUTS[case]
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code = main(argv + ["--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        if case in ("descending-factors", "unit-in-factors"):
            assert "factors" in captured.err
        if case == "string-differential-entry":
            assert captured.err == f"error: {path}: TypeError: 'str' object cannot be interpreted as an integer\n"
        if case.startswith("text-"):
            assert captured.err == f"error: {path}: TypeError: 'str' object cannot be interpreted as an integer\n"
        if case.endswith("-form-key"):
            assert captured.err.startswith(f"error: {path}: ValueError: invalid literal for int() with base 10: ")

    @pytest.mark.parametrize("argv,line", [
        (["table", "--name", "Ls", "--window", "\u0660..\u0663"], "window must look like a..b, got '\u0660..\u0663'"),
        (["table", "--name", "Ls", "--window", "0..2\n"], "window must look like a..b, got '0..2\\n'"),
        (["verify", "A", "--window", " -4..4"], "window must look like a..b, got ' -4..4'"),
        (["dual", "--name", "Ls", "--window", "+0..4"], "window must look like a..b, got '+0..4'"),
        (["torsor", "--name", "Ls", "--period", "\u0664"], "argument --period: invalid int value: '\u0664'"),
        (["torsor", "--name", "Ls", "--period", "4_0"], "argument --period: invalid int value: '4_0'"),
        (["torsor", "--name", "Ls", "--period", " 4"], "argument --period: invalid int value: ' 4'"),
    ], ids=["digit-window", "newline-window", "spaced-window", "plus-window", "digit-period", "underscored-period",
            "spaced-period"])
    def test_integer_text_of_an_option_is_ascii_digits(self, argv, line, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"

    def test_nesting_deeper_than_the_json_parser_goes(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["dual", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: RecursionError: ") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("extra", [[], ["--input", "."]])
    def test_missing_or_unreadable_input(self, extra, capsys):
        code = main(["invariant", "--name", "beta"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1



def _complex(ranks, psi=None):
    """A quadratic complex document of dimension 1 with no differentials."""
    return {"ranks": ranks, "differentials": {}, "kind": "quadratic", "dimension": 1, "psi": psi or {}}


def _dense_upper_triangular(n, seed):
    """A random n x n 0/1 matrix, zero below the diagonal: an F2 quadratic form of dimension n."""
    rng = random.Random(seed)
    return [[rng.randint(0, 1) if j >= i else 0 for j in range(n)] for i in range(n)]


def _with_input(argv, doc, tmp_path):
    """argv, reading ``doc`` as its --input file unless it is None."""
    if doc is None:
        return argv
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return argv + ["--input", str(path)]


class TestSizeBounds:
    """Each size bound is checked before any work starts, so an input past it exits 2 at once."""

    # each of these ran past 8 s, or raised MemoryError, before the bounds
    PAST_THE_BOUNDS = {
        "wide-table-dual": (["dual"], {"window": [0, 100000000], "groups": {}}),
        "wide-table-torsor": (["torsor", "--period", "4"], {"window": [0, 100000000], "groups": {}}),
        "long-period": (["torsor", "--name", "Ls", "--window", "0..7", "--period", "100000000"], None),
        "far-window": (["verify", "B", "--window", "100000..100004"], None),
        "wide-window": (["table", "--name", "Lgs", "--window", "0..3000000"], None),
        "large-rank": (["invariant", "--name", "beta"], _complex({"0": 30000, "1": 1})),
        "wide-span": (["invariant", "--name", "beta"], _complex({"0": 1, "1000000000": 1})),
        "dense-arf": (["invariant", "--name", "arf"], _dense_upper_triangular(400, seed=400)),
    }

    def test_dense_arf_is_refused_before_its_linking_form(self, tmp_path, monkeypatch, capsys):
        # q/2 of a dense form of dimension 1000 has about 250 000 pairs, 3.5 s to build and then refuse
        def built(form):
            raise AssertionError("the linking form was built")

        monkeypatch.setattr(F2QuadForm, "linking_form", built)
        argv = _with_input(["invariant", "--name", "arf"], _dense_upper_triangular(1000, seed=1000), tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: {argv[-1]}: EnumerationBoundError: "
                                           "group order exceeds the desk-scale bound\n")

    @pytest.mark.parametrize("case", sorted(PAST_THE_BOUNDS))
    def test_exits_two_at_once(self, case, tmp_path):
        code, out, err = run_cli(_with_input(*self.PAST_THE_BOUNDS[case], tmp_path), timeout=5)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    # (argv, --input document) at each bound, and just past it
    AT_AND_PAST = {
        "window-width": ((["table", "--name", "Ls", "--window", "-500..500"], None),
                         (["table", "--name", "Ls", "--window", "-500..501"], None)),
        "window-top": ((["table", "--name", "Ls", "--window", "2000..2048"], None),
                       (["table", "--name", "Ls", "--window", "2000..2049"], None)),
        "window-bottom": ((["verify", "B", "--window", "-2048..-2044"], None),
                          (["verify", "B", "--window", "-2049..-2044"], None)),
        "document-window-width": ((["dual"], {"window": [0, 1000], "groups": {}}),
                                  (["dual"], {"window": [0, 1001], "groups": {}})),
        "document-window-end": ((["dual"], {"window": [-2048, -2040], "groups": {}}),
                                (["dual"], {"window": [-2049, -2040], "groups": {}})),
        "period": ((["torsor", "--name", "Ls", "--window", "0..7", "--period", "1000"], None),
                   (["torsor", "--name", "Ls", "--window", "0..7", "--period", "1001"], None)),
        "free-rank": ((["dual"], {"window": [0, 3], "groups": {"0": "Z^16"}}),
                      (["dual"], {"window": [0, 3], "groups": {"0": "Z^17"}})),
        "summands": ((["dual"], {"window": [0, 3], "groups": {"0": " + ".join(["Z"] + ["Z/2"] * 15)}}),
                     (["dual"], {"window": [0, 3], "groups": {"0": " + ".join(["Z"] + ["Z/2"] * 16)}})),
        "total-rank": ((["invariant", "--name", "beta"], _complex({"5": 64, "6": 64})),
                       (["invariant", "--name", "beta"], _complex({"5": 64, "6": 65}))),
        "degree-span": ((["invariant", "--name", "beta"], _complex({"5": 1, "1005": 1})),
                        (["invariant", "--name", "beta"], _complex({"5": 1, "1006": 1}))),
        "structure-level": ((["invariant", "--name", "beta"], _complex({"5": 1}, {"1000,0": []})),
                            (["invariant", "--name", "beta"], _complex({"5": 1}, {"1001,0": []}))),
        "gram-dimension": ((["invariant", "--name", "signature"], IntMatrix.identity(64).tolist()),
                           (["invariant", "--name", "signature"], IntMatrix.identity(65).tolist())),
    }

    @pytest.mark.parametrize("case", sorted(AT_AND_PAST))
    def test_accepted_at_the_bound_and_refused_past_it(self, case, tmp_path, capsys):
        at, past = self.AT_AND_PAST[case]
        assert main(_with_input(*at, tmp_path)) == 0
        assert capsys.readouterr().err == ""
        assert main(_with_input(*past, tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert "exceed" in captured.err

    def test_canonical_summands(self, tmp_path, capsys):
        assert FgAbGroup.from_divisors([0] * MAX_SUMMANDS) == FgAbGroup.free(MAX_SUMMANDS)
        with pytest.raises(ValueError, match="exceed the bound"):
            FgAbGroup.from_divisors([0] * (MAX_SUMMANDS + 1))
        # Ext of two (Z/2)^16 has 256 summands: 17 degrees of them are refused, not canonicalised
        doc = {"window": [0, 33], "groups": {str(n): " + ".join(["Z/2"] * 16) for n in range(34)}}
        assert main(_with_input(["torsor", "--period", "17"], doc, tmp_path)) == 2
        assert capsys.readouterr().err.endswith(f"ValueError: 4352 cyclic summands exceed the bound {MAX_SUMMANDS}\n")


class TestFuzz:
    """Generated command lines and documents: no traceback, and exit 2 with one line when refused.

    Exit 1 comes only from a verification that fails.  Each example runs in
    process under a deadline; windows are narrow enough to run fast or past
    the width bound, and ``TestSizeBounds`` runs the widest accepted ones.
    """

    # the options each verb reads besides --format: those it always gets here, then those it may get
    OPTIONS = {"table": (("--name",), ("--window",)), "dual": ((), ("--name", "--window", "--input")),
               "invariant": (("--name", "--input"), ()), "certify-ef": ((), ()), "verify": ((), ("--window",)),
               "torsor": (("--name",), ("--window", "--input", "--period"))}

    @staticmethod
    def _strategies(st, path, directory):
        """Command lines, and documents by the loader they are meant for; --input names ``path`` mostly."""
        ints, junk, small = st.integers(), st.text(max_size=6), st.integers(-3, 9)

        def usually(strategy, other):
            """A value of ``strategy``, or now and then one of ``other``."""
            return st.sampled_from([strategy] * 4 + [other]).flatmap(lambda s: s)

        def mostly(*choices):
            """One of ``choices``, or now and then any short text."""
            return usually(st.sampled_from(choices), junk)

        values = {
            "--name": mostly(*TABLE_NAMES, "signature", "arf", "beta"),
            # narrow enough to run fast, or past the width bound, anywhere in the int range
            "--window": st.builds(lambda lo, w: f"{lo}..{lo + w}", ints,
                                  st.integers(-2, 16) | st.integers(min_value=MAX_WIDTH + 1)) | junk,
            "--input": st.sampled_from([path] * 8 + [directory, "/nonexistent.json"]),
            "--format": mostly("json", "tsv", "json", "tsv"),
            "--period": ints.map(str) | junk,
        }

        def command(verb):
            given, maybe = TestFuzz.OPTIONS.get(verb, TestFuzz.OPTIONS["torsor"])
            opts = st.fixed_dictionaries({f: values[f] for f in given},
                                         optional={f: values[f] for f in maybe + ("--format",)})
            suite = mostly("A", "B", "presentations").map(lambda s: [s]) if verb == "verify" else st.just([])
            return st.builds(lambda suite, opts, extra: [verb] + suite + [t for o in opts.items() for t in o] + extra,
                             suite, opts, mostly(*[""] * 4).map(lambda t: [t] if t else []))

        matrices = st.lists(st.lists(small, max_size=3), max_size=3)
        group = st.lists(mostly("Z", "0", "Z/2", "Z/4", "Z/3", "Z^2", "Z^99999999999", "Z/0", "Z/-2"),
                         min_size=1, max_size=3).map(" + ".join)
        tables = st.fixed_dictionaries(
            {"window": st.tuples(small, small).map(sorted) | st.lists(ints, max_size=3),
             "groups": st.dictionaries(small.map(str), group, max_size=4)},
            optional={"period": ints | small | st.none()})
        forms = st.fixed_dictionaries({
            "factors": st.sampled_from([[], [2], [4], [2, 2], [2, 4], [3]]) | st.lists(ints, max_size=3),
            "q": st.dictionaries(st.lists(small, max_size=3).map(lambda v: f"({','.join(map(str, v))})"),
                                 usually(st.builds(lambda a, b: f"{a}/{b}", small, small), junk), max_size=8)})
        complexes = st.fixed_dictionaries({
            "ranks": st.dictionaries((small | ints).map(str), small | ints, max_size=3),
            "differentials": st.dictionaries(small.map(str), matrices, max_size=2),
            "kind": mostly("quadratic", "symmetric"),
            "dimension": small | ints,
            "psi": st.dictionaries(st.builds(lambda lv, k: f"{lv},{k}", small | ints, small), matrices, max_size=3)})
        anything = st.recursive(st.none() | st.booleans() | ints | st.floats() | junk,
                                lambda c: st.lists(c, max_size=3) | st.dictionaries(junk, c, max_size=3),
                                max_leaves=8)
        documents = {kind: usually(docs, anything) for kind, docs in
                     (("table", tables), ("beta", forms | complexes), ("matrix", matrices))}
        return mostly(*TestFuzz.OPTIONS).flatmap(command), documents

    def _check(self, hypothesis, cases, path, examples):
        """Run main on each drawn (argv, document) pair and check the contract."""
        @hypothesis.settings(derandomize=True, max_examples=examples, deadline=timedelta(seconds=5),
                             database=None, suppress_health_check=list(hypothesis.HealthCheck))
        @hypothesis.given(case=cases)
        def contract(case):
            argv, doc = case
            with open(path, "w") as fh:
                json.dump(doc, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2) and (code != 1 or argv[0] in ("verify", "certify-ef")), argv
            assert "Traceback" not in err.getvalue()
            assert lines == [] if code != 2 else len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)

        contract()

    def test_every_verb_and_option(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = str(tmp_path / "input.json")
        argvs, documents = self._strategies(st, path, str(tmp_path))
        self._check(hypothesis, st.tuples(argvs, st.one_of(*documents.values())), path, examples=120)

    def test_every_loader(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = str(tmp_path / "input.json")
        _, documents = self._strategies(st, path, str(tmp_path))
        loaders = [(["dual"], "table"), (["torsor"], "table"), (["torsor", "--period", "4"], "table"),
                   (["invariant", "--name", "beta"], "beta"), (["invariant", "--name", "beta"], "beta"),
                   (["invariant", "--name", "signature"], "matrix"), (["invariant", "--name", "arf"], "matrix")]
        cases = st.sampled_from(loaders).flatmap(
            lambda loader: st.tuples(st.just(loader[0] + ["--input", path]), documents[loader[1]]))
        self._check(hypothesis, cases, path, examples=200)


class TestStandardLibraryOnly:
    def test_the_checks_pass_without_site_packages(self):
        # tests/stdlib_checks.py, which CI runs under -S: every verb, each in a fresh interpreter
        script = Path(__file__).resolve().parent / "stdlib_checks.py"
        done = subprocess.run([sys.executable, "-S", str(script)], capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.endswith(" passed, 0 failed\n") and done.stderr == ""
