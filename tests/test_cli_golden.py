"""Golden CLI bytes: the sha256 of stdout and the exit code of fixed commands.

Every verb's default output is part of the program's contract, so a change
that is meant to leave the output alone must leave these digests alone.
After an intended output change, rewrite ``cli_golden.json`` with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from lspectra.cli import main
from lspectra.poincare import representative, tensor_structured

from helpers import hidden_e_tensor_f_plus_h, skew_unit

GOLDEN = Path(__file__).with_name("cli_golden.json")
TABLES = ("Ls", "Lq", "Ln", "Lgs", "Lgq", "LR", "lR", "LC", "LCc", "dR", "scriptL", "KO")


def input_documents():
    """The --input files, by the placeholder that stands for their path."""
    ef = tensor_structured(representative("E"), representative("F"))
    hidden = hidden_e_tensor_f_plus_h(random.Random(5))
    return {"@skew_unit_2": skew_unit(2).to_json(), "@e_tensor_f": ef.to_json(),
            "@hidden_e_tensor_f_plus_h": hidden.to_json()}


def commands():
    out = []
    for fmt in ("json", "tsv"):
        out += [["verify", suite, "--format", fmt] for suite in ("A", "B", "presentations")]
        out += [["verify", suite, "--window", "-60..60", "--format", fmt] for suite in ("A", "B")]
        out.append(["verify", "B", "--window", "-5..30", "--format", fmt])
        out += [["verify", suite, "--window", window, "--format", fmt]
                for suite in ("A", "B") for window in ("0..3", "5..6", "-40..-30", "-2..200")]
        out += [["verify", "presentations", "--window", window, "--format", fmt]
                for window in ("-200..-196", "-2000..-1996")]
        # the windows at which the report bytes must match the default ones; the far ends are the widest
        out += [["verify", suite, "--window", window, "--format", fmt]
                for suite in ("A", "B") for window in ("-139..139", "-2048..-1049", "1049..2048")]
        out.append(["verify", "presentations", "--window", "-139..139", "--format", fmt])
        out += [[verb, "--name", name, "--format", fmt]
                for verb in ("table", "dual", "torsor") for name in TABLES]
        out.append(["certify-ef", "--format", fmt])
        out += [["invariant", "--name", "beta", "--input", doc, "--format", fmt]
                for doc in input_documents()]
    return out


def run_all(directory):
    """{command line: {"sha256", "exit"}} with each placeholder bound to a file."""
    paths = {}
    for name, doc in input_documents().items():
        paths[name] = Path(directory) / f"{name[1:]}.json"
        paths[name].write_text(json.dumps(doc))
    results = {}
    for argv in commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(paths.get(a, a)) for a in argv])
        digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
        results[" ".join(argv)] = {"sha256": digest, "exit": code}
    return results


def test_cli_bytes_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    results = run_all(tmp_path)
    assert sorted(results) == sorted(golden)
    changed = [cmd for cmd in golden if results[cmd] != golden[cmd]]
    assert not changed, changed


if __name__ == "__main__":  # pragma: no cover
    import tempfile

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_cli_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_all(tmp), indent=1, sort_keys=True) + "\n")
