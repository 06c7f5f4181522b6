"""The per-layer tracer of ``perfbench/layers.py`` still fits the program.

The tracer wraps the public functions of every layer and a few methods,
looked up by name, and reads ``len(args[1])`` from ``RingPresentation.reduce``.
A renamed method or a changed signature makes a traced benchmark run fail
without failing any other test, so one small op of each traced verb runs here
under the tracer, in a fresh interpreter as the benchmark runs it.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

from helpers import hidden_e_tensor_f_plus_h, skew_unit

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, importlib.util, io, json, sys
sys.path.insert(0, sys.argv[1] + "/src")
spec = importlib.util.spec_from_file_location("layers", sys.argv[1] + "/perfbench/layers.py")
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
tracer = layers.Tracer()
tracer.install()
from lspectra import cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "summary": tracer.summary()}))
"""


def _traced(ops):
    """(exit codes, tracer summary) of the CLI ops run under the tracer."""
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), json.dumps(ops)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    return result["codes"], result["summary"]


def test_traced_ops_of_every_verb_run(tmp_path):
    form = tmp_path / "form.json"
    form.write_text(json.dumps(skew_unit(2).to_json()))
    ops = [["verify", "presentations", "--window", "-16..16"], ["verify", "B", "--window", "-12..12"],
           ["certify-ef"], ["invariant", "--name", "beta", "--input", str(form)],
           ["verify", "A", "--window", "-12..12"], ["table", "--name", "Lgs", "--window", "-40..39"],
           ["dual", "--name", "Ln", "--window", "-16..15"],
           ["torsor", "--name", "Lgs", "--window", "-40..39", "--period", "4"]]
    codes, summary = _traced(ops)
    assert codes == [0] * len(ops)
    assert summary["ltables.reduce.calls"] > 0
    assert summary["ltables.reduce.terms_in"] > 0
    assert summary["abelian.groups.calls"] > 0
    assert summary["abelian.fgab.created"] > 0


def test_traced_beta_of_a_hidden_structured_complex(tmp_path):
    # the Smith forms of its linking-form extraction, read through the tracer
    doc = tmp_path / "hidden.json"
    doc.write_text(json.dumps(hidden_e_tensor_f_plus_h(random.Random(1)).to_json()))
    codes, summary = _traced([["invariant", "--name", "beta", "--input", str(doc)]])
    assert codes == [0]
    assert summary["abelian.snf.calls"] > 0
    assert summary["abelian.snf.max_bits"] < 1000
