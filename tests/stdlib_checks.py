"""End-to-end checks that the package runs on the standard library alone.

    python -S tests/stdlib_checks.py          # every check, each in a fresh interpreter
    python -S tests/stdlib_checks.py NAME     # one check, in this interpreter

``src/`` declares ``dependencies = []``; under ``-S`` site-packages are off
``sys.path``, so a stray import fails here.  Each check is a fresh
interpreter, as a CLI user runs each verb, so no check shares a
presentation memo or a peak RSS with another, except where one says it
runs several verbs in one interpreter.  This module imports only ``os``
and ``sys`` at its top, so ``import-set`` sees what ``lspectra.cli`` loads.
The run prints each failing check and exits 1 if any fails.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# modules no verb runs, which an import of lspectra.cli must not load (each costs start-up time)
NOT_LOADED = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib", "pkgutil")

# verbs that must exit 0; their output is not read
RUNS = [
    ["certify-ef"],
    ["verify", "A"],
    ["verify", "B", "--window", "2044..2048"],
    # the widest far windows, where every power of x is a normal form of its own; verify B's lower one
    # multiplies L^gs's family members y_262..y_512 by x
    ["verify", "A", "--window", "-2048..-1049"],
    ["verify", "B", "--window", "-2048..-1049"],
    ["verify", "B", "--window", "1049..2048"],
    ["verify", "presentations", "--window", "-75..75"],
    # the bases read off the presentations at the far end: L^gs's y_500..y_512 and z_499..z_511, and scriptL's y
    ["verify", "presentations", "--window", "-2048..-2000"],
    ["table", "--name", "Lgs", "--window", "-376..375"],
    ["dual", "--name", "scriptL", "--format", "tsv"],
    ["--help"],
]

CHECKS = {}


def check(fn):
    CHECKS[fn.__name__.replace("_", "-")] = fn
    return fn


def captured(argv):
    """(exit code, stdout) of ``main(argv)``."""
    import contextlib
    import io

    from lspectra.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@check
def import_set():
    import lspectra.cli  # noqa: F401

    loaded = [name for name in NOT_LOADED if name in sys.modules]
    return not loaded or f"import lspectra.cli loads {', '.join(loaded)}"


@check
def presentations_peak_rss():
    # the slowest accepted input (README bounds table): a rewriter that regresses or hangs on it fails here,
    # and so does a peak RSS above 190 000 KB (the relations are streamed; listed first they peak near 217 000)
    import resource

    code, _ = captured(["verify", "presentations", "--window", "-2048..-1048"])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return code == 0 and peak <= 190000 or f"exit {code}, peak RSS {peak} KB"


@check
def presentations_shared():
    # one interpreter, so the presentations are shared: every run exits 0 and the two -40..40 outputs match
    runs = [captured(["verify", "presentations", "--window", w]) for w in ("-40..40", "-75..75", "-40..40")]
    return [code for code, _ in runs] == [0, 0, 0] and runs[0][1] == runs[2][1]


@check
def suites_name_no_degree():
    # one interpreter: verify A and B at four windows each exit 0 and print the same report, which names no
    # degree, in JSON and in TSV, the format that prints each row's detail
    windows = ([], ["--window", "-139..139"], ["--window", "-2048..-1049"], ["--window", "1049..2048"])
    for suite in "AB":
        for fmt in ("json", "tsv"):
            runs = [captured(["verify", suite, "--format", fmt] + w) for w in windows]
            if any(code or out != runs[0][1] for code, out in runs):
                return f"verify {suite} --format {fmt}"
    return True


@check
def tables_as_json_lays_them_out():
    # a table or a dual is laid out without json's indent encoder, byte for byte as json.dumps(..., indent=2)
    import json

    from lspectra.graded import anderson_dual
    from lspectra.ltables import table

    for argv, tab in ((["table", "--name", "Lgs", "--window", "-2048..-1048"], table("Lgs", (-2048, -1048))),
                      (["dual", "--name", "Ls", "--window", "1048..2048"], anderson_dual(table("Ls", (1048, 2048))))):
        if captured(argv) != (0, json.dumps(tab.to_json(), indent=2) + "\n"):
            return " ".join(argv)
    return True


@check
def verb_help():
    # a leading verb is parsed by its parser alone, which argparse must name 'lspectra dual' as it names the subparser
    import contextlib
    import io

    from lspectra.cli import build_parser

    code, ours = captured(["dual", "-h"])
    oracle = io.StringIO()
    with contextlib.redirect_stdout(oracle), contextlib.suppress(SystemExit):
        build_parser().parse_args(["dual", "-h"])
    return code == 0 and oracle.getvalue().startswith("usage: lspectra dual") and ours == oracle.getvalue()


@check
def input_files():
    # one interpreter, files read by --input: a finite table (GradedGroup.from_json, the finite branch of
    # derive_table), whose dual and torsor exit 0; E tensor F as a structured complex; the largest form file
    # beta reads, 2^12 elements (six hyperbolic planes), then with one key respelled (00,...)
    import functools
    import json
    import tempfile

    from lspectra.forms import LinkingForm
    from lspectra.poincare import representative, tensor_structured

    with tempfile.TemporaryDirectory() as tmp:
        def written(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return path

        finite = written("finite.json", {"window": [0, 7], "groups": {"0": "Z", "1": "Z/2", "2": "Z/2", "4": "Z"}})
        ef = written("ef.json", tensor_structured(representative("E"), representative("F")).to_json())
        planes = functools.reduce(LinkingForm.direct_sum, [LinkingForm.hyperbolic(1)] * 6).to_json()
        key = "(" + ",".join(["0"] * 12) + ")"
        respelled = json.loads(json.dumps(planes))
        respelled["q"]["(0" + key[1:]] = respelled["q"].pop(key)
        argvs = [["dual", "--input", finite, "--format", "tsv"], ["torsor", "--input", finite, "--period", "4"],
                 ["invariant", "--name", "beta", "--input", ef],
                 ["invariant", "--name", "beta", "--input", written("planes.json", planes)],
                 ["invariant", "--name", "beta", "--input", written("respelled.json", respelled)]]
        failed = [" ".join(argv[:2]) for argv in argvs if captured(argv)[0]]
    return not failed or ", ".join(failed)


@check
def hyperbolic_f_fails():
    # F's Arf-0 refinement patched in: ef = 0 is read off the chain-level certificate, not typed, so verify A's
    # kernel argument and certify-ef each exit 1
    import lspectra.cli
    from lspectra import poincare

    genuine = poincare.representative
    poincare.representative = lspectra.cli.representative = lambda n: genuine("hyperbolic" if n == "F" else n)
    codes = [captured(["verify", "A"])[0], captured(["certify-ef"])[0]]
    return codes == [1, 1] or f"exit codes {codes}"


@check
def wrong_ring_fails_its_row():
    # L^gs with y1 y3 -> 4 y4 placed before the schemata, built as the ring every verb reads: the relations of
    # the default window see the two rules disagree on y1 y3, so verify presentations fails that row alone
    from lspectra import ltables

    genuine = ltables._build_presentation

    def build(name):
        pres = genuine(name)
        if name != "Lgs":
            return pres
        rule = (ltables.mono(("y1", 1), ("y3", 1)), 4, ltables.mono(("y4", 1)))
        return ltables.RingPresentation(name, pres.generators, (rule,) + pres.rewrites, pres.torsion_patterns)

    ltables._build_presentation = build
    code, out = captured(["verify", "presentations", "--format", "tsv"])
    failed = [line.split("\t")[0] for line in out.splitlines() if "\tFAIL\t" in line]
    return (code, failed) == (1, ["presentation-Lgs"]) or f"exit {code}, failing {failed}"


def run_one(name):
    """The exit status of check ``name`` (or of the verb it names) in this interpreter."""
    sys.path.insert(0, SRC)
    verbs = {" ".join(argv): argv for argv in RUNS}
    verdict = captured(verbs[name])[0] == 0 if name in verbs else CHECKS[name]()
    if verdict is not True:
        print(f"{name}: FAIL{'' if verdict is False else f' ({verdict})'}")
        return 1
    return 0


def run_all():
    import subprocess

    failed = 0
    for name in [" ".join(argv) for argv in RUNS] + list(CHECKS):
        done = subprocess.run([sys.executable, "-S", os.path.abspath(__file__), name],
                              capture_output=True, text=True)
        if done.returncode:
            failed += 1
            print(done.stdout + done.stderr or f"{name}: exit {done.returncode}", end="")
    print(f"{len(RUNS) + len(CHECKS) - failed} passed, {failed} failed")
    return int(failed > 0)


if __name__ == "__main__":
    raise SystemExit(run_one(sys.argv[1]) if len(sys.argv) > 1 else run_all())
