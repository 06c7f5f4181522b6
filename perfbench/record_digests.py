"""Records perfbench/digests.json, the reference stdout of every op a workload can draw.

    python3 perfbench/record_digests.py

Run it from the root of a checkout of the commit whose output is the
reference; the benchmark then fails any op whose stdout differs.  Verify
reports do not depend on the window, so one digest per suite is kept, after
checking that a spread of windows up to the largest each workload draws all
print the same all-PASS report.  Invariant ops are keyed by the value
printed, table ops by their window cell.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import workloads as wl  # noqa: E402
from run import WORK, digest  # noqa: E402

# A form with each Brown-Kervaire value 0..7.
BETA_FORMS = {
    0: [("hyperbolic", 1)],
    1: [("cyclic", 1, 1)],
    2: [("cyclic", 1, 1), ("cyclic", 1, 1)],
    3: [("cyclic", 2, 3)],
    4: [("skew", 1)],
    5: [("cyclic", 2, 5)],
    6: [("cyclic", 1, 7), ("cyclic", 1, 7)],
    7: [("cyclic", 1, 7)],
}


def cli_stdout(argv):
    from lspectra.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def verify_digest(suite, levels, jitter):
    seen = set()
    for level in levels:
        for w in (level, level + jitter - 1):
            text = cli_stdout(wl.verify_op(suite, (-w, w))["argv"])
            if not all(item["passed"] for item in json.loads(text)):
                raise SystemExit(f"verify {suite} fails at level {level}")
            seen.add(digest(text))
    if len(seen) != 1:
        raise SystemExit(f"verify {suite} output depends on the window")
    return seen.pop()


def main():
    ops = {
        "verify A": verify_digest("A", wl.SUITE_LEVELS, wl.SUITE_JITTER),
        "verify B": verify_digest("B", wl.SUITE_LEVELS, wl.SUITE_JITTER),
        "verify presentations": verify_digest("presentations", wl.PRESENTATION_LEVELS,
                                              wl.PRESENTATION_JITTER),
        "certify-ef": digest(cli_stdout(["certify-ef"])),
    }
    WORK.mkdir(exist_ok=True)
    path = WORK / "record-form.json"
    for beta, pieces in BETA_FORMS.items():
        doc, expected = gen.checked_form(pieces)
        if expected != beta:
            raise SystemExit(f"{pieces} has beta {expected}, not {beta}")
        path.write_text(json.dumps(doc))
        text = cli_stdout(["invariant", "--name", "beta", "--input", str(path)])
        if json.loads(text)["value"] != beta:
            raise SystemExit(f"the program gives {text.strip()} for a form with beta {beta}")
        ops[f"beta {beta}"] = digest(text)
    cells = {}
    for verb in wl.TABLE_VERBS:
        for name in wl.TABLE_NAMES:
            ops_ = [wl.table_op(verb, name, cell) for cell in range(wl.TABLE_CELLS)]
            cells[ops_[0]["key"]] = "".join(digest(cli_stdout(op["argv"])) for op in ops_)
    doc = {"digest": "sha256 of stdout, first 12 hex digits", "ops": ops, "cells": cells}
    (BENCH / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
