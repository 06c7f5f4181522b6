"""Command-line front end: tables, duals, invariants, verification suites.

Exit codes: 0 on success or all-pass, 1 on a verification failure, 2 on a
usage error.  Output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .abelian import IntMatrix
from .forms import F2QuadForm, LinkingForm, SymForm, arf, brown_kervaire, signature
from .graded import GradedGroup, anderson_dual, torsor_count
from .ltables import (
    TABLE_NAMES,
    table,
    verify_presentations_report,
    verify_classical,
    verify_genuine,
)
from .poincare import certify_ef, representative

_WINDOW_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")


class UsageError(Exception):
    pass


def parse_window(text: str):
    m = _WINDOW_RE.match(text)
    if not m:
        raise UsageError(f"window must look like a..b, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise UsageError(f"window start exceeds end in {text!r}")
    return (a, b)


def _emit_table(tab: GradedGroup, fmt: str, out):
    if fmt == "json":
        json.dump(tab.to_json(), out, indent=2)
        out.write("\n")
    else:
        for n in tab.degrees():
            out.write(f"{n}\t{tab[n].render()}\n")


def _emit_report(report, fmt: str, out) -> bool:
    ok = all(item.passed for item in report)
    if fmt == "json":
        json.dump([item.to_json() for item in report], out, indent=2)
        out.write("\n")
    else:
        for item in report:
            status = "PASS" if item.passed else "FAIL"
            out.write(f"{item.name}\t{status}\t{item.detail}\n")
    return ok


def _load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_table(args, out):
    window = parse_window(args.window)
    if args.name not in TABLE_NAMES:
        raise UsageError(f"unknown table {args.name!r}; choose from {', '.join(TABLE_NAMES)}")
    _emit_table(table(args.name, window), args.format, out)
    return 0


def cmd_dual(args, out):
    if args.input:
        tab = GradedGroup.from_json(_load_json_file(args.input))
    elif args.name:
        if args.name not in TABLE_NAMES:
            raise UsageError(f"unknown table {args.name!r}")
        window = parse_window(args.window)
        tab = table(args.name, window)
    else:
        raise UsageError("dual needs --name or --input")
    _emit_table(anderson_dual(tab), args.format, out)
    return 0


def cmd_invariant(args, out):
    doc = _load_json_file(args.input)
    if args.name == "signature":
        value = signature(SymForm(IntMatrix(doc)))
    elif args.name == "arf":
        value = arf(F2QuadForm(IntMatrix(doc)))
    elif args.name == "beta":
        if isinstance(doc, dict) and "kind" in doc:
            # a structured-complex file: extract its linking form first
            from .poincare import StructuredComplex, linking_form

            value = brown_kervaire(linking_form(StructuredComplex.from_json(doc)))
        else:
            value = brown_kervaire(LinkingForm.from_json(doc))
    else:
        raise UsageError(f"unknown invariant {args.name!r}; choose signature, arf or beta")
    if args.format == "json":
        json.dump({"invariant": args.name, "value": value}, out)
        out.write("\n")
    else:
        out.write(f"{args.name}\t{value}\n")
    return 0


def cmd_certify_ef(args, out):
    beta = certify_ef(representative("E"), representative("F"))
    if args.format == "json":
        json.dump({"beta": beta}, out)
        out.write("\n")
    else:
        out.write(f"beta = {beta}\n")
    return 0 if beta == 4 else 1


def cmd_verify(args, out):
    if args.suite == "A":
        window = parse_window(args.window or "-12..12")
        report = verify_classical(window)
    elif args.suite == "B":
        window = parse_window(args.window or "-16..16")
        report = verify_genuine(window)
    elif args.suite == "presentations":
        window = parse_window(args.window or "-16..16")
        report = verify_presentations_report(window)
    else:
        raise UsageError(f"unknown suite {args.suite!r}; choose A, B or presentations")
    return 0 if _emit_report(report, args.format, out) else 1


def cmd_torsor(args, out):
    window = parse_window(args.window)
    if args.input:
        tab = GradedGroup.from_json(_load_json_file(args.input))
    else:
        if args.name not in TABLE_NAMES:
            raise UsageError(f"unknown table {args.name!r}")
        tab = table(args.name, window)
    period = args.period or tab.period
    if not period:
        raise UsageError("table declares no period; pass --period")
    try:
        group = torsor_count(tab, period)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        json.dump({"torsor": group.render()}, out)
        out.write("\n")
    else:
        out.write(f"{group.render()}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lspectra", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, window_default=None):
        sp.add_argument("--window", default=window_default)
        sp.add_argument("--format", choices=("json", "tsv"), default="json")
        sp.add_argument("--name")
        sp.add_argument("--input")

    sp = sub.add_parser("table", help="print a homotopy-group table")
    common(sp, "-16..16")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("dual", help="Anderson dual of a table")
    common(sp, "-16..16")
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("invariant", help="signature, arf or beta of a form file")
    common(sp)
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("certify-ef", help="run the chain-level ef = 4 certificate")
    common(sp)
    sp.set_defaults(func=cmd_certify_ef, format="tsv")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=("A", "B", "presentations"))
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("torsor", help="splitting-torsor count of a table")
    common(sp, "-16..16")
    sp.add_argument("--period", type=int)
    sp.set_defaults(func=cmd_torsor)

    return p


def _glue_window(argv):
    """Join '--window -4..4' into '--window=-4..4' so argparse accepts it."""
    out = []
    it = iter(argv)
    for a in it:
        if a == "--window":
            try:
                out.append(f"--window={next(it)}")
            except StopIteration:
                out.append(a)
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _glue_window(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
