"""Command-line front end: tables, duals, invariants, verification suites.

Exit codes: 0 on success or all-pass, 1 on a verification failure, 2 on a
rejected input, reported by ``main`` as one ``error:`` line.  Output is
byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from .abelian import IntMatrix, _parse_int
from .forms import F2QuadForm, LinkingForm, SymForm, arf, brown_kervaire, signature
from .graded import GradedGroup, anderson_dual, bounded_window, torsor_count
from .ltables import (
    table,
    verify_presentations_report,
    verify_classical,
    verify_genuine,
)
from .poincare import StructuredComplex, certify_ef, linking_form, representative

class UsageError(Exception):
    """A complaint about the command line itself, reported as it reads."""


def parse_window(text: str):
    lo, _, hi = text.partition("..")
    try:
        a, b = _parse_int(lo), _parse_int(hi)
    except ValueError:
        raise UsageError(f"window must look like a..b, got {text!r}") from None
    if a > b:
        raise UsageError(f"window start exceeds end in {text!r}")
    return bounded_window(a, b)


def _period(text: str) -> int:
    """The --period option's integer, refused as argparse refuses an int it cannot read."""
    try:
        return _parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _emit_table(tab: GradedGroup, fmt: str, out):
    """Write the table in one string; its JSON is json.dumps(tab.to_json(), indent=2) plus a newline.

    The JSON is laid out here rather than by json's indent encoder, which is pure Python: the
    window and the degree keys are integers, the period one or null, and each group's text is
    encoded as json encodes a str.
    """
    if fmt == "json":
        (lo, hi), period = tab.window, tab.period
        groups = ",\n".join([f'    "{n}": {encode_basestring_ascii(text)}' for n, text in tab.rendered()])
        out.write(f'{{\n  "window": [\n    {lo},\n    {hi}\n  ],\n  "period": {json.dumps(period)},\n'
                  f'  "groups": {{\n{groups}\n  }}\n}}\n')
    else:
        out.write("".join(f"{n}\t{text}\n" for n, text in tab.rendered()))


def _emit_report(report, fmt: str, out) -> bool:
    if fmt == "json":
        out.write(json.dumps([item.to_json() for item in report], indent=2) + "\n")
    else:
        out.write("".join(f"{item.name}\t{'PASS' if item.passed else 'FAIL'}\t{item.detail}\n" for item in report))
    return all(item.passed for item in report)


def _not_an_integer(text):
    raise ValueError(f"{text} is not an integer")


def _load_json_file(path):
    """The document in ``path``; a float, NaN, Infinity, true or false in it is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=_not_an_integer, parse_constant=_not_an_integer)
    pending = [[doc]]  # arrays and objects to search for true and false, which int() accepts
    while pending:
        values = pending.pop()
        if bool in map(type, values):
            _not_an_integer("a boolean")
        pending += [v.values() if type(v) is dict else v for v in values if type(v) in (list, dict)]
    return doc


def _named_or_input_table(args):
    """The table that dual and torsor read: --name's on --window (-16..16 unless given), or the --input file's."""
    if args.name is not None and args.input is not None:
        raise UsageError(f"{args.command} takes --name or --input, not both")
    if args.window is not None and args.input is not None:
        raise UsageError(f"{args.command} takes --window or --input, not both")
    if args.input:
        return GradedGroup.from_json(_load_json_file(args.input))
    if args.name:
        return table(args.name, parse_window("-16..16" if args.window is None else args.window))
    raise UsageError(f"{args.command} needs --name or --input")


def cmd_table(args, out):
    if not args.name:
        raise UsageError("table needs --name")
    _emit_table(table(args.name, parse_window(args.window)), args.format, out)
    return 0


def cmd_dual(args, out):
    _emit_table(anderson_dual(_named_or_input_table(args)), args.format, out)
    return 0


def cmd_invariant(args, out):
    if args.name not in ("signature", "arf", "beta"):
        raise UsageError(f"unknown invariant {args.name!r}; choose signature, arf or beta")
    if not args.input:
        raise UsageError("invariant needs --input")
    doc = _load_json_file(args.input)
    if args.name == "signature":
        value = signature(SymForm(IntMatrix(doc)))
    elif args.name == "arf":
        value = arf(F2QuadForm(IntMatrix(doc)))
    elif isinstance(doc, dict) and "kind" in doc:
        # a structured-complex file: extract its linking form first
        value = brown_kervaire(linking_form(StructuredComplex.from_json(doc)))
    else:
        value = brown_kervaire(LinkingForm.from_json(doc))
    if args.format == "json":
        out.write(json.dumps({"invariant": args.name, "value": value}) + "\n")
    else:
        out.write(f"{args.name}\t{value}\n")
    return 0


def cmd_certify_ef(args, out):
    beta = certify_ef(representative("E"), representative("F"))
    if args.format == "json":
        out.write(json.dumps({"beta": beta}) + "\n")
    else:
        out.write(f"beta = {beta}\n")
    return 0 if beta == 4 else 1


_SUITES = {"A": (verify_classical, "-12..12"), "B": (verify_genuine, "-16..16"),
          "presentations": (verify_presentations_report, "-16..16")}  # each with its default window


def cmd_verify(args, out):
    suite, window = _SUITES[args.suite]
    return 0 if _emit_report(suite(parse_window(args.window or window)), args.format, out) else 1


def cmd_torsor(args, out):
    tab = _named_or_input_table(args)
    period = tab.period if args.period is None else args.period
    if period is None:
        raise UsageError("table declares no period; pass --period")
    group = torsor_count(tab, period)
    if args.format == "json":
        out.write(json.dumps({"torsor": group.render()}) + "\n")
    else:
        out.write(f"{group.render()}\n")
    return 0


# Each verb once: its command, summary and default --format, the string options it reads with
# their defaults, and the arguments it adds after --format with theirs.
_VERBS = {
    "table": (cmd_table, "print a homotopy-group table", "json", {"window": "-16..16", "name": None}, {}),
    "dual": (cmd_dual, "Anderson dual of a table", "json", {"window": None, "name": None, "input": None}, {}),
    "invariant": (cmd_invariant, "signature, arf or beta of a form file", "json", {"name": None, "input": None}, {}),
    "certify-ef": (cmd_certify_ef, "run the chain-level ef = 4 certificate", "tsv", {}, {}),
    "verify": (cmd_verify, "run a verification suite", "json", {"window": None},
               {"suite": {"choices": tuple(_SUITES)}}),
    "torsor": (cmd_torsor, "splitting-torsor count of a table", "json",
               {"window": None, "name": None, "input": None}, {"--period": {"type": _period}}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_verb(p: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """p with the arguments of the verb ``command``, set to run it under its name."""
    func, _, fmt, options, arguments = _VERBS[command]
    for option, default in options.items():
        p.add_argument(f"--{option}", default=default)
    p.add_argument("--format", choices=("json", "tsv"), default=fmt)
    for argument, spec in arguments.items():
        p.add_argument(argument, **spec)
    p.set_defaults(func=func, command=command)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser with a subcommand for each verb."""
    p = _Parser(prog="lspectra", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, summary, *_) in _VERBS.items():
        _add_verb(sub.add_parser(command, help=summary), command)
    return p


def _verb_parser(command: str) -> argparse.ArgumentParser:
    """The parser of what follows the verb ``command``: ``build_parser``'s subparser of it, standing alone."""
    return _add_verb(_Parser(prog=f"lspectra {command}"), command)


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


def _reason(exc, args) -> str:
    """Why an input was rejected, on one line: any error but the CLI's own or an unreadable
    file's names the --input document it arose from, if any, and its type."""
    text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    if getattr(args, "input", None) and not isinstance(exc, (UsageError, OSError)):
        text = f"{args.input}: {type(exc).__name__}: {text}"
    return " ".join(f"{text}".splitlines())


def main(argv=None) -> int:
    args = None
    try:
        argv = _glue_window(sys.argv[1:] if argv is None else argv)
        # Before its verb the parser reads only -h, argparse matches a verb exactly, and it hands the
        # verb's subparser every token after it, so a line that starts with a verb parses alike with
        # that subparser standing alone; any other line (no verb, help, an unknown verb) meets every
        # verb, for the help and errors that list them.
        if argv and argv[0] in _VERBS:
            args = _verb_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
        return args.func(args, sys.stdout)
    except SystemExit:  # --help has been printed; every parse error is a UsageError
        return 0
    except (UsageError, OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError,
            RecursionError) as exc:
        print(f"error: {_reason(exc, args)}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
