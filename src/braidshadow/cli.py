"""Command-line interface.

Verbs: verify, build, check, invariants, orbit, export.  ``check`` prints
the lines of ``diagram.certify``'s certificate and ``invariants`` refuses a
diagram with its fault; neither words a stage itself.  Factorization
inputs come from a file, stdin (``-``), or ``--standard d``.  Exit codes:
0 all checks pass, 1 a mathematical check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .diagram import DiagramError, TorusDiagram, assemble, certify
from .documents import (
    MAX_STRANDS,
    DocumentError,
    parse_diagram,
    parse_factorization,
    serialize_diagram,
)
from .factorization import (
    Factorization,
    hurwitz_orbit,
    standard_factorization,
    validate,
)
from .invariants import make_ledger
from .svg import export_svg
from .words import BraidError


def _read_text(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
            try:
                # stdin may decode with errors='surrogateescape', passing bad bytes on
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                offset = len(text[: exc.start].encode("utf-8", "surrogateescape"))
                raise DocumentError(f"stdin: not UTF-8 text (byte offset {offset})") from exc
            return text
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise DocumentError(f"{name}: not UTF-8 text (byte offset {exc.start})") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_factorization(args: argparse.Namespace) -> Factorization:
    if args.standard is not None:
        if args.standard > MAX_STRANDS:
            raise DocumentError(f"--standard: expected an integer <= {MAX_STRANDS}")
        try:
            return standard_factorization(args.standard)
        except BraidError as exc:
            raise DocumentError(f"--standard: {exc}") from exc
    if args.input is None:
        raise DocumentError("no input: give a factorization file or --standard d")
    return parse_factorization(_read_text(args.input))


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_verify(args: argparse.Namespace) -> int:
    f = _load_factorization(args)
    report = validate(f)
    # the exponent sum of the full twist, and the band count of a smooth factorization
    expected = report.strands * (report.strands - 1)
    lines = [
        f"strands          d = {report.strands}",
        f"factors          n = {report.factor_count}"
        + (f" (expected {expected})" if report.smooth else ""),
        f"exponent sum       = {report.exponent_total} (expected {expected})",
        f"product = full twist: {'ok' if report.valid else 'FAIL'}",
        f"exponent sum check:   {'ok' if report.exponent_total == expected else 'FAIL'}",
        f"result: {'valid' if report.valid else 'INVALID'}",
    ]
    _emit(args, report._asdict(), lines)
    return 0 if report.valid else 1


def _cmd_build(args: argparse.Namespace) -> int:
    f = _load_factorization(args)
    diag = assemble(f)
    _write_text(args.output, serialize_diagram(diag, source=f))
    return 0


def _load_diagram(args: argparse.Namespace) -> tuple[TorusDiagram, Factorization | None]:
    if args.input == args.fact == "-":
        raise DocumentError("--fact: stdin is already the diagram input")
    diag, source = parse_diagram(_read_text(args.input))
    if args.fact:
        source = parse_factorization(_read_text(args.fact))
    return diag, source


def _cmd_check(args: argparse.Namespace) -> int:
    diag, source = _load_diagram(args)
    cert = certify(diag, source)
    _emit(args, {**cert.payload, "ok": cert.ok},
          [*cert.lines, f"result: {'pass' if cert.ok else 'FAIL'}"])
    return 0 if cert.ok else 1


def _cmd_invariants(args: argparse.Namespace) -> int:
    diag, source = _load_diagram(args)
    cert = certify(diag, source)
    if not cert.ok:
        raise DiagramError(cert.fault)
    ledger = make_ledger(cert.params, diag.strands, source)
    payload = {**ledger._asdict(), "params": cert.payload["params"], "ok": ledger.all_ok}
    lines = [
        f"degree  d     = {ledger.degree}",
        f"genus         = {ledger.genus_expected}",
        f"euler char    = {ledger.euler_expected}",
        f"params        = {cert.params.text()}",
        f"self-linking  = {ledger.sl}",
    ]
    for name, flag in sorted(ledger.checks.items()):
        lines.append(f"check {name}: {'ok' if flag else 'FAIL'}")
    lines.append(f"result: {'pass' if ledger.all_ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if ledger.all_ok else 1


def _cmd_orbit(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise DocumentError(f"--budget: node budget must be >= 1, got {args.budget}")
    orbit = hurwitz_orbit(_load_factorization(args), args.budget)
    texts = [repr(band) for band in orbit.bands]
    comma = "," if len(orbit.start) == 1 else ""
    payload = {
        "size": orbit.size,
        "truncated": orbit.truncated,
        # each node's repr, from the repr of each band key written once
        "keys": ["(" + ", ".join([texts[i] for i in node]) + comma + ")" for node in orbit.nodes],
    }
    lines = [
        f"orbit size: {orbit.size}" + (" (truncated at budget)" if orbit.truncated else ""),
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    diag, _source = parse_diagram(_read_text(args.input))
    _write_text(args.output, export_svg(diag))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: ``parse_args`` returns a new Namespace on each
    # call and keeps no state in the parser.
    parser = argparse.ArgumentParser(
        prog="braidshadow",
        description="Quasipositive factorizations of the full twist and their torus shadow diagrams.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def fact_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", help="factorization file ('-' for stdin)")
        p.add_argument("--standard", type=int, metavar="d",
                       help="use the standard factorization on d strands")

    def diag_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="diagram file ('-' for stdin)")

    def verified_diag_input(p: argparse.ArgumentParser) -> None:
        diag_input(p)
        p.add_argument("--fact", help="factorization file for triviality checks")

    fact_input(sub.add_parser("verify", help="validate a factorization against the full twist"))

    p = sub.add_parser("build", help="assemble and stabilize a torus diagram")
    fact_input(p)
    p.add_argument("-o", "--output", help="diagram file ('-' or omit for stdout)")

    verified_diag_input(sub.add_parser("check", help="transversality, parameters and triviality"))
    verified_diag_input(sub.add_parser("invariants", help="numerical invariant ledger"))

    p = sub.add_parser("orbit", help="enumerate the Hurwitz orbit")
    fact_input(p)
    p.add_argument("--budget", type=int, default=1000, help="node budget (default 1000)")

    p = sub.add_parser("export", help="render a diagram to SVG")
    diag_input(p)
    p.add_argument("-o", "--output", help="SVG file ('-' or omit for stdout)")
    for verb in ("verify", "check", "invariants", "orbit"):  # the verbs that print a report
        sub.choices[verb].add_argument("--json", action="store_true", help="machine-readable output")
    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "build": _cmd_build,
    "check": _cmd_check,
    "invariants": _cmd_invariants,
    "orbit": _cmd_orbit,
    "export": _cmd_export,
}


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BraidError, DiagramError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
