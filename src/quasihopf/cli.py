"""Command-line entry points.

Targets are either ``catalog:NAME`` or a path to a presentation document.
Every command renders a verification report (text or JSON) and exits 0
exactly when no row failed; usage, I/O and schema problems exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canonical import REGISTRY, UnknownIdentity, identity_suite
from .context import get_context
from .double import build_double, double_report
from .exactnum import ParseError
from .intcoint import (DimensionNotOne, cointegral_space, integral_report,
                       integral_space, s4_display_readings)
# verify_axioms stays bound here although the axioms suite reads the memoized
# report: perfbench's tracer and its tests reach it through this module too
from .qha import (AxiomViolation, BadCounitNormalization, NonInvertiblePhi,  # noqa: F401
                  verify_axioms)
from .report import VerificationReport, merge_reports
from .workbench import SchemaError, UnknownCatalogName, export_document, \
    render_document, resolve_target

SUITES = ("axioms", "canonical", "integrals", "double", "all")


def _emit(report: VerificationReport, fmt: str, extra: dict | None = None) -> int:
    if fmt == "json":
        payload = report.to_json()
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render_text())
        for key, value in (extra or {}).items():
            print(f"  {key}: {value}")
    return 0 if report.passed() else 1


def _run_suites(pres, suites: list[str], exhaustive: bool,
                identities: list[str] | None = None) -> VerificationReport:
    ctx = get_context(pres)
    scope = True if exhaustive else None
    reports = []
    if identities:
        reports.append(identity_suite(ctx, scope, identities))
        suites = []
    if "axioms" in suites:
        reports.append(ctx.axiom_report(scope))
    if "canonical" in suites:
        reports.append(identity_suite(ctx, scope))
    if "integrals" in suites:
        reports.append(integral_report(ctx, scope))
    if "double" in suites:
        reports.append(double_report(build_double(pres, scope), scope))
    return merge_reports(pres.name, reports)


def cmd_verify(args) -> int:
    pres = resolve_target(args.target)
    suites = list(SUITES[:-1]) if args.suite == "all" else [args.suite]
    report = _run_suites(pres, suites, args.exhaustive,
                         identities=args.identity or None)
    extra = {}
    if not args.identity and args.suite in ("integrals", "all"):
        readings = s4_display_readings(get_context(pres))
        extra["s4-display-readings"] = {
            key: ("holds" if value else "fails" if value is not None else "undefined")
            for key, value in readings.items()}
    return _emit(report, args.format, extra)


def cmd_identities(args) -> int:
    if args.format == "json":
        print(json.dumps({name: REGISTRY[name].formula for name in sorted(REGISTRY)},
                         indent=2))
    else:
        for name in sorted(REGISTRY):
            print(f"{name:22s} {REGISTRY[name].formula}")
    return 0


def cmd_integrals(args) -> int:
    pres = resolve_target(args.target)
    ctx = get_context(pres)
    report = VerificationReport(pres.name)
    left = integral_space(pres, "left")
    right = integral_space(pres, "right")
    report.add(f"left-integral-dimension={len(left)}", len(left) == 1)
    report.add(f"right-integral-dimension={len(right)}", len(right) == 1)
    extra = {
        "left": [pres.describe(t) for t in left],
        "right": [pres.describe(t) for t in right],
        "mu": [str(c) for c in ctx.mu.coords],
        "unimodular": ctx.mu == pres.counit,
    }
    return _emit(report, args.format, extra)


def cmd_cointegrals(args) -> int:
    pres = resolve_target(args.target)
    ctx = get_context(pres)
    report = VerificationReport(pres.name)
    sides = [args.side] if args.side else ["left", "right"]

    def render(fn) -> str:
        return " + ".join(f"({c})*P_{pres.basis[i]}" for i, c in enumerate(fn.coords)
                          if not c.is_zero()) or "0"

    extra = {}
    for side in sides:
        space = cointegral_space(ctx, side)
        report.add(f"{side}-cointegral-dimension={len(space)}", len(space) == 1)
        extra[side] = [render(fn) for fn in space]
        extra[f"{side}-normalized"] = render(ctx.lam if side == "left" else ctx.big_lam)
    return _emit(report, args.format, extra)


def cmd_double(args) -> int:
    pres = resolve_target(args.target)
    scope = True if args.exhaustive else None
    D = build_double(pres, scope)
    report = double_report(D, scope)
    if args.export:
        doc = export_document(D.presentation)
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(render_document(doc))
    return _emit(report, args.format)


def cmd_export(args) -> int:
    pres = resolve_target(args.target)
    doc = export_document(pres)
    text = render_document(doc)
    if args.path == "-":
        sys.stdout.write(text)
    else:
        with open(args.path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasihopf",
        description="Exact verification engine for finite-dimensional "
                    "quasi-Hopf algebras presented by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, exhaustive: bool = True):
        p.add_argument("target", help="catalog:NAME or a presentation document path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if exhaustive:
            p.add_argument("--exhaustive", action="store_true",
                           help="force exhaustive checks on large algebras")

    p = sub.add_parser("verify", help="run verification suites")
    add_common(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--identity", action="append", metavar="NAME",
                   help="check only the named registry identities "
                        "(see the identities command); repeatable")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="list the named-identity registry")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("integrals", help="solve the integral spaces")
    add_common(p, exhaustive=False)
    p.set_defaults(func=cmd_integrals)

    p = sub.add_parser("cointegrals", help="solve the cointegral spaces")
    add_common(p, exhaustive=False)
    p.add_argument("--side", choices=("left", "right"))
    p.set_defaults(func=cmd_cointegrals)

    p = sub.add_parser("double", help="build and verify the quantum double")
    add_common(p)
    p.add_argument("--export", metavar="PATH",
                   help="write the double as a presentation document")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("export", help="write a presentation document")
    p.add_argument("target")
    p.add_argument("path", help="output path, or - for stdout")
    p.set_defaults(func=cmd_export)
    return parser


_USER_ERRORS = (SchemaError, UnknownCatalogName, UnknownIdentity, ParseError,
                AxiomViolation, NonInvertiblePhi, BadCounitNormalization,
                DimensionNotOne, FileNotFoundError, IsADirectoryError,
                PermissionError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
