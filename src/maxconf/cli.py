"""Command line front end.

Reports go to standard output, diagnostics to standard error as one
"warning: ..." or "error: ..." line each.  Exit codes:
0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import reports
from .reports import DEFAULT_TOLERANCE
from .specio import SpecError, load_kraus, read_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxconf",
        description="Maximum-confidence discrimination analysis of quantum state ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="ensemble spec file (JSON)")
        p.add_argument("--tolerance", type=float, default=None,
                       help=f"verification tolerance (default {DEFAULT_TOLERANCE})")
        p.add_argument("--output", choices=("text", "machine"), default="text",
                       help="report format (default text)")
        return p

    add("bound", "maximum-confidence bound per ensemble member")
    add("pom", "optimal effects completed into a measurement")
    add("verify", "cross-check the measurement picture against the bipartite one")
    sim = add("simulate", "finite-shot sampling of the completed measurement")
    sim.add_argument("--trials", type=int, default=100000, help="number of shots (default 100000)")
    sim.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    add("concentrate", "flatten the Schmidt spectrum of the canonical purification")
    tr = add("transform", "apply a local filter and check confidence monotonicity")
    tr.add_argument("--kraus", required=True, help="operation element file (JSON matrix)")
    return parser


def run(args) -> int:
    spec = read_spec(args.spec)
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = spec.tolerance if spec.tolerance is not None else DEFAULT_TOLERANCE
    if tolerance <= 0:
        raise SpecError("tolerance must be positive")
    ens = spec.ensemble

    code = 0
    if args.command == "bound":
        report = reports.bound_report(ens)
    elif args.command == "pom":
        report = reports.pom_report(ens)
    elif args.command == "verify":
        report, ok = reports.verify_report(ens, tolerance)
        code = 0 if ok else 1
    elif args.command == "simulate":
        if args.trials < 1:
            raise SpecError("trials must be positive")
        report = reports.simulate_report(ens, args.trials, args.seed)
    elif args.command == "concentrate":
        report = reports.concentrate_report(ens)
    else:
        kraus = load_kraus(args.kraus)
        report, ok = reports.transform_report(ens, kraus, tolerance)
        code = 0 if ok else 1
    sys.stdout.writelines(reports.render(report, args.output))
    return code


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return run(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
