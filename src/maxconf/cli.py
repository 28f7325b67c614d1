"""Command line front end.

Reports go to standard output, diagnostics to standard error as one
"warning: ..." or "error: ..." line each; an error raised after the
inputs were read names its subcommand ("error: simulate: ..."), and so does
a standard output closed by its reader ("error: pom: [Errno 32] Broken
pipe").  Exit codes: 0 success, 1 verification failure, 2 input error or
failed output.
"""

from __future__ import annotations

import argparse
import math
import os
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
        p.add_argument("--output", choices=("text", "machine"), default="text",
                       help="report format (default text)")
        return p

    add("bound", "maximum-confidence bound per ensemble member")
    add("pom", "optimal effects completed into a measurement")
    verify = add("verify", "cross-check the measurement picture against the bipartite one")
    sim = add("simulate", "finite-shot sampling of the completed measurement")
    sim.add_argument("--trials", type=int, default=100000, help="number of shots (default 100000)")
    sim.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    add("concentrate", "flatten the Schmidt spectrum of the canonical purification")
    tr = add("transform", "apply a local filter and check confidence monotonicity")
    tr.add_argument("--kraus", required=True, help="operation element file (JSON matrix)")
    for p in (verify, tr):  # the two reports that compare residuals with a tolerance
        p.add_argument("--tolerance", type=float, default=None,
                       help=f"verification tolerance (default {DEFAULT_TOLERANCE})")
    return parser


def run(args) -> int:
    # Flags are checked before the spec is read, which can take seconds.
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        raise SpecError(f"--tolerance must be finite and positive, got {tolerance!r}")
    if args.command == "simulate":
        if args.trials < 1:
            raise SpecError("--trials must be positive")
        if not 0 <= args.seed < 1 << 64:
            raise SpecError(f"--seed must be in [0, 2^64), got {args.seed}")
    spec = read_spec(args.spec)
    if tolerance is None:
        tolerance = spec.tolerance if spec.tolerance is not None else DEFAULT_TOLERANCE
    ens = spec.ensemble

    code = 0
    if args.command == "bound":
        report = reports.bound_report(ens)
    elif args.command == "pom":
        report = reports.pom_tree(ens)
    elif args.command == "verify":
        report, ok = reports.verify_report(ens, tolerance)
        code = 0 if ok else 1
    elif args.command == "simulate":
        report = reports.simulate_report(ens, args.trials, args.seed)
    elif args.command == "concentrate":
        report = reports.concentrate_tree(ens)
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
            code = run(args)
            sys.stdout.flush()
            return code
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # The reader closed stdout: what is still buffered goes nowhere, so
        # the flush at interpreter exit prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
