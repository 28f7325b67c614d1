"""The four workloads: their inputs, their ops, and each op's check.

A CLI op is a ``maxconf`` argument list, run as a child process in the
untraced run and through ``maxconf.cli.main`` in the traced run.  A library
op is a call into ``maxconf.reports``.  Every op carries the check its output
must pass; checks read values, never bytes, so they hold across rendering
changes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import gen
import oracle

WORKLOADS = ("cli-fixtures", "cli-large", "library-sweep", "simulate-trials")
CLI_WORKLOADS = ("cli-fixtures", "cli-large", "simulate-trials")
COMMANDS = ("bound", "pom", "verify", "simulate", "concentrate", "transform")

# Trial counts for simulate-trials.  The shipped sampler holds about
# trials x outcomes x 8 bytes at once: 2e6 trials of the 33-outcome spec peak
# near 0.65 GB and 4e6 trials of the trine near 0.27 GB.
SIM_TRIALS = {"trine": (1_000_000, 4_000_000), "d16-n32-pure": (1_000_000, 2_000_000)}
DEFAULT_TRIALS = 100_000


@dataclass
class Op:
    kind: str                   # subcommand, or "ensemble" for a library build
    label: str                  # unique within the workload
    check: object               # callable(report) -> error message or None
    argv: tuple = ()            # CLI ops
    machine: bool = False       # CLI ops: --output machine
    call: object = None         # library ops: callable() -> report dict
    files: tuple = ()           # input files the op reads


def _bound_check(expected):
    return lambda rep: oracle.check_bounds(rep, expected)


def _counts_check(trials):
    return lambda rep: oracle.check_counts(rep, trials)


def cli_ops(item, expected, commands):
    """Ops for one spec: `commands` lists (subcommand, extra args, machine)."""
    spec = item["spec"]
    ops = []
    for cmd, extra, machine in commands:
        argv = (cmd, spec, *extra) + (("--output", "machine") if machine else ())
        files = (spec, extra[1]) if cmd == "transform" else (spec,)
        if cmd in ("bound", "pom"):
            check = _bound_check(expected)
        elif cmd in ("verify", "transform"):
            check = oracle.check_status
        elif cmd == "simulate":
            trials = int(extra[extra.index("--trials") + 1]) if "--trials" in extra else DEFAULT_TRIALS
            check = _counts_check(trials)
        else:
            check = oracle.check_flat
        label = " ".join(os.path.basename(a) for a in argv)
        ops.append(Op(cmd, label, check, argv=argv, machine=machine, files=files))
    return ops


def _accept(load, *args):
    """Load one input through maxconf, as set-up.  A rejection is not raised:
    every op on that input then fails and is counted there."""
    try:
        load(*args)
    except Exception:  # noqa: BLE001 - any rejection is the op's failure
        pass


def setup(workload, seed, root, out_dir):
    """Write the workload's inputs, compute the oracle and load every input
    through maxconf once; returns the workload's ops."""
    from maxconf import specio

    os.makedirs(out_dir, exist_ok=True)
    if workload == "library-sweep":
        return library_ops(gen.library_sweep(seed))
    if workload == "cli-fixtures":
        inputs = gen.cli_fixtures(seed, root, out_dir)
    elif workload == "cli-large":
        inputs = gen.cli_large(seed, out_dir)
    else:
        inputs = gen.simulate_trials(seed, root, out_dir)
    ops = []
    for item in inputs:
        _accept(specio.read_spec, item["spec"])
        for kind in ("full", "deficient"):
            if f"kraus_{kind}" in item:
                _accept(specio.load_kraus, item[f"kraus_{kind}"])
        expected = oracle.bounds(*oracle.spec_members(item["spec"]))
        if workload == "cli-fixtures":
            commands = [("bound", (), False), ("pom", (), False), ("pom", (), True),
                        ("verify", (), False), ("simulate", ("--seed", str(seed)), False),
                        ("concentrate", (), False),
                        ("transform", ("--kraus", item["kraus_full"]), False),
                        ("transform", ("--kraus", item["kraus_deficient"]), False)]
        elif workload == "cli-large":
            commands = [("bound", (), False), ("pom", (), True), ("pom", (), False),
                        ("verify", (), False)]
        else:
            small, big = SIM_TRIALS[item["name"]]
            commands = [("simulate", ("--trials", str(small), "--seed", str(seed)), False),
                        ("simulate", ("--trials", str(big), "--seed", str(seed)), True)]
        ops += cli_ops(item, expected, commands)
    return ops


def library_ops(ensembles):
    """Per ensemble: build it, then every report, each its own op.  Set-up
    builds each Ensemble and KrausOperator once to load the inputs."""
    from maxconf import reports
    from maxconf.ensembles import Ensemble
    from maxconf.transforms import KrausOperator

    ops = []
    for item in ensembles:
        _accept(Ensemble, item["dim"], tuple(item["states"]), np.array(item["priors"]))
        _accept(KrausOperator, item["kraus_full"])
        _accept(KrausOperator, item["kraus_deficient"])
        cell = {}
        expected = oracle.bounds(item["states"], item["priors"])
        name = item["name"]

        def build(item=item, cell=cell):
            cell["ens"] = None
            cell["ens"] = Ensemble(item["dim"], tuple(item["states"]), np.array(item["priors"]))
            return {"states": [None] * cell["ens"].n_states}

        def ens(cell=cell):
            if cell.get("ens") is None:
                raise RuntimeError("ensemble was not built")
            return cell["ens"]

        def transform(kind, item=item, ens=ens):
            kraus = KrausOperator(item[f"kraus_{kind}"])
            return reports.transform_report(ens(), kraus, reports.DEFAULT_TOLERANCE)[0]

        n = len(item["states"])
        ops += [
            Op("ensemble", f"ensemble {name}", lambda rep, n=n: None if len(rep["states"]) == n
               else "wrong member count", call=build),
            Op("bound", f"bound {name}", _bound_check(expected),
               call=lambda ens=ens: reports.bound_report(ens())),
            Op("pom", f"pom {name}", _bound_check(expected),
               call=lambda ens=ens: reports.pom_report(ens())),
            Op("verify", f"verify {name}", oracle.check_status,
               call=lambda ens=ens: reports.verify_report(ens(), reports.DEFAULT_TOLERANCE)[0]),
            Op("transform", f"transform kraus-full {name}", oracle.check_status,
               call=lambda t=transform: t("full")),
            Op("transform", f"transform kraus-deficient {name}", oracle.check_status,
               call=lambda t=transform: t("deficient")),
            Op("concentrate", f"concentrate {name}", oracle.check_flat,
               call=lambda ens=ens: reports.concentrate_report(ens())),
        ]
    return ops
