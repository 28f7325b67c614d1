"""Re-measure the ROADMAP baseline table: `bound` and `pom --output machine`
at the four baseline sizes, end to end through child processes and layer by
layer from one traced in-process run.

    python3 bench/baseline.py [--seed 1] [--repeats 3]

Sizes follow the ROADMAP recipe: the trine fixture (d=2 n=3), then
generated ensembles whose members alternate pure and rank r (r=2 at d=16,
r=4 at d>=64), written as matrices.  Prints a markdown table.
"""

from __future__ import annotations

import argparse
import os
import statistics

import run  # sets the single-thread BLAS variables before numpy loads
import gen
import oracle
import spans
import workloads

SIZES = (("d=2 n=3", None, None, None), ("d=16 n=8", 16, 8, 2),
         ("d=64 n=16", 64, 16, 4), ("d=128 n=32", 128, 32, 4))
COMMANDS = (("bound", ("bound", (), False)), ("pom --output machine", ("pom", (), True)))


def size_specs(seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    items = []
    for stream, (label, d, n, r) in enumerate(SIZES, start=40):
        if d is None:
            items.append((label, {"name": "trine", "spec": os.path.join(run.ROOT, gen.FIXTURES[0])}))
            continue
        states, kets, priors = gen.random_members(gen.rng_for(seed, stream), d, gen.alternating(n, r))
        path = os.path.join(out_dir, f"d{d}-n{n}.json")
        gen.write_json(path, gen.spec_doc(states, kets, priors, kets_as_kets=False))
        items.append((label, {"name": f"d{d}-n{n}", "spec": path}))
    return items


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    run.preflight()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    rows = []
    with run.Launcher() as launch:
        for size, item in size_specs(args.seed, os.path.join(run.INPUT_DIR, "baseline")):
            expected = oracle.bounds(*oracle.spec_members(item["spec"]))
            for cmd_label, command in COMMANDS:
                (op,) = workloads.cli_ops(item, expected, [command])
                ledger = run.Ledger()
                for _ in range(args.repeats):
                    ledger.add(op, launch(op))
                tracer = spans.Tracer()
                run.traced_pass(tracer, [op], ledger)
                if ledger.failures:
                    raise SystemExit(f"{op.label}: {ledger.failures}")
                stats = spans.summarize(tracer.spans)

                def ms(name, stats=stats):
                    return 1e3 * stats[name]["total_s"] if name in stats else 0.0

                report = "reports.bound_report" if command[0] == "bound" else "reports.pom_report"
                decomps = [sum(spans.per_op_counts(tracer.spans, within)[0].values())
                           for within in (None, report)]  # whole op, inside the report call
                e2e = 1e3 * statistics.median(res.seconds for _, res in ledger.records[:-1])
                rows.append((cmd_label, size, e2e, ms("specio.read_spec"), ms(report),
                             ms("measurement.complete_pom"), ms("reports.render_machine")
                             + ms("reports.render_text"), decomps,
                             ledger.records[0][1].nbytes / 1e6))
    print("| command | size | end to end ms | read_spec ms | report ms | complete_pom ms "
          "| render ms | decompositions (in report) | stdout MB |")
    print("|---|---|---|---|---|---|---|---|---|")
    for cmd, size, e2e, read, rep, pom, render, dec, mb in rows:
        print(f"| `{cmd}` | {size} | {e2e:.0f} | {read:.1f} | {rep:.1f} | {pom:.1f} "
              f"| {render:.1f} | {dec[0]} ({dec[1]}) | {mb:.2f} |")


if __name__ == "__main__":
    main()
