"""maxconf benchmark: four workloads, end to end and per layer.

    python3 bench/run.py --workload cli-fixtures --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` times every op the way a user
runs it (one ``python -m maxconf.cli`` child at a time, a closed loop with
one client; library ops in process) and prints the end-to-end metrics.
``--trace 1`` repeats the same ops in process, once untraced and once with
the span wrappers of ``spans.py`` installed, and prints the per-layer
metrics and the tracing overhead.  Every output is checked by value against
``oracle.py``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where ``attempted``
and ``failed`` count distinct ops, however often each ran; the lines before it
give provenance, the per-command figures, every failed op and, when traced,
the decomposition counts per op.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS in this process and in every child, before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
INPUT_DIR = os.path.join(BENCH_DIR, "_inputs")
OUT_DIR = os.path.join(BENCH_DIR, "_out")

# setup_s is the median of this many set-ups in one run.
SETUP_REPEATS = 3
IMPORT_PROBES = 5
IMPORTTIME_PROBES = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ------------------------------------------------------------------ running


@dataclass
class Outcome:
    """One attempted op: wall seconds, output text or report, error, child RSS."""

    seconds: float
    output: object = None
    error: str | None = None
    status: int = 0
    rss_kb: int = 0
    nbytes: int = 0


class Launcher:
    """The small child process that spawns every CLI op (see launcher.py)."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, argv):
        """Run argv to its exit: (reply, stdout text, stderr text)."""
        out_path = os.path.join(OUT_DIR, "child.stdout")
        err_path = os.path.join(OUT_DIR, "child.stderr")
        request = {"argv": argv, "stdout": out_path, "stderr": err_path, "cwd": ROOT}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher stopped")
        with open(out_path, encoding="utf-8") as out, \
                open(err_path, encoding="utf-8", errors="replace") as err:
            return json.loads(line), out.read(), err.read()

    def __call__(self, op):
        """Spawn-to-exit time of one CLI op, with the child's peak RSS."""
        reply, text, err = self.spawn([sys.executable, "-m", "maxconf.cli", *op.argv])
        code = reply["status"]
        error = f"exit {code}: {err.strip()[-300:]}" if code else None
        return Outcome(reply["seconds"], text, error, code, reply["maxrss_kb"],
                       len(text.encode()))


def run_in_process(op):
    """The same op inside this process: cli.main with stdout captured, or a
    library call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        if op.call is not None:
            report = op.call()
            return Outcome(time.perf_counter() - t0, report)
        from maxconf import cli

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # an escaped exception fails the op, as a traceback exit would
        return Outcome(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}", status=1)
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    error = f"exit {code}: {err.getvalue().strip()[-300:]}" if code else None
    return Outcome(elapsed, text, error, code, nbytes=len(text.encode()))


def check_report(op, output):
    """The op's check on a printed report (text or machine) or a report dict."""
    if not isinstance(output, str):
        return op.check(output)
    try:
        return op.check(oracle.read_report(output, op.machine))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"


class Ledger:
    """Timings, failures and output checks of one pass or many."""

    def __init__(self):
        self.records = []      # (op, Outcome)
        self.failures = {}     # label -> reason, first seen
        self.wrong = {}        # label -> reason, output failed its check
        self._digests = {}

    def add(self, op, res):
        self.records.append((op, res))
        if res.error is not None:
            self.failures.setdefault(op.label, res.error)
        # Exit 1 with a report is a verification failure: its report is
        # checked.  Any other non-zero exit printed no report.
        if not res.output or res.status not in (0, 1):
            res.output = None
            return
        output = res.output
        res.output = None  # holding every report would grow this process
        blob = output.encode() if isinstance(output, str) else json.dumps(
            output, sort_keys=True).encode()
        digest = hashlib.sha256(blob).hexdigest()
        first = self._digests.get(op.label)
        if first == digest:
            return  # the same bytes as a report already checked by value
        if first is not None:
            reason = "output differs from an earlier run of the same op"
        else:
            self._digests[op.label] = digest
            reason = check_report(op, output)
        if reason is not None:
            self.wrong.setdefault(op.label, reason)
            self.failures.setdefault(op.label, reason)

    # attempted and failed count distinct ops, not executions: how many
    # passes fit in a run depends on the host, but which ops fail does not.
    def attempted_count(self):
        return len({op.label for op, _ in self.records})

    def failed_count(self):
        """Ops of which at least one execution failed or printed a wrong report."""
        return len(self.failures)

    def seconds(self, kind=None):
        return [res.seconds for op, res in self.records if kind is None or op.kind == kind]


def measure(ops, seconds, runner, ledger):
    """Whole passes over the ops until `seconds` of wall time have gone by."""
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            ledger.add(op, runner(op))
        passes += 1


# ------------------------------------------------------------------- set-up


def preflight():
    if not os.path.isfile(os.path.join(SRC, "maxconf", "cli.py")):
        raise BenchError(f"no maxconf sources under {SRC}")
    probe = subprocess.run([sys.executable, "-c", "import maxconf.cli"], env=child_env(),
                           cwd=ROOT, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise BenchError(f"cannot import maxconf.cli: {probe.stderr.strip()[-300:]}")
    problem = oracle.self_test()
    if problem is not None:
        raise BenchError(f"oracle self-test failed: {problem}")
    sys.path.insert(0, SRC)


def set_up(workload, seed, repeats, launch):
    """Set up `repeats` times; returns (ops, seconds of each set-up).

    A set-up writes the inputs, computes the oracle and loads every input
    through maxconf (workloads.setup).  A CLI workload then starts one child
    that imports maxconf.cli, the fixed cost every op of it pays.
    """
    out_dir = os.path.join(INPUT_DIR, workload)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ops = workloads.setup(workload, seed, ROOT, out_dir)
        if workload in workloads.CLI_WORKLOADS:
            reply, _, err = launch.spawn([sys.executable, "-c", "import maxconf.cli"])
            if reply["status"]:
                raise BenchError(f"cannot import maxconf.cli: {err.strip()[-300:]}")
        times.append(time.perf_counter() - t0)
    return ops, times


def provenance():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ------------------------------------------------------------------ metrics


def end_to_end(ledger, setup_times, in_process):
    """(metrics, extra): the gated metrics of the result line, and the figures
    printed before it."""
    secs = ledger.seconds()
    if in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss_mb = max(res.rss_kb for _, res in ledger.records) / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "ops_per_s": (len(secs) / sum(secs), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(secs), "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(secs, 90)), "ms"),
    }
    for cmd in workloads.COMMANDS:
        s = ledger.seconds(cmd)
        if s:
            extra[f"{cmd}_p50_ms"] = (1e3 * statistics.median(s), "ms")
    if not in_process:
        kb = sum(res.nbytes for _, res in ledger.records) / 1024.0 / len(secs)
        extra["stdout_kb_per_op"] = (kb, "kB")
    extra["failed_share"] = (ledger.failed_count() / ledger.attempted_count(), "share")
    extra["samples"] = (len(secs), "count")
    return metrics, extra


def import_probes(launch):
    """cli.import_ms: a child that only imports maxconf.cli.  cli.import_self_ms:
    the self time of maxconf's own modules in -X importtime."""
    walls, selfs = [], []
    for _ in range(IMPORT_PROBES):
        reply, _, err = launch.spawn([sys.executable, "-c", "import maxconf.cli"])
        if reply["status"]:
            raise BenchError(f"import probe failed: {err.strip()[-300:]}")
        walls.append(reply["seconds"])
    pattern = re.compile(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)")
    for _ in range(IMPORTTIME_PROBES):
        _, _, err = launch.spawn([sys.executable, "-X", "importtime", "-c", "import maxconf.cli"])
        selfs.append(sum(int(m.group(1)) for m in pattern.finditer(err)
                         if m.group(2).startswith("maxconf")) / 1e3)
    return 1e3 * statistics.median(walls), statistics.median(selfs)


def simulate_memory(ops):
    """Run each simulate op once in process, untimed, with simulate_measurement
    wrapped in a tracemalloc window and an RSS high-water reading.  Returns
    the largest (tracemalloc peak bytes per trial, RSS growth MB)."""
    from maxconf import measurement

    per_trial, growth = [0.0], [0.0]
    fn = measurement.simulate_measurement

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        trials = args[2] if len(args) > 2 else kwargs["trials"]
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            per_trial.append(peak / trials)
            growth.append((rss1 - rss0) / 1024.0)

    patches = spans.bind({id(fn): probe})
    try:
        for op in ops:
            if op.kind == "simulate":
                run_in_process(op)
    finally:
        spans.restore(patches)
    return max(per_trial), max(growth)


def traced_pass(tracer, ops, ledger, first_id=0):
    """Each op in process with the span wrappers installed; op ids count from
    `first_id`."""
    tracer.install()
    try:
        for op_id, op in enumerate(ops, start=first_id):
            tracer.begin_op(op_id)
            ledger.add(op, run_in_process(op))
    finally:
        tracer.uninstall()


def per_layer(stats, n_ops, passes, probes, files, stdout_bytes, memory, overhead, n_spans):
    def ms(name, key="total_s"):
        return 1e3 * stats[name][key] / n_ops if name in stats else 0.0

    def per_op(name):
        return stats[name]["calls"] / n_ops if name in stats else 0.0

    def errors(layer):
        return sum(s["errors"] for n, s in stats.items() if spans.layer_of(n) == layer) / passes

    decomp = [f"numpy.{d}" for d in spans.DECOMPOSITIONS]
    decomp_calls = sum(stats[d]["calls"] for d in decomp if d in stats)
    repeats = sum(stats[d]["repeats"] for d in decomp if d in stats)
    m = {
        "cli.import_ms": (probes[0], "ms"),
        "cli.import_self_ms": (probes[1], "ms"),
        "cli.main_ms": (ms("cli.main"), "ms"),
        "specio.read_spec_ms": (ms("specio.read_spec"), "ms"),
        "specio.json_load_ms": (1e3 * files["json_load_s"] / n_ops, "ms"),
        "specio.input_mb": (files["bytes"] / 1e6 / n_ops, "MB"),
        "specio.matrix_to_json_ms": (ms("specio.matrix_to_json"), "ms"),
        "specio.load_kraus_ms": (ms("specio.load_kraus"), "ms"),
    }
    for cmd in workloads.COMMANDS:
        m[f"reports.{cmd}_report_self_ms"] = (ms(f"reports.{cmd}_report", "self_s"), "ms")
    m.update({
        "reports.render_machine_ms": (ms("reports.render_machine"), "ms"),
        "reports.render_text_ms": (ms("reports.render_text"), "ms"),
        "reports.stdout_bytes": (stdout_bytes / n_ops, "B"),
        "linalg.eigh_calls_per_op": (per_op("numpy.eigh"), "count"),
        "linalg.eigvalsh_calls_per_op": (per_op("numpy.eigvalsh"), "count"),
        "linalg.svd_calls_per_op": (per_op("numpy.svd"), "count"),
        "linalg.decomp_ms_per_op": (sum(ms(d) for d in decomp), "ms"),
        "linalg.repeat_decomp_share": (repeats / decomp_calls if decomp_calls else 0.0, "share"),
        "ensembles.Ensemble_calls_per_op": (per_op("ensembles.Ensemble"), "count"),
        "ensembles.Ensemble_ms": (ms("ensembles.Ensemble"), "ms"),
        "ensembles.purify_ms": (ms("ensembles.purify"), "ms"),
        "ensembles.schmidt_ms": (ms("ensembles.schmidt"), "ms"),
        "ensembles.allowed_subspace_ms": (ms("ensembles.allowed_subspace"), "ms"),
        "measurement.max_confidence_calls_per_op": (per_op("measurement.max_confidence"), "count"),
        "measurement.max_confidence_ms": (ms("measurement.max_confidence"), "ms"),
        "measurement.optimal_effect_ms": (ms("measurement.optimal_effect"), "ms"),
        "measurement.complete_pom_self_ms": (ms("measurement.complete_pom", "self_s"), "ms"),
        "measurement.confidence_report_ms": (ms("measurement.confidence_report"), "ms"),
        "measurement.simulate_measurement_ms": (ms("measurement.simulate_measurement"), "ms"),
        "measurement.simulate_peak_bytes_per_trial": (memory[0], "B/trial"),
        "measurement.simulate_rss_growth_mb": (memory[1], "MB"),
        "nosignalling.bound_bipartite_ms": (ms("nosignalling.bound_bipartite"), "ms"),
        "nosignalling.confidence_bipartite_ms": (ms("nosignalling.confidence_bipartite"), "ms"),
        "nosignalling.subspace_leakage_ms": (ms("nosignalling.subspace_leakage"), "ms"),
        "nosignalling.marginal_invariance_ms": (ms("nosignalling.marginal_invariance"), "ms"),
        "transforms.apply_kraus_calls_per_op": (per_op("transforms.apply_kraus"), "count"),
        "transforms.apply_kraus_ms": (ms("transforms.apply_kraus"), "ms"),
        "transforms.monotonicity_check_ms": (ms("transforms.monotonicity_check"), "ms"),
        "transforms.concentrate_ms": (ms("transforms.concentrate"), "ms"),
    })
    for layer in spans.LAYERS:
        m[f"{layer}.errors"] = (errors(layer), "count")
    m["trace.overhead_share"] = (overhead, "share")
    m["trace.spans_per_op"] = (n_spans / n_ops, "count")
    return m


# -------------------------------------------------------------------- modes


def untraced(workload, seed, seconds, detail):
    """The closed loop of --trace 0; returns the ledger and end-to-end metrics."""
    cli = workload in workloads.CLI_WORKLOADS
    ledger = Ledger()
    with Launcher() if cli else contextlib.nullcontext() as launch:
        ops, setup_times = set_up(workload, seed, SETUP_REPEATS, launch)
        measure(ops, seconds, launch if cli else run_in_process, ledger)
    metrics, extra = end_to_end(ledger, setup_times, not cli)
    for name, (value, unit) in extra.items():
        print(f"# {name} = {value:.6g} {unit}")
    per_op = {}
    for op, res in ledger.records:
        per_op.setdefault(op.label, []).append(res.seconds)
    detail.update({"end_to_end": show(metrics), "extra": show(extra),
                   "setup_times_s": setup_times, "op_seconds": per_op})
    return ledger, metrics


def traced(workload, seed, seconds, tag, detail):
    """The in-process passes of --trace 1, untraced and traced alternating
    until `seconds`; returns the traced ledger and the per-layer metrics."""
    cli_ledger = None
    with Launcher() as launch:
        ops, _ = set_up(workload, seed, 1, launch)
        probes = import_probes(launch)
        if workload == "cli-fixtures":
            # One pass through child processes gives op_p50_ms for the shape check.
            cli_ledger = Ledger()
            measure(ops, 0, launch, cli_ledger)
    # Before the timed passes, so the RSS high-water mark has not yet been
    # raised by the same ops.
    memory = simulate_memory(ops)
    plain, ledger = Ledger(), Ledger()
    tracer = spans.Tracer()
    files = {"json_load_s": 0.0, "bytes": 0}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        measure(ops, 0, run_in_process, plain)
        traced_pass(tracer, ops, ledger, passes * len(ops))
        for op in ops:
            files["bytes"] += sum(os.path.getsize(path) for path in op.files)
            if op.files:
                t0 = time.perf_counter()
                with open(op.files[0], encoding="utf-8") as fh:
                    json.load(fh)
                files["json_load_s"] += time.perf_counter() - t0
        passes += 1

    stats = spans.summarize(tracer.spans)
    overhead = sum(ledger.seconds()) / sum(plain.seconds()) - 1.0
    stdout_bytes = sum(res.nbytes for _, res in ledger.records)
    metrics = per_layer(stats, len(ledger.records), passes, probes, files, stdout_bytes,
                        memory, overhead, len(tracer.spans))
    notes = shape_notes(workload, metrics, cli_ledger, ops, tracer)
    counts = spans.per_op_counts(tracer.spans)
    decomp = {op.label: counts.get(i, dict.fromkeys(spans.DECOMPOSITIONS, 0))
              for i, op in enumerate(ops)}

    print(f"# traced passes {passes}, {len(tracer.spans)} spans, ops per pass {len(ops)}")
    for line in notes:
        print(f"# shape {line}")
    print("# decompositions per op (eigh, eigvalsh, svd):")
    for label, c in decomp.items():
        print(f"#   {c['eigh']:5d} {c['eigvalsh']:5d} {c['svd']:5d}  {label}")
    spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json")
    tracer.write(spans_path, [op.label for op in ops])
    detail.update({"per_layer": show(metrics), "shape": notes, "decompositions": decomp,
                   "span_totals": stats, "spans_file": os.path.relpath(spans_path, ROOT)})
    return ledger, metrics


def shape_notes(workload, m, cli_ledger, ops, tracer):
    """The per-layer shape the sizing found, checked on this run."""
    v = {k: val for k, (val, _) in m.items()}
    notes = []

    def note(ok, text):
        notes.append(("holds" if ok else "DIFFERS") + ": " + text)

    if workload == "cli-large":
        pom = v["measurement.complete_pom_self_ms"]
        note(v["reports.render_machine_ms"] > pom,
             f"reports.render_machine_ms {v['reports.render_machine_ms']:.1f} > "
             f"measurement.complete_pom_self_ms {pom:.1f}")
        note(v["specio.read_spec_ms"] > pom,
             f"specio.read_spec_ms {v['specio.read_spec_ms']:.1f} > "
             f"measurement.complete_pom_self_ms {pom:.1f}")
    if workload == "cli-fixtures":
        p50 = 1e3 * statistics.median(cli_ledger.seconds())
        note(v["cli.import_ms"] > 0.5 * p50,
             f"cli.import_ms {v['cli.import_ms']:.1f} is {v['cli.import_ms'] / p50:.0%} "
             f"of op_p50_ms {p50:.1f} through child processes")
    if workload == "library-sweep":
        calls = {}
        for op_id, name, *_ in tracer.spans:
            if name == "transforms.apply_kraus" and op_id < len(ops):
                calls[op_id] = calls.get(op_id, 0) + 1
        transforms = [(i, op) for i, op in enumerate(ops) if op.kind == "transform"]
        off = [f"{op.label} made {calls.get(i, 0)}" for i, op in transforms
               if calls.get(i, 0) != int(re.search(r"-n(\d+)-", op.label).group(1)) + 1]
        note(not off, f"transforms.apply_kraus calls are n+1 on "
             f"{len(transforms) - len(off)} of {len(transforms)} transform ops"
             + ("; " + "; ".join(off) if off else ""))
    return notes


# ------------------------------------------------------------------- output


def show(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_detail(path, detail):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        preflight()
        os.makedirs(OUT_DIR, exist_ok=True)
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "provenance": provenance()}
        print(f"# maxconf benchmark {tag}")
        print("# provenance " + json.dumps(detail["provenance"], sort_keys=True))
        if args.trace:
            ledger, metrics = traced(args.workload, args.seed, args.seconds, tag, detail)
        else:
            ledger, metrics = untraced(args.workload, args.seed, args.seconds, detail)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    for label, reason in ledger.failures.items():
        print(f"# failed op: {label}: {reason}")
    detail["failures"] = ledger.failures
    write_detail(os.path.join(OUT_DIR, f"result-{tag}.json"), detail)
    attempted = ledger.attempted_count()
    failed = ledger.failed_count()
    if failed == attempted:
        print("bench: every op failed", file=sys.stderr)
        return 1
    result = {"correct": not ledger.wrong, "attempted": attempted, "failed": failed,
              "metrics": show(metrics)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
