"""Run one benchmark workload against rigrad and print its metrics as JSON.

    python3 bench/run.py --workload rig_stock --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: rigrad is imported from ``src/``, nothing
is installed.  One process drives the program one call at a time (a closed
loop with a single client; the ``cli`` workload calls ``rigrad.cli.main``).
Whole rounds of the workload's fixed operations are repeated until
``--seconds`` have passed.  Times, set-up and per-layer times included, are
reported at a reference machine speed (see ``speed.py``).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
which alternates untraced and traced rounds.
Full samples, the inputs' make-up and the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, for this process and the ones it starts.  With OpenBLAS's
# default of one thread per core, a rig_stock round took 11-18 s instead of
# about 2 s whenever the other core was busy; no number of runs averages that
# out.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (numpy after the thread setting above)
from speed import SetupProbe, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CheckFailed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 7

AXIOMS = ("Implementation", "Linearity", "Sensitivity", "SymmetryInvariance",
          "Completeness", "IsometryInvariance", "EuclideanRestriction", "EigenBound")

# per-layer time metrics: span name -> metric name, self time per attribution call
LAYER_SPANS = {
    "manifolds.geodesic_between": "manifolds.geodesic_between_ms",
    "transport.transport_along": "transport.transport_along_ms",
    "fields.coord_gradient": "fields.coord_gradient_ms",
    "quadrature.nodes_weights": "quadrature.nodes_weights_ms",
    "attribution": "attribution.self_ms",
    "attribution.eigen_attributions": "attribution.eigen_attributions_ms",
    "diagnostics.geodesic_residual": "diagnostics.geodesic_residual_ms",
}
LAYER_COUNTS = ("transport.rk4_steps", "transport.vectors_moved",
                "fields.gradient_evals", "quadrature.node_evals")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


# -- building the workload ---------------------------------------------------------


def build(name: str, inputs, workdir: Path):
    program = workloads.Program()
    return program, workloads.WORKLOADS[name](inputs, program, workdir)


def time_setup(args, inputs_path: Path) -> tuple[float, list[float], list[float]]:
    """Median time from starting a fresh interpreter until the workload is ready.

    The child loads the inputs this process drew, imports rigrad and builds
    rigrad's objects from them, so drawing the inputs (benchmark code) is not
    timed.  Once ready, the child measures the set-up probe, and the sample
    is scaled to the reference speed by it.  Returns the median, the raw wall
    times and the child's probe times.
    """
    probe = SetupProbe()
    samples, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(inputs_path)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            after = proc.stdout.readline()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if ready.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process exited {code} without getting ready")
        after = float(after)
        probe.samples.append(after)
        raw.append(elapsed)
        samples.append(elapsed * probe.scale(after))
    return statistics.median(samples), raw, probe.samples


def setup_only(args) -> int:
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        with open(args.setup_only, "rb") as handle:
            inputs = pickle.load(handle)
        build(args.workload, inputs, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(SetupProbe().measure(), flush=True)
    return 0


# -- running rounds -------------------------------------------------------------------


class Tally:
    """Per-op samples and the outcome counts of a run.

    Times are at the reference speed; ``raw_s`` keeps every op's wall time.
    """

    def __init__(self):
        self.call_s: list[float] = []
        self.suite_s: list[float] = []  # per round, the "suite" ops' total
        self.round_s: list[float] = []
        self.raw_s: list[float] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_round(ops, tally: Tally, probe: SpeedProbe, tracer: Tracer | None = None):
    """Run one round, each op's time scaled by the probes around it.  With a
    tracer, each op runs as a traced span and its spans get the same factor."""
    round_time = suite_time = 0.0
    call = tracer.run_op if tracer else (lambda fn: fn())
    before = probe.measure()
    for op in ops:
        tally.attempted += 1
        start = time.perf_counter()
        try:
            result = call(op.run)
            error = None
        except Exception as exc:  # recorded and judged below
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if error is not None:
            tally.failed += 1
            if op.expected_failure is None or not isinstance(error, op.expected_failure):
                tally.errors.append(f"{op.label}: {type(error).__name__}: {error}")
        else:
            try:
                op.check(result)
            except CheckFailed as exc:
                tally.errors.append(f"{op.label}: {exc}")
        tally.raw_s.append(elapsed)
        after = probe.measure()
        factor = probe.scale(before, after)
        before = after
        elapsed *= factor
        if tracer:
            tracer.scale_new_spans(factor)
        round_time += elapsed
        if op.kind == "suite":
            suite_time += elapsed
        else:
            tally.call_s.append(elapsed)
    tally.round_s.append(round_time)
    if suite_time:
        tally.suite_s.append(suite_time)
    tally.busy_s += round_time


def run_for(ops, seconds, probe: SpeedProbe) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_round(ops, tally, probe)
        if time.perf_counter() - start >= seconds:
            return tally


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(tally: Tally, setup_s: float) -> dict:
    suite = tally.suite_s or tally.round_s
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(tally.attempted / tally.busy_s, "1/s"),
        "call_ms_p50": metric(1000.0 * statistics.median(tally.call_s), "ms"),
        "call_ms_p90": metric(1000.0 * percentile(tally.call_s, 0.9), "ms"),
        "suite_s": metric(statistics.median(suite), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


# -- the traced run ----------------------------------------------------------------------


def cli_import_s() -> float:
    """Median of 3 fresh ``import rigrad.cli``, each scaled by the set-up
    probe measured in the same process after the import."""
    code = ("import sys, time; t = time.perf_counter(); import rigrad.cli; "
            "print(time.perf_counter() - t); "
            f"sys.path.insert(0, {str(BENCH)!r}); from speed import SetupProbe; "
            "print(SetupProbe().measure())")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = SetupProbe()
    samples = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        elapsed, probe_s = (float(x) for x in out.stdout.split())
        samples.append(elapsed * probe.scale(probe_s))
    return statistics.median(samples)


def traced(workload, program, seconds, is_cli):
    """Alternate untraced and traced rounds, so drift in the machine cancels.

    Both sides are timed at the reference speed, and every span is scaled by
    the factor of the op it belongs to.
    """
    plain, traced_tally = Tally(), Tally()
    tracer = Tracer(program.rg)
    probe = SpeedProbe()
    start = time.perf_counter()
    pairs = 0
    while True:
        # alternate which side of the pair goes first, so a cold first round
        # does not land on the same side every time
        for side in ((0, 1) if pairs % 2 == 0 else (1, 0)):
            if side == 0:
                run_round(workload.ops, plain, probe)
                continue
            tracer.install()
            try:
                run_round(workload.ops, traced_tally, probe, tracer)
            finally:
                tracer.uninstall()
        pairs += 1
        if time.perf_counter() - start >= seconds:
            break

    self_ns = tracer.self_times_ns()
    total_ns = tracer.total_times_ns()
    counts = tracer.counts
    ops = traced_tally.attempted
    calls = counts["attribution.calls"] or 1.0
    suites = len(traced_tally.suite_s)
    cli_calls = counts["cli.calls"] or 1.0

    metrics = {}
    for span, name in LAYER_SPANS.items():
        metrics[name] = metric(self_ns.get(span, 0) / 1e6 / calls, "ms")
    for name in LAYER_COUNTS:
        metrics[name] = metric(counts[name] / calls, "count")
    evaluated = counts["quadrature.node_evals"]
    metrics["quadrature.useful_node_ratio"] = metric(
        counts["quadrature.accepted_nodes"] / evaluated if evaluated else 0.0, "ratio")
    for axiom in AXIOMS:
        seconds_in = total_ns.get("axioms." + axiom, 0) / 1e9
        metrics[f"axioms.{axiom}_s"] = metric(seconds_in / suites if suites else 0.0, "s")
    metrics["axioms.bound_check_ms"] = metric(
        self_ns.get("axioms.bound_check", 0) / 1e6 / suites if suites else 0.0, "ms")
    metrics["report.write_ms"] = metric(total_ns.get("report.write", 0) / 1e6 / cli_calls, "ms")
    metrics["report.bytes_written"] = metric(counts["report.bytes_written"] / cli_calls, "count")
    metrics["cli.import_s"] = metric(cli_import_s() if is_cli else 0.0, "s")
    metrics["cli.self_ms"] = metric(self_ns.get("cli.main", 0) / 1e6 / cli_calls, "ms")

    # op times measured outside the tracer, at the reference speed
    traced_ms = 1000.0 * traced_tally.busy_s / ops
    plain_ms = 1000.0 * plain.busy_s / plain.attempted
    # the named layers' self times, without the time the "op" span itself covers
    layer_sum_ms = sum(v for k, v in self_ns.items() if k != "op") / 1e6 / ops
    metrics["trace.call_ms"] = metric(traced_ms, "ms")
    metrics["trace.untraced_call_ms"] = metric(plain_ms, "ms")
    metrics["trace.overhead_ms"] = metric(traced_ms - plain_ms, "ms")
    metrics["trace.layer_sum_ms"] = metric(layer_sum_ms, "ms")
    metrics["trace.layer_coverage"] = metric(layer_sum_ms / traced_ms, "ratio")

    if layer_sum_ms > traced_ms:
        traced_tally.errors.append(
            f"layer self times sum to {layer_sum_ms:.6f} ms per op, more than the "
            f"op time measured outside the tracer, {traced_ms:.6f} ms")
    traced_tally.errors.extend(plain.errors)
    layers = {"self_ms": {k: v / 1e6 for k, v in self_ns.items()},
              "total_ms": {k: v / 1e6 for k, v in total_ns.items()},
              "counts": dict(counts), "untraced_rounds": len(plain.round_s)}
    return traced_tally, metrics, layers, tracer


# -- main ---------------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rig_stock", "flat_wide", "loop_bam", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set-up child: build the workload from these pickled inputs, then exit
    parser.add_argument("--setup-only", metavar="INPUTS", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rigrad" / "__init__.py").is_file():
        return fail(f"no rigrad sources under {ROOT / 'src'}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    is_cli = args.workload == "cli"
    try:
        inputs = workloads.WORKLOADS[args.workload].draw(args.seed)
        if args.trace:
            program, workload = build(args.workload, inputs, workdir)
            tally, metrics, layers, tracer = traced(workload, program, args.seconds, is_cli)
            tracer.write_spans(OUT / f"{tag}-spans.csv.gz")
            raw = None
        else:
            workdir.mkdir(parents=True)
            inputs_path = workdir / "inputs.pkl"
            inputs_path.write_bytes(pickle.dumps(inputs))
            setup_s, setup_raw, setup_probe = time_setup(args, inputs_path)
            _, workload = build(args.workload, inputs, workdir)
            probe = SpeedProbe()
            tally = run_for(workload.ops, args.seconds, probe)
            metrics = end_to_end(tally, setup_s)
            layers = None
            raw = {"setup_s": setup_raw, "setup_probe_s": setup_probe,
                   "op_s": tally.raw_s, "probe_s": probe.samples}
        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(), "inputs": workload.describe(),
            "ops_per_round": [op.label for op in workload.ops], "rounds": len(tally.round_s),
            "call_ms": [1000.0 * t for t in tally.call_s], "suite_s": tally.suite_s,
            "round_s": tally.round_s, "errors": tally.errors, "metrics": metrics,
            "layers": layers, "raw": raw,
        }
        (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error in tally.errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not tally.errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
