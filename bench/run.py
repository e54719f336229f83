"""spinrad benchmark: one closed-loop client running a workload's op mix in process.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client runs whole passes over the workload's op mix, each op
after the previous one completes, until ``--seconds`` of op time are spent.
With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs untraced and traced passes in turn and reports
the per-layer metrics of one pass.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it, each starting
with ``#``, record the run and explain every number.

Latencies are scaled to a nominal machine speed (see ``speed.py``): on a
shared machine the raw wall times of identical ops drift by a fifth within a
minute, which would hide any change smaller than that.  The raw figures are
reported beside the scaled ones.

An op that exits non-zero or fails an output check counts in ``failed``.
``correct`` is false when the run itself cannot be trusted: an op whose
output bytes change between repeats of the same input, a traced output that
differs from the untraced one, work counts that differ between traced passes,
a layer whose traced calls contradict ``bench/predictions.json``, or metrics
that differ from those ``BENCHMARK.json`` lists.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in the set-up probes
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5         # fresh interpreters timed for setup_s
PROBE_TIMEOUT_S = 60.0
TRACED_SHARE = 0.5       # share of --seconds the traced run spends traced
MIN_PASSES = 2           # work counts and output bytes are compared between passes


def import_program():
    """Import spinrad from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "spinrad" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src / 'spinrad'}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import spinrad
    if Path(spinrad.__file__).resolve().parent != (src / "spinrad").resolve():
        sys.exit(f"bench: imported spinrad from {spinrad.__file__}, not from {src}")


def setup_probe(workload, seed, directory):
    """Child side of setup_s: import the program, make the inputs, report the clock."""
    import_program()
    import workloads
    workloads.build(workload, directory, seed)
    print(repr(perf_counter()))


def measure_setup(workload, seed, work):
    """Median wall time from spawning a fresh interpreter to its first op being ready.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
    Probes run one at a time.
    """
    samples = []
    for i in range(SETUP_PROBES):
        directory = work / f"setup{i}"
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(directory),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
        shutil.rmtree(directory)
    return samples


class Runner:
    """Runs ops in one output slot per op, hashing and checking each result.

    With ``slowdown`` set (``speed.slowdown``), the machine-speed reference
    runs right after each op, and ``scaled`` holds the op latencies at
    nominal machine speed.
    """

    def __init__(self, ops, work, slowdown=None):
        self.ops = ops
        self.work = work
        self.slowdown = slowdown
        self.latencies = []                  # wall seconds per measured op
        self.scaled = []                     # seconds at nominal machine speed
        self.failures = {}                   # op name -> (count, first problem)
        self.digests = {}                    # op index -> sha256 of its first result
        self.mismatches = []                 # op names whose repeat changed its bytes
        self.bytes_written = 0

    def slot(self, index):
        path = self.work / "out" / f"op{index:02d}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def run(self, index, tracer=None, measured=True):
        op = self.ops[index]
        out = self.slot(index)
        root = tracer.begin_op(op.name) if tracer else None
        t0 = perf_counter()
        try:
            result = op.execute(out)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if tracer:
            tracer.end_op(root, seconds)
        slowdown = self.slowdown() if self.slowdown else None
        problems = [error] if error else op.problems(out, result)
        if error is None:
            data = op.output_bytes(out, result)
            self.bytes_written += sum(p.stat().st_size for p in out.iterdir())
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(index, digest) != digest:
                self.mismatches.append(op.name + (" (traced)" if tracer else ""))
        if measured:
            self.latencies.append(seconds)
            if slowdown:
                self.scaled.append(seconds / slowdown)
            if problems:
                count, first = self.failures.get(op.name, (0, problems[0]))
                self.failures[op.name] = (count + 1, first)
        return seconds

    def passes(self, seconds, min_passes=1, tracer=None):
        """Whole passes over the op mix until `seconds` of op time have been measured.

        Returns the op time of each pass.
        """
        passes = []
        while len(passes) < min_passes or sum(passes) < seconds:
            passes.append(sum(self.run(i, tracer=tracer) for i in range(len(self.ops))))
        return passes

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(count for count, _ in self.failures.values())


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_info(args, ops):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "op_mix": [op.name for op in ops],
    }


def report(line):
    print(f"# {line}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, ops, runner, setup_samples):
    """--trace 0: the metrics a user sees, tracing off, at nominal machine speed."""
    runner.passes(args.seconds, MIN_PASSES)
    lat_ms = [s * 1e3 for s in runner.scaled]
    raw_ms = [s * 1e3 for s in runner.latencies]
    p90 = percentile(lat_ms, 90)
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "ops_per_s": metric(len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report(f"setup_s {metrics['setup_s']['value']:.4f} s "
           f"(median of n={len(setup_samples)} fresh interpreters: "
           + ", ".join(f"{s:.4f}" for s in setup_samples) + ")")
    report(f"ops_per_s {metrics['ops_per_s']['value']:.4f} 1/s (n={len(lat_ms)} ops in "
           f"{len(lat_ms) // len(ops)} passes of {len(ops)}; raw "
           f"{len(raw_ms) / (sum(raw_ms) / 1e3):.4f})")
    report(f"op_p50_ms {metrics['op_p50_ms']['value']:.4f} ms (n={len(lat_ms)}; raw "
           f"{statistics.median(raw_ms):.4f})")
    report(f"op_p90_ms {p90:.4f} ms (n={len(lat_ms)}, {sum(v > p90 for v in lat_ms)} samples "
           f"beyond; raw {percentile(raw_ms, 90):.4f})")
    report(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB (ru_maxrss of this process)")
    report(f"failed_ops_ratio {runner.failed / runner.attempted:.4f} "
           f"({runner.failed}/{runner.attempted} ops)")
    steps = [op for op in ops if hasattr(op, "ensemble_seconds")]
    for op in steps:
        secs = op.ensemble_seconds[1:]  # the first call is the warm-up
        report(f"traj_steps_per_s {op.traj_steps / min(secs):.6g} 1/s (fastest of "
               f"n={len(secs)} ensembles of {op.n_traj} x {op.n_steps}; median "
               f"{op.traj_steps / statistics.median(secs):.6g})")
    return metrics, []


def per_layer(args, ops, runner, tracer_mod):
    """--trace 1: untraced and traced passes in turn; layer metrics per pass.

    Alternating the two exposes them to the same drift of machine speed, so
    the difference of their median pass rates is the tracing overhead.
    """
    problems = []
    tracer = tracer_mod.Tracer()
    untraced, traced, per_pass = [], [], []
    while len(traced) < MIN_PASSES or sum(traced) < TRACED_SHARE * args.seconds:
        untraced += runner.passes(0.0)
        counts, written, first_op = tracer.counts.copy(), runner.bytes_written, len(tracer.ops)
        tracer.install()
        try:
            traced += runner.passes(0.0, tracer=tracer)
        finally:
            tracer.uninstall()
        # work of this pass: counters, bytes written and layer calls must repeat exactly
        work = tracer.counts - counts
        layer_calls = tracer.layer_times(root for _, root in tracer.ops[first_op:])
        for name, value in layer_calls.items():
            if name.endswith(".calls"):
                work[name] = value
        work["cli.bytes_written"] = runner.bytes_written - written
        per_pass.append(work)
    n_traced = len(traced)
    untraced_rate = len(ops) / statistics.median(untraced)
    traced_rate = len(ops) / statistics.median(traced)

    for i, work in enumerate(per_pass[1:], start=2):
        diff = sorted(k for k in set(work) | set(per_pass[0]) if work[k] != per_pass[0][k])
        if diff:
            problems.append(f"work counts of traced pass {i} differ from pass 1: {diff}")

    counts = per_pass[0]
    times = tracer.layer_times(root for _, root in tracer.ops)
    values = {}
    for layer in tracer_mod.LAYERS:
        values[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        values[f"{layer}.busy_s"] = (times[f"{layer}.busy_s"] / n_traced, "s")
        values[f"{layer}.self_s"] = (times[f"{layer}.self_s"] / n_traced, "s")
    for name in ("material.epsilon.calls", "material.bose.calls", "scattering.flux.calls",
                 "quadrature.integrals", "quadrature.integrand_evals", "quadrature.failed",
                 "radiation.integrate_power.calls", "radiation.mode_flux.calls",
                 "rotor.moments.evals", "rotor.langevin.traj_steps", "rotor.law.evals"):
        values[name] = (counts[name], "count")
    values["cli.bytes_written"] = (counts["cli.bytes_written"], "bytes")
    values["quadrature.evals_per_integral"] = (
        counts["quadrature.integrand_evals"] / counts["quadrature.integrals"]
        if counts["quadrature.integrals"] else 0.0, "count")
    values["rotor.moments.unique_ratio"] = (
        counts["rotor.moments.distinct"] / counts["rotor.moments.evals"]
        if counts["rotor.moments.evals"] else 0.0, "ratio")
    for span, kind in (("rotor.langevin_step", "self_s"), ("rotor.simulate", "self_s"),
                       ("rotor.fokker_planck", "busy_s")):
        values[f"{span}.{kind}"] = (times[f"{span}.{kind}"] / n_traced, "s")
    values["trace.ops_per_s_delta"] = (untraced_rate - traced_rate, "1/s")

    # wrapper self-test against the layer -> workload predictions
    expected = json.loads((BENCH / "predictions.json").read_text())["workloads"][args.workload]
    for name in expected["nonzero"]:
        if not values[name][0] > 0:
            problems.append(f"self-test: {name} is 0 on {args.workload}")
    for name in expected["zero"]:
        if values[name][0] != 0:
            problems.append(f"self-test: {name} = {values[name][0]} on {args.workload}, expected 0")

    report(f"ops_per_s of the median pass: untraced {untraced_rate:.4f} "
           f"(n={len(untraced)} passes), traced {traced_rate:.4f} (n={n_traced} passes); "
           f"tracing overhead {untraced_rate - traced_rate:.4f} ops/s "
           f"({1 - traced_rate / untraced_rate:.1%})")
    report("per pass over the op mix:")
    for name, (value, unit) in values.items():
        report(f"  {name} {value:.6g} {unit}")
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "ops": [{"id": op_id, "name": name, "tree": root.as_dict()}
                for op_id, (name, root) in enumerate(tracer.ops)],
        "work_per_pass": [dict(sorted(w.items())) for w in per_pass],
    }))
    report(f"span trees written to {trace_file.relative_to(ROOT)}")
    return {name: metric(v, unit) for name, (v, unit) in values.items()}, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.setup_probe)

    import_program()
    import speed
    import tracer as tracer_mod
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    os.chdir(ROOT)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, work)
        ops = workloads.build(args.workload, work / "inputs", args.seed)
        report("run " + json.dumps(run_info(args, ops)))
        runner = Runner(ops, work, slowdown=None if args.trace else speed.slowdown)
        runner.run(0, measured=False)  # warm-up: lazy imports and first-call set-up
        if args.trace:
            metrics, problems = per_layer(args, ops, runner, tracer_mod)
        else:
            metrics, problems = end_to_end(args, ops, runner, setup_samples)
        runner.run(0, measured=False)  # determinism: the first op again, same bytes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems += [f"output bytes of {name} changed on a repeat" for name in runner.mismatches]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace
                                                               else "end_to_end"]
    if sorted(m["name"] for m in listed) != sorted(metrics):
        problems.append("metrics differ from those BENCHMARK.json lists")
    for name, (count, first) in sorted(runner.failures.items()):
        report(f"failed {name} x{count}: {first}")
    for problem in problems:
        report(f"INCORRECT {problem}")
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
