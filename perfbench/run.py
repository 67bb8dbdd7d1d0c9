"""hopfvar benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
The untraced run (--trace 0) reports the end-to-end metrics, the traced run
(--trace 1) the per-layer ones.  Every line before the last is a readable
report (machine, every metric by name with its unit and sample count, the
failure ratio); the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every operation
checked out.  See NOTE.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = Path("src")
SETUP_REPEATS = 7
MAX_THREADS = 2
SHOWN_FAILURES = 5
#: The timings are taken over the fastest passes, fastest first until they
#: hold this many operations (see NOTE.md).
POOL_OPS = 40

SETUP_CODE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), int(sys.argv[5])).warm()
"""


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    # the ceiling keeps git from looking above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, env=env, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


class Loop:
    """Runs passes of operations, checking and timing each one.

    Times are kept in flat arrays, so the benchmark's own memory stays small
    next to the program's however many operations a run holds.
    """

    def __init__(self):
        self.op_ms = array("d")     # every operation, in order
        self.pass_s = array("d")    # every pass
        self.pass_end = array("l")  # index into op_ms just past each pass
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, ops, tracer=None, kind="work") -> float:
        """Run ops in order; return the pass's wall time in seconds."""
        started = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                if tracer is None:
                    ok = op.run()
                else:
                    with tracer.operation(kind):
                        ok = op.run()
                error = "" if ok else "result does not check out"
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            self.op_ms.append(1e3 * (perf_counter() - t0))
            self.attempted += 1
            if error:
                self.failures.append(f"{op.label}: {error}")
        elapsed = perf_counter() - started
        self.pass_s.append(elapsed)
        self.pass_end.append(len(self.op_ms))
        return elapsed

    def passes(self) -> list[tuple[float, list[float]]]:
        """(pass time, [operation times]) of every pass."""
        starts = [0, *self.pass_end[:-1]]
        return [(elapsed, self.op_ms[lo:hi].tolist())
                for elapsed, lo, hi in zip(self.pass_s, starts, self.pass_end)]


def measure_setup(name: str, seed: int, threads: int) -> list[float]:
    """Wall time of fresh processes that import hopfvar and do the
    workload's lazy set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                        name, str(seed), str(threads)], check=True, timeout=120)
        times.append(perf_counter() - t0)
    return times


def untraced_run(workload, seconds: float):
    from summary import fastest_passes, tail
    setup = measure_setup(workload.name, workload.seed, workload.threads)
    workload.warm()
    loop = Loop()
    started = perf_counter()
    while not loop.pass_s or perf_counter() - started < seconds:
        loop.run_pass(workload.pass_ops(len(loop.pass_s)))
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    passes = loop.passes()
    times = list(loop.pass_s)
    pool, pool_times = fastest_passes(passes, POOL_OPS)
    every_op = list(loop.op_ms)
    tail_ms, pct, beyond = tail(pool)
    all_tail, all_pct, _ = tail(every_op)
    fast = f"the {len(pool_times)} fastest of {len(times)} passes"
    metrics = [
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} fresh processes"),
        ("verify_s", statistics.median(pool_times), "s",
         f"median of {fast} (all passes: {statistics.median(times):.6g})"),
        ("op_p50_ms", statistics.median(pool), "ms",
         f"median of the {len(pool)} ops in {fast} "
         f"(all {len(every_op)} ops: {statistics.median(every_op):.6g})"),
        ("op_tail_ms", tail_ms, "ms",
         f"p{pct:.2f} of the same {len(pool)} ops, {beyond} beyond"
         + ("" if beyond else ", too few ops for the rule: maximum")
         + f" (all ops: p{all_pct:.2f} {all_tail:.6g})"),
        ("peak_rss_mb", peak_rss_mb, "MB",
         "largest CLI process" if who == resource.RUSAGE_CHILDREN else "this process"),
    ]
    return loop, metrics


def traced_run(workload, seconds: float, out_dir: Path):
    import layers
    import workloads
    from tracer import Tracer, patched
    probes = layers.import_probes()
    workload.warm()
    tracer = Tracer()
    loop = Loop()
    plain, traced = [], []
    started = perf_counter()
    i = 0
    # untraced and traced passes alternate, so their difference is the
    # tracing overhead under the same conditions
    while not traced or (perf_counter() - started < seconds and not tracer.full):
        plain.append(loop.run_pass(workload.pass_ops(2 * i, in_process=True)))
        with patched(layers.TARGETS, tracer):
            traced.append(loop.run_pass(workload.pass_ops(2 * i + 1, in_process=True),
                                        tracer))
            if i == 0:
                loop.run_pass(workload.probe_ops(), tracer, kind="probe")
                # one in-process pass of the CLI commands gives cli.main_ms
                # on every workload
                cli_pass = workloads.CliOneshot(workload.seed, workload.threads)
                loop.run_pass(cli_pass.pass_ops(-1, in_process=True), tracer, kind="cli")
        i += 1
    values = layers.span_metrics(tracer, workload.threads)
    values.update(probes)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"spans-{workload.name}-seed{workload.seed}.json.gz"
    tracer.write(trace_file)
    notes = {
        "ffcount.cells_per_s": "computed: q^(r^2) / count_s",
        "ffcount.enumerate_s": "computed: count_s - commutant_s",
        "trace.overhead_s": f"traced minus untraced pass, {len(traced)}+{len(plain)} passes",
    }
    metrics = [(name, values[name], unit, notes.get(name, ""))
               for name, unit in layers.metric_names()]
    return loop, metrics, trace_file, len(tracer.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hopfvar" / "__init__.py").is_file():
        print("error: run from the root of a hopfvar checkout (no src/hopfvar)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    machine = machine_info()
    threads = min(MAX_THREADS, machine["nproc"])
    workload = workloads.build(args.workload, args.seed, threads)
    print("machine: " + json.dumps(machine))
    print(f"workload: {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} threads={threads}")

    if args.trace:
        loop, metrics, trace_file, n_spans = traced_run(
            workload, args.seconds, HERE / "out")
        print(f"spans: {n_spans} written to {trace_file.relative_to(HERE.parent)}")
    else:
        loop, metrics = untraced_run(workload, args.seconds)

    failed = len(loop.failures)
    for line in loop.failures[:SHOWN_FAILURES]:
        print(f"FAILED {line}")
    for name, value, unit, note in metrics:
        print(f"{name:<34} {value:>14.6g} {unit:<8} {note}")
    print(f"{'fail_ratio':<34} {failed / loop.attempted:>14.6g} {'ratio':<8} "
          f"{failed} of {loop.attempted} ops")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
