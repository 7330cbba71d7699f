"""Benchmark of sepnet's training loop on four workloads.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload iso2-scan --seed 1 --seconds 20 --trace 0

The run sets up the workload (its targets, structures and configs), then runs
whole rounds of the same operations until ``--seconds`` would be exceeded, at
least one round.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (per-round medians); with ``--trace 1`` plain
and traced rounds alternate and the metrics are the per-layer ones, read from
the traced rounds.  See bench/README.md.
"""
import os

# One BLAS/OpenMP thread; this must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "cpu_s": "s", "batches_per_cpu_s": "1/s",
    "train_batches": "count", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "model.assemble_us": "us", "model.backward_us": "us", "optim.loss_us": "us",
    "optim.update_us": "us", "optim.batch_us.p50": "us", "optim.batch_us.p99": "us",
    "optim.train_calls": "count", "optim.batches": "count", "optim.plateau_share": "ratio",
    "scan.self_ms": "ms", "certify.calls": "count", "certify.train_s": "s",
    "certify.self_ms": "ms", "certify.projection_ms": "ms", "certify.projection_iters": "count",
    "states.build_ms": "ms", "bench.self_ms": "ms", "trace.overhead": "ratio",
}


def import_sepnet():
    """Import sepnet from this checkout's ``src``; exit with an error if it is not there."""
    if not (SRC / "sepnet" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'sepnet'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sepnet
    if SRC not in Path(sepnet.__file__).resolve().parents:
        sys.exit(f"bench: imported sepnet from {sepnet.__file__}, not from {SRC}")


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def read_proc_stat():
    """(steal, idle + iowait, total) jiffies of the host, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], fields[3] + fields[4], sum(fields)


def host_shares(before, after) -> str:
    if before is None or after is None or after[2] <= before[2]:
        return "steal n/a, idle n/a"
    total = after[2] - before[2]
    return (f"steal {100 * (after[0] - before[0]) / total:.1f}%, "
            f"idle {100 * (after[1] - before[1]) / total:.1f}%")


def environment() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, {threads}, "
            f"cpu {cpu} x{os.cpu_count()}")


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import sepnet and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-probe"], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(wl, inputs, recorder, tracer=None):
    """One round; returns (outcome, wall seconds, cpu seconds)."""
    if tracer is not None:
        tracer.install()
    w0, c0 = time.perf_counter(), cpu_seconds()
    try:
        outcome = tracer.run(wl.round, inputs, recorder) if tracer else wl.round(inputs, recorder)
    finally:
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        if tracer is not None:
            tracer.restore()
    return outcome, wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's default seed 1)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seed = 1 if args.seed is None else args.seed

    import_sepnet()
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.build(seed)
        return 0

    host0 = read_proc_stat()
    print(f"# {args.workload} seed {seed}: {environment()}", flush=True)
    setup_s = None if args.trace else setup_seconds(args.workload, seed)
    build_ms = []
    for _ in range(3 if args.trace else 1):
        t0 = time.perf_counter()
        inputs = wl.build(seed)
        build_ms.append(1e3 * (time.perf_counter() - t0))

    recorder = tracing.Recorder()
    recorder.install()
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []   # (outcome, wall, cpu) per round
    start = time.perf_counter()
    try:
        while True:
            plain.append(run_round(wl, inputs, recorder))
            if tracer is not None:
                traced.append(run_round(wl, inputs, recorder, tracer))
            done = time.perf_counter() - start
            per_step = done / len(plain)
            if done + per_step > args.seconds:
                break
    finally:
        recorder.restore()
    host1 = read_proc_stat()

    rounds = plain + traced
    outcomes = [r[0] for r in rounds]
    problems = [m for o in outcomes for m in o.problems()]
    first = outcomes[0]
    for i, o in enumerate(outcomes[1:], 1):
        if o.signature != first.signature or o.batches != first.batches:
            problems.append(f"round {i} differs from round 0 on the same inputs "
                            f"({o.batches} against {first.batches} batches)")
    errors = [m for o in outcomes for m in o.errors]
    for msg in dict.fromkeys(problems + errors):
        print(f"# problem: {msg}", file=sys.stderr)

    walls = [r[1] for r in plain]
    cpus = [r[2] for r in plain]
    print(f"# {len(plain)} plain and {len(traced)} traced rounds of {first.attempted} operations; "
          f"round wall {', '.join(f'{w:.3f}' for w in walls)} s; host {host_shares(host0, host1)}", flush=True)

    if tracer is None:
        metrics = {
            "cpu_s": statistics.median(cpus),
            "batches_per_cpu_s": sum(o.batches for o, _, _ in plain) / sum(cpus),
            "train_batches": first.batches,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        traced_cpu = statistics.median(r[2] for r in traced)
        metrics = tracer.metrics(len(traced))
        metrics["states.build_ms"] = statistics.median(build_ms)
        metrics["trace.overhead"] = traced_cpu / statistics.median(cpus)
        self_sum = tracer.self_total_s()
        print(f"# trace: layer self times sum to {self_sum:.3f} s, traced cpu_s {sum(r[2] for r in traced):.3f} s "
              f"({100 * self_sum / sum(r[2] for r in traced):.1f}%)", flush=True)
        units = PER_LAYER_UNITS

    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
