"""graphmover benchmark: one workload, one closed loop, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload letters-query --seed 1 --seconds 10 --trace 0

The library is imported from the checkout's ``src`` directory. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run measures half of its time
untraced and half traced, and reports both throughputs. Each run also writes
its result, with an environment block, to
``.perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # set-up is repeated and its median reported
IMPORT_LIBRARY = "import graphmover.experiments, graphmover.letters"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_library() -> None:
    """Import the library in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", IMPORT_LIBRARY], cwd=SRC, check=True,
                   capture_output=True, timeout=120)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_phase(workload, seconds: float) -> dict:
    """Closed loop: step until `seconds` have passed and a pass is complete.

    Op times are scaled to the reference speed (see speed.py); `raw_busy_s`
    is their unscaled sum."""
    attempted = failed = 0
    meter = speed.Speedometer()
    timed = []  # (seconds, index of the probe before) of each op that returned
    start = time.perf_counter()
    while True:
        index = meter.mark()
        attempted += 1
        try:
            elapsed, bad = workload.step()
        except Exception:  # an op that raises counts as failed; the loop goes on
            traceback.print_exc()
            failed += 1
        else:
            failed += bad
            timed.append((elapsed, index))
        if attempted % workload.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    meter.close()
    latencies_ms = [1e3 * elapsed * meter.scale(index) for elapsed, index in timed]
    busy = sum(latencies_ms) / 1e3
    raw_busy = sum(elapsed for elapsed, _ in timed)
    return {"attempted": attempted, "failed": failed, "busy_s": busy,
            "ops_per_s": len(timed) / busy if busy else 0.0,
            "raw_busy_s": raw_busy, "raw_ops_per_s": len(timed) / raw_busy if raw_busy else 0.0,
            "latencies_ms": latencies_ms, "probes_s": meter.probes, "timed": timed}


def scaled_seconds(fn) -> tuple[float, float]:
    """(scaled, raw) seconds of one call, scaled by probes taken around it."""
    before = speed.probe()
    start = time.perf_counter()
    fn()
    raw = time.perf_counter() - start
    return raw * speed.scale_between(before, speed.probe()), raw


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphmover" / "__init__.py").is_file():
        print(f"error: no graphmover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphmover
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(graphmover.__file__).resolve().is_relative_to(SRC):
        print(f"error: graphmover imported from {graphmover.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment(args)
    print("env " + json.dumps(env))
    state = ROOT / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    try:
        extra = {}  # printed and kept in the result file, not registered
        setup_times = []  # (scaled, raw) seconds of each set-up
        synth = None
        for rep in range(SETUP_REPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            if args.trace and rep == SETUP_REPS - 1:
                synth = tracing.Tracer()
                synth.install_synth()
            workload = workloads.WORKLOADS[args.workload]()
            try:
                setup_times.append(scaled_seconds(lambda: workload.setup(args.seed, workdir)))
            finally:
                if synth is not None:
                    synth.uninstall()

        if args.trace:
            plain = run_phase(workload, args.seconds / 2)
            workload.steps = 0  # the traced half replays the same inputs
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, args.seconds / 2)
            finally:
                tracer.uninstall()
            tracer.measure_peak_alloc()
            phases = (plain, traced)
            metrics = {**tracer.metrics(),
                       "letters.synth.self_s": synth.self_ns["letters.synth"] / 1e9,
                       "trace.ops": traced["attempted"],
                       "trace.coverage": tracer.top_ns / 1e9 / traced["raw_busy_s"],
                       "trace.traced_ops_per_s": traced["ops_per_s"],
                       "trace.untraced_ops_per_s": plain["ops_per_s"]}
        else:
            phase = run_phase(workload, args.seconds)
            phases = (phase,)
            lat = phase["latencies_ms"]
            metrics = {"ops_per_s": phase["ops_per_s"],
                       "op_p50_ms": statistics.median(lat) if lat else 0.0}
            # reported, not registered: on a shared host it moves between runs
            # of one program by about as much as any useful bound
            extra["op_p99_ms"] = percentile(lat, 0.99) if lat else 0.0
        attempted = sum(p["attempted"] for p in phases)
        failed = sum(p["failed"] for p in phases)
        try:
            failed += workload.check()
        except Exception:
            traceback.print_exc()
            failed = attempted
        failed = min(failed, attempted)
        if not args.trace:
            metrics["peak_rss_mb"] = peak_rss_mb()
            # the imports run after the peak RSS is read, as they are children too
            setup_times = [tuple(map(sum, zip(times, scaled_seconds(import_library))))
                           for times in setup_times]
            metrics["setup_s"] = statistics.median(scaled for scaled, _ in setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = tracing.UNITS if args.trace else {
        "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
        "peak_rss_mb": "MB"}
    extra["failed_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"  {name:32s} {value:.6g} {units.get(name, '')}  (not registered)")
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw = {"setup_times_s": setup_times,
           "ops_per_s": [p["raw_ops_per_s"] for p in phases],
           "speed_probes_s": [p["probes_s"] for p in phases],
           "ops": [p["timed"] for p in phases]}
    out.write_text(json.dumps({"environment": env, **result, "extra": extra, "unscaled": raw},
                              indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
