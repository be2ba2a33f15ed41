"""Benchmark of hele_homog: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload strip2d --seed 1 --seconds 20 --trace 0

Workloads (see jobs.py for the job lists and their reference checks):
  strip2d         flat-front 2D runs: the acceptance configs through the CLI
  strip2d_curved  a y-dependent medium, so every step solves a curved-front stencil
  curve1d         batched RK4 velocity curves over the four 1D media (400 and 50 q)
  scalar1d        the same 1D layers one scalar at a time, plus small CLI calls

Each workload runs in its own fresh process (worker.py) as a closed loop with
one client. With --trace 0 the last stdout line holds the end-to-end metrics:
  setup_s        process start until the first job is ready; median of
                 SETUP_SAMPLES fresh processes; not rescaled, as import time
                 does not follow the reference kernel's speed
  wall_s, cpu_s  median wall and process CPU time of one pass over the jobs
                 after an untimed warm-up pass,
                 rescaled to the reference host speed: each job's time times
                 calibrate.REF_S over the time of a fixed reference kernel
                 run just before and after it (calibrate.py says why); the
                 raw medians are in the meta line and the result file
  peak_rss_mb    peak resident memory of the measuring process
  ref_err_ratio  largest |error| / tolerance over every reference check
  pass_frac      share of attempted jobs that raised nothing, exited 0 and
                 passed their checks
With --trace 1 a separate run wraps the public functions of each layer
(tracer.py) and reports the per-layer metrics; the spans go to
.bench_out/<workload>-seed<n>-spans.json. Every run also writes its full
result, with run metadata, to .bench_out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("strip2d", "strip2d_curved", "curve1d", "scalar1d")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ref_err_ratio": ("ratio", "lower"),
    "pass_frac": ("frac", "higher"),
}


class BenchError(Exception):
    pass


def run_worker(argv: list, deadline: float) -> tuple[float, str]:
    """Run worker.py; return its set-up time (until it prints ready) and the
    rest of its stdout. The worker is killed at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        rc = proc.wait()
    if ready.strip() != "ready" or rc != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with code {rc}")
    return setup, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hele_homog" / "__init__.py").is_file():
        print(f"no hele_homog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker([*common, "--setup-only"], deadline)[0])
        measure = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure += ["--spans", str(out_dir / f"{stem}-spans.json")]
        setup, rest = run_worker(measure, deadline)
        setups.append(setup)
        result = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, units = result["per_layer"], tracer.PER_LAYER
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
        units = END_TO_END
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {name: {"value": values[name], "unit": unit}
                         for name, (unit, _better) in units.items()}}
    meta = dict(result["meta"], raw_s=result.get("raw_s"), setup_samples_s=setups)
    record = dict(final, meta=meta, warmup=result["warmup"], passes=result["passes"])
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
