"""Run one workload in a fresh process; run.py starts it and reads its stdout.

The worker prints ``ready`` once ``hele_homog`` is imported and the job list
is built: that moment ends set-up. With --setup-only it exits there. Otherwise
it computes the references, runs one untimed warm-up pass, then passes over
the job list until --seconds have passed, and prints one JSON line with its
measurements. Job times are also rescaled to the reference host speed
(calibrate.py).

With --trace 1 it alternates untraced and traced passes, also traces the
set-up, times the probes of single public calls, and writes the spans to
--spans as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hele_homog  # noqa: E402  (set-up starts with this import)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from hele_homog import homog1d  # noqa: E402
from hele_homog.medium import builtin_medium  # noqa: E402

import jobs  # noqa: E402
import tracer as tr  # noqa: E402
from calibrate import KERNEL_SHARE, REF_S, HostSpeed  # noqa: E402

# two timed passes even where one pass takes most of --seconds (strip2d,
# whose pass takes about 9 s), so a run stays under a minute; with
# --trace 1 the passes alternate untraced and traced
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    cpu_s: float
    norm_wall_s: float | None  # rescaled to the reference host speed
    norm_cpu_s: float | None
    job_s: list  # (wall, cpu) of every job
    kernel_s: list  # (wall, cpu) of every reference kernel run
    attempted: int
    failed: int
    ratio: float
    bytes_out: int
    fronts: int
    curved_fronts: int


def run_pass(workload: jobs.Workload, tracer=None, tag: str = "",
             host: HostSpeed | None = None) -> PassResult:
    """One pass over the job list: every job runs and is checked in turn.

    With host given, the reference kernel runs before every job and after the
    last, outside the job's timing, and each job's wall and CPU time is also
    rescaled by REF_S over the mean of the kernel times on either side of it.
    """
    outputs = []
    failed = 0
    ratio = 0.0
    times = []  # (wall, cpu) of every job
    kernel = [host.sample(3 * REF_S)] if host else []
    for job in workload.jobs:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer:
            tracer.job = f"{tag}{job.name}"
            root = tracer.begin("job")
        try:
            out = job.run()
            checks = job.check(out)
        except Exception:  # a job that raises is a failed job; the pass goes on
            traceback.print_exc(file=sys.stderr)
            out, checks = None, [jobs.holds("raised no exception", False)]
        finally:
            if tracer:
                tracer.end(root)
        bad = [c.name for c in checks if not c.ok]
        if bad:
            failed += 1
            print(f"job {job.name} failed: {', '.join(bad)}", file=sys.stderr)
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        if host:
            kernel.append(host.sample(KERNEL_SHARE * times[-1][0]))
        ratio = max([ratio] + [c.ratio for c in checks])
        outputs.append(out)
    norm = [None, None]
    if host:
        norm = [sum(t[k] * 2.0 * REF_S / (before[k] + after[k])
                    for t, before, after in zip(times, kernel, kernel[1:]))
                for k in (0, 1)]

    clis = [o for o in outputs if isinstance(o, jobs.CliRun)]
    slopes = [jobs.max_slopes(o.fronts) for o in clis if o.fronts is not None]
    return PassResult(traced=tracer is not None, wall_s=sum(t[0] for t in times),
                      cpu_s=sum(t[1] for t in times),
                      norm_wall_s=norm[0], norm_cpu_s=norm[1],
                      job_s=times, kernel_s=kernel,
                      attempted=len(workload.jobs), failed=failed, ratio=ratio,
                      bytes_out=sum(o.bytes_out for o in clis),
                      fronts=sum(s.size for s in slopes),
                      curved_fronts=sum(int((s > 1e-9).sum()) for s in slopes))


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median seconds per call over `repeats` batches of `calls` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def probes() -> dict:
    """Single public calls timed on the argument shapes the 1D jobs use."""
    media = [builtin_medium(name) for name in jobs.MEDIA_1D]
    out = {}
    for key, x, calls in (("medium.call_scalar_us", 0.37, 2000),
                          ("medium.call_vec50_us", np.linspace(0.0, 1.0, 50), 1000),
                          ("medium.call_vec400_us", np.linspace(0.0, 1.0, 400), 500)):
        out[key] = 1e6 * statistics.mean(_per_call(lambda: g(x, 0.21), calls)
                                         for g in media)
    sweep = lambda: homog1d.obstacle_front(media[0], q=0.75, r=1.0, eps=0.005,
                                           side=homog1d.Side.SUB, T=1.0)
    out["homog1d.obstacle_front_ms"] = 1e3 * _per_call(sweep, 1)
    return out


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(workload: jobs.Workload, args) -> dict:
    src = ROOT / "src" / "hele_homog"
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params,
        "jobs": [j.name for j in workload.jobs],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
    }


def layer_report(tracer: tr.Tracer, passes: list, untraced: list) -> tuple[dict, float]:
    """Per-layer metrics (set-up spans plus the median traced pass) and the
    largest gap between a job's traced wall time and the sum of its self times."""
    own = tr.self_times(tracer.spans)
    error = 0.0
    for root in (s for s in tracer.spans if s.name == "job"):
        total = sum(own[id(s)] for s in tracer.spans if s.job == root.job)
        error = max(error, abs(total - (root.end - root.start)))

    samples = []
    for i, p in enumerate(passes):
        if not p.traced:
            continue
        tag = f"pass{i}:"
        spans = [s for s in tracer.spans if s.job == "setup" or s.job.startswith(tag)]
        m = tr.span_metrics(spans)
        m["hs2d.curved_step_share"] = p.curved_fronts / p.fronts if p.fronts else 0.0
        m["cli.bytes_out"] = p.bytes_out
        samples.append(m)
    layers = tr.median_metrics(samples)
    layers.update(probes())
    traced_wall = statistics.median(p.norm_wall_s for p in passes if p.traced)
    layers["trace.overhead_frac"] = (
        traced_wall / statistics.median(p.norm_wall_s for p in untraced) - 1.0)
    return layers, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="span dump path (--trace 1)")
    args = parser.parse_args(argv)

    if Path(hele_homog.__file__).resolve().parent != (ROOT / "src" / "hele_homog").resolve():
        print(f"hele_homog imported from {hele_homog.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    work = ROOT / ".bench_out" / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.job = "setup"
        root = tracer.begin("job")
    try:
        workload = jobs.build(args.workload, args.seed, work)
    finally:
        if tracer:
            tracer.end(root)
            tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload.prepare()
    host = HostSpeed()
    # an untimed first pass: the first strip2d pass runs about 10% slower
    # than the later ones, so a timed first pass would skew their median
    warmup = run_pass(workload, host=host)
    passes: list[PassResult] = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(workload, tracer if traced else None,
                                   tag=f"pass{len(passes)}:", host=host))
        finally:
            if traced:
                tracer.uninstall()

    attempted = sum(p.attempted for p in [warmup, *passes])
    failed = sum(p.failed for p in [warmup, *passes])
    result = {"attempted": attempted, "failed": failed, "correct": failed == 0,
              "meta": metadata(workload, args), "warmup": vars(warmup),
              "passes": [vars(p) for p in passes]}
    untraced = [p for p in passes if not p.traced]
    if not tracer:
        result["end_to_end"] = {
            "wall_s": statistics.median(p.norm_wall_s for p in untraced),
            "cpu_s": statistics.median(p.norm_cpu_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ref_err_ratio": max(p.ratio for p in [warmup, *passes]),
            "pass_frac": 1.0 - failed / attempted,
        }
        result["raw_s"] = {"wall_s": statistics.median(p.wall_s for p in untraced),
                           "cpu_s": statistics.median(p.cpu_s for p in untraced)}
    else:
        result["per_layer"], result["self_time_error_s"] = layer_report(
            tracer, passes, untraced)
        result["correct"] = result["correct"] and result["self_time_error_s"] < 1e-6
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"meta": result["meta"], "spans": tr.dump(tracer.spans)}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
