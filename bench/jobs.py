"""Workloads of the benchmark: seeded job lists and every job's reference check.

A workload is a list of jobs run one after another by one client (a closed
loop). Each job calls a public entry point of ``hele_homog`` -- the CLI's
``main`` or a library function -- and its check compares the output with a
reference. References are computed by ``Workload.prepare`` outside every
timed section.

The seed draws job parameters within fixed ranges (q-range endpoints, the
superbarrier sampling seed, the y-phase of the curved medium). It never draws
grid sizes, horizons or job counts, so the work per pass barely depends on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from hele_homog import cli, homog1d
from hele_homog.medium import builtin_medium, estimate_bounds, parse_medium


@dataclass(frozen=True)
class Check:
    """One reference check; ratio is |error| / tolerance (0 for yes/no checks)."""

    name: str
    ok: bool
    ratio: float = 0.0


def near(name: str, value: float, ref: float, tol: float) -> Check:
    err = abs(value - ref)
    return Check(name, bool(err <= tol), err / tol)


def within(name: str, value, lo, hi, tol: float) -> Check:
    """value in [lo - tol, hi + tol]; ratio is the worst excess over tol."""
    value = np.asarray(value, dtype=float)
    excess = float(np.max(np.maximum(np.maximum(lo - value, value - hi), 0.0)))
    return Check(name, bool(excess <= tol), excess / tol)


def band(name: str, value, lo, hi) -> Check:
    """value in [lo, hi]; ratio is the worst distance from the band's middle
    over its half-width, so it is graded even when every value is inside."""
    value = np.asarray(value, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ratio = float(np.max(np.abs(value - mid) / half))
    return Check(name, bool(ratio <= 1.0), ratio)


def holds(name: str, condition) -> Check:
    return Check(name, bool(condition))


@dataclass
class CliRun:
    """Exit code and outputs of one in-process CLI invocation."""

    rc: int
    stdout: str
    files: dict
    fronts: Optional[np.ndarray] = None  # (saved fronts, ny, [t, y, h])

    @property
    def bytes_out(self) -> int:
        return len(self.stdout.encode()) + sum(len(t.encode())
                                               for t in self.files.values())


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    jobs: list
    params: dict
    prepare: Callable[[], None] = lambda: None


def parse_fronts(text: str, ny: int) -> np.ndarray:
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return rows.reshape(-1, ny, 3)


def max_slopes(fronts: np.ndarray) -> np.ndarray:
    """max |h_y| of every saved front (periodic centred differences)."""
    h = fronts[:, :, 2]
    dy = fronts[0, 1, 1] - fronts[0, 0, 1]
    hy = (np.roll(h, -1, axis=1) - np.roll(h, 1, axis=1)) / (2.0 * dy)
    return np.abs(hy).max(axis=1)


def cli_job(name: str, argv: list, outputs: dict, check: Callable,
            ny: Optional[int] = None) -> Job:
    """Run ``cli.main(argv)`` with stdout captured; outputs maps a key to a path.

    A nonzero exit code fails the job without running the content check.
    With ny given, outputs["out"] is a front CSV and is parsed into fronts.
    """
    def run() -> CliRun:
        for path in outputs.values():
            path.unlink(missing_ok=True)  # a stale file must never pass a check
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)  # looked up per call so a traced run sees its wrapper
        files = {k: p.read_text() for k, p in outputs.items() if p.exists()}
        out = CliRun(rc=rc, stdout=buf.getvalue(), files=files)
        if rc == 0 and ny is not None:
            out.fronts = parse_fronts(files["out"], ny)
        return out

    def checked(out: CliRun) -> list:
        if out.rc != 0:
            return [holds("exit code 0", False)]
        return [holds("exit code 0", True)] + check(out)

    return Job(name, run, checked)


def sim2d_run_job(name: str, flags: list, work: Path, check: Callable, ny: int) -> Job:
    """``sim2d run`` writing its front CSV and summary JSON under work."""
    front, summary = work / f"{name}.csv", work / f"{name}.json"
    return cli_job(name, ["sim2d", "run", *flags, "--out", str(front),
                          "--summary", str(summary)],
                   {"out": front, "summary": summary}, check, ny=ny)


def _sim_flags(**kw) -> list:
    argv = []
    for key, value in kw.items():
        argv += [f"--{key}", str(value)]
    return argv


def _pressure_checks(summary: dict, psi0: float) -> list:
    return [holds("pressure >= 0", summary["u_min"] >= -1e-12),
            holds("pressure <= psi0", summary["u_max"] <= psi0 + 1e-12)]


def _fronts_checks(out: CliRun, summary: dict) -> list:
    return [holds("every saved front written",
                  out.fronts.shape[0] == summary["saved_fronts"])]


# ----------------------------------------------------------------- strip2d

STRIP2D_Q_MID = 0.7 / (0.72 + 0.6 * 0.5)


def strip2d(rng: np.random.Generator, work: Path) -> Workload:
    """Flat-front 2D configs of the acceptance gate and the strip demo.

    The seed draws nothing: these are fixed CLI invocations.
    """
    refs: dict = {}

    def prepare():
        refs["v1d"] = homog1d.effective_velocity(
            builtin_medium("pinning"), STRIP2D_Q_MID, T=200.0).r_hat

    T1 = 0.3
    growth = _sim_flags(medium=1, dim=2, Lx=4, Ly=1, nx=64, ny=64, eps=0.5,
                        psi0=1, T=T1, h0=1)

    def check_growth(o: CliRun) -> list:
        summary = json.loads(o.files["summary"])
        exact = math.sqrt(1.0 + 2.0 * T1)
        depth = float(o.fronts[-1, :, 2].mean())
        return ([near("mean depth vs sqrt(h0^2 + 2 psi0 T)", depth, exact,
                      0.02 * exact)]
                + _pressure_checks(summary, 1.0) + _fronts_checks(o, summary))

    pinning = _sim_flags(medium="builtin:pinning2d", Lx=1.6, Ly=0.25, nx=128,
                         ny=8, eps=0.02, psi0=0.7, T=0.5, h0=0.72)

    def check_pinning(o: CliRun) -> list:
        summary = json.loads(o.files["summary"])
        return ([near("2D speed vs 1D effective velocity",
                      summary["front_speed_fit"], refs["v1d"], 0.03 * refs["v1d"])]
                + _pressure_checks(summary, 0.7) + _fronts_checks(o, summary))

    converge = _sim_flags(medium="builtin:pinning2d", Lx=1.6, Ly=0.25, nx=128,
                          ny=20, psi0=0.7, T=0.65, h0=0.72, eps="0.2,0.1,0.05")

    def check_converge(o: CliRun) -> list:
        report = json.loads(o.files["out"])
        d = [p["spacetime_distance"] for p in report["pairs"]]
        return [holds("space-time distances decrease",
                      len(d) == 2 and all(b <= a for a, b in zip(d, d[1:]))),
                holds("reported flag agrees", report["spacetime_distances_decreasing"])]

    jobs = [sim2d_run_job("sim2d_run_const_64x64", growth, work, check_growth, ny=64),
            sim2d_run_job("sim2d_run_pinning_128x8", pinning, work, check_pinning, ny=8),
            cli_job("sim2d_converge_128x20",
                    ["sim2d", "converge", *converge, "--out", str(work / "converge.json")],
                    {"out": work / "converge.json"}, check_converge)]
    return Workload("strip2d", jobs, {}, prepare)


# ---------------------------------------------------------- strip2d_curved

CURVED_RUNS = 3
CURVED_T = 0.15


def curved_medium(phase: float) -> str:
    return f"sin(pi*(x - t))^2 + 1 + sin(pi*(y + {phase!r}))^2/2"


def comparison_checks(fronts: np.ndarray, h0: float, psi0: float,
                      m: float, M: float, rel_tol: float = 0.02) -> list:
    """Every front point lies between the flat fronts of the speeds m and M."""
    t = fronts[:, :1, 0]
    lo = np.sqrt(h0 ** 2 + 2.0 * m * psi0 * t) * (1.0 - rel_tol)
    hi = np.sqrt(h0 ** 2 + 2.0 * M * psi0 * t) * (1.0 + rel_tol)
    return [band("front inside the comparison bounds", fronts[:, :, 2], lo, hi)]


def strip2d_curved(rng: np.random.Generator, work: Path) -> Workload:
    """A y-dependent medium, so the front curves and the stencil changes every step.

    Three short runs at seeded y-phases rather than one long one: each job's
    time is rescaled by the host speed measured at its two ends, which
    follows the host's drift better over a 2-s job than over a 6-s one.
    """
    phases = [round(float(p), 6) for p in rng.uniform(0.0, 1.0, size=CURVED_RUNS)]
    h0, psi0 = 1.0, 1.0
    refs: dict = {}

    def prepare():
        for phase in phases:
            b = estimate_bounds(parse_medium(curved_medium(phase), 2), resolution=64)
            refs[phase] = (b.m, b.M)

    def make(i: int, phase: float) -> Job:
        flags = _sim_flags(medium=curved_medium(phase), dim=2, Lx=4, Ly=1, nx=64,
                           ny=64, eps=0.25, psi0=psi0, T=CURVED_T, h0=h0)

        def check(o: CliRun) -> list:
            summary = json.loads(o.files["summary"])
            return (comparison_checks(o.fronts, h0, psi0, *refs[phase])
                    + _pressure_checks(summary, psi0) + _fronts_checks(o, summary))

        return sim2d_run_job(f"sim2d_run_curved_64x64_{i}", flags, work, check, ny=64)

    jobs = [make(i, phase) for i, phase in enumerate(phases)]
    return Workload("strip2d_curved", jobs, {"phases": phases}, prepare)


# ----------------------------------------------------------------- curve1d

MEDIA_1D = ("pinning", "antipinning", "two_wave", "static_sin")
CURVE_T = 200.0


def curve_checks(name: str, q: np.ndarray, r_hat: np.ndarray, T: float,
                 m: float, M: float, oracle_slope: Optional[float]) -> list:
    """Bounds, monotonicity, and the exact speeds known for two media."""
    err = 1.0 / T
    drop = max(float(np.max(r_hat[:-1] - r_hat[1:])), 0.0)
    checks = [within("m q <= r_hat <= M q", r_hat, m * q, M * q, err),
              near("r_hat nondecreasing", drop, 0.0, 2.0 * err)]
    if oracle_slope is not None:
        checks.append(near("static medium vs harmonic mean",
                           float(np.max(np.abs(r_hat - oracle_slope * q))), 0.0, err))
    if name == "pinning":
        plateau = (q >= 0.5) & (q <= 1.0)
        checks.append(holds("plateau sampled", plateau.any()))
        if plateau.any():
            checks.append(near("pinning plateau at speed 1",
                               float(np.max(np.abs(r_hat[plateau] - 1.0))), 0.0, 0.005))
    return checks


def curve1d(rng: np.random.Generator, work: Path) -> Workload:
    """Batched RK4 velocity curves: per-element work (400 q) and per-call overhead (50 q)."""
    grids = {400: (round(float(rng.uniform(0.40, 0.50)), 6),
                   round(float(rng.uniform(1.90, 2.10)), 6)),
             50: (round(float(rng.uniform(0.45, 0.55)), 6),
                  round(float(rng.uniform(1.45, 1.55)), 6))}
    media = {name: builtin_medium(name) for name in MEDIA_1D}
    refs: dict = {}

    def prepare():
        for name, g in media.items():
            b = estimate_bounds(g, resolution=256)
            refs[name] = (b.m, b.M)
        refs["static_slope"] = homog1d.harmonic_mean_oracle(media["static_sin"], 1.0)

    def make(name: str, samples: int) -> Job:
        qmin, qmax = grids[samples]

        def run():
            return homog1d.velocity_curve(media[name], qmin, qmax, samples, T=CURVE_T)

        def check(c) -> list:
            m, M = refs[name]
            slope = refs["static_slope"] if name == "static_sin" else None
            return curve_checks(name, c.q, c.r_hat, c.T, m, M, slope)

        return Job(f"curve{samples}_{name}", run, check)

    jobs = [make(name, samples) for samples in (400, 50) for name in MEDIA_1D]
    params = {f"q{n}": list(v) for n, v in grids.items()}
    return Workload("curve1d", jobs, params, prepare)


# ---------------------------------------------------------------- scalar1d

SCALAR_PAIRS = (("pinning", 0.75), ("pinning", 1.5), ("two_wave", 1.0),
                ("static_sin", 1.0))
SUPERBARRIER_MEDIUM = "1 + sin(pi*(x - t))^2/10"


def candidate_checks(name: str, q: float, r_lower: float, r_upper: float,
                     r_hat: float, T: float, oracle: Optional[float]) -> list:
    # at finite eps the two candidates may cross, so r_hat is checked
    # against the interval between them
    slack = 1e-4 + 1.0 / T
    checks = [within("r_hat between the candidates", r_hat, min(r_lower, r_upper),
                     max(r_lower, r_upper), slack)]
    if name == "pinning" and q == 0.75:
        checks += [near("pinned r_lower", r_lower, 1.0, 2e-2),
                   near("pinned r_upper", r_upper, 1.0, 2e-2)]
    if oracle is not None:
        checks.append(near("static medium vs harmonic mean", r_hat, oracle, 1.0 / T))
    return checks


def lambert_check(name: str, value: float, t: float, shift: float, ag: float) -> Check:
    """f(t) = t + shift - ag W(arg) with arg = (shift/ag) e^{(t+shift)/ag};
    the recovered W must satisfy W e^W = arg."""
    w = (t + shift - value) / ag
    arg = (shift / ag) * math.exp((t + shift) / ag)
    return near(name, w * math.exp(w), arg, 1e-12 * max(abs(arg), 1.0))


def scalar1d(rng: np.random.Generator, work: Path) -> Workload:
    """The medium and homog1d layers one scalar at a time, plus small CLI calls."""
    sample_seed = int(rng.integers(0, 2 ** 31 - 1))
    media = {name: builtin_medium(name) for name, _ in SCALAR_PAIRS}
    refs: dict = {}

    def prepare():
        refs["static"] = homog1d.harmonic_mean_oracle(media["static_sin"], 1.0)

    def make_pair(name: str, q: float) -> Job:
        def run():
            report = homog1d.homogenized_candidates(media[name], q)
            return report, homog1d.effective_velocity(media[name], q, T=CURVE_T)

        def check(out) -> list:
            report, est = out
            oracle = refs["static"] * q if name == "static_sin" else None
            return candidate_checks(name, q, report.r_lower, report.r_upper,
                                    est.r_hat, est.T, oracle)

        return Job(f"candidates_{name}_q{q}", run, check)

    jobs = [make_pair(name, q) for name, q in SCALAR_PAIRS]

    barrier_out = work / "superbarrier.json"

    def check_barrier(o: CliRun) -> list:
        data = json.loads(o.files["out"])
        return [holds("superbarrier passed", data["passed"]),
                holds("front points sampled", data["front_count"] > 0)]

    jobs.append(cli_job(
        "barrier_superbarrier_256",
        ["--seed", str(sample_seed), "barrier", "verify", "--kind", "superbarrier",
         "--n", "2", "--M", "1.2", "--mu", "1", "--chi0", "1", "--kappa", "0.01",
         "--t", "-0.1", "--c", "1e-6", "--eps", "1", "--samples", "256",
         "--medium", SUPERBARRIER_MEDIUM, "--dim", "2", "--out", str(barrier_out)],
        {"out": barrier_out}, check_barrier))

    for i, (q, r, m, M) in enumerate(((("0,-1"), 1.0, 1.0, 2.0),
                                      (("1,-1"), 0.8, 1.0, 2.5))):
        jobs.append(cli_job(
            f"geometry_report_{i}",
            ["geometry", "report", "--q", q, "--r", str(r), "--m", str(m),
             "--M", str(M)], {}, _geometry_check(r, m, M)))

    for i, (kind, alpha, gamma, lam, t) in enumerate((("super", 1.5, 1.0, 0.2, 0.2),
                                                      ("super", 1.5, 1.0, 0.2, 0.3),
                                                      ("sub", 0.5, 1.0, 0.2, 2.0))):
        jobs.append(cli_job(
            f"timescale_{kind}_{i}",
            ["timescale", "eval", "--kind", kind, "--alpha", str(alpha),
             "--gamma", str(gamma), "--lambda", str(lam), "--t", str(t)], {},
            _timescale_check(kind, alpha, gamma, lam, t)))

    return Workload("scalar1d", jobs, {"superbarrier_seed": sample_seed}, prepare)


def _geometry_check(r: float, m: float, M: float) -> Callable:
    theta = math.acos(math.sqrt(m / M))
    phi_minus = math.acos(m / M)
    theta_minus = math.pi / 2 + theta - phi_minus
    expected = {"theta": theta, "theta_plus": math.pi / 2 - theta,
                "phi_minus": phi_minus, "theta_minus": theta_minus,
                "rV_plus": (M / m) * r,
                "rV_minus": (1.0 - math.tan(theta) / math.tan(theta_minus)) * r}

    def check(o: CliRun) -> list:
        data = json.loads(o.stdout)
        return [near(f"geometry {k}", data[k], v, 1e-12) for k, v in expected.items()]

    return check


def _timescale_check(kind: str, alpha: float, gamma: float, lam: float,
                     t: float) -> Callable:
    shift = gamma - lam - alpha * gamma if kind == "super" else gamma + lam - alpha * gamma

    def check(o: CliRun) -> list:
        return [lambert_check(f"timescale {kind} closed form", float(o.stdout),
                              t, shift, alpha * gamma)]

    return check


WORKLOADS = {"strip2d": strip2d, "strip2d_curved": strip2d_curved,
             "curve1d": curve1d, "scalar1d": scalar1d}


def build(name: str, seed: int, work: Path) -> Workload:
    """The job list of a workload; the same seed gives the same jobs."""
    return WORKLOADS[name](np.random.default_rng(seed), work)
