"""Command-line front end: media checks, velocity curves, barriers, 2D runs.

Exit codes: 0 success, 1 validation/usage failure, 2 numerical failure.
All outputs are deterministic for a fixed invocation and seed; the
environment variable HELE_HOMOG_SEED (default 0) fixes sampling seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import barriers, geometry, homog1d, hs2d, timescale
from .errors import NumericalError, ValidationError, require_integer
from .medium import (BUILTIN_MEDIA, Medium, builtin_medium, check_periodicity,
                     estimate_bounds, parse_medium)


def _fmt(v) -> str:
    return repr(float(v))


def _emit(*outputs) -> None:
    """Write outputs given as text, path, ... (a None path is stdout). Files go
    to temporaries beside their targets, renamed into place once all are written."""
    pairs = list(zip(outputs[::2], outputs[1::2]))
    files = [(text, path, f"{path}.{os.getpid()}.tmp") for text, path in pairs if path]
    try:
        for text, path, temp in files:
            if os.path.isdir(path):  # os.replace would fail, maybe after other renames
                raise IsADirectoryError("Is a directory")
            Path(temp).write_text(text)
        for _, path, temp in files:
            os.replace(temp, path)
    except OSError as exc:
        for *_, temp in files:
            Path(temp).unlink(missing_ok=True)
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}")
    sys.stdout.write("".join(text for text, path in pairs if not path))


def _csv(header: list[str], columns) -> str:
    """CSV text of equal-length numeric columns, each value written as
    _fmt writes it. Each distinct value is written once and reused; values
    are told apart by their bits, so -0.0 and 0.0 stay distinct. A front
    file repeats one t per front and the same y on every front."""
    table = np.column_stack(columns).astype(float)
    keys, where = np.unique(table.ravel().view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
    rows = texts[where].reshape(table.shape).tolist()
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _float_list(text: str) -> list[float]:
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        vals = []
    if not vals:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}")
    return vals


def _seed(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("HELE_HOMOG_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise ValidationError(f"HELE_HOMOG_SEED must be an integer, got {raw!r}")
    require_integer(0, seed=seed)
    return seed


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number"}

# sim2d keys in flag order: kind, and the CLI's default where SimConfig has
# none (None: SimConfig's default applies, or, for medium, the key is required)
_SIM_FIELDS = {
    "medium": (str, None),
    "dim": (int, 2),
    "eps": (float, 0.1),
    "psi0": (float, 1.0),
    "T": (float, 1.0),
    "h0": (float, None),
    "Lx": (float, 2.0),
    "Ly": (float, 1.0),
    "nx": (int, 64),
    "ny": (int, 64),
    "cfl": (float, None),
    "dt": (float, None),
    "save_every": (int, None),
}
_MEDIUM_FIELDS = {"expr": str, "dim": int}


def _typed(value, kind, what: str):
    """value as kind: str takes a string, float any number, int an integral one."""
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    if not ok:
        raise ValidationError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer literal past the float range
        raise ValidationError(f"{what} is too large for {_KIND_NAMES[kind]}")


def _load_json_file(path: str, schema: dict, where: str) -> dict:
    """Read a {"version": 1, ...} JSON object; schema maps each allowed key to
    its kind. Returns the typed values without version; null means absent."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationError(f"cannot read {where}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must hold a JSON object")
    version = data.pop("version", None)
    if isinstance(version, bool) or version != 1:
        raise ValidationError(f"{where} needs \"version\": 1, got {version!r}")
    unknown = sorted(set(data) - set(schema))
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {', '.join(unknown)}")
    return {key: _typed(value, schema[key], f"{where}: \"{key}\"")
            for key, value in data.items() if value is not None}


def load_medium(spec: str, dim=None) -> Medium:
    """Resolve builtin:<name>, a JSON medium file, or a raw expression."""
    if spec.startswith("builtin:"):
        return builtin_medium(spec[len("builtin:"):])
    if spec.endswith(".json"):
        data = _load_json_file(spec, _MEDIUM_FIELDS, f"medium file {spec}")
        if "expr" not in data:
            raise ValidationError(f"medium file {spec} is missing \"expr\"")
        return parse_medium(data["expr"],
                            dim if dim is not None else data.get("dim", 1))
    return parse_medium(spec, dim if dim is not None else 1)


def _svg_curve(xs, ys, xlabel: str, ylabel: str) -> str:
    """Minimal standalone polyline plot."""
    W, H, m = 640.0, 480.0, 60.0
    xmin, xmax = float(min(xs)), float(max(xs))
    ymin, ymax = float(min(ys)), float(max(ys))
    if xmax - xmin < 1e-15:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax - ymin < 1e-15:
        ymin, ymax = ymin - 0.5, ymax + 0.5

    def sx(v):
        return m + (v - xmin) / (xmax - xmin) * (W - 2 * m)

    def sy(v):
        return H - m - (v - ymin) / (ymax - ymin) * (H - 2 * m)

    pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" height="{H:.0f}" '
        f'viewBox="0 0 {W:.0f} {H:.0f}">',
        f'<rect width="{W:.0f}" height="{H:.0f}" fill="white"/>',
        f'<line x1="{m}" y1="{H - m}" x2="{W - m}" y2="{H - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{H - m}" stroke="black"/>',
        f'<text x="{W / 2:.0f}" y="{H - 15:.0f}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="18" y="{H / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {H / 2:.0f})">{ylabel}</text>',
        f'<text x="{m}" y="{H - m + 18}" font-size="12" '
        f'text-anchor="middle">{xmin:.4g}</text>',
        f'<text x="{W - m}" y="{H - m + 18}" font-size="12" '
        f'text-anchor="middle">{xmax:.4g}</text>',
        f'<text x="{m - 8}" y="{H - m}" font-size="12" '
        f'text-anchor="end">{ymin:.4g}</text>',
        f'<text x="{m - 8}" y="{m + 4}" font-size="12" '
        f'text-anchor="end">{ymax:.4g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------- handlers


def _cmd_medium_check(args) -> int:
    if args.expr is not None and args.medium is not None:
        raise ValidationError("pass either --expr or --medium, not both")
    spec = args.expr if args.expr is not None else args.medium
    if spec is None:
        raise ValidationError("medium check needs --expr or --medium")
    g = (parse_medium(spec, args.dim if args.dim is not None else 1)
         if args.expr is not None else load_medium(spec, args.dim))
    bounds = estimate_bounds(g, resolution=args.resolution)
    per = check_periodicity(g, trials=args.trials)
    out = {
        "source": g.source,
        "dim": g.dim,
        "m": bounds.m,
        "M": bounds.M,
        "L": bounds.L,
        "resolution": bounds.resolution,
        "periodicity_max_deviation": per.max_deviation,
        "periodicity_trials": per.trials,
    }
    _emit(_json_text(out), args.out)
    return 0


def _cmd_rq_curve(args) -> int:
    g = load_medium(args.medium, args.dim)
    curve = homog1d.velocity_curve(g, args.qmin, args.qmax, args.samples,
                                   T=args.T, dt=args.dt)
    columns = (curve.q, curve.r_hat, np.full(len(curve.q), curve.error_bound))
    text = _csv(["q (gradient magnitude; dimensionless)",
                 "r_hat (front speed; length per unit time)",
                 "err (speed error bound 1/T; length per unit time)"], columns)
    svg = (_svg_curve(curve.q, curve.r_hat, "q", "r_hat"), args.svg) if args.svg else ()
    _emit(text, args.out, *svg)
    return 0


def _cmd_rq_obstacle(args) -> int:
    g = load_medium(args.medium, args.dim)
    side = homog1d.Side(args.side)
    front = homog1d.obstacle_front(
        g, q=args.q, r=args.r, eps=args.eps, side=side, T=args.T, dt=args.dt)
    columns = (front.times, front.positions, front.phi)
    text = _csv(["t (time units)",
                 "front (clipped front position; length units)",
                 "phi (running max detachment; length units)"], columns)
    _emit(text, args.out)
    return 0


def _cmd_rq_candidates(args) -> int:
    g = load_medium(args.medium, args.dim)
    eps_list = _float_list(args.eps)
    report = homog1d.homogenized_candidates(
        g, q=args.q, beta=args.beta, eps_list=eps_list, T=args.T)
    sys.stdout.write(f"r_lower = {_fmt(report.r_lower)}\n")
    sys.stdout.write(f"r_upper = {_fmt(report.r_upper)}\n")
    return 0


def _cmd_timescale_eval(args) -> int:
    if args.kind == "sub":
        s = timescale.SubScaling(alpha=args.alpha, gamma=args.gamma, lam=args.lam)
        value = timescale.f_sub(args.t, s)
    elif args.kind == "super":
        s = timescale.SuperScaling(alpha=args.alpha, gamma=args.gamma, lam=args.lam)
        value = timescale.f_super(args.t, s)
    else:
        sh = timescale.ThetaShift(gamma=args.gamma, lam=args.lam)
        value = timescale.theta_shift(args.t, sh)
    sys.stdout.write(f"{_fmt(value)}\n")
    return 0


def _cmd_barrier_verify(args) -> int:
    if args.kind == "expanding":
        b = barriers.expanding_barrier(n=args.n, m=args.m, K=args.K, A=args.A)
        res = barriers.check_expanding_fbc(b, args.t)
        out = {"kind": "expanding", "t": args.t, "rho": b.rho(args.t),
               "alpha": b.alpha, "residual": res}
        _emit(_json_text(out), args.out)
        return 0
    if args.kind == "contracting":
        def Kfun(s):
            return args.chi0 * s
        rho = barriers.contracting_radius(n=args.n, M=args.M, mu=args.mu,
                                          Kfun=Kfun, t=args.t)
        res = barriers.check_contracting_radius(args.n, args.M, args.mu, Kfun,
                                                args.t, rho)
        out = {"kind": "contracting", "t": args.t, "rho": rho, "residual": res}
        _emit(_json_text(out), args.out)
        return 0
    # superbarrier: perturbed contracting field vs a sampled medium
    require_integer(1, samples=args.samples)
    g = load_medium(args.medium, args.dim if args.dim is not None else args.n)
    field = barriers.PerturbedContractingField(
        n=args.n, M=args.M, mu=args.mu, chi0=args.chi0, kappa=args.kappa)
    rho = field.rho(args.t)
    if rho * 1.05 >= args.mu * 0.999:
        raise ValidationError(
            f"hole radius rho = {rho} too close to mu = {args.mu} for sampling"
        )
    rng = np.random.default_rng(args.seed)
    dirs = rng.normal(size=(args.samples, args.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(rho * 1.05, args.mu * 0.999, size=args.samples)
    samples = [(r * d, args.t) for r, d in zip(radii, dirs)]
    samples += [(rho * d, args.t) for d in dirs[: max(4, args.samples // 4)]]
    report = barriers.check_superbarrier(field, g, samples, c=args.c,
                                         eps=args.eps)
    out = {"kind": "superbarrier", "t": args.t, "rho": rho,
           "passed": report.passed, "margins": report.margins,
           "interior_count": report.interior_count,
           "front_count": report.front_count}
    _emit(_json_text(out), args.out)
    return 0 if report.passed else 2


def _cmd_geometry_report(args) -> int:
    q = np.array(_float_list(args.q))
    geom = geometry.cone_geometry(q, r=args.r, m=args.m, M=args.M)
    _emit(_json_text(geometry.geometry_report_dict(geom)), args.out)
    return 0


def _sim_config(args, **fixed) -> hs2d.SimConfig:
    """Merge the CLI defaults, the --config file, the flags and `fixed`, in
    that order."""
    values = {key: default for key, (_, default) in _SIM_FIELDS.items()
              if default is not None}
    if args.config:
        values.update(_load_json_file(
            args.config, {key: kind for key, (kind, _) in _SIM_FIELDS.items()},
            f"config {args.config}"))
    flags = vars(args)
    values.update((key, flags[key]) for key in _SIM_FIELDS
                  if flags.get(key) is not None)
    values.update(fixed)
    if "medium" not in values:
        raise ValidationError("sim2d needs a medium (--medium or config key)")
    medium = load_medium(values.pop("medium"), values.pop("dim"))
    domain = hs2d.StripDomain(**{key: values.pop(key)
                                 for key in ("Lx", "Ly", "nx", "ny")})
    return hs2d.SimConfig(domain=domain, medium=medium, **values)


def _cmd_sim2d_run(args) -> int:
    config = _sim_config(args)
    history = hs2d.simulate(config)
    # everything that can fail runs before the first write
    summary = {
        "T": config.T,
        "eps": config.eps,
        "psi0": config.psi0,
        "total_steps": history.total_steps,
        "saved_fronts": len(history.times),
        "final_mean_depth": float(history.heights[-1].mean()),
        "u_min": float(history.u_min.min()),
        "u_max": float(history.u_max.max()),
        "front_speed_fit": history.front_speed(0.25 * config.T, config.T),
    }
    points = history.spacetime_points(len(history.times))
    text = _csv(["t (time units)", "y (tangential position; length units)",
                 "h (front depth; length units)"], points.T)
    _emit(text, args.out, _json_text(summary), args.summary)
    return 0


def _cmd_sim2d_converge(args) -> int:
    eps_list = _float_list(args.eps_list)
    # the study sets eps per run, so the config holds the list's first value
    # for SimConfig's checks on eps (its resolution rule), not a default
    config = _sim_config(args, eps=eps_list[0])
    report = hs2d.convergence_study(config, eps_list)
    out = {
        "eps": list(report.eps_list),
        "speeds": list(report.speeds),
        "pairs": [
            {"eps_a": eps_a, "eps_b": eps_b,
             "final_distance": final, "spacetime_distance": spacetime}
            for eps_a, eps_b, final, spacetime in zip(
                report.eps_list, report.eps_list[1:], report.final_distances,
                report.spacetime_distances)
        ],
        "spacetime_distances_decreasing": report.distances_decreasing(),
    }
    _emit(_json_text(out), args.out)
    return 0


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _add_medium_flags(p, required: bool = True):
    p.add_argument("--medium", required=required,
                   help="builtin:<name>, a JSON medium file, or an expression; "
                        f"builtins: {', '.join(sorted(BUILTIN_MEDIA))}")
    p.add_argument("--dim", type=int, default=None,
                   help="space dimension for raw expressions (default 1)")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args
    keeps no state between calls, and its ~100 add_argument calls cost
    milliseconds."""
    top = _Parser(prog="hele-homog",
                  description="Homogenized front velocities for oscillatory "
                              "free-boundary flows.")
    top.add_argument("--seed", type=int, default=None,
                     help="sampling seed (overrides HELE_HOMOG_SEED)")
    sub = top.add_subparsers(dest="group", required=True)

    medium = sub.add_parser("medium", help="medium parsing and bounds")
    msub = medium.add_subparsers(dest="command", required=True)
    mc = msub.add_parser("check", help="parse a medium, report bounds and "
                                       "periodicity deviation")
    mc.add_argument("--expr", default=None, help="medium expression")
    _add_medium_flags(mc, required=False)
    mc.add_argument("--resolution", type=int, default=64)
    mc.add_argument("--trials", type=int, default=32)
    mc.add_argument("--out", default=None, help="write JSON here (default stdout)")
    mc.set_defaults(func=_cmd_medium_check)

    rq = sub.add_parser("rq", help="1D effective-velocity computations")
    rsub = rq.add_subparsers(dest="command", required=True)

    rc = rsub.add_parser("curve", help="sample r(q) over a gradient range")
    _add_medium_flags(rc)
    rc.add_argument("--qmin", type=float, required=True)
    rc.add_argument("--qmax", type=float, required=True)
    rc.add_argument("--samples", type=int, required=True)
    rc.add_argument("--T", type=float, default=200.0)
    rc.add_argument("--dt", type=float, default=0.02)
    rc.add_argument("--jobs", type=int, default=1,
                    help="ignored; accepted so existing command lines still run")
    rc.add_argument("--out", default=None, help="CSV path (default stdout)")
    rc.add_argument("--svg", default=None, help="optional SVG plot path")
    rc.set_defaults(func=_cmd_rq_curve)

    ro = rsub.add_parser("obstacle", help="clipped obstacle front and flatness")
    _add_medium_flags(ro)
    ro.add_argument("--q", type=float, required=True)
    ro.add_argument("--r", type=float, required=True)
    ro.add_argument("--eps", type=float, required=True)
    ro.add_argument("--side", choices=["sub", "super"], required=True)
    ro.add_argument("--T", type=float, default=1.0)
    ro.add_argument("--dt", type=float, default=None)
    ro.add_argument("--out", default=None, help="CSV path (default stdout)")
    ro.set_defaults(func=_cmd_rq_obstacle)

    rk = rsub.add_parser("candidates",
                         help="bisect the homogenized velocity candidates")
    _add_medium_flags(rk)
    rk.add_argument("--q", type=float, required=True)
    rk.add_argument("--beta", type=float, default=0.9)
    rk.add_argument("--eps", default="0.05,0.02,0.01,0.005",
                    help="decreasing comma list of oscillation scales")
    rk.add_argument("--T", type=float, default=1.0)
    rk.set_defaults(func=_cmd_rq_candidates)

    ts = sub.add_parser("timescale", help="nonlinear time rescalings")
    tsub = ts.add_subparsers(dest="command", required=True)
    te = tsub.add_parser("eval", help="evaluate a rescaling at a time")
    te.add_argument("--kind", choices=["sub", "super", "theta"], required=True)
    te.add_argument("--alpha", type=float, default=1.0)
    te.add_argument("--gamma", type=float, required=True)
    te.add_argument("--lambda", dest="lam", type=float, default=0.0)
    te.add_argument("--t", type=float, required=True)
    te.set_defaults(func=_cmd_timescale_eval)

    ba = sub.add_parser("barrier", help="radial barrier verification")
    bsub = ba.add_subparsers(dest="command", required=True)
    bv = bsub.add_parser("verify", help="check a barrier's defining laws")
    bv.add_argument("--kind", choices=["expanding", "contracting", "superbarrier"],
                    required=True)
    bv.add_argument("--n", type=int, default=2)
    bv.add_argument("--m", type=float, default=1.0, help="slow bound (expanding)")
    bv.add_argument("--M", type=float, default=1.0, help="fast bound")
    bv.add_argument("--K", type=float, default=1.0)
    bv.add_argument("--A", type=float, default=0.5)
    bv.add_argument("--mu", type=float, default=1.0)
    bv.add_argument("--chi0", type=float, default=1.0)
    bv.add_argument("--kappa", type=float, default=0.01)
    bv.add_argument("--t", type=float, default=1.0)
    bv.add_argument("--c", type=float, default=1e-6)
    bv.add_argument("--eps", type=float, default=1.0)
    bv.add_argument("--samples", type=int, default=64)
    bv.add_argument("--medium", default="1", help="medium for superbarrier checks")
    bv.add_argument("--dim", type=int, default=None)
    bv.add_argument("--out", default=None, help="JSON path (default stdout)")
    bv.set_defaults(func=_cmd_barrier_verify)

    ge = sub.add_parser("geometry", help="cone and matching-wave geometry")
    gsub = ge.add_subparsers(dest="command", required=True)
    gr = gsub.add_parser("report", help="angles and vertex speeds as JSON")
    gr.add_argument("--q", required=True, help="gradient vector, e.g. 0,-1")
    gr.add_argument("--r", type=float, required=True)
    gr.add_argument("--m", type=float, required=True)
    gr.add_argument("--M", type=float, required=True)
    gr.add_argument("--out", default=None, help="JSON path (default stdout)")
    gr.set_defaults(func=_cmd_geometry_report)

    s2 = sub.add_parser("sim2d", help="2D strip free-boundary simulator")
    ssub = s2.add_subparsers(dest="command", required=True)

    def _add_sim_flags(p, include_eps: bool = True):
        p.add_argument("--config", default=None, help="JSON config file")
        for key, (kind, _) in _SIM_FIELDS.items():
            if include_eps or key != "eps":
                p.add_argument("--" + key.replace("_", "-"), type=kind)

    sr = ssub.add_parser("run", help="run one simulation, write fronts + summary")
    _add_sim_flags(sr)
    sr.add_argument("--out", default=None, help="front CSV path (default stdout)")
    sr.add_argument("--summary", default=None,
                    help="summary JSON path (default stdout)")
    sr.set_defaults(func=_cmd_sim2d_run)

    sc = ssub.add_parser("converge", help="Hausdorff convergence study over eps")
    _add_sim_flags(sc, include_eps=False)
    sc.add_argument("--eps", dest="eps_list", required=True,
                    help="decreasing comma list, e.g. 0.2,0.1,0.05")
    sc.add_argument("--out", default=None, help="JSON path (default stdout)")
    sc.set_defaults(func=_cmd_sim2d_converge)

    return top


def dispatch(argv) -> int:
    """Parse argv and run the selected subcommand; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.seed = _seed(args)  # every command, so a bad seed never exits 0
    return args.func(args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return dispatch(argv)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except MemoryError as exc:  # a size past the memory, e.g. --samples or T/dt
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
