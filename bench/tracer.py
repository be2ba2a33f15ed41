"""In-memory spans around the public functions of each ``hele_homog`` layer.

The benchmark wraps the functions listed in TARGETS at every module attribute
that is bound to them, so calls made inside the package (``convergence_study``
calling ``simulate``, the CLI handlers, ``check_superbarrier``) are caught
too. ``uninstall`` puts every original binding back. A span records its name,
start, end, parent span and job id; self time is the duration minus the time
covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time


def _simulate_attrs(bound: inspect.BoundArguments, result) -> dict:
    d = bound.arguments["config"].domain
    return {"steps": result.total_steps, "unknowns": (d.nx - 1) * d.ny}


def _curve_attrs(bound: inspect.BoundArguments, result) -> dict:
    # the joint RK4 sweep takes an even number of steps of size T/steps
    a = bound.arguments
    steps = max(2, round(a["T"] / a["dt"]))
    steps += steps % 2
    return {"qsteps": a["samples"] * steps}


# (module, function, span name, recorder of exact counts from the call)
TARGETS = (
    ("hele_homog.hs2d", "simulate", "hs2d.simulate", _simulate_attrs),
    ("hele_homog.hs2d", "convergence_study", "hs2d.convergence_study", None),
    ("hele_homog.hs2d", "hausdorff", "hs2d.hausdorff", None),
    ("hele_homog.medium", "parse_medium", "medium.parse_medium", None),
    ("hele_homog.medium", "estimate_bounds", "medium.estimate_bounds", None),
    ("hele_homog.medium", "eval_scaled", "medium.eval_scaled", None),
    ("hele_homog.homog1d", "velocity_curve", "homog1d.velocity_curve", _curve_attrs),
    ("hele_homog.homog1d", "homogenized_candidates",
     "homog1d.homogenized_candidates", None),
    ("hele_homog.homog1d", "effective_velocity", "homog1d.effective_velocity", None),
    ("hele_homog.barriers", "check_superbarrier", "barriers.check_superbarrier", None),
    ("hele_homog.barriers", "contracting_radius", "barriers.contracting_radius", None),
    ("hele_homog.geometry", "cone_geometry", "geometry.cone_geometry", None),
    ("hele_homog.timescale", "f_super", "timescale.f_super", None),
    ("hele_homog.timescale", "lambert_w0", "timescale.lambert_w0", None),
    ("hele_homog.cli", "main", "cli.main", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name: str, parent, job):
        self.name = name
        self.parent = parent  # the enclosing Span, or None
        self.job = job
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Span recorder; install() wraps TARGETS, uninstall() restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self.job = None

    def begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else None, self.job)
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str, recorder):
        signature = inspect.signature(fn) if recorder else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if recorder:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = recorder(bound, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hele_homog" or n.startswith("hele_homog.")]
        for module_name, attr, name, recorder in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name, recorder)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved = []


def self_times(spans: list) -> dict:
    """Duration of every span minus the time its direct children cover.

    Spans of one thread nest, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    own = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.end - s.start
    return own


def dump(spans: list) -> list:
    """Spans as JSON rows; parent is the row index of the enclosing span."""
    row = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": None if s.parent is None else row[id(s.parent)], "job": s.job}
            for s in spans]


def span_metrics(spans: list) -> dict:
    """Per-layer metrics of the spans of one traced pass (0 for unused layers).

    X.calls counts spans named X; X_s sums their durations, counting only the
    outermost span of a name so a function reached through two wrapped
    bindings is not counted twice.
    """
    own = self_times(spans)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}_s"] = 0.0
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for s in spans:
        if s.name not in self_s:
            continue
        out[f"{s.name}.calls"] += 1
        self_s[s.name] += own[id(s)]
        p = s.parent
        while p is not None and p.name != s.name:
            p = p.parent
        if p is None:
            out[f"{s.name}_s"] += s.end - s.start

    sims = [s.attrs for s in spans if s.name == "hs2d.simulate"]
    steps = sum(a["steps"] for a in sims)
    out["hs2d.steps"] = steps
    out["hs2d.unknowns"] = max((a["unknowns"] for a in sims), default=0)
    out["hs2d.step_ms"] = 1e3 * self_s["hs2d.simulate"] / steps if steps else 0.0
    qsteps = sum(s.attrs["qsteps"] for s in spans if s.name == "homog1d.velocity_curve")
    out["homog1d.rk4_qsteps"] = qsteps
    out["homog1d.rk4_qstep_ns"] = (1e9 * self_s["homog1d.velocity_curve"] / qsteps
                                   if qsteps else 0.0)
    out["cli.self_s"] = self_s["cli.main"]
    return out


SPAN_NAMES = [name for _m, _a, name, _r in TARGETS]

# name -> (unit, better)
PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}_s"] = ("s", "lower")
PER_LAYER.update({
    "hs2d.steps": ("count", "lower"),
    "hs2d.unknowns": ("count", "lower"),
    "hs2d.step_ms": ("ms", "lower"),
    "hs2d.curved_step_share": ("frac", "higher"),
    "medium.call_scalar_us": ("us", "lower"),
    "medium.call_vec50_us": ("us", "lower"),
    "medium.call_vec400_us": ("us", "lower"),
    "homog1d.rk4_qsteps": ("count", "lower"),
    "homog1d.rk4_qstep_ns": ("ns", "lower"),
    "homog1d.obstacle_front_ms": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("B", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
})


def median_metrics(samples: list) -> dict:
    """Per-metric median over passes; a value that repeats exactly is kept as is."""
    out = {}
    for key in samples[0]:
        values = [s[key] for s in samples]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
