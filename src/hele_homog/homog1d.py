"""1D front homogenization: effective velocities from the reduced ODE.

The scaled front ODE x'(t) = q * g(x, t) turns the oscillating free-boundary
problem into a one-dimensional integration; long-time averages of x(T)/T
estimate the homogenized velocity r(q). Obstacle-clipped fronts measure the
flatness functionals whose decay thresholds define the candidate velocities
r_lower and r_upper.

Each numerical idea has one loop: `_rk4` integrates one front (a float q)
or a whole q-grid (an array q) with the same arithmetic, `_clipped` runs the
obstacle-clipped front with or without a stored trace, and `_bisect` halves
the candidate brackets for both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ._lazy import lazy
from .errors import (NumericalError, ValidationError, require_finite, require_integer,
                     require_positive)
from .medium import Medium, MediumBounds, _admit, estimate_bounds

quad = lazy("scipy.integrate", "quad")


@dataclass(frozen=True)
class FrontProblem:
    """Front ODE data: x' = q * g(x/eps, t/eps) from position x0."""

    medium: Medium
    q: float
    x0: float = 0.0
    eps: float = 1.0

    def __post_init__(self):
        _admit(self.medium, 1)
        require_positive(q=self.q, eps=self.eps)
        require_finite(x0=self.x0)


@dataclass(frozen=True, eq=False)
class FrontTrace:
    """Sampled front path: strictly increasing positions on a uniform grid."""

    times: np.ndarray
    positions: np.ndarray
    dt: float


class Side(Enum):
    SUB = "sub"
    SUPER = "super"


@dataclass(frozen=True, eq=False)
class ObstacleFront:
    """Clipped front dynamics staying on one side of the moving obstacle r*t."""

    q: float
    r: float
    eps: float
    side: Side
    trace: FrontTrace


@dataclass(frozen=True, eq=False)
class FlatnessTrace:
    """Running maximum detachment of a constrained front from the obstacle."""

    times: np.ndarray
    phi: np.ndarray
    side: Optional[Side] = None


@dataclass(frozen=True)
class VelocityEstimate:
    """Finite-T effective velocity r_hat = (x(T) - x0)/T with 1/T error bar."""

    q: float
    r_hat: float
    T: float
    error_bound: float
    refined: float


@dataclass(frozen=True, eq=False)
class VelocityCurve:
    """Effective-velocity samples over a q-grid with a shared error bound."""

    q: np.ndarray
    r_hat: np.ndarray
    refined: np.ndarray
    T: float
    error_bound: float


def _rk4(g, q, x0, T: float, steps: int, positions: Optional[np.ndarray] = None):
    """RK4 for x' = q * g(x, t) over `steps` steps; q, x0 floats or arrays.

    Returns the positions after steps//2 and after all steps, and stores
    step k in positions[k] when given (a q-array never stores its path).
    Raises NumericalError when a position is not finite or fails to increase.
    """
    h = T / steps
    half = 0.5 * h
    mid = steps // 2
    x = x_half = x0
    increasing = True
    for k in range(steps):
        t = k * h
        k1 = q * g(x, t)
        k2 = q * g(x + half * k1, t + half)
        k3 = q * g(x + half * k2, t + half)
        k4 = q * g(x + h * k3, t + h)
        x_next = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        increasing &= x_next > x
        x = x_next
        if positions is not None:
            positions[k + 1] = x
        if k + 1 == mid:
            x_half = x
    if not np.all(np.isfinite(x)):
        raise NumericalError("medium evaluation produced a non-finite front position")
    if not np.all(increasing):
        raise NumericalError("front positions failed to increase; reduce dt")
    return x_half, x


def integrate_front(p: FrontProblem, T: float, dt: float) -> FrontTrace:
    """Classical fourth-order one-step integration of the front ODE."""
    require_positive(T=T, dt=dt)
    steps = max(1, round(T / dt))
    positions = np.empty(steps + 1)
    positions[0] = x0 = float(p.x0)
    fn, inv = p.medium._fn, 1.0 / p.eps
    _rk4(lambda x, t: fn(x * inv, t * inv), p.q, x0, T, steps, positions)
    times = np.linspace(0.0, T, steps + 1)
    return FrontTrace(times=times, positions=positions, dt=T / steps)


def effective_velocity(medium: Medium, q: float, T: float = 100.0,
                       x0: float = 0.0, dt: float = 0.01) -> VelocityEstimate:
    """Estimate r(q) by (x(T) - x0)/T; the period squeeze gives error 1/T.

    Also reports a Richardson-style extrapolation from the T and T/2 averages.
    """
    p = FrontProblem(medium=medium, q=q, x0=x0, eps=1.0)
    r_hat, refined = map(float, _averages(medium, p.q, float(x0), T, dt))
    return VelocityEstimate(q=q, r_hat=r_hat, T=T, error_bound=1.0 / T,
                            refined=refined)


def _averages(medium: Medium, q, x0, T: float, dt: float):
    """(x(T) - x0)/T at eps = 1 and its extrapolation from the T/2 average,
    for a float q or an array q (with x0 of the same shape). The even step
    count near T/dt puts T/2 on a step."""
    if not 10 <= T < math.inf:
        raise ValidationError(f"T must be >= 10 and finite for a stable average, got {T}")
    require_positive(dt=dt)
    steps = max(2, round(T / dt))
    steps += steps % 2
    x_half, x_full = _rk4(medium._fn, q, x0, T, steps)
    r_hat = (x_full - x0) / T
    return r_hat, 2.0 * r_hat - (x_half - x0) / (T / 2.0)


def harmonic_mean_oracle(medium: Medium, q: float) -> float:
    """Effective velocity q / integral(1/g) for time-independent media.

    Independent quadrature route: no ODE integration is involved, so this
    value cross-checks effective_velocity on static media.
    """
    _admit(medium, 1)
    require_positive(q=q)
    xs = np.linspace(0.0, 1.0, 33)
    base = np.asarray(medium(xs, 0.0))
    for tt in (0.25, 0.5, 0.75):
        dev = float(np.abs(np.asarray(medium(xs, tt)) - base).max())
        if dev > 1e-9:
            raise ValidationError(
                f"medium is time-dependent (deviation {dev} at t={tt}); "
                "the harmonic-mean formula only applies to static media"
            )
    integral, _err = quad(lambda s: 1.0 / medium(s, 0.0), 0.0, 1.0,
                          epsabs=1e-12, epsrel=1e-12, limit=200)
    return q / integral


def _clipped(fn, q: float, r: float, eps: float, side: Side, T: float,
             steps: int, positions: Optional[np.ndarray] = None,
             phis: Optional[np.ndarray] = None) -> float:
    """Clipped front against the obstacle r*t; returns the final phi and
    stores step k in positions[k], phis[k], each when given. A non-finite g or
    front raises, naming t: NaN compares False and would snap to the obstacle.
    """
    h = T / steps
    inv = 1.0 / eps
    y = 0.0
    phi = 0.0
    is_super = side is Side.SUPER
    for k in range(steps):
        g = fn(y * inv, (k * h) * inv)
        free = y + h * q * g
        if not math.isfinite(free):
            raise NumericalError(
                f"medium g or the clipped front is not finite at t={k * h!r}")
        obstacle = r * (k + 1) * h
        if is_super:
            y = free if free > obstacle else obstacle
            d = y - obstacle
        else:
            y = free if free < obstacle else obstacle
            d = obstacle - y
        if d > phi:
            phi = d
        if positions is not None:
            positions[k + 1] = y
        if phis is not None:
            phis[k + 1] = phi
    return phi


def obstacle_front(medium: Medium, q: float, r: float, eps: float, side: Side,
                   T: float = 1.0, dt: Optional[float] = None
                   ) -> tuple[ObstacleFront, FlatnessTrace]:
    """Clipped explicit front staying above (Super) or below (Sub) r*t.

    Super side: y_{k+1} = max(y_k + dt*q*g^eps(y_k, t_k), r*t_{k+1}), with
    detachment phi = running max of (y - r*t); Sub side symmetric with min
    and r*t - z. The step must resolve the oscillation: dt <= eps/10.
    """
    _admit(medium, 1)
    require_positive(q=q, r=r, eps=eps, T=T)
    if not isinstance(side, Side):
        raise ValidationError(f"side must be a Side, got {side!r}")
    if dt is None:
        dt = eps / 20.0
    if not 0 < dt <= eps / 10.0 + 1e-15:
        raise ValidationError(f"dt must satisfy 0 < dt <= eps/10, got {dt}")
    steps = max(1, round(T / dt))
    positions = np.empty(steps + 1)
    phis = np.empty(steps + 1)
    positions[0] = phis[0] = 0.0
    _clipped(medium._fn, q, r, eps, side, T, steps, positions, phis)
    times = np.linspace(0.0, T, steps + 1)
    trace = FrontTrace(times=times, positions=positions, dt=T / steps)
    front = ObstacleFront(q=q, r=r, eps=eps, side=side, trace=trace)
    return front, FlatnessTrace(times=times, phi=phis, side=side)


@dataclass(frozen=True)
class FlatnessCheckReport:
    """Monotonicity and one-sided Lipschitz verification of a flatness trace."""

    monotone: bool
    lipschitz_ok: bool
    rate: float
    slack_rate: float
    max_excess: float
    passed: bool


def flatness_lipschitz_check(trace: FlatnessTrace, q: float, r: float,
                             bounds: MediumBounds,
                             side: Optional[Side] = None) -> FlatnessCheckReport:
    """Check phi nondecreasing and increments <= h*(rate + q*L*dt).

    The rate is (M*q - r)+ on the Super side and (r - m*q)+ on the Sub side;
    the q*L*dt term absorbs the explicit-step sampling of g along one step
    and the resolution bias of the estimated bounds.
    """
    side = side if side is not None else trace.side
    if side is None:
        raise ValidationError("flatness trace has no side; pass side explicitly")
    phi = np.asarray(trace.phi, dtype=float)
    times = np.asarray(trace.times, dtype=float)
    if phi.shape != times.shape or phi.size < 2:
        raise ValidationError("trace needs matching times/phi with >= 2 samples")
    dphi = np.diff(phi)
    h = np.diff(times)
    monotone = bool(np.all(dphi >= -1e-12))
    if side is Side.SUPER:
        rate = max(bounds.M * q - r, 0.0)
    else:
        rate = max(r - bounds.m * q, 0.0)
    dt = float(h.max())
    slack_rate = q * bounds.L * dt
    excess = dphi - h * (rate + slack_rate)
    max_excess = float(excess.max())
    lipschitz_ok = max_excess <= 1e-12
    return FlatnessCheckReport(monotone=monotone, lipschitz_ok=lipschitz_ok,
                               rate=rate, slack_rate=slack_rate,
                               max_excess=max_excess,
                               passed=monotone and lipschitz_ok)


@dataclass(frozen=True)
class CandidateReport:
    """Bisection output for the homogenized velocity candidates.

    r_lower is the largest obstacle speed whose Sub-side flatness stays below
    eps^beta for every eps in the list; r_upper the smallest speed whose
    Super-side flatness does. Iterating yields (r_lower, r_upper).
    """

    r_lower: float
    r_upper: float
    beta: float
    eps_list: tuple
    bounds: MediumBounds
    diagnostics: dict = field(compare=False)

    def __iter__(self):
        return iter((self.r_lower, self.r_upper))


def _eps_list(eps_list: Sequence[float], at_least: int) -> tuple:
    """eps_list as floats: at least at_least, finite, > 0, strictly decreasing."""
    eps_list = tuple(float(e) for e in eps_list)
    if len(eps_list) < at_least:
        raise ValidationError(f"eps_list needs at least {at_least} value(s)")
    require_positive(**{f"eps_list[{i}]": e for i, e in enumerate(eps_list)})
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps_list must be strictly decreasing")
    return eps_list


def _bisect(holds, good: float, bad: float) -> tuple[float, float]:
    """Halve the bracket to width <= 1e-4, keeping holds(good) true and
    holds(bad) false; good may lie on either side of bad."""
    while abs(bad - good) > 1e-4:
        mid = 0.5 * (good + bad)
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good, bad


_RESOLUTION = 80  # the anchors m*q and M*q, and so every candidate, depend on it


def homogenized_candidates(medium: Medium, q: float, beta: float = 0.9,
                           eps_list: Sequence[float] = (0.05, 0.02, 0.01, 0.005),
                           T: float = 1.0) -> CandidateReport:
    """Bisect the flatness-threshold predicates over r in [m*q, M*q].

    r holds on a side when its clipped front's flatness stays below eps^beta
    for every eps: r_lower is the sup of the Sub-side (nonincreasing)
    predicate from m*q, r_upper the inf of the Super-side (nondecreasing) one
    from M*q; bracket failures raise instead of clamping. At the step eps/20
    the clipped front at scale eps is eps*Y(t/eps) for Y at eps = 1, so each
    (r, side) costs one run of Y, read at each eps after
    K_eps = max(1, round(20*T/eps)) steps: at T when 20*T/eps is an integer,
    else at K_eps*eps/20, within eps/40 of T. diagnostics[side] holds the
    candidate, its flatness and threshold per eps, and the final bracket
    (good, bad), or (r, r) when the far anchor already holds.
    """
    _admit(medium, 1)
    require_positive(q=q, T=T)
    if not 0.8 < beta < 1.0:
        raise ValidationError(f"beta must lie in (4/5, 1), got {beta}")
    eps_list = _eps_list(eps_list, at_least=1)
    bounds = estimate_bounds(medium, resolution=_RESOLUTION)
    steps = {e: max(1, round(T / (e / 20.0))) for e in eps_list}
    K = max(steps.values())
    runs: dict = {}

    def flatness(r: float, side: Side) -> dict:
        if (r, side) not in runs:
            phis = np.zeros(K + 1)
            _clipped(medium._fn, q, r, 1.0, side, K / 20.0, K, phis=phis)
            runs[r, side] = {e: float(e * phis[k]) for e, k in steps.items()}
        return runs[r, side]

    def holds(r: float, side: Side) -> bool:
        return all(flatness(r, side)[e] < e ** beta for e in eps_list)

    diagnostics: dict = {"beta": beta, "eps_list": eps_list}
    thresholds = {e: e ** beta for e in eps_list}
    m_q, M_q = bounds.m * q, bounds.M * q
    for side, good, bad in ((Side.SUB, m_q, M_q), (Side.SUPER, M_q, m_q)):
        if not holds(good, side):
            raise NumericalError(
                f"candidate bracket failure: {side.value} side flatness exceeds "
                f"the threshold already at its anchor r = {good!r}")
        bracket = ((bad, bad) if holds(bad, side)
                   else _bisect(lambda r: holds(r, side), good, bad))
        diagnostics[side.value] = {"candidate": bracket[0],
                                   "flatness": flatness(bracket[0], side),
                                   "thresholds": thresholds, "bracket": bracket}
    return CandidateReport(diagnostics["sub"]["candidate"], diagnostics["super"]["candidate"],
                           beta, eps_list, bounds, diagnostics)


def velocity_curve(medium: Medium, q_min: float, q_max: float, samples: int,
                   T: float = 200.0, dt: float = 0.02,
                   x0: float = 0.0) -> VelocityCurve:
    """Effective velocities over a q-grid, integrated jointly in one sweep;
    each entry equals effective_velocity(medium, q, T, x0, dt).r_hat."""
    _admit(medium, 1)
    require_positive(qmin=q_min, qmax=q_max)
    require_finite(x0=x0)
    if not q_min < q_max:
        raise ValidationError(f"need qmin < qmax, got {q_min}, {q_max}")
    require_integer(2, samples=samples)

    qs = np.linspace(q_min, q_max, samples)
    r_hat, refined = _averages(medium, qs, np.full(qs.shape, float(x0)), T, dt)
    return VelocityCurve(q=qs, r_hat=r_hat, refined=refined,
                         T=T, error_bound=1.0 / T)
