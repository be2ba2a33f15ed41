"""1D front homogenization: effective velocities from the reduced ODE.

The scaled front ODE x'(t) = q * g(x, t) turns the oscillating free-boundary
problem into a one-dimensional integration; long-time averages of x(T)/T
estimate the homogenized velocity r(q). Obstacle-clipped fronts measure the
flatness functionals whose decay thresholds define the candidate velocities
r_lower and r_upper.

Each numerical idea has one loop: `_rk4` integrates one front (a float q)
or a whole array of fronts with the same arithmetic, `_averages` turns a
q-array into effective velocities: the exact rotation number p/k where the
time-1 map's own RK4 points certify a lock (g is 1-periodic in t, so the
orbit is that map iterated), and otherwise long-time averages, by
iterating each q's tabulated time-1 map (where the map is too distorted to
tabulate whole, as near a locking plateau, the table composes maps over
recursive halves of the period) or, where no table within its budget
resolves the map, by the direct orbit (on the float kernel for a lone such
q), `_clipped` runs the obstacle-clipped front, storing its trace or
reading phi at given steps and stopping once a read-out must fail, and
`_bisect` halves the candidate brackets for both sides. Every step is capped
by medium._resolved_step at the speed bound q M. The scalar loops evaluate
the medium through its float kernel and coerce their scalars to Python
floats, so they run on float arithmetic with the bits the NumPy kernel
would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (NumericalError, ValidationError, _eps_list, require_finite,
                     require_integer, require_positive, require_steps, shown)
from .medium import Medium, MediumBounds, _admit, _resolved_step, estimate_bounds


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
    """Effective velocity with a 1/T error bar: the exact rotation number p/k
    where the time-1 map certifies a lock (`locked` = k, else 0), otherwise
    the finite-T average r_hat = (x(T) - x0)/T; the time-1 table has
    `stages` stage maps of `nodes` nodes each, both 0 where the row locked
    or the orbit ran directly."""

    q: float
    r_hat: float
    T: float
    error_bound: float
    nodes: int
    stages: int
    locked: int


@dataclass(frozen=True, eq=False)
class VelocityCurve:
    """Effective-velocity samples over a q-grid with a shared error bound and
    each q's time-1 table: its nodes per stage and stages (both 0: a locked
    row or the direct orbit), and the denominator k of each certified lock
    r_hat = p/k (0: no lock certified)."""

    q: np.ndarray
    r_hat: np.ndarray
    T: float
    error_bound: float
    nodes: np.ndarray
    stages: np.ndarray
    locked: np.ndarray


def _rk4(g, q, x0, T: float, steps: int, t0: float = 0.0):
    """RK4 for x' = q * g(x, t) over `steps` steps of T/steps from time t0;
    q, x0 floats or arrays. Returns the final position.
    Raises NumericalError when a position is not finite or fails to increase.
    """
    h = T / steps
    half = 0.5 * h
    x = x0
    increasing = True
    for k in range(steps):
        t = t0 + k * h
        k1 = q * g(x, t)
        k2 = q * g(x + half * k1, t + half)
        k3 = q * g(x + half * k2, t + half)
        k4 = q * g(x + h * k3, t + h)
        x_next = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        increasing &= x_next > x
        x = x_next
    if not np.all(np.isfinite(x)):
        raise NumericalError("medium evaluation produced a non-finite front position")
    if not np.all(increasing):
        raise NumericalError("front positions failed to increase; reduce dt")
    return x


def effective_velocity(medium: Medium, q: float, T: float = 100.0,
                       x0: float = 0.0, dt: float = 0.01) -> VelocityEstimate:
    """Estimate r(q) by (x(T) - x0)/T; the period squeeze gives error 1/T.
    Where the RK4 time-1 map certifies a lock (see _averages), r_hat is its
    rotation number p/k exactly and `locked` is k. This is velocity_curve's
    kernel on a one-element q-array, with its error_bound (see there); the
    defaults differ (dt = 0.01 here, 0.02 there). Where no table resolves
    the map and no lock is certified, r_hat is the direct orbit's average,
    on the float kernel, as for a curve's lone direct-orbit q.
    """
    _admit(medium, 1)
    require_positive(q=q)
    require_finite(x0=x0)
    r_hat, nodes, stages, locked = _averages(medium, np.array([float(q)]), float(x0), T, dt)
    return VelocityEstimate(q=q, r_hat=float(r_hat[0]), T=T, error_bound=1.0 / T,
                            nodes=int(nodes[0]), stages=int(stages[0]),
                            locked=int(locked[0]))


_FIRST_NODES = 16  # the first table; each later one doubles it
# A table is trusted when its interpolants reproduce D_q to _TOL at
# _WITNESSES: 13 points frac(k*phi), phi the golden ratio, spread over [0, 1)
# and off every lattice j/N, so no node spacing aliases onto them (a medium
# of x-period 1/N reads the same at every node). They bound the map's error
# there only: two_wave's table of 2 stages of 256 nodes at q = 0.83847
# (T = 200) is 1.9e-9 off at them and 2.98e-8 on 1000 points of [0, 1). A map
# moved by delta moves the rotation number, and so r_hat, by at most delta.
_TOL = 1e-8
_WITNESSES = np.arange(1.0, 14.0) * (math.sqrt(5.0) - 1.0) / 2.0 % 1.0
# A table costs one period of _rk4 per node and per witness, and a split one
# period per node. A q's tables may cost _BUDGET times the T periods of its
# direct orbit, so a q whose table does not resolve costs at most three
# orbits. A table pays NumPy's fixed cost per RK4 step (~500 entries' worth on
# the builtins) once for its block's rows, the batched orbit in each of its
# T/dt steps. On the benchmark's eight velocity curves (seed 1: four builtins,
# 400 and 50 q, T = 200; 254 q lock), a budget of one orbit leaves 168 q to
# that orbit and takes 1.9-2.3x the time of _BUDGET = 2, which leaves none;
# _BUDGET = 3 takes 0.99x (measured at 128-row blocks). Rows are independent,
# so _BLOCK changes no bit: 128 rows ran those curves ~7% faster than 64 and
# 256 ~4% faster still, but a 400-q curve's traced peak (T = 20, dt = 0.02)
# is 381 KB at 128 and 519 KB at 256, past the 400 KB that flags a stored path.
_BUDGET = 2
_BLOCK = 128
# Locking (Poincare): if Phi^k(x) - x - p takes both signs for an integer p,
# Phi^k has a point moved by p exactly and the rotation number is p/k. A q
# is tested on the first table's 29 points, by more than _LOCK_MARGIN (far
# above the rounding of one period), and only where Phi^k keeps their
# cyclic order, as the lift of an orientation-preserving circle map must.
# k = 1 costs nothing more, k = 2 one more period on the 29 points, paid
# only by a q about to need a table of more than _LOCK_NODES nodes, a split,
# or the direct orbit (testing k <= 6 too made the benchmark's 400-q two_wave
# curve 10% slower).
_LOCK_MARGIN = 1e-9
_LOCK_NODES = 64


def _averages(medium: Medium, q: np.ndarray, x0: float, T: float, dt: float):
    """r_hat at eps = 1, and the node and stage counts of each q's table
    and the denominator k of each certified lock, for a q-array.

    A q whose time-1 map certifies a lock (see _tables) gets r_hat = p/k
    exactly, its rotation number, and no table (nodes = stages = 0). Every
    other q gets the finite-T average (x(T) - x0)/T. A q takes steps of 1/n,
    n = max(round(1/dt), ceil(1/_resolved_step(medium, 1, q M))) (M the
    admitted bound of g; dt <= 1, so n >= 1): a tabled q's orbit is the
    time-1 map Phi_q applied floor(T) times, each application the
    composition of its table's stage maps. The fractional period
    f = T - floor(T) is integrated directly from t = 0 (g is 1-periodic in
    t) in round(f*n) steps, at least one. The other q run the direct orbit,
    round(T/h) RK4 steps, h = dt where n = round(1/dt), else 1/n, on the
    float kernel where one q of its n does.
    """
    if not 10 <= T < math.inf:
        raise ValidationError(f"T must be >= 10 and finite for a stable average, got {shown(T)}")
    require_positive(T=T, dt=dt)  # and so no int past the float range
    if dt > 1.0:
        raise ValidationError(f"dt must be <= 1, the period of g, got {dt}")
    require_steps(T, dt)  # so 1/dt too, as T >= 10
    fn, M, n_dt, f = medium._fn, _admit(medium, 1).M, round(1.0 / dt), T - math.floor(T)
    step = np.array([_resolved_step(medium, 1.0, s) for s in (q * M).tolist()])
    require_steps(T, step.min())  # so 1/step too
    per_period = np.maximum(n_dt, np.ceil(1.0 / step)).astype(int)
    x = np.full(q.shape, float(x0))
    nodes, stages = np.zeros(q.shape, dtype=int), np.zeros(q.shape, dtype=int)
    lock = np.zeros((q.size, 2), dtype=int)  # (p, k) of a certified lock
    for n in np.unique(per_period).tolist():
        group, h = np.flatnonzero(per_period == n), dt if n == n_dt else 1.0 / n
        found: dict = {}  # (stages, modes): the (rows, coefficients) of that shape
        for start in range(0, group.size, _BLOCK):
            block = group[start:start + _BLOCK]
            nodes[block], stages[block], lock[block], parts = _tables(fn, q[block], n, T)
            for rows, c in parts:
                found.setdefault(c.shape[:2], []).append((block[rows], c))
        while found:  # the columns of c are independent, bit for bit
            rows, c = zip(*found.popitem()[1])  # popped, so each part is freed once joined
            rows, c = np.concatenate(rows), np.concatenate(c, axis=2)
            x[rows] = _iterate(c, x[rows], math.floor(T))
        tabled = group[nodes[group] > 0]
        direct = group[(nodes[group] == 0) & (lock[group, 1] == 0)]
        if f and tabled.size:
            x[tabled] = _rk4(fn, q[tabled], x[tabled], f, max(1, round(f * n)))
        if direct.size == 1:
            x[direct] = _rk4(medium._float_fn, float(q[direct[0]]), x0, float(T), round(T / h))
        elif direct.size:
            x[direct] = _rk4(fn, q[direct], x[direct], float(T), round(T / h))
    p, k = lock.T
    r_hat = (x - x0) / T
    r_hat[k > 0] = p[k > 0] / k[k > 0]
    return r_hat, nodes, stages, k


def _tables(fn, q: np.ndarray, n: int, T: float):
    """The node count N and stage count S per q (0 where no table resolved
    it), the certified lock (p, k) per q ((0, 0) where none), and the
    resolved rows of q in parts (rows, c): c[s] holds one column per row,
    the coefficients of the trigonometric interpolant
    D_s(x) = Re sum_m c[s, m] e^(2 pi i m x) of stage s's map minus x on the
    nodes x_j = j/N. The stages cut the period's n steps at recursive halves
    b + (b1 - b)//2, and their maps compose to Phi_q.

    A table starts as one stage: one period of _rk4 from its nodes and the
    witnesses, whose values stay the reference for every later table of the
    row. Those 29 points' images first test Phi_q for a lock at k = 1 (see
    _LOCK_MARGIN), and a row about to cost more than a table of _LOCK_NODES
    nodes tests Phi_q^2 too, at the cost of one more period; a locked
    row gets no table. The table of 2N nodes integrates only the N new
    midpoints through each stage. A q goes on to the next table while one
    within its budget can still reach _TOL, if, as for an analytic map,
    each doubling squares the ratio of its last two errors. Otherwise, while
    every stage has two steps and the budget affords it, the q splits each
    stage in two (a fresh period from the N nodes, N periods of its budget),
    and the split table's error is set against the unsplit one's: near a
    locking plateau Phi_q stretches some arcs and squeezes others by factors
    up to ~1000, which no affordable table resolves, and each stage map is
    far less distorted than the whole (multiple shooting). The lock tests
    spend nothing of the budget, so a row that does not lock keeps the bits
    it would have without them, and a row that never splits keeps the bits
    of a single-stage table.
    """
    budget = _BUDGET * T

    def stage_tables(rows, bounds, x):  # (stage, row, point): each stage map minus x
        return np.stack([_rk4(fn, q[rows, None], x, (b1 - b) / n, b1 - b, t0=b / n) - x
                         for b, b1 in zip(bounds, bounds[1:])])

    def certify(rows, k, images):  # lock the rows whose images Phi^k(P) show p/k
        p, ok = _lock_test(images, P)
        p = p[ok].astype(int)
        d = np.gcd(p, k)
        lock[rows[ok]] = np.stack([p // d, k // d], axis=1)
        return ok

    nodes, stages, found = np.zeros(q.size, dtype=int), np.zeros(q.size, dtype=int), []
    lock = np.zeros((q.size, 2), dtype=int)
    N = _FIRST_NODES
    if N + _WITNESSES.size > budget:
        return nodes, stages, lock, found
    rows, P = np.arange(q.size), np.concatenate([np.arange(N) / N, _WITNESSES])
    D = stage_tables(rows, [0, n], P)[0]
    first = P + D  # Phi_q(P), where every later lock test starts
    free = ~certify(rows, 1, first)
    tested = np.zeros(q.size, dtype=bool)  # rows past their lock tests
    # rows of one history: its stage cuts, nodes, tables, witness values and
    # errors of the table before, and the periods its doublings did not spend
    groups = [(rows[free], [0, n], N, D[None, free, :N], D[free, N:], np.inf,
               _WITNESSES.size)]
    while groups:
        rows, bounds, N, D, W, prev, fixed = groups.pop()
        c = np.fft.rfft(D, axis=2, norm="forward").transpose(0, 2, 1)
        c[:, 1:N // 2] *= 2.0  # the conjugate modes: all but the mean and Nyquist's
        err = np.abs(np.stack([_moved(c, np.full(rows.size, w)) for w in _WITNESSES], axis=1)
                     - W).max(axis=1)
        done = err <= _TOL
        if done.any():
            nodes[rows[done]], stages[rows[done]] = N, len(bounds) - 1
            found.append((rows[done], c[:, :, done]))
        doublings = math.floor(math.log2((budget - fixed) / N))
        shrink = np.minimum(err / prev, 1.0) ** (2.0 ** (doublings + 1) - 2.0)
        double = ~done & (err * shrink <= _TOL)
        costly = rows[~done & ~(double & (2 * N <= _LOCK_NODES)) & ~tested[rows]]
        if costly.size:
            tested[costly] = True
            certify(costly, 2, _rk4(fn, q[costly, None], first[costly], 1.0, n))
        free = lock[rows, 1] == 0
        double &= free
        if double.any():
            r = rows[double]
            D = np.stack([D[:, double], stage_tables(r, bounds, (np.arange(N) + 0.5) / N)],
                         axis=3).reshape(len(bounds) - 1, r.size, 2 * N)
            groups.append((r, bounds, 2 * N, D, W[double], err[double], fixed))
        split = ~done & ~double & free
        if split.any() and min(np.diff(bounds)) >= 2 and fixed + 2 * N <= budget:
            r, cuts = rows[split], [b + (b1 - b) // 2 for b, b1 in zip(bounds, bounds[1:])]
            bounds = sorted(bounds + cuts)
            groups.append((r, bounds, N, stage_tables(r, bounds, np.arange(N) / N), W[split],
                           err[split], fixed + N))
    return nodes, stages, lock, found


def _lock_test(images: np.ndarray, P: np.ndarray):
    """Per row of images = Phi^k(P): the least integer p above
    min(Phi^k - id) + _LOCK_MARGIN, and whether max(Phi^k - id) passes
    p + _LOCK_MARGIN while Phi^k keeps the cyclic order of the points P."""
    order = np.argsort(P)
    y = images[:, order]
    moved = y - P[order]
    p = np.floor(moved.min(axis=1) + _LOCK_MARGIN) + 1.0
    ordered = np.all(np.diff(y, axis=1) > 0.0, axis=1) & (y[:, -1] < y[:, 0] + 1.0)
    return p, ordered & (moved.max(axis=1) > p + _LOCK_MARGIN)


def _moved(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sum of the stage differences D_s (see _value) along one
    application of the composed map from x."""
    moved = 0.0
    for cs in c:
        d = _value(cs, x)
        moved, x = moved + d, x + d
    return moved


def _value(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """D(x) = Re sum_m c[m] e^(2 pi i m x), one column of c per position in x,
    summed over m in order, so bits do not depend on the other columns: by
    np.add.reduce, or by cumsum for one column, which add.reduce sums pairwise."""
    powers = np.exp(2j * math.pi * (x % 1.0))[None].repeat(len(c) - 1, axis=0)
    np.multiply.accumulate(powers, axis=0, out=powers)  # cumprod, in place
    powers *= c[1:]
    if x.size == 1:
        return c[0].real + np.cumsum(powers.real, axis=0)[-1]
    return c[0].real + np.add.reduce(powers.real, axis=0)


def _iterate(c: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Apply the composed map k times: x <- x + D_s(x) for each stage s of
    c in order (see _value). Raises NumericalError when an increment is not
    finite and > 0."""
    advancing = True
    with np.errstate(invalid="ignore"):  # a non-finite position is reported below
        for _ in range(k):
            for cs in c:
                d = _value(cs, x)
                advancing &= d > 0
                x = x + d
    if not np.all(np.isfinite(x)):
        raise NumericalError("the time-1 map produced a non-finite front position")
    if not np.all(advancing):
        raise NumericalError("the time-1 map failed to advance the front; reduce dt")
    return x


def traveling_wave_oracle(medium: Medium, c: float, q: float) -> float:
    """Exact r(q) for a traveling wave g(x, t) = G(x - c t), G = g(., 0).

    In y = x - c t the front solves the autonomous y' = q G(y) - c. Where
    q G - c changes sign on the sample grid, the front locks to the wave:
    r = c. Otherwise r = c + 1/integral_0^1 dy/(q G(y) - c), by quadrature.
    The wave form is checked on the grid at three times. The medium is
    evaluated through Medium.__call__ and no ODE is integrated, so this
    value cross-checks effective_velocity and velocity_curve.
    """
    _admit(medium, 1)
    require_finite(c=c)
    require_positive(q=q)
    c, q = float(c), float(q)
    ys = np.linspace(0.0, 1.0, 257)
    G = np.asarray(medium(ys, 0.0))
    for t in (0.25, 0.5, 0.75):
        dev = float(np.abs(np.asarray(medium(ys + c * t, t)) - G).max())
        if dev > 1e-9:
            raise ValidationError(f"medium is not a traveling wave g(x - c*t) at c = {c!r} "
                                  f"(deviation {dev:.3g} at t = {t})")
    speeds = q * G - c
    if speeds.min() <= 0.0 <= speeds.max():
        return c
    from scipy.integrate import quad

    integral, _err = quad(lambda y: 1.0 / (q * medium(y, 0.0) - c), 0.0, 1.0,
                          epsabs=1e-12, epsrel=1e-12, limit=200)
    return c + 1.0 / integral


def harmonic_mean_oracle(medium: Medium, q: float) -> float:
    """Effective velocity q / integral(1/g) of a time-independent medium: the
    traveling-wave oracle at c = 0."""
    return traveling_wave_oracle(medium, 0.0, q)


def _clipped(fn, q: float, r: float, eps: float, side: Side, T: float,
             steps: int, limits: Sequence = (), positions: Optional[np.ndarray] = None,
             phis: Optional[np.ndarray] = None) -> tuple[dict, int]:
    """Clipped front against the obstacle r*t in `steps` steps of T/steps.
    Returns phi after k steps for each k of limits, a (k, e, threshold)
    triple per read-out, and the steps taken; stores step k in positions[k],
    phis[k], each when given. phi is a running maximum and e*phi is monotone
    in phi under rounding, so once e*phi >= threshold holds for a read-out
    not yet passed, its e*phi will too: the run stops there, without that
    read-out or any later one. A non-finite g or front raises, naming t:
    NaN compares False and would snap to the obstacle. A stopped run skips
    that check on the steps it no longer takes. fn is the float kernel, and
    the loop keeps every scalar a Python float.
    """
    q, r, h, inv = float(q), float(r), float(T) / steps, 1.0 / float(eps)
    y = 0.0
    phi = 0.0
    is_super = side is Side.SUPER
    read, start = {}, 0
    for end in sorted({k for k, _, _ in limits} | {steps}):
        ahead = [(e, threshold) for k, e, threshold in limits if k >= end]
        # e*phi >= threshold needs phi >= threshold/e to within rounding, so
        # below `stop` no exact test is run
        stop = min((threshold / e for e, threshold in ahead), default=math.inf) * (1.0 - 1e-9)
        for k in range(start, end):
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
                if phi >= stop and any(e * phi >= threshold for e, threshold in ahead):
                    return read, k + 1
            if positions is not None:
                positions[k + 1] = y
                phis[k + 1] = phi
        read[end] = phi
        start = end
    return read, steps


def _flatness(fn, q: float, r: float, side: Side, steps: dict,
              thresholds: dict, per_eps: int) -> tuple[bool, dict, int]:
    """Whether r holds on `side`: one clipped run of Y (eps = 1, steps of
    1/per_eps), whose flatness at eps is e times its phi after steps[e] steps,
    for every eps below its threshold. Returns that verdict, the flatness of
    each eps read before the run stopped (all where r holds), the steps taken."""
    K = max(steps.values())
    read, taken = _clipped(fn, q, r, 1.0, side, K / per_eps, K,
                           [(steps[e], e, thresholds[e]) for e in steps])
    flatness = {e: e * read[k] for e, k in steps.items() if k in read}
    holds = len(flatness) == len(steps) and all(
        flatness[e] < thresholds[e] for e in steps)
    return holds, flatness, taken


def obstacle_front(medium: Medium, q: float, r: float, eps: float, side: Side,
                   T: float = 1.0, dt: Optional[float] = None
                   ) -> tuple[ObstacleFront, FlatnessTrace]:
    """Clipped explicit front staying above (Super) or below (Sub) r*t.

    Super side: y_{k+1} = max(y_k + dt*q*g^eps(y_k, t_k), r*t_{k+1}), with
    detachment phi = running max of (y - r*t); Sub side symmetric with min
    and r*t - z. The step must resolve the oscillation: dt <= eps/10 and
    dt <= _resolved_step(medium, eps, q M), M the admitted bound of g; by
    default dt is the smaller of eps/20 and that step. It takes n steps of
    T/n, n = round(T/dt), or one more where T/n would exceed dt.
    """
    M = _admit(medium, 1).M
    require_positive(q=q, r=r, eps=eps, T=T)
    if not isinstance(side, Side):
        raise ValidationError(f"side must be a Side, got {side!r}")
    step = _resolved_step(medium, eps, q * M)
    if dt is None:
        dt = min(eps / 20.0, step)
    if not 0 < dt <= eps / 10.0 + 1e-15:
        raise ValidationError(f"dt must satisfy 0 < dt <= eps/10, got {shown(dt)}")
    if not dt <= step:
        raise ValidationError(f"dt must be <= {shown(step)}, which moves the front a quarter "
                              f"period of g per step, got {shown(dt)}")
    require_steps(T, dt)
    steps = max(1, round(T / dt))
    steps += T / steps > dt * (1.0 + 1e-12)  # round went down past dt
    positions = np.empty(steps + 1)
    phis = np.empty(steps + 1)
    positions[0] = phis[0] = 0.0
    _clipped(medium._float_fn, q, r, eps, side, T, steps, positions=positions, phis=phis)
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
    """Check phi nondecreasing and each rise of phi <= h*(rate + q*L*dt).

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
    from M*q; bracket failures raise instead of clamping. At the step eps/S,
    S = max(20, ceil(1/_resolved_step(medium, 1, M q))), the clipped front
    at scale eps is eps*Y(t/eps) for Y at eps = 1, so each (r, side) costs
    one run of Y, read at each eps after K_eps = max(1, round(S*T/eps))
    steps: at T when S*T/eps is an integer, else at K_eps*eps/S, within
    eps/(2S) of T. The run stores no trace: it
    reads phi at the K_eps alone, and it stops at the first step where an
    eps whose read-out is still ahead must fail (phi is a running maximum),
    skipping the finiteness checks of the steps it no longer takes; a run
    where r holds takes all K steps, every one checked. diagnostics[side]
    holds the candidate, its flatness and threshold per eps, the final
    bracket (good, bad), or (r, r) when the far anchor already holds, and
    "runs": each clipped run's (r, holds, steps taken), in test order.
    """
    _admit(medium, 1)
    require_positive(q=q, T=T)
    if not 0.8 < beta < 1.0:
        raise ValidationError(f"beta must lie in (4/5, 1), got {shown(beta)}")
    eps_list = _eps_list(eps_list, at_least=1)
    bounds = estimate_bounds(medium, resolution=_RESOLUTION)
    step = _resolved_step(medium, 1.0, bounds.M * q)
    require_steps(1.0, step)  # one period of g, so 1/step is finite
    per_eps = max(20, math.ceil(1.0 / step))
    require_steps(T, min(eps_list) / per_eps)
    steps = {e: max(1, round(T / (e / per_eps))) for e in eps_list}
    thresholds = {e: e ** beta for e in eps_list}
    runs: dict = {}  # (r, side): (holds, flatness, steps taken), in test order

    def holds(r: float, side: Side) -> bool:
        if (r, side) not in runs:
            runs[r, side] = _flatness(medium._float_fn, q, r, side, steps, thresholds, per_eps)
        return runs[r, side][0]

    diagnostics: dict = {"beta": beta, "eps_list": eps_list}
    m_q, M_q = bounds.m * q, bounds.M * q
    for side, good, bad in ((Side.SUB, m_q, M_q), (Side.SUPER, M_q, m_q)):
        if not holds(good, side):
            raise NumericalError(
                f"candidate bracket failure: {side.value} side flatness exceeds "
                f"the threshold already at its anchor r = {good!r}")
        bracket = ((bad, bad) if holds(bad, side)
                   else _bisect(lambda r: holds(r, side), good, bad))
        diagnostics[side.value] = {"candidate": bracket[0],
                                   "flatness": runs[bracket[0], side][1],
                                   "thresholds": thresholds, "bracket": bracket,
                                   "runs": [(r, ok, taken) for (r, s), (ok, _, taken)
                                            in runs.items() if s is side]}
    return CandidateReport(diagnostics["sub"]["candidate"], diagnostics["super"]["candidate"],
                           beta, eps_list, bounds, diagnostics)


def velocity_curve(medium: Medium, q_min: float, q_max: float, samples: int,
                   T: float = 200.0, dt: float = 0.02,
                   x0: float = 0.0) -> VelocityCurve:
    """Effective velocities over a q-grid from the time-1 map kernel, with
    the table size per q in nodes and each certified lock's denominator k:
    a locked row reports its rotation number p/k exactly, any other row the
    finite-T average. error_bound = 1/T counts that average only, not the
    RK4 step: pinning at q = 50 and T = 200 is 0.0148 off under the step
    rule of _averages. Tables and lock tests go row by row. A lone q with
    neither runs its direct orbit on the float kernel, as effective_velocity
    does; two or more share one through the NumPy kernel, so on the builtins
    each entry equals effective_velocity(medium, q, T, x0, dt).r_hat to the
    bit (tested), given this same dt (the defaults differ); otherwise the
    direct orbit agrees to rounding, as an array and a float may round an
    operation differently (x^2.0 is x*x on arrays, libm pow on floats)."""
    _admit(medium, 1)
    require_positive(qmin=q_min, qmax=q_max)
    require_finite(x0=x0)
    if not q_min < q_max:
        raise ValidationError(f"need qmin < qmax, got {q_min}, {q_max}")
    require_integer(2, samples=samples)

    qs = np.linspace(q_min, q_max, samples)
    r_hat, nodes, stages, locked = _averages(medium, qs, float(x0), T, dt)
    return VelocityCurve(q=qs, r_hat=r_hat, T=T, error_bound=1.0 / T, nodes=nodes,
                         stages=stages, locked=locked)
