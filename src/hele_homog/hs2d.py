"""2D strip simulator for the oscillatory free-boundary law V = g |Du+|.

The wet region {0 < x < h(y, t)} in a strip (periodic in y) is mapped to a
rectangle by the boundary-fitted coordinate xt = x / h(y); the pressure is
harmonic in the wet region with u = psi0 at the inlet x = 0 and u = 0 on the
front, and the front graph h advances along its normal at speed g^eps |Du+|.

On a flat front the discrete pressure is the planar profile psi0 (1 - xt),
taken in closed form and checked against the stencil like any solve; it
depends on the domain and psi0 alone, so it is computed once per SimConfig,
and a flat step pays only for its checks, g at the front and the rate. A
flat front in a medium that does not use y is the 1D reduction for laminar
media and stays flat, so simulate steps it as one Python-float height, with
g evaluated at one point. A curved front's mapped 9-point pressure stencil
is solved matrix-free by one run of the module's own restarted GMRES,
right-preconditioned by the flat-front fast Poisson solve (four products
with the grid's cached dense DST-I and real Fourier matrices), from the
start that _curved_pressure chooses, on one padded flat grid with the
coefficients folded once per step and workspaces of the solve's own. The
step is the CFL step, capped so that eps stays resolved (see SimConfig). A
step fails with NumericalError, naming t, when the front heights or g are
not finite, when the front leaves the strip or its graph condition, when
the solve does not converge to a relative residual of 1e-10, when u leaves
[0, psi0] (the discrete maximum principle), or when no step size can be
set. Iterations and residual are recorded per saved step.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (NumericalError, ValidationError, _eps_list, require_finite,
                     require_integer, require_positive, require_vector, shown)
from .medium import Medium, _admit, eval_scaled


@dataclass(frozen=True)
class StripDomain:
    """Strip (0, Lx) x (0, Ly), periodic in y, on an nx-by-ny grid."""

    Lx: float
    Ly: float
    nx: int
    ny: int

    def __post_init__(self):
        require_positive(Lx=self.Lx, Ly=self.Ly)
        require_integer(8, **{"nx (of nx, ny)": self.nx, "ny (of nx, ny)": self.ny})

    @property
    def dy(self) -> float:
        return self.Ly / self.ny

    @property
    def dx_ref(self) -> float:
        return self.Lx / self.nx

    @cached_property
    def y_nodes(self) -> np.ndarray:
        """The ny nodes j * dy along the strip, read-only and cached per grid."""
        nodes = np.arange(self.ny) * self.dy
        nodes.flags.writeable = False
        return nodes

    @cached_property
    def _pressure_factors(self) -> tuple[np.ndarray, ...]:
        """Per-grid constants of the pressure solve: the xt column of the
        unknown rows; the eigenvalues -4/dxt^2 sin^2(pi m/2nx) of the xt
        second difference over the sine modes m = 1..nx-1; sin^2(pi k/ny),
        the y second difference's eigenvalue without its -4/dy^2 factor, in
        Fy's column order; Sx, the orthonormal DST-I matrix
        sqrt(2/nx) sin(pi i m/nx), symmetric and its own inverse; and Fy, the
        real orthonormal Fourier basis in y: the mean 1/sqrt(ny), then
        sqrt(2/ny) cos and sin(2 pi k j/ny) for each 0 < k < ny/2, then
        (-1)^j/sqrt(ny) when ny is even. Sine and cosine arguments are
        integer products reduced mod 2nx or ny, so no entry loses digits to
        a large argument."""
        nx, ny = self.nx, self.ny
        dxt = 1.0 / nx
        m = np.arange(1, nx)
        Sx = math.sqrt(2.0 / nx) * np.sin(np.pi / nx * (np.outer(m, m) % (2 * nx)))
        col = np.arange(ny)
        k = (col + 1) // 2  # columns 2k - 1 and 2k are mode k's cos and sin
        phase = 2.0 * np.pi / ny * (np.outer(col, k) % ny)
        is_sin = (col % 2 == 0) & (col > 0)
        scale = np.where((k == 0) | (2 * k == ny), 1.0, math.sqrt(2.0)) / math.sqrt(ny)
        Fy = np.where(is_sin, np.sin(phase), np.cos(phase)) * scale
        return (m[:, None] * dxt, -4.0 / dxt ** 2 * np.sin(np.pi * m[:, None] / (2 * nx)) ** 2,
                np.sin(np.pi * k / ny) ** 2, Sx, Fy)


@dataclass(frozen=True, eq=False)
class FrontGraph:
    """Single-valued front depth h_j at every tangential node, at time t."""

    heights: np.ndarray
    t: float


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation data: domain, medium (dim 2), inlet pressure, time horizon.

    The step is the CFL policy dt = cfl * spacing / peak, peak = M * max
    slope being the speed bound (M the medium's maximum sampled by the model
    contract), capped by dt when given and so that eps stays resolved:
    where g uses x, dt * peak <= eps/4 (no step crosses more than a quarter
    period of g in x); where g uses t, dt <= eps/4. spacing grows with the
    front, so these are caps, not refusals. Where g uses y, the grid must
    resolve it: dy <= eps/4, else ValidationError. T must exceed 1e-12, the
    tolerance within which simulate stops, so every run takes a step.
    """

    domain: StripDomain
    medium: Medium
    eps: float
    psi0: float
    T: float
    h0: Union[float, np.ndarray] = 1.0
    cfl: float = 0.4
    dt: Optional[float] = None
    save_every: int = 1

    def __post_init__(self):
        _admit(self.medium, 2)
        require_positive(eps=self.eps, psi0=self.psi0, T=self.T)
        if not self.T > _END_TOL:  # simulate would take no step
            raise ValidationError(f"T must be > {_END_TOL:g}, the tolerance at which "
                                  f"a run ends, got {self.T}")
        require_finite(cfl=self.cfl)
        if not 0 < self.cfl <= 1:
            raise ValidationError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.dt is not None:
            require_positive(dt=self.dt)
        require_integer(1, save_every=self.save_every)
        ny = self.domain.ny
        h = require_vector("h0", self.h0)
        if h.shape != (ny,) and np.ndim(self.h0) != 0:
            raise ValidationError(
                f"h0 must be a scalar or a length-{ny} array, got shape {np.shape(self.h0)}"
            )
        margin = 2.0 * self.domain.dx_ref
        if not (np.all(h > margin) and np.all(h < self.domain.Lx - margin)):
            raise ValidationError(
                "initial front must stay 2 grid cells inside the strip"
            )
        cells = self.eps / self.domain.dy
        if "x2" in self.medium._variables and cells < 4:
            raise ValidationError(f"resolution check failure: eps={self.eps} has "
                                  f"{cells:.2f} cells per period in y (need >= 4)")

    def initial_front(self) -> FrontGraph:
        return FrontGraph(heights=np.full(self.domain.ny, self.h0, dtype=float), t=0.0)

    @cached_property
    def _flat_solve(self) -> _Solve:
        """_flat_pressure's solve for this domain and psi0, the same on every
        flat step of a run: computed once per config, its grid and |u_xt|
        read-only. _velocity still checks it on every step."""
        solve = _Solve.of(self.domain, *_flat_pressure(self.domain, self.psi0))
        solve.u.flags.writeable = solve.uxt.flags.writeable = False
        return solve


def _front_derivatives(h: np.ndarray, dy: float) -> tuple[np.ndarray, np.ndarray]:
    wrap = np.concatenate((h[-1:], h, h[:1]))  # periodic: wrap[j] = h[j - 1]
    up, down = wrap[2:], wrap[:-2]
    return (up - down) / (2.0 * dy), (up - 2.0 * h + down) / dy ** 2


_GMRES_RTOL, _RESIDUAL_TOL = 1e-12, 1e-10
_GMRES_RESTART, _GMRES_CYCLES = 30, 20  # at most 600 iterations
_START_GRIDS = 6  # solved pressures that a curved solve's start extrapolates
_MAX_PRINCIPLE_TOL = 1e-12
_END_TOL = 1e-12  # simulate stops once t is this close to T
# the per-step records that simulate keeps for each saved front
_RECORDS = operator.itemgetter("u_min", "u_max", "iterations", "residual")
_SLICES = 60  # space-time samples per history in convergence_study's distances


def _fast_poisson(domain: StripDomain, beta: float):
    """The solver of the flat operator u_xtxt + beta u_yy on the unknown rows
    (u = 0 at xt = 0 and 1, periodic in y), centered differences as in
    _velocity: it maps (nx - 1) * ny right-hand side values, of any
    shape, to the solution, raveled.

    The operator is diagonal in the grid's cached orthonormal bases, Sx in xt
    and Fy in y, so u = Sx ((Sx r Fy) / lam) Fy^T: four dense products,
    O(nx^2 ny + nx ny^2) per call (the matrix decomposition form of the fast
    Poisson solver; Lynch, Rice and Thomas 1964). The first three products
    and the division write into two buffers of this solver's own, made per
    call of _fast_poisson (so per curved solve); every solve returns a fresh
    array.
    """
    nx, ny = domain.nx, domain.ny
    _xt, lam_x, sin2_y, Sx, Fy = domain._pressure_factors
    lam = lam_x - 4.0 * beta / domain.dy ** 2 * sin2_y
    rows, modes = np.empty((nx - 1, ny)), np.empty((nx - 1, ny))  # this solver's own

    def solve(r):
        np.matmul(r.reshape(nx - 1, ny), Fy, out=rows)
        np.matmul(Sx, rows, out=modes)
        np.divide(modes, lam, out=modes)
        np.matmul(Sx, modes, out=rows)
        return (rows @ Fy.T).ravel()

    return solve


def _gmres(matvec, precond, b: np.ndarray, x0: np.ndarray,
           target: float) -> tuple[np.ndarray, int, float]:
    """Restarted GMRES (Saad and Schultz 1986) for A x = b, right-preconditioned
    by the linear map M^-1 = precond: Arnoldi runs on A M^-1 from the residual
    r0 = b - A x0, and x = x0 + M^-1 V y, so the rotated residual estimate
    |g| is |b - A x| itself in exact arithmetic. Arnoldi orthogonalizes by
    classical Gram-Schmidt applied twice, two BLAS products a pass; the
    Givens rotations of the Hessenberg columns run on Python floats.

    Runs up to _GMRES_CYCLES cycles of _GMRES_RESTART iterations and stops as
    soon as the estimate falls to `target` or is NaN; a breakdown (the new
    Arnoldi vector vanishes) means the cycle's solution is exact, and its
    estimate is 0. Returns (x, iterations, last estimate); the caller
    decides from the estimate and its own residual whether x is good.
    """
    x, iterations, estimate = x0.copy(), 0, math.inf
    V = np.empty((_GMRES_RESTART + 1, b.size))
    R = np.zeros((_GMRES_RESTART, _GMRES_RESTART))  # the rotated Hessenberg
    for _cycle in range(_GMRES_CYCLES):
        r = b - matvec(x)
        estimate = float(np.linalg.norm(r))
        if not estimate > target:
            break
        np.divide(r, estimate, out=V[0])
        g, rotations = [estimate], []
        for j in range(_GMRES_RESTART):
            w, basis = matvec(precond(V[j])), V[:j + 1]
            col = basis @ w
            w -= col @ basis
            again = basis @ w
            w -= again @ basis
            col = (col + again).tolist()
            norm = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], norm)
            c, s = col[j] / rho, norm / rho
            rotations.append((c, s))
            col[j] = rho
            R[:j + 1, j] = col[:j + 1]
            g.append(-s * g[j])
            g[j] *= c
            iterations += 1
            estimate = abs(g[j + 1])
            if not estimate > target:  # converged, broke down (norm 0) or NaN
                break
            np.divide(w, norm, out=V[j + 1])
        k = len(rotations)
        x += precond(np.linalg.solve(R[:k, :k], g[:k]) @ V[:k])
        if not estimate > target:
            break
    return x, iterations, estimate


def _extrapolate(times: Sequence[float], grids: Sequence[np.ndarray],
                 t: float) -> np.ndarray:
    """The Lagrange extrapolation to time t of grids solved at distinct
    `times`: sum_i w_i grids[i] with w_i = prod_{j != i} (t - t_j)/(t_i - t_j),
    exact (to rounding) for grids that are polynomials in t of degree
    < len(times). One grid comes back as it is (w = 1), but for a -0.0
    entry, which comes back +0.0: the sum starts from a fresh array of
    zeros and accumulates each w_i grids[i] in place."""
    start = np.zeros(np.shape(grids[0]))
    term = np.empty_like(start)
    for i, (t_i, grid) in enumerate(zip(times, grids)):
        w = math.prod((t - t_j) / (t_i - t_j) for j, t_j in enumerate(times) if j != i)
        start += np.multiply(w, grid, out=term)
    return start


class _Solve(NamedTuple):
    """One pressure solve as _velocity checks and uses it: the u grid, the
    solve's iterations, converged flag and relative residual, the grid's
    range (finite exactly when u is, as min and max propagate NaN), and
    |u_xt| along the front xt = 1."""

    u: np.ndarray
    iterations: int
    converged: bool
    residual: float
    u_min: float
    u_max: float
    uxt: np.ndarray

    @classmethod
    def of(cls, domain: StripDomain, u: np.ndarray, iterations: int,
           converged: bool, residual: float) -> _Solve:
        nx, dxt = domain.nx, 1.0 / domain.nx
        # one-sided second-order normal slope at xt = 1 (u[nx] = 0); a u
        # that is not finite fails _velocity's checks before uxt is used
        with np.errstate(invalid="ignore", over="ignore"):
            uxt = (u[nx - 2, :] - 4.0 * u[nx - 1, :]) / (2.0 * dxt)
        return cls(u, iterations, converged, residual, float(u.min()), float(u.max()),
                   np.abs(uxt))


def _flat_pressure(domain: StripDomain, psi0: float
                   ) -> tuple[np.ndarray, int, bool, float]:
    """The exact discrete pressure under a flat front, as (u grid, iterations,
    converged, relative residual) for _velocity's checks. It depends on the
    domain and psi0 alone, so SimConfig._flat_solve calls it once per config.

    On a flat front h' = h'' = 0, so the mapped stencil has a = 1 and
    c = d = 0, and its y terms cancel on a y-constant grid: what is left on
    each xt column is the second difference (u[i-1] - 2 u[i] + u[i+1])/dxt^2
    with u[0] = psi0 and u[nx] = 0, whose solution is the planar profile
    u = psi0 (1 - i/nx). One direct solve, so iterations is 1; the residual
    of that column, |A u - b| / |b| with |b| = psi0/dxt^2 (each column
    carries the same share of both norms), is still computed and checked.
    """
    nx, ny = domain.nx, domain.ny
    dxt = 1.0 / nx
    column = np.arange(nx, -1, -1) / nx * psi0  # (nx - i)/nx: no cancellation
    defect = (column[:-2] - 2.0 * column[1:-1] + column[2:]) / dxt ** 2  # A u - b
    residual = float(np.linalg.norm(defect) / (psi0 / dxt ** 2))
    return np.repeat(column[:, None], ny, axis=1), 1, True, residual


def _curved_pressure(domain: StripDomain, h: np.ndarray, hp: np.ndarray,
                     hpp: np.ndarray, psi0: float, t: float,
                     solved: Sequence[tuple[float, np.ndarray]]
                     ) -> tuple[np.ndarray, int, bool, float]:
    """The pressure under a curved front, as (u grid, iterations, converged,
    relative residual) for _velocity's checks (see there).

    One _gmres run, right-preconditioned by _fast_poisson(domain, mean(h^2)),
    solves the 9-point stencil. This is the one place that picks its start
    x0: given `solved`, the (t_i, u_i) pressure grids of earlier solves on
    the same mapped grid (in simulate, the last six), it is their Lagrange
    extrapolation to t (one grid comes back as it is), since the pressure
    under a smoothly moving front is smooth in t; given none, it is the fast
    solve of the right-hand side. iterations is GMRES's count, so 0 when x0
    already meets GMRES's first test |b - A x0| <= 1e-12 |b| and comes back
    unchanged.

    The stencil runs on one flat (nx + 1) * (ny + 2) grid, each xt row with
    a periodic ghost column at either end, so every neighbour is a
    contiguous shifted slice: twelve ufunc calls in the order, and with the
    bits, of the 2D formula. The coefficients are folded into that layout
    once per step, zero on the ghosts, whose results are never read. GMRES's
    vectors stay on the compact (nx - 1) * ny unknowns, as their bits depend
    on the layout. The grid and every buffer belong to this solve; the
    returned u is a view of its grid.
    """
    nx, ny, dy = domain.nx, domain.ny, domain.dy
    dxt, width = 1.0 / nx, ny + 2
    size = (nx - 1) * width - 2  # the first unknown to the last, ghost columns between
    xt = domain._pressure_factors[0]
    b = h ** 2
    a_x = (1.0 + xt ** 2 * hp ** 2) / dxt ** 2
    d_x = xt * (2.0 * hp ** 2 - h * hpp) / (2.0 * dxt)
    b_y = b / dy ** 2
    # center, east, west, north and cross, folded into the padded layout;
    # 2 a/dxt^2 and 2 b/dy^2 are the shared quotients scaled by 2, exactly
    coefficients = np.zeros((5, nx - 1, width))
    for k, values in enumerate((-2.0 * a_x - 2.0 * b_y, a_x + d_x, a_x - d_x, b_y,
                                xt * h * hp / (2.0 * dxt * dy))):
        coefficients[k, :, 1:-1] = values
    center, east, west, north, cross = coefficients.reshape(5, -1)[:, 1:size + 1]

    grid = np.zeros((nx + 1) * width)  # zero inlet and front rows
    rows = grid.reshape(nx + 1, width)
    inner, unknowns = rows[1:nx], rows[1:nx, 1:-1]
    u_mid, u_east, u_west, u_north, u_south = (grid[i:i + size] for i in (
        width + 1, 2 * width + 1, 1, width + 2, width))
    step_x, total, term = np.empty(size + 2), np.empty(size + 2), np.empty(size)
    acc = total[1:-1]

    def stencil():  # the 9-point operator on grid, in the order of its 2D formula
        # periodic ghost columns; the boundary rows are constant, ghosts included
        inner[:, 0], inner[:, -1] = inner[:, -2], inner[:, 1]
        np.subtract(grid[2 * width:], grid[:-2 * width], out=step_x)
        np.multiply(center, u_mid, out=acc)
        np.add(acc, np.multiply(east, u_east, out=term), out=acc)
        np.add(acc, np.multiply(west, u_west, out=term), out=acc)
        np.add(acc, np.multiply(north, np.add(u_north, u_south, out=term), out=term), out=acc)
        np.subtract(acc, np.multiply(cross, np.subtract(step_x[2:], step_x[:-2], out=term),
                                     out=term), out=acc)
        return total.reshape(nx - 1, width)[:, 1:-1].ravel()  # fresh, compact

    fast_poisson = _fast_poisson(domain, float(np.mean(b)))

    def matvec(v):
        unknowns[...] = v.reshape(nx - 1, ny)
        return stencil()

    # the inlet row u = psi0 enters the first unknown row through west alone:
    # its cross terms cancel, psi0 being constant in y; the front row u = 0
    # drops out
    rhs = np.zeros((nx - 1, ny))
    rhs[0] = -coefficients[2, 0, 1:-1] * psi0
    rhs_norm = np.linalg.norm(rhs)
    x0 = (_extrapolate([t_i for t_i, _ in solved], [u[1:nx] for _, u in solved], t) if solved
          else fast_poisson(rhs))
    target = _GMRES_RTOL * rhs_norm
    sol, iterations, estimate = _gmres(matvec, fast_poisson, rhs.ravel(), x0.ravel(), target)
    unknowns[...] = sol.reshape(nx - 1, ny)
    rows[0] = psi0
    residual = float(np.linalg.norm(stencil()) / rhs_norm)
    return rows[:, 1:-1], iterations, estimate <= target, residual


def _check_heights(domain: StripDomain, lo: float, hi: float, t: float) -> None:
    """The finiteness and strip-wall checks of a step, on the front's lowest
    and highest heights: min and max propagate NaN, so both are finite
    exactly when every height is."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError(f"front heights are not finite at t={t:.6g}")
    margin = 2.0 * domain.dx_ref
    wall = "Lx" if hi >= domain.Lx - margin else "0" if lo <= margin else None
    if wall is not None:
        raise NumericalError(f"front leaves the strip at t={t:.6g}: "
                             f"heights within 2 grid cells of x = {wall}")


def _check_solve(config: SimConfig, solve: _Solve, t: float) -> None:
    """The checks on a pressure solve: finite, converged, a relative residual
    within _RESIDUAL_TOL, and u inside [0, psi0] (the discrete maximum
    principle) to _MAX_PRINCIPLE_TOL."""
    u_min, u_max, residual = solve.u_min, solve.u_max, solve.residual
    why = ("produced non-finite values"
           if not (math.isfinite(u_min) and math.isfinite(u_max) and math.isfinite(residual))
           else "did not converge" if not solve.converged
           else "left a large residual" if not residual <= _RESIDUAL_TOL else None)
    if why is not None:
        raise NumericalError(f"pressure solve {why} at t={t:.6g}: {solve.iterations} "
                             f"GMRES iterations, relative residual {residual:.3g}")
    excess = max(-u_min, u_max - config.psi0)
    if not excess <= _MAX_PRINCIPLE_TOL:
        raise NumericalError(
            f"discrete maximum principle violated at t={t:.6g}: u in "
            f"[{u_min:.6g}, {u_max:.6g}] leaves [0, psi0 = {config.psi0:.6g}] "
            f"by {excess:.3g}")


def _require_finite_g(finite: bool, t: float) -> None:
    if not finite:
        raise NumericalError(f"medium g is not finite at the front at t={t:.6g}")


def _step_size(config: SimConfig, t: float, h_min: float, slope_max: float,
               dt_cap: Optional[float]) -> float:
    """The step at time t from the front's lowest height and largest slope:
    the CFL policy cfl * spacing / peak (see SimConfig), capped by
    config.dt, dt_cap and the eps caps, eps/4 on dt * peak where g uses x
    and eps/4 on dt where g uses t. A cap that does not bind leaves the bits
    of the CFL step."""
    spacing = min(h_min / config.domain.nx, config.domain.dy)
    peak = _admit(config.medium, 2).M * slope_max
    if not peak > 0:
        raise NumericalError(
            f"front slope estimate vanished at t={t:.6g}; cannot set a step")
    dt = config.cfl * spacing / peak
    used, quarter = config.medium._variables, config.eps / 4.0
    if "x1" in used:
        dt = min(dt, quarter / peak)
    if "t" in used:
        dt = min(dt, quarter)
    if config.dt is not None:
        dt = min(dt, config.dt)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not dt > 0:
        raise NumericalError(f"step size collapsed to {dt} at t={t:.6g}")
    return dt


def _velocity(config: SimConfig, h: np.ndarray, t: float,
              solved: Sequence[tuple[float, np.ndarray]] = ()
              ) -> tuple[np.ndarray, np.ndarray, dict]:
    """The front's rate dh/dt = g^eps |Du| sqrt(1 + h'^2) under the heights h
    at time t, as (rate, slope = |Du| sqrt(1 + h'^2), info); info holds the
    pressure range, the solve's iterations and relative residual
    |A u - b| / |b|, the pressure grid ("u") for later `solved` histories,
    and min(h) ("h_min"), which _advance's step size reads.

    In xt = x/h(y) the pressure equation becomes
      (1 + xt^2 h'^2) u_xtxt + h^2 u_yy - 2 xt h h' u_xty
        + xt (2 h'^2 - h h'') u_xt = 0,
    discretized with centered second-order differences on the unit square,
    u = psi0 at xt = 0, u = 0 at xt = 1, periodic in y.

    Per config: on a flat front (h constant) h' = h'' = 0, so the graph
    condition holds and sqrt(1 + h'^2) is 1, and the discrete solution is
    _flat_pressure's planar profile psi0 (1 - xt) (iterations 1), which
    depends on the config alone: config._flat_solve holds it, with its
    residual on the flat stencil. Per step: a flat front costs one min and
    one max of h (its finiteness, wall and flatness tests), the checks on
    the reused solve, one evaluation of g and the rate g |u_xt| / h, whose
    unit stretch is never multiplied (x * 1.0 is x, so the bits are those of
    the general formula). This flat branch serves the first step of a run
    whose medium uses y; a flat run in a medium without y takes
    _one_height_step instead (see simulate). A curved
    front takes h' and h'', and its 9-point operator is applied matrix-free
    and solved by GMRES to |A u - b| <= 1e-12 |b| on its residual estimate,
    from the start that _curved_pressure forms out of the `solved` history
    (see there); the residual is then recomputed explicitly. NumericalError,
    naming t, on every failure listed in the module docstring but the step
    size's.
    """
    domain = config.domain
    lo, hi = float(h.min()), float(h.max())
    _check_heights(domain, lo, hi, t)
    if lo == hi:
        solve, stretch = config._flat_solve, None
    else:
        hp, hpp = _front_derivatives(h, domain.dy)
        if np.abs(hp).max() > 5.0:
            raise NumericalError(f"graph condition violated at t={t:.6g}: "
                                 f"front slope {np.abs(hp).max():.3g} > 5")
        solve = _Solve.of(domain, *_curved_pressure(domain, h, hp, hpp, config.psi0,
                                                    t, solved))
        stretch = np.sqrt(1.0 + hp ** 2)
    _check_solve(config, solve, t)
    points = np.stack([h, domain.y_nodes], axis=-1)
    g = np.asarray(eval_scaled(config.medium, config.eps, points, t))
    _require_finite_g(np.isfinite(g).all(), t)
    # dh/dt = |Du| sqrt(1 + h_y^2); a flat front's stretch is 1 and not multiplied
    slope = solve.uxt / h if stretch is None else solve.uxt * stretch / h * stretch
    info = {"u_min": solve.u_min, "u_max": solve.u_max, "iterations": solve.iterations,
            "residual": solve.residual, "u": solve.u, "h_min": lo}
    return g * slope, slope, info


def _advance(state: FrontGraph, config: SimConfig, dt_cap: Optional[float] = None,
             solved: Sequence[tuple[float, np.ndarray]] = ()) -> tuple[FrontGraph, dict]:
    """One forward Euler step h + dt * rate from `state`, the rate from
    _velocity (its solve started from the `solved` history) and dt from
    _step_size, capped by dt_cap too; info is _velocity's plus dt."""
    h = np.asarray(state.heights, dtype=float)
    rate, slope, info = _velocity(config, h, state.t, solved)
    dt = _step_size(config, state.t, info["h_min"], float(slope.max()), dt_cap)
    return FrontGraph(heights=h + dt * rate, t=state.t + dt), {"dt": dt, **info}


def _one_height_step(state: FrontGraph, config: SimConfig, dt_cap: Optional[float] = None,
                     solved: Sequence[tuple[float, np.ndarray]] = ()
                     ) -> tuple[FrontGraph, dict]:
    """_advance for a flat front in a medium that does not use y, whose
    heights stay equal to the bit: it steps h = heights[0] as a Python float.
    g is evaluated at the one point (h, y_0 = 0) by the same NumPy kernel;
    the rate g |u_xt| / h, _step_size and the checks on h, g and dt are
    IEEE float operations with the bits of _advance's arrays. simulate
    checks the kept flat solve once per run, as nothing it depends on
    changes between steps; `solved` is unused. info is _advance's."""
    domain, t = config.domain, state.t
    h = float(state.heights[0])
    _check_heights(domain, h, h, t)
    g = np.asarray(eval_scaled(config.medium, config.eps, np.array([[h, 0.0]]), t)).item()
    _require_finite_g(math.isfinite(g), t)
    solve = config._flat_solve
    slope = float(solve.uxt[0]) / h
    dt = _step_size(config, t, h, slope, dt_cap)
    info = {"dt": dt, "u_min": solve.u_min, "u_max": solve.u_max,
            "iterations": solve.iterations, "residual": solve.residual,
            "u": solve.u, "h_min": h}
    return FrontGraph(heights=np.full(domain.ny, h + dt * (g * slope)), t=t + dt), info


@dataclass(frozen=True, eq=False)
class SimHistory:
    """Saved fronts plus per-step pressure ranges and solver work.

    u_min, u_max, iterations and residual (relative, |A u - b| / |b|) hold
    one entry per saved front after the initial one. iterations is 1 on a
    flat front (one direct solve: the closed-form planar pressure, solved
    once per config, so every flat step records the same solve), else
    the count of the curved solve's GMRES run, whose start
    _curved_pressure forms from the last (up to six) solved pressures of
    the run; the bench's curved job at phase 0.3 takes 163 iterations over
    66 steps, against 441 from the previous pressure alone.
    _skipped holds the (t, mean depth) of each step between saves.
    """

    config: SimConfig
    times: np.ndarray
    fronts: tuple
    u_min: np.ndarray
    u_max: np.ndarray
    total_steps: int
    iterations: np.ndarray
    residual: np.ndarray
    _skipped: np.ndarray

    @property
    def final_front(self) -> FrontGraph:
        return self.fronts[-1]

    def mean_depths(self) -> np.ndarray:
        """Each saved front's mean height: one reduction over the stacked
        fronts, each row summed along its own contiguous axis as the front's
        own .mean() sums it, so the values are the same to the bit."""
        return np.stack([f.heights for f in self.fronts]).mean(axis=1)

    def front_speed(self, t_start: float, t_end: float) -> float:
        """Least-squares slope of the mean depth over [t_start, t_end], fit
        at every step in time order, whatever save_every is."""
        points = np.vstack([np.column_stack([self.times, self.mean_depths()]), self._skipped])
        times, depths = points[np.argsort(points[:, 0])].T
        mask = (times >= t_start) & (times <= t_end)
        if mask.sum() < 2:
            raise ValidationError(f"fewer than two steps in the fit window "
                                  f"[{shown(t_start)}, {shown(t_end)}]")
        coeffs = np.polyfit(times[mask], depths[mask], 1)
        return float(coeffs[0])

    def spacetime_points(self, max_slices: int = 60) -> np.ndarray:
        """Front samples as (t, y, h) rows, subsampled to max_slices times."""
        require_integer(1, max_slices=max_slices)
        count = len(self.fronts)
        idx = np.unique(np.linspace(0, count - 1, min(max_slices, count)).astype(int))
        ys = self.config.domain.y_nodes
        fronts = [self.fronts[i] for i in idx]
        return np.column_stack([np.repeat([f.t for f in fronts], ys.size),
                                np.tile(ys, len(fronts)),
                                np.concatenate([f.heights for f in fronts])])

    def final_points(self) -> np.ndarray:
        """Final front as (y, h) rows."""
        f = self.final_front
        return np.column_stack([self.config.domain.y_nodes, f.heights])


def simulate(config: SimConfig, max_steps: int = 200000) -> SimHistory:
    """Run the explicit front dynamics to time T, saving every save_every steps.

    The step function is picked once per run. A flat initial front (equal
    heights) in a medium that does not use y stays flat, so the run takes
    _one_height_step, and checks the kept flat solve once, at t = 0; every
    other run takes _advance. On such a run both give the same bits, so the
    history is the same whichever runs.
    """
    require_integer(1, max_steps=max_steps)
    state = config.initial_front()
    step = _advance
    if state.heights.min() == state.heights.max() and "x2" not in config.medium._variables:
        step = _one_height_step
        _check_solve(config, config._flat_solve, state.t)
    fronts, records, skipped = [state], [], []
    solved = deque(maxlen=_START_GRIDS)  # (t, u) of the last solves
    k = 0
    while state.t < config.T - _END_TOL:
        if k == max_steps:
            raise NumericalError(f"exceeded {max_steps} steps before reaching T: "
                                 f"at t={state.t:.6g} of T={config.T:.6g}")
        t = state.t
        state, info = step(state, config, config.T - t, solved)
        k += 1
        solved.append((t, info["u"]))
        if k % config.save_every == 0 or state.t >= config.T - _END_TOL:
            fronts.append(state)
            records.append(_RECORDS(info))
        else:
            skipped.append((state.t, float(state.heights.mean())))
    u_min, u_max, iterations, residual = map(np.array, zip(*records))
    return SimHistory(config=config, times=np.array([f.t for f in fronts]),
                      fronts=tuple(fronts), u_min=u_min, u_max=u_max, total_steps=k,
                      iterations=iterations, residual=residual,
                      _skipped=np.array(skipped).reshape(-1, 2))


def hausdorff(A, B, period: Optional[float] = None,
              axis: Optional[int] = None) -> float:
    """Hausdorff distance between finite point sets, optionally periodic.

    When period (finite, > 0) is given, coordinate `axis` (an int in
    [0, dim)) of B is additionally shifted by -period, 0, +period and the
    pointwise minimum over shifts is used; an axis without a period is a
    ValidationError, as is a non-finite point.

    Both directed distances come from exact nearest-neighbour queries on
    k-d trees (Bentley 1975): one over B and its two images, queried at A,
    and one over A, queried at each image of B. That is O((n + m) log m)
    time and O(n + m) memory, with no n x m distance matrix; each nearest
    distance is the one a dense distance matrix would hold, to the bit.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if not A.ndim == B.ndim == 2:
        raise ValidationError("point sets must be 1- or 2-dimensional arrays")
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise ValidationError("point sets must be non-empty")
    if A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"point dimension mismatch: {A.shape[1]} vs {B.shape[1]}"
        )
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValidationError("point sets must be finite")
    images = [B]
    if period is not None:
        require_positive(period=period)
        require_integer(0, axis=axis)
        if not axis < A.shape[1]:
            raise ValidationError(f"axis must be < {A.shape[1]}, got {shown(axis)}")
        for k in (-1.0, 1.0):
            shifted = B.copy()
            shifted[:, axis] += k * period
            images.append(shifted)
    elif axis is not None:
        raise ValidationError(f"axis {axis!r} needs a period; got period=None")
    from scipy.spatial import cKDTree

    # unbalanced, uncompacted trees build faster; the queries stay exact
    tree_b = cKDTree(np.concatenate(images), balanced_tree=False, compact_nodes=False)
    to_b = tree_b.query(A)[0]
    tree_a = cKDTree(A, balanced_tree=False, compact_nodes=False)
    to_a = np.min([tree_a.query(image)[0] for image in images], axis=0)
    return float(max(to_b.max(), to_a.max()))


@dataclass(frozen=True)
class PairDistance:
    eps_a: float
    eps_b: float
    final_distance: float
    spacetime_distance: float


@dataclass(frozen=True, eq=False)
class HausdorffReport:
    """Consecutive-eps front distances and per-run speed estimates."""

    eps_list: tuple
    pairs: tuple
    speeds: tuple

    def distances_decreasing(self) -> bool:
        d = [p.spacetime_distance for p in self.pairs]
        return all(b <= a for a, b in zip(d, d[1:]))


def convergence_study(config: SimConfig, eps_list: Sequence[float]) -> HausdorffReport:
    """Re-run the same data per eps and compare space-time fronts pairwise."""
    eps_list = _eps_list(eps_list, at_least=3)
    for e in eps_list:
        cells_y = e / config.domain.dy
        cells_x = e / config.domain.dx_ref
        if cells_y < 4 or cells_x < 4:
            raise ValidationError(
                f"resolution check failure: eps={e} has {cells_y:.2f} cells per "
                f"period in y and {cells_x:.2f} in x (need >= 4)"
            )

    histories = []
    for e in eps_list:
        cap = e / 8.0 if config.dt is None else min(config.dt, e / 8.0)
        histories.append(simulate(replace(config, eps=e, dt=cap)))

    Ly = config.domain.Ly
    speeds = tuple(h.front_speed(0.25 * config.T, config.T) for h in histories)
    pairs = []
    for (ea, ha), (eb, hb) in zip(zip(eps_list, histories),
                                  zip(eps_list[1:], histories[1:])):
        d_final = hausdorff(ha.final_points(), hb.final_points(),
                            period=Ly, axis=0)
        d_st = hausdorff(ha.spacetime_points(_SLICES),
                         hb.spacetime_points(_SLICES), period=Ly, axis=1)
        pairs.append(PairDistance(eps_a=ea, eps_b=eb, final_distance=d_final,
                                  spacetime_distance=d_st))
    return HausdorffReport(eps_list=eps_list, pairs=tuple(pairs), speeds=speeds)
