"""2D strip simulator for the oscillatory free-boundary law V = g |Du+|.

The wet region {0 < x < h(y, t)} in a strip (periodic in y) is mapped to a
rectangle by the boundary-fitted coordinate xt = x / h(y); the pressure is
harmonic in the wet region with u = psi0 at the inlet x = 0 and u = 0 on the
front, and the front graph h advances along its normal at speed g^eps |Du+|.

On a flat front the discrete pressure is the planar profile psi0 (1 - xt),
taken in closed form and checked against the stencil like any solve. A curved
front's mapped 9-point pressure stencil is solved matrix-free: first by the
flat-front fast Poisson solve (four products with the grid's cached dense
DST-I and real Fourier matrices), kept when it already meets GMRES's
tolerance, otherwise by the module's own restarted GMRES, right-preconditioned
by that fast solve. In a run, a curved step's GMRES starts from the Lagrange
extrapolation in time of the last six solved pressures (fewer early on: the
previous pressure alone on the second step); the first step of a run, and a
lone step(), start from the fast solve. A step fails with
NumericalError, naming t, when the front heights or g are not finite, when
the front leaves the strip or its graph condition, when the solve does not
converge to a relative residual of 1e-10, when u leaves [0, psi0] (the
discrete maximum principle), or when no step size can be set. Iterations and
residual are recorded per saved step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from ._lazy import lazy
from .errors import NumericalError, ValidationError, require_integer, require_positive
from .geometry import PlanarWave
from .homog1d import FlatnessTrace, Side, _eps_list
from .medium import Medium, _admit, eval_scaled

cdist = lazy("scipy.spatial.distance", "cdist")


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

    @property
    def y_nodes(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

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

    dt (when given) caps the step; otherwise the CFL policy
    dt = cfl * spacing / (M * max slope) decides alone, M being the medium's
    maximum sampled by the model contract.
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
        if not 0 < self.cfl <= 1:
            raise ValidationError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.dt is not None:
            require_positive(dt=self.dt)
        require_integer(1, save_every=self.save_every)

    def initial_front(self) -> FrontGraph:
        ny = self.domain.ny
        h = np.asarray(self.h0, dtype=float)
        if h.ndim == 0:
            h = np.full(ny, float(h))
        if h.shape != (ny,):
            raise ValidationError(
                f"h0 must be a scalar or a length-{ny} array, got shape {h.shape}"
            )
        margin = 2.0 * self.domain.dx_ref
        if not (np.all(h > margin) and np.all(h < self.domain.Lx - margin)):
            raise ValidationError(
                "initial front must stay 2 grid cells inside the strip"
            )
        return FrontGraph(heights=h, t=0.0)


def _front_derivatives(h: np.ndarray, dy: float) -> tuple[np.ndarray, np.ndarray]:
    wrap = np.concatenate((h[-1:], h, h[:1]))  # periodic: wrap[j] = h[j - 1]
    up, down = wrap[2:], wrap[:-2]
    return (up - down) / (2.0 * dy), (up - 2.0 * h + down) / dy ** 2


_GMRES_RTOL, _RESIDUAL_TOL = 1e-12, 1e-10
_GMRES_RESTART, _GMRES_CYCLES = 30, 20  # at most 600 iterations
_START_GRIDS = 6  # solved pressures that a curved solve's start extrapolates
_MAX_PRINCIPLE_TOL = 1e-12
_SLICES = 60  # space-time samples per history in convergence_study's distances


def _fast_poisson(domain: StripDomain, beta: float):
    """The solver of the flat operator u_xtxt + beta u_yy on the unknown rows
    (u = 0 at xt = 0 and 1, periodic in y), centered differences as in
    _solve_pressure: it maps (nx - 1) * ny right-hand side values, of any
    shape, to the solution, raveled.

    The operator is diagonal in the grid's cached orthonormal bases, Sx in xt
    and Fy in y, so u = Sx ((Sx r Fy) / lam) Fy^T: four dense products,
    O(nx^2 ny + nx ny^2) per call (the matrix decomposition form of the fast
    Poisson solver; Lynch, Rice and Thomas 1964).
    """
    nx, ny = domain.nx, domain.ny
    _xt, lam_x, sin2_y, Sx, Fy = domain._pressure_factors
    lam = lam_x - 4.0 * beta / domain.dy ** 2 * sin2_y

    def solve(r):
        r = r.reshape(nx - 1, ny)
        # y-coefficients of r - r[:, :1], which vanish exactly where r is
        # constant in y; the mean column gets r[:, 0] sqrt(ny) back. So a
        # y-constant r gives an exactly y-constant solution.
        r_hat = (r - r[:, :1]) @ Fy
        r_hat[:, 0] += r[:, 0] * math.sqrt(ny)
        return (Sx @ ((Sx @ r_hat) / lam) @ Fy.T).ravel()

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
        V[0] = r / estimate
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
            V[j + 1] = w / norm
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
    < len(times). One grid comes back as it is (w = 1)."""
    start = 0.0
    for i, (t_i, grid) in enumerate(zip(times, grids)):
        w = math.prod((t - t_j) / (t_i - t_j) for j, t_j in enumerate(times) if j != i)
        start = start + w * grid
    return start


def _flat_pressure(domain: StripDomain, psi0: float
                   ) -> tuple[np.ndarray, int, bool, float]:
    """The exact discrete pressure under a flat front, as (u grid, iterations,
    converged, relative residual) for _solve_pressure's checks.

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
                     hpp: np.ndarray, psi0: float, guess: Optional[np.ndarray]
                     ) -> tuple[np.ndarray, int, bool, float]:
    """The pressure under a curved front, as (u grid, iterations, converged,
    relative residual) for _solve_pressure's checks (see there)."""
    nx, ny, dy = domain.nx, domain.ny, domain.dy
    dxt = 1.0 / nx
    xt = domain._pressure_factors[0]
    a = 1.0 + xt ** 2 * hp ** 2
    b = h ** 2
    c = xt * h * hp
    d = xt * (2.0 * hp ** 2 - h * hpp)
    center = -2.0 * a / dxt ** 2 - 2.0 * b / dy ** 2
    east = a / dxt ** 2 + d / (2.0 * dxt)
    west = a / dxt ** 2 - d / (2.0 * dxt)
    north = b / dy ** 2
    cross = c / (2.0 * dxt * dy)

    def stencil(g):  # g: (nx + 1, ny + 2) with the boundary rows
        g[:, 0], g[:, -1] = g[:, -2], g[:, 1]  # fill the periodic ghost columns
        mid, step_x = g[1:-1, 1:-1], g[2:] - g[:-2]
        return (center * mid + east * g[2:, 1:-1] + west * g[:-2, 1:-1]
                + north * (g[1:-1, 2:] + g[1:-1, :-2])
                - cross * (step_x[:, 2:] - step_x[:, :-2]))

    fast_poisson = _fast_poisson(domain, float(np.mean(b)))
    work = np.zeros((nx + 1, ny + 2))  # zero inlet and front rows

    def matvec(v):
        work[1:nx, 1:-1] = v.reshape(nx - 1, ny)
        return stencil(work).ravel()

    # the inlet row u = psi0 enters the first unknown row through west alone:
    # its cross terms cancel, psi0 being constant in y; the front row u = 0
    # drops out
    rhs = np.zeros((nx - 1, ny))
    rhs[0] = -west[0] * psi0
    rhs_norm = np.linalg.norm(rhs)
    u = np.zeros((nx + 1, ny + 2))
    u[0] = psi0
    iterations, converged, residual = 1, True, math.inf
    if guess is None:
        u[1:nx, 1:-1] = fast_poisson(rhs).reshape(nx - 1, ny)
        residual = float(np.linalg.norm(stencil(u)) / rhs_norm)
    if residual > _GMRES_RTOL:  # GMRES's stopping test; False for NaN
        x0 = u[1:nx, 1:-1] if guess is None else guess[1:nx]
        target = _GMRES_RTOL * rhs_norm
        sol, iterations, estimate = _gmres(matvec, fast_poisson, rhs.ravel(), x0.ravel(),
                                           target)
        u[1:nx, 1:-1] = sol.reshape(nx - 1, ny)
        residual = float(np.linalg.norm(stencil(u)) / rhs_norm)
        converged = estimate <= target
    return u[:, 1:-1], iterations, converged, residual


def _solve_pressure(domain: StripDomain, h: np.ndarray, hp: np.ndarray,
                    hpp: np.ndarray, psi0: float, t: float,
                    guess: Optional[np.ndarray] = None
                    ) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Solve the mapped Laplace equation under the front h with derivatives
    (hp, hpp) = _front_derivatives(h, dy); return (u grid, |Du| at the front,
    iterations, relative residual |A u - b| / |b|).

    In xt = x/h(y) the equation becomes
      (1 + xt^2 h'^2) u_xtxt + h^2 u_yy - 2 xt h h' u_xty
        + xt (2 h'^2 - h h'') u_xt = 0,
    discretized with centered second-order differences on the unit square,
    u = psi0 at xt = 0, u = 0 at xt = 1, periodic in y. On a flat front (h
    constant) the discrete solution is the planar profile psi0 (1 - xt),
    taken in closed form by _flat_pressure (iterations 1), whose residual on
    the flat stencil is still computed. A curved front's 9-point operator
    is applied matrix-free. Without a `guess`, the flat operator
    u_xtxt + mean(h^2) u_yy is solved first, by _fast_poisson; that solution
    is kept when it meets GMRES's own stopping test |A u - b| <= 1e-12 |b|
    (iterations is then 1). Otherwise _gmres, right-preconditioned by the
    same fast solve, runs to that test on its residual estimate; it starts
    from `guess`, a pressure grid of the same shape (in simulate, the
    extrapolation of the last solved pressures, which share the mapped
    grid), when given, else from the fast solve, and iterations is its
    count. The residual is then recomputed explicitly.
    NumericalError when the solution is not finite, GMRES does not converge
    or the residual > 1e-10.
    """
    if h.max() == h.min():
        u, iterations, converged, residual = _flat_pressure(domain, psi0)
    else:
        u, iterations, converged, residual = _curved_pressure(domain, h, hp, hpp,
                                                              psi0, guess)
    why = ("produced non-finite values"
           if not (np.all(np.isfinite(u)) and math.isfinite(residual))
           else "did not converge" if not converged
           else "left a large residual" if not residual <= _RESIDUAL_TOL else None)
    if why is not None:
        raise NumericalError(f"pressure solve {why} at t={t:.6g}: {iterations} "
                             f"GMRES iterations, relative residual {residual:.3g}")

    # one-sided second-order normal slope at xt = 1 (u[nx] = 0)
    nx, dxt = domain.nx, 1.0 / domain.nx
    uxt = (u[nx - 2, :] - 4.0 * u[nx - 1, :]) / (2.0 * dxt)
    grad = np.abs(uxt) * np.sqrt(1.0 + hp ** 2) / h
    return u, grad, iterations, residual


def _advance(state: FrontGraph, config: SimConfig, dt_cap: Optional[float] = None,
             guess: Optional[np.ndarray] = None) -> tuple[FrontGraph, dict]:
    """One explicit step from `state`; info holds dt, the pressure range, the
    solve's iterations and residual, and the pressure grid ("u") that the
    next step's solve may start from as its `guess`."""
    domain = config.domain
    h = np.asarray(state.heights, dtype=float)
    if not np.all(np.isfinite(h)):
        raise NumericalError(f"front heights are not finite at t={state.t:.6g}")
    margin = 2.0 * domain.dx_ref
    for wall, bad in (("Lx", h >= domain.Lx - margin), ("0", h <= margin)):
        if np.any(bad):
            raise NumericalError(f"front leaves the strip at t={state.t:.6g}: "
                                 f"heights within 2 grid cells of x = {wall}")
    hp, hpp = _front_derivatives(h, domain.dy)
    if np.abs(hp).max() > 5.0:
        raise NumericalError(f"graph condition violated at t={state.t:.6g}: "
                             f"front slope {np.abs(hp).max():.3g} > 5")

    u, grad, iterations, residual = _solve_pressure(
        domain, h, hp, hpp, config.psi0, state.t, guess)
    u_min, u_max = float(u.min()), float(u.max())
    excess = max(-u_min, u_max - config.psi0)
    if not excess <= _MAX_PRINCIPLE_TOL:
        raise NumericalError(
            f"discrete maximum principle violated at t={state.t:.6g}: u in "
            f"[{u_min:.6g}, {u_max:.6g}] leaves [0, psi0 = {config.psi0:.6g}] "
            f"by {excess:.3g}")
    points = np.stack([h, domain.y_nodes], axis=-1)
    g = np.asarray(eval_scaled(config.medium, config.eps, points, state.t))
    if not np.all(np.isfinite(g)):
        raise NumericalError(
            f"medium g is not finite at the front at t={state.t:.6g}")
    slope = grad * np.sqrt(1.0 + hp ** 2)  # dh/dt = V * sqrt(1 + h_y^2)
    rate = g * slope

    spacing = min(float(h.min()) / domain.nx, domain.dy)
    peak = _admit(config.medium, 2).M * float(slope.max())
    if not peak > 0:
        raise NumericalError(
            f"front slope estimate vanished at t={state.t:.6g}; cannot set a step")
    dt = config.cfl * spacing / peak
    if config.dt is not None:
        dt = min(dt, config.dt)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if not dt > 0:
        raise NumericalError(f"step size collapsed to {dt} at t={state.t:.6g}")

    new = FrontGraph(heights=h + dt * rate, t=state.t + dt)
    info = {"dt": dt, "u_min": u_min, "u_max": u_max,
            "iterations": iterations, "residual": residual, "u": u}
    return new, info


def step(state: FrontGraph, config: SimConfig,
         dt_cap: Optional[float] = None) -> FrontGraph:
    """One explicit front advance: solve pressure, move h along the normal."""
    new, _info = _advance(state, config, dt_cap)
    return new


@dataclass(frozen=True, eq=False)
class SimHistory:
    """Saved fronts plus per-step pressure ranges and solver work.

    u_min, u_max, iterations and residual (relative, |A u - b| / |b|) hold
    one entry per saved front after the initial one. iterations is 1 on a
    flat front (one direct solve: the closed-form planar pressure) and when
    a curved front's fast Poisson solve met GMRES's tolerance and was kept,
    otherwise the count of the right-preconditioned GMRES run. It starts
    from the fast solve on the first step and from the Lagrange
    extrapolation to the step's time of the last (up to six) solved
    pressures after it; the bench's curved job at phase 0.3 takes 163
    iterations over 66 steps, against 441 from the previous pressure alone.
    """

    config: SimConfig
    times: np.ndarray
    fronts: tuple
    u_min: np.ndarray
    u_max: np.ndarray
    total_steps: int
    iterations: np.ndarray
    residual: np.ndarray

    @property
    def final_front(self) -> FrontGraph:
        return self.fronts[-1]

    def mean_depths(self) -> np.ndarray:
        return np.array([f.heights.mean() for f in self.fronts])

    def front_speed(self, t_start: float, t_end: float) -> float:
        """Least-squares slope of the mean depth over [t_start, t_end]."""
        mask = (self.times >= t_start) & (self.times <= t_end)
        if mask.sum() < 2:
            raise ValidationError("not enough saved fronts in the fit window")
        coeffs = np.polyfit(self.times[mask], self.mean_depths()[mask], 1)
        return float(coeffs[0])

    def spacetime_points(self, max_slices: int = 60) -> np.ndarray:
        """Front samples as (t, y, h) rows, subsampled to max_slices times."""
        require_integer(1, max_slices=max_slices)
        count = len(self.fronts)
        idx = np.unique(np.linspace(0, count - 1, min(max_slices, count)).astype(int))
        ys = self.config.domain.y_nodes
        rows = []
        for i in idx:
            f = self.fronts[i]
            rows.append(np.column_stack(
                [np.full(ys.size, f.t), ys, f.heights]))
        return np.concatenate(rows, axis=0)

    def final_points(self) -> np.ndarray:
        """Final front as (y, h) rows."""
        f = self.final_front
        return np.column_stack([self.config.domain.y_nodes, f.heights])


def simulate(config: SimConfig, max_steps: int = 200000) -> SimHistory:
    """Run the explicit front dynamics to time T, saving every save_every steps."""
    require_integer(1, max_steps=max_steps)
    state = config.initial_front()
    times = [0.0]
    fronts = [state]
    saved = {"u_min": [], "u_max": [], "iterations": [], "residual": []}
    k, solved = 0, []  # solved: (t, u) of the last _START_GRIDS pressure solves
    while state.t < config.T - 1e-12:
        if k == max_steps:
            raise NumericalError(f"exceeded {max_steps} steps before reaching T: "
                                 f"at t={state.t:.6g} of T={config.T:.6g}")
        # only a curved front runs GMRES, so only it needs a start
        h, t = state.heights, state.t
        guess = (_extrapolate(*zip(*solved), t)
                 if solved and h.max() != h.min() else None)
        state, info = _advance(state, config, config.T - t, guess)
        k, solved = k + 1, (solved + [(t, info["u"])])[-_START_GRIDS:]
        if k % config.save_every == 0 or state.t >= config.T - 1e-12:
            times.append(state.t)
            fronts.append(state)
            for key, values in saved.items():
                values.append(info[key])
    return SimHistory(config=config, times=np.array(times), fronts=tuple(fronts),
                      total_steps=k,
                      **{key: np.array(values) for key, values in saved.items()})


def hausdorff(A, B, period: Optional[float] = None,
              axis: Optional[int] = None) -> float:
    """Hausdorff distance between finite point sets, optionally periodic.

    When period (finite, > 0) is given, coordinate `axis` (an int in
    [0, dim)) of B is additionally shifted by -period, 0, +period and the
    pointwise minimum over shifts is used. A non-finite point is a ValidationError.
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
    if period is not None:
        require_positive(period=period)
        require_integer(0, axis=axis)
        if not axis < A.shape[1]:
            raise ValidationError(f"axis must be < {A.shape[1]}, got {axis}")
    dist = cdist(A, B)
    if period is not None:
        # minimum taken in place: two distance matrices alive, not three
        for k in (-1.0, 1.0):
            shifted = B.copy()
            shifted[:, axis] += k * period
            np.minimum(dist, cdist(A, shifted), out=dist)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


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


def flatness2d(history: SimHistory, P: PlanarWave) -> FlatnessTrace:
    """Running max excess of the simulated front over the planar front of P.

    The wave must propagate along the depth axis (nu close to e_x) so the
    planar front is the graph x = r t + eta0, anchored to the initial front.
    """
    nu = P.nu
    if nu.shape != (2,) or abs(nu[0] - 1.0) > 1e-9 or abs(nu[1]) > 1e-9:
        raise ValidationError(
            "planar wave must propagate along the depth axis (+x) for "
            "graph-front comparison"
        )
    f0 = history.fronts[0]
    eta0 = float(np.max(f0.heights)) - P.r * f0.t
    detach = np.array([float(np.max(f.heights)) - (P.r * f.t + eta0)
                       for f in history.fronts])
    phi = np.maximum.accumulate(np.maximum(detach, 0.0))
    return FlatnessTrace(times=np.asarray(history.times, dtype=float),
                         phi=phi, side=Side.SUPER)
