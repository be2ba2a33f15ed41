"""Tests for the 2D strip simulator: front dynamics, invariants, distances.

Oracles used here:
- With a constant medium and a flat front the pressure is linear in x, the
  discrete solve is exact, and the mean depth obeys h' = psi0 / h, so
  h(t) = sqrt(h0^2 + 2 psi0 t) up to time-stepping error only.
- Reflection symmetry: a y-even initial front in a y-independent medium stays
  y-even for all time (the discretization commutes with the reflection).
- Hausdorff distances on hand-built point sets.
- The pressure solver (matrix-free stencil, GMRES with a fast-Poisson
  preconditioner) against the assembled sparse matrix and SuperLU direct
  solve kept below as `reference_pressure`.
- An exact curved front: the zero set of the harmonic
  u = psi0 - a x + b sinh(kx) cos(ky), on which |Du| is known, so the
  pressure solve and one step's normal speed show their order of accuracy.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import gmres, spsolve

from hele_homog import hs2d
from hele_homog.errors import NumericalError, ValidationError
from hele_homog.geometry import PlanarWave
from hele_homog.homog1d import Side
from hele_homog.hs2d import (
    FrontGraph,
    SimConfig,
    StripDomain,
    convergence_study,
    flatness2d,
    hausdorff,
    _front_derivatives,
    _solve_pressure,
    simulate,
    step,
)
from hele_homog.medium import builtin_medium, parse_medium


def constant_medium():
    return parse_medium("1", dim=2)


def basic_config(**overrides):
    defaults = dict(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=16, ny=8),
        medium=constant_medium(),
        eps=0.5,
        psi0=1.0,
        T=1.0,
        h0=1.0,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# ---------------------------------------------------------------------------
# StripDomain and SimConfig validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_domain_rejects_nonpositive_lengths(self):
        with pytest.raises(ValidationError, match="Lx must be > 0"):
            StripDomain(Lx=0.0, Ly=1.0, nx=16, ny=8)
        with pytest.raises(ValidationError, match="Ly must be > 0"):
            StripDomain(Lx=1.0, Ly=-2.0, nx=16, ny=8)

    def test_domain_rejects_small_or_nonint_grids(self):
        with pytest.raises(ValidationError, match="nx, ny"):
            StripDomain(Lx=1.0, Ly=1.0, nx=7, ny=8)
        with pytest.raises(ValidationError, match="nx, ny"):
            StripDomain(Lx=1.0, Ly=1.0, nx=16, ny=8.0)
        with pytest.raises(ValidationError, match=r"nx \(of nx, ny\) must be an integer"):
            StripDomain(Lx=1.0, Ly=1.0, nx=np.int64(16), ny=8)

    def test_domain_spacings_and_nodes(self):
        dom = StripDomain(Lx=2.0, Ly=1.0, nx=10, ny=8)
        assert dom.dx_ref == pytest.approx(0.2)
        assert dom.dy == pytest.approx(0.125)
        assert dom.y_nodes.shape == (8,)
        assert dom.y_nodes[0] == 0.0
        # periodic grid: the last node is one spacing short of Ly
        assert dom.y_nodes[-1] == pytest.approx(1.0 - 0.125)

    def test_config_requires_dim2_medium(self):
        with pytest.raises(ValidationError, match="dim-2 medium"):
            basic_config(medium=parse_medium("1 + sin(pi*(x - t))^2", dim=1))

    @pytest.mark.parametrize(
        "field, value, pattern",
        [
            ("eps", 0.0, "eps"),
            ("eps", -1.0, "eps"),
            ("psi0", 0.0, "psi0"),
            ("T", 0.0, "T"),
            ("cfl", 0.0, "cfl"),
            ("cfl", 1.5, "cfl"),
            ("dt", 0.0, "dt"),
            ("save_every", 0, "save_every"),
            ("save_every", True, "save_every must be an integer"),
        ],
    )
    def test_config_scalar_validation(self, field, value, pattern):
        with pytest.raises(ValidationError, match=pattern):
            basic_config(**{field: value})

    def test_initial_front_scalar_fill(self):
        cfg = basic_config(h0=1.5)
        f = cfg.initial_front()
        assert f.t == 0.0
        np.testing.assert_array_equal(f.heights, np.full(8, 1.5))

    def test_initial_front_array_passthrough(self):
        h = 1.0 + 0.1 * np.cos(2 * np.pi * np.arange(8) / 8)
        f = basic_config(h0=h).initial_front()
        np.testing.assert_allclose(f.heights, h)

    def test_initial_front_wrong_length(self):
        with pytest.raises(ValidationError, match="length-8"):
            basic_config(h0=np.ones(9)).initial_front()

    def test_initial_front_must_leave_margin(self):
        # margin is two reference cells: 2 * Lx / nx = 0.5 here
        with pytest.raises(ValidationError, match="2 grid cells"):
            basic_config(h0=0.4).initial_front()
        with pytest.raises(ValidationError, match="2 grid cells"):
            basic_config(h0=3.6).initial_front()


# ---------------------------------------------------------------------------
# Closed-form growth for a constant medium
# ---------------------------------------------------------------------------


class TestSquareRootGrowth:
    def test_flat_front_follows_sqrt_law(self):
        # h' = psi0 / h  =>  h(T) = sqrt(h0^2 + 2 psi0 T) = 2 exactly
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
        cfg = SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                        psi0=1.0, T=1.5, h0=1.0)
        hist = simulate(cfg)
        h_fin = hist.final_front.heights
        assert abs(h_fin.mean() - 2.0) / 2.0 < 5e-3
        # a flat front stays exactly flat: the solve has no y-dependence
        assert np.ptp(h_fin) == 0.0

    def test_final_time_is_clipped_to_horizon(self):
        hist = simulate(basic_config(T=0.7))
        assert abs(hist.times[-1] - 0.7) <= 1e-9

    def test_time_step_error_is_first_order(self):
        # flat front + constant medium: the space error vanishes, so halving
        # the step cap must halve the depth error (explicit Euler in time)
        exact = math.sqrt(1.0 + 2.0 * 1.0 * 1.0)
        errs = []
        for dt in (0.02, 0.01):
            hist = simulate(basic_config(dt=dt))
            errs.append(abs(hist.final_front.heights.mean() - exact))
        ratio = errs[0] / errs[1]
        assert 1.7 < ratio < 2.3

    def test_pressure_stays_between_inlet_and_front_values(self):
        hist = simulate(basic_config(T=1.5))
        assert np.all(hist.u_min >= -1e-12)
        assert np.all(hist.u_max <= 1.0 + 1e-12)

    def test_mean_depth_is_nondecreasing(self):
        hist = simulate(basic_config(T=1.0))
        depths = hist.mean_depths()
        assert np.all(np.diff(depths) > 0)

    def test_heights_increase_pointwise(self):
        cfg = basic_config()
        f0 = cfg.initial_front()
        f1 = step(f0, cfg)
        assert f1.t > 0
        assert np.all(f1.heights > f0.heights)


# ---------------------------------------------------------------------------
# Symmetry and oscillatory media
# ---------------------------------------------------------------------------


class TestSymmetryAndMedia:
    def test_even_front_stays_even_in_y_independent_medium(self):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
        y = dom.y_nodes
        h0 = 1.0 + 0.1 * np.cos(2 * np.pi * y / dom.Ly)
        cfg = SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                        psi0=1.0, T=0.5, h0=h0)
        hist = simulate(cfg)
        hf = hist.final_front.heights
        reflected = hf[(-np.arange(dom.ny)) % dom.ny]
        assert np.abs(hf - reflected).max() <= 1e-12

    def test_bumpy_front_flattens_under_constant_medium(self):
        # higher pressure gradient at the trailing parts evens the front out
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
        y = dom.y_nodes
        h0 = 1.0 + 0.1 * np.cos(2 * np.pi * y / dom.Ly)
        cfg = SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                        psi0=1.0, T=1.0, h0=h0)
        hist = simulate(cfg)
        assert np.ptp(hist.final_front.heights) < np.ptp(h0)

    def test_oscillatory_medium_runs_and_respects_pressure_bounds(self):
        cfg = basic_config(medium=builtin_medium("pinning2d"), eps=0.25,
                           psi0=0.8, T=0.5)
        hist = simulate(cfg)
        assert hist.final_front.heights.mean() > 1.0
        assert np.all(hist.u_min >= -1e-12)
        assert np.all(hist.u_max <= 0.8 + 1e-12)


# ---------------------------------------------------------------------------
# Error paths in the stepper
# ---------------------------------------------------------------------------


class TestErrorPaths:
    def test_front_near_far_wall_raises(self):
        cfg = SimConfig(domain=StripDomain(Lx=1.2, Ly=1.0, nx=16, ny=8),
                        medium=constant_medium(), eps=0.5, psi0=1.0,
                        T=50.0, h0=0.5)
        with pytest.raises(NumericalError, match="x = Lx"):
            simulate(cfg)

    def test_front_near_inlet_raises(self):
        cfg = basic_config()
        low = FrontGraph(heights=np.full(8, 0.01), t=0.0)
        with pytest.raises(NumericalError, match="x = 0"):
            step(low, cfg)

    def test_steep_front_violates_graph_condition(self):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=16, ny=16)
        steep = FrontGraph(heights=2.0 + 0.9 * np.sin(2 * np.pi * dom.y_nodes),
                           t=0.0)
        cfg = SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                        psi0=1.0, T=1.0)
        with pytest.raises(NumericalError, match="graph condition"):
            step(steep, cfg)

    def test_step_budget_is_enforced(self):
        with pytest.raises(NumericalError, match="exceeded 3 steps"):
            simulate(basic_config(T=1.0), max_steps=3)
        for bad in (0, 2.5):
            with pytest.raises(ValidationError, match="max_steps must be an integer >= 1"):
                simulate(basic_config(T=1.0), max_steps=bad)


# ---------------------------------------------------------------------------
# History accessors
# ---------------------------------------------------------------------------


class TestHistory:
    def test_save_every_thins_the_record(self):
        dense = simulate(basic_config(T=0.5))
        thin = simulate(basic_config(T=0.5, save_every=4))
        assert dense.total_steps == thin.total_steps
        assert len(thin.times) < len(dense.times)
        # both records keep the initial and the final front
        assert thin.times[0] == 0.0
        assert abs(thin.times[-1] - 0.5) <= 1e-9
        # pressure ranges are recorded per save, after the initial state
        assert len(thin.u_min) == len(thin.times) - 1

    def test_front_speed_matches_analytic_rate(self):
        # h(t) = sqrt(1 + 2t): mean slope over [0.5, 1.0] is h(1) - h(0.5)
        hist = simulate(basic_config(T=1.0))
        fitted = hist.front_speed(0.5, 1.0)
        expected = (math.sqrt(3.0) - math.sqrt(2.0)) / 0.5
        assert fitted == pytest.approx(expected, rel=2e-2)

    def test_front_speed_needs_two_samples(self):
        hist = simulate(basic_config(T=0.5))
        with pytest.raises(ValidationError, match="fit window"):
            hist.front_speed(5.0, 6.0)
        for bad in (0, 2.5):
            with pytest.raises(ValidationError, match="max_slices must be an integer >= 1"):
                hist.spacetime_points(max_slices=bad)

    def test_spacetime_points_shape_and_subsampling(self):
        hist = simulate(basic_config(T=0.5))
        pts = hist.spacetime_points(max_slices=5)
        ny = hist.config.domain.ny
        assert pts.shape[1] == 3
        assert pts.shape[0] <= 5 * ny
        assert pts.shape[0] % ny == 0
        # rows are (t, y, h): times nondecreasing, first block at t = 0
        assert pts[0, 0] == 0.0
        assert np.all(np.diff(pts[:, 0]) >= 0)

    def test_final_points_pairs_nodes_with_heights(self):
        hist = simulate(basic_config(T=0.5))
        pts = hist.final_points()
        assert pts.shape == (8, 2)
        np.testing.assert_allclose(pts[:, 0], hist.config.domain.y_nodes)
        np.testing.assert_allclose(pts[:, 1], hist.final_front.heights)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------


class TestHausdorff:
    def test_identical_sets_have_zero_distance(self):
        pts = np.random.default_rng(0).random((20, 2))
        assert hausdorff(pts, pts) == 0.0

    def test_singletons(self):
        assert hausdorff([0.0], [3.0]) == pytest.approx(3.0)

    def test_symmetry_without_periodicity(self):
        rng = np.random.default_rng(1)
        A, B = rng.random((10, 2)), rng.random((15, 2))
        assert hausdorff(A, B) == pytest.approx(hausdorff(B, A))

    def test_subset_is_one_sided(self):
        # A inside B: sup over B of the distance to A dominates
        A = np.array([[0.0, 0.0]])
        B = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert hausdorff(A, B) == pytest.approx(2.0)

    def test_periodic_wrap_cancels_a_full_period_shift(self):
        y = np.linspace(0.0, 1.0, 16, endpoint=False)
        f = 1.0 + 0.1 * np.sin(2 * np.pi * y)
        A = np.column_stack([y, f])
        B = np.column_stack([y + 1.0, f])
        assert hausdorff(A, B) > 0.5
        assert hausdorff(A, B, period=1.0, axis=0) <= 1e-12

    def test_periodic_nearest_image_is_used(self):
        # points at y = 0.05 and y = 0.95 are 0.1 apart across the seam
        A = np.array([[0.05, 1.0]])
        B = np.array([[0.95, 1.0]])
        assert hausdorff(A, B, period=1.0, axis=0) == pytest.approx(0.1)

    def test_rejects_higher_rank_input(self):
        with pytest.raises(ValidationError, match="1- or 2-dimensional"):
            hausdorff(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_rejects_empty_sets(self):
        with pytest.raises(ValidationError, match="non-empty"):
            hausdorff(np.empty((0, 2)), np.ones((3, 2)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            hausdorff(np.ones((3, 2)), np.ones((3, 3)))

    def test_period_requires_valid_axis(self):
        A = np.ones((3, 2))
        with pytest.raises(ValidationError, match="axis"):
            hausdorff(A, A, period=1.0)
        with pytest.raises(ValidationError, match="axis"):
            hausdorff(A, A, period=1.0, axis=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        # a NaN point used to give a nan distance and an inf point inf
        A, B = np.zeros((3, 2)), np.ones((4, 2))
        B[2, 1] = bad
        for args in ((A, B), (B, A), (A, B, 1.0, 0)):
            with pytest.raises(ValidationError, match="finite"):
                hausdorff(*args)

    @pytest.mark.parametrize("period", [-1.0, 0.0, np.nan, np.inf])
    def test_period_must_be_positive_and_finite(self, period):
        # period=-1 used to give a plausible 0.1 here, period=nan gave nan
        A = np.array([[0.05, 1.0]])
        B = np.array([[0.95, 1.0]])
        with pytest.raises(ValidationError, match="period must be > 0 and finite"):
            hausdorff(A, B, period=period, axis=0)


# ---------------------------------------------------------------------------
# Convergence study driver
# ---------------------------------------------------------------------------


class TestConvergenceStudy:
    def smoke_config(self):
        dom = StripDomain(Lx=0.8, Ly=0.4, nx=8, ny=8)
        return SimConfig(domain=dom, medium=constant_medium(), eps=0.8,
                         psi0=0.3, T=0.05, h0=0.3)

    def test_constant_medium_runs_coincide(self):
        # eps is irrelevant for a constant medium, so all three runs agree
        # and every pairwise front distance vanishes
        report = convergence_study(self.smoke_config(), [0.8, 0.6, 0.4])
        assert report.eps_list == (0.8, 0.6, 0.4)
        assert len(report.pairs) == 2
        assert report.distances_decreasing()
        for pair in report.pairs:
            assert pair.final_distance <= 1e-12
            assert pair.spacetime_distance <= 1e-12
        assert max(report.speeds) - min(report.speeds) <= 1e-12

    def test_needs_three_eps_values(self):
        with pytest.raises(ValidationError, match="at least 3"):
            convergence_study(self.smoke_config(), [0.8, 0.4])

    def test_needs_strictly_decreasing_eps(self):
        with pytest.raises(ValidationError, match="strictly decreasing"):
            convergence_study(self.smoke_config(), [0.4, 0.6, 0.8])

    def test_needs_positive_eps(self):
        with pytest.raises(ValidationError, match="> 0"):
            convergence_study(self.smoke_config(), [0.8, 0.4, -0.1])

    def test_rejects_unresolved_oscillations(self):
        # eps = 0.1 spans only 2 cells of dy = 0.05: oscillations unresolved
        with pytest.raises(ValidationError, match="resolution check"):
            convergence_study(self.smoke_config(), [0.4, 0.2, 0.1])


# ---------------------------------------------------------------------------
# Flatness against a planar wave
# ---------------------------------------------------------------------------


class TestFlatness2d:
    def history(self):
        return simulate(basic_config(psi0=0.5, T=1.5, save_every=2))

    def test_fast_wave_is_never_overtaken(self):
        # depth sqrt(1 + t) stays below the unit-speed planar front 1 + t
        trace = flatness2d(self.history(), PlanarWave(q=[-1.0, 0.0], r=1.0))
        assert trace.phi.max() == 0.0
        assert trace.side is Side.SUPER

    def test_slow_wave_records_the_excess(self):
        # continuum excess at T: sqrt(1 + 2*0.5*1.5) - (1 + 0.1*1.5) ~ 0.431
        hist = self.history()
        trace = flatness2d(hist, PlanarWave(q=[-1.0, 0.0], r=0.1))
        assert trace.phi[-1] == pytest.approx(
            math.sqrt(2.5) - 1.15, abs=2e-2)
        assert np.all(np.diff(trace.phi) >= 0)
        np.testing.assert_allclose(trace.times, hist.times)

    def test_wave_must_point_along_depth_axis(self):
        with pytest.raises(ValidationError, match="depth axis"):
            flatness2d(self.history(), PlanarWave(q=[0.0, -1.0], r=1.0))


# ---------------------------------------------------------------------------
# Pressure solver against the sparse direct reference
# ---------------------------------------------------------------------------


def reference_system(domain, h, psi0):
    """The 9-point system of hs2d._solve_pressure assembled as a sparse
    matrix; returns (matrix, right-hand side) over the interior unknowns."""
    nx, ny, dy = domain.nx, domain.ny, domain.dy
    dxt = 1.0 / nx
    hp, hpp = _front_derivatives(h, dy)

    ii, jj = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    xt = ii * dxt
    H, Hp, Hpp = h[jj], hp[jj], hpp[jj]
    a = 1.0 + xt ** 2 * Hp ** 2
    b = H ** 2
    c = xt * H * Hp
    d = xt * (2.0 * Hp ** 2 - H * Hpp)

    center = -2.0 * a / dxt ** 2 - 2.0 * b / dy ** 2
    east = a / dxt ** 2 + d / (2.0 * dxt)
    west = a / dxt ** 2 - d / (2.0 * dxt)
    north = south = b / dy ** 2
    cross = c / (2.0 * dxt * dy)
    stencil = [
        (0, 0, center),
        (1, 0, east), (-1, 0, west),
        (0, 1, north), (0, -1, south),
        (1, 1, -cross), (1, -1, cross), (-1, 1, cross), (-1, -1, -cross),
    ]

    n_unknown = (nx - 1) * ny
    rows_idx = (ii - 1) * ny + jj
    rhs = np.zeros(n_unknown)
    rows, cols, vals = [], [], []
    for di, dj, coef in stencil:
        ni = ii + di
        nj = (jj + dj) % ny
        interior = (ni >= 1) & (ni <= nx - 1)
        inlet = ni == 0
        rows.append(rows_idx[interior])
        cols.append(((ni - 1) * ny + nj)[interior])
        vals.append(np.broadcast_to(coef, ii.shape)[interior])
        if np.any(inlet):
            np.add.at(rhs, rows_idx[inlet],
                      -np.broadcast_to(coef, ii.shape)[inlet] * psi0)
        # neighbors at ni == nx sit on the front where u = 0: dropped

    mat = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknown, n_unknown),
    )
    return mat, rhs


def reference_pressure(domain, h, psi0):
    """The reference system solved by SuperLU; returns (u grid, |Du| at the
    front)."""
    nx, ny = domain.nx, domain.ny
    dxt = 1.0 / nx
    hp, _ = _front_derivatives(h, domain.dy)
    mat, rhs = reference_system(domain, h, psi0)
    u = np.zeros((nx + 1, ny))
    u[0, :] = psi0
    u[1:nx, :] = spsolve(mat, rhs).reshape(nx - 1, ny)
    uxt = (u[nx - 2, :] - 4.0 * u[nx - 1, :]) / (2.0 * dxt)
    return u, np.abs(uxt) * np.sqrt(1.0 + hp ** 2) / h


SOLVER_GRIDS = [
    StripDomain(Lx=4.0, Ly=1.0, nx=64, ny=64),
    StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=8),
    StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=20),
    StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=9),  # odd ny: odd-length irfft
]


def sine_front(domain, slope):
    """Front at 0.45 Lx with one sine period whose discrete max slope is `slope`."""
    shape = np.sin(2 * np.pi * domain.y_nodes / domain.Ly)
    unit = np.abs(_front_derivatives(shape, domain.dy)[0]).max()
    return 0.45 * domain.Lx + (slope / unit) * shape


def ulp_noise_front(domain):
    h = np.full(domain.ny, 0.45 * domain.Lx)
    steps = np.random.default_rng(domain.ny).integers(-2, 3, domain.ny)
    return h + steps * np.spacing(h)


def solve_pressure(dom, h, psi0, t):
    return _solve_pressure(dom, h, *_front_derivatives(h, dom.dy), psi0, t)


FRONTS = {
    "flat": lambda dom: sine_front(dom, 0.0),
    "flat_ulp_noise": ulp_noise_front,
    "curved_0.25": lambda dom: sine_front(dom, 0.25),
    "steep_4.4": lambda dom: sine_front(dom, 4.4),
}


class TestPressureSolver:
    @pytest.mark.parametrize("front", FRONTS)
    @pytest.mark.parametrize("dom", SOLVER_GRIDS,
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_matches_sparse_direct_reference(self, dom, front):
        h = FRONTS[front](dom)
        u_ref, grad_ref = reference_pressure(dom, h, 0.7)
        u, grad, iterations, residual = solve_pressure(dom, h, 0.7, 0.0)
        assert np.abs(u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()
        assert np.abs(grad - grad_ref).max() <= 1e-9 * np.abs(grad_ref).max()
        assert residual <= 1e-10
        assert iterations >= 1

    @pytest.mark.parametrize("dom", SOLVER_GRIDS,
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_flat_front_takes_one_iteration(self, dom):
        # the preconditioner is the flat-front operator itself
        _, _, iterations, _ = solve_pressure(dom, sine_front(dom, 0.0), 1.0, 0.0)
        assert iterations == 1

    @pytest.mark.parametrize("dom", SOLVER_GRIDS,
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_gently_curved_front_takes_few_iterations(self, dom):
        # 11 on every grid; a preconditioner with the wrong mean(h^2) takes 16-20
        _, _, iterations, _ = solve_pressure(dom, sine_front(dom, 0.25), 1.0, 0.0)
        assert iterations <= 13

    def test_history_records_iterations_and_residuals(self):
        flat = simulate(basic_config(T=0.5, save_every=2))
        assert flat.iterations.shape == flat.u_min.shape
        assert flat.residual.shape == flat.u_min.shape
        assert np.all(flat.iterations == 1)
        assert np.all(flat.residual <= 1e-10)
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
        bumpy = simulate(SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                                   psi0=1.0, T=0.2, h0=sine_front(dom, 0.5)))
        assert np.all(bumpy.iterations > 1)
        assert np.all(bumpy.residual <= 1e-10)

    @pytest.mark.parametrize("ny", [8, 9, 64])
    def test_front_derivatives_match_periodic_rolls(self, ny):
        # same arithmetic in the same order as the np.roll formulas: equal bits
        h = 1.0 + np.random.default_rng(ny).uniform(-0.3, 0.3, ny)
        dy = 1.0 / ny
        hp, hpp = _front_derivatives(h, dy)
        np.testing.assert_array_equal(
            hp, (np.roll(h, -1) - np.roll(h, 1)) / (2.0 * dy))
        np.testing.assert_array_equal(
            hpp, (np.roll(h, -1) - 2.0 * h + np.roll(h, 1)) / dy ** 2)

    def test_flat_steps_skip_gmres_and_curved_steps_call_it_once(self, monkeypatch):
        calls = []

        def counting_gmres(*args, **kwargs):
            calls.append(kwargs["x0"])
            return gmres(*args, **kwargs)

        monkeypatch.setattr(hs2d, "gmres", counting_gmres)
        flat = simulate(basic_config(T=0.1, dt=0.01))
        assert flat.total_steps == 10
        assert calls == []
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
        curved = simulate(SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                                    psi0=1.0, T=0.01, dt=0.001,
                                    h0=sine_front(dom, 0.5)))
        assert curved.total_steps == 10
        assert len(calls) == 10
        # warm-started from the fast Poisson solve, not from zero
        assert all(np.any(x0 != 0.0) for x0 in calls)

    @pytest.mark.parametrize("dom", SOLVER_GRIDS,
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_accepted_fast_solve_meets_gmres_tolerance(self, dom, monkeypatch):
        def no_gmres(*args, **kwargs):
            raise AssertionError("a flat front must not reach GMRES")

        monkeypatch.setattr(hs2d, "gmres", no_gmres)
        h = sine_front(dom, 0.0)
        u, _, iterations, residual = solve_pressure(dom, h, 0.7, 0.0)
        mat, rhs = reference_system(dom, h, 0.7)
        true_residual = np.linalg.norm(mat @ u[1:-1].ravel() - rhs)
        assert true_residual <= 1e-12 * np.linalg.norm(rhs)
        assert residual <= 1e-12
        assert iterations == 1

    def test_gmres_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(hs2d, "_GMRES_RESTART", 2)
        monkeypatch.setattr(hs2d, "_GMRES_CYCLES", 1)
        cfg = basic_config()
        front = FrontGraph(heights=sine_front(cfg.domain, 0.5), t=0.25)
        with pytest.raises(NumericalError,
                           match=r"did not converge at t=0\.25: 2 GMRES "
                                 r"iterations, relative residual"):
            step(front, cfg)

    def test_large_recomputed_residual_raises(self, monkeypatch):
        monkeypatch.setattr(hs2d, "_RESIDUAL_TOL", 1e-300)
        cfg = basic_config()
        front = FrontGraph(heights=sine_front(cfg.domain, 0.5), t=0.25)
        with pytest.raises(NumericalError,
                           match=r"large residual at t=0\.25: \d+ GMRES "
                                 r"iterations, relative residual"):
            step(front, cfg)

    def test_non_finite_solution_raises(self):
        dom = SOLVER_GRIDS[3]
        h = sine_front(dom, 0.25)
        h[4] = np.inf
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="non-finite values at t=0.5"):
                solve_pressure(dom, h, 1.0, 0.5)


# u = psi0 - a x + b sinh(k x) cos(k y), k = 2 pi / Ly, is harmonic, equals
# psi0 at the inlet and vanishes on the curved front x = h(y) (max slope 0.195)
_MMS = dict(psi0=1.0, a=1.0, b=0.005, Lx=3.0, Ly=2.0)


def _exact_front(n):
    """Grid, front h, exact |Du| and exact h' at the nodes of an n x n grid;
    h by brentq per node ([0.2, 2.5] has no sign change at b = 0.005)."""
    psi0, a, b, Lx, Ly = (_MMS[k] for k in ("psi0", "a", "b", "Lx", "Ly"))
    k = 2.0 * math.pi / Ly
    dom = StripDomain(Lx=Lx, Ly=Ly, nx=n, ny=n)
    y = dom.y_nodes
    h = np.array([brentq(lambda x: psi0 - a * x + b * math.sinh(k * x) * math.cos(k * yj),
                         0.2, 1.5, xtol=1e-15) for yj in y])
    ux = -a + b * k * np.cosh(k * h) * np.cos(k * y)
    uy = -b * k * np.sinh(k * h) * np.sin(k * y)
    return dom, h, np.hypot(ux, uy), -uy / ux


class TestCurvedFrontYardstick:
    """The pressure solve and one front step against an exact curved front."""

    @staticmethod
    def _orders(errors):
        return [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]

    def test_front_gradient_is_second_order(self):
        # measured: 6.60e-3, 1.76e-3, 4.52e-4 (orders 1.91, 1.96), 9 iterations
        errors = []
        for n in (16, 32, 64):
            dom, h, grad_exact, _ = _exact_front(n)
            _, grad, iterations, residual = solve_pressure(dom, h, _MMS["psi0"], 0.0)
            assert residual <= 1e-10 and iterations <= 12
            errors.append(float(np.abs(grad - grad_exact).max()))
        assert errors[0] < 1e-2
        assert min(self._orders(errors)) >= 1.8

    def test_one_step_moves_the_front_at_the_exact_normal_speed(self):
        # g = 1: dh/dt = |Du| sqrt(1 + h'^2) with the exact h'
        errors = []
        for n in (16, 32, 64):
            dom, h, grad_exact, hp_exact = _exact_front(n)
            cfg = SimConfig(domain=dom, medium=constant_medium(), eps=1.0,
                            psi0=_MMS["psi0"], T=1.0, h0=h)
            new, info = hs2d._advance(FrontGraph(heights=h, t=0.0), cfg)
            rate = (new.heights - h) / info["dt"]
            errors.append(float(np.abs(rate - grad_exact * np.sqrt(1.0 + hp_exact ** 2)).max()))
        assert errors[0] < 1e-2
        assert min(self._orders(errors)) >= 1.8


class TestMaximumPrinciple:
    def test_pressure_outside_zero_psi0_stops_the_step(self):
        # at slope 4.4 the 9-point stencil is no longer monotone: u dips to
        # about -1.5e-3
        dom = SOLVER_GRIDS[3]
        cfg = basic_config(domain=dom, psi0=0.7)
        front = FrontGraph(heights=sine_front(dom, 4.4), t=0.3)
        with pytest.raises(NumericalError,
                           match=r"maximum principle violated at t=0\.3: u in "
                                 r"\[-0\.00152535, 0\.7\] leaves .* by 0\.00153"):
            step(front, cfg)


class TestNonFiniteInputs:
    def test_non_finite_heights_raise_with_time(self):
        cfg = basic_config()
        heights = np.full(8, 1.0)
        heights[3] = np.nan
        with pytest.raises(NumericalError, match="heights are not finite at t=0.3"):
            step(FrontGraph(heights=heights, t=0.3), cfg)

    def test_nan_medium_stops_the_first_step(self, monkeypatch):
        # sqrt(sin(pi*y)) is NaN on half of every y-period: the model
        # contract rejects it before any step
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                basic_config(medium=parse_medium("sqrt(sin(pi*y)) + 1", dim=2))
        # a NaN g that slips past the sampled contract: comparisons let NaN
        # through, so the stepper has to test g itself
        cfg = basic_config(T=0.05)
        monkeypatch.setattr(hs2d, "eval_scaled",
                            lambda g, eps, x, t: np.full(len(x), np.nan))
        with pytest.raises(NumericalError,
                           match="medium g is not finite at the front at t=0"):
            simulate(cfg)
