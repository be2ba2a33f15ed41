"""Tests for the 2D strip simulator: front dynamics, invariants, distances.

Oracles used here:
- With a constant medium and a flat front the pressure is linear in x, the
  discrete solve is exact, and the mean depth obeys h' = psi0 / h, so
  h(t) = sqrt(h0^2 + 2 psi0 t) up to time-stepping error only.
- A flat front's closed-form pressure against the fast Poisson solve and the
  sparse reference, and a flat run against the scalar forward-Euler loop
  h += dt g^eps(h, t) psi0 / h over the same steps.
- Reflection symmetry: a y-even initial front in a y-independent medium stays
  y-even for all time (the discretization commutes with the reflection).
- Hausdorff distances on hand-built point sets.
- The pressure solver (matrix-free stencil, the module's GMRES with a
  fast-Poisson preconditioner) against the assembled sparse matrix and
  SuperLU direct solve kept below as `reference_pressure`; that GMRES alone
  against NumPy's dense solve on seeded random systems.
- The fast Poisson solve by dense transforms against the same diagonalization
  by SciPy's DST-I and real FFT, kept below as `reference_fast_poisson`.
- An exact curved front: the zero set of the harmonic
  u = psi0 - a x + b sinh(kx) cos(ky), on which |Du| is known, so the
  pressure solve and one step's normal speed show their order of accuracy.
"""

import math

import numpy as np
import pytest
from scipy.fft import dst, idst, irfft, rfft
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

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
    _fast_poisson,
    _front_derivatives,
    _gmres,
    _solve_pressure,
    simulate,
    step,
)
from hele_homog.medium import builtin_medium, eval_scaled, parse_medium


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
        # three steps of dt = 0.01, under the CFL step 0.025
        with pytest.raises(NumericalError, match=r"exceeded 3 steps before reaching T: "
                                                 r"at t=0\.03 of T=1$"):
            simulate(basic_config(T=1.0, dt=0.01), max_steps=3)
        for bad in (0, 2.5):
            with pytest.raises(ValidationError, match="max_steps must be an integer >= 1"):
                simulate(basic_config(T=1.0), max_steps=bad)


    @pytest.mark.parametrize("height, wall", [(3.9, "Lx"), (0.01, "0")])
    def test_front_leaving_the_strip_names_t(self, height, wall):
        front = FrontGraph(heights=np.full(8, height), t=0.7)
        with pytest.raises(NumericalError, match=rf"front leaves the strip at t=0\.7: "
                                                 rf"heights within 2 grid cells of x = {wall}$"):
            step(front, basic_config())

    def test_graph_condition_names_t(self):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=16, ny=16)
        steep = FrontGraph(heights=2.0 + 0.9 * np.sin(2 * np.pi * dom.y_nodes), t=0.7)
        with pytest.raises(NumericalError,
                           match=r"graph condition violated at t=0\.7: front slope 5\.\d+ > 5$"):
            step(steep, basic_config(domain=dom))

    def test_vanished_slope_estimate_names_t(self, monkeypatch):
        # a zero front gradient leaves no speed to set the CFL step from
        solve = hs2d._solve_pressure

        def zero_gradient(*args):
            u, grad, iterations, residual = solve(*args)
            return u, 0.0 * grad, iterations, residual

        monkeypatch.setattr(hs2d, "_solve_pressure", zero_gradient)
        with pytest.raises(NumericalError, match=r"front slope estimate vanished at "
                                                 r"t=0\.7; cannot set a step$"):
            step(FrontGraph(heights=np.full(8, 1.0), t=0.7), basic_config())

    def test_collapsed_step_names_t(self):
        with pytest.raises(NumericalError, match=r"step size collapsed to 0\.0 at t=0\.7$"):
            step(FrontGraph(heights=np.full(8, 1.0), t=0.7), basic_config(), dt_cap=0.0)


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

    @pytest.mark.parametrize("axis", [True, 1.0, -1])
    def test_period_axis_must_be_an_int(self, axis):
        # axis=True once passed the bound and shifted every coordinate, which
        # read 0.8 here against the 0.2 of axis=1; axis=1.0 an IndexError
        A, B = [[0.0, 0.1]], [[0.0, 0.9]]
        assert hausdorff(A, B, period=1.0, axis=1) == pytest.approx(0.2)
        with pytest.raises(ValidationError, match="axis must be an integer >= 0"):
            hausdorff(A, B, period=1.0, axis=axis)

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
    StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=9),  # odd ny: no Nyquist column in Fy
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
        # one direct solve: the closed-form planar pressure
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

        def counting_gmres(matvec, precond, b, x0, target):
            x, iterations, estimate = _gmres(matvec, precond, b, x0, target)
            calls.append({"x0": x0.copy(), "fast": precond(b), "x": x.copy()})
            return x, iterations, estimate

        monkeypatch.setattr(hs2d, "_gmres", counting_gmres)
        flat = simulate(basic_config(T=0.1, dt=0.01))
        assert flat.total_steps == 10
        assert calls == []
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
        curved = simulate(SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                                    psi0=1.0, T=0.01, dt=0.001,
                                    h0=sine_front(dom, 0.5)))
        assert curved.total_steps == 10
        assert len(calls) == 10
        # the first solve starts from the fast Poisson solve, the second from
        # the pressure rows the first solved, and every later one from the
        # Lagrange extrapolation to its time of the (up to six) solves before
        # it; save_every is 1, so times[k] is the time of solve k
        assert np.array_equal(calls[0]["x0"], calls[0]["fast"])
        assert np.array_equal(calls[1]["x0"], calls[0]["x"])
        times = curved.times
        for k in range(2, len(calls)):
            stamps = times[max(0, k - hs2d._START_GRIDS):k]
            weights = [np.prod([(times[k] - s) / (r - s) for s in stamps if s != r])
                       for r in stamps]
            expected = np.tensordot(weights, [c["x"] for c in calls[k - len(stamps):k]], 1)
            assert np.allclose(calls[k]["x0"], expected, rtol=1e-14, atol=0)
            assert not np.array_equal(calls[k]["x0"], calls[k]["fast"])

    def test_lone_step_matches_the_first_simulated_step(self):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
        cfg = SimConfig(domain=dom, medium=parse_medium("1 + sin(pi*y)^2/2", dim=2),
                        eps=0.5, psi0=1.0, T=0.05, h0=sine_front(dom, 0.5))
        hist = simulate(cfg)
        assert hist.total_steps > 1 and hist.iterations[0] > 1
        first = step(cfg.initial_front(), cfg, dt_cap=cfg.T)
        assert first.t == hist.times[1]
        assert np.array_equal(first.heights, hist.fronts[1].heights)

    @pytest.mark.parametrize("dom", SOLVER_GRIDS,
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_accepted_fast_solve_meets_gmres_tolerance(self, dom, monkeypatch):
        def no_gmres(*args, **kwargs):
            raise AssertionError("a flat front must not reach GMRES")

        monkeypatch.setattr(hs2d, "_gmres", no_gmres)
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


FLAT_CASES = [(0.3, 0.7), (0.45, 1.0), (0.8, 3.2)]  # (h / Lx, psi0)


def flat_rhs(dom, psi0):
    """The stencil's right-hand side on a flat front: -west psi0 on the
    first unknown row, west = 1/dxt^2 (a = 1, d = 0)."""
    rhs = np.zeros((dom.nx - 1, dom.ny))
    rhs[0] = -psi0 / (1.0 / dom.nx) ** 2
    return rhs


class TestFlatPressure:
    """The closed-form pressure psi0 (1 - xt) that a flat front takes."""

    @pytest.mark.parametrize("dom", SOLVER_GRIDS, ids=lambda d: f"{d.nx}x{d.ny}")
    def test_matches_the_fast_solve_and_the_sparse_reference(self, dom):
        for frac, psi0 in FLAT_CASES:
            h = np.full(dom.ny, frac * dom.Lx)
            u, _grad, iterations, _res = solve_pressure(dom, h, psi0, 0.0)
            fast = _fast_poisson(dom, h[0] ** 2)(flat_rhs(dom, psi0))
            assert np.abs(u[1:-1].ravel() - fast).max() <= 1e-13 * np.abs(fast).max()
            u_ref, _ = reference_pressure(dom, h, psi0)
            assert np.abs(u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()
            assert np.all(u[0] == psi0) and np.all(u[-1] == 0.0)
            assert np.ptp(u, axis=1).max() == 0.0  # y-constant to the bit
            assert iterations == 1

    @pytest.mark.parametrize("dom", SOLVER_GRIDS + [StripDomain(4.0, 1.0, 100, 12)],
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_front_gradient_is_psi0_over_h(self, dom):
        for frac, psi0 in FLAT_CASES:
            h = np.full(dom.ny, frac * dom.Lx)
            grad = solve_pressure(dom, h, psi0, 0.0)[1]
            assert np.abs(grad - psi0 / h).max() <= 1e-14 * psi0 / h[0]

    @pytest.mark.parametrize("dom", SOLVER_GRIDS, ids=lambda d: f"{d.nx}x{d.ny}")
    def test_residual_comes_from_the_stencil(self, dom):
        residuals = []
        for frac, psi0 in FLAT_CASES:
            h = np.full(dom.ny, frac * dom.Lx)
            u, _grad, _it, residual = solve_pressure(dom, h, psi0, 0.0)
            mat, rhs = reference_system(dom, h, psi0)
            true = np.linalg.norm(mat @ u[1:-1].ravel() - rhs) / np.linalg.norm(rhs)
            assert residual <= 1e-12 and true <= 1e-12
            residuals.append(residual)
        # psi0 = 0.7 is not a power of two: the profile rounds, and the
        # column's second difference sees it
        assert residuals[0] > 0.0

    def test_residual_check_runs_on_a_flat_step(self, monkeypatch):
        monkeypatch.setattr(hs2d, "_RESIDUAL_TOL", 1e-300)
        cfg = basic_config(psi0=0.7)
        front = FrontGraph(heights=np.full(cfg.domain.ny, 1.0), t=0.25)
        with pytest.raises(NumericalError,
                           match=r"large residual at t=0\.25: 1 GMRES iterations, "
                                 r"relative residual [1-9]"):
            step(front, cfg)

    def test_non_finite_pressure_raises(self):
        dom = SOLVER_GRIDS[3]
        h = np.full(dom.ny, 1.8)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match=r"non-finite values at t=0\.5"):
                solve_pressure(dom, h, np.inf, 0.5)

    def test_maximum_principle_checks_a_flat_step(self, monkeypatch):
        flat = hs2d._flat_pressure

        def overshoot(domain, psi0):
            u, iterations, converged, residual = flat(domain, psi0)
            return u + 1e-9, iterations, converged, residual

        monkeypatch.setattr(hs2d, "_flat_pressure", overshoot)
        cfg = basic_config()
        with pytest.raises(NumericalError,
                           match=r"maximum principle violated at t=0\.25"):
            step(FrontGraph(heights=np.full(cfg.domain.ny, 1.0), t=0.25), cfg)

    def test_laminar_run_is_the_scalar_euler_loop(self):
        # pinning2d is independent of y, so the front stays flat and the
        # run is the flat law h' = g^eps(h, t) psi0 / h by forward Euler
        medium = builtin_medium("pinning2d")
        cfg = SimConfig(domain=StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=8),
                        medium=medium, eps=0.25, psi0=0.7, T=0.5, h0=0.72)
        hist = simulate(cfg)
        assert hist.total_steps == len(hist.times) - 1 > 50
        h = 0.72
        for k, dt in enumerate(np.diff(hist.times)):
            t = hist.times[k]
            g = float(eval_scaled(medium, cfg.eps, np.array([[h, 0.0]]), t)[0])
            h += dt * g * cfg.psi0 / h
            heights = hist.fronts[k + 1].heights
            assert np.ptp(heights) == 0.0
            assert abs(heights[0] - h) <= 1e-12


class TestGmres:
    """hs2d._gmres on its own: restarted, right-preconditioned GMRES."""

    @staticmethod
    def random_system(n, seed):
        # nonsymmetric, eigenvalues in the disk |z - 4| <= ~1: well conditioned
        rng = np.random.default_rng(seed)
        B = 4.0 * np.eye(n) + rng.standard_normal((n, n)) / math.sqrt(n)
        return B, rng.standard_normal(n), rng.standard_normal(n)

    @pytest.mark.parametrize("n, seed", [(20, 1), (45, 2), (80, 3)])
    def test_matches_dense_solve_unpreconditioned(self, n, seed):
        A, b, x0 = self.random_system(n, seed)
        target = 1e-12 * np.linalg.norm(b)
        x, iterations, estimate = _gmres(lambda v: A @ v, lambda v: v.copy(), b, x0, target)
        x_ref = np.linalg.solve(A, b)
        assert estimate <= target
        assert np.linalg.norm(b - A @ x) <= 10.0 * target
        assert np.abs(x - x_ref).max() <= 1e-11 * np.abs(x_ref).max()
        assert 1 <= iterations <= n
        assert np.array_equal(x0, self.random_system(n, seed)[2])  # x0 untouched

    @pytest.mark.parametrize("n, seed", [(45, 5), (80, 6)])
    def test_matches_dense_solve_with_a_diagonal_preconditioner(self, n, seed):
        # A = B diag(d) with d over four decades: unpreconditioned GMRES takes
        # 500 iterations or fails; right preconditioning by diag(1/d) gives B
        # back, and 24-25
        B, b, x0 = self.random_system(n, seed)
        d = np.logspace(0, 4, n)
        A = B * d
        target = 1e-12 * np.linalg.norm(b)
        x, iterations, estimate = _gmres(lambda v: A @ v, lambda v: v / d, b, x0, target)
        x_ref = np.linalg.solve(A, b)
        assert estimate <= target
        assert np.linalg.norm(b - A @ x) <= 10.0 * target
        assert np.abs(x - x_ref).max() <= 1e-11 * np.abs(x_ref).max()
        plain = _gmres(lambda v: A @ v, lambda v: v.copy(), b, x0, target)[1]
        assert iterations <= 30 and plain >= 500

    def test_breakdown_returns_the_exact_solution(self):
        # a 5-cycle inside a 40-dim system: from x0 = 0 and b = e0 the Krylov
        # space closes after 5 iterations, the new Arnoldi vector is exactly
        # 0, and the solution is exact; no division by that zero norm
        n = 40
        A = 2.0 * np.eye(n)
        A[:5, :5] = np.roll(np.eye(5), 1, axis=0)
        b = np.zeros(n)
        b[0] = 1.0
        with np.errstate(all="raise"):
            x, iterations, estimate = _gmres(lambda v: A @ v, lambda v: v.copy(), b,
                                             np.zeros(n), 1e-12)
        assert iterations == 5 and estimate == 0.0
        assert np.abs(x - np.linalg.solve(A, b)).max() <= 1e-15

    def test_exact_start_takes_no_iteration(self):
        A, b, _ = self.random_system(20, 7)
        x_ref = np.linalg.solve(A, b)
        x, iterations, estimate = _gmres(lambda v: A @ v, lambda v: v.copy(), b, x_ref,
                                         1e-12 * np.linalg.norm(b))
        assert iterations == 0 and np.array_equal(x, x_ref)

    def test_steep_front_solve_crosses_five_restarts(self):
        # slope 4.4 on 64x64: more than 5 cycles of _GMRES_RESTART iterations,
        # and still the sparse direct solution
        dom = SOLVER_GRIDS[0]
        h = sine_front(dom, 4.4)
        u, grad, iterations, residual = solve_pressure(dom, h, 0.7, 0.0)
        assert iterations > 5 * hs2d._GMRES_RESTART
        u_ref, grad_ref = reference_pressure(dom, h, 0.7)
        assert np.abs(u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()
        assert np.abs(grad - grad_ref).max() <= 1e-9 * np.abs(grad_ref).max()
        assert residual <= 1e-10

    def test_non_finite_operator_stops_at_once(self):
        A, b, x0 = self.random_system(20, 8)
        count = []

        def matvec(v):
            count.append(1)
            return A @ v if len(count) < 4 else np.full_like(v, np.nan)

        with np.errstate(invalid="ignore"):
            x, iterations, estimate = _gmres(matvec, lambda v: v.copy(), b, x0, 1e-12)
        assert iterations == 3 and len(count) == 4  # the NaN estimate ends the run
        assert math.isnan(estimate) and not np.all(np.isfinite(x))

    def test_non_finite_start_raises_through_the_pressure_solve(self):
        dom = SOLVER_GRIDS[3]
        h = sine_front(dom, 0.25)
        guess = np.full((dom.nx + 1, dom.ny), np.nan)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=r"non-finite values at t=0\.5: 0 GMRES "
                                                     r"iterations, relative residual nan"):
                _solve_pressure(dom, h, *_front_derivatives(h, dom.dy), 1.0, 0.5, guess)


def reference_fast_poisson(domain, beta, r):
    """u_xtxt + beta u_yy = r solved by SciPy's DST-I in xt and real FFT in y."""
    nx, ny = domain.nx, domain.ny
    m, k = np.arange(1, nx)[:, None], np.arange(ny // 2 + 1)
    lam = (-4.0 * nx ** 2 * np.sin(np.pi * m / (2 * nx)) ** 2
           - 4.0 * beta / domain.dy ** 2 * np.sin(np.pi * k / ny) ** 2)
    r_hat = rfft(dst(r, type=1, axis=0), axis=1)
    return idst(irfft(r_hat / lam, n=ny, axis=1), type=1, axis=0)


class TestExtrapolatedStart:
    """hs2d._extrapolate, and the GMRES start that simulate forms with it."""

    # uneven solve times; the targets are one tiny last step and one ordinary
    STAMPS = [0.0, 0.21, 0.33, 0.6, 0.74, 0.9]
    TARGETS = [0.9 + 1e-9, 1.05]

    @pytest.mark.parametrize("t", TARGETS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_reproduces_polynomials_of_degree_below_the_grid_count(self, n, t):
        rng = np.random.default_rng(n)
        stamps = self.STAMPS[-n:]
        weights = hs2d._extrapolate(stamps, np.eye(n), t)
        for degree in range(n):
            coeffs = rng.standard_normal((degree + 1, 3, 4))
            grids = [np.polynomial.polynomial.polyval(s, coeffs) for s in stamps]
            exact = np.polynomial.polynomial.polyval(t, coeffs)
            scale = np.abs(weights).sum() * max(np.abs(g).max() for g in grids)
            err = np.abs(hs2d._extrapolate(stamps, grids, t) - exact).max()
            assert err <= 8 * n * np.finfo(float).eps * scale

    @pytest.mark.parametrize("t", TARGETS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_weights_sum_to_one(self, n, t):
        weights = hs2d._extrapolate(self.STAMPS[-n:], np.eye(n), t)
        assert weights.shape == (n,)
        assert abs(weights.sum() - 1.0) <= 8 * n * np.finfo(float).eps * np.abs(weights).sum()

    def test_one_grid_comes_back_unchanged(self):
        grid = np.random.default_rng(7).standard_normal((5, 6))
        assert np.array_equal(hs2d._extrapolate([0.3], [grid], 0.7), grid)

    @pytest.mark.parametrize("nx, ny", [(16, 8), (32, 16)])
    def test_the_start_is_only_a_start(self, nx, ny, monkeypatch):
        # every solve started from the fast solve, as without a history,
        # gives the same run to GMRES's 1e-12 tolerance; the CFL steps follow
        # the pressure, so the times too agree to rounding only
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=nx, ny=ny)
        cfg = SimConfig(domain=dom, medium=parse_medium("1 + sin(pi*(y + 0.3))^2/2", dim=2),
                        eps=0.5, psi0=1.0, T=0.6, h0=sine_front(dom, 0.5))
        extrapolated = simulate(cfg)
        advance = hs2d._advance
        monkeypatch.setattr(hs2d, "_advance",
                            lambda state, config, dt_cap, guess: advance(state, config, dt_cap))
        plain = simulate(cfg)
        assert extrapolated.total_steps == plain.total_steps > 2 * hs2d._START_GRIDS
        assert np.abs(extrapolated.times - plain.times).max() <= 1e-10
        for a, b in zip(extrapolated.fronts, plain.fronts):
            assert np.abs(a.heights - b.heights).max() <= 1e-10

    def test_flat_run_never_extrapolates(self, monkeypatch):
        def no_extrapolation(*args):
            raise AssertionError("a flat front must not form a GMRES start")

        monkeypatch.setattr(hs2d, "_extrapolate", no_extrapolation)
        assert simulate(basic_config(T=0.1, dt=0.01)).total_steps == 10


FAST_POISSON_GRIDS = [(8, 8), (16, 9), (128, 8), (128, 20), (64, 64)]


class TestFastPoisson:
    @pytest.mark.parametrize("nx, ny", FAST_POISSON_GRIDS)
    def test_matches_the_fft_reference(self, nx, ny):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=nx, ny=ny)
        rng = np.random.default_rng(nx * ny)
        for beta in (1.0, 2.89):
            r = rng.standard_normal((nx - 1, ny))
            u = _fast_poisson(dom, beta)(r).reshape(nx - 1, ny)
            u_ref = reference_fast_poisson(dom, beta, r)
            assert np.abs(u - u_ref).max() <= 1e-13 * np.abs(u_ref).max()

    @pytest.mark.parametrize("nx, ny", FAST_POISSON_GRIDS)
    def test_bases_are_orthonormal(self, nx, ny):
        _, _, _, Sx, Fy = StripDomain(Lx=4.0, Ly=1.0, nx=nx, ny=ny)._pressure_factors
        assert np.array_equal(Sx, Sx.T)  # the DST-I is its own inverse
        assert np.abs(Sx @ Sx - np.eye(nx - 1)).max() <= 1e-13
        assert np.abs(Fy.T @ Fy - np.eye(ny)).max() <= 1e-13
        assert np.abs(Fy @ Fy.T - np.eye(ny)).max() <= 1e-13

    @pytest.mark.parametrize("ny", [8, 9, 16, 20, 64])
    def test_y_constant_right_hand_side_gives_y_constant_solution(self, ny):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=ny)
        column = np.random.default_rng(ny).standard_normal((31, 1))
        u = _fast_poisson(dom, 1.7)(np.tile(column, ny)).reshape(31, ny)
        assert np.ptp(u, axis=1).max() == 0.0
        assert np.any(u != 0.0)

    def test_curved_bench_job_keeps_its_gmres_work(self):
        # the bench's strip2d_curved job at phase 0.3: 66 steps and 163 GMRES
        # iterations, each solve after the first starting from the Lagrange
        # extrapolation of the last six solved pressures (441 from the
        # previous pressure alone)
        medium = parse_medium("sin(pi*(x - t))^2 + 1 + sin(pi*(y + 0.3))^2/2", dim=2)
        hist = simulate(SimConfig(domain=StripDomain(Lx=4.0, Ly=1.0, nx=64, ny=64),
                                  medium=medium, eps=0.25, psi0=1.0, T=0.15, h0=1.0))
        assert hist.total_steps == 66
        assert int(hist.iterations.sum()) == 163

    def test_curved_step_from_a_guess_skips_the_flat_solve(self, monkeypatch):
        # with a guess, a curved front goes straight to GMRES, so the fast
        # solver runs only as its preconditioner: once per iteration and once
        # per cycle. Without a guess it is tried first; a flat front takes
        # its closed-form pressure and never calls it
        calls = []
        fast = hs2d._fast_poisson

        def counted(domain, beta):
            solve = fast(domain, beta)
            return lambda r: calls.append(1) or solve(r)

        monkeypatch.setattr(hs2d, "_fast_poisson", counted)
        dom = SOLVER_GRIDS[0]
        for slope, guess_slope, tried_first in ((0.3, None, 1), (0.3, 0.29, 0),
                                                (0.0, 0.0, 1)):
            guess = (None if guess_slope is None
                     else solve_pressure(dom, sine_front(dom, guess_slope), 1.0, 0.0)[0])
            calls.clear()
            h = sine_front(dom, slope)
            _u, _grad, iterations, _res = _solve_pressure(
                dom, h, *_front_derivatives(h, dom.dy), 1.0, 0.0, guess)
            if slope == 0.0:
                assert (iterations, len(calls)) == (1, 0)
            else:
                assert iterations > 0
                cycles = math.ceil(iterations / hs2d._GMRES_RESTART)
                assert len(calls) == tried_first + iterations + cycles


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
