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
- Hausdorff distances on hand-built point sets, and bit for bit against
  the dense formula kept below as `reference_hausdorff` (SciPy's `cdist`
  over the periodic images) on seeded random sets and on the space-time
  sets of a bench-shaped convergence study.
- The pressure solver (matrix-free stencil, the module's GMRES with a
  fast-Poisson preconditioner) against the assembled sparse matrix and
  SuperLU direct solve kept below as `reference_pressure`; that GMRES alone
  against NumPy's dense solve on seeded random systems.
- The fast Poisson solve by dense transforms against the same diagonalization
  by SciPy's DST-I and real FFT, kept below as `reference_fast_poisson`.
- An exact curved front: the zero set of the harmonic
  u = psi0 - a x + b sinh(kx) cos(ky), on which |Du| is known, so the
  pressure solve and one step's normal speed show their order of accuracy.
- The stepper as it stood before the velocity kernel `_velocity` was split
  out of it, kept below as `reference_advance`: bit for bit against
  `simulate` at every step of three bench-shaped runs.
- Frozen digests of every curved solve (u grid, iterations, residual) and
  the final front of five curved runs: a rewrite of the solve keeps its bits.
- The curved 9-point operator as the 2D formula it was written as before
  the padded flat layout, kept below as `reference_stencil`: bit for bit
  against the solve's matvec and explicit residual.
"""

import ast
import hashlib
import math
import pathlib
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

import numpy as np
import pytest
from scipy.fft import dst, idst, irfft, rfft
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve
from scipy.spatial.distance import cdist

from hele_homog import hs2d
from hele_homog.errors import NumericalError, ValidationError
from hele_homog.hs2d import (
    _MAX_PRINCIPLE_TOL,
    _RESIDUAL_TOL,
    FrontGraph,
    SimConfig,
    StripDomain,
    convergence_study,
    hausdorff,
    _curved_pressure,
    _fast_poisson,
    _flat_pressure,
    _front_derivatives,
    _gmres,
    simulate,
)
from hele_homog.medium import _admit, builtin_medium, eval_scaled, parse_medium


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
        with pytest.raises(ValidationError, match="Lx must be > 0 and finite, got True"):
            StripDomain(Lx=True, Ly=1.0, nx=16, ny=8)
        # an int past the float range once raised a bare OverflowError
        with pytest.raises(ValidationError, match="^Lx must be > 0 and finite, got 1000"):
            StripDomain(Lx=10 ** 400, Ly=1.0, nx=16, ny=8)

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

    def test_y_nodes_are_cached_and_read_only(self):
        dom = StripDomain(Lx=2.0, Ly=0.7, nx=10, ny=12)
        nodes = dom.y_nodes
        assert nodes is dom.y_nodes and not nodes.flags.writeable
        assert np.array_equal(nodes, np.arange(12) * dom.dy)
        with pytest.raises(ValueError):
            nodes[0] = 1.0

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
            # each once raised a bare TypeError or ValueError
            ("cfl", "0.4", "cfl must be real and finite"),
            ("cfl", None, "cfl must be real and finite"),
            ("cfl", 1j, "cfl must be real and finite"),
            ("cfl", np.array([0.4, 0.5]), "cfl must be real and finite"),
            # a bool once passed as 1.0
            ("eps", True, "eps must be > 0 and finite, got True"),
            ("psi0", True, "psi0 must be > 0 and finite, got True"),
            ("T", True, "T must be > 0 and finite, got True"),
            ("cfl", True, "cfl must be real and finite, got True"),
            # an int past the float range once raised a bare OverflowError
            pytest.param("T", 10 ** 400, "^T must be > 0 and finite, got 1000", id="T-1e400"),
            pytest.param("eps", 10 ** 400, "^eps must be > 0 and finite, got 1000",
                         id="eps-1e400"),
            # simulate would take no step, and a summary had no pressure range
            ("T", 1e-12, r"^T must be > 1e-12, the tolerance at which a run ends, got 1e-12$"),
            ("T", 1e-13, r"^T must be > 1e-12, the tolerance at which a run ends, got 1e-13$"),
        ],
    )
    def test_config_scalar_validation(self, field, value, pattern):
        with pytest.raises(ValidationError, match=pattern):
            basic_config(**{field: value})

    def test_shortest_horizon_takes_one_step(self):
        hist = simulate(basic_config(T=2e-12))
        assert hist.total_steps == 1 and len(hist.u_min) == 1
        assert hist.times.tolist() == [0.0, 2e-12]

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

    @pytest.mark.parametrize("h0", [[1 + 1j] * 8, "abc", None, math.nan,
                                    np.array([1.0] * 7 + [math.nan])],
                             ids=["complex", "string", "none", "nan", "one_nan"])
    def test_bad_h0_rejected_at_construction(self, h0):
        with pytest.raises(ValidationError, match="h0"):
            basic_config(h0=h0)

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
        f1 = hs2d._advance(f0, cfg)[0]
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
    """Failure paths of a step. The tests that take `velocity` run _advance
    over _velocity, and test_one_height_step_fails_alike runs them over the
    one-height kernel that simulate takes for a flat front in a medium that
    does not use y."""

    def test_front_near_far_wall_raises(self):
        cfg = SimConfig(domain=StripDomain(Lx=1.2, Ly=1.0, nx=16, ny=8),
                        medium=constant_medium(), eps=0.5, psi0=1.0,
                        T=50.0, h0=0.5)
        with pytest.raises(NumericalError, match="x = Lx"):
            simulate(cfg)

    def test_front_near_inlet_raises(self, velocity=hs2d._velocity):
        cfg = basic_config()
        low = FrontGraph(heights=np.full(8, 0.01), t=0.0)
        with pytest.raises(NumericalError, match="x = 0"):
            hs2d._advance(low, cfg, velocity)[0]

    def test_steep_front_violates_graph_condition(self):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=16, ny=16)
        steep = FrontGraph(heights=2.0 + 0.9 * np.sin(2 * np.pi * dom.y_nodes),
                           t=0.0)
        cfg = SimConfig(domain=dom, medium=constant_medium(), eps=0.5,
                        psi0=1.0, T=1.0)
        with pytest.raises(NumericalError, match="graph condition"):
            hs2d._advance(steep, cfg)[0]

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
    def test_front_leaving_the_strip_names_t(self, height, wall, velocity=hs2d._velocity):
        front = FrontGraph(heights=np.full(8, height), t=0.7)
        with pytest.raises(NumericalError, match=rf"front leaves the strip at t=0\.7: "
                                                 rf"heights within 2 grid cells of x = {wall}$"):
            hs2d._advance(front, basic_config(), velocity)[0]

    def test_graph_condition_names_t(self):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=16, ny=16)
        steep = FrontGraph(heights=2.0 + 0.9 * np.sin(2 * np.pi * dom.y_nodes), t=0.7)
        with pytest.raises(NumericalError,
                           match=r"graph condition violated at t=0\.7: front slope 5\.\d+ > 5$"):
            hs2d._advance(steep, basic_config(domain=dom))[0]

    def test_vanished_slope_estimate_names_t(self, velocity=hs2d._velocity):
        # a zero front gradient leaves no speed to set the CFL step from: the
        # config's kept flat solve, which both kernels read, with |u_xt| = 0
        cfg = basic_config()
        solve = cfg._flat_solve
        cfg.__dict__["_flat_solve"] = solve._replace(uxt=0.0 * solve.uxt)
        with pytest.raises(NumericalError, match=r"front slope estimate vanished at "
                                                 r"t=0\.7; cannot set a step$"):
            hs2d._advance(FrontGraph(heights=np.full(8, 1.0), t=0.7), cfg, velocity)[0]

    def test_collapsed_step_names_t(self, velocity=hs2d._velocity):
        with pytest.raises(NumericalError, match=r"step size collapsed to 0\.0 at t=0\.7$"):
            hs2d._advance(FrontGraph(heights=np.full(8, 1.0), t=0.7), basic_config(),
                          velocity, 0.0)[0]

    @pytest.mark.parametrize("test, args", [
        ("test_front_near_inlet_raises", ()),
        ("test_front_leaving_the_strip_names_t", (3.9, "Lx")),
        ("test_front_leaving_the_strip_names_t", (0.01, "0")),
        ("test_vanished_slope_estimate_names_t", ()),
        ("test_collapsed_step_names_t", ()),
    ])
    def test_one_height_step_fails_alike(self, test, args):
        getattr(self, test)(*args, velocity=hs2d._one_height_velocity)


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

    def test_spacetime_points_of_every_front_is_the_full_table(self):
        # sim2d run writes its front CSV from this table
        hist = simulate(basic_config(T=0.5))
        ys, count = hist.config.domain.y_nodes, len(hist.fronts)
        pts = hist.spacetime_points(count)
        assert pts.shape == (count * ys.size, 3)
        np.testing.assert_array_equal(pts[:, 0], np.repeat(hist.times, ys.size))
        np.testing.assert_array_equal(pts[:, 1], np.tile(ys, count))
        np.testing.assert_array_equal(pts[:, 2],
                                      np.concatenate([f.heights for f in hist.fronts]))

    def test_final_points_pairs_nodes_with_heights(self):
        hist = simulate(basic_config(T=0.5))
        pts = hist.final_points()
        assert pts.shape == (8, 2)
        np.testing.assert_allclose(pts[:, 0], hist.config.domain.y_nodes)
        np.testing.assert_allclose(pts[:, 1], hist.final_front.heights)

    @pytest.mark.parametrize("ny", [8, 20, 64, 129, 256])
    @pytest.mark.parametrize("curved", [False, True], ids=["flat", "curved"])
    def test_mean_depths_equal_each_fronts_mean_bit_for_bit(self, ny, curved):
        # NumPy sums a row of more than 128 entries in pairwise blocks; the
        # stacked reduction must block each front as its own .mean() does
        dom = StripDomain(Lx=4.0, Ly=2.0, nx=16, ny=ny)
        h0 = 1.3 + 0.1 * np.sin(np.pi * dom.y_nodes) ** 3 if curved else 1.3
        hist = simulate(basic_config(domain=dom, h0=h0, T=0.05, dt=0.01))
        assert hist.total_steps >= 5 and (np.ptp(hist.final_front.heights) > 0) == curved
        want = np.array([f.heights.mean() for f in hist.fronts])
        assert hist.mean_depths().tobytes() == want.tobytes()

    def test_point_tables_are_fresh_arrays(self):
        hist = simulate(basic_config(T=0.2))
        nodes = hist.config.domain.y_nodes
        for pts in (hist.spacetime_points(), hist.final_points()):
            assert pts.flags.writeable and not np.shares_memory(pts, nodes)
            pts[:] = -1.0
        assert np.array_equal(nodes, np.arange(8) * hist.config.domain.dy)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------


def reference_hausdorff(A, B, period=None, axis=None):
    """The dense formula: the n x m cdist matrices of A against B and its
    -period and +period images along `axis`, their elementwise minimum, then
    the larger of the two directed maxima. O(nm) time and memory."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    images = [B]
    if period is not None:
        for k in (-1.0, 1.0):
            shifted = B.copy()
            shifted[:, axis] += k * period
            images.append(shifted)
    dist = np.min([cdist(A, image) for image in images], axis=0)
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


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

    def test_axis_needs_a_period(self):
        # axis=1 without a period once read the non-periodic 0.8 here
        A, B = [[0.0, 0.1]], [[0.0, 0.9]]
        for axis in (0, 1):
            with pytest.raises(ValidationError, match="needs a period"):
                hausdorff(A, B, axis=axis)

    def test_equals_the_dense_formula_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for _case in range(400):
            dim = int(rng.integers(1, 4))
            scale = 10.0 ** rng.uniform(-6, 6)
            A = scale * rng.normal(size=(int(rng.integers(1, 301)), dim))
            B = scale * rng.normal(size=(int(rng.integers(1, 301)), dim))
            # duplicate points, within each set and shared between them
            A = np.concatenate([A, A[rng.integers(0, len(A), 3)]])
            B = np.concatenate([B, A[rng.integers(0, len(A), 2)]])
            for axis in (None, *range(dim)):
                period = None if axis is None else scale * rng.uniform(0.5, 4.0)
                for X, Y in ((A, B), (B, A)):
                    assert (hausdorff(X, Y, period=period, axis=axis)
                            == reference_hausdorff(X, Y, period, axis))

    def test_equals_the_dense_formula_on_a_convergence_study(self, monkeypatch):
        # the bench's converge job: pinning2d on 128x20, eps 0.2, 0.1, 0.05
        calls = []

        def recorded(A, B, period=None, axis=None):
            d = hausdorff(A, B, period=period, axis=axis)
            calls.append((d, reference_hausdorff(A, B, period, axis), len(A)))
            return d

        monkeypatch.setattr(hs2d, "hausdorff", recorded)
        config = SimConfig(domain=StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=20),
                           medium=builtin_medium("pinning2d"), eps=0.2, psi0=0.7,
                           T=0.65, h0=0.72)
        report = convergence_study(config, [0.2, 0.1, 0.05])
        assert len(calls) == 4  # a final and a space-time distance per pair
        assert {n for _d, _ref, n in calls} == {20, 1200}
        assert all(d == ref for d, ref, _n in calls)
        assert [d for d, _ref, _n in calls] == [
            x for p in report.pairs for x in (p.final_distance, p.spacetime_distance)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_the_dense_formula_on_tie_heavy_grids(self, dim):
        # lattices, their half-cell shifts and coarse sublattices: most
        # points have several nearest neighbours at exactly equal distances,
        # also across the periodic images
        spacing = 0.1
        side = {1: 40, 2: 12, 3: 6}[dim]
        axes = np.meshgrid(*[np.arange(side) * spacing] * dim, indexing="ij")
        grid = np.column_stack([a.ravel() for a in axes])
        sets = [grid, grid + 0.5 * spacing, grid[::3], grid[::2] + spacing]
        period = side * spacing
        for A in sets:
            for B in sets:
                for axis in (None, *range(dim)):
                    p = None if axis is None else period
                    assert hausdorff(A, B, period=p, axis=axis) == reference_hausdorff(
                        A, B, p, axis)

    def test_large_space_time_sets_need_no_distance_matrix(self):
        # 60 slices of 512 y-nodes: a dense n x m path would hold ~15 GB
        # here; the tree queries take about a second and O(n + m) memory
        Ly, slices, ny = 0.25, 60, 512
        t = np.repeat(np.linspace(0.0, 0.65, slices), ny)
        y = np.tile(np.arange(ny) * (Ly / ny), slices)
        h = 0.72 + 0.5 * t + 0.01 * np.sin(2.0 * np.pi * y / Ly)
        A = np.column_stack([t, y, h])
        B = np.column_stack([t, y, h + 1e-4])
        assert hausdorff(A, B, period=Ly, axis=1) == pytest.approx(1e-4, rel=1e-9)


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

    def test_a_y_medium_builds_its_config_at_the_first_eps(self):
        # each entry of eps_list replaces config.eps, which no run uses, but
        # SimConfig still checks it: with a medium that uses y, a config
        # built at a placeholder eps of 0.1 (1.6 cells of dy per period) is
        # refused, and one built at eps_list[0], as the CLI builds it, runs
        dom = StripDomain(Lx=1.0, Ly=1.0, nx=16, ny=16)
        g = parse_medium("1 + 0.5*sin(2*pi*x)^2*cos(2*pi*y)^2", 2)
        eps_list = [0.5, 0.35, 0.25]
        with pytest.raises(ValidationError, match="cells per period in y"):
            SimConfig(domain=dom, medium=g, eps=0.1, psi0=0.3, T=0.02, h0=0.5)
        config = SimConfig(domain=dom, medium=g, eps=eps_list[0], psi0=0.3, T=0.02, h0=0.5)
        report = convergence_study(config, eps_list)
        assert report.eps_list == tuple(eps_list) and len(report.pairs) == 2
        assert all(math.isfinite(s) and s > 0 for s in report.speeds)

    def test_rejects_unresolved_oscillations(self):
        # eps = 0.1 spans only 2 cells of dy = 0.05: oscillations unresolved
        with pytest.raises(ValidationError, match="resolution check"):
            convergence_study(self.smoke_config(), [0.4, 0.2, 0.1])


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


def front_gradient(domain, h, u):
    """|Du| at the front x = h from the pressure grid u: the one-sided
    second-order xt difference, mapped back to x and y."""
    nx = domain.nx
    hp, _ = _front_derivatives(h, domain.dy)
    uxt = (u[nx - 2, :] - 4.0 * u[nx - 1, :]) / (2.0 / nx)
    return np.abs(uxt) * np.sqrt(1.0 + hp ** 2) / h


def reference_pressure(domain, h, psi0):
    """The reference system solved by SuperLU; returns (u grid, |Du| at the
    front)."""
    nx, ny = domain.nx, domain.ny
    mat, rhs = reference_system(domain, h, psi0)
    u = np.zeros((nx + 1, ny))
    u[0, :] = psi0
    u[1:nx, :] = spsolve(mat, rhs).reshape(nx - 1, ny)
    return u, front_gradient(domain, h, u)


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


def solve_pressure(dom, h, psi0, t, solved=()):
    """_velocity's pressure solve under h in a constant medium, as (u grid,
    |Du| at the front, iterations, relative residual)."""
    cfg = SimConfig(domain=dom, medium=constant_medium(), eps=1.0, psi0=psi0, T=1.0)
    solve = hs2d._velocity(cfg, h, t, solved)[3]
    grad = solve.uxt * np.sqrt(1.0 + _front_derivatives(h, dom.dy)[0] ** 2) / h
    return solve.u, grad, solve.iterations, solve.residual


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
        if front == "steep_4.4":
            # the 9-point stencil is not monotone at this slope, and _velocity
            # refuses the pressure on three of these grids (TestMaximumPrinciple):
            # check the solve itself
            u, iterations, converged, residual = hs2d._curved_pressure(
                dom, h, *_front_derivatives(h, dom.dy), 0.7, 0.0, ())
            assert converged
            grad = front_gradient(dom, h, u)
        else:
            u, grad, iterations, residual = solve_pressure(dom, h, 0.7, 0.0)
        assert np.abs(u - u_ref).max() <= 1e-9 * np.abs(u_ref).max()
        assert np.abs(grad - grad_ref).max() <= 1e-9 * np.abs(grad_ref).max()
        assert residual <= 1e-10
        if front == "flat":  # the closed form
            assert iterations == 1
        elif front == "flat_ulp_noise":  # the fast-solve start meets GMRES's test
            assert iterations == 0
        else:
            assert iterations >= 1

    @pytest.mark.parametrize("front", ["flat_ulp_noise", "curved_0.25"])
    @pytest.mark.parametrize("dom", SOLVER_GRIDS,
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_one_gmres_run_from_the_one_start(self, dom, front, monkeypatch):
        runs = []

        def spy(matvec, precond, b, x0, target):
            x, iterations, estimate = _gmres(matvec, precond, b, x0, target)
            runs.append({"b": b.copy(), "x0": x0.copy(), "x": x.copy(),
                         "iterations": iterations})
            return x, iterations, estimate

        h = FRONTS[front](dom)
        u_prev, _ = reference_pressure(dom, sine_front(dom, 0.2), 0.7)
        _, rhs_ref = reference_system(dom, h, 0.7)
        monkeypatch.setattr(hs2d, "_gmres", spy)
        for solved in ([], [(0.3, u_prev)]):
            runs.clear()
            u, _grad, iterations, _res = solve_pressure(dom, h, 0.7, 0.5, solved)
            assert len(runs) == 1
            run = runs[0]
            assert np.abs(run["b"] - rhs_ref).max() <= 1e-14 * np.abs(rhs_ref).max()
            # no history: the fast solve of the right-hand side; one grid:
            # its unknown rows, whose Lagrange weight is exactly 1
            start = (_fast_poisson(dom, float(np.mean(h ** 2)))(run["b"]) if not solved
                     else u_prev[1:dom.nx].ravel())
            assert np.array_equal(run["x0"], start)
            assert iterations == run["iterations"]
            assert np.array_equal(u[1:-1].ravel(), run["x"])
            if front == "flat_ulp_noise" and not solved:
                # the fast solve already meets GMRES's first residual test
                assert iterations == 0
                assert np.array_equal(run["x"], run["x0"])

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
        first = hs2d._advance(cfg.initial_front(), cfg, hs2d._velocity, cfg.T)[0]
        assert first.t == hist.times[1]
        assert np.array_equal(first.heights, hist.fronts[1].heights)

    def test_gmres_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(hs2d, "_GMRES_RESTART", 2)
        monkeypatch.setattr(hs2d, "_GMRES_CYCLES", 1)
        cfg = basic_config()
        front = FrontGraph(heights=sine_front(cfg.domain, 0.5), t=0.25)
        with pytest.raises(NumericalError,
                           match=r"did not converge at t=0\.25: 2 GMRES "
                                 r"iterations, relative residual"):
            hs2d._advance(front, cfg)[0]

    def test_large_recomputed_residual_raises(self, monkeypatch):
        monkeypatch.setattr(hs2d, "_RESIDUAL_TOL", 1e-300)
        cfg = basic_config()
        front = FrontGraph(heights=sine_front(cfg.domain, 0.5), t=0.25)
        with pytest.raises(NumericalError,
                           match=r"large residual at t=0\.25: \d+ GMRES "
                                 r"iterations, relative residual"):
            hs2d._advance(front, cfg)[0]

    def test_non_finite_solution_raises(self, monkeypatch):
        curved = hs2d._curved_pressure

        def nan_grid(*args):
            u, iterations, converged, residual = curved(*args)
            return np.full_like(u, np.nan), iterations, converged, residual

        monkeypatch.setattr(hs2d, "_curved_pressure", nan_grid)
        dom = SOLVER_GRIDS[3]
        with pytest.raises(NumericalError, match="non-finite values at t=0.5"):
            solve_pressure(dom, sine_front(dom, 0.25), 1.0, 0.5)


FLAT_CASES = [(0.3, 0.7), (0.45, 1.0), (0.8, 3.2)]  # (h / Lx, psi0)


def flat_rhs(dom, psi0):
    """The stencil's right-hand side on a flat front: -west psi0 on the
    first unknown row, west = 1/dxt^2 (a = 1, d = 0)."""
    rhs = np.zeros((dom.nx - 1, dom.ny))
    rhs[0] = -psi0 / (1.0 / dom.nx) ** 2
    return rhs


class TestFlatPressure:
    """The closed-form pressure psi0 (1 - xt) that a flat front takes."""

    @pytest.mark.parametrize("dom", SOLVER_GRIDS,
                             ids=lambda d: f"{d.nx}x{d.ny}")
    def test_flat_front_meets_the_tolerance_without_gmres(self, dom, monkeypatch):
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
    def test_residual_comes_from_the_stencil(self, dom, monkeypatch):
        def no_gmres(*args, **kwargs):
            raise AssertionError("a flat front must not reach GMRES")

        monkeypatch.setattr(hs2d, "_gmres", no_gmres)
        residuals = []
        for frac, psi0 in FLAT_CASES:
            h = np.full(dom.ny, frac * dom.Lx)
            u, _grad, iterations, residual = solve_pressure(dom, h, psi0, 0.0)
            mat, rhs = reference_system(dom, h, psi0)
            true = np.linalg.norm(mat @ u[1:-1].ravel() - rhs) / np.linalg.norm(rhs)
            assert residual <= 1e-12 and true <= 1e-12 and iterations == 1
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
            hs2d._advance(front, cfg)[0]
        # a run on one height checks the kept solve once, before its first step
        with pytest.raises(NumericalError, match=r"large residual at t=0: 1 GMRES"):
            simulate(cfg)

    def test_non_finite_pressure_raises(self, monkeypatch):
        flat = hs2d._flat_pressure

        def inf_grid(domain, psi0):
            u, iterations, converged, residual = flat(domain, psi0)
            return np.where(u > 0, np.inf, u), iterations, converged, residual

        monkeypatch.setattr(hs2d, "_flat_pressure", inf_grid)
        dom = SOLVER_GRIDS[3]
        with pytest.raises(NumericalError, match=r"non-finite values at t=0\.5"):
            solve_pressure(dom, np.full(dom.ny, 1.8), 1.0, 0.5)

    def test_maximum_principle_checks_a_flat_step(self, monkeypatch):
        flat = hs2d._flat_pressure

        def overshoot(domain, psi0):
            u, iterations, converged, residual = flat(domain, psi0)
            return u + 1e-9, iterations, converged, residual

        monkeypatch.setattr(hs2d, "_flat_pressure", overshoot)
        cfg = basic_config()
        with pytest.raises(NumericalError,
                           match=r"maximum principle violated at t=0\.25"):
            hs2d._advance(FrontGraph(heights=np.full(cfg.domain.ny, 1.0), t=0.25), cfg)[0]
        with pytest.raises(NumericalError, match=r"maximum principle violated at t=0:"):
            simulate(cfg)

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


def laminar_pinning_config(**overrides):
    # pinning2d is independent of y, so a flat front stays flat
    fields = dict(domain=StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=8),
                  medium=builtin_medium("pinning2d"), eps=0.02, psi0=0.7, T=0.5, h0=0.72)
    return SimConfig(**{**fields, **overrides})


class TestFlatSteps:
    """A flat step's pressure is computed once per config, and a flat run
    reaches neither the front derivatives nor the curved solve."""

    @staticmethod
    def count_flat_solves(monkeypatch):
        calls = []

        def counted(domain, psi0):
            calls.append((domain, psi0))
            return _flat_pressure(domain, psi0)

        def forbidden(*args, **kwargs):
            raise AssertionError("a flat run must stay on the flat path")

        monkeypatch.setattr(hs2d, "_flat_pressure", counted)
        for name in ("_front_derivatives", "_curved_pressure", "_gmres"):
            monkeypatch.setattr(hs2d, name, forbidden)
        return calls

    def test_laminar_run_solves_the_flat_pressure_once(self, monkeypatch):
        calls = self.count_flat_solves(monkeypatch)
        cfg = laminar_pinning_config()
        hist = simulate(cfg)
        assert hist.total_steps > 200 and np.all(hist.iterations == 1)
        assert calls == [(cfg.domain, cfg.psi0)]

    def test_convergence_study_solves_it_once_per_eps(self, monkeypatch):
        calls = self.count_flat_solves(monkeypatch)
        cfg = laminar_pinning_config(domain=StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=20),
                                     T=0.1)
        convergence_study(cfg, [0.2, 0.1, 0.05])
        assert len(calls) == 3

    def test_flat_grid_is_shared_and_read_only(self):
        cfg = laminar_pinning_config()
        h = np.full(cfg.domain.ny, 0.8)
        first = hs2d._velocity(cfg, h, 0.0)
        second = hs2d._velocity(cfg, h + 0.1, 0.3)
        u = first[3].u
        assert u is second[3].u and not u.flags.writeable
        with pytest.raises(ValueError):
            u[1, 0] = 0.0
        assert np.array_equal(u, _flat_pressure(cfg.domain, cfg.psi0)[0])

    def test_each_config_solves_its_own(self, monkeypatch):
        calls = self.count_flat_solves(monkeypatch)
        for psi0 in (0.7, 0.9):
            cfg = laminar_pinning_config(psi0=psi0, T=0.05)
            hist = simulate(cfg)
            assert hist.u_max.max() == psi0
        assert [psi0 for _dom, psi0 in calls] == [0.7, 0.9]


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
        solved = [(0.25, np.full((dom.nx + 1, dom.ny), np.nan))]
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=r"non-finite values at t=0\.5: 0 GMRES "
                                                     r"iterations, relative residual nan"):
                solve_pressure(dom, h, 1.0, 0.5, solved)


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
                            lambda state, config, velocity, dt_cap, solved:
                            advance(state, config, velocity, dt_cap))
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

    def test_fast_solve_forms_the_start_only_without_a_history(self, monkeypatch):
        # with a solved history, the fast solver runs only as GMRES's
        # preconditioner: once per iteration and once per cycle. Without one
        # it also forms the start; a flat front takes its closed-form
        # pressure and never calls it
        calls = []
        fast = hs2d._fast_poisson

        def counted(domain, beta):
            solve = fast(domain, beta)
            return lambda r: calls.append(1) or solve(r)

        monkeypatch.setattr(hs2d, "_fast_poisson", counted)
        dom = SOLVER_GRIDS[0]
        for slope, start_slope, start_calls in ((0.3, None, 1), (0.3, 0.29, 0),
                                                (0.0, 0.0, 1)):
            solved = ([] if start_slope is None
                      else [(0.0, solve_pressure(dom, sine_front(dom, start_slope), 1.0, 0.0)[0])])
            calls.clear()
            h = sine_front(dom, slope)
            _u, _grad, iterations, _res = solve_pressure(dom, h, 1.0, 0.0, solved)
            if slope == 0.0:
                assert (iterations, len(calls)) == (1, 0)
            else:
                assert iterations > 0
                cycles = math.ceil(iterations / hs2d._GMRES_RESTART)
                assert len(calls) == start_calls + iterations + cycles


    def test_each_solve_returns_a_fresh_array(self):
        # the solver's buffers are its own and never handed out: two solvers,
        # and two calls of one, give arrays that share no memory, and a later
        # call leaves an earlier result as it was
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=16, ny=9)
        rng = np.random.default_rng(3)
        r, s = rng.standard_normal((2, 15 * 9))
        solve = _fast_poisson(dom, 1.3)
        first = solve(r)
        kept = first.copy()
        second, other = solve(s), _fast_poisson(dom, 1.3)(r)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, other)
        assert np.array_equal(first, kept) and np.array_equal(first, other)


def reference_stencil(domain, h, grid):
    """The curved 9-point operator as the 2D formula it was written as before
    the padded flat layout: coefficients on the (nx - 1, ny) unknowns, the
    grid (nx + 1, ny) padded with its periodic ghost columns here, and
    center*mid + east*E + west*W + north*(N + S) - cross*(step_x(N) - step_x(S))."""
    nx, ny, dy = domain.nx, domain.ny, domain.dy
    dxt = 1.0 / nx
    hp, hpp = _front_derivatives(h, dy)
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
    g = np.zeros((nx + 1, ny + 2))
    g[:, 1:-1] = grid
    g[:, 0], g[:, -1] = g[:, -2], g[:, 1]
    mid, step_x = g[1:-1, 1:-1], g[2:] - g[:-2]
    return (center * mid + east * g[2:, 1:-1] + west * g[:-2, 1:-1]
            + north * (g[1:-1, 2:] + g[1:-1, :-2])
            - cross * (step_x[:, 2:] - step_x[:, :-2])), west


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPaddedStencil:
    """_curved_pressure's stencil on the padded flat grid against
    reference_stencil, to the bit, signs of zero included."""

    @pytest.mark.parametrize("nx, ny", [(8, 8), (32, 9), (64, 64), (128, 20)])
    def test_matvec_and_residual_equal_the_2d_formula(self, nx, ny, monkeypatch):
        dom = StripDomain(Lx=4.0, Ly=1.0, nx=nx, ny=ny)
        rng = np.random.default_rng(nx * ny)
        h = 0.45 * dom.Lx + 0.02 * rng.standard_normal(ny)  # random, curved
        psi0, n = 0.7, (nx - 1) * ny
        signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        mixed = np.where(rng.random(n) < 0.3, signed_zeros, rng.standard_normal(n))
        assert np.signbit(signed_zeros).any() and not np.signbit(signed_zeros).all()
        vectors = (rng.standard_normal(n), signed_zeros, mixed)
        products = []

        def spy(matvec, precond, b, x0, target):
            # the matvec as GMRES gets it, before and between its own calls
            products.extend(matvec(v) for v in vectors)
            x, iterations, estimate = _gmres(matvec, precond, b, x0, target)
            products.extend(matvec(v) for v in vectors)
            return x, iterations, estimate

        monkeypatch.setattr(hs2d, "_gmres", spy)
        u, _iterations, converged, residual = _curved_pressure(
            dom, h, *_front_derivatives(h, dom.dy), psi0, 0.0, ())
        assert converged and len(products) == 2 * len(vectors)
        for k, v in enumerate(vectors * 2):
            grid = np.zeros((nx + 1, ny))
            grid[1:nx] = v.reshape(nx - 1, ny)
            expected, _west = reference_stencil(dom, h, grid)
            assert same_bits(products[k], expected.ravel())
        # the explicit residual: the operator on the whole solved grid, inlet
        # row included, over the norm of the right-hand side -west psi0
        defect, west = reference_stencil(dom, h, u)
        rhs = np.zeros((nx - 1, ny))
        rhs[0] = -west[0] * psi0
        assert same_bits(u[0], np.full(ny, psi0)) and same_bits(u[nx], np.zeros(ny))
        assert residual == float(np.linalg.norm(defect) / np.linalg.norm(rhs))


class TestSolveWorkspaces:
    """Each curved solve owns its arrays: a run's `solved` history holds
    earlier u grids, and two runs may share one StripDomain."""

    @staticmethod
    def curved_config(domain, phase, **overrides):
        medium = parse_medium(f"sin(pi*(x - t))^2 + 1 + sin(pi*(y + {phase}))^2/2", dim=2)
        return SimConfig(**{**dict(domain=domain, medium=medium, eps=0.5, psi0=1.0,
                                   T=0.4, h0=1.0), **overrides})

    def test_no_solve_writes_into_an_earlier_grid(self, monkeypatch):
        made = []
        advance = hs2d._advance

        def spy(*args):
            state, dt, solve = advance(*args)
            made.append((solve.u, solve.u.copy()))
            return state, dt, solve

        monkeypatch.setattr(hs2d, "_advance", spy)
        hist = simulate(self.curved_config(StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16), 0.3))
        assert len(made) == hist.total_steps > 2 * hs2d._START_GRIDS
        assert np.all(hist.iterations > 0)
        for u, kept in made:
            assert same_bits(u, kept)
        assert len({id(u) for u, _ in made}) == len(made)

    def test_threads_on_one_domain_give_the_sequential_histories(self):
        def run_all(domain, parallel):
            configs = [self.curved_config(domain, 0.3),
                       self.curved_config(domain, 0.7, h0=sine_front(domain, 0.3)),
                       self.curved_config(domain, 0.1, T=0.3)]
            if not parallel:
                return [simulate(cfg) for cfg in configs]
            start = threading.Barrier(len(configs), timeout=60)

            def run(cfg):
                start.wait()
                return simulate(cfg)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:  # three threads, switching often
                with ThreadPoolExecutor(max_workers=len(configs)) as pool:
                    return list(pool.map(run, configs, timeout=120))
            finally:
                sys.setswitchinterval(interval)

        # a grid large enough that NumPy drops the GIL inside the stencil's ufuncs
        grid = dict(Lx=4.0, Ly=1.0, nx=64, ny=32)
        sequential = run_all(StripDomain(**grid), False)
        threaded = run_all(StripDomain(**grid), True)
        for a, b in zip(sequential, threaded):
            assert a.total_steps == b.total_steps > 10
            assert same_bits(a.times, b.times)
            assert all(same_bits(f.heights, g.heights) for f, g in zip(a.fronts, b.fronts))
            for key in ("u_min", "u_max", "iterations", "residual", "_skipped"):
                assert same_bits(getattr(a, key), getattr(b, key))
        finals = {f.final_front.heights.tobytes() for f in sequential}
        assert len(finals) == len(sequential)


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
            new, dt, _solve = hs2d._advance(FrontGraph(heights=h, t=0.0), cfg)
            rate = (new.heights - h) / dt
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
            hs2d._advance(front, cfg)[0]


class TestNonFiniteInputs:
    def test_non_finite_heights_raise_with_time(self, velocity=hs2d._velocity, nan_at=3):
        cfg = basic_config()
        heights = np.full(8, 1.0)
        heights[nan_at] = np.nan
        with pytest.raises(NumericalError, match="heights are not finite at t=0.3"):
            hs2d._advance(FrontGraph(heights=heights, t=0.3), cfg, velocity)[0]

    def test_one_height_step_fails_alike(self):
        # the one-height kernel reads a flat front: one of NaN
        self.test_non_finite_heights_raise_with_time(hs2d._one_height_velocity, slice(None))

    def test_nan_medium_stops_the_first_step(self, monkeypatch):
        # sqrt(sin(pi*y)) is NaN on half of every y-period: the model
        # contract rejects it before any step
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                basic_config(medium=parse_medium("sqrt(sin(pi*y)) + 1", dim=2))
        # a NaN g that slips past the sampled contract: comparisons let NaN
        # through, so the stepper has to test g itself
        # (the flat front in a medium without y steps on one point)
        cfg, points = basic_config(T=0.05), []

        def nan_medium(g, eps, x, t):
            points.append(len(x))
            return np.full(len(x), np.nan)

        monkeypatch.setattr(hs2d, "eval_scaled", nan_medium)
        with pytest.raises(NumericalError,
                           match="medium g is not finite at the front at t=0"):
            simulate(cfg)
        assert points == [1]


# ---------------------------------------------------------------------------
# The velocity kernel, and the stepper it was split from
# ---------------------------------------------------------------------------

# The stepper before _velocity was split out of _advance and _solve_pressure
# was folded into it, kept verbatim but for the two function names: the
# reference that simulate is held to, bit for bit.


def reference_solve_pressure(domain: StripDomain, h: np.ndarray, hp: np.ndarray,
                             hpp: np.ndarray, psi0: float, t: float,
                             solved: Sequence[tuple[float, np.ndarray]] = ()
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
    is applied matrix-free and solved by GMRES to |A u - b| <= 1e-12 |b| on
    its residual estimate, from the start that _curved_pressure forms out
    of the `solved` history (see there); the residual is then recomputed
    explicitly. NumericalError when the solution is not finite, GMRES does
    not converge or the residual > 1e-10.
    """
    if h.max() == h.min():
        u, iterations, converged, residual = _flat_pressure(domain, psi0)
    else:
        u, iterations, converged, residual = _curved_pressure(domain, h, hp, hpp,
                                                              psi0, t, solved)
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


def reference_advance(state: FrontGraph, config: SimConfig, dt_cap: Optional[float] = None,
                      solved: Sequence[tuple[float, np.ndarray]] = ()
                      ) -> tuple[FrontGraph, dict]:
    """One explicit step from `state`, its pressure solve started from the
    `solved` history as _curved_pressure says; info holds dt, the pressure
    range, the solve's iterations and residual, and the pressure grid ("u")
    that later steps add to their history."""
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

    u, grad, iterations, residual = reference_solve_pressure(
        domain, h, hp, hpp, config.psi0, state.t, solved)
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


def six_grid_history(cfg, steps=6):
    """The front after `steps` steps of a run of cfg and the (t, u) pressure
    history that simulate would hand the next step."""
    state, solved = cfg.initial_front(), []
    for _ in range(steps):
        new, _dt, solve = hs2d._advance(state, cfg, hs2d._velocity, None, solved)
        solved.append((state.t, solve.u))
        state = new
    return state, solved


def flat_velocity_config():
    return basic_config(domain=StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16))


def curved_velocity_config():
    dom = StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16)
    return SimConfig(domain=dom, medium=parse_medium("1 + sin(pi*(y + 0.3))^2/2", dim=2),
                     eps=0.5, psi0=1.0, T=1.0, h0=sine_front(dom, 0.5))


class TestVelocity:
    """hs2d._velocity: equal arguments give equal rates and change nothing,
    so a step may evaluate it twice (Heun's predictor and corrector)."""

    @pytest.mark.parametrize("make", [flat_velocity_config, curved_velocity_config],
                             ids=["flat", "curved"])
    def test_has_no_side_effects(self, make):
        cfg = make()
        state, solved = six_grid_history(cfg)
        assert len(solved) == hs2d._START_GRIDS
        h = state.heights
        kept_h, kept = h.copy(), [(t, u.copy()) for t, u in solved]
        first = hs2d._velocity(cfg, h, state.t, solved)
        second = hs2d._velocity(cfg, h, state.t, solved)
        for a, b in ((first[0], second[0]), (first[1], second[1]), (first[2], second[2]),
                     (first[3].u, second[3].u)):
            assert np.array_equal(a, b)
        assert np.array_equal(h, kept_h)
        assert len(solved) == len(kept)
        for (t, u), (t_kept, u_kept) in zip(solved, kept):
            assert t == t_kept and np.array_equal(u, u_kept)
        if make is curved_velocity_config:
            assert first[3].iterations >= 1 and np.ptp(h) > 0.0


REFERENCE_RUNS = {
    # the bench's sim2d run jobs: const 64x64, pinning 128x8, curved at phase 0.3
    "const_64x64": lambda: SimConfig(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=64, ny=64), medium=constant_medium(),
        eps=0.5, psi0=1.0, T=0.3, h0=1.0),
    "pinning_128x8": lambda: SimConfig(
        domain=StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=8),
        medium=builtin_medium("pinning2d"), eps=0.02, psi0=0.7, T=0.5, h0=0.72),
    "curved_phase_0.3": lambda: SimConfig(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=64, ny=64),
        medium=parse_medium("sin(pi*(x - t))^2 + 1 + sin(pi*(y + 0.3))^2/2", dim=2),
        eps=0.25, psi0=1.0, T=0.15, h0=1.0),
    # a curved start in a medium without y: every step on the whole front
    "pinning_sine_front": lambda: SimConfig(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=64, ny=16),
        medium=builtin_medium("pinning2d"), eps=0.25, psi0=1.0, T=1.2,
        h0=sine_front(StripDomain(Lx=4.0, Ly=1.0, nx=64, ny=16), 0.5)),
}

# flat fronts in media without y, which take the one-height step: media whose
# NumPy kernels (exp, '^0.5' as sqrt, '^-1' as a reciprocal) could round one
# point unlike a whole front, at three ny, and an h0 given as an array
ONE_HEIGHT_MEDIA = {"exp": "exp(sin(2*pi*(x - t)))/2 + 1",
                    "sqrt": "(1 + sin(pi*(x - t))^2)^0.5",
                    "recip": "(2 + cos(2*pi*(x + t)))^-1 + 1"}


def one_height_run(src, ny, **overrides):
    fields = dict(domain=StripDomain(Lx=2.0, Ly=0.5, nx=32, ny=ny),
                  medium=parse_medium(src, dim=2), eps=0.1, psi0=1.0, T=0.6, h0=0.7)
    return SimConfig(**{**fields, **overrides})


REFERENCE_RUNS.update({
    f"{name}_ny{ny}": (lambda src=src, ny=ny: one_height_run(src, ny))
    for name, src in ONE_HEIGHT_MEDIA.items() for ny in (8, 20, 64)})
REFERENCE_RUNS["exp_ny20_array_h0"] = lambda: one_height_run(
    ONE_HEIGHT_MEDIA["exp"], 20, h0=np.full(20, 0.7))


@pytest.mark.parametrize("name", ["pinning_128x8", "curved_phase_0.3", "pinning_sine_front"])
def test_one_medium_evaluation_per_step(name, monkeypatch):
    # the bench's tracer counts hs2d.steps by eval_scaled's spans; a flat
    # front in a medium without y evaluates g at one point, any other run
    # at all ny, a flat start in a medium with y too
    calls = []

    def counted(*args):
        calls.append((args[3], len(args[2])))
        return eval_scaled(*args)

    monkeypatch.setattr(hs2d, "eval_scaled", counted)
    hist = simulate(REFERENCE_RUNS[name]())
    points = {"pinning_128x8": 1, "curved_phase_0.3": 64, "pinning_sine_front": 16}[name]
    assert hist.total_steps > 60 and len(calls) == hist.total_steps
    assert calls == [(f.t, points) for f in hist.fronts[:-1]]


@pytest.mark.parametrize("src, caps", [("sin(pi*(x - t))^2 + 1", "xt"),
                                       ("sin(pi*x)^2 + 1", "x"),
                                       ("sin(pi*t)^2 + 1", "t"), ("1", "")])
def test_eps_caps_follow_the_variables_g_uses(src, caps):
    # eps = 1e-3 under a CFL step of 0.4 * h0/16 / peak: where g uses x,
    # dt * peak <= eps/4; where it uses t, dt <= eps/4; over both kernels
    eps, h0 = 1e-3, 1.0
    cfg = basic_config(medium=parse_medium(src, dim=2), eps=eps, h0=h0)
    peak = _admit(cfg.medium, 2).M * float(cfg._flat_solve.uxt[0]) / h0
    bounds = [cfg.cfl * (h0 / 16) / peak]
    bounds += [eps / 4 / peak] if "x" in caps else []
    bounds += [eps / 4] if "t" in caps else []
    for velocity in (hs2d._velocity, hs2d._one_height_velocity):
        assert hs2d._advance(cfg.initial_front(), cfg, velocity)[1] == min(bounds)


@pytest.mark.parametrize("name", [*(name for name in REFERENCE_RUNS if "_ny" in name),
                                  "pinning_128x8", "const_64x64", "save_every_3"])
def test_one_height_step_equals_the_general_step(name, monkeypatch):
    # the same run with _velocity put in the one-height kernel's place keeps
    # every bit: times, saved fronts, per-step records, the steps between
    # saves and the fitted speed
    if name == "save_every_3":
        cfg = one_height_run(ONE_HEIGHT_MEDIA["recip"], 20, save_every=3)
    else:
        cfg = REFERENCE_RUNS[name]()
    steps = []
    one_height = hs2d._one_height_velocity
    monkeypatch.setattr(hs2d, "_one_height_velocity",
                        lambda *args: steps.append(1) or one_height(*args))
    fast = simulate(cfg)
    assert len(steps) == fast.total_steps > 40
    monkeypatch.setattr(hs2d, "_one_height_velocity", hs2d._velocity)
    general = simulate(cfg)
    assert fast.total_steps == general.total_steps
    assert np.array_equal(fast.times, general.times)
    assert len(fast.fronts) == len(general.fronts)
    for a, b in zip(fast.fronts, general.fronts):
        assert a.t == b.t and np.array_equal(a.heights, b.heights)
        assert np.ptp(a.heights) == 0.0
    for key in ("u_min", "u_max", "iterations", "residual", "_skipped"):
        assert np.array_equal(getattr(fast, key), getattr(general, key))
    assert fast.iterations.dtype == general.iterations.dtype
    window = (0.25 * cfg.T, cfg.T)
    assert fast.front_speed(*window) == general.front_speed(*window)
    if name == "save_every_3":
        assert fast._skipped.shape[0] > 40


def test_advance_is_the_only_update():
    # one explicit step: _step_size is named in _advance alone, and a
    # FrontGraph is built only there and in SimConfig.initial_front, so a
    # multi-stage update changes _advance alone
    tree = ast.parse(pathlib.Path(hs2d.__file__).read_text())
    found = {"_step_size": set(), "FrontGraph": set()}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "_step_size":
                found["_step_size"].add(scope)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "FrontGraph"):
                found["FrontGraph"].add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(tree, "")
    assert found == {"_step_size": {"_advance"},
                     "FrontGraph": {"_advance", "SimConfig.initial_front"}}


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_simulate_equals_the_reference_stepper(name):
    # reference_advance, driven with simulate's six-grid history, gives the
    # same bits at every step as simulate's _advance -> _velocity
    cfg = REFERENCE_RUNS[name]()
    hist = simulate(cfg)
    state, solved = cfg.initial_front(), []
    for k in range(hist.total_steps):
        t = state.t
        state, info = reference_advance(state, cfg, cfg.T - t, solved)
        solved = (solved + [(t, info["u"])])[-hs2d._START_GRIDS:]
        assert state.t == hist.times[k + 1]
        assert np.array_equal(state.heights, hist.fronts[k + 1].heights)
        for key in ("u_min", "u_max", "iterations", "residual"):
            assert info[key] == getattr(hist, key)[k]
    assert len(hist.times) == hist.total_steps + 1
    if name == "curved_phase_0.3":
        assert hist.total_steps == 66 and int(hist.iterations.sum()) == 163


# curved runs whose every solve is pinned: the bench's curved job, an odd ny
# (no Nyquist column in Fy), the smallest grid, a run that starts curved in a
# medium without y, and one that saves every third front
_Y_MEDIUM = "1 + sin(pi*(y + 0.3))^2/2"
PINNED_CURVED_RUNS = {
    "curved_phase_0.3": (REFERENCE_RUNS["curved_phase_0.3"],
                         "6f64ce70a43e1d4f31eca2a3e2dbc31229cdf14ea8727d7649aad445507af213"),
    "odd_32x9": (lambda: SimConfig(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=9),
        medium=parse_medium("sin(pi*(x - t))^2 + 1 + sin(pi*(y + 0.3))^2/2", dim=2),
        eps=0.5, psi0=1.0, T=0.3, h0=1.0),
        "0ad4436a695c39db0196ec9e708796a27d04658848a30d4328974c2e3d4a066d"),
    "smallest_8x8": (lambda: SimConfig(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=8, ny=8), medium=parse_medium(_Y_MEDIUM, dim=2),
        eps=0.5, psi0=1.0, T=0.5, h0=1.5),
        "3936f33609cf2a39e7476ee69c1ba82a96a47d4c620b9e95a91e8db5ba5b234b"),
    "sine_front": (lambda: SimConfig(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16), medium=builtin_medium("pinning2d"),
        eps=0.25, psi0=1.0, T=0.3, h0=sine_front(StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16), 0.5)),
        "6e6ea4e2d14259f26f521ad26fdc6d7a41bc1c1050175d7489800748dca289da"),
    "save_every_3": (lambda: SimConfig(
        domain=StripDomain(Lx=4.0, Ly=1.0, nx=32, ny=16), medium=parse_medium(_Y_MEDIUM, dim=2),
        eps=0.5, psi0=1.0, T=0.4, h0=1.0, save_every=3),
        "9f3c166f2c88148467a4b299c71ae283dfcf50b2a4737d34f39c72bfff0778e7"),
}


@pytest.mark.parametrize("name", PINNED_CURVED_RUNS)
def test_curved_solves_keep_their_bits(name, monkeypatch):
    # sha256 over every curved solve's u grid bytes, GMRES iterations,
    # converged flag and relative residual, in solve order, then the final
    # heights (NumPy 2.4, x86-64): a change to the curved solve must keep
    # every bit of every solve, not only of the saved fronts
    make, expected = PINNED_CURVED_RUNS[name]
    digest, solves = hashlib.sha256(), []
    curved = hs2d._curved_pressure

    def spy(*args):
        u, iterations, converged, residual = curved(*args)
        digest.update(np.ascontiguousarray(u).tobytes())
        digest.update(struct.pack("<q?d", iterations, converged, residual))
        solves.append(iterations)
        return u, iterations, converged, residual

    monkeypatch.setattr(hs2d, "_curved_pressure", spy)
    hist = simulate(make())
    digest.update(hist.final_front.heights.tobytes())
    assert len(solves) >= 10 and sum(solves) > len(solves)
    assert digest.hexdigest() == expected
