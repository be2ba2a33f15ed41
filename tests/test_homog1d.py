"""Tests for the 1D front ODE, effective velocity, obstacles, and candidates.

Oracles: exact constant-speed solutions; the traveling-wave phase x0 with
q*g(x0, 0) = 1 (plug-in identity) on which the integrator is stage-exact;
the harmonic-mean closed form sqrt(2)*q for g = 1 + sin^2(pi x); and an
in-test Euler re-implementation for the obstacle bracketing.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hele_homog import (
    FlatnessTrace,
    FrontProblem,
    Medium,
    NumericalError,
    Side,
    ValidationError,
    builtin_medium,
    effective_velocity,
    estimate_bounds,
    eval_scaled,
    flatness_lipschitz_check,
    harmonic_mean_oracle,
    homogenized_candidates,
    integrate_front,
    obstacle_front,
    parse_medium,
    velocity_curve,
)
from hele_homog import homog1d
from hele_homog.homog1d import _clipped, _rk4

# pinned plateau: candidates for g = sin^2(pi(x-t)) + 1 at q = 0.75, defaults
R_LOWER_FROZEN = 1.0074462890625
R_UPPER_FROZEN = 0.9906005859375


def _pinning_phase(q):
    """x0 with q*g(x0, 0) = 1: the front rides the wave at speed exactly 1."""
    return math.asin(math.sqrt(1.0 / q - 1.0)) / math.pi


# ---------------------------------------------------------------------------
# integrate_front
# ---------------------------------------------------------------------------

class TestIntegrateFront:
    def test_constant_medium_exact(self):
        p = FrontProblem(medium=parse_medium("1", 1), q=2.0)
        tr = integrate_front(p, 1.0, 0.01)
        assert tr.positions[-1] == pytest.approx(2.0, abs=1e-13)
        assert tr.times[-1] == pytest.approx(1.0)
        assert tr.dt == 0.01

    def test_trace_shapes(self):
        p = FrontProblem(medium=builtin_medium("pinning"), q=0.75)
        tr = integrate_front(p, 0.5, 0.01)
        assert tr.times.shape == tr.positions.shape
        assert tr.times[0] == 0.0 and tr.positions[0] == 0.0
        assert np.all(np.diff(tr.times) > 0)

    def test_traveling_wave_is_stage_exact(self):
        # On the wave x(t) = x0 + t every integration stage sees g = 1/q,
        # so the trajectory is followed to rounding.
        q = 0.75
        x0 = _pinning_phase(q)
        g = builtin_medium("pinning")
        assert q * g(x0, 0.0) == pytest.approx(1.0, abs=1e-14)
        p = FrontProblem(medium=g, q=q, x0=x0)
        tr = integrate_front(p, 1.0, 0.01)
        assert tr.positions[-1] == pytest.approx(x0 + 1.0, abs=1e-12)

    def test_fourth_order_dt_halving(self):
        p = FrontProblem(medium=builtin_medium("pinning"), q=0.75)
        ref = integrate_front(p, 1.0, 1.0 / 6400).positions[-1]
        e1 = abs(integrate_front(p, 1.0, 1.0 / 50).positions[-1] - ref)
        e2 = abs(integrate_front(p, 1.0, 1.0 / 100).positions[-1] - ref)
        assert 12.0 < e1 / e2 < 20.0

    def test_eps_scaling(self):
        # g^eps(x, t) = g(x/eps, t/eps): integrating at eps is the eps-blow-up
        # of the unit-cell run: x_eps(t) = eps * x_1(t/eps)
        g = builtin_medium("pinning")
        eps = 0.5
        a = integrate_front(FrontProblem(medium=g, q=0.75, eps=eps), 1.0, 0.001)
        b = integrate_front(FrontProblem(medium=g, q=0.75, eps=1.0), 1.0 / eps, 0.001 / eps)
        assert a.positions[-1] == pytest.approx(eps * b.positions[-1], abs=1e-10)

    def test_decreasing_position_rejected(self):
        g = parse_medium("sin(2*pi*x) - 2", 1)
        with pytest.raises(ValidationError, match="not positive"):
            FrontProblem(medium=g, q=1.0)
        # the kernel's own check, for a g < 0 the sampled contract misses
        with pytest.raises(NumericalError, match="increase"):
            _rk4(g, 1.0, 0.0, 1.0, 100)

    def test_nonfinite_rejected(self):
        g = parse_medium("exp(x^2)", 1)
        with pytest.raises(ValidationError, match="1-periodic"):
            FrontProblem(medium=g, q=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError, match="finite"):
                _rk4(g, 5.0, 0.0, 4.0, 80)

    def test_validation(self):
        g = builtin_medium("pinning")
        with pytest.raises(ValidationError):
            FrontProblem(medium=builtin_medium("pinning2d"), q=1.0)  # dim 2
        with pytest.raises(ValidationError):
            FrontProblem(medium=g, q=0.0)
        with pytest.raises(ValidationError):
            FrontProblem(medium=g, q=1.0, eps=0.0)
        p = FrontProblem(medium=g, q=1.0)
        with pytest.raises(ValidationError):
            integrate_front(p, 0.0, 0.01)
        with pytest.raises(ValidationError):
            integrate_front(p, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_x0_rejected(self, bad):
        # a NaN or infinite start once failed as a non-finite medium value
        g = builtin_medium("pinning")
        calls = [lambda: FrontProblem(medium=g, q=1.0, x0=bad),
                 lambda: effective_velocity(g, 1.0, T=10.0, x0=bad),
                 lambda: velocity_curve(g, 0.5, 1.0, 2, T=10.0, x0=bad)]
        for call in calls:
            with pytest.raises(ValidationError, match="^x0 must be real and finite"):
                call()
        assert FrontProblem(medium=g, q=1.0, x0=-0.3).x0 == -0.3


# ---------------------------------------------------------------------------
# effective_velocity
# ---------------------------------------------------------------------------

class TestEffectiveVelocity:
    def test_pinning_plateau(self):
        est = effective_velocity(builtin_medium("pinning"), q=0.75, T=200.0)
        assert est.r_hat == pytest.approx(1.0, abs=5e-3)
        assert est.error_bound == pytest.approx(1.0 / 200.0)
        assert est.q == 0.75 and est.T == 200.0

    def test_static_sin_matches_harmonic_mean(self):
        g = builtin_medium("static_sin")
        est = effective_velocity(g, q=1.0)
        assert est.r_hat == pytest.approx(math.sqrt(2.0), abs=5e-3)
        # the error term oscillates with the landing phase, so extrapolation
        # is not guaranteed to improve it -- only to stay within the bound
        assert est.refined == pytest.approx(math.sqrt(2.0), abs=5e-3)

    def test_bounds_invariant(self):
        g = builtin_medium("two_wave")
        b = estimate_bounds(g, resolution=40)
        for q in (0.1, 0.9):
            est = effective_velocity(g, q=q, T=20.0)
            assert b.m * q - 1.0 / 20.0 <= est.r_hat <= b.M * q + 1.0 / 20.0

    def test_x0_independence(self):
        g = builtin_medium("pinning")
        T = 50.0
        a = effective_velocity(g, q=0.75, T=T, x0=0.0)
        c = effective_velocity(g, q=0.75, T=T, x0=0.37)
        assert abs(a.r_hat - c.r_hat) <= 2.0 / T

    def test_one_homogeneity_static(self):
        g = builtin_medium("static_sin")
        T = 50.0
        base = effective_velocity(g, q=0.7, T=T).r_hat
        for lam in (0.5, 2.0):
            scaled = effective_velocity(g, q=lam * 0.7, T=T).r_hat
            assert abs(scaled - lam * base) <= (1.0 + lam) / T

    def test_constant_medium_exact(self):
        est = effective_velocity(parse_medium("1.5", 1), q=2.0, T=10.0)
        assert est.r_hat == pytest.approx(3.0, abs=1e-12)
        assert est.refined == pytest.approx(3.0, abs=1e-12)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValidationError):
            effective_velocity(builtin_medium("pinning"), q=1.0, T=5.0)

    def test_nonpositive_dt_rejected(self):
        for dt in (0.0, -0.01):
            with pytest.raises(ValidationError, match="dt"):
                effective_velocity(builtin_medium("pinning"), q=1.0, T=20.0, dt=dt)


class TestHarmonicMeanOracle:
    def test_static_sin_closed_form(self):
        g = builtin_medium("static_sin")
        for q in (0.5, 1.0, 2.0):
            assert harmonic_mean_oracle(g, q) == pytest.approx(
                math.sqrt(2.0) * q, abs=1e-10
            )

    def test_constant(self):
        assert harmonic_mean_oracle(parse_medium("3", 1), 2.0) == pytest.approx(6.0, abs=1e-12)

    def test_exact_one_homogeneity(self):
        g = parse_medium("1 + 0.5*cos(2*pi*x)^2", 1)
        r1 = harmonic_mean_oracle(g, 1.0)
        assert harmonic_mean_oracle(g, 2.0) == pytest.approx(2 * r1, rel=1e-12)

    def test_time_dependent_rejected(self):
        with pytest.raises(ValidationError):
            harmonic_mean_oracle(builtin_medium("pinning"), 1.0)

    def test_agrees_with_long_run(self):
        g = builtin_medium("static_sin")
        exact = harmonic_mean_oracle(g, 0.8)
        est = effective_velocity(g, q=0.8, T=100.0)
        assert abs(est.r_hat - exact) <= 1.0 / 100.0

    def test_oracle_stays_off_the_float_kernel(self):
        # the quadrature reference cross-checks effective_velocity, so it
        # evaluates the medium through Medium.__call__, not the float kernel
        base = builtin_medium("static_sin")
        g = Medium(dim=1, source=base.source, ast=base.ast, _fn=base._fn)
        harmonic_mean_oracle(g, 1.0)
        assert "_float_fn" not in vars(g)
        effective_velocity(g, 1.0, T=10.0)
        assert "_float_fn" in vars(g)


# ---------------------------------------------------------------------------
# Obstacle fronts and flatness
# ---------------------------------------------------------------------------

class TestObstacleFront:
    def test_super_constant_medium_exact(self):
        # g = 1, q = 1, r = 0.5: free motion at speed 1 beats the obstacle,
        # flatness grows as 0.5*tau exactly
        g = parse_medium("1", 1)
        front, trace = obstacle_front(g, q=1.0, r=0.5, eps=0.1, side=Side.SUPER)
        assert front.side is Side.SUPER
        assert trace.phi[-1] == pytest.approx(0.5 * trace.times[-1], abs=1e-12)
        mid = len(trace.phi) // 2
        assert trace.phi[mid] == pytest.approx(0.5 * trace.times[mid], abs=1e-12)

    def test_sub_zero_when_obstacle_slow(self):
        # r <= m*q: the Sub front never detaches from r*t
        g = builtin_medium("pinning")  # m = 1
        _, trace = obstacle_front(g, q=1.0, r=0.9, eps=0.05, side=Side.SUB)
        assert np.all(trace.phi == 0.0)

    def test_super_zero_when_obstacle_fast(self):
        # r >= M*q: the Super front is carried by the obstacle
        g = builtin_medium("pinning")  # M = 2
        _, trace = obstacle_front(g, q=1.0, r=2.1, eps=0.05, side=Side.SUPER)
        assert np.all(trace.phi == 0.0)

    def test_bracketing_by_euler_oracle(self):
        # z (Sub) <= unconstrained Euler front <= y (Super), step by step
        g = builtin_medium("pinning")
        q, r, eps = 0.75, 0.9, 0.1
        sup, _ = obstacle_front(g, q=q, r=r, eps=eps, side=Side.SUPER)
        sub, _ = obstacle_front(g, q=q, r=r, eps=eps, side=Side.SUB)
        times = sup.trace.times
        dt = sup.trace.dt
        x = 0.0
        free = [x]
        for t in times[:-1]:
            x = x + dt * q * eval_scaled(g, eps, x, float(t))
            free.append(x)
        free = np.array(free)
        assert np.all(sub.trace.positions <= free + 1e-12)
        assert np.all(free <= sup.trace.positions + 1e-12)

    def test_default_dt_is_eps_over_twenty(self):
        g = parse_medium("1", 1)
        front, _ = obstacle_front(g, q=1.0, r=0.5, eps=0.2, side=Side.SUPER)
        assert front.trace.dt == pytest.approx(0.2 / 20.0)

    def test_dt_cap_validation(self):
        g = parse_medium("1", 1)
        with pytest.raises(ValidationError):
            obstacle_front(g, q=1.0, r=0.5, eps=0.1, side=Side.SUPER, dt=0.02)

    @pytest.mark.parametrize("side", [Side.SUPER, Side.SUB])
    def test_nonfinite_medium_rejected_with_time(self, side):
        # g is NaN for x/eps in (1, 2): the model contract rejects it
        g = parse_medium("sqrt(sin(pi*x)) + 1", 1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                obstacle_front(g, q=1.0, r=0.5, eps=0.5, side=side, T=4.0)
            # NaN compares False against the obstacle, so an unchecked
            # clipped front would snap onto it: the kernel tests g itself
            with pytest.raises(NumericalError, match=r"not finite at t=\d"):
                _clipped(g._fn, 1.0, 0.5, 0.5, side, 4.0, 160)

    def test_phi_monotone(self):
        g = builtin_medium("pinning")
        for side in (Side.SUPER, Side.SUB):
            _, trace = obstacle_front(g, q=0.75, r=1.0, eps=0.05, side=side)
            assert np.all(np.diff(trace.phi) >= 0.0)


class TestFlatnessCheck:
    def _run(self, side, r):
        g = builtin_medium("pinning")
        b = estimate_bounds(g, resolution=64)
        _, trace = obstacle_front(g, q=0.75, r=r, eps=0.05, side=side)
        return flatness_lipschitz_check(trace, q=0.75, r=r, bounds=b), b

    def test_super_passes(self):
        rep, b = self._run(Side.SUPER, 0.9)
        assert rep.passed and rep.monotone and rep.lipschitz_ok
        assert rep.rate == pytest.approx(max(b.M * 0.75 - 0.9, 0.0))

    def test_sub_passes(self):
        rep, b = self._run(Side.SUB, 1.2)
        assert rep.passed
        assert rep.rate == pytest.approx(max(1.2 - b.m * 0.75, 0.0))

    def test_violating_trace_fails(self):
        b = estimate_bounds(builtin_medium("pinning"), resolution=32)
        times = np.array([0.0, 0.1, 0.2])
        phi = np.array([0.0, 5.0, 5.0])  # jump far beyond any admissible rate
        trace = FlatnessTrace(times=times, phi=phi, side=Side.SUPER)
        rep = flatness_lipschitz_check(trace, q=0.75, r=0.9, bounds=b)
        assert not rep.lipschitz_ok and not rep.passed
        assert rep.max_excess > 0

    def test_nonmonotone_trace_fails(self):
        b = estimate_bounds(builtin_medium("pinning"), resolution=32)
        trace = FlatnessTrace(
            times=np.array([0.0, 0.1, 0.2]),
            phi=np.array([0.0, 0.01, 0.005]),
            side=Side.SUPER,
        )
        rep = flatness_lipschitz_check(trace, q=0.75, r=0.9, bounds=b)
        assert not rep.monotone and not rep.passed


# ---------------------------------------------------------------------------
# Homogenized candidates
# ---------------------------------------------------------------------------

class TestCandidates:
    def test_constant_medium_exact(self):
        rep = homogenized_candidates(parse_medium("2", 1), q=1.0)
        r_lower, r_upper = rep
        assert r_lower == 2.0 and r_upper == 2.0

    def test_constant_medium_scales_with_q(self):
        rep = homogenized_candidates(parse_medium("1.5", 1), q=2.0)
        assert rep.r_lower == 3.0 and rep.r_upper == 3.0

    def test_pinning_plateau(self):
        rep = homogenized_candidates(builtin_medium("pinning"), q=0.75)
        assert rep.r_lower == pytest.approx(R_LOWER_FROZEN, abs=1e-9)
        assert rep.r_upper == pytest.approx(R_UPPER_FROZEN, abs=1e-9)
        # both candidates sit on the pinned plateau value 1
        assert rep.r_lower == pytest.approx(1.0, abs=2e-2)
        assert rep.r_upper == pytest.approx(1.0, abs=2e-2)
        assert abs(rep.r_lower - rep.r_upper) <= 2e-2

    @pytest.mark.parametrize("name, q, r_lower, r_upper", [
        ("two_wave", 1.0, 0.8496337890625001, 0.8346801757812501),
        ("static_sin", 1.0, 1.423583984375, 1.40771484375),
        ("pinning", 1.5, 2.009490966796875, 1.994659423828125),
    ])
    def test_frozen_candidates(self, name, q, r_lower, r_upper):
        rep = homogenized_candidates(builtin_medium(name), q=q)
        assert rep.r_lower == pytest.approx(r_lower, abs=1e-9)
        assert rep.r_upper == pytest.approx(r_upper, abs=1e-9)

    @pytest.mark.parametrize("name, q", [("pinning", 0.75), ("two_wave", 1.0)])
    def test_scaled_run_matches_obstacle_front(self, name, q):
        # one eps = 1 run read at K_eps steps is the clipped front at each
        # eps, here with 20*T/eps an integer
        g = builtin_medium(name)
        rep = homogenized_candidates(g, q=q)
        for side in Side:
            d = rep.diagnostics[side.value]
            for e, phi in d["flatness"].items():
                _, trace = obstacle_front(g, q, d["candidate"], e, side, T=1.0)
                assert abs(phi - trace.phi[-1]) <= 1e-12
            good, bad = d["bracket"]
            assert abs(bad - good) <= 1e-4
            assert d["candidate"] == good

    def test_one_clipped_run_per_speed_and_side(self, monkeypatch):
        calls = []

        def counting(fn, q, r, eps, side, *args, **kwargs):
            calls.append((r, side))
            return _clipped(fn, q, r, eps, side, *args, **kwargs)

        monkeypatch.setattr(homog1d, "_clipped", counting)
        homogenized_candidates(builtin_medium("pinning"), q=0.75)
        assert {side for _, side in calls} == set(Side)
        assert len(calls) == len(set(calls))

    def test_nonfinite_medium_rejected(self):
        # finite on the sampled cell [0, 1), NaN on (1, 2)
        g = parse_medium("sqrt(sin(pi*x)) + 1", 1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                homogenized_candidates(g, q=0.75)
            # past the contract, the clipped loop rejects a NaN g on its own
            with pytest.raises(NumericalError, match="not finite"):
                _clipped(g._fn, 0.75, 0.75, 0.05, Side.SUB, 1.0, 400)

    def test_diagnostics_present(self):
        rep = homogenized_candidates(builtin_medium("pinning"), q=0.75)
        assert rep.beta == 0.9
        assert tuple(rep.eps_list) == (0.05, 0.02, 0.01, 0.005)
        assert "sub" in rep.diagnostics and "super" in rep.diagnostics

    def test_validation(self):
        g = builtin_medium("pinning")
        with pytest.raises(ValidationError):
            homogenized_candidates(g, q=1.0, beta=0.5)
        with pytest.raises(ValidationError):
            homogenized_candidates(g, q=1.0, beta=1.0)
        with pytest.raises(ValidationError):
            homogenized_candidates(g, q=1.0, eps_list=(0.01, 0.02))
        with pytest.raises(ValidationError):
            homogenized_candidates(g, q=-1.0)


# ---------------------------------------------------------------------------
# Velocity curves
# ---------------------------------------------------------------------------

class TestVelocityCurve:
    def test_pinning_window(self):
        T = 50.0
        curve = velocity_curve(builtin_medium("pinning"), 0.6, 0.9, 4, T=T, dt=0.02)
        assert curve.q.shape == (4,) and curve.r_hat.shape == (4,)
        assert curve.error_bound == pytest.approx(1.0 / T)
        assert np.all(np.abs(curve.r_hat - 1.0) <= 1.5 / T)

    def test_matches_effective_velocity(self):
        # the array kernel and the float kernel agree to the bit on the
        # builtins; a medium with x^2.0 need not (x*x on arrays, pow on floats)
        for name in ("pinning", "antipinning", "two_wave", "static_sin"):
            g = builtin_medium(name)
            curve = velocity_curve(g, 0.25, 2.0, 12, T=20.0, dt=0.02)
            for q, r, refined in zip(curve.q, curve.r_hat, curve.refined):
                est = effective_velocity(g, q=float(q), T=20.0, dt=0.02)
                assert (r, refined) == (est.r_hat, est.refined), (name, q)

    def test_validation(self):
        g = builtin_medium("pinning")
        with pytest.raises(ValidationError):
            velocity_curve(g, 0.9, 0.6, 4)
        with pytest.raises(ValidationError):
            velocity_curve(g, 0.5, 1.0, 1)
        for samples in (True, 3.0, np.int64(3)):
            with pytest.raises(ValidationError, match="samples must be an integer >= 2"):
                velocity_curve(g, 0.5, 1.0, samples)
        for dt in (0.0, -0.01):
            with pytest.raises(ValidationError, match="dt"):
                velocity_curve(g, 0.5, 1.0, 3, dt=dt)
        with pytest.raises(ValidationError, match="one-dimensional"):
            velocity_curve(builtin_medium("pinning2d"), 0.5, 1.0, 3)

    def test_only_the_scalar_loops_take_the_float_kernel(self):
        # the NumPy kernel sees no float coordinates from a scalar loop, and
        # velocity_curve's q-array never reaches the float kernel
        base = builtin_medium("static_sin")
        float_calls, array_calls = [], []

        def numpy_kernel(*coords):
            is_float = all(isinstance(c, float) for c in coords)
            (float_calls if is_float else array_calls).append(coords)
            return base._fn(*coords)

        g = Medium(dim=1, source=base.source, ast=base.ast, _fn=numpy_kernel)
        integrate_front(FrontProblem(g, 0.75), T=1.0, dt=0.01)
        effective_velocity(g, 0.75, T=10.0)
        obstacle_front(g, 0.75, 1.0, 0.05, Side.SUB)
        homogenized_candidates(g, 0.75, eps_list=(0.05,))
        assert float_calls == [] and array_calls != []
        array_calls.clear()
        velocity_curve(g, 0.5, 1.0, 3, T=10.0)
        assert len(array_calls) == 4 * 500 and float_calls == []
        assert all(np.shape(x) == (3,) for x, _t in array_calls)

    def test_path_is_not_stored(self):
        # a stored path would hold (steps + 1) x 400 floats: 3.2 MB here
        g = builtin_medium("pinning")
        tracemalloc.start()
        try:
            velocity_curve(g, 0.5, 1.5, 400, T=20.0, dt=0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400_000

    def test_stalled_front_rejected(self):
        # g = sin(pi*x) + 0.5 has period 2 and vanishes at x = 7/6: the
        # model contract rejects it, and every front stalls there
        g = parse_medium("sin(pi*x) + 0.5", 1)
        with pytest.raises(ValidationError, match="1-periodic"):
            velocity_curve(g, 0.5, 1.0, 3)
        with pytest.raises(ValidationError, match="1-periodic"):
            effective_velocity(g, q=0.75, T=200.0, dt=0.02)
        # the joint and the single-q sweeps velocity_curve and
        # effective_velocity run (T = 200, dt = 0.02)
        with pytest.raises(NumericalError, match="increase"):
            _rk4(g, np.linspace(0.5, 1.0, 3), np.zeros(3), 200.0, 10000)
        with pytest.raises(NumericalError, match="increase"):
            _rk4(g, 0.75, 0.0, 200.0, 10000)


# ---------------------------------------------------------------------------
# The scalar loops' bits, frozen at the NumPy-kernel implementation
# ---------------------------------------------------------------------------

def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=float).tobytes()).hexdigest()


@pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
class TestFrozenScalarBits:
    """Values of the scalar loops from when they evaluated the medium through
    the NumPy kernel; the float kernel and the float coercion keep every bit,
    whether the scalars come in as Python floats or as NumPy scalars."""

    def test_integrate_front_positions(self, kind):
        p = FrontProblem(builtin_medium("pinning"), q=kind(0.75), x0=kind(0.0))
        trace = integrate_front(p, T=kind(20.0), dt=0.01)
        assert trace.positions.size == 2001
        assert _sha256(trace.positions) == (
            "fdd0a84dc48f5a1cb01d776af29fe0094fe4ec752063b0632ad2b75cd73d75de")

    def test_obstacle_front_phi(self, kind):
        front, flat = obstacle_front(builtin_medium("pinning"), kind(0.75), kind(1.0),
                                     kind(0.005), Side.SUB, T=kind(1.0))
        assert flat.phi.size == 4001
        assert _sha256(flat.phi) == (
            "edcf284836dbdfdc03100bb7f10925add906210420480e20a7545a9f7b20fc5b")
        assert _sha256(front.trace.positions) == (
            "c7591a53a361cd97cdb0852963bc5e12b5e9da6b42035abdf47b9e54b9c6cc15")

    @pytest.mark.parametrize("name, q, r_hat, refined", [
        ("pinning", 0.75, 0.9902043361992353, 0.999999999993245),
        ("pinning", 1.5, 1.9999999877114327, 1.999999987711435),
        ("two_wave", 1.0, 0.8425109666130121, 0.8387682736699223),
        ("static_sin", 1.0, 1.411471871119587, 1.4125528390801376),
    ])
    def test_effective_velocity(self, kind, name, q, r_hat, refined):
        est = effective_velocity(builtin_medium(name), kind(q), T=kind(20.0))
        assert (est.r_hat, est.refined) == (r_hat, refined)
