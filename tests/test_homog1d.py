"""Tests for the 1D front ODE, effective velocity, obstacles, and candidates.

Oracles: exact constant-speed solutions; the traveling-wave phase x0 with
q*g(x0, 0) = 1 (plug-in identity) on which the integrator is stage-exact;
the harmonic-mean closed form sqrt(2)*q for g = 1 + sin^2(pi x); the
closed-form r(q) of the pinning and antipinning traveling waves; and an
in-test Euler re-implementation for the obstacle bracketing.
"""

import functools
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from test_medium import _expr_strings

from hele_homog import (
    FlatnessTrace,
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
    obstacle_front,
    parse_medium,
    traveling_wave_oracle,
    velocity_curve,
)
from hele_homog import homog1d
from hele_homog.homog1d import _clipped, _flatness, _rk4

# pinned plateau: candidates for g = sin^2(pi(x-t)) + 1 at q = 0.75, defaults
R_LOWER_FROZEN = 1.0074462890625
R_UPPER_FROZEN = 0.9906005859375


def _pinning_phase(q):
    """x0 with q*g(x0, 0) = 1: the front rides the wave at speed exactly 1."""
    return math.asin(math.sqrt(1.0 / q - 1.0)) / math.pi


# ---------------------------------------------------------------------------
# The RK4 kernel and the front ODE's public entry point
# ---------------------------------------------------------------------------

class TestIntegrateFront:
    """`_rk4` on the float kernel, and effective_velocity's argument checks."""

    def test_constant_medium_exact(self):
        x = _rk4(parse_medium("1", 1)._float_fn, 2.0, 0.0, 1.0, 100)
        assert x == pytest.approx(2.0, abs=1e-13)

    def test_traveling_wave_is_stage_exact(self):
        # On the wave x(t) = x0 + t every integration stage sees g = 1/q,
        # so the trajectory is followed to rounding.
        q = 0.75
        x0 = _pinning_phase(q)
        g = builtin_medium("pinning")
        assert q * g(x0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert _rk4(g._float_fn, q, x0, 1.0, 100) == pytest.approx(x0 + 1.0, abs=1e-12)

    def test_fourth_order_dt_halving(self):
        fn = builtin_medium("pinning")._float_fn
        ref = _rk4(fn, 0.75, 0.0, 1.0, 6400)
        e1 = abs(_rk4(fn, 0.75, 0.0, 1.0, 50) - ref)
        e2 = abs(_rk4(fn, 0.75, 0.0, 1.0, 100) - ref)
        assert 12.0 < e1 / e2 < 20.0

    def test_decreasing_position_rejected(self):
        g = parse_medium("sin(2*pi*x) - 2", 1)
        with pytest.raises(ValidationError, match="not positive"):
            effective_velocity(g, 1.0, T=10.0)
        # the kernel's own check, for a g < 0 the sampled contract misses
        with pytest.raises(NumericalError, match="increase"):
            _rk4(g, 1.0, 0.0, 1.0, 100)

    def test_nonfinite_rejected(self):
        g = parse_medium("exp(x^2)", 1)
        with pytest.raises(ValidationError, match="1-periodic"):
            effective_velocity(g, 5.0, T=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalError, match="finite"):
                _rk4(g, 5.0, 0.0, 4.0, 80)

    def test_validation(self):
        # the medium, then q, then x0, then the time grid
        g = builtin_medium("pinning")
        for call, message in (
                (lambda: effective_velocity(builtin_medium("pinning2d"), 0.0, T=5.0,
                                            x0=math.nan), "one-dimensional"),
                (lambda: effective_velocity(g, 0.0, T=5.0, x0=math.nan), "^q must be > 0"),
                # once a bare OverflowError
                (lambda: effective_velocity(g, 10 ** 400, T=5.0), "^q must be > 0 and finite"),
                (lambda: effective_velocity(g, 1.0, T=5.0, x0=math.nan), "^x0 must be real"),
                (lambda: effective_velocity(g, 1.0, T=0.0), "^T must be >= 10"),
                (lambda: effective_velocity(g, 1.0, T=20.0, dt=0.0), "^dt must be > 0")):
            with pytest.raises(ValidationError, match=message):
                call()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_x0_rejected(self, bad):
        # a NaN or infinite start once failed as a non-finite medium value
        g = builtin_medium("pinning")
        calls = [lambda: effective_velocity(g, 1.0, T=10.0, x0=bad),
                 lambda: velocity_curve(g, 0.5, 1.0, 2, T=10.0, x0=bad)]
        for call in calls:
            with pytest.raises(ValidationError, match="^x0 must be real and finite"):
                call()
        assert effective_velocity(g, 1.0, T=10.0, x0=-0.3).r_hat > 0.0

    def test_bools_are_not_numbers(self):
        g = builtin_medium("pinning")
        for call, name in ((lambda: effective_velocity(g, True, T=20.0), "q"),
                           (lambda: velocity_curve(g, True, 2.0, 3, T=20.0), "qmin"),
                           (lambda: obstacle_front(g, np.True_, 1.0, 0.05, Side.SUB), "q")):
            with pytest.raises(ValidationError, match=f"^{name} must be > 0 and finite, got True$"):
                call()


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

    def test_a_fast_front_steps_a_quarter_period(self):
        # pinning (M = 2) at q = 4 and eps = 0.1: eps/20 would move the front
        # q M eps/20 = 0.4 eps per step, so the default step is the rule's
        # 0.25 eps/(q M) = 0.003125, and a dt above it is refused even where
        # it passes eps/10
        g = builtin_medium("pinning")
        front, _ = obstacle_front(g, q=4.0, r=1.0, eps=0.1, side=Side.SUPER)
        assert front.trace.dt == 0.003125
        with pytest.raises(ValidationError, match=r"^dt must be <= 0\.003125, which moves the "
                                                  r"front a quarter period of g per step, "
                                                  r"got 0\.005$"):
            obstacle_front(g, q=4.0, r=1.0, eps=0.1, side=Side.SUPER, dt=0.005)
        # a dt past eps/10 keeps the message it had
        with pytest.raises(ValidationError, match=r"^dt must satisfy 0 < dt <= eps/10, got 0\.02$"):
            obstacle_front(g, q=4.0, r=1.0, eps=0.1, side=Side.SUPER, dt=0.02)
        # at q = 1 eps/20 moves the front 0.1 eps, and stays the default
        front, _ = obstacle_front(g, q=1.0, r=1.0, eps=0.1, side=Side.SUPER)
        assert front.trace.dt == 0.005

    @pytest.mark.parametrize("q, eps, T, steps", [(4.0, 0.1, 0.0046, 2), (0.75, 0.3, 0.5, 34),
                                                  (0.75, 0.003, 0.5, 3334)])
    def test_no_step_passes_dt(self, q, eps, T, steps):
        # where round(T/dt) rounds down, T/round(T/dt) passes dt; at q = 4
        # one step of 0.0046 against dt = 0.003125 moved the front 0.368 of a
        # period, so the run takes one step more: two of 0.0023
        g = builtin_medium("pinning")
        dt = min(eps / 20.0, 0.25 * eps / (q * 2.0))
        front, flat = obstacle_front(g, q, 1.0, eps, Side.SUPER, T=T)
        assert front.trace.times.size == flat.times.size == steps + 1
        assert front.trace.dt == T / steps <= dt
        if q == 4.0:
            assert front.trace.dt == 0.0023

    def test_side_must_be_a_side(self):
        g = parse_medium("1", 1)
        with pytest.raises(ValidationError, match="^side must be a Side, got 'sub'$"):
            obstacle_front(g, q=1.0, r=0.5, eps=0.1, side="sub")

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

    @pytest.mark.parametrize("times, phi, side, message", [
        ([0.0, 0.1], [0.0, 0.0], None, "flatness trace has no side"),
        ([0.0], [0.0], Side.SUPER, "trace needs matching times/phi with >= 2 samples"),
        ([0.0, 0.1], [0.0], Side.SUPER, "trace needs matching times/phi with >= 2 samples"),
    ], ids=["no_side", "one_sample", "mismatched"])
    def test_malformed_trace_rejected(self, times, phi, side, message):
        b = estimate_bounds(builtin_medium("pinning"), resolution=32)
        trace = FlatnessTrace(times=np.array(times), phi=np.array(phi), side=side)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
            flatness_lipschitz_check(trace, q=0.75, r=0.9, bounds=b)


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

    @pytest.mark.parametrize("name, q, r_lower, r_upper, sub, sup", [
        ("pinning", 0.75, 1.0074462890625, 0.9906005859375,
         "dafacc7098d61cb183bc08fb062b13b19cf34bb2d65f47daaec53f880ba60f06",
         "04fa362734a1b084cff06f5f199acd6e14356f32abd11b917548b42c85d5d79f"),
        ("pinning", 1.5, 2.009490966796875, 1.994659423828125,
         "19f773f3006d9b1742a3f2fc41eb5fcc5ccaae66c3e4b20847633ea918a65d70",
         "6852c41dc380881e751a6dd3f2782364e3455e7efcbc1e43a2e2cb9befc339e1"),
        ("two_wave", 1.0, 0.8496337890625001, 0.8346801757812501,
         "b68b201a0eb695a8ee69908be25c6e32021579708095e6c25404187c06851da3",
         "b8735adcc347f88fc9a2248b56e3f88498de694adc8ebf5d48c598c5f0e2e4a0"),
        ("static_sin", 1.0, 1.423583984375, 1.40771484375,
         "ad407342d63f41d546b31f1befac2a1154b1d6b746f7656add4f5eba9b9ed657",
         "c239fba53ceff9e964f171ce2a2116cd5b839ae9a7825a94defa3eaf78cf85fd"),
    ])
    def test_bits_frozen(self, name, q, r_lower, r_upper, sub, sup):
        # the benchmark's four pairs to the bit: both candidates and, per
        # side, a digest of the flatness per eps and the final bracket
        rep = homogenized_candidates(builtin_medium(name), q=q)
        assert (rep.r_lower, rep.r_upper) == (r_lower, r_upper)
        assert tuple(_sha256([*d["flatness"].values(), *d["bracket"]])
                     for d in (rep.diagnostics["sub"], rep.diagnostics["super"])) == (sub, sup)

    @pytest.mark.parametrize("q", [5.0, 20.0])
    def test_fast_fronts_take_finer_clipped_steps(self, q):
        # pinning at q M > 5: a clipped step of eps/20 moved the front up to
        # q M/20 of a period, and the candidates were 3.4% (q = 5) and 26%
        # (q = 20) off the exact r. At S = ceil(4 q M) steps per unit eps
        # both are within 1% of it
        g = builtin_medium("pinning")
        exact = traveling_wave_oracle(g, 1, q)
        rep = homogenized_candidates(g, q=q)
        assert rep.diagnostics["sub"]["runs"][0][2] == round(math.ceil(4 * q * 2.0) / 0.005)
        for r in rep:
            assert abs(r - exact) <= 0.01 * exact

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
        rep = homogenized_candidates(builtin_medium("pinning"), q=0.75)
        assert {side for _, side in calls} == set(Side)
        assert len(calls) == len(set(calls))
        # and diagnostics records each run, in the order the runs were made
        assert calls == [(r, side) for side in Side
                         for r, _, _ in rep.diagnostics[side.value]["runs"]]

    def test_bench_pairs_work_is_counted(self):
        # the benchmark's four pairs make 128 clipped runs of K = 4000 steps:
        # 512,000 steps when every run went to K; stopping each failing run
        # once its failure is certain leaves 414,545
        runs = []
        for name, q in (("pinning", 0.75), ("pinning", 1.5), ("two_wave", 1.0),
                        ("static_sin", 1.0)):
            d = homogenized_candidates(builtin_medium(name), q=q).diagnostics
            runs += d["sub"]["runs"] + d["super"]["runs"]
        assert (len(runs), sum(not holds for _, holds, _ in runs)) == (128, 53)
        assert sum(steps for _, _, steps in runs) == 414_545
        assert all(steps == 4000 for _, holds, steps in runs if holds)

    def test_search_stores_no_trace(self):
        # K = 40000 steps here, so one stored trace would hold 320 KB; the
        # measured peak, 107 KB, is the bounds estimate's
        g = parse_medium("2", 1)
        tracemalloc.start()
        try:
            rep = homogenized_candidates(g, q=1.0, eps_list=(0.05, 0.005), T=10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.diagnostics["sub"]["runs"] == [(2.0, True, 40000)]
        assert peak < 200_000

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

    @pytest.mark.parametrize("bad", ["abc", None, 1j, True, "0.05"])
    def test_eps_list_entries_are_numbers(self, bad):
        # each once leaked a bare ValueError or TypeError, or passed as a float
        g = builtin_medium("pinning")
        with pytest.raises(ValidationError, match=r"^eps_list\[1\] must be > 0 and finite"):
            homogenized_candidates(g, q=1.0, eps_list=(0.1, bad))


def _reference_run(fn, q, r, side, steps, thresholds):
    """The candidate search's clipped run of Y (eps = 1) with every phi
    stored: the verdict, the flatness e*phi at each eps's read-out, and the
    first step at which an eps whose read-out is not behind reads e*phi at
    or past its threshold (K where there is none)."""
    K = max(steps.values())
    h = K / 20.0 / K
    y, phis = 0.0, [0.0]
    for k in range(K):
        free = y + h * q * fn(y, k * h)
        obstacle = r * (k + 1) * h
        y = max(free, obstacle) if side is Side.SUPER else min(free, obstacle)
        phis.append(max(phis[-1], abs(y - obstacle)))
    flatness = {e: e * phis[k] for e, k in steps.items()}
    stop = next((j for j in range(1, K + 1)
                 if any(k >= j and e * phis[j] >= thresholds[e] for e, k in steps.items())), K)
    return all(flatness[e] < thresholds[e] for e in steps), flatness, stop


def _assert_matches_reference(fn, q, r, side, steps, thresholds):
    """_flatness gives the stored-trace verdict, stops at the first step
    where some eps must fail, and reports each read-out it reached."""
    holds, flatness, stop = _reference_run(fn, q, r, side, steps, thresholds)
    got, read, taken = _flatness(fn, q, r, side, steps, thresholds, 20)
    assert (got, taken) == (holds, stop)
    assert read == {e: flatness[e] for e, k in steps.items() if k < taken or holds}
    return holds


class TestStoppingRun:
    """The candidate search's clipped run reads phi only at its eps read-outs
    and stops once a failure is certain; its verdict and read-outs are those
    of the run that stores every phi."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(src=_expr_strings(), q=st.floats(0.3, 2.0), ratio=st.floats(0.2, 2.0),
           side=st.sampled_from(Side), beta=st.floats(0.8, 1.0, exclude_min=True,
                                                      exclude_max=True),
           eps_list=st.lists(st.floats(0.005, 0.2), min_size=1, max_size=4, unique=True),
           T=st.floats(0.05, 1.0))
    def test_random_media_match_the_stored_trace(self, src, q, ratio, side, beta,
                                                 eps_list, T):
        # r = ratio*q spans the speeds q*g of a medium g in [0.6, 1.4] and beyond
        steps = {e: max(1, round(T / (e / 20.0))) for e in sorted(eps_list, reverse=True)}
        thresholds = {e: e ** beta for e in steps}
        _assert_matches_reference(_periodic(src)._float_fn, q, ratio * q, side, steps,
                                  thresholds)

    @pytest.mark.parametrize("side, r", [(Side.SUPER, 0.5), (Side.SUB, 2.0)])
    def test_fails_exactly_at_a_read_out(self, side, r):
        # g = 1 at q = 1: phi rises on every step, so a threshold equal to
        # e*phi at the last read-out fails on that step and no earlier one;
        # one ulp above it, the run holds
        fn = parse_medium("1", 1)._float_fn
        steps = {0.05: 400, 0.01: 2000}
        _, flatness, _ = _reference_run(fn, 1.0, r, side, steps, {0.05: 1.0, 0.01: 1.0})
        at = {0.05: 1.0, 0.01: flatness[0.01]}
        assert not _assert_matches_reference(fn, 1.0, r, side, steps, at)
        assert _flatness(fn, 1.0, r, side, steps, at, 20)[2] == 2000
        above = {0.05: 1.0, 0.01: math.nextafter(flatness[0.01], math.inf)}
        assert _assert_matches_reference(fn, 1.0, r, side, steps, above)

    @pytest.mark.parametrize("limits", [(3.0, 1.0, 0.3), (0.2, 3.0, 30.0), (2.0, 0.25, 10.0)],
                             ids=["falling", "rising", "zigzag"])
    def test_thresholds_in_any_order(self, limits):
        # phi limits threshold/e that fall, rise or zigzag with K_eps: the run
        # stops where the first eps still ahead must fail, even before an
        # earlier read-out (falling, super side at r = 0.84: phi passes the
        # limit 0.3 of eps = 0.01 at step 949, before step 1000 reads 0.02)
        fn = builtin_medium("two_wave")._float_fn
        steps = {0.05: 400, 0.02: 1000, 0.01: 2000}
        thresholds = {e: e * limit for e, limit in zip(steps, limits)}
        for side in Side:
            for r in (0.6, 0.84, 0.9, 1.1):
                _assert_matches_reference(fn, 1.0, r, side, steps, thresholds)


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
        # builtins; a medium with x^2.0 need not (x*x on arrays, pow on floats).
        # On [5, 30] the rows take 50 to ~250 steps per period, in groups
        for name in ("pinning", "antipinning", "two_wave", "static_sin"):
            g = builtin_medium(name)
            for q_min, q_max in ((0.25, 2.0), (5.0, 30.0)):
                curve = velocity_curve(g, q_min, q_max, 12, T=20.0, dt=0.02)
                for q, r in zip(curve.q, curve.r_hat):
                    est = effective_velocity(g, q=float(q), T=20.0, dt=0.02)
                    assert r == est.r_hat, (name, q)

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


def _traveling_wave_r(c, q):
    """Exact r(q) for g = G(x - c t), G = sin^2(pi y) + 1, c = +-1. In y = x - c t
    the front solves y' = q G(y) - c: it locks at r = c where q G - c has a
    zero, and otherwise r = c + 1/int_0^1 dy/(q G(y) - c)."""
    q = np.asarray(q, dtype=float)
    if c == -1:
        return -1.0 + np.sqrt((q + 1.0) * (2.0 * q + 1.0))
    above = 1.0 + np.sqrt(np.maximum((q - 1.0) * (2.0 * q - 1.0), 0.0))
    below = 1.0 - np.sqrt(np.maximum((1.0 - q) * (1.0 - 2.0 * q), 0.0))
    return np.where(q > 1.0, above, np.where(q < 0.5, below, 1.0))


class TestTravelingWaveYardstick:
    @pytest.mark.parametrize("name, c", [("pinning", 1), ("antipinning", -1)])
    def test_velocity_curve_within_one_over_T(self, name, c):
        # measured: largest error 9.92e-3 (pinning, at the plateau edge
        # q = 1/2) and 7.42e-4 (antipinning); at T = 200 and 400 q, 2.29e-3
        # and 2.2e-4
        T = 50.0
        curve = velocity_curve(builtin_medium(name), 0.05, 2.0, 40, T=T)
        err = np.abs(curve.r_hat - _traveling_wave_r(c, curve.q))
        assert err.max() <= curve.error_bound == 1.0 / T

    def test_closed_forms_match_the_quadrature(self):
        # the locked plateau of the pinning wave, and c + 1/int dy/(q G - c)
        # off it
        assert np.array_equal(_traveling_wave_r(1, [0.5, 0.75, 1.0]), [1.0, 1.0, 1.0])
        for c, q in [(1, 0.1), (1, 0.45), (1, 1.2), (1, 2.0), (-1, 0.05), (-1, 1.3)]:
            integral, _ = quad(lambda y: 1.0 / (q * (math.sin(math.pi * y) ** 2 + 1) - c),
                               0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
            assert _traveling_wave_r(c, q) == pytest.approx(c + 1.0 / integral, rel=1e-12)


class TestTravelingWaveOracle:
    @pytest.mark.parametrize("name, c", [("pinning", 1), ("antipinning", -1)])
    def test_matches_the_closed_forms(self, name, c):
        # the locked plateau [1/2, 1] of the pinning wave included, ends and all
        g = builtin_medium(name)
        for q in (0.05, 0.3, 0.45, 0.5, 0.75, 1.0, 1.2, 2.0):
            assert traveling_wave_oracle(g, c, q) == pytest.approx(
                float(_traveling_wave_r(c, q)), rel=1e-11, abs=0.0), q

    def test_harmonic_mean_is_its_static_call(self):
        g = builtin_medium("static_sin")
        for q in (0.5, 1.0, 2.0):
            assert harmonic_mean_oracle(g, q) == traveling_wave_oracle(g, 0.0, q)

    def test_a_medium_that_is_no_such_wave_is_rejected(self):
        for name, c in (("pinning", -1), ("antipinning", 1), ("pinning", 0),
                        ("two_wave", 1), ("static_sin", 1)):
            with pytest.raises(ValidationError, match="not a traveling wave"):
                traveling_wave_oracle(builtin_medium(name), c, 1.0)
        with pytest.raises(ValidationError, match="c must be real and finite"):
            traveling_wave_oracle(builtin_medium("pinning"), math.nan, 1.0)

    def test_integrates_no_orbit(self, monkeypatch):
        # an independent route: Medium.__call__ and quad, no RK4 and no table
        def forbidden(*args):
            raise AssertionError("the oracle integrated the front ODE")

        monkeypatch.setattr(homog1d, "_rk4", forbidden)
        monkeypatch.setattr(homog1d, "_averages", forbidden)
        base = builtin_medium("pinning")
        g = Medium(dim=1, source=base.source, ast=base.ast, _fn=base._fn)
        assert traveling_wave_oracle(g, 1, 1.2) == pytest.approx(
            float(_traveling_wave_r(1, 1.2)), rel=1e-11)
        assert "_float_fn" not in vars(g)


def _direct(g, q, T, n):
    """r_hat of the direct RK4 orbit: T*n steps of 1/n from 0."""
    return _rk4(g._fn, np.asarray(q, dtype=float), np.zeros(np.shape(q)), float(T),
                round(T * n)) / T


def _periodic(src):
    """A 1-periodic medium in [0.6, 1.4] from a random expression in x and t."""
    src = re.sub(r"\bt\b", "cos(2*pi*t)", re.sub(r"\bx\b", "sin(2*pi*x)", src))
    return parse_medium(f"1 + 0.4*sin({src})", 1)


@functools.lru_cache(maxsize=None)
def _bench_curve(name, q_min, q_max, samples):
    """A velocity curve of the benchmark's shape (T = 200), computed once."""
    return velocity_curve(builtin_medium(name), q_min, q_max, samples, T=200.0)


def _assert_map_matches(curve, r_hat, bound):
    """Tabled rows within bound of the direct orbit, and rows with neither a
    table nor a lock equal to it. A locked row's p/k is within Poincare's
    bound 1/T of it (T an integer): |F^T(x) - x - T p/k| < 1 for the lift F
    of a circle map of rotation number p/k."""
    tabled, locked = curve.nodes > 0, curve.locked > 0
    assert np.abs(curve.r_hat - r_hat)[tabled].max(initial=0.0) <= bound
    assert np.array_equal(curve.r_hat[~tabled & ~locked], r_hat[~tabled & ~locked])
    assert np.all(np.abs(curve.r_hat - r_hat)[locked] < 1.0 / curve.T)


def _assert_locks_certified(g, curve, n):
    """Each locked row has no table and reports r_hat = p/k in lowest terms,
    and its own RK4 map, integrated here, certifies it: Phi^k(x) - x - p
    takes both signs on the points j/256 and the 13 witnesses."""
    locked = curve.locked > 0
    assert not np.any(curve.nodes[locked]) and not np.any(curve.stages[locked])
    x = np.concatenate([np.arange(256) / 256.0, homog1d._WITNESSES])
    for k in set(curve.locked[locked].tolist()):
        rows = curve.locked == k
        p = curve.r_hat[rows] * k
        assert np.array_equal(p, np.round(p))
        assert np.all(np.gcd(p.astype(int), k) == 1)
        y = x
        for _ in range(k):
            y = _rk4(g._fn, curve.q[rows, None], y, 1.0, n)
        moved = y - x - p[:, None]
        assert np.all((moved.min(axis=1) < 0.0) & (moved.max(axis=1) > 0.0))


class TestTimeOneMap:
    """velocity_curve and effective_velocity iterate a tabulated time-1 map."""

    @pytest.mark.parametrize("name, q_min, q_max, T, sizes", [
        ("pinning", 0.05, 2.0, 200.0, {16, 32, 64, 128, 256}),
        ("antipinning", 0.05, 2.0, 200.0, {16, 32}),
        ("static_sin", 0.05, 2.0, 200.0, {16, 32}),
        ("two_wave", 0.05, 2.0, 200.0, {16, 32, 64, 128, 256}),
        ("two_wave", 0.7, 0.9, 600.0, {256, 1024}),
        ("two_wave", 0.83, 0.95, 600.0, {256, 512, 1024})])
    def test_matches_the_direct_orbit(self, name, q_min, q_max, T, sizes):
        # the node counts of the rows that do not lock; every row has a
        # table or a certified lock (pinning's 9 q on its plateau at r = 1,
        # two_wave's at r = 1/2: 10 on [0.05, 2], 26 on [0.7, 0.83]).
        # Measured: tables at most 2.9e-10 (pinning) and 2.9e-9 (two_wave
        # at T = 600) from the direct orbit. There, where the front nearly
        # stalls, a single-stage table needs 512 or 1024 nodes, which
        # T = 600 affords, and the q whose errors fall too slowly to reach
        # 1e-8 in time split into two stages of 256 nodes
        g = builtin_medium(name)
        curve = velocity_curve(g, q_min, q_max, 40, T=T)
        assert set(curve.nodes[curve.locked == 0].tolist()) == sizes
        assert np.all((curve.stages > 0) | (curve.locked > 0))
        _assert_map_matches(curve, _direct(g, curve.q, T, 50), 1e-8)
        _assert_locks_certified(g, curve, 50)

    @pytest.mark.parametrize("name, c", [("pinning", 1), ("antipinning", -1)])
    def test_closed_forms_at_T_200_and_400_q(self, name, c):
        # measured: 2.29e-3 (pinning, at the plateau edge q = 1/2) and 2.2e-4
        curve = velocity_curve(builtin_medium(name), 0.05, 2.0, 400, T=200.0)
        err = np.abs(curve.r_hat - _traveling_wave_r(c, curve.q))
        assert err.max() <= curve.error_bound == 1.0 / 200.0

    @pytest.mark.parametrize("src, c", [
        ("1 + 0.5*sin(2*pi*(16*x - t))", 1.0 / 16.0), ("1 + 0.5*sin(64*pi*x)", 0.0),
        ("1 + 0.5*sin(2*pi*(17*x - t))", 1.0 / 17.0)])
    def test_fine_media_are_not_aliased(self, src, c):
        # D_q has x-period 1/16 or 1/32, so every node and midpoint of a
        # 16-node table reads one value; mode 17 aliases onto mode 1. At small
        # q, where the front crosses under one period of g per unit time, a
        # constant interpolant's r_hat is off by more than 1/T (4.2e-2 at
        # q = 0.12 for the first); the witnesses reject it
        g = parse_medium(src, 1)
        curve = velocity_curve(g, 0.02, 0.6, 30, T=200.0)
        oracle = np.array([traveling_wave_oracle(g, c, float(q)) for q in curve.q])
        assert np.abs(curve.r_hat - oracle).max() <= 1.0 / 200.0
        assert not np.any(curve.nodes == 16)
        _assert_map_matches(curve, _direct(g, curve.q, 200.0, 50), 1e-8)

    def test_witnesses_are_off_every_lattice(self):
        # the golden-ratio points: spread over [0, 1), none on a grid j/2^k
        w = homog1d._WITNESSES
        assert w.size == 13 and np.all((0.0 < w) & (w < 1.0))
        assert np.diff(np.sort(w)).min() > 0.04
        for N in (16, 1024, 2 ** 20):
            assert np.abs(w * N - np.round(w * N)).min() > 1e-6

    def test_budget_follows_T(self, monkeypatch):
        # a q's tables cost 16, 32, ... nodes plus 13 witnesses, at most 2T
        # periods: none at T = 14, 16 nodes at T = 20, up to 256 at T = 200.
        # q = 0.75 lies on pinning's plateau: the first table's 29 points
        # certify r = 1 wherever that table is affordable, and no more is
        # built. q = 1.05 does not lock. At T = 20 and 50 it tests Phi^2 on
        # the 29 points (one period) before it falls back to the direct
        # orbit or splits. At T = 50 the budget affords 64 nodes, but the
        # errors at 16 and 32 nodes predict that 64 will not reach 1e-8, so
        # the 32-node table splits into two stages of 50 steps instead (32
        # more periods); that does not resolve the map either, and a second
        # split is over budget. At T = 200 the test comes before the table
        # of 128 nodes
        widths = []

        def rk4(fn, q, x0, T, steps, t0=0.0):
            if T <= 1.0:  # one period or one stage of it: a table
                widths.append((np.shape(x0)[-1], steps))
            return _rk4(fn, q, x0, T, steps, t0)

        monkeypatch.setattr(homog1d, "_rk4", rk4)
        g = builtin_medium("pinning")
        for q, T, nodes, locked, tables in (
                (0.75, 14.0, 0, 0, []), (0.75, 20.0, 0, 1, [29]), (0.75, 50.0, 0, 1, [29]),
                (0.75, 200.0, 0, 1, [29]),
                (1.05, 14.0, 0, 0, []), (1.05, 20.0, 0, 0, [29, 29]),
                (1.05, 50.0, 0, 0, [29, 16, 29, (32, 50), (32, 50)]),
                (1.05, 200.0, 256, 0, [29, 16, 32, 29, 64, 128])):
            tables = [w if isinstance(w, tuple) else (w, 100) for w in tables]
            widths.clear()
            est = effective_velocity(g, q, T=T)
            assert (est.nodes, est.locked, widths) == (nodes, locked, tables), (q, T)
            assert isinstance(est.nodes, int) and isinstance(est.locked, int)

    def test_table_calls_are_counted(self):
        # T = 50: 16 nodes and 13 witnesses for the three q in one _rk4
        # period of 50 steps, then the 16 midpoints of the last one; the
        # first evaluation of each sees the bare x; no float kernel
        base = builtin_medium("antipinning")
        calls = []

        def numpy_kernel(*coords):
            calls.append(np.shape(coords[0]))
            return base._fn(*coords)

        g = Medium(dim=1, source=base.source, ast=base.ast, _fn=numpy_kernel)
        vars(g)["_float_fn"] = None  # a float call would raise
        homog1d._admit(g, 1)  # admission samples g once per medium
        calls.clear()
        curve = velocity_curve(g, 0.5, 1.0, 3, T=50.0)
        assert curve.nodes.tolist() == [16, 16, 32]
        assert calls == ([(29,)] + [(3, 29)] * 199 + [(16,)] + [(1, 16)] * 199)

    def test_dt_rounds_to_a_period_fraction(self):
        # a tabled q steps 1/round(1/dt): dt = 0.03 steps 1/33, the same as
        # dt = 1/33
        g = builtin_medium("static_sin")
        a = effective_velocity(g, 0.8, T=50.0, dt=0.03)
        b = effective_velocity(g, 0.8, T=50.0, dt=1.0 / 33.0)
        assert a.nodes == 16 and (a.r_hat, a.nodes) == (b.r_hat, b.nodes)
        curve = velocity_curve(g, 0.5, 1.5, 5, T=50.0, dt=0.03)
        assert np.all(curve.nodes > 0)
        _assert_map_matches(curve, _direct(g, curve.q, 50.0, 33), 1e-8)
        # no table by T = 20: off pinning's plateau r_hat is the direct
        # float-kernel orbit's final position over T, also for an odd step
        # count round(T/dt) = 667; on it the first table's points certify
        # r = 1 at the steps of 1/33
        g = builtin_medium("pinning")
        for q in (0.45, 1.2):
            est = effective_velocity(g, q, T=20.0, dt=0.03)
            assert (est.nodes, est.locked) == (0, 0)
            assert est.r_hat == _rk4(g._float_fn, q, 0.0, 20.0, 667) / 20.0
        for q in (0.75, 0.8):
            est = effective_velocity(g, q, T=20.0, dt=0.03)
            assert (est.nodes, est.locked, est.r_hat) == (0, 1, 1.0)
            assert abs(est.r_hat - _rk4(g._float_fn, q, 0.0, 20.0, 667) / 20.0) < 1.0 / 20.0

    def test_dt_above_one_period_is_refused(self):
        g = builtin_medium("static_sin")
        assert math.isfinite(effective_velocity(g, 1.0, T=20.0, dt=1.0).r_hat)
        for call in (lambda: effective_velocity(g, 1.0, T=20.0, dt=1.5),
                     lambda: velocity_curve(g, 0.5, 1.0, 2, T=20.0, dt=3.0)):
            with pytest.raises(ValidationError, match="dt must be <= 1, the period of g, got"):
                call()

    def test_fractional_periods_are_integrated_directly(self):
        # T = 60.6: 60 map periods, then 0.6 of a period in round(0.6*50) = 30
        # steps from t = 0
        g = builtin_medium("static_sin")
        curve = velocity_curve(g, 0.6, 1.7, 3, T=60.6)
        assert np.all(curve.nodes == 32)
        fn, q = g._fn, curve.q
        x_end = _rk4(fn, q, _rk4(fn, q, np.zeros(3), 60.0, 3000), 0.6, 30)
        assert np.abs(curve.r_hat - x_end / 60.6).max() <= 1e-8

    def test_fast_rows_take_finer_steps(self):
        # the locked wave G = 1.02 + sin(2 pi y), c = 1: the front waits where
        # q G ~ 1, and r = 1 for every q >= 1/2.02. At q = 1, 1.25 and 1.5
        # the first table's points certify that lock at dt = 0.05. At q = 2.5
        # and 2.55 a step of 0.05 would move the front by q M dt > 1/4
        # (M = 2.02), so both take ceil(4 q M) = 21 steps per period, and
        # their maps at that step certify the lock too
        g = parse_medium("1.02 + sin(2*pi*(x - t))", 1)
        assert traveling_wave_oracle(g, 1, 1.2) == 1.0
        curve = velocity_curve(g, 1.0, 1.5, 3, T=100.0, dt=0.05)
        assert curve.locked.tolist() == [1, 1, 1] and curve.r_hat.tolist() == [1.0] * 3
        _assert_locks_certified(g, curve, 20)
        _assert_map_matches(curve, _direct(g, curve.q, 100.0, 20), 1e-8)
        curve = velocity_curve(g, 2.5, 2.55, 2, T=100.0, dt=0.05)
        assert np.all(curve.q * homog1d._admit(g, 1).M * 0.05 > 0.25)
        assert curve.locked.tolist() == [1, 1] and curve.r_hat.tolist() == [1.0, 1.0]
        _assert_locks_certified(g, curve, 21)
        _assert_map_matches(curve, _direct(g, curve.q, 100.0, 21), 1e-8)

    def test_a_lone_direct_row_runs_on_the_float_kernel(self, monkeypatch):
        # two_wave, 91 q at T = 150: q = 0.97 alone gets neither a table nor
        # a lock. Its orbit runs on floats, as effective_velocity's does,
        # where a pass of array calls per step took the curve 0.28 s, not 0.11
        g, kernels = builtin_medium("two_wave"), []

        def rk4(fn, q, x0, T, steps, t0=0.0):
            kernels.append((fn, q))
            return _rk4(fn, q, x0, T, steps, t0)

        monkeypatch.setattr(homog1d, "_rk4", rk4)
        curve = velocity_curve(g, 0.3, 1.2, 91, T=150.0)
        direct = np.flatnonzero((curve.nodes == 0) & (curve.locked == 0))
        assert direct.tolist() == [67] and curve.q[67] == 0.97
        assert [(q, type(q)) for fn, q in kernels if fn is g._float_fn] == [(0.97, float)]
        assert all(fn is g._fn for fn, q in kernels if fn is not g._float_fn)
        monkeypatch.undo()
        assert curve.r_hat[67] == effective_velocity(g, 0.97, T=150.0, dt=0.02).r_hat

    def test_nodes_reported(self):
        g = builtin_medium("pinning")
        est = effective_velocity(g, 0.75, T=200.0)  # on the plateau: locked, no table
        assert (est.nodes, est.stages, est.locked, est.r_hat) == (0, 0, 1, 1.0)
        est = effective_velocity(g, 1.05, T=200.0)
        assert (est.nodes, est.locked) == (256, 0) and isinstance(est.nodes, int)
        curve = velocity_curve(g, 0.5, 2.0, 4, T=50.0)
        assert curve.locked.tolist() == [0, 0, 0, 0]
        assert curve.nodes.tolist() == [
            effective_velocity(g, float(q), T=50.0, dt=0.02).nodes for q in curve.q]
        assert curve.nodes.tolist() == [64, 0, 16, 64]
        assert curve.stages.tolist() == [1, 0, 1, 1] and est.stages == 1
        assert curve.stages.tolist() == [
            effective_velocity(g, float(q), T=50.0, dt=0.02).stages for q in curve.q]

    def test_tabled_rows_match_effective_velocity(self):
        # the bit equality of test_matches_effective_velocity, on tables and
        # locks. At T = 150 the two_wave q on [0.45, 0.8] lock at r = 1/2 and
        # the others on [0.45, 1] have tables of 1 or 4 stages; at T = 100
        # those on [0.8, 1] off the plateau have 8 stages or run the direct
        # orbit
        stages = set()
        for name, q_min, q_max, T in (("pinning", 0.25, 2.0, 60.0),
                                      ("antipinning", 0.25, 2.0, 60.0),
                                      ("two_wave", 0.25, 2.0, 60.0),
                                      ("static_sin", 0.25, 2.0, 60.0),
                                      ("two_wave", 0.45, 1.0, 150.0),
                                      ("two_wave", 0.8, 1.0, 100.0)):
            g = builtin_medium(name)
            curve = velocity_curve(g, q_min, q_max, 12, T=T)
            assert np.any(curve.nodes > 0), name
            for q, r, nodes, stage, locked in zip(curve.q, curve.r_hat, curve.nodes,
                                                  curve.stages, curve.locked):
                est = effective_velocity(g, q=float(q), T=T, dt=0.02)
                assert (r, nodes, stage, locked) == (
                    est.r_hat, est.nodes, est.stages, est.locked), (name, q)
            stages |= set(curve.stages[curve.nodes > 0].tolist())
            if (name, T) == ("two_wave", 150.0):
                assert np.array_equal(curve.locked > 0, curve.q < 0.82)
                assert np.all(curve.r_hat[curve.locked > 0] == 0.5)
        assert stages == {1, 2, 4, 8}

    def test_bad_increment_raises(self):
        x = np.zeros(1)
        for mean, message in ((-0.1, "failed to advance"), (0.0, "failed to advance"),
                              (math.nan, "non-finite"), (math.inf, "non-finite")):
            bad = np.array([[mean], [0.0]], dtype=complex)
            good = np.array([[0.1], [0.0]], dtype=complex)
            for c in (bad[None], np.stack([good, bad])):  # one stage; the second of two
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NumericalError, match=message):
                        homog1d._iterate(c, x, 3)

    @pytest.mark.parametrize("modes", [9, 65, 129])
    @pytest.mark.parametrize("columns", [1, 2, 3, 64])
    def test_value_sums_in_mode_order(self, modes, columns):
        # each column adds its terms c[m] e^(2 pi i m x), m = 1, 2, ..., one at
        # a time, so its bits do not depend on the other columns. NumPy sums
        # a single column pairwise, which changes bits; a NumPy that also
        # reduced several columns pairwise would fail here. 20 draws, as a
        # pairwise sum of 8 terms can match by chance
        rng = np.random.default_rng(1000 * modes + columns)
        for _ in range(20):
            c = rng.standard_normal((modes, columns, 2)).view(complex)[..., 0]
            c /= np.arange(1.0, modes + 1.0)[:, None]
            x = rng.uniform(0.0, 3.0, columns)
            terms = np.cumprod(np.broadcast_to(np.exp(2j * math.pi * (x % 1.0)), c[1:].shape),
                               axis=0) * c[1:]
            total = terms[0].real
            for term in terms[1:]:
                total = total + term.real
            assert np.array_equal(homog1d._value(c, x), c[0].real + total), (
                f"_value's sum over {columns} column(s) is not in mode order on NumPy "
                f"{np.__version__}")

    @pytest.mark.parametrize("q_min, q_max, samples", [(0.45, 2.0, 400), (0.5, 1.5, 50)])
    def test_bench_two_wave_curves_take_no_direct_orbit(self, q_min, q_max, samples):
        # the benchmark's two_wave grids, where 142 and 25 q have no single-
        # stage table within the budget: a certified lock at r = 1/2 serves
        # those on the plateau (98 and 17) and split tables the rest.
        # Measured: tabled r_hat within 5.9e-9 of the direct orbit
        g = builtin_medium("two_wave")
        curve = _bench_curve("two_wave", q_min, q_max, samples)
        locked = curve.locked > 0
        assert np.all((curve.nodes > 0) | locked) and np.all((curve.stages > 0) | locked)
        assert np.any(curve.stages > 1)
        assert np.any(locked) and np.all(curve.r_hat[locked] == 0.5)
        r_hat = _direct(g, curve.q, 200.0, 50)
        assert np.abs(curve.r_hat - r_hat)[~locked].max() <= 1e-8
        _assert_map_matches(curve, r_hat, 1e-8)
        _assert_locks_certified(g, curve, 50)

    @pytest.mark.parametrize("name, q_min, q_max, samples, unsplit, digests", [
        ("two_wave", 0.45, 2.0, 400, 258,
         ("0147e9cf5c311e167a6207cf6d0d986701a9170b83a8ed7db6144475632a3298",
          "3f3c60f7b7bb6c37c1018e84dc4c44795d02352e86de9285f5ca27e3e2bfdd5a")),
        ("two_wave", 0.5, 1.5, 50, 25,
         ("9bcc820ac7e0790c13317173d03c450fb89805c16c25a68a9731ef58848bda68",
          "aa808aadc198aebccb1916fe8bc0a56f6bc5ce90cf7ae1e6a3de943229f550b3")),
        # pinning's 129 q on its plateau now lock; the digests of the other
        # 271 were taken from the tables that preceded the lock test
        ("pinning", 0.45, 2.0, 400, 271,
         ("12b633f13160c1d61b3d54473446b081344c78300c9746844670367a57dec793",
          "e6f3afa128806840939bd933d9e5f24050e141a510754e4fba00f5de1ff4fe50"))])
    def test_unsplit_rows_keep_their_bits(self, name, q_min, q_max, samples, unsplit,
                                          digests):
        # r_hat and nodes of the single-stage rows, frozen from when every
        # table had one stage and the other q ran the direct orbit; a locked
        # row has no table and reports its lock exactly
        curve = _bench_curve(name, q_min, q_max, samples)
        one = curve.stages == 1
        assert one.sum() == unsplit
        assert tuple(_sha256(a[one]) for a in (curve.r_hat, curve.nodes)) == digests
        locked = curve.locked > 0
        assert set(curve.r_hat[locked].tolist()) == {0.5 if name == "two_wave" else 1.0}

    def test_a_block_of_wide_tables_keeps_its_bits(self, monkeypatch):
        # two_wave near its plateau at T = 1500: tables of up to 2048 nodes,
        # whose stage maps once ran in several _rk4 calls per block. r_hat,
        # nodes and stages frozen from then. The 41 q on the plateau now lock
        # at r = 1/2; the other 23 keep tables of 256 and 1024 nodes, and
        # their digests were taken from the tables that preceded the lock
        # test. With a lock test that certifies nothing, every row keeps the
        # frozen bits
        g = builtin_medium("two_wave")
        curve = velocity_curve(g, 0.7, 0.9, 64, T=1500.0)
        free = curve.locked == 0
        assert free.sum() == 23 and set(curve.nodes[free].tolist()) == {256, 1024}
        assert tuple(_sha256(a[free]) for a in (curve.r_hat, curve.nodes, curve.stages)) == (
            "541d1db262319790b367f588285d4a96eb7f0bf53871a42b842deeffc6b43148",
            "7acb71fbdf384e1584c9e1c5ac787f4293307916f82fddf14efe3f0badfdbab1",
            "d2c78ccad0b7ccf15b8b1c26d6992fee009af1a26ea1b2db0a9f6b975be99fad")
        assert np.all(curve.r_hat[~free] == 0.5)
        _assert_locks_certified(g, curve, 50)
        monkeypatch.setattr(homog1d, "_lock_test",
                            lambda images, P: (np.zeros(len(images)),
                                               np.zeros(len(images), dtype=bool)))
        curve = velocity_curve(g, 0.7, 0.9, 64, T=1500.0)
        assert not np.any(curve.locked)
        assert tuple(_sha256(a) for a in (curve.r_hat, curve.nodes, curve.stages)) == (
            "86a063df3c410710f06c97fbdc30f30e617a81c1bb4990b41a37ebae8eb7f70a",
            "aea6f2af8ed02a8584870f9ecb7b81309bacf451af36ad1cf75179721a0efbfc",
            "f4fd9576f72f943053f64813b498dc02551dde701da01b65831019ea968979da")

    @pytest.mark.parametrize("name, element_steps, map_terms", [
        ("pinning", 1677700, 2700088), ("two_wave", 3869850, 7454304)])
    def test_block_size_is_invisible(self, monkeypatch, name, element_steps, map_terms):
        # rows are independent, so the q rows per table block change no bit
        # and no work: the RK4 element-steps of test_rk4_work_is_counted, and
        # the map's terms, sum (modes - 1) * columns over the _value calls,
        # as counted at 64-row blocks
        curve = _bench_curve(name, 0.45, 2.0, 400)
        rk4, value = homog1d._rk4, homog1d._value
        work = {}

        def counted_rk4(fn, q, x0, T, steps, t0=0.0):
            work["rk4"] += np.broadcast(q, x0).size * steps
            return rk4(fn, q, x0, T, steps, t0)

        def counted_value(c, x):
            work["map"] += (c.shape[0] - 1) * c.shape[1]
            return value(c, x)

        monkeypatch.setattr(homog1d, "_rk4", counted_rk4)
        monkeypatch.setattr(homog1d, "_value", counted_value)
        for block in (64, 400):
            monkeypatch.setattr(homog1d, "_BLOCK", block)
            work.update(rk4=0, map=0)
            other = velocity_curve(builtin_medium(name), 0.45, 2.0, 400, T=200.0)
            for attr in ("q", "r_hat", "nodes", "stages", "locked"):
                assert np.array_equal(getattr(other, attr), getattr(curve, attr))
            assert work == {"rk4": element_steps, "map": map_terms}

    def test_stages_compose_in_order(self):
        # two_wave at q = 0.85 splits into stages; composed in order they meet
        # the witness check against the whole period, in reverse they miss
        # it. At q = 0.6, on the plateau, Phi^2 certifies r = 1/2 instead
        g, n = builtin_medium("two_wave"), 50
        nodes, stages, lock, parts = homog1d._tables(g._fn, np.array([0.6, 0.85]), n, 200.0)
        assert lock.tolist() == [[1, 2], [0, 0]] and (nodes[0], stages[0]) == (0, 0)
        assert stages[1] > 1
        ((rows, c),) = parts
        assert rows.tolist() == [1]
        w = homog1d._WITNESSES
        exact = _rk4(g._fn, np.full((1, 1), 0.85), w, 1.0, n)[0]
        cols = np.zeros((c.shape[0], c.shape[1], w.size), dtype=complex) + c
        assert np.abs(homog1d._iterate(cols, w, 1) - exact).max() <= 1e-8
        assert np.abs(homog1d._iterate(cols[::-1], w, 1) - exact).max() > 1e-3

    def test_split_map_between_the_witnesses(self):
        # the witnesses bound a table's error at 13 points only; two_wave at
        # q = 0.83847 (the benchmark's 400-q grid on [0.45, 2], T = 200)
        # splits into 2 stages of 256 nodes. Measured: 1.9e-9 from the
        # full-period RK4 map at the witnesses, 2.98e-8 on 1000 points
        g, n = builtin_medium("two_wave"), 50
        q = np.linspace(0.45, 2.0, 400)[100:101]
        nodes, stages, lock, ((rows, c),) = homog1d._tables(g._fn, q, n, 200.0)
        assert (nodes[0], stages[0], lock[0, 1]) == (256, 2, 0)
        x = np.arange(1000) / 1000.0
        exact = _rk4(g._fn, q[:, None], x, 1.0, n)[0]
        cols = np.zeros(c.shape[:2] + x.shape, dtype=complex) + c
        assert np.abs(homog1d._iterate(cols, x, 1) - exact).max() <= 1e-7

    @settings(max_examples=60, deadline=None)
    @given(src=_expr_strings())
    def test_random_media_match_the_direct_orbit(self, src):
        # T = 30 affords tables of 16 and 32 nodes; measured over 300
        # examples: at most 9.7e-10, and 133 of 600 rows took the direct orbit
        g = _periodic(src)
        curve = velocity_curve(g, 0.5, 1.3, 2, T=30.0, dt=0.05)
        _assert_map_matches(curve, _direct(g, curve.q, 30.0, 20), 1e-8)
        _assert_locks_certified(g, curve, 20)


class TestModeLocking:
    """A q whose RK4 time-1 map certifies a rotation number p/k (Poincare:
    Phi^k - id - p takes both signs) reports p/k exactly and gets no table."""

    @pytest.mark.parametrize("T", [20.0, 200.0, 1000.0])
    @pytest.mark.parametrize("q_min, q_max, samples, locked", [(0.45, 2.0, 400, 129),
                                                                (0.5, 1.5, 50, 24)])
    def test_pinning_locks_equal_the_oracle(self, T, q_min, q_max, samples, locked):
        # every grid q strictly inside pinning's plateau [1/2, 1] locks at
        # r = 1, where the finite-T average was up to 2.4e-3 off at T = 200
        g = builtin_medium("pinning")
        curve = (_bench_curve("pinning", q_min, q_max, samples) if T == 200.0
                 else velocity_curve(g, q_min, q_max, samples, T=T))
        rows = curve.locked > 0
        assert rows.sum() == locked and set(curve.locked[rows].tolist()) == {1}
        assert np.array_equal(rows, (curve.q > 0.5) & (curve.q < 1.0))
        oracle = [traveling_wave_oracle(g, 1, float(q)) for q in curve.q[rows]]
        assert np.array_equal(curve.r_hat[rows], oracle)

    @pytest.mark.parametrize("name", ["antipinning", "static_sin"])
    def test_no_plateau_no_lock(self, name):
        # antipinning's r(q) increases strictly, and static_sin's time-1 map
        # is conjugate to a rotation, so Phi - id - p never takes both signs
        for grid in ((0.45, 2.0, 400), (0.5, 1.5, 50)):
            assert not np.any(_bench_curve(name, *grid).locked)

    def test_a_fast_row_locks_at_its_own_steps(self):
        # the locked wave 1.02 + sin(2 pi (x - t)) has r = 1 for every
        # q >= 1/2.02, and M = 2.02. At dt = 0.05 an RK4 step would move the
        # front by q M dt: 0.247 of a period at q = 2.45, which takes dt, and
        # 0.2525 > 1/4 at q = 2.5, which takes 21 steps per period instead;
        # both lock at r = 1 exactly
        g = parse_medium("1.02 + sin(2*pi*(x - t))", 1)
        assert homog1d._admit(g, 1).M == pytest.approx(2.02, abs=1e-12)
        for q in (2.45, 2.5):
            est = effective_velocity(g, q, T=100.0, dt=0.05)
            assert (est.locked, est.nodes, est.r_hat) == (1, 0, 1.0)
        # pinning on its plateau at dt = 1/2 (q M dt = 0.75) takes 6 steps
        # per period, and locks at r = 1 too
        est = effective_velocity(builtin_medium("pinning"), 0.75, T=100.0, dt=0.5)
        assert (est.locked, est.r_hat) == (1, 1.0)

    def test_a_map_that_breaks_the_sampled_order_never_locks(self):
        # three maps of the first table's 29 points that straddle x + 1: a
        # monotone lift locks; with two neighbouring images swapped, or
        # increasing but with the last image past the first plus one (no
        # circle map's lift), it does not
        P = np.concatenate([np.arange(16) / 16.0, homog1d._WITNESSES])
        lift = P + 1.0 + 0.1 * np.sin(2.0 * np.pi * P)
        swapped, order = lift.copy(), np.argsort(P)
        swapped[order[[3, 4]]] = lift[order[[4, 3]]]
        wrapped = P + 1.0 + 0.2 * (P - 0.5)
        for images, ok in ((lift, True), (swapped, False), (wrapped, False)):
            p, certified = homog1d._lock_test(images[None], P)
            assert (p.tolist(), certified.tolist()) == ([1.0], [ok])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(src=_expr_strings())
    def test_random_waves_lock_only_where_certified(self, src):
        # random media G(sin 2 pi (x - t), cos 2 pi t) in [0.6, 1.4], which
        # can lock onto the wave; over these 40 fixed examples 10 of 240 rows
        # lock and 12 run the direct orbit
        src = re.sub(r"\bx\b", "sin(2*pi*(x - t))", re.sub(r"\bt\b", "cos(2*pi*t)", src))
        g = parse_medium(f"1 + 0.4*sin({src})", 1)
        curve = velocity_curve(g, 0.5, 1.5, 6, T=30.0, dt=0.05)
        _assert_map_matches(curve, _direct(g, curve.q, 30.0, 20), 1e-8)
        _assert_locks_certified(g, curve, 20)

    def test_rk4_work_is_counted(self, monkeypatch):
        # fronts times RK4 steps, over every _rk4 call, of the benchmark-shaped
        # curves (T = 200, dt = 0.02), recorded when the lock test came in.
        # Before it they were 2776000 and 436500 (pinning), 4514400 and
        # 634100 (two_wave)
        work = []

        def rk4(fn, q, x0, T, steps, t0=0.0):
            work.append(np.broadcast(q, x0).size * steps)
            return _rk4(fn, q, x0, T, steps, t0)

        monkeypatch.setattr(homog1d, "_rk4", rk4)
        counts = {}
        for name in ("pinning", "two_wave"):
            for grid in ((0.45, 2.0, 400), (0.5, 1.5, 50)):
                work.clear()
                velocity_curve(builtin_medium(name), *grid, T=200.0)
                counts[name, grid[2]] = sum(work)
        assert counts == {("pinning", 400): 1677700, ("pinning", 50): 232800,
                          ("two_wave", 400): 3869850, ("two_wave", 50): 503400}


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
        # the direct orbit's path, one _rk4 step of 0.01 at a time
        fn, q, h = builtin_medium("pinning")._float_fn, kind(0.75), kind(20.0) / 2000
        positions = [kind(0.0)]
        for k in range(2000):
            positions.append(_rk4(fn, q, positions[-1], h, 1, t0=k * h))
        assert _sha256(positions) == (
            "fdd0a84dc48f5a1cb01d776af29fe0094fe4ec752063b0632ad2b75cd73d75de")

    def test_obstacle_front_phi(self, kind):
        front, flat = obstacle_front(builtin_medium("pinning"), kind(0.75), kind(1.0),
                                     kind(0.005), Side.SUB, T=kind(1.0))
        assert flat.phi.size == 4001
        assert _sha256(flat.phi) == (
            "edcf284836dbdfdc03100bb7f10925add906210420480e20a7545a9f7b20fc5b")
        assert _sha256(front.trace.positions) == (
            "c7591a53a361cd97cdb0852963bc5e12b5e9da6b42035abdf47b9e54b9c6cc15")

    @pytest.mark.parametrize("name, q, r_hat, r_mix", [
        ("pinning", 0.75, 0.9902043361992353, 0.999999999993245),
        ("pinning", 1.5, 1.9999999877114327, 1.999999987711435),
        ("two_wave", 1.0, 0.8425109666130121, 0.8387682736699223),
        ("static_sin", 1.0, 1.411471871119587, 1.4125528390801376),
        ("pinning", 0.45, 0.7704989704394155, 0.7839408165157686),
    ])
    def test_effective_velocity(self, kind, name, q, r_hat, r_mix):
        # the direct float-kernel orbit: 2000 steps of 0.01; r_mix =
        # 2 r(20) - r(10) freezes its position at T/2 too
        fn = builtin_medium(name)._float_fn
        x_20 = _rk4(fn, kind(q), kind(0.0), kind(20.0), 2000)
        x_10 = _rk4(fn, kind(q), kind(0.0), kind(10.0), 1000)
        direct = (x_20 - 0.0) / 20.0
        assert (direct, 2.0 * direct - (x_10 - 0.0) / 10.0) == (r_hat, r_mix)
        # effective_velocity runs that orbit where no table resolves the map
        # and no lock is certified (all but pinning at q = 0.75 and 1.5), and
        # otherwise moves r_hat by the table's interpolation error alone. At
        # q = 0.75, on pinning's plateau, it reports the certified r = 1,
        # within Poincare's bound 1/T of the orbit
        est = effective_velocity(builtin_medium(name), kind(q), T=kind(20.0))
        if (name, q) == ("pinning", 0.75):
            assert (est.nodes, est.locked, est.r_hat) == (0, 1, 1.0)
            assert abs(est.r_hat - r_hat) < 1.0 / 20.0
            return
        assert (est.nodes, est.locked) == (16 if (name, q) == ("pinning", 1.5) else 0, 0)
        if est.nodes == 0:
            assert est.r_hat == r_hat
        assert abs(est.r_hat - r_hat) <= 1e-8


class TestFrozenCurveBits:
    """r_hat, nodes, stages and locked of the benchmark's eight velocity
    curves (four builtins, 400 and 50 q, T = 200) at the q-grids its seeds
    1-3 draw, one sha256 per seed: where every RK4 step moves the front by
    at most a quarter period, a change to the step rule keeps these bits."""

    @pytest.mark.parametrize("grid400, grid50, digest", [
        ((0.451182, 2.090093), (0.464416, 1.544865),
         "15181157c46c0663b296d8299f7d599cfea3200cf3580b507c1ad0ee889ffa9c"),
        ((0.426161, 1.959698), (0.531423, 1.459192),
         "914e95917a15187bdbf6239415b9390d06e1678e7c97a565587952bfc04d2b74"),
        ((0.408565, 1.947362), (0.530127, 1.508216),
         "5950dd31cfb5498e591ce53e2cbcd58dcb23df990a3a55f5a177cb88a8ddb18d")],
        ids=["seed1", "seed2", "seed3"])
    def test_bench_curves_keep_their_bits(self, grid400, grid50, digest):
        h = hashlib.sha256()
        for (q_min, q_max), samples in ((grid400, 400), (grid50, 50)):
            for name in ("pinning", "antipinning", "two_wave", "static_sin"):
                curve = velocity_curve(builtin_medium(name), q_min, q_max, samples, T=200.0)
                for a in (curve.r_hat, curve.nodes, curve.stages, curve.locked):
                    h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        assert h.hexdigest() == digest
