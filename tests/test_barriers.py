"""Tests for radial barriers, quantitative bounds, and the superbarrier check.

Oracles: finite differences against every closed-form derivative;
scipy.optimize.brentq as an independent root-finder for the contracting
radius; hand-evaluated formulas for the quantitative bounds.
"""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from hele_homog import (
    NumericalError,
    PerturbedContractingField,
    PlanarWave,
    ValidationError,
    barriers,
    check_contracting_radius,
    check_expanding_fbc,
    check_superbarrier,
    contracting_radius,
    expanding_barrier,
    expansion_radius,
    nondegeneracy_bound,
    parse_medium,
    thin_cylinder_phi,
)

RHO_FROZEN = 0.5024743570834289  # contracting_radius(2, 1, 1, 0.5*t, -0.3)


def _contracting_lhs_reference(n, mu, rho):
    if n >= 3:
        return (0.5 * rho ** 2 - mu ** (2 - n) * rho ** n / n) / (2 - n)
    return 0.5 * rho ** 2 * (math.log(rho / mu) - 0.5)


# Per-dimension closed forms the one-profile barrier code replaced.

def _expanding_reference(n, K, A, s):
    """(profile at the points s, alpha, front gradient times rho)."""
    s = np.asarray(s, dtype=float)
    if n >= 3:
        raw = K * np.maximum(s ** (2 - n) - 1.0, 0.0) / (A ** (2 - n) - 1.0)
        return (np.minimum(raw, K), 2.0 * (n - 2) / (A ** (2 - n) - 1.0),
                K * (n - 2) / (A ** (2 - n) - 1.0))
    raw = K * np.maximum(-np.log(s), 0.0) / (-math.log(A))
    return np.minimum(raw, K), 2.0 / (-math.log(A)), K / (-math.log(A))


def _contracting_radius_reference(n, M, mu, Kfun, t):
    """The 200-step bisection contracting_radius used before Brent's method."""
    target = M * Kfun(t)
    lo, hi = 1e-14 * mu, mu * (1.0 - 1e-14)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _contracting_lhs_reference(n, mu, mid) - target > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return 0.5 * (lo + hi)


def _field_reference(n, M, mu, chi0, kappa, s, t):
    """(value, dt, radial gradient, rho') of PerturbedContractingField at
    |x| = s > rho; dt and the gradient as pairs of the terms they sum."""
    rho = _contracting_radius_reference(n, M, mu, lambda u: chi0 * u, t)
    if n >= 3:
        N = rho ** (2 - n) - s ** (2 - n)
        D = rho ** (2 - n) - mu ** (2 - n)
        dNDs = (n - 2) * s ** (1 - n) / D
        dNDrho = (2 - n) * rho ** (1 - n) * (s ** (2 - n) - mu ** (2 - n)) / D ** 2
        slope = (rho - mu ** (2 - n) * rho ** (n - 1)) / (2 - n)
    else:
        N = math.log(s / rho)
        D = math.log(mu / rho)
        dNDs = 1.0 / (s * D)
        dNDrho = math.log(s / mu) / (rho * D ** 2)
        slope = rho * math.log(rho / mu)
    rp = M * chi0 / slope
    return (chi0 * N / D - kappa * (s ** 2 - rho ** 2),
            (chi0 * dNDrho * rp, kappa * 2.0 * rho * rp),
            (chi0 * dNDs, -2.0 * kappa * s), rp)


# ---------------------------------------------------------------------------
# Expanding barrier
# ---------------------------------------------------------------------------

class TestExpandingBarrier:
    @pytest.mark.parametrize("n,A", [(2, 0.5), (3, 0.5), (4, 0.25), (5, 0.7)])
    def test_fbc_residual_zero(self, n, A):
        b = expanding_barrier(n, m=0.7, K=2.0, A=A)
        for t in (0.1, 1.0, 7.3):
            assert check_expanding_fbc(b, t) <= 1e-12

    def test_fbc_by_finite_differences(self):
        # independent check: differentiate rho and the profile numerically
        b = expanding_barrier(3, m=1.0, K=1.0, A=0.5)
        t = 1.0
        h = 1e-6
        rho_dot = (b.rho(t + h) - b.rho(t - h)) / (2 * h)
        rho = b.rho(t)
        grad = (b.value(rho - h, t) - b.value(rho, t)) / h
        assert rho_dot == pytest.approx(b.rho_prime(t), rel=1e-8)
        assert grad == pytest.approx(b.front_gradient(t), rel=1e-5)
        assert rho_dot == pytest.approx(b.m * grad, rel=1e-5)

    def test_self_similarity(self):
        b = expanding_barrier(2, m=0.5, K=3.0, A=0.3)
        ts = np.linspace(0.2, 5.0, 9)
        ratios = b.rho(ts) ** 2 / ts
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-12 * ratios[0]

    def test_boundary_values_exact(self):
        for n in (2, 3, 4):
            b = expanding_barrier(n, m=1.0, K=2.5, A=0.4)
            t = 0.7
            rho = b.rho(t)
            assert b.value(b.A * rho, t) == b.K
            assert b.value(0.1 * b.A * rho, t) == b.K  # clamped inside
            assert b.value(rho, t) == 0.0
            assert b.value(2.0 * rho, t) == 0.0

    def test_profile_monotone(self):
        b = expanding_barrier(3, m=1.0, K=1.0, A=0.5)
        s = np.linspace(0.1, 1.5, 200)
        vals = b.profile(s)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals >= 0.0) and np.all(vals <= b.K)

    def test_interior_harmonic(self):
        # the profile is harmonic in the annulus A*rho < |x| < rho:
        # psi'' + (n-1)/s * psi' = 0 for the unclamped branch
        for n in (2, 3, 5):
            b = expanding_barrier(n, m=1.0, K=1.0, A=0.3)
            h = 1e-5
            for s in np.linspace(0.35, 0.95, 7):
                d1 = (b.profile(s + h) - b.profile(s - h)) / (2 * h)
                d2 = (b.profile(s + h) - 2 * b.profile(s) + b.profile(s - h)) / h ** 2
                assert d2 + (n - 1) / s * d1 == pytest.approx(0.0, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            expanding_barrier(1, 1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            expanding_barrier(2, -1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            expanding_barrier(2, 1.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            expanding_barrier(2, 1.0, 1.0, 0.0)
        b = expanding_barrier(2, 1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            b.rho(-1.0)
        with pytest.raises(ValidationError):
            b.value(0.5, 0.0)

    @pytest.mark.parametrize("n, call, message", [
        (3, lambda b: b.profile(-0.5), "s must be finite and >= 0, got -0.5"),
        (3, lambda b: b.profile(np.array([0.5, -0.1])), "s must be finite and >= 0, got -0.1"),
        (3, lambda b: b.value(-0.3, 1.0), "x_norm must be finite and >= 0, got -0.3"),
        (2, lambda b: b.value(-1.0, 1.0), "x_norm must be finite and >= 0, got -1.0"),
        (3, lambda b: b.value(math.inf, 1.0), "x_norm must be finite and >= 0, got inf"),
        (3, lambda b: b.rho(math.inf), "t must be finite and >= 0, got inf"),
        (2, lambda b: b.rho(math.nan), "t must be finite and >= 0, got nan"),
        (3, lambda b: b.rho(np.array([1.0, math.inf])), "t must be finite and >= 0, got inf"),
    ], ids=["profile_negative", "profile_array", "value_negative", "value_negative_n2",
            "value_inf", "rho_inf", "rho_nan", "rho_array"])
    def test_impossible_inputs_refused(self, n, call, message):
        # a negative or non-finite radius or time has no barrier value: it
        # is refused, not read as 0.0, inf or nan
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call(expanding_barrier(n, 1.0, 1.0, 0.5))

    @pytest.mark.parametrize("call", [
        lambda b: b.rho(1e308), lambda b: b.rho(np.array([1.0, 1e308, 2.0])),
        lambda b: b.value(1.0, 1e308), lambda b: b.rho_prime(1e308),
        lambda b: b.front_gradient(1e308), lambda b: check_expanding_fbc(b, 1e308),
    ], ids=["rho", "rho_array", "value", "rho_prime", "front_gradient", "fbc"])
    def test_overflowing_time_refused(self, call):
        # alpha*K*m*t past the float range read rho = inf after a NumPy
        # overflow warning; it is refused, naming t, with no warning
        b = expanding_barrier(3, 1.0, 5.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError,
                               match=r"^alpha\*K\*m\*t overflows at t=1e\+308$"):
                call(b)

    def test_finite_rho_keeps_its_bits(self):
        # a finite rho is the square root of the same product, alpha*K*m*t
        # in that order, up to the largest t whose product is finite
        b = expanding_barrier(3, 1.0, 5.0, 0.5)
        ts = np.array([0.0, 5e-324, 1e-300, 0.37, 1.0, 1e300, 1e307])
        want = np.sqrt(b.alpha * b.K * b.m * ts)
        assert np.isfinite(want).all()
        assert b.rho(ts).tobytes() == want.tobytes()
        assert [b.rho(float(t)) for t in ts] == want.tolist()

    def test_randomized_residuals(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            A = float(rng.uniform(0.05, 0.95))
            K = float(rng.uniform(0.1, 5.0))
            m = float(rng.uniform(0.1, 3.0))
            t = float(rng.uniform(0.01, 10.0))
            b = expanding_barrier(n, m=m, K=K, A=A)
            assert check_expanding_fbc(b, t) <= 1e-8


class TestOneRadialProfile:
    """Every barrier formula, written through w_n, against its closed form."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_expanding_matches_closed_forms(self, n):
        for A in (0.05, 0.3, 0.5, 0.9):
            b = expanding_barrier(n, m=0.7, K=2.0, A=A)
            s = np.linspace(0.5 * A, 1.2, 41)
            ref_profile, ref_alpha, ref_slope = _expanding_reference(n, 2.0, A, s)
            assert np.all(np.abs(b.profile(s) - ref_profile) <= 1e-14 * ref_profile)
            assert b.alpha == pytest.approx(ref_alpha, rel=1e-14, abs=0.0)
            for t in (0.1, 1.0, 7.3):
                assert b.front_gradient(t) == pytest.approx(
                    ref_slope / b.rho(t), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_contracting_radius_matches_bisection(self, n):
        M, mu = 1.3, 0.8
        window = mu ** 2 / (2 * n)
        for frac in (1e-6, 0.05, 0.3, 0.5, 0.95, 1 - 1e-6):
            target = -frac * window / M
            rho = contracting_radius(n, M, mu, lambda t: target, -1.0)
            ref = _contracting_radius_reference(n, M, mu, lambda t: target, -1.0)
            assert rho == pytest.approx(ref, rel=0.0, abs=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_perturbed_field_matches_closed_forms(self, n):
        M, mu, chi0, kappa = 1.4, 1.0, 0.9, 0.02
        t0 = -(mu ** 2) / (2 * n * M * chi0)
        for t in (0.9 * t0, 0.5 * t0, 0.1 * t0):
            rho = contracting_radius(n, M, mu, lambda u: chi0 * u, t)
            f = PerturbedContractingField(n, M, mu, chi0, kappa)
            for s in np.linspace(rho * 1.01, mu, 7):
                value, dt, radial, rp = _field_reference(n, M, mu, chi0, kappa, s, t)
                x = s * np.eye(n)[0]
                assert f.value(x, t) == pytest.approx(value, rel=0.0, abs=1e-10)
                # relative to the summed terms: the sums cancel where the
                # profile and the kappa perturbation balance
                for got, terms in ((f.dt(x, t), dt), (f.grad(x, t)[0], radial)):
                    assert abs(got - sum(terms)) <= 1e-10 * sum(map(abs, terms))
            assert f.rho_prime(t) == pytest.approx(rp, rel=1e-10, abs=0.0)

    def test_one_radius_solve_per_field_call(self, monkeypatch):
        calls = []
        solve = barriers.contracting_radius

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(barriers, "contracting_radius", counting)
        f = PerturbedContractingField(3, M=1.5, mu=1.0, chi0=0.8, kappa=0.02)
        t = -0.05
        rho = solve(3, 1.5, 1.0, lambda s: 0.8 * s, t)
        # the first call at t solves the radius, every later call reuses it
        for x in (np.array([0.6, 0.3, 0.1]), np.array([rho, 0.0, 0.0]),
                  np.array([0.05, 0.0, 0.0])):
            for method in (f.value, f.dt, f.grad, f.laplacian):
                before = len(calls)
                method(x, t)
                assert len(calls) - before <= 1, method.__name__
        f.rho_prime(t)
        assert len(calls) == 1
        f.rho_prime(2 * t)
        f.value(np.array([0.6, 0.3, 0.1]), 2 * t)
        assert [args[-1] for args in calls] == [t, 2 * t]
        # only the last radius is kept, and t may be any real scalar
        assert f.rho(np.array(2 * t)) == f.rho(2 * t)
        assert f.rho(np.array(t)) == rho
        assert [args[-1] for args in calls] == [t, 2 * t, t]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_field_is_zero_at_the_origin(self, n):
        # computing the profile before the inside test overflowed at |x| = 0
        f = PerturbedContractingField(n, M=1.5, mu=1.0, chi0=0.8, kappa=0.02)
        x = np.zeros(n)
        assert f.value(x, -0.05) == 0.0
        assert f.dt(x, -0.05) == 0.0
        assert np.all(f.grad(x, -0.05) == 0.0)


# ---------------------------------------------------------------------------
# Contracting barrier
# ---------------------------------------------------------------------------

class TestContractingRadius:
    def test_frozen_value(self):
        rho = contracting_radius(2, 1.0, 1.0, lambda t: 0.5 * t, -0.3)
        assert rho == pytest.approx(RHO_FROZEN, abs=1e-11)

    def test_equation_residual(self):
        rho = contracting_radius(2, 1.0, 1.0, lambda t: 0.5 * t, -0.3)
        assert abs(_contracting_lhs_reference(2, 1.0, rho) - (-0.15)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_brentq(self, n):
        M, mu = 1.3, 0.8
        window = mu ** 2 / (2 * n)
        for frac in (0.05, 0.5, 0.95):
            target = -frac * window / M  # K(t) value making M*K = -frac*window
            rho = contracting_radius(n, M, mu, lambda t: target, -1.0)
            ref = scipy.optimize.brentq(
                lambda r: _contracting_lhs_reference(n, mu, r) - M * target,
                1e-12 * mu, mu * (1 - 1e-12), xtol=1e-14,
            )
            assert rho == pytest.approx(ref, abs=1e-10)

    def test_spec_example_chi_one(self):
        # chi == 1, K(t) = t, n=2, M=1, mu=1, t=-0.1:
        # rho solves (rho^2/2)(ln rho - 1/2) = -0.1
        rho = contracting_radius(2, 1.0, 1.0, lambda t: t, -0.1)
        assert 0 < rho < 1
        assert (rho ** 2 / 2) * (math.log(rho) - 0.5) == pytest.approx(-0.1, abs=1e-10)

    def test_limits(self):
        # t -> 0^-: rho -> 0; M*K -> (-mu^2/2n)^+: rho -> mu^-
        rho_small = contracting_radius(2, 1.0, 1.0, lambda t: t, -1e-8)
        assert rho_small < 1e-3
        rho_big = contracting_radius(2, 1.0, 1.0, lambda t: t, -0.25 * (1 - 1e-9))
        assert rho_big > 0.999

    def test_strictly_decreasing_in_time(self):
        ts = np.linspace(-0.24, -0.001, 100)
        rhos = [contracting_radius(2, 1.0, 1.0, lambda t: t, float(t)) for t in ts]
        assert all(b < a for a, b in zip(rhos, rhos[1:]))

    def test_lhs_strictly_decreasing(self):
        for n in (2, 3, 5):
            mu = 1.2
            rhos = np.linspace(1e-6, mu * (1 - 1e-9), 100)
            vals = [_contracting_lhs_reference(n, mu, r) for r in rhos]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_window_validation(self):
        with pytest.raises(ValidationError, match="admissible window"):
            contracting_radius(2, 1.0, 1.0, lambda t: t, -0.3)  # below -0.25
        with pytest.raises(ValidationError, match="admissible window"):
            contracting_radius(2, 1.0, 1.0, lambda t: t, 0.1)  # positive K

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            contracting_radius(1, 1.0, 1.0, lambda t: t, -0.1)
        with pytest.raises(ValidationError):
            contracting_radius(2, 0.0, 1.0, lambda t: t, -0.1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_public_residual(self, n):
        M, mu, t = 1.3, 0.8, -0.4
        Kfun = lambda s: mu ** 2 / (4 * n * M) * s  # noqa: E731
        rho = contracting_radius(n, M, mu, Kfun, t)
        res = check_contracting_radius(n, M, mu, Kfun, t, rho)
        assert res == pytest.approx(
            abs(_contracting_lhs_reference(n, mu, rho) - M * Kfun(t)), abs=1e-15)
        assert res <= 1e-12
        off = check_contracting_radius(n, M, mu, Kfun, t, 0.9 * rho)
        assert off == pytest.approx(
            abs(_contracting_lhs_reference(n, mu, 0.9 * rho) - M * Kfun(t)), rel=1e-12)

    def test_public_residual_validation(self):
        with pytest.raises(ValidationError):
            check_contracting_radius(1, 1.0, 1.0, lambda t: t, -0.1, 0.5)
        for rho in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                check_contracting_radius(2, 1.0, 1.0, lambda t: t, -0.1, rho)

    def test_root_finder_failure_is_numerical_error(self, monkeypatch):
        def stalled(f, a, b, **kwargs):
            return 0.5 * (a + b), SimpleNamespace(converged=False)

        monkeypatch.setattr(scipy.optimize, "brentq", stalled)
        with pytest.raises(NumericalError, match="did not converge"):
            contracting_radius(2, 1.0, 1.0, lambda t: t, -0.1)


class TestQuantitativeBounds:
    def test_nondegeneracy_hand_value(self):
        assert nondegeneracy_bound(2, 1.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_nondegeneracy_homogeneity(self):
        base = nondegeneracy_bound(2, 1.0, 1.0, 1.0)
        assert nondegeneracy_bound(2, 1.0, 2.0, 1.0) == pytest.approx(4 * base)
        assert nondegeneracy_bound(2, 1.0, 1.0, 1e6) == pytest.approx(base / 1e6)

    def test_expansion_hand_values(self):
        assert expansion_radius(2, 1.0, 1.0, 1.0) == pytest.approx(2.0)
        assert expansion_radius(3, 2.0, 1.0, 1.0) == pytest.approx(math.sqrt(12.0))
        assert expansion_radius(2, 1.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, bad):
        # check_expanding_fbc(b, inf) once returned a residual of nan
        b = expanding_barrier(n=2, m=1.0, K=1.0, A=0.5)
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        g = parse_medium("1", dim=2)
        calls = [
            (lambda v: check_expanding_fbc(b, v), "t > 0"),
            (lambda v: b.value(0.1, v), "t > 0"),
            (lambda v: expanding_barrier(n=2, m=1.0, K=v, A=0.5), "K > 0"),
            (lambda v: contracting_radius(2, v, 1.0, lambda t: t, -0.1), "M > 0"),
            (lambda v: nondegeneracy_bound(2, 1.0, 1.0, v), "dt > 0"),
            (lambda v: expansion_radius(2, 1.0, 1.0, v), "dt >= 0"),
            (lambda v: PerturbedContractingField(2, 1.2, 1.0, 1.0, v), "kappa >= 0"),
            (lambda v: check_superbarrier(f, g, _annulus_samples(f, -0.1), c=v),
             "c > 0"),
            (lambda v: check_superbarrier(f, g, _annulus_samples(f, -0.1), c=1e-6,
                                          eps=v), "eps > 0"),
        ]
        for call, rule in calls:
            name, relation = rule.split(" ", 1)
            with pytest.raises(ValidationError,
                               match=f"^{name} must be {relation} and finite"):
                call(bad)


# ---------------------------------------------------------------------------
# Thin cylinder comparison function
# ---------------------------------------------------------------------------

class TestThinCylinder:
    def test_origin_values(self):
        v, lap = thin_cylinder_phi(0.0, 0.0, 2)
        assert v == pytest.approx(-0.5, abs=1e-15)
        assert lap == pytest.approx(-0.5, abs=1e-15)
        v3, lap3 = thin_cylinder_phi(0.0, 0.0, 3)
        assert v3 == pytest.approx(-0.5, abs=1e-15)
        assert lap3 == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_laplacian_vanishes_at_edge(self):
        _, lap = thin_cylinder_phi(1.3, math.pi / 2, 2)
        assert lap == pytest.approx(0.0, abs=1e-15)

    def test_negativity_on_thousand_points(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(0.0, 3.0, size=1000)
        xn = rng.uniform(-(math.pi / 2 - 1e-3), math.pi / 2 - 1e-3, size=1000)
        for n in (2, 3, 6):
            _, lap = thin_cylinder_phi(r, xn, n)
            assert np.all(lap < 0.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_laplacian_by_finite_differences(self, n):
        # coordinates (x', x_n) with x' in R^{n-1}, so the radial part of the
        # Laplacian in r = |x'| carries the factor (n-2)/r
        h = 1e-5
        for r0, z0 in [(0.5, 0.2), (1.5, -0.9), (2.2, 1.1)]:
            def f(r, z):
                return thin_cylinder_phi(r, z, n)[0]
            d_rr = (f(r0 + h, z0) - 2 * f(r0, z0) + f(r0 - h, z0)) / h ** 2
            d_r = (f(r0 + h, z0) - f(r0 - h, z0)) / (2 * h)
            d_zz = (f(r0, z0 + h) - 2 * f(r0, z0) + f(r0, z0 - h)) / h ** 2
            fd = d_rr + (n - 2) / r0 * d_r + d_zz
            assert thin_cylinder_phi(r0, z0, n)[1] == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("xp_norm, xn, rule", [
        (-1.0, 0.0, "xp_norm must be finite and >= 0"),
        ([0.5, -1e-300], 0.0, "xp_norm must be finite and >= 0"),
        (math.inf, 0.0, "xp_norm must be finite and >= 0"),
        ([0.5, math.nan], [0.0, 0.1], "xp_norm must be finite and >= 0"),
        (0.5, math.nan, "xn must be finite"),
        ([0.5, 1.0], [0.0, -math.inf], "xn must be finite"),
    ])
    def test_contract_rejects_before_any_arithmetic(self, xp_norm, xn, rule):
        # |x'| = -1 once gave the value at +1, and |x'| = inf a nan Laplacian
        # after a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rule):
                thin_cylinder_phi(xp_norm, xn, 2)


# ---------------------------------------------------------------------------
# Perturbed contracting field and the superbarrier check
# ---------------------------------------------------------------------------

def _annulus_samples(field, t, n_interior=40, n_front=12, seed=4):
    rng = np.random.default_rng(seed)
    rho = field.rho(t)
    samples = []
    for _ in range(n_interior):
        d = rng.normal(size=field.n)
        d /= np.linalg.norm(d)
        s = rng.uniform(rho * 1.02, field.mu * 0.98)
        samples.append((s * d, t))
    for _ in range(n_front):
        d = rng.normal(size=field.n)
        d /= np.linalg.norm(d)
        samples.append((rho * d, t))
    return samples


class TestPerturbedContractingField:
    def test_rho_consistent_with_radius_solver(self):
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        t = -0.1
        assert f.rho(t) == pytest.approx(
            contracting_radius(2, 1.2, 1.0, lambda s: s, t), abs=1e-12
        )
        assert f.t0 == pytest.approx(-1.0 / 4.8)

    def test_time_derivative_by_finite_differences(self):
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        t, h = -0.1, 1e-7
        for s in (0.6, 0.8, 0.95):
            x = np.array([s, 0.0])
            fd = (f.value(x, t + h) - f.value(x, t - h)) / (2 * h)
            assert f.dt(x, t) == pytest.approx(fd, rel=1e-5)

    def test_gradient_by_finite_differences(self):
        f = PerturbedContractingField(3, M=1.5, mu=1.0, chi0=0.8, kappa=0.02)
        t, h = -0.05, 1e-7
        x = np.array([0.5, 0.4, 0.3])
        fd = np.array([
            (f.value(x + h * e, t) - f.value(x - h * e, t)) / (2 * h)
            for e in np.eye(3)
        ])
        assert np.allclose(f.grad(x, t), fd, atol=1e-6)

    def test_laplacian_closed_form(self):
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.03)
        t = -0.1
        x = np.array([0.7, 0.2])
        assert f.laplacian(x, t) == pytest.approx(-2 * 2 * 0.03)
        # and by finite differences
        h = 1e-5
        fd = sum(
            (f.value(x + h * e, t) - 2 * f.value(x, t) + f.value(x - h * e, t)) / h ** 2
            for e in np.eye(2)
        )
        assert fd == pytest.approx(-0.12, abs=1e-4)

    def test_front_speed_law(self):
        # on the front: phi_t = M |Dphi+|^2 + 2*kappa*rho*rho' (perturbation)
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.0)
        t = -0.1
        rho = f.rho(t)
        x = np.array([rho, 0.0])
        gn = np.linalg.norm(f.grad(x, t))
        assert f.dt(x, t) == pytest.approx(f.M * gn ** 2, rel=1e-10)

    def test_zero_inside_hole(self):
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        t = -0.1
        x = np.array([0.1, 0.1])
        assert f.value(x, t) == 0.0
        assert np.allclose(f.grad(x, t), 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PerturbedContractingField(1, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            PerturbedContractingField(2, 1.0, 1.0, 1.0, -0.1)


class TestCheckSuperbarrier:
    def test_perturbed_field_passes(self):
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        g = parse_medium("1", dim=2)  # medium bound 1 < field M = 1.2
        rep = check_superbarrier(f, g, _annulus_samples(f, -0.1), c=1e-6)
        assert rep.passed
        assert rep.interior_count > 0 and rep.front_count > 0
        assert rep.margins["interior_superharmonic"] > 0
        assert rep.margins["front_gradient"] > 0
        assert rep.margins["front_speed"] > 0
        assert all(rep.verdict.values())
        assert all(v == 0.0 for v in rep.residuals.values())

    def test_fails_when_c_exceeds_margin(self):
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        g = parse_medium("1", dim=2)
        # interior margin is 2*n*kappa = 0.04; c = 0.05 must fail
        rep = check_superbarrier(f, g, _annulus_samples(f, -0.1), c=0.05)
        assert not rep.passed
        assert not rep.verdict["interior_superharmonic"]
        assert rep.residuals["interior_superharmonic"] > 0

    def test_planar_wave_fails_interior(self):
        # harmonic interior: -lap = 0 is never > c
        P = PlanarWave(q=[0.0, -1.0], r=3.0)
        g = parse_medium("1", dim=2)
        samples = [(np.array([0.3, -1.0]), 0.0), (np.array([-0.2, -2.0]), 0.0)]
        rep = check_superbarrier(P, g, samples, c=0.01)
        assert not rep.passed
        assert rep.interior_count == 2

    def test_fast_medium_fails_front_speed(self):
        # medium max 3 > field M = 1.2: the front-speed inequality breaks
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        g = parse_medium("3", dim=2)
        rep = check_superbarrier(f, g, _annulus_samples(f, -0.1), c=1e-6)
        assert not rep.passed
        assert not rep.verdict["front_speed"]

    @pytest.mark.parametrize("bad, message", [
        ((np.array([math.nan, 0.5]), -0.1), "sample 3 x must be a finite vector of dimension 2"),
        ((np.array([0.5, 0.0, 0.1]), -0.1), "sample 3 x must be a finite vector of dimension 2"),
        ((np.array([0.5, 0.0]), math.inf), "sample 3 t must be real and finite"),
    ], ids=["nan-point", "3-vector", "inf-time"])
    def test_bad_sample_named(self, bad, message):
        # a NaN point once made every margin infinite, and a 3-vector among
        # 2-vectors passed when it was an interior point
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        samples = _annulus_samples(f, -0.1)
        samples.insert(3, bad)
        with pytest.raises(ValidationError, match=f"^{message}"):
            check_superbarrier(f, parse_medium("1", dim=2), samples, c=1e-6)

    def test_validation(self):
        f = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)
        g = parse_medium("1", dim=2)
        with pytest.raises(ValidationError):
            check_superbarrier(f, g, _annulus_samples(f, -0.1), c=0.0)
        with pytest.raises(ValidationError):
            check_superbarrier(f, g, [], c=1e-6)
