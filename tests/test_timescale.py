"""Tests for the Lambert-W time rescalings.

Oracles used here:
  * W itself: the defining identity W(x e^x) = x and mpmath.lambertw at
    50 digits, evaluated at the same doubles.
  * f_sub / f_super: the explicit inverse map t(f) = f + c*(exp(f/(a*g)) - 1)
    with c = xi (sub) or eta (super), checked pointwise.
  * theta_shift: the explicit inverse t(theta) = theta - lam*exp((theta-lam)/gamma).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hele_homog import (
    NumericalError,
    SubScaling,
    SuperScaling,
    ThetaShift,
    ValidationError,
    f_sub,
    f_sub_deriv,
    f_super,
    f_super_deriv,
    lambert_w0,
    theta_shift,
)

T_MAX_FROZEN = 1.2 * (math.log(6.0) - 1.0) + 0.2  # SuperScaling(1, 1.2, 0.2)


def _mp_w0(zs):
    with mpmath.workdps(50):
        return np.array([float(mpmath.lambertw(mpmath.mpf(float(z))).real) for z in zs])


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

class TestLambertW:
    def test_defining_identity(self):
        xs = np.linspace(-1.0, 10.0, 201)
        w = lambert_w0(xs * np.exp(xs))
        assert np.max(np.abs(w - xs)) <= 1e-9

    def test_against_mpmath(self):
        zs = np.concatenate([
            np.linspace(-1 / math.e + 1e-12, 0.0, 60),
            np.linspace(0.0, 50.0, 60),
            [1e3, 1e6],
        ])
        ours = lambert_w0(zs)
        ref = _mp_w0(zs)
        assert np.max(np.abs(ours - ref)) <= 1e-11 * (1 + np.max(np.abs(ref)))

    @pytest.mark.parametrize("k", range(-13, 0))
    def test_near_branch_point(self, k):
        # W is ~ -1 + sqrt(2(e z + 1)) here: ill-conditioned, but defined
        z = -1 / math.e + 10.0 ** k
        assert lambert_w0(z) == pytest.approx(_mp_w0([z])[0], abs=2e-9)

    def test_special_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-1 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_scalar_in_scalar_out(self):
        out = lambert_w0(1.0)
        assert isinstance(out, float)

    def test_below_branch_point_rejected(self):
        with pytest.raises(ValidationError):
            lambert_w0(-1 / math.e - 1e-6)

    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(min_value=-1.0, max_value=20.0, allow_nan=False))
    def test_identity_property(self, x):
        assert lambert_w0(x * math.exp(x)) == pytest.approx(x, abs=1e-9)


# ---------------------------------------------------------------------------
# Slow rescaling (sub side)
# ---------------------------------------------------------------------------

def _sub_inverse(f, s):
    ag = s.alpha * s.gamma
    return f + s.xi * (math.exp(f / ag) - 1.0)


class TestSubScaling:
    def test_xi(self):
        s = SubScaling(alpha=0.5, gamma=1.0, lam=0.25)
        assert s.xi == pytest.approx(1.0 + 0.25 - 0.5)

    def test_starts_at_zero(self):
        s = SubScaling(alpha=0.5, gamma=1.0, lam=0.0)
        assert f_sub(0.0, s) == pytest.approx(0.0, abs=1e-12)

    def test_initial_slope(self):
        s = SubScaling(alpha=0.5, gamma=2.0, lam=0.5)
        expect = s.alpha * s.gamma / (s.gamma + s.lam)
        assert f_sub_deriv(0.0, s) == pytest.approx(expect, abs=1e-12)

    def test_inverse_map_oracle(self):
        s = SubScaling(alpha=0.7, gamma=1.3, lam=0.2)
        for t in np.linspace(0.0, 8.0, 33):
            f = f_sub(t, s)
            assert _sub_inverse(f, s) == pytest.approx(t, abs=1e-9)

    def test_derivative_matches_inverse_slope(self):
        # dt/df = 1 + (xi/ag) exp(f/ag), so f'(t) is its reciprocal.
        s = SubScaling(alpha=0.7, gamma=1.3, lam=0.2)
        ag = s.alpha * s.gamma
        for t in np.linspace(0.0, 8.0, 17):
            f = f_sub(t, s)
            slope = 1.0 / (1.0 + (s.xi / ag) * math.exp(f / ag))
            assert f_sub_deriv(t, s) == pytest.approx(slope, abs=1e-10)

    def test_derivative_finite_difference(self):
        s = SubScaling(alpha=0.4, gamma=1.0, lam=0.0)
        h = 1e-6
        for t in [0.5, 2.0, 5.0]:
            fd = (f_sub(t + h, s) - f_sub(t - h, s)) / (2 * h)
            assert f_sub_deriv(t, s) == pytest.approx(fd, rel=1e-6)

    def test_slowdown(self):
        s = SubScaling(alpha=0.5, gamma=1.0)
        ts = np.linspace(0.0, 10.0, 50)
        vals = f_sub(ts, s)
        assert np.all(vals <= ts + 1e-12)
        assert np.all(f_sub_deriv(ts, s) <= 1.0 + 1e-12)
        assert np.all(np.diff(vals) > 0)

    def test_identity_branch(self):
        # xi <= 0 when alpha >= 1 + lam/gamma.
        s = SubScaling(alpha=1.5, gamma=1.0, lam=0.25)
        assert s.xi <= 0
        ts = np.linspace(0.0, 4.0, 9)
        assert np.allclose(f_sub(ts, s), ts)
        assert np.allclose(f_sub_deriv(ts, s), 1.0)

    def test_negative_time_rejected(self):
        s = SubScaling(alpha=0.5, gamma=1.0)
        with pytest.raises(ValidationError):
            f_sub(-0.1, s)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            SubScaling(alpha=0.0, gamma=1.0)
        with pytest.raises(ValidationError):
            SubScaling(alpha=1.0, gamma=-1.0)
        with pytest.raises(ValidationError):
            SubScaling(alpha=1.0, gamma=1.0, lam=-0.1)

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_late_times_do_not_overflow(self, lam):
        # (t + xi)/ag > 800: e^800 overflows, its logarithm does not
        s = SubScaling(alpha=0.5, gamma=1.0, lam=lam)
        with np.errstate(over="raise"):
            f = f_sub(400.0, s)
            slope = f_sub_deriv(400.0, s)
        assert _sub_inverse(f, s) == pytest.approx(400.0, abs=1e-8)
        assert slope == pytest.approx(1.0 / (1.0 + (s.xi / 0.5) * math.exp(f / 0.5)),
                                      rel=1e-12)

    def test_continuous_across_the_log_switch(self):
        # the argument (xi/ag) e^((t + xi)/ag) reaches e^700 at `switch`,
        # close to where exp overflows
        s = SubScaling(alpha=0.5, gamma=1.0, lam=0.7)
        switch = 0.5 * (700.0 - math.log(s.xi / 0.5)) - s.xi
        below, above = f_sub(np.array([switch - 1e-9, switch + 1e-9]), s)
        slope = f_sub_deriv(switch, s)
        assert above - below == pytest.approx(2e-9 * slope, abs=1e-12)

    def test_log_form_matches_w_below_the_switch(self):
        # f_sub takes W from log z; where z = e^L is a double, W(z) must agree
        s = SubScaling(alpha=0.5, gamma=1.0, lam=0.7)
        for L in [650.0, 690.0, 699.9, 700.0]:
            t = 0.5 * (L - math.log(s.xi / 0.5)) - s.xi
            w = lambert_w0(math.exp(math.log(s.xi / 0.5) + (t + s.xi) / 0.5))
            assert f_sub_deriv(t, s) == pytest.approx(1.0 / (1.0 + w), rel=1e-14)
            assert f_sub(t, s) == pytest.approx(t + s.xi - 0.5 * w, rel=1e-12)

    @pytest.mark.parametrize("t", [400.0, 700.0, 801.0, 1e4, 1e8, 1e300])
    def test_log_form_identity(self, t):
        # t + xi - ag W cancels to a few digits or none here; the inverse map
        # still holds to rounding, and e^(f/ag) stays finite
        s = SubScaling(alpha=0.5, gamma=1.0, lam=0.7)
        assert _sub_inverse(f_sub(t, s), s) == pytest.approx(t, rel=1e-12)

    def test_overflow_is_a_numerical_failure(self):
        # (t + xi)/ag is not a double: no plausible number comes back
        with pytest.raises(NumericalError, match="overflowed"):
            f_sub(1e308, SubScaling(alpha=0.5, gamma=1.0))

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=0.1, max_value=0.95),
        gamma=st.floats(min_value=0.2, max_value=3.0),
        lam=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_inverse_property(self, alpha, gamma, lam, t):
        s = SubScaling(alpha=alpha, gamma=gamma, lam=lam)
        f = f_sub(t, s)
        assert _sub_inverse(f, s) == pytest.approx(t, abs=1e-8 * (1 + t))


# ---------------------------------------------------------------------------
# Fast rescaling (super side)
# ---------------------------------------------------------------------------

def _super_inverse(f, s):
    ag = s.alpha * s.gamma
    return f + s.eta * (math.exp(f / ag) - 1.0)


class TestSuperScaling:
    def test_eta_and_t_max_frozen(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        assert s.eta == pytest.approx(-0.2)
        assert s.t_max == pytest.approx(T_MAX_FROZEN, abs=1e-12)
        assert s.t_max == pytest.approx(1.1501113630736661, abs=1e-12)

    def test_t_max_is_inverse_maximum(self):
        # t(f) = f + eta*(exp(f/ag) - 1) attains its max where t'(f) = 0,
        # i.e. f* = ag*log(-ag/eta); t(f*) must equal t_max.
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        ag = s.alpha * s.gamma
        f_star = ag * math.log(ag / -s.eta)
        assert _super_inverse(f_star, s) == pytest.approx(s.t_max, abs=1e-12)
        # and it is a maximum: slightly off f* gives smaller t.
        assert _super_inverse(f_star - 1e-3, s) < s.t_max
        assert _super_inverse(f_star + 1e-3, s) < s.t_max

    def test_starts_at_zero(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        assert f_super(0.0, s) == pytest.approx(0.0, abs=1e-12)

    def test_initial_slope(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        expect = s.alpha * s.gamma / (s.gamma - s.lam)
        assert f_super_deriv(0.0, s) == pytest.approx(expect, abs=1e-12)

    def test_inverse_map_oracle(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        for t in np.linspace(0.0, s.t_max * 0.999, 40):
            f = f_super(t, s)
            assert _super_inverse(f, s) == pytest.approx(t, abs=1e-9)

    def test_speedup(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        ts = np.linspace(0.01, s.t_max * 0.99, 30)
        vals = f_super(ts, s)
        assert np.all(vals >= ts)
        assert np.all(f_super_deriv(ts, s) >= 1.0)

    def test_blowup_rejected(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        with pytest.raises(ValidationError, match="blown up"):
            f_super(s.t_max, s)
        with pytest.raises(ValidationError, match="blown up"):
            f_super(s.t_max + 1.0, s)
        with pytest.raises(ValidationError):
            f_super_deriv(s.t_max, s)

    def test_value_diverges_near_t_max(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        ag = s.alpha * s.gamma
        f_star = ag * math.log(ag / -s.eta)
        assert f_super(s.t_max * (1 - 1e-9), s) > 0.99 * f_star

    def test_identity_branch(self):
        # eta >= 0 when alpha <= 1 - lam/gamma.
        s = SuperScaling(alpha=0.5, gamma=1.0, lam=0.25)
        assert s.eta >= 0
        assert s.t_max == math.inf
        ts = np.linspace(0.0, 4.0, 9)
        assert np.allclose(f_super(ts, s), ts)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            SuperScaling(alpha=1.0, gamma=1.0, lam=1.0)  # gamma > lam fails
        with pytest.raises(ValidationError):
            SuperScaling(alpha=1.0, gamma=1.0, lam=-0.1)

    def test_derivative_finite_difference(self):
        s = SuperScaling(alpha=1.0, gamma=1.2, lam=0.2)
        h = 1e-7
        for t in [0.1, 0.5, 0.9]:
            fd = (f_super(t + h, s) - f_super(t - h, s)) / (2 * h)
            assert f_super_deriv(t, s) == pytest.approx(fd, rel=1e-5)


# ---------------------------------------------------------------------------
# Theta shift
# ---------------------------------------------------------------------------

def _theta_inverse(theta, sh):
    return theta - sh.lam * math.exp((theta - sh.lam) / sh.gamma)


class TestThetaShift:
    def test_starts_at_lam(self):
        sh = ThetaShift(gamma=1.0, lam=0.3)
        assert theta_shift(0.0, sh) == pytest.approx(0.3, abs=1e-12)

    def test_zero_lam_identity(self):
        sh = ThetaShift(gamma=1.0, lam=0.0)
        ts = np.linspace(0.0, 5.0, 11)
        assert np.allclose(theta_shift(ts, sh), ts)
        assert sh.t_lambda == math.inf

    def test_endpoint(self):
        sh = ThetaShift(gamma=1.0, lam=0.3)
        tl = sh.t_lambda
        assert tl == pytest.approx(math.log(1 / 0.3) + 0.3 - 1.0, abs=1e-12)
        assert theta_shift(tl, sh) == pytest.approx(tl + sh.gamma, abs=1e-7)

    def test_inverse_map_oracle(self):
        sh = ThetaShift(gamma=1.4, lam=0.5)
        for t in np.linspace(0.0, sh.t_lambda * 0.999, 30):
            th = theta_shift(t, sh)
            assert _theta_inverse(th, sh) == pytest.approx(t, abs=1e-9)

    def test_monotone_and_deriv_at_least_one(self):
        sh = ThetaShift(gamma=1.0, lam=0.3)
        ts = np.linspace(0.0, sh.t_lambda * 0.99, 40)
        th = theta_shift(ts, sh)
        assert np.all(np.diff(th) > 0)
        # theta' >= 1, so every secant slope is at least 1
        assert np.all(np.diff(th) >= np.diff(ts))

    def test_inverse_slope_in_unit_interval(self):
        # dt/dtheta = 1 - (lam/gamma) exp((theta-lam)/gamma) lies in (0, 1].
        sh = ThetaShift(gamma=1.0, lam=0.3)
        ts = np.linspace(0.0, sh.t_lambda * 0.99, 40)
        th = theta_shift(ts, sh)
        inv_slopes = 1.0 - (sh.lam / sh.gamma) * np.exp((th - sh.lam) / sh.gamma)
        assert np.all(inv_slopes > 0)
        assert np.all(inv_slopes <= 1.0)

    def test_beyond_endpoint_rejected(self):
        sh = ThetaShift(gamma=1.0, lam=0.3)
        with pytest.raises(ValidationError):
            theta_shift(sh.t_lambda + 1.0, sh)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            ThetaShift(gamma=1.0, lam=1.5)  # lam > gamma
        with pytest.raises(ValidationError):
            ThetaShift(gamma=0.0, lam=0.0)


# ---------------------------------------------------------------------------
# Near the horizon, against mpmath at 80 digits
# ---------------------------------------------------------------------------

def _mp_horizon(c, a):
    """Exact end of the map with (c, a) < 0 read as the given doubles."""
    with mpmath.workdps(80):
        c, a = mpmath.mpf(c), mpmath.mpf(a)
        return a * (mpmath.log(a / -c) - 1) - c


def _mp_deriv(t, c, a):
    with mpmath.workdps(80):
        c, a, t = mpmath.mpf(c), mpmath.mpf(a), mpmath.mpf(t)
        return float(1 / (1 + mpmath.lambertw((c / a) * mpmath.exp((t + c) / a)).real))


def _horizon_cases():
    """(kind, map, c, a, exact end): 300 seeded theta shifts, half with lam
    within 1e-9..1 of gamma, and 300 super scalings."""
    rng = np.random.default_rng(20)
    cases = []
    for i in range(300):
        gamma = rng.uniform(0.1, 5.0)
        near = 10.0 ** rng.uniform(-9.0, 0.0) if i % 2 else rng.uniform(0.01, 0.99)
        sh = ThetaShift(gamma=gamma, lam=gamma * (1.0 - near))
        cases.append(("theta", sh, -sh.lam, sh.gamma))
        s = SuperScaling(alpha=rng.uniform(1.01, 3.0), gamma=rng.uniform(0.1, 5.0))
        s = SuperScaling(alpha=s.alpha, gamma=s.gamma, lam=s.gamma * rng.uniform(0.0, 0.99))
        cases.append(("super", s, s.eta, s.alpha * s.gamma))
    return [(kind, m, c, a, _mp_horizon(c, a)) for kind, m, c, a in cases]


class TestNearHorizon:
    cases = _horizon_cases()

    def test_reported_case(self):
        # the end computed as a (log(a/-c) - 1) - c lay past the true one,
        # and the derivative just below the true end came out inf. Reported
        # on the theta shift (c, a) = (-lam, gamma); with alpha = 1 the super
        # scaling has the same (c, a) to the bit
        s = SuperScaling(alpha=1.0, gamma=2.1926248928671654, lam=2.1899108356394548)
        assert (s.eta, s.alpha * s.gamma) == (-s.lam, s.gamma)
        t = 1.6811336215167597e-06
        end = _mp_horizon(-s.lam, s.gamma)
        floor = math.ulp(float(end)) / float(end - t)
        ref = 1.73607789887e8  # mpmath, 80 digits
        assert abs(f_super_deriv(t, s) / ref - 1.0) <= 10 * floor + 1e-13

    def test_horizon_within_four_ulp(self):
        for kind, m, c, a, end in self.cases:
            got = m.t_lambda if kind == "theta" else m.t_max
            assert abs(got - float(end)) <= 4 * math.ulp(float(end)), (kind, m)

    def test_derivative_at_the_conditioning_floor(self):
        # t carries ulp(t_end) against the end, so 1 + W ~ sqrt(t_end - t)
        # knows t_end - t only to ulp(t_end)/(t_end - t) relative
        rng = np.random.default_rng(21)
        for kind, m, c, a, end in self.cases:
            t = float(end * (1 - 10.0 ** rng.uniform(-12.0, -3.0)))
            if kind != "super":
                continue
            floor = math.ulp(float(end)) / float(end - t)
            got = f_super_deriv(t, m)
            assert abs(got / _mp_deriv(t, c, a) - 1.0) <= 10 * floor + 1e-13, (m, t)

    def test_derivative_finite_below_the_end(self):
        for kind, m, _, _, _ in self.cases:
            if kind == "super":
                t = np.array([0.0, 0.5 * m.t_max, math.nextafter(m.t_max, 0.0)])
                assert np.all(np.isfinite(f_super_deriv(t, m))), m


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_parameters_rejected(bad):
    # SubScaling(gamma=inf) once made f_sub the identity
    calls = [
        (lambda v: SubScaling(alpha=1.0, gamma=v), "gamma > 0"),
        (lambda v: SubScaling(alpha=v, gamma=1.0), "alpha > 0"),
        (lambda v: SubScaling(alpha=1.0, gamma=1.0, lam=v), "lam >= 0"),
        (lambda v: SuperScaling(alpha=1.0, gamma=v, lam=0.1), "gamma > 0"),
        (lambda v: SuperScaling(alpha=v, gamma=1.0), "alpha > 0"),
        (lambda v: ThetaShift(gamma=v, lam=0.1), "gamma > 0"),
        (lambda v: ThetaShift(gamma=1.0, lam=v), "lam >= 0"),
    ]
    for call, rule in calls:
        name, relation = rule.split(" ", 1)
        with pytest.raises(ValidationError,
                           match=f"^{name} must be {relation} and finite"):
            call(bad)
