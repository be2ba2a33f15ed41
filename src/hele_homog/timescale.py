"""Nonlinear time rescalings built on the principal Lambert W branch.

The sub/super scalings slow down or speed up time while preserving an
initial value and a prescribed initial derivative; the theta shift maps a
time offset into a phase advance. All three are one map,

    F(t) = t + c - a W(z),   F'(t) = 1 / (1 + W(z)),   z = (c/a) e^{(t+c)/a},

with (c, a) = (xi, alpha*gamma) for the sub scaling, (eta, alpha*gamma) for
the super scaling and (-lam, gamma) for the theta shift, which is F + lam.
c = 0 is the identity; for c < 0 the map ends where z reaches -1/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, require_nonnegative, require_positive

_INV_E = math.exp(-1.0)


def lambert_w0(x):
    """Principal branch W(x) for x >= -1/e, by scipy.special.lambertw.

    Arguments at or up to 1e-12 below the rounded -1/e give -1: that double
    lies just below the true branch point, where SciPy returns NaN."""
    z = np.asarray(x, dtype=float)
    if not np.all(z >= -_INV_E - 1e-12):
        raise ValidationError(f"lambert_w0 requires x >= -1/e, got min {np.min(z)}")
    from scipy.special import lambertw

    w = np.where(z <= -_INV_E, -1.0, lambertw(z).real)
    return float(w) if w.ndim == 0 else w


def _log1pmx(x):
    """log1p(x) - x for x > -1, without the cancellation at |x| < 1/2: there
    2 atanh(s) - x = 2 s^3 (1/3 + s^2/5 + ...) - s x for s = x/(2 + x)."""
    x = np.asarray(x, dtype=float)
    s = x / (2.0 + x)
    series = sum(s ** (2 * k) / (2 * k + 3) for k in range(18, -1, -1))  # s^2 < 1/9
    return np.where(abs(x) < 0.5, 2.0 * s ** 3 * series - s * x, np.log1p(x) - x)


def _horizon(c: float, a: float) -> float:
    """End of the map, where z = (c/a) e^{(t+c)/a} reaches -1/e: a (u - 1 - ln u)
    for u = -c/a, summed exactly, or near u = 1 from the exact -c - a; inf for c >= 0."""
    if c >= 0:
        return math.inf
    u = -c / a
    if u < 0.5:
        return a * math.fsum((u, -1.0, -math.log(u)))
    return -a * float(_log1pmx((-c - a) / a))


def _rescale(t, c: float, a: float, deriv: bool, closed: bool = False):
    """F(t) or F'(t) of the map with parameters (c, a), for finite t >= 0.

    Past the horizon it raises: at and past it when the map is open
    (t_max), beyond it by more than a relative 1e-12 when closed (t_lambda).
    """
    arr = np.asarray(t, dtype=float)
    bad = arr[~(np.isfinite(arr) & (arr >= 0))]
    if bad.size:
        raise ValidationError(f"t must be finite and >= 0, got {bad[0]}")
    end = _horizon(c, a)
    if closed and np.any(arr > end * (1 + 1e-12) + 1e-12):
        raise ValidationError(f"t beyond t_lambda = {end}")
    if not closed and np.any(arr >= end):
        raise ValidationError(f"t >= t_max = {end}: rescaling has blown up")
    if c > 0:  # W(e^L) for L = log z, which never overflows
        from scipy.special import wrightomega

        with np.errstate(over="ignore"):  # t past the float range: caught below
            w = wrightomega(math.log(c / a) + (arr + c) / a)
        out, q = a * np.log(a * w / c), 1.0 + w  # t + c - aW by W = log z - log W
    elif c < 0:  # z in [-1/e, 0) up to the horizon, -1/e from it on
        w = lambert_w0(np.where(arr < end, (c / a) * np.exp((arr + c) / a), -_INV_E))
        # z ~ -1/e loses 1 + W: q = 1 + W solves q + log1p(-q) = tau, Newton from p
        tau = np.minimum(arr - end, 0.0) / a
        q = np.sqrt(-2.0 * np.expm1(tau))  # p, the branch-series variable
        with np.errstate(divide="ignore", invalid="ignore"):  # q = 0 at the horizon
            for _ in range(4):  # the relative error squares on each step
                q = np.where(q > 0, q + (_log1pmx(-q) - tau) * (1.0 - q) / q, 0.0)
        near = tau > math.log(0.995)  # p < 0.1
        q = np.where(near, q, 1.0 + w)
        out = arr + c - a * np.where(near, q - 1.0, w)
    else:  # the identity
        out, q = arr + 0.0, np.ones_like(arr)
    if deriv:
        with np.errstate(divide="ignore"):  # infinite at the horizon
            out = 1.0 / q
    elif not np.all(np.isfinite(out)):
        raise NumericalError(f"rescaling overflowed for t up to {np.max(arr)}")
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SubScaling:
    """Time slowdown with f(0)=0, f'(0) = alpha*gamma/(gamma+lam), f' <= 1."""

    alpha: float
    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        require_positive(alpha=self.alpha, gamma=self.gamma)
        require_nonnegative(lam=self.lam)

    @property
    def xi(self) -> float:
        return self.gamma + self.lam - self.alpha * self.gamma


def f_sub(t, s: SubScaling):
    """Value of the slow rescaling; identity branch when xi <= 0."""
    return _rescale(t, max(s.xi, 0.0), s.alpha * s.gamma, deriv=False)


def f_sub_deriv(t, s: SubScaling):
    """Closed-form derivative alpha*gamma/h with h = alpha*gamma*(1+W)."""
    return _rescale(t, max(s.xi, 0.0), s.alpha * s.gamma, deriv=True)


@dataclass(frozen=True)
class SuperScaling:
    """Time speedup with f(0)=0, f'(0) = alpha*gamma/(gamma-lam), f' > 1.

    Blows up at the finite horizon t_max where the W argument reaches -1/e.
    """

    alpha: float
    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        require_positive(alpha=self.alpha, gamma=self.gamma)
        require_nonnegative(lam=self.lam)
        if not self.gamma > self.lam:
            raise ValidationError(f"need gamma > lam, got {self.gamma}, {self.lam}")

    @property
    def eta(self) -> float:
        return self.gamma - self.lam - self.alpha * self.gamma

    @property
    def t_max(self) -> float:
        return _horizon(min(self.eta, 0.0), self.alpha * self.gamma)


def f_super(t, s: SuperScaling):
    """Value of the fast rescaling; error for t at or past the horizon."""
    return _rescale(t, min(s.eta, 0.0), s.alpha * s.gamma, deriv=False)


def f_super_deriv(t, s: SuperScaling):
    return _rescale(t, min(s.eta, 0.0), s.alpha * s.gamma, deriv=True)


@dataclass(frozen=True)
class ThetaShift:
    """Phase advance theta(t; lam) with theta(0) = lam, theta(t; 0) = t.

    theta is strictly increasing and reaches t_lambda + gamma at the
    endpoint t_lambda; the INVERSE map has derivative 1 + W in (0, 1].
    """

    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        require_positive(gamma=self.gamma)
        require_nonnegative(lam=self.lam)
        if not self.lam <= self.gamma:
            raise ValidationError(f"need lam <= gamma, got {self.lam}, {self.gamma}")

    @property
    def t_lambda(self) -> float:
        return _horizon(-self.lam, self.gamma)


def theta_shift(t, sh: ThetaShift):
    """theta(t; lam) = t - gamma*W(-(lam/gamma) e^{-lam/gamma} e^{t/gamma})."""
    return _rescale(t, -sh.lam, sh.gamma, deriv=False, closed=True) + sh.lam
