"""Nonlinear time rescalings built on the principal Lambert W branch.

The sub/super scalings slow down or speed up time while preserving an
initial value and a prescribed initial derivative; the theta shift maps a
time offset into a phase advance. All closed forms reduce to W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_INV_E = math.exp(-1.0)


def _branch_series(z):
    """Series for W near the branch point z = -1/e in p = sqrt(2(ez+1))."""
    p = np.sqrt(2.0 * (math.e * z + 1.0))
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))


def lambert_w0(x):
    """Principal branch W(x) for x >= -1/e, to ~1e-14 relative accuracy.

    Seeded by a regime-dependent asymptotic guess, refined by Halley
    iteration. Within 1e-6 of the branch point the series seed is already
    accurate to ~1e-24 and refinement is skipped (the Halley denominator
    degenerates there).
    """
    z = np.asarray(x, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).astype(float)
    if np.any(z < -_INV_E - 1e-12):
        raise ValidationError(f"lambert_w0 requires x >= -1/e, got min {z.min()}")
    z = np.maximum(z, -_INV_E)

    w = np.empty_like(z)
    near = z <= -0.2
    big = z > math.e
    mid = ~near & ~big
    w[near] = _branch_series(z[near])
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = np.log(z[big])
        w[big] = lz - np.log(lz)
    w[mid] = np.log1p(z[mid])

    # Halley refinement; frozen where w+1 is tiny (series regime)
    active = np.abs(w + 1.0) > 1e-6
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(50):
            ew = np.exp(w)
            f = w * ew - z
            w1 = w + 1.0
            denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
            step = f / denom
            step = np.where(active & np.isfinite(step), step, 0.0)
            w = w - step
            if np.all(np.abs(step) <= 1e-14 * (2.0 + np.abs(w))):
                break
        else:
            raise NumericalError("lambert_w0: Halley iteration did not converge")
    return float(w[0]) if scalar else w


def _as_times(t, minimum=0.0):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < minimum):
        raise ValidationError(f"t must be >= {minimum}, got min {arr.min()}")
    return arr, arr.ndim == 0


def _out(arr, scalar):
    return float(arr) if scalar else np.asarray(arr, dtype=float)


@dataclass(frozen=True)
class SubScaling:
    """Time slowdown with f(0)=0, f'(0) = alpha*gamma/(gamma+lam), f' <= 1."""

    alpha: float
    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > 0 and self.lam >= 0):
            raise ValidationError(
                f"need alpha > 0, gamma > 0, lam >= 0, got {self.alpha}, {self.gamma}, {self.lam}"
            )

    @property
    def xi(self) -> float:
        return self.gamma + self.lam - self.alpha * self.gamma


_LOG_SWITCH = 700.0  # W of an argument past e^700 is taken from its logarithm


def _lambert_w0_exp(L):
    """W(e^L) for L >= _LOG_SWITCH, where e^L may overflow: Newton's method
    on w + log w = L from the asymptotic seed L - log L."""
    L = np.asarray(L, dtype=float)
    w = L - np.log(L)
    for _ in range(50):
        step = w * (w + np.log(w) - L) / (w + 1.0)
        w = w - step
        if np.all(np.abs(step) <= 1e-15 * w):
            return w
    raise NumericalError("lambert_w0: Newton iteration on w + log w = L "
                         "did not converge")


def _scaling_w(arr, shift: float, ag: float):
    """W((shift/ag) e^{(t+shift)/ag}), the argument clipped at the branch point.

    Past e^700 (shift > 0 only) the argument may overflow, so W is taken from
    its logarithm log(shift/ag) + (t+shift)/ag there.
    """
    with np.errstate(over="ignore"):
        z = (shift / ag) * np.exp((arr + shift) / ag)
    huge = z > math.exp(_LOG_SWITCH)
    w = lambert_w0(np.maximum(np.where(huge, 0.0, z), -_INV_E))
    if not np.any(huge):
        return w
    log_z = np.where(huge, math.log(shift / ag) + (arr + shift) / ag, _LOG_SWITCH)
    return np.where(huge, _lambert_w0_exp(log_z), w)


def f_sub(t, s: SubScaling):
    """Value of the slow rescaling; identity branch when xi <= 0."""
    arr, scalar = _as_times(t)
    if s.xi <= 0:
        return _out(arr + 0.0, scalar)
    ag = s.alpha * s.gamma
    return _out(arr + s.xi - ag * _scaling_w(arr, s.xi, ag), scalar)


def f_sub_deriv(t, s: SubScaling):
    """Closed-form derivative alpha*gamma/h with h = alpha*gamma*(1+W)."""
    arr, scalar = _as_times(t)
    if s.xi <= 0:
        return _out(np.ones_like(arr), scalar)
    return _out(1.0 / (1.0 + _scaling_w(arr, s.xi, s.alpha * s.gamma)), scalar)


@dataclass(frozen=True)
class SuperScaling:
    """Time speedup with f(0)=0, f'(0) = alpha*gamma/(gamma-lam), f' > 1.

    Blows up at the finite horizon t_max where the W argument reaches -1/e.
    """

    alpha: float
    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.gamma > self.lam >= 0):
            raise ValidationError(
                f"need alpha > 0, gamma > lam >= 0, got {self.alpha}, {self.gamma}, {self.lam}"
            )

    @property
    def eta(self) -> float:
        return self.gamma - self.lam - self.alpha * self.gamma

    @property
    def t_max(self) -> float:
        if self.eta >= 0:
            return math.inf
        ag = self.alpha * self.gamma
        return ag * (math.log(ag / -self.eta) - 1.0) - self.eta


def f_super(t, s: SuperScaling):
    """Value of the fast rescaling; error for t at or past the horizon."""
    arr, scalar = _as_times(t)
    if s.eta >= 0:
        return _out(arr + 0.0, scalar)
    if np.any(arr >= s.t_max):
        raise ValidationError(f"t >= t_max = {s.t_max}: rescaling has blown up")
    ag = s.alpha * s.gamma
    return _out(arr + s.eta - ag * _scaling_w(arr, s.eta, ag), scalar)


def f_super_deriv(t, s: SuperScaling):
    arr, scalar = _as_times(t)
    if s.eta >= 0:
        return _out(np.ones_like(arr), scalar)
    if np.any(arr >= s.t_max):
        raise ValidationError(f"t >= t_max = {s.t_max}: rescaling has blown up")
    return _out(1.0 / (1.0 + _scaling_w(arr, s.eta, s.alpha * s.gamma)), scalar)


@dataclass(frozen=True)
class ThetaShift:
    """Phase advance theta(t; lam) with theta(0) = lam, theta(t; 0) = t.

    theta is strictly increasing and reaches t_lambda + gamma at the
    endpoint t_lambda; the INVERSE map has derivative 1 + W in (0, 1].
    """

    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0 and 0 <= self.lam <= self.gamma):
            raise ValidationError(
                f"need gamma > 0 and 0 <= lam <= gamma, got {self.gamma}, {self.lam}"
            )

    @property
    def t_lambda(self) -> float:
        if self.lam == 0:
            return math.inf
        return self.gamma * (
            math.log(self.gamma / self.lam) + self.lam / self.gamma - 1.0
        )


def _theta_w(arr, sh: ThetaShift):
    """W(-(lam/gamma) e^{-lam/gamma} e^{t/gamma}) for lam > 0 and t <= t_lambda."""
    if np.any(arr > sh.t_lambda * (1 + 1e-12) + 1e-12):
        raise ValidationError(f"t beyond t_lambda = {sh.t_lambda}")
    ratio = sh.lam / sh.gamma
    return lambert_w0(np.maximum(-ratio * np.exp(-ratio) * np.exp(arr / sh.gamma), -_INV_E))


def theta_shift(t, sh: ThetaShift):
    """theta(t; lam) = t - gamma*W(-(lam/gamma) e^{-lam/gamma} e^{t/gamma})."""
    arr, scalar = _as_times(t)
    if sh.lam == 0:
        return _out(arr + 0.0, scalar)
    return _out(arr - sh.gamma * _theta_w(arr, sh), scalar)


def theta_shift_deriv(t, sh: ThetaShift):
    """theta'(t) = 1/(1+W(...)) >= 1; infinite at the endpoint t_lambda."""
    arr, scalar = _as_times(t)
    if sh.lam == 0:
        return _out(np.ones_like(arr), scalar)
    w = _theta_w(arr, sh)
    with np.errstate(divide="ignore"):
        out = 1.0 / (1.0 + w)
    return _out(out, scalar)
