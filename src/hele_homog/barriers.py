"""Closed-form radial sub/supersolution barriers and quantitative bounds.

Expanding barriers grow from a point source at the slow speed bound m;
contracting barriers close a hole no faster than the fast bound M allows.
Both are radial profiles glued to a moving free-boundary radius rho(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (NumericalError, ValidationError, require_finite, require_integer,
                     require_nonnegative, require_positive, require_vector, shown)
from .medium import Medium, _admit, eval_scaled


def _w(n: int, s):
    """w_n(s) = (s^(2-n) - 1)/(n-2), or its n -> 2 limit -log s: w_n(|x|) is
    harmonic off the origin of R^n and zero on |x| = 1. The one n-branch."""
    if n == 2:
        return -np.log(s)
    return (s ** (2 - n) - 1.0) / (n - 2)


def _nonnegative(name: str, value) -> np.ndarray:
    """value as a float array, refused unless every entry is finite and >= 0."""
    v = np.asarray(value, dtype=float)
    bad = v[~(np.isfinite(v) & (v >= 0))]
    if bad.size:
        raise ValidationError(f"{name} must be finite and >= 0, got {bad[0]}")
    return v


def _brentq(f, lo: float, hi: float, what: str) -> float:
    """Root of f on [lo, hi] by Brent's method; f must change sign there."""
    from scipy.optimize import brentq

    flo, fhi = f(lo), f(hi)
    if not (flo >= 0 >= fhi or flo <= 0 <= fhi):
        raise NumericalError(f"{what} bracket failed: f({lo}) = {flo}, f({hi}) = {fhi}")
    root, info = brentq(f, lo, hi, xtol=1e-12, full_output=True, disp=False)
    if not info.converged:
        raise NumericalError(f"{what}: Brent's method did not converge")
    return root


@dataclass(frozen=True)
class RadialExpanding:
    """Self-similar expanding barrier with front rho(t) = sqrt(alpha*K*m*t)."""

    n: int
    m: float
    K: float
    A: float
    alpha: float

    def rho(self, t):
        out = np.sqrt(self.alpha * self.K * self.m * _nonnegative("t", t))
        return float(out) if out.ndim == 0 else out

    def rho_prime(self, t):
        require_positive(t=t)
        return self.alpha * self.K * self.m / (2.0 * self.rho(t))

    def profile(self, s):
        """Radial profile psi(s), s = |x|/rho(t): K inside s<=A, 0 at s>=1;
        s must be finite and >= 0."""
        s = _nonnegative("s", s)
        with np.errstate(divide="ignore"):
            raw = self.K * np.maximum(_w(self.n, s), 0.0) / _w(self.n, self.A)
        out = np.minimum(raw, self.K)
        return float(out) if out.ndim == 0 else out

    def value(self, x_norm, t):
        require_positive(t=t)
        return self.profile(_nonnegative("x_norm", x_norm) / self.rho(t))

    def front_gradient(self, t):
        """|D psi^+| at |x| = rho(t), the one-sided slope at the front."""
        require_positive(t=t)
        return self.K / (_w(self.n, self.A) * self.rho(t))


def expanding_barrier(n: int, m: float, K: float, A: float) -> RadialExpanding:
    """Expanding barrier; alpha = 2/w_n(A), i.e. 2(n-2)/(A^{2-n}-1) or 2/(-ln A)."""
    require_integer(2, n=n)
    require_positive(m=m, K=K)
    if not 0 < A < 1:
        raise ValidationError(f"A must be in (0, 1), got {shown(A)}")
    return RadialExpanding(n=n, m=m, K=K, A=A, alpha=float(2.0 / _w(n, A)))


def check_expanding_fbc(b: RadialExpanding, t: float) -> float:
    """Residual |rho'(t) - m*|Dpsi^+|(rho(t))| of the free-boundary law."""
    return abs(b.rho_prime(t) - b.m * b.front_gradient(t))


def _contracting_lhs(n: int, mu: float, rho: float) -> float:
    """Radius equation's left side rho^2 (w_n(mu/rho) - 1/2)/n; slope rho*w_n(mu/rho)."""
    return rho ** 2 * (_w(n, mu / rho) - 0.5) / n


def contracting_radius(n: int, M: float, mu: float,
                       Kfun: Callable[[float], float], t: float) -> float:
    """Root rho in (0, mu) of the contracting radius equation at time t.

    Kfun is the cumulative integral of the boundary flux chi; admissibility
    needs M*Kfun(t) in (-mu^2/(2n), 0).
    """
    require_integer(2, n=n)
    require_positive(M=M, mu=mu)
    target = M * float(Kfun(t))
    if not -(mu ** 2) / (2 * n) < target < 0:
        raise ValidationError(
            f"t outside admissible window: M*K(t) = {target} not in "
            f"({-(mu ** 2) / (2 * n)}, 0)"
        )
    return _brentq(lambda r: _contracting_lhs(n, mu, r) - target,
                   1e-14 * mu, mu * (1.0 - 1e-14), "contracting radius")


def check_contracting_radius(n: int, M: float, mu: float,
                             Kfun: Callable[[float], float], t: float,
                             rho: float) -> float:
    """Residual |L(rho) - M*Kfun(t)| of the contracting radius equation."""
    require_integer(2, n=n)
    if not 0 < rho <= mu:
        raise ValidationError(f"need 0 < rho <= mu, got rho={rho}, mu={mu}")
    return abs(_contracting_lhs(n, mu, rho) - M * float(Kfun(t)))


def nondegeneracy_bound(n: int, M: float, mu: float, dt: float) -> float:
    """Lower bound mu^2/(2nM*dt) on the peak value needed to close a hole."""
    require_integer(2, n=n)
    require_positive(M=M, mu=mu, dt=dt)
    return mu ** 2 / (2 * n * M * dt)


def expansion_radius(n: int, K: float, M: float, dt: float) -> float:
    """Upper bound sqrt(2nKM*dt) on how far the wet set can spread."""
    require_integer(2, n=n)
    require_positive(K=K, M=M)
    require_nonnegative(dt=dt)
    return math.sqrt(2 * n * K * M * dt)


def thin_cylinder_phi(xp_norm, xn, n: int):
    """Comparison profile sqrt(1+|x'|^2/n)*cos(x_n) - 3/2 and its Laplacian.

    Superharmonic (laplacian < 0) on |x_n| < pi/2; vectorized over inputs,
    which must be finite with |x'| >= 0.
    """
    require_integer(1, n=n)
    r = _nonnegative("xp_norm", xp_norm)
    xn = np.asarray(xn, dtype=float)
    bad = xn[~np.isfinite(xn)]
    if bad.size:
        raise ValidationError(f"xn must be finite, got {bad[0]}")
    w = np.sqrt(1.0 + r ** 2 / n)
    value = w * np.cos(xn) - 1.5
    lap = -(n + 2 * r ** 2 + n * r ** 2 + r ** 4) * np.cos(xn) / (
        n ** 2 * ((n + r ** 2) / n) ** 1.5)
    if value.ndim == 0:
        return float(value), float(lap)
    return value, lap


class PerturbedContractingField:
    """Contracting barrier minus kappa*(|x|^2 - rho(t)^2)_+, constant flux.

    Supplies value/dt/grad/laplacian closed forms on the annulus, making it
    a strict superbarrier for media bounded above by M - delta (kappa small).
    """

    def __init__(self, n: int, M: float, mu: float, chi0: float, kappa: float):
        require_integer(2, n=n)
        require_positive(M=M, mu=mu, chi0=chi0)
        require_nonnegative(kappa=kappa)
        self.n = n
        self.M = M
        self.mu = mu
        self.chi0 = chi0
        self.kappa = kappa
        self.t0 = -(mu ** 2) / (2 * n * M * chi0)
        self._last = (None, None)

    def rho(self, t: float) -> float:
        """The contracting radius at t. The last one solved is kept: a
        superbarrier check asks for it at every sample point of one t."""
        if self._last[0] != t:
            self._last = (t, contracting_radius(self.n, self.M, self.mu,
                                                lambda s: self.chi0 * s, t))
        return self._last[1]

    def rho_prime(self, t: float) -> float:
        return self._rho_prime(self.rho(t))

    def _rho_prime(self, rho: float) -> float:
        return self.M * self.chi0 / (rho * _w(self.n, self.mu / rho))

    def _profile_parts(self, s: float, rho: float):
        """Ratio w(s/rho)/w(mu/rho) and its s- and rho-derivatives."""
        n, mu = self.n, self.mu
        wmu = _w(n, mu / rho)
        ratio = _w(n, s / rho) / wmu
        d_s = -(s / rho) ** (1 - n) / (rho * wmu)
        d_rho = (s / rho) ** (2 - n) * _w(n, mu / s) / (rho * wmu ** 2)
        return ratio, d_s, d_rho

    def value(self, x, t: float) -> float:
        s, rho = self._snap(x, t)
        if s <= rho:
            return 0.0
        ratio, _, _ = self._profile_parts(s, rho)
        return self.chi0 * ratio - self.kappa * (s ** 2 - rho ** 2)

    def _snap(self, x, t: float) -> tuple[float, float]:
        """Radius |x| with values within rounding of rho(t) snapped onto it.

        Derivatives at the front mean positive-side limits, so a radius that
        lands a few ulps inside rho must not fall into the zero region.
        """
        s = float(np.linalg.norm(np.asarray(x, dtype=float)))
        rho = self.rho(t)
        if abs(s - rho) <= 1e-12 * rho:
            return rho, rho
        return s, rho

    def dt(self, x, t: float) -> float:
        s, rho = self._snap(x, t)
        if s < rho:
            return 0.0
        _, _, d_rho = self._profile_parts(s, rho)
        rp = self._rho_prime(rho)
        return self.chi0 * d_rho * rp + self.kappa * 2.0 * rho * rp

    def grad(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s, rho = self._snap(x, t)
        if s == 0.0 or s < rho:
            return np.zeros_like(x)
        _, d_s, _ = self._profile_parts(s, rho)
        radial = self.chi0 * d_s - 2.0 * self.kappa * s
        return radial * x / float(np.linalg.norm(x))

    def laplacian(self, x, t: float) -> float:
        s, rho = self._snap(x, t)
        if s < rho:
            return 0.0
        return -2.0 * self.n * self.kappa


@dataclass(frozen=True)
class BarrierReport:
    """Margins/violations of the strict superbarrier inequalities."""

    margins: dict
    residuals: dict
    verdict: dict
    passed: bool
    interior_count: int
    front_count: int


def check_superbarrier(field, medium: Medium, samples, c: float,
                       eps: float = 1.0) -> BarrierReport:
    """Verify -lap > c inside and |Dphi+| > c, phi_t - g|Dphi+|^2 > c on the front.

    The medium must pass the model contract in the dimension of the sample
    points, and each sample must be a finite point of the first one's
    dimension at a finite time. `field` provides value/dt/grad/laplacian at
    the sampled (x, t) points; front points are those with
    |value| <= 1e-8 * (max sampled |value|).
    """
    require_positive(c=c, eps=eps)
    samples = list(samples)
    if not samples:
        raise ValidationError("no sample points supplied")
    dim = np.size(samples[0][0])
    for i, (x, t) in enumerate(samples):
        require_vector(f"sample {i} x", x, dim=dim)
        require_finite(**{f"sample {i} t": t})
    _admit(medium, dim)
    values = [float(field.value(x, t)) for x, t in samples]
    scale = max(max(abs(v) for v in values), 1e-300)
    front_tol = 1e-8 * scale

    inf = math.inf
    margins = {"interior_superharmonic": inf, "front_gradient": inf,
               "front_speed": inf}
    interior_count = front_count = 0
    for (x, t), v in zip(samples, values):
        if v > front_tol:
            interior_count += 1
            margin = -float(field.laplacian(x, t)) - c
            margins["interior_superharmonic"] = min(
                margins["interior_superharmonic"], margin)
        elif abs(v) <= front_tol:
            front_count += 1
            grad = np.asarray(field.grad(x, t), dtype=float)
            gnorm = float(np.linalg.norm(grad))
            speed = float(field.dt(x, t)) - float(eval_scaled(medium, eps, x, t)) * gnorm ** 2
            margins["front_gradient"] = min(margins["front_gradient"], gnorm - c)
            margins["front_speed"] = min(margins["front_speed"], speed - c)
        # points with v < -front_tol lie outside the closed positive set

    residuals = {k: max(0.0, -v) if math.isfinite(v) else 0.0
                 for k, v in margins.items()}
    verdict = {k: math.isfinite(v) and v > 0 for k, v in margins.items()
               if math.isfinite(v)}
    passed = all(verdict.values()) if verdict else False
    return BarrierReport(margins=margins, residuals=residuals, verdict=verdict,
                         passed=passed, interior_count=interior_count,
                         front_count=front_count)
