"""Planar traveling waves, cone domains, matching waves, grid covers.

Conventions: a planar wave with gradient q moves along the unit normal
nu = -q/|q| at speed r; its wet region at time t is {x . nu < r t + eta}.
Cones are open.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ValidationError, require_finite, require_integer,
                     require_positive, require_vector)
from .medium import _kronecker


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


@dataclass(frozen=True, eq=False)
class PlanarWave:
    """Traveling wave (|q| r t + (x - eta*nu) . q)_+ with front speed r, and its
    own smooth field: positive-side limits of dt and grad at the front."""

    q: np.ndarray
    r: float
    eta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", require_vector("q", self.q, nonzero=True))
        require_positive(r=self.r)
        require_finite(eta=self.eta)

    @property
    def norm_q(self) -> float:
        return float(np.linalg.norm(self.q))

    @property
    def nu(self) -> np.ndarray:
        return -self.q / self.norm_q

    def _phase(self, x, t):
        return (self.norm_q * self.r * np.asarray(t, dtype=float)
                + np.asarray(x, dtype=float) @ self.q + self.eta * self.norm_q)

    def value(self, x, t):
        """Wave value at points x (last axis = coordinates) and times t."""
        out = np.maximum(self._phase(x, t), 0.0)
        return float(out) if out.ndim == 0 else out

    def dt(self, x, t):
        return np.where(self._phase(x, t) >= 0.0, self.norm_q * self.r, 0.0)

    def grad(self, x, t):
        m = np.asarray(self._phase(x, t) >= 0.0, dtype=float)
        return np.multiply.outer(m, self.q) if m.ndim else m * self.q

    def laplacian(self, x, t):
        return np.zeros(np.shape(self._phase(x, t)))


@dataclass(frozen=True, eq=False)
class ConeGeometry:
    """Angles, vertices and vertex velocities of the cone obstacle domain."""

    q: np.ndarray
    r: float
    m: float
    M: float
    theta: float
    theta_plus: float
    theta_minus: float
    phi_minus: float
    nu: np.ndarray
    V: np.ndarray
    rV_plus: float
    rV_minus: float
    V0_plus: np.ndarray
    V0_minus: np.ndarray

    @property
    def norm_q(self) -> float:
        return float(np.linalg.norm(self.q))

    def vertex_plus(self, t: float) -> np.ndarray:
        return self.V0_plus + self.rV_plus * t * self.nu

    def vertex_minus(self, t: float) -> np.ndarray:
        return self.V0_minus + self.rV_minus * t * self.nu


def cone_geometry(q, r: float, m: float, M: float) -> ConeGeometry:
    """Closed-form cone geometry for bounds 0 < m < M (m = M rejected)."""
    q = require_vector("q", q, nonzero=True)
    if q.shape[0] < 2:
        raise ValidationError("cone geometry needs a gradient in dimension >= 2")
    require_positive(r=r, m=m, M=M)
    if not m < M:
        raise ValidationError(f"need m < M (strict), got m={m}, M={M}")
    nu = _unit(-q)
    theta = math.acos(math.sqrt(m / M))
    theta_plus = math.pi / 2 - theta
    phi_minus = math.acos(m / M)
    theta_minus = math.pi / 2 + theta - phi_minus
    rV_plus = (M / m) * r
    rV_minus = (1.0 - math.tan(theta) / math.tan(theta_minus)) * r
    V0_plus = math.tan(theta) ** 2 * nu
    V0_minus = -(math.tan(theta) / math.tan(theta_minus)) * nu
    return ConeGeometry(
        q=q, r=r, m=m, M=M,
        theta=theta, theta_plus=theta_plus, theta_minus=theta_minus,
        phi_minus=phi_minus, nu=nu, V=-nu,
        rV_plus=rV_plus, rV_minus=rV_minus,
        V0_plus=V0_plus, V0_minus=V0_minus,
    )


def geometry_report_dict(geom: ConeGeometry) -> dict:
    """The JSON record shape used by the CLI."""
    return {
        "theta": geom.theta,
        "theta_plus": geom.theta_plus,
        "theta_minus": geom.theta_minus,
        "phi_minus": geom.phi_minus,
        "rV_plus": geom.rV_plus,
        "rV_minus": geom.rV_minus,
    }


@dataclass(frozen=True, eq=False)
class MatchingWave:
    """Planar wave matching P_{q,r} on a boundary ray of the cone domain."""

    xi: np.ndarray
    sign: str  # "plus" | "minus"
    eta_normal: np.ndarray
    mu: float
    speed: float
    T_shift: float

    def as_planar(self) -> PlanarWave:
        return PlanarWave(q=-self.mu * self.eta_normal, r=self.speed)

    def eval(self, x, t):
        return self.as_planar().value(x, np.asarray(t, dtype=float) - self.T_shift)


def matching_wave(geom: ConeGeometry, xi) -> tuple[MatchingWave, MatchingWave]:
    """Matching wave pair for a ray direction xi (cos(angle to nu) = cos theta).

    xi = 0 selects the distinguished axial pair P_{q, max(M|q|, r)} and
    P_{q, min(m|q|, r)}.
    """
    n = geom.q.shape[0]
    nq = geom.norm_q
    if np.isscalar(xi) and xi == 0:
        xi = np.zeros(n)
        plus = (geom.nu, nq, max(geom.M * nq, geom.r), 0.0)
        minus = (geom.nu, nq, min(geom.m * nq, geom.r), 0.0)
    else:
        xi = require_vector("xi", xi, dim=n)
        if abs(float(np.linalg.norm(xi)) - 1.0) > 1e-9:
            raise ValidationError("xi must be a unit vector")
        ct = math.cos(geom.theta)
        if abs(float(xi @ geom.nu) - ct) > 1e-12:
            raise ValidationError("direction not on the cone boundary set Xi")
        e = _unit(xi - ct * geom.nu)
        cphi_minus = geom.m / geom.M  # = cos(phi_minus)
        plus = (xi, nq * ct, geom.r / ct, 1.0 / geom.rV_plus - 1.0 / geom.r)
        minus = (math.sin(geom.theta_minus) * geom.nu - math.cos(geom.theta_minus) * e,
                 nq * ct / cphi_minus, geom.r * cphi_minus / ct,
                 1.0 / geom.rV_minus - 1.0 / geom.r)
    # each wave is (eta_normal, mu, speed, T_shift)
    return tuple(MatchingWave(xi, s, *w) for s, w in (("plus", plus), ("minus", minus)))


def xi_samples(geom: ConeGeometry, count: int) -> list[np.ndarray]:
    """Deterministic low-discrepancy sample of ray directions in Xi."""
    require_integer(1, count=count)
    n = geom.q.shape[0]
    ct, st = math.cos(geom.theta), math.sin(geom.theta)
    # orthonormal basis of the hyperplane perpendicular to nu
    base = np.eye(n)
    full = np.column_stack([geom.nu.reshape(-1, 1), base])
    qmat, _ = np.linalg.qr(full)
    perp = qmat[:, 1:n]
    if n == 2:
        dirs = [perp[:, 0] * (1 if k % 2 == 0 else -1) for k in range(count)]
    else:
        from scipy.special import ndtri

        dirs = []
        for u in _kronecker(count, n - 1):
            z = ndtri(np.clip(u, 1e-9, 1 - 1e-9))
            if not np.any(z != 0.0):
                z = np.ones(n - 1)
            dirs.append(perp @ _unit(z))
    return [ct * geom.nu + st * d for d in dirs]


@dataclass(frozen=True)
class GridCoverReport:
    covered: bool
    hypothesis_ok: bool
    checked: int
    counterexample: tuple | None
    hypothesis_counterexample: tuple | None


def grid_cover_check(A, E, lam: float, eps: float, box,
                     samples_per_axis: int = 16,
                     probe_count: int = 16,
                     seed: int = 0) -> GridCoverReport:
    """Check E subset of (A intersect eps*Z^d) + closed ball of radius lam*eps.

    A and E are set predicates; box = (lo, hi) bounds the sampling of E.
    The hypothesis E + B_{lam*eps} subset A is itself probed by sampling;
    a cover failure under a verified hypothesis is reported as a
    counterexample (it would falsify the covering claim).
    """
    lo = require_vector("box lo", box[0])
    d = lo.shape[0]
    hi = require_vector("box hi", box[1], dim=d)
    if np.any(hi <= lo):
        raise ValidationError("box must be (lo, hi) with hi > lo componentwise")
    require_positive(lam=lam, eps=eps)
    require_integer(1, samples_per_axis=samples_per_axis, probe_count=probe_count)
    require_integer(0, seed=seed)
    if not lam > math.sqrt(d) / 2:
        raise ValidationError(f"lam must exceed sqrt(d)/2 = {math.sqrt(d) / 2}")

    def as_arg(p):
        return p if d > 1 else float(p[0])

    axes = [np.linspace(lo[i], hi[i], samples_per_axis) for i in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    samples = [p for p in pts if E(as_arg(p))]

    rng = np.random.default_rng(seed)
    probes = rng.normal(size=(probe_count, d))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    radii = np.array([1.0, 0.5, 0.99])

    hypothesis_ok, hypothesis_counterexample = True, None
    covered, counterexample = True, None
    reach = int(math.ceil(lam)) + 1
    offsets = np.array(list(itertools.product(range(-reach, reach + 1), repeat=d)))

    # each claim keeps its first counterexample and is not probed after it
    for p in samples:
        if hypothesis_ok:
            ball = (p + lam * eps * rad * u for rad in radii for u in probes)
            probe = next((b for b in ball if not A(as_arg(b))), None)
            if probe is not None:
                hypothesis_ok, hypothesis_counterexample = False, (tuple(p), tuple(probe))
        if covered:
            lattice = (np.round(p / eps) + offsets) * eps
            dist = np.linalg.norm(lattice - p, axis=1)
            if not any(dc <= lam * eps + 1e-12 and A(as_arg(cand))
                       for cand, dc in zip(lattice, dist)):
                covered, counterexample = False, tuple(p)

    return GridCoverReport(
        covered=covered,
        hypothesis_ok=hypothesis_ok,
        checked=len(samples),
        counterexample=counterexample,
        hypothesis_counterexample=hypothesis_counterexample,
    )
