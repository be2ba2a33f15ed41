"""Planar traveling waves, cone domains, matching waves, grid covers.

Conventions: a planar wave with gradient q moves along the unit normal
nu = -q/|q| at speed r; its wet region at time t is {x . nu < r t + eta}.
Cones are open; membership is tested with strict inequalities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._lazy import lazy
from .errors import ValidationError, require_integer, require_positive

ndtri = lazy("scipy.special", "ndtri")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


@dataclass(frozen=True, eq=False)
class PlanarWave:
    """Traveling wave (|q| r t + (x - eta*nu) . q)_+ with front speed r."""

    q: np.ndarray
    r: float
    eta: float = 0.0

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if q.ndim != 1 or not np.any(q != 0.0):
            raise ValidationError("q must be a nonzero vector")
        require_positive(r=self.r)
        object.__setattr__(self, "q", q)

    @property
    def norm_q(self) -> float:
        return float(np.linalg.norm(self.q))

    @property
    def nu(self) -> np.ndarray:
        return -self.q / self.norm_q

    def as_field(self) -> "_PlanarField":
        return _PlanarField(self)


def planar_eval(P: PlanarWave, x, t):
    """Wave value at points x (last axis = coordinates) and times t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    val = P.norm_q * P.r * t + x @ P.q + P.eta * P.norm_q
    out = np.maximum(val, 0.0)
    return float(out) if out.ndim == 0 else out


class _PlanarField:
    """Smooth-field view of a planar wave: positive-side limits at the front."""

    def __init__(self, P: PlanarWave):
        self.P = P

    def _mask(self, x, t):
        P = self.P
        return (P.norm_q * P.r * np.asarray(t, float)
                + np.asarray(x, float) @ P.q + P.eta * P.norm_q) >= 0.0

    def value(self, x, t):
        return planar_eval(self.P, x, t)

    def dt(self, x, t):
        return np.where(self._mask(x, t), self.P.norm_q * self.P.r, 0.0)

    def grad(self, x, t):
        m = np.asarray(self._mask(x, t), dtype=float)
        return np.multiply.outer(m, self.P.q) if m.ndim else m * self.P.q

    def laplacian(self, x, t):
        return np.zeros(np.shape(np.asarray(x, float) @ self.P.q))


class Ordering(Enum):
    BELOW_OR_EQUAL = "below_or_equal"
    ABOVE_OR_EQUAL = "above_or_equal"
    BOTH = "both"
    NEITHER = "neither"  # unreachable for planar waves; kept for the contract


def translation_order(P: PlanarWave, y, tau: float, tol: float = 0.0) -> Ordering:
    """Order of the translate P(x-y, t-tau) against P: set by y.nu - r*tau."""
    s = float(np.asarray(y, dtype=float) @ P.nu - P.r * tau)
    if abs(s) <= tol:
        return Ordering.BOTH
    return Ordering.BELOW_OR_EQUAL if s < 0 else Ordering.ABOVE_OR_EQUAL


class PlanarClass(Enum):
    SUBSOLUTION = "subsolution"
    SUPERSOLUTION = "supersolution"
    BOTH = "both"
    NEITHER = "neither"


def planar_admissible_range(q, r: float, m: float, M: float) -> PlanarClass:
    """Classify P_{q,r} against the speed band [m, M]: sub iff r <= m|q|."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.any(q != 0.0):
        raise ValidationError("q must be nonzero")
    require_positive(m=m, M=M, r=r)
    if not m <= M:
        raise ValidationError(f"need m <= M, got {m}, {M}")
    nq = float(np.linalg.norm(q))
    sub = r <= m * nq
    sup = r >= M * nq
    if sub and sup:
        return PlanarClass.BOTH
    if sub:
        return PlanarClass.SUBSOLUTION
    if sup:
        return PlanarClass.SUPERSOLUTION
    return PlanarClass.NEITHER


def in_cone(x, vertex, axis, angle: float, tol: float = 0.0) -> bool:
    """Strict membership of x in the open cone of given vertex/axis/angle."""
    axis = np.asarray(axis, dtype=float)
    if not np.any(axis != 0.0):
        raise ValidationError("axis must be nonzero")
    if not 0 < angle < math.pi / 2:
        raise ValidationError(f"angle must be in (0, pi/2), got {angle}")
    d = np.asarray(x, dtype=float) - np.asarray(vertex, dtype=float)
    lhs = float(d @ axis)
    rhs = float(np.linalg.norm(d) * np.linalg.norm(axis) * math.cos(angle))
    return lhs - rhs > tol


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

    def cone_domain(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(vertex, axis, angle) of the domain cone Omega_q."""
        return self.V, self.nu, self.theta

    def cone_minus(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        return self.vertex_minus(t), self.nu, self.theta_minus

    def cone_plus(self, t: float) -> tuple[np.ndarray, np.ndarray, float]:
        # the upper cone opens backwards, along -nu
        return self.vertex_plus(t), -self.nu, self.theta_plus


def cone_geometry(q, r: float, m: float, M: float) -> ConeGeometry:
    """Closed-form cone geometry for bounds 0 < m < M (m = M rejected)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.ndim != 1 or q.shape[0] < 2:
        raise ValidationError("cone geometry needs a gradient in dimension >= 2")
    if not np.any(q != 0.0):
        raise ValidationError("q must be nonzero")
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
        t = np.asarray(t, dtype=float)
        return planar_eval(self.as_planar(), x, t - self.T_shift)


def matching_wave(geom: ConeGeometry, xi) -> tuple[MatchingWave, MatchingWave]:
    """Matching wave pair for a ray direction xi (cos(angle to nu) = cos theta).

    xi = 0 selects the distinguished axial pair P_{q, max(M|q|, r)} and
    P_{q, min(m|q|, r)}.
    """
    n = geom.q.shape[0]
    nq = geom.norm_q
    if np.isscalar(xi) and xi == 0:
        xi_vec = np.zeros(n)
        plus = MatchingWave(xi=xi_vec, sign="plus", eta_normal=geom.nu,
                            mu=nq, speed=max(geom.M * nq, geom.r), T_shift=0.0)
        minus = MatchingWave(xi=xi_vec, sign="minus", eta_normal=geom.nu,
                             mu=nq, speed=min(geom.m * nq, geom.r), T_shift=0.0)
        return plus, minus
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise ValidationError(f"xi must be a vector of dimension {n}")
    if abs(float(np.linalg.norm(xi)) - 1.0) > 1e-9:
        raise ValidationError("xi must be a unit vector")
    ct = math.cos(geom.theta)
    if abs(float(xi @ geom.nu) - ct) > 1e-12:
        raise ValidationError("direction not on the cone boundary set Xi")
    e = _unit(xi - ct * geom.nu)

    cphi_minus = geom.m / geom.M  # = cos(phi_minus)
    mu_plus = nq * ct
    mu_minus = nq * ct / cphi_minus
    r_plus = geom.r / ct
    r_minus = geom.r * cphi_minus / ct
    T_plus = 1.0 / geom.rV_plus - 1.0 / geom.r
    T_minus = 1.0 / geom.rV_minus - 1.0 / geom.r
    eta_plus = xi
    eta_minus = math.sin(geom.theta_minus) * geom.nu - math.cos(geom.theta_minus) * e

    plus = MatchingWave(xi=xi, sign="plus", eta_normal=eta_plus,
                        mu=mu_plus, speed=r_plus, T_shift=T_plus)
    minus = MatchingWave(xi=xi, sign="minus", eta_normal=eta_minus,
                         mu=mu_minus, speed=r_minus, T_shift=T_minus)
    return plus, minus


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
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        alphas = np.sqrt(np.array(primes[: n - 1], dtype=float))
        dirs = []
        for k in range(count):
            u = np.mod((k + 1) * alphas, 1.0)
            z = ndtri(np.clip(u, 1e-9, 1 - 1e-9))
            if not np.any(z != 0.0):
                z = np.ones(n - 1)
            dirs.append(perp @ _unit(z))
    return [ct * geom.nu + st * d for d in dirs]


@dataclass(frozen=True)
class AdmissibilityReport:
    ratio_plus: float
    ratio_minus: float
    margin_plus: float
    margin_minus: float
    ok: bool


def verify_admissibility(geom: ConeGeometry, xi) -> AdmissibilityReport:
    """Check r+/mu+ >= M and r-/mu- <= m for the matching waves at xi."""
    s = geom.r / geom.norm_q
    if not geom.m <= s <= geom.M:
        raise ValidationError(
            f"admissibility needs m <= r/|q| <= M, got r/|q| = {s}"
        )
    plus, minus = matching_wave(geom, xi)
    ratio_plus = plus.speed / plus.mu
    ratio_minus = minus.speed / minus.mu
    margin_plus = ratio_plus - geom.M
    margin_minus = geom.m - ratio_minus
    ok = margin_plus >= -1e-12 and margin_minus >= -1e-12
    return AdmissibilityReport(ratio_plus, ratio_minus, margin_plus, margin_minus, ok)


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
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    d = lo.shape[0]
    if hi.shape != lo.shape or np.any(hi <= lo):
        raise ValidationError("box must be (lo, hi) with hi > lo componentwise")
    require_positive(lam=lam, eps=eps)
    require_integer(1, samples_per_axis=samples_per_axis, probe_count=probe_count)
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
