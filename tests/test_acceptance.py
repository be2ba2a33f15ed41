"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
each test also fails loudly through pytest when its criterion is violated.
Every tolerance below is part of the package contract.
"""

import json
import math
import time

import numpy as np
import pytest

from hele_homog import barriers, geometry, homog1d, timescale
from hele_homog.cli import main as cli_main
from hele_homog.geometry import (
    PlanarWave,
    cone_geometry,
    grid_cover_check,
    matching_wave,
    xi_samples,
)
from hele_homog.errors import ValidationError
from hele_homog.homog1d import Side
from hele_homog.hs2d import SimConfig, StripDomain, convergence_study, simulate
from hele_homog.medium import builtin_medium, estimate_bounds, parse_medium


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _contracting_lhs(n, mu, rho):
    if n >= 3:
        return (0.5 * rho ** 2 - mu ** (2 - n) * rho ** n / n) / (2 - n)
    return 0.5 * rho ** 2 * (math.log(rho / mu) - 0.5)


# ---------------------------------------------------------------------------


def test_01_pinning_plateau():
    """Speed locks to 1 across a whole interval of gradients."""
    g = builtin_medium("pinning")
    start = time.time()
    speeds = [homog1d.effective_velocity(g, q, T=200.0).r_hat
              for q in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
    elapsed = time.time() - start
    in_band = all(0.995 <= r <= 1.005 for r in speeds)
    _report("pinning plateau: r_hat in [0.995, 1.005] for q in {0.5..1.0}",
            in_band and elapsed < 10.0,
            f"spread {min(speeds):.4f}..{max(speeds):.4f}, {elapsed:.1f}s")


def test_02_harmonic_mean():
    """Static medium reduces to the harmonic-mean speed sqrt(2) q."""
    g = builtin_medium("static_sin")
    worst_sim = max(
        abs(homog1d.effective_velocity(g, q, T=200.0).r_hat - math.sqrt(2) * q)
        for q in (0.5, 1.0, 2.0))
    worst_oracle = max(
        abs(homog1d.harmonic_mean_oracle(g, q) - math.sqrt(2) * q)
        for q in (0.5, 1.0, 2.0))
    _report("harmonic mean: |r_hat - sqrt(2) q| <= 5e-3, oracle <= 1e-9",
            worst_sim <= 5e-3 and worst_oracle <= 1e-9,
            f"sim {worst_sim:.1e}, oracle {worst_oracle:.1e}")


def test_03_velocity_bounds_and_monotonicity():
    """r(q) lives in the medium's speed band and never decreases."""
    g = builtin_medium("two_wave")
    T = 200.0
    curve = homog1d.velocity_curve(g, 0.05, 2.0, samples=100, T=T)
    m, M = 0.1, 2.1
    lower = m * curve.q - 1.0 / T
    upper = M * curve.q + 1.0 / T
    bounded = bool(np.all(curve.r_hat >= lower) and np.all(curve.r_hat <= upper))
    monotone = bool(np.all(np.diff(curve.r_hat) >= -2.0 / T))
    _report("velocity curve: bounds m q - 1/T .. M q + 1/T and "
            "monotone within 2/T over 100 samples",
            bounded and monotone,
            f"min slack {np.min(np.minimum(curve.r_hat - lower, upper - curve.r_hat)):.3f}")


def test_04_one_homogeneity_static_media():
    """Doubling the gradient doubles the speed when the medium ignores time."""
    rng = np.random.default_rng(11)
    T = 200.0
    worst = 0.0
    for _ in range(5):
        c0 = 0.5 + rng.uniform(0, 1)
        c1, c2 = rng.uniform(0, 1, 2)
        p1, p2 = rng.uniform(0, math.pi, 2)
        g = parse_medium(
            f"{c0:.6f} + {c1:.6f}*sin(pi*x + {p1:.6f})^2"
            f" + {c2:.6f}*sin(2*pi*x + {p2:.6f})^2", dim=1)
        for q in (0.5, 1.0):
            r1 = homog1d.effective_velocity(g, q, T=T).r_hat
            r2 = homog1d.effective_velocity(g, 2 * q, T=T).r_hat
            worst = max(worst, abs(r2 - 2 * r1))
    _report("one-homogeneity: |r_hat(2q) - 2 r_hat(q)| <= 3/T on 5 random "
            "static media", worst <= 3.0 / T, f"worst {worst:.1e}")


def test_05_candidate_consistency():
    """Two-sided candidates agree exactly for constant media, tightly for pinning."""
    ok = True
    details = []
    for c, q in ((1.7, 0.8), (0.6, 1.3)):
        rep = homog1d.homogenized_candidates(parse_medium(repr(c), dim=1), q=q)
        err = max(abs(rep.r_lower - c * q), abs(rep.r_upper - c * q))
        details.append(f"const err {err:.1e}")
        ok = ok and err <= 1e-4
    rep = homog1d.homogenized_candidates(builtin_medium("pinning"), q=0.75)
    near_one = (abs(rep.r_lower - 1.0) <= 2e-2 and abs(rep.r_upper - 1.0) <= 2e-2)
    tight = abs(rep.r_lower - rep.r_upper) <= 2e-2
    details.append(f"pinning {rep.r_lower:.4f}/{rep.r_upper:.4f}")
    _report("candidates: constant media exact to 1e-4; pinning q=0.75 "
            "within 2e-2 of 1 and of each other",
            ok and near_one and tight, ", ".join(details))


def test_06_flatness_laws():
    """Detachment traces are monotone, Lipschitz, and zero when the wave wins."""
    rng = np.random.default_rng(23)
    pool = [builtin_medium(n)
            for n in ("pinning", "antipinning", "two_wave", "static_sin")]
    pool.append(parse_medium("0.8 + 0.6*sin(pi*x + 0.7)^2", dim=1))
    all_pass = True
    for _ in range(20):
        g = pool[rng.integers(len(pool))]
        b = estimate_bounds(g)
        q = float(rng.uniform(0.4, 1.2))
        r = float(q * rng.uniform(0.3, 2.3))
        eps = float(rng.uniform(0.05, 0.2))
        side = Side.SUB if rng.integers(2) == 0 else Side.SUPER
        front = homog1d.obstacle_front(g, q=q, r=r, eps=eps, side=side, T=1.0)
        rep = homog1d.flatness_lipschitz_check(front, bounds=b)
        all_pass = all_pass and rep.passed

    g = builtin_medium("pinning")
    b = estimate_bounds(g)
    q = 0.8
    tr_sub = homog1d.obstacle_front(g, q=q, r=0.9 * b.m * q, eps=0.1,
                                    side=Side.SUB, T=1.0)
    tr_sup = homog1d.obstacle_front(g, q=q, r=1.1 * b.M * q, eps=0.1,
                                    side=Side.SUPER, T=1.0)
    zeros = tr_sub.phi.max() == 0.0 and tr_sup.phi.max() == 0.0
    _report("flatness: 20 randomized traces monotone + Lipschitz with slack "
            "q L dt; slow-sub and fast-super runs identically zero",
            all_pass and zeros)


def test_07_geometry_identities():
    """Matching-wave ratios, boundary-ray equality, and vertex speeds."""
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    worst_ray = 0.0
    worst_vertex = 0.0
    for k in range(100):
        dim = int(rng.integers(2, 5))
        q = rng.normal(size=dim)
        while np.linalg.norm(q) < 1e-3:
            q = rng.normal(size=dim)
        m = float(rng.uniform(0.2, 1.0))
        M = float(m + rng.uniform(0.1, 2.0))
        nq = float(np.linalg.norm(q))
        r = float(nq * rng.uniform(m, M))
        g = cone_geometry(q, r, m, M)
        xi = xi_samples(g, 4)[k % 4]
        plus, minus = matching_wave(g, xi)
        s = r / nq
        worst_ratio = max(
            worst_ratio,
            abs(plus.speed / plus.mu - s * M / m) / (s * M / m),
            abs(minus.speed / minus.mu - s * m / M) / (s * m / M))
        worst_vertex = max(
            worst_vertex,
            abs(g.rV_plus - (M / m) * r) / ((M / m) * r),
            abs(g.rV_minus
                - (1.0 - math.tan(g.theta) / math.tan(g.theta_minus)) * r))

        P = PlanarWave(q=g.q, r=g.r)
        pts = g.V[None, :] + np.linspace(-2.0, 4.0, 7)[:, None] * xi[None, :]
        for t in (0.0, 0.9, 2.3):
            base = P.value(pts, t)
            scale = 1.0 + np.max(np.abs(base))
            worst_ray = max(
                worst_ray,
                np.max(np.abs(plus.eval(pts, t) - base)) / scale,
                np.max(np.abs(minus.eval(pts, t) - base)) / scale)
    _report("geometry: ratio identities to 1e-12, boundary-ray equality to "
            "1e-9, vertex speeds to 1e-12, over 100 draws",
            worst_ratio <= 1e-12 and worst_ray <= 1e-9 and worst_vertex <= 1e-12,
            f"ratio {worst_ratio:.1e}, ray {worst_ray:.1e}, "
            f"vertex {worst_vertex:.1e}")


def test_08_barrier_formulas():
    """Radial barrier laws: residuals at machine scale, hand values exact."""
    rng = np.random.default_rng(17)
    worst_exp = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = float(rng.uniform(0.3, 2.0))
        K = float(rng.uniform(0.2, 2.0))
        A = float(rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.0, 2.0))
        b = barriers.expanding_barrier(n=n, m=m, K=K, A=A)
        worst_exp = max(worst_exp, abs(barriers.check_expanding_fbc(b, t)))

    worst_con = 0.0
    rhos = []
    n, M, mu, chi0 = 2, 1.0, 1.0, -0.3
    ts = np.linspace(0.01, 0.8, 100)
    for t in ts:
        rho = barriers.contracting_radius(n=n, M=M, mu=mu,
                                          Kfun=lambda s: chi0 * s, t=float(t))
        rhos.append(rho)
        worst_con = max(worst_con,
                        abs(_contracting_lhs(n, mu, rho) - M * chi0 * t))
    diffs = np.diff(rhos)
    strictly_monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))

    hand = (abs(barriers.nondegeneracy_bound(2, 1.0, 1.0, 1.0) - 0.25) <= 1e-12
            and abs(barriers.expansion_radius(2, 1.0, 1.0, 1.0) - 2.0) <= 1e-12)
    _report("barriers: expanding residual <= 1e-8 on 100 draws; contracting "
            "residual <= 1e-10 + strict monotonicity on 100-point grid; "
            "hand values 0.25 and 2",
            worst_exp <= 1e-8 and worst_con <= 1e-10
            and strictly_monotone and hand,
            f"expanding {worst_exp:.1e}, contracting {worst_con:.1e}")


def test_09_time_rescalings():
    """Lambert-W identity, endpoint laws, derivatives, and blow-up time."""
    xs = np.linspace(-1.0, 10.0, 500)
    worst_w = float(np.max(np.abs(timescale.lambert_w0(xs * np.exp(xs)) - xs)))

    worst_end = 0.0
    worst_fd = 0.0
    worst_tmax = 0.0
    blows_up = True
    for alpha, gamma, lam in ((1.0, 1.0, 0.3), (1.2, 0.8, 0.5), (1.1, 1.0, 0.4)):
        sub = timescale.SubScaling(alpha=alpha, gamma=gamma, lam=lam)
        sup = timescale.SuperScaling(alpha=alpha, gamma=gamma, lam=lam)
        worst_end = max(
            worst_end,
            abs(timescale.f_sub(0.0, sub)),
            abs(timescale.f_super(0.0, sup)),
            abs(timescale.f_sub_deriv(0.0, sub)
                - alpha * gamma / (gamma + lam)),
            abs(timescale.f_super_deriv(0.0, sup)
                - alpha * gamma / (gamma - lam)))
        h = 1e-6
        for t in (0.1, 0.3):
            fd_sub = (timescale.f_sub(t + h, sub)
                      - timescale.f_sub(t - h, sub)) / (2 * h)
            worst_fd = max(
                worst_fd,
                abs(fd_sub - timescale.f_sub_deriv(t, sub))
                / abs(timescale.f_sub_deriv(t, sub)))
        for frac in (0.3, 0.6):
            t = frac * sup.t_max  # stay inside the blow-up horizon
            fd_sup = (timescale.f_super(t + h, sup)
                      - timescale.f_super(t - h, sup)) / (2 * h)
            worst_fd = max(
                worst_fd,
                abs(fd_sup - timescale.f_super_deriv(t, sup))
                / abs(timescale.f_super_deriv(t, sup)))
        # blow-up time from the inverse map t(f) = f + eta (e^{f/(a g)} - 1)
        # at the stationary point f* = a g log(a g / (-eta))
        ag = alpha * gamma
        f_star = ag * math.log(ag / -sup.eta)
        t_expected = f_star + sup.eta * (math.exp(f_star / ag) - 1.0)
        worst_tmax = max(worst_tmax, abs(sup.t_max - t_expected))
        try:
            timescale.f_super(sup.t_max, sup)
            blows_up = False
        except ValidationError:
            pass
    # a slow drift (eta >= 0) never blows up: the rescaling is the identity
    calm = timescale.SuperScaling(alpha=0.7, gamma=1.5, lam=0.2)
    identity_ok = (math.isinf(calm.t_max)
                   and abs(timescale.f_super(5.0, calm) - 5.0) <= 1e-12)
    _report("time rescalings: W identity <= 1e-9 on [-1, 10]; endpoints and "
            "slopes <= 1e-9; derivatives vs centered differences <= 1e-6 rel; "
            "blow-up at closed-form t_max to 1e-10",
            worst_w <= 1e-9 and worst_end <= 1e-9 and worst_fd <= 1e-6
            and worst_tmax <= 1e-10 and blows_up and identity_ok,
            f"W {worst_w:.1e}, end {worst_end:.1e}, fd {worst_fd:.1e}, "
            f"t_max {worst_tmax:.1e}")


def test_10_auxiliary_fields_and_covers():
    """Thin-cylinder field stays superharmonic; lattice covers verified."""
    rng = np.random.default_rng(5)
    r = rng.uniform(0.0, 3.0, size=1000)
    xn = rng.uniform(-(math.pi / 2 - 1e-3), math.pi / 2 - 1e-3, size=1000)
    laplacians = np.array([barriers.thin_cylinder_phi(float(a), float(b), 2)[1]
                           for a, b in zip(r, xn)])
    value0, lap0 = barriers.thin_cylinder_phi(0.0, 0.0, 2)
    origin_ok = value0 == pytest.approx(-0.5, abs=1e-12) and \
        lap0 == pytest.approx(-0.5, abs=1e-12)
    negative = bool(np.all(laplacians < 0))

    nontrivial = 0
    violations = 0
    for _ in range(200):
        dim = int(rng.integers(1, 3))
        lo = rng.uniform(-2, 0, size=dim)
        hi = lo + rng.uniform(0.5, 2.0, size=dim)
        eps = float(rng.uniform(0.05, 0.3))
        lam = math.sqrt(dim) / 2 + float(rng.uniform(0.05, 1.0))
        shape = rng.integers(3)
        if shape == 0:
            A = lambda x: True
        elif shape == 1:
            a = rng.normal(size=dim)
            bnd = float(rng.uniform(-1.5, 1.5))
            A = lambda x, a=a, bnd=bnd: float(np.dot(np.atleast_1d(x), a)) <= bnd
        else:
            c = rng.uniform(-2, 1, size=dim)
            rho = float(rng.uniform(0.2, 1.0))
            A = lambda x, c=c, rho=rho: \
                float(np.linalg.norm(np.atleast_1d(x) - c)) >= rho
        if rng.integers(2) == 0:
            E = lambda x: True
        else:
            c2 = (lo + hi) / 2
            rho2 = float(rng.uniform(0.1, 0.8))
            E = lambda x, c2=c2, rho2=rho2: \
                float(np.linalg.norm(np.atleast_1d(x) - c2)) <= rho2
        box = (lo, hi) if dim > 1 else (float(lo[0]), float(hi[0]))
        rep = grid_cover_check(A, E, lam=lam, eps=eps, box=box,
                               samples_per_axis=8, probe_count=8)
        if rep.hypothesis_ok:
            nontrivial += 1
            if not rep.covered:
                violations += 1
    _report("auxiliary: thin-cylinder field negative at 1000 points, origin "
            "(-1/2, -1/n); lattice-cover property on 200 randomized instances",
            negative and origin_ok and violations == 0 and nontrivial >= 50,
            f"max laplacian {laplacians.max():.2e}, "
            f"covers {nontrivial}/200 non-vacuous")


def test_11_two_dimensional_simulator():
    """Closed-form growth, eps-refinement convergence, 1D/2D speed match."""
    g1 = parse_medium("1", dim=2)
    dom = StripDomain(Lx=4.0, Ly=1.0, nx=64, ny=64)
    start = time.time()
    hist = simulate(SimConfig(domain=dom, medium=g1, eps=0.5, psi0=1.0,
                              T=1.5, h0=1.0))
    elapsed = time.time() - start
    h_err = abs(hist.final_front.heights.mean() - 2.0) / 2.0
    growth_ok = h_err <= 0.02 and hist.total_steps >= 100 and elapsed < 30.0

    g2 = builtin_medium("pinning2d")
    dom_b = StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=20)
    report = convergence_study(
        SimConfig(domain=dom_b, medium=g2, eps=0.2, psi0=0.7, T=0.65, h0=0.72),
        [0.2, 0.1, 0.05])
    converging = report.distances_decreasing()

    dom_c = StripDomain(Lx=1.6, Ly=0.25, nx=128, ny=8)
    hist_c = simulate(SimConfig(domain=dom_c, medium=g2, eps=0.02, psi0=0.7,
                                T=0.5, h0=0.72))
    speed_2d = hist_c.front_speed(0.125, 0.5)
    # the front gradient psi0/h stays on the pinned plateau all run long,
    # so the 1D speed at the mid-run gradient is the reference
    q_mid = 0.7 / (0.72 + 0.6 * 0.5)
    speed_1d = homog1d.effective_velocity(builtin_medium("pinning"), q_mid,
                                          T=200.0).r_hat
    speed_dev = abs(speed_2d - speed_1d) / speed_1d
    _report("2D simulator: sqrt-growth within 2% at 64x64 (>= 100 steps); "
            "eps-refinement distances decrease; front speed matches the 1D "
            "estimate within 3%",
            growth_ok and converging and speed_dev <= 0.03,
            f"growth err {h_err:.1e} in {elapsed:.1f}s, "
            f"distances {[round(p.spacetime_distance, 4) for p in report.pairs]}, "
            f"speed dev {speed_dev:.2%}")


def test_12_cli_determinism(tmp_path, capsys):
    """Identical invocations produce byte-identical files."""
    outputs = []
    for tag in ("a", "b"):
        front = tmp_path / f"front_{tag}.csv"
        summary = tmp_path / f"summary_{tag}.json"
        curve = tmp_path / f"curve_{tag}.csv"
        barrier = tmp_path / f"barrier_{tag}.json"
        assert cli_main(
            ["sim2d", "run", "--medium", "builtin:pinning2d", "--eps", "0.25",
             "--psi0", "0.8", "--T", "0.2", "--h0", "1", "--Lx", "4",
             "--Ly", "1", "--nx", "16", "--ny", "8",
             "--out", str(front), "--summary", str(summary)]) == 0
        assert cli_main(
            ["rq", "curve", "--medium", "builtin:static_sin", "--qmin", "0.5",
             "--qmax", "1.0", "--samples", "3", "--T", "10", "--dt", "0.05",
             "--jobs", "2", "--out", str(curve)]) == 0
        assert cli_main(
            ["--seed", "7", "barrier", "verify", "--kind", "superbarrier",
             "--n", "2", "--M", "1.2", "--mu", "1", "--chi0", "1",
             "--kappa", "0.01", "--t", "-0.1", "--c", "1e-6", "--eps", "1",
             "--samples", "32", "--medium", "1", "--out", str(barrier)]) == 0
        outputs.append([p.read_bytes() for p in (front, summary, curve, barrier)])
    capsys.readouterr()
    identical = outputs[0] == outputs[1]
    _report("CLI determinism: reruns with the same config and seed are "
            "byte-identical across run, curve, and barrier outputs", identical)


def test_13_traveling_wave_oracle():
    """Traveling waves: the simulated speed meets the exact one within 1/T."""
    T = 200.0
    worst = {}
    for name, c in (("pinning", 1.0), ("antipinning", -1.0)):
        g = builtin_medium(name)
        # off pinning's locked plateau [0.5, 1], on it, and at its ends
        worst[name] = max(
            abs(homog1d.effective_velocity(g, q, T=T).r_hat
                - homog1d.traveling_wave_oracle(g, c, q))
            for q in (0.2, 0.45, 0.5, 0.75, 1.0, 1.2, 2.0))
    _report("traveling waves: |r_hat - oracle| <= 1/T at T = 200 for pinning "
            "(c = 1) and antipinning (c = -1), on and off the plateau [0.5, 1]",
            max(worst.values()) <= 1.0 / T,
            ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
