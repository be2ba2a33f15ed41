"""Tests for planar waves, cone geometry, matching waves, and grid covers.

Oracles: closed-form trigonometry for the reference instance (m, M, r, |q|)
= (1, 2, 1, 1); direct pointwise evaluation for wave comparisons; and the
ratio identities r+/mu+ = (r/|q|)(M/m), r-/mu- = (r/|q|)(m/M).
"""

import contextlib
import hashlib
import io
import math
import warnings

import numpy as np
import pytest

from hele_homog import (
    ConeGeometry,
    PlanarWave,
    ValidationError,
    cone_geometry,
    geometry_report_dict,
    grid_cover_check,
    matching_wave,
    planar_eval,
    xi_samples,
)
from hele_homog.cli import main


def _reference():
    return cone_geometry([0.0, -1.0], 1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Planar waves
# ---------------------------------------------------------------------------

class TestPlanarWave:
    def test_value_and_support(self):
        P = PlanarWave(q=[0.0, -1.0], r=1.0)
        # nu = (0, 1); wet region {x2 < t}.
        assert P.nu @ np.array([0.0, 1.0]) == pytest.approx(1.0)
        assert planar_eval(P, [0.0, -2.0], 0.0) == pytest.approx(2.0)
        assert planar_eval(P, [0.0, 1.0], 0.0) == 0.0
        assert planar_eval(P, [0.0, 1.0], 2.0) == pytest.approx(1.0)

    def test_eta_offset(self):
        P = PlanarWave(q=[0.0, -1.0], r=1.0, eta=0.5)
        # front at x2 = t + 0.5
        assert planar_eval(P, [0.0, 0.5], 0.0) == 0.0
        assert planar_eval(P, [0.0, 0.4], 0.0) == pytest.approx(0.1)

    def test_front_speed(self):
        # the zero level set {x . nu = r t + eta} advances at rate r along nu
        P = PlanarWave(q=[0.0, -2.0], r=0.7)
        for t in [0.0, 1.0, 2.5]:
            x_front = (P.r * t) * P.nu
            assert planar_eval(P, x_front, t) == pytest.approx(0.0, abs=1e-12)
            assert planar_eval(P, x_front - 1e-6 * P.nu, t) > 0

    def test_gradient_magnitude(self):
        P = PlanarWave(q=[3.0, -4.0], r=1.0)
        x_wet = -10.0 * P.nu
        g = P.grad(x_wet, 0.0)
        assert np.linalg.norm(g) == pytest.approx(5.0)
        assert P.dt(x_wet, 0.0) == pytest.approx(5.0 * 1.0)
        assert P.laplacian(x_wet, 0.0) == pytest.approx(0.0)

    def test_batch_eval(self):
        P = PlanarWave(q=[0.0, -1.0], r=1.0)
        xs = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])
        vals = planar_eval(P, xs, 0.0)
        assert vals.shape == (3,)
        assert np.allclose(vals, [1.0, 0.0, 0.0])

    def test_invalid(self):
        with pytest.raises(ValidationError):
            PlanarWave(q=[0.0, 0.0], r=1.0)
        with pytest.raises(ValidationError):
            PlanarWave(q=[1.0], r=0.0)


# ---------------------------------------------------------------------------
# Cone geometry: hand-computed reference instance
# ---------------------------------------------------------------------------

class TestConeGeometry:
    def test_reference_angles(self):
        g = _reference()
        assert g.theta == pytest.approx(math.pi / 4, abs=1e-15)
        assert g.theta_plus == pytest.approx(math.pi / 4, abs=1e-15)
        assert g.phi_minus == pytest.approx(math.pi / 3, abs=1e-15)
        assert g.theta_minus == pytest.approx(5 * math.pi / 12, abs=1e-15)

    def test_reference_vertex_speeds(self):
        g = _reference()
        assert g.rV_plus == pytest.approx(2.0, abs=1e-15)
        assert g.rV_minus == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-12)

    def test_reference_frames(self):
        g = _reference()
        assert np.allclose(g.nu, [0.0, 1.0])
        assert np.allclose(g.V, [0.0, -1.0])
        assert np.allclose(g.V0_plus, [0.0, 1.0])
        assert np.allclose(g.V0_minus, [0.0, -(2.0 - math.sqrt(3.0))], atol=1e-12)

    def test_vertex_motion(self):
        g = _reference()
        assert np.allclose(g.vertex_plus(0.5), g.V0_plus + 1.0 * g.nu)
        assert np.allclose(
            g.vertex_minus(2.0), g.V0_minus + 2.0 * (math.sqrt(3) - 1) * g.nu
        )

    def test_angle_ordering(self):
        # theta < theta_minus < pi/2 for any strict band
        for m, M in [(0.5, 2.0), (1.0, 1.5), (0.1, 2.1)]:
            g = cone_geometry([1.0, 0.0], 1.0, m, M)
            assert 0 < g.theta < g.theta_minus < math.pi / 2
            assert g.theta + g.theta_plus == pytest.approx(math.pi / 2)

    def test_report_dict_keys(self):
        d = geometry_report_dict(_reference())
        assert list(d) == [
            "theta", "theta_plus", "theta_minus",
            "phi_minus", "rV_plus", "rV_minus",
        ]

    def test_equal_bounds_rejected(self):
        with pytest.raises(ValidationError):
            cone_geometry([1.0, 0.0], 1.0, 1.0, 1.0)

    def test_dim1_rejected(self):
        with pytest.raises(ValidationError):
            cone_geometry([1.0], 1.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Matching waves
# ---------------------------------------------------------------------------

class TestMatchingWave:
    def test_reference_values(self):
        g = _reference()
        xi = xi_samples(g, 1)[0]
        plus, minus = matching_wave(g, xi)
        assert plus.speed == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert plus.mu == pytest.approx(1 / math.sqrt(2.0), abs=1e-12)
        assert minus.speed == pytest.approx(1 / math.sqrt(2.0), abs=1e-12)
        assert minus.mu == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_time_shifts(self):
        g = _reference()
        xi = xi_samples(g, 1)[0]
        plus, minus = matching_wave(g, xi)
        assert plus.T_shift == pytest.approx(1 / g.rV_plus - 1 / g.r, abs=1e-12)
        assert minus.T_shift == pytest.approx(1 / g.rV_minus - 1 / g.r, abs=1e-12)

    def test_ratio_identities_random(self):
        rng = np.random.default_rng(7)
        for k in range(100):
            dim = int(rng.integers(2, 5))
            q = rng.normal(size=dim)
            while not np.any(q != 0.0):
                q = rng.normal(size=dim)
            m = float(rng.uniform(0.2, 1.0))
            M = float(m + rng.uniform(0.1, 2.0))
            nq = float(np.linalg.norm(q))
            r = float(nq * rng.uniform(m, M))
            g = cone_geometry(q, r, m, M)
            xi = xi_samples(g, 3)[k % 3]
            plus, minus = matching_wave(g, xi)
            s = r / nq
            assert plus.speed / plus.mu == pytest.approx(s * M / m, abs=1e-12)
            assert minus.speed / minus.mu == pytest.approx(s * m / M, abs=1e-12)

    def test_line_equality_with_base_wave(self):
        # Both matching waves coincide with P_{q,r} on the boundary ray
        # {V + s xi} of the domain cone, at every time.
        rng = np.random.default_rng(11)
        for k in range(100):
            dim = int(rng.integers(2, 4))
            q = rng.normal(size=dim)
            while np.linalg.norm(q) < 1e-3:
                q = rng.normal(size=dim)
            m = float(rng.uniform(0.3, 1.0))
            M = float(m + rng.uniform(0.2, 1.5))
            nq = float(np.linalg.norm(q))
            r = float(nq * rng.uniform(m, M))
            g = cone_geometry(q, r, m, M)
            xi = xi_samples(g, 4)[k % 4]
            plus, minus = matching_wave(g, xi)
            P = PlanarWave(q=g.q, r=g.r)
            s = np.linspace(-2.0, 4.0, 7)
            pts = g.V[None, :] + s[:, None] * xi[None, :]
            for t in (0.0, 0.9, 2.3):
                base = planar_eval(P, pts, t)
                scale = 1.0 + np.max(np.abs(base))
                assert np.max(np.abs(plus.eval(pts, t) - base)) <= 1e-9 * scale
                assert np.max(np.abs(minus.eval(pts, t) - base)) <= 1e-9 * scale

    def test_sandwich_inside_domain_cone(self):
        g = _reference()
        xi = xi_samples(g, 1)[0]
        plus, minus = matching_wave(g, xi)
        P = PlanarWave(q=g.q, r=g.r)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-3.0, 3.0, size=(2000, 2))
        # the domain cone: vertex V, unit axis nu, half-angle theta, open
        d = pts - g.V
        pts = pts[d @ g.nu > np.linalg.norm(d, axis=1) * math.cos(g.theta)]
        for t in (0.0, 0.5, 1.5):
            base = planar_eval(P, pts, t)
            assert np.all(minus.eval(pts, t) <= base + 1e-12)
            assert np.all(plus.eval(pts, t) >= base - 1e-12)

    def test_distinguished_axial_pair(self):
        g = _reference()
        plus, minus = matching_wave(g, 0)
        # r/|q| = 1 lies in [m, M] = [1, 2]: plus picks M|q|, minus picks r
        assert plus.speed == pytest.approx(2.0)
        assert minus.speed == pytest.approx(1.0)
        assert plus.T_shift == 0.0 and minus.T_shift == 0.0
        assert np.allclose(plus.as_planar().nu, g.nu)

    def test_xi_validation(self):
        g = _reference()
        with pytest.raises(ValidationError):
            matching_wave(g, [1.0, 0.0, 0.0])  # wrong dimension
        with pytest.raises(ValidationError):
            matching_wave(g, [2.0, 0.0])  # not unit
        with pytest.raises(ValidationError):
            matching_wave(g, [0.0, 1.0])  # on-axis, not at angle theta
        for count in (0, 2.5, True):
            with pytest.raises(ValidationError, match="count must be an integer >= 1"):
                xi_samples(g, count)

    def test_xi_samples_valid(self):
        for q, dim in [([0.0, -1.0], 2), ([1.0, 1.0, -1.0], 3)]:
            g = cone_geometry(q, 1.0, 1.0, 2.0)
            ct = math.cos(g.theta)
            xs = xi_samples(g, 8)
            assert len(xs) == 8
            for xi in xs:
                assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-9)
                assert float(xi @ g.nu) == pytest.approx(ct, abs=1e-12)
                matching_wave(g, xi)  # accepted

    def test_xi_samples_frozen(self):
        # pinned to the last bit: the Kronecker points of medium._kronecker,
        # which the sampled contract shares
        digest = hashlib.sha256()
        for n in range(3, 8):
            g = cone_geometry(np.r_[np.full(n - 1, 0.25), -1.0], 1.0, 1.0, 2.0)
            digest.update(np.stack(xi_samples(g, 50)).tobytes())
        assert digest.hexdigest() == (
            "cd351c1b0e3e88e99c0e55d201454457aa6a132982f64bc2c1aebe7c26a10aa1")

    @pytest.mark.parametrize("n", [12, 16])
    def test_xi_samples_any_dimension(self, n):
        # one irrational rotation sqrt(p) per perpendicular axis, p prime
        g = cone_geometry(np.r_[np.ones(n - 1), -2.0], 1.0, 1.0, 2.0)
        ct = math.cos(g.theta)
        for xi in xi_samples(g, 8):
            assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
            assert float(xi @ g.nu) == pytest.approx(ct, abs=1e-12)
            matching_wave(g, xi)  # accepted

    def test_xi_samples_bad_count(self):
        with pytest.raises(ValidationError):
            xi_samples(_reference(), 0)


# ---------------------------------------------------------------------------
# Grid covers
# ---------------------------------------------------------------------------

class TestGridCover:
    def test_full_space_covered_1d(self):
        rep = grid_cover_check(
            A=lambda x: True, E=lambda x: 0.0 <= x <= 1.0,
            lam=0.51, eps=0.1, box=(0.0, 1.0),
        )
        assert rep.covered and rep.hypothesis_ok
        assert rep.checked > 0
        assert rep.counterexample is None

    def test_full_space_covered_2d_random_boxes(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            lo = rng.uniform(-2, 0, size=2)
            hi = lo + rng.uniform(0.5, 2.0, size=2)
            eps = float(rng.uniform(0.05, 0.3))
            lam = math.sqrt(2) / 2 + float(rng.uniform(0.05, 1.0))
            rep = grid_cover_check(
                A=lambda x: True, E=lambda x: True,
                lam=lam, eps=eps, box=(lo, hi),
                samples_per_axis=8, probe_count=8,
            )
            assert rep.covered

    def test_punctured_lattice_counterexample(self):
        # A excludes (only) a tiny neighborhood of the lattice point 0.5:
        # the inclusion hypothesis still verifies on the probes, but points
        # of E near 0.5 lose their only admissible lattice anchor.
        rep = grid_cover_check(
            A=lambda x: abs(x - 0.5) > 1e-6,
            E=lambda x: 0.0 <= x <= 1.0,
            lam=0.51, eps=0.1, box=(0.0, 1.0),
        )
        assert rep.hypothesis_ok
        assert not rep.covered
        assert rep.counterexample is not None
        assert abs(rep.counterexample[0] - 0.5) <= 0.051

    def test_hypothesis_failure_reported(self):
        rep = grid_cover_check(
            A=lambda x: x < 0.75,
            E=lambda x: 0.0 <= x <= 1.0,
            lam=0.51, eps=0.1, box=(0.0, 1.0),
        )
        assert not rep.hypothesis_ok
        assert rep.hypothesis_counterexample is not None

    def test_lam_too_small_rejected(self):
        with pytest.raises(ValidationError):
            grid_cover_check(
                A=lambda x: True, E=lambda x: True,
                lam=0.4, eps=0.1, box=(0.0, 1.0),
            )

    def test_bad_box(self):
        with pytest.raises(ValidationError):
            grid_cover_check(
                A=lambda x: True, E=lambda x: True,
                lam=0.51, eps=0.1, box=(1.0, 0.0),
            )
        for name, value in (("samples_per_axis", 2.5), ("samples_per_axis", 0),
                            ("probe_count", 2.5)):
            with pytest.raises(ValidationError, match=f"{name} must be an integer >= 1"):
                grid_cover_check(A=lambda x: True, E=lambda x: True,
                                 lam=0.51, eps=0.1, box=(0.0, 1.0), **{name: value})

    @pytest.mark.parametrize("seed", [-3, 1.5, True])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        # seed=-3 once leaked NumPy's ValueError, seed=1.5 a TypeError
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            grid_cover_check(A=lambda x: True, E=lambda x: True,
                             lam=0.51, eps=0.1, box=(0.0, 1.0), seed=seed)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_parameters_rejected(bad):
    # an infinite r once gave rV_plus = inf; every positive scalar is finite.
    # A non-finite vector entry once gave a plausible answer too: a cone with
    # NaN normal, a pair of matching waves, a report
    g = _reference()
    calls = [
        (lambda v: cone_geometry([0.0, -1.0], v, 1.0, 2.0), "r must be > 0 and finite"),
        (lambda v: cone_geometry([0.0, -1.0], 1.0, 1.0, v), "M must be > 0 and finite"),
        (lambda v: PlanarWave(q=[0.0, -1.0], r=v), "r must be > 0 and finite"),
        (lambda v: grid_cover_check(A=lambda x: True, E=lambda x: True,
                                    lam=v, eps=0.1, box=(0.0, 1.0)),
         "lam must be > 0 and finite"),
        (lambda v: grid_cover_check(A=lambda x: True, E=lambda x: True,
                                    lam=0.51, eps=v, box=(0.0, 1.0)),
         "eps must be > 0 and finite"),
        (lambda v: cone_geometry([v, -1.0], 1.0, 1.0, 2.0), "q must be a finite vector"),
        (lambda v: PlanarWave(q=[v, -1.0], r=1.0), "q must be a finite vector"),
        (lambda v: PlanarWave(q=[0.0, -1.0], r=1.0, eta=v), "eta must be real and finite"),
        (lambda v: matching_wave(g, [v, v]), "xi must be a finite vector of dimension 2"),
        (lambda v: grid_cover_check(A=lambda x: True, E=lambda x: True, lam=0.51,
                                    eps=0.1, box=([v], [1.0])), "box lo must be"),
        (lambda v: grid_cover_check(A=lambda x: True, E=lambda x: True, lam=0.51,
                                    eps=0.1, box=(0.0, v)), "box hi must be"),
    ]
    for call, message in calls:
        with pytest.raises(ValidationError, match=f"^{message}"):
            call(bad)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["geometry", "report", "--q", f"{bad},-1", "--r", "1",
                     "--m", "1", "--M", "2"])
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", f"error: q must be a finite vector, got [{bad} -1.]\n")


def test_overflowing_norm_rejected():
    # finite entries whose norm overflows gave a zero normal nu = [-0, -0],
    # a NaN value at the origin and an exit 0 report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: PlanarWave(q=[1e308, 1e308], r=1.0),
                     lambda: cone_geometry([1e308, 1e308], 1.0, 1.0, 2.0)):
            with pytest.raises(ValidationError, match=r"^q must be a finite vector, got"):
                call()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["geometry", "report", "--q", "1e308,1e308", "--r", "1",
                         "--m", "1", "--M", "2"])
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "error: q must be a finite vector, got [1.e+308 1.e+308]\n")


def test_vector_shapes_rejected():
    g = _reference()
    calls = [
        (lambda: matching_wave(g, [[0.6, 0.8]]), "xi must be a finite vector"),
        (lambda: grid_cover_check(A=lambda x: True, E=lambda x: True, lam=0.8,
                                  eps=0.1, box=([0.0, 0.0], [1.0])), "box hi must be"),
    ]
    for call, message in calls:
        with pytest.raises(ValidationError, match=f"^{message}"):
            call()


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


_AXIS = np.linspace(-2.0, 2.0, 9)
_PTS = np.stack(np.meshgrid(_AXIS, _AXIS, indexing="ij"), axis=-1).reshape(-1, 2)
_TS = np.linspace(-1.0, 2.0, _PTS.shape[0])


class TestFrozenWaveBits:
    """Values from when the planar field was a wrapper around the wave and
    each matching wave was built on its own; every bit is kept."""

    @pytest.mark.parametrize("q, digest", [
        ([0.0, -1.0], "e5f683c5a009e8e044a227d63fe66952ffc8f7cb84fa44ce2c4076478f83b762"),
        ([1.0, 1.0, -1.0], "3a77f33d4bfac8ed230d7d70ad70a0bf4b5123fbbfff0c424b77feef1d7d0ed2"),
    ], ids=["reference", "dim3"])
    def test_matching_waves(self, q, digest):
        g = cone_geometry(q, 1.0, 1.0, 2.0)
        pts = _PTS if len(q) == 2 else np.column_stack([_PTS, _PTS[::-1, 0]])
        arrays = []
        for xi in [0] + xi_samples(g, 3):
            for w in matching_wave(g, xi):
                arrays += [w.eta_normal, w.mu, w.speed, w.T_shift, w.eval(pts, _TS)]
        assert _sha256(*arrays) == digest

    def test_planar_values(self):
        g = _reference()
        P = PlanarWave(q=g.q, r=g.r, eta=0.25)
        assert _sha256(planar_eval(P, _PTS, _TS), P.dt(_PTS, _TS), P.grad(_PTS, _TS),
                       planar_eval(P, _PTS[5], 0.3), P.grad(_PTS[5], 0.3)) == (
            "81f947392e6d09beb2be2a1dd8b88295a96f10fb6cefe15de62ba57b8b4486f8")
