"""Tests for the model contract and the parameter rule.

Every public entry point that takes a medium admits it through
`medium._admit`: g has the entry point's dimension and is finite, positive
and 1-periodic on a sample of the unit cell. Scalar parameters go through
`errors.require_positive` / `require_nonnegative`: finite, and > 0 (>= 0).
Vector parameters go through `errors.require_vector`: 1-D, with finite entries
and a finite norm. Neither rule takes a string or a bool, which float() would.
"""

import dataclasses
import inspect
import io
import math
import re
import tokenize
import types
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hele_homog
from hele_homog import (
    Medium,
    PerturbedContractingField,
    PlanarWave,
    Side,
    SimConfig,
    StripDomain,
    ValidationError,
    builtin_medium,
    check_superbarrier,
    cone_geometry,
    effective_velocity,
    estimate_bounds,
    expanding_barrier,
    harmonic_mean_oracle,
    hausdorff,
    homogenized_candidates,
    obstacle_front,
    parse_medium,
    traveling_wave_oracle,
    velocity_curve,
)
from hele_homog import homog1d, hs2d
from hele_homog import medium as medium_module
from hele_homog.errors import (require_finite, require_integer, require_nonnegative,
                               require_positive, require_steps, require_vector, shown)
from hele_homog.medium import BUILTIN_MEDIA, _admit

# g has period 2 in x; its twin with 2*pi has period 1
NON_PERIODIC, PERIODIC = "2 + sin(pi*x)", "2 + sin(2*pi*x)"

# diagnostics that report on any medium rather than solve with it
EXEMPT = {"estimate_bounds", "check_periodicity", "eval_scaled"}

_FIELD = PerturbedContractingField(2, M=1.2, mu=1.0, chi0=1.0, kappa=0.01)

# entry point -> (medium dimension, call with valid arguments apart from g)
ENTRY_POINTS = {
    "effective_velocity": (1, lambda g: effective_velocity(g, 1.0, T=10.0, dt=0.5)),
    "harmonic_mean_oracle": (1, lambda g: harmonic_mean_oracle(g, 1.0)),
    "traveling_wave_oracle": (1, lambda g: traveling_wave_oracle(g, 0.0, 1.0)),
    "obstacle_front": (1, lambda g: obstacle_front(g, q=1.0, r=0.5, eps=0.5,
                                                   side=Side.SUB, T=0.1)),
    "homogenized_candidates": (1, lambda g: homogenized_candidates(
        g, q=1.0, eps_list=(0.5,), T=0.1)),
    "velocity_curve": (1, lambda g: velocity_curve(g, 0.5, 1.0, 2, T=10.0, dt=0.5)),
    "SimConfig": (2, lambda g: SimConfig(domain=StripDomain(4.0, 1.0, 16, 8),
                                         medium=g, eps=0.5, psi0=1.0, T=0.1)),
    "check_superbarrier": (2, lambda g: check_superbarrier(
        _FIELD, g, [(np.array([0.6, 0.0]), -0.1)], c=1e-6)),
}


def takes_medium(obj) -> bool:
    """A parameter (or, for a dataclass, a field) annotated Medium."""
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return False
    return any(p.annotation in (Medium, "Medium") for p in params)


class TestEveryEntryPointAdmits:
    def test_table_covers_every_public_entry_point(self):
        found = {name for name in hele_homog.__all__
                 if callable(getattr(hele_homog, name))
                 and takes_medium(getattr(hele_homog, name))}
        assert EXEMPT <= found
        assert set(ENTRY_POINTS) == found - EXEMPT

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_rejects_a_non_periodic_medium(self, name):
        dim, call = ENTRY_POINTS[name]
        call(parse_medium(PERIODIC, dim))
        with pytest.raises(ValidationError, match="not 1-periodic"):
            call(parse_medium(NON_PERIODIC, dim))

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_rejects_the_wrong_dimension(self, name):
        dim, call = ENTRY_POINTS[name]
        with pytest.raises(ValidationError, match=f"got dim {3 - dim}$"):
            call(parse_medium(PERIODIC, 3 - dim))


# a public function that no command, bench job, demo or acceptance check
# calls does not pay for itself; these are exempt, each for its reason
UNUSED_PUBLIC = {
    "format_expr": "the printer of the public Medium.ast",
}


def _identifiers(paths) -> set:
    """The names in the files' code, and the string literals that are a name
    (the bench's tracer looks its layer functions up by name)."""
    names = set()
    for path in paths:
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME:
                names.add(tok.string)
            elif tok.type == tokenize.STRING and tok.string[1:-1].isidentifier():
                names.add(tok.string[1:-1])
    return names


class TestPublicNames:
    def test_all_is_sorted_and_lists_every_public_binding(self):
        bound = {name for name, value in vars(hele_homog).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert hele_homog.__all__ == sorted(bound)


class TestPublicFunctionsAreUsed:
    def test_every_public_function_has_a_caller(self):
        root = Path(__file__).resolve().parents[1]
        callers = [root / "src" / "hele_homog" / "cli.py", root / "tests" / "test_acceptance.py",
                   *sorted((root / "bench").glob("*.py")), *sorted((root / "demos").glob("*.py"))]
        used = _identifiers(callers)
        functions = {name for name in hele_homog.__all__
                     if callable(getattr(hele_homog, name))
                     and not inspect.isclass(getattr(hele_homog, name))}
        assert UNUSED_PUBLIC.keys() <= functions
        assert sorted(functions - used - UNUSED_PUBLIC.keys()) == []


class TestAdmit:
    @pytest.mark.parametrize("src, message", [
        ("sin(2*pi*x)", "not positive"),
        ("1 + sin(2*pi*x)", "not positive"),  # the sampled minimum is 0
        ("1/x", "non-finite"),
        ("sqrt(sin(pi*x)) + 1", "non-finite"),  # NaN on (1, 2) only
        ("exp(x^2)", "not 1-periodic"),
        ("2 + sin(2*pi*t/3)", "not 1-periodic"),
    ])
    def test_violations(self, src, message):
        with np.errstate(all="ignore"):
            with pytest.raises(ValidationError, match=message):
                _admit(parse_medium(src, 1), 1)

    @pytest.mark.parametrize("src", ["1/x{d}", "sqrt(sin(pi*x{d})) + 1"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_non_finite_sample_warns_nothing(self, src, dim):
        # 1/x is inf on the grid (the resolution-40 grid, or above dim 2 the
        # Kronecker points rounded down onto it); the sqrt is NaN only at
        # check_periodicity's shifts.
        # The finiteness checks report it; NumPy must not warn first
        g = parse_medium(src.format(d=dim if dim > 1 else ""), dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                _admit(g, dim)

    def test_dimension_messages(self):
        with pytest.raises(ValidationError,
                           match="needs a one-dimensional medium, got dim 2"):
            _admit(parse_medium("1", 2), 1)
        with pytest.raises(ValidationError, match="needs a dim-3 medium, got dim 2"):
            _admit(parse_medium("1", 2), 3)

    def test_returns_the_cfl_bounds(self):
        g = parse_medium("sin(pi*(x - t))^2 + 1", 2)
        assert _admit(g, 2) == medium_module.estimate_bounds(g, resolution=40)

    def test_is_sampled_not_certified(self):
        # g < 0 in a dip narrower than the 1/40 sample spacing: the
        # contract sees g = 1 everywhere and leaves the dip to the kernels
        g = parse_medium("1 - 1.5*exp(-100000*sin(pi*(x - 0.0123))^2)", 1)
        bounds = _admit(g, 1)
        assert bounds.m == bounds.M == 1.0
        assert g(0.0123, 0.0) == pytest.approx(-0.5)

    @pytest.mark.parametrize("dim", [3, 5])
    def test_samples_a_bounded_set_above_dim_two(self, dim, monkeypatch):
        # the resolution-40 grid of a dim-5 cell would hold 40^6 points
        monkeypatch.setattr(medium_module, "estimate_bounds", None)
        bounds = _admit(parse_medium(f"2 + sin(2*pi*(x{dim} - t))", dim), dim)
        assert 1.0 <= bounds.m < 1.01 and 2.99 < bounds.M <= 3.0
        for src, message in [(f"sin(2*pi*x{dim})", "not positive"),
                             (f"1/x{dim}", "non-finite"),
                             (f"2 + sin(pi*x{dim})", "not 1-periodic")]:
            with np.errstate(all="ignore"):
                with pytest.raises(ValidationError, match=message):
                    _admit(parse_medium(src, dim), dim)

    def test_dim3_sample_bounds_frozen(self):
        # pinned to the last bit: the sampled branch above dim 2
        src = "2 + sin(2*pi*(x1 - t))*cos(2*pi*x2)/3 + sin(2*pi*x3)^2/5"
        bounds = _admit(parse_medium(src, 3), 3)
        assert bounds.m == 1.6666666666666667
        assert bounds.M == 2.5333333333333337
        assert math.isnan(bounds.L) and bounds.resolution == 0

    def test_samples_once_per_medium(self, monkeypatch):
        calls = []
        sample = medium_module.estimate_bounds

        def counting(g, resolution=64):
            calls.append(resolution)
            return sample(g, resolution)

        monkeypatch.setattr(medium_module, "estimate_bounds", counting)
        g = parse_medium(PERIODIC, 1)
        for q in (0.5, 1.0, 2.0):
            obstacle_front(g, q=q, r=0.5, eps=0.5, side=Side.SUB, T=0.1)
        velocity_curve(g, 0.5, 1.0, 2, T=10.0, dt=0.5)
        assert calls == [40]
        # convergence_study re-creates its config once per eps
        config = ENTRY_POINTS["SimConfig"][1](parse_medium(PERIODIC, 2))
        for eps in (0.25, 0.125):
            dataclasses.replace(config, eps=eps)
        assert calls == [40, 40]


class TestParameterRule:
    def test_names_the_first_bad_value(self):
        with pytest.raises(ValidationError, match=r"^T must be > 0 and finite, got inf$"):
            require_positive(q=1.0, T=math.inf, dt=-1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan,
                                       "1", None, np.array([1.0]), 1j,
                                       np.array(-1.0), True, np.True_,
                                       np.array(True), pytest.param(10 ** 400, id="1e400"),
                                       pytest.param(-10 ** 400, id="-1e400"),
                                       pytest.param(b"1", id="bytes")])
    def test_require_positive_rejects(self, value):
        with pytest.raises(ValidationError, match="x must be > 0"):
            require_positive(x=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1e-300,
                                       pytest.param(10 ** 400, id="1e400")])
    def test_require_nonnegative_rejects(self, value):
        with pytest.raises(ValidationError, match="x must be >= 0"):
            require_nonnegative(x=value)

    @pytest.mark.parametrize("check, value, message", [
        # Python floats are tested as they are; the messages are unchanged
        (require_positive, math.nan, "x must be > 0 and finite, got nan"),
        (require_positive, math.inf, "x must be > 0 and finite, got inf"),
        (require_positive, -math.inf, "x must be > 0 and finite, got -inf"),
        (require_positive, 0.0, "x must be > 0 and finite, got 0.0"),
        (require_positive, -0.0, "x must be > 0 and finite, got -0.0"),
        (require_positive, -1.0, "x must be > 0 and finite, got -1.0"),
        (require_positive, 5e-324, None),
        (require_nonnegative, math.nan, "x must be >= 0 and finite, got nan"),
        (require_nonnegative, -math.inf, "x must be >= 0 and finite, got -inf"),
        (require_nonnegative, -1.0, "x must be >= 0 and finite, got -1.0"),
        (require_nonnegative, 0.0, None),
        (require_nonnegative, -0.0, None),
        (require_nonnegative, 5e-324, None),
        (require_finite, math.nan, "x must be real and finite, got nan"),
        (require_finite, math.inf, "x must be real and finite, got inf"),
        (require_finite, -math.inf, "x must be real and finite, got -inf"),
        (require_finite, -1.0, None),
        (require_finite, -0.0, None),
        # a float subclass takes the general path, to the same result
        (require_positive, np.float64(-1.0), "x must be > 0 and finite, got -1.0"),
        (require_positive, np.float64(math.nan), "x must be > 0 and finite, got nan"),
        (require_positive, np.float64(5e-324), None),
        # float() raises OverflowError on an int past the float range, which
        # once escaped the rule
        pytest.param(require_positive, 10 ** 400,
                     f"x must be > 0 and finite, got {10 ** 400}", id="positive-1e400"),
        pytest.param(require_finite, -10 ** 400,
                     f"x must be real and finite, got {-10 ** 400}", id="finite--1e400"),
        # a refused string or bytes is quoted, so that it does not read as a number
        pytest.param(require_positive, "1", "x must be > 0 and finite, got '1'", id="str"),
        pytest.param(require_finite, "1.0", "x must be real and finite, got '1.0'",
                     id="finite-str"),
        pytest.param(require_positive, b"1", "x must be > 0 and finite, got b'1'", id="bytes"),
        pytest.param(require_positive, True, "x must be > 0 and finite, got True", id="bool"),
    ])
    def test_exact_messages(self, check, value, message):
        if message is None:
            check(x=value)
        else:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                check(x=value)

    @pytest.mark.parametrize("value", [1, 0, -3, True, False, 2.0, 2.5, np.int64(3),
                                       "3", None, Fraction(3)])
    def test_require_integer_rejects(self, value):
        with pytest.raises(ValidationError,
                           match=rf"^n must be an integer >= 2, got {re.escape(repr(value))}$"):
            require_integer(2, n=value)

    @pytest.mark.parametrize("value", [[1.0, math.nan], [math.inf], [], [[1.0, 2.0]],
                                       [[1.0], [2.0, 3.0]], [1j, 1.0], None, "abc",
                                       [1.0, 2.0, 3.0],
                                       # bools and strings, as _require refuses them,
                                       # though NumPy would make floats of them
                                       [True, False], [True, 1.0], [np.True_, 1.0],
                                       [np.array(True), 1.0], np.array([True, False]),
                                       ["1.0", 2.0], np.array(["1", "2"]), "12",
                                       [b"1.0", 2.0]])
    def test_require_vector_rejects(self, value):
        with pytest.raises(ValidationError, match=r"^v must be a finite vector of dimension 2"):
            require_vector("v", value, dim=2)

    @pytest.mark.parametrize("build, message", [
        (lambda: SimConfig(domain=StripDomain(4.0, 1.0, 16, 8),
                           medium=parse_medium(PERIODIC, 2), eps=0.5, psi0=1.0, T=0.1, h0=True),
         "h0 must be a finite vector, got True"),
        (lambda: SimConfig(domain=StripDomain(4.0, 1.0, 16, 8),
                           medium=parse_medium(PERIODIC, 2), eps=0.5, psi0=1.0, T=0.1, h0="1.0"),
         "h0 must be a finite vector, got '1.0'"),
        (lambda: PlanarWave(q="1.5", r=1.0), "q must be a finite vector, got '1.5'"),
        (lambda: cone_geometry([True, False], 1, 1, 2),
         "q must be a finite vector, got [True, False]"),
    ], ids=["h0-bool", "h0-str", "q-str", "q-bools"])
    def test_vector_parameters_refuse_bools_and_strings(self, build, message):
        # a refused string is quoted, so that it does not read as a number
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    def test_require_vector_refuses_empty_and_zero(self):
        with pytest.raises(ValidationError, match=r"^v must be a finite vector, got \[\]$"):
            require_vector("v", [], nonzero=True)
        with pytest.raises(ValidationError, match="^v must be nonzero$"):
            require_vector("v", [0.0, -0.0], nonzero=True)
        assert require_vector("v", [0.0, -0.0]).tolist() == [0.0, -0.0]

    def test_require_vector_returns_a_float_vector(self):
        for value, want in [(2, [2.0]), ([1, -3], [1.0, -3.0]), (np.array([0.5, 0.0]), [0.5, 0.0]),
                            (np.float64(1e150), [1e150])]:
            v = require_vector("v", value, nonzero=True)
            assert v.dtype == float and v.ndim == 1 and v.tolist() == want

    @pytest.mark.parametrize("value", [np.float64(1e300), [1e308, 1e308], [1e200, 0.0]])
    def test_require_vector_refuses_an_overflowing_norm(self, value):
        # finite entries whose squares overflow: np.linalg.norm is inf, and a
        # unit normal q/|q| would be the zero vector
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^v must be a finite vector, got"):
                require_vector("v", value)

    @pytest.mark.parametrize("call", [
        lambda: require_positive(x=10 ** 5000),
        lambda: require_finite(x=-10 ** 5000),
        lambda: require_integer(1, x=-10 ** 5000),
        lambda: require_vector("q", [10 ** 5000, 1]),
        lambda: StripDomain(Lx=10 ** 5000, Ly=1.0, nx=16, ny=8),
        lambda: PlanarWave(q=[10 ** 400, 1], r=1.0),
        lambda: expanding_barrier(2, 1.0, 1.0, 10 ** 5000),
        lambda: velocity_curve(builtin_medium("pinning"), 0.5, 1.0, 2, T=10 ** 5000),
        lambda: velocity_curve(builtin_medium("pinning"), 0.5, 1.0, 2, T=-10 ** 5000),
        lambda: obstacle_front(builtin_medium("pinning"), q=1.0, r=0.5, eps=0.5,
                               side=Side.SUB, T=0.1, dt=-10 ** 5000),
        lambda: homogenized_candidates(builtin_medium("pinning"), q=1.0, eps_list=(0.5,),
                                       T=0.1, beta=10 ** 5000),
        lambda: hausdorff([[0.0, 1.0]], [[0.5, 1.0]], period=1.0, axis=10 ** 5000),
    ], ids=["positive", "finite", "integer", "vector", "StripDomain", "PlanarWave-1e400",
            "expanding-A", "curve-T", "curve-minus-T", "obstacle-dt", "candidates-beta",
            "hausdorff-axis"])
    def test_a_huge_int_is_a_validation_error(self, call):
        # an int past the float range, which once escaped as OverflowError, or
        # past Python's 4300-digit int-to-str limit, where the error message
        # itself raised ValueError
        with pytest.raises(ValidationError):
            call()

    def test_shown_never_raises(self):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("no")

        assert shown(1.5) == "1.5" and shown("n", repr) == "'n'"
        assert shown(Unprintable()) == "<Unprintable that cannot be printed>"
        assert isinstance(shown(10 ** 5000), str)  # past the int-to-str limit of Python 3.11

    def test_accepts(self):
        require_integer(2, a=2, b=10 ** 30)
        require_positive(a=1e-300, b=3, c=np.float64(1e300), d=np.array(0.5),
                         e=Fraction(1, 2), f=Decimal("0.5"))
        require_nonnegative(a=0.0, b=0, c=2.5, d=np.array(0.0))


_PINNING = "sin(pi*(x - t))^2 + 1"


class TestStepCountRule:
    """A time grid of more than 2**52 steps is refused before its step count
    is rounded, where an infinite T/dt raised OverflowError."""

    @pytest.mark.parametrize("call, T, dt", [
        (lambda g: effective_velocity(g, 1.0, T=1e308), "1e+308", "0.01"),
        (lambda g: velocity_curve(g, 0.5, 1.0, 3, T=1e308), "1e+308", "0.02"),
        (lambda g: velocity_curve(g, 0.5, 1.0, 3, dt=1e-310), "200.0", "1e-310"),
        (lambda g: obstacle_front(g, 1.0, 1.0, 0.1, Side.SUPER, T=1e308), "1e+308", "0.005"),
        (lambda g: homogenized_candidates(g, 1.0, T=1e308), "1e+308", "0.00025"),
    ], ids=["effective_velocity", "averages_T", "averages_dt", "obstacle_front",
            "homogenized_candidates"])
    def test_entry_point_refuses_the_grid(self, call, T, dt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(
                    f"T/dt must be at most 2**52 steps, got T = {T}, dt = {dt}")):
                call(parse_medium(_PINNING, 1))

    def test_bound(self):
        require_steps(2.0 ** 52, 1.0)
        require_steps(1e10, 1e-5)
        for T, dt in ((2.0 ** 53, 1.0), (1.0, 1e-310), (1e308, 1e-10),
                      (np.float64(1e300), 1e-300)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="^T/dt must be at most 2"):
                    require_steps(T, dt)


class _Stop(Exception):
    """Ends a spied run once its step is recorded."""


class TestOneStepRule:
    """Every explicit stepper takes medium._resolved_step: no step moves the
    front more than _THETA = 1/4 of a period of g in x (speed bound times
    step) or in t (the step), in 1D and in 2D."""

    THETA = medium_module._THETA
    MEDIA_1D = ("pinning", "antipinning", "two_wave", "static_sin")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(name=st.sampled_from(MEDIA_1D),
           q=st.floats(0.01, 100.0, exclude_min=True, exclude_max=True),
           dt=st.floats(1e-3, 1.0, exclude_min=True))
    def test_1d_steppers(self, name, q, dt):
        g, ulp = builtin_medium(name), 1.0 + 1e-12
        used, M = g._variables, _admit(g, 1).M
        periods, clipped, original = [], [], homog1d._tables

        def tables(fn, rows, n, *args):
            periods.append(n)
            return original(fn, rows, n, *args)

        def stop(*args, **kwargs):
            clipped.append(args[3:7])  # eps, side, T, steps
            raise _Stop

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homog1d, "_tables", tables)
            mp.setattr(homog1d, "_clipped", stop)
            effective_velocity(g, q, T=10.0, dt=dt)
            for call in (lambda: homogenized_candidates(g, q),
                         lambda: obstacle_front(g, q, q, 0.05, Side.SUB)):
                with pytest.raises(_Stop):
                    call()
        # the RK4 rows: n steps per period, at least round(1/dt)
        (n,) = periods
        assert n >= round(1.0 / dt) and q * M / n <= self.THETA * ulp
        assert "t" not in used or n >= 4
        # the candidates' clipped run at eps = 1 (M at resolution 80), and
        # obstacle_front's default step at eps = 0.05 (T/steps, never above it)
        (_, _, T, K), (_, _, T_o, K_o) = clipped
        for step, speed, eps in ((T / K, q * estimate_bounds(g, 80).M, 1.0),
                                 (T_o / K_o, q * M, 0.05)):
            assert step <= eps / 20.0 * ulp
            assert "x1" not in used or step * speed <= self.THETA * eps * ulp
            assert "t" not in used or step <= self.THETA * eps * ulp

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(name=st.sampled_from(MEDIA_1D), psi0=st.floats(0.1, 100.0),
           eps=st.floats(1e-3, 1.0), curved=st.booleans())
    def test_2d_step_size(self, name, psi0, eps, curved):
        # the builtins read as 2D media that do not use y; a flat front
        # takes the one-height kernel, a curved one _velocity
        g = parse_medium(BUILTIN_MEDIA[name][0], 2)
        domain = StripDomain(2.0, 1.0, 16, 8)
        h0 = 1.0 + 0.1 * np.cos(2.0 * np.pi * domain.y_nodes) if curved else 1.0
        config = SimConfig(domain=domain, medium=g, eps=eps, psi0=psi0, T=1.0, h0=h0)
        state = config.initial_front()
        slope_max = hs2d._velocity(config, state.heights, 0.0)[1]
        velocity = hs2d._velocity if curved else hs2d._one_height_velocity
        dt = hs2d._advance(state, config, velocity)[1]
        peak = _admit(g, 2).M * slope_max
        assert "x1" not in g._variables or dt * peak <= self.THETA * eps
        assert "t" not in g._variables or dt <= self.THETA * eps
