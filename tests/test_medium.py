"""Tests for the mobility-expression parser and sampled medium diagnostics."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hele_homog import (
    BUILTIN_MEDIA,
    ExpressionError,
    Medium,
    ValidationError,
    builtin_medium,
    check_periodicity,
    estimate_bounds,
    eval_scaled,
    format_expr,
    parse_medium,
)
from hele_homog.medium import (_FUNCS1, _FUNCS2, Bin, Call, Neg, Num, Var, _compile,
                                _compile_float)


# ---------------------------------------------------------------------------
# Parsing and evaluation
# ---------------------------------------------------------------------------

class TestParse:
    def test_constant(self):
        g = parse_medium("2", dim=1)
        assert g(0.3, 0.7) == 2.0

    def test_arithmetic(self):
        g = parse_medium("1 + 2*3 - 4/8", dim=1)
        assert g(0.0, 0.0) == 6.5

    def test_power_right_associative(self):
        g = parse_medium("2^3^2", dim=1)
        assert g(0.0, 0.0) == 512.0

    def test_unary_minus_and_power(self):
        # -x^2 parses as -(x^2)
        g = parse_medium("-x^2 + 5", dim=1)
        assert g(2.0, 0.0) == 1.0

    def test_variables_dim1(self):
        g = parse_medium("x1 + 10*t", dim=1)
        assert g(0.25, 0.5) == pytest.approx(5.25)

    def test_x_alias_dim1(self):
        g = parse_medium("x + t", dim=1)
        h = parse_medium("x1 + t", dim=1)
        assert g(0.3, 0.4) == h(0.3, 0.4)

    def test_xy_aliases_dim2(self):
        g = parse_medium("x + 10*y + 100*t", dim=2)
        h = parse_medium("x1 + 10*x2 + 100*t", dim=2)
        pt = np.array([0.2, 0.3])
        assert g(pt, 0.5) == h(pt, 0.5) == pytest.approx(0.2 + 3.0 + 50.0)

    def test_pi_constant(self):
        g = parse_medium("pi", dim=1)
        assert g(0.0, 0.0) == math.pi

    def test_functions(self):
        g = parse_medium("sin(pi/2) + cos(0) + exp(0) + sqrt(4) + abs(-3)", dim=1)
        assert g(0.0, 0.0) == pytest.approx(8.0)

    def test_min_max(self):
        g = parse_medium("min(x, t) + max(x, t)", dim=1)
        assert g(0.2, 0.7) == pytest.approx(0.9)

    def test_vectorized_eval(self):
        g = parse_medium("sin(pi*(x - t))^2 + 1", dim=1)
        xs = np.linspace(0.0, 1.0, 7)
        vals = g(xs, 0.0)
        assert vals.shape == xs.shape
        assert np.allclose(vals, np.sin(np.pi * xs) ** 2 + 1)

    def test_dim2_point_eval(self):
        g = parse_medium("x^2 + y^2 + t", dim=2)
        assert g(np.array([3.0, 4.0]), 1.0) == pytest.approx(26.0)


class TestParseErrors:
    def test_truncated_expression_offset(self):
        with pytest.raises(ExpressionError, match=r"byte offset 2"):
            parse_medium("1+", dim=1)

    def test_bad_character_offset(self):
        with pytest.raises(ExpressionError, match=r"byte offset 4"):
            parse_medium("1 + $", dim=1)

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="foo"):
            parse_medium("foo(1)", dim=1)

    def test_unknown_variable(self):
        with pytest.raises(ExpressionError):
            parse_medium("z + 1", dim=1)

    def test_y_rejected_in_dim1(self):
        with pytest.raises(ExpressionError):
            parse_medium("y + 1", dim=1)

    def test_x2_rejected_in_dim1(self):
        with pytest.raises(ExpressionError):
            parse_medium("x2 + 1", dim=1)

    def test_wrong_arity(self):
        with pytest.raises(ExpressionError):
            parse_medium("sin(1, 2)", dim=1)
        with pytest.raises(ExpressionError):
            parse_medium("min(1)", dim=1)

    @pytest.mark.parametrize("src", [
        "sin(" * 165 + "x" + ")" * 165,
        "(" * 200 + "x" + ")" * 200,
        "+".join(["x"] * 5000),
    ], ids=["calls165", "parens200", "sum5000"])
    def test_too_deep_is_expression_error(self, src):
        # Python's recursion limit or its parenthesis limit, never a traceback;
        # a flat chain meets the limit only in Python's own compiler
        with pytest.raises(ExpressionError, match="nested too deeply"):
            parse_medium(src, dim=1)

    def test_python_parenthesis_limit_is_expression_error(self):
        # with a raised recursion limit the parser gets through 250 levels,
        # and compiling the evaluator meets Python's 200-parenthesis limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(4000)
        try:
            with pytest.raises(ExpressionError, match="nested too deeply"):
                parse_medium("-(x+" * 250 + "x" + ")" * 250, dim=1)
        finally:
            sys.setrecursionlimit(limit)

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionError):
            parse_medium("(1 + 2", dim=1)

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_medium("1 + 2 )", dim=1)

    def test_empty(self):
        with pytest.raises(ValidationError):
            parse_medium("", dim=1)

    def test_bad_dim(self):
        with pytest.raises(ValidationError):
            parse_medium("1", dim=0)
        for dim in (True, 1.0, np.int64(1)):
            with pytest.raises(ValidationError, match="dim must be an integer"):
                parse_medium("x", dim)

    def test_expression_error_is_validation_error(self):
        assert issubclass(ExpressionError, ValidationError)


# ---------------------------------------------------------------------------
# Round-tripping through format_expr
# ---------------------------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False).map(lambda v: f"{v:.3f}"),
    st.sampled_from(["x", "t", "pi"]),
)


@st.composite
def _expr_strings(draw, depth=0):
    if depth >= 3:
        return draw(_leaf)
    kind = draw(st.integers(min_value=0, max_value=6))
    if kind == 0:
        return draw(_leaf)
    if kind == 1:
        a = draw(_expr_strings(depth=depth + 1))  # noqa: B023 - recursion
        return f"-({a})"
    if kind in (2, 3, 4):
        op = {2: "+", 3: "*", 4: "-"}[kind]
        a = draw(_expr_strings(depth=depth + 1))
        b = draw(_expr_strings(depth=depth + 1))
        return f"({a}) {op} ({b})"
    if kind == 5:
        f = draw(st.sampled_from(["sin", "cos", "abs"]))
        a = draw(_expr_strings(depth=depth + 1))
        return f"{f}({a})"
    a = draw(_expr_strings(depth=depth + 1))
    b = draw(_expr_strings(depth=depth + 1))
    return f"max({a}, {b})"


class TestFormatRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(src=_expr_strings())
    def test_parse_format_parse_fixpoint(self, src):
        g1 = parse_medium(src, dim=1)
        text = format_expr(g1.ast)
        g2 = parse_medium(text, dim=1)
        assert format_expr(g2.ast) == text
        for x, t in [(0.0, 0.0), (0.3, 0.7), (1.4, -0.2)]:
            v1, v2 = g1(x, t), g2(x, t)
            assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))

    @pytest.mark.parametrize("src,text", [
        ("1e999", "1e999"),
        ("2 - 1e999*x", "2.0 - 1e999 * x1"),
    ])
    def test_infinite_literal_round_trip(self, src, text):
        # repr(inf) is 'inf', which does not parse back
        g = parse_medium(src, dim=1)
        assert format_expr(g.ast) == text
        assert parse_medium(text, dim=1).ast == g.ast

    def test_builtin_sources_round_trip(self):
        for name, (src, dim) in BUILTIN_MEDIA.items():
            g = parse_medium(src, dim)
            again = parse_medium(format_expr(g.ast), dim)
            xs = np.linspace(0.0, 1.0, 5)
            if dim == 1:
                assert np.allclose(g(xs, 0.3), again(xs, 0.3))
            else:
                pt = np.array([0.2, 0.6])
                assert g(pt, 0.3) == again(pt, 0.3)


# ---------------------------------------------------------------------------
# Generated evaluator against the closure-tree reference
# ---------------------------------------------------------------------------

_REF_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
              "abs": np.abs, "min": np.minimum, "max": np.maximum}


def reference_compile(node):
    """The closure-tree compiler the generated evaluator replaced."""
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        if node.name == "pi":
            return lambda env: math.pi
        name = node.name
        return lambda env: env[name]
    if isinstance(node, Neg):
        f = reference_compile(node.arg)
        return lambda env: -f(env)
    if isinstance(node, Bin):
        lf, rf = reference_compile(node.left), reference_compile(node.right)
        op = node.op
        if op == "+":
            return lambda env: lf(env) + rf(env)
        if op == "-":
            return lambda env: lf(env) - rf(env)
        if op == "*":
            return lambda env: lf(env) * rf(env)
        if op == "/":
            return lambda env: lf(env) / rf(env)
        if op == "^":
            return lambda env: lf(env) ** rf(env)
    if isinstance(node, Call):
        fn = _REF_FUNCS[node.fn]
        fargs = [reference_compile(a) for a in node.args]
        if len(fargs) == 1:
            f0 = fargs[0]
            return lambda env: fn(f0(env))
        f0, f1 = fargs
        return lambda env: fn(f0(env), f1(env))
    raise TypeError(f"unknown node {node!r}")


def _outcome(fn, env):
    """Result type, shape and bytes of fn(env), or the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            out = fn(env)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    arr = np.asarray(out)
    return type(out), arr.dtype, arr.shape, arr.tobytes()


def _envs(dim):
    """Python-float, 0-d and broadcast-grid environments over dim + 1 axes."""
    names = [f"x{i + 1}" for i in range(dim)] + ["t"]
    points = [dict(zip(names, vals))
              for vals in ([0.3, -0.7, 1.9, 0.0][: dim + 1],
                           [-1.25, 2.5, 0.5, 1e-3][: dim + 1])]
    axes = np.linspace(-1.5, 1.5, 5)
    grids = np.meshgrid(*([axes] * (dim + 1)), indexing="ij", sparse=True)
    return points + [{k: np.asarray(v) for k, v in points[0].items()},
                     dict(zip(names, grids))]


def _nodes(dim):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=4.0).map(Num),
        st.floats(min_value=0.0, allow_nan=False).map(Num),
        st.sampled_from([f"x{i + 1}" for i in range(dim)] + ["t", "pi"]).map(Var),
    )

    def extend(kids):
        return st.one_of(
            kids.map(Neg),
            st.builds(Bin, st.sampled_from("+-*/^"), kids, kids),
            st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(sorted(_FUNCS1)), kids),
            st.builds(lambda f, a, b: Call(f, (a, b)),
                      st.sampled_from(sorted(_FUNCS2)), kids, kids),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestGeneratedEvaluator:
    @settings(max_examples=200, deadline=None)
    @given(case=st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: st.tuples(st.just(dim), _nodes(dim))))
    def test_matches_closure_tree_bit_for_bit(self, case):
        dim, node = case
        fn, ref = _compile(node, dim), reference_compile(node)
        for env in _envs(dim):
            assert _outcome(lambda env: fn(**env), env) == _outcome(ref, env)

    @pytest.mark.parametrize("src", [
        "1e999",
        "1e999 - x^2",
        "min(1e999, 1/x) + 0*t",
        "sqrt(sin(pi*x)) + 1",
        "(x + 1)*(t - 2)/(x - t)^2^(1/2) - -(x - 1) - (t - (x - 2))",
        "+".join(["x"] * 300),
        "*".join(["1.0001"] * 300) + " / t",
        "-" * 300 + "x",
        "^".join(["1"] * 250),
        "-(x+" * 100 + "x" + ")" * 100 + " + 2000",
    ], ids=["inf", "inf-minus", "min-inf", "nan-region", "grouping", "sum300", "product300",
            "neg300", "power250", "negsum100"])
    def test_explicit_sources(self, src):
        # the long chains nest deeper than Python's 200 parenthesis levels
        # if every operation is wrapped
        node = parse_medium(src, dim=1).ast
        fn, ref = _compile(node, 1), reference_compile(node)
        for env in _envs(1):
            assert _outcome(lambda env: fn(**env), env) == _outcome(ref, env)

    @pytest.mark.parametrize("op, terms", [
        ("+", ["x1", "t"] * 1000),
        ("-", ["x1", "0.5", "t", "x1"] * 500),
        ("*", ["1.0001"] * 1998 + ["x1", "t"]),
    ], ids=["sum2000", "difference2000", "product2000"])
    def test_flat_chain_of_2000_terms(self, op, terms):
        # the printer walks a chain's left spine in a loop, so only the
        # closure-tree reference needs the raised recursion limit
        src = f" {op} ".join(terms)
        node = parse_medium(src, dim=1).ast
        assert format_expr(node) == src
        fn = _compile(node, 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10000)
        try:
            ref = reference_compile(node)
            for env in _envs(1):
                assert _outcome(lambda env: fn(**env), env) == _outcome(ref, env)
        finally:
            sys.setrecursionlimit(limit)

    @settings(max_examples=100, deadline=None)
    @given(case=st.integers(min_value=2, max_value=3).flatmap(
        lambda dim: st.tuples(st.just(dim), _nodes(dim))))
    def test_public_call_matches_closure_tree(self, case):
        # g(points, t) with the coordinates stacked on the last axis
        dim, node = case
        g = Medium(dim=dim, source="", ast=node, _fn=_compile(node, dim))
        ref = reference_compile(node)
        names = [f"x{i + 1}" for i in range(dim)] + ["t"]
        for env in _envs(dim):
            arrays = np.broadcast_arrays(*(np.asarray(env[k], dtype=float) for k in names))
            got = _outcome(lambda _: np.asarray(g(np.stack(arrays[:-1], -1), arrays[-1])),
                           None)
            want = _outcome(lambda _: np.asarray(ref(dict(zip(names, arrays))), dtype=float),
                            None)
            assert got == want
        with pytest.raises(ValidationError, match=f"point has {dim + 1} coordinates"):
            g(np.zeros((4, dim + 1)), 0.0)
        with pytest.raises(ValidationError, match="point has 1 coordinates"):
            g(0.5, 0.0)

    def test_no_builtins_reachable(self):
        assert _compile(Var("pi")).__globals__["__builtins__"] == {}


# ---------------------------------------------------------------------------
# The float kernel against the NumPy kernel on Python floats
# ---------------------------------------------------------------------------

def _kernels(node, dim):
    """The float kernel of a Medium and the NumPy kernel it must reproduce."""
    fn = _compile(node, dim)
    return Medium(dim=dim, source="", ast=node, _fn=fn)._float_fn, fn


def _float_outcomes(kernel, fn, env):
    """_outcome of the float kernel and of float(fn) on env; here a TypeError
    is float() refusing the complex that '**' makes of a negative base, on
    either side."""
    def outcome(f):
        try:
            return _outcome(lambda env: f(**env), env)
        except TypeError as exc:
            return type(exc)
    return outcome(kernel), outcome(lambda **env: float(fn(**env)))


_FLOAT_POINTS = [{"x1": x, "t": t}
                 for x in (-1.5, -0.7, -0.0, 0.0, 1e-300, 0.3, 1.0, 1.9, 2.0, 2.5)
                 for t in (-1.25, 0.0, 0.5)]


@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
class TestFloatKernel:
    @settings(max_examples=200, deadline=None)
    @given(case=st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: st.tuples(st.just(dim), _nodes(dim))))
    def test_matches_numpy_kernel_bit_for_bit(self, case):
        dim, node = case
        kernel, fn = _kernels(node, dim)
        for env in _envs(dim)[:2]:  # the Python-float environments
            got, want = _float_outcomes(kernel, fn, env)
            assert got == want

    @pytest.mark.parametrize("src", [
        "min(1e999, 1/x) + 0*t",
        "sqrt(sin(pi*x)) + 1",
        "(x - 2)^0.5",
        "(sin(x) - 2)^0.5",
        "exp(1000*x)",
        "1/(1/x)",
        "min((sin(x)+10)^400, 5)",
        "x^t",
        "abs((sin(x) - 2)^0.5)",
        "exp((sin(x) - 2)^0.5) + 0*t",
        "max(sin(x) - 2, 0)^1.5 + min(t, 1e999)",
    ], ids=["min-inf", "nan-region", "complex-power", "nan-power", "exp-overflow", "zero-division",
            "overflow-then-min", "power-of-t", "abs-of-complex", "exp-of-complex",
            "max-power"])
    def test_explicit_sources(self, src):
        # NumPy's inf and NaN semantics, Python's exceptions and complex powers
        kernel, fn = _kernels(parse_medium(src, dim=1).ast, 1)
        for env in _FLOAT_POINTS:
            got, want = _float_outcomes(kernel, fn, env)
            assert got == want

    @pytest.mark.parametrize("src", ["sin(x)*1e308*10", "sin(x)*1e999 - 1e999"])
    def test_nonfinite_values_keep_numpy_error_state(self, src):
        # Python's float arithmetic makes this inf or NaN silently; NumPy's
        # error state decides what the NumPy kernel does with it
        kernel, fn = _kernels(parse_medium(src, dim=1).ast, 1)
        with np.errstate(all="raise"):
            for f in (fn, kernel):
                with pytest.raises(FloatingPointError):
                    f(0.3, 0.0)

    def test_intermediate_overflow_escapes_numpy_error_state(self):
        # the limit of the contract: an inf that a later operation removes
        # leaves a finite value, so the float kernel never falls back and
        # returns the same value with no warning, where the NumPy kernel
        # overflows on np.float64 and raises under errstate(all="raise")
        kernel, fn = _kernels(parse_medium("2 + 1/(1 + sin(x)*1e308*10)", dim=1).ast, 1)
        with np.errstate(all="ignore"):
            want = float(fn(0.3, 0.0))
        with np.errstate(all="raise"):
            with pytest.raises(FloatingPointError):
                fn(0.3, 0.0)
            assert kernel(0.3, 0.0) == want == 2.0

    @pytest.mark.parametrize("src, dim", [
        *BUILTIN_MEDIA.values(),
        ("exp(cos(2*pi*x)) * abs(sin(pi*t)) + max(sqrt(x^2 + 1), min(x, t)) - 1/(2 + x^2)", 1),
        ("cos(pi*x1*x2)^3 + sqrt(abs(x3 - t)) / (1 + exp(-x1))", 3),
    ], ids=[*BUILTIN_MEDIA, "every-function", "dim3"])
    def test_stays_on_floats(self, src, dim):
        # a float kernel that always fell back would pass every equality test
        # and save nothing: on finite values no call may reach the NumPy kernel
        g = parse_medium(src, dim)
        fallbacks = []

        def numpy_kernel(*coords):
            fallbacks.append(coords)
            return g._fn(*coords)

        kernel = _compile_float(g.ast, dim, numpy_kernel)
        points = np.random.default_rng(0).uniform(-50.0, 50.0, (10_000, dim + 1)).tolist()
        values = np.array([kernel(*p) for p in points])
        assert fallbacks == []
        assert values.tobytes() == np.array([float(g._fn(*p)) for p in points]).tobytes()

    def test_too_deep_to_compile_again_keeps_the_contract(self):
        # the compiler's limit falls with the calling stack's depth: under a
        # limit just above it the float kernel is float(g._fn(...)) itself
        g = parse_medium(" + ".join(["sin(x)"] * 1000) + " + t", dim=1)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            kernel = g._float_fn
        finally:
            sys.setrecursionlimit(limit)
        assert kernel.__name__ == "<lambda>"
        assert kernel(0.3, 0.1) == float(g._fn(0.3, 0.1))
        assert parse_medium("1 + x", dim=1)._float_fn.__name__ == "kernel"

    def test_no_builtins_reachable(self):
        kernel, _ = _kernels(Var("pi"), 1)
        assert kernel.__globals__["__builtins__"] == {}
        assert set(_FUNCS1) | set(_FUNCS2) <= set(kernel.__globals__)


# ---------------------------------------------------------------------------
# Builtins, scaling, bounds, periodicity
# ---------------------------------------------------------------------------

class TestBuiltins:
    def test_catalogue(self):
        assert set(BUILTIN_MEDIA) == {
            "pinning", "antipinning", "two_wave", "static_sin", "pinning2d",
        }

    def test_builtin_medium_lookup(self):
        g = builtin_medium("pinning")
        assert g.dim == 1
        assert g(0.5, 0.0) == pytest.approx(2.0)

    def test_unknown_builtin(self):
        with pytest.raises(ValidationError):
            builtin_medium("nope")

    def test_pinning_values(self):
        g = builtin_medium("pinning")
        # sin(pi(x-t))^2 + 1: traveling profile, speed 1.
        assert g(0.0, 0.0) == pytest.approx(1.0)
        assert g(0.25, 0.0) == pytest.approx(1.5)
        assert g(0.7, 0.7) == pytest.approx(1.0)

    def test_two_wave_value(self):
        g = builtin_medium("two_wave")
        x, t = 0.13, 0.41
        expect = math.sin(2 * math.pi * (x - 3 * t)) * math.sin(2 * math.pi * (2 * t + x)) + 1.1
        assert g(x, t) == pytest.approx(expect, abs=1e-14)


class TestEvalScaled:
    def test_scaling(self):
        g = parse_medium("x + t", dim=1)
        # g(x/eps, t/eps) with eps = 0.5: (0.25 + 0.75)/0.5 = 2.0
        assert eval_scaled(g, 0.5, 0.25, 0.75) == pytest.approx(2.0)

    def test_eps_one_identity(self):
        g = builtin_medium("pinning")
        xs = np.linspace(0, 2, 9)
        assert np.allclose(eval_scaled(g, 1.0, xs, 0.3), g(xs, 0.3))

    def test_bad_eps(self):
        g = parse_medium("1", dim=1)
        with pytest.raises(ValidationError):
            eval_scaled(g, 0.0, 0.1, 0.1)


class TestBounds:
    def test_constant(self):
        b = estimate_bounds(parse_medium("3", dim=1), resolution=16)
        assert b.m == b.M == 3.0
        assert b.L == 0.0

    def test_two_wave_exact_on_aligned_grid(self):
        # Extrema of the product-of-waves profile land on the grid when the
        # resolution is a multiple of 20.
        b = estimate_bounds(builtin_medium("two_wave"), resolution=40)
        assert b.m == pytest.approx(0.1, abs=1e-12)
        assert b.M == pytest.approx(2.1, abs=1e-12)

    def test_pinning_bounds(self):
        b = estimate_bounds(builtin_medium("pinning"), resolution=64)
        assert b.m == pytest.approx(1.0, abs=1e-12)
        assert b.M == pytest.approx(2.0, abs=1e-12)
        # |d/dx sin^2(pi x)| peaks at pi.
        assert b.L == pytest.approx(math.pi, rel=1e-2)

    def test_dim2_bounds(self):
        b = estimate_bounds(builtin_medium("pinning2d"), resolution=32)
        assert b.m == pytest.approx(1.0, abs=1e-12)
        assert b.M == pytest.approx(2.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            estimate_bounds(parse_medium("sin(2*pi*x)", dim=1), resolution=16)

    def test_bad_resolution(self):
        with pytest.raises(ValidationError):
            estimate_bounds(parse_medium("1", dim=1), resolution=1)
        for resolution in (8.5, True, np.int64(16)):
            with pytest.raises(ValidationError, match="resolution must be an integer"):
                estimate_bounds(parse_medium("1", dim=1), resolution=resolution)


class TestPeriodicity:
    def test_builtins_periodic(self):
        for name in BUILTIN_MEDIA:
            rep = check_periodicity(builtin_medium(name))
            assert rep.max_deviation <= 1e-12, name

    def test_nonperiodic_detected(self):
        rep = check_periodicity(parse_medium("x + 2", dim=1))
        assert rep.max_deviation > 0.5

    def test_trials_recorded(self):
        rep = check_periodicity(builtin_medium("pinning"), trials=5)
        assert rep.trials == 5

    def test_bad_trials(self):
        with pytest.raises(ValidationError):
            check_periodicity(builtin_medium("pinning"), trials=0)
        for trials in (2.5, True, np.int64(4)):
            with pytest.raises(ValidationError, match="trials must be an integer"):
                check_periodicity(builtin_medium("pinning"), trials=trials)

    def test_builtin_deviations_frozen(self):
        # pinned to the last bit: each shift must keep every float operation of g
        frozen = {"pinning": 6.661338147750939e-16, "antipinning": 1.1102230246251565e-15,
                  "two_wave": 3.3306690738754696e-15, "static_sin": 8.881784197001252e-16,
                  "pinning2d": 6.661338147750939e-16}
        for name, deviation in frozen.items():
            assert check_periodicity(builtin_medium(name)).max_deviation == deviation

    def test_nonfinite_rejected(self):
        # NaN on (1, 2): the unit shift of x lands there, and a max over
        # deviations that drops NaN would report 0.0
        g = parse_medium("sqrt(sin(pi*x)) + 1", dim=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValidationError, match="non-finite"):
                check_periodicity(g)
