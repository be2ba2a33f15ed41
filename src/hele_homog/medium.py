"""Space-time periodic speed media g(x, t).

A medium is a strictly positive scalar field on R^n x R, periodic with
period 1 in every space coordinate and in time, given by a parsed
arithmetic expression. One printer renders the parsed AST as three texts:
the formatted expression, a positional NumPy kernel (x1, ..., xn, t) -> g that
broadcasts, and a float kernel for Python-float arguments that returns the
value the NumPy kernel returns on them, without NumPy scalar arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Union

import numpy as np

from .errors import ExpressionError, ValidationError, require_integer, require_positive

# Expression grammar (every binary op left-associative except '^'):
#
#   expr   := term  (('+' | '-') term)*      level 1 of _PREC
#   term   := unary (('*' | '/') unary)*     level 2 of _PREC
#   unary  := '-' unary | power
#   power  := atom ('^' unary)?        right-associative, binds above unary '-'
#   atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'
#
# IDENT is a space variable x1..xn (aliases: x for n <= 2, y for n = 2),
# the time variable t, the constant pi, or a function name.

# precedence levels of the parser's binary chains and of the printer; '^'
# re-parses correctly with these
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}

_FUNCS1 = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_FUNCS2 = {
    "min": np.minimum,
    "max": np.maximum,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, Bin, Call]


def _byte_offset(src: str, charpos: int) -> int:
    return len(src[:charpos].encode("utf-8"))


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Scan src into (kind, text, charpos) triples; kinds NUM/IDENT/OP/END,
    and BAD for a character that starts no token, which is an error."""
    tokens = []
    for match in re.finditer(r"\s*(?:(?P<NUM>[\d.]+(?:[eE][+-]?\d+)?)|(?P<IDENT>[^\W\d]\w*)"
                             r"|(?P<OP>[-+*/^(),])|(?P<END>\Z)|(?P<BAD>.))", src, re.S):
        kind = match.lastgroup
        text, pos = match[kind], match.start(kind)
        if kind == "BAD":
            raise ExpressionError(f"unexpected character {text!r}", _byte_offset(src, pos))
        if kind == "NUM":
            try:
                float(text)
            except ValueError:
                raise ExpressionError(f"bad number {text!r}", _byte_offset(src, pos))
        tokens.append((kind, text, pos))
        if kind == "END":
            return tokens


class _Parser:
    def __init__(self, src: str, dim: int):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        # canonical variable names plus dimension-gated aliases
        names = {f"x{i + 1}": f"x{i + 1}" for i in range(dim)}
        names["t"] = "t"
        if dim <= 2:
            names["x"] = "x1"
        if dim == 2:
            names["y"] = "x2"
        self.varmap = names

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ExpressionError(message, _byte_offset(self.src, tok[2]))

    def parse(self) -> Node:
        node = self.expr()
        kind, text, _ = self.peek()
        if kind != "END":
            self.fail(f"unexpected token {text!r}")
        return node

    def expr(self, level: int = 1) -> Node:
        """A left-associative chain of the binary operators at this level of
        _PREC, whose operands are the next level's: a chain, or a unary."""
        last = level + 1 == _PREC["neg"]
        node = self.unary() if last else self.expr(level + 1)
        while (tok := self.peek())[0] == "OP" and _PREC.get(tok[1]) == level:
            self.advance()
            node = Bin(tok[1], node, self.unary() if last else self.expr(level + 1))
        return node

    def unary(self) -> Node:
        if self.peek()[:2] == ("OP", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek()[:2] == ("OP", "^"):
            self.advance()
            node = Bin("^", node, self.unary())
        return node

    def atom(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "NUM":
            self.advance()
            return Num(float(text))
        if kind == "IDENT":
            tok = self.advance()
            name = tok[1]
            if self.peek()[:2] == ("OP", "("):
                return self.call(name, tok)
            if name == "pi":
                return Var("pi")
            if name in self.varmap:
                return Var(self.varmap[name])
            if name in _FUNCS1 or name in _FUNCS2:
                self.fail(f"expected '(' after function name {name!r}", tok)
            self.fail(f"unknown identifier {name!r}", tok)
        if kind == "OP" and text == "(":
            self.advance()
            node = self.expr()
            if self.peek()[:2] != ("OP", ")"):
                self.fail("expected ')'")
            self.advance()
            return node
        if kind == "END":
            self.fail("unexpected end of expression")
        self.fail(f"unexpected token {text!r}")

    def call(self, name: str, tok) -> Node:
        if name not in _FUNCS1 and name not in _FUNCS2:
            self.fail(f"unknown function {name!r}", tok)
        self.advance()  # '('
        args = [self.expr()]
        while self.peek()[:2] == ("OP", ","):
            self.advance()
            args.append(self.expr())
        if self.peek()[:2] != ("OP", ")"):
            self.fail("expected ')' in call arguments")
        self.advance()
        arity = 1 if name in _FUNCS1 else 2
        if len(args) != arity:
            self.fail(f"{name} takes {arity} argument(s), got {len(args)}", tok)
        return Call(name, tuple(args))


# The generated evaluator sees only these names: no builtins, the seven
# NumPy functions and pi.
_NAMESPACE = {"__builtins__": {}, **_FUNCS1, **_FUNCS2, "pi": math.pi}

# The float kernel's functions round as the NumPy kernel's do on a float:
# sqrt is correctly rounded on both sides, and math's sin and cos call libm,
# as NumPy's float64 sin and cos loops do on the builds this was checked on
# (NumPy 2.4, x86-64 Linux). A build that sends them to its own SIMD code may
# round them differently by an ulp; TestFloatKernel::test_stays_on_floats
# compares the two kernels' bits on every builtin and fails on such a build.
# fabs, unlike abs, refuses the complex that '**' makes of a negative base;
# exp goes through NumPy, whose own exp rounds unlike libm's, and so do min
# and max, as Python's hide a NaN. float() on the way in refuses a complex too.
_FLOAT_NAMESPACE = {
    "__builtins__": {}, "pi": math.pi, "float": float, "type": type,
    "isfinite": math.isfinite, "Errors": (ArithmeticError, ValueError, TypeError),
    "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt, "abs": math.fabs,
    "exp": lambda a: float(np.exp(float(a))),
    "min": lambda a, b: float(np.minimum(float(a), float(b))),
    "max": lambda a, b: float(np.maximum(float(a), float(b))),
}


def _print(node: Node, power: str) -> tuple[str, int]:
    """Text and precedence of node with the fewest parentheses that keep its
    grouping; variables print as parser names and '^' as the token power.

    The expression grammar groups exactly as Python does ('^' binds above
    unary minus and takes a unary on its right), so the same text serves
    format_expr and the generated evaluator.
    """
    if isinstance(node, Num):
        # repr(inf) is 'inf', which neither grammar reads as a number
        return ("1e999" if math.isinf(node.value) else repr(node.value)), _PREC["atom"]
    if isinstance(node, Var):
        return node.name, _PREC["atom"]
    if isinstance(node, Neg):
        s, p = _print(node.arg, power)
        return (f"-({s})" if p < _PREC["neg"] else f"-{s}"), _PREC["neg"]
    if isinstance(node, Call):
        args = ", ".join(_print(a, power)[0] for a in node.args)
        return f"{node.fn}({args})", _PREC["atom"]
    if node.op == "^":
        # right-associative, and the right operand may be a unary minus
        ls, lp = _print(node.left, power)
        rs, rp = _print(node.right, power)
        ls = f"({ls})" if lp < _PREC["atom"] else ls
        rs = f"({rs})" if rp < _PREC["neg"] else rs
        return f"{ls} {power} {rs}", _PREC["^"]
    # left-associative: parenthesize a right child at equal precedence; the
    # left spine of an equal-precedence chain is walked in a loop, so a long
    # flat sum or product costs no recursion per term
    p = _PREC[node.op]
    tail = []
    while isinstance(node, Bin) and _PREC[node.op] == p:
        rs, rp = _print(node.right, power)
        tail.append(f"{node.op} ({rs})" if rp <= p else f"{node.op} {rs}")
        node = node.left
    ls, lp = _print(node, power)
    return " ".join([f"({ls})" if lp < p else ls, *reversed(tail)]), p


def _source(node: Node, dim: int) -> tuple[str, str]:
    """The parameter list x1, ..., x{dim}, t and the body of node's kernels,
    printed from the AST's reprs and table names, never from the user's string."""
    return ", ".join([f"x{i + 1}" for i in range(dim)] + ["t"]), _print(node, "**")[0]


def _compile(node: Node, dim: int = 1) -> Callable:
    """One Python function (x1, ..., x{dim}, t) -> value that evaluates the AST."""
    return eval("lambda {}: {}".format(*_source(node, dim)), dict(_NAMESPACE))


def _compile_float(node: Node, dim: int, fn: Callable) -> Callable:
    """The float kernel of fn = _compile(node, dim): the same printed
    expression on Python floats, whose value it returns when that is a finite
    float. Anything else (an exception, a complex from '**', inf or NaN) goes
    back to float(fn(...)), so the value is always that of float(fn(...)).
    NumPy's error state applies only where the result is non-finite or
    Python raises: an inf or NaN that Python's float arithmetic makes silently
    and a later operation removes (1/inf) raises no FloatingPointError here."""
    params, body = _source(node, dim)
    namespace = dict(_FLOAT_NAMESPACE, fn=fn)
    exec(f"def kernel({params}):\n"
         f"    try:\n"
         f"        v = {body}\n"
         f"    except Errors:\n"
         f"        return float(fn({params}))\n"
         f"    return v if type(v) is float and isfinite(v) else float(fn({params}))\n",
         namespace)
    return namespace["kernel"]


def format_expr(node: Node) -> str:
    """Render an AST to a string that parses back to an identical AST."""
    return _print(node, "^")[0]


@dataclass(frozen=True)
class Medium:
    """Parsed, immutable speed field g(x, t); safe for concurrent use."""

    dim: int
    source: str
    ast: Node
    _fn: Callable = field(repr=False, compare=False)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        if self.dim > 1 and x.shape[-1:] != (self.dim,):
            raise ValidationError(  # a scalar point has one coordinate
                f"point has {x.shape[-1] if x.ndim else 1} coordinates, medium has dim {self.dim}")
        coords = (x,) if self.dim == 1 else [x[..., i] for i in range(self.dim)]
        out = _real(self._fn(*coords, np.asarray(t, dtype=float)))
        return float(out) if out.ndim == 0 else out

    @cached_property
    def _admitted(self) -> MediumBounds:
        """The dimension-free part of _admit, sampled once per instance: the
        resolution-40 grid (its M is the 2D CFL speed), or above dim 2, where
        it outgrows memory, 40^3 Kronecker points floored onto it (no slope L)."""
        if self.dim <= 2:
            bounds = estimate_bounds(self, resolution=40)
        else:
            pts = np.floor(_kronecker(40 ** 3, self.dim + 1) * 40) / 40
            with np.errstate(all="ignore"):  # _sampled_range reports a non-finite value
                vals = _real(self._fn(*pts.T))
            m, M = _sampled_range(vals)
            bounds = MediumBounds(m=m, M=M, L=math.nan, resolution=0)
        deviation = check_periodicity(self).max_deviation
        if not deviation <= 1e-9 * bounds.M:
            raise ValidationError("medium is not 1-periodic: a unit shift in x or t "
                                  f"changes g by up to {deviation:.6g}")
        return bounds

    @cached_property
    def _variables(self) -> frozenset:
        """The variables the expression uses (x1, ..., x{dim}, t), by one
        walk of the AST on a stack, as a chain may outgrow the recursion limit."""
        used, stack = set(), [self.ast]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                used.add(node.name)
            elif isinstance(node, Neg):
                stack.append(node.arg)
            elif isinstance(node, Bin):
                stack += (node.left, node.right)
            elif isinstance(node, Call):
                stack += node.args
        return frozenset(used - {"pi"})

    @cached_property
    def _float_fn(self) -> Callable:
        """g on Python-float coordinates, the value of float(self._fn(...))
        to the bit: the kernel of the scalar loops, built on first use."""
        try:
            return _compile_float(self.ast, self.dim, self._fn)
        except RecursionError:
            # Python's compiler limit falls with the depth of the calling
            # stack, so a chain parse_medium compiled may fail here
            fn = self._fn
            return lambda *coords: float(fn(*coords))


def _admit(g: Medium, dim: int) -> MediumBounds:
    """The model contract of every solver entry point: g has dimension dim
    and is finite, positive and 1-periodic in space and time. Returns its
    bounds sampled at resolution 40. Sampled, not certified: a dip or pole
    narrower than the sample spacing is left to the kernels' own checks."""
    if g.dim != dim:
        want = "one-dimensional" if dim == 1 else f"dim-{dim}"
        raise ValidationError(f"the solver needs a {want} medium, got dim {g.dim}")
    return g._admitted


_THETA = 0.25  # the share of a period of g that one explicit step may move the front


def _resolved_step(g: Medium, eps: float, speed: float) -> float:
    """The step rule of every explicit stepper: the largest step that moves a
    front of speed at most `speed` by at most _THETA of a period of
    g(x/eps, t/eps) in x1 and in t, each where g uses it (inf where neither)."""
    used = g._variables
    return min(_THETA * eps / speed if "x1" in used else math.inf,
               _THETA * eps if "t" in used else math.inf)


def parse_medium(src: str, dim: int) -> Medium:
    """Parse an expression over x1..x{dim}, t into a Medium."""
    require_integer(1, dim=dim)
    if not src or not src.strip():
        raise ValidationError("empty medium expression")
    parser = _Parser(src, dim)
    try:
        ast = parser.parse()
        fn = _compile(ast, dim)
    except (RecursionError, SyntaxError):
        # Python's recursion limit and its 200-level parenthesis limit
        parser.fail("expression nested too deeply")
    return Medium(dim=dim, source=src, ast=ast, _fn=fn)


# Named media used throughout the test battery and the CLI.
BUILTIN_MEDIA: dict[str, tuple[str, int]] = {
    "pinning": ("sin(pi*(x - t))^2 + 1", 1),
    "antipinning": ("sin(pi*(-x - t))^2 + 1", 1),
    "two_wave": ("sin(2*pi*(x - 3*t)) * sin(2*pi*(2*t + x)) + 11/10", 1),
    "static_sin": ("1 + sin(pi*x)^2", 1),
    "pinning2d": ("sin(pi*(x - t))^2 + 1", 2),
}


@cache
def builtin_medium(name: str, /) -> Medium:
    """Look up a named medium from the registry; each name parses once (name is
    positional, as the cache would hold a keyword call apart)."""
    if name not in BUILTIN_MEDIA:
        known = ", ".join(sorted(BUILTIN_MEDIA))
        raise ValidationError(f"unknown builtin medium {name!r} (known: {known})")
    return parse_medium(*BUILTIN_MEDIA[name])


def eval_scaled(g: Medium, eps: float, x, t):
    """Evaluate g(x/eps, t/eps), the eps-oscillatory rescaling of g."""
    require_positive(eps=eps)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return g(x / eps, t / eps)


@dataclass(frozen=True)
class MediumBounds:
    """Sampled bounds 0 < m <= g <= M and finite-difference slope L."""

    m: float
    M: float
    L: float
    resolution: int


def estimate_bounds(g: Medium, resolution: int = 64) -> MediumBounds:
    """Min/max/max-slope of g over a unit cell sampled at resolution^d points.

    Sampling bounds are not certified: the true m is <= the reported m and
    the true M >= the reported M, off by at most L * (1/resolution).
    """
    require_integer(8, resolution=resolution)
    points = resolution ** (g.dim + 1)
    if points > 2 ** 24:
        raise ValidationError(f"a resolution-{resolution} grid of the dim-{g.dim} cell has "
                              f"{points} points, above 2^24; lower --resolution")
    axes = np.arange(resolution) / resolution
    grids = np.meshgrid(*([axes] * (g.dim + 1)), indexing="ij", sparse=True)
    with np.errstate(all="ignore"):  # _sampled_range reports a non-finite value
        vals = _real(g._fn(*grids))
    vals = np.broadcast_to(vals, (resolution,) * (g.dim + 1))
    m, M = _sampled_range(vals)
    L = 0.0
    for axis in range(g.dim + 1):
        slope = np.abs(np.roll(vals, -1, axis=axis) - vals).max() * resolution
        L = max(L, float(slope))
    return MediumBounds(m=m, M=M, L=L, resolution=resolution)


def _real(vals) -> np.ndarray:
    """Medium values as a float array. A complex value, which '**' makes of a
    negative base on Python floats, as in (-1)^0.5, is no speed."""
    vals = np.asarray(vals)
    if vals.dtype.kind == "c":
        raise ValidationError("medium evaluates to a non-real value")
    return vals.astype(float, copy=False)


def _sampled_range(vals) -> tuple[float, float]:
    """Min and max of sampled medium values, which must be finite and > 0."""
    if not np.all(np.isfinite(vals)):
        raise ValidationError("medium evaluates to a non-finite value")
    m, M = float(np.min(vals)), float(np.max(vals))
    if m <= 0:
        raise ValidationError(f"medium is not positive: sampled minimum {m}")
    return m, M


@dataclass(frozen=True)
class PeriodicityReport:
    max_deviation: float
    trials: int


def _kronecker(count: int, dim: int) -> np.ndarray:
    """The first count points k sqrt(p) mod 1 of the Kronecker sequence in
    [0, 1)^dim, one prime p per axis: equidistributed, and fixed."""
    primes = (p for p in itertools.count(2)
              if all(p % d for d in range(2, math.isqrt(p) + 1)))
    alphas = np.sqrt(np.fromiter(itertools.islice(primes, dim), dtype=float))
    return np.mod(np.arange(1, count + 1)[:, None] * alphas, 1.0)


def check_periodicity(g: Medium, trials: int = 32) -> PeriodicityReport:
    """Max |g(x+k, t+l) - g(x, t)| over Kronecker points and unit lattice shifts."""
    require_integer(1, trials=trials)
    pts = _kronecker(trials, g.dim + 1)
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        base = _real(g._fn(*pts.T))
        shifted = [_real(g._fn(*(pts + e).T)) for e in np.eye(g.dim + 1)]
    if not all(np.all(np.isfinite(v)) for v in (base, *shifted)):
        raise ValidationError("medium evaluates to a non-finite value")
    worst = max(float(np.abs(v - base).max()) for v in shifted)
    return PeriodicityReport(max_deviation=worst, trials=trials)
