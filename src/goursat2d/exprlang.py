"""A small expression language for right-hand-side and coefficient functions.

Problem files describe scalar functions of (x, y, z1..zn) as text, e.g.
``"x*y + sin(z1^3)"``.  This module parses them into an immutable AST,
evaluates them over numpy arrays, and computes forward-mode derivatives with
respect to the z-components only (the linearized operator needs d/dz of the
nonlinearities; spatial derivatives of coefficients are supplied by the user
as separate expressions, never autodifferentiated).

Grammar (standard precedence, ^ right-associative and binding tighter than
unary minus):

    expr    := term   (("+" | "-") term)*
    term    := unary  (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := primary ("^" unary)?
    primary := NUMBER | VARIABLE | FUNCTION "(" expr ")" | "(" expr ")"
    NUMBER  := decimal literal, optional exponent part
    VARIABLE := "x" | "y" | "z1" .. "zn"
    FUNCTION := sin | cos | tan | exp | log | sqrt | abs | atan

Every syntax error carries the byte offset into the source; every evaluation
fault (log of a nonpositive value, division by zero, ...) carries the node's
offset and the (x, y) sample point where it happened.  ``abs`` and ``sqrt``
at 0 are the sanctioned non-smooth points: their dual derivative uses the
subgradient 0 and sets a kink flag instead of faulting.  Values and partials
come from one walk over the tree, so both apply the same domain rules; every
node allocates its result with a plain numpy operation.

The node samplers at the end (``_components``, ``_matrix_values`` and the
Jacobian sampler ``_jacobian``) are the one place where a problem's
expressions meet the nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import EvalFaultError, EvalOverflowError, ExprSyntaxError, ParameterError

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "atan")


# -- AST ----------------------------------------------------------------------
# ``pos`` is the node's source offset; == ignores it, so equality is structural.

@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    index: int | None  # 0-based z-component index; None for x and y
    pos: int = field(compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    operand: "Expr"
    pos: int = field(compare=False)


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"
    pos: int = field(compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    pos: int = field(compare=False)


Expr = Num | Var | Unary | Bin | Call


# -- lexer / parser -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUM>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<OP>[-+*/^()])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[i]!r}", i)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("END", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, n: int):
        self.tokens = _tokenize(source)
        self.n = n
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str) -> int:
        kind, text, pos = self.peek()
        if kind != "OP" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()
        return pos

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "END":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
        return e

    def expr(self, ops: str = "+-") -> Expr:
        """Operands joined by the operators in ``ops``, folded to the left: a
        sum of terms, each term (ops "*/") a product of unary operands."""
        operand = self.unary if ops == "*/" else partial(self.expr, "*/")
        left = operand()
        while True:
            kind, text, pos = self.peek()
            if kind != "OP" or text not in ops:
                return left
            self.advance()
            left = Bin(text, left, operand(), pos)

    def unary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "OP" and text == "-":
            self.advance()
            return Unary("-", self.unary(), pos)
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        kind, text, pos = self.peek()
        if kind == "OP" and text == "^":
            self.advance()
            return Bin("^", base, self.unary(), pos)
        return base

    def primary(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "NUM":
            return Num(float(text), pos)
        if kind == "IDENT":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg, pos)
            if text in ("x", "y"):
                return Var(text, None, pos)
            m = re.fullmatch(r"z([1-9][0-9]*)", text)
            if m:
                idx = int(m.group(1))
                if idx > self.n:
                    raise ExprSyntaxError(
                        f"unknown variable {text!r} (state dimension is {self.n})", pos
                    )
                return Var(text, idx - 1, pos)
            raise ExprSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "OP" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "END":
            raise ExprSyntaxError("unexpected end of expression", pos)
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def parse(source: str, n: int) -> Expr:
    """Parse ``source`` into an AST for a problem of state dimension n >= 1."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    if n < 1:
        raise ParameterError(f"state dimension must be >= 1, got {n}")
    return _Parser(source, n).parse()


def free_z_indices(e: Expr) -> frozenset[int]:
    """The set of 0-based z-component indices referenced by the expression."""
    if isinstance(e, Var):
        return frozenset() if e.index is None else frozenset({e.index})
    if isinstance(e, Unary):
        return free_z_indices(e.operand)
    if isinstance(e, Bin):
        return free_z_indices(e.left) | free_z_indices(e.right)
    if isinstance(e, Call):
        return free_z_indices(e.arg)
    return frozenset()


# -- evaluation ---------------------------------------------------------------

def _fault(message: str, node: Expr, mask, X: np.ndarray, Y: np.ndarray, error=EvalFaultError):
    """Raise an evaluation fault at the first offending sample point.

    ``mask`` may be a scalar or any shape that broadcasts to X's.
    """
    idxs = np.argwhere(np.broadcast_to(mask, np.shape(X)))
    where = None
    if len(idxs):
        idx = tuple(idxs[0])
        where = (float(X[idx]), float(Y[idx]))
    raise error(message, node.pos, where=where)


def _fresh(a, shape: tuple[int, ...], inputs: tuple) -> np.ndarray:
    """``a`` as a writable array of ``shape`` that shares no memory with the inputs.

    Leaves evaluate to scalars and input views, so only a result that is one
    of those is copied; the result of any other node is an array the walk
    allocated, returned as is.  The inputs are excluded by identity:
    ``np.meshgrid``'s X, Y own writable data.
    """
    if (isinstance(a, np.ndarray) and a.shape == shape and a.flags.owndata
            and a.flags.writeable and not any(a is i for i in inputs)):
        return a
    out = np.empty(shape)
    out[...] = a
    return out


def _ipow(a, p: int):
    """a ** p for an integer p by binary powering; p < 0 gives 1 / a ** |p|.

    Repeated multiplication costs the same for every sign of the base, and
    p = -1, 0, 1, 2 give the same bits as numpy's ``a ** p``.
    """
    if p == 0:
        return np.ones_like(a)
    k, r = abs(p), None
    while True:
        if k & 1:
            r = a if r is None else r * a
        k >>= 1
        if not k:
            break
        a = a * a
    return 1.0 / r if p < 0 else r


def _int_exponent(e: Bin) -> int | None:
    """The exponent of ``a ^ p`` when p is an integer literal or a negated one
    (the parser reads ``z1^-3`` as ``z1 ^ (-3)``), else None."""
    r, sign = e.right, 1
    if isinstance(r, Unary):
        r, sign = r.operand, -1
    if isinstance(r, Num) and float(r.value).is_integer():
        return sign * int(r.value)
    return None


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

#: fn -> (value ufunc, z-partials from the argument a, its partials da and the value v)
_CALLS = {
    "sin": (np.sin, lambda a, da, v: np.cos(a)[..., None] * da),
    "cos": (np.cos, lambda a, da, v: -np.sin(a)[..., None] * da),
    "tan": (np.tan, lambda a, da, v: da / np.square(np.cos(a))[..., None]),
    "exp": (np.exp, lambda a, da, v: v[..., None] * da),
    "log": (np.log, lambda a, da, v: da / a[..., None]),
    "atan": (np.arctan, lambda a, da, v: da / (1.0 + np.square(a))[..., None]),
    "abs": (np.abs, lambda a, da, v: np.sign(a)[..., None] * da),
    # the subgradient 0 at the kink a = 0, like abs
    "sqrt": (np.sqrt, lambda a, da, v: np.where(
        (a == 0.0)[..., None], 0.0, da / (2.0 * np.where(a == 0.0, 1.0, v)[..., None]))),
}


def _eval(e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray, kink: list[bool] | None):
    """(value, z-partials) of ``e``; the partials are None when ``kink`` is None.

    A value is an array, an input view or (for constants) a numpy float; the
    partials broadcast to X.shape + (n,), a leaf's being one length-n row.
    ``kink[0]`` is set where abs or sqrt is differentiated at 0.  Each domain
    rule is checked before its operation, so both modes fault at the same node.
    Every node allocates its result, so X, Y and Z are never written.
    """
    if isinstance(e, Num):
        return np.float64(e.value), None if kink is None else np.zeros(Z.shape[-1])
    if isinstance(e, Var):
        v = X if e.name == "x" else Y if e.name == "y" else Z[..., e.index]
        if kink is None:
            return v, None
        n = Z.shape[-1]
        return v, np.zeros(n) if e.index is None else np.eye(n)[e.index]
    if isinstance(e, Unary):
        a, da = _eval(e.operand, X, Y, Z, kink)
        return -a, None if da is None else -da
    if isinstance(e, Bin):
        a, da = _eval(e.left, X, Y, Z, kink)
        if e.op == "^":
            return _pow(e, a, da, X, Y, Z, kink)
        b, db = _eval(e.right, X, Y, Z, kink)
        if e.op == "/" and np.any(b == 0.0):
            _fault("division by zero", e, b == 0.0, X, Y)
        ufunc = _ARITHMETIC[e.op]
        v = ufunc(a, b)
        if da is None:
            return v, None
        if e.op in "+-":
            return v, ufunc(da, db)
        if e.op == "*":
            return v, a[..., None] * db + b[..., None] * da
        return v, (da - v[..., None] * db) / b[..., None]
    if isinstance(e, Call):
        a, da = _eval(e.arg, X, Y, Z, kink)
        if e.fn == "log" and np.any(a <= 0.0):
            _fault("log of a nonpositive value", e, a <= 0.0, X, Y)
        if e.fn == "sqrt" and np.any(a < 0.0):
            _fault("sqrt of a negative value", e, a < 0.0, X, Y)
        ufunc, partials = _CALLS[e.fn]
        v = ufunc(a)
        if da is None:
            return v, None
        if e.fn in ("abs", "sqrt") and np.any((a == 0.0) & np.any(da != 0.0, axis=-1)):
            kink[0] = True
        return v, partials(a, da, v)
    raise TypeError(f"not an expression node: {e!r}")


def _pow(e: Bin, a, da, X, Y, Z, kink):
    """a ^ b with the domain rules: integer literal exponents allow any base
    (except 0 to a negative power); everything else requires base > 0."""
    p = _int_exponent(e)
    if p is not None:
        if p < 0 and np.any(a == 0.0):
            _fault("zero base raised to a negative power", e, a == 0.0, X, Y)
        v = _ipow(a, p)
        if da is None:
            return v, None
        if p == 0:
            return v, np.zeros_like(da)
        # d(a^p) = p a^(p-1) da; a^0 = 1, so p = 1 at a = 0 is right,
        # and for p >= 2 the coefficient vanishes at a = 0 as it should.
        return v, (p * _ipow(a, p - 1))[..., None] * da
    b, db = _eval(e.right, X, Y, Z, kink)
    if np.any(a <= 0.0):
        _fault("non-integer power of a nonpositive base", e, a <= 0.0, X, Y)
    v = np.power(a, b)
    if da is None:
        return v, None
    return v, v[..., None] * (db * np.log(a)[..., None] + b[..., None] * da / a[..., None])


def _on_grid(e: Expr, X, Y, Z, kink: list[bool] | None):
    """``_eval`` with its results made fresh and writable, and non-finite
    values or partials (overflow) raising EvalOverflowError."""
    shape = np.shape(X)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v, d = _eval(e, X, Y, Z, kink)
        v = _fresh(v, shape, (X, Y, Z))
        if d is not None:
            d = _fresh(d, shape + Z.shape[-1:], (X, Y, Z))
    if not np.isfinite(v).all():
        _fault("non-finite result (overflow?)", e, ~np.isfinite(v), X, Y, EvalOverflowError)
    if d is not None and not np.isfinite(d).all():
        _fault("non-finite derivative (overflow?)", e, ~np.isfinite(d).all(axis=-1), X, Y,
               EvalOverflowError)
    return v, d


def eval_on_grid(e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Evaluate over coordinate arrays X, Y and state array Z (shape X.shape + (n,));
    one point is 0-d X and Y with a length-n Z.

    Returns a fresh, writable array of X's shape.  X, Y and Z are only read:
    every node of the walk allocates its result, and the caller may overwrite
    the result.  A non-finite result (overflow) raises EvalOverflowError.
    """
    return _on_grid(e, X, Y, Z, None)[0]


def eval_dual_on_grid(
    e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Vectorized forward-mode evaluation.

    Returns (values of X.shape, partials of X.shape + (n,), kink flag), both
    arrays fresh and writable; the flag records whether abs/sqrt was
    differentiated at its kink anywhere.  Non-finite values or partials
    (overflow) raise EvalOverflowError.
    """
    kink = [False]
    v, d = _on_grid(e, X, Y, Z, kink)
    return v, d, kink[0]


# -- node samplers ------------------------------------------------------------

def _zero_state(shape: tuple[int, ...], n: int) -> np.ndarray:
    """The zero state of shape ``shape + (n,)``: a read-only broadcast view
    of n zeros, which holds no grid-sized memory."""
    return np.broadcast_to(np.zeros(n), shape + (n,))


def _components(exprs, X, Y, Z) -> np.ndarray:
    """Stack component evaluations into a writable array of shape X.shape + (n,)
    (a view of the one array when n == 1)."""
    values = [eval_on_grid(e, X, Y, Z) for e in exprs]
    return np.expand_dims(values[0], -1) if len(values) == 1 else np.stack(values, -1)


def _matrix_values(mat, X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """Sample an n×n expression matrix at points; shape X.shape + (n, n)."""
    Z = _zero_state(X.shape, n)
    return np.stack([_components(row, X, Y, Z) for row in mat], axis=-2)


def _jacobian(exprs, X, Y, Z, out=None) -> tuple[np.ndarray, np.ndarray, bool]:
    """(values of X.shape + (k,), z-Jacobian of X.shape + (k, n) whose row i
    is ∂f_i/∂z, kink flag) of the component vector ``exprs``, evaluated in
    component order; the partials are written into ``out`` when given."""
    jac = np.empty(np.shape(X) + (len(exprs), Z.shape[-1])) if out is None else out
    values, kinked = [], False
    for i, e in enumerate(exprs):
        v, jac[..., i, :], kink = eval_dual_on_grid(e, X, Y, Z)
        values.append(v)
        kinked = kinked or kink
    return np.stack(values, -1), jac, kinked
