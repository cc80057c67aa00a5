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
offset and the (x, y) sample point where it happened.  ``abs`` at 0 is the
one sanctioned non-smooth point: its dual derivative uses the subgradient 0
and sets a kink flag instead of faulting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalFaultError, EvalOverflowError, ExprSyntaxError

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "atan")


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    index: int | None  # 0-based z-component index; None for x and y
    pos: int


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    operand: "Expr"
    pos: int


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"
    pos: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    pos: int


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

    def expr(self) -> Expr:
        left = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "OP" and text in "+-":
                self.advance()
                left = Bin(text, left, self.term(), pos)
            else:
                return left

    def term(self) -> Expr:
        left = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "OP" and text in "*/":
                self.advance()
                left = Bin(text, left, self.unary(), pos)
            else:
                return left

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
            if text == "x":
                return Var("x", None, pos)
            if text == "y":
                return Var("y", None, pos)
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
        raise ValueError(f"state dimension must be >= 1, got {n}")
    return _Parser(source, n).parse()


# -- printing -----------------------------------------------------------------

def to_source(e: Expr) -> str:
    """Fully parenthesized source form; parsing it back gives an equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        return f"(-{to_source(e.operand)})"
    if isinstance(e, Bin):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def structurally_equal(a: Expr, b: Expr) -> bool:
    """Tree equality ignoring source positions."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Num):
        return a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, Unary):
        return a.op == b.op and structurally_equal(a.operand, b.operand)
    if isinstance(a, Bin):
        return (
            a.op == b.op
            and structurally_equal(a.left, b.left)
            and structurally_equal(a.right, b.right)
        )
    if isinstance(a, Call):
        return a.fn == b.fn and structurally_equal(a.arg, b.arg)
    return False


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
    of those is copied; the result of an arithmetic node is returned as is.
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
    k = abs(p)
    out = None
    while True:
        if k & 1:
            out = a if out is None else out * a
        k >>= 1
        if not k:
            break
        a = a * a
    return 1.0 / out if p < 0 else out


def _int_exponent(e: Bin) -> int | None:
    """The exponent of ``a ^ p`` when p is an integer literal or a negated one
    (the parser reads ``z1^-3`` as ``z1 ^ (-3)``), else None."""
    r, sign = e.right, 1
    if isinstance(r, Unary):
        r, sign = r.operand, -1
    if isinstance(r, Num) and float(r.value).is_integer():
        return sign * int(r.value)
    return None


def _eval(e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray):
    """Value of ``e``: an array, an input view or (for constants) a numpy float."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        if e.name == "x":
            return X
        if e.name == "y":
            return Y
        return Z[..., e.index]
    if isinstance(e, Unary):
        return -_eval(e.operand, X, Y, Z)
    if isinstance(e, Bin):
        a = _eval(e.left, X, Y, Z)
        if e.op == "^":
            return _pow_value(e, a, X, Y, Z)
        b = _eval(e.right, X, Y, Z)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if np.any(b == 0.0):
            _fault("division by zero", e, b == 0.0, X, Y)
        return a / b
    if isinstance(e, Call):
        a = _eval(e.arg, X, Y, Z)
        if e.fn == "log":
            if np.any(a <= 0.0):
                _fault("log of a nonpositive value", e, a <= 0.0, X, Y)
            return np.log(a)
        if e.fn == "sqrt":
            if np.any(a < 0.0):
                _fault("sqrt of a negative value", e, a < 0.0, X, Y)
            return np.sqrt(a)
        if e.fn == "exp":
            return np.exp(a)
        return getattr(np, {"abs": "abs", "sin": "sin", "cos": "cos",
                            "tan": "tan", "atan": "arctan"}[e.fn])(a)
    raise TypeError(f"not an expression node: {e!r}")


def _pow_value(e: Bin, a, X, Y, Z):
    """a ^ b with the domain rules: integer literal exponents allow any base
    (except 0 to a negative power); everything else requires base > 0."""
    p = _int_exponent(e)
    if p is not None:
        if p < 0 and np.any(a == 0.0):
            _fault("zero base raised to a negative power", e, a == 0.0, X, Y)
        return _ipow(a, p)
    b = _eval(e.right, X, Y, Z)
    if np.any(a <= 0.0):
        _fault("non-integer power of a nonpositive base", e, a <= 0.0, X, Y)
    return np.power(a, b)


def eval_on_grid(e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Evaluate over coordinate arrays X, Y and state array Z (shape X.shape + (n,)).

    Returns a fresh, writable array of X's shape.  A non-finite result
    (overflow) raises EvalOverflowError.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = _fresh(_eval(e, X, Y, Z), np.shape(X), (X, Y))
    if not np.isfinite(out).all():
        _fault("non-finite result (overflow?)", e, ~np.isfinite(out), X, Y, EvalOverflowError)
    return out


def evaluate(e: Expr, x: float, y: float, z) -> float:
    """Evaluate at a single point; z is a length-n state vector."""
    X = np.asarray(float(x))
    Y = np.asarray(float(y))
    Z = np.asarray(z, dtype=float).reshape(-1)
    return float(eval_on_grid(e, X, Y, Z))


@dataclass(frozen=True)
class DualValue:
    """Value and z-gradient of an expression at one point."""

    value: float
    partials: tuple[float, ...]
    at_kink: bool = False


class _KinkFlag:
    __slots__ = ("hit",)

    def __init__(self):
        self.hit = False


def _eval_dual(e: Expr, X, Y, Z, kink: _KinkFlag) -> tuple[np.ndarray, np.ndarray]:
    """Returns (value, partials); both broadcast to X.shape and X.shape + (n,).

    Leaves return a numpy float or an input view and a length-n partials row.
    """
    if isinstance(e, Num):
        return np.float64(e.value), np.zeros(Z.shape[-1])
    if isinstance(e, Var):
        d = np.zeros(Z.shape[-1])
        if e.name == "x":
            return X, d
        if e.name == "y":
            return Y, d
        d[e.index] = 1.0
        return Z[..., e.index], d
    if isinstance(e, Unary):
        v, d = _eval_dual(e.operand, X, Y, Z, kink)
        return -v, -d
    if isinstance(e, Bin):
        va, da = _eval_dual(e.left, X, Y, Z, kink)
        if e.op == "^":
            return _pow_dual(e, va, da, X, Y, Z, kink)
        vb, db = _eval_dual(e.right, X, Y, Z, kink)
        if e.op == "+":
            return va + vb, da + db
        if e.op == "-":
            return va - vb, da - db
        if e.op == "*":
            return va * vb, va[..., None] * db + vb[..., None] * da
        if np.any(vb == 0.0):
            _fault("division by zero", e, vb == 0.0, X, Y)
        v = va / vb
        return v, (da - v[..., None] * db) / vb[..., None]
    if isinstance(e, Call):
        va, da = _eval_dual(e.arg, X, Y, Z, kink)
        if e.fn == "sin":
            return np.sin(va), np.cos(va)[..., None] * da
        if e.fn == "cos":
            return np.cos(va), -np.sin(va)[..., None] * da
        if e.fn == "tan":
            return np.tan(va), da / np.cos(va)[..., None] ** 2
        if e.fn == "exp":
            v = np.exp(va)
            return v, v[..., None] * da
        if e.fn == "atan":
            return np.arctan(va), da / (1.0 + va**2)[..., None]
        if e.fn == "log":
            if np.any(va <= 0.0):
                _fault("log of a nonpositive value", e, va <= 0.0, X, Y)
            return np.log(va), da / va[..., None]
        if e.fn == "sqrt":
            if np.any(va < 0.0):
                _fault("sqrt of a negative value", e, va < 0.0, X, Y)
            v = np.sqrt(va)
            at_zero = va == 0.0
            if np.any(at_zero & np.any(da != 0.0, axis=-1)):
                kink.hit = True
            # subgradient-0 convention at the kink, like abs
            safe = np.where(at_zero, 1.0, v)
            d = np.where(at_zero[..., None], 0.0, da / (2.0 * safe[..., None]))
            return v, d
        if e.fn == "abs":
            at_zero = va == 0.0
            if np.any(at_zero & np.any(da != 0.0, axis=-1)):
                kink.hit = True
            return np.abs(va), np.sign(va)[..., None] * da
    raise TypeError(f"not an expression node: {e!r}")


def _pow_dual(e: Bin, va, da, X, Y, Z, kink):
    p = _int_exponent(e)
    if p is not None:
        if p < 0 and np.any(va == 0.0):
            _fault("zero base raised to a negative power", e, va == 0.0, X, Y)
        v = _ipow(va, p)
        if p == 0:
            return v, np.zeros_like(da)
        # d(a^p) = p a^(p-1) da; a^0 = 1, so p = 1 at a = 0 is right,
        # and for p >= 2 the coefficient vanishes at a = 0 as it should.
        coeff = p * _ipow(va, p - 1)
        return v, coeff[..., None] * da
    vb, db = _eval_dual(e.right, X, Y, Z, kink)
    if np.any(va <= 0.0):
        _fault("non-integer power of a nonpositive base", e, va <= 0.0, X, Y)
    v = np.power(va, vb)
    d = v[..., None] * (db * np.log(va)[..., None] + vb[..., None] * da / va[..., None])
    return v, d


def eval_dual_on_grid(
    e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Vectorized forward-mode evaluation.

    Returns (values of X.shape, partials of X.shape + (n,), kink flag), both
    arrays fresh and writable; the flag records whether abs/sqrt was
    differentiated at its kink anywhere.  Non-finite values or partials
    (overflow) raise EvalOverflowError.
    """
    kink = _KinkFlag()
    shape = np.shape(X)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v, d = _eval_dual(e, X, Y, Z, kink)
        v = _fresh(v, shape, (X, Y))
        d = _fresh(d, shape + Z.shape[-1:], ())
    if not np.isfinite(v).all():
        _fault("non-finite result (overflow?)", e, ~np.isfinite(v), X, Y, EvalOverflowError)
    if not np.isfinite(d).all():
        _fault("non-finite derivative (overflow?)", e, ~np.isfinite(d).all(axis=-1), X, Y,
               EvalOverflowError)
    return v, d, kink.hit


def evaluate_dual(e: Expr, x: float, y: float, z) -> DualValue:
    """Value and dz-gradient at a single point."""
    X = np.asarray(float(x))
    Y = np.asarray(float(y))
    Z = np.asarray(z, dtype=float).reshape(-1)
    v, d, hit = eval_dual_on_grid(e, X, Y, Z)
    return DualValue(value=float(v), partials=tuple(float(t) for t in d), at_kink=hit)
