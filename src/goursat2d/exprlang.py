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
subgradient 0 and sets a kink flag instead of faulting.  A vector of
expressions is compiled into one flat program (``_Program``) that gives the
values, or the values and the partials, of a walk over each tree in turn, so
both apply the same domain rules.  The program evaluates a repeated call
once, carries the partials of the z-components a subtree does not read as
one register, writes each operation into an operand's array where that
operand is read for the last time, and copies each component's partials
into the caller's Jacobian row.

``_Program.run`` is the one entry that evaluates expressions on nodes, the
zero state included.  ``eval_on_grid`` and ``eval_dual_on_grid`` compile
one expression and run it; the node samplers at the end (``_components``,
``_matrix_values`` and the Jacobian sampler ``_jacobian``) run a program
their caller compiled once for all its samples, and an ``OperatorContext``
compiles f1‖f2 once for F and once for F'.
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
# A component vector is compiled into one flat program of numpy operations on
# registers, in the order of the walk that defines it: post-order, operands
# left to right, the exponent of an integer power never evaluated, and each
# component's results checked before the next component starts.  Each value
# is numbered by its operation on the numbers of its operands, so a repeated
# subtree gets one number wherever it occurs.  A call (sin, cos, tan, exp,
# log, atan, abs, sqrt, a real power) on a number is one operation wherever
# it repeats, within a component or across components; arithmetic and
# integer powers, cheap to recompute and costly to hold, are shared only by
# the partials of the node that emits them.  A repeated subtree faults at its
# first occurrence, under that occurrence's offset, as the walk does.  The
# z-partials are one register per component, and all components that a
# subtree does not read hold the same register, computed once (the walk's
# zero partials: ±0, or NaN after an overflow).

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


def _domain(message: str, check, node: Expr, a, X, Y) -> None:
    """Fault at the first point where ``check`` finds a, before the operation
    on a; ``check`` = (mask of a, whether the mask has a True), the second
    without a grid-sized temporary."""
    if check[1](a):
        _fault(message, node, check[0](a), X, Y)


def _finite(a) -> bool:
    """Whether every entry of a is finite, without a grid-sized temporary:
    a NaN is the minimum of a, and an infinity its minimum or maximum."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _result(node: Expr, copy: bool | None, v, X, Y) -> np.ndarray | None:
    """A component's value as a fresh array of X's shape (copied when
    ``copy``), checked finite; with ``copy`` None it is only checked."""
    if copy:
        out = np.empty(np.shape(X))
        out[...] = v
        v = out
    if not _finite(v):
        _fault("non-finite result (overflow?)", node, ~np.isfinite(v), X, Y, EvalOverflowError)
    return None if copy is None else v


def _partials(node: Expr, out: np.ndarray, X, Y, *lanes) -> None:
    """Write a component's partials into ``out`` (X.shape + (n,)), checked finite."""
    for k, lane in enumerate(lanes):
        out[..., k] = lane
    if not _finite(out):
        _fault("non-finite derivative (overflow?)", node, ~np.isfinite(out).all(axis=-1), X, Y,
               EvalOverflowError)


def _kink(a, *lanes) -> bool:
    """Whether abs or sqrt is differentiated at its kink a = 0 in a nonzero direction."""
    nonzero = lanes[0] != 0.0
    for lane in lanes[1:]:
        nonzero = nonzero | (lane != 0.0)
    return bool(np.any((a == 0.0) & nonzero))


def _sqrt_scale(a, v):
    return 2.0 * np.where(a == 0.0, 1.0, v)


def _sqrt_lane(a, da, scale):
    """The partial of sqrt, with the subgradient 0 at the kink a = 0, like abs."""
    return np.where(a == 0.0, 0.0, da / scale)


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

#: fn -> (value ufunc, one z-partial from the compiler c, the argument a, the
#: value v and the argument's partial da)
_CALLS = {
    "sin": (np.sin, lambda c, a, v, da: c.op(np.multiply, c.op(np.cos, a), da)),
    # -(sin a · da), the bits of (-sin a)·da (rounding is symmetric in sign)
    # with one array fewer while sin a is held for a later component
    "cos": (np.cos, lambda c, a, v, da: c.op(np.negative, c.op(np.multiply, c.op(np.sin, a), da))),
    "tan": (np.tan, lambda c, a, v, da: c.op(np.divide, da, c.op(np.square, c.op(np.cos, a)))),
    "exp": (np.exp, lambda c, a, v, da: c.op(np.multiply, v, da)),
    "log": (np.log, lambda c, a, v, da: c.op(np.divide, da, a)),
    "atan": (np.arctan, lambda c, a, v, da: c.op(
        np.divide, da, c.op(np.add, c.const(1.0), c.op(np.square, a)))),
    "abs": (np.abs, lambda c, a, v, da: c.op(np.multiply, c.op(np.sign, a), da)),
    "sqrt": (np.sqrt, lambda c, a, v, da: c.op(
        _sqrt_lane, a, da, c.op(_sqrt_scale, a, v, ufunc=False), ufunc=False)),
}

#: ufunc -> (operand index, bits of a constant there that returns the other
#: operand unchanged, -0.0 and the NaNs included): 1·a, a·1, a/1, a − (+0),
#: (−0) + a and a + (−0).
_NEUTRAL = {
    np.multiply: ((0, np.float64(1.0).tobytes()), (1, np.float64(1.0).tobytes())),
    np.divide: ((1, np.float64(1.0).tobytes()),),
    np.subtract: ((1, np.float64(0.0).tobytes()),),
    np.add: ((0, np.float64(-0.0).tobytes()), (1, np.float64(-0.0).tobytes())),
}

#: The exactly rounded ufuncs: arithmetic, cheap to recompute, which
#: ``_Compiler.op`` shares only within the node that emits it.
_EXACT = {np.add, np.subtract, np.multiply, np.divide, np.negative}

#: The registers of X and Y; register 0 receives the checks' None, and the
#: z-components follow from 3.
_X, _Y, _Z = 1, 2, 3


class _Compiler:
    """Builds a ``_Program``: instructions [fn, dst, args, kind] on registers,
    of kind "ufunc" (may write into an operand's array), "call" (allocates),
    or "effect", "result" and "partials" (checks and outputs, never
    removed).  An operation on constants only is folded into a constant; a
    check of constants stays in the program only if it faults."""

    def __init__(self, n: int, dual: bool, count: int):
        self.n, self.dual = n, dual
        self.regs = _Z + n + (count if dual else 0)  # after Z, each component's partials
        self.consts: dict[int, np.float64] = {}
        self.memo: dict = {}
        self.numbers: dict = {}  # (fn, operand numbers) -> the number of its value
        self.ids: dict[int, int] = {}  # register -> its value's number; a leaf's is itself
        self.code: list[list] = []
        self.outputs: list[int] = []
        self.kinks: list[int] = []
        self.kinked = False
        self.at: Expr | None = None  # the node whose operations are being emitted
        zero = self.const(0.0)
        self.zero = (zero,) * n
        self.units = [tuple(self.const(float(j == k)) for k in range(n)) for j in range(n)]

    def const(self, value) -> int:
        """The register of a float constant, keyed by its bits (-0.0 is not 0.0)."""
        value = np.float64(value)
        return self.held(("const", value.tobytes()), value)

    def held(self, key, value) -> int:
        """The register that holds ``value`` from compile time."""
        if key not in self.memo:
            self.memo[key] = reg = self.regs
            self.regs += 1
            self.consts[reg] = value
        return self.memo[key]

    def op(self, fn, *args, ufunc=True) -> int:
        """The register of fn(*args), shared with an identical earlier op;
        an operand whose other operand leaves it unchanged is its own result."""
        for i, unit in _NEUTRAL.get(fn, ()):
            if args[i] in self.consts and self.consts[args[i]].tobytes() == unit:
                return args[1 - i]
        # arithmetic and integer powers are shared within the node that emits
        # them only: an array held for a later node costs more memory than
        # its recomputation costs time
        number = self.numbers.setdefault((fn, tuple(self.ids.get(a, a) for a in args)),
                                         -1 - len(self.numbers))
        key = (number, id(self.at)) if fn in _EXACT or fn is _ipow else number
        if key not in self.memo:
            if all(a in self.consts for a in args):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    reg = self.const(fn(*(self.consts[a] for a in args)))
            else:
                reg = self.regs
                self.regs += 1
                self.ids[reg] = number
                self.code.append([fn, reg, args, "ufunc" if ufunc else "call"])
            self.memo[key] = reg
        return self.memo[key]

    def check(self, message: str, check, node: Expr, a: int) -> None:
        """``_domain``; the first check of a register keeps its node."""
        key = (message, a)
        if key in self.memo or (a in self.consts and not check[1](self.consts[a])):
            return
        self.memo[key] = 0
        self.code.append([partial(_domain, message, check, node), 0, (a, _X, _Y), "effect"])

    def lanes(self, build, *partials):
        """The partial registers ``build(*lane)`` of each component, or None for values."""
        return tuple(build(*lane) for lane in zip(*partials)) if self.dual else None

    def power(self, a: int, p: int) -> int:
        """The register of ``_ipow(a, p)``, one operation for any p."""
        if p == 0:
            return self.const(1.0)  # the ones of np.ones_like(a), as one constant
        if p == 1:
            return a
        return self.op(_ipow, a, self.held(("int", p), p), ufunc=False)

    def node(self, e: Expr):
        """(value register, partial registers) of e, emitting its operations."""
        if isinstance(e, Num):
            return self.const(e.value), self.zero
        if isinstance(e, Var):
            if e.index is None:
                return (_X if e.name == "x" else _Y), self.zero
            return _Z + e.index, self.units[e.index]
        if isinstance(e, Unary):
            a, da = self.node(e.operand)
            self.at = e
            return self.op(np.negative, a), self.lanes(partial(self.op, np.negative), da)
        if isinstance(e, Bin):
            a, da = self.node(e.left)
            if e.op == "^":
                return self.pow(e, a, da)
            b, db = self.node(e.right)
            self.at = e
            if e.op == "/":
                self.check("division by zero", _ZERO, e, b)
            ufunc = _ARITHMETIC[e.op]
            v = self.op(ufunc, a, b)
            if e.op in "+-":
                return v, self.lanes(partial(self.op, ufunc), da, db)
            if e.op == "*":
                return v, self.lanes(lambda la, lb: self.op(
                    np.add, self.op(np.multiply, a, lb), self.op(np.multiply, b, la)), da, db)
            return v, self.lanes(lambda la, lb: self.op(
                np.divide, self.op(np.subtract, la, self.op(np.multiply, v, lb)), b), da, db)
        if isinstance(e, Call):
            a, da = self.node(e.arg)
            self.at = e
            if e.fn == "log":
                self.check("log of a nonpositive value", _NONPOSITIVE, e, a)
            if e.fn == "sqrt":
                self.check("sqrt of a negative value", _NEGATIVE, e, a)
            ufunc, lane = _CALLS[e.fn]
            v = self.op(ufunc, a)
            if self.dual and e.fn in ("abs", "sqrt"):
                self.kink(a, da)
            return v, self.lanes(lambda la: lane(self, a, v, la), da)
        raise TypeError(f"not an expression node: {e!r}")

    def pow(self, e: Bin, a: int, da):
        """a ^ b with the domain rules: integer literal exponents allow any base
        (except 0 to a negative power); everything else requires base > 0."""
        p = _int_exponent(e)
        self.at = e
        if p is not None:
            if p < 0:
                self.check("zero base raised to a negative power", _ZERO, e, a)
            if p == 0:  # the partials of np.zeros_like(da)
                return self.power(a, 0), self.zero if self.dual else None
            # d(a^p) = p a^(p-1) da; a^0 = 1, so p = 1 at a = 0 is right,
            # and for p >= 2 the coefficient vanishes at a = 0 as it should.
            v = self.power(a, p)
            return v, self.lanes(lambda la: self.op(np.multiply, self.op(
                np.multiply, self.const(p), self.power(a, p - 1)), la), da)
        b, db = self.node(e.right)
        self.at = e
        self.check("non-integer power of a nonpositive base", _NONPOSITIVE, e, a)
        v = self.op(np.power, a, b)
        return v, self.lanes(lambda la, lb: self.op(np.multiply, v, self.op(
            np.add, self.op(np.multiply, lb, self.op(np.log, a)),
            self.op(np.divide, self.op(np.multiply, b, la), a))), da, db)

    def kink(self, a: int, da) -> None:
        """Flag abs or sqrt of a differentiated at a = 0 (``_kink``)."""
        lanes = tuple(dict.fromkeys(da))
        key = ("kink", a, lanes)
        if key in self.memo:
            return
        self.memo[key] = 0
        if all(r in self.consts for r in (a,) + lanes):
            self.kinked = self.kinked or _kink(*(self.consts[r] for r in (a,) + lanes))
            return
        self.kinks.append(reg := self.regs)
        self.regs += 1
        self.code.append([_kink, reg, (a,) + lanes, "effect"])

    def component(self, e: Expr) -> None:
        """Emit e, then its value and partials as outputs, each checked finite."""
        v, da = self.node(e)
        self.outputs.append(reg := self.regs)
        self.regs += 1
        self.code.append([e, reg, (v, _X, _Y), "result"])
        if self.dual:
            out = _Z + self.n + len(self.outputs) - 1
            self.code.append([partial(_partials, e), 0, (out, _X, _Y) + da, "partials"])


#: The domain checks of ``_domain``; a NaN is in no mask.
_ZERO = (lambda a: a == 0.0, lambda a: np.count_nonzero(a) < np.size(a))
_NONPOSITIVE = (lambda a: a <= 0.0, lambda a: np.fmin.reduce(a, None, initial=np.inf) <= 0.0)
_NEGATIVE = (lambda a: a < 0.0, lambda a: np.fmin.reduce(a, None, initial=np.inf) < 0.0)


class _Program:
    """A component vector compiled once and run on any nodes.

    Values, partials, kink flag, faults and their order are those of the
    recursive walk that the compiler follows.  Pure operations that no
    output reads are dropped; an operation whose operand's register is last
    read there writes into that operand's array, and every other array is
    released after its last read.  Only the arrays the program made and the
    caller's Jacobian rows are written: X, Y and Z are only read, each
    component's result is fresh, and its partials are copied into its row.
    """

    __slots__ = ("n", "init", "code", "outputs", "kinks", "kinked")

    def __init__(self, exprs, n: int, dual: bool, values: bool = True):
        c = _Compiler(n, dual, len(exprs))
        for e in exprs:
            c.component(e)
        code, live = [], set()
        for ins in reversed(c.code):
            if ins[3] not in ("ufunc", "call") or ins[1] in live:
                code.append(ins)
                live.update(ins[2])
        code.reverse()
        last = {a: i for i, ins in enumerate(code) for a in ins[2]}
        made = {ins[1] for ins in code if ins[3] in ("ufunc", "call")}
        for i, ins in enumerate(code):
            fn, dst, args, kind = ins
            dying = tuple(a for a in args if a in made and last[a] == i)
            ins[3:] = [dying[0] if dying and kind == "ufunc" else None, dying]
            if kind == "result":
                ins[0] = partial(_result, fn, (args[0] not in dying) if values else None)
        self.code = [tuple(ins) for ins in code]
        self.init = [None] * c.regs
        for reg, value in c.consts.items():
            self.init[reg] = value
        self.n, self.outputs, self.kinks, self.kinked = n, c.outputs, c.kinks, c.kinked

    def run(self, X, Y, Z=None, dests=()) -> tuple[list[np.ndarray], bool]:
        """(each component's value as a fresh array of X's shape, kink flag)
        at the nodes X, Y and the state Z of shape X.shape + (n,), or at the
        zero state, read-only zeros of no grid-sized memory, when Z is None;
        a dual program writes component k's partials into ``dests[k]``, of
        shape X.shape + (n,).  One point is 0-d X and Y with a length-n Z."""
        if np.ndim(X) == 0:  # one point, run as one node
            values, kinked = self.run(np.reshape(X, 1), np.reshape(Y, 1),
                                      None if Z is None else np.reshape(Z, (1, -1)),
                                      [np.reshape(d, (1, -1)) for d in dests])
            return [v.reshape(()).copy() for v in values], kinked
        r = self.init.copy()
        r[_X], r[_Y] = X, Y
        r[_Z:_Z + self.n] = ((np.broadcast_to(0.0, np.shape(X)),) * self.n if Z is None
                             else (Z[..., k] for k in range(self.n)))
        r[_Z + self.n:_Z + self.n + len(dests)] = dests
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for fn, dst, args, into, dying in self.code:
                if into is None:
                    r[dst] = fn(*[r[a] for a in args])
                else:
                    r[dst] = fn(*[r[a] for a in args], out=r[into])
                for a in dying:
                    r[a] = None
        return [r[o] for o in self.outputs], self.kinked or any(r[k] for k in self.kinks)


def eval_on_grid(e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Evaluate over coordinate arrays X, Y and state array Z (shape X.shape + (n,));
    one point is 0-d X and Y with a length-n Z.

    Returns a fresh, writable array of X's shape.  X, Y and Z are only read,
    and the caller may overwrite the result.  A non-finite result (overflow)
    raises EvalOverflowError.
    """
    return _Program((e,), np.shape(Z)[-1], False).run(X, Y, Z)[0][0]


def eval_dual_on_grid(
    e: Expr, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Vectorized forward-mode evaluation.

    Returns (values of X.shape, partials of X.shape + (n,), kink flag), both
    arrays fresh and writable; the flag records whether abs/sqrt was
    differentiated at its kink anywhere.  Non-finite values or partials
    (overflow) raise EvalOverflowError.
    """
    d = np.empty(np.shape(X) + np.shape(Z)[-1:])
    (v,), kinked = _Program((e,), d.shape[-1], True).run(X, Y, Z, [d])
    return v, d, kinked


# -- node samplers ------------------------------------------------------------

def _stack(values: list[np.ndarray]) -> np.ndarray:
    """Component values as one array of shape X.shape + (k,) (a view of the
    one array when k == 1)."""
    return np.expand_dims(values[0], -1) if len(values) == 1 else np.stack(values, -1)


def _components(program: _Program, X, Y, Z=None) -> np.ndarray:
    """A values program's components at the state Z (zero when None) as a
    writable array of shape X.shape + (k,)."""
    return _stack(program.run(X, Y, Z)[0])


def _matrix_program(mat, n: int) -> _Program:
    """The values program of an n×n expression matrix's entries, row-major."""
    return _Program([e for row in mat for e in row], n, False)


def _matrix_values(program: _Program, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """An n×n expression matrix's ``_matrix_program`` sampled at points;
    shape X.shape + (n, n)."""
    return _components(program, X, Y).reshape(X.shape + (program.n,) * 2)


def _jacobian(program: _Program, X, Y, Z) -> tuple[np.ndarray, np.ndarray, bool]:
    """(values of X.shape + (k,), z-Jacobian of X.shape + (k, n) whose row i
    is ∂f_i/∂z, kink flag) of a component vector's dual program, evaluated
    in component order."""
    k = len(program.outputs)
    jac = np.empty(np.shape(X) + (k, program.n))
    values, kinked = program.run(X, Y, Z, [jac[..., i, :] for i in range(k)])
    return np.stack(values, -1), jac, kinked
