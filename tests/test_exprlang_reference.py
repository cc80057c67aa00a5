"""The shipped expression walk against a reference walk, the oracle.

``reference_on_grid`` below is an independent copy of the evaluator written
with Python operators, in which every operation allocates, so it cannot
overwrite an input.  On about 200 seeded random trees the shipped evaluator,
and any later one that compiles or reorders the walk, must give the same
bits (values, partials and kink flag) or the same fault, and must leave X,
Y and Z untouched.
"""

from __future__ import annotations

from functools import partial
from operator import add, mul, sub, truediv

import numpy as np
import pytest

from goursat2d.errors import EvalFaultError, EvalOverflowError
from goursat2d.exprlang import (
    FUNCTIONS,
    Bin,
    Call,
    Num,
    Unary,
    Var,
    _components,
    _fault,
    _jacobian,
    _kink,
    _Program,
    eval_dual_on_grid,
    eval_on_grid,
    parse,
)

# -- the reference walk -------------------------------------------------------


def _ref_fresh(a, shape, inputs):
    if (isinstance(a, np.ndarray) and a.shape == shape and a.flags.owndata
            and a.flags.writeable and not any(a is i for i in inputs)):
        return a
    out = np.empty(shape)
    out[...] = a
    return out


def _ref_ipow(a, p):
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


def _ref_int_exponent(e):
    r, sign = e.right, 1
    if isinstance(r, Unary):
        r, sign = r.operand, -1
    if isinstance(r, Num) and float(r.value).is_integer():
        return sign * int(r.value)
    return None


_REF_ARITHMETIC = {"+": add, "-": sub, "*": mul, "/": truediv}

_REF_CALLS = {
    "sin": (np.sin, lambda a, da, v: np.cos(a)[..., None] * da),
    "cos": (np.cos, lambda a, da, v: -np.sin(a)[..., None] * da),
    "tan": (np.tan, lambda a, da, v: da / np.cos(a)[..., None] ** 2),
    "exp": (np.exp, lambda a, da, v: v[..., None] * da),
    "log": (np.log, lambda a, da, v: da / a[..., None]),
    "atan": (np.arctan, lambda a, da, v: da / (1.0 + a**2)[..., None]),
    "abs": (np.abs, lambda a, da, v: np.sign(a)[..., None] * da),
    "sqrt": (np.sqrt, lambda a, da, v: np.where(
        (a == 0.0)[..., None], 0.0, da / (2.0 * np.where(a == 0.0, 1.0, v)[..., None]))),
}


def _ref_eval(e, X, Y, Z, kink):
    if isinstance(e, Num):
        return np.float64(e.value), None if kink is None else np.zeros(Z.shape[-1])
    if isinstance(e, Var):
        v = X if e.name == "x" else Y if e.name == "y" else Z[..., e.index]
        if kink is None:
            return v, None
        n = Z.shape[-1]
        return v, np.zeros(n) if e.index is None else np.eye(n)[e.index]
    if isinstance(e, Unary):
        a, da = _ref_eval(e.operand, X, Y, Z, kink)
        return -a, None if da is None else -da
    if isinstance(e, Bin):
        a, da = _ref_eval(e.left, X, Y, Z, kink)
        if e.op == "^":
            return _ref_pow(e, a, da, X, Y, Z, kink)
        b, db = _ref_eval(e.right, X, Y, Z, kink)
        if e.op == "/" and np.any(b == 0.0):
            _fault("division by zero", e, b == 0.0, X, Y)
        v = _REF_ARITHMETIC[e.op](a, b)
        if da is None:
            return v, None
        if e.op == "+":
            return v, da + db
        if e.op == "-":
            return v, da - db
        if e.op == "*":
            return v, a[..., None] * db + b[..., None] * da
        return v, (da - v[..., None] * db) / b[..., None]
    if isinstance(e, Call):
        a, da = _ref_eval(e.arg, X, Y, Z, kink)
        if e.fn == "log" and np.any(a <= 0.0):
            _fault("log of a nonpositive value", e, a <= 0.0, X, Y)
        if e.fn == "sqrt" and np.any(a < 0.0):
            _fault("sqrt of a negative value", e, a < 0.0, X, Y)
        ufunc, partials = _REF_CALLS[e.fn]
        v = ufunc(a)
        if da is None:
            return v, None
        if e.fn in ("abs", "sqrt") and np.any((a == 0.0) & np.any(da != 0.0, axis=-1)):
            kink[0] = True
        return v, partials(a, da, v)
    raise TypeError(f"not an expression node: {e!r}")


def _ref_pow(e, a, da, X, Y, Z, kink):
    p = _ref_int_exponent(e)
    if p is not None:
        if p < 0 and np.any(a == 0.0):
            _fault("zero base raised to a negative power", e, a == 0.0, X, Y)
        v = _ref_ipow(a, p)
        if da is None:
            return v, None
        if p == 0:
            return v, np.zeros_like(da)
        return v, (p * _ref_ipow(a, p - 1))[..., None] * da
    b, db = _ref_eval(e.right, X, Y, Z, kink)
    if np.any(a <= 0.0):
        _fault("non-integer power of a nonpositive base", e, a <= 0.0, X, Y)
    v = np.power(a, b)
    if da is None:
        return v, None
    return v, v[..., None] * (db * np.log(a)[..., None] + b[..., None] * da / a[..., None])


def reference_on_grid(e, X, Y, Z, dual: bool):
    """(values, partials or None, kink flag) exactly as the allocating walk gave them."""
    kink = [False] if dual else None
    shape = np.shape(X)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v, d = _ref_eval(e, X, Y, Z, kink)
        v = _ref_fresh(v, shape, (X, Y))
        if d is not None:
            d = _ref_fresh(d, shape + Z.shape[-1:], ())
    if not np.isfinite(v).all():
        _fault("non-finite result (overflow?)", e, ~np.isfinite(v), X, Y, EvalOverflowError)
    if d is not None and not np.isfinite(d).all():
        _fault("non-finite derivative (overflow?)", e, ~np.isfinite(d).all(axis=-1), X, Y,
               EvalOverflowError)
    return v, d, bool(kink and kink[0])


# -- random trees -------------------------------------------------------------

_CONSTANTS = (0.0, 0.5, 1.0, 2.0, 3.0, 0.25)


def random_tree(rng: np.random.Generator, n: int, depth: int):
    """A random expression over x, y, z1..zn; ``pos`` counts nodes, so every
    node of a tree has its own position."""
    counter = iter(range(10**6))
    names = ["x", "y"] + [f"z{i + 1}" for i in range(n)]

    def leaf():
        if rng.random() < 0.25:
            return Num(float(rng.choice(_CONSTANTS)), next(counter))
        name = names[rng.integers(len(names))]
        return Var(name, None if name in "xy" else int(name[1:]) - 1, next(counter))

    def node(d):
        if d == 0:
            return leaf()
        kind = rng.integers(6)
        pos = next(counter)
        if kind == 0:
            return Unary("-", node(d - 1), pos)
        if kind in (1, 2):
            return Bin(str(rng.choice(list("+-*/"))), node(d - 1), node(d - 1), pos)
        if kind == 3:
            p = int(rng.integers(-3, 5))
            exponent = Num(float(abs(p)), next(counter))
            if p < 0:
                exponent = Unary("-", exponent, next(counter))
            return Bin("^", node(d - 1), exponent, pos)
        if kind == 4:
            base = node(d - 1)
            if rng.random() < 0.5:  # a positive base, so that deeper trees evaluate
                base = Bin("+", Call("abs", base, next(counter)), Num(0.5, next(counter)),
                           next(counter))
            return Bin("^", base, node(d - 1), pos)
        return Call(str(rng.choice(FUNCTIONS)), node(d - 1), pos)

    return node(depth)


def kinds(e) -> set[str]:
    """The node kinds of a tree, for the coverage check."""
    if isinstance(e, Num):
        return {"num"}
    if isinstance(e, Var):
        return {"x" if e.name == "x" else "y" if e.name == "y" else "z"}
    if isinstance(e, Unary):
        return {"neg"} | kinds(e.operand)
    if isinstance(e, Bin):
        op = e.op
        if op == "^":
            op = "int^" if _ref_int_exponent(e) is not None else "real^"
        return {op} | kinds(e.left) | kinds(e.right)
    return {e.fn} | kinds(e.arg)


def _outcome(run):
    """The value of ``run()``, or the fault it raised as comparable data."""
    try:
        return "ok", run()
    except EvalFaultError as exc:
        return "fault", (type(exc), str(exc), exc.position, exc.where)


def _same_bits(a, b):
    assert np.shape(a) == np.shape(b)
    assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _inputs(rng, n, shape):
    """Writable, data-owning X, Y (as np.meshgrid gives them) and Z."""
    if shape == ():
        X, Y = np.asarray(rng.uniform(0.0, 1.0)), np.asarray(rng.uniform(0.0, 1.0))
    else:
        X, Y = np.meshgrid(np.linspace(0.0, 1.0, shape[0]), np.linspace(0.0, 1.0, shape[1]),
                           indexing="ij")
    Z = rng.uniform(-1.5, 1.5, shape + (n,))
    if shape:
        Z[0, 0] = 0.0  # the kinks of abs and sqrt, and zero bases
    return X, Y, Z


TREES = 200


class TestAgainstAllocatingWalk:
    def test_random_trees_match_bit_for_bit(self):
        rng = np.random.default_rng(20240601)
        covered: set[str] = set()
        compared = 0
        for t in range(TREES):
            n = 1 + t % 2
            e = random_tree(rng, n, depth=int(rng.integers(1, 5)))
            for shape in ((5, 4), ()):
                X, Y, Z = _inputs(rng, n, shape)
                saved = [a.copy() for a in (X, Y, Z)]
                for dual in (False, True):
                    want = _outcome(lambda: reference_on_grid(e, X, Y, Z, dual))
                    if dual:
                        got = _outcome(lambda: eval_dual_on_grid(e, X, Y, Z))
                    else:
                        got = _outcome(lambda: (eval_on_grid(e, X, Y, Z), None, False))
                    for a, s in zip((X, Y, Z), saved):
                        _same_bits(a, s)
                    assert got[0] == want[0], repr(e)
                    if got[0] == "fault":
                        assert got[1] == want[1], repr(e)
                        continue
                    (gv, gd, gk), (wv, wd, wk) = got[1], want[1]
                    _same_bits(gv, wv)
                    assert gk == wk
                    if dual:
                        _same_bits(gd, wd)
                    assert gv.flags.writeable and gv.flags.owndata
                    compared += 1
                    covered |= kinds(e)
        # most trees evaluate, and those that do use every kind of node
        assert compared >= 2 * TREES
        assert covered >= {"num", "x", "y", "z", "neg", "+", "-", "*", "/", "int^", "real^",
                           *FUNCTIONS}

    @pytest.mark.parametrize("src", ["y + 1", "x * 2", "-(x)", "x^2", "sin(y)", "z1^1 + x"])
    def test_meshgrid_inputs_are_not_overwritten(self, src):
        # X and Y from np.meshgrid own their data; a walk that trusted ownership
        # alone would write y + 1 into Y
        from goursat2d.exprlang import parse

        X, Y = np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 3), indexing="ij")
        Z = np.linspace(-1, 1, 12).reshape(4, 3, 1)
        saved = [a.copy() for a in (X, Y, Z)]
        e = parse(src, 1)
        for _ in range(2):
            v = eval_on_grid(e, X, Y, Z)
            vd, d, _ = eval_dual_on_grid(e, X, Y, Z)
            for out in (v, vd, d):
                assert not any(np.shares_memory(out, a) for a in (X, Y, Z))
        for a, s in zip((X, Y, Z), saved):
            _same_bits(a, s)
        _same_bits(v, reference_on_grid(e, X, Y, Z, dual=False)[0])


# -- what the compiler adds: sharing, structural zeros, fault order -----------


def grid_inputs(n, shape=(6, 5), seed=7):
    """Seeded ``_inputs`` on a small grid."""
    return _inputs(np.random.default_rng(seed), n, shape)


class TestCompiledVectors:
    #: f1's components, then f2's, as an OperatorContext compiles them
    SHARED = [
        ["(1) * (z1^3/(1 + z1^2) + cos(z1^2))", "(1) * (z1 - 1)/(1 + z1^2) + sin(z1^2)"],
        ["sin(z1*z2) + x*cos(z2)", "sin(z1*z2)*z2 - 1/(1 + z1^2)",
         "cos(z2)*x - 1/(1 + z1^2)", "z1/(1 + z2^2) + x*cos(z2) + sin(z1*z2)"],
        ["sqrt(abs(z1)) + exp(-z1^2)", "exp(-z1^2)*sqrt(abs(z1))", "abs(z1) - x*y",
         "x*y + abs(z1)"],
    ]

    @pytest.mark.parametrize("sources", SHARED, ids=["example46", "n2", "kinks"])
    def test_shared_subtrees_match_the_walk_component_by_component(self, sources):
        n = 2 if any("z2" in s for s in sources) else 1
        exprs = [parse(s, n) for s in sources]
        X, Y, Z = grid_inputs(n)
        want = [reference_on_grid(e, X, Y, Z, dual=True) for e in exprs]
        values = _components(_Program(exprs, n, False), X, Y, Z)
        vals, jac, kinked = _jacobian(_Program(exprs, n, True), X, Y, Z)
        for i, (wv, wd, _) in enumerate(want):
            _same_bits(values[..., i], wv)
            _same_bits(vals[..., i], wv)
            _same_bits(jac[..., i, :], wd)
        assert kinked == any(k for _, _, k in want)

    def test_a_fault_in_a_repeated_subtree_names_its_first_occurrence(self):
        src = "z1 + log(x - 0.5) + log(x - 0.5)"
        e = parse(src, 1)
        X, Y, Z = grid_inputs(1)
        with pytest.raises(EvalFaultError) as exc:
            eval_on_grid(e, X, Y, Z)
        assert exc.value.position == src.index("log") == _outcome(
            lambda: reference_on_grid(e, X, Y, Z, False))[1][2]
        # and across components: the second component's copy is never reached
        f1, f2 = parse("log(x - 0.5)*z1", 1), parse("  2 + log(x - 0.5)", 1)
        with pytest.raises(EvalFaultError) as exc:
            _components(_Program([f1, f2], 1, False), X, Y, Z)
        assert exc.value.position == 0

    def test_an_overflowing_f1_raises_before_a_fault_only_f2_reaches(self):
        X, Y, Z = grid_inputs(1)
        f1 = parse("z1 + exp(1000*x)", 1)
        f2 = parse("log(z1 - 5) + exp(1000*x)", 1)
        for run in (lambda: _components(_Program([f1, f2], 1, False), X, Y, Z),
                    lambda: _jacobian(_Program([f1, f2], 1, True), X, Y, Z)):
            with pytest.raises(EvalOverflowError) as exc:
                run()
            assert exc.value.position == f1.pos
            assert str(exc.value) == _outcome(lambda: reference_on_grid(f1, X, Y, Z, False))[1][1]

    @pytest.mark.parametrize("src", ["(-1)*(z1 - z1)", "0*z1 - x", "-(z1 - z1) + x",
                                     "(-1)*(z2 - z2) + z1", "x*y - y*x", "-(0*x)"])
    def test_zero_partials_keep_their_sign(self, src):
        e = parse(src, 2)
        X, Y, Z = grid_inputs(2)
        v, d, _ = eval_dual_on_grid(e, X, Y, Z)
        wv, wd, _ = reference_on_grid(e, X, Y, Z, True)
        _same_bits(v, wv)
        _same_bits(d, wd)
        assert (d == 0.0).any()

    def test_equal_trees_from_different_sources_name_their_own_offsets(self):
        X, Y, Z = grid_inputs(1)
        a, b = parse("log(x - 0.5)", 1), parse("   log(x - 0.5)", 1)
        assert a == b and hash(a) == hash(b)  # structural equality ignores pos
        for e, pos in ((a, 0), (b, 3), (a, 0), (b, 3)):
            with pytest.raises(EvalFaultError) as exc:
                eval_dual_on_grid(e, X, Y, Z)
            assert exc.value.position == pos

    def test_a_huge_integer_power_is_one_operation(self):
        e = parse("z1^1e300", 1)
        assert len(_Program((e,), 1, True).code) < 10
        X, Y, Z = grid_inputs(1)
        Z = np.clip(Z, -1.0, 1.0)
        Z[0, 0] = 1.0
        want = _outcome(lambda: reference_on_grid(e, X, Y, Z, True))
        got = _outcome(lambda: eval_dual_on_grid(e, X, Y, Z))
        assert got[0] == want[0]
        if got[0] == "fault":
            assert got[1] == want[1]
        else:
            for g, w in zip(got[1], want[1]):
                _same_bits(g, w)


def _ops(program):
    """The numpy operations of a program, in order: no checks or outputs."""
    return [ins[0] for ins in program.code
            if not isinstance(ins[0], partial) and ins[0] is not _kink]


class TestCompilerMechanisms:
    """What each of the compiler's eliminations removes, on programs small
    enough to read; the values still match the walk."""

    @pytest.mark.parametrize("sources, n, lengths", [
        (TestCompiledVectors.SHARED[0], 1, (18, 42)),  # example46
        (["z1*z2/4 + x*sin(z2)", "sin(z1) - y*z2^2/8 + (1 + z1^2)*x",  # the bit pins' n = 2
          "cos(z2)*x - 1/(1 + z1^2)", "z1/(1 + z2^2) + y*sin(z2)"], 2, (31, 117)),
    ], ids=["example46", "coupled"])
    def test_program_lengths_of_f1_and_f2(self, sources, n, lengths):
        exprs = [parse(s, n) for s in sources]
        assert (len(_Program(exprs, n, False).code),
                len(_Program(exprs, n, True, values=False).code)) == lengths

    @pytest.mark.parametrize("dual", [False, True])
    def test_a_call_in_two_components_is_one_operation(self, dual):
        exprs = [parse("sin(z1) + x", 1), parse("y*sin(z1)", 1)]
        assert _ops(_Program(exprs, 1, dual)).count(np.sin) == 1
        X, Y, Z = grid_inputs(1)
        vals, jac, _ = _jacobian(_Program(exprs, 1, True), X, Y, Z)
        for i, e in enumerate(exprs):
            wv, wd, _ = reference_on_grid(e, X, Y, Z, True)
            _same_bits(vals[..., i], wv)
            _same_bits(jac[..., i, :], wd)

    @pytest.mark.parametrize("src, ops", [
        ("(1)*z1/1", []),  # neutral elements: the result is z1 itself
        ("2*3 + z1", [np.add]),  # constants folded
        ("(-x)^0 + z1", [np.add]),  # -x is read by nothing that an output reads
    ])
    def test_eliminated_operations(self, src, ops):
        e = parse(src, 1)
        assert _ops(_Program((e,), 1, False)) == ops
        X, Y, Z = grid_inputs(1)
        _same_bits(eval_on_grid(e, X, Y, Z), reference_on_grid(e, X, Y, Z, False)[0])
