"""Exact manipulation of polynomial coefficient descriptors in (x, y).

The built-in example family takes its matrix coefficients as polynomials in
the spatial variables.  For those we can compute spatial derivatives and sup
bounds exactly instead of numerically: a descriptor expression is folded into
a coefficient table {(i, j): c} meaning Σ c·x^i·y^j, differentiated term by
term, and bounded on the unit square by Σ|c| (each monomial has sup 1 on Q).
Anything non-polynomial is rejected with a descriptive error.
"""

from __future__ import annotations

from .exprlang import Bin, Call, Expr, Num, Unary, Var, parse

Coeffs = dict[tuple[int, int], float]


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out: Coeffs = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return _clean(out)


def _add(a: Coeffs, b: Coeffs, sign: float = 1.0) -> Coeffs:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) + sign * c
    return _clean(out)


def _clean(c: Coeffs) -> Coeffs:
    return {k: v for k, v in c.items() if v != 0.0}


def poly_coeffs(e: Expr) -> Coeffs:
    """Coefficient table of a polynomial expression in x and y.

    Raises ValueError for anything non-polynomial: z-references, function
    calls, division by a non-constant, non-integer or negative powers.
    """
    if isinstance(e, Num):
        return _clean({(0, 0): e.value})
    if isinstance(e, Var):
        if e.name == "x":
            return {(1, 0): 1.0}
        if e.name == "y":
            return {(0, 1): 1.0}
        raise ValueError(f"polynomial descriptors may not reference {e.name!r}")
    if isinstance(e, Unary):
        return _clean({k: -v for k, v in poly_coeffs(e.operand).items()})
    if isinstance(e, Call):
        raise ValueError(f"function {e.fn!r} is not allowed in a polynomial descriptor")
    if isinstance(e, Bin):
        if e.op == "+":
            return _add(poly_coeffs(e.left), poly_coeffs(e.right))
        if e.op == "-":
            return _add(poly_coeffs(e.left), poly_coeffs(e.right), sign=-1.0)
        if e.op == "*":
            return _mul(poly_coeffs(e.left), poly_coeffs(e.right))
        if e.op == "/":
            denom = poly_coeffs(e.right)
            if set(denom) - {(0, 0)}:
                raise ValueError("polynomial descriptors may only divide by constants")
            c = denom.get((0, 0), 0.0)
            if c == 0.0:
                raise ValueError("division by zero in polynomial descriptor")
            return _clean({k: v / c for k, v in poly_coeffs(e.left).items()})
        if e.op == "^":
            if not (isinstance(e.right, Num) and float(e.right.value).is_integer()):
                raise ValueError("polynomial powers must be integer literals")
            p = int(e.right.value)
            if p < 0:
                raise ValueError("polynomial powers must be nonnegative")
            out: Coeffs = {(0, 0): 1.0}
            base = poly_coeffs(e.left)
            for _ in range(p):
                out = _mul(out, base)
            return out
    raise TypeError(f"not an expression node: {e!r}")


def poly_from_source(source: str) -> Coeffs:
    """Parse and fold a polynomial descriptor string."""
    return poly_coeffs(parse(source, 1))


def poly_dx(c: Coeffs) -> Coeffs:
    """Exact d/dx of a coefficient table."""
    return _clean({(i - 1, j): i * v for (i, j), v in c.items() if i > 0})


def poly_dy(c: Coeffs) -> Coeffs:
    """Exact d/dy of a coefficient table."""
    return _clean({(i, j - 1): j * v for (i, j), v in c.items() if j > 0})


def poly_sup_bound(c: Coeffs) -> float:
    """Σ|coefficient| — an upper bound for sup over the unit square."""
    return float(sum(abs(v) for v in c.values()))


def poly_source(c: Coeffs) -> str:
    """Deterministic re-parseable source form, highest-degree terms first."""
    if not c:
        return "0"
    parts = []
    for (i, j) in sorted(c, key=lambda k: (-(k[0] + k[1]), -k[0], -k[1])):
        v = c[(i, j)]
        factors = [repr(v)] if v >= 0 else [f"(-{-v!r})"]
        if i == 1:
            factors.append("x")
        elif i > 1:
            factors.append(f"x^{i}")
        if j == 1:
            factors.append("y")
        elif j > 1:
            factors.append(f"y^{j}")
        parts.append("*".join(factors))
    return " + ".join(parts)
