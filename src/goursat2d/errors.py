"""Exception hierarchy for the goursat2d package.

All library errors derive from :class:`Goursat2dError` so callers can catch
one base class.  Every bad argument raises :class:`ParameterError`, which is
also a ``ValueError``.  Errors raised while evaluating user expressions carry
the byte offset of the offending AST node and, when available, the grid
coordinates of the sample that faulted.
"""

from __future__ import annotations


class Goursat2dError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(Goursat2dError):
    """Lexical or grammatical error in an expression source string.

    Attributes:
        position: byte offset into the source where the error was detected.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvalFaultError(Goursat2dError):
    """Domain fault while evaluating an expression (log of nonpositive,
    division by zero, ...).

    Attributes:
        position: byte offset of the AST node that faulted.
        where: optional (x, y) coordinates of the faulting sample.
    """

    def __init__(self, message: str, position: int, where: tuple[float, float] | None = None):
        at = f" at (x, y) = ({where[0]:.6g}, {where[1]:.6g})" if where is not None else ""
        super().__init__(f"{message} (expression offset {position}){at}")
        self.position = position
        self.where = where


class EvalOverflowError(EvalFaultError):
    """An expression's value or derivative came out non-finite (overflow).

    Raised where the inputs are finite but too large for the expression; the
    solvers report it as divergence of the iterates, not as an input error.
    """


class SchemaError(Goursat2dError):
    """Malformed problem document.

    Attributes:
        path: dotted path of the offending field, e.g. ``coefficients.A1[0][1]``.
    """

    def __init__(self, message: str, path: str = ""):
        prefix = f"{path}: " if path else ""
        super().__init__(prefix + message)
        self.path = path


class ParameterError(Goursat2dError, ValueError):
    """An argument or command-line setting outside its valid values (a grid
    below 2 cells, a field from another grid, a negative weight, ...)."""


class SolverError(Goursat2dError):
    """Base class for solver failures.  Carries the partial report, if any."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class DivergenceError(SolverError):
    """Fixed-point iteration observed non-contractive behaviour."""


class NoConvergenceError(SolverError):
    """Iteration cap reached before the residual tolerance."""


class StagnationError(SolverError):
    """Newton line search exhausted its backtracking budget."""
