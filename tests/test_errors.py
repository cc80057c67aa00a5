"""Every bad argument raises ParameterError, which is also a ValueError."""

from __future__ import annotations

import numpy as np
import pytest

from goursat2d.errors import Goursat2dError, ParameterError
from goursat2d.grid import Grid, GridField
from goursat2d.norms import WeightedNorms
from goursat2d.operator import apply_F, coercivity_probe, make_context
from goursat2d.problem import builtin_example_4_6
from goursat2d.sampling import random_smooth_field
from goursat2d.solvers import choose_weight


def _unprobed_context():
    return make_context(builtin_example_4_6(), Grid(8))  # B = 1


def _below_threshold():
    ctx = _unprobed_context()
    coercivity_probe(ctx, [random_smooth_field(ctx.grid, 1, np.random.default_rng(1))], m=8.0)


@pytest.mark.parametrize("call,message", [
    (lambda: Grid(1), "grid needs at least 2 cells per axis, got 1"),
    (lambda: GridField(Grid(2), np.ones((3, 3))),
     "field values must have shape (3, 3, n), got (3, 3)"),
    (lambda: WeightedNorms(Grid(4), -1), "weight exponent must be nonnegative, got -1.0"),
    (_below_threshold, "coercivity bound needs m > 8B = 8, got m = 8"),
    (lambda: choose_weight(_unprobed_context()),
     "choose_weight needs an assumption probe; build the context with "
     "probe_assumptions(...) attached (with_assumptions)"),
    (lambda: apply_F(_unprobed_context(), GridField(Grid(4), np.ones((5, 5, 1)))),
     "field on Grid(cells=4) does not match context grid Grid(cells=8)"),
], ids=["coarse-grid", "field-shape", "negative-weight", "below-8B", "no-probe", "foreign-grid"])
def test_bad_argument_raises_parameter_error(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, Goursat2dError)
    assert str(info.value) == message
