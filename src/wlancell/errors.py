"""Exception types shared across the package, and one input check.

The CLI maps these onto process exit codes (see `wlancell.cli`), so
library code should raise the most specific type that applies rather
than a bare ValueError when the failure is one of these three kinds.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class ConfigError(ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Attributes:
      residual: last observed residual (max absolute update).
      iterations: number of iterations performed.
      history: tail of the iterate history, most recent last, for
        post-mortem inspection.
    """

    def __init__(self, message: str, *, residual: float, iterations: int,
                 history: tuple = ()):  # noqa: ANN001 - heterogeneous iterates
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.history = tuple(history)


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


def check_number(value, what: str, integer: bool = False):
    """``value`` if it is a finite number (an integer if asked).

    Raises ConfigError naming ``what`` otherwise; bools do not count.
    """
    try:
        ok = (isinstance(value, Integral if integer else Real)
              and not isinstance(value, bool)
              and (integer or math.isfinite(value)))
    except OverflowError:  # an integer beyond float range
        ok = False
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return value
