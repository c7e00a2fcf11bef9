"""The input rules every public entry point applies to its scalar arguments.

Each rule takes the arguments as keywords, ``rule(name=value, ...)``, and
raises ValueError naming the first one that breaks it:

- ``finite``: a finite number, or an array of them;
- ``nonnegative``: finite and >= 0;
- ``positive``: finite and > 0;
- ``level``: >= 0 or +inf, for a level that overflowed (it stands for a
  finite value too large for a float);

and ``count(name, n, least=1)`` requires an integer count n >= least.  nan
breaks every rule.
"""

from __future__ import annotations

import math

import numpy as np


def _rule(holds, wording: str):
    def check(**values) -> None:
        for name, value in values.items():
            if not holds(value):
                raise ValueError(f"{name} must be {wording}, got {value!r}")

    return check


finite = _rule(lambda v: np.isfinite(v).all(), "finite")
nonnegative = _rule(lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
positive = _rule(lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")
level = _rule(lambda v: v >= 0.0, ">= 0")


def count(name: str, n: int, least: int = 1) -> None:
    if not n >= least:
        raise ValueError(f"{name} must be >= {least}, got {n!r}")
