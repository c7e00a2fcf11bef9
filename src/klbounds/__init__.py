"""Certified KL divergence bounds for Langevin-type samplers.

Subpackages:

- ``gauss``:   exact divergence/transport calculus between Gaussians (ground truth)
- ``shifts``:  shift-schedule optimization (closed forms, three-phase schedules, DP oracle)
- ``bounds``:  framework-level W2/KL bound evaluators (closed-form and certified)
- ``chains``:  LMC / randomized-midpoint kernels, exact laws, local-error estimators
- ``schemes``: per-algorithm coefficient formulas and the iteration-complexity planner
- ``cli``:     batch verification / reproduction command line tool
"""

__version__ = "0.1.0"

from . import gauss, shifts, bounds, chains, schemes, verify  # noqa: F401
