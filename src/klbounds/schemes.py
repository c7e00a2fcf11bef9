"""Per-scheme coefficient formulas and the iteration-complexity planner.

The diffusion-side constants (contraction, coupling, regularity) are exact.
Every discretization-side level is the analyses' order-level formula taken
at constant 1, with no factor to set; the `verify` suites check the ones
that dominate the exact errors.  The planner transcribes the step-size /
iteration-count prescriptions for the nine (scheme, setting) cells, with
the analyses' unspecified multiplicative factor surfaced as an explicit
user constant (default 1); it is an arithmetic transcription, not a claim
that constant 1 yields valid end-to-end guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import _checks

__all__ = [
    "langevin_kernel_params",
    "lmc_local_errors",
    "lmc_cross_reg",
    "lmc_smooth_weak_error",
    "rmlmc_local_errors",
    "rmlmc_cross_reg",
    "gradient_bound",
    "PlanParams",
    "PlanResult",
    "plan_iterations",
    "SETTINGS",
    "PLAN_SCHEMES",
]

SETTINGS = ("SLC", "WLC", "LSI")
PLAN_SCHEMES = ("LMC", "LMC_SMOOTH", "RMLMC")


def langevin_kernel_params(alpha: float, beta: float, h: float) -> tuple[float, float, float]:
    """Exact (L, gamma, c) of the Langevin diffusion run for time h.

    L = e^{-alpha h}; gamma = beta (1 - e^{-alpha h}) / alpha (limit beta*h
    at alpha = 0); c = alpha / (2 (e^{2 alpha h} - 1)) (limit 1/(4h)).
    Valid for alpha of either sign with alpha <= beta.
    """
    _checks.finite(alpha=alpha, beta=beta)
    _checks.positive(h=h)
    if alpha > beta:
        raise ValueError("alpha must be <= beta")
    big_l = math.exp(-alpha * h)
    if alpha == 0.0:
        gamma = beta * h
        c = 1.0 / (4.0 * h)
    else:
        gamma = beta * (-math.expm1(-alpha * h)) / alpha
        c = alpha / (2.0 * math.expm1(2.0 * alpha * h))
    return big_l, gamma, c


def _or_inf(formula: Callable[[], float]) -> float:
    """formula(), or inf where it overflows.

    Python's float ``**`` raises OverflowError where ``*`` would give inf,
    a divisor that underflowed to 0 raises ZeroDivisionError, and 0 times an
    overflowed inf gives nan.  Each returns inf, as ``bounds._pow`` does: a
    value too large for a float, never below the true one.  Where nothing
    overflows the bits are formula()'s.
    """
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return math.inf if math.isnan(value) else value


def _require_step(h: float, beta: float, **levels: float):
    """A formula's inputs: h > 0, beta and every level >= 0, and h <= 1/beta."""
    _checks.positive(h=h)
    _checks.nonnegative(beta=beta, **levels)
    if beta > 0.0 and h > 1.0 / beta:
        raise ValueError("requires h <= 1/beta")


def lmc_local_errors(beta: float, d: int, h: float, grad_norm: float) -> tuple[float, float]:
    """LMC local error levels for h <= 1/beta.

    e_strong = beta h^2 |grad V(x)| + beta sqrt(d) h^{3/2}; the weak level
    uses the trivial bound e_weak = e_strong.
    """
    _require_step(h, beta, grad_norm=grad_norm)
    e_strong = _or_inf(lambda: beta * h * h * grad_norm + beta * math.sqrt(d) * h**1.5)
    return e_strong, e_strong


def lmc_cross_reg(beta: float, d: int, h: float, grad_norm: float) -> tuple[float, float]:
    """LMC cross-regularity: c' = 1 / h and b = sqrt(beta^2 h^3 grad^2 + beta^2 d h^2).

    b is taken as beta h hypot(sqrt(h) grad, sqrt(d)), with beta h <= 1
    multiplied last: no square is formed, and no partial product underflows
    where b does not.
    """
    _require_step(h, beta, grad_norm=grad_norm)
    c_prime = 1.0 / h
    b = _or_inf(lambda: beta * h * math.hypot(math.sqrt(h) * grad_norm, math.sqrt(d)))
    return c_prime, b


def lmc_smooth_weak_error(
    beta: float, zeta0: float, zeta1: float, d: int, h: float, grad_norm: float
) -> float:
    """Improved LMC weak error under |grad Laplacian V| <= zeta0 + zeta1 |grad V|:
    (beta+zeta1) h^2 grad + (beta+zeta1) beta sqrt(d) h^{5/2} + zeta0 h^2."""
    _require_step(h, beta, zeta0=zeta0, zeta1=zeta1, grad_norm=grad_norm)
    return _or_inf(lambda: (
        (beta + zeta1) * h * h * grad_norm
        + (beta + zeta1) * beta * math.sqrt(d) * h**2.5
        + zeta0 * h * h
    ))


def rmlmc_local_errors(beta: float, d: int, h: float, grad_norm: float) -> tuple[float, float]:
    """RM-LMC local errors: the weak level gains a factor of h over LMC.

    e_weak = beta^2 h^3 grad + beta^2 sqrt(d) h^{5/2}; e_strong is the LMC
    level beta h^2 grad + beta sqrt(d) h^{3/2}.  e_weak is taken as
    beta h (beta h sqrt(h) (sqrt(h) grad + sqrt(d))): beta^2, which can
    underflow where the level does not, is never formed.
    """
    _, e_strong = lmc_local_errors(beta, d, h, grad_norm)
    root_h = math.sqrt(h)
    bh = beta * h
    e_weak = _or_inf(lambda: bh * (bh * root_h * (root_h * grad_norm + math.sqrt(d))))
    return e_weak, e_strong


def rmlmc_cross_reg(beta: float, d: int, h: float, grad_norm: float) -> tuple[float, float]:
    """RM-LMC cross-regularity for h < 1/beta strictly.

    c' = log(1/(beta h)) / h -- a log(1/(beta h)) inflation of the LMC
    value -- while b keeps the LMC expression.
    """
    _checks.positive(beta=beta, h=h)
    if h >= 1.0 / beta:
        raise ValueError("requires h < 1/beta")
    _, b = lmc_cross_reg(beta, d, h, grad_norm)
    return _or_inf(lambda: math.log(1.0 / (beta * h)) / h), b


def gradient_bound(
    beta: float, d: int, w2_to_pi: float = math.inf, kl_to_pi: float = math.inf
) -> float:
    """Bound on E_mu |grad V|^2: beta d + min(beta^2 W2^2, beta KL).

    An unknown distance is inf, its default.
    """
    _checks.nonnegative(beta=beta)
    _checks.count("d", d, least=0)
    _checks.level(w2_to_pi=w2_to_pi, kl_to_pi=kl_to_pi)
    if beta == 0.0:  # no gradient, whatever the distances (0 * inf would be nan)
        return 0.0
    return _or_inf(lambda: beta * d + min(beta**2 * w2_to_pi**2, beta * kl_to_pi))


# ---------------------------------------------------------------------------
# Iteration-complexity planner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanParams:
    alpha: float
    beta: float
    d: int
    eps: float
    zeta0: float = 0.0
    zeta1: float = 0.0
    w2_init: Optional[float] = None  # W = W2(mu0, pi), required by WLC cells


@dataclass(frozen=True)
class PlanResult:
    """Planner output: step size, iteration count, and provenance notes.

    ``n_powerlaw`` is the pure power-law core of the iteration count (the
    rate-table exponents, constant 1, no logarithms); ``n_iterations``
    multiplies in the instantiated polylog and takes a ceiling.
    """

    scheme: str
    setting: str
    h: float
    n_iterations: int
    n_powerlaw: float
    polylog: str
    assumptions_echo: str

    def __post_init__(self):
        if self.h <= 0.0 or self.n_iterations < 1:
            raise ValueError("planner produced an invalid (h, N)")


_INIT_ECHO = {
    "SLC": "W2(mu0, pi) <= sqrt(d/alpha) (e.g. Dirac at the mode)",
    "WLC": "W = W2(mu0, pi) supplied by the caller",
    "LSI": "log chi2(mu0 || pi) = O~(d) (e.g. N(x*, I/beta) for SLC targets)",
}


def _core_and_h(scheme: str, setting: str, p: PlanParams) -> tuple[float, float]:
    """Power-law (N_core, h) for one cell, constant 1, polylogs excluded."""
    beta, d, eps = p.beta, p.d, p.eps
    if setting in ("SLC", "LSI"):
        kappa = beta / p.alpha
    if setting == "WLC":
        w = p.w2_init
        if w is None:
            raise ValueError("WLC planning requires w2_init = W2(mu0, pi) > 0")
    if scheme == "LMC":
        if setting == "SLC" or setting == "LSI":
            return kappa**2 * d / eps**2, eps**2 / (beta * kappa * d)
        return beta**2 * d * w**4 / eps**6, eps**4 / (beta**2 * d * w**2)
    if scheme == "LMC_SMOOTH":
        if setting == "SLC":
            kbar0 = p.zeta0 / p.alpha**1.5
            kbar1 = p.zeta1 / p.alpha
            core = (kbar0 + (kappa**2 + kappa * kbar1) * math.sqrt(d)) / eps
            log_arg = max((kappa + kbar1) * d / eps**2, math.e)
            h_second = 1.0 / math.sqrt(
                (1.0 + p.zeta1 / beta) * (kappa + kbar1) * kappa * d * math.log(log_arg)
            )
            h = (eps / beta) * (min(kappa / kbar0, h_second) if kbar0 > 0 else h_second)
            return core, h
        if setting == "LSI":
            kbar0 = p.zeta0 / p.alpha**1.5
            kbar1 = p.zeta1 / p.alpha
            core = (kbar0 + (kappa**1.5 + math.sqrt(kappa) * kbar1) * math.sqrt(d)) / eps
            h = eps / max(
                (beta + p.zeta1) * math.sqrt(kappa * d), p.zeta0 / math.sqrt(p.alpha)
            )
            return core, h
        core = (
            (p.zeta0 + (beta + p.zeta1) * (beta * w + math.sqrt(beta * d))) * w**3 / eps**4
        )
        h = eps**2 / max(
            p.zeta0 * w, (beta + p.zeta1) * beta * w**2,
            (beta + p.zeta1) * math.sqrt(beta * d * w**2),
        )
        return core, h
    if scheme == "RMLMC":
        if setting == "SLC":
            return kappa * math.sqrt(d) / eps, eps / (beta * math.sqrt(d))
        if setting == "LSI":
            return kappa**1.5 * math.sqrt(d) / eps, eps / (beta * math.sqrt(kappa * d))
        return (
            beta ** (4.0 / 3.0) * d ** (1.0 / 3.0) * w ** (8.0 / 3.0) / eps ** (10.0 / 3.0),
            eps ** (4.0 / 3.0) / (beta ** (4.0 / 3.0) * d ** (1.0 / 3.0) * w ** (2.0 / 3.0)),
        )
    raise ValueError(f"unknown scheme {scheme!r}")


def _check_eps_range(scheme: str, setting: str, p: PlanParams):
    root_d = math.sqrt(p.d)
    if setting == "WLC":
        return
    kappa = p.beta / p.alpha
    limits = {
        ("LMC", "SLC"): root_d,
        ("LMC", "LSI"): root_d,
        ("LMC_SMOOTH", "SLC"): math.sqrt(p.d / kappa),
        ("LMC_SMOOTH", "LSI"): root_d,
        ("RMLMC", "SLC"): root_d / kappa,
        ("RMLMC", "LSI"): root_d,
    }
    lim = limits[(scheme, setting)]
    if p.eps > lim:
        raise ValueError(
            f"eps = {p.eps:g} outside the stated range (0, {lim:g}] for {scheme}/{setting}"
        )


def plan_iterations(
    setting: str, scheme: str, params: PlanParams, constant: float = 1.0
) -> PlanResult:
    """Transcribed (h, N) prescription for one of the nine planner cells.

    N = ceil(constant * N_core * polylog) where the polylog is the printed
    log(d/eps^2) factor where the source states one explicitly and the same
    generic factor where only an order-tilde is stated; h is scaled by the
    same user constant.  Absolute constants are not claimed.
    """
    if setting not in SETTINGS:
        raise ValueError(f"setting must be one of {SETTINGS}")
    if scheme not in PLAN_SCHEMES:
        raise ValueError(f"scheme must be one of {PLAN_SCHEMES}")
    _checks.positive(constant=constant, beta=params.beta, eps=params.eps)
    _checks.finite(alpha=params.alpha, zeta0=params.zeta0, zeta1=params.zeta1)
    if params.w2_init is not None:
        _checks.positive(w2_init=params.w2_init)
    _checks.count("d", params.d)
    if setting in ("SLC", "LSI") and params.alpha <= 0.0:
        raise ValueError(f"{setting} requires alpha > 0")
    _check_eps_range(scheme, setting, params)
    core, h = _core_and_h(scheme, setting, params)
    # LMC/SLC prints its log factor; LMC/WLC is stated without one; every
    # other cell hides a polylog behind an order-tilde, instantiated here
    # with the same log(d/eps^2).
    if scheme == "LMC" and setting == "WLC":
        polylog_value, polylog = 1.0, "none [stated without polylog]"
    elif scheme == "LMC" and setting == "SLC":
        polylog_value = math.log(max(params.d / params.eps**2, math.e))
        polylog = "log(d/eps^2) [printed]"
    else:
        polylog_value = math.log(max(params.d / params.eps**2, math.e))
        polylog = "log(d/eps^2) [generic polylog]"
    n_iter = max(1, math.ceil(constant * core * polylog_value))
    return PlanResult(
        scheme=scheme,
        setting=setting,
        h=constant * h,
        n_iterations=n_iter,
        n_powerlaw=core,
        polylog=polylog,
        assumptions_echo=_INIT_ECHO[setting],
    )
