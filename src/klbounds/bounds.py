"""Framework-level bound evaluators driven by per-step kernel constants.

Two modes are exposed throughout:

- ``closed_form``: order-of-magnitude expressions that inherit an
  unspecified multiplicative constant from the underlying analysis,
  surfaced here as the user-settable ``implied_constant`` (default 1), and
  labeled non-certified.
- ``certified``: evaluation of the schedule objective
  c * sum eta_n^2 d_n^2 + c' * d_{N-1}^2 + b_bar^2 for a concrete feasible
  (three-phase) schedule, rounded up to no less than its exact value.  No
  hidden constants: whenever the one-step assumptions hold with the
  supplied constants, the value is a valid KL upper bound.

Invalid input raises ValueError (see KernelAssumptions; the simple and
certified modes need finite error levels).  A square or power that
overflows a float is inf, so a bound whose exact value is out of range is
inf, never an OverflowError.  A bound is never nan: a 0 * inf left by an
overflow is also reported as inf, which is still a valid upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _checks, gauss, shifts

__all__ = [
    "KernelAssumptions",
    "BoundReport",
    "w2_framework_bound",
    "kl_simple_bound",
    "kl_framework_bound",
    "toy_assumptions",
    "n_bar",
]


@dataclass(frozen=True)
class KernelAssumptions:
    """Per-step constants feeding the bound evaluators.

    L: one-step W2-Lipschitz factor; gamma: coupling coefficient;
    c: regularity, KL(d_x P || d_y P) <= c |x-y|^2;
    (c_prime, b_bar): cross-regularity KL(d_x Phat || d_y P) <= c' |x-y|^2 + b^2;
    e_weak / e_strong: local error levels; a: uniform one-step Wasserstein
    bias W2(d_x Phat, d_y P) <= L |x-y| + a.  nan is rejected everywhere;
    the levels b_bar, e_weak, e_strong and a may be inf (an exact level that
    overflows, e.g. for an unstable chain), every other constant is finite.
    """

    L: float
    gamma: float = 0.0
    c: float = 0.0
    c_prime: float = 0.0
    b_bar: float = 0.0
    e_weak: float = 0.0
    e_strong: float = 0.0
    a: float = 0.0
    implied_constant: float = 1.0

    def __post_init__(self):
        _checks.positive(L=self.L, implied_constant=self.implied_constant)
        _checks.nonnegative(gamma=self.gamma, c=self.c, c_prime=self.c_prime)
        _checks.level(b_bar=self.b_bar, e_weak=self.e_weak, e_strong=self.e_strong, a=self.a)


@dataclass(frozen=True)
class BoundReport:
    value: float
    mode: str  # "closed_form" | "certified"
    constant_used: float
    schedule: shifts.ShiftSchedule | None = None
    trace: shifts.ObjectiveTrace | None = None


_UNIT_ROUNDOFF = 2.0**-53


def _nan_to_inf(value: float) -> float:
    return math.inf if math.isnan(value) else value


def _pow(x: float, p: int) -> float:
    """x**p, or inf where the power overflows a float."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def n_bar(L: float, n: int) -> float:
    """Effective horizon N ∧ 1/(1-L)_+; equals N whenever L >= 1."""
    _checks.positive(L=L)
    if L >= 1.0:
        return float(n)
    return min(float(n), 1.0 / (1.0 - L))


def _ratio_lm1(L: float, n: int) -> float:
    """(L^{-1} - 1) / (L^{-n} - 1), interpreted as 1/n at L = 1.

    Where L^{-n} overflows (L < 1, n (-ln L) > ~709) the equal form
    (L^{-1} - 1) L^n / (1 - L^n) is used.
    """
    if L == 1.0:
        return 1.0 / n
    u = math.log(L)
    try:
        return math.expm1(-u) / math.expm1(-n * u)
    except OverflowError:
        return math.expm1(-u) * math.exp(n * u) / -math.expm1(n * u)


def _round_up(total: float, n: int) -> float:
    """The certified total rounded up past its rounding: >= the exact objective.

    With u = 2^-53 every IEEE operation returns its exact result times
    (1 + delta), |delta| <= u, and libm's pow, behind the two squares
    d_{N-1}**2 and b_bar**2, is within one ulp, |delta| <= 2u (barring
    underflow: no nonzero product or quotient below 2^-1022).  Every term is
    non-negative, so a sum's relative error is at most that of its worst
    term, and each term collects one factor per rounding it passes through:

    - a1 = e_weak + gamma e_strong: 2.  Step k of the recursion, under its
      square root, gives L^2 (1-eta)^2 d_k^2 the roundings of L*L, twice
      that of 1 - eta, three products, d_k * d_k and two sums: 9; the a1
      and a0^2 terms fewer.  With the root's own rounding d_k is within
      (1 +- u)^{5.5k} of its exact value, and d_k^2 within (1 +- u)^{11k}.
    - c eta_k^2 d_k^2 (k <= N-2): two squares, a product, at most N-2 sums
      in any summation order, c, and the sums with the final term and with
      b_bar^2: N + 4 + 11k <= 12N - 18.
    - c' d_{N-1}^2: the pow (2), c', the sums with b^2 = 0, with the main
      term and with b_bar^2, and 11(N-1): 11N - 5.  b_bar^2: 3.

    So the computed total T~ >= T (1-u)^{12N-5} and T <= T~ (1 + gamma_{12N-5}),
    gamma_j = j u / (1 - j u).  The factor used, 1 + gamma_{12N}, is at
    least 5u larger.  That covers the four roundings of forming and applying
    it (1 - j u, the quotient, 1 + gamma, the product), less the > u that
    math.nextafter adds by moving the result one ulp up.  An inf total stays
    inf.
    """
    ju = 12.0 * n * _UNIT_ROUNDOFF
    return math.nextafter(total * (1.0 + ju / (1.0 - ju)), math.inf)


def w2_framework_bound(k: KernelAssumptions, n: int, w2_init: float) -> BoundReport:
    """Squared-W2 bound of the standard local-error framework.

    L <= 1:  L^N W^2 + Nbar^2 (Ew + gamma Es)^2 + Nbar Es^2
    L >  1:  L^{3N} [W^2 + (Ew + gamma Es)^2/(L-1)^2 + Es^2/(L-1)]
    multiplied by the implied constant.
    """
    _checks.count("n", n)
    _checks.nonnegative(w2_init=w2_init)
    drift = k.e_weak + k.gamma * k.e_strong
    if k.L <= 1.0:
        nb = n_bar(k.L, n)
        raw = k.L**n * _pow(w2_init, 2) + nb**2 * _pow(drift, 2) + nb * _pow(k.e_strong, 2)
    else:
        bracket = (_pow(w2_init, 2) + _pow(drift, 2) / _pow(k.L - 1.0, 2)
                   + _pow(k.e_strong, 2) / (k.L - 1.0))
        # L^{3N} may be inf; a zero bracket keeps the bound 0, not inf * 0
        raw = _pow(k.L, 3 * n) * bracket if bracket else 0.0
    return BoundReport(_nan_to_inf(k.implied_constant * raw), "closed_form", k.implied_constant)


def kl_simple_bound(k: KernelAssumptions, n: int, w2_init: float) -> BoundReport:
    """Exact-constant KL bound from the coupling analysis (L <= 1 only).

    Structurally identical to shifts.final_bound_with_cross_reg evaluated
    at (n, a, w2_init, L, c, c', b_bar), which clamps w2_init < a up to a;
    no implied constant enters.
    """
    if not 0.0 < k.L <= 1.0:
        raise ValueError("kl_simple_bound requires L in (0, 1]")
    _checks.nonnegative(w2_init=w2_init, a=k.a, b_bar=k.b_bar)
    value = shifts.final_bound_with_cross_reg(
        n, k.a, w2_init, k.L, k.c, k.c_prime, k.b_bar
    )
    return BoundReport(_nan_to_inf(value), "closed_form", 1.0)


def kl_framework_bound(
    k: KernelAssumptions, n: int, w2_init: float, mode: str = "closed_form"
) -> BoundReport:
    """KL local-error framework bound, closed-form or certified.

    closed_form:
        constant * (c + c') [ (L^{-1}-1)/(L^{-N}-1) W^2
                              + ((L-1) N  v  log Nbar) Es^2
                              + Nbar (Ew + gamma Es)^2 ] + b_bar^2.
    certified (1/2 <= L <= 2):
        builds the three-phase schedule, propagates the squared-distance
        recursion with a0 = Es, a1 = Ew + gamma Es from d_0 = w2_init, and
        returns the objective plus b_bar^2 with no constant, rounded up
        so that it is no less than its exact value (see _round_up).
    """
    _checks.count("n", n)
    _checks.nonnegative(w2_init=w2_init)
    a1 = k.e_weak + k.gamma * k.e_strong
    a0 = k.e_strong
    if mode == "closed_form":
        nb = n_bar(k.L, n)
        strong_factor = max((k.L - 1.0) * n, math.log(nb))
        raw = (k.c + k.c_prime) * (
            _ratio_lm1(k.L, n) * _pow(w2_init, 2) + strong_factor * _pow(a0, 2)
            + nb * _pow(a1, 2)
        )
        return BoundReport(
            _nan_to_inf(k.implied_constant * raw + _pow(k.b_bar, 2)), "closed_form",
            k.implied_constant,
        )
    if mode == "certified":
        if not 0.5 <= k.L <= 2.0:
            raise ValueError("certified mode requires 1/2 <= L <= 2")
        _checks.nonnegative(e_weak=k.e_weak, e_strong=k.e_strong)
        if not math.isfinite(a1):
            raise ValueError(f"certified mode needs a finite e_weak + gamma * e_strong, got inf "
                             f"from e_weak={k.e_weak!r}, gamma={k.gamma!r}, "
                             f"e_strong={k.e_strong!r}")
        schedule = shifts.three_phase_schedule(n, k.L)
        problem = shifts.ShiftProblem(
            n, k.L, w2_init, shifts.WeakAwareError(a0, a1), c=k.c, c_prime=k.c_prime, b=0.0
        )
        trace = shifts.evaluate_schedule(problem, schedule)
        return BoundReport(_round_up(trace.total + _pow(k.b_bar, 2), n), "certified", 1.0,
                           schedule=schedule, trace=trace)
    raise ValueError(f"unknown mode {mode!r}")


def toy_assumptions(w: float, sigma: float) -> KernelAssumptions:
    """Exact framework constants for the 1D toy kernel pair.

    P adds N(0,1) noise, Phat additionally convolves with N(w, sigma^2):
    L = 1 and gamma = 0 (identical reference kernel), weak error w, strong
    error a = sqrt(w^2 + (sqrt(1+sigma^2)-1)^2) (the exact one-step W2 gap),
    regularity c = 1, and cross-regularity c' = 1 with
    b^2 = w^2 + (sigma^2 - log(1+sigma^2))/2.
    """
    gauss._check_toy(w, sigma)
    s2 = sigma * sigma
    gap = s2 / (1.0 + math.sqrt(1.0 + s2))
    a = math.sqrt(w * w + gap * gap)
    b2 = w * w + 0.5 * (s2 - math.log1p(s2))
    return KernelAssumptions(
        L=1.0, gamma=0.0, c=1.0, c_prime=1.0, b_bar=math.sqrt(b2),
        e_weak=abs(w), e_strong=a, a=a,
    )
