"""Ground-truth verification suites.

Each suite returns a list of CheckRow records (observed value, reference,
tolerance, pass flag) that the CLI renders as CSV; the suites back the
`klbounds verify <suite>` command.  Anything compared against here is an
exactly computable quantity: Gaussian closed forms, exact OU/LMC laws, or
the dynamic-programming oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, chains, gauss, schemes, shifts

__all__ = [
    "CheckRow",
    "SUITES",
    "run_suite",
    "suite_toy",
    "suite_shifts",
    "suite_gaussian_lmc",
    "suite_local_errors",
    "suite_slopes",
    "exact_quadratic_assumptions",
    "fit_loglog_slope",
]

# Spot references, frozen from the exact closed forms.
TOY_EXACT_KL_SPOT = 0.17342640972002737  # toy_exact_kl(4, 0.1, 1)
TOY_SIMPLE_BOUND_SPOT = 0.57196537904109979  # kl_simple_bound, same instance
LMC_WEAK_SPOT = 0.0048374180359594954  # |e^{-0.1} - 0.9|


@dataclass(frozen=True)
class CheckRow:
    check: str
    observed: float
    reference: float
    tolerance: float
    passed: bool


def _rel_row(name: str, observed: float, reference: float, tol: float) -> CheckRow:
    err = abs(observed - reference) / max(abs(reference), 1e-12)
    return CheckRow(name, observed, reference, tol, err <= tol)


def _abs_row(name: str, observed: float, reference: float, tol: float) -> CheckRow:
    return CheckRow(name, observed, reference, tol, abs(observed - reference) <= tol)


def _geq_row(name: str, observed: float, reference: float) -> CheckRow:
    return CheckRow(name, observed, reference, 0.0, observed >= reference)


def fit_loglog_slope(h_values, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    x = np.log(np.asarray(h_values, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    x = x - x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


# ---------------------------------------------------------------------------
# toy: bound validity on the exactly solvable kernel pair
# ---------------------------------------------------------------------------


def suite_toy() -> list[CheckRow]:
    """Both KL bounds dominate the exact toy KL over the whole grid, n = 1..100.

    The squared-W2 bound dominates the exact squared W2 on the same grid;
    it exceeds it by n w^2, so at w = 0 the two are equal up to rounding.
    """
    rows = [
        _rel_row("toy_exact_spot_n4", gauss.toy_exact_kl(4, 0.1, 1.0), TOY_EXACT_KL_SPOT, 1e-12),
        _rel_row("toy_laws_kl_spot_n4", gauss.kl_gaussian(*gauss.toy_laws(4, 0.1, 1.0)),
                 TOY_EXACT_KL_SPOT, 1e-12),
        _rel_row(
            "toy_simple_spot_n4",
            bounds.kl_simple_bound(bounds.toy_assumptions(0.1, 1.0), 4, 0.0).value,
            TOY_SIMPLE_BOUND_SPOT,
            1e-12,
        ),
    ]
    for w in (0.0, 0.1, 1.0):
        for sigma in (0.5, 1.0, 2.0):
            k = bounds.toy_assumptions(w, sigma)
            for n in range(1, 101):
                exact = gauss.toy_exact_kl(n, w, sigma)
                simple = bounds.kl_simple_bound(k, n, 0.0).value
                cert = bounds.kl_framework_bound(k, n, 0.0, mode="certified").value
                w2 = bounds.w2_framework_bound(k, n, 0.0).value
                exact_w2 = gauss.toy_exact_w2(n, w, sigma)
                tag = f"n{n}_w{w:g}_s{sigma:g}"
                rows.append(_geq_row(f"toy_simple_{tag}", simple, exact))
                rows.append(_geq_row(f"toy_certified_{tag}", cert, exact))
                rows.append(_geq_row(f"toy_w2_{tag}", w2, exact_w2**2 * (1.0 - 1e-12)))
    return rows


# ---------------------------------------------------------------------------
# shifts: closed forms against the DP oracle
# ---------------------------------------------------------------------------


def suite_shifts() -> list[CheckRow]:
    """1000 random Simple instances: closed form vs oracle, schedule vs closed form.

    The oracle must lie within 1e-12 of the closed form and, since it
    evaluates a feasible schedule, not below it beyond that rounding.  L < 1
    instances are drawn with d0 >= a, the regime covered by the contraction
    closed form (which clamps d0 up to a otherwise).
    """
    rng = np.random.default_rng(20240801)
    rows = []
    golden = [
        ("golden_4.5", shifts.optimal_value_L1(2, 1.0, 2.0), 4.5),
        ("golden_2.25", shifts.optimal_value_L1(3, 1.0, 0.5), 2.25),
        ("golden_0.2", shifts.optimal_value_Lgeneral(2, 0.0, 1.0, 0.5), 0.2),
        ("golden_1.8", shifts.optimal_value_Lgeneral(2, 1.0, 1.0, 0.5), 1.8),
    ]
    for name, got, want in golden:
        rows.append(_rel_row(name, got, want, 1e-12))
    for i in range(1000):
        n = int(rng.integers(1, 21))
        contractive = rng.random() < 0.5
        big_l = float(rng.uniform(0.5, 0.99)) if contractive else 1.0
        a, d0 = (float(v) for v in rng.uniform(0.0, 10.0, 2))
        if contractive:
            d0 = max(d0, a)
            closed = shifts.optimal_value_Lgeneral(n, a, d0, big_l)
            schedule = shifts.optimal_shifts_Lgeneral(n, a, d0, big_l)
        else:
            closed = shifts.optimal_value_L1(n, a, d0)
            schedule = shifts.optimal_shifts_L1(n, a, d0)
        problem = shifts.ShiftProblem(n, big_l, d0, shifts.SimpleError(a))
        _, dp_value = shifts.dp_oracle(problem)
        rows.append(_rel_row(f"oracle_{i:04d}", dp_value, closed, 1e-12))
        rows.append(_geq_row(f"floor_{i:04d}", dp_value, closed * (1.0 - 1e-12)))
        reproduced = shifts.evaluate_schedule(problem, schedule).total
        rows.append(_rel_row(f"schedule_{i:04d}", reproduced, closed, 1e-10))
    return rows


# ---------------------------------------------------------------------------
# gaussian-lmc: certified bounds dominate exact KL for 1D quadratic targets
# ---------------------------------------------------------------------------


def exact_quadratic_assumptions(lam: float, h: float, n: int, x0: float) -> bounds.KernelAssumptions:
    """Exact per-step framework constants for 1D LMC against N(0, 1/lam).

    Diffusion-side constants come from langevin_kernel_params (the OU
    reverse transport inequality is an equality, so c is exact).  The local
    errors are the exact coupled values maximized in L2 over the LMC
    iterate laws.  Cross-regularity splits the exact one-step KL between
    the LMC and OU kernels via (p+q)^2 <= 2p^2 + 2q^2, giving
    c' = e^{-2 lam h} / (1 - e^{-2 lam h}) plus a state-dependent b(x)
    whose L2 maximum is taken over the same iterate laws.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    big_l, gamma, c = schemes.langevin_kernel_params(lam, lam, h)
    # second moment about the mode of LMC iterate k: with r = (1 - z)^2 and
    # g_k = sum_{j<k} r^j it is r^k x0^2 + 2h g_k = x0^2 + g_k (2h - (1 - r) x0^2),
    # monotone in k, so its largest value over k < n is at k = 0 or n - 1
    z = lam * h
    g_last = float(chains._lmc_geometric_sum(z, n - 1))
    s2_max = max(x0 * x0, x0 * x0 + g_last * (2.0 * h - z * (2.0 - z) * x0 * x0))
    coef_weak = abs(float(chains._exp_remainder(np.array([z]), 1)[0]))
    coupled_var = float(chains._lmc_coupled_variance(np.array([lam]), h)[0])
    e_weak = coef_weak * math.sqrt(s2_max)
    e_strong = math.sqrt(coef_weak**2 * s2_max + coupled_var)
    v_hat = 2.0 * h
    v_ref = -math.expm1(-2.0 * z) / lam
    c_prime = math.exp(-2.0 * z) / v_ref
    b2_const = 0.5 * (math.log(v_ref / v_hat) + v_hat / v_ref - 1.0)
    b2 = b2_const + coef_weak**2 * s2_max / v_ref
    return bounds.KernelAssumptions(
        L=big_l, gamma=gamma, c=c, c_prime=c_prime, b_bar=math.sqrt(b2),
        e_weak=e_weak, e_strong=e_strong,
    )


def suite_gaussian_lmc() -> list[CheckRow]:
    """Certified framework bound dominates the exact LMC-vs-target KL, target N(0, 1)."""
    lam = 1.0
    pot = chains.PotentialSpec.quadratic_potential(lam)
    target = gauss.Gaussian(0.0, 1.0 / lam)
    rows = []
    for h in (0.2, 0.1, 0.05):
        # one-step cross-regularity validity of the assembled constants
        k1 = exact_quadratic_assumptions(lam, h, 1, 4.0)
        for x, y in ((0.0, 1.0), (1.0, -2.0), (4.0, 0.5)):
            lhs = gauss.kl_gaussian(
                gauss.Gaussian((1.0 - h * lam) * x, 2.0 * h),
                chains.propagate_law(pot, gauss.Gaussian(y, 0.0), "ExactDiffusion", h, 1),
            )
            rhs = k1.c_prime * (x - y) ** 2 + k1.b_bar**2
            rows.append(_geq_row(f"crossreg_h{h:g}_x{x:g}_y{y:g}", rhs, lhs))
            # the constant-1 formula, with grad V(x) = lam x
            c_prime, b = schemes.lmc_cross_reg(lam, 1, h, abs(lam * x))
            rows.append(_geq_row(f"lmc_cross_reg_h{h:g}_x{x:g}_y{y:g}",
                                 c_prime * (x - y) ** 2 + b * b, lhs))
        for n in (10, 100):
            for x0 in (0.0, 1.0, 4.0):
                k = exact_quadratic_assumptions(lam, h, n, x0)
                d0 = math.sqrt(x0 * x0 + 1.0 / lam)
                cert = bounds.kl_framework_bound(k, n, d0, mode="certified").value
                law = chains.propagate_law(pot, gauss.Gaussian(x0, 0.0), "LMC", h, n)
                exact = gauss.kl_gaussian(law, target)
                rows.append(_geq_row(f"certified_h{h:g}_n{n}_x{x0:g}", cert, exact))
    return rows


# ---------------------------------------------------------------------------
# local-errors and slopes
# ---------------------------------------------------------------------------


def suite_local_errors() -> list[CheckRow]:
    """Exactness spot check plus formula-dominates-exact on the unit quadratic.

    The constant-1 formulas (LMC strong, smooth-LMC weak with zeta0 = zeta1 =
    0, RM-LMC weak and strong) must dominate the exact errors at beta = d = 1.
    """
    pot = chains.PotentialSpec.quadratic_potential(1.0)
    rows = []
    spot = chains.estimate_local_errors(pot, "LMC", 1.0, 0.1)
    rows.append(_rel_row("lmc_weak_spot", spot.weak, LMC_WEAK_SPOT, 1e-12))
    for h in (0.2, 0.1, 0.05):
        for x in (0.0, 1.0, 4.0):
            tag = f"h{h:g}_x{x:g}"
            est = chains.estimate_local_errors(pot, "LMC", x, h)
            rm = chains.estimate_local_errors(pot, "RMLMC", x, h)
            _, formula = schemes.lmc_local_errors(1.0, 1, h, abs(x))
            smooth_weak = schemes.lmc_smooth_weak_error(1.0, 0.0, 0.0, 1, h, abs(x))
            rm_weak, rm_strong = schemes.rmlmc_local_errors(1.0, 1, h, abs(x))
            rows.append(_geq_row(f"lmc_strong_formula_{tag}", formula, est.strong))
            rows.append(_geq_row(f"weak_le_strong_{tag}", est.strong, est.weak))
            rows.append(_geq_row(f"lmc_smooth_weak_formula_{tag}", smooth_weak, est.weak))
            rows.append(_geq_row(f"rmlmc_weak_formula_{tag}", rm_weak, rm.weak))
            rows.append(_geq_row(f"rmlmc_strong_formula_{tag}", rm_strong, rm.strong))
    return rows


SLOPE_H_GRID = (0.2, 0.1, 0.05, 0.025)


def suite_slopes() -> list[CheckRow]:
    """Local-error order checks: log-log slopes across dyadic step sizes.

    Weak errors are slope-checked at x = 1.  Strong errors are checked at
    x = 64, deep in the gradient-dominated regime where the h^2 gradient
    term of the strong-error formulas governs; near the mode the h^{3/2}
    dimension term takes over and the slope drops to 3/2.
    """
    pot = chains.PotentialSpec.quadratic_potential(1.0)

    def slope(scheme: str, x: float, which: str) -> float:
        errs = [
            getattr(chains.estimate_local_errors(pot, scheme, x, h), which)
            for h in SLOPE_H_GRID
        ]
        return fit_loglog_slope(SLOPE_H_GRID, errs)

    return [
        _abs_row("slope_lmc_weak", slope("LMC", 1.0, "weak"), 2.0, 0.3),
        _abs_row("slope_rmlmc_weak", slope("RMLMC", 1.0, "weak"), 3.0, 0.3),
        _abs_row("slope_lmc_strong", slope("LMC", 64.0, "strong"), 2.0, 0.3),
        _abs_row("slope_rmlmc_strong", slope("RMLMC", 64.0, "strong"), 2.0, 0.3),
    ]


SUITES = {
    "toy": suite_toy,
    "shifts": suite_shifts,
    "gaussian-lmc": suite_gaussian_lmc,
    "local-errors": suite_local_errors,
    "slopes": suite_slopes,
}


def run_suite(name: str) -> list[CheckRow]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
