"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every reference value is computed from an independent route (exact
Gaussian calculus, hand-derived closed forms, DP oracle, exact coupled
laws) before being compared at the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from klbounds import bounds, chains, gauss, schemes, shifts, verify


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_toy_bound_validity():
    """Both KL bounds dominate the exact toy KL on the full grid; spot values."""
    t0 = time.perf_counter()
    violations = 0
    cells = 0
    for w in (0.0, 0.1, 1.0):
        for sigma in (0.5, 1.0, 2.0):
            k = bounds.toy_assumptions(w, sigma)
            for n in range(1, 101):
                exact = gauss.toy_exact_kl(n, w, sigma)
                if bounds.kl_simple_bound(k, n, 0.0).value < exact:
                    violations += 1
                if bounds.kl_framework_bound(k, n, 0.0, "certified").value < exact:
                    violations += 1
                cells += 1
    exact_spot = gauss.toy_exact_kl(4, 0.1, 1.0)
    simple_spot = bounds.kl_simple_bound(bounds.toy_assumptions(0.1, 1.0), 4, 0.0).value
    # References derived by hand from the closed forms:
    # exact = (4 w^2 + sigma^2 - log 2)/2, simple = 4 (4a)^2/16 + b^2 (the simple
    # bound clamps w2_init = 0 up to a)
    a2 = 0.1**2 + (math.sqrt(2.0) - 1.0) ** 2
    b2 = 0.1**2 + 0.5 * (1.0 - math.log(2.0))
    want_exact = 0.5 * (4 * 0.01 + 1.0 - math.log(2.0))
    want_simple = 4.0 * 16.0 * a2 / 16.0 + b2
    spot_ok = (
        abs(exact_spot - want_exact) < 1e-12
        and abs(simple_spot - want_simple) < 1e-12
        and abs(exact_spot - 0.173426) < 1e-6
        and abs(simple_spot - 0.889718) < 1e-6
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        violations == 0 and spot_ok and elapsed < 5.0,
        f"{cells} grid cells, {violations} violations, exact {exact_spot:.6f}, "
        f"simple {simple_spot:.6f}, {elapsed:.2f}s",
    )


def test_criterion_2_shift_oracle_equivalence():
    """1000 random instances: closed forms vs DP oracle, a two-sided 1e-12
    sandwich (the oracle evaluates a feasible schedule, so it is never below
    the optimum beyond rounding), schedules (1e-10)."""
    t0 = time.perf_counter()
    rows = verify.suite_shifts()
    elapsed = time.perf_counter() - t0
    failed = [r for r in rows if not r.passed]
    oracle_rows = [r for r in rows if r.check.startswith("oracle_")]
    floor_rows = [r for r in rows if r.check.startswith("floor_")]
    sched_rows = [r for r in rows if r.check.startswith("schedule_")]
    golden = {r.check: r for r in rows if r.check.startswith("golden")}
    golden_ok = all(r.passed for r in golden.values()) and len(golden) == 4
    report(
        2,
        not failed and len(oracle_rows) == 1000 and len(floor_rows) == 1000
        and len(sched_rows) == 1000 and golden_ok and elapsed < 60.0
        and all(r.tolerance == 1e-12 for r in oracle_rows),
        f"{len(oracle_rows)} oracle rows, {len(floor_rows)} floor rows, "
        f"{len(sched_rows)} schedule rows, {len(failed)} failures, {elapsed:.1f}s",
    )


def test_criterion_3_structural_identity():
    """kl_simple_bound equals the schedule-evaluated (c, c', b) objective."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(1, 31))
        big_l = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.5, 0.99))
        a = float(rng.uniform(0.0, 3.0))
        d0 = float(rng.uniform(a, a + 4.0))  # identity regime: d0 >= a
        c = float(rng.uniform(0.1, 3.0))
        c_prime = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(0.0, 1.0))
        k = bounds.KernelAssumptions(L=big_l, c=c, c_prime=c_prime, b_bar=b, a=a)
        simple = bounds.kl_simple_bound(k, n, d0).value
        if big_l == 1.0:
            schedule = shifts.optimal_shifts_L1(n, a, d0)
        else:
            schedule = shifts.optimal_shifts_Lgeneral(n, a, d0, big_l)
        problem = shifts.ShiftProblem(
            n, big_l, d0, shifts.SimpleError(a), c=c, c_prime=c_prime, b=b
        )
        evaluated = shifts.evaluate_schedule(problem, schedule).total
        worst = max(worst, abs(simple - evaluated) / max(abs(evaluated), 1e-12))
    worked = bounds.kl_simple_bound(
        bounds.KernelAssumptions(L=0.5, c=1.0, c_prime=2.0), 2, 1.0
    ).value
    worked_ok = abs(worked - 0.36) < 1e-12
    report(
        3,
        worst <= 1e-12 and worked_ok,
        f"200 draws, worst relative gap {worst:.2e}, worked case {worked:.6f}",
    )


def test_criterion_4_exact_gaussian_certified_bounds():
    """Certified bounds dominate the exact LMC-vs-target KL: 18 cells, zero slack."""
    t0 = time.perf_counter()
    pot = chains.PotentialSpec.quadratic_potential(1.0)
    target = gauss.Gaussian(0.0, 1.0)
    violations = 0
    margins = []
    for h in (0.2, 0.1, 0.05):
        for n in (10, 100):
            for x0 in (0.0, 1.0, 4.0):
                k = verify.exact_quadratic_assumptions(1.0, h, n, x0)
                d0 = math.sqrt(x0 * x0 + 1.0)
                cert = bounds.kl_framework_bound(k, n, d0, "certified").value
                law = chains.propagate_law(pot, gauss.Gaussian(x0, 0.0), "LMC", h, n)
                exact = gauss.kl_gaussian(law, target)
                margins.append(cert / max(exact, 1e-300))
                if cert < exact:
                    violations += 1
    elapsed = time.perf_counter() - t0
    report(
        4,
        violations == 0 and elapsed < 30.0,
        f"18 cells, {violations} violations, bound/exact in "
        f"[{min(margins):.3g}, {max(margins):.3g}], {elapsed:.1f}s",
    )


def test_criterion_5_local_error_exactness_and_order():
    """Weak-error exactness spot plus log-log order checks."""
    t0 = time.perf_counter()
    pot = chains.PotentialSpec.quadratic_potential(1.0)
    spot = chains.estimate_local_errors(pot, "LMC", 1.0, 0.1).weak
    want_spot = abs(math.exp(-0.1) - 0.9)
    spot_ok = abs(spot - want_spot) < 1e-12 and abs(spot - 0.004837) < 1e-6
    hs = (0.2, 0.1, 0.05, 0.025)

    def slope(scheme, x, which):
        errs = [getattr(chains.estimate_local_errors(pot, scheme, x, h), which)
                for h in hs]
        return verify.fit_loglog_slope(hs, errs)

    # weak orders at x = 1; strong orders in the gradient-dominated regime
    # (x = 64) where the h^2 gradient term of the strong-error level governs
    s_lmc_weak = slope("LMC", 1.0, "weak")
    s_rm_weak = slope("RMLMC", 1.0, "weak")
    s_lmc_strong = slope("LMC", 64.0, "strong")
    s_rm_strong = slope("RMLMC", 64.0, "strong")
    slopes_ok = (
        abs(s_lmc_weak - 2.0) <= 0.3
        and abs(s_rm_weak - 3.0) <= 0.3
        and abs(s_lmc_strong - 2.0) <= 0.3
        and abs(s_rm_strong - 2.0) <= 0.3
    )
    elapsed = time.perf_counter() - t0
    report(
        5,
        spot_ok and slopes_ok and elapsed < 300.0,
        f"spot {spot:.6f}, slopes lmc_w {s_lmc_weak:.2f}, rm_w {s_rm_weak:.2f}, "
        f"lmc_s {s_lmc_strong:.2f}, rm_s {s_rm_strong:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_auxiliary_process_recursion():
    """Empirical auxiliary-process distances match the analytic optimal trace."""
    t0 = time.perf_counter()
    w, d0, n = 0.25, 2.0, 8
    # pure-bias toy kernel (sigma = 0): the one-step Wasserstein gap is
    # exactly w and the optimal-schedule recursion holds with equality
    hat, ref = chains.toy_kernel_pair(w, 0.0)
    schedule = shifts.optimal_shifts_L1(n, w, d0)
    problem = shifts.ShiftProblem(n, 1.0, d0, shifts.SimpleError(w))
    analytic = shifts.evaluate_schedule(problem, schedule).distances
    trace = chains.auxiliary_process_sim(
        hat, ref, schedule, 0.0, -d0, replicas=100_000, seed=0
    )
    worst_pull = 0.0
    ok = True
    for k in range(n):
        gap = abs(trace.distances[k] - analytic[k])
        # 2e-3 covers the residual finite-cloud bias of the W2 estimator
        tol = 3.0 * trace.stderrs[k] + 2e-3
        worst_pull = max(worst_pull, gap / tol)
        ok = ok and gap <= tol
    elapsed = time.perf_counter() - t0
    report(
        6,
        ok and elapsed < 120.0,
        f"N={n}, 1e5 replicas, worst gap {worst_pull:.2f}x tolerance, {elapsed:.1f}s",
    )


def test_criterion_7_planner_scaling():
    """Nine-cell plan reproduces the rate-table exponents as exact ratios."""
    t0 = time.perf_counter()
    base = dict(alpha=1.0, beta=2.0, d=4, eps=0.5, w2_init=3.0)

    def core(setting, scheme, **kw):
        params = schemes.PlanParams(**{**base, **kw})
        return schemes.plan_iterations(setting, scheme, params).n_powerlaw

    # every cell evaluates at (d, 2d) x (eps, eps/2)
    ratios = {}
    for scheme in schemes.PLAN_SCHEMES:
        for setting in schemes.SETTINGS:
            r_d = core(setting, scheme, d=8) / core(setting, scheme)
            r_e = core(setting, scheme, eps=0.25) / core(setting, scheme)
            ratios[(scheme, setting)] = (r_d, r_e)
    named = [
        (ratios[("LMC", "SLC")][0], 2.0),               # N ~ d
        (ratios[("RMLMC", "SLC")][0], math.sqrt(2.0)),  # N ~ d^{1/2}
        (ratios[("LMC", "WLC")][1], 64.0),              # N ~ eps^{-6}
        (ratios[("RMLMC", "WLC")][1], 2.0 ** (10.0 / 3.0)),  # N ~ eps^{-10/3}
    ]
    exact_ok = all(abs(got - want) <= 1e-12 * want for got, want in named)
    eps_exponents = {
        ("LMC", "SLC"): 4.0, ("LMC", "WLC"): 64.0, ("LMC", "LSI"): 4.0,
        ("LMC_SMOOTH", "SLC"): 2.0, ("LMC_SMOOTH", "WLC"): 16.0,
        ("LMC_SMOOTH", "LSI"): 2.0,
        ("RMLMC", "SLC"): 2.0, ("RMLMC", "WLC"): 2.0 ** (10.0 / 3.0),
        ("RMLMC", "LSI"): 2.0,
    }
    grid_ok = all(
        abs(ratios[cell][1] - want) <= 1e-12 * want
        for cell, want in eps_exponents.items()
    )
    elapsed = time.perf_counter() - t0
    report(
        7,
        exact_ok and grid_ok and elapsed < 1.0,
        f"nine cells at two d and two eps values; named ratios "
        f"{[round(g, 6) for g, _ in named]}, {elapsed:.2f}s",
    )


def test_criterion_8_gaussian_property_suite():
    """Non-negativity, identity, affine invariance, triangle, Renyi order."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)

    def random_gaussian(d):
        m = rng.standard_normal(d)
        a = rng.standard_normal((d, d))
        return gauss.Gaussian(m, a @ a.T + 0.05 * np.eye(d))

    failures = 0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        p, q, r = (random_gaussian(d) for _ in range(3))
        # non-negativity and identity of indiscernibles
        if gauss.kl_gaussian(p, q) < -1e-12 or gauss.kl_gaussian(p, p) > 1e-10:
            failures += 1
        # the Bures cross term leaves sqrt(roundoff * trace) residue at p = p
        w2_scale = 1e-6 * math.sqrt(1.0 + np.trace(p.cov))
        if gauss.w2_gaussian(p, q) < 0.0 or gauss.w2_gaussian(p, p) > w2_scale:
            failures += 1
        if gauss.renyi_gaussian(2.0, p, p) > 1e-10:
            failures += 1
        # affine invariance of KL
        mat = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        vec = rng.standard_normal(d)
        before = gauss.kl_gaussian(p, q)
        after = gauss.kl_gaussian(
            gauss.affine_pushforward(p, mat, vec), gauss.affine_pushforward(q, mat, vec)
        )
        if abs(after - before) > 1e-9 * max(1.0, abs(before)):
            failures += 1
        # triangle inequality for W2
        if gauss.w2_gaussian(p, r) > (
            gauss.w2_gaussian(p, q) + gauss.w2_gaussian(q, r) + 1e-9
        ):
            failures += 1
        # Renyi monotone in the order
        vals = [gauss.renyi_gaussian(o, p, q) for o in (1.2, 1.5, 2.0, 4.0, 8.0)]
        if any(b < a - 1e-10 for a, b in zip(vals, vals[1:])):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(
        8,
        failures == 0 and elapsed < 5.0,
        f"100 instances per property, {failures} failures, {elapsed:.2f}s",
    )
