"""Shift optimization: closed forms against brute-force/DP oracles and
hand-propagated schedule evaluations."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbounds import shifts
from klbounds.bounds import KernelAssumptions, kl_framework_bound, toy_assumptions
from klbounds.shifts import (
    FeasibilityError,
    ShiftProblem,
    ShiftSchedule,
    SimpleError,
    WeakAwareError,
    dp_oracle,
    evaluate_schedule,
    final_bound_with_cross_reg,
    optimal_shifts_L1,
    optimal_shifts_Lgeneral,
    optimal_value_L1,
    optimal_value_Lgeneral,
    propagate_distances,
    three_phase_schedule,
)
from klbounds.verify import exact_quadratic_assumptions


def three_phase_by_loop(n, big_l):
    """Slow reference: the three-phase schedule one numpy entry at a time."""
    eta = np.ones(n)
    log_l = math.log(big_l)
    for k in range(n - 1):
        remaining = n - k
        if big_l <= 1.0:
            if remaining * (-log_l) >= math.log(2.0):
                try:
                    eta[k] = math.expm1(-log_l) / math.expm1(remaining * (-log_l))
                except OverflowError:
                    eta[k] = math.expm1(-log_l) * big_l**remaining / -math.expm1(remaining * log_l)
            else:
                eta[k] = 1.0 / remaining
        else:
            if remaining > 2.0 * big_l / (big_l - 1.0):
                eta[k] = 1.0 - 1.0 / (big_l * big_l)
            else:
                ratio = (remaining - 1.0) / remaining
                eta[k] = 1.0 - ratio * ratio / big_l
    return eta


def distances_by_loop(problem, eta):
    """Slow reference: the distance recursion on numpy scalars."""
    d = np.empty(problem.n)
    d[0] = problem.d0
    big_l = problem.L
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(problem.error, SimpleError):
            a = problem.error.a
            for k in range(problem.n - 1):
                d[k + 1] = big_l * (1.0 - eta[k]) * d[k] + a
        else:
            a0, a1 = problem.error.a0, problem.error.a1
            for k in range(problem.n - 1):
                rest = 1.0 - eta[k]
                d[k + 1] = math.sqrt(
                    big_l * big_l * rest * rest * d[k] ** 2 + 2.0 * a1 * rest * d[k] + a0 * a0
                )
    return d


def certified_by_loop(k, n, w2_init):
    """The certified bound from the reference loops, in evaluate_schedule's order."""
    eta = three_phase_by_loop(n, k.L)
    a1 = k.e_weak + k.gamma * k.e_strong
    pr = ShiftProblem(n, k.L, w2_init, WeakAwareError(k.e_strong, a1), c=k.c, c_prime=k.c_prime)
    d = distances_by_loop(pr, eta)
    main = pr.c * float(np.sum(eta[:-1] ** 2 * d[:-1] ** 2))
    final = pr.c_prime * d[-1] ** 2 + pr.b**2
    return main + final + k.b_bar**2


def grid_min_two_step(n2_l, a, d0, c=1.0, c_prime=1.0, points=400_001):
    """Dense-grid oracle for the 2-shift problem (single free shift)."""
    eta = np.linspace(0.0, 1.0, points)
    d1 = n2_l * (1.0 - eta) * d0 + a
    vals = c * eta**2 * d0**2 + c_prime * d1**2
    j = int(np.argmin(vals))
    return float(eta[j]), float(vals[j])


class TestEvaluateSchedule:
    def test_no_shift_until_final(self):
        pr = ShiftProblem(2, 1.0, 1.0, SimpleError(1.0))
        tr = evaluate_schedule(pr, ShiftSchedule(np.array([0.0, 1.0])))
        assert tr.distances[1] == pytest.approx(2.0)
        assert tr.total == pytest.approx(4.0)

    def test_hand_propagation(self):
        pr = ShiftProblem(2, 1.0, 2.0, SimpleError(1.0))
        tr = evaluate_schedule(pr, ShiftSchedule(np.array([0.75, 1.0])))
        assert tr.distances[1] == pytest.approx(1.5)
        assert tr.main_term == pytest.approx(2.25)
        assert tr.final_term == pytest.approx(2.25)
        assert tr.total == pytest.approx(optimal_value_L1(2, 1.0, 2.0))

    def test_contractive_cross_regularity_case(self):
        pr = ShiftProblem(2, 0.5, 1.0, SimpleError(0.0), c=1.0, c_prime=2.0)
        tr = evaluate_schedule(pr, ShiftSchedule(np.array([0.2, 1.0])))
        assert tr.total == pytest.approx(0.04 + 2 * 0.16)

    def test_infeasible_schedules_rejected(self):
        pr = ShiftProblem(2, 1.0, 1.0, SimpleError(1.0))
        with pytest.raises(FeasibilityError):
            evaluate_schedule(pr, ShiftSchedule(np.array([0.5, 1.0, 1.0])))
        with pytest.raises(FeasibilityError):
            ShiftSchedule(np.array([1.2, 1.0]))
        with pytest.raises(FeasibilityError):
            ShiftSchedule(np.array([0.5, 0.9]))

    def test_weak_aware_recursion(self):
        pr = ShiftProblem(3, 0.8, 2.0, WeakAwareError(0.5, 0.3))
        eta = np.array([0.4, 0.2, 1.0])
        tr = evaluate_schedule(pr, eta)
        d = [2.0]
        for k in range(2):
            rest = 1.0 - eta[k]
            d.append(math.sqrt(0.64 * rest**2 * d[k] ** 2 + 0.6 * rest * d[k] + 0.25))
        np.testing.assert_allclose(tr.distances, d, rtol=1e-12)

    def test_trace_total_is_sum(self):
        pr = ShiftProblem(4, 1.0, 1.0, SimpleError(0.5), c=2.0, c_prime=3.0, b=0.7)
        tr = evaluate_schedule(pr, ShiftSchedule(np.array([0.1, 0.2, 0.3, 1.0])))
        assert tr.total == tr.main_term + tr.final_term


class TestL1ClosedForms:
    def test_golden_values(self):
        assert optimal_value_L1(2, 1.0, 2.0) == pytest.approx(4.5)
        assert optimal_value_L1(3, 1.0, 0.5) == pytest.approx(0.25 + 2.0)
        assert optimal_value_L1(4, 0.0, 1.0) == pytest.approx(0.25)

    def test_shifts_golden(self):
        sched = optimal_shifts_L1(2, 1.0, 2.0)
        np.testing.assert_allclose(sched.eta, [0.75, 1.0])
        dist = evaluate_schedule(ShiftProblem(2, 1.0, 2.0, SimpleError(1.0)), sched).distances
        np.testing.assert_allclose(dist, [2.0, 1.5])
        sched = optimal_shifts_L1(4, 0.0, 1.0)
        np.testing.assert_allclose(sched.eta, [0.25, 1 / 3, 0.5, 1.0])

    def test_distance_trace_matches_explicit_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            a, d0 = rng.uniform(0, 5, 2)
            pr = ShiftProblem(n, 1.0, d0, SimpleError(a))
            dist = evaluate_schedule(pr, optimal_shifts_L1(n, a, d0)).distances
            explicit = [max(a, (k * a + (n - k) * d0) / n) for k in range(1, n)]
            np.testing.assert_allclose(dist[1:], explicit, rtol=1e-12, atol=1e-12)

    def test_schedule_reproduces_value(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            a, d0 = rng.uniform(0, 10, 2)
            sched = optimal_shifts_L1(n, a, d0)
            pr = ShiftProblem(n, 1.0, d0, SimpleError(a))
            got = evaluate_schedule(pr, sched).total
            assert got == pytest.approx(optimal_value_L1(n, a, d0), rel=1e-12, abs=1e-12)

    def test_feasible_for_small_d0(self):
        sched = optimal_shifts_L1(5, 2.0, 0.5)
        assert np.all(sched.eta >= 0.0) and np.all(sched.eta <= 1.0)
        assert sched.eta[-1] == 1.0

    def test_degenerate_instance(self):
        sched = optimal_shifts_L1(4, 0.0, 0.0)
        pr = ShiftProblem(4, 1.0, 0.0, SimpleError(0.0))
        trace = evaluate_schedule(pr, sched)
        assert np.all(trace.distances == 0.0)
        assert trace.total == 0.0

    def test_no_random_schedule_beats_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            a, d0 = rng.uniform(0, 4, 2)
            pr = ShiftProblem(n, 1.0, d0, SimpleError(a))
            best = optimal_value_L1(n, a, d0)
            etas = rng.uniform(0, 1, (10_000, n))
            etas[:, -1] = 1.0
            for row in etas[:300]:
                assert evaluate_schedule(pr, ShiftSchedule(row)).total >= best - 1e-10
            # vectorized check on the full batch
            d = np.full(10_000, d0)
            totals = np.zeros(10_000)
            for k in range(n - 1):
                totals += etas[:, k] ** 2 * d**2
                d = (1.0 - etas[:, k]) * d + a
            totals += d**2
            assert np.all(totals >= best - 1e-10)


class TestLgeneralClosedForms:
    def test_golden_values_against_grid_oracle(self):
        for a, want_eta, want_val in [(0.0, 0.2, 0.2), (1.0, 0.6, 1.8)]:
            eta_g, val_g = grid_min_two_step(0.5, a, 1.0)
            assert optimal_value_Lgeneral(2, a, 1.0, 0.5) == pytest.approx(val_g, rel=1e-9)
            sched = optimal_shifts_Lgeneral(2, a, 1.0, 0.5)
            assert sched.eta[0] == pytest.approx(want_eta, abs=1e-6)
            assert sched.eta[0] == pytest.approx(eta_g, abs=1e-5)
            assert optimal_value_Lgeneral(2, a, 1.0, 0.5) == pytest.approx(want_val)

    def test_schedule_reproduces_value(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            big_l = float(rng.uniform(0.3, 0.999))
            a = float(rng.uniform(0, 5))
            d0 = float(rng.uniform(a, a + 10))
            sched = optimal_shifts_Lgeneral(n, a, d0, big_l)
            pr = ShiftProblem(n, big_l, d0, SimpleError(a))
            got = evaluate_schedule(pr, sched).total
            want = optimal_value_Lgeneral(n, a, d0, big_l)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_clamps_small_d0(self):
        assert optimal_value_Lgeneral(4, 2.0, 0.5, 0.8) == optimal_value_Lgeneral(
            4, 2.0, 2.0, 0.8
        )

    def test_limit_to_unit_contraction(self):
        for n, a, d0 in [(2, 1.0, 2.0), (5, 1.0, 2.0), (12, 0.3, 4.0)]:
            near = optimal_value_Lgeneral(n, a, d0, 1.0 - 1e-7)
            exact = optimal_value_L1(n, a, d0)
            assert abs(near - exact) / exact < 1e-6

    def test_monotone_in_a_and_d0(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            big_l = float(rng.uniform(0.5, 0.99))
            a = float(rng.uniform(0, 3))
            d0 = float(rng.uniform(a, a + 5))
            base = optimal_value_Lgeneral(n, a, d0, big_l)
            assert optimal_value_Lgeneral(n, a + 0.1, d0 + 0.1, big_l) >= base
            assert optimal_value_L1(n, a + 0.1, d0 + 0.1) >= optimal_value_L1(n, a, d0)

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_value_Lgeneral(3, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            optimal_value_Lgeneral(3, 1.0, 2.0, 1.5)


class TestFinalBoundWithCrossReg:
    def test_unit_contraction_golden(self):
        got = final_bound_with_cross_reg(2, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0)
        assert got == pytest.approx(3.0)

    def test_contractive_golden(self):
        got = final_bound_with_cross_reg(2, 0.0, 1.0, 0.5, 1.0, 2.0, 0.0)
        assert got == pytest.approx(0.36)

    def test_huge_c_with_zero_c_prime_is_not_negative(self):
        # at n = 1 only c' weighs; c + (c' - c) r once cancelled to -2.5e-309
        got = final_bound_with_cross_reg(1, 0.0, 1e-300, 0.5, 2.2468019526085308e307, 0.0, 0.0)
        assert got == 0.0

    def test_reduces_to_uniform_cost(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            big_l = float(rng.uniform(0.5, 1.0))
            a = float(rng.uniform(0, 3))
            d0 = float(rng.uniform(a, a + 5))
            c = float(rng.uniform(0.1, 3))
            got = final_bound_with_cross_reg(n, a, d0, big_l, c, c, 0.0)
            want = c * (
                optimal_value_L1(n, a, d0) if big_l == 1.0
                else optimal_value_Lgeneral(n, a, d0, big_l)
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_equals_schedule_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            big_l = 1.0 if rng.random() < 0.4 else float(rng.uniform(0.5, 0.99))
            a = float(rng.uniform(0, 3))
            d0 = float(rng.uniform(a, a + 5))
            c = float(rng.uniform(0.1, 3))
            c_prime = float(rng.uniform(0.1, 3))
            b = float(rng.uniform(0, 1))
            if big_l == 1.0:
                sched = optimal_shifts_L1(n, a, d0)
            else:
                sched = optimal_shifts_Lgeneral(n, a, d0, big_l)
            pr = ShiftProblem(n, big_l, d0, SimpleError(a), c=c, c_prime=c_prime, b=b)
            got = evaluate_schedule(pr, sched).total
            want = final_bound_with_cross_reg(n, a, d0, big_l, c, c_prime, b)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestThreePhase:
    def test_unit_contraction_is_harmonic(self):
        np.testing.assert_allclose(three_phase_schedule(4, 1.0).eta, [0.25, 1 / 3, 0.5, 1.0])

    def test_contractive_initial_phase(self):
        got = three_phase_schedule(3, 0.5).eta
        np.testing.assert_allclose(got, [1 / 7, 1 / 3, 1.0], rtol=1e-12)

    def test_feasible_across_contraction_range(self):
        for big_l in np.linspace(0.5, 2.0, 31):
            for n in (1, 2, 3, 8, 33):
                eta = three_phase_schedule(n, float(big_l)).eta
                assert np.all(eta >= 0.0) and np.all(eta <= 1.0)
                assert eta[-1] == 1.0

    def test_long_contractive_horizon(self):
        # L^{-(n-k)} overflows for n - k > ~6737 at L = 0.9
        eta = three_phase_schedule(10_000, 0.9).eta
        assert np.all(np.isfinite(eta)) and np.all(eta >= 0.0) and eta[-1] == 1.0
        big_l = Decimal(0.9)
        with localcontext(prec=40):
            for k in range(3240, 3280):
                want = float((1 / big_l - 1) / (big_l ** -(10_000 - k) - 1))
                assert eta[k] == pytest.approx(want, rel=1e-9)

    def test_expansive_phases(self):
        big_l = 2.0  # 2L/(L-1) = 4, so early steps damp by 1 - 1/L^2
        eta = three_phase_schedule(10, big_l).eta
        np.testing.assert_allclose(eta[:6], 0.75)
        for k in range(6, 9):
            rem = 10 - k
            assert eta[k] == pytest.approx(1.0 - ((rem - 1.0) / rem) ** 2 / big_l)

    def test_domain(self):
        with pytest.raises(ValueError):
            three_phase_schedule(5, 0.4)
        with pytest.raises(ValueError):
            three_phase_schedule(5, 2.5)

    def test_overflow_switch_is_where_expm1_overflows(self):
        assert math.isfinite(math.expm1(shifts._EXPM1_MAX))
        with pytest.raises(OverflowError):
            math.expm1(math.nextafter(shifts._EXPM1_MAX, math.inf))


# L = 1/2 switches to the L^{n-k} form from n - k = 1025 on, L = 0.9 from 6737 on
GRID_L = [0.5, math.nextafter(0.5, 1.0), 0.5 + 1e-9, 0.6, 0.9, 0.99, 0.999, 0.9999999,
          1.0, 1.0000001, 1.001, 1.5, 2.0 - 1e-12, 2.0]
GRID_L += [float(v) for v in np.random.default_rng(16).uniform(0.5, 2.0, 6)]
GRID_N = [1, 2, 3, 17, 1000, 7000, 30_000]


class TestAgainstLoops:
    @pytest.mark.parametrize("n", GRID_N)
    def test_three_phase_bitwise(self, n):
        for big_l in GRID_L:
            assert np.array_equal(three_phase_schedule(n, big_l).eta, three_phase_by_loop(n, big_l))

    @pytest.mark.parametrize("n", GRID_N)
    def test_distances_bitwise(self, n):
        rng = np.random.default_rng(n)
        for big_l in GRID_L:
            three_phase = three_phase_by_loop(n, big_l)
            uniform = rng.uniform(0.0, 1.0, n)
            uniform[-1] = 1.0
            a, a0, a1 = (float(v) for v in rng.uniform(0.0, 2.0, 3))
            d0 = float(rng.uniform(0.0, 5.0))
            for error in (SimpleError(a), WeakAwareError(a0, 0.0), WeakAwareError(a0, a1)):
                pr = ShiftProblem(n, big_l, d0, error, c=float(rng.uniform(0.1, 3.0)))
                for eta in (three_phase, uniform):
                    want = distances_by_loop(pr, eta)
                    assert np.array_equal(propagate_distances(pr, eta), want, equal_nan=True)
                    # a Python list of shifts gives the same distances
                    assert np.array_equal(propagate_distances(pr, list(eta)), want, equal_nan=True)

    def test_distances_bitwise_over_many_levels(self):
        # a rounding change in one operation (a0 * a0 against a0**2, say) shows
        # on about 1 in 1000 inputs, so this runs short recursions on many draws
        rng = np.random.default_rng(17)
        for a0, a1, d0, big_l in rng.uniform(0.0, [3.0, 3.0, 5.0, 2.0], (3000, 4)):
            pr = ShiftProblem(30, big_l + 0.01, d0, WeakAwareError(a0, a1))
            eta = np.append(rng.uniform(0.0, 1.0, 29), 1.0)
            assert np.array_equal(propagate_distances(pr, eta), distances_by_loop(pr, eta))

    @pytest.mark.parametrize("n, lam, h, x0", [
        (7000, 1.0, 0.02, 1.5), (9500, 0.7, 0.05, -3.0), (5000, 2.0, 0.005, 4.0),
    ])
    def test_certified_lmc_bitwise(self, n, lam, h, x0):
        k = exact_quadratic_assumptions(lam, h, n, x0)
        d0 = math.sqrt(x0 * x0 + 1.0 / lam)
        assert kl_framework_bound(k, n, d0, "certified").value == certified_by_loop(k, n, d0)

    @pytest.mark.parametrize("n, w, sigma", [
        (17000, 0.05, 0.3), (10_000, 0.2, 1.5), (30_000, 0.02, 0.7),
    ])
    def test_certified_toy_bitwise(self, n, w, sigma):
        k = toy_assumptions(w, sigma)
        assert kl_framework_bound(k, n, 0.0, "certified").value == certified_by_loop(k, n, 0.0)


class TestOverflow:
    def test_certified_bound_is_inf_not_nan(self):
        # d^2 overflows from the first step; a1 = 0 made this 0 * inf = nan
        k = KernelAssumptions(L=2.0, c=1.0, c_prime=1.0, e_strong=1e200)
        rep = kl_framework_bound(k, 1000, 0.0, "certified")
        assert rep.value == math.inf
        assert not np.any(np.isnan(rep.trace.distances))

    def test_overflowed_distance_restarts_on_full_shift(self):
        pr = ShiftProblem(4, 1.5, 1e300, WeakAwareError(0.5, 0.0))
        d = propagate_distances(pr, np.array([0.5, 1.0, 0.0, 1.0]))
        assert d[1] == math.inf  # d0^2 overflows
        assert d[2] == 0.5  # eta = 1 after an overflowed distance: back to a0
        assert d[3] == pytest.approx(0.75 * math.sqrt(1.0 + 1.0 / 2.25), rel=1e-15)
        simple = ShiftProblem(3, 2.0, 1e308, SimpleError(0.25))
        d = propagate_distances(simple, np.array([0.0, 1.0, 1.0]))
        assert list(d) == [1e308, math.inf, 0.25]

    def test_objective_with_overflowed_distance_is_never_nan(self):
        for c, c_prime in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
            pr = ShiftProblem(3, 2.0, 1e200, WeakAwareError(1e200, 0.0), c=c, c_prime=c_prime)
            for eta in ([0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.5, 1.0, 1.0]):
                tr = evaluate_schedule(pr, eta)
                assert not math.isnan(tr.main_term) and not math.isnan(tr.final_term)
                if c == c_prime == 1.0:  # the exact objective exceeds 1e400
                    assert tr.total == math.inf


def test_import_leaves_scipy_out():
    # scipy is a test-only dependency: neither importing klbounds nor running
    # the oracle, convex (a1 <= L a0) or not, may load it
    src = os.path.dirname(os.path.dirname(shifts.__file__))
    code = ("import sys, klbounds; print('scipy' in sys.modules)\n"
            "from klbounds.shifts import ShiftProblem, WeakAwareError, dp_oracle\n"
            "for a1 in (0.5, 3.0):\n"
            "    dp_oracle(ShiftProblem(6, 1.2, 2.0, WeakAwareError(1.0, a1)))\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.split() == ["False", "False"]


def simple_oracle_draws():
    """Random Simple problems with their closed-form optimum."""
    rng = np.random.default_rng(14)
    for _ in range(60):
        n = int(rng.integers(1, 21))
        big_l = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 0.99))
        a = float(rng.uniform(0, 10))
        d0 = float(rng.uniform(0, 10))
        if big_l < 1.0:
            d0 = max(d0, a)
            want = optimal_value_Lgeneral(n, a, d0, big_l)
        else:
            want = optimal_value_L1(n, a, d0)
        yield ShiftProblem(n, big_l, d0, SimpleError(a)), want


def weak_aware_oracle_draws():
    """Random WeakAware problems: a1 <= L a0 (convex in r = (1 - eta) d) on
    even draws, up to 5 L a0 on odd ones."""
    rng = np.random.default_rng(18)
    for i in range(120):
        n = int(rng.integers(1, 31))
        big_l = float(rng.uniform(0.5, 2.0))
        a0 = float(rng.uniform(0.0, 3.0))
        a1 = float(rng.uniform(0.0, 1.0) if i % 2 == 0 else rng.uniform(1.0, 5.0)) * big_l * a0
        d0, c, c_prime, b = (float(v) for v in rng.uniform([0.0, 0.1, 0.1, 0.0], [5.0, 3.0, 3.0, 1.0]))
        yield ShiftProblem(n, big_l, d0, WeakAwareError(a0, a1), c=c, c_prime=c_prime, b=b)


def fixed_schedules(n, big_l):
    """All-ones, 1/(n-k), all-1/2 and three-phase schedules of length n."""
    return (np.ones(n), np.append(1.0 / np.arange(n, 1, -1), 1.0),
            np.append(np.full(n - 1, 0.5), 1.0), three_phase_schedule(n, big_l).eta)


def kkt_residual(problem, schedule):
    """KKT residual of the kept distances r_k = (1 - eta_k) d_k over r >= 0.

    The largest |projected gradient| times the range [0, d_k] of r_k,
    relative to the objective without b^2; the gradient by a plain loop.
    """
    n, big_l, c, cp = problem.n, problem.L, problem.c, problem.c_prime
    d = evaluate_schedule(problem, schedule).distances
    r = [(1.0 - e) * dk for e, dk in zip(schedule.eta[:-1], d[:-1])]
    gaps = [max(d[k] - r[k], 0.0) for k in range(n - 1)]
    value = c * sum(g * g for g in gaps) + cp * d[-1] ** 2
    worst = 0.0
    for k in range(n - 1):
        if isinstance(problem.error, SimpleError):
            slope = big_l  # of d_{k+1} in r_k
        else:
            slope = (big_l * big_l * r[k] + problem.error.a1) / d[k + 1]
        weight = c * gaps[k + 1] if k + 1 < n - 1 else cp * d[-1]
        grad = 2.0 * (weight * slope - c * gaps[k])
        if r[k] == 0.0:
            grad = min(grad, 0.0)
        worst = max(worst, abs(grad) * d[k])
    return worst / value if worst > 0.0 else 0.0


class TestDpOracle:
    def test_simple_golden_values(self):
        cases = [
            (ShiftProblem(2, 1.0, 2.0, SimpleError(1.0)), 4.5),
            (ShiftProblem(2, 0.5, 1.0, SimpleError(1.0)), 1.8),
            (ShiftProblem(3, 1.0, 0.5, SimpleError(1.0)), 2.25),
            (ShiftProblem(2, 0.5, 1.0, SimpleError(0.0)), 0.2),
        ]
        for pr, want in cases:
            _, val = dp_oracle(pr)
            assert val == pytest.approx(want, rel=1e-6)

    def test_matches_closed_forms_randomized(self):
        for problem, want in simple_oracle_draws():
            _, val = dp_oracle(problem)
            assert val == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_weak_aware_reduces_to_simple(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            big_l = float(rng.uniform(0.5, 1.0))
            a0 = float(rng.uniform(0.1, 3))
            d0 = float(rng.uniform(a0, a0 + 5))
            _, v_weak = dp_oracle(ShiftProblem(n, big_l, d0, WeakAwareError(a0, big_l * a0)))
            _, v_simple = dp_oracle(ShiftProblem(n, big_l, d0, SimpleError(a0)))
            # at a1 = L a0 the recursion is exactly the Simple one
            assert v_weak == pytest.approx(v_simple, rel=1e-12)

    def test_value_is_feasible_upper_bound(self):
        pr = ShiftProblem(6, 0.9, 3.0, WeakAwareError(0.5, 0.2), c=1.0, c_prime=2.0)
        sched, val = dp_oracle(pr)
        assert evaluate_schedule(pr, sched).total == pytest.approx(val, rel=1e-12)

    def test_weak_aware_beats_fixed_schedules(self):
        # four of the schedules the non-convex solve starts from; three-phase
        # is also the schedule the certified bound evaluates
        for pr in weak_aware_oracle_draws():
            _, val = dp_oracle(pr)
            for eta in fixed_schedules(pr.n, pr.L):
                assert val <= evaluate_schedule(pr, eta).total

    def test_convex_solutions_meet_kkt(self):
        # where the objective is convex in r the solve stops on the KKT residual
        draws = [pr for pr, _ in simple_oracle_draws()]
        draws += [pr for pr in weak_aware_oracle_draws() if pr.error.a1 <= pr.L * pr.error.a0]
        assert len(draws) > 100
        for pr in draws:
            schedule, _ = dp_oracle(pr)
            assert kkt_residual(pr, schedule) <= shifts._KKT_TOL

    def test_value_scales_with_problem(self):
        # scaling d0 and the error levels by s scales the objective by s^2, so
        # nothing in the non-convex solve, its starts included, may depend on
        # the scale
        for a1 in (1.5, 2.5, 4.0):
            for big_l in (0.7, 1.0, 1.3):
                _, base = dp_oracle(ShiftProblem(8, big_l, 3.0, WeakAwareError(1.0, a1)))
                for s in (1e-20, 1e-8, 1e20):
                    _, val = dp_oracle(ShiftProblem(8, big_l, 3.0 * s, WeakAwareError(s, a1 * s)))
                    assert val / (s * s) == pytest.approx(base, rel=1e-12)

    def test_runs_at_n_1000(self):
        # no size cap: non-convex (a1 > L a0) is never above a start, convex
        # stops on the KKT residual
        for big_l in (0.9, 1.3):
            pr = ShiftProblem(1000, big_l, 3.0, WeakAwareError(0.5, 1.5), c=0.7, c_prime=2.0)
            _, val = dp_oracle(pr)
            for eta in fixed_schedules(1000, big_l):
                assert val <= evaluate_schedule(pr, eta).total
        for pr in (ShiftProblem(1000, 0.9, 3.0, WeakAwareError(0.5, 0.3), c=1.0, c_prime=2.0),
                   ShiftProblem(1000, 1.0, 3.0, SimpleError(0.5))):
            schedule, _ = dp_oracle(pr)
            assert kkt_residual(pr, schedule) <= shifts._KKT_TOL

    def test_not_above_brute_force_grid(self):
        # n = 2 and 3, non-convex: every free shift on a grid of 401 and 101
        # points, one in eight draws with a0 = 0; the oracle is compared with
        # the exact objective of the grid's best schedule
        rng = np.random.default_rng(23)
        for n, points in ((2, 401), (3, 101)):
            axis = np.linspace(0.0, 1.0, points)
            grid = np.stack(np.meshgrid(*[axis] * (n - 1), indexing="ij"), -1).reshape(-1, n - 1)
            for i in range(100):
                big_l = float(rng.uniform(0.5, 2.0))
                a0 = 0.0 if i % 8 == 0 else float(rng.uniform(0.05, 3.0))
                a1 = float(rng.uniform(1.0, 5.0)) * big_l * a0 if a0 else float(rng.uniform(0.05, 3.0))
                d0, c, cp, b = (float(v) for v in rng.uniform([0.0, 0.1, 0.1, 0.0], [5.0, 3.0, 3.0, 1.0]))
                d, main = np.full(len(grid), d0), 0.0
                for k in range(n - 1):
                    main = main + (grid[:, k] * d) ** 2
                    rest = 1.0 - grid[:, k]
                    d = np.sqrt((big_l * rest * d) ** 2 + 2.0 * a1 * rest * d + a0 * a0)
                best = grid[np.argmin(c * main + cp * d * d)]
                pr = ShiftProblem(n, big_l, d0, WeakAwareError(a0, a1), c=c, c_prime=cp, b=b)
                _, val = dp_oracle(pr)
                assert val <= evaluate_schedule(pr, np.append(best, 1.0)).total, (n, i)

    @pytest.mark.parametrize("n, big_l, d0, a0, a1, c, c_prime, b, grid_value", [
        pytest.param(8, 0.8391746331470786, 4.922540702200966, 0.0, 1.6985899542958265,
                     0.9421583452117116, 0.7721364982851356, 0.8958835412233879,
                     16.205494951096217, id="a0=0-n8"),
        pytest.param(23, 0.6956974830632019, 0.8688544206606091, 0.0, 0.6402774632436791,
                     0.8470994019869007, 2.7906899551714974, 0.8085997833169112,
                     1.2634945104243624, id="a0=0-n23"),
        pytest.param(13, 1.0622748925165477, 3.5765898976228434, 0.0, 0.3433910076156803,
                     1.8061565929439007, 1.3764187097281924, 0.33845129877821023,
                     8.930511969972793, id="a0=0-n13"),
        pytest.param(13, 0.9441112398159913, 8.480393314863267, 2.60880880291073,
                     45.49473817952694, 18.870951549632387, 1.211675312974638, 0.0,
                     2778.158527679806, id="needs-all-ones"),
        pytest.param(28, 0.9524679775828113, 1.440296447804048, 1.0053253284847379,
                     4.490579195793559, 5.965634630968525, 0.2489835045690733, 0.0,
                     165.03794375942928, id="needs-all-half"),
        pytest.param(17, 0.7572941426343633, 0.12576252035557678, 2.1351205708698173,
                     19.009924643403004, 11.723499950385861, 0.08572810569347317, 0.0,
                     620.4907003333847, id="needs-all-zeros"),
        pytest.param(15, 1.391080823581561, 13.815515424133988, 2.2255275992311696,
                     13.901642303983188, 3.2670286240565587, 0.05152316016645896, 0.0,
                     817.9968169696197, id="needs-three-phase"),
    ])
    def test_not_above_former_grid_start(self, n, big_l, d0, a0, a1, c, c_prime, b,
                                         grid_value):
        # grid_value is what the former non-convex oracle (a 256 x 128 value
        # iteration, then projected Newton) reached.  Each needs-* case ends
        # higher without the start it names.  At a0 = 0 < a1 the next distance
        # is 0 at r_k = 0, where s' is infinite and the gradient needs the
        # one-sided limit of s s'
        pr = ShiftProblem(n, big_l, d0, WeakAwareError(a0, a1), c=c, c_prime=c_prime, b=b)
        _, val = dp_oracle(pr)
        assert val <= grid_value * (1.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 12),
    a=st.floats(0, 5),
    d0=st.floats(0, 5),
    data=st.data(),
)
def test_any_feasible_schedule_dominates_optimum(n, a, d0, data):
    eta = np.array(
        data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)), dtype=float
    )
    eta[-1] = 1.0
    pr = ShiftProblem(n, 1.0, d0, SimpleError(a))
    total = evaluate_schedule(pr, ShiftSchedule(eta)).total
    assert total >= optimal_value_L1(n, a, d0) - 1e-9


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(bad=NON_FINITE, field=st.sampled_from(["L", "d0", "c", "c_prime", "b", "a", "a0", "a1"]))
def test_shift_constructors_reject_non_finite(bad, field):
    if field == "a":
        with pytest.raises(ValueError):
            SimpleError(bad)
        return
    if field in ("a0", "a1"):
        with pytest.raises(ValueError):
            WeakAwareError(**{"a0": 1.0, "a1": 1.0, field: bad})
        return
    kwargs = {"n": 3, "L": 1.0, "d0": 1.0, "error": SimpleError(0.5), field: bad}
    with pytest.raises(ValueError):
        ShiftProblem(**kwargs)


@settings(max_examples=100, deadline=None)
@given(bad=st.one_of(NON_FINITE, st.sampled_from([-1.0, -5e-324])),
       field=st.sampled_from(["a", "d0"]),
       form=st.sampled_from(["value_L1", "shifts_L1", "value_Lgeneral", "shifts_Lgeneral",
                             "cross_reg"]))
def test_closed_forms_reject_non_finite_and_negative(bad, field, form):
    # optimal_value_L1 returned nan and optimal_shifts_L1 an all-ones schedule for a = nan
    args = {"n": 3, "a": 0.5, "d0": 1.0, field: bad}
    call = {
        "value_L1": lambda: optimal_value_L1(**args),
        "shifts_L1": lambda: optimal_shifts_L1(**args),
        "value_Lgeneral": lambda: optimal_value_Lgeneral(**args, L=0.9),
        "shifts_Lgeneral": lambda: optimal_shifts_Lgeneral(**args, L=0.9),
        "cross_reg": lambda: final_bound_with_cross_reg(**args, L=1.0, c=1.0, c_prime=1.0, b=0.0),
    }[form]
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
        call()


@settings(max_examples=60, deadline=None)
@given(bad=NON_FINITE, n=st.integers(1, 20), data=st.data())
def test_schedule_rejects_non_finite_entries(bad, n, data):
    eta = np.ones(n)
    eta[data.draw(st.integers(0, n - 1))] = bad
    with pytest.raises(FeasibilityError):
        ShiftSchedule(eta)


@settings(max_examples=200, deadline=None)
@given(
    big_l=st.floats(0.5, 2.0),
    d0=st.sampled_from([0.0, 1.0, 1e100, 1e154, 1e200, 1.7976931348623157e308]),
    a0=st.sampled_from([0.0, 1e-300, 1.0, 1e160, 1e300]),
    a1=st.sampled_from([0.0, 1e-300, 1.0, 1e160, 1e300]),
    n=st.sampled_from([1, 2, 5, 1000]),
    c=st.sampled_from([0.0, 1.0, 1e300]),
)
def test_extreme_weak_aware_objective_is_never_nan(big_l, d0, a0, a1, n, c):
    pr = ShiftProblem(n, big_l, d0, WeakAwareError(a0, a1), c=c, c_prime=c)
    tr = evaluate_schedule(pr, three_phase_schedule(n, big_l))
    assert not np.any(np.isnan(tr.distances))
    assert not math.isnan(tr.total) and tr.total >= 0.0
