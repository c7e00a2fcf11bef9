"""Coefficient formulas and the planner: exact diffusion-side constants,
exponent checks, rate-table scaling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbounds import chains, gauss
from klbounds.schemes import (
    PLAN_SCHEMES,
    SETTINGS,
    PlanParams,
    gradient_bound,
    langevin_kernel_params,
    lmc_cross_reg,
    lmc_local_errors,
    lmc_smooth_weak_error,
    plan_iterations,
    rmlmc_cross_reg,
    rmlmc_local_errors,
)
from klbounds.verify import fit_loglog_slope


class TestLangevinKernelParams:
    def test_strongly_convex_spot(self):
        big_l, gamma, c = langevin_kernel_params(1.0, 1.0, 0.1)
        assert big_l == pytest.approx(math.exp(-0.1), rel=1e-15)
        assert gamma == pytest.approx(1.0 - math.exp(-0.1), rel=1e-15)
        assert c == pytest.approx(1.0 / (2.0 * (math.exp(0.2) - 1.0)), rel=1e-14)

    def test_weakly_convex_limits(self):
        big_l, gamma, c = langevin_kernel_params(0.0, 2.0, 0.1)
        assert big_l == 1.0
        assert gamma == pytest.approx(0.2)
        assert c == pytest.approx(2.5)

    def test_nonconvex_instantiation(self):
        big_l, _, c = langevin_kernel_params(-1.0, 1.0, 0.1)
        assert big_l == pytest.approx(math.exp(0.1))
        assert big_l > 1.0 and c > 0.0

    def test_exact_for_ou_transitions(self):
        # contraction and regularity are equalities for the OU kernel
        pot = chains.PotentialSpec.quadratic_potential(1.0)
        h, x, y = 0.3, 2.0, -1.0
        big_l, _, c = langevin_kernel_params(1.0, 1.0, h)
        px, py = (chains.propagate_law(pot, gauss.Gaussian(v, 0.0), "ExactDiffusion", h, 1)
                  for v in (x, y))
        assert gauss.w2_gaussian(px, py) == pytest.approx(big_l * abs(x - y), rel=1e-10)
        assert gauss.kl_gaussian(px, py) == pytest.approx(c * (x - y) ** 2, rel=1e-10)


class TestLocalErrorFormulas:
    def test_lmc_plugin(self):
        e_weak, e_strong = lmc_local_errors(1.0, 1, 0.01, 0.0)
        assert e_strong == pytest.approx(1e-3)
        assert e_weak == e_strong

    def test_lmc_halving_exponents(self):
        g1, _ = lmc_local_errors(1.0, 0, 0.1, 1.0)
        g2, _ = lmc_local_errors(1.0, 0, 0.05, 1.0)
        assert g1 / g2 == pytest.approx(4.0)
        d1, _ = lmc_local_errors(1.0, 1, 0.1, 0.0)
        d2, _ = lmc_local_errors(1.0, 1, 0.05, 0.0)
        assert d1 / d2 == pytest.approx(2.0 * math.sqrt(2.0))

    def test_lmc_formula_dominates_exact_strong_error(self):
        pot = chains.PotentialSpec.quadratic_potential(1.0)
        for h in (0.2, 0.1, 0.05):
            for x in (0.0, 1.0, 4.0):
                exact = chains.estimate_local_errors(pot, "LMC", x, h).strong
                _, formula = lmc_local_errors(1.0, 1, h, abs(x))
                assert formula >= exact

    def test_step_size_precondition(self):
        with pytest.raises(ValueError):
            lmc_local_errors(2.0, 1, 0.6, 0.0)

    def test_smooth_weak_plugin(self):
        got = lmc_smooth_weak_error(1.0, 1.0, 0.0, 1, 0.1, 0.0)
        assert got == pytest.approx(0.1**2.5 + 0.01, rel=1e-12)

    def test_smooth_weak_dimension_term_power(self):
        vals = [lmc_smooth_weak_error(1.0, 0.0, 0.0, 4, h, 0.0) for h in (0.2, 0.1)]
        assert vals[0] / vals[1] == pytest.approx(2**2.5)

    def test_rmlmc_plugin(self):
        e_weak, e_strong = rmlmc_local_errors(1.0, 1, 0.1, 1.0)
        assert e_weak == pytest.approx(1e-3 + 0.1**2.5, rel=1e-12)
        assert e_strong == pytest.approx(0.01 + 0.1**1.5, rel=1e-12)

    def test_rmlmc_weak_gains_one_power(self):
        for h in (0.1, 0.05, 0.01):
            e_weak, e_strong = rmlmc_local_errors(2.0, 3, h, 1.5)
            assert e_weak / e_strong == pytest.approx(2.0 * h)

    def test_formula_exponent_slopes(self):
        hs = (0.08, 0.04, 0.02, 0.01)
        cases = [
            (lambda h: lmc_local_errors(1.0, 1, h, 0.0)[1], 1.5),
            (lambda h: lmc_local_errors(1.0, 0, h, 1.0)[1], 2.0),
            (lambda h: rmlmc_local_errors(1.0, 1, h, 0.0)[0], 2.5),
            (lambda h: rmlmc_local_errors(1.0, 0, h, 1.0)[0], 3.0),
            (lambda h: lmc_smooth_weak_error(1.0, 0.0, 0.0, 1, h, 0.0), 2.5),
            (lambda h: lmc_smooth_weak_error(1.0, 1.0, 0.0, 0, h, 0.0), 2.0),
        ]
        for fn, want in cases:
            assert fit_loglog_slope(hs, [fn(h) for h in hs]) == pytest.approx(want, abs=1e-9)

    def test_smooth_h52_matches_measured_rmlmc_weak_scaling(self):
        # Gaussian target: exact RM-LMC weak error from the chains module
        # follows the h^3 gradient term; the h^{5/2} dimension term of the
        # smooth-LMC formula dominates it for small h
        pot = chains.PotentialSpec.quadratic_potential(1.0)
        hs = (0.2, 0.1, 0.05, 0.025)
        exact = [chains.estimate_local_errors(pot, "RMLMC", 1.0, h).weak for h in hs]
        assert fit_loglog_slope(hs, exact) == pytest.approx(3.0, abs=0.3)


class TestCrossRegularityFormulas:
    def test_lmc_values(self):
        c_prime, b = lmc_cross_reg(1.0, 1, 0.1, 1.0)
        assert c_prime == pytest.approx(10.0)
        assert b**2 == pytest.approx(0.1**3 + 0.01, rel=1e-12)

    def test_lmc_zero_gradient(self):
        _, b = lmc_cross_reg(2.0, 3, 0.1, 0.0)
        assert b**2 == pytest.approx(4.0 * 3 * 0.01, rel=1e-12)

    def test_lmc_b_vanishes_linearly(self):
        b1 = lmc_cross_reg(1.0, 1, 0.02, 0.0)[1]
        b2 = lmc_cross_reg(1.0, 1, 0.01, 0.0)[1]
        assert b1 / b2 == pytest.approx(2.0)

    def test_rmlmc_log_inflation(self):
        c_prime, b = rmlmc_cross_reg(1.0, 1, 0.1, 0.0)
        assert c_prime == pytest.approx(10.0 * math.log(10.0), rel=1e-12)
        lmc_cp, lmc_b = lmc_cross_reg(1.0, 1, 0.1, 0.0)
        assert c_prime / lmc_cp == pytest.approx(math.log(10.0))
        assert b == lmc_b

    def test_rmlmc_requires_strict_step(self):
        with pytest.raises(ValueError):
            rmlmc_cross_reg(1.0, 1, 1.0, 0.0)


class TestGradientBounds:
    def test_stationary_case(self):
        assert gradient_bound(2.0, 3, 0.0, 0.0) == pytest.approx(6.0)

    def test_exact_gaussian_moment_dominated(self):
        # target N(0,1), mu = N(2,1): E|grad V|^2 = 4 + 1 = 5 exactly
        exact = 2.0**2 + 1.0
        assert gradient_bound(1.0, 1, w2_to_pi=2.0) == pytest.approx(exact)

    def test_min_branch_switch(self):
        beta, w2 = 2.0, 1.5
        crossing = beta * w2**2
        assert gradient_bound(beta, 1, w2, crossing - 0.1) == pytest.approx(
            beta * 1 + beta * (crossing - 0.1)
        )
        assert gradient_bound(beta, 1, w2, crossing + 0.1) == pytest.approx(
            beta * 1 + beta**2 * w2**2
        )


class TestOverflow:
    def test_overflowing_powers_give_inf(self):
        # the levels are too large for a float (Python's float ** raises OverflowError
        # in gradient_bound)
        assert gradient_bound(1e200, 1, w2_to_pi=1.0) == math.inf
        assert lmc_cross_reg(1e-300, 1, 1e299, 1e200)[1] == math.inf  # b is 3.2e348

    def test_grouped_levels_neither_underflow_nor_overflow(self):
        # beta**2 = 1e-400 used to underflow to 0, so b and e_weak came out 0; with
        # grad = 1e200, grad**2 raised OverflowError and b came out inf.  Each level
        # is a float
        assert lmc_cross_reg(1e-200, 1, 1e100, 1e150)[1] == pytest.approx(1e100, rel=1e-15)
        assert rmlmc_local_errors(1e-200, 1, 1e100, 1e150)[0] == pytest.approx(1e50, rel=1e-15)
        assert lmc_cross_reg(1e-200, 1, 1e100, 1e200)[1] == pytest.approx(1e150, rel=1e-15)

    def test_underflow_times_overflow_gives_inf(self):
        # beta^2 underflows to 0 against an infinite W2: 0 * inf would be nan
        assert gradient_bound(1e-200, 1) == math.inf
        assert lmc_smooth_weak_error(0.0, 0.0, 1e300, 1, 1e10, 0.0) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e300), st.floats(1e-300, 1e300), st.floats(0.0, 1e300),
           st.floats(0.0, 1e300), st.floats(0.0, 1e300), st.integers(0, 10**6))
    def test_never_nan(self, beta, h, grad, zeta, dist, d):
        beta = min(beta, 1.0 / h)
        while beta > 0.0 and h > 1.0 / beta:  # the formulas require h <= 1/beta
            beta = math.nextafter(beta, 0.0)
        values = [*lmc_local_errors(beta, d, h, grad), *lmc_cross_reg(beta, d, h, grad),
                  lmc_smooth_weak_error(beta, zeta, zeta, d, h, grad),
                  *rmlmc_local_errors(beta, d, h, grad), gradient_bound(beta, d, dist, dist),
                  gradient_bound(beta, d)]
        if beta > 0.0 and h < 1.0 / beta:
            values += rmlmc_cross_reg(beta, d, h, grad)
        assert not any(math.isnan(v) for v in values)
        assert min(values) >= 0.0


class TestSchemeCoefficients:
    def test_weak_le_strong_pointwise(self):
        # (weak, strong) levels of the three planner schemes at beta = 1, d = 4
        levels = {
            "LMC": lambda h, g: lmc_local_errors(1.0, 4, h, g),
            "LMC_SMOOTH": lambda h, g: (
                lmc_smooth_weak_error(1.0, 0.0, 0.0, 4, h, g), lmc_local_errors(1.0, 4, h, g)[1]
            ),
            "RMLMC": lambda h, g: rmlmc_local_errors(1.0, 4, h, g),
        }
        assert set(levels) == set(PLAN_SCHEMES)
        for weak_strong in levels.values():
            for h in (0.05, 0.02):
                for g in (0.0, 1.0, 5.0):
                    weak, strong = weak_strong(h, g)
                    assert weak <= strong + 1e-15
        weak, strong = lmc_local_errors(1.0, 4, 0.05, 2.0)
        assert weak == strong

    def test_diffusion_side_values(self):
        big_l, gamma, c = langevin_kernel_params(1.0, 1.0, 0.1)
        assert big_l == math.exp(-0.1)
        assert gamma == -math.expm1(-0.1)
        assert c == 1.0 / (2.0 * math.expm1(0.2))
        assert rmlmc_cross_reg(1.0, 1, 0.1, 0.0)[0] == pytest.approx(math.log(10.0) / 0.1)


class TestPlanner:
    def test_slc_lmc_worked_example(self):
        res = plan_iterations("SLC", "LMC", PlanParams(alpha=1.0, beta=2.0, d=4, eps=0.5))
        assert res.n_iterations == math.ceil(64 * math.log(16.0)) == 178
        assert res.h == pytest.approx(0.5**2 / (2.0 * 2.0 * 4))
        assert "sqrt(d/alpha)" in res.assumptions_echo

    def test_table_scaling_exponents(self):
        base = dict(alpha=1.0, beta=2.0, d=4, eps=0.5, w2_init=3.0)

        def core(setting, scheme, **kw):
            args = {**base, **kw}
            return plan_iterations(setting, scheme, PlanParams(**args)).n_powerlaw

        assert core("SLC", "LMC", d=8) / core("SLC", "LMC") == pytest.approx(2.0)
        assert core("SLC", "RMLMC", d=8) / core("SLC", "RMLMC") == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )
        assert core("WLC", "LMC", eps=0.25) / core("WLC", "LMC") == pytest.approx(64.0)
        assert core("WLC", "RMLMC", eps=0.25) / core("WLC", "RMLMC") == pytest.approx(
            2.0 ** (10.0 / 3.0), rel=1e-12
        )

    def test_monotone_in_parameters(self):
        base = dict(alpha=1.0, beta=2.0, d=4, eps=0.4, w2_init=3.0, zeta0=0.5, zeta1=0.5)
        for scheme in PLAN_SCHEMES:
            for setting in SETTINGS:
                ref = plan_iterations(setting, scheme, PlanParams(**base))
                harder = [
                    {**base, "eps": 0.2},
                    {**base, "d": 8},
                    {**base, "beta": 4.0},  # larger condition number
                    {**base, "w2_init": 6.0},
                ]
                for kw in harder:
                    res = plan_iterations(setting, scheme, PlanParams(**kw))
                    assert res.n_iterations >= ref.n_iterations

    def test_wlc_requires_w(self):
        with pytest.raises(ValueError, match="w2_init"):
            plan_iterations("WLC", "LMC", PlanParams(alpha=0.0, beta=1.0, d=4, eps=0.5))

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError, match="range"):
            plan_iterations("SLC", "LMC", PlanParams(alpha=1.0, beta=1.0, d=4, eps=2.5))
        with pytest.raises(ValueError, match="range"):
            plan_iterations("SLC", "RMLMC", PlanParams(alpha=1.0, beta=4.0, d=4, eps=1.0))

    def test_slc_requires_strong_convexity(self):
        with pytest.raises(ValueError, match="alpha"):
            plan_iterations("SLC", "LMC", PlanParams(alpha=0.0, beta=1.0, d=4, eps=0.5))

    def test_smooth_formulas_transcribed(self):
        p = PlanParams(alpha=1.0, beta=1.0, d=16, eps=0.5, zeta0=0.0, zeta1=0.0, w2_init=2.0)
        slc = plan_iterations("SLC", "LMC_SMOOTH", p)
        assert slc.n_powerlaw == pytest.approx(1.0 * 4.0 / 0.5)  # kappa^2 sqrt(d) / eps
        wlc = plan_iterations("WLC", "LMC_SMOOTH", p)
        want = (1.0 * (1.0 * 2.0 + 4.0)) * 8.0 / 0.5**4
        assert wlc.n_powerlaw == pytest.approx(want)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(bad=NON_FINITE, field=st.sampled_from(["alpha", "beta", "h"]))
def test_kernel_params_reject_non_finite(bad, field):
    args = {"alpha": 1.0, "beta": 2.0, "h": 0.1, field: bad}
    with pytest.raises(ValueError, match=field):
        langevin_kernel_params(**args)


@settings(max_examples=100, deadline=None)
@given(bad=NON_FINITE, field=st.sampled_from(["beta", "h"]), formula=st.sampled_from([
    lmc_local_errors, lmc_cross_reg, rmlmc_local_errors, rmlmc_cross_reg,
    lambda **kw: lmc_smooth_weak_error(zeta0=0.5, zeta1=0.5, **kw),
]))
def test_step_formulas_reject_non_finite(bad, field, formula):
    args = {"beta": 1.0, "d": 2, "h": 0.1, "grad_norm": 1.0, field: bad}
    with pytest.raises(ValueError, match=field):
        formula(**args)
