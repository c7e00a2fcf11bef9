"""Framework bound evaluators: structural identities, branch arithmetic,
validity against the exactly solvable toy pair."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbounds import bounds, gauss, shifts
from klbounds.bounds import (
    BoundReport,
    KernelAssumptions,
    kl_framework_bound,
    kl_simple_bound,
    n_bar,
    toy_assumptions,
    w2_framework_bound,
)


class TestW2Framework:
    def test_pure_contraction(self):
        k = KernelAssumptions(L=0.8)
        rep = w2_framework_bound(k, 5, 2.0)
        assert rep.value == pytest.approx(0.8**5 * 4.0, rel=1e-12)

    def test_geometric_decay_ratio(self):
        k = KernelAssumptions(L=0.7)
        vals = [w2_framework_bound(k, n, 1.5).value for n in (3, 4, 5)]
        assert vals[1] / vals[0] == pytest.approx(0.7, rel=1e-12)
        assert vals[2] / vals[1] == pytest.approx(0.7, rel=1e-12)

    def test_unit_contraction_arithmetic(self):
        k = KernelAssumptions(L=1.0, gamma=0.0, e_weak=0.1, e_strong=1.0)
        rep = w2_framework_bound(k, 4, 0.0)
        assert rep.value == pytest.approx(16 * 0.01 + 4 * 1.0)

    def test_expansive_branch(self):
        k = KernelAssumptions(L=2.0, e_weak=0.3, e_strong=0.5, gamma=0.1)
        rep = w2_framework_bound(k, 3, 1.0)
        drift = 0.3 + 0.1 * 0.5
        want = 2.0**9 * (1.0 + drift**2 / 1.0 + 0.25 / 1.0)
        assert rep.value == pytest.approx(want, rel=1e-12)
        assert math.isfinite(rep.value)

    def test_expansive_overflow_is_inf(self):
        # L^{3N} = 2^3000 is beyond the float range
        k = KernelAssumptions(L=2.0, e_strong=0.1)
        assert w2_framework_bound(k, 1000, 1.0).value == math.inf
        assert w2_framework_bound(KernelAssumptions(L=2.0), 1000, 0.0).value == 0.0

    def test_implied_constant_scales(self):
        k1 = KernelAssumptions(L=1.0, e_strong=1.0)
        k3 = KernelAssumptions(L=1.0, e_strong=1.0, implied_constant=3.0)
        assert w2_framework_bound(k3, 4, 0.0).value == pytest.approx(
            3.0 * w2_framework_bound(k1, 4, 0.0).value
        )


class TestKlSimple:
    def test_b_only(self):
        k = KernelAssumptions(L=1.0, c=1.0, c_prime=1.0, b_bar=0.5)
        assert kl_simple_bound(k, 7, 0.0).value == pytest.approx(0.25)

    def test_b_only_without_regularity(self):
        k = KernelAssumptions(L=1.0, c=0.0, c_prime=0.0, b_bar=0.3)
        assert kl_simple_bound(k, 5, 0.0).value == pytest.approx(0.09)

    def test_worked_contractive_case(self):
        k = KernelAssumptions(L=0.5, c=1.0, c_prime=2.0)
        assert kl_simple_bound(k, 2, 1.0).value == pytest.approx(0.36)

    def test_structural_identity_with_shift_module(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            big_l = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.4, 1.0))
            k = KernelAssumptions(
                L=big_l,
                c=float(rng.uniform(0, 3)),
                c_prime=float(rng.uniform(0, 3)),
                b_bar=float(rng.uniform(0, 1)),
                a=float(rng.uniform(0, 2)),
            )
            w = float(rng.uniform(0, 4))
            want = shifts.final_bound_with_cross_reg(
                n, k.a, w, big_l, k.c, k.c_prime, k.b_bar
            )
            assert kl_simple_bound(k, n, w).value == pytest.approx(want, rel=1e-12)

    def test_rejects_expansive(self):
        with pytest.raises(ValueError):
            kl_simple_bound(KernelAssumptions(L=1.2, c=1.0, c_prime=1.0), 3, 1.0)

    def test_toy_bound_dominates_exact(self):
        k = toy_assumptions(0.1, 1.0)
        val = kl_simple_bound(k, 4, 0.0).value
        assert val == pytest.approx(0.88971791073526718, rel=1e-12)
        assert val >= gauss.toy_exact_kl(4, 0.1, 1.0)


class TestKlFramework:
    def test_error_free_closed_form(self):
        k = KernelAssumptions(L=0.8, c=1.0, c_prime=2.0)
        rep = kl_framework_bound(k, 6, 1.5, mode="closed_form")
        want = 3.0 * (1 / 0.8 - 1) / (0.8**-6 - 1) * 1.5**2
        assert rep.value == pytest.approx(want, rel=1e-12)

    def test_unit_contraction_limit(self):
        k = KernelAssumptions(L=1.0, c=1.0, c_prime=1.0, e_strong=0.5, e_weak=0.2)
        rep = kl_framework_bound(k, 8, 1.0, mode="closed_form")
        want = 2.0 * (1.0 / 8 + math.log(8) * 0.25 + 8 * 0.04)
        assert rep.value == pytest.approx(want, rel=1e-12)

    def test_certified_carries_schedule_and_trace(self):
        k = toy_assumptions(0.1, 1.0)
        rep = kl_framework_bound(k, 10, 0.0, mode="certified")
        assert rep.schedule is not None and rep.trace is not None
        assert rep.value == pytest.approx(rep.trace.total + k.b_bar**2)
        assert rep.constant_used == 1.0

    def test_certified_dominates_exact_toy(self):
        for n in (1, 2, 5, 20, 100):
            for w in (0.0, 0.1, 1.0):
                for sigma in (0.5, 1.0, 2.0):
                    k = toy_assumptions(w, sigma)
                    cert = kl_framework_bound(k, n, 0.0, mode="certified").value
                    assert cert >= gauss.toy_exact_kl(n, w, sigma)

    def test_certified_monotone_in_levels(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            big_l = float(rng.uniform(0.5, 2.0))
            base = dict(
                L=big_l, gamma=float(rng.uniform(0, 1)), c=float(rng.uniform(0.1, 2)),
                c_prime=float(rng.uniform(0.1, 2)), b_bar=float(rng.uniform(0, 1)),
                e_weak=float(rng.uniform(0, 1)), e_strong=float(rng.uniform(0, 1)),
            )
            w0 = float(rng.uniform(0, 3))
            val = kl_framework_bound(KernelAssumptions(**base), n, w0, "certified").value
            for key in ("e_weak", "e_strong", "b_bar"):
                bumped = dict(base)
                bumped[key] = base[key] + 0.5
                val_b = kl_framework_bound(KernelAssumptions(**bumped), n, w0, "certified").value
                assert val_b >= val - 1e-12
            val_w = kl_framework_bound(KernelAssumptions(**base), n, w0 + 0.5, "certified").value
            assert val_w >= val - 1e-12

    def test_certified_contraction_range(self):
        k = KernelAssumptions(L=2.5, c=1.0, c_prime=1.0)
        with pytest.raises(ValueError):
            kl_framework_bound(k, 3, 1.0, mode="certified")
        with pytest.raises(ValueError):
            kl_framework_bound(k, 3, 1.0, mode="unknown")

    def test_certified_rejects_overflowed_a1(self):
        k = KernelAssumptions(L=0.9, gamma=1e300, c=1, c_prime=1, e_weak=1, e_strong=1e10)
        match = (r"e_weak \+ gamma \* e_strong.*e_weak=1, gamma=1e\+300, "
                 r"e_strong=10000000000\.0")
        with pytest.raises(ValueError, match=match):
            kl_framework_bound(k, 4, 1.0, mode="certified")
        assert kl_framework_bound(k, 4, 1.0).value == math.inf

    def test_long_contractive_horizon_is_finite(self):
        # n (-ln L) = 10000 * 0.105 > 709, where L^{-n} overflows
        k = KernelAssumptions(L=0.9, c=1.0, c_prime=1.0, e_strong=0.1)
        for mode in ("closed_form", "certified"):
            assert math.isfinite(kl_framework_bound(k, 10_000, 1.0, mode).value)

    def test_initial_weight_across_overflow_switch(self):
        # with c + c' = 1 and no errors the closed form is the W^2 weight
        # (L^{-1} - 1) / (L^{-n} - 1); L^{-n} overflows from n ~ 6737 on
        k = KernelAssumptions(L=0.9, c=0.5, c_prime=0.5)
        big_l = Decimal(0.9)
        with localcontext(prec=40):
            for n in range(6720, 6760):
                want = float((1 / big_l - 1) / (big_l**-n - 1))
                got = kl_framework_bound(k, n, 1.0, "closed_form").value
                assert got == pytest.approx(want, rel=1e-9)

    def test_expansive_closed_form_grows_linearly(self):
        k = KernelAssumptions(L=1.05, c=1.0, c_prime=1.0, e_strong=0.1)
        v1 = kl_framework_bound(k, 50, 0.0, "closed_form").value
        v2 = kl_framework_bound(k, 100, 0.0, "closed_form").value
        assert v2 < 4.0 * v1  # Theta(N) growth, not exponential


class TestNBar:
    def test_effective_horizon(self):
        assert n_bar(1.0, 7) == 7.0
        assert n_bar(1.3, 7) == 7.0
        assert n_bar(0.9, 100) == pytest.approx(10.0)
        assert n_bar(0.9, 5) == 5.0


class TestValidation:
    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            KernelAssumptions(L=1.0, c=-0.1)
        with pytest.raises(ValueError):
            KernelAssumptions(L=0.0)

    def test_report_is_plain_record(self):
        rep = BoundReport(1.0, "closed_form", 1.0)
        assert rep.schedule is None and rep.trace is None


def closed_form_by_powers(k, n, w2_init):
    """The closed-form KL bound written with Python `**`, which raises on overflow."""
    nb = n_bar(k.L, n)
    a0, a1 = k.e_strong, k.e_weak + k.gamma * k.e_strong
    strong_factor = max((k.L - 1.0) * n, math.log(nb))
    raw = (k.c + k.c_prime) * (
        bounds._ratio_lm1(k.L, n) * w2_init**2 + strong_factor * a0**2 + nb * a1**2
    )
    return k.implied_constant * raw + k.b_bar**2


def w2_by_powers(k, n, w2_init):
    drift = k.e_weak + k.gamma * k.e_strong
    if k.L <= 1.0:
        nb = n_bar(k.L, n)
        raw = k.L**n * w2_init**2 + nb**2 * drift**2 + nb * k.e_strong**2
    else:
        raw = k.L ** (3 * n) * (
            w2_init**2 + drift**2 / (k.L - 1.0) ** 2 + k.e_strong**2 / (k.L - 1.0)
        )
    return k.implied_constant * raw


class TestOverflowGivesInf:
    @pytest.mark.parametrize("field", ["e_strong", "e_weak", "b_bar"])
    def test_closed_form(self, field):
        k = KernelAssumptions(L=1.0, c=1.0, c_prime=1.0, **{field: 1e200})
        assert kl_framework_bound(k, 1000, 0.0, "closed_form").value == math.inf
        k = KernelAssumptions(L=1.0, c=1.0, c_prime=1.0)
        assert kl_framework_bound(k, 1000, 1e200, "closed_form").value == math.inf

    def test_certified(self):
        k = KernelAssumptions(L=1.0, c=1.0, c_prime=1.0, e_strong=0.1, b_bar=1e200)
        assert kl_framework_bound(k, 50, 0.0, "certified").value == math.inf

    @pytest.mark.parametrize("big_l", [0.9, 1.5, 1e300])
    def test_w2(self, big_l):
        k = KernelAssumptions(L=big_l, e_strong=1e200)
        assert w2_framework_bound(k, 5, 0.0).value == math.inf
        assert w2_framework_bound(KernelAssumptions(L=big_l), 5, 1e200).value == math.inf

    def test_expansive_w2_with_inf_level_is_inf(self):
        # inf / inf = nan in the bracket must not read as a zero bracket
        k = KernelAssumptions(L=1e300, e_weak=math.inf)
        assert w2_framework_bound(k, 3, 0.0).value == math.inf

    def test_evaluate_schedule(self):
        problem = shifts.ShiftProblem(5, 1.0, 1.0, shifts.SimpleError(0.1), b=1e200)
        trace = shifts.evaluate_schedule(problem, shifts.three_phase_schedule(5, 1.0))
        assert trace.final_term == math.inf and trace.total == math.inf

    def test_finite_values_bit_identical_to_powers(self):
        rng = np.random.default_rng(11)

        def level(scale=1.0):  # spread over 250 decades, some squares overflow
            return float(rng.uniform(0, scale)) * 10.0 ** int(rng.integers(-100, 150))

        for _ in range(2000):
            k = KernelAssumptions(
                L=float(rng.choice([0.5, 0.9, 1.0, 1.3, 2.0, rng.uniform(0.3, 3.0)])),
                gamma=float(rng.uniform(0, 2)),
                c=float(rng.uniform(0, 3)),
                c_prime=float(rng.uniform(0, 3)),
                b_bar=level(), e_weak=level(), e_strong=level(),
                implied_constant=float(rng.uniform(0.1, 5)),
            )
            n = int(rng.choice([1, 2, 7, 100, 1000]))
            w = level(4.0)
            for got, reference in (
                (lambda: kl_framework_bound(k, n, w, "closed_form"), closed_form_by_powers),
                (lambda: w2_framework_bound(k, n, w), w2_by_powers),
            ):
                try:
                    want = reference(k, n, w)
                except OverflowError:
                    assert got().value == math.inf
                    continue
                assert got().value == want


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
STRUCTURAL = ("L", "gamma", "c", "c_prime", "implied_constant")
LEVELS = ("b_bar", "e_weak", "e_strong", "a")
# finite but extreme: subnormal, tiny, squares that overflow, the largest float
EXTREME = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1.0, 1e160, 1e300, 1.7976931348623157e308]),
    st.floats(0.0, 1e308),
)


class TestNonFiniteAndExtremeInput:
    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(STRUCTURAL + LEVELS), bad=NON_FINITE)
    def test_kernel_assumptions_reject_nan_and_non_finite_constants(self, field, bad):
        kwargs = {"L": 1.0, field: bad}
        if field in LEVELS and bad == math.inf:  # an overflowed exact level
            assert getattr(KernelAssumptions(**kwargs), field) == math.inf
        else:
            with pytest.raises(ValueError):
                KernelAssumptions(**kwargs)

    @given(field=st.sampled_from(["w", "sigma"]), bad=NON_FINITE)
    def test_toy_assumptions_reject_non_finite_pair(self, field, bad):
        # the same checks as gauss.toy_exact_kl, naming the toy parameter
        kwargs = {"w": 0.1, "sigma": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            toy_assumptions(**kwargs)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            gauss.toy_exact_kl(4, **kwargs)

    @settings(max_examples=30, deadline=None)
    @given(bad=NON_FINITE, n=st.integers(1, 50))
    def test_bounds_reject_non_finite_initial_distance(self, bad, n):
        k = KernelAssumptions(L=1.0, c=1.0, c_prime=1.0)
        for call in (lambda: w2_framework_bound(k, n, bad),
                     lambda: kl_simple_bound(k, n, bad),
                     lambda: kl_framework_bound(k, n, bad, "closed_form"),
                     lambda: kl_framework_bound(k, n, bad, "certified")):
            with pytest.raises(ValueError):
                call()

    @settings(max_examples=300, deadline=None)
    @given(
        big_l=st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e-300, 1e300]), st.floats(1e-3, 3.0)),
        levels=st.fixed_dictionaries({name: EXTREME for name in STRUCTURAL[1:] + LEVELS}),
        w2_init=EXTREME,
        n=st.sampled_from([1, 2, 3, 50, 1000]),
    )
    def test_bounds_are_never_nan(self, big_l, levels, w2_init, n):
        constant = max(levels.pop("implied_constant"), 1e-300)
        k = KernelAssumptions(L=big_l, implied_constant=constant, **levels)
        calls = {
            "w2": lambda: w2_framework_bound(k, n, w2_init),
            "simple": lambda: kl_simple_bound(k, n, w2_init),
            "closed_form": lambda: kl_framework_bound(k, n, w2_init, "closed_form"),
            "certified": lambda: kl_framework_bound(k, n, w2_init, "certified"),
        }
        out_of_domain = {
            "simple": big_l > 1.0,
            # the certified recursion needs a finite weak level a1
            "certified": not (0.5 <= big_l <= 2.0) or math.isinf(k.e_weak + k.gamma * k.e_strong),
        }
        for mode, call in calls.items():
            try:
                value = call().value
            except ValueError:
                assert out_of_domain.get(mode, False), mode
                continue
            assert not math.isnan(value) and value >= 0.0, mode
