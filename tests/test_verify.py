"""Verification-suite helpers against their step-by-step references."""

import math

import numpy as np
import pytest

from klbounds import chains, verify


def largest_second_moment_by_steps(lam, h, n, x0):
    """Slow reference: E[x_k^2] of the 1D LMC iterates, maximized over k < n."""
    s2_max, mean, var = 0.0, x0, 0.0
    for _ in range(n):
        s2_max = max(s2_max, mean * mean + var)
        mean = (1.0 - h * lam) * mean
        var = (1.0 - h * lam) ** 2 * var + 2.0 * h
    return s2_max


# h lam = 1 is the r = 0 limit, 1.5 is stable with a negative factor, 2.5 is
# unstable (the second moment overflows to inf at n = 3000)
@pytest.mark.parametrize("lam, h", [
    (1.0, 0.2), (1.0, 0.05), (0.5, 0.01), (2.0, 0.5), (3.0, 0.5), (5.0, 0.5),
])
@pytest.mark.parametrize("n", [1, 2, 10, 100, 3000])
@pytest.mark.parametrize("x0", [0.0, 0.3, 4.0])
def test_exact_quadratic_assumptions_match_loop(lam, h, n, x0):
    k = verify.exact_quadratic_assumptions(lam, h, n, x0)
    s2_max = largest_second_moment_by_steps(lam, h, n, x0)
    z = lam * h
    coef_weak = abs(math.exp(-z) - (1.0 - z))
    coupled_var = float(chains._lmc_coupled_variance(np.array([lam]), h)[0])
    v_ref = -math.expm1(-2.0 * z) / lam
    b2_const = 0.5 * (math.log(v_ref / (2.0 * h)) + 2.0 * h / v_ref - 1.0)
    b2 = b2_const + coef_weak**2 * s2_max / v_ref
    assert k.e_weak == pytest.approx(coef_weak * math.sqrt(s2_max), rel=1e-12)
    assert k.e_strong == pytest.approx(math.sqrt(coef_weak**2 * s2_max + coupled_var), rel=1e-12)
    assert k.b_bar == pytest.approx(math.sqrt(b2), rel=1e-12)


def test_exact_quadratic_assumptions_need_a_step():
    with pytest.raises(ValueError, match="n"):
        verify.exact_quadratic_assumptions(1.0, 0.1, 0, 1.0)
