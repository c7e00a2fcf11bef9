"""Gaussian calculus: closed forms against independent 1D formulas,
numerical integration, and distributional properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from klbounds.gauss import (
    Gaussian,
    affine_pushforward,
    kl_gaussian,
    renyi_gaussian,
    toy_exact_kl,
    toy_exact_w2,
    toy_laws,
    w2_gaussian,
)


def kl_1d(mp, vp, mq, vq):
    """Textbook 1D KL formula, kept independent of the implementation."""
    return 0.5 * (math.log(vq / vp) + vp / vq + (mp - mq) ** 2 / vq - 1.0)


def random_gaussian(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    cov = a @ a.T + 0.05 * np.eye(d)
    return Gaussian(rng.standard_normal(d) * scale, cov * scale)


class TestKL:
    def test_identity_is_zero(self):
        g = Gaussian([0.3, -1.0], [[2.0, 0.4], [0.4, 1.0]])
        assert kl_gaussian(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_unit_gaussian_mean_shift(self):
        assert kl_gaussian(Gaussian(1.0, 1.0), Gaussian(0.0, 1.0)) == pytest.approx(0.5)

    def test_equal_covariance_quadratic_form(self):
        # variance 5, mean gap 0.4: 0.5 * 0.4^2 / 5
        got = kl_gaussian(Gaussian(0.4, 5.0), Gaussian(0.0, 5.0))
        assert got == pytest.approx(0.016, abs=1e-15)

    def test_matches_1d_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mp, mq = rng.standard_normal(2)
            vp, vq = rng.uniform(0.1, 4.0, 2)
            got = kl_gaussian(Gaussian(mp, vp), Gaussian(mq, vq))
            assert got == pytest.approx(kl_1d(mp, vp, mq, vq), rel=1e-12)

    def test_singular_second_argument_rejected(self):
        with pytest.raises(ValueError, match="divergence"):
            kl_gaussian(Gaussian(0.0, 1.0), Gaussian(0.0, 0.0))

    def test_degenerate_first_argument_is_infinite(self):
        assert kl_gaussian(Gaussian(0.0, 0.0), Gaussian(0.0, 1.0)) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kl_gaussian(Gaussian([0.0, 0.0], np.eye(2)), Gaussian(0.0, 1.0))

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            p, q = random_gaussian(rng, d), random_gaussian(rng, d)
            a = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
            b = rng.standard_normal(d)
            before = kl_gaussian(p, q)
            after = kl_gaussian(affine_pushforward(p, a, b), affine_pushforward(q, a, b))
            assert after == pytest.approx(before, rel=1e-9)


class TestW2:
    def test_pure_translation(self):
        assert w2_gaussian(Gaussian(0.0, 1.0), Gaussian(3.0, 1.0)) == pytest.approx(3.0)

    def test_1d_standard_deviation_gap(self):
        assert w2_gaussian(Gaussian(0.0, 1.0), Gaussian(0.0, 4.0)) == pytest.approx(1.0)

    def test_commuting_covariances_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = int(rng.integers(1, 5))
            vp, vq = rng.uniform(0.1, 3.0, (2, d))
            mp, mq = rng.standard_normal((2, d))
            p, q = Gaussian(mp, np.diag(vp)), Gaussian(mq, np.diag(vq))
            want = math.sqrt(
                np.sum((mp - mq) ** 2) + np.sum((np.sqrt(vp) - np.sqrt(vq)) ** 2)
            )
            assert w2_gaussian(p, q) == pytest.approx(want, rel=1e-10)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            p, q, r = (random_gaussian(rng, d) for _ in range(3))
            assert w2_gaussian(p, r) <= w2_gaussian(p, q) + w2_gaussian(q, r) + 1e-9

    def test_degenerate_arguments_allowed(self):
        # W2 to a point mass is the second moment root
        got = w2_gaussian(Gaussian(1.0, 0.0), Gaussian(0.0, 1.0))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


class TestRenyi:
    def test_identity_is_zero(self):
        g = Gaussian([1.0, 2.0], [[1.0, 0.2], [0.2, 2.0]])
        assert renyi_gaussian(2.0, g, g) == pytest.approx(0.0, abs=1e-12)

    def test_order_two_against_numerical_integration(self):
        p, q = Gaussian(1.0, 1.0), Gaussian(0.0, 1.0)

        def p_pdf(x):
            return math.exp(-0.5 * (x - 1.0) ** 2) / math.sqrt(2 * math.pi)

        def q_pdf(x):
            return math.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)

        integral, _ = quad(lambda x: p_pdf(x) ** 2 / q_pdf(x), -30, 30)
        want = math.log(integral)  # 1/(q-1) with q = 2
        assert want == pytest.approx(1.0, rel=1e-9)
        assert renyi_gaussian(2.0, p, q) == pytest.approx(want, rel=1e-9)

    def test_order_one_limit_matches_kl(self):
        # The gap R_q - KL is Theta(q - 1) with a problem-dependent factor,
        # so the 1e-8 agreement is checked on a small-divergence pair.
        p, q = Gaussian(0.001, 1.0), Gaussian(0.0, 1.0)
        val = renyi_gaussian(1.0 + 1e-6, p, q)
        assert val == pytest.approx(kl_gaussian(p, q), abs=1e-8)
        big_p = Gaussian(1.0, 1.0)
        gap = renyi_gaussian(1.0 + 1e-6, big_p, q) - kl_gaussian(big_p, q)
        assert gap == pytest.approx(0.5e-6, rel=1e-3)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(4)
        orders = [1.2, 1.5, 2.0, 4.0, 8.0]
        for _ in range(100):
            d = int(rng.integers(1, 4))
            p, q = random_gaussian(rng, d), random_gaussian(rng, d)
            vals = [renyi_gaussian(o, p, q) for o in orders]
            finite = [v for v in vals if math.isfinite(v)]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
            assert finite == sorted(finite)

    def test_mixture_covariance_failure_is_infinite(self):
        # order * Sig_q + (1 - order) * Sig_p loses positivity for large order
        p, q = Gaussian(0.0, 4.0), Gaussian(0.0, 1.0)
        assert renyi_gaussian(2.0, p, q) == math.inf

    def test_order_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="order"):
            renyi_gaussian(1.0, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))


class TestAffineAndConvolve:
    def test_identity_map(self):
        g = Gaussian([1.0, 2.0], np.eye(2))
        out = affine_pushforward(g, np.eye(2), np.zeros(2))
        np.testing.assert_allclose(out.mean, g.mean)
        np.testing.assert_allclose(out.cov, g.cov)

    def test_scalar_contraction(self):
        out = affine_pushforward(Gaussian(0.0, 1.0), 0.9, 0.0)
        assert out.cov[0, 0] == pytest.approx(0.81)

    def test_reflection_with_shift(self):
        out = affine_pushforward(Gaussian(1.0, 2.0), -1.0, 1.0)
        assert out.mean[0] == pytest.approx(0.0)
        assert out.cov[0, 0] == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            affine_pushforward(Gaussian(0.0, 1.0), np.eye(2), np.zeros(2))


class TestToyFormulas:
    def test_vanishing_limit(self):
        assert toy_exact_kl(1, 0.0, 1e-12) == pytest.approx(0.0, abs=1e-20)
        assert toy_exact_w2(1, 0.0, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_spot_values(self):
        assert toy_exact_kl(4, 0.1, 1.0) == pytest.approx(
            0.5 * (0.04 + 1.0 - math.log(2.0)), rel=1e-15
        )
        want = math.sqrt(16 * 0.01 + 4 * (math.sqrt(2.0) - 1.0) ** 2)
        assert toy_exact_w2(4, 0.1, 1.0) == pytest.approx(want, rel=1e-15)

    def test_agree_with_gaussian_calculus(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            w = float(rng.uniform(-1.0, 1.0))
            sigma = float(rng.uniform(0.05, 3.0))
            hat, ref = toy_laws(n, w, sigma)
            assert toy_exact_kl(n, w, sigma) == pytest.approx(
                kl_gaussian(hat, ref), rel=1e-12, abs=1e-12
            )
            assert toy_exact_w2(n, w, sigma) == pytest.approx(
                w2_gaussian(hat, ref), rel=1e-12, abs=1e-12
            )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            toy_exact_kl(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            toy_exact_w2(2, 0.1, -1.0)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None)
@given(bad=NON_FINITE, field=st.sampled_from(["w", "sigma"]),
       toy=st.sampled_from([toy_exact_kl, toy_exact_w2]))
def test_toy_formulas_reject_non_finite(bad, field, toy):
    args = {"n": 4, "w": 0.1, "sigma": 1.0, field: bad}
    with pytest.raises(ValueError, match=field):
        toy(**args)


class TestGaussianValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            Gaussian([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            Gaussian([0.0], [[-1.0]])

    @pytest.mark.parametrize("mean, cov", [
        ([math.nan], [[1.0]]),
        ([0.0, math.inf], np.eye(2)),
        ([0.0], [[math.nan]]),
        ([0.0, 0.0], [[1.0, math.inf], [math.inf, 1.0]]),
    ])
    def test_non_finite_rejected(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            Gaussian(mean, cov)

    def test_immutable(self):
        g = Gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError):
            g.mean[0] = 1.0


def random_basis(rng, d):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


class TestFromEig:
    def test_matches_constructor(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 7):
            vecs, vals = random_basis(rng, d), rng.uniform(0.1, 3.0, d)
            mean = rng.standard_normal(d)
            fast = Gaussian._from_eig(mean, vals, vecs)
            slow = Gaussian(mean, (vecs * vals) @ vecs.T)
            assert np.array_equal(fast.mean, slow.mean)
            np.testing.assert_allclose(fast.cov, slow.cov, rtol=0, atol=1e-14)
            np.testing.assert_allclose(fast._eigvals, slow._eigvals, rtol=1e-13)
            assert np.array_equal(fast.cov, fast.cov.T)

    def test_spectrum_sorted_with_its_basis(self):
        vecs = random_basis(np.random.default_rng(4), 4)
        vals = np.array([3.0, 0.0, 1.0, 2.0])
        g = Gaussian._from_eig(np.zeros(4), vals, vecs)
        assert np.array_equal(g._eigvals, np.sort(vals))
        np.testing.assert_allclose((g._eigvecs * g._eigvals) @ g._eigvecs.T, g.cov, atol=1e-15)
        np.testing.assert_allclose(g.cov @ vecs[:, 0], 3.0 * vecs[:, 0], atol=1e-14)
        # the zero eigenvalue reached [0], where is_degenerate reads it
        assert g.is_degenerate()
        assert kl_gaussian(g, Gaussian(np.zeros(4), np.eye(4))) == math.inf

    @pytest.mark.parametrize("mean, vals", [
        ([math.nan, 0.0], [1.0, 1.0]),
        ([0.0, math.inf], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, math.nan]),
        ([0.0, 0.0], [math.inf, 1.0]),
        ([0.0, 0.0], [-math.inf, 1.0]),
    ])
    def test_non_finite_rejected(self, mean, vals):
        with pytest.raises(ValueError, match="finite"):
            Gaussian._from_eig(mean, vals, np.eye(2))

    def test_negative_eigenvalue_beyond_tolerance_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            Gaussian._from_eig([0.0, 0.0], [2.0, -1e-11], np.eye(2))
        # within PSD_TOL * max(lam_max, 1) it is roundoff, clipped to 0
        g = Gaussian._from_eig([0.0, 0.0], [2.0, -1e-13], np.eye(2))
        assert np.array_equal(g._eigvals, [0.0, 2.0])
        assert np.array_equal(g.cov, np.diag([2.0, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Gaussian._from_eig([0.0, 0.0], [1.0], np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            Gaussian._from_eig([0.0, 0.0], [1.0, 1.0], np.eye(3))

    def test_arrays_read_only(self):
        vecs = random_basis(np.random.default_rng(5), 3)
        g = Gaussian._from_eig(np.ones(3), [1.0, 2.0, 3.0], vecs)
        for arr in (g.mean, g.cov, g._eigvals, g._eigvecs):
            assert not arr.flags.writeable
        assert vecs.flags.writeable  # the caller's basis is not frozen

    def test_runs_no_eigh(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        g = Gaussian._from_eig([0.0, 1.0], [1.0, 2.0], np.eye(2))
        assert kl_gaussian(g, g) == 0.0


def kl_by_solve(p, q):
    """KL(p || q) with dense solves and slogdet, independent of the eigenbasis."""
    delta = p.mean - q.mean
    trace = np.trace(np.linalg.solve(q.cov, p.cov))
    quad = delta @ np.linalg.solve(q.cov, delta)
    logdet = np.linalg.slogdet(q.cov)[1] - np.linalg.slogdet(p.cov)[1]
    return 0.5 * (trace + quad - p.dim + logdet)


class TestKLTrace:
    def test_matches_solve_reference(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 5, 30):
            for scale in (1e-3, 1.0, 1e3):
                p, q = random_gaussian(rng, d, scale), random_gaussian(rng, d, scale)
                want = kl_by_solve(p, q)
                assert kl_gaussian(p, q) == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_singular_second_argument_checked_before_degenerate_first(self):
        point = Gaussian([0.0, 0.0], np.zeros((2, 2)))
        flat = Gaussian([0.0, 0.0], np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="singular"):
            kl_gaussian(point, flat)


@settings(max_examples=60, deadline=None)
@given(
    mp=st.floats(-5, 5), mq=st.floats(-5, 5),
    vp=st.floats(0.05, 10), vq=st.floats(0.05, 10),
)
def test_kl_positivity_1d(mp, mq, vp, vq):
    val = kl_gaussian(Gaussian(mp, vp), Gaussian(mq, vq))
    assert val >= -1e-12
    if abs(mp - mq) > 1e-6 or abs(vp - vq) > 1e-6:
        assert val > 0.0


@settings(max_examples=60, deadline=None)
@given(
    mp=st.floats(-5, 5), mq=st.floats(-5, 5),
    vp=st.floats(0.05, 10), vq=st.floats(0.05, 10),
    order=st.floats(1.001, 16),
)
def test_renyi_dominates_kl_1d(mp, mq, vp, vq, order):
    p, q = Gaussian(mp, vp), Gaussian(mq, vq)
    assert renyi_gaussian(order, p, q) >= kl_gaussian(p, q) - 1e-9
