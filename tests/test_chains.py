"""Kernels and local-error machinery: hand arithmetic, exact OU laws,
coupled Monte Carlo against the exact Gaussian path."""

import math
import sys
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbounds import chains, gauss
from klbounds.chains import (
    PotentialSpec,
    QuadraticTag,
    SamplerConfig,
    auxiliary_process_sim,
    dump_samples_csv,
    estimate_local_errors,
    gaussian_drift_kernel,
    lmc_step,
    propagate_law,
    rmlmc_increments,
    rmlmc_step,
    simulate_chain,
    toy_kernel_pair,
)
from klbounds.shifts import ShiftProblem, SimpleError, evaluate_schedule, optimal_shifts_L1
from klbounds.verify import exact_quadratic_assumptions

UNIT = PotentialSpec.quadratic_potential(1.0)


def rotated_quadratic(rng, lam, rotate=True):
    """Quadratic potential with spectrum lam in a random basis (or the standard one)."""
    d = len(lam)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0] if rotate else np.eye(d)
    p = (q * lam) @ q.T
    return PotentialSpec.quadratic_potential(0.5 * (p + p.T), rng.standard_normal(d))


def ou_kernel(pot, x, h):
    """The exact OU transition law from x: one ExactDiffusion step from a Dirac start."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return propagate_law(pot, gauss.Gaussian(x, np.zeros((x.size, x.size))), "ExactDiffusion", h, 1)


def random_gaussian(rng, d):
    a = rng.standard_normal((d, d)) / math.sqrt(d)
    return gauss.Gaussian(rng.standard_normal(d), a @ a.T)


def lmc_law_by_steps(pot, init, h, n):
    """Slow reference: n dense steps of mean' = m + A (mean - m), cov' = A cov A^T + 2h I."""
    p, m = pot.quadratic.precision, pot.quadratic.mode
    a = np.eye(pot.dimension) - h * p
    mean, cov = init.mean.copy(), init.cov.copy()
    for _ in range(n):
        mean = m + a @ (mean - m)
        cov = a @ cov @ a.T + 2.0 * h * np.eye(pot.dimension)
    return mean, cov


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def rmlmc_strong_by_nodes(pot, x, h):
    """Slow reference: the RMLMC strong error as a loop over eigenvalues x nodes."""

    def sq_integral(w, lam, t0, t1):  # integral of (w - e^{-lam t})^2 over [t0, t1]
        e0, e1 = math.exp(-lam * t0), math.exp(-lam * t1)
        return w * w * (t1 - t0) + 2.0 * w * (e1 - e0) / lam - (e1 * e1 - e0 * e0) / (2.0 * lam)

    lam, vecs = np.linalg.eigh(pot.quadratic.precision)
    xi = vecs.T @ (np.atleast_1d(x) - pot.quadratic.mode)
    total = 0.0
    for lam_i, xi_i in zip(lam, xi):
        if lam_i <= 1e-12:
            continue
        z = lam_i * h
        a, b = (1.0 - z) - math.exp(-z), z * z
        total += (a * a + a * b + b * b / 3.0) * xi_i * xi_i
        for u, wt in zip(0.5 * (GL_NODES + 1.0), 0.5 * GL_WEIGHTS):
            t = (1.0 - u) * h
            v = sq_integral(1.0 - z, lam_i, t, h) + sq_integral(1.0, lam_i, 0.0, t)
            total += wt * 2.0 * v
    return math.sqrt(total)


def simulate_chain_by_loop(pot, config, init):
    """Reference: simulate_chain with each scheme's update written inline."""
    d, h, samples = pot.dimension, config.h, config.samples
    if config.scheme == "ExactDiffusion":
        lam, vecs = np.linalg.eigh(pot.quadratic.precision)
        m = pot.quadratic.mode
        trans = (vecs * np.exp(-h * lam)) @ vecs.T
        noise_sd = (vecs * np.sqrt(-np.expm1(-2.0 * h * lam) / lam)) @ vecs.T
    out = np.empty((samples, config.n_steps + 1, d))
    x = chains._draw_init(init, samples, d, chains._stream(config.seed, 0))
    out[:, 0, :] = x
    for k in range(config.n_steps):
        gen = chains._stream(config.seed, k + 1)
        if config.scheme == "LMC":
            noise = gen.standard_normal((samples, d))
            x = x - h * pot.gradient(x) + math.sqrt(2.0 * h) * noise
        elif config.scheme == "RMLMC":
            u = gen.random(samples)
            xi1 = gen.standard_normal((samples, d))
            xi2 = gen.standard_normal((samples, d))
            b_uh = np.sqrt(u * h)[:, None] * xi1
            b_h = b_uh + np.sqrt((1.0 - u) * h)[:, None] * xi2
            x_mid = x - (u * h)[:, None] * pot.gradient(x) + math.sqrt(2.0) * b_uh
            x = x - h * pot.gradient(x_mid) + math.sqrt(2.0) * b_h
        else:
            xi = gen.standard_normal((samples, d))
            x = m + (x - m) @ trans.T + xi @ noise_sd.T
        out[:, k + 1, :] = x
    return out


def mc_local_errors_by_loop(pot, scheme, x, h, samples, seed, inner_steps):
    """Reference: the coupled Monte Carlo (x_hat - X_h) with inline updates."""
    d = pot.dimension
    gen = chains._stream(seed, 0)
    dt = h / inner_steps
    db = math.sqrt(dt) * gen.standard_normal((inner_steps, samples, d))
    xs = np.broadcast_to(x, (samples, d)).copy()
    b_grid = np.concatenate([np.zeros((1, samples, d)), np.cumsum(db, axis=0)])
    for k in range(inner_steps):
        xs = xs - dt * pot.gradient(xs) + math.sqrt(2.0) * db[k]
    x0 = np.broadcast_to(x, (samples, d))
    if scheme == "LMC":
        return x0 - h * pot.gradient(x0) + math.sqrt(2.0) * b_grid[-1] - xs
    u = gen.random(samples)
    zeta = gen.standard_normal((samples, d))
    t = u * h
    idx = np.minimum((t / dt).astype(int), inner_steps - 1)
    t0 = idx * dt
    lo, hi = b_grid[idx, np.arange(samples)], b_grid[idx + 1, np.arange(samples)]
    bridge_sd = np.sqrt((dt - (t - t0)) * (t - t0) / dt)
    b_uh = lo + ((t - t0) / dt)[:, None] * (hi - lo) + bridge_sd[:, None] * zeta
    x_mid = x0 - (u * h)[:, None] * pot.gradient(x0) + math.sqrt(2.0) * b_uh
    return x0 - h * pot.gradient(x_mid) + math.sqrt(2.0) * b_grid[-1] - xs


def counting(gradient):
    """The gradient plus a list that records one entry per call."""
    calls = []

    def wrapped(x):
        calls.append(np.shape(x))
        return gradient(x)

    return wrapped, calls


class TestSteps:
    def test_lmc_drift_only(self):
        assert lmc_step(UNIT, 1.0, 0.1, 0.0)[0] == pytest.approx(0.9)

    def test_lmc_with_noise(self):
        got = lmc_step(UNIT, 1.0, 0.1, 1.0)[0]
        assert got == pytest.approx(0.9 + math.sqrt(0.2), rel=1e-15)

    def test_lmc_zero_gradient_random_walk(self):
        flat = PotentialSpec(1, lambda x: np.zeros_like(np.atleast_1d(x)))
        assert lmc_step(flat, 2.0, 0.3, 1.5)[0] == pytest.approx(
            2.0 + math.sqrt(0.6) * 1.5
        )

    def test_lmc_nonfinite_gradient(self):
        bad = PotentialSpec(1, lambda x: np.full(1, np.nan))
        with pytest.raises(ValueError, match="gradient"):
            lmc_step(bad, 1.0, 0.1, 0.0)

    def test_rmlmc_reduces_to_lmc_drift_at_u0(self):
        assert rmlmc_step(UNIT, 1.0, 0.1, 0.0, 0.0, 0.0)[0] == pytest.approx(0.9)

    def test_rmlmc_midpoint_arithmetic(self):
        # x+ = 1 - 0.05 = 0.95, out = 1 - 0.1*0.95
        assert rmlmc_step(UNIT, 1.0, 0.1, 0.5, 0.0, 0.0)[0] == pytest.approx(0.905)

    def test_rmlmc_full_lookahead(self):
        got = rmlmc_step(UNIT, 1.0, 0.1, 1.0, 0.0, 0.0)[0]
        assert got == pytest.approx(1.0 - 0.1 * 0.9)

    def test_rmlmc_input_validation(self):
        with pytest.raises(ValueError):
            rmlmc_step(UNIT, 1.0, 0.1, 1.5, 0.0, 0.0)
        with pytest.raises(ValueError, match="increments"):
            rmlmc_step(UNIT, np.zeros(2), 0.1, 0.5, np.zeros(3), np.zeros(2))

    def test_rmlmc_nonfinite_first_gradient(self):
        # grad V(x) is nan, grad V(x+) is finite: only the first check can fire
        calls = []

        def gradient(x):
            calls.append(1)
            return np.full(np.shape(x), np.nan if len(calls) == 1 else 1.0)

        bad = PotentialSpec(1, gradient)
        with pytest.raises(ValueError, match="non-finite gradient"):
            rmlmc_step(bad, 1.0, 0.1, 0.5, 0.0, 0.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("gradient", ["quadratic", "cubic"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_batch_step_equals_stacked_rows(self, gradient, d):
        rng = np.random.default_rng(d)
        if gradient == "quadratic":  # diagonal: batch and row products sum alike
            pot = rotated_quadratic(rng, np.linspace(0.5, 2.0, d), rotate=False)
        else:
            pot = PotentialSpec(d, lambda x: np.asarray(x, float) ** 3 + x)
        x = rng.standard_normal((6, d))
        xi1, xi2 = rng.standard_normal((2, 6, d))
        u = rng.random(6)
        h = 0.1
        lmc = lmc_step(pot, x, h, xi1)
        assert np.array_equal(lmc, np.stack([lmc_step(pot, r, h, n) for r, n in zip(x, xi1)]))
        b_uh, b_h = rmlmc_increments(u, h, xi1, xi2)
        rows = [rmlmc_increments(ui, h, a, b) for ui, a, b in zip(u, xi1, xi2)]
        assert np.array_equal(b_uh, np.stack([r[0] for r in rows]))
        assert np.array_equal(b_h, np.stack([r[1] for r in rows]))
        rm = rmlmc_step(pot, x, h, u, b_uh, b_h)
        want = [rmlmc_step(pot, *args) for args in zip(x, [h] * 6, u, b_uh, b_h)]
        assert np.array_equal(rm, np.stack(want))
        # a scalar u applies to every row
        rm = rmlmc_step(pot, x, h, 0.3, b_uh, b_h)
        want = [rmlmc_step(pot, r, h, 0.3, a, b) for r, a, b in zip(x, b_uh, b_h)]
        assert np.array_equal(rm, np.stack(want))

    def test_batch_fraction_shape_checked(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="u must"):
            rmlmc_step(UNIT, x, 0.1, np.full(3, 0.5), x, x)
        with pytest.raises(ValueError, match="u must"):
            rmlmc_increments(np.full(4, 0.5), 0.1, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rmlmc_increments(np.array([0.5, np.nan, 0.2, 0.1]), 0.1, x, x)

    def test_rmlmc_increment_covariance(self):
        rng = np.random.default_rng(0)
        u, h, n = 0.3, 0.5, 400_000
        b_uh, b_h = rmlmc_increments(u, h, rng.standard_normal(n), rng.standard_normal(n))
        cov = np.cov(b_uh, b_h)
        np.testing.assert_allclose(
            cov, [[u * h, u * h], [u * h, h]], atol=4.0 * h / math.sqrt(n)
        )


class TestExactLaws:
    def test_ou_kernel_spot(self):
        g = ou_kernel(UNIT, 1.0, 0.1)
        assert g.mean[0] == pytest.approx(math.exp(-0.1), rel=1e-15)
        assert g.cov[0, 0] == pytest.approx(1.0 - math.exp(-0.2), rel=1e-15)

    def test_ou_kernel_limits(self):
        short = ou_kernel(UNIT, 1.0, 1e-9)
        assert short.mean[0] == pytest.approx(1.0, abs=1e-8)
        assert short.cov[0, 0] == pytest.approx(0.0, abs=1e-8)
        long = ou_kernel(UNIT, 1.0, 60.0)
        assert long.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert long.cov[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_ou_requires_positive_definite(self):
        degenerate = PotentialSpec.quadratic_potential(np.array([[0.0]]))
        with pytest.raises(ValueError, match="positive-definite"):
            ou_kernel(degenerate, 1.0, 0.1)

    def test_propagate_identity_at_zero_steps(self):
        init = gauss.Gaussian(2.0, 0.0)
        out = propagate_law(UNIT, init, "LMC", 0.1, 0)
        assert out is init

    @pytest.mark.parametrize("scheme", ["LMC", "ExactDiffusion"])
    @pytest.mark.parametrize("n", [0, 1, 30])
    def test_non_dirac_start_rejected(self, scheme, n):
        pot = rotated_quadratic(np.random.default_rng(n), np.linspace(0.5, 3.0, 3))
        cov = np.zeros((3, 3))
        cov[2, 2] = 1e-300  # any non-zero covariance
        with pytest.raises(ValueError, match="Dirac start"):
            propagate_law(pot, gauss.Gaussian(np.ones(3), cov), scheme, 0.1, n)

    def test_propagate_one_lmc_step_from_dirac(self):
        out = propagate_law(UNIT, gauss.Gaussian(0.0, 0.0), "LMC", 0.1, 1)
        assert out.cov[0, 0] == pytest.approx(0.2)

    def test_lmc_variance_fixed_point(self):
        # S = (1-h)^2 S + 2h  =>  S = 2h / (1 - (1-h)^2)
        out = propagate_law(UNIT, gauss.Gaussian(0.0, 0.0), "LMC", 0.1, 4000)
        assert out.cov[0, 0] == pytest.approx(0.2 / 0.19, rel=1e-12)

    def test_exact_diffusion_composition(self):
        many = propagate_law(UNIT, gauss.Gaussian(1.0, 0.0), "ExactDiffusion", 0.25, 8)
        direct = ou_kernel(UNIT, 1.0, 2.0)
        np.testing.assert_allclose(many.mean, direct.mean, rtol=1e-12)
        np.testing.assert_allclose(many.cov, direct.cov, rtol=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 50, 10**6])
    def test_lmc_geometric_sum(self, n):
        # sum_{j<n} r^j, r = (1 - z)^2, against (1 - r^n) / (1 - r) in 40 digits
        z = np.array([0.0, 1e-9, 0.03, 1.0, 1.5, 2.0, 2.5])
        with localcontext(prec=40):
            r = [(1 - Decimal(v)) ** 2 for v in z]
            want = [float(0 if n == 0 else n if q == 1 else (1 - q**n) / (1 - q)) for q in r]
        np.testing.assert_allclose(chains._lmc_geometric_sum(z, n), want, rtol=1e-12)

    @pytest.mark.parametrize("rotate", [True, False])
    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_lmc_closed_form_matches_steps(self, rotate, n):
        # h lam covers near 0, the stable range, the r = 0 and r = 1 limits
        # (h lam = 1, 2), a flat direction (lam = 0) and an unstable one
        h = 0.1
        z = np.array([0.0, 1e-9, 0.03, 0.5, 1.0, 1.5, 1.9, 2.0, 2.5])
        lam = np.concatenate([z, np.linspace(0.2, 1.8, 11)]) / h
        rng = np.random.default_rng(n)
        pot = rotated_quadratic(rng, lam, rotate)
        init = gauss.Gaussian(rng.standard_normal(lam.size), np.zeros((lam.size, lam.size)))
        law = propagate_law(pot, init, "LMC", h, n)
        mean, cov = lmc_law_by_steps(pot, init, h, n)
        assert np.max(np.abs(law.mean - mean)) <= 1e-12 * max(1.0, np.max(np.abs(mean)))
        assert np.max(np.abs(law.cov - cov)) <= 1e-12 * np.max(np.abs(cov))

    def test_unstable_lmc_law_divergence_raises(self):
        with pytest.raises(ValueError, match="diverged"):
            propagate_law(UNIT, gauss.Gaussian(1.0, 0.0), "LMC", 2.5, 2000)

    def test_contraction_rates(self):
        h, x, y = 0.07, 3.0, -1.0
        for n in (1, 5, 20):
            a = propagate_law(UNIT, gauss.Gaussian(x, 0.0), "LMC", h, n)
            b = propagate_law(UNIT, gauss.Gaussian(y, 0.0), "LMC", h, n)
            assert gauss.w2_gaussian(a, b) == pytest.approx(
                abs(1 - h) ** n * abs(x - y), rel=1e-10
            )
            a = propagate_law(UNIT, gauss.Gaussian(x, 0.0), "ExactDiffusion", h, n)
            b = propagate_law(UNIT, gauss.Gaussian(y, 0.0), "ExactDiffusion", h, n)
            assert gauss.w2_gaussian(a, b) == pytest.approx(
                math.exp(-n * h) * abs(x - y), rel=1e-10
            )


class TestLocalErrors:
    def test_lmc_weak_exact(self):
        for h in (0.2, 0.1, 0.05):
            for x in (0.5, 1.0, 4.0):
                est = estimate_local_errors(UNIT, "LMC", x, h)
                assert est.exact
                assert est.weak == pytest.approx(
                    abs(math.exp(-h) - (1 - h)) * abs(x), rel=1e-12
                )

    def test_weak_never_exceeds_strong(self):
        for scheme in ("LMC", "RMLMC"):
            for x in (0.0, 1.0, 8.0):
                est = estimate_local_errors(UNIT, scheme, x, 0.1)
                assert est.weak <= est.strong + 1e-15

    def test_zero_gradient_errors_vanish(self):
        flat = PotentialSpec(1, lambda x: np.zeros_like(np.atleast_1d(np.asarray(x, float))))
        est = estimate_local_errors(flat, "LMC", 1.0, 0.1, samples=4000)
        assert est.weak == pytest.approx(0.0, abs=1e-12)
        assert est.strong == pytest.approx(0.0, abs=1e-12)
        assert est.underpowered  # indistinguishable from zero, flagged

    def test_mc_agrees_with_exact_quadratic(self):
        # same potential presented as a black box; inner-grid bias ~ 1e-4
        black_box = PotentialSpec(1, lambda x: np.asarray(x, dtype=float))
        for scheme in ("LMC", "RMLMC"):
            want = estimate_local_errors(UNIT, scheme, 1.0, 0.1)
            got = estimate_local_errors(
                black_box, scheme, 1.0, 0.1, samples=400_000, seed=5, inner_steps=256
            )
            assert not got.exact
            assert got.strong == pytest.approx(
                want.strong, abs=4 * got.strong_stderr + 3e-4
            )
            assert got.weak == pytest.approx(want.weak, abs=4 * got.weak_stderr + 3e-4)

    def test_mc_weak_le_strong_nonquadratic(self):
        quartic = PotentialSpec(1, lambda x: np.asarray(x, float) ** 3 + np.asarray(x, float))
        for scheme in ("LMC", "RMLMC"):
            est = estimate_local_errors(quartic, scheme, 0.7, 0.05, samples=100_000, seed=3)
            assert est.weak <= est.strong + 3 * (est.weak_stderr + est.strong_stderr)

    @pytest.mark.parametrize("d", [1, 50])
    def test_rmlmc_strong_matches_node_loop(self, d):
        rng = np.random.default_rng(d)
        lam = np.exp(rng.uniform(0.0, math.log(5.0), d)) if d > 1 else np.ones(1)
        pot = rotated_quadratic(rng, lam)
        x = pot.quadratic.mode + 2.0 * rng.standard_normal(d)
        for h in (0.2, 0.1):
            got = estimate_local_errors(pot, "RMLMC", x, h).strong
            assert got == pytest.approx(rmlmc_strong_by_nodes(pot, x, h), rel=1e-12)

    def test_rmlmc_conditional_mean_is_affine(self):
        # E[X_hat | u] = x - h P (I - u h P)(x - m): affine in x
        h, u = 0.1, 0.37
        xs = np.array([-2.0, 0.0, 1.0, 3.0])
        outs = np.array([rmlmc_step(UNIT, x, h, u, 0.0, 0.0)[0] for x in xs])
        slope = 1.0 - h * (1.0 - u * h)
        np.testing.assert_allclose(outs, slope * xs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["LMC", "RMLMC"])
    def test_mc_matches_inline_loops(self, scheme):
        # the inner step scales the draw by sqrt(2 dt), not sqrt(2) sqrt(dt)
        pot = PotentialSpec(2, lambda x: np.asarray(x, float) ** 3 + x)
        x, h, samples = np.array([0.7, -0.2]), 0.05, 3000
        diff = mc_local_errors_by_loop(pot, scheme, x, h, samples, 3, 64)
        sq = np.sum(diff**2, axis=1)
        est = estimate_local_errors(pot, scheme, x, h, samples=samples, seed=3)
        assert est.weak == pytest.approx(np.linalg.norm(diff.mean(axis=0)), rel=1e-12)
        assert est.strong == pytest.approx(math.sqrt(sq.mean()), rel=1e-13)

    def test_scheme_checked_before_monte_carlo(self):
        gradient, calls = counting(lambda x: np.asarray(x, float) ** 3)
        quartic = PotentialSpec(1, gradient)
        with pytest.raises(ValueError, match="scheme must be LMC or RMLMC"):
            estimate_local_errors(quartic, "ExactDiffusion", 1.0, 0.1)
        assert calls == []

    def test_inner_grid_floor(self):
        black_box = PotentialSpec(1, lambda x: np.asarray(x, float))
        with pytest.raises(ValueError, match="inner_steps"):
            estimate_local_errors(black_box, "LMC", 1.0, 0.1, inner_steps=16)


class TestSimulateChain:
    def test_zero_steps_returns_initialization(self):
        cfg = SamplerConfig("LMC", 0.1, 0, seed=1, samples=64)
        res = simulate_chain(UNIT, cfg, np.array([2.0]))
        assert res.iterates.shape == (64, 1, 1)
        assert np.all(res.iterates == 2.0)

    def test_seed_determinism(self):
        cfg = SamplerConfig("RMLMC", 0.1, 20, seed=11, samples=500)
        a = simulate_chain(UNIT, cfg, np.array([0.0]))
        b = simulate_chain(UNIT, cfg, np.array([0.0]))
        assert np.array_equal(a.iterates, b.iterates)
        c = simulate_chain(UNIT, SamplerConfig("RMLMC", 0.1, 20, seed=12, samples=500),
                           np.array([0.0]))
        assert not np.array_equal(a.iterates, c.iterates)

    def test_moments_match_exact_law(self):
        cfg = SamplerConfig("LMC", 0.1, 40, seed=2, samples=120_000)
        res = simulate_chain(UNIT, cfg, np.array([1.0]))
        law = propagate_law(UNIT, gauss.Gaussian(1.0, 0.0), "LMC", 0.1, 40)
        var = law.cov[0, 0]
        mean_se = math.sqrt(var / cfg.samples)
        var_se = var * math.sqrt(2.0 / (cfg.samples - 1))
        assert res.empirical_mean()[0] == pytest.approx(law.mean[0], abs=4 * mean_se)
        assert res.empirical_cov()[0, 0] == pytest.approx(var, abs=4 * var_se)

    def test_gaussian_initialization(self):
        cfg = SamplerConfig("ExactDiffusion", 0.5, 3, seed=4, samples=50_000)
        res = simulate_chain(UNIT, cfg, gauss.Gaussian(0.0, 1.0))
        # stationary start stays stationary
        assert res.empirical_cov()[0, 0] == pytest.approx(1.0, abs=0.03)

    def test_divergence_reports_step(self):
        # an overflowed iterate and an overflowed gradient both end the chain
        # at the step where they happen
        want = {(1.0, "LMC"): 308, (1.0, "RMLMC"): 199, (3.0, "LMC"): 205,
                (3.0, "RMLMC"): 120, (1e300, "LMC"): 2, (1e300, "RMLMC"): 1}
        for (precision, scheme), step in want.items():
            pot = PotentialSpec.quadratic_potential(precision)
            cfg = SamplerConfig(scheme, 11.0, 400, seed=0, samples=4)
            with pytest.raises(ValueError, match=f"^chain diverged at step {step}$"):
                simulate_chain(pot, cfg, np.array([1.0]))

    @pytest.mark.parametrize("scheme", ["LMC", "RMLMC", "ExactDiffusion"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_iterates_match_inline_loops(self, scheme, d):
        rng = np.random.default_rng(10 + d)
        pot = rotated_quadratic(rng, np.linspace(0.5, 2.0, d))
        starts = [pot.quadratic.mode + 1.0, random_gaussian(rng, d)]
        for seed in range(4):
            for init in starts:
                cfg = SamplerConfig(scheme, 0.1, 12, seed=seed, samples=9)
                got = simulate_chain(pot, cfg, init).iterates
                assert np.array_equal(got, simulate_chain_by_loop(pot, cfg, init))

    def test_csv_dump(self, tmp_path):
        cfg = SamplerConfig("LMC", 0.1, 2, seed=0, samples=3)
        res = simulate_chain(UNIT, cfg, np.array([0.0]))
        path = tmp_path / "samples.csv"
        dump_samples_csv(path, res)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replica,step,coord_0"
        assert len(lines) == 1 + 3 * 3
        replica, step, coord = lines[1].split(",")
        assert (replica, step) == ("0", "0")
        assert float(coord) == 0.0

    def test_csv_bytes_match_per_value_formatting(self, tmp_path):
        edge = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308,
                0.1, 1.0 / 3.0, 123456789.0, 1e-7, math.inf, math.nan]
        iterates = np.array(edge * 5).reshape(3, 4, 5)
        res = chains.ChainResult(iterates)
        path = tmp_path / "samples.csv"
        dump_samples_csv(path, res)
        want = "replica,step," + ",".join(f"coord_{j}" for j in range(5)) + "\n"
        for r in range(3):
            for s in range(4):
                want += f"{r},{s}," + ",".join("%.17g" % v for v in iterates[r, s]) + "\n"
        assert path.read_bytes() == want.encode()
        assert "-0," in want and "4.9406564584124654e-324" in want


class TestAuxiliaryProcess:
    def test_all_one_schedule_identical_kernels(self):
        hat = gaussian_drift_kernel(0.0, 1.0)
        trace = auxiliary_process_sim(hat, hat, np.ones(5), 0.0, 0.0,
                                      replicas=40_000, seed=0)
        # true distances are 0; the empirical-W2 quantile-noise floor at
        # group size m leaves O(sqrt(V/m)) residue, a few % of the cloud sd
        assert trace.distances[0] == 0.0
        for k in range(1, 6):
            assert trace.distances[k] <= 0.08 * math.sqrt(k)

    def test_distance_recursion_upper_bound(self):
        # generic toy kernels: empirical d_{n+1} <= (1-eta) d_n + a within noise
        w, sigma = 0.1, 1.0
        hat, ref = toy_kernel_pair(w, sigma)
        a = math.sqrt(w**2 + (math.sqrt(1 + sigma**2) - 1) ** 2)
        schedule = optimal_shifts_L1(8, a, 2.0)
        trace = auxiliary_process_sim(hat, ref, schedule, 0.0, -2.0,
                                      replicas=60_000, seed=1)
        for k in range(7):  # last step switches kernels; recursion covers the rest
            bound = (1 - schedule.eta[k]) * trace.distances[k] + a
            assert trace.distances[k + 1] <= bound + 3 * trace.stderrs[k + 1] + 1e-3

    def test_pure_bias_kernel_matches_analytic_trace(self):
        # sigma = 0: the one-step Wasserstein bias is exactly w and the
        # recursion d_{k+1} = (1 - eta_k) d_k + w holds with equality
        w, d0, n = 0.25, 2.0, 8
        hat, ref = toy_kernel_pair(w, 0.0)
        schedule = optimal_shifts_L1(n, w, d0)
        analytic = evaluate_schedule(ShiftProblem(n, 1.0, d0, SimpleError(w)), schedule).distances
        trace = auxiliary_process_sim(hat, ref, schedule, 0.0, -d0,
                                      replicas=100_000, seed=2)
        for k in range(n):
            tol = 3 * trace.stderrs[k] + 2e-3  # cushion: estimator finite-cloud bias
            assert abs(trace.distances[k] - analytic[k]) <= tol

    def test_dimension_guard(self):
        hat = gaussian_drift_kernel(0.0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            auxiliary_process_sim(hat, hat, np.ones(3), np.zeros(2), 0.0)


class TestPotentialSpec:
    def test_quadratic_tag_consistency_checked(self):
        with pytest.raises(ValueError, match="quadratic"):
            PotentialSpec(
                1, lambda x: 2.0 * np.atleast_1d(x), quadratic=QuadraticTag(np.eye(1), np.zeros(1))
            )

    def test_caller_mutation_does_not_reach_laws(self):
        rng = np.random.default_rng(7)
        p = rotated_quadratic(rng, np.linspace(0.5, 3.0, 6)).quadratic.precision.copy()
        m = rng.standard_normal(6)
        pot = PotentialSpec.quadratic_potential(p, m)
        x, init = m + 1.0, gauss.Gaussian(m + 1.0, np.zeros((6, 6)))

        def laws():
            return [
                propagate_law(pot, init, "LMC", 0.1, 30),
                propagate_law(pot, init, "ExactDiffusion", 0.1, 30),
                propagate_law(pot, init, "ExactDiffusion", 0.1, 1),
            ]

        before = laws()
        errors = estimate_local_errors(pot, "RMLMC", x, 0.1)
        grad = pot.gradient(x)
        p *= 3.0
        m += 1.0
        for a, b in zip(before, laws()):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
        assert estimate_local_errors(pot, "RMLMC", x, 0.1) == errors
        assert np.array_equal(pot.gradient(x), grad)

    def test_precision_decomposed_once(self, monkeypatch):
        pot = rotated_quadratic(np.random.default_rng(8), np.linspace(0.5, 3.0, 5))
        prec = pot.quadratic.precision
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.array_equal(a, prec))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        init = gauss.Gaussian(np.zeros(5), np.zeros((5, 5)))
        propagate_law(pot, init, "LMC", 0.1, 10)
        propagate_law(pot, init, "ExactDiffusion", 0.1, 10)
        propagate_law(pot, init, "ExactDiffusion", 0.1, 1)
        for scheme in ("LMC", "RMLMC"):
            estimate_local_errors(pot, scheme, np.ones(5), 0.1)
        simulate_chain(pot, SamplerConfig("ExactDiffusion", 0.1, 2, samples=3), np.zeros(5))
        assert calls and not any(calls)  # only Gaussian covariances were decomposed

    def test_tag_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            QuadraticTag(np.array([[np.nan]]), np.zeros(1))
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticTag(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="mode"):
            QuadraticTag(np.eye(2), np.zeros(3))

    def test_gradient_must_keep_batch_shape(self):
        # a per-point gradient handed a batch is an error, not a row loop
        gradient, calls = counting(lambda x: np.array([2.0 * np.ravel(x)[0]]))
        scalar_only = PotentialSpec(1, gradient)
        shapes = r"gradient returned shape \(1,\) for input shape \(3, 1\)"
        with pytest.raises(ValueError, match=shapes):
            lmc_step(scalar_only, np.ones((3, 1)), 0.1, np.zeros((3, 1)))
        with pytest.raises(ValueError, match=shapes):
            rmlmc_step(scalar_only, np.ones((3, 1)), 0.1, 0.5, np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match=shapes):
            simulate_chain(scalar_only, SamplerConfig("LMC", 0.1, 2, samples=3), np.zeros(1))
        assert calls == [(3, 1)] * 3
        assert lmc_step(scalar_only, 1.0, 0.1, 0.0)[0] == pytest.approx(0.8)

        def rejects_batches(x):
            if np.ndim(x) > 1:
                raise RuntimeError("model failure")
            return np.ones_like(x)

        broken = PotentialSpec(2, rejects_batches)
        with pytest.raises(RuntimeError, match="model failure"):
            lmc_step(broken, np.zeros((4, 2)), 0.1, np.zeros((4, 2)))



def ou_variance_mp(lam, t):
    """(1 - e^{-2 t lam}) / lam to 50 digits."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(lam)
        return float(-mpmath.expm1(-2 * mpmath.mpf(t) * lam) / lam)


def rmlmc_strong_mp(lam, h):
    """RMLMC strong error at the mode: the u-average of the coupled gap's
    variance 2 [int_t^h (1 - z - e^{-lam s})^2 ds + int_0^t (1 - e^{-lam s})^2 ds],
    t = (1 - u) h, by 50-digit quadrature over u of the interval integrals."""
    with mpmath.workdps(50):
        lam, h = mpmath.mpf(lam), mpmath.mpf(h)
        w = 1 - lam * h

        def var(u):
            t = (1 - u) * h
            e_t, e_h = mpmath.exp(-lam * t), mpmath.exp(-lam * h)
            late = w * w * (h - t) - 2 * w * (e_t - e_h) / lam + (e_t**2 - e_h**2) / (2 * lam)
            early = t - 2 * (1 - e_t) / lam + (1 - e_t**2) / (2 * lam)
            return 2 * (late + early)

        return float(mpmath.sqrt(mpmath.quad(var, [0, 1])))


def exp_remainder_mp(z, k):
    """e^{-z} - sum_{j<=k} (-z)^j / j! to 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        return mpmath.exp(-z) - sum((-z) ** j / mpmath.factorial(j) for j in range(k + 1))


class TestSmallStepAccuracy:
    @pytest.mark.parametrize("h", [1e-3, 1e-4, 1e-6, 1e-8])
    def test_weak_errors_against_mpmath(self, h):
        # the weak error is |e^{-z} - (1 - z)| |xi| (LMC) and |e^{-z} - (1 - z + z^2/2)| |xi|
        # (RMLMC); subtracting in floats returned 0 for RMLMC at h = 1e-6
        for lam, x in ((1.0, 1.0), (3.0, -2.0)):
            pot = PotentialSpec.quadratic_potential(lam)
            for scheme, k in (("LMC", 1), ("RMLMC", 2)):
                want = abs(float(exp_remainder_mp(lam * h, k))) * abs(x)
                got = estimate_local_errors(pot, scheme, x, h).weak
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        want = abs(float(exp_remainder_mp(h, 1)))  # n = 1: the largest moment is x0^2 = 1
        assert exact_quadratic_assumptions(1.0, h, 1, 1.0).e_weak == pytest.approx(
            want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h", [1e-3, 1e-6, 0.5, 2.0])
    def test_rmlmc_strong_off_mode_against_mpmath(self, h):
        # off the mode the u-averaged squared mean gap (e^{-z} - 1 + z - z^2/2)^2 + z^4/12
        # adds to the variance at the mode
        with mpmath.workdps(50):
            z = mpmath.mpf(h)
            mean_sq = exp_remainder_mp(h, 2) ** 2 + z**4 / 12
            want = float(mpmath.sqrt(mpmath.mpf(rmlmc_strong_mp(1.0, h)) ** 2 + mean_sq))
        got = estimate_local_errors(UNIT, "RMLMC", 1.0, h).strong
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("z", [1e-6, 1e-9])
    def test_ou_variance_against_mpmath(self, z):
        for lam in (1.0, 3.0):
            h = z / lam
            want = ou_variance_mp(lam, h)
            pot = PotentialSpec.quadratic_potential(lam)
            got = ou_kernel(pot, 0.0, h).cov[0, 0]
            assert got == pytest.approx(want, rel=2e-15, abs=0.0)
            init = gauss.Gaussian(0.0, 0.0)
            law = propagate_law(pot, init, "ExactDiffusion", h / 4, 4)
            assert law.cov[0, 0] == pytest.approx(want, rel=2e-15, abs=0.0)
            cfg = SamplerConfig("ExactDiffusion", h, 1, seed=2, samples=3)
            step = simulate_chain(pot, cfg, np.zeros(1)).iterates[:, 1, 0]
            xi = chains._stream(2, 1).standard_normal((3, 1))[:, 0]
            np.testing.assert_allclose(step, math.sqrt(want) * xi, rtol=2e-15)

    @pytest.mark.parametrize("h", [1e-7, 1e-5, 1e-3, 0.1, 0.33, 1.0 / 3.0, 0.5, 2.0, 10.0])
    def test_rmlmc_strong_against_mpmath(self, h):
        # lam = 3 puts z = lam h just below (0.99) and at the series / closed-form switch z = 1
        for lam in (1.0, 3.0):
            got = estimate_local_errors(PotentialSpec.quadratic_potential(lam), "RMLMC", 0.0, h)
            assert got.strong == pytest.approx(rmlmc_strong_mp(lam, h), rel=1e-15, abs=0.0)

    def test_rmlmc_variance_sum_continuous_at_switch(self):
        z = np.array([math.nextafter(1.0, 0.0), 1.0])
        below, above = chains._rmlmc_variance_ratio(z)
        assert above == pytest.approx(below, rel=1e-15)

    def test_lmc_coupled_variance_against_mpmath(self):
        # 1 + phi(2z) - 2 phi(z) cancels to z^2 / 3; the closed form from z = 1e-3 up
        # was off by 6.2e-10 relative at z = 1.01e-3 and 8.8e-12 at z = 5e-3
        z = np.concatenate([[1e-100, 1e-20, 1e-3, 1.01e-3, 5e-3, 0.03, 0.5,
                             math.nextafter(1.0, 0.0), 1.0, 1.28, 3.0, 316.0],
                            np.geomspace(1e-8, 300.0, 60)])
        want = []
        for v in z:
            # the bracket loses 2 log10(1/z) digits to cancellation
            with mpmath.workdps(50 + int(2 * max(0.0, -math.log10(v)))):
                v = mpmath.mpf(v)
                phi = lambda t: -mpmath.expm1(-t) / t  # noqa: E731
                want.append(float(2 * (1 + phi(2 * v) - 2 * phi(v))))
        got = chains._lmc_coupled_variance(z, 1.0)
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)
        assert chains._lmc_coupled_variance(np.zeros(1), 0.1)[0] == 0.0


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# finite but extreme: subnormal, tiny, huge, the largest float
EXTREME = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-160, 1.0, 1e160, 1e300, 1.7976931348623157e308]),
    st.floats(5e-324, 1e308),
)


class TestNonFiniteAndExtremeInput:
    @settings(max_examples=60, deadline=None)
    @given(h=st.one_of(NON_FINITE, st.sampled_from([0.0, -0.0, -5e-324]), st.floats(max_value=0.0)))
    def test_invalid_step_rejected_everywhere(self, h):
        init = gauss.Gaussian(1.0, 0.0)
        for call in (
            lambda: SamplerConfig("LMC", h, 3),
            lambda: estimate_local_errors(UNIT, "RMLMC", 1.0, h),
            lambda: propagate_law(UNIT, init, "LMC", h, 0),
            lambda: propagate_law(UNIT, init, "ExactDiffusion", h, 3),
            lambda: propagate_law(UNIT, init, "ExactDiffusion", h, 1),
        ):
            with pytest.raises(ValueError, match="h must be finite and > 0"):
                call()

    def test_invalid_step_rejected_before_monte_carlo(self):
        gradient, calls = counting(lambda x: np.asarray(x, float) ** 3)
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            estimate_local_errors(PotentialSpec(1, gradient), "LMC", 1.0, math.nan)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(h=EXTREME, scheme=st.sampled_from(["LMC", "RMLMC", "ExactDiffusion"]))
    def test_extreme_finite_step_accepted(self, h, scheme):
        assert SamplerConfig(scheme, h, 3).h == h
        law = ou_kernel(UNIT, 1.0, h)
        assert np.all(np.isfinite(law.cov)) and 0.0 < law.cov[0, 0] <= 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow to inf is documented
    @pytest.mark.parametrize("h", [1e150, 1e300, sys.float_info.max])
    def test_huge_step_errors_are_never_nan(self, h):
        # z = lam h from about 5.6e102 on made the RMLMC strong error inf - inf = nan;
        # lam = 4 overflows z itself at the largest h
        for lam, x in ((1.0, 1.0), (1.0, 0.0), (4.0, -3.0)):
            pot = PotentialSpec.quadratic_potential(lam)
            for scheme in ("LMC", "RMLMC"):
                est = estimate_local_errors(pot, scheme, x, h)
                assert not math.isnan(est.weak) and not math.isnan(est.strong)
                assert est.weak <= est.strong
                if x == 0.0:
                    assert est.weak == 0.0
            # finite while (lam h)^2 is, though the variance's (lam h)^3 is not
            strong = estimate_local_errors(pot, "RMLMC", x, h).strong
            assert math.isfinite(strong) == (h == 1e150)



def local_errors_mp(lam, xi, h):
    """(weak, strong) of LMC and RMLMC per scheme, summed over eigendirections
    (lam_i, xi_i), to 50 digits.  Per direction, with z = lam h:
    LMC mean gap e^{-z} - 1 + z, variance 2h (1 + phi(2z) - 2 phi(z));
    RMLMC mean gap e^{-z} - 1 + z - z^2/2, squared-gap spread z^4 / 12, and
    variance (2/lam) (z^3/6 + int_0^z (e^{-x} - 1 + x)^2 dx), the integral
    expanded term by term."""
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        sums = {"LMC": [0, 0], "RMLMC": [0, 0]}
        for lam_i, xi_i in zip(lam, xi):
            lam_i, xi_i = mpmath.mpf(lam_i), mpmath.mpf(xi_i)
            z = lam_i * h
            phi = lambda t: -mpmath.expm1(-t) / t  # noqa: E731
            gap = (mpmath.exp(-z) - 1 + z) * xi_i
            sums["LMC"][0] += gap**2
            sums["LMC"][1] += gap**2 + 2 * h * (1 + phi(2 * z) - 2 * phi(z))
            gap = (mpmath.exp(-z) - 1 + z - z**2 / 2) * xi_i
            integral = (-mpmath.expm1(-2 * z) / 2 + z + z**3 / 3 - z**2
                        - 2 * z * mpmath.exp(-z))
            sums["RMLMC"][0] += gap**2
            sums["RMLMC"][1] += gap**2 + (z**2 * xi_i) ** 2 / 12 + 2 * (z**3 / 6 + integral) / lam_i
        # float() of a value past the largest float is inf, as the float code gives
        return {s: tuple(float(mpmath.sqrt(v)) for v in pair) for s, pair in sums.items()}


class TestHugeStepAccuracy:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the overflow to inf is documented
    @pytest.mark.parametrize("h", [1e150, 1e300])
    def test_local_errors_against_mpmath(self, h):
        # np.linalg.norm squared before it summed, so a weak error past ~1.3e154 was inf
        cases = [([1.0], [1.0]), ([3.0], [-2.0]), ([1.0, 2.0, 3.0], [1.0, -1.0, 2.0])]
        for lam, x in cases:
            pot = PotentialSpec.quadratic_potential(np.diag(lam))
            xi = pot.quadratic._eigvecs.T @ np.array(x)
            want = local_errors_mp(pot.quadratic._eigvals, xi, h)
            for scheme in ("LMC", "RMLMC"):
                est = estimate_local_errors(pot, scheme, np.array(x), h)
                for kind, got, ref in zip(("weak", "strong"), (est.weak, est.strong),
                                          want[scheme]):
                    if math.isinf(ref):
                        assert got == math.inf
                    else:
                        # the RMLMC strong error stays finite although its z^3
                        # variance (>= 1e450 at h = 1e150) does not
                        assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
            assert math.isfinite(estimate_local_errors(pot, "LMC", np.array(x), h).strong)

    def test_unscaled_range_bit_identical(self):
        # in the range where squaring cannot overflow, the scaled norms are the plain ones
        rng = np.random.default_rng(12)
        for d in (1, 4, 30):
            pot = rotated_quadratic(rng, np.exp(rng.uniform(-2.0, 2.0, d)))
            lam, vecs, m = pot.quadratic._eigvals, pot.quadratic._eigvecs, pot.quadratic.mode
            x = m + rng.standard_normal(d)
            xi = vecs.T @ (x - m)
            for h in (1e-3, 0.05, 0.3):
                z = lam * h
                weak = float(np.linalg.norm(chains._exp_remainder(z, 1) * xi))
                var = float(np.sum(chains._lmc_coupled_variance(lam, h)))
                est = estimate_local_errors(pot, "LMC", x, h)
                assert (est.weak, est.strong) == (weak, math.sqrt(weak * weak + var))
                gap = chains._exp_remainder(z, 2) * xi
                mean_sq = float(np.sum(gap**2 + (z**2 * xi) ** 2 / 12.0))
                var = float(np.sum(2.0 * h * chains._rmlmc_variance_ratio(z)))
                est = estimate_local_errors(pot, "RMLMC", x, h)
                assert (est.weak, est.strong) == (float(np.linalg.norm(gap)),
                                                  math.sqrt(mean_sq + var))


def within(a, b, rel=1e-12):
    return a == b or abs(a - b) <= rel * (1.0 + abs(b))


class TestEigenbasisLaws:
    def test_dirac_start_runs_no_eigh(self, monkeypatch):
        pot = rotated_quadratic(np.random.default_rng(13), np.linspace(0.5, 3.0, 6))
        dirac = gauss.Gaussian(np.ones(6), np.zeros((6, 6)))
        spread = gauss.Gaussian(np.ones(6), np.eye(6))
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        laws = [propagate_law(pot, dirac, "LMC", 0.1, 30),
                propagate_law(pot, dirac, "ExactDiffusion", 0.1, 30),
                propagate_law(pot, dirac, "ExactDiffusion", 0.1, 1)]
        # a start with covariance is rejected before any decomposition
        with pytest.raises(ValueError, match="Dirac start"):
            propagate_law(pot, spread, "LMC", 0.1, 30)
        assert calls == []
        for law in laws:
            assert np.all(np.diff(law._eigvals) >= 0.0)

    def test_divergences_match_dense_construction(self):
        # >= 200 random rotated quadratic targets; each law built in the eigenbasis
        # against the same mean and covariance decomposed by the constructor
        rng = np.random.default_rng(2024)
        renyi = lambda a, b: gauss.renyi_gaussian(1.5, a, b)  # noqa: E731
        for d in [1, 2, 5, 40, 160] * 40:
            lam = np.exp(rng.uniform(math.log(0.05), math.log(4.0), d))
            pot = rotated_quadratic(rng, lam)
            p, m = pot.quadratic.precision, pot.quadratic.mode
            target = gauss.Gaussian(m, np.linalg.inv(p))
            h = rng.uniform(0.01, 0.2)
            n = int(np.exp(rng.uniform(0.0, math.log(2000.0))))
            x = m + 2.0 * rng.standard_normal(d)
            dirac = gauss.Gaussian(x, np.zeros((d, d)))
            laws = [propagate_law(pot, dirac, s, h, n) for s in ("LMC", "ExactDiffusion")]
            laws.append(propagate_law(pot, dirac, "ExactDiffusion", h, 1))
            for law in laws:
                dense = gauss.Gaussian(law.mean, law.cov)
                for f in (gauss.kl_gaussian, renyi):
                    assert within(f(law, target), f(dense, target)), (d, h, n)
                    assert within(f(target, law), f(target, dense)), (d, h, n)
                assert within(gauss.w2_gaussian(law, target), gauss.w2_gaussian(dense, target))
                # with the law second W2 reads its square root.  W2 itself does not meet
                # the 1e-12 relative agreement there: W2^2 is a difference of traces, so
                # near W2 ~ 1e-6 roundoff sets it.  This weaker check bounds only W2^2 by
                # its roundoff scale eps * (tr S_p + tr S_q).
                root, want = law.sqrt_cov(), dense.sqrt_cov()
                assert np.max(np.abs(root - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                scale = 1.0 + np.trace(law.cov) + np.trace(target.cov)
                a, b = gauss.w2_gaussian(target, law), gauss.w2_gaussian(target, dense)
                assert abs(a * a - b * b) <= 1e-12 * scale, (d, h, n, a, b)

    def test_near_stationary_divergences_never_negative(self):
        # KL and Renyi of laws equal to the target up to roundoff came out as -6e-14
        rng = np.random.default_rng(16)
        for _ in range(10):
            pot = rotated_quadratic(rng, rng.uniform(0.5, 2.0, 160))
            m = pot.quadratic.mode
            target = gauss.Gaussian(m, np.linalg.inv(pot.quadratic.precision))
            for _ in range(6):
                dirac = gauss.Gaussian(m + rng.standard_normal(160), np.zeros((160, 160)))
                law = propagate_law(pot, dirac, "ExactDiffusion", 0.1, 2000)
                for p in (law, gauss.Gaussian(law.mean, law.cov)):
                    assert gauss.kl_gaussian(p, target) >= 0.0
                    assert gauss.kl_gaussian(target, p) >= 0.0
                    assert gauss.renyi_gaussian(1.5, p, target) >= 0.0
                    assert gauss.renyi_gaussian(1.5, target, p) >= 0.0
