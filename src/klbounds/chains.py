"""Sampler kernels, exact transition laws, and local-error estimation.

Implements the Euler-Maruyama (LMC) and randomized-midpoint (RM-LMC)
discretizations of the Langevin diffusion dY = -grad V(Y) dt + sqrt(2) dB,
exact Ornstein-Uhlenbeck transitions and law propagation for quadratic
potentials, weak/strong local-error estimators under synchronous coupling,
and a Monte Carlo simulator of the shifted auxiliary process.

For quadratic potentials all local errors are computed exactly (the coupled
pair is jointly Gaussian), which removes Monte Carlo noise from the
verification suites; general potentials fall back to coupled Monte Carlo
with a fine inner Euler grid for the diffusion endpoint.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gauss import Gaussian

__all__ = [
    "QuadraticTag",
    "PotentialSpec",
    "SamplerConfig",
    "lmc_step",
    "rmlmc_step",
    "rmlmc_increments",
    "propagate_law",
    "LocalErrorEstimate",
    "estimate_local_errors",
    "ChainResult",
    "simulate_chain",
    "dump_samples_csv",
    "AuxTrace",
    "auxiliary_process_sim",
    "gaussian_drift_kernel",
    "toy_kernel_pair",
]

SCHEMES = ("LMC", "RMLMC", "ExactDiffusion")


@dataclass(frozen=True)
class QuadraticTag:
    """Quadratic potential V(x) = (x-mode)^T precision (x-mode) / 2.

    Holds read-only copies of precision and mode, so their eigendecomposition,
    computed once here, cannot go stale when the caller mutates its arrays.
    """

    precision: np.ndarray
    mode: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.array(self.precision, dtype=float)
        m = np.atleast_1d(np.array(self.mode, dtype=float))
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(m))):
            raise ValueError("precision and mode must be finite")
        square = p.ndim == 2 and p.shape[0] == p.shape[1]
        if not square or not np.allclose(p, p.T, rtol=1e-12, atol=1e-15):
            raise ValueError("precision must be a symmetric square matrix")
        if m.shape != p.shape[:1]:
            raise ValueError("mode must match the precision dimension")
        lam, vecs = np.linalg.eigh(p)
        for name, arr in (("precision", p), ("mode", m), ("_eigvals", lam), ("_eigvecs", vecs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PotentialSpec:
    """Target potential: a gradient oracle on R^dimension.

    ``gradient`` takes one state (d,) or a batch (m, d) and returns an array
    of the same shape; the steps call it once per batch.  The quadratic
    tag, when present, certifies gradient(x) = precision @ (x - mode) and
    unlocks exact laws.
    """

    dimension: int
    gradient: Callable[[np.ndarray], np.ndarray]
    quadratic: Optional[QuadraticTag] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.quadratic is not None:
            probe = np.linspace(1.0, 2.0, self.dimension)
            want = self.quadratic.precision @ (probe - self.quadratic.mode)
            got = np.asarray(self.gradient(probe), dtype=float)
            if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
                raise ValueError("gradient does not match the quadratic tag")

    @classmethod
    def quadratic_potential(cls, precision, mode=None) -> "PotentialSpec":
        """Potential for V(x) = (x-m)^T P (x-m) / 2 with exact-law support."""
        p = np.asarray(precision, dtype=float)
        if p.ndim == 0:
            p = p.reshape(1, 1)
        tag = QuadraticTag(p, np.zeros(p.shape[0]) if mode is None else mode)
        p, m = tag.precision, tag.mode
        return cls(
            dimension=m.size,
            gradient=lambda x, _p=p, _m=m: (np.asarray(x, dtype=float) - _m) @ _p,
            quadratic=tag,
        )


def _check_step(h: float) -> None:
    """A step size must be finite and > 0."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h!r}")


@dataclass(frozen=True)
class SamplerConfig:
    scheme: str
    h: float
    n_steps: int
    seed: int = 0
    samples: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        _check_step(self.h)
        if self.n_steps < 0 or self.samples < 1:
            raise ValueError("n_steps must be >= 0 and samples >= 1")


def _stream(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair.

    Streams with different keys are independent Philox streams, so any step
    block can be regenerated in isolation and results do not depend on
    scheduling.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# One-step kernels
# ---------------------------------------------------------------------------


class _NonFiniteGradient(ValueError):
    """A gradient evaluation returned inf or nan."""


def _grad(pot: PotentialSpec, x: np.ndarray) -> np.ndarray:
    """grad V at a state (d,) or a batch (m, d), in one call.

    Rejects a result whose shape is not x's, and inf and nan.
    """
    g = np.asarray(pot.gradient(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(f"gradient returned shape {g.shape} for input shape {x.shape}")
    if not np.all(np.isfinite(g)):
        raise _NonFiniteGradient("non-finite gradient")
    return g


def _fraction(u, x: np.ndarray) -> np.ndarray:
    """Midpoint fraction u (a scalar, or (m,) for a batch x (m, d)) as a column."""
    u = np.asarray(u, dtype=float)
    if u.ndim and u.shape != x.shape[:-1]:
        raise ValueError("u must be a scalar or hold one entry per batch row")
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("u must lie in [0, 1]")
    return u[..., None]


def lmc_step(pot: PotentialSpec, x, h: float, noise) -> np.ndarray:
    """One Euler-Maruyama step x - h grad V(x) + sqrt(2 h) * noise.

    x is one state (d,) or a batch (m, d) with noise of the same shape.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    noise = np.atleast_1d(np.asarray(noise, dtype=float))
    if noise.shape != x.shape:
        raise ValueError("noise must match the state shape")
    return x - h * _grad(pot, x) + math.sqrt(2.0 * h) * noise


def rmlmc_increments(u, h: float, xi1, xi2):
    """Correlated Brownian increments (B_{uh}, B_h) with Cov [[uh, uh], [uh, h]].

    B_{uh} = sqrt(u h) xi1 and B_h = B_{uh} + sqrt((1-u) h) xi2 for
    independent standard normal xi1, xi2; u is a scalar, or (m,) for
    batches (m, d).
    """
    xi1 = np.atleast_1d(np.asarray(xi1, dtype=float))
    xi2 = np.atleast_1d(np.asarray(xi2, dtype=float))
    u = _fraction(u, xi1)
    b_uh = np.sqrt(u * h) * xi1
    return b_uh, b_uh + np.sqrt((1.0 - u) * h) * xi2


def rmlmc_step(pot: PotentialSpec, x, h: float, u, b_uh, b_h) -> np.ndarray:
    """One randomized-midpoint step.

    A preliminary LMC step of length u*h supplies the gradient evaluation
    point: x+ = x - u h grad V(x) + sqrt(2) B_{uh}, and the returned iterate
    is x - h grad V(x+) + sqrt(2) B_h.  x is one state (d,) with a scalar u,
    or a batch (m, d) with u a scalar or (m,).  The increments must carry
    the correlation structure of rmlmc_increments.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b_uh = np.atleast_1d(np.asarray(b_uh, dtype=float))
    b_h = np.atleast_1d(np.asarray(b_h, dtype=float))
    if b_uh.shape != x.shape or b_h.shape != x.shape:
        raise ValueError("increments must match the state shape")
    x_mid = x - (_fraction(u, x) * h) * _grad(pot, x) + math.sqrt(2.0) * b_uh
    return x - h * _grad(pot, x_mid) + math.sqrt(2.0) * b_h


# ---------------------------------------------------------------------------
# Exact laws for quadratic potentials
# ---------------------------------------------------------------------------


def _quadratic_eig(pot: PotentialSpec):
    tag = pot.quadratic
    if tag is None:
        raise ValueError("operation requires a quadratic potential tag")
    return tag._eigvals, tag._eigvecs, tag.mode


def _ou(lam: np.ndarray, t: float):
    """OU decay e^{-t lam} and variance (1 - e^{-2 t lam}) / lam over time t.

    lam holds the precision's eigenvalues in ascending order.
    """
    if lam[0] <= 0.0:
        raise ValueError("exact diffusion requires positive-definite precision")
    return np.exp(-t * lam), -np.expm1(-2.0 * t * lam) / lam


def _lmc_geometric_sum(z, n: int):
    """g_n = sum_{j<n} r^j with r = (1 - z)^2 (z = h lam), in closed form.

    g_n = expm1(n log r) / expm1(log r), with log r = 2 log1p(-z) below z = 1
    so it stays accurate as r -> 1; the limits g_n = n at r = 1 (z = 0 or 2)
    and g_n = 1 at r = 0 (z = 1, n >= 1) are explicit.  r > 1 may overflow.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_r = 2.0 * np.where(z < 1.0, np.log1p(-z), np.log(z - 1.0))
        g = np.expm1(n * log_r) / np.expm1(log_r)
    return np.where(log_r == 0.0, float(n), np.where(z == 1.0, float(n > 0), g))


def propagate_law(pot: PotentialSpec, init: Gaussian, scheme: str, h: float, n: int) -> Gaussian:
    """Exact Gaussian law of iterate n from a Dirac start, for quadratic targets.

    In the precision's eigenbasis (eigenvalues lam; start mu there) the law
    is N(m + D^n mu, diag(q_n)), built in that basis with no ``eigh``:

    - LMC, the recursion x' = m + (I - h P)(x - m) + sqrt(2h) xi applied as
      stated regardless of stability: D = 1 - h lam, q_n = 2h sum_{j<n} D^{2j}.
      A law that overflows (|1 - h lam| > 1) raises ValueError.
    - ExactDiffusion, composed OU transitions: D = e^{-h lam},
      q_n = (1 - D^{2n}) / lam = -expm1(-2 n h lam) / lam.

    A start with non-zero covariance raises ValueError.
    """
    _check_step(h)
    lam, vecs, m = _quadratic_eig(pot)
    if n < 0:
        raise ValueError("n must be >= 0")
    if np.any(init.cov):
        raise ValueError("propagate_law needs a Dirac start (zero covariance)")
    if n == 0:
        return init
    mu = vecs.T @ (init.mean - m)
    with np.errstate(over="ignore", invalid="ignore"):
        if scheme == "LMC":
            decay = (1.0 - h * lam) ** n
            noise = 2.0 * h * _lmc_geometric_sum(h * lam, n)
        elif scheme == "ExactDiffusion":
            decay, noise = _ou(lam, n * h)
        else:
            raise ValueError("scheme must be LMC or ExactDiffusion")
        mean = m + vecs @ (decay * mu)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(noise))):
        raise ValueError(f"{scheme} law diverged: |1 - h lam| > 1 overflows by step {n}")
    return Gaussian._from_eig(mean, noise, vecs)


# ---------------------------------------------------------------------------
# Local errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalErrorEstimate:
    weak: float
    strong: float
    weak_stderr: float
    strong_stderr: float
    exact: bool
    underpowered: bool


# Taylor coefficients of the bracket of _lmc_coupled_variance below z = 1:
# (-1)^j (2^j - 2) / (j+1)! at z^j for j = 2..25 (the j = 0, 1 terms vanish).
_LMC_SERIES = np.zeros(26)
_LMC_SERIES[2:] = [(-1) ** j * (2**j - 2) / math.factorial(j + 1) for j in range(2, 26)]


def _lmc_coupled_variance(lam: np.ndarray, h: float) -> np.ndarray:
    """Per-eigendirection variance of X_hat - X under the shared-path coupling.

    Equals 2h (1 + phi(2z) - 2 phi(z)) with z = lam h and phi(z) =
    (1 - e^{-z}) / z.  From z = 1 up the closed form; below, where its O(1)
    terms cancel to O(z^2), the Taylor series, whose relative truncation
    error there is below 1e-19.
    """
    z = lam * h
    bracket = np.empty_like(z)
    small = z < 1.0
    bracket[small] = np.polynomial.polynomial.polyval(z[small], _LMC_SERIES)
    zl = z[~small]
    bracket[~small] = 1.0 - np.expm1(-2.0 * zl) / (2.0 * zl) + 2.0 * np.expm1(-zl) / zl
    return 2.0 * h * bracket


# Taylor coefficients of _rmlmc_variance_ratio below z = 1: 1/6 at z^2 and
# (-1)^(m+1) (2^(m-1) - 2m) / m! at z^(m-1) for m = 5..25 (the rest vanish).
_RMLMC_SERIES = np.zeros(25)
_RMLMC_SERIES[2] = 1.0 / 6.0
_RMLMC_SERIES[4:] = [(-1) ** (m + 1) * (2 ** (m - 1) - 2 * m) / math.factorial(m)
                     for m in range(5, 26)]


def _rmlmc_variance_ratio(z: np.ndarray) -> np.ndarray:
    """S(z) / z for z >= 0, where S(z) = z^3/6 + int_0^z (e^{-x} - 1 + x)^2 dx.

    From z = 1 up the closed form z^2/2 - z + 1 - 2 e^{-z} - expm1(-2z)/(2z),
    which never forms z^3; below, where its O(1) terms cancel to O(z^2), the
    Taylor series, whose truncation error there is below 1e-19.
    """
    out = np.empty_like(z)
    small = z < 1.0
    out[small] = np.polynomial.polynomial.polyval(z[small], _RMLMC_SERIES)
    zl = z[~small]
    # Horner keeps an overflow at inf, never inf - inf
    out[~small] = ((zl / 2.0 - 1.0) * zl + 1.0 - 2.0 * np.exp(-zl)
                   - np.expm1(-2.0 * zl) / (2.0 * zl))
    return out


def _exp_remainder(z: np.ndarray, k: int) -> np.ndarray:
    """e^{-z} - sum_{j<=k} (-z)^j / j! for z >= 0.

    Below z = 1, where the subtraction cancels to O(z^{k+1}), the Taylor
    series sum_{j>k} (-z)^j / j! up to j = k + 20 (truncation error below
    1e-18 relative); from z = 1 up the subtraction, which there loses less
    than 1e-15 relative.
    """
    coefs = [(-1.0) ** j / math.factorial(j) for j in range(k + 21)]
    out = np.empty_like(z)
    small = z < 1.0
    out[small] = np.polynomial.polynomial.polyval(z[small], [0.0] * (k + 1) + coefs[k + 1 :])
    zl = z[~small]
    out[~small] = np.exp(-zl) - np.polynomial.polynomial.polyval(zl, coefs[: k + 1])
    return out


def _pow2_scale(top: float) -> float:
    """The power of two in (top / 2, top] for top > 0 (0.5 at 0 and inf).

    Dividing by it is exact in the normal range and leaves every |value| <=
    top below 2, so a sum of squares scaled by it cannot overflow, and where
    the unscaled sum does not overflow the result is the same to the bit.
    """
    return math.ldexp(1.0, math.frexp(top)[1] - 1)


def _max_abs(g: np.ndarray) -> float:
    return float(np.max(np.abs(g), initial=0.0))


def _norm(g: np.ndarray) -> float:
    """Euclidean norm of g, finite wherever the norm is."""
    s = _pow2_scale(_max_abs(g))
    return s * float(np.linalg.norm(g / s))


def _exact_local_errors(pot: PotentialSpec, scheme: str, x: np.ndarray, h: float):
    """Exact weak/strong one-step errors for quadratic targets.

    The coupled pair (X_hat_h, X_h) shares one Brownian path, so per live
    eigendirection (lam, z = lam h, start coordinate xi about the mode) the
    gap is Gaussian; strong^2 sums its squared mean and variance.
    - LMC: mean (e^{-z} - (1 - z)) xi, variance 2h (1 + phi(2z) - 2 phi(z)).
    - RMLMC, given the midpoint fraction u: mean (1 - z - e^{-z} + u z^2) xi
      (u-average: the weak error), variance 2 [int_t^h (1 - z - e^{-lam s})^2 ds
      + int_0^t (1 - e^{-lam s})^2 ds] with t = (1 - u) h.  Its u-average is
      (2/lam) S(z) = 2h S(z)/z with S(z) = z^3/6 + int_0^z (e^{-x} - 1 + x)^2 dx,
      accurate at every z.
    """
    # a huge h overflows lam h, its powers and the variance terms to inf: inf is
    # the documented result there, so the overflow is not a warning
    with np.errstate(over="ignore"):
        lam, vecs, m = _quadratic_eig(pot)
        xi = vecs.T @ (x - m)
        live = lam > 1e-12
        lam = lam[live]
        # an overflowed lam h stands for a finite z: the largest float keeps the
        # errors at inf where inf would give inf * 0 = nan
        z = np.minimum(lam * h, sys.float_info.max)
        # a direction with no start offset has no mean gap, whatever its z
        moved = xi[live] != 0.0
        xi = xi[live][moved]
        if scheme == "LMC":
            weak = _norm(_exp_remainder(z[moved], 1) * xi)
            var = float(np.sum(_lmc_coupled_variance(lam, h)))
            s = _pow2_scale(max(weak, math.sqrt(var)))
            return weak, s * math.sqrt((weak / s) * (weak / s) + var / s / s)
        # the u-average of (1 - z - e^{-z} + u z^2)^2 is (e^{-z} - 1 + z - z^2/2)^2 + z^4/12
        gap = _exp_remainder(z[moved], 2) * xi
        tilt = z[moved] ** 2 * xi
        # each variance term 2h S(z)/z is scaled by s^2 before the sum: S(z) ~ z^3/2
        # overflows from z ~ 1e103 on, long before the strong error does
        ratio = _rmlmc_variance_ratio(z)
        s = _pow2_scale(max(_max_abs(gap), _max_abs(tilt),
                            math.sqrt(h) * _norm(np.sqrt(2.0 * ratio))))
        mean_sq = float(np.sum((gap / s) ** 2 + (tilt / s) ** 2 / 12.0))
        var = float(np.sum(2.0 * (h / s) * ratio / s))
        return _norm(gap), s * math.sqrt(mean_sq + var)


def _mc_local_errors(pot, scheme, x, h, samples, seed, inner_steps):
    """Coupled Monte Carlo local errors with an inner Euler diffusion grid.

    The diffusion endpoint runs inner_steps LMC steps of length h /
    inner_steps; the scheme's step X_hat (LMC or RMLMC) reads the same
    Brownian path.
    """
    if inner_steps < 64:
        raise ValueError("inner_steps must be >= 64 for the diffusion endpoint")
    d = pot.dimension
    gen = _stream(seed, 0)
    dt = h / inner_steps
    xi = gen.standard_normal((inner_steps, samples, d))
    x0 = np.broadcast_to(x, (samples, d))
    xs = x0
    for k in range(inner_steps):
        xs = lmc_step(pot, xs, dt, xi[k])
    # the shared path on the inner grid, b_grid[k] = B_{k dt}, from the
    # increments sqrt(dt) xi scaled in place
    xi *= math.sqrt(dt)
    b_grid = np.zeros((inner_steps + 1, samples, d))
    np.cumsum(xi, axis=0, out=b_grid[1:])
    b_h = b_grid[-1]
    if scheme == "LMC":
        x_hat = lmc_step(pot, x0, h, b_h / math.sqrt(h))
    else:
        u = gen.random(samples)
        zeta = gen.standard_normal((samples, d))
        t = u * h
        idx = np.minimum((t / dt).astype(int), inner_steps - 1)
        t0 = idx * dt
        frac = (t - t0) / dt
        lo = b_grid[idx, np.arange(samples)]
        hi = b_grid[idx + 1, np.arange(samples)]
        # Brownian bridge between surrounding grid points (exact joint law)
        bridge_var = (dt - (t - t0)) * (t - t0) / dt
        b_uh = lo + frac[:, None] * (hi - lo) + np.sqrt(bridge_var)[:, None] * zeta
        x_hat = rmlmc_step(pot, x0, h, u, b_uh, b_h)
    diff = x_hat - xs
    mean_diff = diff.mean(axis=0)
    weak = float(np.linalg.norm(mean_diff))
    weak_stderr = float(math.sqrt(np.sum(diff.var(axis=0, ddof=1)) / samples))
    sq = np.sum(diff**2, axis=1)
    strong_sq = float(sq.mean())
    strong = math.sqrt(strong_sq)
    sq_stderr = float(sq.std(ddof=1) / math.sqrt(samples))
    strong_stderr = sq_stderr / (2.0 * strong) if strong > 0 else sq_stderr
    return weak, strong, weak_stderr, strong_stderr


def estimate_local_errors(
    pot: PotentialSpec,
    scheme: str,
    x,
    h: float,
    samples: int = 200_000,
    seed: int = 0,
    inner_steps: int = 64,
) -> LocalErrorEstimate:
    """Weak and strong one-step errors of the scheme against the diffusion.

    Weak error is the norm of the mean gap, strong error the L2 distance of
    the synchronously coupled pair.  Quadratic targets are handled exactly
    (zero standard errors); other potentials use coupled Monte Carlo, and
    the estimate is flagged underpowered when 3 standard errors exceed it.
    """
    if scheme not in ("LMC", "RMLMC"):
        raise ValueError("scheme must be LMC or RMLMC")
    _check_step(h)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if pot.quadratic is not None:
        weak, strong = _exact_local_errors(pot, scheme, x, h)
        return LocalErrorEstimate(weak, strong, 0.0, 0.0, True, False)
    weak, strong, w_se, s_se = _mc_local_errors(pot, scheme, x, h, samples, seed, inner_steps)
    under = weak < 3.0 * w_se or strong < 3.0 * s_se
    return LocalErrorEstimate(weak, strong, w_se, s_se, False, under)


# ---------------------------------------------------------------------------
# Chain simulation
# ---------------------------------------------------------------------------


@dataclass
class ChainResult:
    iterates: np.ndarray  # (samples, n_steps + 1, d)

    @property
    def final(self) -> np.ndarray:
        return self.iterates[:, -1, :]

    def empirical_mean(self) -> np.ndarray:
        return self.final.mean(axis=0)

    def empirical_cov(self) -> np.ndarray:
        return np.atleast_2d(np.cov(self.final, rowvar=False, ddof=1))


def _draw_init(init, samples: int, d: int, gen: np.random.Generator) -> np.ndarray:
    if isinstance(init, Gaussian):
        xi = gen.standard_normal((samples, d))
        return init.mean + xi @ init.sqrt_cov().T
    x0 = np.atleast_1d(np.asarray(init, dtype=float))
    if x0.shape != (d,):
        raise ValueError("Dirac initialization must have the potential's dimension")
    return np.tile(x0, (samples, 1))


def simulate_chain(pot: PotentialSpec, config: SamplerConfig, init) -> ChainResult:
    """Run `samples` independent replicas for n_steps; deterministic in the seed.

    `init` may be a Gaussian (sampled) or a state vector (Dirac start).
    Noise for step k comes from an independent Philox stream keyed
    (seed, k+1), so any prefix of the chain is reproducible bit-for-bit.
    """
    d, h, samples = pot.dimension, config.h, config.samples
    if config.scheme == "ExactDiffusion":
        lam, vecs, m = _quadratic_eig(pot)
        decay, var = _ou(lam, h)
        trans = (vecs * decay) @ vecs.T
        noise_sd = (vecs * np.sqrt(var)) @ vecs.T
    out = np.empty((samples, config.n_steps + 1, d))
    x = _draw_init(init, samples, d, _stream(config.seed, 0))
    out[:, 0, :] = x
    # an overflow or a non-finite gradient in an unstable chain is reported
    # as divergence at that step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.n_steps):
            gen = _stream(config.seed, k + 1)
            try:
                if config.scheme == "LMC":
                    x = lmc_step(pot, x, h, gen.standard_normal((samples, d)))
                elif config.scheme == "RMLMC":
                    u = gen.random(samples)
                    b_uh, b_h = rmlmc_increments(
                        u, h, gen.standard_normal((samples, d)), gen.standard_normal((samples, d))
                    )
                    x = rmlmc_step(pot, x, h, u, b_uh, b_h)
                else:
                    x = m + (x - m) @ trans.T + gen.standard_normal((samples, d)) @ noise_sd.T
                diverged = not np.all(np.isfinite(x))
            except _NonFiniteGradient:
                diverged = True
            if diverged:
                raise ValueError(f"chain diverged at step {k + 1}")
            out[:, k + 1, :] = x
    return ChainResult(iterates=out)


def dump_samples_csv(path, result: ChainResult) -> None:
    """Write iterates as CSV rows `replica, step, coord_0..coord_{d-1}`."""
    samples, _, d = result.iterates.shape
    row = "%d,%d," + ",".join(["%.17g"] * d) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replica,step," + ",".join(f"coord_{j}" for j in range(d)) + "\n")
        for r in range(samples):
            steps = result.iterates[r].tolist()
            fh.write("".join(row % (r, s, *coords) for s, coords in enumerate(steps)))


# ---------------------------------------------------------------------------
# Auxiliary-process simulation (1D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxTrace:
    distances: np.ndarray
    stderrs: np.ndarray


def gaussian_drift_kernel(drift: float, variance: float):
    """1D kernel x -> x + N(drift, variance)."""
    sd = math.sqrt(variance)

    def kernel(x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return x + drift + sd * gen.standard_normal(x.shape)

    return kernel


def toy_kernel_pair(w: float, sigma: float):
    """(Phat, P) for the toy pair: P adds N(0,1), Phat adds N(w, 1+sigma^2)."""
    return gaussian_drift_kernel(w, 1.0 + sigma * sigma), gaussian_drift_kernel(0.0, 1.0)


def auxiliary_process_sim(
    hat_kernel,
    ref_kernel,
    schedule,
    x0: float,
    y0: float,
    replicas: int = 100_000,
    seed: int = 0,
    groups: int = 20,
) -> AuxTrace:
    """Simulate the shifted auxiliary process against the approximating chain.

    Xhat evolves by hat_kernel; the auxiliary cloud Y' is shifted toward
    Xhat along the rank (quantile) coupling -- the exact optimal W2 coupling
    in 1D -- by eta_n before each transition, which uses ref_kernel except
    at the final step where hat_kernel takes over so the processes merge in
    law.

    The rank coupling entangles every replica within one simulation, so
    error bars come from `groups` fully independent sub-simulations of
    replicas/groups samples each: the reported trace is the group mean and
    the stderr its spread over groups.  Each squared group estimate is
    partially debiased by (var_x + var_y)/n_group, the leading finite-cloud
    inflation contributed by the cloud-mean fluctuation.
    """
    if np.ndim(x0) != 0 or np.ndim(y0) != 0:
        raise ValueError("unsupported dimension: auxiliary simulation is 1D only")
    eta = schedule.eta if hasattr(schedule, "eta") else np.asarray(schedule, dtype=float)
    n = eta.size
    per_group = max(replicas // groups, 2)
    x = np.full((groups, per_group), float(x0))
    y = np.full((groups, per_group), float(y0))
    distances = np.empty(n + 1)
    stderrs = np.empty(n + 1)

    def record(idx: int):
        sq = np.mean((np.sort(x, axis=1) - np.sort(y, axis=1)) ** 2, axis=1)
        mean_noise = (x.var(axis=1, ddof=1) + y.var(axis=1, ddof=1)) / per_group
        vals = np.sqrt(np.clip(sq - mean_noise, 0.0, None))
        distances[idx] = float(vals.mean())
        stderrs[idx] = float(vals.std(ddof=1) / math.sqrt(groups))

    record(0)
    for k in range(n):
        gen = _stream(seed, k + 1)
        xs = np.sort(x, axis=1)
        ys = np.sort(y, axis=1)
        tilde = ys + eta[k] * (xs - ys)
        x = hat_kernel(xs, gen)
        step_kernel = ref_kernel if k < n - 1 else hat_kernel
        y = step_kernel(tilde, gen)
        record(k + 1)
    return AuxTrace(distances=distances, stderrs=stderrs)
