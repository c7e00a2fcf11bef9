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

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _checks
from .gauss import Gaussian, _check_toy

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
        _checks.count("dimension", self.dimension)
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
        _checks.positive(h=self.h)
        _checks.count("n_steps", self.n_steps, least=0)
        _checks.count("samples", self.samples)


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
    _checks.positive(h=h)
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
    _checks.positive(h=h)
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
    _checks.positive(h=h)
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
    _checks.positive(h=h)
    _checks.count("n", n, least=0)
    lam, vecs, m = _quadratic_eig(pot)
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


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    """sum_j coefs[j] x^j by Horner's rule, in place on one accumulator.

    Each step is acc * x + c, the operations of numpy's ``polyval``, so for
    finite x the result is the same to the bit, without its per-call setup.
    """
    acc = np.full_like(x, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _below_one(z: np.ndarray, series, closed) -> np.ndarray:
    """The Taylor polynomial with coefficients ``series`` below z = 1 and
    ``closed(z)`` from z = 1 up, where the closed form no longer cancels."""
    small = z < 1.0
    if small.all():
        return _horner(z, series)
    out = np.empty_like(z)
    out[small] = _horner(z[small], series)
    out[~small] = closed(z[~small])
    return out


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
    bracket = _below_one(lam * h, _LMC_SERIES,
                         lambda z: 1.0 - np.expm1(-2.0 * z) / (2.0 * z) + 2.0 * np.expm1(-z) / z)
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
    # Horner keeps an overflow at inf, never inf - inf
    return _below_one(z, _RMLMC_SERIES, lambda z: (z / 2.0 - 1.0) * z + 1.0 - 2.0 * np.exp(-z)
                      - np.expm1(-2.0 * z) / (2.0 * z))


# Taylor coefficients (-1)^j / j! of e^{-z} for j = 0..22, for _exp_remainder
_EXP_COEFS = [(-1.0) ** j / math.factorial(j) for j in range(23)]


def _exp_remainder(z: np.ndarray, k: int) -> np.ndarray:
    """e^{-z} - sum_{j<=k} (-z)^j / j! for z >= 0 and k = 1 or 2.

    Below z = 1, where the subtraction cancels to O(z^{k+1}), the Taylor
    series sum_{j>k} (-z)^j / j! up to j = k + 20 (truncation error below
    1e-18 relative); from z = 1 up the subtraction, which there loses less
    than 1e-15 relative.
    """
    # the top term, j = k + 20, still moves the last bit for some z in [0.74, 1)
    return _below_one(z, [0.0] * (k + 1) + _EXP_COEFS[k + 1:k + 21],
                      lambda z: np.exp(-z) - _horner(z, _EXP_COEFS[:k + 1]))


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
    Brownian path, which is accumulated step by step: memory is O(samples d).
    """
    _checks.count("inner_steps", inner_steps, least=64)
    _checks.count("samples", samples, least=2)  # the standard errors need two
    d = pot.dimension
    gen = _stream(seed, 0)
    dt = h / inner_steps
    x0 = np.broadcast_to(x, (samples, d))
    if scheme == "RMLMC":
        # u and the bridge noise come first, so B_{uh} is bridged (exact joint
        # law) between the grid points around t = u h as the path passes them
        u = gen.random(samples)
        zeta = gen.standard_normal((samples, d))
        t = u * h
        idx = np.minimum((t / dt).astype(int), inner_steps - 1)
        t0 = idx * dt
        frac = ((t - t0) / dt)[:, None]
        bridge_sd = np.sqrt((dt - (t - t0)) * (t - t0) / dt)[:, None]
        b_uh = np.empty((samples, d))
    xs = x0
    b = np.zeros((samples, d))  # the shared path B_{k dt}
    for k in range(inner_steps):
        xi = gen.standard_normal((samples, d))
        xs = lmc_step(pot, xs, dt, xi)
        lo, b = b, b + xi * math.sqrt(dt)
        if scheme == "RMLMC":
            cell = idx == k
            b_uh[cell] = lo[cell] + frac[cell] * (b[cell] - lo[cell]) + bridge_sd[cell] * zeta[cell]
    if scheme == "LMC":
        x_hat = lmc_step(pot, x0, h, b / math.sqrt(h))
    else:
        x_hat = rmlmc_step(pot, x0, h, u, b_uh, b)
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
    (zero standard errors); other potentials use coupled Monte Carlo over
    samples >= 2 paths, and the estimate is flagged underpowered when 3
    standard errors exceed it.
    """
    if scheme not in ("LMC", "RMLMC"):
        raise ValueError("scheme must be LMC or RMLMC")
    _checks.positive(h=h)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _checks.finite(x=x)
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


def simulate_chain(pot: PotentialSpec, config: SamplerConfig, init) -> ChainResult:
    """Run `samples` independent replicas for n_steps; deterministic in the seed.

    Every replica starts at the point `init`, a state vector (a scalar in 1D).
    Noise for step k comes from an independent Philox stream keyed
    (seed, k+1), so any prefix of the chain is reproducible bit-for-bit.
    """
    d, h, samples = pot.dimension, config.h, config.samples
    if config.scheme == "ExactDiffusion":
        lam, vecs, m = _quadratic_eig(pot)
        decay, var = _ou(lam, h)
        trans = (vecs * decay) @ vecs.T
        noise_sd = (vecs * np.sqrt(var)) @ vecs.T
    try:
        x0 = np.atleast_1d(np.asarray(init, dtype=float))
    except (TypeError, ValueError):
        raise ValueError(f"init must be a start point, not {type(init).__name__}") from None
    if x0.shape != (d,):
        raise ValueError("Dirac initialization must have the potential's dimension")
    _checks.finite(x0=x0)
    out = np.empty((samples, config.n_steps + 1, d))
    x = np.tile(x0, (samples, 1))
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


# ---------------------------------------------------------------------------
# CSV output: "%.17g" over whole arrays
# ---------------------------------------------------------------------------
#
# For 1e-4 <= |v| < 1e16, where "%.17g" prints fixed-point, a numpy kernel
# finds the 17 significant digits exactly and spells each field as uint32
# words whose bytes are its characters padded with NUL; one bytes.translate
# per chunk drops the NULs.  Every other value (0, |v| < 1e-4, |v| >= 1e16,
# inf, nan) is formatted by "%.17g" itself.

_ZERO, _DOT, _COMMA, _MINUS = b"0.,-"
# 10^k for k = 0..22, exact doubles, with their Veltkamp splits; 10^k as int64 to 10^18
_SPLIT = 134217729.0  # 2^27 + 1
_P10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
_P10_HI = _SPLIT * _P10 - (_SPLIT * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
_P10_INT = 10 ** np.arange(19, dtype=np.int64)
# values rendered at a time: the kernel's temporaries stay well under 1 MB
_CHUNK = 2048


def _words(codes: np.ndarray, dtype=np.uint32) -> np.ndarray:
    """The words whose bytes are the rows of a byte-code array (0 is NUL)."""
    return np.ascontiguousarray(codes, dtype=np.uint8).view(dtype)[..., 0]


def _nul_leading(codes: np.ndarray) -> np.ndarray:
    """Byte codes with each row's leading "0"s replaced by NUL."""
    out = codes.copy()
    lead = np.ones(len(codes), bool)
    for column in out.T:
        lead &= column == _ZERO
        column[lead] = 0
    return out


def _right_align(out: np.ndarray, columns: list) -> None:
    """Write the columns (scalars or (rows,) byte codes) at the right of out."""
    for i, column in enumerate(columns, out.shape[1] - len(columns)):
        out[:, i] = column


@functools.cache
def _tables():
    """The kernel's lookup tables, built from the words "0000".."9999" on
    first use, so an import that writes no CSV does not pay for them.

    words: uint32 words of four digits, as they are at [0, 10^4), with
    trailing zeros as NUL at [10^4, 2 10^4) (0 is all NUL), with leading
    zeros as NUL at [2 10^4, 3 10^4) (0 is "0"), and all NUL at 3 10^4.

    head: the first two words of a fast field, as one uint64.  For |v| >= 1
    an entry is chosen by (size, sign, point) and u, the last three integer
    digits.  Sizes 0-2 have 1-3 integer digits, all in u, and spell
    "," [-] u [.] right-aligned in the 8 bytes.  Size 3 has more, spelled by
    integer words between the two head words, which hold "," [-] and u [.]
    apart.  The "." is left out when the fraction is all zeros.  For
    |v| < 1 an entry is chosen by (zeros, sign) and u, the first significant
    digit: "," [-] "0." then the zeros and u.  offset gives, per
    (e + 4, sign, no point), the entry that u is added to.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + _ZERO
    words = np.concatenate([_words(digits), _words(_nul_leading(digits[:, ::-1])[:, ::-1]),
                            _words(np.hstack([_nul_leading(digits[:, :3]), digits[:, 3:]])), [0]])
    codes = np.zeros((8520, 8), np.uint8)
    offset = np.zeros((20, 2, 2), np.intp)
    last3 = list(digits[:1000, 1:].T)
    row = 0
    for size, rows in enumerate((10, 100, 1000, 1000)):
        for neg in (0, 1):
            for no_point in (0, 1):
                sign = [_COMMA, _MINUS][:1 + neg]
                body = [c[:rows] for c in last3[2 - min(size, 2):]] + [_DOT] * (1 - no_point)
                block = codes[row:row + rows]
                if size < 3:
                    _right_align(block, sign + body)
                else:
                    _right_align(block[:, :4], sign)
                    _right_align(block[:, 4:], body)
                offset[4 + size if size < 3 else slice(7, None), neg, no_point] = row
                row += rows
    for zeros in range(4):
        for neg in (0, 1):
            sign = [_COMMA, _MINUS][:1 + neg]
            _right_align(codes[row:row + 10], sign + [_ZERO, _DOT] + [_ZERO] * zeros
                         + [np.arange(10) + _ZERO])
            offset[3 - zeros, neg] = row
            row += 10
    tables = words, _words(codes, np.uint64), offset.ravel()
    for table in tables:
        table.setflags(write=False)
    return tables


_SEP, _NEWLINE = _words(np.array([[_COMMA, 0, 0, 0], [ord("\n"), 0, 0, 0]]))


def _int_words(x: np.ndarray, words: int) -> np.ndarray:
    """(len(x), words) words spelling the ints 0 <= x < 10^(4 words), right-aligned.

    Word t from the right is x's digits t: NUL-led where no higher word is
    non-zero, and all NUL where x < 10^(4t) for t > 0.
    """
    table = _tables()[0]
    out = np.empty((len(x), words), np.uint32)
    for t in range(words):
        idx = x // _P10_INT[4 * t] % 10000 + 20000 * (x < _P10_INT[4 * t + 4])
        if t:
            idx[x < _P10_INT[4 * t]] = 30000
        out[:, words - 1 - t] = table[idx]
    return out


def _word_count(top: int) -> int:
    """Words that 0..top need."""
    return -(-len(str(top)) // 4)


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """(p, err) with p + err = a 10^k exactly: Dekker's product (numpy has no FMA)."""
    bh, bl = _P10_HI[k], _P10_LO[k]
    p = a * _P10[k]
    ah = a * _SPLIT
    t = ah - a
    ah -= t  # the high half of a
    al = a - ah
    err = ah * bh
    err -= p
    ah *= bl
    err += ah
    np.multiply(al, bh, out=t)
    err += t
    al *= bl
    err += al
    return p, err


def _significand(a: np.ndarray):
    """(e, n) for 1e-4 <= a < 1e16: a rounded half-even to 17 significant
    digits is n 10^(e - 16), with 10^16 <= n < 10^17."""
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _times_pow10(a, 16 - e)
    # next to a power of ten log10 may be one off: the exact product then
    # lies outside [1e16, 1e17), and e moves by one
    off = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if off.size:
        h, l = hi[off], lo[off]
        up = (h > 1e17) | ((h == 1e17) & (l >= 0))
        down = (h < 1e16) | ((h == 1e16) & (l < 0))
        e[off] += up.astype(np.intp) - down
        hi[off], lo[off] = _times_pow10(a[off], 16 - e[off])
    # hi > 2^53 is an even integer, so rint's half-even on lo is half-even on
    # hi + lo.  The sum never rounds up to 10^17: the doubles below 10^(e+1)
    # lie at least 2^-53 10^(e+1) from it, twenty times the half unit of the
    # 17th digit (and 0.001, 0.01 and 0.1 round up to their doubles).
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    return e, n


def _field_words(v: np.ndarray) -> np.ndarray:
    """(len(v), width) words spelling "," + "%.17g" % x for each x in v, NUL-padded."""
    a = np.abs(v)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0  # placeholder: these fields are overwritten below
    e, f16 = _significand(a)  # all 17 digits, until q is split off
    shift = np.maximum(e, 0)
    div = _P10_INT[16 - shift]
    q = f16 // div  # the integer part; where |v| < 1, the first digit
    f16 -= q * div
    f16 *= _P10_INT[shift]  # the 16 digits after q, left-aligned
    hi8 = f16 // 10**8
    lo8 = f16 - hi8 * 10**8
    f0 = hi8 // 10000
    f2 = lo8 // 10000
    f1 = hi8 - f0 * 10000
    f3 = lo8 - f2 * 10000
    j = q // 1000  # the integer digits before the last three
    words, heads, head_offset = _tables()
    head = heads[head_offset[4 * e + 16 + 2 * np.signbit(v) + (f16 == 0)] + (q - 1000 * j)]
    texts = [("," + "%.17g" % x).encode() for x in v[slow].tolist()]
    top = int(j.max(initial=0))
    width = max(6 + (_word_count(top) if top else 0), -(-max(map(len, texts), default=0) // 4))
    k = width - 6
    out = np.empty((v.size, width), np.uint32)
    if k:
        head = head.view(np.uint32).reshape(-1, 2)
        out[:, 0] = head[:, 0]
        out[:, 1:k + 1] = _int_words(j, k)
        out[j == 0, 1:k + 1] = 0
        out[:, k + 1] = head[:, 1]
    else:
        out.view(np.uint64)[:, 0] = head
    # a fraction word drops its trailing zeros when no later digit is non-zero
    out[:, k + 2] = words[f0 + 10000 * (f16 % 10**12 == 0)]
    out[:, k + 3] = words[f1 + 10000 * (lo8 == 0)]
    out[:, k + 4] = words[f2 + 10000 * (f3 == 0)]
    out[:, k + 5] = words[f3 + 10000]
    if texts:
        out[slow] = _words(np.array(texts, f"S{4 * width}").view(np.uint8).reshape(-1, width, 4))
    return out


def dump_samples_csv(path, result: ChainResult) -> None:
    """Write iterates as CSV rows `replica, step, coord_0..coord_{d-1}`.

    Each coordinate is written as ``"%.17g" % v``, byte for byte.  Blocks of
    about _CHUNK values (whole replicas, or steps of one replica) are
    rendered at a time, so the memory used beyond the iterates is bounded by
    the block, not by samples x steps x d, whatever the iterates' layout.
    """
    samples, steps, d = result.iterates.shape
    replicas = max(1, round(_CHUNK / (steps * d)))
    span = steps if steps * d <= _CHUNK else max(1, _CHUNK // d)
    replica_words, step_words = _word_count(samples - 1), _word_count(steps - 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replica,step," + ",".join(f"coord_{j}" for j in range(d)) + "\n")
        for r in range(0, samples, replicas):
            for s in range(0, steps, span):
                block = np.asarray(result.iterates[r:r + replicas, s:s + span], dtype=float)
                reps, block_steps = block.shape[:2]
                rows = reps * block_steps
                line = np.concatenate([
                    _int_words(np.repeat(np.arange(r, r + reps), block_steps), replica_words),
                    np.full((rows, 1), _SEP),
                    _int_words(np.tile(np.arange(s, s + block_steps), reps), step_words),
                    _field_words(block.ravel()).reshape(rows, -1),
                    np.full((rows, 1), _NEWLINE)], axis=1)
                fh.write(line.tobytes().translate(None, b"\0").decode("ascii"))


# ---------------------------------------------------------------------------
# Auxiliary-process simulation (1D)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxTrace:
    distances: np.ndarray
    stderrs: np.ndarray


def gaussian_drift_kernel(drift: float, variance: float):
    """1D kernel x -> x + N(drift, variance)."""
    _checks.finite(drift=drift)
    _checks.nonnegative(variance=variance)
    sd = math.sqrt(variance)

    def kernel(x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        return x + drift + sd * gen.standard_normal(x.shape)

    return kernel


def toy_kernel_pair(w: float, sigma: float):
    """(Phat, P) for the toy pair: P adds N(0,1), Phat adds N(w, 1+sigma^2)."""
    _check_toy(w, sigma)
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
    _checks.finite(x0=x0, y0=y0)
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
