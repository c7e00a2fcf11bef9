"""Exact divergence and transport calculus between Gaussian measures.

Everything here is closed form, so this module doubles as the ground-truth
oracle for the bound evaluators: KL, 2-Wasserstein and Renyi divergences
between N(mu, Sigma) laws, affine pushforwards, and the exact
formulas for the 1D random-walk toy pair

    P:    x -> x + N(0, 1)
    Phat: x -> x + N(w, 1 + sigma^2)

whose N-step laws from a Dirac start are N(x + N*w, N*(1+sigma^2)) and
N(x, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Gaussian",
    "kl_gaussian",
    "w2_gaussian",
    "renyi_gaussian",
    "affine_pushforward",
    "toy_exact_kl",
    "toy_exact_w2",
    "toy_laws",
]

# Eigenvalues below EIG_CLAMP * lambda_max are treated as zero when taking
# matrix roots/inverses; covariances failing the PSD check by more than
# PSD_TOL * lambda_max are rejected outright.
EIG_CLAMP = 1e-14
PSD_TOL = 1e-12


def _as_mean(mean) -> np.ndarray:
    m = np.atleast_1d(np.asarray(mean, dtype=float))
    if m.ndim != 1:
        raise ValueError("mean must be a vector")
    return m


def _clip_spectrum(lam: np.ndarray) -> np.ndarray:
    """An ascending spectrum clipped at 0; negative beyond PSD_TOL * max(lam_max, 1) is rejected."""
    lam_max = max(float(lam[-1]), 0.0)
    if lam[0] < -PSD_TOL * max(lam_max, 1.0):
        raise ValueError(f"covariance is not PSD (min eigenvalue {lam[0]:g})")
    return np.clip(lam, 0.0, None)


def _as_cov(cov, d: int) -> np.ndarray:
    c = np.asarray(cov, dtype=float)
    if c.ndim == 0:
        c = c.reshape(1, 1)
    if c.shape != (d, d):
        raise ValueError(f"covariance must be {d}x{d}, got {c.shape}")
    return c


@dataclass(frozen=True)
class Gaussian:
    """Gaussian measure N(mean, cov) on R^d.

    Mean and covariance must be finite.  ``cov`` must be symmetric (1e-12
    relative) and PSD up to roundoff; degenerate (singular) covariances are
    allowed and represent point masses in the flat directions.  Scalars are
    accepted for 1D convenience.  The constructor decomposes ``cov`` once
    (``eigh``) and caches the spectrum, ascending, for the divergences; a law
    already known in an orthonormal eigenbasis is built from it by the
    private ``_from_eig``, which skips that ``eigh``.
    """

    mean: np.ndarray
    cov: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)
    _eigvecs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _as_mean(self.mean)
        c = _as_cov(self.cov, m.size)
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise ValueError("mean and covariance must be finite")
        scale = max(1.0, float(np.max(np.abs(c))))
        if np.max(np.abs(c - c.T)) > PSD_TOL * scale:
            raise ValueError("covariance is not symmetric")
        c = 0.5 * (c + c.T)
        lam, vecs = np.linalg.eigh(c)
        self._freeze(m, c, _clip_spectrum(lam), vecs)

    @classmethod
    def _from_eig(cls, mean, vals, vecs) -> "Gaussian":
        """N(mean, vecs diag(vals) vecs^T) for a trusted orthonormal basis ``vecs``.

        Runs no ``eigh`` (nor ``__post_init__``) but makes the constructor's
        checks on what it is given: a finite mean and spectrum, and no
        eigenvalue below -PSD_TOL * max(lam_max, 1), the rest clipped at 0.
        The spectrum is sorted ascending with the columns of ``vecs``.
        """
        m = _as_mean(mean)
        lam = np.asarray(vals, dtype=float)
        vecs = np.asarray(vecs, dtype=float)
        if lam.shape != m.shape or vecs.shape != (m.size, m.size):
            raise ValueError(f"spectrum {lam.shape} and basis {vecs.shape} do not match "
                             f"dimension {m.size}")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(lam))):
            raise ValueError("mean and eigenvalues must be finite")
        order = np.argsort(lam, kind="stable")
        lam, vecs = _clip_spectrum(lam[order]), vecs[:, order]
        c = (vecs * lam) @ vecs.T
        c = 0.5 * (c + c.T)
        if not np.all(np.isfinite(c)):
            raise ValueError("covariance overflows")
        g = object.__new__(cls)
        g._freeze(m, c, lam, vecs)
        return g

    def _freeze(self, m, c, lam, vecs) -> None:
        for name, arr in (("mean", m), ("cov", c), ("_eigvals", lam), ("_eigvecs", vecs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.mean.size

    def is_degenerate(self) -> bool:
        lam_max = max(float(self._eigvals[-1]), 1.0)
        return bool(self._eigvals[0] <= EIG_CLAMP * lam_max)

    def sqrt_cov(self) -> np.ndarray:
        """Symmetric PSD square root of the covariance."""
        lam = np.clip(self._eigvals, 0.0, None)
        return (self._eigvecs * np.sqrt(lam)) @ self._eigvecs.T


def _check_dims(p: Gaussian, q: Gaussian):
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def _logdet(q: Gaussian) -> float:
    """log det(cov_q) from the cached eigenvalues; rejects a singular cov_q."""
    lam = q._eigvals
    lam_max = max(float(lam[-1]), 0.0)
    if lam[0] <= EIG_CLAMP * max(lam_max, 1.0):
        raise ValueError("divergence undefined/infinite: singular second-argument covariance")
    return float(np.sum(np.log(lam)))


def kl_gaussian(p: Gaussian, q: Gaussian) -> float:
    """KL(p || q) between Gaussians, in nats.

    For equal covariances Sigma this reduces to 0.5 <mu_p - mu_q,
    Sigma^{-1} (mu_p - mu_q)>.  The second argument must be nondegenerate;
    a degenerate first argument gives +inf.  The trace term is
    sum_i (V^T Sigma_p V)_ii / lam_i in q's eigenbasis (one matmul), and a
    value that roundoff takes below 0 is returned as 0.
    """
    _check_dims(p, q)
    delta = p.mean - q.mean
    logdet_q = _logdet(q)
    if p.is_degenerate():
        return math.inf
    lam, vecs = q._eigvals, q._eigvecs
    trace = float(np.sum(np.sum(vecs * (p.cov @ vecs), axis=0) / lam))
    quad = float(delta @ (vecs @ ((vecs.T @ delta) / lam)))
    logdet_p = float(np.sum(np.log(p._eigvals)))
    return max(0.5 * (trace + quad - p.dim + logdet_q - logdet_p), 0.0)


def w2_gaussian(p: Gaussian, q: Gaussian) -> float:
    """2-Wasserstein distance via the Gaussian (Bures) closed form.

    W2^2 = ||mu_p - mu_q||^2 + tr(Sig_p + Sig_q - 2 (Sig_q^{1/2} Sig_p Sig_q^{1/2})^{1/2}).
    """
    _check_dims(p, q)
    delta = p.mean - q.mean
    rq = q.sqrt_cov()
    inner = rq @ p.cov @ rq
    lam = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)
    cross = float(np.sum(np.sqrt(lam)))
    w2sq = float(delta @ delta) + float(np.trace(p.cov) + np.trace(q.cov)) - 2.0 * cross
    return math.sqrt(max(w2sq, 0.0))


def renyi_gaussian(order: float, p: Gaussian, q: Gaussian) -> float:
    """Renyi divergence R_order(p || q) of order > 1 between Gaussians.

    Uses the standard closed form with the mixture covariance
    Sig_* = order * Sig_q + (1 - order) * Sig_p; returns +inf when Sig_*
    fails to be positive definite.  At order -> 1 this converges to
    kl_gaussian.  A value that roundoff takes below 0 is returned as 0.
    """
    if not order > 1.0:
        raise ValueError("Renyi order must be > 1")
    _check_dims(p, q)
    delta = p.mean - q.mean
    logdet_q = _logdet(q)
    mix = order * q.cov + (1.0 - order) * p.cov
    lam_mix, vecs = np.linalg.eigh(0.5 * (mix + mix.T))
    if lam_mix[0] <= EIG_CLAMP * max(float(lam_mix[-1]), 1.0):
        return math.inf
    if p.is_degenerate():
        return math.inf
    quad = float(delta @ (vecs @ ((vecs.T @ delta) / lam_mix)))
    logdet_mix = float(np.sum(np.log(lam_mix)))
    logdet_p = float(np.sum(np.log(p._eigvals)))
    log_ratio = logdet_mix - (1.0 - order) * logdet_p - order * logdet_q
    return max(0.5 * order * quad - log_ratio / (2.0 * (order - 1.0)), 0.0)


def affine_pushforward(g: Gaussian, mat, vec) -> Gaussian:
    """Law of A X + b for X ~ g: N(A mu + b, A Sigma A^T)."""
    d = g.dim
    a = np.asarray(mat, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    b = np.atleast_1d(np.asarray(vec, dtype=float))
    if a.shape != (d, d) or b.shape != (d,):
        raise ValueError(f"affine map shapes {a.shape}, {b.shape} do not match dimension {d}")
    return Gaussian(a @ g.mean + b, a @ g.cov @ a.T)


def _sqrt1p_minus_one(x: float) -> float:
    """sqrt(1 + x) - 1 without cancellation for small x >= 0."""
    return x / (1.0 + math.sqrt(1.0 + x))


def _check_toy(w: float, sigma: float, n: int = 1) -> None:
    """The toy kernel pair's checks: finite w, finite sigma >= 0 and n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(w):
        raise ValueError(f"w must be finite, got {w!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")


def toy_exact_kl(n: int, w: float, sigma: float) -> float:
    """Exact KL(mu Phat^n || mu P^n) for the toy kernel pair and Dirac mu.

    Equals (n w^2 + sigma^2 - log(1 + sigma^2)) / 2; log1p keeps the
    sigma -> 0 limit accurate.
    """
    _check_toy(w, sigma, n)
    s2 = sigma * sigma
    return 0.5 * (n * w * w + s2 - math.log1p(s2))


def toy_exact_w2(n: int, w: float, sigma: float) -> float:
    """Exact W2(mu Phat^n, mu P^n) for Dirac mu: sqrt(n^2 w^2 + n (sqrt(1+sigma^2)-1)^2)."""
    _check_toy(w, sigma, n)
    gap = _sqrt1p_minus_one(sigma * sigma)
    return math.sqrt(n * n * w * w + n * gap * gap)


def toy_laws(n: int, w: float, sigma: float) -> tuple[Gaussian, Gaussian]:
    """N-step laws (delta_0 Phat^n, delta_0 P^n) of the toy kernels."""
    hat = Gaussian(np.array([n * w]), np.array([[n * (1.0 + sigma * sigma)]]))
    ref = Gaussian(np.array([0.0]), np.array([[float(n)]]))
    return hat, ref
