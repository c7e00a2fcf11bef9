"""Reference computations for the benchmark's checks, written apart from klbounds.

Nothing here imports klbounds: every formula is transcribed from its
closed form so that a check compares the program against an independent
computation, never against itself or a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Toy kernel pair: P adds N(0, 1), Phat adds N(w, 1 + sigma^2)
# ---------------------------------------------------------------------------


def toy_exact_kl(n: int, w: float, sigma: float) -> float:
    """KL(delta Phat^n || delta P^n) = (n w^2 + sigma^2 - log(1 + sigma^2)) / 2."""
    s2 = sigma * sigma
    return 0.5 * (n * w * w + s2 - math.log1p(s2))


# ---------------------------------------------------------------------------
# Gaussian laws of LMC, randomized-midpoint LMC and OU on quadratic targets
# ---------------------------------------------------------------------------


def lmc_law_eig(lam, xi, h: float, n: int):
    """Per-eigencoordinate LMC law from a Dirac start at eigencoordinates xi.

    mean = r^n xi and variance = 2h (1 - r^{2n}) / (1 - r^2) with r = 1 - h lam;
    scalars give the 1D law on N(0, 1/lam).
    """
    r = 1.0 - h * lam
    return r**n * xi, 2.0 * h * (1.0 - r ** (2 * n)) / (1.0 - r * r)


def ou_law_eig(lam: np.ndarray, xi: np.ndarray, h: float, n: int):
    """Per-eigencoordinate law of the diffusion run for time n h."""
    decay = np.exp(-n * h * lam)
    return decay * xi, -np.expm1(-2.0 * n * h * lam) / lam


def rmlmc_moments(lam: np.ndarray, y0: np.ndarray, h: float, n: int):
    """Mean and variance per coordinate of n randomized-midpoint steps.

    For V = lam y^2 / 2 one step is y' = A(u) y + noise with
    A(u) = 1 - z + z^2 u (z = h lam, u ~ U[0, 1]) and, given u, noise of
    variance 2h (1 - 2 z u + z^2 u).  Hence E y' = (1 - z + z^2/2) E y and
    E y'^2 = E[A^2] E y^2 + 2h (1 - z + z^2/2).
    """
    z = h * lam
    mean_a = 1.0 - z + 0.5 * z * z
    mean_a2 = (1.0 - z) ** 2 + (1.0 - z) * z * z + z**4 / 3.0
    noise = 2.0 * h * mean_a
    mean, second = y0.astype(float).copy(), y0.astype(float) ** 2
    for _ in range(n):
        mean, second = mean_a * mean, mean_a2 * second + noise
    return mean, second - mean * mean


def kl_to_target_eig(mean, var, lam) -> float:
    """KL(N(mean, diag var) || N(0, diag 1/lam)) in the target's eigenbasis (scalars: 1D)."""
    return float(0.5 * np.sum(lam * var + lam * mean * mean - 1.0 - np.log(lam * var)))


def weak_local_error(scheme: str, lam: np.ndarray, xi: np.ndarray, h: float) -> float:
    """Closed-form weak one-step error for quadratic targets.

    LMC: |(e^{-z} - (1 - z)) xi|; RMLMC: |(e^{-z} - (1 - z + z^2/2)) xi|.
    """
    z = lam * h
    if scheme == "LMC":
        coef = np.exp(-z) - (1.0 - z)
    else:
        coef = np.exp(-z) - (1.0 - z + 0.5 * z * z)
    return float(np.linalg.norm(coef * xi))


# ---------------------------------------------------------------------------
# Shift schedules
# ---------------------------------------------------------------------------


def shift_objective(eta, n, L, d0, c, c_prime, a=None, a0=None, a1=None) -> float:
    """c sum_{k<n-1} eta_k^2 d_k^2 + c' d_{n-1}^2 under the distance recursion.

    Simple (a given): d_{k+1} = L (1 - eta_k) d_k + a.
    WeakAware (a0, a1 given): d_{k+1}^2 = L^2 r^2 d_k^2 + 2 a1 r d_k + a0^2, r = 1 - eta_k.
    """
    d = float(d0)
    total = 0.0
    for k in range(n - 1):
        e = float(eta[k])
        total += c * e * e * d * d
        rest = 1.0 - e
        if a is not None:
            d = L * rest * d + a
        else:
            d = math.sqrt(L * L * rest * rest * d * d + 2.0 * a1 * rest * d + a0 * a0)
    return total + c_prime * d * d


def simple_optimum(n: int, a: float, d0: float, L: float) -> float:
    """Optimal uniform-cost (c = c' = 1) Simple objective for d0 >= a.

    L = 1: (d0 + (n-1) a)^2 / n.
    L < 1: (1+L)/(1-L) (a (1 - L^{n-1}) + d0 L^{n-1} (1-L))^2 / (1 - L^{2n}).
    """
    if L == 1.0:
        return (d0 + (n - 1) * a) ** 2 / n
    num = a * (1.0 - L ** (n - 1)) + d0 * L ** (n - 1) * (1.0 - L)
    return (1.0 + L) / (1.0 - L) * num * num / (1.0 - L ** (2 * n))


def three_phase_eta(n: int, L: float) -> np.ndarray:
    """Three-phase schedule for 1/2 <= L <= 2 (final entry 1).

    L <= 1: (1/L - 1) / (L^{-(n-k)} - 1) while L^{-(n-k)} >= 2, then 1/(n-k).
    L > 1: 1 - 1/L^2 while n-k > 2L/(L-1), then 1 - ((n-k-1)/(n-k))^2 / L.
    """
    eta = np.ones(n)
    for k in range(n - 1):
        m = n - k
        if L <= 1.0:
            eta[k] = (1.0 / L - 1.0) / (L ** (-m) - 1.0) if L ** (-m) >= 2.0 else 1.0 / m
        elif m > 2.0 * L / (L - 1.0):
            eta[k] = 1.0 - 1.0 / (L * L)
        else:
            eta[k] = 1.0 - ((m - 1.0) / m) ** 2 / L
    return eta
