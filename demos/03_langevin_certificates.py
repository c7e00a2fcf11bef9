#!/usr/bin/env python3
"""Certified KL bounds for LMC on a Gaussian target, judged against truth.

For the 1D quadratic potential V(x) = x^2/2 everything is exactly
computable: the diffusion transition is an Ornstein-Uhlenbeck kernel, the
LMC iterate laws form an affine Gaussian recursion, and every per-step
constant of the framework (contraction, coupling, regularity,
cross-regularity, local errors) has a closed form.  The certified bound
assembled from those constants must therefore dominate the true
KL(law of iterate N || target) -- and this script shows by how much.
"""

import math

from klbounds import bounds, chains, gauss
from klbounds.verify import exact_quadratic_assumptions

pot = chains.PotentialSpec.quadratic_potential(1.0)
target = gauss.Gaussian(0.0, 1.0)

print("LMC toward N(0,1), Dirac start x0, certified bound vs exact KL")
print(f"{'h':>6} {'N':>5} {'x0':>4} {'exact KL':>12} {'certified':>12} {'ratio':>8}")
for h in (0.2, 0.1, 0.05):
    for n in (10, 100):
        for x0 in (0.0, 1.0, 4.0):
            k = exact_quadratic_assumptions(1.0, h, n, x0)
            d0 = math.sqrt(x0 * x0 + 1.0)  # W2(dirac(x0), N(0,1))
            cert = bounds.kl_framework_bound(k, n, d0, mode="certified").value
            law = chains.propagate_law(pot, gauss.Gaussian(x0, 0.0), "LMC", h, n)
            exact = gauss.kl_gaussian(law, target)
            print(f"{h:>6} {n:>5} {x0:>4} {exact:>12.6f} {cert:>12.6f} "
                  f"{cert / exact:>8.1f}")

print()
print("The exact KL at large N is the asymptotic LMC bias; halving h roughly")
print("halves it (weak order one in KL for the variance-dominated regime),")
print("and the certificate follows with a modest constant.")

print()
print("Constants assembled for h = 0.1, N = 100, x0 = 1:")
k = exact_quadratic_assumptions(1.0, 0.1, 100, 1.0)
for name in ("L", "gamma", "c", "c_prime", "b_bar", "e_weak", "e_strong"):
    print(f"  {name:<9} = {getattr(k, name):.6f}")

print()
print("Sanity: simulate the chain and compare empirical moments to the law")
cfg = chains.SamplerConfig("LMC", 0.1, 100, seed=0, samples=50_000)
res = chains.simulate_chain(pot, cfg, 1.0)
law = chains.propagate_law(pot, gauss.Gaussian(1.0, 0.0), "LMC", 0.1, 100)
print(f"  empirical mean {res.empirical_mean()[0]:+.4f} vs law {law.mean[0]:+.4f}")
print(f"  empirical var  {res.empirical_cov()[0, 0]:.4f} vs law {law.cov[0, 0]:.4f}")
