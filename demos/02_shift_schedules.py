#!/usr/bin/env python3
"""Shift-schedule optimization from three angles.

A schedule eta_0..eta_{N-1} (last entry 1) steers an auxiliary process
toward the chain being analyzed; the price is c * sum eta_k^2 d_k^2 plus a
final cross-regularity charge c' d_{N-1}^2 + b^2, where the d_k follow
d_{k+1} = L (1 - eta_k) d_k + a.  This demo compares, on the same
instances:

 1. the exact closed-form optimum,
 2. the explicit optimal schedule pushed through the recursion,
 3. an oracle that knows nothing about the closed forms: projected Newton
    in r = (1 - eta) d, with an O(n) tridiagonal solve per iteration.
"""

import numpy as np

from klbounds import shifts

print("=== unit contraction (L = 1) ===")
for n, a, d0 in [(2, 1.0, 2.0), (6, 0.5, 3.0), (10, 0.0, 1.0)]:
    closed = shifts.optimal_value_L1(n, a, d0)
    schedule, trace = shifts.optimal_shifts_L1(n, a, d0)
    problem = shifts.ShiftProblem(n, 1.0, d0, shifts.SimpleError(a))
    evaluated = shifts.evaluate_schedule(problem, schedule).total
    _, dp_value = shifts.dp_oracle(problem)
    print(f"n={n:>2} a={a} d0={d0}: closed {closed:.6f}  "
          f"schedule {evaluated:.6f}  dp {dp_value:.6f}")
    print(f"      eta = {np.round(schedule.eta, 4)}")

print()
print("=== contractive kernels (L < 1) ===")
for n, a, d0, big_l in [(2, 0.0, 1.0, 0.5), (2, 1.0, 1.0, 0.5), (8, 0.4, 3.0, 0.8)]:
    closed = shifts.optimal_value_Lgeneral(n, a, d0, big_l)
    schedule = shifts.optimal_shifts_Lgeneral(n, a, d0, big_l)
    problem = shifts.ShiftProblem(n, big_l, d0, shifts.SimpleError(a))
    _, dp_value = shifts.dp_oracle(problem)
    print(f"n={n:>2} L={big_l} a={a} d0={d0}: closed {closed:.6f}  dp {dp_value:.6f}")

print()
print("=== final-step cross-regularity ===")
print("replacing the last-step cost c by c' shifts only the final charge;")
print("the closed form stays an exact identity with the evaluated schedule:")
for big_l, c, c_prime in [(1.0, 1.0, 2.0), (0.5, 1.0, 2.0), (0.9, 2.0, 0.5)]:
    n, a, d0, b = 5, 0.3, 2.0, 0.1
    closed = shifts.final_bound_with_cross_reg(n, a, d0, big_l, c, c_prime, b)
    if big_l == 1.0:
        schedule, _ = shifts.optimal_shifts_L1(n, a, d0)
    else:
        schedule = shifts.optimal_shifts_Lgeneral(n, a, d0, big_l)
    problem = shifts.ShiftProblem(n, big_l, d0, shifts.SimpleError(a),
                                  c=c, c_prime=c_prime, b=b)
    evaluated = shifts.evaluate_schedule(problem, schedule).total
    print(f"L={big_l} (c, c') = ({c}, {c_prime}): closed {closed:.8f}  "
          f"evaluated {evaluated:.8f}  gap {abs(closed - evaluated):.2e}")

print()
print("=== three-phase schedules for the weak-error-aware recursion ===")
for n, big_l in [(8, 1.0), (8, 0.6), (8, 1.5)]:
    eta = shifts.three_phase_schedule(n, big_l).eta
    print(f"n={n} L={big_l}: eta = {np.round(eta, 4)}")
print("for L <= 1 the early entries damp geometrically and hand over to the")
print("harmonic tail 1/(N-k); for L > 1 a constant 1 - 1/L^2 damping phase")
print("precedes the same tail.")
