"""Shift-schedule optimization for coupling-based divergence bounds.

An N-entry schedule eta_0..eta_{N-1} (last entry 1) moves an auxiliary
process along W2 geodesics toward the approximating chain.  The induced
distance recursion comes in two flavors:

- Simple:    d_{n+1} = L (1 - eta_n) d_n + a
- WeakAware: d_{n+1}^2 = L^2 (1-eta_n)^2 d_n^2 + 2 a1 (1-eta_n) d_n + a0^2

and the objective charged to a schedule is

    c * sum_{n < N-1} eta_n^2 d_n^2  +  c' * d_{N-1}^2  +  b^2.

This module provides exact evaluation of that objective, closed-form
optimal values/schedules for the Simple recursion (contraction factor
L = 1 and L in (0,1)), the feasible three-phase schedule used for the
WeakAware recursion on 1/2 <= L <= 2, and an independent oracle:
projected Newton in r = (1 - eta) d, with an O(N) tridiagonal solve per
iteration, started from the all-ones schedule where the objective is convex
in r and from four fixed schedules (all-ones, all-1/2, all-zeros,
three-phase) where it is not.

Index convention: all closed forms are stated for N shifts with
eta_{N-1} = 1 (the final interpolating shift), i.e. N-1 free shifts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _checks

__all__ = [
    "FeasibilityError",
    "SimpleError",
    "WeakAwareError",
    "ShiftProblem",
    "ShiftSchedule",
    "ObjectiveTrace",
    "evaluate_schedule",
    "optimal_value_L1",
    "optimal_shifts_L1",
    "optimal_value_Lgeneral",
    "optimal_shifts_Lgeneral",
    "final_bound_with_cross_reg",
    "three_phase_schedule",
    "dp_oracle",
]


class FeasibilityError(ValueError):
    """Raised when a shift schedule violates the [0,1] / last-entry-1 constraints."""


@dataclass(frozen=True)
class SimpleError:
    """Additive one-step error level: d_{n+1} = L (1-eta) d_n + a."""

    a: float

    def __post_init__(self):
        _checks.nonnegative(a=self.a)


@dataclass(frozen=True)
class WeakAwareError:
    """Strong/weak error levels driving the squared-distance recursion.

    a0 is the strong level, a1 the weak level (weak + gamma * strong in the
    framework's usage).
    """

    a0: float
    a1: float

    def __post_init__(self):
        _checks.nonnegative(a0=self.a0, a1=self.a1)


@dataclass(frozen=True)
class ShiftProblem:
    """Optimization instance: step count, contraction, errors, and costs."""

    n: int
    L: float
    d0: float
    error: SimpleError | WeakAwareError
    c: float = 1.0
    c_prime: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        _checks.count("n", self.n)
        _checks.positive(L=self.L)
        _checks.nonnegative(d0=self.d0, c=self.c, c_prime=self.c_prime, b=self.b)


@dataclass(frozen=True)
class ShiftSchedule:
    """Feasible shift vector: every entry in [0,1], final entry 1."""

    eta: np.ndarray

    def __post_init__(self):
        e = np.atleast_1d(np.asarray(self.eta, dtype=float))
        if e.ndim != 1 or e.size < 1:
            raise FeasibilityError("schedule must be a nonempty vector")
        if not np.all((e >= -1e-15) & (e <= 1.0 + 1e-15)):
            raise FeasibilityError("shift entries must lie in [0, 1]")
        if abs(e[-1] - 1.0) > 1e-12:
            raise FeasibilityError("final shift must equal 1")
        e = np.clip(e, 0.0, 1.0)
        e[-1] = 1.0
        e.setflags(write=False)
        object.__setattr__(self, "eta", e)

    def __len__(self) -> int:
        return self.eta.size


@dataclass(frozen=True)
class ObjectiveTrace:
    """Distance trace and objective decomposition for one schedule."""

    distances: np.ndarray
    main_term: float
    final_term: float

    @property
    def total(self) -> float:
        return self.main_term + self.final_term


def propagate_distances(problem: ShiftProblem, eta) -> np.ndarray:
    """Distances d_0..d_{N-1} under the problem's recursion (last shift unused).

    The kept fractions 1 - eta come from one numpy subtraction, and the
    O(N) recursion runs on Python floats, streamed into the array.  The
    WeakAware square is the IEEE product d * d, correctly rounded (libm's
    pow behind ``d**2`` is not, on about 1 in 1000 inputs).  An overflowed
    distance (for WeakAware, one whose square overflows) is inf.  It stands
    for a finite value, so a full shift (eta = 1) restarts the recursion
    from the error level and any other shift keeps it inf, never
    0 * inf = nan.
    """
    rests = (1.0 - np.asarray(eta, dtype=float)[: problem.n - 1]).tolist()
    return np.fromiter(_distance_steps(problem, rests), float, len(rests) + 1)


def _distance_steps(problem: ShiftProblem, rests: list[float]):
    """Yield d_0, d_1, ... for the kept fractions rests = 1 - eta."""
    L = float(problem.L)
    d = float(problem.d0)
    yield d
    inf = math.inf
    if isinstance(problem.error, SimpleError):
        a = float(problem.error.a)
        for rest in rests:
            if d < inf:
                d = L * rest * d + a
            else:
                d = a if rest == 0.0 else inf
            yield d
    else:
        # hoisted factors keep the left-to-right products of the formula
        a0, a1 = float(problem.error.a0), float(problem.error.a1)
        ll, two_a1, a0_sq = L * L, 2.0 * a1, a0 * a0
        sqrt = math.sqrt
        for rest in rests:
            sq = d * d  # inf where it overflows
            if sq < inf:
                d = sqrt(ll * rest * rest * sq + two_a1 * rest * d + a0_sq)
            else:
                d = sqrt(a0_sq) if rest == 0.0 else inf
            yield d


def evaluate_schedule(problem: ShiftProblem, schedule: ShiftSchedule) -> ObjectiveTrace:
    """Exact objective of a feasible schedule.

    The returned total is a valid upper bound on the N-step KL divergence
    whenever the one-step regularity/cross-regularity/error assumptions hold
    with the problem's constants.
    """
    if not isinstance(schedule, ShiftSchedule):
        schedule = ShiftSchedule(np.asarray(schedule, dtype=float))
    if len(schedule) != problem.n:
        raise FeasibilityError(f"schedule length {len(schedule)} != n = {problem.n}")
    eta = schedule.eta
    d = propagate_distances(problem, eta)
    # numpy squares overflow to inf where Python's float ** raises
    with np.errstate(over="ignore", invalid="ignore"):
        main = problem.c * float(np.sum(eta[:-1] ** 2 * d[:-1] ** 2))
        final = problem.c_prime * d[-1] ** 2 + np.float64(problem.b) ** 2
    # nan can only be 0 * inf from an overflowed distance; the bound is then inf
    if math.isnan(main):
        main = math.inf
    if math.isnan(final):
        final = math.inf
    d.setflags(write=False)
    return ObjectiveTrace(distances=d, main_term=main, final_term=final)


# ---------------------------------------------------------------------------
# Closed forms, L = 1
# ---------------------------------------------------------------------------


def optimal_value_L1(n: int, a: float, d0: float) -> float:
    """Optimal value of the uniform-cost Simple problem at L = 1.

    min sum_{k<n} eta_k^2 d_k^2 subject to the recursion and eta_{n-1}=1:
    (d0 + (n-1) a)^2 / n for d0 >= a, else d0^2 + (n-1) a^2.
    """
    _checks.count("n", n)
    _checks.nonnegative(a=a, d0=d0)
    if d0 >= a:
        s = d0 + (n - 1) * a
        return s * s / n
    return d0 * d0 + (n - 1) * a * a


def optimal_shifts_L1(n: int, a: float, d0: float) -> ShiftSchedule:
    """Optimal schedule for the uniform-cost L=1 problem.

    eta_k = min(1, ((n-1) a + d0) / (k a + (n-k) d0)) for k < n-1, eta_{n-1} = 1.
    The degenerate instance a = d0 = 0 returns the all-zero-then-one schedule.
    """
    _checks.count("n", n)
    _checks.nonnegative(a=a, d0=d0)
    eta = np.ones(n)
    num = (n - 1) * a + d0
    for k in range(n - 1):
        denom = k * a + (n - k) * d0
        if denom <= 0.0:
            eta[k] = 0.0 if num == 0.0 else 1.0
        else:
            eta[k] = min(1.0, num / denom)
    return ShiftSchedule(eta)


# ---------------------------------------------------------------------------
# Closed forms, L in (0, 1)
# ---------------------------------------------------------------------------


def _one_minus_pow(L: float, k: float) -> float:
    """1 - L^k, stable near L = 1 (expm1 of k log L)."""
    return -math.expm1(k * math.log(L))


def optimal_value_Lgeneral(n: int, a: float, d0: float, L: float) -> float:
    """Optimal value of the uniform-cost Simple problem for L in (0,1).

    (1+L)/(1-L) * (a (1-L^{n-1}) + d0 L^{n-1} (1-L))^2 / (1-L^{2n});
    inputs with d0 < a are clamped to d0 = a (the bound is increasing in
    d0, and the closed form assumes d0 >= a).
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must lie in (0, 1); use optimal_value_L1 at L = 1")
    _checks.count("n", n)
    _checks.nonnegative(a=a, d0=d0)
    d0 = max(d0, a)
    e1 = _one_minus_pow(L, 1)
    num = a * _one_minus_pow(L, n - 1) + d0 * L ** (n - 1) * e1
    return (1.0 + L) * num * num / (e1 * _one_minus_pow(L, 2 * n))


def optimal_shifts_Lgeneral(n: int, a: float, d0: float, L: float) -> ShiftSchedule:
    """Optimal schedule for the uniform-cost Simple problem, L in (0,1).

    Per-step form with p = n-1-k remaining free steps:
        eta_k = L^p (1+L) (a (1-L^p) + d_k L^p (1-L)) / (d_k (1-L^{2(p+1)}))
    propagated through d_{k+1} = (1-eta_k) L d_k + a.  d0 < a is clamped
    as in optimal_value_Lgeneral.
    """
    if not 0.0 < L < 1.0:
        raise ValueError("L must lie in (0, 1)")
    _checks.count("n", n)
    _checks.nonnegative(a=a, d0=d0)
    d = max(d0, a)
    eta = np.ones(n)
    e1 = _one_minus_pow(L, 1)
    for k in range(n - 1):
        p = n - 1 - k
        if d <= 0.0:
            eta[k] = 0.0
            d = a
            continue
        lp = L**p
        num = lp * (1.0 + L) * (a * _one_minus_pow(L, p) + d * lp * e1)
        eta[k] = min(1.0, num / (d * _one_minus_pow(L, 2 * (p + 1))))
        d = (1.0 - eta[k]) * L * d + a
    return ShiftSchedule(eta)


def final_bound_with_cross_reg(
    n: int, a: float, d0: float, L: float, c: float, c_prime: float, b: float
) -> float:
    """Bound value with final-step cross-regularity (c', b) replacing (c, 0).

    For L in (0,1):
        (c + (c'-c) (1-L^2)/(1-L^{2n})) * (1+L)/(1-L)
            * (a (1-L^{n-1}) + L^{n-1} (1-L) d0)^2 / (1-L^{2n}) + b^2,
    and at L = 1 the limit ((n-1) c + c') (d0 + (n-1) a)^2 / n^2 + b^2.
    Equals the exact objective of the uniform-cost optimal schedule under
    the (c, c', b) costs.  Inputs with d0 < a are clamped to d0 = a, as in
    optimal_value_Lgeneral: the value is then that schedule's objective for
    d0 = a, and distances grow with d0, so the same schedule from the true
    d0 costs no more and the value stays a bound.
    """
    if not 0.0 < L <= 1.0:
        raise ValueError("L must lie in (0, 1]")
    _checks.count("n", n)
    _checks.nonnegative(a=a, d0=d0, c=c, c_prime=c_prime, b=b)
    d0 = max(d0, a)
    if L == 1.0:
        s = d0 + (n - 1) * a
        return ((n - 1) * c + c_prime) * s * s / (n * n) + b * b
    e1 = _one_minus_pow(L, 1)
    e2n = _one_minus_pow(L, 2 * n)
    # c (1-r) + c' r with r = (1-L^2)/(1-L^{2n}) and 1-r = L^2 (1-L^{2n-2})/(1-L^{2n}):
    # both weights are >= 0, so the cost cannot cancel below zero.
    cost = (c * L * L * _one_minus_pow(L, 2 * n - 2) + c_prime * _one_minus_pow(L, 2)) / e2n
    num = a * _one_minus_pow(L, n - 1) + L ** (n - 1) * e1 * d0
    return cost * (1.0 + L) * num * num / (e1 * e2n) + b * b


# ---------------------------------------------------------------------------
# Three-phase schedule for the WeakAware recursion
# ---------------------------------------------------------------------------


# Largest x with math.expm1(x) finite: log of the largest float.
_EXPM1_MAX = math.log(sys.float_info.max)


def three_phase_schedule(n: int, L: float) -> ShiftSchedule:
    """Feasible phase-stitched schedule for 1/2 <= L <= 2.

    For L <= 1: eta_k = (1/L - 1) / (L^{-(n-k)} - 1) while L^{-(n-k)} >= 2,
    then eta_k = 1/(n-k).  For L > 1: eta_k = 1 - 1/L^2 while
    n-k > 2L/(L-1), then eta_k with L (1-eta_k) = ((n-k-1)/(n-k))^2.
    The final entry is always 1.  Where L^{-(n-k)} overflows, the equal
    form (1/L - 1) L^{n-k} / (1 - L^{n-k}) is used, entry by entry, for
    that leading part of the prefix.  The rest of the prefix maps
    math.expm1 over the exponents and divides 1/L - 1 by them in one numpy
    division, correctly rounded like the float one, so the bits are those
    of the per-entry form.
    """
    _checks.count("n", n)
    if not 0.5 <= L <= 2.0:
        raise ValueError("three-phase schedule requires 1/2 <= L <= 2")
    eta = np.ones(n)
    remaining = np.arange(n, 1, -1, dtype=float)  # n - k for k < n - 1
    if L <= 1.0:
        neg_log = -math.log(L)
        x = remaining * neg_log
        eta[:-1] = 1.0 / remaining
        # L^{-(n-k)} >= 2 <=> (n-k)(-log L) >= log 2: a prefix, as x decreases in k;
        # its first j entries are where expm1 overflows
        m = int(np.count_nonzero(x >= math.log(2.0)))
        j = int(np.count_nonzero(x > _EXPM1_MAX))
        e1 = math.expm1(neg_log)
        eta[:j] = [e1 * L**rk / -math.expm1(-xk)
                   for rk, xk in zip(range(n, n - j, -1), x[:j].tolist())]
        # math.expm1, not np.expm1, whose SIMD path differs by an ulp on some inputs
        eta[j:m] = e1 / np.fromiter(map(math.expm1, x[j:m].tolist()), float, m - j)
    else:
        ratio = (remaining - 1.0) / remaining
        eta[:-1] = np.where(
            remaining > 2.0 * L / (L - 1.0), 1.0 - 1.0 / (L * L), 1.0 - ratio * ratio / L
        )
    return ShiftSchedule(eta)


# ---------------------------------------------------------------------------
# Shift oracle
# ---------------------------------------------------------------------------


# Projected Newton: it stops once the KKT residual is at most _KKT_TOL times
# the objective, after _MAX_NEWTON iterations, or when _MAX_HALVINGS
# halvings of the step find no Armijo decrease (constant _ARMIJO, less a
# slack of _ROUNDING times the objective for its rounding).
_KKT_TOL = 1e-12
_MAX_NEWTON = 100
_MAX_HALVINGS = 60
_ARMIJO = 1e-4
_ROUNDING = 16.0 * sys.float_info.epsilon


def _chain(problem: ShiftProblem):
    """The oracle's chain in the kept distances r_k = (1 - eta_k) d_k.

    Returns step(r) -> d_{k+1} = s(r_k), slopes(r, nxt) -> (s'(r), s''(r),
    edge or None) and whether the objective is convex in r.
    """
    L = problem.L
    if isinstance(problem.error, SimpleError):
        a = problem.error.a

        def step(r):
            return L * r + a

        def slopes(r, nxt):
            return np.full_like(r, L), np.zeros_like(r), None

        return step, slopes, True
    a0, a1 = problem.error.a0, problem.error.a1

    def step(r):
        out = L * r
        out *= out
        out += 2.0 * a1 * r
        out += a0 * a0
        return np.sqrt(out, out=out)

    def slopes(r, nxt):
        # nxt = 0 only at a0 = r = 0, where s' -> inf for a1 > 0.  There the
        # slope L and no curvature give the Hessian diagonal's limit, from
        # s'^2 + s s'' = L^2, and the edge a1 is the gradient's limit of s s'
        live = None if nxt.all() else nxt > 0.0

        def pick(value, limit):
            return value if live is None else np.where(live, value, limit)

        q = pick(nxt, 1.0)
        slope = pick((L * L * r + a1) / q, L)
        # s'' = (L^2 a0^2 - a1^2) / nxt^3, without forming the cube
        curv = pick((L * a0 - a1) * ((L * a0 + a1) / q) / q / q, 0.0)
        return slope, curv, None if a0 > 0.0 else pick(0.0, a1)

    return step, slopes, a1 <= L * a0


def _thomas(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray):
    """Solve a symmetric tridiagonal system by Thomas elimination.

    Returns None where a pivot is not positive, that is where the matrix is
    not positive definite.
    """
    off, x = off.tolist(), rhs.tolist()
    pivots = diag.tolist()
    for k in range(1, len(x)):
        if not pivots[k - 1] > 0.0:
            return None
        f = off[k - 1] / pivots[k - 1]
        pivots[k] -= f * off[k - 1]
        x[k] -= f * x[k - 1]
    if not pivots[-1] > 0.0:
        return None
    x[-1] /= pivots[-1]
    for k in range(len(x) - 2, -1, -1):
        x[k] = (x[k] - off[k] * x[k + 1]) / pivots[k]
    return np.array(x)


def _projected_newton(problem: ShiftProblem, step, slopes, r: np.ndarray) -> np.ndarray:
    """Minimise c sum_k (d_k - r_k)_+^2 + c' d_{N-1}^2 over r >= 0 from r.

    Projected Newton (Bertsekas 1982): the gradient by the adjoint, the
    tridiagonal Hessian solved on the free set (r_k > 0 or a descending
    gradient) and an Armijo search along the projection arc.  Where the
    Hessian is not positive definite (only for a1 > L a0) the iteration takes
    a projected-gradient step instead.
    """
    d0, c, cp = problem.d0, problem.c, problem.c_prime
    cost = np.append(np.full(r.size - 1, c), cp)  # the cost of each d_{k+1}
    dist, weight = np.empty_like(r), np.empty_like(r)
    dist[0] = d0

    def terms(r):
        """Distances d_1..d_{N-1}, d_0..d_{N-2}, gaps (d_k - r_k)_+ and objective.

        dist is filled in place: a trial's call overwrites the iterate's.
        """
        nxt = step(r)
        dist[1:] = nxt[:-1]
        gap = np.maximum(dist - r, 0.0)
        return nxt, dist, gap, c * gap @ gap + cp * nxt[-1] ** 2

    for _ in range(_MAX_NEWTON):
        nxt, dist, gap, value = terms(r)
        slope, curv, edge = slopes(r, nxt)
        # adjoint: d_{k+1} feeds the stage-(k+1) gap, or the final term.  Where
        # d_{k+1} = 0 that term's one-sided gradient is 2 cost s s' = 2 cost
        # edge, or 0 while r_{k+1} > 0 keeps the stage-(k+1) gap clipped
        np.multiply(c, gap[1:], out=weight[:-1])
        weight[-1] = cp * nxt[-1]
        grad = 2.0 * (weight * slope - c * gap)
        if edge is not None:
            grad += 2.0 * cost * edge * np.append(r[1:] == 0.0, True)
        # KKT: grad_k = 0 where r_k > 0 and grad_k >= 0 where r_k = 0, each
        # residual weighted by the range [0, d_k] of its kept distance
        residual = np.where(r > 0.0, grad, np.minimum(grad, 0.0))
        if (np.abs(residual) * dist).max() <= _KKT_TOL * value:
            break
        # Hessian: stage k's own gap gives 2c (kept where the gap is clipped,
        # so the convex case stays positive definite), the next stage or the
        # final term 2 cost s'^2 + 2 w s''; -2c s'(r_{k-1}) couples k-1 and k
        diag = 2.0 * (c + cost * slope**2 + weight * curv)
        off = -2.0 * c * slope[:-1]
        free = (r > 0.0) | (grad <= 0.0)
        if free.all():
            p = _thomas(diag, off, -grad)
        else:
            p = _thomas(np.where(free, diag, 1.0), np.where(free[:-1] & free[1:], off, 0.0),
                        np.where(free, -grad, 0.0))
        if p is None:
            p = -grad / (np.abs(diag).max() or 1.0)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.maximum(r + alpha * p, 0.0)
            decrease = grad @ (r - trial)
            # near the optimum the decrease is below the objective's rounding
            if decrease > 0.0 and (value - terms(trial)[3]
                                   >= _ARMIJO * decrease - _ROUNDING * value):
                break
            alpha *= 0.5
        else:
            break  # no decrease left above rounding
        r = trial
    return r


def dp_oracle(problem: ShiftProblem) -> tuple[ShiftSchedule, float]:
    """Independent verification oracle: projected Newton in r = (1 - eta) d.

    In the kept distances r_k = (1 - eta_k) d_k the next distance depends on
    r_k alone, so the objective c sum_k (d_k - r_k)_+^2 + c' d_{N-1}^2 is a
    chain over the box r >= 0 with a tridiagonal Hessian.  It is convex for
    Simple errors and for WeakAware errors with a1 <= L a0; there one solve
    from r = 0 (the all-ones schedule) reaches the optimum.  For a1 > L a0
    the solve runs from the kept distances of four schedules, all-ones,
    all-1/2, all-zeros (no shift before the last) and, for 1/2 <= L <= 2,
    three-phase, to a local minimum each.  Each projected Newton iteration
    costs O(N): it stops once every shift's first-order gain is at most
    1e-12 of the objective (the KKT conditions), or when the line search
    finds no decrease above rounding.  The returned pair is the
    best of the solved schedules and the starts themselves, with its exact
    objective: an upper bound on the true optimum and never above any
    start's objective, though for a1 > L a0 not always the global one.  On
    Simple instances it matches the closed forms to 8e-16 relative (the
    worst over the 1000 instances of `verify shifts`).
    """
    n = problem.n
    step, slopes, convex = _chain(problem)
    starts = [np.ones(n)]
    if not convex:
        starts += [np.append(np.full(n - 1, 0.5), 1.0), np.append(np.zeros(n - 1), 1.0)]
        if 0.5 <= problem.L <= 2.0:
            starts.append(three_phase_schedule(n, problem.L).eta)
    found = []  # (schedule, objective); a solved schedule wins a tie with its start
    for eta in starts:
        start = ShiftSchedule(eta)
        trace = evaluate_schedule(problem, start)
        # an overflowed start distance leaves no finite kept distance to solve from
        if n > 1 and math.isfinite(trace.total):
            r = (1.0 - start.eta[:-1]) * trace.distances[:-1]
            r = _projected_newton(problem, step, slopes, r)
            dist = np.append(problem.d0, step(r)[:-1])
            solved = np.append(1.0 - np.divide(r, dist, out=np.zeros_like(r), where=dist > 0.0), 1.0)
            schedule = ShiftSchedule(np.clip(solved, 0.0, 1.0))
            found.append((schedule, evaluate_schedule(problem, schedule).total))
        found.append((start, trace.total))
    return min(found, key=lambda item: item[1])
