"""Seeded inputs, operations and output checks for the four workloads.

Each workload is a pool of operations built from ``--seed`` alone; the
timed loop runs the pool in order, in whole passes.  What sets an op's cost
-- its sizes, and for the oracle the problem's shape -- lies on a fixed grid
of the workload, so every seed gets the same spread of op costs; the seed
draws the values, as a Latin hypercube over the other parameters (each
stratified over a fixed range, one seeded point per stratum, strata paired
at random).  Every check compares with ``reference`` (which does not import
klbounds) or with a property the method guarantees; none compares with a
stored output.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import reference as ref
from klbounds import bounds, chains, cli, gauss, shifts, verify


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` lists what is wrong with its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    stats: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, list(BUILDERS).index(workload)])


def _span(u: np.ndarray, lo: float, hi: float, log: bool) -> np.ndarray:
    """Map u in [0, 1] onto [lo, hi], linearly or logarithmically."""
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _strata(rng, k: int, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """k values, one drawn inside each of k equal strata of [lo, hi], in seeded order."""
    return _span((rng.permutation(k) + rng.random(k)) / k, lo, hi, log)


def _sizes(k: int, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """k integer sizes at the midpoints of k equal strata of [lo, hi]; no seed changes them."""
    return np.rint(_span((np.arange(k) + 0.5) / k, lo, hi, log)).astype(int)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _interleave(*groups: list[Op]) -> list[Op]:
    return [op for ops in zip(*groups) for op in ops]


# ---------------------------------------------------------------------------
# certify: long-horizon 1D bounds, O(n) schedule construction and propagation
# ---------------------------------------------------------------------------

CERTIFY_PER_KIND = 24


def _bound_checks(op: Op, reports: dict, exact: float) -> list[str]:
    problems = [f"{mode} bound {r.value!r} is not finite"
                for mode, r in reports.items() if not math.isfinite(r.value)]
    for mode in ("simple", "certified"):
        if not reports[mode].value >= exact:
            problems.append(f"{mode} bound {reports[mode].value!r} < exact KL {exact!r}")
    if exact > 0:
        op.stats["bound_over_exact"] = reports["certified"].value / exact
    return problems


def _toy_op(n: int, w: float, sigma: float) -> Op:
    def run():
        k = bounds.toy_assumptions(w, sigma)
        return {
            "simple": bounds.kl_simple_bound(k, n, 0.0),
            "closed_form": bounds.kl_framework_bound(k, n, 0.0, mode="closed_form"),
            "certified": bounds.kl_framework_bound(k, n, 0.0, mode="certified"),
        }

    exact = ref.toy_exact_kl(n, w, sigma)
    op = Op("toy", run, lambda out: _bound_checks(op, out, exact))
    return op


def _lmc_bound_op(n: int, lam: float, h: float, x0: float) -> Op:
    # W2(delta_x0, N(0, 1/lam))^2 = x0^2 + 1/lam.  The simple bound charges the
    # strong level as its one-step bias a, the level certified mode charges as a0.
    d0 = math.sqrt(x0 * x0 + 1.0 / lam)

    def run():
        k = verify.exact_quadratic_assumptions(lam, h, n, x0)
        return {
            "simple": bounds.kl_simple_bound(replace(k, a=k.e_strong), n, d0),
            "closed_form": bounds.kl_framework_bound(k, n, d0, mode="closed_form"),
            "certified": bounds.kl_framework_bound(k, n, d0, mode="certified"),
        }

    exact = ref.kl_to_target_eig(*ref.lmc_law_eig(lam, x0, h, n), lam)
    op = Op("lmc", run, lambda out: _bound_checks(op, out, exact))
    return op


def certify(seed: int, workdir: str) -> list[Op]:
    """Toy pair at L = 1 with n in [1e4, 3e4]; 1D LMC with n in [5e3, 1e4].

    LMC keeps n * lam * h <= 500: above ~709 the closed-form and certified
    modes overflow in math.expm1 (a known fault, see CHANGES.md), and
    every op here must succeed.
    """
    rng = _rng(seed, "certify")
    k = CERTIFY_PER_KIND
    toy_n = _sizes(k, 1e4, 3e4, log=True)
    toy = [_toy_op(int(n), float(w), float(s))
           for n, w, s in zip(toy_n, _strata(rng, k, 0.02, 0.2), _strata(rng, k, 0.3, 1.5))]
    lmc_n = _sizes(k, 5e3, 1e4, log=True)
    lam = _strata(rng, k, 0.5, 2.0, log=True)
    z = _strata(rng, k, 0.01, 0.05)
    lmc = [_lmc_bound_op(int(n), float(l), float(zz / l), float(x0))
           for n, l, zz, x0 in zip(lmc_n, lam, z, _strata(rng, k, -4.0, 4.0))]
    return _interleave(toy, lmc)


# ---------------------------------------------------------------------------
# oracle: the grid dynamic-programming shift oracle
# ---------------------------------------------------------------------------

ORACLE_PER_KIND = 12
ORACLE_SHAPE_SEED = 20241223
ORACLE_RTOL = 1e-6  # the accuracy dp_oracle documents against the closed forms


def _schedule_problems(schedule, n: int) -> list[str]:
    eta = np.asarray(schedule.eta)
    if eta.shape != (n,):
        return [f"schedule has shape {eta.shape}, want ({n},)"]
    if np.any(eta < 0.0) or np.any(eta > 1.0) or eta[-1] != 1.0:
        return ["schedule leaves [0, 1] or does not end in 1"]
    return []


def _simple_oracle_op(n: int, L: float, a: float, d0: float) -> Op:
    problem = shifts.ShiftProblem(n, L, d0, shifts.SimpleError(a))
    closed_ref = ref.simple_optimum(n, a, d0, L)

    def run():
        schedule, value = shifts.dp_oracle(problem)
        if L == 1.0:
            closed = shifts.optimal_value_L1(n, a, d0)
        else:
            closed = shifts.optimal_value_Lgeneral(n, a, d0, L)
        return schedule, value, closed

    def check(out):
        schedule, value, closed = out
        problems = _schedule_problems(schedule, n)
        if _rel(closed, closed_ref) > 1e-12:
            problems.append(f"closed form {closed!r} vs reference {closed_ref!r}")
        if _rel(value, closed_ref) > ORACLE_RTOL:
            problems.append(f"oracle {value!r} not within 1e-6 of optimum {closed_ref!r}")
        # the oracle evaluates a feasible schedule: never below the optimum
        # beyond rounding
        if value < closed_ref * (1.0 - 1e-12):
            problems.append(f"oracle {value!r} below the optimum {closed_ref!r}")
        if not problems:
            again = ref.shift_objective(schedule.eta, n, L, d0, 1.0, 1.0, a=a)
            if _rel(value, again) > 1e-10:
                problems.append(f"oracle value {value!r} != re-evaluation {again!r}")
        return problems

    return Op("simple", run, check)


def _weak_oracle_op(kind: str, n: int, L: float, a0: float, a1: float, d0: float,
                    c: float, c_prime: float) -> Op:
    problem = shifts.ShiftProblem(n, L, d0, shifts.WeakAwareError(a0, a1), c=c, c_prime=c_prime)
    three_phase = ref.shift_objective(ref.three_phase_eta(n, L), n, L, d0, c, c_prime, a0=a0, a1=a1)
    all_ones = ref.shift_objective(np.ones(n), n, L, d0, c, c_prime, a0=a0, a1=a1)

    def check(out):
        schedule, value = out
        problems = _schedule_problems(schedule, n)
        if problems:
            return problems
        again = ref.shift_objective(schedule.eta, n, L, d0, c, c_prime, a0=a0, a1=a1)
        if _rel(value, again) > 1e-10:
            problems.append(f"oracle value {value!r} != re-evaluation {again!r}")
        # dp_oracle is accurate to 1e-6 relative; its bounded scalar polish stops
        # short of eta = 1, so where all-ones is optimal it lands a few 1e-8 above it.
        for name, other in (("three-phase", three_phase), ("all-ones", all_ones)):
            if value > other * (1.0 + ORACLE_RTOL):
                problems.append(f"oracle {value!r} above the {name} schedule {other!r}")
        return problems

    return Op(kind, lambda: shifts.dp_oracle(problem), check)


def oracle(seed: int, workdir: str) -> list[Op]:
    """Simple (n 10-16), convex WeakAware (a1 <= L a0, n 5-7), non-convex (a1 > L a0, n 4-6).

    The oracle's work (polish sweeps, scalar-search iterations) changes
    sharply with a problem's shape -- n, L and the ratios between d0, a, a0,
    a1, c and c' -- and barely with its scale: multiplying d0 and the error
    levels by s, or both costs by t, multiplies every objective by s^2 or t.
    So the shapes are a fixed Latin hypercube of the workload, and the seed
    draws each problem's s and t.  With shapes drawn per seed, the mean op
    time of the non-convex kind ranged from 33 to 68 ms over ten seeds.
    """
    shape = np.random.default_rng(ORACLE_SHAPE_SEED)
    rng = _rng(seed, "oracle")
    k = ORACLE_PER_KIND
    # half of the Simple problems at L = 1, half contractive
    simple_l = np.where(np.arange(k) % 2 == 0, 1.0, _strata(shape, k, 0.6, 0.95))
    columns = zip(np.rint(_strata(shape, k, 10, 16)).astype(int), simple_l,
                  _strata(shape, k, 0.1, 2.0), _strata(shape, k, 0.0, 4.0),
                  _strata(rng, k, 0.5, 2.0, log=True))
    simple = [_simple_oracle_op(int(n), float(L), float(s * a), float(s * (a + gap)))
              for n, L, a, gap, s in columns]

    def weak(kind, n_lo, n_hi, ratio_lo, ratio_hi):
        columns = zip(np.rint(_strata(shape, k, n_lo, n_hi)).astype(int),
                      _strata(shape, k, 0.6, 1.4), _strata(shape, k, 0.2, 1.5),
                      _strata(shape, k, ratio_lo, ratio_hi), _strata(shape, k, 0.5, 4.0),
                      _strata(shape, k, 0.5, 2.0), _strata(shape, k, 0.5, 2.0),
                      _strata(rng, k, 0.5, 2.0, log=True), _strata(rng, k, 0.5, 2.0, log=True))
        return [_weak_oracle_op(kind, int(n), float(L), float(s * a0), float(s * ratio * L * a0),
                                float(s * d0), float(t * c), float(t * cp))
                for n, L, a0, ratio, d0, c, cp, s, t in columns]

    convex = weak("convex", 5, 7, 0.1, 1.0)
    nonconvex = weak("nonconvex", 4, 6, 1.5, 4.0)
    return _interleave(simple, convex, nonconvex)


# ---------------------------------------------------------------------------
# exact-law: rotated quadratic targets, eigendecompositions and d x d loops
# ---------------------------------------------------------------------------

EXACT_LAW_POOL = 10


def _exact_law_op(rng, d: int, n: int, lam_min: float, lam_max: float, h: float) -> Op:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    lam = np.exp(np.sort(rng.uniform(math.log(lam_min), math.log(lam_max), d)))
    m = rng.standard_normal(d)
    xi = 2.0 * rng.standard_normal(d)
    x = m + q @ xi

    def sym(a):
        return 0.5 * (a + a.T)

    pot = chains.PotentialSpec.quadratic_potential(sym((q * lam) @ q.T), m)
    target = gauss.Gaussian(m, sym((q / lam) @ q.T))
    init = gauss.Gaussian(x, np.zeros((d, d)))
    weak_ref = {s: ref.weak_local_error(s, lam, xi, h) for s in ("LMC", "RMLMC")}
    laws_ref = {}
    for scheme, law in (("LMC", ref.lmc_law_eig), ("ExactDiffusion", ref.ou_law_eig)):
        mean, var = law(lam, xi, h, n)
        laws_ref[scheme] = (m + q @ mean, sym((q * var) @ q.T), ref.kl_to_target_eig(mean, var, lam))

    def run():
        errors = {s: chains.estimate_local_errors(pot, s, x, h) for s in ("LMC", "RMLMC")}
        laws = {s: chains.propagate_law(pot, init, s, h, n) for s in ("LMC", "ExactDiffusion")}
        kls = {s: gauss.kl_gaussian(law, target) for s, law in laws.items()}
        return errors, laws, kls

    def check(out):
        errors, laws, kls = out
        problems = []
        for s, est in errors.items():
            if abs(est.weak - weak_ref[s]) > 1e-8 * weak_ref[s] + 1e-14:
                problems.append(f"{s} weak error {est.weak!r} vs reference {weak_ref[s]!r}")
            if not est.weak <= est.strong:
                problems.append(f"{s} weak error {est.weak!r} > strong {est.strong!r}")
        for s, law in laws.items():
            mean, cov, kl = laws_ref[s]
            if np.max(np.abs(law.mean - mean)) > 1e-9 * (1.0 + np.max(np.abs(mean))):
                problems.append(f"{s} law mean differs from the reference")
            if np.max(np.abs(law.cov - cov)) > 1e-9 * max(1.0, np.max(np.abs(cov))):
                problems.append(f"{s} law covariance differs from the reference")
            if abs(kls[s] - kl) > 1e-7 * (1.0 + abs(kl)):
                problems.append(f"{s} KL {kls[s]!r} vs reference {kl!r}")
        return problems

    return Op("rotated", run, check)


def exact_law(seed: int, workdir: str) -> list[Op]:
    """Rotated quadratic targets at d in [100, 160], LMC / OU laws at n in [800, 1200]."""
    rng = _rng(seed, "exact-law")
    k = EXACT_LAW_POOL
    # largest d with the fewest steps, so (d, n) pairs spread the op cost evenly
    columns = zip(_sizes(k, 100, 160), _sizes(k, 800, 1200)[::-1],
                  _strata(rng, k, 0.05, 0.2, log=True), _strata(rng, k, 2.0, 4.0),
                  _strata(rng, k, 0.02, 0.05))
    return [_exact_law_op(rng, int(d), int(n), float(lo), float(hi), float(h))
            for d, n, lo, hi, h in columns]


# ---------------------------------------------------------------------------
# sample-cli: `klbounds sample` through cli.main, CSV to a scratch directory
# ---------------------------------------------------------------------------

SAMPLE_POOL = 12
Z_BOUND = 6.0  # final-step empirical mean vs exact mean, in standard errors


def _fmt_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _sample_op(workdir: str, index: int, scheme: str, d: int, samples: int, n: int,
               h: float, prec: np.ndarray, mode: np.ndarray, x0: np.ndarray, cli_seed: int) -> Op:
    cfg = os.path.join(workdir, f"sample-{index}.cfg")
    out = os.path.join(workdir, "sample.csv")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(f"scheme={scheme}\nh={h!r}\nn={n}\nsamples={samples}\n"
                 f"precision={_fmt_list(prec)}\nmode={_fmt_list(mode)}\nx0={_fmt_list(x0)}\n")
    argv = ["sample", "--config", cfg, "--out", out, "--seed", str(cli_seed)]
    y0 = x0 - mode
    if scheme == "LMC":
        mean, var = ref.lmc_law_eig(prec, y0, h, n)
    else:
        mean, var = ref.rmlmc_moments(prec, y0, h, n)
    exact_mean, stderr = mode + mean, np.sqrt(var / samples)
    header = "replica,step," + ",".join(f"coord_{j}" for j in range(d))
    x0_text = [float(v) for v in x0]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        # stream the file: the check should not add to the peak resident set
        problems = []
        final = np.empty((samples, d))
        rows = 0
        with open(out, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != header:
                problems.append("CSV header differs")
            line = ""
            for line in fh:
                if line.startswith("#"):
                    break
                if rows == 0:
                    first = line.rstrip("\n").split(",")
                    if first[:2] != ["0", "0"] or [float(v) for v in first[2:]] != x0_text:
                        problems.append("row (0, 0) is not the start x0")
                r, step = divmod(rows, n + 1)
                if step == n:
                    fields = line.rstrip("\n").split(",")
                    if r >= samples or fields[0] != str(r) or fields[1] != str(n):
                        return problems + [f"CSV row {rows} is out of place"]
                    final[r] = [float(v) for v in fields[2:]]
                rows += 1
            trailer = line.rstrip("\n")
            extra = fh.read()
        if rows != samples * (n + 1):
            return problems + [f"CSV has {rows} sample rows, want {samples * (n + 1)}"]
        if not (trailer.startswith("# tool_version=") and ", config_hash=" in trailer) or extra:
            problems.append(f"CSV does not end with the trailer line, got {trailer!r}")
        z = np.abs(final.mean(axis=0) - exact_mean) / stderr
        if np.max(z) > Z_BOUND:
            problems.append(f"final mean {np.max(z):.2f} standard errors from the exact mean")
        return problems

    return Op(scheme, run, check)


def sample_cli(seed: int, workdir: str) -> list[Op]:
    """LMC / RMLMC, d in [8, 10], 200-220 replicas, n in [50, 52], non-zero x0.

    Small enough that a 20 s run completes more than 100 ops, so that the
    90th percentile has ten samples above it.
    """
    rng = _rng(seed, "sample-cli")
    k = SAMPLE_POOL
    dims, reps, steps = _sizes(k, 7.5, 10.5), _sizes(k, 200, 220), _sizes(k, 50, 52)[::-1]
    ops = []
    # h lam n in [0.25, 3]: the chain has not yet forgotten x0 at the final
    # step, so the mean check sees the transient, not only the mode
    for i, (d, samples, n, h) in enumerate(zip(dims, reps, steps, _strata(rng, k, 0.01, 0.02))):
        prec = rng.uniform(0.5, 3.0, d)
        mode = rng.standard_normal(d)
        x0 = mode + rng.uniform(1.5, 3.0, d) * rng.choice([-1.0, 1.0], d)
        ops.append(_sample_op(workdir, i, ("LMC", "RMLMC")[i % 2], int(d), int(samples), int(n),
                              float(h), prec, mode, x0, int(rng.integers(0, 2**31))))
    return ops


BUILDERS = {"certify": certify, "oracle": oracle, "exact-law": exact_law, "sample-cli": sample_cli}
