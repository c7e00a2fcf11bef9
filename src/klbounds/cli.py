"""Batch verification and reproduction command line tool.

Subcommands: bound, shifts, plan, sample, local-errors, verify.  Parameters
come from a flat key=value config file (`--config`) overridden by repeated
`--set key=value` flags; every command writes a CSV (header row, 17
significant digits, trailing `# tool_version, config_hash` comment) and a
human-readable summary on stdout.  Exit codes: 0 success, 1 verification
failure, 2 usage/validation error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace

import numpy as np

from . import __version__, bounds, chains, gauss, schemes, shifts, verify

__all__ = ["main", "entry"]


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def load_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise UsageError(f"{path}:{line_no}: expected key=value")
                    key, val = line.split("=", 1)
                    cfg[key.strip()] = val.strip()
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def config_hash(cfg: dict[str, str]) -> str:
    blob = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _get(cfg, key, cast, default=None, required=False):
    if key not in cfg:
        if required:
            raise UsageError(f"missing required key `{key}`")
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid value for key `{key}`: {cfg[key]!r}") from exc


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def write_csv(path: str, header: list[str], rows: list[list], cfg_hash: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
        fh.write(f"# tool_version={__version__}, config_hash={cfg_hash}\n")


def _schedule_hash(schedule: shifts.ShiftSchedule) -> str:
    return hashlib.sha256(np.ascontiguousarray(schedule.eta).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def cmd_bound(cfg: dict[str, str], out: str, constant: float) -> int:
    n = _get(cfg, "n", int, required=True)
    if n < 1:
        raise UsageError("key `n` must be >= 1")
    rows: list[list] = []
    if "toy_w" in cfg or "toy_sigma" in cfg:
        w = _get(cfg, "toy_w", float, required=True)
        sigma = _get(cfg, "toy_sigma", float, required=True)
        k = bounds.toy_assumptions(w, sigma)
        if constant != 1.0:
            k = replace(k, implied_constant=constant)
        w2_init = _get(cfg, "w2_init", float, default=0.0)
        rows.append([n, "exact", gauss.toy_exact_kl(n, w, sigma), 1.0, "", ""])
    else:
        try:
            k = bounds.KernelAssumptions(
                L=_get(cfg, "L", float, required=True),
                gamma=_get(cfg, "gamma", float, default=0.0),
                c=_get(cfg, "c", float, required=True),
                c_prime=_get(cfg, "c_prime", float, required=True),
                b_bar=_get(cfg, "b_bar", float, default=0.0),
                e_weak=_get(cfg, "e_weak", float, default=0.0),
                e_strong=_get(cfg, "e_strong", float, default=0.0),
                a=_get(cfg, "a", float, default=0.0),
                implied_constant=constant,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        w2_init = _get(cfg, "w2_init", float, default=0.0)
    default_modes = ["closed_form"]
    if k.L <= 1.0:
        default_modes.insert(0, "simple")
    if 0.5 <= k.L <= 2.0:
        default_modes.append("certified")
    modes = cfg.get("modes", ",".join(default_modes)).split(",")
    for mode in [m.strip() for m in modes if m.strip()]:
        try:
            if mode == "simple":
                rep = bounds.kl_simple_bound(k, n, w2_init)
            elif mode == "closed_form":
                rep = bounds.kl_framework_bound(k, n, w2_init, mode="closed_form")
            elif mode == "certified":
                rep = bounds.kl_framework_bound(k, n, w2_init, mode="certified")
            else:
                raise UsageError(f"invalid value for key `modes`: {mode!r}")
        except ValueError as exc:
            raise UsageError(f"mode {mode!r} rejected: {exc}") from exc
        if rep.mode == "certified":
            rows.append([n, mode, rep.value, rep.constant_used,
                         _schedule_hash(rep.schedule), rep.trace.distances[-1]])
        else:
            rows.append([n, mode, rep.value, rep.constant_used, "", ""])
    cfg_h = config_hash(cfg)
    write_csv(out, ["n", "mode", "value", "constant_used", "schedule_hash", "d_last"],
              rows, cfg_h)
    print(f"bound evaluation (n={n}, config {cfg_h})")
    for row in rows:
        print(f"  {row[1]:<12} {_fmt(row[2])}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def cmd_shifts(cfg: dict[str, str], out: str, constant: float) -> int:
    del constant
    n = _get(cfg, "n", int, required=True)
    big_l = _get(cfg, "L", float, default=1.0)
    a = _get(cfg, "a", float, required=True)
    d0 = _get(cfg, "d0", float, required=True)
    c = _get(cfg, "c", float, default=1.0)
    c_prime = _get(cfg, "c_prime", float, default=c)
    b = _get(cfg, "b", float, default=0.0)
    try:
        if big_l == 1.0:
            closed = shifts.optimal_value_L1(n, a, d0)
            schedule, _ = shifts.optimal_shifts_L1(n, a, d0)
        else:
            closed = shifts.optimal_value_Lgeneral(n, a, d0, big_l)
            schedule = shifts.optimal_shifts_Lgeneral(n, a, d0, big_l)
        problem = shifts.ShiftProblem(n, big_l, d0, shifts.SimpleError(a),
                                      c=c, c_prime=c_prime, b=b)
        trace = shifts.evaluate_schedule(problem, schedule)
        with_cross = shifts.final_bound_with_cross_reg(n, a, d0, big_l, c, c_prime, b)
        dp_value = None
        if n <= 30 and _get(cfg, "dp", int, default=1):
            uniform = shifts.ShiftProblem(n, big_l, d0, shifts.SimpleError(a))
            _, dp_value = shifts.dp_oracle(uniform)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [[k, schedule.eta[k], trace.distances[k]] for k in range(n)]
    cfg_h = config_hash(cfg)
    write_csv(out, ["step", "eta", "distance"], rows, cfg_h)
    print(f"shift schedule (n={n}, L={_fmt(big_l)}, a={_fmt(a)}, d0={_fmt(d0)})")
    print(f"  uniform-cost closed form : {_fmt(closed)}")
    if dp_value is not None:
        rel = abs(dp_value - closed) / max(abs(closed), 1e-12)
        print(f"  dp oracle                : {_fmt(dp_value)}  (rel gap {rel:.2e})")
    print(f"  (c, c', b) objective     : {_fmt(trace.total)}")
    print(f"  closed form w/ cross-reg : {_fmt(with_cross)}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(cfg: dict[str, str], out: str, constant: float) -> int:
    schemes_req = cfg.get("scheme", ",".join(schemes.PLAN_SCHEMES)).split(",")
    settings_req = cfg.get("setting", ",".join(schemes.SETTINGS)).split(",")
    cells = [(sc.strip(), st.strip()) for sc in schemes_req for st in settings_req]
    params = schemes.PlanParams(
        alpha=_get(cfg, "alpha", float, required=True),
        beta=_get(cfg, "beta", float, required=True),
        d=_get(cfg, "d", int, required=True),
        eps=_get(cfg, "eps", float, required=True),
        zeta0=_get(cfg, "zeta0", float, default=0.0),
        zeta1=_get(cfg, "zeta1", float, default=0.0),
        w2_init=_get(cfg, "W", float, default=None),
        chi2_init=_get(cfg, "chi2_init", float, default=None),
    )
    rows, md = [], []
    for scheme, setting in cells:
        try:
            res = schemes.plan_iterations(setting, scheme, params, constant)
            res_2d = schemes.plan_iterations(
                setting, scheme,
                schemes.PlanParams(**{**params.__dict__, "d": 2 * params.d}), constant)
            res_he = schemes.plan_iterations(
                setting, scheme,
                schemes.PlanParams(**{**params.__dict__, "eps": params.eps / 2}), constant)
        except ValueError as exc:
            raise UsageError(f"cell {scheme}/{setting}: {exc}") from exc
        d_ratio = res_2d.n_powerlaw / res.n_powerlaw
        e_ratio = res_he.n_powerlaw / res.n_powerlaw
        rows.append([scheme, setting, res.h, res.n_iterations, res.n_powerlaw,
                     d_ratio, e_ratio, res.polylog, res.assumptions_echo])
        md.append(
            f"| {scheme} | {setting} | {res.h:.6g} | {res.n_iterations} "
            f"| {d_ratio:.6g} | {e_ratio:.6g} | {res.assumptions_echo} |"
        )
    cfg_h = config_hash(cfg)
    write_csv(
        out,
        ["scheme", "setting", "h", "n_iterations", "n_powerlaw",
         "n_ratio_d_doubled", "n_ratio_eps_halved", "polylog", "initialization"],
        rows, cfg_h,
    )
    print("| scheme | setting | h | N | N(2d)/N(d) | N(eps/2)/N(eps) | initialization |")
    print("|---|---|---|---|---|---|---|")
    for line in md:
        print(line)
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def _potential_from_cfg(cfg: dict[str, str]) -> chains.PotentialSpec:
    prec = _get(cfg, "precision", _float_list, default=[1.0])
    mode = _get(cfg, "mode", _float_list, default=[0.0] * len(prec))
    if len(mode) != len(prec):
        raise UsageError("keys `precision` and `mode` must have matching lengths")
    return chains.PotentialSpec.quadratic_potential(np.diag(prec), np.asarray(mode))


def cmd_sample(cfg: dict[str, str], out: str, constant: float, seed: int) -> int:
    del constant
    pot = _potential_from_cfg(cfg)
    try:
        config = chains.SamplerConfig(
            scheme=cfg.get("scheme", "LMC"),
            h=_get(cfg, "h", float, required=True),
            n_steps=_get(cfg, "n", int, required=True),
            seed=seed,
            samples=_get(cfg, "samples", int, default=1000),
        )
        x0 = np.asarray(_get(cfg, "x0", _float_list, default=[0.0] * pot.dimension))
        result = chains.simulate_chain(pot, config, x0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    chains.dump_samples_csv(out, result)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(f"# tool_version={__version__}, config_hash={config_hash(cfg)}\n")
    emp_mean = result.empirical_mean()
    emp_cov = result.empirical_cov()
    print(f"sampled {config.samples} replicas x {config.n_steps} steps ({config.scheme})")
    print(f"  empirical mean: {np.array2string(emp_mean, precision=6)}")
    print(f"  empirical cov : {np.array2string(emp_cov, precision=6)}")
    if config.scheme in ("LMC", "ExactDiffusion"):
        law = chains.propagate_law(
            pot, gauss.Gaussian(x0, np.zeros((pot.dimension, pot.dimension))),
            config.scheme, config.h, config.n_steps,
        )
        print(f"  exact mean    : {np.array2string(law.mean, precision=6)}")
        print(f"  exact cov     : {np.array2string(law.cov, precision=6)}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# local-errors
# ---------------------------------------------------------------------------


def cmd_local_errors(cfg: dict[str, str], out: str, constant: float, seed: int) -> int:
    del constant
    pot = _potential_from_cfg(cfg)
    scheme = cfg.get("scheme", "LMC")
    h_grid = _get(cfg, "h_grid", _float_list, default=None)
    if h_grid is None:
        h_grid = [_get(cfg, "h", float, required=True)]
    x_val = _get(cfg, "x", _float_list, default=[1.0] * pot.dimension)
    samples = _get(cfg, "samples", int, default=200_000)
    rows = []
    for h in h_grid:
        try:
            est = chains.estimate_local_errors(pot, scheme, np.asarray(x_val), h,
                                               samples=samples, seed=seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rows.append([h, est.weak, est.strong, est.weak_stderr, est.strong_stderr,
                     int(est.exact), int(est.underpowered)])
    cfg_h = config_hash(cfg)
    write_csv(out, ["h", "weak", "strong", "weak_stderr", "strong_stderr",
                    "exact", "underpowered"], rows, cfg_h)
    print(f"local errors for {scheme} at x={x_val}")
    for row in rows:
        print(f"  h={_fmt(row[0])}: weak={_fmt(row[1])} strong={_fmt(row[2])}")
    if len(h_grid) >= 3:
        weak_slope = verify.fit_loglog_slope(h_grid, [r[1] for r in rows])
        strong_slope = verify.fit_loglog_slope(h_grid, [r[2] for r in rows])
        print(f"  slopes: weak {weak_slope:.3f}, strong {strong_slope:.3f}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(suite: str, out: str) -> int:
    try:
        rows = verify.run_suite(suite)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    csv_rows = [[r.check, r.observed, r.reference, r.tolerance, int(r.passed)]
                for r in rows]
    write_csv(out, ["check", "observed", "reference", "tolerance", "passed"],
              csv_rows, config_hash({"suite": suite}))
    failed = [r for r in rows if not r.passed]
    print(f"suite {suite}: {len(rows) - len(failed)}/{len(rows)} checks passed")
    for r in failed[:20]:
        print(f"  FAIL {r.check}: observed {_fmt(r.observed)} vs "
              f"reference {_fmt(r.reference)} (tol {_fmt(r.tolerance)})")
    print(f"wrote {out}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klbounds",
        description="KL local-error bounds: evaluation, planning, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value parameter file")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key")
    common.add_argument("--out", help="output CSV path")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--constant", type=float, default=1.0,
                        help="multiplicative constant for order-only formulas")
    for name in ("bound", "shifts", "plan", "sample", "local-errors"):
        sub.add_parser(name, parents=[common])
    ver = sub.add_parser("verify", parents=[common])
    ver.add_argument("suite", help=f"one of {sorted(verify.SUITES)}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or f"klbounds_{args.command.replace('-', '_')}.csv"
    try:
        cfg = load_config(args.config, args.set)
        if args.command == "bound":
            return cmd_bound(cfg, out, args.constant)
        if args.command == "shifts":
            return cmd_shifts(cfg, out, args.constant)
        if args.command == "plan":
            return cmd_plan(cfg, out, args.constant)
        if args.command == "sample":
            return cmd_sample(cfg, out, args.constant, args.seed)
        if args.command == "local-errors":
            return cmd_local_errors(cfg, out, args.constant, args.seed)
        if args.command == "verify":
            return cmd_verify(args.suite, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
