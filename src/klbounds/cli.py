"""Batch verification and reproduction command line tool.

Subcommands and the flags each takes (any other flag exits 2 with the
subcommand's usage line):

    bound         --config --set --out --constant
    shifts        --config --set --out
    plan          --config --set --out --constant
    sample        --config --set --out --seed
    local-errors  --config --set --out
    verify        SUITE --out

Parameters come from a flat key=value config file (`--config`) overridden
by repeated `--set key=value` flags.  A config key the command never reads
is an error: nothing is computed from a misspelt or conflicting key.  Every
command writes a CSV (header row, 17 significant digits, trailing
`# tool_version, config_hash` comment) and a human-readable summary on
stdout.  Exit codes: 0 success, 1 verification failure, 2 usage/validation
error.
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


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: it reports unknown arguments under its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


class Config(dict):
    """Flat key=value parameters; `read` collects every key a command asks for."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def load_config(path: str | None, overrides: list[str] | None) -> Config:
    cfg = Config()
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


def _get(cfg: Config, key, cast=str, default=None, required=False):
    cfg.read.add(key)
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


def write_csv(path: str, table, cfg_hash: str) -> None:
    """Write `table`, a (header, rows) pair or a ChainResult, and the trailer line."""
    if isinstance(table, chains.ChainResult):
        chains.dump_samples_csv(path, table)
    else:
        header, rows = table
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"# tool_version={__version__}, config_hash={cfg_hash}\n")


def _schedule_hash(schedule: shifts.ShiftSchedule) -> str:
    return hashlib.sha256(np.ascontiguousarray(schedule.eta).tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Handlers: each takes the config plus the flags its COMMANDS entry names,
# and returns (table, summary lines), with the exit code appended by verify.
# ---------------------------------------------------------------------------


def cmd_bound(cfg: Config, constant: float):
    n = _get(cfg, "n", int, required=True)
    if n < 1:
        raise UsageError("key `n` must be >= 1")
    rows: list[list] = []
    try:
        if "toy_w" in cfg or "toy_sigma" in cfg:
            w = _get(cfg, "toy_w", float, required=True)
            sigma = _get(cfg, "toy_sigma", float, required=True)
            k = bounds.toy_assumptions(w, sigma)
            if constant != 1.0:
                k = replace(k, implied_constant=constant)
            rows.append([n, "exact", gauss.toy_exact_kl(n, w, sigma), 1.0, "", ""])
        else:
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
    modes = _get(cfg, "modes", default=",".join(default_modes)).split(",")
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
    header = ["n", "mode", "value", "constant_used", "schedule_hash", "d_last"]
    summary = [f"bound evaluation (n={n}, config {config_hash(cfg)})"]
    summary += [f"  {row[1]:<12} {_fmt(row[2])}" for row in rows]
    return (header, rows), summary


def cmd_shifts(cfg: Config):
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
            schedule = shifts.optimal_shifts_L1(n, a, d0)
        else:
            closed = shifts.optimal_value_Lgeneral(n, a, d0, big_l)
            schedule = shifts.optimal_shifts_Lgeneral(n, a, d0, big_l)
        problem = shifts.ShiftProblem(n, big_l, d0, shifts.SimpleError(a),
                                      c=c, c_prime=c_prime, b=b)
        trace = shifts.evaluate_schedule(problem, schedule)
        with_cross = shifts.final_bound_with_cross_reg(n, a, d0, big_l, c, c_prime, b)
        _, dp_value = shifts.dp_oracle(shifts.ShiftProblem(n, big_l, d0, shifts.SimpleError(a)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = [[k, schedule.eta[k], trace.distances[k]] for k in range(n)]
    rel = abs(dp_value - closed) / max(abs(closed), 1e-12)
    summary = [f"shift schedule (n={n}, L={_fmt(big_l)}, a={_fmt(a)}, d0={_fmt(d0)})",
               f"  uniform-cost closed form : {_fmt(closed)}",
               f"  dp oracle                : {_fmt(dp_value)}  (rel gap {rel:.2e})",
               f"  (c, c', b) objective     : {_fmt(trace.total)}",
               f"  closed form w/ cross-reg : {_fmt(with_cross)}"]
    return (["step", "eta", "distance"], rows), summary


def cmd_plan(cfg: Config, constant: float):
    schemes_req = _get(cfg, "scheme", default=",".join(schemes.PLAN_SCHEMES)).split(",")
    settings_req = _get(cfg, "setting", default=",".join(schemes.SETTINGS)).split(",")
    cells = [(sc.strip(), st.strip()) for sc in schemes_req for st in settings_req]
    values = dict(
        alpha=_get(cfg, "alpha", float, required=True),
        beta=_get(cfg, "beta", float, required=True),
        d=_get(cfg, "d", int, required=True),
        eps=_get(cfg, "eps", float, required=True),
    )
    # zeta0, zeta1 and W are read only when a requested cell uses them
    if any(sc == "LMC_SMOOTH" for sc, _ in cells):
        values.update(zeta0=_get(cfg, "zeta0", float, default=0.0),
                      zeta1=_get(cfg, "zeta1", float, default=0.0))
    if any(st == "WLC" for _, st in cells):
        values["w2_init"] = _get(cfg, "W", float, default=None)
    params = schemes.PlanParams(**values)
    rows = []
    summary = ["| scheme | setting | h | N | N(2d)/N(d) | N(eps/2)/N(eps) | initialization |",
               "|---|---|---|---|---|---|---|"]
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
        summary.append(
            f"| {scheme} | {setting} | {res.h:.6g} | {res.n_iterations} "
            f"| {d_ratio:.6g} | {e_ratio:.6g} | {res.assumptions_echo} |"
        )
    header = ["scheme", "setting", "h", "n_iterations", "n_powerlaw",
              "n_ratio_d_doubled", "n_ratio_eps_halved", "polylog", "initialization"]
    return (header, rows), summary


def _potential_from_cfg(cfg: Config) -> chains.PotentialSpec:
    prec = _get(cfg, "precision", _float_list, default=[1.0])
    mode = _get(cfg, "mode", _float_list, default=[0.0] * len(prec))
    if len(mode) != len(prec):
        raise UsageError("keys `precision` and `mode` must have matching lengths")
    return chains.PotentialSpec.quadratic_potential(np.diag(prec), np.asarray(mode))


def cmd_sample(cfg: Config, seed: int):
    pot = _potential_from_cfg(cfg)
    try:
        config = chains.SamplerConfig(
            scheme=_get(cfg, "scheme", default="LMC"),
            h=_get(cfg, "h", float, required=True),
            n_steps=_get(cfg, "n", int, required=True),
            seed=seed,
            samples=_get(cfg, "samples", int, default=1000),
        )
        x0 = np.asarray(_get(cfg, "x0", _float_list, default=[0.0] * pot.dimension))
        result = chains.simulate_chain(pot, config, x0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    summary = [
        f"sampled {config.samples} replicas x {config.n_steps} steps ({config.scheme})",
        f"  empirical mean: {np.array2string(result.empirical_mean(), precision=6)}",
        f"  empirical cov : {np.array2string(result.empirical_cov(), precision=6)}",
    ]
    if config.scheme in ("LMC", "ExactDiffusion"):
        law = chains.propagate_law(
            pot, gauss.Gaussian(x0, np.zeros((pot.dimension, pot.dimension))),
            config.scheme, config.h, config.n_steps,
        )
        summary += [f"  exact mean    : {np.array2string(law.mean, precision=6)}",
                    f"  exact cov     : {np.array2string(law.cov, precision=6)}"]
    return result, summary


def cmd_local_errors(cfg: Config):
    # CLI potentials are quadratic, so the local errors are exact: no samples, no seed
    pot = _potential_from_cfg(cfg)
    scheme = _get(cfg, "scheme", default="LMC")
    h_grid = _get(cfg, "h_grid", _float_list, default=None)
    if h_grid is None:
        h_grid = [_get(cfg, "h", float, required=True)]
    x_val = _get(cfg, "x", _float_list, default=[1.0] * pot.dimension)
    rows = []
    for h in h_grid:
        try:
            est = chains.estimate_local_errors(pot, scheme, np.asarray(x_val), h)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rows.append([h, est.weak, est.strong, est.weak_stderr, est.strong_stderr,
                     int(est.exact), int(est.underpowered)])
    summary = [f"local errors for {scheme} at x={x_val}"]
    summary += [f"  h={_fmt(r[0])}: weak={_fmt(r[1])} strong={_fmt(r[2])}" for r in rows]
    if len(h_grid) >= 3:
        weak_slope = verify.fit_loglog_slope(h_grid, [r[1] for r in rows])
        strong_slope = verify.fit_loglog_slope(h_grid, [r[2] for r in rows])
        summary.append(f"  slopes: weak {weak_slope:.3f}, strong {strong_slope:.3f}")
    header = ["h", "weak", "strong", "weak_stderr", "strong_stderr", "exact", "underpowered"]
    return (header, rows), summary


def cmd_verify(cfg: Config):
    suite = _get(cfg, "suite")
    try:
        rows = verify.run_suite(suite)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    csv_rows = [[r.check, r.observed, r.reference, r.tolerance, int(r.passed)]
                for r in rows]
    failed = [r for r in rows if not r.passed]
    summary = [f"suite {suite}: {len(rows) - len(failed)}/{len(rows)} checks passed"]
    summary += [f"  FAIL {r.check}: observed {_fmt(r.observed)} vs "
                f"reference {_fmt(r.reference)} (tol {_fmt(r.tolerance)})" for r in failed[:20]]
    header = ["check", "observed", "reference", "tolerance", "passed"]
    return (header, csv_rows), summary, 1 if failed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Each subcommand's handler and the arguments it takes.  `--config` and
# `--set` build the handler's config; a positional argument becomes the
# config key of its name; `--out` is the CSV path; any other flag is passed
# to the handler as the keyword argument of its name.
COMMANDS = {
    "bound": (cmd_bound, ("--config", "--set", "--out", "--constant")),
    "shifts": (cmd_shifts, ("--config", "--set", "--out")),
    "plan": (cmd_plan, ("--config", "--set", "--out", "--constant")),
    "sample": (cmd_sample, ("--config", "--set", "--out", "--seed")),
    "local-errors": (cmd_local_errors, ("--config", "--set", "--out")),
    "verify": (cmd_verify, ("suite", "--out")),
}

ARGUMENTS = {
    "--config": dict(help="flat key=value parameter file"),
    "--set": dict(action="append", default=[], metavar="KEY=VALUE",
                  help="override one config key"),
    "--out": dict(help="output CSV path"),
    "--seed": dict(type=int, default=0),
    "--constant": dict(type=float, default=1.0,
                       help="multiplicative constant for order-only formulas"),
    "suite": dict(help=f"one of {sorted(verify.SUITES)}"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klbounds",
        description="KL local-error bounds: evaluation, planning, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (_, arguments) in COMMANDS.items():
        command = sub.add_parser(name)
        for argument in arguments:
            command.add_argument(argument, **ARGUMENTS[argument])
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    handler, arguments = COMMANDS[command]
    out = args.pop("out") or f"klbounds_{command.replace('-', '_')}.csv"
    try:
        cfg = load_config(args.pop("config", None), args.pop("set", None))
        cfg.update((key, args.pop(key)) for key in arguments if not key.startswith("-"))
        table, summary, *status = handler(cfg, **args)
        unread = sorted(set(cfg) - cfg.read)
        if unread:
            raise UsageError(f"`{command}` does not read config key(s) "
                             + ", ".join(f"`{key}`" for key in unread))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_csv(out, table, config_hash(cfg))
    for line in summary:
        print(line)
    print(f"wrote {out}")
    return status[0] if status else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
