"""Span tracing installed from the benchmark's side, around klbounds' public functions.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` replaces module
attributes (and ``Gaussian.__post_init__``) with timing wrappers; klbounds
calls its own modules through attribute lookups (``shifts.evaluate_schedule``,
``chains.simulate_chain``, ...), so nested calls become child spans.
``uninstall`` puts the original objects back, so untraced passes run the
unmodified program.

A span is (op id, span id, parent id, name, start ns, end ns, work); its
clock is the process's CPU time, the clock of the end-to-end op times.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    op: int
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    work: Optional[dict]


@dataclass(frozen=True)
class Target:
    owner: object
    attr: str
    name: Callable[[tuple, dict], str]
    work: Optional[Callable[[tuple, dict], dict]] = None


def _fixed(name: str):
    return lambda args, kwargs: name


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def targets(klbounds) -> list[Target]:
    """The public functions timed per layer, keyed by the metric names they feed."""
    gauss, shifts, bounds = klbounds.gauss, klbounds.shifts, klbounds.bounds
    schemes, verify, chains = klbounds.schemes, klbounds.verify, klbounds.chains
    from klbounds import cli

    def sim_work(args, kwargs):
        pot, config = args[0], args[1]
        d = pot.dimension
        return {
            "elem_steps": config.samples * config.n_steps * d,
            "iterates_mb": config.samples * (config.n_steps + 1) * d * 8 / 1e6,
        }

    def scheme_name(index, key):
        def name(args, kwargs):
            scheme = _arg(args, kwargs, index, key)
            return {"LMC": "lmc", "RMLMC": "rmlmc", "ExactDiffusion": "ou"}[scheme]
        return name

    closed = _fixed("shifts.closed_form")
    return [
        Target(gauss.Gaussian, "__post_init__", _fixed("gauss.Gaussian")),
        Target(gauss, "kl_gaussian", _fixed("gauss.kl_gaussian")),
        Target(shifts, "three_phase_schedule", _fixed("shifts.three_phase_schedule")),
        Target(shifts, "evaluate_schedule", _fixed("shifts.evaluate_schedule"),
               lambda args, kwargs: {"steps": args[0].n}),
        Target(shifts, "dp_oracle", _fixed("shifts.dp_oracle"),
               lambda args, kwargs: {"steps": args[0].n}),
        Target(shifts, "optimal_value_L1", closed),
        Target(shifts, "optimal_value_Lgeneral", closed),
        Target(shifts, "final_bound_with_cross_reg", closed),
        Target(bounds, "kl_framework_bound",
               lambda args, kwargs: "bounds.kl_framework_bound."
               + _arg(args, kwargs, 3, "mode", "closed_form")),
        Target(bounds, "kl_simple_bound", _fixed("bounds.kl_simple_bound")),
        Target(bounds, "toy_assumptions", _fixed("bounds.toy_assumptions")),
        Target(schemes, "langevin_kernel_params", _fixed("schemes.langevin_kernel_params")),
        Target(verify, "exact_quadratic_assumptions",
               _fixed("verify.exact_quadratic_assumptions")),
        Target(chains, "estimate_local_errors",
               lambda args, kwargs: "chains.estimate_local_errors."
               + scheme_name(1, "scheme")(args, kwargs)),
        Target(chains, "propagate_law",
               lambda args, kwargs: "chains.propagate_law."
               + scheme_name(2, "scheme")(args, kwargs)),
        Target(chains, "simulate_chain", _fixed("chains.simulate_chain"), sim_work),
        Target(chains, "dump_samples_csv", _fixed("chains.dump_samples_csv"),
               lambda args, kwargs: {"bytes": os.path.getsize(args[0])}),
        Target(cli, "main", _fixed("cli.main")),
    ]


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def install(self) -> None:
        for t in self.targets:
            original = getattr(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _record(self, name, fn, args, kwargs, work_fn=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time_ns()
            self._stack.pop()
            work = work_fn(args, kwargs) if work_fn is not None else None
            self.spans.append(Span(self._op, span_id, parent, name, start, end, work))

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(target.name(args, kwargs), fn, args, kwargs, target.work)

        return traced

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation as the root span ``op``."""
        self._op = op_id
        return self._record("op", fn, (), {})


# (span name, unit of its mean inclusive time per call); cli.main reports self time instead.
FUNCTIONS = [
    ("gauss.Gaussian", "ms"),
    ("gauss.kl_gaussian", "ms"),
    ("shifts.three_phase_schedule", "ms"),
    ("shifts.evaluate_schedule", "ms"),
    ("shifts.dp_oracle", "ms"),
    ("shifts.closed_form", "us"),
    ("bounds.kl_framework_bound.certified", "ms"),
    ("bounds.kl_framework_bound.closed_form", "us"),
    ("bounds.kl_simple_bound", "us"),
    ("schemes.langevin_kernel_params", "us"),
    ("verify.exact_quadratic_assumptions", "ms"),
    ("chains.estimate_local_errors.lmc", "ms"),
    ("chains.estimate_local_errors.rmlmc", "ms"),
    ("chains.propagate_law.lmc", "ms"),
    ("chains.propagate_law.ou", "ms"),
    ("chains.simulate_chain", "ms"),
    ("chains.dump_samples_csv", "ms"),
    ("cli.main", None),
]
LAYERS = ("gauss", "shifts", "bounds", "schemes", "verify", "chains", "cli")
_SCALE = {"ms": 1e-6, "us": 1e-3, "s": 1e-9}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"setup.import_klbounds_s": "s"}
    for name, unit in FUNCTIONS:
        if unit is not None:
            units[f"{name}.{unit}"] = unit
    units.update({
        "shifts.schedule_steps_per_s": "1/s",
        "shifts.dp_oracle.ms_per_step": "ms",
        "chains.simulate_chain.elem_steps_per_s": "1/s",
        "chains.simulate_chain.iterates_mb": "MB",
        "chains.dump_samples_csv.mb_per_s": "MB/s",
        "cli.main.self_ms": "ms",
    })
    for name, _ in FUNCTIONS:
        units[f"{name}.calls"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_ms_per_op"] = "ms"
    units.update({
        "trace.layer_share_pct": "%",
        "trace.overhead_pct": "%",
        "trace.ops": "count",
        "bound_over_exact_p50": "1",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced passes.

    Functions a workload never calls report 0.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    work: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    layer_self: dict[str, int] = defaultdict(int)
    op_ns = 0
    ops = 0
    for s in spans:
        dur = s.end_ns - s.start_ns
        own = dur - child_ns.get(s.id, 0)
        if s.name == "op":
            op_ns += dur
            ops += 1
            continue
        calls[s.name] += 1
        total_ns[s.name] += dur
        self_ns[s.name] += own
        layer_self[s.name.split(".")[0]] += own
        for key, val in (s.work or {}).items():
            work[s.name][key] += val

    out: dict[str, float] = {}
    for name, unit in FUNCTIONS:
        if unit is not None:
            out[f"{name}.{unit}"] = _ratio(total_ns[name] * _SCALE[unit], calls[name])
    out["shifts.schedule_steps_per_s"] = _ratio(
        work["shifts.evaluate_schedule"]["steps"], total_ns["shifts.evaluate_schedule"] * 1e-9)
    out["shifts.dp_oracle.ms_per_step"] = _ratio(
        total_ns["shifts.dp_oracle"] * 1e-6, work["shifts.dp_oracle"]["steps"])
    sim = "chains.simulate_chain"
    out[f"{sim}.elem_steps_per_s"] = _ratio(work[sim]["elem_steps"], total_ns[sim] * 1e-9)
    out[f"{sim}.iterates_mb"] = _ratio(work[sim]["iterates_mb"], calls[sim])
    dump = "chains.dump_samples_csv"
    out[f"{dump}.mb_per_s"] = _ratio(work[dump]["bytes"] / 1e6, total_ns[dump] * 1e-9)
    out["cli.main.self_ms"] = _ratio(self_ns["cli.main"] * 1e-6, calls["cli.main"])
    for name, _ in FUNCTIONS:
        out[f"{name}.calls"] = _ratio(calls[name], ops)
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = _ratio(layer_self[layer] * 1e-6, ops)
    out["trace.layer_share_pct"] = 100.0 * _ratio(sum(layer_self.values()), op_ns)
    out["trace.ops"] = float(ops)
    return out
