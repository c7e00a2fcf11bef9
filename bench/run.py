"""Benchmark for klbounds: one closed-loop workload per process.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; klbounds is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  See
bench/README.md for the workloads and what each metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

# One client on a shared 2-core machine: BLAS and OpenMP get one thread.
# Set before numpy is first imported.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("certify", "oracle", "exact-law", "sample-cli")
SETUP_REPEATS = 4  # fresh processes that repeat the set-up, besides this one
SMOKE_OPS = 6


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_klbounds() -> float:
    """Import klbounds from this checkout's src/ and return the seconds it took."""
    if not os.path.isfile(os.path.join(SRC, "klbounds", "__init__.py")):
        fail(f"no klbounds sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import klbounds
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(klbounds.__file__))) != SRC:
        fail(f"klbounds was imported from {klbounds.__file__}, not from {SRC}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "platform": platform.platform(),
    }


class Outcome:
    """Counts and problems of the ops of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op, fn):
        """Run one op through ``fn``, check its output; return its op time in ns or None.

        Op time is the process's CPU time (user and system, all threads), not
        wall time: the ops compute in one thread and never wait, so on an
        unloaded machine the two agree, while on a shared host wall time also
        counts stalls of seconds in which the machine runs someone else.
        """
        self.attempted += 1
        t0 = time.process_time_ns()
        try:
            out = fn(op.run)
        except Exception:  # an op that raises is counted as failed; the run goes on
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.process_time_ns() - t0
        try:
            problems = op.check(out)
        except Exception as exc:  # malformed output: a check problem, not a crash
            problems = [f"check raised {exc!r}"]
        self.problems.extend(f"{op.kind}: {p}" for p in problems)
        return elapsed


def direct(run):
    return run()


def warm_up(pool, outcome: Outcome) -> None:
    """One checked op of each kind; not counted among the timed ops."""
    seen = set()
    for op in pool:
        if op.kind not in seen:
            seen.add(op.kind)
            outcome.record(op, direct)
    outcome.attempted = outcome.failed = 0


def timed_loop(pool, seconds: float, outcome: Outcome) -> list[list[float]]:
    """Closed loop over whole passes until ``seconds`` of op time.

    Returns the latency in ms of each pool op in each pass, None where it failed.
    """
    passes: list[list[float]] = []
    spent_ms = 0.0
    while spent_ms < seconds * 1e3:
        latencies = []
        for op in pool:
            ns = outcome.record(op, direct)
            latencies.append(None if ns is None else ns / 1e6)
        spent_ms += sum(ms for ms in latencies if ms is not None)
        passes.append(latencies)
    return passes


def traced_loop(pool, seconds: float, outcome: Outcome, tracer) -> float:
    """Alternate traced and untraced passes; return the tracing overhead in percent.

    Both kinds of pass run the same ops equally often, so the ratio of their
    op times is the overhead.
    """
    op_ns = [0, 0]  # untraced, traced
    passes = 0
    while sum(op_ns) < seconds * 1e9 or passes % 2:
        traced = passes % 2 == 0
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(pool):
                if traced:
                    ns = outcome.record(op, lambda run, i=i: tracer.run_op(passes * len(pool) + i, run))
                else:
                    ns = outcome.record(op, direct)
                op_ns[traced] += ns or 0
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
    return 100.0 * (op_ns[1] / op_ns[0] - 1.0) if op_ns[0] else 0.0


def repeat_setup(args) -> list[float]:
    """Set-up times of fresh processes running the same workload and seed."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_workload(args, import_s: float) -> dict:
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        pool = workloads.BUILDERS[args.workload](args.seed, workdir)
        outcome = Outcome()
        warm_up(pool, outcome)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            return {"setup_s": setup_s}
        if args.trace:
            import klbounds

            tracer = tracing.Tracer(tracing.targets(klbounds))
            overhead_pct = traced_loop(pool, args.seconds, outcome, tracer)
            metrics = tracing.layer_metrics(tracer.spans)
            metrics["trace.overhead_pct"] = overhead_pct
            metrics["setup.import_klbounds_s"] = import_s
            ratios = [op.stats["bound_over_exact"] for op in pool if "bound_over_exact" in op.stats]
            metrics["bound_over_exact_p50"] = statistics.median(ratios) if ratios else 0.0
            units = tracing.metric_units()
            write_spans(args, tracer.spans)
        else:
            passes = timed_loop(pool, args.seconds, outcome)
            setups = [setup_s] + repeat_setup(args)
            latencies = [ms for p in passes for ms in p if ms is not None]
            deciles = statistics.quantiles(latencies, n=10, method="inclusive")
            # Each op's median over the passes, so that an op the host preempted
            # once does not move the throughput; failed ops count in no pass.
            per_op = [statistics.median(done) for done in
                      ([ms for ms in column if ms is not None] for column in zip(*passes)) if done]
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(per_op) / (sum(per_op) / 1e3),
                "op_p50_ms": deciles[4],
                "op_p90_ms": deciles[8],
                "peak_rss_mb": peak_rss_mb(),
            }
            units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                     "op_p90_ms": "ms", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "problems": outcome.problems[:20],
    }


def write_spans(args, spans) -> None:
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s._asdict()) + "\n")


def smoke() -> int:
    """A few checked ops per workload, untraced and traced; exit 1 on any problem."""
    import klbounds
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    bad = 0
    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=OUT_DIR)
        try:
            pool = workloads.BUILDERS[name](0, workdir)[:SMOKE_OPS]
            outcome = Outcome()
            for op in pool:
                outcome.record(op, direct)
            tracer = tracing.Tracer(tracing.targets(klbounds))
            tracer.install()
            try:
                for i, op in enumerate(pool):
                    outcome.record(op, lambda run, i=i: tracer.run_op(i, run))
            finally:
                tracer.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ok = not outcome.problems and not outcome.failed
        bad += not ok
        print(f"{name:<10} {outcome.attempted} ops, {outcome.failed} failed, "
              f"{len(outcome.problems)} check problems, {len(tracer.spans)} spans: "
              f"{'ok' if ok else 'FAIL'}")
        for p in outcome.problems[:5]:
            print(f"  {p}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a few checked ops of every workload and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print its duration (used for set-up repeats)")
    args = parser.parse_args()
    import_s = import_klbounds()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args, import_s)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in result["problems"]:
        print(f"check failed: {p}")
    print("environment: " + json.dumps(env))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
