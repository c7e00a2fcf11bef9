"""Run the benchmark in two checkouts in alternating pairs and summarise them.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload exact-law \
        --pairs 10 --seed 21 --out BENCH_7.json

Each pair runs the command of ``BENCHMARK.json`` (``python3 bench/run.py``)
with ``--workload W --seed S --seconds T --trace 0`` once in each checkout,
one after the other, where T is the ``run_seconds`` of ``BENCHMARK.json``, so
both sides run as long as the benchmark itself runs them.  Even pairs start with the parent and odd pairs with the
change, so a drift of the host during the session falls on both sides alike.
The last line of a run's standard output is its result and the line before
it its environment (see bench/README.md).

For each end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median, Q1 and Q3 over the pairs, and the number of pairs in which the
change beat the parent in the metric's ``better`` direction.  It is written
under ``workloads[W]`` of the JSON file at ``--out``, next to the
environment of the first run; other workloads already in that file are kept,
so one file collects every workload of a change.  The summary is written
even when a run reports ``correct: false`` or failed ops, but the script then
names each such run (side and pair) on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str], args, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in a checkout: (result, environment)."""
    argv = [*command, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("environment: "):
        sys.exit(f"benchmark run in {checkout} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("environment: "))


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict, better: dict) -> dict:
    metrics = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "unit": runs["change"][0]["metrics"][name]["unit"],
            "better": direction,
            **{side: quartiles(values[side]) for side in SIDES},
            "change_wins": wins,
        }
    return metrics


def failures(runs: dict) -> list[str]:
    """One line per run that reports ``correct: false`` or failed ops."""
    return [f"pair {k}: {side} run has correct={r['correct']}, failed={r['failed']}"
            for side in SIDES for k, r in enumerate(runs[side])
            if not r["correct"] or r["failed"] > 0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<k>.json to update")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    runs: dict[str, list] = {side: [] for side in SIDES}
    order, environment = [], None
    for k in range(args.pairs):
        first = SIDES[k % 2]
        order.append(first)
        for side in (first, SIDES[1 - k % 2]):
            result, env = run_once(checkouts[side], spec["command"], args, spec["run_seconds"])
            environment = environment or env
            runs[side].append(result)
            ops = result["metrics"]["ops_per_s"]["value"]
            print(f"pair {k}: {side:<6} correct={result['correct']} "
                  f"failed={result['failed']} ops_per_s={ops:.4g}", flush=True)

    metrics = summarise(runs, better)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["environment"] = environment
    record.setdefault("workloads", {})[args.workload] = {
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "first_in_pair": order,
        "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": metrics,
        "runs": {side: [{k: v["value"] for k, v in r["metrics"].items()} for r in runs[side]]
                 for side in SIDES},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        print(f"{name:<12} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
              f"change wins {m['change_wins']}/{args.pairs}")
    bad = failures(runs)
    for line in bad:
        print(line, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
