"""The pair runner's verdict on its runs, from hand-made run records."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run(correct=True, failed=0):
    return {"correct": correct, "failed": failed, "attempted": 10, "metrics": {}}


def test_clean_runs_pass():
    assert bench_pairs.failures({"parent": [run(), run()], "change": [run(), run()]}) == []


def test_each_failing_run_is_named():
    runs = {"parent": [run(), run(failed=2)], "change": [run(correct=False), run()]}
    assert bench_pairs.failures(runs) == [
        "pair 1: parent run has correct=True, failed=2",
        "pair 0: change run has correct=False, failed=0",
    ]
