"""Hash the outputs of a fixed list of klbounds CLI commands.

Each command runs through ``klbounds.cli.main`` with its CSV written to a
temporary directory.  One line per command gives its exit code (or the
exception it raised), then the sha256 of the CSV, of the captured stdout
and of the captured stderr, with the temporary path masked ("-" where no
CSV was written).  The list covers every subcommand: ``sample`` for all
three schemes, ``local-errors``, ``bound`` for the toy pair and for
explicit constants, ``shifts`` (at L = 1, and at L = 0.9 with the oracle
line at n = 8 and 40), ``plan`` and all five ``verify`` suites, plus the
overflow, NaN-step and NaN toy inputs that must fail cleanly, a misspelt
config key, keys ``plan`` does not read (``chi2_init``, and ``zeta0`` when
no LMC_SMOOTH cell is requested) and a flag the subcommand does not take.
A rejection by the argument parser (``SystemExit``) is recorded as its
exit code.

It imports klbounds from the ``src/`` next to it, so running the same file
in two checkouts and diffing the outputs shows which outputs a change
leaves byte-identical:

    python tools/cli_digest.py > after.txt
    python /path/to/other/checkout/tools/cli_digest.py > before.txt
    diff before.txt after.txt

The five verify suites take most of the run time (about a second on a
2-core x86-64 VM).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from klbounds import cli  # noqa: E402


def _sets(*pairs: str) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


CHAIN_2D = ("h=0.1", "n=20", "samples=50", "precision=1,3", "mode=0.5,0", "x0=1,-1")

COMMANDS = [
    ("sample-lmc", ["sample", "--seed", "3", *_sets("scheme=LMC", *CHAIN_2D)]),
    ("sample-rmlmc", ["sample", "--seed", "3", *_sets("scheme=RMLMC", *CHAIN_2D)]),
    ("sample-ou", ["sample", "--seed", "3", *_sets("scheme=ExactDiffusion", *CHAIN_2D)]),
    ("sample-rmlmc-1d", ["sample", "--seed", "7",
                         *_sets("scheme=RMLMC", "h=0.05", "n=50", "samples=200", "precision=2")]),
    ("local-errors-lmc", ["local-errors", *_sets("scheme=LMC", "h_grid=0.2,0.1,0.05,0.025", "x=1")]),
    ("local-errors-rmlmc", ["local-errors", *_sets(
        "scheme=RMLMC", "h_grid=0.2,0.1,0.05", "precision=1,2,4", "x=1,0,-1")]),
    ("bound-toy", ["bound", *_sets("n=4", "toy_w=0.1", "toy_sigma=1")]),
    ("bound-constants", ["bound", *_sets(
        "n=100", "L=0.99", "c=2.5", "c_prime=10", "e_weak=0.01", "e_strong=0.03", "w2_init=1")]),
    ("bound-overflow", ["bound", *_sets("n=1000", "L=1", "c=1", "c_prime=1", "e_strong=1e200")]),
    ("local-errors-nan-h", ["local-errors", *_sets("h=nan", "x=1")]),
    ("sample-nan-h", ["sample", *_sets("h=nan", "n=5", "samples=3")]),
    ("shifts", ["shifts", *_sets("n=8", "L=0.9", "a=0.2", "d0=2")]),
    ("shifts-L1", ["shifts", *_sets("n=8", "L=1", "a=0.2", "d0=2")]),
    ("plan", ["plan", *_sets("alpha=1", "beta=2", "d=4", "eps=0.5", "W=3")]),
    *[(f"verify-{suite}", ["verify", suite])
      for suite in ("toy", "shifts", "gaussian-lmc", "local-errors", "slopes")],
    ("bound-unknown-key", ["bound", *_sets(
        "n=10", "L=0.9", "c=1", "c_prime=1", "e_strog=0.1")]),
    ("shifts-seed-flag", ["shifts", *_sets("n=8", "L=0.9", "a=0.2", "d0=2"), "--seed", "1"]),
    ("shifts-n40", ["shifts", *_sets("n=40", "L=0.9", "a=0.2", "d0=2")]),
    ("bound-toy-nan", ["bound", *_sets("n=4", "toy_w=0.1", "toy_sigma=nan")]),
    ("plan-chi2-init", ["plan", *_sets("alpha=1", "beta=2", "d=4", "eps=0.5", "W=3", "chi2_init=5")]),
    ("plan-unused-zeta0", ["plan", *_sets(
        "scheme=RMLMC", "setting=SLC", "alpha=1", "beta=2", "d=4", "eps=0.5", "zeta0=5")]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, argv: list[str], tmp: Path) -> str:
    csv = tmp / f"{name}.csv"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = f"exit={cli.main([*argv, '--out', str(csv)])}"
        except SystemExit as exc:
            status = f"exit={exc.code}"
        except Exception as exc:  # recorded: a traceback is an outcome to compare
            status = f"raised={type(exc).__name__}"
    csv_hash = _sha(csv.read_bytes()) if csv.exists() else "-"
    masked = [_sha(s.getvalue().replace(str(tmp), "<tmp>").encode()) for s in (out, err)]
    return f"{name:<22} {status:<22} csv={csv_hash} stdout={masked[0]} stderr={masked[1]}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            print(digest(name, argv, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
