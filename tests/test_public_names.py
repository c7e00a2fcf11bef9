"""Every public name has a reader outside the tests.

A name in a module's ``__all__`` must be read by a command, a verify suite,
a demo, the benchmark or a tool: its identifier must appear in ``src/``,
``demos/``, ``bench/`` or ``tools/`` other than as the name of its own
``def`` or ``class``.  Comments and strings (docstrings, ``__all__``
entries) do not count.  A name with no such reader is deleted, unless it is
on the keep-list below.
"""

import importlib
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["bounds", "chains", "cli", "gauss", "schemes", "shifts", "verify"]

# Read only by tests, and kept because an open check needs them:
KEEP = {
    "auxiliary_process_sim",  # acceptance criterion 6: the auxiliary process recursion
    "toy_kernel_pair",  # acceptance criterion 6: its kernels
    "w2_gaussian",  # acceptance criterion 8: Gaussian ground truth
    "renyi_gaussian",  # acceptance criterion 8
    "affine_pushforward",  # acceptance criterion 8
    "rmlmc_cross_reg",  # randomized midpoint certification, which needs the mixture law
    "gradient_bound",  # ground truth beyond Gaussians; not a bound at constant 1
}


def read_identifiers() -> set[str]:
    """Identifier tokens of every Python file under src/, demos/, bench/ and tools/,
    less the name that follows each `def` and `class`."""
    names = set()
    for top in ("src", "demos", "bench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            previous = None
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text("utf-8")).readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    names.add(tok.string)
                previous = tok.string
    return names


READ = read_identifiers()


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_reader(module):
    public = importlib.import_module(f"klbounds.{module}").__all__
    unread = [name for name in public if name not in READ and name not in KEEP]
    assert unread == [], f"klbounds.{module}: no reader outside tests for {unread}"


def test_keep_list_names_are_public():
    public = {name for module in MODULES
              for name in importlib.import_module(f"klbounds.{module}").__all__}
    assert KEEP <= public
    assert not KEEP & READ, "a kept name has a reader now; take it off the keep-list"
