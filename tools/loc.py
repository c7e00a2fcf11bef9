"""Count the code lines of the klbounds package.

A code line is a physical line that holds at least one token other than a
comment, a docstring or layout (newlines, indents).  A docstring here is any
string literal that stands alone as a statement.  A multi-line token counts
every line it spans.  Prints one line per file under ``src/klbounds/`` and
the total:

    python tools/loc.py
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "klbounds"
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
LAYOUT = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        docstring = (tok.type == tokenize.STRING
                     and tokens[i - 1].type in STATEMENT_START
                     and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
