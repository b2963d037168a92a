"""Golden digests of the `build` and `census` command lines.

`cli_golden.txt` beside this file holds one line per command line of a fixed
grid: the exit code, the sha256 of stdout, the sha256 of stderr, then the
arguments. The grid is `build` for every family x kind x n in 0..10 x
format, `census --format json` for the same graphs, and the usage errors of
both commands. Stderr is hashed with each run of whitespace made one space:
argparse wraps its usage lines by the terminal width, and CPython 3.13 breaks
them at other places than 3.10-3.12 do, while the words stay the same. `test_cli_golden.py` replays it in-process through
`cactus_mis.cli.main` and compares.

The file is regenerated only on purpose, and the change is listed in
CHANGES.md:

    PYTHONPATH=src python tests/_golden.py > tests/cli_golden.txt

Standard library only, so the grid can be replayed on an interpreter that has
no pytest.
"""

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

from cactus_mis.cli import main
from cactus_mis.graphs import FAMILY_IDS, TILDE_GADGETS

GOLDEN_FILE = Path(__file__).with_name("cli_golden.txt")

USAGE_ERRORS = (
    ["--family", "triangular", "--n", "-1"],
    ["--family", "square", "--aux", "tilde", "--n", "1"],
    ["--family", "heptagonal", "--n", "1"],
)


def grid() -> list[list[str]]:
    """Every command line of the golden grid, in file order."""
    graphs = [["--family", fam, *(["--aux", aux] if aux else []), "--n", str(n)]
              for fam in FAMILY_IDS
              for aux in (None, "bar", "tilde") if aux != "tilde" or fam in TILDE_GADGETS
              for n in range(11)]
    lines = [["build", *g, "--format", fmt] for g in graphs for fmt in ("dot", "json", "edges")]
    lines += [["census", *g, "--format", "json"] for g in graphs]
    lines += [[command, *args] for command in ("build", "census") for args in USAGE_ERRORS]
    return lines


def digest_line(args: list[str]) -> str:
    """`<exit> <sha256 stdout> <sha256 stderr> <args>` for one in-process run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    texts = (out.getvalue(), re.sub(r"\s+", " ", err.getvalue()))
    digests = (hashlib.sha256(text.encode()).hexdigest() for text in texts)
    return " ".join([str(code), *digests, *args])


def replay() -> list[str]:
    """The digest line of every grid command, in file order."""
    return [digest_line(args) for args in grid()]


if __name__ == "__main__":
    sys.stdout.writelines(line + "\n" for line in replay())
