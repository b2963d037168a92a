"""Golden digests of the command-line interface's output.

`cli_golden.txt` beside this file holds one line per command line of a fixed
grid: the exit code, the sha256 of stdout, the sha256 of stderr, then the
arguments. The grid is, in file order:

- `build` for every family x kind x n in 0..10 x format, `census --format
  json` for the same graphs, and three usage errors of each command;
- `series` for every family x `--n-max` 0, 1 and 12, with and without
  `--bivariate`;
- `estimate` for every family x `--n` 0, 1, 30, 400, 501 and 100000;
- `list-families`;
- `census --format csv` and `table` for every family x kind at n = 3;
- `verify` in scopes `all`, `identities` and `asymptotics` x `--format json`
  and `table`, and in scope `family` for every family;
- the usage errors of `series`, `estimate` and `verify`.

Stderr is hashed with each run of whitespace made one space: argparse wraps
its usage lines by the terminal width, and CPython 3.13 breaks them at other
places than 3.10-3.12 do, while the words stay the same.
`test_cli_golden.py` replays it in-process through `cactus_mis.cli.main` and
compares.

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

# usage errors of the commands that do not build a graph: a negative depth, an
# unknown family, a depth where the scope has none, no worker at all, and a
# negative index
OTHER_USAGE_ERRORS = (
    ["series", "--family", "triangular", "--n-max", "-1"],
    ["verify", "--scope", "family", "--family", "triangular", "--n-max", "-1"],
    ["series", "--family", "heptagonal", "--n-max", "1"],
    ["estimate", "--family", "heptagonal", "--n", "1"],
    ["verify", "--scope", "asymptotics", "--n-max", "3"],
    ["verify", "--workers", "0"],
    ["estimate", "--family", "triangular", "--n", "-5"],
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
    lines += [["series", "--family", fam, "--n-max", str(n), *bivariate]
              for fam in FAMILY_IDS for n in (0, 1, 12) for bivariate in ([], ["--bivariate"])]
    lines += [["estimate", "--family", fam, "--n", str(n)]
              for fam in FAMILY_IDS for n in (0, 1, 30, 400, 501, 100000)]
    lines += [["list-families"]]
    lines += [["census", *g, "--format", fmt]
              for g in graphs if g[-1] == "3" for fmt in ("csv", "table")]
    lines += [["verify", "--scope", scope, "--format", fmt]
              for scope in ("all", "identities", "asymptotics") for fmt in ("json", "table")]
    lines += [["verify", "--scope", "family", "--family", fam] for fam in FAMILY_IDS]
    lines += [list(args) for args in OTHER_USAGE_ERRORS]
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
