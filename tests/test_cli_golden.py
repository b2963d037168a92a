"""The command-line interface's output pinned by digest (see `_golden.py`)."""

from _golden import GOLDEN_FILE, grid, replay


def test_cli_output_matches_golden_digests():
    golden = GOLDEN_FILE.read_text(encoding="utf-8").splitlines()
    # the file covers exactly the grid, in order, so a dropped line shows too
    assert [line.split()[3:] for line in golden] == grid()
    changed = [(want, got) for want, got in zip(golden, replay()) if want != got]
    assert not changed, f"{len(changed)} command lines changed, first: {changed[:3]}"
