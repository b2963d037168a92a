"""Command-line interface.

Exit codes: 0 success (and, for verify, no refuted claims), 1 refuted claims,
an `estimate` whose catalog recurrence has no usable dominant pole (named by
family), a resource limit, a reader that closed stdout early, or any `OSError`
the command meets (an `--output` that cannot be written, `error: cannot write
<path>: <reason>`; a refused fork or failed worker; a catalog file that is
missing or cannot be read, named by its path), 2 usage errors and a catalog
that does not parse (a malformed value or key is named by its JSON path).
Each error but the closed stdout is one `error:` line.

Every command writes through `_write`, which passes an iterable of strings to
`writelines` on stdout or on the `--output` file. `series` hands it each row
as the row is formatted, so its output is never joined into one string: a
count row as one line, and a `--bivariate` row as three pieces, `"<n>: "`, the
polynomial's text and the newline, so that the long text is not copied into a
line. The other commands hand it their whole text as a one-element list.
Everything that can fail (catalog load, expansion, verification) runs before
the output file is opened, so a usage error creates no file.

The argparse parser is built once per process, on the first `main` call, and
reused by later in-process calls; each call still parses into a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain
from typing import Iterable, Optional

from . import asymptotics as asym
from ._json_text import json_text
from .catalog import load_catalog
from .emit import GRAPH_FORMATS, emit
from .graphs import FAMILIES, FAMILY_IDS, GRAPH_KINDS, graph_order
from .oracle import DEFAULT_VERTEX_LIMIT, VertexLimitExceeded
from .series import recurrence_sequence, recurrence_text, series_in_x
from .verify import (SCOPES, count_plan, has_refuted, oracle_distribution, report_to_json,
                     report_to_table, run_verification)

VERTEX_LIMIT_ENV = "CACTUS_MIS_VERTEX_LIMIT"


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cactus-mis",
        description="Exact maximal-independent-set counts for polygonal cactus chains.")
    parser.add_argument("--vertex-limit", type=int, default=None,
                        help=f"enumeration size guard (default {DEFAULT_VERTEX_LIMIT}; "
                             f"env {VERTEX_LIMIT_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_arg(p, required=True):
        p.add_argument("--family", required=required, type=str.lower, choices=FAMILY_IDS,
                       help="family identifier")

    p_build = sub.add_parser("build", help="construct a graph and print it")
    add_family_arg(p_build)
    p_build.add_argument("--n", type=int, required=True, help="number of blocks (>= 0)")
    p_build.add_argument("--aux", choices=GRAPH_KINDS[1:], default=None,
                         help="attach the pendant gadget variant")
    p_build.add_argument("--format", choices=GRAPH_FORMATS, default="dot")
    p_build.add_argument("--output", default=None, help="write to a file instead of stdout")
    p_build.set_defaults(handler=_cmd_build)

    p_census = sub.add_parser("census", help="enumerate maximal independent sets by size")
    add_family_arg(p_census)
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--aux", choices=GRAPH_KINDS[1:], default=None)
    p_census.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_census.add_argument("--output", default=None)
    p_census.set_defaults(handler=_cmd_census)

    p_series = sub.add_parser("series", help="counting sequence, or size polynomials with --bivariate")
    add_family_arg(p_series)
    p_series.add_argument("--n-max", type=int, required=True)
    p_series.add_argument("--bivariate", action="store_true",
                          help="print the stated generating function's coefficients in y")
    p_series.add_argument("--output", default=None)
    p_series.set_defaults(handler=_cmd_series)

    p_est = sub.add_parser("estimate", help="asymptotic count estimate C/rho^(n+1)")
    add_family_arg(p_est)
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--output", default=None)
    p_est.set_defaults(handler=_cmd_estimate)

    p_verify = sub.add_parser("verify", help="cross-verify claims against the enumeration oracle")
    p_verify.add_argument("--scope", choices=SCOPES, default="all")
    add_family_arg(p_verify, required=False)
    p_verify.add_argument("--n-max", type=int, default=None, help="override the per-family depth")
    p_verify.add_argument("--format", choices=("json", "table"), default="json")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="above 1, count the graphs in one forked child while this"
                               " process does the rest (default 1)")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(handler=_cmd_verify)

    p_list = sub.add_parser("list-families", help="list family ids and their one-letter symbols")
    p_list.set_defaults(handler=_cmd_list_families)
    return parser


def _vertex_limit(args) -> int:
    """--vertex-limit, else the environment, else the default; a negative or,
    from the environment, a non-integer value is a usage error."""
    source, limit = "--vertex-limit", args.vertex_limit
    if limit is None:
        source = VERTEX_LIMIT_ENV
        text = os.environ.get(VERTEX_LIMIT_ENV)
        try:
            limit = int(text) if text else DEFAULT_VERTEX_LIMIT
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {text!r}") from None
    if limit < 0:
        raise ValueError(f"{source} must be >= 0, got {limit}")
    return limit


def _write(parts: Iterable[str], path: Optional[str]) -> None:
    """Write the strings of `parts` in turn to stdout, or to the file at `path`."""
    if path is None:
        sys.stdout.writelines(parts)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_build(args) -> int:
    _write([emit(args.family, args.n, args.aux or "family", args.format)], args.output)
    return 0


def _cmd_census(args) -> int:
    key, limit = (args.family, args.aux or "family", args.n), _vertex_limit(args)
    plan = [key] if graph_order(args.family, args.n, key[1]) <= limit else []
    dist = oracle_distribution(*key, limit, count_plan(plan, limit))
    if args.format == "json":
        payload = {
            "family": args.family, "aux": args.aux, "n": args.n,
            "counts": {str(k): v for k, v in dist.items()}, "total": dist.total,
        }
        text = json_text(payload)
    elif args.format == "csv":
        rows = ["family,n,k,count"]
        for k, v in dist.items():
            rows.append(f"{args.family},{args.n},{k},{v}")
        rows.append(f"{args.family},{args.n},total,{dist.total}")
        text = "\n".join(rows) + "\n"
    else:
        rows = [f"{'k':>4}  count"]
        rows += [f"{k:>4}  {v}" for k, v in dist.items()]
        rows.append(f"total  {dist.total}")
        text = "\n".join(rows) + "\n"
    _write([text], args.output)
    return 0


def _cmd_series(args) -> int:
    record = load_catalog().family(args.family)
    if args.bivariate:
        coeffs = series_in_x(record.gf(), args.n_max)
        rows = chain.from_iterable((f"{n}: ", c.text("y"), "\n") for n, c in enumerate(coeffs))
    else:
        rec = record.recurrence
        # The rows come from recurrence_text, whose Decimal run prints in time
        # linear in the digits. The int run only feeds the benchmark's traced
        # counters (perfbench/expected.json pins the terms and bits it
        # returns here), and goes when those counters are redefined.
        recurrence_sequence(rec.lags, rec.initial, args.n_max)
        rows = (f"{n}: {t}\n" for n, t in enumerate(recurrence_text(rec.lags, rec.initial, args.n_max)))
    _write(rows, args.output)
    return 0


def _cmd_estimate(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    catalog = load_catalog()
    record = catalog.family(args.family)
    try:
        est = asym.family_estimate(record)
        value = est.value(args.n)
    except ValueError as exc:
        # the command line was valid: the catalog's own recurrence has no
        # usable dominant pole, so this is a wrong claim, not a usage error
        sys.stderr.write(f"error: no estimate for {args.family} from its stated recurrence: {exc}\n")
        return 1
    # JSON has no Infinity: a value beyond float range prints as null, and so
    # does its relative error
    finite = math.isfinite(value)
    payload = {
        "family": args.family, "n": args.n, "rho": est.rho, "constant": est.constant,
        "estimate": value if finite else None,
    }
    if args.n <= 500:
        exact = recurrence_sequence(record.recurrence.lags, record.recurrence.initial, args.n)[args.n]
        payload["exact"] = exact
        payload["relative_error"] = abs(value / exact - 1.0) if exact and finite else None
    _write([json_text(payload)], args.output)
    return 0


def _cmd_verify(args) -> int:
    # run_verification checks --workers and --n-max, with the library's messages
    report = run_verification(
        scope=args.scope,
        family=args.family,
        n_max_override=args.n_max,
        vertex_limit=_vertex_limit(args),
        workers=args.workers,
    )
    text = report_to_json(report) if args.format == "json" else report_to_table(report)
    _write([text], args.output)
    return 1 if has_refuted(report) else 0


def _cmd_list_families(args) -> int:
    lines = [f"{fam:<16} {FAMILIES[fam].symbol.upper()}" for fam in FAMILY_IDS]
    _write(["\n".join(lines) + "\n"], None)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # exact counts are printed in full: lift CPython's cap on int -> str
    # digits (3.10.7 and later; 0 means no cap) for this command only, and
    # leave in-process callers as they were
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except MemoryError:
        # the command's objects are freed by the time this runs
        sys.stderr.write(f"error: out of memory in {args.command}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, and point
        # stdout at devnull so that the interpreter's last flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (VertexLimitExceeded, OSError) as exc:
        # a resource limit, or what the system refused: an --output that
        # cannot be written, a fork, a pooled verify's child that died or
        # could not send its counts back, a catalog file that cannot be read
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
