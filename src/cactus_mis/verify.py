"""Cross-verification engine.

For every family and block count n the exhaustive oracle distribution is
compared against the stated bivariate series coefficient and the stated
recurrence total; every small-n check value and every count-transfer identity
is replayed; asymptotic constants are recomputed both from the stated
generating functions (reproduction) and from the verified recurrences (truth).

The oracle is the sole ground truth. Stated claims receive one of three
verdicts: CONFIRMED (bit-exact agreement over the whole checked range),
REFUTED (carries a first-mismatch witness), or SKIPPED (resource limit or no
claim to check). Reports are deterministic and JSON-serializable.

Each verdict is keyed by the anchor the catalog gives its claim: a family's
statement GF, recurrence, asymptotics and boundary checks, and each identity.
The catalog rejects a repeated anchor at load, so a report holds one verdict
for every such anchor in its scope, and no other.

A run goes plan -> count -> judge. `_collect_tasks` plans every graph the
checks read: a family's chain at every n to its depth, each boundary check's
graph, and for an identity at each n of `_replay_ns` the graphs of
`_replay_keys`, in order, up to the first one above the guard. `count_plan`
counts the plan in one loop with a trail of its own, made for that call (see
`enumerate_mis`), in lexicographic order of the graphs' neighbor masks,
whatever the plan's order: each sweep resumes where its masks part from
those of the graph before it, so each distinct mask prefix is swept once.
The result is the run's table of counts; the run keeps it until it returns,
and nothing at module level, so a table serves one run and one vertex limit.
The checks then only read the table, through `oracle_distribution`: every
lookup is a table hit, or the vertex guard refusing the graph before it is
built. A check counts nothing: `count_plan` is the package's one counting
loop.

The run also does its oracle-free work (`_family_algebra` for each family,
and every asymptotics claim) before it judges. With `workers > 1`, a plan of
at least 4 graphs and `os.fork`, `_pool` counts the plan instead: one forked
child runs `count_plan` while the parent does the oracle-free work, and
replies in `marshal`, which is safe here: only this process's own forked
child, on the same interpreter, writes it. Every other run counts the plan
in-process, and never imports `_pool`.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Optional

from . import asymptotics as asym
from ._json_text import json_text
from .catalog import Catalog, FamilyRecord, TransferIdentity, load_catalog
from .graphs import build_graph, graph_order, last_n_within
from .oracle import DEFAULT_VERTEX_LIMIT, SizeDistribution, VertexLimitExceeded, enumerate_mis
from .series import (
    recurrence_from_gf,
    recurrence_sequence,
    reduce_fraction,
    series_in_x,
    specialize_y1,
)

CONFIRMED = "CONFIRMED"
REFUTED = "REFUTED"
SKIPPED = "SKIPPED"

SCOPES = ("all", "family", "identities", "asymptotics")

# The largest family graph at these depths has 45 vertices. The oracle counts
# by a frontier sweep whose work is linear in n on these chains, so oracle
# time no longer limits them; they stay fixed because the committed baseline
# report is computed at them.
DEFAULT_N_MAX: dict[str, int] = {
    "triangular": 15,
    "diamond": 12,
    "square": 12,
    "pentagonal": 10,
    "meta-pentagonal": 10,
    "meta-hexagonal": 8,
    "para-hexagonal": 8,
    "ortho-hexagonal": 8,
}

TRANSFER_ORDER_CAP = 45  # largest left-hand-side graph enumerated for identities
CONSISTENCY_N_MAX = 30  # totals of each stated GF are compared with the recurrence to here

GraphKey = tuple[str, str, int]  # (family id, kind, n), the kind one of graphs.GRAPH_KINDS
Table = dict[GraphKey, SizeDistribution]  # one run's counts, by graph


def oracle_distribution(family_id: str, kind: str, n: int, vertex_limit: int,
                        table: Table) -> SizeDistribution:
    """Exact size distribution of one catalog graph, read from `table`.

    Raises VertexLimitExceeded for a graph above `vertex_limit` vertices, and
    RuntimeError for one within it that `table` lacks: the plan and the
    checks disagree.
    """
    key = (family_id, kind, n)
    if key in table:
        return table[key]
    order = graph_order(family_id, n, kind)
    if order > vertex_limit:
        raise VertexLimitExceeded(order, vertex_limit)
    raise RuntimeError(f"graph {key} fits the vertex limit but was not counted: the plan missed it")


def count_plan(keys: list[GraphKey], vertex_limit: int) -> Table:
    """The distribution of each of `keys`, every sweep resumed from one trail
    that this call makes and no other shares.

    The graphs are swept in lexicographic order of their mask tuples, the
    depth-first preorder of the trie of those tuples. The trail is then
    always the path from the trie's root to the last graph swept, so each
    distinct mask prefix is swept once, the fewest layers one trail can
    sweep, whatever the order of `keys`.
    """
    graphs = sorted(((build_graph(fam, n, kind), (fam, kind, n)) for fam, kind, n in keys),
                    key=lambda item: item[0].masks)
    trail: list = []
    return {key: enumerate_mis(g, vertex_limit, trail) for g, key in graphs}


def _counts_json(counts: Mapping[int, int]) -> dict[str, int]:
    """A zero-free {k: count} with its keys as text."""
    return {str(k): c for k, c in counts.items()}


def _first_mismatch(oracle: SizeDistribution, claimed: Mapping[int, int]) -> Optional[dict]:
    """Smallest k where the oracle disagrees with the claimed {k: count}, or None.

    Claimed counts may be arbitrary integers when a stated series is wrong.
    A zero-free `claimed` that agrees costs one dict compare.
    """
    if oracle.counts == claimed:
        return None
    for k in sorted(set(oracle.counts) | set(claimed)):
        if oracle[k] != claimed.get(k, 0):
            return {"k": k, "oracle": oracle[k], "claimed": claimed.get(k, 0)}
    return None


# ----------------------------------------------------------------------------
# Family verification: bivariate series, recurrence totals, boundary checks.
# ----------------------------------------------------------------------------

def verify_family(record: FamilyRecord, n_max: int, vertex_limit: int, table: Table,
                  algebra: tuple) -> tuple[list, dict]:
    """Compare the counts in `table` with the stated series and recurrence,
    as `algebra`, `_family_algebra(record, n_max, vertex_limit)`, gives them.

    Returns the family's per-n entries, and its claim verdicts keyed by the
    anchors of its generating function, recurrence and boundary checks.
    """
    fam = record.family_id
    claimed, rec_totals, consistency = algebra
    candidates = {cand.candidate_id: {"anchor": cand.anchor, "first_mismatch": None}
                  for cand in record.gf_candidates}

    entries = []
    recurrence_mismatch = None
    checked_to = -1
    for n in range(n_max + 1):
        try:
            oracle = oracle_distribution(fam, "family", n, vertex_limit, table)
        except VertexLimitExceeded as exc:
            entries.append({
                "n": n,
                "status": SKIPPED,
                "reason": str(exc),
                "oracle": None,
                "gf_coefficient": None,
                "recurrence_total": rec_totals[n],
                "first_mismatch": None,
            })
            continue
        checked_to = n
        mismatch_at_n = {cid: _first_mismatch(oracle, series[n]) for cid, series in claimed.items()}
        for cid, bad in mismatch_at_n.items():
            if bad is not None and candidates[cid]["first_mismatch"] is None:
                candidates[cid]["first_mismatch"] = {"n": n, **bad}
        if recurrence_mismatch is None and oracle.total != rec_totals[n]:
            recurrence_mismatch = {"n": n, "oracle_total": oracle.total, "claimed_total": rec_totals[n]}
        resolved = _resolve_candidate(record, candidates)
        mismatch_field = None
        if mismatch_at_n[resolved] is not None:
            mismatch_field = {**mismatch_at_n[resolved], "claim": record.gf_anchor}
        elif oracle.total != rec_totals[n]:
            mismatch_field = {"k": None, "oracle": oracle.total, "claimed": rec_totals[n],
                              "claim": record.recurrence.anchor}
        entries.append({
            "n": n,
            "status": CONFIRMED if mismatch_field is None else REFUTED,
            "oracle": _counts_json(oracle.counts),
            "gf_coefficient": _counts_json(claimed[resolved][n]),
            "recurrence_total": rec_totals[n],
            "first_mismatch": mismatch_field,
        })

    for cand_id, meta in candidates.items():
        meta["verdict"] = CONFIRMED if meta["first_mismatch"] is None else REFUTED
    resolution = _resolve_candidate(record, candidates)
    statement = candidates["statement"]

    claims = {record.gf_anchor: {
        "kind": "bivariate-gf",
        "family": fam,
        "verdict": statement["verdict"] if checked_to >= 0 else SKIPPED,
        "checked_n_max": checked_to,
        "first_mismatch": statement["first_mismatch"],
        "candidates": candidates,
        "resolution": resolution if candidates[resolution]["verdict"] == CONFIRMED else None,
        "recurrence_consistency": consistency,
    }, record.recurrence.anchor: {
        "kind": "recurrence",
        "family": fam,
        "verdict": (CONFIRMED if recurrence_mismatch is None else REFUTED) if checked_to >= 0 else SKIPPED,
        "checked_n_max": checked_to,
        "first_mismatch": recurrence_mismatch,
    }}

    for check in record.boundary_checks:
        claim = {"kind": "boundary", "family": fam, "graph_kind": check.kind, "n": check.n}
        try:
            oracle = oracle_distribution(fam, check.kind, check.n, vertex_limit, table)
        except VertexLimitExceeded as exc:
            claims[check.anchor] = {**claim, "verdict": SKIPPED, "reason": str(exc)}
            continue
        bad = _first_mismatch(oracle, check.claimed.counts)
        claims[check.anchor] = {**claim, "verdict": CONFIRMED if bad is None else REFUTED,
                                "first_mismatch": None if bad is None else {"n": check.n, **bad}}
    return entries, claims


def _family_algebra(record: FamilyRecord, n_max: int, vertex_limit: int) -> tuple:
    """What `verify_family` compares the counts with, none of it counted: each
    candidate's claimed {k: count}, zeros dropped, at every n the guard lets
    through; the recurrence's totals to `n_max`; `_gf_recurrence_consistency`."""
    # the guard skips every n past this one, so no series is expanded further
    expand_to = min(n_max, last_n_within(record.family_id, "family", vertex_limit))
    claimed = {cand.candidate_id: [{k: c for k, c in enumerate(p.coeffs) if c}
                                   for p in series_in_x(cand.gf, expand_to)]
               for cand in record.gf_candidates}
    rec_totals = recurrence_sequence(record.recurrence.lags, record.recurrence.initial, n_max)
    return claimed, rec_totals, _gf_recurrence_consistency(record)


def _resolve_candidate(record: FamilyRecord, candidates: dict) -> str:
    """Candidate id to trust: the first one still unrefuted, else 'statement'."""
    for cand in record.gf_candidates:
        if candidates[cand.candidate_id]["first_mismatch"] is None:
            return cand.candidate_id
    return "statement"


def _gf_recurrence_consistency(record: FamilyRecord) -> dict:
    """Does each stated generating function reproduce the stated recurrence?

    Lags are compared after cancelling any common univariate factor; totals
    are compared exactly out to CONSISTENCY_N_MAX.
    """
    stated = list(record.recurrence.lags)
    n_max = CONSISTENCY_N_MAX
    rec_totals = recurrence_sequence(record.recurrence.lags, record.recurrence.initial, n_max)
    out = {}
    for cand in record.gf_candidates:
        univ = specialize_y1(cand.gf)
        lags_raw, valid_from = recurrence_from_gf(univ)
        lags_red, _ = recurrence_from_gf(reduce_fraction(univ))
        totals = univ.series(n_max)
        first_bad = next((n for n in range(n_max + 1) if totals[n] != rec_totals[n]), None)
        out[cand.candidate_id] = {
            "lags_from_gf": list(lags_raw),
            "lags_after_reduction": list(lags_red),
            "stated_lags": stated,
            "lags_agree": list(lags_raw) == stated or list(lags_red) == stated,
            "valid_from": valid_from,
            "totals_agree": first_bad is None,
            "first_total_mismatch": None if first_bad is None else {
                "n": first_bad, "recurrence_total": rec_totals[first_bad], "gf_total": totals[first_bad],
            },
        }
    return out


# ----------------------------------------------------------------------------
# Transfer identities.
# ----------------------------------------------------------------------------

def _replay_keys(identity: TransferIdentity, n: int) -> list[GraphKey]:
    """The graphs a replay at n reads, in order: the left-hand side, then each term."""
    fam = identity.family_id
    return [(fam, identity.lhs_kind, n)] + [(fam, term.kind, n - term.n_shift) for term in identity.rhs]


def _replay_ns(identity: TransferIdentity, n_max_override: Optional[int]) -> range:
    """The n an identity is replayed at, by the plan and the judge alike: from
    `first_n`, the stated range before `valid_from` whatever the depth, to the
    largest n whose left-hand-side graph has at most TRANSFER_ORDER_CAP
    vertices, but at least `valid_from`, and at most `n_max_override` if given."""
    top = max(identity.valid_from, last_n_within(identity.family_id, identity.lhs_kind, TRANSFER_ORDER_CAP))
    if n_max_override is not None:
        top = min(top, n_max_override)
    return range(identity.first_n, max(identity.valid_from, top + 1))


def _replay(identity: TransferIdentity, n: int, vertex_limit: int, table: Table) -> Optional[dict]:
    """First k where the identity fails at n, as {n, k, lhs, rhs}, or None if it holds.

    The right-hand side is the sum of mult * term(n - n_shift, k - k_shift).
    Raises VertexLimitExceeded when a graph it needs is above `vertex_limit`.
    """
    lhs, *terms = [oracle_distribution(*key, vertex_limit, table)
                   for key in _replay_keys(identity, n)]
    rhs: dict[int, int] = {}
    for term, dist in zip(identity.rhs, terms):
        for k, count in dist.counts.items():
            k += term.k_shift
            rhs[k] = rhs.get(k, 0) + term.mult * count
    bad = _first_mismatch(lhs, rhs)
    if bad is None:
        return None
    return {"n": n, "k": bad["k"], "lhs": bad["oracle"], "rhs": bad["claimed"]}


def verify_transfer(identity: TransferIdentity, n_max_override: Optional[int], vertex_limit: int,
                    table: Table) -> tuple[dict, Optional[dict]]:
    """Replay one identity against the counts in `table` at each n of
    `_replay_ns`. Returns its claim, and a note on the stated range before
    `valid_from` (None where the identity states none)."""
    first_bad = None
    checked = []
    skipped = []
    witnesses = []  # failures in the stated range before valid_from
    for n in _replay_ns(identity, n_max_override):
        valid = n >= identity.valid_from
        try:
            bad = _replay(identity, n, vertex_limit, table)
        except VertexLimitExceeded as exc:
            if valid:
                skipped.append({"n": n, "reason": str(exc)})
            continue
        if valid:
            checked.append(n)
            first_bad = first_bad or bad
        elif bad is not None:
            witnesses.append(bad)

    stated_note = None
    if identity.stated_from < identity.valid_from:
        # the source applied the identity from an earlier n
        stated_note = {
            "stated_from": identity.stated_from,
            "valid_from": identity.valid_from,
            "stated_range_refuted": bool(witnesses),
            "witnesses": witnesses,
        }

    verdict = SKIPPED if not checked else (CONFIRMED if first_bad is None else REFUTED)
    return {
        "kind": "transfer",
        "identity": identity.identity_id,
        "family": identity.family_id,
        "verdict": verdict,
        "checked_n": checked,
        "skipped": skipped,
        "first_mismatch": first_bad,
    }, stated_note


# ----------------------------------------------------------------------------
# Asymptotics.
# ----------------------------------------------------------------------------

def verify_asymptotics(record: FamilyRecord) -> dict:
    """Adjudicate the stated asymptotic constants for one family.

    The claim is judged against the verified counting sequence (is a(n)
    really ~ C/rho^(n+1) with the printed values?). The constants are also
    recomputed from the stated generating function, which documents whether
    the printed value is at least reproducible from its own source.

    A stated object whose root finding fails is evidence, not an error: on
    the recurrence it makes the claim SKIPPED with the failure as `reason`,
    on the generating function `reproduction_from_stated_gf` holds `error`.
    """
    fam = record.family_id
    if record.asymptotic is None:
        return {
            "kind": "asymptotics",
            "family": fam,
            "verdict": SKIPPED,
            "note": record.asymptotic_note,
        }
    claim = record.asymptotic
    try:
        truth = asym.family_estimate(record)
        errors = asym.relative_errors(record)
        converges = asym.ratio_converges(record)
    except ValueError as exc:
        return {"kind": "asymptotics", "family": fam, "verdict": SKIPPED,
                "reason": f"no estimate from the stated recurrence {record.recurrence.anchor}: {exc}"}
    try:
        stated = asym.stated_gf_estimate(record)
    except ValueError as exc:
        reproduction = {"error": str(exc)}
    else:
        reproduction = {
            "rho": stated.rho,
            "constant": stated.constant,
            "rho_matches_printed": abs(stated.rho - claim.rho) <= claim.rho_tolerance,
            "constant_matches_printed": abs(stated.constant - claim.constant) <= claim.constant_tolerance,
        }

    rho_ok = abs(truth.rho - claim.rho) <= claim.rho_tolerance
    const_ok = abs(truth.constant - claim.constant) <= claim.constant_tolerance
    result = {
        "kind": "asymptotics",
        "family": fam,
        "verdict": CONFIRMED if (rho_ok and const_ok) else REFUTED,
        "printed": {"rho": claim.rho_printed, "constant": claim.constant_printed},
        "computed": {"rho": truth.rho, "constant": truth.constant},
        "reproduction_from_stated_gf": reproduction,
        "rho_matches": rho_ok,
        "constant_matches": const_ok,
        "ratio_convergence": converges,
        "max_relative_error_15_40": max(errors),
        "witness": None,
    }
    if not (rho_ok and const_ok):
        result["witness"] = {
            "printed_rho": claim.rho_printed,
            "printed_constant": claim.constant_printed,
            "computed_rho": truth.rho,
            "computed_constant": truth.constant,
            "rho_tolerance": claim.rho_tolerance,
            "constant_tolerance": claim.constant_tolerance,
        }
    return result


# ----------------------------------------------------------------------------
# Full run and report assembly.
# ----------------------------------------------------------------------------

def _collect_tasks(records: list[FamilyRecord], idents: list[TransferIdentity],
                   n_max: dict[str, int], vertex_limit: int,
                   n_max_override: Optional[int]) -> list[GraphKey]:
    """Every graph the checks of `records` and `idents` read, once; the
    order does not matter, as `count_plan` sweeps in an order of its own.

    Each lookup sequence of the plan stops at its first graph above
    `vertex_limit`, as the checks' own lookups do.
    """
    plan = [[(rec.family_id, "family", n)] for rec in records for n in range(n_max[rec.family_id] + 1)]
    plan += [[(rec.family_id, check.kind, check.n)] for rec in records for check in rec.boundary_checks]
    for ident in idents:
        plan += [_replay_keys(ident, n) for n in _replay_ns(ident, n_max_override)]
    fits: dict[GraphKey, bool] = {}  # each distinct key's guard, sized once, in plan order
    for keys in plan:
        for key in keys:
            if key not in fits:
                fits[key] = graph_order(key[0], key[2], key[1]) <= vertex_limit
            if not fits[key]:
                break
    return [key for key, ok in fits.items() if ok]


def run_verification(
    catalog: Optional[Catalog] = None,
    scope: str = "all",
    family: Optional[str] = None,
    n_max_override: Optional[int] = None,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    workers: int = 1,
) -> dict:
    """Produce the full verification report as a JSON-serializable dict.

    scope: "all", "family" (with `family`), "identities", or "asymptotics".
    n_max_override replaces the per-family depth; it must be >= 0, and scope
    "asymptotics", which expands no series to a depth, refuses it. As in the
    CLI, vertex_limit must be >= 0 and workers >= 1.
    """
    if catalog is None:
        catalog = load_catalog()
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "family" and family is None:
        raise ValueError("scope 'family' requires a family id")
    if n_max_override is not None and n_max_override < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max_override}")
    if n_max_override is not None and scope == "asymptotics":
        raise ValueError("scope 'asymptotics' has no depth: n_max does not apply")
    if vertex_limit < 0:
        raise ValueError(f"vertex_limit must be >= 0, got {vertex_limit}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    records = list(catalog.families)
    if family is not None:
        records = [catalog.family(family)]
    n_max = {rec.family_id: (n_max_override if n_max_override is not None
                             else DEFAULT_N_MAX[rec.family_id]) for rec in records}

    family_scope = scope in ("all", "family")
    idents = ([i for i in catalog.identities if family is None or i.family_id == family]
              if scope in ("all", "identities") else [])

    def oracle_free() -> tuple[list, dict]:
        """The run's work that reads no count; a forked run does it while its child counts."""
        algebra = [(rec, _family_algebra(rec, n_max[rec.family_id], vertex_limit))
                   for rec in records if family_scope]
        return algebra, {rec.asymptotic_anchor: verify_asymptotics(rec)
                         for rec in records if scope in ("all", "asymptotics")}

    plan = _collect_tasks(records if family_scope else [], idents, n_max, vertex_limit, n_max_override)
    if workers > 1 and len(plan) >= 4 and hasattr(os, "fork"):
        from . import _pool  # only runs that fork compile and load it

        table, (algebra, claims) = _pool.count_while(plan, vertex_limit, oracle_free)
    else:
        (algebra, claims), table = oracle_free(), count_plan(plan, vertex_limit)

    families_out: dict[str, dict] = {}
    identity_range_notes: dict[str, dict] = {}

    for rec, rec_algebra in algebra:
        entries, family_claims = verify_family(rec, n_max[rec.family_id], vertex_limit, table, rec_algebra)
        families_out[rec.family_id] = {"entries": entries}
        claims.update(family_claims)

    for ident in idents:
        claims[ident.anchor], note = verify_transfer(ident, n_max_override, vertex_limit, table)
        if note is not None:
            identity_range_notes[ident.identity_id] = note

    return {
        "config": {
            "scope": scope,
            "family": family,
            "n_max": dict(sorted(n_max.items())) if family_scope else {},
            "vertex_limit": vertex_limit,
            "transfer_order_cap": TRANSFER_ORDER_CAP,
        },
        "families": dict(sorted(families_out.items())),
        "claims": dict(sorted(claims.items())),
        "identity_range_notes": dict(sorted(identity_range_notes.items())),
        "summary": _summarize(claims),
    }


def _summarize(claims: dict[str, dict]) -> dict:
    counts = {CONFIRMED: 0, REFUTED: 0, SKIPPED: 0}
    refuted = []
    for anchor in sorted(claims):
        verdict = claims[anchor]["verdict"]
        counts[verdict] += 1
        if verdict == REFUTED:
            refuted.append(anchor)
    return {"confirmed": counts[CONFIRMED], "refuted": counts[REFUTED],
            "skipped": counts[SKIPPED], "refuted_anchors": refuted}


def report_to_json(report: dict) -> str:
    """The report as `json.dumps(report, indent=2, sort_keys=True) + "\\n"` writes it."""
    return json_text(report)


def report_to_table(report: dict) -> str:
    """Human-readable one-line-per-claim summary."""
    lines = []
    header = f"{'claim':<18} {'family':<16} {'kind':<14} verdict"
    lines.append(header)
    lines.append("-" * len(header))
    for anchor in sorted(report["claims"]):
        claim = report["claims"][anchor]
        fam = claim.get("family", "-")
        lines.append(f"{anchor:<18} {fam:<16} {claim.get('kind', '-'):<14} {claim['verdict']}")
        mismatch = claim.get("first_mismatch")
        if mismatch:
            lines.append(f"{'':<18} first mismatch: {json.dumps(mismatch, sort_keys=True)}")
    s = report["summary"]
    lines.append("-" * len(header))
    lines.append(f"confirmed {s['confirmed']}  refuted {s['refuted']}  skipped {s['skipped']}")
    if s["refuted_anchors"]:
        lines.append("refuted: " + ", ".join(s["refuted_anchors"]))
    return "\n".join(lines) + "\n"


def has_refuted(report: dict) -> bool:
    return report["summary"]["refuted"] > 0
