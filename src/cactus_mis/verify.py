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

Every catalog graph is counted by `oracle_distribution`: a memo hit, else the
vertex guard, `build_graph` and `enumerate_mis`. Each `run_verification` call
keeps its counts in one memo of its own and nothing at module level, so a memo
serves one run and one vertex limit, and a hit needs no second guard. Beside
the memo the run owns one trail (see `enumerate_mis`): each count resumes the
oracle's sweep where the graph's neighbor masks part from those of the
previous graph counted in that run (a family's chain at n after n - 1, a
gadget graph after its chain), and the trail goes when the run ends. Every
lookup that misses the memo still builds its graph and calls `enumerate_mis`
once.

One lookup plan, shared by the checks and the pool, names the graphs each
claim reads: a family's chain at every n to its depth, each boundary check's
graph, and for an identity at each n of `_replay_ns` the graphs of
`_replay_keys`, in order, up to the first one above the guard. With
`workers > 1`, `run_verification` first has forked children count that plan
(`_collect_tasks`) into the memo, so the checks only hit it: `_pool` deals
the keys out in plan order, every c-th to one child, and each child resumes
its sweeps from a trail of its own. The serial path (`workers == 1`) forks
nothing and never imports `_pool`.
"""

from __future__ import annotations

import json
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
Memo = dict[GraphKey, SizeDistribution]  # one run's counts


def oracle_distribution(family_id: str, kind: str, n: int,
                        vertex_limit: int = DEFAULT_VERTEX_LIMIT,
                        memo: Optional[Memo] = None,
                        trail: Optional[list] = None) -> SizeDistribution:
    """Exact size distribution of one catalog graph: a `memo` hit, else a guarded
    count, resumed from `trail` if one is given.

    Raises VertexLimitExceeded, before building, above `vertex_limit` vertices.
    """
    key = (family_id, kind, n)
    if memo is not None and key in memo:
        return memo[key]
    order = graph_order(family_id, n, kind)
    if order > vertex_limit:
        raise VertexLimitExceeded(order, vertex_limit)
    dist = enumerate_mis(build_graph(family_id, n, kind), vertex_limit, trail)
    if memo is not None:
        memo[key] = dist
    return dist


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

def verify_family(record: FamilyRecord, n_max: int,
                  vertex_limit: int = DEFAULT_VERTEX_LIMIT,
                  memo: Optional[Memo] = None,
                  trail: Optional[list] = None) -> dict:
    """Compare oracle distributions with the stated series and recurrence.

    Returns a report fragment: per-n entries plus claim verdicts for the
    family's generating function, recurrence, and boundary checks.
    """
    fam = record.family_id
    # the guard skips every n past this one, so no series is expanded further
    expand_to = min(n_max, last_n_within(fam, "family", vertex_limit))
    # each candidate's claimed {k: count}, zeros dropped, at every n up to there
    claimed = {cand.candidate_id: [{k: c for k, c in enumerate(p.coeffs) if c}
                                   for p in series_in_x(cand.gf, expand_to)]
               for cand in record.gf_candidates}
    candidates = {cand.candidate_id: {"anchor": cand.anchor, "first_mismatch": None}
                  for cand in record.gf_candidates}
    rec_totals = recurrence_sequence(record.recurrence.lags, record.recurrence.initial, n_max)

    entries = []
    recurrence_mismatch = None
    checked_to = -1
    for n in range(n_max + 1):
        try:
            oracle = oracle_distribution(fam, "family", n, vertex_limit, memo, trail)
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

    gf_claim = {
        "kind": "bivariate-gf",
        "family": fam,
        "verdict": statement["verdict"] if checked_to >= 0 else SKIPPED,
        "checked_n_max": checked_to,
        "first_mismatch": statement["first_mismatch"],
        "candidates": candidates,
        "resolution": resolution if candidates[resolution]["verdict"] == CONFIRMED else None,
        "recurrence_consistency": _gf_recurrence_consistency(record),
    }
    rec_claim = {
        "kind": "recurrence",
        "family": fam,
        "verdict": (CONFIRMED if recurrence_mismatch is None else REFUTED) if checked_to >= 0 else SKIPPED,
        "checked_n_max": checked_to,
        "first_mismatch": recurrence_mismatch,
    }

    boundary_claims = {}
    for check in record.boundary_checks:
        claim = {"kind": "boundary", "family": fam, "graph_kind": check.kind, "n": check.n}
        try:
            oracle = oracle_distribution(fam, check.kind, check.n, vertex_limit, memo, trail)
        except VertexLimitExceeded as exc:
            boundary_claims[check.anchor] = {**claim, "verdict": SKIPPED, "reason": str(exc)}
            continue
        bad = _first_mismatch(oracle, check.claimed.counts)
        boundary_claims[check.anchor] = {**claim, "verdict": CONFIRMED if bad is None else REFUTED,
                                         "first_mismatch": None if bad is None else {"n": check.n, **bad}}

    return {
        "family": fam,
        "entries": entries,
        "gf_claim": gf_claim,
        "recurrence_claim": rec_claim,
        "boundary_claims": boundary_claims,
    }


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


def _replay_ns(identity: TransferIdentity, n_max: int) -> range:
    """The n an identity is replayed at: the stated range before `valid_from`,
    whatever `n_max` is, then `valid_from` to `n_max`."""
    return range(min(identity.stated_from, identity.valid_from), max(identity.valid_from, n_max + 1))


def _replay(identity: TransferIdentity, n: int, vertex_limit: int,
            memo: Optional[Memo], trail: Optional[list]) -> Optional[dict]:
    """First k where the identity fails at n, as {n, k, lhs, rhs}, or None if it holds.

    The right-hand side is the sum of mult * term(n - n_shift, k - k_shift).
    Raises VertexLimitExceeded when a graph it needs is above `vertex_limit`.
    """
    lhs, *terms = [oracle_distribution(*key, vertex_limit, memo, trail)
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


def identity_max_n(identity: TransferIdentity) -> int:
    """Largest n whose left-hand-side graph has at most TRANSFER_ORDER_CAP vertices,
    but at least `valid_from`."""
    return max(identity.valid_from,
               last_n_within(identity.family_id, identity.lhs_kind, TRANSFER_ORDER_CAP))


def verify_transfer(identity: TransferIdentity, n_max: Optional[int] = None,
                    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
                    memo: Optional[Memo] = None,
                    trail: Optional[list] = None) -> dict:
    """Replay one identity against oracle distributions over its valid range,
    and over any stated range before it (reported in `stated_range_note`)."""
    if n_max is None:
        n_max = identity_max_n(identity)
    first_bad = None
    checked = []
    skipped = []
    witnesses = []  # failures in the stated range before valid_from
    for n in _replay_ns(identity, n_max):
        valid = n >= identity.valid_from
        try:
            bad = _replay(identity, n, vertex_limit, memo, trail)
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
        "stated_range_note": stated_note,
    }


# ----------------------------------------------------------------------------
# Asymptotics.
# ----------------------------------------------------------------------------

def verify_asymptotics(record: FamilyRecord) -> dict:
    """Adjudicate the stated asymptotic constants for one family.

    The claim is judged against the verified counting sequence (is a(n)
    really ~ C/rho^(n+1) with the printed values?). The constants are also
    recomputed from the stated generating function, which documents whether
    the printed value is at least reproducible from its own source.
    """
    fam = record.family_id
    if record.asymptotic is None:
        return {
            "kind": "asymptotics",
            "family": fam,
            "verdict": SKIPPED,
            "note": "exact closed form 2^n; no asymptotic constants are stated for this family",
        }
    claim = record.asymptotic
    truth = asym.family_estimate(record)
    stated = asym.stated_gf_estimate(record)

    rho_ok = abs(truth.rho - claim.rho) <= claim.rho_tolerance
    const_ok = abs(truth.constant - claim.constant) <= claim.constant_tolerance
    errors = asym.relative_errors(record)
    result = {
        "kind": "asymptotics",
        "family": fam,
        "verdict": CONFIRMED if (rho_ok and const_ok) else REFUTED,
        "printed": {"rho": claim.rho_printed, "constant": claim.constant_printed},
        "computed": {"rho": truth.rho, "constant": truth.constant},
        "reproduction_from_stated_gf": {
            "rho": stated.rho,
            "constant": stated.constant,
            "rho_matches_printed": abs(stated.rho - claim.rho) <= claim.rho_tolerance,
            "constant_matches_printed": abs(stated.constant - claim.constant) <= claim.constant_tolerance,
        },
        "rho_matches": rho_ok,
        "constant_matches": const_ok,
        "ratio_convergence": asym.ratio_converges(record),
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

def _identity_top(ident: TransferIdentity, n_max_override: Optional[int]) -> int:
    top = identity_max_n(ident)
    if n_max_override is not None:
        top = min(top, n_max_override)
    return top


def _collect_tasks(records: list[FamilyRecord], idents: list[TransferIdentity],
                   n_max: dict[str, int], vertex_limit: int,
                   n_max_override: Optional[int]) -> list[GraphKey]:
    """Every graph the lookups for `records` and `idents` count, once, in plan order.

    Each lookup sequence of the plan stops at its first graph above
    `vertex_limit`, as the checks' own lookups do.
    """
    plan = [[(rec.family_id, "family", n)] for rec in records for n in range(n_max[rec.family_id] + 1)]
    plan += [[(rec.family_id, check.kind, check.n)] for rec in records for check in rec.boundary_checks]
    for ident in idents:
        plan += [_replay_keys(ident, n) for n in _replay_ns(ident, _identity_top(ident, n_max_override))]
    tasks: dict[GraphKey, None] = {}
    for keys in plan:
        for key in keys:
            if graph_order(key[0], key[2], key[1]) > vertex_limit:
                break
            tasks[key] = None
    return list(tasks)


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
    "asymptotics", which expands no series to a depth, refuses it.
    """
    if catalog is None:
        catalog = load_catalog()
    if scope not in ("all", "family", "identities", "asymptotics"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "family" and family is None:
        raise ValueError("scope 'family' requires a family id")
    if n_max_override is not None and n_max_override < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max_override}")
    if n_max_override is not None and scope == "asymptotics":
        raise ValueError("scope 'asymptotics' has no depth: n_max does not apply")

    records = list(catalog.families)
    if family is not None:
        records = [catalog.family(family)]
    n_max = {rec.family_id: (n_max_override if n_max_override is not None
                             else DEFAULT_N_MAX[rec.family_id]) for rec in records}

    family_records = records if scope in ("all", "family") else []
    idents = ([i for i in catalog.identities if family is None or i.family_id == family]
              if scope in ("all", "identities") else [])
    memo: Memo = {}
    trail: list = []
    if workers > 1:
        from . import _pool  # only pooled runs compile and load it

        memo = _pool.pool_counts(_collect_tasks(family_records, idents, n_max, vertex_limit,
                                                n_max_override), vertex_limit, workers)

    claims: dict[str, dict] = {}
    families_out: dict[str, dict] = {}
    identity_range_notes: dict[str, dict] = {}

    for rec in family_records:
        fragment = verify_family(rec, n_max[rec.family_id], vertex_limit, memo, trail)
        families_out[rec.family_id] = {"entries": fragment["entries"]}
        claims[rec.gf_anchor] = fragment["gf_claim"]
        claims[rec.recurrence.anchor] = fragment["recurrence_claim"]
        claims.update(fragment["boundary_claims"])

    if scope in ("all", "asymptotics"):
        for rec in records:
            claim = verify_asymptotics(rec)
            anchor = rec.asymptotic.anchor if rec.asymptotic is not None else _asym_slot_anchor(rec)
            claims[anchor] = claim

    for ident in idents:
        result = verify_transfer(ident, n_max=_identity_top(ident, n_max_override),
                                 vertex_limit=vertex_limit, memo=memo, trail=trail)
        note = result.pop("stated_range_note")
        claims[ident.anchor] = result
        if note is not None:
            identity_range_notes[ident.identity_id] = note

    report = {
        "config": {
            "scope": scope,
            "family": family,
            "n_max": dict(sorted(n_max.items())) if scope in ("all", "family") else {},
            "vertex_limit": vertex_limit,
            "transfer_order_cap": TRANSFER_ORDER_CAP,
        },
        "families": dict(sorted(families_out.items())),
        "claims": dict(sorted(claims.items())),
        "identity_range_notes": dict(sorted(identity_range_notes.items())),
        "summary": _summarize(claims),
    }
    if scope == "all" and family is None:
        _check_completeness(catalog, report)
    return report


def _asym_slot_anchor(record: FamilyRecord) -> str:
    # the per-family anchor grid reserves three slots; the asymptotics slot
    # exists even where no constants are stated (square)
    base = int(record.recurrence.anchor.split(".")[-1])
    return f"thm:2.{base + 1}"


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


def _check_completeness(catalog: Catalog, report: dict) -> None:
    from .catalog import claim_anchor_universe

    expected = set(claim_anchor_universe(catalog))
    have = set(a for a in report["claims"] if a.startswith(("thm:", "eq:")))
    missing = expected - have
    extra = have - expected
    if missing or extra:
        raise AssertionError(f"claim universe mismatch: missing={sorted(missing)} extra={sorted(extra)}")


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
