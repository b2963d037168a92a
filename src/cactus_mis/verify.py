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

With `workers > 1`, `run_verification` first collects every graph its
lookups will ask for (one task list for every scope, already cut to the
vertex guard) and counts them in a process pool. The keys go out size-sorted,
largest first, in about four chunks per worker, and each child returns the
distributions of a whole chunk. The serial path (`workers == 1`) starts no
pool and never imports `concurrent.futures.process`.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional

from . import asymptotics as asym
from .catalog import Catalog, FamilyRecord, TransferIdentity, load_catalog
from .graphs import build_graph, graph_order
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

GraphKey = tuple[str, Optional[str], int]  # (family id, aux kind or None, n)

_ORACLE_CACHE: dict[GraphKey, SizeDistribution] = {}


def _aux_of_kind(kind: str) -> Optional[str]:
    return None if kind == "family" else kind


def oracle_distribution(family_id: str, kind: str, n: int,
                        vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> SizeDistribution:
    """Cached exact size distribution for one generated graph."""
    key = (family_id, _aux_of_kind(kind), n)
    order = graph_order(family_id, n, key[1])
    if order > vertex_limit:
        # enforced before the cache so reports never depend on cache warmth
        raise VertexLimitExceeded(order, vertex_limit)
    hit = _ORACLE_CACHE.get(key)
    if hit is not None:
        return hit
    dist = enumerate_mis(build_graph(family_id, n, key[1]), vertex_limit=vertex_limit)
    _ORACLE_CACHE[key] = dist
    return dist


def _oracle_task(keys: list[GraphKey]) -> list[tuple[GraphKey, dict[int, int]]]:
    """Count one chunk of graphs in a pool child; the keys were guarded by the parent."""
    done = []
    for family_id, aux, n in keys:
        dist = enumerate_mis(build_graph(family_id, n, aux), vertex_limit=10 ** 9)
        done.append(((family_id, aux, n), dist.as_dict()))
    return done


def _prefill_cache(tasks: list[GraphKey], workers: int) -> None:
    """Count the uncached `tasks` in a pool of at most `workers` processes."""
    # largest graphs first, ties by key, so the chunks and their order are
    # the same on every run
    todo = sorted(set(tasks).difference(_ORACLE_CACHE),
                  key=lambda t: (-graph_order(t[0], t[2], t[1]), t[0], t[1] or "", t[2]))
    if len(todo) < 4:
        return  # not worth a pool: the lookups count these in this process
    # about four chunks per worker: one round trip per chunk instead of one
    # per graph, with enough chunks left over that a worker finishing early
    # takes another rather than idling
    size = -(-len(todo) // (4 * workers))
    chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay for it

    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        for done in pool.map(_oracle_task, chunks):
            for key, counts in done:
                _ORACLE_CACHE[key] = SizeDistribution(counts)


def _dist_json(dist: SizeDistribution) -> dict[str, int]:
    return {str(k): v for k, v in dist.items()}


def _poly_json(coeffs) -> dict[str, int]:
    return {str(k): c for k, c in enumerate(coeffs) if c}


def _first_mismatch(oracle: SizeDistribution, claimed: Mapping[int, int]) -> Optional[dict]:
    """Smallest k where the oracle disagrees with the claimed {k: count}, or None.

    Claimed counts may be arbitrary integers when a stated series is wrong.
    """
    for k in sorted(set(oracle.counts) | set(claimed)):
        if oracle[k] != claimed.get(k, 0):
            return {"k": k, "oracle": oracle[k], "claimed": claimed.get(k, 0)}
    return None


# ----------------------------------------------------------------------------
# Family verification: bivariate series, recurrence totals, boundary checks.
# ----------------------------------------------------------------------------

def verify_family(record: FamilyRecord, n_max: int,
                  vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> dict:
    """Compare oracle distributions with the stated series and recurrence.

    Returns a report fragment: per-n entries plus claim verdicts for the
    family's generating function, recurrence, and boundary checks.
    """
    fam = record.family_id
    candidates = {}
    series_by_candidate = {}
    for cand in record.gf_candidates:
        series_by_candidate[cand.candidate_id] = series_in_x(cand.gf, n_max)
        candidates[cand.candidate_id] = {"anchor": cand.anchor, "first_mismatch": None}
    rec_totals = recurrence_sequence(record.recurrence.lags, record.recurrence.initial, n_max)

    entries = []
    recurrence_mismatch = None
    checked_to = -1
    for n in range(n_max + 1):
        try:
            oracle = oracle_distribution(fam, "family", n, vertex_limit)
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
        for cand_id, series in series_by_candidate.items():
            if candidates[cand_id]["first_mismatch"] is None:
                bad = _first_mismatch(oracle, dict(enumerate(series[n].coeffs)))
                if bad is not None:
                    candidates[cand_id]["first_mismatch"] = {"n": n, **bad}
        if recurrence_mismatch is None and oracle.total != rec_totals[n]:
            recurrence_mismatch = {"n": n, "oracle_total": oracle.total, "claimed_total": rec_totals[n]}
        resolved = _resolve_candidate(record, candidates)
        claimed_poly = series_by_candidate[resolved][n]
        entry_mismatch = _first_mismatch(oracle, dict(enumerate(claimed_poly.coeffs)))
        status = CONFIRMED
        mismatch_field = None
        if entry_mismatch is not None:
            status = REFUTED
            mismatch_field = {**entry_mismatch, "claim": record.gf_anchor}
        elif oracle.total != rec_totals[n]:
            status = REFUTED
            mismatch_field = {
                "k": None, "oracle": oracle.total, "claimed": rec_totals[n],
                "claim": record.recurrence.anchor,
            }
        entries.append({
            "n": n,
            "status": status,
            "oracle": _dist_json(oracle),
            "gf_coefficient": _poly_json(claimed_poly.coeffs),
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
        "candidates": {cid: dict(meta) for cid, meta in sorted(candidates.items())},
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
        try:
            oracle = oracle_distribution(fam, check.kind, check.n, vertex_limit)
        except VertexLimitExceeded as exc:
            boundary_claims[check.anchor] = {
                "kind": "boundary", "family": fam, "graph_kind": check.kind, "n": check.n,
                "verdict": SKIPPED, "reason": str(exc),
            }
            continue
        bad = _first_mismatch(oracle, check.claimed.counts)
        boundary_claims[check.anchor] = {
            "kind": "boundary",
            "family": fam,
            "graph_kind": check.kind,
            "n": check.n,
            "verdict": CONFIRMED if bad is None else REFUTED,
            "first_mismatch": None if bad is None else {"n": check.n, **bad},
        }

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

def _replay(identity: TransferIdentity, n: int, vertex_limit: int) -> Optional[dict]:
    """First k where the identity fails at n, as {n, k, lhs, rhs}, or None if it holds.

    The right-hand side is the sum of mult * term(n - n_shift, k - k_shift).
    Raises VertexLimitExceeded when a graph it needs is above `vertex_limit`.
    """
    lhs = oracle_distribution(identity.family_id, identity.lhs_kind, n, vertex_limit)
    rhs: dict[int, int] = {}
    for term in identity.rhs:
        dist = oracle_distribution(identity.family_id, term.kind, n - term.n_shift, vertex_limit)
        for k, count in dist.counts.items():
            k += term.k_shift
            rhs[k] = rhs.get(k, 0) + term.mult * count
    bad = _first_mismatch(lhs, rhs)
    if bad is None:
        return None
    return {"n": n, "k": bad["k"], "lhs": bad["oracle"], "rhs": bad["claimed"]}


def identity_max_n(identity: TransferIdentity) -> int:
    """Largest n whose left-hand-side graph has at most TRANSFER_ORDER_CAP vertices."""
    n = identity.valid_from
    aux = _aux_of_kind(identity.lhs_kind)
    while graph_order(identity.family_id, n + 1, aux) <= TRANSFER_ORDER_CAP:
        n += 1
    return n


def verify_transfer(identity: TransferIdentity, n_max: Optional[int] = None,
                    vertex_limit: int = DEFAULT_VERTEX_LIMIT) -> dict:
    """Replay one identity against oracle distributions over its valid range."""
    if n_max is None:
        n_max = identity_max_n(identity)
    first_bad = None
    checked = []
    skipped = []
    for n in range(identity.valid_from, n_max + 1):
        try:
            bad = _replay(identity, n, vertex_limit)
        except VertexLimitExceeded as exc:
            skipped.append({"n": n, "reason": str(exc)})
            continue
        checked.append(n)
        if first_bad is None:
            first_bad = bad

    stated_note = None
    if identity.stated_from < identity.valid_from:
        # the source applied the identity from an earlier n; replay that range too
        refuted_instances = []
        for n in range(identity.stated_from, identity.valid_from):
            try:
                bad = _replay(identity, n, vertex_limit)
            except VertexLimitExceeded:
                continue
            if bad is not None:
                refuted_instances.append(bad)
        stated_note = {
            "stated_from": identity.stated_from,
            "valid_from": identity.valid_from,
            "stated_range_refuted": bool(refuted_instances),
            "witnesses": refuted_instances,
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

def _identity_tasks(ident: TransferIdentity, top: int) -> list[GraphKey]:
    tasks = []
    for n in range(min(ident.stated_from, ident.valid_from), top + 1):
        tasks.append((ident.family_id, _aux_of_kind(ident.lhs_kind), n))
        for term in ident.rhs:
            if n - term.n_shift >= 0:
                tasks.append((ident.family_id, _aux_of_kind(term.kind), n - term.n_shift))
    return tasks


def _identity_top(ident: TransferIdentity, n_max_override: Optional[int]) -> int:
    top = identity_max_n(ident)
    if n_max_override is not None:
        top = min(top, n_max_override)
    return top


def _collect_tasks(records: list[FamilyRecord], idents: list[TransferIdentity],
                   n_max: dict[str, int], vertex_limit: int,
                   n_max_override: Optional[int]) -> list[GraphKey]:
    """Every graph the lookups for `records` and `idents` ask for, within `vertex_limit`."""
    tasks: set[GraphKey] = set()
    for rec in records:
        tasks.update((rec.family_id, None, n) for n in range(n_max[rec.family_id] + 1))
        tasks.update((rec.family_id, _aux_of_kind(check.kind), check.n)
                     for check in rec.boundary_checks)
    for ident in idents:
        tasks.update(_identity_tasks(ident, _identity_top(ident, n_max_override)))
    return [t for t in tasks if graph_order(t[0], t[2], t[1]) <= vertex_limit]


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
    """
    if catalog is None:
        catalog = load_catalog()
    if scope not in ("all", "family", "identities", "asymptotics"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "family" and family is None:
        raise ValueError("scope 'family' requires a family id")

    records = list(catalog.families)
    if family is not None:
        records = [catalog.family(family)]
    n_max = {rec.family_id: (n_max_override if n_max_override is not None
                             else DEFAULT_N_MAX[rec.family_id]) for rec in records}

    family_records = records if scope in ("all", "family") else []
    idents = ([i for i in catalog.identities if family is None or i.family_id == family]
              if scope in ("all", "identities") else [])
    if workers > 1:
        _prefill_cache(_collect_tasks(family_records, idents, n_max, vertex_limit,
                                      n_max_override), workers)

    claims: dict[str, dict] = {}
    families_out: dict[str, dict] = {}
    identity_range_notes: dict[str, dict] = {}

    for rec in family_records:
        fragment = verify_family(rec, n_max[rec.family_id], vertex_limit)
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
                                 vertex_limit=vertex_limit)
        note = result.pop("stated_range_note")
        claims[ident.anchor] = result
        if note is not None:
            identity_range_notes[ident.identity_id] = note

    report = {
        "config": {
            "scope": scope,
            "family": family,
            "n_max": {k: v for k, v in sorted(n_max.items())} if scope in ("all", "family") else {},
            "vertex_limit": vertex_limit,
            "transfer_order_cap": TRANSFER_ORDER_CAP,
        },
        "families": {k: v for k, v in sorted(families_out.items())},
        "claims": {k: claims[k] for k in sorted(claims)},
        "identity_range_notes": {k: v for k, v in sorted(identity_range_notes.items())},
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
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


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
