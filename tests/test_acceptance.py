"""Acceptance suite: one test group per criterion, each printing a PASS/FAIL
line (visible with pytest -rA or -s) and enforcing its stated runtime budget.

Criterion 6 contains two assertions that are expected to fail: the printed
leading constants for the pentagonal and para-hexagonal families match
neither the stated generating functions nor the verified counting sequences
(see notes and the committed baseline report). Those failures are left red
on purpose; the assertions state exactly what was checked.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from _oracles import complement_cliques, convolve, subset_filter_masks
from cactus_mis.asymptotics import family_estimate, relative_errors, stated_gf_estimate
from cactus_mis.graphs import BAR_GADGETS, FAMILY_IDS, TILDE_GADGETS, Graph, build_graph, graph_order
from cactus_mis.oracle import enumerate_mis
from cactus_mis.series import recurrence_from_gf, recurrence_sequence, reduce_fraction, specialize_y1
from cactus_mis.verify import DEFAULT_N_MAX, verify_family, verify_transfer


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s ({elapsed:.1f}s)"


# (symbol, aux-kind, n) -> {k: count}; transcribed from the acceptance list
CRITERION_1_VALUES = [
    ("triangular", None, 1, {1: 3}),
    ("triangular", None, 2, {1: 1, 2: 4}),
    ("triangular", "bar", 0, {1: 2}),
    ("diamond", None, 1, {2: 2}),
    ("diamond", "bar", 0, {1: 1, 2: 1}),
    ("square", "bar", 0, {1: 1, 2: 1}),
    ("pentagonal", None, 1, {2: 5}),
    ("pentagonal", None, 2, {3: 4, 4: 9}),
    ("pentagonal", "bar", 1, {3: 7}),
    ("meta-pentagonal", None, 1, {2: 5}),
    ("meta-pentagonal", "tilde", 0, {2: 3}),
    ("meta-hexagonal", None, 1, {2: 3, 3: 2}),
    ("meta-hexagonal", "tilde", 0, {2: 3, 3: 1}),
    ("meta-hexagonal", "tilde", 1, {3: 2, 4: 5, 5: 4, 6: 1}),
    ("para-hexagonal", "bar", 0, {1: 1, 2: 1}),
    ("ortho-hexagonal", "tilde", 0, {2: 3, 3: 1}),
    ("ortho-hexagonal", "bar", 1, {2: 1, 3: 1, 4: 3, 5: 1}),
]


def test_criterion_1_boundary_values():
    with criterion(1, "boundary-value suite", 10.0):
        for fam, aux, n, expected in CRITERION_1_VALUES:
            dist = enumerate_mis(build_graph(fam, n, aux))
            for k, count in expected.items():
                assert dist[k] == count, (fam, aux, n, k)


def test_criterion_2_recurrences_match_oracle(catalog):
    with criterion(2, "recurrence suite", 300.0):
        for record in catalog.families:
            n_max = DEFAULT_N_MAX[record.family_id]
            stated = recurrence_sequence(record.recurrence.lags, record.recurrence.initial, n_max)
            for n in range(n_max + 1):
                total = enumerate_mis(build_graph(record.family_id, n)).total
                assert total == stated[n], (record.family_id, n)


def test_criterion_3_gf_recurrence_cross_check(catalog):
    with criterion(3, "gf-vs-recurrence suite", 300.0):
        for record in catalog.families:
            univ = specialize_y1(record.gf())
            lags_raw, _ = recurrence_from_gf(univ)
            lags_red, _ = recurrence_from_gf(reduce_fraction(univ))
            lags_ok = record.recurrence.lags in (lags_raw, lags_red)
            totals_ok = univ.series(30) == recurrence_sequence(
                record.recurrence.lags, record.recurrence.initial, 30)
            if lags_ok and totals_ok:
                continue  # mutually consistent, reproduced exactly
            # otherwise the verifier must refute the stated gf with a witness
            result = verify_family(record, DEFAULT_N_MAX[record.family_id])
            claim = result["gf_claim"]
            assert claim["verdict"] == "REFUTED", record.family_id
            witness = claim["first_mismatch"]
            assert set(witness) == {"n", "k", "oracle", "claimed"}
            oracle = enumerate_mis(build_graph(record.family_id, witness["n"]))
            assert oracle[witness["k"]] == witness["oracle"]
        # the restated para-hexagonal candidate is the consistent one
        alt = specialize_y1(catalog.family("para-hexagonal").gf("proof"))
        lags_alt, _ = recurrence_from_gf(alt)
        assert lags_alt == catalog.family("para-hexagonal").recurrence.lags
        assert alt.series(30) == recurrence_sequence(
            catalog.family("para-hexagonal").recurrence.lags,
            catalog.family("para-hexagonal").recurrence.initial, 30)


def test_criterion_4_bivariate_distributions(catalog):
    with criterion(4, "bivariate suite", 300.0):
        verdicts = {}
        for record in catalog.families:
            result = verify_family(record, DEFAULT_N_MAX[record.family_id])
            verdicts[record.family_id] = result["gf_claim"]["verdict"]
            if result["gf_claim"]["verdict"] == "REFUTED":
                witness = result["gf_claim"]["first_mismatch"]
                oracle = enumerate_mis(build_graph(record.family_id, witness["n"]))
                assert oracle[witness["k"]] == witness["oracle"]
        # desk-checked case: x^2 coefficient of the triangular gf is y + 4y^2
        from cactus_mis.series import series_in_x

        c2 = series_in_x(catalog.family("triangular").gf(), 2)[2]
        assert c2.coeffs == (0, 1, 4)
        assert verdicts["triangular"] == "CONFIRMED"
        assert set(verdicts.values()) <= {"CONFIRMED", "REFUTED"}  # definitive everywhere
        assert verdicts == {
            "triangular": "CONFIRMED", "diamond": "REFUTED", "square": "CONFIRMED",
            "pentagonal": "REFUTED", "meta-pentagonal": "CONFIRMED",
            "meta-hexagonal": "REFUTED", "para-hexagonal": "REFUTED",
            "ortho-hexagonal": "REFUTED",
        }


def test_criterion_5_transfer_identities(catalog):
    with criterion(5, "transfer-identity suite", 300.0):
        for identity in catalog.identities:
            result = verify_transfer(identity)
            assert result["verdict"] == "CONFIRMED", identity.identity_id
            assert result["checked_n"][0] == identity.valid_from
            last = result["checked_n"][-1]
            aux = None if identity.lhs_kind == "family" else identity.lhs_kind
            assert graph_order(identity.family_id, last, aux) <= 45
            assert graph_order(identity.family_id, last + 1, aux) > 45


ASYMPTOTIC_FAMILIES = [
    "triangular", "diamond", "pentagonal", "meta-pentagonal",
    "meta-hexagonal", "para-hexagonal", "ortho-hexagonal",
]


@pytest.mark.parametrize("family_id", ASYMPTOTIC_FAMILIES)
def test_criterion_6_dominant_singularity(family_id, catalog):
    record = catalog.family(family_id)
    claim = record.asymptotic
    computed = stated_gf_estimate(record)
    assert abs(computed.rho - claim.rho) <= claim.rho_tolerance, (
        f"{family_id}: computed rho {computed.rho!r} vs printed {claim.rho_printed}")


@pytest.mark.parametrize("family_id", ASYMPTOTIC_FAMILIES)
def test_criterion_6_leading_constant(family_id, catalog):
    record = catalog.family(family_id)
    claim = record.asymptotic
    computed = stated_gf_estimate(record)
    truth = family_estimate(record)
    assert abs(computed.constant - claim.constant) <= claim.constant_tolerance, (
        f"{family_id}: printed constant {claim.constant_printed} is not reproducible: "
        f"the stated closed form yields {computed.constant:.6f} and the "
        f"enumeration-verified recurrence yields {truth.constant:.6f}; neither is within "
        f"{claim.constant_tolerance} of the printed value. Recorded as an erratum "
        f"candidate in the baseline report; see README and notes."
    )


def test_criterion_6_estimate_accuracy(catalog):
    with criterion(6, "asymptotics estimate accuracy", 1.0):
        for record in catalog.families:
            errs = relative_errors(record)
            assert max(errs) < 0.01, record.family_id


def test_criterion_7_oracle_self_consistency():
    with criterion(7, "oracle self-consistency", 60.0):
        graphs = []
        for fam in FAMILY_IDS:
            for aux in (None, "bar", "tilde"):
                table = {"bar": BAR_GADGETS, "tilde": TILDE_GADGETS}.get(aux)
                if aux is not None and fam not in table:
                    continue
                n = 0
                while graph_order(fam, n, aux) <= 20:
                    graphs.append(build_graph(fam, n, aux))
                    n += 1
        for g in graphs:
            reference = enumerate_mis(g).as_dict()
            assert subset_filter_masks(g) == reference
            assert complement_cliques(g) == reference
        rng = random.Random(7)
        small = [g for g in graphs if g.vertex_count <= 12]
        for _ in range(10):
            ga, gb = rng.choice(small), rng.choice(small)
            edges = list(ga.edges()) + [
                (u + ga.vertex_count, v + ga.vertex_count) for u, v in gb.edges()]
            union = Graph(ga.vertex_count + gb.vertex_count, edges)
            assert enumerate_mis(union) == convolve(enumerate_mis(ga).counts, enumerate_mis(gb).counts)


def test_criterion_8_verify_all_is_byte_deterministic(tmp_path):
    with criterion(8, "byte-deterministic verification report", 900.0):
        cmd = [sys.executable, "-m", "cactus_mis.cli", "verify", "--scope", "all",
               "--workers", "2", "--format", "json"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == second.returncode == 1  # refuted claims exist
        assert first.stdout == second.stdout
        assert len(first.stdout) > 10_000
