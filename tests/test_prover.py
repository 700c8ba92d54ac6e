"""Arrowing engine vs complete enumeration, value scans, tables, checker."""

import hashlib
import itertools
import json
import time

import numpy as np
import pytest

from ramsey_lab.certificates import Certificate, make_certificate
from ramsey_lab.coloring import (
    SplitSpec,
    TwoColoring,
    all_edges,
    lower_bound_witness,
    split_coloring,
)
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import copy_rank_matrix, find_embedding
from ramsey_lab.prover import (
    compute_ramsey,
    decide_arrowing,
    derive_table,
    export_dimacs,
    verify_certificate,
)

import frozen_values as F
import oracles as O

TEMPLATES = {"P2": ("path", 2), "P3": ("path", 3), "C3": ("cycle", 3)}


def _t(k, name):
    kind, n = TEMPLATES[name]
    return cycle_template(k, n) if kind == "cycle" else path_template(k, n)


# ------------------------------------------------------- oracle equivalence

@pytest.mark.parametrize("N", [5, 6])
@pytest.mark.parametrize("red,blue", list(itertools.product(TEMPLATES, repeat=2)))
def test_arrowing_matches_frozen_enumeration(N, red, blue):
    v = decide_arrowing(3, N, _t(3, red), _t(3, blue))
    arrows = F.ARROWING[(N, red, blue)]
    assert v.status == ("UNSAT" if arrows else "SAT")
    if v.status == "SAT":
        w = v.witness
        assert w is not None
        assert find_embedding(w, "red", _t(3, red)) is None
        assert find_embedding(w, "blue", _t(3, blue)) is None


def test_arrowing_budget_unknown():
    v = decide_arrowing(3, 8, path_template(3, 3), path_template(3, 3),
                        max_nodes=2)
    assert v.status == "UNKNOWN"
    assert v.budget.get("max_nodes") == 2
    assert (v.stats["nodes"], v.stats["propagations"]) == (2, 0)


def test_symmetry_flag_agrees():
    for red, blue in [("C3", "C3"), ("P2", "C3"), ("P3", "P3")]:
        for N in (5, 6):
            a = decide_arrowing(3, N, _t(3, red), _t(3, blue), symmetry=False)
            b = decide_arrowing(3, N, _t(3, red), _t(3, blue), symmetry=True)
            assert a.status == b.status


def test_determinism():
    a = decide_arrowing(3, 6, _t(3, "C3"), _t(3, "C3"))
    b = decide_arrowing(3, 6, _t(3, "C3"), _t(3, "C3"))
    assert a.status == b.status
    assert (a.witness.bits.tobytes() if a.witness is not None else None) == \
           (b.witness.bits.tobytes() if b.witness is not None else None)


# ------------------------------------------------------- exact search counts

# (k, N, red, blue, symmetry) -> (status, nodes, propagations, sha256 of the
# witness bits).  Recorded from the earlier scalar kernel, which propagated
# one clause at a time; any kernel must reproduce them exactly, because the
# branching order is fixed and unit propagation enqueues in clause order.
EXACT_COUNTS = {
    (3, 6, ("cycle", 3), ("cycle", 3), False):
        ("SAT", 5, 15, "7ddc56ba4fa8497dc30f89d981a8c9e7c9b1699ca937569d9aeafe1eb3cbf5a6"),
    (3, 7, ("cycle", 3), ("cycle", 3), False): ("UNSAT", 94, 1124, None),
    (3, 7, ("path", 3), ("path", 3), False):
        ("SAT", 11, 24, "2b08c337be9067b1992ceea15909d7037797c8ebc51fdfebb80e34b456663090"),
    (3, 8, ("path", 3), ("path", 3), False): ("UNSAT", 94, 2178, None),
    (3, 8, ("path", 3), ("path", 3), True): ("UNSAT", 38, 550, None),
    (3, 8, ("cycle", 4), ("cycle", 3), False):
        ("SAT", 21, 35, "7504ad94e13b983662099ef77f188710172ce89190248acc6fd87302c33b396c"),
    (3, 9, ("cycle", 4), ("cycle", 3), True): ("UNSAT", 250, 4596, None),
    (3, 9, ("cycle", 4), ("cycle", 3), False): ("UNSAT", 3922, 119592, None),
    (3, 9, ("path", 4), ("path", 3), False):
        ("SAT", 36, 48, "bee86e869c610cca8459489cc22799b50792feeec1fc18a1806a4ac8c11a14d7"),
    (3, 8, ("cycle", 4), ("cycle", 4), False):
        ("SAT", 35, 21, "7504ad94e13b983662099ef77f188710172ce89190248acc6fd87302c33b396c"),
    (4, 9, ("cycle", 3), ("cycle", 3), False):
        ("SAT", 36, 90, "48fd22b86848e26d4880a3992b663c6c75d48ba8db3ae34c7d8356554c24b9b0"),
    # N == k: the one edge holds every vertex, so no transposition moves it
    (3, 3, ("path", 1), ("path", 1), True): ("UNSAT", 2, 0, None),
    (3, 3, ("path", 1), ("path", 2), True):
        ("SAT", 2, 0, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
}


def _fam(k, fam):
    kind, n = fam
    return cycle_template(k, n) if kind == "cycle" else path_template(k, n)


@pytest.mark.parametrize("case", list(EXACT_COUNTS), ids=lambda c: (
    f"k{c[0]}-{c[2][0][0]}{c[2][1]}{c[3][0][0]}{c[3][1]}@{c[1]}"
    + ("-sym" if c[4] else "")))
def test_exact_search_counts(case):
    k, N, red, blue, symmetry = case
    v = decide_arrowing(k, N, _fam(k, red), _fam(k, blue), symmetry=symmetry)
    status, nodes, props, digest = EXACT_COUNTS[case]
    assert (v.status, v.stats["nodes"], v.stats["propagations"]) == \
        (status, nodes, props)
    got = None if v.witness is None else \
        hashlib.sha256(v.witness.bits.tobytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("symmetry", [False, True])
@pytest.mark.parametrize("N", [7, 8])
@pytest.mark.parametrize("red,blue", list(itertools.product(TEMPLATES, repeat=2)))
def test_search_matches_reference_rule(N, red, blue, symmetry):
    # the plain-list loop over the exported CNF takes the same branches
    text, _ = export_dimacs(3, N, _t(3, red), _t(3, blue))
    n_vars, clauses = O.parse_dimacs(text)
    gens = O.oracle_transpositions(N, 3) if symmetry else ()
    status, nodes, props, model = O.counting_dpll(n_vars, clauses, gens)
    v = decide_arrowing(3, N, _t(3, red), _t(3, blue), symmetry=symmetry)
    assert (v.status, v.stats["nodes"], v.stats["propagations"]) == \
        (status, nodes, props)
    if status == "SAT":
        assert v.witness.bits.tolist() == model



# max_nodes -> (status, nodes, propagations) for C^3_3/C^3_3 at N=7, whose
# full search is UNSAT after 94 nodes: the budget stops the search right
# after its last node is made, before that node is propagated
BUDGET_BOUNDARIES = {
    0: ("UNKNOWN", 0, 0),
    1: ("UNKNOWN", 1, 0),
    64: ("UNKNOWN", 64, 725),
    65: ("UNKNOWN", 65, 725),
    94: ("UNKNOWN", 94, 1101),
    95: ("UNSAT", 94, 1124),
}


@pytest.mark.parametrize("max_nodes", list(BUDGET_BOUNDARIES))
def test_node_budget_boundaries(max_nodes):
    c3 = cycle_template(3, 3)
    v = decide_arrowing(3, 7, c3, c3, max_nodes=max_nodes)
    assert (v.status, v.stats["nodes"], v.stats["propagations"]) == \
        BUDGET_BOUNDARIES[max_nodes]


def test_time_budget_honored():
    # the full search takes thousands of nodes; warm the copy matrices so
    # the budget is spent searching, then the deadline must stop it
    c4, c3 = cycle_template(3, 4), cycle_template(3, 3)
    copy_rank_matrix(9, 3, c4)
    copy_rank_matrix(9, 3, c3)
    t0 = time.monotonic()
    v = decide_arrowing(3, 9, c4, c3, max_secs=0.2)
    assert time.monotonic() - t0 < 2.0
    assert v.status == "UNKNOWN"
    assert v.stats["nodes"] < EXACT_COUNTS[(3, 9, ("cycle", 4), ("cycle", 3), False)][1]


def test_time_budget_bounds_copy_enumeration(monkeypatch):
    # cold, P^3_4 in K^3_10 takes seconds to enumerate; the deadline must
    # stop the enumeration itself, and leave nothing partial in the cache
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.delenv("RAMSEY_LAB_CACHE", raising=False)
    p4 = path_template(3, 4)
    t0 = time.monotonic()
    v = decide_arrowing(3, 10, p4, p4, max_secs=0.5)
    assert time.monotonic() - t0 < 3.0
    assert v.status == "UNKNOWN"
    assert (v.stats["nodes"], v.stats["propagations"]) == (0, 0)
    assert (10, 3, "path", 4) not in embedder._COPY_CACHE


# ------------------------------------------------------------ exact values

def test_exact_c33():
    claim = compute_ramsey(3, ("cycle", 3), ("cycle", 3))
    assert claim.value == F.EXACT_VALUES[("cycle", 3, "cycle", 3)]
    assert claim.witness is not None
    assert claim.witness.n_vertices == claim.value - 1


def test_exact_p33():
    claim = compute_ramsey(3, ("path", 3), ("path", 3))
    assert claim.value == F.EXACT_VALUES[("path", 3, "path", 3)]


# ----------------------------------------------------------- DIMACS export

def test_dimacs_dual_route_small():
    # internal engine and the standalone DPLL agree on the exported text
    for N, red, blue in [(6, "C3", "C3"), (7, "C3", "C3"), (6, "P2", "C3")]:
        text, sidecar = export_dimacs(3, N, _t(3, red), _t(3, blue))
        internal = decide_arrowing(3, N, _t(3, red), _t(3, blue)).status
        assert O.mini_dpll_status(text) == internal
        assert sidecar["red_bit"] == 1
        assert len(sidecar["variables"]) == len(all_edges(N, 3))


def test_dimacs_variable_convention():
    text, sidecar = export_dimacs(3, 6, _t(3, "C3"), _t(3, "C3"))
    n_vars, clauses = O.parse_dimacs(text)
    assert n_vars == len(all_edges(6, 3))
    # red copies forbid all-red: all-negative clauses; blue all-positive
    negs = [cl for cl in clauses if all(l < 0 for l in cl)]
    poss = [cl for cl in clauses if all(l > 0 for l in cl)]
    assert len(negs) == F.COPY_COUNTS[("cycle", 3, 3, 6)]
    assert len(poss) == F.COPY_COUNTS[("cycle", 3, 3, 6)]
    assert len(negs) + len(poss) == len(clauses)
    # variable map sidecar matches colex order
    for r, e in enumerate(all_edges(6, 3)):
        assert tuple(sidecar["variables"][str(r + 1)]) == e


def test_dimacs_model_decodes_to_witness():
    text, _ = export_dimacs(3, 6, _t(3, "C3"), _t(3, "C3"))
    n_vars, clauses = O.parse_dimacs(text)
    model = O.mini_dpll(n_vars, clauses)
    assert model is not None
    bits = np.zeros(n_vars, dtype=np.uint8)
    for v, val in model.items():
        bits[v - 1] = 1 if val else 0
    w = TwoColoring(3, 6, bits)
    assert find_embedding(w, "red", _t(3, "C3")) is None
    assert find_embedding(w, "blue", _t(3, "C3")) is None


# ------------------------------------------------------------------ tables

def test_derive_table_diagonal():
    for k in range(3, 11):
        base = {(3, 3): F.cc_value(k, 3, 3)}
        claims = derive_table(k, base)
        by = {(cl.red, cl.blue): cl for cl in claims}
        pp = by[(("path", 3), ("path", 3))]
        pc = by[(("path", 3), ("cycle", 3))]
        assert pp.value == pc.value == F.cc_value(k, 3, 3) + 1 == 3 * k - 1
        assert pp.provenance in ("theorem-derived", "paper-formula")


def test_derive_table_k3_grid():
    base = {(n, m): F.cc_value(3, n, m)
            for n in range(3, 7) for m in range(3, n + 1)}
    claims = derive_table(3, base)
    by = {(cl.red, cl.blue): cl.value for cl in claims}
    for n in range(3, 7):
        for m in range(3, n + 1):
            assert by[(("path", n), ("cycle", m))] == F.pc_value(3, n, m)
            if m >= 4:
                assert by[(("path", n), ("path", m - 1))] == F.pp_value(3, n, m - 1)
        assert by[(("path", n), ("path", n))] == F.pp_value(3, n, n)


def test_derive_table_rejects_bad_base():
    with pytest.raises(ValueError, match="inconsistent-base"):
        derive_table(3, {(3, 3): 99})


# ------------------------------------------------------------- certificates

def test_witness_certificate_roundtrip(tmp_path):
    N, c = lower_bound_witness(3, 3, 3, "CC")
    cert = make_certificate(
        "witness-coloring", c,
        {"red_target": {"kind": "cycle", "length": 3},
         "blue_target": {"kind": "cycle", "length": 3},
         "n_vertices": N},
        lemma="lower-bound", seed=7)
    ok, report = verify_certificate(cert)
    assert ok, report
    p = tmp_path / "w.cert.json"
    cert.save(p)
    ok, report = verify_certificate(Certificate.load(p))
    assert ok
    assert Certificate.load(p).meta["seed"] == 7


def test_tampered_certificate_rejected():
    N, c = lower_bound_witness(3, 3, 3, "CC")
    cert = make_certificate(
        "witness-coloring", c,
        {"red_target": {"kind": "cycle", "length": 3},
         "blue_target": {"kind": "cycle", "length": 3},
         "n_vertices": N},
        lemma="lower-bound")
    obj = cert.to_json_obj()
    obj["payload"]["n_vertices"] = N + 1
    ok, report = verify_certificate(obj)
    assert not ok and "host-size-mismatch" in report["reasons"]
    # flipping an edge red creates a red copy
    c_bad = c.with_edges([next(iter(
        e for e in all_edges(N, 3) if not c.is_red(e)))], red=True)
    cert2 = make_certificate("witness-coloring", c_bad, cert.payload,
                             lemma="lower-bound")
    ok2, report2 = verify_certificate(cert2)
    if not ok2:
        assert any(r.endswith("-copy-found") for r in report2["reasons"])


def test_malformed_certificate_raises():
    c = TwoColoring.all_red(3, 5)
    cert = make_certificate("witness-coloring", c, {}, lemma="x")
    with pytest.raises(ValueError, match="malformed-certificate"):
        verify_certificate(cert)
    with pytest.raises(ValueError, match="malformed-certificate"):
        verify_certificate({"not": "a-cert"})
    nested = make_certificate("witness-coloring", c,
                              {"red_target": {"length": 3},
                               "blue_target": {"kind": "cycle", "length": 3},
                               "n_vertices": 5}, lemma="x")
    with pytest.raises(ValueError, match="malformed-certificate"):
        verify_certificate(nested)
