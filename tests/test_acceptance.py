"""Acceptance gate: one test per numbered criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; every criterion carries its
stated wall-clock budget as an assertion, so a pass line certifies both the
behaviour and the cost envelope.
"""

import itertools
import math
import time

import numpy as np
import pytest

import frozen_values as F
from oracles import (
    oracle_arrowing,
    oracle_count_copies,
    oracle_cycle_edges,
    oracle_path_edges,
)
from test_constructive import case2_coloring, ident_cycle, lift_expected_edges

from ramsey_lab.coloring import TwoColoring, all_edges, lower_bound_witness
from ramsey_lab.constructive import (
    adjacent_bichromatic_pair,
    case2_blue_cycle,
    join_red_cycles,
    lift_blue_c4,
    to_certificate,
)
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import (
    Embedding,
    count_copies,
    find_embedding,
    verify_embedding,
)
from ramsey_lab.prover import decide_arrowing, derive_table, verify_certificate


def _template(k, kind, n):
    return (path_template if kind == "path" else cycle_template)(k, n)


def _no_copy(c, color, t):
    assert find_embedding(c, color, t) is None, (color, t)


def test_criterion_01_template_laws():
    t0 = time.perf_counter()
    for k in (3, 4, 5, 6):
        for kind, ns in (("path", range(1, 9)), ("cycle", range(3, 9))):
            for n in ns:
                t = _template(k, kind, n)
                want_nv = n * (k - 1) + (1 if kind == "path" else 0)
                assert t.n_vertices == want_nv
                es = [set(e) for e in t.edges]
                assert all(len(e) == k for e in es)
                for i, j in itertools.combinations(range(n), 2):
                    inter = es[i] & es[j]
                    adjacent = (j == i + 1) or (
                        kind == "cycle" and i == 0 and j == n - 1)
                    assert len(inter) == (1 if adjacent else 0)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_lower_bound_witnesses():
    t0 = time.perf_counter()
    for k, n_max in ((3, 6), (4, 6), (5, 6), (6, 4)):
        for n in range(3, n_max + 1):
            for m in range(3, n + 1):
                for pair in ("PP", "PC", "CC"):
                    N, c = lower_bound_witness(k, n, m, pair)
                    red = _template(k, "cycle" if pair == "CC" else "path", n)
                    blue = _template(k, "path" if pair == "PP" else "cycle", m)
                    claimed = (F.cc_value(k, n, m) if pair == "CC"
                               else F.pp_value(k, n, m))
                    assert N == claimed - 1
                    assert c.n_vertices == N
                    _no_copy(c, "red", red)
                    _no_copy(c, "blue", blue)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_03_exact_c33_c33():
    t0 = time.perf_counter()
    t = cycle_template(3, 3)
    sat = decide_arrowing(3, 6, t, t)
    assert sat.status == "SAT"
    _no_copy(sat.witness, "red", t)
    _no_copy(sat.witness, "blue", t)
    unsat = decide_arrowing(3, 7, t, t)
    assert unsat.status == "UNSAT"
    assert time.perf_counter() - t0 < 120.0


def test_criterion_04_exact_p33_p33_and_stretch():
    t0 = time.perf_counter()
    p = path_template(3, 3)
    sat = decide_arrowing(3, 7, p, p)
    assert sat.status == "SAT"
    _no_copy(sat.witness, "red", p)
    _no_copy(sat.witness, "blue", p)
    # internal engine settles N = 8; no external solver on either side
    assert decide_arrowing(3, 8, p, p).status == "UNSAT"
    # stretch tier: R(C3_4, C3_3) = 9 by the same protocol
    c4, c3 = cycle_template(3, 4), cycle_template(3, 3)
    sat = decide_arrowing(3, 8, c4, c3)
    assert sat.status == "SAT"
    _no_copy(sat.witness, "red", c4)
    _no_copy(sat.witness, "blue", c3)
    assert decide_arrowing(3, 9, c4, c3).status == "UNSAT"
    assert time.perf_counter() - t0 < 1800.0


def test_criterion_05_arrowing_matches_enumeration():
    t0 = time.perf_counter()
    targets = {"path2": ("path", 2), "path3": ("path", 3),
               "cycle3": ("cycle", 3)}
    for N in (5, 6):
        for (rk, rn), (bk, bn) in itertools.product(targets.values(),
                                                    repeat=2):
            rt, bt = _template(3, rk, rn), _template(3, bk, bn)
            r_edges = (oracle_path_edges if rk == "path"
                       else oracle_cycle_edges)(3, rn)
            b_edges = (oracle_path_edges if bk == "path"
                       else oracle_cycle_edges)(3, bn)
            arrows, _ = oracle_arrowing(N, 3, r_edges, rt.n_vertices,
                                        b_edges, bt.n_vertices)
            got = decide_arrowing(3, N, rt, bt)
            assert got.status == ("UNSAT" if arrows else "SAT"), (N, rk, bk)
    assert time.perf_counter() - t0 < 600.0


def test_criterion_06_copy_counts_match_oracle():
    checked = 0
    for kind, ns in (("path", (1, 2, 3)), ("cycle", (3,))):
        for n in ns:
            t = _template(3, kind, n)
            edges = (oracle_path_edges if kind == "path"
                     else oracle_cycle_edges)(3, n)
            for N in range(1, 8):
                want = oracle_count_copies(N, edges, t.n_vertices)
                assert count_copies(N, 3, t) == want, (kind, n, N)
                checked += 1
    assert count_copies(6, 3, cycle_template(3, 3)) == 120
    assert checked == 28


def test_criterion_07_join_property_suite():
    t0 = time.perf_counter()
    k, N = 4, 18
    C1, C2 = ident_cycle(k, 3, 1), ident_cycle(k, 3, 10)
    plant = list(C1.edge_images()) + list(C2.edge_images())
    E = len(all_edges(N, k))
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        bits = (rng.random(E) < 0.5).astype(np.uint8)
        c = TwoColoring(k, N, bits).with_edges(plant, red=True)
        tr = join_red_cycles(c, C1, C2, 3)
        assert tr.outcome.template.n == (6 if tr.outcome_kind == "red-cycle"
                                         else 3)
        assert verify_embedding(c, tr.outcome).ok
        ok, report = verify_certificate(
            to_certificate(c, tr, lemma="join").to_json_obj())
        assert ok, (seed, report)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_case2_blue_cycles():
    for m in range(3, 9):
        host_n = max(m, (3 * m // 2 + 2) // 2 + 1)
        c, W = case2_coloring(host_n, m)
        emb = case2_blue_cycle(c, ident_cycle(3, host_n, 1), W, m)
        assert emb.template.kind == "cycle" and emb.template.n == m
        assert emb.claimed_color == "blue"
        assert verify_embedding(c, emb).ok, m


def test_criterion_09_lift_matches_proof_edges():
    for k in (4, 5, 6):
        for i in (5, 6):
            N = i * (k - 1) + 1
            C4 = ident_cycle(k, 4, 1, color="blue")
            c = TwoColoring.all_red(k, N).with_edges(
                list(C4.edge_images()), red=False)
            emb = lift_blue_c4(c, C4, i)
            assert emb.template.kind == "cycle" and emb.template.n == i
            assert verify_embedding(c, emb).ok
            got = {frozenset(e) for e in emb.edge_images()}
            want = {frozenset(e)
                    for e in lift_expected_edges(k, i, C4.assignment, N)}
            assert got == want, (k, i)


def test_criterion_10_adjacent_pair_suite():
    for seed in range(500):
        k = (3, 4, 5)[seed % 3]
        rng = np.random.default_rng(seed)
        N = int(rng.integers(k + 2, k + 7))
        bits = (rng.random(len(all_edges(N, k))) < 0.5).astype(np.uint8)
        if bits.all() or not bits.any():
            bits[0] ^= 1
        c = TwoColoring(k, N, bits)
        stats = {}
        pair = adjacent_bichromatic_pair(c, stats=stats)
        ok, why = pair.validate(c)
        assert ok, (seed, why)
        assert len(set(pair.red_edge) & set(pair.blue_edge)) == k - 1
        assert stats["iterations"] <= k, seed


def test_criterion_11_derived_table():
    for k in range(3, 11):
        base = {(3, 3): (k - 1) * 3 + 1}
        claims = {(c.red, c.blue): c.value for c in derive_table(k, base)}
        want = 3 * k - 1
        assert claims[(("path", 3), ("path", 3))] == want
        assert claims[(("path", 3), ("cycle", 3))] == want
        assert base[(3, 3)] + 1 == want
    base = {(n, m): F.cc_value(3, n, m)
            for n in range(3, 7) for m in range(3, n + 1)}
    for claim in derive_table(3, base):
        (rk, rn), (bk, bn) = claim.red, claim.blue
        assert rk == "path"
        if bk == "cycle":
            assert claim.value == F.pc_value(3, rn, bn)
        else:
            assert claim.value == F.pp_value(3, rn, bn)


def test_criterion_12_scope_of_desk_verification():
    """Short-cycle upper bounds for k >= 4 are beyond exhaustive search.

    R(C^k_5, C^k_3) = 5k-4 and R(C^k_6, C^k_3) = 6k-5 put the first
    interesting host at 16 vertices and 1820 edges; the 2^1820 colorings
    rule out enumeration, and the branching search has no hope either.
    What this suite does certify: the lower-bound witnesses at exactly
    value-1 (here, and at scale in criterion 2) and the constructive
    steps any upper-bound argument is assembled from (criteria 7-10).
    """
    for k in range(4, 11):
        assert F.cc_value(k, 5, 3) == 5 * k - 4
        assert F.cc_value(k, 6, 3) == 6 * k - 5
    assert math.comb(16, 4) == 1820
    assert 2 ** 1820 > 10 ** 500
    for k in (4, 5):
        for n in (5, 6):
            N, c = lower_bound_witness(k, n, 3, "CC")
            assert N == F.cc_value(k, n, 3) - 1
            _no_copy(c, "red", cycle_template(k, n))
            _no_copy(c, "blue", cycle_template(k, 3))
