"""Constructive operations: worked instances, seeded sweeps, certificates."""

import numpy as np
import pytest

from ramsey_lab.certificates import CERT_TYPES, Certificate, make_certificate
from ramsey_lab.coloring import TwoColoring, all_edges, lower_bound_witness
from ramsey_lab.constructive import (
    AbsorptionResult,
    BichromaticPair,
    GoodConfiguration,
    JoinTrace,
    absorb_blue_path,
    adjacent_bichromatic_pair,
    blue_cycle_from_red_shorter_cycle,
    case2_blue_cycle,
    disjoint_bichromatic_pairs,
    find_good_configuration,
    join_red_cycles,
    lift_blue_c4,
    to_certificate,
    validate_good_configuration,
)
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import Embedding, verify_embedding
from ramsey_lab.errors import HypothesisViolation, ProofGap
from ramsey_lab.prover import verify_certificate


def ident_cycle(k, n, start=1, color="red"):
    t = cycle_template(k, n)
    return Embedding(t, tuple(range(start, start + t.n_vertices)), color)


def ident_path(k, n, start=1, color="red"):
    t = path_template(k, n)
    return Embedding(t, tuple(range(start, start + t.n_vertices)), color)


def certify_roundtrip(c, obj, lemma):
    cert = to_certificate(c, obj, lemma=lemma)
    ok, report = verify_certificate(cert.to_json_obj())
    assert ok, report
    return cert


# --------------------------------------------------------------------- join

def test_join_all_red_first_step():
    k = 4
    c = TwoColoring.all_red(k, 18)
    tr = join_red_cycles(c, ident_cycle(k, 3, 1), ident_cycle(k, 3, 10), 3)
    assert isinstance(tr, JoinTrace)
    assert tr.outcome_kind == "red-cycle"
    assert tr.outcome.template.n == 6
    assert verify_embedding(c, tr.outcome).ok
    assert len(tr.steps) == 1
    certify_roundtrip(c, tr, "join")


def test_join_outside_blue_closes_blue_triple():
    k, N = 4, 18
    C1, C2 = ident_cycle(k, 3, 1), ident_cycle(k, 3, 10)
    v1, v2 = set(C1.assignment), set(C2.assignment)
    reds = [e for e in all_edges(N, k) if set(e) <= v1 or set(e) <= v2]
    c = TwoColoring.all_blue(k, N).with_edges(reds, red=True)
    tr = join_red_cycles(c, C1, C2, 3)
    assert tr.outcome_kind == "blue-cycle"
    assert tr.outcome.template.n == 3
    assert verify_embedding(c, tr.outcome).ok
    certify_roundtrip(c, tr, "join")


@pytest.mark.parametrize("seed", range(100))
def test_join_randomized_always_certifies(seed):
    k, N = 4, 18
    rng = np.random.default_rng(seed)
    bits = (rng.random(len(all_edges(N, k))) < 0.5).astype(np.uint8)
    C1, C2 = ident_cycle(k, 3, 1), ident_cycle(k, 3, 10)
    plant = list(C1.edge_images()) + list(C2.edge_images())
    c = TwoColoring(k, N, bits).with_edges(plant, red=True)
    tr = join_red_cycles(c, C1, C2, 3)
    assert verify_embedding(c, tr.outcome).ok
    certify_roundtrip(c, tr, "join")


@pytest.mark.parametrize("seed", [0, 1])
def test_join_certificate_with_forged_outcome_kind_is_rejected(seed):
    # seed 1 joins into a red C^4_6, seed 0 closes a blue C^4_3; the trace
    # must not verify once its outcome_kind names the other color
    k, N = 4, 18
    rng = np.random.default_rng(seed)
    bits = (rng.random(len(all_edges(N, k))) < 0.5).astype(np.uint8)
    C1, C2 = ident_cycle(k, 3, 1), ident_cycle(k, 3, 10)
    plant = list(C1.edge_images()) + list(C2.edge_images())
    c = TwoColoring(k, N, bits).with_edges(plant, red=True)
    tr = join_red_cycles(c, C1, C2, 3)
    assert tr.outcome_kind == ("red-cycle" if seed else "blue-cycle")
    obj = certify_roundtrip(c, tr, "join").to_json_obj()
    obj["payload"]["outcome_kind"] = "blue-cycle" if seed else "red-cycle"
    ok, report = verify_certificate(obj)
    assert not ok
    assert report["reasons"] == ["outcome-kind-mismatch"]
    del obj["payload"]["outcome_kind"]
    with pytest.raises(ValueError, match="^malformed-certificate"):
        verify_certificate(obj)


def test_join_rejects_overlapping_cycles():
    k = 4
    c = TwoColoring.all_red(k, 18)
    with pytest.raises(ValueError):
        join_red_cycles(c, ident_cycle(k, 3, 1), ident_cycle(k, 3, 5), 3)


def test_join_rejects_non_red_cycle():
    k = 4
    C1, C2 = ident_cycle(k, 3, 1), ident_cycle(k, 3, 10)
    c = TwoColoring.all_red(k, 18).with_edges([C1.edge_images()[0]], red=False)
    with pytest.raises(HypothesisViolation):
        join_red_cycles(c, C1, C2, 3)


# -------------------------------------------------------- case2 / blue cycle

def case2_coloring(host_n, m, k=3):
    """Red host cycle with every reservoir-touching edge blue."""
    hv = host_n * (k - 1)
    n_res = (m - 1) // 2 + 2
    N = hv + n_res
    c = TwoColoring.all_red(k, N)
    blues = [e for e in all_edges(N, k) if any(x > hv for x in e)]
    return c.with_edges(blues, red=False), list(range(hv + 1, N + 1))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_case2_formula_instantiation(m):
    host_n = max(m, (3 * m // 2 + 2) // 2 + 1)
    c, W = case2_coloring(host_n, m)
    C = ident_cycle(3, host_n, 1)
    emb = case2_blue_cycle(c, C, W, m)
    assert emb.template.kind == "cycle" and emb.template.n == m
    assert verify_embedding(c, emb).ok
    certify_roundtrip(c, emb, "case2")


def test_case2_m3_exact_edges():
    c, W = case2_coloring(4, 3)
    emb = case2_blue_cycle(c, ident_cycle(3, 4, 1), W, 3)
    es = emb.edge_images()
    assert set(es[0]) == {W[0], 2, 3}
    assert set(es[1]) == {3, 4, W[1]}
    assert set(es[2]) == {W[1], 1, 2}


def test_case2_detects_red_bridge():
    c, W = case2_coloring(4, 3)
    c = c.with_edges([(1, 2, W[0])], red=True)
    with pytest.raises(HypothesisViolation):
        case2_blue_cycle(c, ident_cycle(3, 4, 1), W, 3)


def test_blue_cycle_dispatches_case2():
    n, m = 5, 3
    c, W = case2_coloring(n - 1, m)
    meta = {}
    emb = blue_cycle_from_red_shorter_cycle(c, ident_cycle(3, n - 1, 1), n, m,
                                            meta=meta)
    assert verify_embedding(c, emb).ok
    assert meta.get("case") == 2
    cert = to_certificate(c, emb, lemma="blue-from-shorter")
    ok, _ = verify_certificate(cert)
    assert ok


def test_blue_cycle_finds_red_long_cycle():
    n, m = 5, 3
    N = 2 * n + (m - 1) // 2
    c = TwoColoring.all_red(3, N)
    with pytest.raises(HypothesisViolation):
        blue_cycle_from_red_shorter_cycle(c, ident_cycle(3, n - 1, 1), n, m)


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (4, 4)])
def test_blue_cycle_excluded_sizes(n, m):
    c = TwoColoring.all_red(3, 2 * n + (m - 1) // 2)
    C = ident_cycle(3, n - 1, 1) if n > 3 else ident_cycle(3, 3, 1)
    with pytest.raises((HypothesisViolation, ValueError)):
        blue_cycle_from_red_shorter_cycle(c, C, n, m)


@pytest.mark.parametrize("seed", range(40))
def test_blue_cycle_randomized_conditioned(seed):
    # random flips over a Case-2 base; accept any principled outcome
    n, m = 5, 3
    c, W = case2_coloring(n - 1, m)
    rng = np.random.default_rng(seed)
    flips = [e for e in all_edges(c.n_vertices, 3)
             if any(x > 8 for x in e) and rng.random() < 0.1]
    c = c.with_edges(flips, red=True)
    meta = {}
    try:
        emb = blue_cycle_from_red_shorter_cycle(
            c, ident_cycle(3, n - 1, 1), n, m, max_nodes=50_000, meta=meta)
    except (HypothesisViolation, ProofGap):
        return
    assert verify_embedding(c, emb).ok


# ------------------------------------------------------- good configurations

def final_case_coloring():
    """Anchored at edge 2 of a red 4-path; forces the last proof case."""
    k, N = 3, 12
    P = ident_path(k, 4, 1)
    W = {10, 11, 12}
    pe = set(P.edge_images())
    red = []
    f_cores = {(2, 5), (4, 5), (2, 6), (4, 6)}
    for e in all_edges(N, k):
        wv = [x for x in e if x in W]
        if not wv:
            if e in pe:
                red.append(e)
        elif len(wv) == 1 and tuple(sorted(set(e) - W)) in f_cores:
            red.append(e)
    c = TwoColoring.all_blue(k, N).with_edges(red, red=True)
    return c, P, W


def test_good_configuration_final_case():
    c, P, W = final_case_coloring()
    cfg = find_good_configuration(c, P, W, 2, 2)
    ok, why = validate_good_configuration(c, cfg)
    assert ok, why
    assert cfg.S == frozenset({2, 4, 7})
    assert cfg.avoided_vertex == 6
    certify_roundtrip(c, cfg, "good-config")


def test_good_configuration_rejects_non_maximal():
    k, N = 3, 8
    c = TwoColoring.all_red(k, N)
    with pytest.raises(HypothesisViolation):
        find_good_configuration(c, ident_path(k, 2, 1), {6, 7, 8}, 1, 1)


def test_good_configuration_validator_rejects_tampering():
    c, P, W = final_case_coloring()
    cfg = find_good_configuration(c, P, W, 2, 2)
    bad = GoodConfiguration(
        x=cfg.x, y=cfg.y, a1=cfg.a1, a2=cfg.a2, a3=cfg.a3,
        anchor_i=cfg.anchor_i, avoided_vertex=cfg.a1,  # avoided inside S
        u=cfg.u, path_assignment=cfg.path_assignment, W=cfg.W)
    ok, why = validate_good_configuration(c, bad)
    assert not ok


def test_configuration_miss_is_a_proof_gap(monkeypatch):
    from ramsey_lab import constructive

    # when no proof case yields a valid configuration the lemma reports a
    # gap with its instance; nothing searches beyond the cases, so only the
    # cases' candidates are validated (an exhaustive search over the
    # anchor's vertex pool would validate 288 and 576)
    calls = []
    monkeypatch.setattr(constructive, "validate_good_configuration",
                        lambda c, cfg: calls.append(cfg) or (False, "no"))
    c, P, W = final_case_coloring()
    with pytest.raises(ProofGap, match="no good configuration") as ei:
        find_good_configuration(c, P, W, 2, 2)
    assert sorted(ei.value.instance) == ["W", "coloring", "i", "path", "u"]
    assert len(calls) == 12
    calls.clear()
    c, P = absorb_coloring(3, 4, {10, 11, 12, 13})
    with pytest.raises(ProofGap, match="absorption chain") as ei:
        absorb_blue_path(c, P, {10, 11, 12, 13})
    assert sorted(ei.value.instance) == ["W", "coloring", "path"]
    assert len(calls) == 168


@pytest.mark.parametrize("seed", range(60))
def test_good_configuration_randomized(seed):
    # blue-dominant random colorings around the worked instance
    c, P, W = final_case_coloring()
    rng = np.random.default_rng(seed)
    flips = [e for e in all_edges(12, 3)
             if e not in set(P.edge_images()) and rng.random() < 0.06]
    c2 = c.with_edges(flips, red=True)
    try:
        cfg = find_good_configuration(c2, P, W, 2, 2)
    except HypothesisViolation:
        return
    except ProofGap:
        pytest.fail("complete case sweep found nothing on a maximal instance")
    ok, why = validate_good_configuration(c2, cfg)
    assert ok, why


# ---------------------------------------------------------------- absorption

def absorb_coloring(k, n, W):
    """Red path on an otherwise blue host: maximal by construction."""
    P = ident_path(k, n, 1)
    N = P.template.n_vertices + len(W)
    pe = list(P.edge_images())
    c = TwoColoring.all_blue(k, N).with_edges(pe, red=True)
    return c, P


def test_absorb_minimal_instance():
    W = {6, 7, 8}
    c, P = absorb_coloring(3, 2, W)
    res = absorb_blue_path(c, P, W)
    assert isinstance(res, AbsorptionResult)
    assert res.Q.template.n == 2 and res.r == 0
    assert verify_embedding(c, res.Q).ok
    certify_roundtrip(c, res, "absorb")


@pytest.mark.parametrize("n,wsize", [(4, 4), (4, 5), (6, 5)])
def test_absorb_scaling(n, wsize):
    base = n * 2 + 1
    W = set(range(base + 1, base + 1 + wsize))
    c, P = absorb_coloring(3, n, W)
    res = absorb_blue_path(c, P, W)
    assert res.Q.template.n == n - res.r
    assert res.r in (0, 1) or res.r <= n - 2
    assert verify_embedding(c, res.Q).ok
    # reservoir bookkeeping: 2t = n - r with t+1 reservoir vertices consumed
    t = (n - res.r) // 2
    assert len(res.W_used) == t + 1
    certify_roundtrip(c, res, "absorb")


def test_absorb_requires_reservoir():
    c, P = absorb_coloring(3, 2, {6, 7})
    with pytest.raises(HypothesisViolation):
        absorb_blue_path(c, P, {6, 7})


@pytest.mark.parametrize("seed", range(30))
def test_absorb_randomized(seed):
    n, wsize = 4, 4
    base = n * 2 + 1
    W = set(range(base + 1, base + 1 + wsize))
    c, P = absorb_coloring(3, n, W)
    rng = np.random.default_rng(seed)
    flips = [e for e in all_edges(c.n_vertices, 3)
             if e not in set(P.edge_images()) and rng.random() < 0.05]
    c2 = c.with_edges(flips, red=True)
    try:
        res = absorb_blue_path(c2, P, W)
    except HypothesisViolation:
        return
    assert verify_embedding(c2, res.Q).ok
    for cfg in res.configurations:
        ok, why = validate_good_configuration(c2, cfg)
        assert ok, why


# ------------------------------------------------------------ pair extraction

def test_adjacent_pair_single_blue_edge():
    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    stats = {}
    pr = adjacent_bichromatic_pair(c, stats=stats)
    ok, why = pr.validate(c)
    assert ok, why
    assert len(set(pr.red_edge) & set(pr.blue_edge)) == 2
    assert stats["iterations"] <= 3
    certify_roundtrip(c, pr, "adjacent-pair")


def test_adjacent_pair_monochromatic_rejected():
    with pytest.raises(ValueError, match="monochromatic-coloring"):
        adjacent_bichromatic_pair(TwoColoring.all_red(3, 6))


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("seed", range(25))
def test_adjacent_pair_randomized(k, seed):
    rng = np.random.default_rng(1000 * k + seed)
    N = int(rng.integers(k + 2, k + 7))
    E = len(all_edges(N, k))
    bits = (rng.random(E) < 0.5).astype(np.uint8)
    if bits.all() or not bits.any():
        bits[0] ^= 1
    c = TwoColoring(k, N, bits)
    stats = {}
    pr = adjacent_bichromatic_pair(c, stats=stats)
    ok, why = pr.validate(c)
    assert ok, why
    assert stats["iterations"] <= k
    assert len(set(pr.red_edge) & set(pr.blue_edge)) == k - 1


def test_disjoint_pairs_split_instance():
    # red inside {1..6} and inside {7..11}: the hypothesis check finds the
    # blue 3-cycle across the split; a budget of one node stops it first,
    # and the case analysis then yields one pair on each side
    k, t = 3, 5
    N = t * (k - 1) + 1
    reds = [e for e in all_edges(N, k) if max(e) <= 6 or min(e) >= 7]
    c = TwoColoring.all_blue(k, N).with_edges(reds, red=True)
    with pytest.raises(HypothesisViolation,
                       match="a blue 3-cycle is present") as ei:
        disjoint_bichromatic_pairs(c, t, max_nodes=500)
    assert verify_embedding(c, ei.value.witness).ok
    meta = {}
    p1, p2 = disjoint_bichromatic_pairs(c, t, max_nodes=1, meta=meta)
    assert meta["budget_exhausted"] is True
    assert (p1.red_edge, p1.blue_edge) == ((1, 2, 3), (1, 2, 7))
    assert (p2.red_edge, p2.blue_edge) == ((4, 5, 6), (4, 5, 8))
    certify_roundtrip(c, (p1, p2), "disjoint-pairs")


@pytest.mark.parametrize("seed", range(40))
def test_disjoint_pairs_randomized(seed):
    k, t = 3, 5
    N = t * (k - 1) + 1
    rng = np.random.default_rng(seed)
    bits = (rng.random(len(all_edges(N, k))) < 0.5).astype(np.uint8)
    c = TwoColoring(k, N, bits)
    try:
        p1, p2 = disjoint_bichromatic_pairs(c, t, max_nodes=200)
    except HypothesisViolation as exc:
        if isinstance(exc.witness, Embedding):
            assert verify_embedding(c, exc.witness).ok
        return
    except ValueError:
        return  # monochromatic sample
    for pr in (p1, p2):
        ok, why = pr.validate(c)
        assert ok, why
    assert not (p1.union & p2.union)


def _dense_red(k, t, p_red, seed):
    N = t * (k - 1) + 1
    rng = np.random.default_rng(seed)
    return TwoColoring(k, N, (rng.random(len(all_edges(N, k))) < p_red).astype(np.uint8))


# (k, t, P(red), seed) whose reservoir is all red: the first two yield pairs,
# the rest close a red t-cycle through the reservoir
@pytest.mark.parametrize("k,t,p_red,seed,pairs", [
    (3, 5, 0.9, 74, True), (3, 6, 0.99, 165, True),
    (3, 5, 0.9, 102, False), (3, 6, 0.93, 42, False), (4, 5, 0.99, 28, False),
])
def test_disjoint_pairs_all_red_reservoir(monkeypatch, k, t, p_red, seed, pairs):
    from ramsey_lab import constructive

    calls = []
    real = constructive._all_red_reservoir_pairs
    monkeypatch.setattr(constructive, "_all_red_reservoir_pairs",
                        lambda *a: calls.append(a) or real(*a))
    c = _dense_red(k, t, p_red, seed)
    if pairs:
        p1, p2 = disjoint_bichromatic_pairs(c, t, max_nodes=1)
        assert p1.validate(c)[0] and p2.validate(c)[0]
        assert not (p1.union & p2.union)
        obj = certify_roundtrip(c, (p1, p2), "disjoint-pairs").to_json_obj()
        # disjointness is claimed of every two pairs, not only of a first two
        obj["payload"]["pairs"].append(obj["payload"]["pairs"][0])
        assert verify_certificate(obj) == (
            False, {"type": "pair-set", "reasons": ["pairs-not-disjoint"]})
    else:
        with pytest.raises(HypothesisViolation,
                           match="red t-cycle assembled through the reservoir") as ei:
            disjoint_bichromatic_pairs(c, t, max_nodes=1)
        w = ei.value.witness
        assert w.template == cycle_template(k, t) and w.claimed_color == "red"
        assert verify_embedding(c, w).ok
    assert len(calls) == 1


def test_disjoint_pairs_failed_case_analysis_is_a_proof_gap(monkeypatch):
    from ramsey_lab import constructive

    # overlapping pairs from the case analysis are a gap, not a reason to search
    monkeypatch.setattr(constructive, "_all_red_reservoir_pairs",
                        lambda c, t, pair1, Wv: (pair1, pair1))
    c = _dense_red(3, 5, 0.9, 74)
    with pytest.raises(ProofGap, match="case analysis") as ei:
        disjoint_bichromatic_pairs(c, 5, max_nodes=1)
    assert ei.value.instance == {"coloring": c.to_json_obj(), "t": 5}


def test_bichromatic_pair_validate_rejects():
    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    good = BichromaticPair(red_edge=(1, 2, 4), blue_edge=(1, 2, 3))
    assert good.validate(c)[0]
    swapped = BichromaticPair(red_edge=(1, 2, 3), blue_edge=(1, 2, 4))
    ok, why = swapped.validate(c)
    assert not ok
    far = BichromaticPair(red_edge=(4, 5, 6), blue_edge=(1, 2, 3))
    ok, why = far.validate(c)
    assert not ok


# ----------------------------------------------------------------- lifting

def lift_expected_edges(k, i, C4_assignment, N):
    """Recompute the target cycle's edge sets from the construction."""
    v = {j: C4_assignment[j - 1] for j in range(1, 4 * (k - 1) + 1)}
    M = 4 * (k - 1)
    E = {}
    for j in range(1, 5):
        base = (j - 1) * (k - 1)
        E[j] = {v[(base + o - 1) % M + 1] for o in range(1, k + 1)}
    W = sorted(set(range(1, N + 1)) - set(C4_assignment))
    if i == 5:
        w1, rest = W[0], W[2:]
        return [
            (E[2] - {v[k]}) | {v[4 * k - 4]},
            (E[4] - {v[1]}) | {v[k]},
            (E[1] - {v[1]}) | {v[3 * k - 3]},
            {v[3 * k - 3], v[1]} | set(rest),
            (E[3] - {v[3 * k - 3], v[3 * k - 2]}) | {v[1], w1},
        ]
    A, B, C = W[:k - 2], W[k - 2:2 * k - 4], W[2 * k - 4:2 * k - 1]
    u1, u2 = C[0], C[1]
    return [
        (E[2] - {v[k], v[k + 1]}) | {u1, v[4 * k - 4]},
        (E[4] - {v[1]}) | {v[k + 1]},
        (E[3] - {v[2 * k - 1], v[2 * k]}) | {v[k], u2},
        set(A) | {v[k], v[2 * k]},
        (E[1] - {v[k]}) | {v[2 * k]},
        set(B) | {v[1], v[2 * k - 1]},
    ]


@pytest.mark.parametrize("k", [4, 5, 6])
@pytest.mark.parametrize("i", [5, 6])
def test_lift_matches_expected_edges(k, i):
    N = i * (k - 1) + 1
    C4 = ident_cycle(k, 4, 1, color="blue")
    c = TwoColoring.all_red(k, N).with_edges(list(C4.edge_images()), red=False)
    emb = lift_blue_c4(c, C4, i)
    assert emb.template.kind == "cycle" and emb.template.n == i
    assert verify_embedding(c, emb).ok
    got = [set(e) for e in emb.edge_images()]
    want = lift_expected_edges(k, i, C4.assignment, N)
    assert {frozenset(e) for e in got} == {frozenset(e) for e in want}
    certify_roundtrip(c, emb, "lift")


def test_lift_rejects_bad_i():
    k = 4
    C4 = ident_cycle(k, 4, 1, color="blue")
    c = TwoColoring.all_red(k, 22).with_edges(list(C4.edge_images()), red=False)
    with pytest.raises(ValueError, match="invalid-parameter"):
        lift_blue_c4(c, C4, 7)


def test_lift_reports_blue_obstruction():
    from ramsey_lab.errors import BlueEdgeEncountered
    k, i = 4, 5
    N = i * (k - 1) + 1
    C4 = ident_cycle(k, 4, 1, color="blue")
    c = TwoColoring.all_blue(k, N)
    with pytest.raises(BlueEdgeEncountered) as ei:
        lift_blue_c4(c, C4, i)
    assert ei.value.edge is not None


# --------------------------------------------------------------- certificates

def test_certificate_type_dispatch():
    c = TwoColoring.all_red(4, 18)
    tr = join_red_cycles(c, ident_cycle(4, 3, 1), ident_cycle(4, 3, 10), 3)
    assert to_certificate(c, tr, lemma="x").type == "join-trace"
    assert to_certificate(c, tr.outcome, lemma="x").type == "embedding"
    c2 = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    pr = adjacent_bichromatic_pair(c2)
    assert to_certificate(c2, pr, lemma="x").type == "pair-set"
    cfg_c, P, W = final_case_coloring()
    cfg = find_good_configuration(cfg_c, P, W, 2, 2)
    assert to_certificate(cfg_c, cfg, lemma="x").type == "configuration"


def test_certificate_meta_budget_flag():
    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    pr = adjacent_bichromatic_pair(c)
    cert = to_certificate(c, pr, lemma="x", seed=11, budget_exhausted=True)
    assert cert.meta["budget_exhausted"] is True
    assert cert.meta["seed"] == 11
    assert cert.meta["lemma"] == "x"


def _one_certificate_per_type():
    """A small valid certificate of every type, plus an absorb one."""
    N, wc = lower_bound_witness(3, 3, 3, "CC")
    c4 = TwoColoring.all_red(4, 18)
    tr = join_red_cycles(c4, ident_cycle(4, 3, 1), ident_cycle(4, 3, 10), 3)
    c3 = TwoColoring.all_red(3, 8).with_edges([(1, 2, 3), (5, 6, 7)],
                                              red=False)
    pairs = (adjacent_bichromatic_pair(c3, within=[1, 2, 3, 4]),
             adjacent_bichromatic_pair(c3, within=[5, 6, 7, 8]))
    cfg_c, P, W = final_case_coloring()
    certs = [
        make_certificate("witness-coloring", wc,
                         {"red_target": {"kind": "cycle", "length": 3},
                          "blue_target": {"kind": "cycle", "length": 3},
                          "n_vertices": N}, lemma="x"),
        to_certificate(c4, tr.outcome, lemma="x"),
        to_certificate(c3, pairs, lemma="x"),
        to_certificate(c4, tr, lemma="x"),
        to_certificate(cfg_c, find_good_configuration(cfg_c, P, W, 2, 2),
                       lemma="x"),
    ]
    W = {6, 7, 8}
    ca, Pa = absorb_coloring(3, 2, W)
    certs.append(to_certificate(ca, absorb_blue_path(ca, Pa, W), lemma="x"))
    return certs


def test_checker_survives_every_missing_or_ill_typed_payload_field():
    # a checker branch that trusts a field's presence or type lets a
    # forged certificate crash check-cert instead of being refused, and a
    # field it never reads is a claim nobody checks: every payload field
    # must be needed for the certificate to verify
    certs = _one_certificate_per_type()
    assert sorted({cert.type for cert in certs}) == sorted(CERT_TYPES)
    bad_values = [None, 5, "x", [], {}, [5], -1, 1.5]
    # the split witness of K^3_6 (A = 1..5) is checked by counting alone
    counted = {"split_a": 5, "checked_by": {"red": "counting", "blue": "counting"}}
    for cert in certs:
        extra = counted if cert.type == "witness-coloring" else {}
        assert verify_certificate(cert) == (True, {"type": cert.type,
                                                   "reasons": [], **extra})
        for key in cert.payload:
            missing = {k: v for k, v in cert.payload.items() if k != key}
            variants = [missing] + [{**cert.payload, key: bad}
                                    for bad in bad_values]
            for payload in variants:
                forged = Certificate(cert.type, cert.coloring, payload)
                try:
                    ok, report = verify_certificate(forged)
                except ValueError:
                    continue
                assert isinstance(ok, bool) and report["type"] == cert.type
                assert payload is not missing or not ok, (cert.type, key)


def _nested_deletions(obj, path):
    """(path, copy of obj) for each field of a dict inside obj, deleted."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield f"{path}.{key}", {k: v for k, v in obj.items() if k != key}
            for sub_path, sub in _nested_deletions(val, f"{path}.{key}"):
                yield sub_path, {**obj, key: sub}
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            for sub_path, sub in _nested_deletions(item, f"{path}[{i}]"):
                yield sub_path, obj[:i] + [sub] + obj[i + 1:]


def test_checker_reads_every_nested_payload_field():
    # the guard above deletes top-level payload fields; a field nested in
    # one (an embedding's colour, a join step's edge) is a claim too, and
    # one the checker never reads lets a forged certificate through
    unread = []
    for cert in _one_certificate_per_type():
        for key, val in cert.payload.items():
            for path, sub in _nested_deletions(val, key):
                forged = Certificate(cert.type, cert.coloring,
                                     {**cert.payload, key: sub})
                try:
                    ok, _ = verify_certificate(forged)
                except ValueError as exc:
                    assert str(exc).startswith("malformed-certificate"), path
                    continue
                if ok:
                    unread.append(f"{cert.type}:{path}")
    assert not unread, unread
