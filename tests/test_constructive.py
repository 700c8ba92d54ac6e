"""Constructive operations: worked instances, seeded sweeps, certificates."""

import json

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


def _join_branch(tr, ell):
    """The rule that ended a join: a red merge at step i, a red merge at
    the endgame's pair or at its closing pair, or a blue cycle, each of
    the last two after the endgame banked g or h."""
    banked = "g" if len(tr.steps) >= ell - 1 and \
        tr.steps[ell - 2].g_color == "blue" else "h"
    if tr.outcome_kind == "blue-cycle":
        return f"blue-{banked}"
    if len(tr.steps) <= ell - 2:
        return f"merge-{len(tr.steps)}"
    return "endgame-red" if len(tr.steps) == ell - 1 else f"close-{banked}"


def test_join_longer_cycles_reach_every_step():
    # extract and the tests above join at ell = 3, which runs step 1 and
    # the endgame only; ell = 4..6 on planted hosts reach a red merge at
    # every step 1..ell-2 and every way the endgame ends
    seen = set()
    for k, n in ((4, 4), (4, 5), (4, 6), (5, 4)):
        C1, C2 = ident_cycle(k, n, 1), ident_cycle(k, n, (k - 1) * n + 1)
        N = 2 * (k - 1) * n
        n_edges = len(all_edges(N, k))
        plant = C1.edge_images() + C2.edge_images()
        for ell in range(4, n + 1):
            for seed in range(20):
                rng = np.random.default_rng([k, n, ell, seed])
                bits = (rng.random(n_edges) < 0.5).astype(np.uint8)
                c = TwoColoring(k, N, bits).with_edges(plant, red=True)
                tr = join_red_cycles(c, C1, C2, ell)
                red = tr.outcome_kind == "red-cycle"
                assert tr.outcome.template.n == (2 * n if red else ell)
                certify_roundtrip(c, tr, "join")
                seen.add(_join_branch(tr, ell))
    assert seen == {"merge-1", "merge-2", "merge-3", "merge-4", "endgame-red",
                    "close-g", "close-h", "blue-g", "blue-h"}


def test_assembled_edges_that_form_no_cycle_are_a_proof_gap():
    from ramsey_lab.constructive import _verified_cycle

    c = TwoColoring.all_red(3, 7)
    edges = [(1, 2, 3), (1, 4, 5), (1, 6, 7)]  # three edges through vertex 1
    with pytest.raises(ProofGap, match="does not form a loose cycle") as ei:
        _verified_cycle(c, edges, "red", "assembly")
    assert ei.value.instance == {"coloring": c.to_json_obj(),
                                 "edges": [list(e) for e in edges]}


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
    # every bridge is red, so case 1 searches for a blue C^3_3 and finds
    # none; the hypothesis search then finds the red C^3_5 that explains it
    n, m = 5, 3
    N = 2 * n + (m - 1) // 2
    c = TwoColoring.all_red(3, N)
    meta = {}
    with pytest.raises(HypothesisViolation,
                       match="^a red cycle of full length is present$") as ei:
        blue_cycle_from_red_shorter_cycle(c, ident_cycle(3, n - 1, 1), n, m,
                                          meta=meta)
    assert meta == {"case": 1}
    w = ei.value.witness
    assert w.template == cycle_template(3, n) and w.claimed_color == "red"
    assert verify_embedding(c, w).ok


def test_blue_cycle_gap_only_without_a_red_long_cycle(monkeypatch):
    # with every search answering "absent", the case-1 miss is a real gap,
    # with the instance that reproduces it
    from ramsey_lab import constructive

    searched = []
    monkeypatch.setattr(constructive, "find_embedding",
                        lambda c, color, t: searched.append((color, t)))
    n, m = 5, 3
    c = TwoColoring.all_red(3, 11)
    C = ident_cycle(3, n - 1, 1)
    with pytest.raises(ProofGap, match="^no blue cycle of the target length "
                       "despite valid hypotheses$") as ei:
        blue_cycle_from_red_shorter_cycle(c, C, n, m)
    assert ei.value.instance == {"coloring": c.to_json_obj(),
                                 "C": C.to_json_obj(), "n": n, "m": m}
    # the blue target, then the red cycle the hypothesis forbids
    assert searched == [("blue", cycle_template(3, m)), ("red", cycle_template(3, n))]


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (4, 4)])
def test_blue_cycle_excluded_sizes(n, m):
    c = TwoColoring.all_red(3, 2 * n + (m - 1) // 2)
    C = ident_cycle(3, n - 1, 1) if n > 3 else ident_cycle(3, 3, 1)
    with pytest.raises(ValueError, match="^invalid-parameter: ") as ei:
        blue_cycle_from_red_shorter_cycle(c, C, n, m)
    assert not isinstance(ei.value, HypothesisViolation)


def _flipped_case2(seed, n=5, m=3):
    """A Case-2 base with a seeded tenth of its reservoir edges made red."""
    c, W = case2_coloring(n - 1, m)
    rng = np.random.default_rng(seed)
    flips = [e for e in all_edges(c.n_vertices, 3)
             if any(x > 8 for x in e) and rng.random() < 0.1]
    return c.with_edges(flips, red=True)


@pytest.mark.parametrize("seed", range(40))
def test_blue_cycle_randomized_conditioned(seed):
    # random flips over a Case-2 base: the construction runs first, and on
    # every seed it returns a verified blue m-cycle, though most of these
    # hosts hold a red n-cycle
    n, m = 5, 3
    c = _flipped_case2(seed, n, m)
    meta = {}
    emb = blue_cycle_from_red_shorter_cycle(c, ident_cycle(3, n - 1, 1), n, m,
                                            meta=meta)
    assert emb.template == cycle_template(3, m) and emb.claimed_color == "blue"
    assert verify_embedding(c, emb).ok
    assert meta["case"] in (1, 2)


def test_blue_cycle_randomized_reaches_both_cases():
    # the seeds above: a red bridge sends 34 of them to the case-1 search,
    # and 6 keep every bridge blue and take the formulas
    cases = []
    for seed in range(40):
        meta = {}
        blue_cycle_from_red_shorter_cycle(_flipped_case2(seed), ident_cycle(3, 4, 1),
                                          5, 3, meta=meta)
        cases.append(meta["case"])
    assert (cases.count(1), cases.count(2)) == (34, 6)


def test_blue_cycle_case2_fault_is_a_proof_gap(tmp_path, monkeypatch):
    # a fault planted in case 2's closing edge (the red cycle edge
    # {v_1,v_2,v_3}) is a gap on every case-2 seed, though all 6 hosts
    # hold a red C^3_5: case 2 reads only bridges it checked blue
    from ramsey_lab import constructive
    from ramsey_lab.cli import EXIT_GAP, main

    verified_cycle = constructive._verified_cycle

    def planted(c, edges, color, what):
        if what == "formula cycle":
            edges = edges[:-1] + [(1, 2, 3)]
        return verified_cycle(c, edges, color, what)

    monkeypatch.setattr(constructive, "_verified_cycle", planted)
    C = ident_cycle(3, 4, 1)
    case2 = []
    for seed in range(40):
        c, meta = _flipped_case2(seed), {}
        try:
            blue_cycle_from_red_shorter_cycle(c, C, 5, 3, meta=meta)
        except ProofGap as gap:
            assert meta["case"] == 2
            assert gap.instance["edges"][-1] == [1, 2, 3]
            case2.append((seed, c))
        else:
            assert meta["case"] == 1
    assert len(case2) == 6
    for seed, c in case2:
        d = tmp_path / str(seed)
        d.mkdir()
        c.save(d / "c.json")
        assert main(["extract", "--lemma", "blue-cycle", "--coloring",
                     str(d / "c.json"), "--cycle", "1,2,3,4,5,6,7,8", "--n", "5",
                     "--m", "3", "--dir", str(d), "--out", str(d / "r.json")]) \
            == EXIT_GAP
        rep = json.loads((d / "r.json").read_text())
        assert rep["results"]["error"] == "proof-gap"
        dump = json.loads((d / "extract.proofgap.json").read_text())
        assert dump["coloring"] == c.to_json_obj()


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


def test_good_configuration_far_pair_reroute():
    # the red path 1..9 and the one red edge {v_6, v_7, 10} over W: no
    # {u, v_4, x} is red, so the first case yields nothing and the reroute
    # through the far pair v_6, v_7 gives the configuration
    P, W = ident_path(3, 4, 1), {10, 11, 12}
    c = TwoColoring.from_red_edges(3, 12, P.edge_images() + [(6, 7, 10)])
    cfg = find_good_configuration(c, P, W, 2, 2)
    assert (cfg.x, cfg.a1, cfg.a2, cfg.a3, cfg.y, cfg.avoided_vertex) == \
        (11, 5, 6, 4, 12, 7)
    assert validate_good_configuration(c, cfg) == (True, "ok")
    certify_roundtrip(c, cfg, "good-config")


def test_configuration_meeting_the_previous_edge_is_outside_the_pool():
    # S = {a1, a2, a3} lies in the anchor's pool, which meets e_{i-1} minus
    # its first vertex (A_i) only in u; a bridge through both vertices of
    # A_2 = {2, 3} is refused by the pool check
    P = ident_path(3, 4, 1)
    c = TwoColoring.from_red_edges(3, 12, P.edge_images())
    cfg = GoodConfiguration(x=10, y=11, a1=3, a2=2, a3=4, anchor_i=2,
                            avoided_vertex=7, u=2,
                            path_assignment=P.assignment, W={10, 11, 12})
    assert verify_embedding(c, cfg.bridge()).ok
    assert validate_good_configuration(c, cfg) == (False, "S-outside-pool")


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


def _flips_inside(c, keep, groups, rng, rate):
    """Edges of c outside `keep` that lie inside one of `groups`, each
    drawn at `rate`: flipped red they leave a red path on one group
    maximal with respect to a reservoir that is another."""
    return [e for e in all_edges(c.n_vertices, c.k)
            if e not in keep and any(set(e) <= g for g in groups) and rng.random() < rate]


def test_good_configuration_randomized_reaches_the_body():
    # the seeds and rate above, with the flips inside V(P) or inside W: at
    # least half the seeds get past the maximality check, and every other
    # one stops there
    reached = 0
    for seed in range(60):
        c, P, W = final_case_coloring()
        flips = _flips_inside(c, set(P.edge_images()), (P.image, W),
                              np.random.default_rng(seed), 0.06)
        c2 = c.with_edges(flips, red=True)
        try:
            cfg = find_good_configuration(c2, P, W, 2, 2)
        except HypothesisViolation as exc:
            assert str(exc) == "path is not maximal with respect to the reservoir", seed
            continue
        assert validate_good_configuration(c2, cfg) == (True, "ok"), seed
        reached += 1
    assert reached >= 30, reached


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


def test_absorb_randomized_reaches_the_body():
    # the seeds and rate above, with the flips inside V(P) or inside W
    n, W = 4, set(range(10, 14))
    reached = 0
    for seed in range(30):
        c, P = absorb_coloring(3, n, W)
        flips = _flips_inside(c, set(P.edge_images()), (P.image, W),
                              np.random.default_rng(seed), 0.05)
        c2 = c.with_edges(flips, red=True)
        try:
            res = absorb_blue_path(c2, P, W)
        except HypothesisViolation as exc:
            assert str(exc) == "path is not maximal with respect to the reservoir", seed
            continue
        assert verify_embedding(c2, res.Q).ok, seed
        assert all(validate_good_configuration(c2, cfg)[0] for cfg in res.configurations)
        reached += 1
    assert reached >= 15, reached


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
    # red inside {1..6} and inside {7..11}: the host holds a blue 3-cycle
    # across the split, but the case analysis runs first and yields one
    # pair on each side
    k, t = 3, 5
    N = t * (k - 1) + 1
    reds = [e for e in all_edges(N, k) if max(e) <= 6 or min(e) >= 7]
    c = TwoColoring.all_blue(k, N).with_edges(reds, red=True)
    p1, p2 = disjoint_bichromatic_pairs(c, t)
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
        p1, p2 = disjoint_bichromatic_pairs(c, t)
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


def test_disjoint_pairs_randomized_reaches_the_body():
    # the seeds above: the host has exactly R(C^3_5, C^3_3) vertices, so no
    # coloring meets the hypotheses, but the case analysis runs first; it
    # returns pairs or closes a red C^3_5 through the reservoir
    k, t = 3, 5
    N = t * (k - 1) + 1
    reached = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        c = TwoColoring(k, N, (rng.random(len(all_edges(N, k))) < 0.5).astype(np.uint8))
        try:
            p1, p2 = disjoint_bichromatic_pairs(c, t)
        except HypothesisViolation as exc:
            w = exc.witness
            assert w.template == cycle_template(k, t) and w.claimed_color == "red", seed
            assert verify_embedding(c, w).ok, seed
            continue
        assert p1.validate(c)[0] and p2.validate(c)[0] and not (p1.union & p2.union), seed
        reached += 1
    assert reached >= 20, reached


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
        p1, p2 = disjoint_bichromatic_pairs(c, t)
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
            disjoint_bichromatic_pairs(c, t)
        w = ei.value.witness
        assert w.template == cycle_template(k, t) and w.claimed_color == "red"
        assert verify_embedding(c, w).ok
    assert len(calls) == 1


def test_disjoint_pairs_all_blue_reservoir():
    # red iff an edge holds vertex 1: the first pair is (1,2,3)/(2,3,4), and
    # every edge of the reservoir 5..11 is blue, so a blue 3-cycle sits in it
    k, t = 3, 5
    c = TwoColoring.from_red_edges(k, 11, [e for e in all_edges(11, k) if 1 in e])
    with pytest.raises(HypothesisViolation,
                       match="blue 3-cycle inside the reservoir") as ei:
        disjoint_bichromatic_pairs(c, t)
    w = ei.value.witness
    assert w.template == cycle_template(k, 3) and w.claimed_color == "blue"
    assert verify_embedding(c, w).ok and w.image <= set(range(5, 12))


# pair1 = (1,2,3) red / (2,3,4) blue on K^3_11, reservoir 5..11: W1 = 5,6,
# W2 = 7,8, w = 9; every edge not listed is red
_RESERVOIR_PAIR1 = BichromaticPair(red_edge=(1, 2, 3), blue_edge=(2, 3, 4))


@pytest.mark.parametrize("blue,pairs", [
    # {v_1} u W1 and {v_{k+1}} u W2 blue: one pair on each side of the split
    ([(1, 5, 6), (4, 7, 8)], (((1, 2, 5), (1, 5, 6)), ((4, 7, 9), (4, 7, 8)))),
    # {v_1} u W1 red, {v_k} u W2 and {v_{k-1}} u W1 blue: the star pairs
    ([(3, 7, 8), (2, 5, 6)], (((1, 5, 6), (2, 5, 6)), ((7, 8, 9), (3, 7, 8)))),
])
def test_all_red_reservoir_pairs_by_case(blue, pairs):
    from ramsey_lab import constructive

    c = TwoColoring.all_red(3, 11).with_edges([(2, 3, 4)] + blue, red=False)
    got = constructive._all_red_reservoir_pairs(c, 5, _RESERVOIR_PAIR1,
                                                list(range(5, 12)))
    assert tuple((p.red_edge, p.blue_edge) for p in got) == pairs
    assert all(p.validate(c)[0] for p in got)
    assert not (got[0].union & got[1].union)
    certify_roundtrip(c, got, "disjoint-pairs")


def test_all_red_reservoir_closes_a_cycle_through_v1_and_w2():
    from ramsey_lab import constructive

    # {v_{k-1}} u W1 and {v_1} u W2 red: the forced red 5-cycle runs
    # e_1, {v_{k-1}} u W1, the reservoir chain, {v_1} u W2
    c = TwoColoring.all_red(3, 11).with_edges([(2, 3, 4), (3, 7, 8)], red=False)
    with pytest.raises(HypothesisViolation,
                       match="red t-cycle assembled through the reservoir") as ei:
        constructive._all_red_reservoir_pairs(c, 5, _RESERVOIR_PAIR1,
                                              list(range(5, 12)))
    w = ei.value.witness
    assert w.template == cycle_template(3, 5) and w.claimed_color == "red"
    assert verify_embedding(c, w).ok
    assert sorted(w.edge_images()) == [(1, 2, 3), (1, 7, 8), (2, 5, 6),
                                       (5, 9, 10), (7, 10, 11)]


def test_disjoint_pairs_failed_case_analysis_is_a_proof_gap(monkeypatch):
    from ramsey_lab import constructive

    # overlapping pairs from the case analysis, on a host where complete
    # searches find neither forbidden cycle, are a gap
    monkeypatch.setattr(constructive, "_all_red_reservoir_pairs",
                        lambda c, t, pair1, Wv: (pair1, pair1))
    searched = []
    monkeypatch.setattr(constructive, "find_embedding",
                        lambda c, color, t: searched.append((color, t)))
    c = _dense_red(3, 5, 0.9, 74)
    with pytest.raises(ProofGap, match="case analysis") as ei:
        disjoint_bichromatic_pairs(c, 5)
    assert ei.value.instance == {"coloring": c.to_json_obj(), "t": 5}
    assert searched == [("red", cycle_template(3, 5)), ("blue", cycle_template(3, 3))]


def test_disjoint_pairs_failed_case_analysis_cites_a_forbidden_cycle(monkeypatch):
    from ramsey_lab import constructive

    # the same failure on a host that holds a red C^3_5 is explained by it
    monkeypatch.setattr(constructive, "_all_red_reservoir_pairs",
                        lambda c, t, pair1, Wv: (pair1, pair1))
    c = _dense_red(3, 5, 0.9, 74)
    with pytest.raises(HypothesisViolation,
                       match="^a red cycle of length t is present$") as ei:
        disjoint_bichromatic_pairs(c, 5)
    w = ei.value.witness
    assert w.template == cycle_template(3, 5) and w.claimed_color == "red"
    assert verify_embedding(c, w).ok


@pytest.mark.parametrize("build,color,length", [
    (TwoColoring.all_red, "red", 5), (TwoColoring.all_blue, "blue", 3)])
def test_disjoint_pairs_monochromatic_host_cites_a_forbidden_cycle(build, color,
                                                                   length):
    c = build(3, 11)
    with pytest.raises(HypothesisViolation) as ei:
        disjoint_bichromatic_pairs(c, 5)
    w = ei.value.witness
    assert w.template == cycle_template(3, length) and w.claimed_color == color
    assert verify_embedding(c, w).ok


def test_disjoint_pairs_monochromatic_refusal_without_a_copy(monkeypatch):
    # no monochromatic host of this size lacks both cycles; with searches
    # that find nothing, the refusal itself is raised, without a witness
    from ramsey_lab import constructive

    monkeypatch.setattr(constructive, "find_embedding", lambda c, color, t: None)
    with pytest.raises(HypothesisViolation, match="^monochromatic coloring "
                       "cannot satisfy the hypotheses$") as ei:
        disjoint_bichromatic_pairs(TwoColoring.all_red(3, 11), 5)
    assert ei.value.witness is None


# ----------------------------------------------------------- input refusals
# Every refusal of a lemma's input, by class and message: a bad parameter
# is a ValueError named `invalid-parameter:` (or the refusal's own name),
# a false hypothesis a HypothesisViolation.

def _refusal_cases():
    HV = HypothesisViolation
    blue4 = ident_cycle(4, 4, 1, color="blue")
    cfg_c, cfg_P, cfg_W = final_case_coloring()
    abs_c, abs_P = absorb_coloring(3, 1, {4, 5, 6})
    c2, W2 = case2_coloring(4, 3)
    C4 = ident_cycle(3, 4, 1)
    red3 = TwoColoring.all_red(3, 11)
    red4 = TwoColoring.all_red(4, 21)
    return [
        ("configuration-k4", ValueError, "invalid-parameter: needs a 3-uniform host path",
         lambda: find_good_configuration(TwoColoring.all_blue(4, 12), ident_path(4, 2),
                                         {8, 9, 10}, 1, 1)),
        ("configuration-anchor", HV, "anchor 4 outside 1..3",
         lambda: find_good_configuration(cfg_c, cfg_P, cfg_W, 4, 2)),
        ("configuration-entry", HV, "entry vertex 1 not in A_2",
         lambda: find_good_configuration(cfg_c, cfg_P, cfg_W, 2, 1)),
        ("configuration-cycle", HV,
         "precondition-violation: maximality is defined for paths",
         lambda: find_good_configuration(red3, C4, {9, 10, 11}, 2, 2)),
        ("absorb-one-edge", HV, "path must have at least 2 edges",
         lambda: absorb_blue_path(abs_c, abs_P, {4, 5, 6})),
        ("absorb-cycle", HV, "precondition-violation: maximality is defined for paths",
         lambda: absorb_blue_path(red3, C4, {9, 10, 11})),
        ("case2-k4", ValueError, "invalid-parameter: needs a 3-uniform host cycle",
         lambda: case2_blue_cycle(TwoColoring.all_blue(4, 12), ident_cycle(4, 3), [10, 11], 3)),
        ("case2-m", ValueError, "invalid-parameter: m >= 3",
         lambda: case2_blue_cycle(c2, C4, W2, 2)),
        ("case2-few", HV, "need at least 2 reservoir vertices, got 1",
         lambda: case2_blue_cycle(c2, C4, W2[:1], 3)),
        ("case2-repeated", HV, "reservoir vertices must be fresh and distinct",
         lambda: case2_blue_cycle(c2, C4, [W2[0], W2[0]], 3)),
        ("case2-on-cycle", HV, "reservoir vertices must be fresh and distinct",
         lambda: case2_blue_cycle(c2, C4, [1, W2[0]], 3)),
        ("case2-short", HV, "host cycle too short for the target length",
         lambda: case2_blue_cycle(TwoColoring.all_blue(3, 12), C4, [9, 10, 11], 6)),
        ("blue-cycle-k4", ValueError, "invalid-parameter: k must be 3",
         lambda: blue_cycle_from_red_shorter_cycle(TwoColoring.all_red(4, 12),
                                                   ident_cycle(4, 3), 4, 3)),
        ("blue-cycle-m", ValueError, "invalid-parameter: need n >= m >= 3",
         lambda: blue_cycle_from_red_shorter_cycle(red3, C4, 5, 6)),
        ("blue-cycle-host", HV, "host must have 11 vertices",
         lambda: blue_cycle_from_red_shorter_cycle(TwoColoring.all_red(3, 12), C4, 5, 3)),
        ("blue-cycle-length", HV, "given embedding is not a (n-1)-cycle",
         lambda: blue_cycle_from_red_shorter_cycle(red3, ident_cycle(3, 3), 5, 3)),
        ("join-k3", ValueError, "invalid-parameter: k >= 4 required",
         lambda: join_red_cycles(TwoColoring.all_red(3, 12), ident_cycle(3, 3, 1),
                                 ident_cycle(3, 3, 7), 3)),
        ("join-path", HV, "inputs must be k-uniform cycles",
         lambda: join_red_cycles(red4, ident_path(4, 3, 1), ident_cycle(4, 3, 11), 3)),
        ("join-order", HV, "need n >= m >= 3 (pass the longer cycle first)",
         lambda: join_red_cycles(red4, ident_cycle(4, 3, 1), ident_cycle(4, 4, 10), 3)),
        ("join-ell", ValueError, "invalid-parameter: 3 <= ell <= m",
         lambda: join_red_cycles(red4, ident_cycle(4, 3, 1), ident_cycle(4, 3, 10), 4)),
        ("join-host", HV, "host too small to hold both cycles",
         lambda: join_red_cycles(TwoColoring.all_red(4, 17), ident_cycle(4, 3, 1),
                                 ident_cycle(4, 3, 10), 3)),
        ("adjacent-pair-host", ValueError, "host-too-small: need at least k+1 vertices",
         lambda: adjacent_bichromatic_pair(TwoColoring.all_red(3, 3))),
        ("disjoint-pairs-t", ValueError, "invalid-parameter: t >= 5",
         lambda: disjoint_bichromatic_pairs(red3, 4)),
        ("disjoint-pairs-host", HV, "host must have 11 vertices",
         lambda: disjoint_bichromatic_pairs(TwoColoring.all_red(3, 10), 5)),
        ("disjoint-pairs-monochromatic", HV, "a red cycle of length t is present",
         lambda: disjoint_bichromatic_pairs(red3, 5)),
        ("disjoint-pairs-all-blue", HV, "a blue 3-cycle is present",
         lambda: disjoint_bichromatic_pairs(TwoColoring.all_blue(3, 11), 5)),
        ("lift-k2", ValueError, "invalid-parameter: k >= 3",
         lambda: lift_blue_c4(TwoColoring.all_red(2, 10), blue4, 5)),
        ("lift-host", HV, "host must have 16 vertices",
         lambda: lift_blue_c4(TwoColoring.all_red(4, 15), blue4, 5)),
        ("lift-length", HV, "given embedding is not a 4-cycle",
         lambda: lift_blue_c4(TwoColoring.all_red(4, 16), ident_cycle(4, 3, color="blue"), 5)),
        ("certificate-type", ValueError, "cannot certify object of type str",
         lambda: to_certificate(red3, "cycle", lemma="x")),
        ("certificate-kind", ValueError, "malformed-certificate: unknown type 'proof'",
         lambda: Certificate("proof", red3, {})),
        ("certificate-coloring", ValueError, "malformed-certificate: coloring missing",
         lambda: Certificate("embedding", None, {})),
        ("certificate-not-one", ValueError, "malformed-certificate: not a certificate",
         lambda: verify_certificate(5)),
    ]


@pytest.mark.parametrize("case", _refusal_cases(), ids=lambda case: case[0])
def test_input_refusals(case):
    _, cls, message, call = case
    with pytest.raises(cls) as ei:
        call()
    assert str(ei.value) == message
    # a bad parameter is no hypothesis violation, and the reverse
    assert isinstance(ei.value, HypothesisViolation) == (cls is HypothesisViolation)


def test_bichromatic_pair_validate_names_size_and_colour():
    c = TwoColoring.all_red(3, 6)
    assert BichromaticPair((1, 2), (1, 3)).validate(c) == (False, "wrong-edge-size")
    assert BichromaticPair((1, 2, 3), (1, 2, 4)).validate(c) == \
        (False, "blue-edge-not-blue")


# ----------------------------------------------------- proof-gap instances
# Each forced gap's instance holds the coloring first, then the site's own
# fields.  Two sites stay unreachable: the join's "banked edge misses the
# expected cycle edge" (a swap edge that passes the size check keeps
# vertices of the very cycle edge that is scanned) and the interpolation's
# "failed to converge" (the intersection grows every round, whatever the
# colours).


def test_configuration_gaps_list_their_fields_in_order(monkeypatch):
    from ramsey_lab import constructive

    monkeypatch.setattr(constructive, "validate_good_configuration",
                        lambda c, cfg: (False, "no"))
    c, P, W = final_case_coloring()
    with pytest.raises(ProofGap, match="no good configuration") as ei:
        find_good_configuration(c, P, W, 2, 2)
    assert list(ei.value.instance) == ["coloring", "path", "W", "i", "u"]
    c, P = absorb_coloring(3, 4, {10, 11, 12, 13})
    with pytest.raises(ProofGap, match="absorption chain") as ei:
        absorb_blue_path(c, P, {10, 11, 12, 13})
    assert list(ei.value.instance) == ["coloring", "path", "W"]


def test_refused_absorption_path_is_a_proof_gap(monkeypatch):
    from ramsey_lab import constructive
    from ramsey_lab.embedder import VerifyResult

    # the bridges (blue paths of 2 edges) verify; the assembled Q of 4 does not
    def refuse_q(c, emb):
        if emb.claimed_color == "blue" and emb.template.n > 2:
            return VerifyResult(False, "forced")
        return verify_embedding(c, emb)

    monkeypatch.setattr(constructive, "verify_embedding", refuse_q)
    W = {10, 11, 12, 13}
    c, P = absorb_coloring(3, 4, W)
    with pytest.raises(ProofGap, match="assembled blue path fails "
                                       "verification: forced") as ei:
        absorb_blue_path(c, P, W)
    assert list(ei.value.instance) == ["coloring", "Q"]
    assert ei.value.instance["Q"]["length"] == 4


def test_missing_blue_cycle_is_a_proof_gap(monkeypatch):
    from ramsey_lab import constructive

    # all red, so the bridges are red (case 1) and only the search is left
    monkeypatch.setattr(constructive, "find_embedding", lambda *a, **kw: None)
    c = TwoColoring.all_red(3, 11)
    C = ident_cycle(3, 4)
    with pytest.raises(ProofGap, match="no blue cycle of the target length") as ei:
        blue_cycle_from_red_shorter_cycle(c, C, 5, 3)
    assert ei.value.instance == {"coloring": c.to_json_obj(),
                                 "C": C.to_json_obj(), "n": 5, "m": 3}
    assert list(ei.value.instance) == ["coloring", "C", "n", "m"]


def test_join_swap_edge_of_wrong_size_is_a_proof_gap(monkeypatch):
    from ramsey_lab import constructive
    from ramsey_lab.embedder import VerifyResult

    # a checker that accepts C1 with v_3 = v_4 lets h_1 collapse to 3 vertices
    monkeypatch.setattr(constructive, "verify_embedding",
                        lambda c, emb: VerifyResult(True))
    c = TwoColoring.all_red(4, 18)
    C1 = Embedding(cycle_template(4, 3), (1, 2, 3, 3, 5, 6, 7, 8, 9), "red")
    with pytest.raises(ProofGap, match="swap edge has wrong size") as ei:
        join_red_cycles(c, C1, ident_cycle(4, 3, 10), 3)
    assert ei.value.instance == {"coloring": c.to_json_obj(), "i": 1}
    assert list(ei.value.instance) == ["coloring", "i"]


def test_interpolated_pair_refused_by_its_check_is_a_proof_gap(monkeypatch):
    monkeypatch.setattr(BichromaticPair, "validate",
                        lambda self, c: (False, "forced"))
    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    with pytest.raises(ProofGap, match="interpolated pair fails validation: "
                                       "forced") as ei:
        adjacent_bichromatic_pair(c)
    assert list(ei.value.instance) == ["coloring"]


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
    k, i = 4, 5
    N = i * (k - 1) + 1
    C4 = ident_cycle(k, 4, 1, color="blue")
    c = TwoColoring.all_blue(k, N)
    with pytest.raises(HypothesisViolation, match="^a listed edge of the lift is blue$") as ei:
        lift_blue_c4(c, C4, i)
    # the first listed edge, (E2 - {v_k}) | {v_{4k-4}}, sorted
    assert type(ei.value) is HypothesisViolation
    assert ei.value.witness == (5, 6, 7, 12)


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


def test_certificate_meta_names_lemma_and_seed():
    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    pr = adjacent_bichromatic_pair(c)
    cert = to_certificate(c, pr, lemma="x", seed=11)
    assert cert.meta == {"lemma": "x", "seed": 11}


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


def _tampered(cert, change):
    """A copy of the certificate's JSON form with `change` applied to it."""
    obj = json.loads(json.dumps(cert.to_json_obj()))
    change(obj)
    return obj


def test_checker_names_each_false_claim():
    # well-formed certificates whose claim the coloring does not bear out,
    # one field tampered each, must be rejected for their specific reason
    _, emb, pairs, join, cfg, _ = _one_certificate_per_type()

    def swap_pair_edges(o):
        pair = o["payload"]["pairs"][0]
        pair["red_edge"], pair["blue_edge"] = pair["blue_edge"], pair["red_edge"]

    def set_step_color(o):
        o["payload"]["steps"][0]["color"] = "blue"

    def repeat_result_vertex(o):
        asg = o["payload"]["result"]["assignment"]
        asg[1] = asg[0]

    cases = [
        (emb, lambda o: o["payload"]["embedding"].update(claimed_color="blue"),
         ["edge-color-mismatch"]),
        (pairs, swap_pair_edges, ["pair-0:red-edge-not-red"]),
        (join, set_step_color, ["edge-color-mismatch"]),
        (join, repeat_result_vertex, ["result:not-injective"]),
    ]
    # the configuration x=10, y=11, (a1, a2, a3) = (2, 4, 7), anchor 2,
    # avoided 6, u = 2 on the red path 1..9 with reservoir {10, 11, 12}
    assert cfg.payload["configuration"]["path_assignment"] == list(range(1, 10))
    for field, value, reason in [
            ("path_assignment", list(range(1, 9)), "bad-path-length"),
            ("anchor_i", 4, "anchor-out-of-range"),
            ("path_assignment", list(range(1, 9)) + [12],
             "path-not-red:edge-color-mismatch"),
            ("W", [1, 10, 11], "reservoir-meets-path"),
            ("x", 11, "ends-not-in-reservoir"),
            ("u", 9, "u-not-in-entry-set"),
            ("a1", 5, "bridge:edge-color-mismatch"),
            ("a3", 8, "S-outside-pool"),
            ("avoided_vertex", 1, "avoided-not-in-forward-difference"),
            ("avoided_vertex", 7, "avoided-in-S")]:
        cases.append((cfg, lambda o, f=field, v=value:
                      o["payload"]["configuration"].update({f: v}), [reason]))
    cases.append((cfg, lambda o: o.update(
        coloring=TwoColoring.all_red(4, 12).to_json_obj()), ["uniformity-not-3"]))
    for cert, change, reasons in cases:
        assert verify_certificate(cert)[0]
        ok, report = verify_certificate(_tampered(cert, change))
        assert (ok, report["reasons"]) == (False, reasons), reasons
