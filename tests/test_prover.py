"""Arrowing engine vs complete enumeration, value scans, tables, checker."""

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from ramsey_lab import _kernels
from ramsey_lab.certificates import Certificate, make_certificate
from ramsey_lab.coloring import (
    TwoColoring,
    all_edges,
    lower_bound_witness,
    split_coloring,
    swap_pairs,
)
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import (Embedding, copy_rank_matrix, find_embedding,
                                 verify_embedding)
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

# (k, N, red, blue, symmetry) -> (status, nodes, propagations, conflicts,
# max_depth, sha256 of the witness bits).  Computed by
# `oracles.counting_dpll` on the exported CNF; any kernel must reproduce
# them exactly, because the branching order is fixed and the propagation
# count is taken only at conflict-free unit-propagation fixpoints, which
# are unique.  No node of these refutations implies a literal without
# ending in a conflict, so every UNSAT case counts 0 propagations.
EXACT_COUNTS = {
    (3, 6, ("cycle", 3), ("cycle", 3), False):
        ("SAT", 5, 15, 0, 5, "7ddc56ba4fa8497dc30f89d981a8c9e7c9b1699ca937569d9aeafe1eb3cbf5a6"),
    (3, 7, ("cycle", 3), ("cycle", 3), False): ("UNSAT", 94, 0, 48, 8, None),
    (3, 7, ("path", 3), ("path", 3), False):
        ("SAT", 11, 24, 0, 11, "2b08c337be9067b1992ceea15909d7037797c8ebc51fdfebb80e34b456663090"),
    (3, 8, ("path", 3), ("path", 3), False): ("UNSAT", 94, 0, 48, 8, None),
    (3, 8, ("path", 3), ("path", 3), True): ("UNSAT", 38, 0, 20, 8, None),
    (3, 8, ("cycle", 4), ("cycle", 3), False):
        ("SAT", 21, 35, 0, 21, "7504ad94e13b983662099ef77f188710172ce89190248acc6fd87302c33b396c"),
    (3, 9, ("cycle", 4), ("cycle", 3), True): ("UNSAT", 250, 0, 126, 24, None),
    (3, 9, ("cycle", 4), ("cycle", 3), False): ("UNSAT", 3922, 0, 1962, 24, None),
    (3, 9, ("path", 4), ("path", 3), False):
        ("SAT", 36, 48, 0, 36, "bee86e869c610cca8459489cc22799b50792feeec1fc18a1806a4ac8c11a14d7"),
    (3, 8, ("cycle", 4), ("cycle", 4), False):
        ("SAT", 35, 21, 0, 35, "7504ad94e13b983662099ef77f188710172ce89190248acc6fd87302c33b396c"),
    (4, 9, ("cycle", 3), ("cycle", 3), False):
        ("SAT", 36, 90, 0, 36, "48fd22b86848e26d4880a3992b663c6c75d48ba8db3ae34c7d8356554c24b9b0"),
    # N == k: the one edge holds every vertex, so no transposition moves it
    (3, 3, ("path", 1), ("path", 1), True): ("UNSAT", 2, 0, 2, 1, None),
    (3, 3, ("path", 1), ("path", 2), True):
        ("SAT", 2, 0, 1, 1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
}

_SEARCH_STATS = ("nodes", "propagations", "conflicts", "max_depth")


def _fam(k, fam):
    kind, n = fam
    return cycle_template(k, n) if kind == "cycle" else path_template(k, n)


@pytest.mark.parametrize("case", list(EXACT_COUNTS), ids=lambda c: (
    f"k{c[0]}-{c[2][0][0]}{c[2][1]}{c[3][0][0]}{c[3][1]}@{c[1]}"
    + ("-sym" if c[4] else "")))
def test_exact_search_counts(case):
    k, N, red, blue, symmetry = case
    v = decide_arrowing(k, N, _fam(k, red), _fam(k, blue), symmetry=symmetry)
    *counts, digest = EXACT_COUNTS[case]
    assert (v.status, *(v.stats[key] for key in _SEARCH_STATS)) == tuple(counts)
    got = None if v.witness is None else \
        hashlib.sha256(v.witness.bits.tobytes()).hexdigest()
    assert got == digest


def _matches_reference_rule(k, N, red, blue, symmetry):
    # the plain-list loop over the exported CNF takes the same branches;
    # its generators are whole edge permutations, so it also checks that
    # the kernel's half of each swap's pairs prunes exactly the same
    text, _ = export_dimacs(k, N, red, blue)
    n_vars, clauses = O.parse_dimacs(text)
    gens = O.oracle_transpositions(N, k) if symmetry else ()
    *counts, model = O.counting_dpll(n_vars, clauses, gens)
    v = decide_arrowing(k, N, red, blue, symmetry=symmetry)
    assert (v.status, *(v.stats[key] for key in _SEARCH_STATS)) == tuple(counts)
    if counts[0] == "SAT":
        assert v.witness.bits.tolist() == model


@pytest.mark.parametrize("symmetry", [False, True])
@pytest.mark.parametrize("N", [7, 8])
@pytest.mark.parametrize("red,blue", list(itertools.product(TEMPLATES, repeat=2)))
def test_search_matches_reference_rule(N, red, blue, symmetry):
    _matches_reference_rule(3, N, _t(3, red), _t(3, blue), symmetry)


# P^4_2 has 7 vertices, so at N = 6 only P^4_1 against itself fits the host
@pytest.mark.parametrize("N,red,blue", [
    (N, red, blue) for N in (6, 7, 8)
    for red, blue in itertools.product((1, 2), repeat=2) if 3 * max(red, blue) < N])
def test_symmetric_search_matches_reference_rule_k4(N, red, blue):
    _matches_reference_rule(4, N, path_template(4, red), path_template(4, blue),
                            True)


def _search_matches_oracle(E, red, blue, sym, gens):
    # the kernel and the plain-list loop agree on every count and the model
    instance = _kernels.build_instance(E, red, blue)
    *counts, assign = _kernels.search(instance, sym, None, None)
    clauses = [[-(int(r) + 1) for r in row] for row in red] + \
        [[int(r) + 1 for r in row] for row in blue]
    *o_counts, model = O.counting_dpll(E, clauses, gens)
    assert counts == o_counts
    assert (assign.tolist() if counts[0] == "SAT" else None) == model
    return instance, counts


@pytest.mark.parametrize("k,N", [(4, 6), (4, 7), (5, 7), (5, 8)])
def test_half_swap_rows_prune_like_full_permutations(k, N):
    # arrowing instances at k >= 4 small enough for the oracle settle in a
    # few nodes without a leader prune; random one-signed clauses are not
    # swap-invariant, so the leader check prunes often on them
    E = math.comb(N, k)
    sym = swap_pairs(N, k)
    gens = O.oracle_transpositions(N, k)
    pruned = 0
    for seed in range(4):
        rng = np.random.default_rng(100 * k + 10 * N + seed)
        rows = np.sort([rng.choice(E, 3, replace=False) for _ in range(2 * E)], axis=1)
        instance, counts = _search_matches_oracle(E, rows[:E], rows[E:], sym, gens)
        pruned += counts[1] != _kernels.search(instance, (), None, None)[1]
    assert pruned


def test_leader_scan_does_not_prune_blue_against_unassigned():
    # one generator exchanges variables 0 and 2, and a red unit clause on 0
    # turns it blue at node 2, with 2 unassigned: the scan stops at (blue,
    # unassigned), which does not prune.  Node 4 (0 blue, 2 red) is pruned,
    # node 5 (both blue) is a model
    E = 3
    sym = (np.array([[0]]), np.array([[2]]))
    red, blue = np.array([[0]]), np.empty((0, 1), dtype=np.int64)
    _, counts = _search_matches_oracle(E, red, blue, sym, [[2, 1, 0]])
    assert counts == ["SAT", 5, 0, 2, 3]
    assert _kernels.search(_kernels.build_instance(E, red, blue), sym, None,
                           None)[-1].tolist() == [0, 1, 0]


def _random_one_signed_rows(rng, E, width):
    # width-1 rows only ever conflict, so a few of them are enough; width-2
    # rows settle a search in a few nodes, so fewer of those too
    low, high = {1: (1, 4), 2: (E // 2, 3 * E)}.get(width, (4 * E, 24 * E))
    n = int(rng.integers(low, high))
    return np.sort([rng.choice(E, width, replace=False) for _ in range(n)],
                   axis=1).reshape(n, width)


@pytest.mark.parametrize("symmetry", [False, True])
def test_search_matches_oracle_on_random_cnfs(symmetry):
    # seeded one-signed CNFs over the edges of K^3_6 and K^3_7, red and blue
    # rows of two different widths in 1..5; the watch lists of their keys
    # fall on both sides of the length at which the kernel filters
    # satisfied clauses in one gather
    seen = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        N = (6, 7)[seed % 2]
        E = math.comb(N, 3)
        widths = rng.choice(np.arange(1, 6), 2, replace=False)
        red, blue = (_random_one_signed_rows(rng, E, int(w)) for w in widths)
        sym, gens = (), ()
        if symmetry:
            sym = swap_pairs(N, 3)
            gens = O.oracle_transpositions(N, 3)
        instance, counts = _search_matches_oracle(E, red, blue, sym, gens)
        if np.diff(instance[3]).max() >= _kernels._FILTER_MIN:
            seen.add("filtered")
        if 1 in widths:
            seen.add("width-1")
        seen.add(counts[0])
    assert seen == {"filtered", "width-1", "SAT", "UNSAT"}


def _hub_rows(rng, E, width):
    # a third of the rows hold one of the two top ranks, which every row
    # holding one watches, so those watch lists pass the filter's length
    n = int(rng.integers(E // 2, 3 * E))
    rows = np.array([rng.choice(E - 2, width, replace=False) for _ in range(n)])
    hub = rng.random(n) < 0.3
    rows[hub, 0] = E - 1 - rng.integers(0, 2, int(hub.sum()))
    return np.sort(rows, axis=1)


@pytest.mark.parametrize("symmetry", [False, True])
def test_search_matches_oracle_on_16_bit_rows(symmetry):
    # one-signed CNFs of widths 2..4 over the 286 edges of K^3_13, whose
    # rows are uint16; the seeds are those below 16 whose search settles
    # in under 2,000 nodes both with and without symmetry breaking
    N = 13
    E = math.comb(N, 3)
    sym, gens = (), ()
    if symmetry:
        sym = swap_pairs(N, 3)
        gens = O.oracle_transpositions(N, 3)
    seen = set()
    for seed in (1, 4, 8, 9, 12, 15):
        rng = np.random.default_rng(seed)
        widths = rng.choice(np.arange(2, 5), 2, replace=False)
        red, blue = (_hub_rows(rng, E, int(w)) for w in widths)
        instance, counts = _search_matches_oracle(E, red, blue, sym, gens)
        assert instance[1].dtype == np.uint16
        assert np.diff(instance[3]).max() >= _kernels._FILTER_MIN
        seen.add(counts[0])
    assert seen == {"SAT", "UNSAT"}


def _ascending_rows(rng, E, width, n):
    # n rows of `width` distinct ranks below E, each ascending
    steps = rng.integers(1, max(2, E // width), (n, width))
    return np.cumsum(steps, axis=1) - 1


def _assert_same_instance(got, want):
    assert got[0] == want[0]
    for a, b in zip(got[1:3], want[1:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got[3] == want[3]


@pytest.mark.parametrize("E", [3, 84, 127, 128, 495, 40000])
def test_build_instance_matches_one_argsort(E):
    # the blocked counting sort against one stable argsort of every key:
    # seeded rows of widths 1..5 that span several blocks, keys of 8, 16
    # and 32 bits, blocks that straddle the red/blue boundary, and red or
    # blue sides that are empty
    half = _kernels._BLOCK // 2
    rng = np.random.default_rng(E)
    for n_red, n_blue in [(3 * half + 5, 2 * half - 7), (0, half + 1), (half, 0),
                          (int(rng.integers(1, 4 * half)), int(rng.integers(1, 4 * half)))]:
        wr, wb = (int(w) for w in rng.integers(1, min(E, 5) + 1, 2))
        red = _ascending_rows(rng, E, wr, n_red)
        blue = _ascending_rows(rng, E, wb, n_blue)
        _assert_same_instance(_kernels.build_instance(E, red, blue),
                              O.oracle_build_instance(E, red, blue))


def test_build_instance_matches_one_argsort_on_copy_tables():
    # narrow copy tables as the prover passes them: P^3_4 and P^3_3 in
    # K^3_10 (529,200 clauses, 65 blocks), and C^4_3 on both sides of K^4_9
    for k, N, red, blue in [(3, 10, path_template(3, 4), path_template(3, 3)),
                            (4, 9, cycle_template(4, 3), cycle_template(4, 3))]:
        E = math.comb(N, k)
        red_rows, blue_rows = copy_rank_matrix(N, k, red), copy_rank_matrix(N, k, blue)
        _assert_same_instance(_kernels.build_instance(E, red_rows, blue_rows),
                              O.oracle_build_instance(E, red_rows, blue_rows))


def test_build_instance_peaks_near_its_output():
    # beside the rows and the int32 watch, the build holds one block's
    # keys and a few int64 arrays of one block, plus per-key counts and
    # the starts list: no array over every watch key
    import tracemalloc

    k, N = 3, 10
    E = math.comb(N, k)
    red = copy_rank_matrix(N, k, path_template(3, 4))
    blue = copy_rank_matrix(N, k, path_template(3, 3))
    tracemalloc.start()
    try:
        _, rows, watch, starts = _kernels.build_instance(E, red, blue)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(watch) == 2 * 529200
    assert peak < rows.nbytes + watch.nbytes + 5 * 8 * _kernels._BLOCK + 64 * E, \
        (peak - rows.nbytes - watch.nbytes) / _kernels._BLOCK


@pytest.mark.parametrize("k,N,target", [(3, 8, path_template(3, 3)),
                                         (4, 9, cycle_template(4, 3))])
def test_search_memory_does_not_grow_with_visited_clauses(k, N, target):
    # the search holds one copy of the rows, its watches swapped in place,
    # and the short lists of moved watches; p33@8 (UNSAT, 94 nodes) and
    # k4-c33@9 (SAT, 36 nodes) visit most of their clauses, and a Python
    # list kept per visited row peaked at 14 times the rows on both
    import tracemalloc

    table = copy_rank_matrix(N, k, target)
    instance = _kernels.build_instance(math.comb(N, k), table, table)
    tracemalloc.start()
    try:
        _kernels.search(instance, (), None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * instance[1].nbytes, peak / instance[1].nbytes


# max_nodes -> (status, nodes, propagations) for C^3_3/C^3_3 at N=7, whose
# full search is UNSAT after 94 nodes: the budget stops the search right
# after its last node is made, before that node is propagated.  No node of
# this search reaches a conflict-free fixpoint with an implied literal.
BUDGET_BOUNDARIES = {
    0: ("UNKNOWN", 0, 0),
    1: ("UNKNOWN", 1, 0),
    64: ("UNKNOWN", 64, 0),
    65: ("UNKNOWN", 65, 0),
    94: ("UNKNOWN", 94, 0),
    95: ("UNSAT", 94, 0),
}


@pytest.mark.parametrize("max_nodes", list(BUDGET_BOUNDARIES))
def test_node_budget_boundaries(max_nodes):
    c3 = cycle_template(3, 3)
    v = decide_arrowing(3, 7, c3, c3, max_nodes=max_nodes)
    assert (v.status, v.stats["nodes"], v.stats["propagations"]) == \
        BUDGET_BOUNDARIES[max_nodes]


def test_time_budget_honored():
    # C^3_4/C^3_4 at N=9 with symmetry is UNSAT after 44,588 nodes, several
    # seconds of search; warm the copy matrix so the budget is spent
    # searching, then the deadline must stop it
    c4 = cycle_template(3, 4)
    copy_rank_matrix(9, 3, c4)
    t0 = time.monotonic()
    v = decide_arrowing(3, 9, c4, c4, max_secs=0.2, symmetry=True)
    assert time.monotonic() - t0 < 2.0
    assert v.status == "UNKNOWN"
    assert v.stats["nodes"] < 44588


def test_nan_time_budget_is_refused_before_enumeration(monkeypatch):
    # no clock reading compares past a NaN deadline, so the search would
    # run to its node budget; a negative budget is one already spent
    from ramsey_lab import prover

    c4 = cycle_template(3, 4)
    v = decide_arrowing(3, 9, c4, c4, max_secs=-1.0)
    assert (v.status, v.stats["nodes"], v.stats["n_clauses"]) == ("UNKNOWN", 0, 0)

    def no_table(*args, **kwargs):
        raise AssertionError("copy table enumerated under a NaN budget")

    monkeypatch.setattr(prover, "copy_rank_matrix", no_table)
    with pytest.raises(ValueError, match="^invalid-parameter: max_secs is NaN"):
        decide_arrowing(3, 9, c4, c4, max_secs=float("nan"), max_nodes=100)


def test_cached_tables_counts_copy_tables_from_memory(monkeypatch):
    # blue reuses red's table; a cached spanning table (K^3_8 for C^3_4,
    # K^3_6 for C^3_3) that a table is lifted from does not count
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    c3, c4 = cycle_template(3, 3), cycle_template(3, 4)
    assert decide_arrowing(3, 7, c3, c3).stats["cached_tables"] == 1
    assert decide_arrowing(3, 9, c4, c3, symmetry=True).stats["cached_tables"] == 0
    assert (8, 3, "cycle", 4) in embedder._COPY_CACHE
    assert decide_arrowing(3, 9, c4, c3, symmetry=True).stats["cached_tables"] == 2


def test_time_budget_bounds_copy_enumeration(monkeypatch):
    # cold, C^3_5 in K^3_11 takes more than half a second to enumerate;
    # the deadline must stop the enumeration itself, and leave nothing
    # partial in the cache
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    c5 = cycle_template(3, 5)
    t0 = time.monotonic()
    v = decide_arrowing(3, 11, c5, c5, max_secs=0.05)
    assert time.monotonic() - t0 < 3.0
    assert v.status == "UNKNOWN"
    assert (v.stats["nodes"], v.stats["propagations"]) == (0, 0)
    assert (v.stats["n_vars"], v.stats["n_clauses"], v.stats["verify_s"]) == \
        (165, 0, 0.0)
    assert v.stats["cached_tables"] == 0
    assert (11, 3, "cycle", 5) not in embedder._COPY_CACHE


def test_enumeration_timeout_reports_every_stats_key(monkeypatch):
    # a verdict that stops in copy enumeration reports the same stats keys,
    # in the same order, as one that searched
    from ramsey_lab import prover
    from ramsey_lab.errors import SearchBudgetExceeded

    c3 = cycle_template(3, 3)
    searched = decide_arrowing(3, 6, c3, c3)

    def out_of_time(*args, **kwargs):
        raise SearchBudgetExceeded("deadline")

    monkeypatch.setattr(prover, "copy_rank_matrix", out_of_time)
    v = decide_arrowing(3, 6, c3, c3, max_secs=1.0)
    assert v.status == "UNKNOWN"
    assert list(v.stats) == list(searched.stats)
    assert {key: v.stats[key] for key in ("nodes", "n_vars", "n_clauses")} == \
        {"nodes": 0, "n_vars": 20, "n_clauses": 0}


def _fake_clock_decision(monkeypatch, max_secs):
    """decide_arrowing(3, 7, C^3_3, C^3_3) on a fake clock that the prover
    and the embedder's deadline check both read, and that each copy table
    moves on by 1.0 as it returns; the instance build and the search are
    stubs.  Returns the verdict, the clock readings, the built instances'
    arguments and the search calls."""
    from types import SimpleNamespace

    from ramsey_lab import embedder, prover

    c3, now, reads, built, searched = cycle_template(3, 3), [0.0], [], [], []

    def monotonic():
        reads.append(now[0])
        return now[0]

    def tables(N, k, t, *, deadline):
        rows = copy_rank_matrix(N, k, t)
        now[0] += 1.0  # the red table returns at 1.0, the blue at 2.0
        return rows

    def search(*args):
        searched.append(args)
        return "UNKNOWN", 0, 0, 0, 0, None

    clock = SimpleNamespace(monotonic=monotonic)
    monkeypatch.setattr(prover, "time", clock)
    monkeypatch.setattr(embedder, "time", clock)
    monkeypatch.setattr(prover, "copy_rank_matrix", tables)
    monkeypatch.setattr(_kernels, "build_instance", lambda *args: built.append(args))
    monkeypatch.setattr(_kernels, "search", search)
    v = decide_arrowing(3, 7, c3, c3, max_secs=max_secs)
    return v, reads, built, searched


def test_passed_deadline_stops_before_the_instance_build(monkeypatch):
    # the clock passes the deadline as the blue table returns, after every
    # check inside copy_rank_matrix: the verdict is UNKNOWN, with the stats
    # of an enumeration timeout, and no instance is built
    v, reads, built, searched = _fake_clock_decision(monkeypatch, 1.5)
    assert v.status == "UNKNOWN" and v.witness is None and built == searched == []
    # the start, the deadline check, the enumeration time
    assert reads == [0.0, 2.0, 2.0]
    assert {key: v.stats[key] for key in ("enumerate_s", "build_s", "nodes", "n_clauses")} \
        == {"enumerate_s": 2.0, "build_s": 0.0, "nodes": 0, "n_clauses": 0}


def test_deadline_not_yet_passed_builds_the_instance(monkeypatch):
    # the tables return at 2.0, before the deadline at 2.5: the instance is
    # built and searched, and its clauses are counted
    v, reads, built, searched = _fake_clock_decision(monkeypatch, 2.5)
    assert len(built) == len(searched) == 1
    assert searched[0][3] == 2.5  # the search gets the same deadline
    assert v.status == "UNKNOWN" and v.stats["n_clauses"] == 2 * 840
    # the start, the deadline check, the build's start and end, the search's end
    assert reads == [0.0, 2.0, 2.0, 2.0, 2.0]
    assert {key: v.stats[key] for key in ("enumerate_s", "build_s", "wall_secs")} \
        == {"enumerate_s": 2.0, "build_s": 0.0, "wall_secs": 0.0}


def test_sat_witness_recheck_counts_before_searching(monkeypatch):
    from ramsey_lab import prover

    def no_search(*args, **kwargs):
        raise AssertionError("find_embedding called on a split witness")

    t = cycle_template(3, 3)
    monkeypatch.setattr(prover, "find_embedding", no_search)
    v = decide_arrowing(3, 6, t, t)
    assert v.status == "SAT" and v.stats["verify_s"] >= 0
    # a bad witness still fails the re-check: all red holds every red
    # copy, and the count leaves red open on a split host with a = N
    monkeypatch.setattr(prover, "find_embedding", find_embedding)
    monkeypatch.setattr(
        _kernels, "search",
        lambda *a: ("SAT", 0, 0, 0, 0, np.ones(math.comb(6, 3), np.int8)))
    with pytest.raises(AssertionError, match="witness contains a red copy"):
        decide_arrowing(3, 6, t, t)


# ------------------------------------------------------------ exact values

def test_exact_c33():
    claim = compute_ramsey(3, ("cycle", 3), ("cycle", 3))
    assert claim.value == F.EXACT_VALUES[("cycle", 3, "cycle", 3)]
    assert claim.witness is not None
    assert claim.witness.n_vertices == claim.value - 1


def test_exact_p33():
    claim = compute_ramsey(3, ("path", 3), ("path", 3))
    assert claim.value == F.EXACT_VALUES[("path", 3, "path", 3)]


def test_budgeted_scan_is_a_bounds_only_claim():
    # C^3_3 against itself: N = 6 is SAT in 5 nodes, N = 7 UNSAT in 94, so
    # a 50-node budget proves the lower bound and stops at 7
    claim = compute_ramsey(3, ("cycle", 3), ("cycle", 3), max_nodes=50)
    assert (claim.value, claim.lower, claim.upper) == (None, 7, None)
    assert claim.provenance == "witness-only"
    assert claim.chain == ("SAT at N=6 (witness verified)",
                           "UNKNOWN at N=7 (budget exhausted)")
    assert claim.witness.n_vertices == 6


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


def test_dimacs_clause_lines_match_rows_across_blocks(monkeypatch):
    # with 11-row blocks, the 840 red and 315 blue rows of K^3_7 end
    # mid-block and the first blue block starts a fresh token list; each
    # row is still one line of its signed rank + 1 values and a 0
    from ramsey_lab import prover

    monkeypatch.setattr(prover, "_DIMACS_BLOCK", 11)
    red, blue = _t(3, "C3"), _t(3, "P2")
    text, _ = export_dimacs(3, 7, red, blue)
    lines = text.split("\n")
    expect = [" ".join(str(-(int(r) + 1)) for r in row) + " 0"
              for row in copy_rank_matrix(7, 3, red)] + \
        [" ".join(str(int(r) + 1) for r in row) + " 0"
         for row in copy_rank_matrix(7, 3, blue)]
    assert lines[3] == "p cnf 35 1155"
    assert lines[4:] == expect + [""]


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


def test_derive_table_extends_cycle_values_past_a_full_base():
    # k = 4 bases R(C_n, C_3) = 3n + 1 for every n in [3, 6] = [m, 2m]
    # extend to n = 7..9, each n with the two path claims a base entry
    # (n, 3) gives; a missing base entry, or k = 3, extends nothing
    base = {(n, 3): F.cc_value(4, n, 3) for n in range(3, 7)}
    extended = [cl for cl in derive_table(4, base, extend_to=9)
                if cl.provenance == "theorem-extended"]
    assert [(cl.red, cl.blue, cl.value) for cl in extended] == \
        [claim for n in range(7, 10)
         for claim in ((("cycle", n), ("cycle", 3), 3 * n + 1),
                       (("path", n), ("cycle", 3), 3 * n + 2),
                       (("path", n), ("path", 2), 3 * n + 1))]
    assert all(cl.lower == cl.upper == cl.value for cl in extended)
    gap = {key: v for key, v in base.items() if key != (5, 3)}
    base3 = {(n, 3): F.cc_value(3, n, 3) for n in range(3, 7)}
    for k, b in ((4, gap), (3, base3)):
        assert all(cl.provenance == "theorem-derived"
                   for cl in derive_table(k, b, extend_to=9))


def test_derive_table_rejects_bad_base():
    with pytest.raises(ValueError, match="inconsistent-base"):
        derive_table(3, {(3, 3): 99})


@pytest.mark.parametrize("k,base", [
    (4, {(3, 4): 10}),  # n < m: R(C^4_3, C^4_4) is 13, not the formula's 10
    (4, {(2, 3): 7}),   # a 2-edge "cycle"
    (4, {(0, 0): -1}),  # no cycles at all
    (2, {(3, 3): 4}),   # graphs, outside the theorem's k >= 3
])
def test_derive_table_refuses_bases_outside_the_theorem(k, base):
    with pytest.raises(ValueError, match="invalid-parameter"):
        derive_table(k, base)


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


def _witness_cert(**meta):
    """The CC witness certificate on K^3_6, with `meta` added to its meta."""
    N, c = lower_bound_witness(3, 3, 3, "CC")
    cert = make_certificate(
        "witness-coloring", c,
        {"red_target": {"kind": "cycle", "length": 3},
         "blue_target": {"kind": "cycle", "length": 3},
         "n_vertices": N},
        lemma="lower-bound", seed=7)
    cert.meta.update(meta)
    return cert


@pytest.mark.parametrize("explicit", [False, True])
def test_saved_certificate_is_one_line_of_its_json_obj(tmp_path, explicit):
    cert = _witness_cert()
    p = tmp_path / "w.cert.json"
    cert.save(p, explicit_coloring=explicit)
    text = p.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == cert.to_json_obj(explicit)


def test_indented_certificate_layout_still_verifies(tmp_path):
    # certificates written as indented JSON load and verify as before
    cert = _witness_cert()
    old = tmp_path / "old.cert.json"
    with open(old, "w") as fh:
        json.dump(cert.to_json_obj(), fh, indent=1)
        fh.write("\n")
    new = tmp_path / "new.cert.json"
    cert.save(new)
    ok_old, report_old = verify_certificate(Certificate.load(old))
    assert ok_old
    assert (ok_old, report_old) == verify_certificate(Certificate.load(new))
    assert Certificate.load(old).to_json_obj() == \
        Certificate.load(new).to_json_obj()


def test_failed_save_keeps_the_old_certificate(tmp_path, monkeypatch):
    from ramsey_lab import core

    p = tmp_path / "w.cert.json"
    _witness_cert().save(p)
    before = p.read_bytes()
    # fails while encoding: nothing is written
    with pytest.raises(TypeError):
        _witness_cert(tags={1, 2}).save(p)
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [p.name]

    # fails when the finished temp file is moved into place
    def no_replace(src, dst):
        raise OSError("rename refused")

    with monkeypatch.context() as m:
        m.setattr(core.os, "replace", no_replace)
        with pytest.raises(OSError, match="rename refused"):
            _witness_cert(note="newer").save(p)
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == [p.name]

    _witness_cert(note="newer").save(p)
    assert Certificate.load(p).meta["note"] == "newer"
    assert [f.name for f in tmp_path.iterdir()] == [p.name]


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


def _witness_claim(c, red, blue):
    """A witness-coloring claim that c has no red `red` and no blue `blue`."""
    return make_certificate(
        "witness-coloring", c,
        {"red_target": {"kind": red[0], "length": red[1]},
         "blue_target": {"kind": blue[0], "length": blue[1]},
         "n_vertices": c.n_vertices}, lemma="false-claim")


@pytest.mark.parametrize("k,n,m,pair", [
    (3, 3, 3, "CC"), (3, 4, 3, "CC"), (3, 3, 3, "PP"), (3, 4, 3, "PC"), (4, 3, 3, "CC"),
])
def test_split_claim_at_the_value_is_rejected_with_a_copy(k, n, m, pair):
    # K^k_value arrows the pair, so the witness's split, or one with A a
    # label larger, on one more vertex carries a copy that the count
    # cannot rule out and the search finds
    value = {"PP": F.pp_value, "PC": F.pc_value, "CC": F.cc_value}[pair](k, n, m)
    red = ("path" if pair[0] == "P" else "cycle", n)
    blue = ("path" if pair[1] == "P" else "cycle", m)
    a = (k - 1) * n - (pair == "CC")
    for split_a in (a, a + 1):
        c = split_coloring(k, value, split_a)
        ok, report = verify_certificate(_witness_claim(c, red, blue))
        assert not ok and report["split_a"] == split_a
        found = [color for color in ("red", "blue") if f"{color}_copy" in report]
        assert found and report["reasons"] == [f"{color}-copy-found" for color in found]
        for color in found:
            assert report["checked_by"][color] == "search"
            copy = Embedding.from_json_obj(report[f"{color}_copy"])
            assert copy.claimed_color == color and verify_embedding(c, copy)


def test_claim_about_a_coloring_that_is_not_split_is_searched():
    # one blue edge at rank 0 ahead of red ones: no prefix, so both colours
    # are searched and the report names no split size
    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    ok, report = verify_certificate(_witness_claim(c, ("cycle", 3), ("path", 2)))
    assert not ok and report["reasons"] == ["red-copy-found"]
    assert "split_a" not in report and "blue_copy" not in report
    assert report["checked_by"] == {"red": "search", "blue": "search"}


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
    # a join trace must carry the cycle its outcome_kind claims
    no_result = make_certificate("join-trace", TwoColoring.all_red(4, 18),
                                 {"steps": [], "outcome_kind": "red-cycle"},
                                 lemma="join")
    with pytest.raises(ValueError, match="malformed-certificate"):
        verify_certificate(no_result)


@pytest.mark.parametrize("disjoint", [True, False])
def test_empty_pair_set_is_refused(disjoint):
    # an all-red host has no bichromatic pair, so a pair-set claims nothing
    # on it; an empty one must not verify
    c = TwoColoring.all_red(3, 6)
    cert = make_certificate("pair-set", c, {"pairs": [], "disjoint": disjoint},
                            lemma="x")
    reasons = ["no-pairs"] + ["disjoint-needs-two-pairs"] * disjoint
    assert verify_certificate(cert) == (False, {"type": "pair-set",
                                                "reasons": reasons})


def test_disjoint_claim_needs_two_pairs():
    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 4)], red=False)
    pair = {"red_edge": [1, 2, 3], "blue_edge": [1, 2, 4]}
    for disjoint, reasons in ((False, []), (True, ["disjoint-needs-two-pairs"])):
        cert = make_certificate("pair-set", c, {"pairs": [pair], "disjoint": disjoint},
                                lemma="x")
        assert verify_certificate(cert) == (not reasons, {"type": "pair-set",
                                                          "reasons": reasons})


@pytest.mark.parametrize("N", [0, 1, 2])
def test_empty_host_is_sat_without_search(N):
    # K^3_N has no edge below N = 3: nothing to color, nothing forbidden
    p1 = path_template(3, 1)
    v = decide_arrowing(3, N, p1, p1)
    assert (v.status, v.stats["nodes"], v.stats["n_vars"]) == ("SAT", 0, 0)
    assert v.witness.n_vertices == N and v.witness.n_edges == 0


def test_template_refusals_are_parameter_errors():
    # every template refusal, whichever caller builds the template, names
    # the parameter class its siblings use
    with pytest.raises(ValueError, match="^invalid-parameter: kind must be"):
        compute_ramsey(3, ("star", 2), ("path", 2))
    with pytest.raises(ValueError, match="^invalid-parameter: cycle needs n >= 3"):
        compute_ramsey(3, ("cycle", 2), ("path", 2))
    cert = make_certificate("witness-coloring", TwoColoring.all_red(3, 6),
                            {"red_target": {"kind": "star", "length": 3},
                             "blue_target": {"kind": "cycle", "length": 3},
                             "n_vertices": 6}, lemma="x")
    with pytest.raises(ValueError, match="^malformed-certificate: invalid-parameter: "
                                         "kind must be"):
        verify_certificate(cert)


def test_decision_input_checks_come_from_count_copies():
    # N and the targets' uniformity are checked once, by `count_copies`
    p2 = path_template(3, 2)
    with pytest.raises(ValueError, match=r"^invalid-parameter: N=-1, k=3$"):
        decide_arrowing(3, -1, p2, p2)
    with pytest.raises(ValueError, match=r"^invalid-parameter: template k=3 but k=4"):
        decide_arrowing(4, 6, p2, p2)
    with pytest.raises(ValueError, match=r"^invalid-parameter: template k=3 but k=4"):
        export_dimacs(4, 6, p2, p2)
