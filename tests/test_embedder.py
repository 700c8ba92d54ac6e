"""Embedding search against brute-force oracles, plus maximality."""

import hashlib
import itertools

import numpy as np
import pytest

from ramsey_lab.coloring import TwoColoring, all_edges, split_coloring
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import (
    UNKNOWN,
    Embedding,
    VerifyResult,
    copy_rank_matrix,
    count_copies,
    embedding_from_edge_sequence,
    find_embedding,
    is_maximal_wrt,
    verify_embedding,
)

import frozen_values as F
import oracles as O


def rng_coloring(k, N, seed, p_red=0.5):
    rng = np.random.default_rng(seed)
    bits = (rng.random(len(all_edges(N, k))) < p_red).astype(np.uint8)
    return TwoColoring(k, N, bits)


# ---------------------------------------------------------------- counting

@pytest.mark.parametrize("kind,k,n,N", list(F.COPY_COUNTS))
def test_copy_counts_frozen(kind, k, n, N):
    t = cycle_template(k, n) if kind == "cycle" else path_template(k, n)
    assert count_copies(N, k, t) == F.COPY_COUNTS[(kind, k, n, N)]


@pytest.mark.parametrize("kind,n,N", [
    ("path", 1, 4), ("path", 2, 5), ("path", 2, 6),
    ("path", 3, 7), ("cycle", 3, 6), ("cycle", 3, 7),
])
def test_copy_counts_match_oracle(kind, n, N):
    k = 3
    t = cycle_template(k, n) if kind == "cycle" else path_template(k, n)
    base = O.oracle_cycle_edges(k, n) if kind == "cycle" else O.oracle_path_edges(k, n)
    assert count_copies(N, k, t) == O.oracle_count_copies(N, base, t.n_vertices)


def test_count_copies_zero_when_too_big():
    assert count_copies(5, 3, path_template(3, 3)) == 0


def _ranked_copies(N, k, kind, n):
    """Oracle copies of the template as sorted rows of oracle ranks."""
    base = O.oracle_cycle_edges(k, n) if kind == "cycle" else O.oracle_path_edges(k, n)
    n_vertices = (k - 1) * n + (kind == "path")
    rank = {e: O.oracle_rank(e, N, k)
            for e in itertools.combinations(range(1, N + 1), k)}
    return {tuple(sorted(rank[tuple(sorted(e))] for e in copy))
            for copy in O.oracle_copy_sets(N, base, n_vertices)} if n_vertices <= N else set()


def test_copy_tables_stay_in_memory(tmp_path, monkeypatch):
    # copy tables live only in the process: a cache directory in the
    # environment is neither read nor written
    from ramsey_lab import embedder
    from ramsey_lab.prover import decide_arrowing

    monkeypatch.setenv("RAMSEY_LAB_CACHE", str(tmp_path))
    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    c3 = cycle_template(3, 3)
    assert decide_arrowing(3, 7, c3, c3).status == "UNSAT"
    assert (7, 3, "cycle", 3) in embedder._COPY_CACHE
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------- copy enumeration

@pytest.mark.parametrize("k,kind,n,N_max", [
    (3, "path", 1, 8), (3, "path", 2, 8), (3, "path", 3, 8),
    (3, "cycle", 3, 8), (3, "cycle", 4, 8),
    (4, "path", 1, 7), (4, "path", 2, 7),
    # lifted from K^4_7, with 3 private vertices in each end edge
    (4, "path", 2, 9),
])
def test_copy_matrix_matches_oracle(k, kind, n, N_max):
    t = cycle_template(k, n) if kind == "cycle" else path_template(k, n)
    for N in range(1, N_max + 1):
        rows = copy_rank_matrix(N, k, t)
        got = set(map(tuple, rows.tolist()))
        assert rows.dtype == np.int64 and rows.shape[1] == n
        assert got == _ranked_copies(N, k, kind, n) and len(got) == len(rows), N
        # each row strictly ascending, the rows in strict lexicographic order
        assert (np.diff(rows, axis=1) > 0).all(), N
        step = rows[1:] - rows[:-1]
        first = np.argmax(step != 0, axis=1)
        assert (step[np.arange(len(step)), first] > 0).all(), N


def test_copy_grow_runs_only_on_spanning_hosts(monkeypatch):
    # a table on more than v = |V(C^3_3)| = 6 labels is lifted from the
    # cached spanning table, so only K^3_6 grows copies edge by edge
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    free = []  # free vertices before each grown edge, N - k first
    real_moves = embedder._moves

    def moves(a, s, branch):
        free.append(a)
        return real_moves(a, s, branch)

    monkeypatch.setattr(embedder, "_moves", moves)
    c3 = cycle_template(3, 3)
    assert (len(copy_rank_matrix(7, 3, c3)), len(copy_rank_matrix(9, 3, c3))) == \
        (840, 10080)
    assert free == [6 - 3, 1]  # one grow run, at N = 6
    assert (6, 3, "cycle", 3) in embedder._COPY_CACHE


@pytest.mark.parametrize("kind,k,n,N", list(F.COPY_MATRIX_SHA256))
def test_copy_matrix_frozen_sha256(kind, k, n, N):
    t = cycle_template(k, n) if kind == "cycle" else path_template(k, n)
    rows = copy_rank_matrix(N, k, t)
    assert rows.dtype == np.int64 and rows.flags.c_contiguous
    assert rows.flags.writeable is False
    assert (len(rows), hashlib.sha256(rows.tobytes()).hexdigest()) == \
        F.COPY_MATRIX_SHA256[(kind, k, n, N)]


@pytest.mark.parametrize("N,k", [(7, 3), (8, 3), (9, 4), (10, 4), (11, 5), (12, 6), (13, 5)])
def test_mask_ranker_matches_colex_rank(N, k):
    # the enumerator ranks a new edge by its vertex mask, split into a low
    # and a high half; every k-subset of 1..N must get its colex rank
    from ramsey_lab.coloring import colex_rank
    from ramsey_lab.embedder import _mask_ranker

    subsets = list(itertools.combinations(range(1, N + 1), k))
    masks = np.array([sum(1 << x for x in e) for e in subsets], dtype=np.int64)
    assert _mask_ranker(N, k)(masks).tolist() == [colex_rank(e) for e in subsets]


def test_lifted_copy_table_peaks_near_its_size(monkeypatch):
    # with the spanning table warm, lifting P^3_4 into K^3_10 (13.8 MB)
    # holds the table and one int64 sort key per row at most: no buffer
    # for the lift's take, no argsort index and no second table
    import tracemalloc

    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    p4 = path_template(3, 4)
    copy_rank_matrix(9, 3, p4)
    tracemalloc.start()
    try:
        rows = copy_rank_matrix(10, 3, p4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 453600 * 4 * 8
    assert peak < 1.5 * rows.nbytes, peak / rows.nbytes


def test_lift_refuses_spanning_ranks_out_of_range(monkeypatch):
    # the lift takes without bounds checks, so a spanning table with a
    # rank at or past C(v, k) is an internal error, not a clipped table
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    c3 = cycle_template(3, 3)
    span = copy_rank_matrix(6, 3, c3).copy()
    span[-1, -1] = 20
    embedder._COPY_CACHE[(6, 3, "cycle", 3)] = span
    with pytest.raises(AssertionError, match=r"past C\(6, 3\)"):
        copy_rank_matrix(7, 3, c3)
    assert (7, 3, "cycle", 3) not in embedder._COPY_CACHE


def test_copy_sort_key_overflow_is_internal_error(monkeypatch):
    # the rows are ordered by one base-C(N, k) int64 per row; a template
    # whose key would pass 2^63 has no table that fits in memory, and a
    # nonempty one is refused rather than sorted wrongly
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_enumerate_copies",
                        lambda N, k, t, deadline: np.arange(9, dtype=np.int64)[None])
    with pytest.raises(AssertionError, match="past int64"):
        embedder.copy_rank_matrix(200, 3, cycle_template(3, 9))
    assert embedder._COPY_CACHE == {}


def test_copy_table_too_large_is_refused():
    # C^3_5 has 40!/(30! * 10) copies in K^3_40, past the int32 clause ids
    # of the search; the 10.9 PiB table is refused, not allocated
    with pytest.raises(ValueError, match=r"copy-table-too-large: cycle:5 \(k=3\) "
                                         r"has 307599052400640 copies in K\^3_40"):
        copy_rank_matrix(40, 3, cycle_template(3, 5))


def test_copy_table_past_memory_is_refused(monkeypatch):
    # with 100 MB of memory, the 159.7 MB table of C^3_5 in K^3_11 (a
    # decision peaks near 4 times that) is refused before anything is
    # allocated or cached
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_memory_bytes", lambda: 100_000_000)
    with pytest.raises(ValueError, match=r"copy-table-too-large: cycle:5 \(k=3\) has "
                                         r"3991680 copies in K\^3_11, a 159667200-byte "
                                         r"table; .* past the host's 100000000 bytes"):
        copy_rank_matrix(11, 3, cycle_template(3, 5))
    assert embedder._COPY_CACHE == {}
    assert len(copy_rank_matrix(7, 3, cycle_template(3, 3))) == 840


def test_count_copies_never_enumerates(monkeypatch):
    from ramsey_lab import embedder

    def no_enumeration(*args):
        raise AssertionError("counting must not enumerate")

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_enumerate_copies", no_enumeration)
    assert count_copies(11, 3, cycle_template(3, 5)) == 3991680
    assert embedder._COPY_CACHE == {}


# ----------------------------------------------------------------- search

@pytest.mark.parametrize("seed", range(12))
def test_find_matches_bruteforce(seed):
    k, N = 3, 6
    c = rng_coloring(k, N, seed)
    reds = set(c.red_edges())
    host = list(range(1, N + 1))
    alles = set(all_edges(N, k))
    for kind, n in [("path", 2), ("cycle", 3)]:
        t = cycle_template(k, n) if kind == "cycle" else path_template(k, n)
        base = [tuple(e) for e in t.edges]
        for color, want_red in (("red", True), ("blue", False)):
            got = find_embedding(c, color, t)
            expect = O.oracle_embedding_exists(
                reds, host, base, t.n_vertices, want_red, alles)
            assert (got is not None) == expect
            if got is not None:
                assert verify_embedding(c, got).ok


def test_find_none_is_provable_absence():
    c = TwoColoring.all_red(3, 6)
    assert find_embedding(c, "blue", path_template(3, 1)) is None


def test_unknown_sentinel_semantics():
    c = split_coloring(3, 8, a=5)
    res = find_embedding(c, "red", path_template(3, 3), max_nodes=1)
    assert res is UNKNOWN
    with pytest.raises(TypeError):
        bool(UNKNOWN)


def test_fixed_extension_only():
    c = TwoColoring.all_red(3, 7)
    t = path_template(3, 2)
    got = find_embedding(c, "red", t, fixed={1: 4, 5: 6})
    assert got is not None
    assert got.vertex_image(1) == 4 and got.vertex_image(5) == 6


# ------------------------------------------------------------ twin classes

def _twin_grid():
    """625 colorings: k = 1..5, N = k..11; all red, all blue, two random,
    every split size, and red iff an even number of vertices lie in odd
    blocks of 2 or of 3 consecutive labels."""
    for k in range(1, 6):
        for N in range(k, 12):
            edges = O.oracle_colex_subsets(N, k)
            rng = np.random.default_rng(100 * k + N)
            yield k, N, np.ones(len(edges), dtype=np.uint8)
            yield k, N, np.zeros(len(edges), dtype=np.uint8)
            for _ in range(2):
                yield k, N, (rng.random(len(edges)) < 0.5).astype(np.uint8)
            for a in range(N + 1):
                yield k, N, np.array([max(e) <= a for e in edges], dtype=np.uint8)
            for b in (2, 3):
                yield k, N, np.array([sum((v - 1) // b % 2 for v in e) % 2 == 0
                                      for e in edges], dtype=np.uint8)


def test_twin_classes_match_oracle():
    from ramsey_lab.embedder import _twin_classes

    n = 0
    for k, N, bits in _twin_grid():
        assert _twin_classes(TwoColoring(k, N, bits)) == O.oracle_twin_classes(N, k, bits), \
            (k, N, bits)
        n += 1
    assert n == 625


@pytest.mark.parametrize("k,n,m,pair", [
    (5, 5, 3, "CC"), (5, 5, 3, "PP"), (5, 5, 3, "PC"), (5, 6, 3, "CC"), (6, 4, 3, "CC"),
])
def test_witness_hosts_have_two_twin_classes(k, n, m, pair):
    from ramsey_lab.coloring import lower_bound_witness
    from ramsey_lab.embedder import _twin_classes

    N, c = lower_bound_witness(k, n, m, pair)
    a = (k - 1) * n - (pair == "CC")
    assert 0 < a < N
    assert _twin_classes(c) == {v: 1 if v <= a else a + 1 for v in range(1, N + 1)}


# ------------------------------------------------------------ verification

def test_verify_reasons():
    c = TwoColoring.all_red(3, 7)
    t = path_template(3, 2)
    ok = Embedding(t, (1, 2, 3, 4, 5), "red")
    assert verify_embedding(c, ok).ok
    r = verify_embedding(c, Embedding(t, (1, 2, 3, 4, 5), "blue"))
    assert not r.ok and r.reason == "edge-color-mismatch"
    r = verify_embedding(c, Embedding(t, (1, 2, 3, 4, 1), "red"))
    assert not r.ok and r.reason == "not-injective"
    r = verify_embedding(c, Embedding(t, (1, 2, 3, 4, 9), "red"))
    assert not r.ok and r.reason == "out-of-range"
    t4 = path_template(4, 2)
    r = verify_embedding(c, Embedding(t4, (1, 2, 3, 4, 5, 6, 7), "red"))
    assert not r.ok and r.reason == "incompatible-uniformity"
    assert bool(VerifyResult(True, "")) is True


def test_embedding_from_edge_sequence():
    emb = embedding_from_edge_sequence([(1, 2, 3), (3, 4, 5)], "path", "red")
    assert emb.template.n == 2
    assert emb.edge_images() == [(1, 2, 3), (3, 4, 5)]
    emb = embedding_from_edge_sequence(
        [(1, 2, 3), (3, 4, 5), (5, 6, 1)], "cycle", "blue")
    assert emb.template.kind == "cycle"
    assert {frozenset(e) for e in emb.edge_images()} == {
        frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({5, 6, 1})}
    with pytest.raises(ValueError):
        embedding_from_edge_sequence([(1, 2, 3), (2, 3, 4)], "path", "red")


_SEQUENCE_SHAPES = [(k, "path", n) for k in (3, 4, 5) for n in range(1, 7)] + \
    [(k, "cycle", n) for k in (3, 4, 5) for n in range(3, 7)]


@pytest.mark.parametrize("k,kind,n", _SEQUENCE_SHAPES)
def test_embedding_from_edge_sequence_round_trip(k, kind, n):
    t = path_template(k, n) if kind == "path" else cycle_template(k, n)
    rng = np.random.default_rng(1000 * k + 10 * n + (kind == "cycle"))
    for _ in range(5):
        N = t.n_vertices + int(rng.integers(0, 5))
        asg = tuple(int(v) for v in rng.permutation(N)[:t.n_vertices] + 1)
        edges = Embedding(t, asg, "blue").edge_images()
        orders = [edges]
        if kind == "cycle":
            orders += [edges[s:] + edges[:s] for s in range(1, n)]
            orders += [o[::-1] for o in list(orders)]
        else:
            orders.append(edges[::-1])
        for seq in orders:
            # shuffled vertices inside an edge do not matter
            got = embedding_from_edge_sequence(
                [tuple(rng.permutation(e)) for e in seq], kind, "blue")
            assert got.template == t and got.claimed_color == "blue"
            assert got.edge_images() == seq
            assert set(got.assignment) == set(asg)
            assert verify_embedding(TwoColoring.all_blue(k, N), got).ok
            # a fixpoint on its own output
            assert embedding_from_edge_sequence(got.edge_images(), kind,
                                                "blue") == got


@pytest.mark.parametrize("edges,kind,message", [
    ([], "path", "empty edge sequence"),
    ([(1, 2, 3), (3, 4, 5, 6)], "path", "edges must be distinct k-sets of equal size"),
    ([(1, 2, 3), (3, 3, 4)], "path", "edges must be distinct k-sets of equal size"),
    ([(1, 2, 3), (2, 3, 4)], "path", "edge sequence does not form a loose path"),
    ([(1, 2, 3), (3, 4, 5)], "cycle", "edge sequence does not form a loose cycle"),
    # three edges through one vertex pass every pairwise test
    ([(1, 2, 3), (1, 4, 5), (1, 6, 7)], "cycle",
     "edge sequence does not form a loose cycle"),
])
def test_embedding_from_edge_sequence_rejects(edges, kind, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        embedding_from_edge_sequence(edges, kind, "red")


def test_embedding_json_roundtrip():
    t = cycle_template(3, 3)
    emb = Embedding(t, (2, 4, 6, 1, 3, 5), "blue")
    back = Embedding.from_json_obj(emb.to_json_obj())
    assert back == emb


# -------------------------------------------------------------- maximality

def test_maximality_positive_and_negative():
    k, n, N = 3, 2, 8
    t = path_template(k, n)
    P = Embedding(t, tuple(range(1, 6)), "red")
    pe = set(P.edge_images())
    blue_world = TwoColoring.all_blue(k, N).with_edges(list(pe), red=True)
    assert is_maximal_wrt(blue_world, P, frozenset({6, 7, 8}))
    red_world = TwoColoring.all_red(k, N)
    assert not is_maximal_wrt(red_world, P, frozenset({6, 7, 8}))


def test_maximality_precondition_errors():
    k, n, N = 3, 2, 8
    P = Embedding(path_template(k, n), tuple(range(1, 6)), "red")
    c = TwoColoring.all_blue(k, N)
    with pytest.raises(ValueError, match="precondition-violation"):
        is_maximal_wrt(c, P, frozenset({6, 7, 8}))
    c2 = TwoColoring.all_red(k, N)
    with pytest.raises(ValueError, match="precondition-violation"):
        is_maximal_wrt(c2, P, frozenset({5, 6, 7}))


def test_maximality_monotone_under_blue_flips():
    # flipping non-path edges to blue can only help maximality
    k, n, N = 3, 2, 7
    t = path_template(k, n)
    P = Embedding(t, tuple(range(1, 6)), "red")
    pe = set(P.edge_images())
    W = frozenset({6, 7})
    c = TwoColoring.all_red(k, N)
    flippable = [e for e in all_edges(N, k) if e not in pe]
    cur = c
    was_maximal = False
    for e in flippable:
        cur = cur.with_edges([e], red=False)
        now = is_maximal_wrt(cur, P, W)
        assert not (was_maximal and not now)
        was_maximal = now
    assert was_maximal
