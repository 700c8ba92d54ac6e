"""Embedding search against brute-force oracles, plus maximality."""

import ast
import hashlib
import itertools
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

import ramsey_lab
from ramsey_lab.coloring import TwoColoring, all_edges, split_coloring
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import (
    Embedding,
    VerifyResult,
    copy_rank_matrix,
    count_copies,
    embedding_from_edge_sequence,
    find_embedding,
    is_maximal_wrt,
    verify_embedding,
)
from ramsey_lab.errors import HypothesisViolation

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
        table = copy_rank_matrix(N, k, t)
        # the smallest unsigned dtype that holds every rank below C(N, k)
        assert table.dtype == np.min_scalar_type(max(math.comb(N, k) - 1, 0))
        rows = table.astype(np.int64)
        got = set(map(tuple, rows.tolist()))
        assert rows.shape[1] == n
        assert got == _ranked_copies(N, k, kind, n) and len(got) == len(rows), N
        # each row strictly ascending, the rows in strict lexicographic order
        assert (np.diff(rows, axis=1) > 0).all(), N
        step = rows[1:] - rows[:-1]
        first = np.argmax(step != 0, axis=1)
        assert (step[np.arange(len(step)), first] > 0).all(), N


def test_copy_grow_runs_only_on_spanning_hosts(monkeypatch):
    # a table on more than v = |V(C^3_3)| = 6 labels is lifted from the
    # cached spanning table, so only K^3_6 runs the extension step for
    # C^3_3, after K^3_5 ran it for the P^3_2 copies it extends; the
    # tables of P^3_2 and of the P^3_1 it extends are cached too
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    hosts = []  # the host of each extension step, which ranks new edges
    real_ranker = embedder._mask_ranker

    def ranker(N, k):
        hosts.append(N)
        return real_ranker(N, k)

    monkeypatch.setattr(embedder, "_mask_ranker", ranker)
    c3 = cycle_template(3, 3)
    assert (len(copy_rank_matrix(7, 3, c3)), len(copy_rank_matrix(9, 3, c3))) == \
        (840, 10080)
    assert hosts == [5, 6]
    assert set(embedder._COPY_CACHE) == {(N, 3, "cycle", 3) for N in (6, 7, 9)} | \
        {(3, 3, "path", 1), (5, 3, "path", 2)}


def test_refute_pass_enumerates_each_table_once(monkeypatch):
    # the six tables of c33@7, p33@8 and c43@9 and every shorter or
    # spanning table they come from are enumerated once each
    from ramsey_lab import embedder
    from ramsey_lab.prover import decide_arrowing

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    built, real_enumerate = Counter(), embedder._enumerate_copies

    def enumerate_copies(N, k, t, deadline):
        built[embedder._copy_key(N, k, t)] += 1
        return real_enumerate(N, k, t, deadline)

    monkeypatch.setattr(embedder, "_enumerate_copies", enumerate_copies)
    c3, c4, p3 = cycle_template(3, 3), cycle_template(3, 4), path_template(3, 3)
    for N, red, blue, sym in [(7, c3, c3, False), (8, p3, p3, False), (9, c4, c3, True)]:
        assert decide_arrowing(3, N, red, blue, symmetry=sym).status == "UNSAT"
    assert set(built.values()) == {1}
    assert set(built) == set(embedder._COPY_CACHE) == {
        (3, 3, "path", 1), (5, 3, "path", 2), (7, 3, "path", 3), (8, 3, "path", 3),
        (6, 3, "cycle", 3), (7, 3, "cycle", 3), (9, 3, "cycle", 3),
        (8, 3, "cycle", 4), (9, 3, "cycle", 4)}


def _callers(source: str, callee: str) -> list:
    """The enclosing function's name of each call in `source` to a function
    named `callee`, by name or as an attribute, in source order; None for a
    call outside every function."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] == callee:
            found.append(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), None)
    return found


def test_caller_scan_finds_calls():
    src = "\n".join([
        "f()",
        "def g():",
        "    x = m.f(1)",
        "    h = f  # a reference, not a call",
        "    return [f(y) for y in x]",
        "class C:",
        "    def f(self):",
        "        return self.f() or ff()",
    ])
    assert _callers(src, "f") == [None, "g", "g", "f"]


def test_copy_enumeration_runs_only_in_copy_rank_matrix():
    # every table, a shorter path's included, comes through
    # copy_rank_matrix and its cache, so no route builds a table twice
    package = pathlib.Path(ramsey_lab.__file__).parent
    callers = {path.name: _callers(path.read_text(), "_enumerate_copies")
               for path in sorted(package.glob("*.py"))}
    assert {name: c for name, c in callers.items() if c} == \
        {"embedder.py": ["copy_rank_matrix"]}


def test_spanning_copy_table_peaks_near_its_size(monkeypatch):
    # cold, C^3_5 in K^3_10 (1.8 MB of uint8) is extended from the lifted
    # P^3_4 copies block by block: beside the table, one uint64 sort key
    # per row (35 bits) and the shorter paths' tables, only one block
    # of cells is held at a time
    import tracemalloc

    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    tracemalloc.start()
    try:
        rows = copy_rank_matrix(10, 3, cycle_template(3, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 362880 * 5
    assert peak < 1.1 * (rows.nbytes + 8 * len(rows)), peak / rows.nbytes


def test_deadline_stops_a_spanning_build(monkeypatch):
    # a passed deadline stops the first table, P^3_1's, so nothing is
    # cached; one that passes once C^3_5 has P^3_4's rows stops C^3_5's
    # blocks, and the shorter paths' tables, finished in time, stay cached
    import time
    from types import SimpleNamespace

    from ramsey_lab import embedder
    from ramsey_lab.errors import SearchBudgetExceeded

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    c5 = cycle_template(3, 5)
    with pytest.raises(SearchBudgetExceeded):
        copy_rank_matrix(10, 3, c5, deadline=time.monotonic())
    assert embedder._COPY_CACHE == {}
    now, real_ends = [0.0], embedder._path_ends

    def ends(span, local):
        if span.shape[1] == 4:
            now[0] = 1.0
        return real_ends(span, local)

    monkeypatch.setattr(embedder, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(embedder, "_path_ends", ends)
    with pytest.raises(SearchBudgetExceeded):
        copy_rank_matrix(10, 3, c5, deadline=0.5)
    assert list(embedder._COPY_CACHE) == [(2 * n + 1, 3, "path", n) for n in range(1, 5)]


@pytest.mark.parametrize("N", [7, 8])
def test_deadline_is_checked_before_the_sort(monkeypatch, N):
    # the clock passes the deadline once the last extension block (N = 7)
    # or the lift (N = 8) of P^3_3 is done, after every check inside the
    # enumeration: the sort must not run, and the table is not cached;
    # the tables it comes from, finished in time, are
    from types import SimpleNamespace

    from ramsey_lab import embedder
    from ramsey_lab.errors import SearchBudgetExceeded

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    p3, now, real_enumerate = path_template(3, 3), [0.0], embedder._enumerate_copies

    def enumerate_copies(n_vertices, k, t, deadline):
        rows = real_enumerate(n_vertices, k, t, deadline)
        if (n_vertices, t) == (N, p3):
            now[0] = 1.0
        return rows

    monkeypatch.setattr(embedder, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(embedder, "_enumerate_copies", enumerate_copies)
    with pytest.raises(SearchBudgetExceeded):
        copy_rank_matrix(N, 3, p3, deadline=0.5)
    # P^3_1's and P^3_2's, and at N = 8 the spanning table of K^3_7
    assert list(embedder._COPY_CACHE) == [(2 * n + 1, 3, "path", n)
                                          for n in range(1, 3 + (N == 8))]


@pytest.mark.parametrize("kind,k,n,N", list(F.COPY_MATRIX_SHA256))
def test_copy_matrix_frozen_sha256(kind, k, n, N):
    t = cycle_template(k, n) if kind == "cycle" else path_template(k, n)
    rows = copy_rank_matrix(N, k, t)
    assert rows.dtype == np.min_scalar_type(math.comb(N, k) - 1)
    assert rows.flags.c_contiguous and rows.flags.writeable is False
    # the digests were taken over int64 rows, which hold the same values
    assert (len(rows), hashlib.sha256(rows.astype(np.int64).tobytes()).hexdigest()) == \
        F.COPY_MATRIX_SHA256[(kind, k, n, N)]


@pytest.mark.parametrize("N,k", [(7, 3), (8, 3), (9, 4), (10, 4), (11, 5), (12, 6), (13, 5)])
def test_mask_ranker_matches_colex_rank(N, k):
    # the enumerator ranks a new edge by its vertex mask, split into a low
    # and a high half; every k-subset of 1..N must get its colex rank, as
    # must the sum of its labels' shares in `colex_parts`
    from ramsey_lab.coloring import colex_parts, colex_rank
    from ramsey_lab.embedder import _mask_ranker

    subsets = list(itertools.combinations(range(1, N + 1), k))
    masks = np.array([sum(1 << x for x in e) for e in subsets], dtype=np.int64)
    ranks = [colex_rank(e) for e in subsets]
    assert _mask_ranker(N, k)(masks).tolist() == ranks
    assert colex_parts(N, k)[np.array(subsets), np.arange(k)].sum(axis=1).tolist() == ranks


def test_lifted_copy_table_peaks_near_its_size(monkeypatch):
    # with the spanning table warm, lifting P^3_4 into K^3_10 (1.8 MB of
    # uint8) holds the table and one uint32 sort key per row at most (28
    # bits): no buffer for the lift's take, no argsort index and no second
    # table
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
    assert rows.nbytes == 453600 * 4
    assert peak < 1.1 * (rows.nbytes + 4 * len(rows)), peak / rows.nbytes


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
    # the rows are ordered by one key per row, a field of
    # (C(N, k) - 1).bit_length() bits per column, in the narrowest unsigned
    # dtype that holds it; a template whose key would need 64 bits has no
    # table that fits in memory, and a nonempty one is refused rather than
    # sorted wrongly
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_enumerate_copies",
                        lambda N, k, t, deadline: np.arange(9, dtype=np.int64)[None])
    with pytest.raises(AssertionError, match="past int64"):
        embedder.copy_rank_matrix(200, 3, cycle_template(3, 9))
    assert embedder._COPY_CACHE == {}


@pytest.mark.parametrize("N,t,width", [
    (5, path_template(3, 2), np.uint8),     # 4-bit fields x 2 columns
    (6, cycle_template(3, 3), np.uint16),   # 5 bits x 3
    (9, cycle_template(3, 4), np.uint32),   # 7 bits x 4
    (10, cycle_template(3, 5), np.uint64),  # 7 bits x 5
])
def test_copy_sort_keys_of_every_width_order_rows_lexicographically(monkeypatch, N, t, width):
    # the enumerated rows, shuffled, come out of each key width in
    # np.lexsort's order, first column most significant
    from ramsey_lab import embedder

    assert np.min_scalar_type((1 << (math.comb(N, 3) - 1).bit_length() * t.n) - 1) == width
    enumerate_copies = embedder._enumerate_copies
    shuffled = {}

    def enumerate_shuffled(*args):
        rows = enumerate_copies(*args)
        np.random.default_rng(5).shuffle(rows)
        shuffled["rows"] = rows.copy()
        return rows

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_enumerate_copies", enumerate_shuffled)
    rows = copy_rank_matrix(N, 3, t)
    oracle = shuffled["rows"][np.lexsort(shuffled["rows"].T[::-1])]
    assert len(rows) == count_copies(N, 3, t) > 1
    assert rows.dtype == oracle.dtype and np.array_equal(rows, oracle)


def test_copy_table_too_large_is_refused():
    # C^3_5 has 40!/(30! * 10) copies in K^3_40, past the int32 clause ids
    # of the search; the 10.9 PiB table is refused, not allocated
    with pytest.raises(ValueError, match=r"copy-table-too-large: cycle:5 \(k=3\) "
                                         r"has 307599052400640 copies in K\^3_40"):
        copy_rank_matrix(40, 3, cycle_template(3, 5))


@pytest.mark.parametrize("N,k,t", [(5, 3.0, path_template(3, 2)),
                                   (-1, 3, path_template(3, 2)),
                                   (9, 4, path_template(3, 2))],
                         ids=["float-k", "negative-N", "other-k"])
def test_copy_table_inputs_are_checked_by_count_copies(monkeypatch, N, k, t):
    # the one gate runs before the cache is read: a float k equal to an int
    # would otherwise find that int's table
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    copy_rank_matrix(5, 3, path_template(3, 2))
    cached = list(embedder._COPY_CACHE)
    with pytest.raises(ValueError, match="^invalid-parameter: "):
        copy_rank_matrix(N, k, t)
    assert list(embedder._COPY_CACHE) == cached


def test_copy_table_past_memory_is_refused(monkeypatch):
    # with 100 MB of memory, the 20.0 MB uint8 table of C^3_5 in K^3_11
    # (a decision peaks near 9 times that) is refused before anything is
    # allocated or cached
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_memory_bytes", lambda: 100_000_000)
    with pytest.raises(ValueError, match=r"copy-table-too-large: cycle:5 \(k=3\) has "
                                         r"3991680 copies in K\^3_11, a 19958400-byte "
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


def test_fixed_extension_only():
    c = TwoColoring.all_red(3, 7)
    t = path_template(3, 2)
    got = find_embedding(c, "red", t, fixed={1: 4, 5: 6})
    assert got is not None
    assert got.assignment[0] == 4 and got.assignment[4] == 6


def test_fully_fixed_edge_is_checked_before_the_search():
    # pins covering the first edge of P^3_2: its colour decides at once,
    # and otherwise the search places only the second edge's free slots
    c = TwoColoring.all_red(3, 7).with_edges([(2, 4, 6)], red=False)
    t = path_template(3, 2)
    assert find_embedding(c, "red", t, fixed={1: 6, 2: 4, 3: 2}) is None
    got = find_embedding(c, "red", t, fixed={1: 1, 2: 3, 3: 5})
    assert got.assignment == (1, 3, 5, 2, 4)
    assert verify_embedding(c, got).ok


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


def _classes(rep):
    """The classes of a vertex -> representative map, as a set of sets."""
    out = {}
    for v, r in rep.items():
        out.setdefault(r, set()).add(v)
    return {frozenset(cls) for cls in out.values()}


def test_twin_classes_match_oracle():
    # pruning is sound when every class lies inside a class of labels that
    # color-preservingly swap; on a split host with k <= a < N, where the
    # swap (a, a+1) moves a color, the classes are exactly the oracle's
    from ramsey_lab.embedder import _twin_classes

    n = exact = 0
    for k, N, bits in _twin_grid():
        got = _classes(_twin_classes(TwoColoring(k, N, bits)))
        want = _classes(O.oracle_twin_classes(N, k, bits))
        assert all(any(cls <= w for w in want) for cls in got), (k, N, bits)
        if any(np.array_equal(bits, split_coloring(k, N, a).bits) for a in range(k, N)):
            assert got == want, (k, N, bits)
            exact += 1
        n += 1
    # every split size k..N-1 once, plus the random and parity colorings
    # that happen to be split
    assert n == 625 and exact >= sum(N - k for k in range(1, 6) for N in range(k, 12))


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


def _planted_k4_18(seed):
    """A uniform random K^4_18 coloring with red C^4_3 planted on 1..9 and
    10..18, as the benchmark's join and false-claim inputs are built."""
    from ramsey_lab.coloring import colex_rank

    rng = np.random.default_rng(seed)
    bits = (rng.random(len(all_edges(18, 4))) < 0.5).astype(np.uint8)
    for start in (1, 10):
        e = Embedding(cycle_template(4, 3), tuple(range(start, start + 9)), "red")
        bits[[colex_rank(img) for img in e.edge_images()]] = 1
    return TwoColoring(4, 18, bits)


@pytest.mark.parametrize("host", ["k4-18", "split"])
def test_find_embedding_builds_no_swap_table(monkeypatch, host):
    # twin classes come from the split count; no search reads the swap table
    from ramsey_lab import coloring

    def no_table(*args):
        raise AssertionError("swap_pairs called by a search")

    monkeypatch.setattr(coloring, "swap_pairs", no_table)
    if host == "split":
        _, c = coloring.lower_bound_witness(5, 5, 3, "CC")
        searches = [("red", cycle_template(5, 5), None), ("blue", cycle_template(5, 3), None)]
    else:
        c = _planted_k4_18(7919)
        searches = [("red", cycle_template(4, 3), "red"), ("blue", cycle_template(4, 3), "blue")]
    for color, t, found in searches:
        got = find_embedding(c, color, t)
        assert (None if got is None else got.claimed_color) == found
        assert got is None or verify_embedding(c, got)


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


def test_verify_names_a_wrong_length():
    c = TwoColoring.all_red(3, 7)
    r = verify_embedding(c, Embedding(path_template(3, 2), (1, 2, 3, 4), "red"))
    assert not r.ok and r.reason == "wrong-length"


def test_decoders_are_strict_and_constructors_normalise():
    # a JSON document's integers are read as they are; a library caller's
    # numpy integers are still normalised by the constructor
    obj = {"kind": "path", "k": 3, "length": 2, "assignment": [1, 2, 3, 4, 5],
           "claimed_color": "red"}
    assert Embedding.from_json_obj(obj).assignment == (1, 2, 3, 4, 5)
    with pytest.raises(TypeError, match="is not a JSON integer"):
        Embedding.from_json_obj({**obj, "assignment": [1, 2, 3, 4, 5.0]})
    with pytest.raises(TypeError, match="is not a JSON list"):
        Embedding.from_json_obj({**obj, "assignment": (1, 2, 3, 4, 5)})
    emb = Embedding(path_template(3, 2), np.arange(1, 6), "red")
    assert emb.assignment == (1, 2, 3, 4, 5)
    assert all(type(v) is int for v in emb.assignment)


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


@pytest.mark.parametrize("kind,red,W,text", [
    ("cycle", True, {7, 8}, "maximality is defined for paths"),
    ("path", False, {6, 7, 8}, "path not red-valid (edge-color-mismatch)"),
    ("path", True, {5, 6, 7}, "W intersects the path image"),
])
def test_maximality_refusals_are_hypothesis_violations(kind, red, W, text):
    # each refusal is a HypothesisViolation, still a ValueError, with its
    # text unchanged
    k, N = 3, 8
    t = path_template(k, 2) if kind == "path" else cycle_template(k, 3)
    P = Embedding(t, tuple(range(1, t.n_vertices + 1)), "red")
    c = (TwoColoring.all_red if red else TwoColoring.all_blue)(k, N)
    with pytest.raises(HypothesisViolation) as ei:
        is_maximal_wrt(c, P, frozenset(W))
    assert str(ei.value) == f"precondition-violation: {text}"
    assert ei.value.witness is None


@pytest.mark.parametrize("k,n,w", [(3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3),
                                   (4, 1, 3), (4, 1, 4)])
def test_maximality_matches_oracle(k, n, w):
    # 40 seeded colorings per case, red densities 0.05..0.5 so that both
    # answers occur, with P and the reservoir W on shuffled labels
    nv = n * (k - 1) + 1
    N = nv + w
    answers = set()
    for seed in range(40):
        s = 1000 * k + 100 * n + 10 * w + seed
        labels = [int(v) for v in np.random.default_rng(s).permutation(np.arange(1, N + 1))]
        P = Embedding(path_template(k, n), tuple(labels[:nv]), "red")
        c = rng_coloring(k, N, s, p_red=(0.05, 0.1, 0.2, 0.3, 0.5)[seed % 5])
        c = c.with_edges(P.edge_images(), red=True)
        W = frozenset(labels[nv:])
        want = O.oracle_is_maximal(c, P, W)
        assert is_maximal_wrt(c, P, W) == want, seed
        answers.add(want)
    assert answers == {True, False}


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
