"""Embedding search against brute-force oracles, plus maximality."""

import io
import itertools

import numpy as np
import pytest

from ramsey_lab.coloring import SplitSpec, TwoColoring, all_edges, split_coloring
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import (
    UNKNOWN,
    Embedding,
    MaximalityQuery,
    VerifyResult,
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


def test_disk_cache_write_is_atomic(tmp_path, monkeypatch):
    from ramsey_lab import embedder

    t = cycle_template(3, 3)
    final = tmp_path / "copies-cycle3-k3-N6.npy"
    monkeypatch.setenv("RAMSEY_LAB_CACHE", str(tmp_path))

    def torn_save(file, arr):
        # part of a header lands, then the disk fills up
        if isinstance(file, str):
            with open(file, "wb") as fh:
                fh.write(b"\x93NUMPY")
        else:
            file.write(b"\x93NUMPY")
        raise OSError("no space left on device")

    with monkeypatch.context() as m:
        m.setattr(embedder, "_COPY_CACHE", {})
        m.setattr(embedder.np, "save", torn_save)
        with pytest.raises(OSError):
            embedder.copy_rank_matrix(6, 3, t)
    assert not final.exists()
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    rows = embedder.copy_rank_matrix(6, 3, t)
    assert [p.name for p in tmp_path.iterdir()] == [final.name]
    assert np.array_equal(np.load(final), rows)



def test_disk_cache_rejects_malformed_tables(tmp_path, monkeypatch):
    # a table with half its rows, a rank out of range or a torn header is a
    # miss: the verdict stays UNSAT and the file is rewritten; a disk hit
    # is read-only
    from ramsey_lab import embedder
    from ramsey_lab.prover import decide_arrowing

    def npy(arr):
        buf = io.BytesIO()
        np.save(buf, arr)
        return buf.getvalue()

    t = cycle_template(3, 3)
    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.delenv("RAMSEY_LAB_CACHE", raising=False)
    full = embedder.copy_rank_matrix(7, 3, t)
    out_of_range = full.copy()
    out_of_range[-1, -1] = 35  # C(7, 3)
    final = tmp_path / "copies-cycle3-k3-N7.npy"
    monkeypatch.setenv("RAMSEY_LAB_CACHE", str(tmp_path))
    for planted in (npy(full[:len(full) // 2]), npy(out_of_range), b"\x93NUMPY"):
        final.write_bytes(planted)
        monkeypatch.setattr(embedder, "_COPY_CACHE", {})
        assert decide_arrowing(3, 7, t, t).status == "UNSAT"
        assert np.array_equal(np.load(final), full)

    def no_enumeration(*args):
        raise AssertionError("a disk hit must not enumerate")

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "iter_copies", no_enumeration)
    hit = embedder.copy_rank_matrix(7, 3, t)
    assert np.array_equal(hit, full)
    assert hit.flags.writeable is False


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
    c = split_coloring(3, 8, SplitSpec(a=5))
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
    assert is_maximal_wrt(blue_world, MaximalityQuery(P, frozenset({6, 7, 8})))
    red_world = TwoColoring.all_red(k, N)
    assert not is_maximal_wrt(red_world, MaximalityQuery(P, frozenset({6, 7, 8})))


def test_maximality_precondition_errors():
    k, n, N = 3, 2, 8
    P = Embedding(path_template(k, n), tuple(range(1, 6)), "red")
    c = TwoColoring.all_blue(k, N)
    with pytest.raises(ValueError, match="precondition-violation"):
        is_maximal_wrt(c, MaximalityQuery(P, frozenset({6, 7, 8})))
    c2 = TwoColoring.all_red(k, N)
    with pytest.raises(ValueError, match="precondition-violation"):
        is_maximal_wrt(c2, MaximalityQuery(P, frozenset({5, 6, 7})))


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
        now = is_maximal_wrt(cur, MaximalityQuery(P, W))
        assert not (was_maximal and not now)
        was_maximal = now
    assert was_maximal
