"""Colex ranking, coloring semantics, serialization, and extremal witnesses."""

import hashlib
import io
import itertools
import json
import math

import numpy as np
import pytest

from ramsey_lab import coloring
from ramsey_lab.coloring import (
    BLUE,
    RED,
    TwoColoring,
    all_edges,
    colex_rank,
    edge_rank,
    lower_bound_witness,
    split_coloring,
    split_counting,
    swap_pairs,
)
from ramsey_lab.core import cycle_template, path_template
from ramsey_lab.embedder import find_embedding

import frozen_values as F
import oracles as O


@pytest.mark.parametrize("N,k", [(5, 2), (6, 3), (7, 3), (8, 4)])
def test_colex_order_matches_oracle(N, k):
    assert all_edges(N, k) == O.oracle_colex_subsets(N, k)


@pytest.mark.parametrize("N,k", [(6, 3), (7, 4)])
def test_rank_unrank_bijection(N, k):
    for r, e in enumerate(all_edges(N, k)):
        assert edge_rank(e, N, k) == r


def test_colex_rank_matches_the_binomial_sum(monkeypatch):
    # from an empty table: every k-subset for k <= 6, N <= 14, then edges
    # wider and longer than the table has grown to, so each of its
    # growths is read back; a longer edge that reached the table
    # unchecked would be summed over its first rows only
    monkeypatch.setattr(coloring, "_COMB", [])
    for k in range(7):
        for e in itertools.combinations(range(1, 15), k):
            assert colex_rank(e) == O.oracle_colex_rank_sum(e), e
    assert len(coloring._COMB) == 6 and len(coloring._COMB[0]) == 64
    rng = np.random.default_rng(5)
    for _ in range(2000):
        k = int(rng.integers(1, 21))
        top = int(rng.integers(k, 301))
        e = sorted(rng.choice(np.arange(1, top + 1), k, replace=False).tolist())
        assert colex_rank(e) == colex_rank(tuple(e)) == O.oracle_colex_rank_sum(e), e
    assert len(coloring._COMB) == 20 and len(coloring._COMB[0]) > 300
    assert colex_rank(list(range(2, 25))) == O.oracle_colex_rank_sum(range(2, 25))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_swap_pairs_match_oracle_transpositions(k):
    # row u-1 lists, ascending in both columns, each pair (p, s(p)) with
    # p < s(p) of the swap s = (u, u+1); for N <= k no swap moves an edge
    for N in range(0, 12):
        lo, hi = swap_pairs(N, k)
        assert lo.shape == hi.shape == (max(N - 1, 0), math.comb(max(N - 2, 0), k - 1))
        assert lo.dtype == hi.dtype == np.min_scalar_type(max(math.comb(N, k) - 1, 0))
        assert not lo.flags.writeable and not hi.flags.writeable
        for u, perm in enumerate(O.oracle_transpositions(N, k)):
            row_lo, row_hi = lo[u].astype(np.int64), hi[u].astype(np.int64)
            assert (np.diff(row_lo) > 0).all() and (np.diff(row_hi) > 0).all()
            assert list(zip(row_lo.tolist(), row_hi.tolist())) == \
                [(p, q) for p, q in enumerate(perm) if p < q], (N, u + 1)
    assert swap_pairs(k, k)[0].size == 0


def test_swap_pairs_peaks_near_its_size():
    # rows are built one u at a time: beside lo and hi, the (k-1)-subsets
    # of the other labels and one row of temporaries
    import tracemalloc

    tracemalloc.start()
    try:
        lo, hi = swap_pairs(24, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lo.nbytes + hi.nbytes == 2 * 23 * math.comb(22, 4) * 2
    assert peak < 2 * (lo.nbytes + hi.nbytes), peak / (lo.nbytes + hi.nbytes)


@pytest.mark.parametrize("N,k", sorted(F.SWAP_PAIRS_SHA256))
def test_swap_pairs_frozen_sha256(N, k):
    lo, hi = swap_pairs(N, k)
    assert (hashlib.sha256(lo.tobytes()).hexdigest(),
            hashlib.sha256(hi.tobytes()).hexdigest()) == F.SWAP_PAIRS_SHA256[N, k]


def test_frozen_colex_values():
    for (N, k), prefix in F.COLEX_PREFIX.items():
        assert all_edges(N, k)[:len(prefix)] == prefix
    for (e, N, k), r in F.COLEX_RANKS.items():
        assert edge_rank(e, N, k) == r


def test_rank_rejects_bad_edges():
    with pytest.raises(ValueError):
        edge_rank((1, 1, 2), 6, 3)


@pytest.mark.parametrize("call,cls,message", [
    (lambda: TwoColoring(3, 6, np.zeros(5)), ValueError,
     "need 20 bits for K^3_6, got shape (5,)"),
    (lambda: TwoColoring(3, 4, [2, 0, 0, 0]), ValueError, "bits must be 0/1"),
    (lambda: TwoColoring.from_json_obj({"k": 3, "n_vertices": 6, "red_bit": 0,
                                        "bits": "000000"}),
     ValueError, "malformed-coloring: unsupported red_bit convention"),
    (lambda: TwoColoring.from_json_obj({"k": 3, "n_vertices": 6, "bits": "00"}),
     ValueError, "malformed-coloring: bit payload has 1 bytes, expected 3"),
    (lambda: TwoColoring.from_json_obj({"k": 3.0, "n_vertices": 6, "bits": "000000"}),
     ValueError, "malformed-coloring: missing or invalid field 3.0 is not a JSON integer"),
    (lambda: TwoColoring.from_json_obj({"k": 3, "n_vertices": 4,
                                        "red_edges": [[1, 2, True]]}),
     ValueError, "malformed-coloring: missing or invalid field [1, 2, True] holds a value "
                 "that is not a JSON integer"),
    (lambda: coloring.json_int([1, [2]], 1), TypeError,
     "[1, [2]] holds a value that is not a JSON integer"),
    (lambda: coloring.json_int([[1], 2], 2), TypeError, "2 is not a JSON list"),
    (lambda: coloring.json_int("12", 1), TypeError, "'12' is not a JSON list"),
], ids=["bit-count", "bit-value", "red-bit", "payload-bytes", "float-k",
        "bool-label", "nested-label", "flat-edge", "string-list"])
def test_coloring_refusals(call, cls, message):
    with pytest.raises(cls) as ei:
        call()
    assert str(ei.value) == message


def test_two_coloring_basics():
    c = TwoColoring.all_red(3, 6)
    assert c.n_edges == 20
    assert c.red_count == 20
    assert c.is_red((1, 2, 3))
    assert c.color_of((4, 5, 6)) == "red"
    c2 = c.with_edges([(1, 2, 3)], red=False)
    assert not c2.is_red((1, 2, 3))
    assert c.is_red((1, 2, 3)), "immutability"
    assert c2.red_count == 19


def test_red_edges_listing():
    c = TwoColoring.all_blue(3, 5).with_edges([(1, 2, 3), (2, 4, 5)], red=True)
    assert sorted(c.red_edges()) == [(1, 2, 3), (2, 4, 5)]


@pytest.mark.parametrize("explicit", [False, True])
def test_json_roundtrip(explicit):
    c = split_coloring(3, 6, a=4)
    obj = c.to_json_obj(explicit=explicit)
    text = json.dumps(obj)
    c2 = TwoColoring.from_json_obj(json.loads(text))
    assert c2.k == c.k and c2.n_vertices == c.n_vertices
    assert np.array_equal(c2.bits, c.bits)
    if explicit:
        assert "red_edges" in obj
    else:
        assert "bits" in obj


def test_save_load(tmp_path):
    c = split_coloring(4, 8, a=5)
    p = tmp_path / "c.json"
    c.save(p)
    c2 = TwoColoring.load(p)
    assert np.array_equal(c2.bits, c.bits)


@pytest.mark.parametrize("explicit", [False, True])
def test_save_writes_default_one_line_json(tmp_path, explicit):
    # the bytes json.dump(obj, fh) writes, plus a newline
    c = split_coloring(4, 8, a=5)
    buf = io.StringIO()
    json.dump(c.to_json_obj(explicit=explicit), buf)
    p = tmp_path / "c.json"
    c.save(p, explicit=explicit)
    assert p.read_text() == buf.getvalue() + "\n"


def test_split_coloring_is_colex_prefix():
    c = split_coloring(3, 6, a=4)
    assert c.red_count == math.comb(4, 3)
    assert bool(np.all(c.bits[:math.comb(4, 3)] == RED))
    assert bool(np.all(c.bits[math.comb(4, 3):] == BLUE))


def test_split_counting_agrees_with_the_embedder():
    # every split coloring of K^k_N, k in {3, 4}, N <= 9: whatever the count
    # rules out, the complete search finds no copy of either
    templates = [path_template(k, n) for k in (3, 4) for n in range(1, 5)] \
        + [cycle_template(k, n) for k in (3, 4) for n in (3, 4)]
    ruled_out = {"red": 0, "blue": 0}
    for k in (3, 4):
        fits = [t for t in templates if t.k == k]
        for N in range(k, 10):
            for a in range(N + 1):
                c = split_coloring(k, N, a)
                for t in (t for t in fits if t.n_vertices <= N):
                    got, no_red, no_blue = split_counting(c, t.n_vertices, t.n)
                    assert got == max(a, k - 1)
                    for color, counted in (("red", no_red), ("blue", no_blue)):
                        if counted:
                            assert find_embedding(c, color, t) is None, (N, a, t, color)
                            ruled_out[color] += 1
    assert ruled_out == {"red": 170, "blue": 43}  # both arguments are exercised


def test_split_counting_refuses_colorings_that_are_not_split():
    k, N, a = 3, 8, 6
    size = math.comb(a, k)
    c = split_coloring(k, N, a)
    assert split_counting(c, 7, 5) == (a, True, True)
    mutants = []
    for p in range(size - 1):  # a red bit of the prefix turned blue
        bits = c.bits.copy()
        bits[p] = BLUE
        mutants.append((k, N, bits))
    for q in range(size + 1, c.n_edges):  # a blue bit past it turned red
        bits = c.bits.copy()
        bits[q] = RED
        mutants.append((k, N, bits))
    for p, q in ((0, size), (size - 1, c.n_edges - 1), (3, 40)):
        # C(a, k) red bits, but not the first ones
        bits = c.bits.copy()
        bits[p], bits[q] = BLUE, RED
        assert bits.sum() == size
        mutants.append((k, N, bits))
    rng = np.random.default_rng(2)
    for kr, Nr in ((3, 7), (3, 9), (4, 9), (4, 18)):
        for _ in range(25):
            bits = rng.random(math.comb(Nr, kr)) < rng.uniform(0.2, 0.8)
            mutants.append((kr, Nr, bits.astype(np.uint8)))
    for km, Nm, bits in mutants:
        # a blue bit before a red one: no prefix, so no split coloring
        assert (np.diff(bits.astype(np.int8)) > 0).any()
        assert split_counting(TwoColoring(km, Nm, bits), 1, 1) == (None, False, False)


@pytest.mark.parametrize("k,N", [(3, 3), (3, 8), (4, 9), (5, 7)])
def test_split_counting_monochromatic_hosts(k, N):
    # all red is split at a = N: nothing blue, and red fits exactly up to N
    # vertices; all blue is split at a = k - 1, with labels k..N in B
    assert split_counting(TwoColoring.all_red(k, N), N, 1) == (N, False, True)
    assert split_counting(TwoColoring.all_red(k, N), N + 1, 1) == (N, True, True)
    B = N - k + 1
    assert split_counting(TwoColoring.all_blue(k, N), k, 2 * B) == (k - 1, True, False)
    assert split_counting(TwoColoring.all_blue(k, N), k, 2 * B + 1) == (k - 1, True, True)


def test_host_too_large_is_refused():
    # K^3_2346 is the first 3-uniform host with 2**31 edges or more, past
    # the int32 variables of the search; no constructor allocates its bits
    assert math.comb(2345, 3) < 2 ** 31 <= math.comb(2346, 3)
    for make in (lambda: TwoColoring.all_red(3, 2346),
                 lambda: TwoColoring.all_blue(3, 2346),
                 lambda: TwoColoring.from_red_edges(3, 2346, [(1, 2, 3)]),
                 lambda: TwoColoring.from_json_obj(
                     {"k": 3, "n_vertices": 2346, "red_edges": []}),
                 lambda: split_coloring(3, 2346, a=5),
                 lambda: lower_bound_witness(10, 30, 30, "CC")):
        with pytest.raises(ValueError, match="host-too-large"):
            make()


@pytest.mark.parametrize("pair", ["PP", "PC", "CC"])
@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (4, 4)])
def test_lower_bound_witness_small(pair, n, m):
    k = 3
    N, c = lower_bound_witness(k, n, m, pair)
    expected = {"PP": F.pp_value, "PC": F.pc_value, "CC": F.cc_value}[pair](k, n, m)
    assert N == expected - 1
    red_t = path_template(k, n) if pair[0] == "P" else cycle_template(k, n)
    blue_t = path_template(k, m) if pair[1] == "P" else cycle_template(k, m)
    assert find_embedding(c, "red", red_t) is None
    assert find_embedding(c, "blue", blue_t) is None


def test_lower_bound_witness_pc_m2_vacuous():
    # blue side cannot close a 2-cycle; accepted with a vacuous blue check
    N, c = lower_bound_witness(3, 3, 2, "PC")
    assert c.n_vertices == N


def test_lower_bound_witness_rejects_bad_pair():
    with pytest.raises(ValueError):
        lower_bound_witness(3, 3, 3, "XX")


@pytest.mark.parametrize("args", [(3, 3, 3, "XX"), (2, 3, 3, "PP"), (3, 3, 4, "CC")],
                         ids=["pair", "k", "n-at-least-m"])
def test_lower_bound_witness_refusals_name_an_invalid_parameter(args):
    with pytest.raises(ValueError, match="^invalid-parameter: "):
        lower_bound_witness(*args)
