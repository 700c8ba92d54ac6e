"""Complete-host 2-colorings with colex bit indexing, plus extremal witnesses.

A coloring of K^k_N stores one bit per k-subset of 1..N at the subset's
colexicographic rank; bit 1 = red, 0 = blue, globally.  Colex rank of
{a_1 < ... < a_k} is sum_i C(a_i - 1, i), which does not depend on N, so
colorings restrict and extend between host sizes without re-indexing.

`subset_rows` lists the k-subsets of 1..N in colex order; `all_edges`, the
prover's swap table and the embedder's lifts all read their edges from it.
`colex_parts` tabulates each label's share of a colex rank as numpy
int64s, for the swap table and the embedder's rankers and lifts.
`swap_pairs` tabulates the edge-rank pairs each adjacent vertex swap
(u, u+1) exchanges, for the prover's symmetry breaking.  `split_counting`
recognizes a split coloring, whose two sides are also the embedder's twin
classes, and rules targets out by the paper's counting argument.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import getitem
from typing import Iterable, Sequence

import numpy as np

from .core import (Edge, as_edge, atomic_write, cycle_template, cycle_value, path_template,
                   path_value, read_json)

RED = 1
BLUE = 0

HEX_ENCODING = "colex-bits-hex"
EXPLICIT_ENCODING = "red-edges-explicit"


@contextmanager
def decoding(what: str):
    """Report a missing, ill-typed or invalid field of an input document as
    the ValueError `malformed-<what>`.  Wrap whole decode calls in it and no
    check: under it a KeyError, TypeError or ValueError can only mean bad
    input.  A nested document's `malformed-` error passes through as is."""
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"malformed-{what}: missing or invalid field {exc}") from exc
    except ValueError as exc:
        if str(exc).startswith("malformed-"):
            raise
        raise ValueError(f"malformed-{what}: {exc}") from exc


def json_int(x, depth: int = 0):
    """x as every decoder reads an integer field: a JSON integer, not a
    bool, float or string, at depth 0; at depth d a JSON list of depth
    d - 1 values, as a tuple (1 for labels, 2 for edges).  Anything else
    raises TypeError, which `decoding` reports as malformed."""
    if not depth:
        if type(x) is not int:
            raise TypeError(f"{x!r} is not a JSON integer")
        return x
    if type(x) is not list:
        raise TypeError(f"{x!r} is not a JSON list")
    if depth > 1:
        return tuple(json_int(v, depth - 1) for v in x)
    # one set of the labels' types: a third of the time of a call per label
    if {*map(type, x)} - {int}:
        raise TypeError(f"{x!r} holds a value that is not a JSON integer")
    return tuple(x)


# _COMB[i - 1][a] = C(a - 1, i), the term the i-th smallest label a adds
# to a colex rank; index 0 of each row is never read.  The scalar home of
# the colex term, beside the numpy `colex_parts`: its Python ints stay
# exact past int64, which ranks in wide label tables need.  Grown by
# `_grow_comb` and only ever replaced whole, never changed in place.
_COMB: list[list[int]] = []


def _grow_comb(k: int, top: int) -> list[list[int]]:
    """Replace _COMB by a table with at least k rows and room for label
    `top`, at least doubling its width when it grows, and return it."""
    global _COMB
    width = len(_COMB[0]) if _COMB else 64
    if top >= width:
        width = max(top + 1, 2 * width)
    _COMB = [[0] + [math.comb(a - 1, i) for a in range(1, width)]
             for i in range(1, max(k, len(_COMB)) + 1)]
    return _COMB


def colex_rank(sorted_edge: Sequence[int]) -> int:
    """Colex rank of an ascending tuple or list of labels >= 1; unchecked,
    see edge_rank."""
    rows = _COMB
    # map stops at the shorter input, so an edge longer than the table
    # must not reach it
    if len(sorted_edge) <= len(rows):
        try:
            return sum(map(getitem, rows, sorted_edge))
        except IndexError:
            pass
    rows = _grow_comb(len(sorted_edge), max(sorted_edge))
    return sum(map(getitem, rows, sorted_edge))


def colex_parts(N: int, k: int) -> np.ndarray:
    """part[x, i] = C(x - 1, i + 1), label x's share of the colex rank at
    0-based position i of a k-subset of 1..N, so v_0 < ... < v_{k-1} ranks
    at the sum of part[v_i, i]; row 0, and column k, for positions past
    the subset, are 0."""
    return np.array([[math.comb(x - 1, i + 1) if x and i < k else 0 for i in range(k + 1)]
                     for x in range(N + 1)], dtype=np.int64)


def edge_rank(e: Iterable[int], N: int, k: int) -> int:
    """Colex rank of edge e among k-subsets; 0 is {1,...,k}.

    N is used for validation only: rank order is independent of the host.
    """
    return colex_rank(as_edge(e, k=k, n_vertices=N))


# edge ranks and copy-table rows must stay below 2**31: `_kernels` keeps
# its clause ids in int32 watch lists
_MAX_EDGES = 1 << 31


def host_edges(k: int, N: int) -> int:
    """C(N, k), the number of edges of K^k_N; a host with 2**31 edges or
    more is refused as `host-too-large`."""
    n_edges = math.comb(N, k)
    if n_edges >= _MAX_EDGES:
        raise ValueError(f"host-too-large: K^{k}_{N} has {n_edges} edges, "
                         f"at most {_MAX_EDGES - 1} are supported")
    return n_edges


def _blank_bits(k: int, N: int, fill: int = BLUE) -> np.ndarray:
    """One bit per edge of K^k_N, all `fill`, for the coloring constructors;
    a host too large for `host_edges` is refused before anything is
    allocated."""
    return np.full(host_edges(k, N), fill, dtype=np.uint8)


def subset_rows(N: int, k: int) -> np.ndarray:
    """The k-subsets of 1..N as ascending rows in colex order, so row r is
    the edge of colex rank r; read by numpy straight off the iterator, with
    no list of tuples built."""
    # listing the labels downwards gives descending rows in descending
    # colex order
    n = math.comb(N, k)
    rows = np.fromiter(chain.from_iterable(combinations(range(N, 0, -1), k)),
                       dtype=np.intp, count=n * k)
    return rows.reshape(n, k)[::-1, ::-1]


def all_edges(N: int, k: int) -> list[Edge]:
    """All k-subsets of 1..N in colex order (position = colex rank)."""
    return [tuple(e) for e in subset_rows(N, k).tolist()]


@dataclass(frozen=True)
class TwoColoring:
    """Immutable red/blue coloring of all k-subsets of 1..n_vertices."""

    k: int
    n_vertices: int
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        want = math.comb(self.n_vertices, self.k)
        b = np.asarray(self.bits, dtype=np.uint8)
        if b.shape != (want,):
            raise ValueError(f"need {want} bits for K^{self.k}_{self.n_vertices}, "
                             f"got shape {b.shape}")
        if b.size and b.max() > 1:
            raise ValueError("bits must be 0/1")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "bits", b)

    # -- queries ---------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.bits.size)

    @property
    def red_count(self) -> int:
        return int(self.bits.sum())

    def rank_of(self, e: Iterable[int]) -> int:
        return edge_rank(e, self.n_vertices, self.k)

    def is_red(self, e: Iterable[int]) -> bool:
        return bool(self.bits[self.rank_of(e)])

    def color_of(self, e: Iterable[int]) -> str:
        return "red" if self.is_red(e) else "blue"

    def red_edges(self) -> list[Edge]:
        es = all_edges(self.n_vertices, self.k)
        return [es[i] for i in np.flatnonzero(self.bits)]

    # -- constructors ----------------------------------------------------

    @classmethod
    def all_red(cls, k: int, N: int) -> "TwoColoring":
        return cls(k, N, _blank_bits(k, N, RED))

    @classmethod
    def all_blue(cls, k: int, N: int) -> "TwoColoring":
        return cls(k, N, _blank_bits(k, N))

    @classmethod
    def from_red_edges(cls, k: int, N: int, reds: Iterable[Iterable[int]]) -> "TwoColoring":
        bits = _blank_bits(k, N)
        for e in reds:
            bits[edge_rank(e, N, k)] = 1
        return cls(k, N, bits)

    def with_edges(self, edges: Iterable[Iterable[int]], red: bool) -> "TwoColoring":
        bits = self.bits.copy()
        for e in edges:
            bits[self.rank_of(e)] = 1 if red else 0
        return TwoColoring(self.k, self.n_vertices, bits)

    # -- serialization ---------------------------------------------------

    def to_json_obj(self, explicit: bool = False) -> dict:
        if explicit:
            return {
                "k": self.k,
                "n_vertices": self.n_vertices,
                "encoding": EXPLICIT_ENCODING,
                "red_bit": RED,
                "red_edges": [list(e) for e in self.red_edges()],
            }
        packed = np.packbits(self.bits, bitorder="little")
        return {
            "k": self.k,
            "n_vertices": self.n_vertices,
            "encoding": HEX_ENCODING,
            "red_bit": RED,
            "bits": packed.tobytes().hex(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TwoColoring":
        with decoding("coloring"):
            k = json_int(obj["k"])
            N = json_int(obj["n_vertices"])
            if json_int(obj.get("red_bit", RED)) != RED:
                raise ValueError("unsupported red_bit convention")
            n_edges = math.comb(N, k)
            if "red_edges" in obj:
                return cls.from_red_edges(k, N, json_int(obj["red_edges"], 2))
            raw = bytes.fromhex(obj["bits"])
            if len(raw) != (n_edges + 7) // 8:
                raise ValueError(f"bit payload has {len(raw)} bytes, "
                                 f"expected {(n_edges + 7) // 8}")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 bitorder="little")[:n_edges]
            return cls(k, N, bits)

    def save(self, path, explicit: bool = False) -> None:
        atomic_write(path, json.dumps(self.to_json_obj(explicit=explicit)) + "\n")

    @classmethod
    def load(cls, path) -> "TwoColoring":
        return cls.from_json_obj(read_json(path))


def rank_dtype(N: int, k: int) -> np.dtype:
    """The smallest unsigned dtype that holds every colex rank of K^k_N,
    0 .. C(N, k) - 1: the dtype of copy tables and swap tables."""
    return np.min_scalar_type(max(math.comb(N, k) - 1, 0))


def swap_pairs(N: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Colex ranks of the edge pairs that the adjacent swaps exchange.

    Row u-1 of `lo` holds the ranks of the edges that hold u but not u+1,
    ascending, and the same entry of `hi` the rank of the edge the swap
    s = (u, u+1) maps it to.  u keeps its 1-based position q in the sorted
    edge, so hi = lo + C(u-1, q-1) > lo: row u-1 lists each pair (p, s(p))
    with p < s(p) once, and both rows ascend.  Every row has C(N-2, k-1)
    entries, one per (k-1)-set of the other labels; at N = k they are
    empty.  Ranks are in `rank_dtype(N, k)`, and both arrays are read-only.

    Rows are built one u at a time from the (k-1)-subsets T of N - 2
    labels in colex order: a label t of T stands for itself below u and
    for t + 2, one position further up, from u on.  That map keeps colex
    order, so each row ascends with no sort, and only one row of
    temporaries is held beside the output.
    """
    # T's labels, one row per position
    cols = subset_rows(max(N - 2, 0), k - 1).T.astype(np.min_scalar_type(N))
    # label t at 0-based position i of T adds P[t, i] to the rank below u,
    # and P[t + 2, i + 1] from u on
    P, t = colex_parts(N + 1, k), np.arange(N)
    below_u = P[t, :k - 1].T
    part = P[t + 2, 1:k].T.copy()
    shape = (max(N - 1, 0), cols.shape[1])
    lo, hi = np.empty(shape, rank_dtype(N, k)), np.empty(shape, rank_dtype(N, k))
    for u in range(1, N):
        part[:, u - 1] = below_u[:, u - 1]
        # u sits at 0-based position j of the edge, j the labels of T below it
        rank, j = np.zeros(shape[1], dtype=np.int64), np.zeros(shape[1], dtype=np.intp)
        for i, col in enumerate(cols):
            rank += part[i].take(col)
            j += col < u
        # the swap puts u + 1 where u was
        lo[u - 1] = rank + P[u, j]
        rank += P[u + 1, j]
        hi[u - 1] = rank
    lo.flags.writeable = False
    hi.flags.writeable = False
    return lo, hi


def split_coloring(k: int, N: int, a: int) -> TwoColoring:
    """Edge red iff all its vertices lie in 1..a; blue otherwise.

    Subsets of 1..a are exactly the colex-initial segment of ranks, so the
    red class is a prefix of C(a,k) ones.
    """
    if not 0 <= a <= N:
        raise ValueError(f"split size a={a} out of range 0..{N}")
    if k < 1 or N < k:
        raise ValueError(f"need N >= k >= 1, got N={N}, k={k}")
    bits = _blank_bits(k, N)
    bits[:math.comb(a, k)] = 1
    return TwoColoring(k, N, bits)


def split_counting(c: TwoColoring, red_vertices: int,
                   blue_edges: int) -> tuple[int | None, bool, bool]:
    """The paper's counting argument for split colorings, with no search.

    Detect: c is split when its red bits are exactly the colex prefix of
    C(a, k) ones, that is when its red edges are the k-subsets of
    A = 1..a.  a is then the largest such a <= N (k - 1 for an all-blue
    host): the red count must be C(a, k) and fill the first C(a, k) bits,
    two numpy counts with no Python loop over edges.  Count: every vertex
    of a red copy lies in a red edge, hence in A, so no red copy has more
    than a vertices; every blue edge meets B = a+1..N, and a vertex lies
    in at most two edges of a loose path or cycle, so no blue copy has
    more than 2(N - a) edges.

    Returns (a, no red copy on `red_vertices` vertices, no blue copy with
    `blue_edges` edges), or (None, False, False) when c is not split.
    """
    k, N, bits = c.k, c.n_vertices, c.bits
    reds = int(np.count_nonzero(bits))
    # C(a, k) = 0 for every a < k and grows strictly from C(k, k) = 1 on
    a, size = (min(k - 1, N), 0) if reds == 0 else (k, 1)
    while size < reds:
        a += 1
        size = size * a // (a - k)
    if size != reds or np.count_nonzero(bits[:reds]) != reds:
        return None, False, False
    return a, red_vertices > a, 2 * (N - a) < blue_edges


def lower_bound_witness(k: int, n: int, m: int, pair: str) -> tuple[int, TwoColoring]:
    """Extremal coloring certifying the lower bound for the given target pair.

    pair "PP": red P^k_n vs blue P^k_m; "PC": red P^k_n vs blue C^k_m;
    "CC": red C^k_n vs blue C^k_m.  The host is one vertex short of the
    claimed Ramsey value; A = 1..a is chosen so the red target cannot fit
    inside A while B is too small to host the blue target (each edge of a
    blue structure meets B, and any vertex lies in at most two edges of a
    loose path or cycle).  The construction is re-checked by that counting
    argument (`split_counting`), not by a search, before returning; a
    failure here is a construction bug, not user error.
    """
    if pair not in ("PP", "PC", "CC"):
        raise ValueError(f"invalid-parameter: pair must be PP, PC or CC, got {pair!r}")
    low_m = 3 if pair == "CC" else 2
    if not n >= m >= low_m:
        raise ValueError(f"invalid-parameter: need n >= m >= {low_m} for {pair}, "
                         f"got n={n}, m={m}")
    # the template refuses k < 3
    red_target = (cycle_template if pair == "CC" else path_template)(k, n)

    if pair == "CC":
        N = cycle_value(k, n, m) - 1
        a = (k - 1) * n - 1
    else:
        N = path_value(k, n, m) - 1
        a = (k - 1) * n

    c = split_coloring(k, N, a)
    # the blue target has m edges; PC with m = 2 leaves B empty, so the
    # count rules blue out with no cycle template of length 2
    _, no_red, no_blue = split_counting(c, red_target.n_vertices, m)
    if not (no_red and no_blue):
        raise AssertionError(f"witness construction bug: the count does not rule "
                             f"out a red {red_target} and a blue target of {m} "
                             f"edges in split({k},{N},a={a})")
    return N, c
