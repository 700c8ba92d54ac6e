"""Complete-host 2-colorings with colex bit indexing, plus extremal witnesses.

A coloring of K^k_N stores one bit per k-subset of 1..N at the subset's
colexicographic rank; bit 1 = red, 0 = blue, globally.  Colex rank of
{a_1 < ... < a_k} is sum_i C(a_i - 1, i), which does not depend on N, so
colorings restrict and extend between host sizes without re-indexing.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .core import Edge, as_edge

RED = 1
BLUE = 0

HEX_ENCODING = "colex-bits-hex"
EXPLICIT_ENCODING = "red-edges-explicit"


@contextmanager
def decoding(what: str):
    """Report a missing or ill-typed field of an input document as the
    ValueError `malformed-<what>`.  Wrap whole decode calls in it and no
    check: under it a KeyError or TypeError can only mean bad input."""
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"malformed-{what}: missing or invalid field {exc}") from exc


def colex_rank(sorted_edge: Sequence[int]) -> int:
    """Colex rank of an ascending vertex tuple; unchecked, see edge_rank."""
    return sum(math.comb(a - 1, i) for i, a in enumerate(sorted_edge, start=1))


def edge_rank(e: Iterable[int], N: int, k: int) -> int:
    """Colex rank of edge e among k-subsets; 0 is {1,...,k}.

    N is used for validation only: rank order is independent of the host.
    """
    return colex_rank(as_edge(e, k=k, n_vertices=N))


def edge_unrank(rank: int, N: int, k: int) -> Edge:
    """Inverse of edge_rank: the k-subset of 1..N at the given colex rank."""
    if not 0 <= rank < math.comb(N, k):
        raise ValueError(f"rank {rank} out of range for C({N},{k})")
    out = []
    r = rank
    for i in range(k, 0, -1):
        # largest c with C(c, i) <= r; vertex label is c + 1
        c = i - 1
        while math.comb(c + 1, i) <= r:
            c += 1
        out.append(c + 1)
        r -= math.comb(c, i)
    return tuple(sorted(out))


def all_edges(N: int, k: int) -> list[Edge]:
    """All k-subsets of 1..N in colex order (position = colex rank)."""
    es = [tuple(c) for c in combinations(range(1, N + 1), k)]
    es.sort(key=lambda e: tuple(reversed(e)))
    return es


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

    def has_color(self, e: Iterable[int], red: bool) -> bool:
        return bool(self.bits[self.rank_of(e)]) == red

    def red_edges(self) -> list[Edge]:
        es = all_edges(self.n_vertices, self.k)
        return [es[i] for i in np.flatnonzero(self.bits)]

    # -- constructors ----------------------------------------------------

    @classmethod
    def all_red(cls, k: int, N: int) -> "TwoColoring":
        return cls(k, N, np.ones(math.comb(N, k), dtype=np.uint8))

    @classmethod
    def all_blue(cls, k: int, N: int) -> "TwoColoring":
        return cls(k, N, np.zeros(math.comb(N, k), dtype=np.uint8))

    @classmethod
    def from_red_edges(cls, k: int, N: int, reds: Iterable[Iterable[int]]) -> "TwoColoring":
        bits = np.zeros(math.comb(N, k), dtype=np.uint8)
        for e in reds:
            bits[edge_rank(e, N, k)] = 1
        return cls(k, N, bits)

    def with_flipped(self, e: Iterable[int]) -> "TwoColoring":
        bits = self.bits.copy()
        r = self.rank_of(e)
        bits[r] ^= 1
        return TwoColoring(self.k, self.n_vertices, bits)

    def with_edges(self, edges: Iterable[Iterable[int]], red: bool) -> "TwoColoring":
        bits = self.bits.copy()
        for e in edges:
            bits[self.rank_of(e)] = 1 if red else 0
        return TwoColoring(self.k, self.n_vertices, bits)

    def restrict(self, vertices: Sequence[int]) -> tuple["TwoColoring", dict[int, int]]:
        """Induced coloring on a vertex subset, relabeled to 1..|subset|.

        Returns the sub-coloring and the old-label -> new-label map.
        """
        vs = sorted(set(int(v) for v in vertices))
        if vs and (vs[0] < 1 or vs[-1] > self.n_vertices):
            raise ValueError("restriction vertices out of range")
        relabel = {v: i + 1 for i, v in enumerate(vs)}
        sub = math.comb(len(vs), self.k)
        bits = np.zeros(sub, dtype=np.uint8)
        for e in combinations(vs, self.k):
            bits[edge_rank([relabel[v] for v in e], len(vs), self.k)] = \
                self.bits[self.rank_of(e)]
        return TwoColoring(self.k, len(vs), bits), relabel

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
            k = int(obj["k"])
            N = int(obj["n_vertices"])
            if obj.get("red_bit", RED) != RED:
                raise ValueError("unsupported red_bit convention")
            n_edges = math.comb(N, k)
            if "red_edges" in obj:
                return cls.from_red_edges(k, N, obj["red_edges"])
            raw = bytes.fromhex(obj["bits"])
            if len(raw) != (n_edges + 7) // 8:
                raise ValueError(f"bit payload has {len(raw)} bytes, "
                                 f"expected {(n_edges + 7) // 8}")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                 bitorder="little")[:n_edges]
            return cls(k, N, bits)

    def save(self, path, explicit: bool = False) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(explicit=explicit), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "TwoColoring":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


@dataclass(frozen=True)
class SplitSpec:
    """Red-core size: vertices 1..a form A, the rest form B."""

    a: int


def split_coloring(k: int, N: int, spec: SplitSpec) -> TwoColoring:
    """Edge red iff all its vertices lie in 1..a; blue otherwise.

    Subsets of 1..a are exactly the colex-initial segment of ranks, so the
    red class is a prefix of C(a,k) ones.
    """
    if not 0 <= spec.a <= N:
        raise ValueError(f"split size a={spec.a} out of range 0..{N}")
    if k < 1 or N < k:
        raise ValueError(f"need N >= k >= 1, got N={N}, k={k}")
    bits = np.zeros(math.comb(N, k), dtype=np.uint8)
    bits[:math.comb(spec.a, k)] = 1
    return TwoColoring(k, N, bits)


def lower_bound_witness(k: int, n: int, m: int, pair: str) -> tuple[int, TwoColoring]:
    """Extremal coloring certifying the lower bound for the given target pair.

    pair "PP": red P^k_n vs blue P^k_m; "PC": red P^k_n vs blue C^k_m;
    "CC": red C^k_n vs blue C^k_m.  The host is one vertex short of the
    claimed Ramsey value; A = 1..a is chosen so the red target cannot fit
    inside A while B is too small to host the blue target (each edge of a
    blue structure meets B, and any vertex lies in at most two edges of a
    loose path or cycle).  The construction is re-verified by the embedder
    before returning; a failure here is a construction bug, not user error.
    """
    from . import embedder
    from .core import cycle_template, path_template

    if pair not in ("PP", "PC", "CC"):
        raise ValueError(f"pair must be PP, PC or CC, got {pair!r}")
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    low_m = 3 if pair == "CC" else 2
    if not n >= m >= low_m:
        raise ValueError(f"need n >= m >= {low_m} for {pair}, got n={n}, m={m}")

    if pair == "CC":
        N = (k - 1) * n + (m - 1) // 2 - 1
        a = (k - 1) * n - 1
        red_target = cycle_template(k, n)
        blue_target = cycle_template(k, m)
    else:
        N = (k - 1) * n + (m + 1) // 2 - 1
        a = (k - 1) * n
        red_target = path_template(k, n)
        # PC with m = 2 leaves B empty: no blue edges at all, so the blue
        # side is vacuous and needs no cycle template of length 2.
        blue_target = path_template(k, m) if pair == "PP" else (
            cycle_template(k, m) if m >= 3 else None)

    c = split_coloring(k, N, SplitSpec(a))

    if embedder.find_embedding(c, "red", red_target) is not None:
        raise AssertionError(f"witness construction bug: red {red_target} "
                             f"embeds in split({k},{N},a={a})")
    if blue_target is None:
        if c.red_count != c.n_edges:
            raise AssertionError("witness construction bug: expected no blue edges")
    elif embedder.find_embedding(c, "blue", blue_target) is not None:
        raise AssertionError(f"witness construction bug: blue {blue_target} "
                             f"embeds in split({k},{N},a={a})")
    return N, c
