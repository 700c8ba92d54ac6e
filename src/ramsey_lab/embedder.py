"""Embedding search, copy enumeration and path maximality for loose structures.

`find_embedding` walks template edges in order, anchoring each new edge on
its connector into the already-placed part, and tries host vertices in
ascending label order.  Two prunings keep desk-scale instances tractable
without giving up completeness:

* template-side: vertices that lie in a single template edge are mutually
  interchangeable, so the free ones are forced into ascending host order;
* host-side: host labels that color-preservingly swap with a neighbor label
  are grouped into twin classes, and inside one candidate loop at most one
  failed representative per class is explored (if a class member admits no
  extension, neither does any other unused member, by applying the swap to
  a hypothetical solution).  All swaps are checked at once against
  `coloring.swap_pairs`, the per-host table of the edge-rank pairs they
  exchange, which the prover's symmetry breaking reads too.

Both prunings affect only which representative of a copy is found, never
whether one is found, so absence answers remain sound.  An optional node
budget turns "absent" into the distinct UNKNOWN verdict when exhausted.

`copy_rank_matrix` lists every copy of a template in the complete host
K^k_N as a row of colex edge ranks, the input of the prover's clauses.  On
v = |V(t)| labels it grows all partial copies one edge per step on numpy
arrays, keeps each copy in one orientation from one start edge, and checks
the count against the closed form that `count_copies` returns without
enumerating; on more labels it lifts that spanning table over the v-subsets
of the host.  Tables, spanning ones included, are cached in memory for the
life of the process.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, combinations, permutations, product
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .coloring import _MAX_EDGES, TwoColoring, adjacent_twins, colex_rank
from .core import CYCLE, PATH, Edge, LooseTemplate, is_loose_sequence, path_template
from .errors import SearchBudgetExceeded


class _Unknown:
    """Budget-exhausted search verdict; deliberately not usable as a bool."""

    __slots__ = ()

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("UNKNOWN verdict has no truth value; compare with `is UNKNOWN`")


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class Embedding:
    """Injective placement of a template into a host, with a color claim.

    assignment[j-1] is the host vertex carrying template vertex j.
    claimed_color is "red" or "blue".
    """

    template: LooseTemplate
    assignment: Tuple[int, ...]
    claimed_color: str

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(v) for v in self.assignment))
        if self.claimed_color not in ("red", "blue"):
            raise ValueError(f"claimed_color must be red/blue, got {self.claimed_color!r}")

    @property
    def image(self) -> frozenset:
        return frozenset(self.assignment)

    def edge_images(self) -> list[Edge]:
        a = self.assignment
        return [tuple(sorted(a[v - 1] for v in e)) for e in self.template.edges]

    def vertex_image(self, template_vertex: int) -> int:
        return self.assignment[template_vertex - 1]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.template.kind,
            "k": self.template.k,
            "length": self.template.n,
            "assignment": list(self.assignment),
            "claimed_color": self.claimed_color,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Embedding":
        t = LooseTemplate(obj["kind"], int(obj["k"]), int(obj["length"]))
        return cls(t, tuple(obj["assignment"]), obj["claimed_color"])


@dataclass(frozen=True)
class VerifyResult:
    """Boolean verdict carrying a machine-readable failure reason."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def verify_embedding(c: TwoColoring, e: Embedding) -> VerifyResult:
    """Full re-validation of an embedding: shape, injectivity, colors."""
    t = e.template
    if t.k != c.k:
        return VerifyResult(False, "incompatible-uniformity")
    if len(e.assignment) != t.n_vertices:
        return VerifyResult(False, "wrong-length")
    if len(set(e.assignment)) != len(e.assignment):
        return VerifyResult(False, "not-injective")
    if any(not 1 <= v <= c.n_vertices for v in e.assignment):
        return VerifyResult(False, "out-of-range")
    images = e.edge_images()
    if not is_loose_sequence(images, t.kind):
        return VerifyResult(False, "structure-mismatch")
    want = 1 if e.claimed_color == "red" else 0
    for img in images:
        if c.bits[colex_rank(img)] != want:
            return VerifyResult(False, "edge-color-mismatch")
    return VerifyResult(True, None)


def embedding_from_edge_sequence(edges: Sequence[Sequence[int]], kind: str,
                                 color: str) -> Embedding:
    """Recover an Embedding from an explicit ordered loose edge sequence.

    The assignment lists, edge by edge, first the vertex an edge shares
    with the previous edge (for a cycle, edge 0's previous edge is the
    last one), then its other vertices in ascending order, leaving out the
    one it shares with the next edge, which that edge lists first.  This is
    the template's own layout, with the interchangeable degree-1 vertices
    of each edge ascending.
    """
    es = [tuple(sorted(int(v) for v in e)) for e in edges]
    if not es:
        raise ValueError("empty edge sequence")
    k = len(es[0])
    if any(len(e) != len(set(e)) or len(e) != k for e in es):
        raise ValueError("edges must be distinct k-sets of equal size")
    if not is_loose_sequence(es, kind):
        raise ValueError(f"edge sequence does not form a loose {kind}")
    n, closed = len(es), kind == CYCLE
    assignment = []
    for i, e in enumerate(es):
        prev = set(e) & set(es[i - 1]) if i or closed else set()
        nxt = set(e) & set(es[(i + 1) % n]) if i < n - 1 or closed else set()
        assignment += sorted(prev) + sorted(set(e) - prev - nxt)
    return Embedding(LooseTemplate(kind, k, n), tuple(assignment), color)


# ---------------------------------------------------------------------------
# twin classes of a coloring (host-side symmetry)
# ---------------------------------------------------------------------------

def _twin_classes(c: TwoColoring) -> Dict[int, int]:
    """Map each host vertex to its twin-class representative.

    Labels u, u+1 are twins when swapping them preserves every edge color
    (`coloring.adjacent_twins`); classes are the intervals closed under
    such adjacent swaps, so every permutation inside a class is
    color-preserving.
    """
    cached = getattr(c, "_twin_classes_cache", None)
    if cached is not None:
        return cached
    N = c.n_vertices
    rep = list(range(N + 1))
    for u in np.flatnonzero(adjacent_twins(c)).tolist():
        rep[u + 2] = rep[u + 1]
    out = {w: rep[w] for w in range(1, N + 1)}
    object.__setattr__(c, "_twin_classes_cache", out)
    return out


# ---------------------------------------------------------------------------
# find_embedding
# ---------------------------------------------------------------------------

def find_embedding(c: TwoColoring, color: str, t: LooseTemplate,
                   fixed: Optional[Dict[int, int]] = None, *,
                   within: Optional[Iterable[int]] = None,
                   max_nodes: Optional[int] = None):
    """Search for a monochromatic copy of t; complete unless budgeted.

    Returns an Embedding, or None when provably absent, or the UNKNOWN
    sentinel when a node budget ran out first.  `fixed` pins template
    vertices to host vertices; only extensions of it are returned.
    `within` restricts the free template vertices to a host subset.

    The search plan is worked out once, before the search: one slot per
    unfixed template position, in order of first appearance (edge by edge,
    ascending inside an edge).  A slot holding a degree-1 position is
    bounded below by the host vertex of the previous degree-1 slot of its
    edge.  Each template edge is color-checked once, at the slot that fills
    its last unfixed position, or up front when every vertex is fixed.
    """
    if t.k != c.k:
        raise ValueError(f"incompatible-uniformity: template k={t.k}, host k={c.k}")
    if color not in ("red", "blue"):
        raise ValueError(f"color must be red/blue, got {color!r}")
    N = c.n_vertices

    fixed = dict(fixed) if fixed else {}
    for tv, hv in fixed.items():
        if not (isinstance(tv, int) and 1 <= tv <= t.n_vertices):
            raise ValueError(f"malformed partial assignment: template vertex {tv}")
        if not (isinstance(hv, int) and 1 <= hv <= N):
            raise ValueError(f"malformed partial assignment: host vertex {hv}")
    if len(set(fixed.values())) != len(fixed):
        raise ValueError("malformed partial assignment: not injective")

    if within is None:
        hosts = list(range(1, N + 1))
    else:
        hosts = sorted(set(int(v) for v in within))
        if hosts and (hosts[0] < 1 or hosts[-1] > N):
            raise ValueError("within-vertices out of host range")

    used = set(fixed.values())
    free_hosts = [h for h in hosts if h not in used]
    if t.n_vertices - len(fixed) > len(free_hosts):
        return None

    edges = t.edges
    want = 1 if color == "red" else 0
    # assign[p] is the host vertex at template position p; assign[0] = 0 is
    # the lower bound of a slot with no interchangeable predecessor
    assign = [0] * (t.n_vertices + 1)
    for tv, hv in fixed.items():
        assign[tv] = hv

    def edge_ok(e: Edge) -> bool:
        return c.bits[colex_rank(tuple(sorted(assign[v] for v in e)))] == want

    # the search plan; degree-1 positions of one edge are interchangeable
    degree = Counter(v for e in edges for v in e)
    slot_of: Dict[int, int] = {}
    slots = []  # (position, lower-bound position, edges it completes)
    for e in edges:
        prev_free = 0
        for v in e:
            if v in fixed or v in slot_of:
                continue
            slot_of[v] = len(slots)
            slots.append((v, prev_free if degree[v] == 1 else 0, []))
            if degree[v] == 1:
                prev_free = v
    for e in edges:
        last = max((slot_of[v] for v in e if v in slot_of), default=None)
        if last is not None:
            slots[last][2].append(e)
        elif not edge_ok(e):
            return None

    twin = _twin_classes(c)
    nodes = 0

    def rec(si: int):
        """The first complete assignment below slot si, UNKNOWN, or None."""
        nonlocal nodes
        if si == len(slots):
            return tuple(assign[1:])
        p, lo_pos, completes = slots[si]
        lo = assign[lo_pos]
        seen_classes = set()
        for v in free_hosts:
            if v <= lo or v in used or twin[v] in seen_classes:
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return UNKNOWN
            assign[p] = v
            for e in completes:
                if not edge_ok(e):
                    break
            else:
                used.add(v)
                res = rec(si + 1)
                used.discard(v)
                if res is not None:
                    return res
            seen_classes.add(twin[v])
        return None

    res = rec(0)
    if res is None or res is UNKNOWN:
        return res
    emb = Embedding(t, res, color)
    check = verify_embedding(c, emb)
    if not check:
        raise AssertionError(f"internal search bug: invalid embedding ({check.reason})")
    return emb


# ---------------------------------------------------------------------------
# copy enumeration over the complete host
# ---------------------------------------------------------------------------

_COPY_CACHE: Dict[tuple, np.ndarray] = {}

_CELLS = 1 << 12  # (partial copy, move) pairs per enumeration step: a few ms

# peak resident bytes of a decision per byte of its largest copy table: a
# cold c53@11 decision peaks at 377 MB for its 152 MB table up to its search,
# a peak set by the int64 argsort of the clause build's watch keys
_PEAK_PER_TABLE_BYTE = 4


def _memory_bytes() -> int:
    """The host's physical memory in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _moves(a: int, s: int, branch: bool):
    """The ways a partial copy with a free vertices puts s of them into its
    next edge, one column or row per move: a 0/1 (a, moves) matrix of the
    positions taken among its ascending free vertices, the taken one that
    becomes the next connector (None unless `branch`), and the a - s
    positions left free."""
    combos = list(combinations(range(a), s))
    pairs = [(c, j) for c in combos for j in c] if branch else [(c, 0) for c in combos]
    pick = np.zeros((a, len(pairs)), dtype=np.int64)
    for col, (c, _) in enumerate(pairs):
        pick[list(c), col] = 1
    rest = np.array([[p for p in range(a) if p not in c] for c, _ in pairs],
                    dtype=np.intp).reshape(len(pairs), a - s)
    nxt = np.array([j for _, j in pairs], dtype=np.intp) if branch else None
    return pick, nxt, rest


def _subset_rows(labels: range, size: int) -> np.ndarray:
    """The size-subsets of `labels` as rows, in the order `combinations`
    lists them, read by numpy straight off the iterator: no list of tuples
    is built."""
    return np.fromiter(chain.from_iterable(combinations(labels, size)), dtype=np.intp,
                       count=math.comb(len(labels), size) * size).reshape(-1, size)


def _colex_parts(N: int, k: int) -> np.ndarray:
    """part[x, i] = C(x - 1, i + 1), vertex x's share of the colex rank at
    position i of a k-subset of 1..N, so v_0 < ... < v_{k-1} ranks at the
    sum of part[v_i, i]; column k, for positions past the subset, is 0."""
    return np.array([[math.comb(x - 1, i + 1) if x and i < k else 0 for i in range(k + 1)]
                     for x in range(N + 1)], dtype=np.int64)


def _mask_ranker(N: int, k: int):
    """The colex rank of k-subsets of 1..N given as vertex masks, the sums
    of 1 << x over their vertices x, as a function on int64 arrays.

    A mask splits at bit h = (N + 1) // 2.  The low table gives the low
    bits' share of the rank; the high table, for each count of low bits,
    the high bits' share.  Each holds about 2^h entries, (k + 1) of them
    for the high table, where one table over whole masks would hold 2^(N+1).
    Masks fit int64 for N < 63, which every table under 2^31 rows spans.
    """
    h, part = (N + 1) // 2, _colex_parts(N, k)
    low, count = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.intp)
    for x in range(h):
        low = np.concatenate([low, low + part[x, np.minimum(count, k)]])
        count = np.concatenate([count, count + 1])
    high, above = np.zeros((k + 1, 1), dtype=np.int64), np.zeros(1, dtype=np.intp)
    below = np.arange(k + 1)[:, None]
    for x in range(h, N + 1):
        high = np.concatenate([high, high + part[x, np.minimum(below + above, k)]], axis=1)
        above = np.concatenate([above, above + 1])
    row = np.minimum(count, k) * high.shape[1]
    high, low_bits = high.ravel(), (1 << h) - 1

    def rank(masks: np.ndarray) -> np.ndarray:
        lo = masks & low_bits
        return low[lo] + high[row[lo] + (masks >> h)]

    return rank


def _enumerate_copies(N: int, k: int, t: LooseTemplate,
                      deadline: Optional[float]) -> np.ndarray:
    """Copies of t in K^k_N as sorted rows of edge ranks, rows unordered.

    When N > v = t.n_vertices, each copy is its vertex set plus a copy
    spanning v labels: the rows are the spanning table of K^k_v
    (`copy_rank_matrix`, cached) mapped through every ascending v-subset
    of 1..N, which keeps each row ascending and each copy distinct.  The
    deadline is checked once between the two.

    Only at N = v are copies grown.  A partial copy is a row of edge
    ranks, a connector (the vertex its next edge contains), for a cycle
    the closing vertex (the one its last edge contains), and its free
    vertices.  Paths start from every edge and connector in it, cycles
    from every edge and ordered (closing vertex, connector) pair in it;
    each step adds one edge to every partial copy at once.  A path is kept
    when rank(e_1) < rank(e_n), a cycle when e_1 is its least edge and
    rank(e_2) < rank(e_n), so each copy comes out once.
    A new edge is ranked by its vertex mask (`_mask_ranker`): one integer
    matmul sums the masks of the taken free vertices for every move.  Each
    (partial copy, move) pair is one cell of a block that repeats the
    partial copy's ranks and appends the new one; the kept cells are
    selected with one boolean mask, or by a reshape where every cell is kept.
    A step covers at most _CELLS cells and is grown to complete copies
    before the next, which bounds temporary memory; the deadline is
    checked before each step.
    """
    n, total = t.n, _n_copies(N, k, t)
    if total >= _MAX_EDGES:
        raise ValueError(f"copy-table-too-large: {t} has {total} copies in "
                         f"K^{k}_{N}, at most {_MAX_EDGES - 1} rows are supported")
    nbytes, memory = total * n * 8, _memory_bytes()
    if _PEAK_PER_TABLE_BYTE * nbytes > memory:
        raise ValueError(f"copy-table-too-large: {t} has {total} copies in "
                         f"K^{k}_{N}, a {nbytes}-byte table; a decision peaks at "
                         f"about {_PEAK_PER_TABLE_BYTE} times that, past the "
                         f"host's {memory} bytes of memory")
    out = np.empty((total, n), dtype=np.int64)
    if total == 0 or n == 1:
        out[:, 0] = np.arange(total)
        return out
    cycle = t.kind == CYCLE
    v = t.n_vertices
    if N > v:
        # lift the spanning table: an ascending v-subset maps local labels
        # monotonically, which keeps every row ascending and distinct
        span = copy_rank_matrix(v, k, t, deadline=deadline)
        if deadline is not None and time.monotonic() >= deadline:
            raise SearchBudgetExceeded("copy enumeration passed the deadline")
        # the local edges as 0-based label rows in colex order: listing the
        # labels downwards gives descending rows in descending colex order
        local = _subset_rows(range(v - 1, -1, -1), k)[::-1, ::-1]
        if span.min() < 0 or span.max() >= len(local):
            raise AssertionError(f"internal: spanning table of {t} past C({v}, {k})")
        subsets = _subset_rows(range(1, N + 1), v)
        # the local edges' ranks in every subset, one vertex position at a
        # time, so no index array spans every (subset, edge, position)
        part, ranks = _colex_parts(N, k), np.zeros((len(subsets), len(local)), dtype=np.int64)
        for i in range(k):
            ranks += part[subsets, i][:, local[:, i]]
        # in range, so "clip" clips nothing and, unlike "raise", needs no
        # buffer the size of the table
        np.take(ranks, span, axis=1, out=out.reshape(len(subsets), len(span), n),
                mode="clip")
        return out

    rank = _mask_ranker(N, k)
    # moves for the second edge onwards; before edge d + 2 there are
    # N - k - d(k-1) free vertices
    moves = [_moves(N - k - d * (k - 1), k - 2 if cycle and d == n - 2 else k - 1,
                    d < n - 2) for d in range(n - 1)]
    filled = 0

    def grow(ranks, conn, close, free):
        nonlocal filled
        d = ranks.shape[1]
        last = d == n - 1
        closing = cycle and last
        pick, nxt, rest = moves[d - 1]
        cells = pick.shape[1]
        step = max(1, _CELLS // cells)

        def select(a):
            """The kept cells of a (partial copy, move) array, one row each;
            a path is checked only at its last edge, so before it every cell
            is kept."""
            return a[keep] if cycle else a.reshape((m * cells,) + a.shape[2:])

        for lo in range(0, len(ranks), step):
            if deadline is not None and time.monotonic() >= deadline:
                raise SearchBudgetExceeded("copy enumeration passed the deadline")
            r, f = ranks[lo:lo + step], free[lo:lo + step]
            m = len(r)
            fixed = 1 << conn[lo:lo + step]
            if closing:
                fixed += 1 << close[lo:lo + step]
            er = rank((1 << f) @ pick + fixed[:, None])
            block = np.empty((m, cells, d + 1), dtype=np.int64)
            block[:, :, :d] = r[:, None]
            block[:, :, d] = er
            if cycle or last:
                keep = er > r[:, :1]
            if closing:
                keep &= er > r[:, 1:2]
            if last:
                got = int(np.count_nonzero(keep))
                if filled + got > total:
                    raise AssertionError("internal: more copies than the closed form")
                rows = out[filled:filled + got]
                np.compress(keep.ravel(), block.reshape(m * cells, n), axis=0, out=rows)
                rows.sort(axis=1)
                filled += got
                continue
            grow(select(block), select(f[:, nxt]),
                 select(np.broadcast_to(close[lo:lo + step, None], (m, cells)))
                 if cycle else None, select(f[:, rest]))

    firsts = _subset_rows(range(1, N + 1), k)
    outside = np.ones((len(firsts), N + 1), dtype=bool)
    outside[:, 0] = False
    outside[np.arange(len(firsts))[:, None], firsts] = False
    free = np.nonzero(outside)[1].reshape(len(firsts), N - k)
    ends = list(permutations(range(k), 2)) if cycle else [(c, c) for c in range(k)]
    close_at, conn_at = (np.tile(col, len(firsts)) for col in np.array(ends).T)
    start = np.repeat(np.arange(len(firsts)), len(ends))
    grow(rank((1 << firsts).sum(axis=1))[start, None], firsts[start, conn_at],
         firsts[start, close_at] if cycle else None, free[start])
    if filled != total:
        raise AssertionError(f"internal: {filled} copies, closed form {total}")
    return out


def _n_copies(N: int, k: int, t: LooseTemplate) -> int:
    """Copies of t in K^k_N in closed form: N!/((N-v)! |Aut t|), v = t.n_vertices."""
    f = math.factorial
    if t.kind == PATH:
        aut = f(k) if t.n == 1 else 2 * f(k - 1) ** 2 * f(k - 2) ** (t.n - 2)
    else:
        aut = 2 * t.n * f(k - 2) ** t.n
    return math.perm(N, t.n_vertices) // aut


def _copy_key(N: int, k: int, t: LooseTemplate) -> tuple:
    """The `_COPY_CACHE` key of the copies of t in K^k_N."""
    return (N, k, t.kind, t.n)


def copy_rank_matrix(N: int, k: int, t: LooseTemplate, *,
                     deadline: Optional[float] = None) -> np.ndarray:
    """Copies of t in K^k_N as rows of ascending colex edge ranks.

    Every edge-set-distinct copy is one row, rows in lexicographic order,
    so the int64 matrix is canonical; it is read-only.  Cached in memory.
    Copies are grown only on N = v = t.n_vertices labels; a larger host's
    table is lifted from that spanning table, which is cached too.  The
    rows are ordered in place: each becomes one base-C(N, k) int64 key, the
    keys are sorted, and the columns are decoded back from them, so beyond
    the table only the keys are held.
    A table of 2**31 rows or more, or one whose decision would need more
    than the host's physical memory (4 times the table's bytes), is refused
    as `copy-table-too-large` before anything is allocated.  With a
    `deadline` (a `time.monotonic()` reading), enumeration raises
    SearchBudgetExceeded once it passes, and the table is not cached (a
    spanning table finished before then is).
    """
    if t.k != k:
        raise ValueError(f"invalid-parameter: template k={t.k} but k={k} given")
    key = _copy_key(N, k, t)
    hit = _COPY_CACHE.get(key)
    if hit is not None:
        return hit
    arr = _enumerate_copies(N, k, t, deadline)
    if len(arr):
        # rows in lexicographic order: sort one base-C(N, k) number per row
        base = math.comb(N, k)
        if base ** t.n >= 1 << 63:
            raise AssertionError(f"internal: {len(arr)} copies with sort keys past int64")
        packed = arr[:, 0].copy()
        for col in arr.T[1:]:
            packed *= base
            packed += col
        # sort the keys themselves and decode them back into the table, so
        # no index array or second table is held
        packed.sort()
        for col in arr.T[:0:-1]:
            np.divmod(packed, base, out=(packed, col))
        arr[:, 0] = packed
    arr.flags.writeable = False
    _COPY_CACHE[key] = arr
    return arr


def count_copies(N: int, k: int, t: LooseTemplate) -> int:
    """Number of edge-set-distinct copies of t in the complete host K^k_N,
    in closed form; nothing is enumerated."""
    if not (isinstance(N, int) and N >= 0 and isinstance(k, int) and k >= 2):
        raise ValueError(f"invalid-parameter: N={N}, k={k}")
    if t.k != k:
        raise ValueError(f"invalid-parameter: template k={t.k} but k={k} given")
    return _n_copies(N, k, t)


# ---------------------------------------------------------------------------
# maximality with respect to a reservoir W
# ---------------------------------------------------------------------------

def is_maximal_wrt(c: TwoColoring, P: Embedding, W: Iterable[int]) -> bool:
    """True iff the red loose path P has no red (n+1)-edge path covering V(P)
    plus k-1 vertices of the disjoint reservoir W.

    The replacement swaps a window e_i..e_{i+r-1} of P for r+1 new red edges
    whose vertices are the window's plus a fresh W' from W; if the window
    touches an end of P, the old extreme vertex must stay in the new extreme
    edge.  New-vertex counting forces |W'| = k-1 exactly, and the search
    space per (W', r, i) collapses to an embedding search over the window
    vertices, W', and one attachment vertex on each surviving side.
    """
    W = frozenset(int(v) for v in W)
    t = P.template
    if t.kind != PATH:
        raise ValueError("precondition-violation: maximality is defined for paths")
    red_ok = verify_embedding(c, replace(P, claimed_color="red"))
    if not red_ok:
        raise ValueError(f"precondition-violation: path not red-valid ({red_ok.reason})")
    if W & P.image:
        raise ValueError("precondition-violation: W intersects the path image")

    k, n = t.k, t.n
    if len(W) < k - 1:
        return True
    old_edges = P.edge_images()
    vp = set(P.image)
    first_v = P.vertex_image(1)
    last_v = P.vertex_image(t.n_vertices)

    for Wp in combinations(sorted(W), k - 1):
        base = vp | set(Wp)
        for r in range(1, n + 1):
            seg = path_template(k, r + 1)
            seg_last = (r + 1) * (k - 1) + 1
            for i in range(1, n - r + 2):
                kept = old_edges[:i - 1] + old_edges[i + r - 1:]
                pool_core = base - set().union(*kept)

                # (segment position, host vertex) options for each end: the
                # attachment vertex on a kept side, or P's old extreme vertex
                # (already in pool_core) in either slot of the extreme edge
                if i >= 2:
                    cands = set(old_edges[i - 2]) - set(old_edges[i - 3] if i >= 3 else ())
                    starts = [(1, v) for v in sorted(cands)]
                else:
                    starts = [(1, first_v), (k, first_v)]
                if i + r <= n:
                    cands = set(old_edges[i + r - 1]) - set(old_edges[i + r] if i + r < n else ())
                    ends = [(seg_last, v) for v in sorted(cands)]
                else:
                    ends = [(seg_last, last_v), (r * (k - 1) + 1, last_v)]

                for (sp, sv), (ep, ev) in product(starts, ends):
                    # one slot takes one vertex, two slots two vertices
                    if (sp == ep) != (sv == ev):
                        continue
                    pool = pool_core | {sv, ev}
                    if len(pool) != seg.n_vertices:
                        raise AssertionError("internal: replacement pool size mismatch")
                    found = find_embedding(c, "red", seg, {sp: sv, ep: ev}, within=pool)
                    if found is None:
                        continue
                    full = old_edges[:i - 1] + found.edge_images() + old_edges[i + r - 1:]
                    if not is_loose_sequence(full, PATH):
                        raise AssertionError("internal: replacement assembly is not loose")
                    return False
    return True
