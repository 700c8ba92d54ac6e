"""Embedding search, copy enumeration and path maximality for loose structures.

`find_embedding` walks template edges in order, anchoring each new edge on
its connector into the already-placed part, and tries host vertices in
ascending label order.  Two prunings keep desk-scale instances tractable
without giving up completeness:

* template-side: vertices that lie in a single template edge are mutually
  interchangeable, so the free ones are forced into ascending host order;
* host-side: on a split host, the paper's lower-bound colorings, the two
  sides are twin classes (any permutation inside one keeps every color),
  and inside one candidate loop at most one failed representative per
  class is explored (if a class member admits no extension, neither does
  any other unused member, by applying the swap to a hypothetical
  solution).  Other hosts are not pruned this way.

Both prunings affect only which representative of a copy is found, never
whether one is found, so absence answers remain sound.  There is no
node budget: every answer, "absent" included, is a complete search's.

`copy_rank_matrix` lists every copy of a template in the complete host
K^k_N as a row of colex edge ranks, the input of the prover's clauses.  On
v = |V(t)| labels it extends the copies of the loose path with one edge
fewer, its own spanning table lifted onto the v labels, by the one edge
the unused labels complete, keeps each copy from one edge, and checks the
count against the closed form that `count_copies` returns without
enumerating; on more labels it lifts the spanning table over the
v-subsets of the host.  Every table, the shorter paths' included, is
cached in memory for the life of the process.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .coloring import (_MAX_EDGES, TwoColoring, colex_parts, colex_rank, json_int,
                       rank_dtype, split_counting, subset_rows)
from .core import CYCLE, PATH, Edge, LooseTemplate, is_loose_sequence, path_template
from .errors import HypothesisViolation, SearchBudgetExceeded


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
        image = (0,) + self.assignment  # 1-based, like template vertices
        return [tuple(sorted(map(image.__getitem__, e))) for e in self.template.edges]

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
        t = LooseTemplate(obj["kind"], json_int(obj["k"]), json_int(obj["length"]))
        return cls(t, json_int(obj["assignment"], 1), obj["claimed_color"])


@dataclass(frozen=True)
class VerifyResult:
    """Boolean verdict carrying a machine-readable failure reason."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


def verify_embedding(c: TwoColoring, e: Embedding) -> VerifyResult:
    """Full re-validation of an embedding: shape, injectivity, colors.  An
    injective map keeps every intersection size of the template's edges,
    so their images need no check of the loose structure."""
    t = e.template
    if t.k != c.k:
        return VerifyResult(False, "incompatible-uniformity")
    if len(e.assignment) != t.n_vertices:
        return VerifyResult(False, "wrong-length")
    if len(set(e.assignment)) != len(e.assignment):
        return VerifyResult(False, "not-injective")
    if any(not 1 <= v <= c.n_vertices for v in e.assignment):
        return VerifyResult(False, "out-of-range")
    want = 1 if e.claimed_color == "red" else 0
    for img in e.edge_images():
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
    of each edge ascending.  Edges that form no loose `kind` raise
    ValueError: the library's one check of an explicit edge sequence."""
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

    When c is split, with red side A = 1..a (`coloring.split_counting`),
    the classes are A and B = a+1..N: an edge is red iff it lies in A, so
    every permutation of A or of B is color-preserving.  Otherwise each
    label is its own class.  Every class lies inside one class of labels
    that color-preservingly swap, which is all the pruning needs.
    """
    a, _, _ = split_counting(c, 0, 0)  # only the split size is read
    return {w: w if a is None else 1 if w <= a else a + 1
            for w in range(1, c.n_vertices + 1)}


# ---------------------------------------------------------------------------
# find_embedding
# ---------------------------------------------------------------------------

def find_embedding(c: TwoColoring, color: str, t: LooseTemplate,
                   fixed: Optional[Dict[int, int]] = None, *,
                   within: Optional[Iterable[int]] = None):
    """Search, completely, for a monochromatic copy of t.

    Returns an Embedding, or None when provably absent.  `fixed` pins
    template vertices to host vertices; only extensions of it are
    returned.  `within` restricts the free template vertices to a host
    subset.

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
        return c.bits[colex_rank(sorted(map(assign.__getitem__, e)))] == want

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

    def rec(si: int):
        """The first complete assignment below slot si, or None."""
        if si == len(slots):
            return tuple(assign[1:])
        p, lo_pos, completes = slots[si]
        lo = assign[lo_pos]
        seen_classes = set()
        for v in free_hosts:
            if v <= lo or v in used or twin[v] in seen_classes:
                continue
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
    if res is None:
        return None
    emb = Embedding(t, res, color)
    check = verify_embedding(c, emb)
    if not check:
        raise AssertionError(f"internal search bug: invalid embedding ({check.reason})")
    return emb


# ---------------------------------------------------------------------------
# copy enumeration over the complete host
# ---------------------------------------------------------------------------

_COPY_CACHE: Dict[tuple, np.ndarray] = {}

_CELLS = 1 << 12  # (lifted row, new edge) cells per extension block: under a ms

# peak resident bytes of a decision per byte of its largest copy table,
# through the start of its search: a cold c55@12 --symmetry decision, whose
# red and blue share one 120 MB uint8 table, peaks at 974 MB, the table,
# twice its rows as clauses, the search's flat copy of those rows and an
# int32 watch entry per watch key; c53@11 at 125 MB for 20 MB
_PEAK_PER_TABLE_BYTE = 9


def _memory_bytes() -> int:
    """The host's physical memory in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _mask_ranker(N: int, k: int):
    """The colex rank of k-subsets of 1..N given as vertex masks, the sums
    of 1 << x over their vertices x, as a function on int64 arrays.

    A mask splits at bit h = (N + 1) // 2.  The low table gives the low
    bits' share of the rank; the high table, for each count of low bits,
    the high bits' share.  Each holds about 2^h entries, (k + 1) of them
    for the high table, where one table over whole masks would hold 2^(N+1).
    Masks fit int64 for N < 63, which every table under 2^31 rows spans.
    Not cached: for k >= 3 each (N, k) builds at most one spanning table.
    """
    h, part = (N + 1) // 2, colex_parts(N, k)
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


def _lift(span: np.ndarray, v: int, N: int, k: int, t: LooseTemplate):
    """What lifting a table of t spanning K^k_v into K^k_N needs: the local
    edges as 0-based label rows in colex order, the ascending v-subsets of
    1..N as rows, and ranks[s, e], the rank in K^k_N of local edge e mapped
    through subset s, in `rank_dtype(N, k)`.  An ascending subset maps
    labels monotonically, which keeps colex order, so a lifted row stays
    ascending and distinct."""
    local = subset_rows(v, k) - 1
    if span.min() < 0 or span.max() >= len(local):
        raise AssertionError(f"internal: spanning table of {t} past C({v}, {k})")
    subsets = subset_rows(N, v)
    # a share of C(N, k) or more belongs to no k-subset of 1..N; zeroed,
    # the rest fits the narrow dtype, as does every partial sum of a rank
    part, ranks = colex_parts(N, k), np.zeros((len(subsets), len(local)), rank_dtype(N, k))
    part = np.where(part < math.comb(N, k), part, 0).astype(ranks.dtype)
    # one vertex position at a time, so no index array spans every
    # (subset, edge, position)
    for i in range(k):
        ranks += part[subsets, i][:, local[:, i]]
    return local, subsets, ranks


def _path_ends(span: np.ndarray, local: np.ndarray):
    """The end edges of each loose path in a table spanning its labels (rows
    of local edge ranks; `local` lists the local edges' labels): per row,
    the columns of its two end edges and, ascending, the local labels
    private to each.  P^k_1's one edge is its only end, all of it private."""
    masks = (1 << local).sum(axis=1)[span]
    # dup marks the vertices in two edges; an end edge has one of them
    seen = dup = np.zeros(len(span), dtype=np.int64)
    for col in masks.T:
        dup, seen = dup | (seen & col), seen | col
    ends = np.nonzero(np.bitwise_count(masks & dup[:, None]) < 2)[1].reshape(len(span), -1)
    own = masks[np.arange(len(span))[:, None], ends] & ~dup[:, None]
    x = np.empty(own.shape + (int(np.bitwise_count(own[0, 0])),), dtype=np.uint8)
    for j in range(x.shape[2]):
        low = own & -own
        x[..., j] = np.bitwise_count(low - 1)
        own ^= low
    return ends, x


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() >= deadline:
        raise SearchBudgetExceeded("copy enumeration passed the deadline")


def _enumerate_copies(N: int, k: int, t: LooseTemplate,
                      deadline: Optional[float]) -> np.ndarray:
    """Copies of t in K^k_N as sorted rows of edge ranks, rows unordered.

    When N > v = t.n_vertices, each copy is its vertex set plus a copy
    spanning v labels: the rows are the spanning table of K^k_v
    (`copy_rank_matrix`, cached) lifted through every ascending v-subset
    of 1..N.  The deadline is checked once between the two.

    At N = v, a copy is the loose path s = P^k_{n-1} it has left after
    losing an end edge (a path) or any edge (a cycle), plus that edge.
    The copies of s in K^k_v are its spanning table (`copy_rank_matrix`,
    cached) lifted over the w-subsets, w = |V(s)|, and the labels
    a subset leaves unused go into the new edge, with one vertex x private
    to an end edge of s for a path, and x, y private to its two end edges
    for a cycle.  A path is kept when the new edge outranks the end edge
    opposite x (for n = 2, the old edge), so it comes out from one of its
    two end edges; a cycle when the new edge outranks every edge, so it
    comes out from its largest edge.  New edges are ranked by vertex mask
    (`_mask_ranker`).
    The lifted rows are extended in blocks of at most about _CELLS
    (lifted row, new edge) cells, which bounds temporary memory, and only
    the kept cells are written; the deadline is checked before each block.
    """
    n, total = t.n, count_copies(N, k, t)
    if total >= _MAX_EDGES:
        raise ValueError(f"copy-table-too-large: {t} has {total} copies in "
                         f"K^{k}_{N}, at most {_MAX_EDGES - 1} rows are supported")
    dtype = rank_dtype(N, k)
    nbytes, memory = total * n * dtype.itemsize, _memory_bytes()
    if _PEAK_PER_TABLE_BYTE * nbytes > memory:
        raise ValueError(f"copy-table-too-large: {t} has {total} copies in "
                         f"K^{k}_{N}, a {nbytes}-byte table; a decision peaks at "
                         f"about {_PEAK_PER_TABLE_BYTE} times that, past the "
                         f"host's {memory} bytes of memory")
    if total == 0 or n == 1:
        return np.arange(total, dtype=dtype).reshape(total, n)
    # the table is allocated once the smaller tables it comes from are built
    v = t.n_vertices
    if N > v:
        span = copy_rank_matrix(v, k, t, deadline=deadline)
        _check_deadline(deadline)
        _, subsets, ranks = _lift(span, v, N, k, t)
        out = np.empty((total, n), dtype=dtype)
        # in range, so "clip" clips nothing and, unlike "raise", needs no
        # buffer the size of the table; nor does `out`, in ranks' dtype
        np.take(ranks, span, axis=1, out=out.reshape(len(subsets), len(span), n),
                mode="clip")
        return out

    m, s = n - 1, path_template(k, n - 1)
    w = s.n_vertices
    span = copy_rank_matrix(w, k, s, deadline=deadline)
    local, subsets, ranks = _lift(span, w, N, k, s)
    cycle = t.kind == CYCLE
    bits = 1 << subsets
    unused = (1 << (N + 1)) - 2 - bits.sum(axis=1)
    # (lifted row, new edge) cells per row: x, y pairs for a cycle, x at
    # either end for a path (at P^k_1's one edge for n = 2)
    cells = (k - 1) ** 2 if cycle else k if m == 1 else 2 * (k - 1)
    rank, out = _mask_ranker(N, k), np.empty((total, n), dtype=dtype)
    rows_step = min(len(span), max(1, _CELLS // cells))
    subsets_step = max(1, _CELLS // (rows_step * cells))
    filled = 0
    for r0 in range(0, len(span), rows_step):
        r = span[r0:r0 + rows_step]
        ends, x = _path_ends(r, local)
        # what the new edge must outrank: for a path the end edge opposite
        # x, for a cycle the largest edge, last in its ascending row
        above = r[:, -1:] if cycle else r[np.arange(len(r))[:, None], ends[:, ::-1]]
        for s0 in range(0, len(subsets), subsets_step):
            _check_deadline(deadline)
            sub = slice(s0, s0 + subsets_step)
            # (subset, row, end or x, x or y) cells of new edge vertex masks
            new = np.take(bits[sub], x, axis=1)
            if cycle:
                new = new[..., 0, :, None] + new[..., 1, None, :]
            er = rank(unused[sub, None, None, None] + new)
            kept = np.flatnonzero(er > np.take(ranks[sub], above, axis=1)[..., None])
            got = len(kept)
            if filled + got > total:
                raise AssertionError("internal: more copies than the closed form")
            rows = out[filled:filled + got]
            # a kept cell's lifted row is its (subset, row) pair, kept // cells
            rows[:, :m] = np.take(ranks[sub], r, axis=1).reshape(-1, m)[kept // cells]
            rows[:, m] = er.ravel()[kept]
            if not cycle:
                # a path's new edge moves down to its place, which costs
                # less than sorting the rows; a cycle's is its largest
                for j in range(m, 0, -1):
                    low = np.minimum(rows[:, j - 1], rows[:, j])
                    np.maximum(rows[:, j - 1], rows[:, j], out=rows[:, j])
                    rows[:, j - 1] = low
            filled += got
    if filled != total:
        raise AssertionError(f"internal: {filled} copies, closed form {total}")
    return out


def _copy_key(N: int, k: int, t: LooseTemplate) -> tuple:
    """The `_COPY_CACHE` key of the copies of t in K^k_N."""
    return (N, k, t.kind, t.n)


def copy_rank_matrix(N: int, k: int, t: LooseTemplate, *,
                     deadline: Optional[float] = None) -> np.ndarray:
    """Copies of t in K^k_N as rows of ascending colex edge ranks.

    Every edge-set-distinct copy is one row, rows in lexicographic order,
    so the matrix is canonical; the order is also kept for the search,
    whose clauses follow it (on enumeration order `c44@9 --symmetry`
    searches the same nodes 10–20 % slower, though a cold C^3_5 in
    K^3_11 would build in 0.13 s instead of 0.34 s, and peak at 70 MB
    instead of 86).  Its dtype is `coloring.rank_dtype(N, k)`,
    the smallest unsigned one that holds C(N, k) - 1, and it is read-only.
    `count_copies` checks N, k and the template's uniformity, before the
    cache is read.  Cached in memory; the only caller of `_enumerate_copies`.
    On N = v = t.n_vertices labels, copies extend those of the path with
    one edge fewer by one edge; a larger host's table is lifted from the
    spanning table; both come from this function, so are cached too.  The
    rows are ordered in place: each becomes one key, its columns in fields
    of (C(N, k) - 1).bit_length() bits, first column highest, in the
    narrowest unsigned dtype that holds them; the keys are sorted, and the
    columns are decoded back from them, so only the keys are held beside.
    A table of 2**31 rows or more, or one whose decision would need more
    than the host's physical memory (`_PEAK_PER_TABLE_BYTE`, 9, times the
    table's bytes), is refused as `copy-table-too-large` before anything
    is allocated.  With a `deadline` (a `time.monotonic()` reading),
    enumeration raises SearchBudgetExceeded once it passes, as does a
    check between enumeration and the sort, and the table is not cached
    (a table it comes from, finished before then, is).
    """
    count_copies(N, k, t)
    key = _copy_key(N, k, t)
    hit = _COPY_CACHE.get(key)
    if hit is not None:
        return hit
    arr = _enumerate_copies(N, k, t, deadline)
    _check_deadline(deadline)
    if len(arr):
        # rows in lexicographic order: sort one key per row, `width` bits a column
        width = (math.comb(N, k) - 1).bit_length()
        if width * t.n >= 64:
            raise AssertionError(f"internal: {len(arr)} copies with sort keys past int64")
        packed = arr[:, 0].astype(np.min_scalar_type((1 << width * t.n) - 1))
        for col in arr.T[1:]:
            packed <<= width
            packed |= col
        # sort the keys themselves and decode them back into the table, so
        # no index array or second table is held
        packed.sort()
        for col in arr.T[:0:-1]:
            np.bitwise_and(packed, (1 << width) - 1, out=col, casting="unsafe")
            packed >>= width
        arr[:, 0] = packed
    arr.flags.writeable = False
    _COPY_CACHE[key] = arr
    return arr


def count_copies(N: int, k: int, t: LooseTemplate) -> int:
    """Number of edge-set-distinct copies of t in the complete host K^k_N,
    in closed form, N!/((N-v)! |Aut t|) with v = t.n_vertices; nothing is
    enumerated."""
    if not (isinstance(N, int) and N >= 0 and isinstance(k, int) and k >= 2):
        raise ValueError(f"invalid-parameter: N={N}, k={k}")
    if t.k != k:
        raise ValueError(f"invalid-parameter: template k={t.k} but k={k} given")
    f = math.factorial
    if t.kind == PATH:
        aut = f(k) if t.n == 1 else 2 * f(k - 1) ** 2 * f(k - 2) ** (t.n - 2)
    else:
        aut = 2 * t.n * f(k - 2) ** t.n
    return math.perm(N, t.n_vertices) // aut


# ---------------------------------------------------------------------------
# maximality with respect to a reservoir W
# ---------------------------------------------------------------------------

def is_maximal_wrt(c: TwoColoring, P: Embedding, W: Iterable[int]) -> bool:
    """True iff the red loose path P, with n edges, has no red loose path
    with n+1 edges on V(P) plus k-1 vertices of the disjoint reservoir W
    whose first edge holds P's first vertex and whose last edge P's last.

    Any window of P swapped for one more red edge through W' is such a
    path.  An end vertex's place in its edge matters only up to the
    interchangeable degree-1 slots, so per (k-1)-subset W' one search
    pinning P's ends at slot 1 (private) or k (connector) of the first
    edge and slot L or L-k+1 of the last, L = (n+1)(k-1)+1, decides it.
    Bad inputs are HypothesisViolations named `precondition-violation:`.
    """
    W = frozenset(int(v) for v in W)
    t = P.template
    if t.kind != PATH:
        raise HypothesisViolation("precondition-violation: maximality is defined for paths")
    red_ok = verify_embedding(c, replace(P, claimed_color="red"))
    if not red_ok:
        raise HypothesisViolation(
            f"precondition-violation: path not red-valid ({red_ok.reason})")
    if W & P.image:
        raise HypothesisViolation("precondition-violation: W intersects the path image")

    k = t.k
    longer = path_template(k, t.n + 1)
    L = longer.n_vertices
    first_v, last_v = P.assignment[0], P.assignment[-1]
    for Wp in combinations(sorted(W), k - 1):
        pool = P.image | set(Wp)
        for sp, ep in product((1, k), (L, L - k + 1)):
            # n = 1: slot k = L-k+1 is the one connector, not two ends' place
            if sp != ep and find_embedding(c, "red", longer, {sp: first_v, ep: last_v},
                                           within=pool) is not None:
                return False
    return True
