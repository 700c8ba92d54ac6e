"""Embedding search, copy enumeration and path maximality for loose structures.

The searcher walks template edges in order, anchoring each new edge on its
connector into the already-placed part, and tries host vertices in ascending
label order.  Two prunings keep desk-scale instances tractable without
giving up completeness:

* template-side: vertices that lie in a single template edge are mutually
  interchangeable, so the free ones are forced into ascending host order;
* host-side: host labels that color-preservingly swap with a neighbor label
  are grouped into twin classes, and inside one candidate loop at most one
  failed representative per class is explored (if a class member admits no
  extension, neither does any other unused member, by applying the swap to
  a hypothetical solution).

Both prunings affect only which representative of a copy is found, never
whether one is found, so absence answers remain sound.  An optional node
budget turns "absent" into the distinct UNKNOWN verdict when exhausted.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from itertools import combinations, permutations
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .coloring import TwoColoring, colex_rank
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

_BUDGET = object()  # internal bubble-up marker


def _colex_key(e: Sequence[int]) -> Tuple[int, ...]:
    return tuple(reversed(e))


@dataclass(frozen=True)
class Embedding:
    """Injective placement of a template into a host, with a color claim.

    assignment[j-1] is the host vertex carrying template vertex j.
    claimed_color is "red", "blue", or "any" (structure only).
    """

    template: LooseTemplate
    assignment: Tuple[int, ...]
    claimed_color: str = "any"

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(int(v) for v in self.assignment))
        if self.claimed_color not in ("red", "blue", "any"):
            raise ValueError(f"claimed_color must be red/blue/any, got {self.claimed_color!r}")

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
        return cls(t, tuple(obj["assignment"]), obj.get("claimed_color", "any"))


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
    if e.claimed_color != "any":
        want = 1 if e.claimed_color == "red" else 0
        for img in images:
            if c.bits[colex_rank(img)] != want:
                return VerifyResult(False, "edge-color-mismatch")
    return VerifyResult(True, None)


def embedding_from_edge_sequence(edges: Sequence[Sequence[int]], kind: str,
                                 color: str = "any") -> Embedding:
    """Recover an Embedding from an explicit ordered loose edge sequence.

    Connectors are read off the consecutive intersections; the remaining
    vertices of each edge fill the interchangeable slots in ascending order.
    """
    es = [tuple(sorted(int(v) for v in e)) for e in edges]
    if not es:
        raise ValueError("empty edge sequence")
    k = len(es[0])
    if any(len(e) != len(set(e)) or len(e) != k for e in es):
        raise ValueError("edges must be distinct k-sets of equal size")
    if not is_loose_sequence(es, kind):
        raise ValueError(f"edge sequence does not form a loose {kind}")
    n = len(es)
    t = LooseTemplate(kind, k, n)
    assignment: Dict[int, int] = {}

    def shared(a, b):
        (x,) = set(a) & set(b)
        return x

    for i, e in enumerate(es, start=1):
        first_pos = (i - 1) * (k - 1) + 1
        last_pos = i * (k - 1) + 1
        if kind == CYCLE:
            last_pos = (last_pos - 1) % t.n_vertices + 1
        pinned = {}
        if i > 1:
            pinned[first_pos] = shared(es[i - 2], e)
        elif kind == CYCLE:
            pinned[first_pos] = shared(es[-1], e)
        if i < n:
            pinned[last_pos] = shared(e, es[i])
        elif kind == CYCLE:
            pinned[last_pos] = shared(e, es[0])
        free_hosts = sorted(set(e) - set(pinned.values()))
        free_pos = [p for p in range(first_pos, first_pos + k)
                    if ((p - 1) % t.n_vertices + 1) not in pinned]
        free_pos = [(p - 1) % t.n_vertices + 1 for p in free_pos]
        for p, v in pinned.items():
            if p in assignment and assignment[p] != v:
                raise ValueError("inconsistent connector structure")
            assignment[p] = v
        for p, v in zip(free_pos, free_hosts):
            assignment[p] = v
    return Embedding(t, tuple(assignment[j] for j in range(1, t.n_vertices + 1)), color)


# ---------------------------------------------------------------------------
# twin classes of a coloring (host-side symmetry)
# ---------------------------------------------------------------------------

def _twin_classes(c: TwoColoring) -> Dict[int, int]:
    """Map each host vertex to its twin-class representative.

    Labels u, u+1 are twins when swapping them preserves every edge color;
    classes are the intervals closed under such adjacent swaps, so every
    permutation inside a class is color-preserving.
    """
    cached = getattr(c, "_twin_classes_cache", None)
    if cached is not None:
        return cached
    N, k = c.n_vertices, c.k
    rep = list(range(N + 1))
    others = range(1, N + 1)
    for u in range(1, N):
        v = u + 1
        pool = [w for w in others if w != u and w != v]
        twins = True
        for T in combinations(pool, k - 1):
            eu = tuple(sorted(T + (u,)))
            ev = tuple(sorted(T + (v,)))
            if c.bits[colex_rank(eu)] != c.bits[colex_rank(ev)]:
                twins = False
                break
        if twins:
            rep[v] = rep[u]
    out = {w: rep[w] for w in others}
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
    """
    if t.k != c.k:
        raise ValueError(f"incompatible-uniformity: template k={t.k}, host k={c.k}")
    if color not in ("red", "blue", "any"):
        raise ValueError(f"color must be red/blue/any, got {color!r}")
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

    assign: Dict[int, int] = dict(fixed)
    used = set(fixed.values())
    free_hosts = [h for h in hosts if h not in used]
    if t.n_vertices - len(fixed) > len(free_hosts):
        return None

    edges = t.edges
    degree: Dict[int, int] = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1

    want = None if color == "any" else (1 if color == "red" else 0)

    # remaining unassigned positions per edge; edges completed up front get
    # their color checked before the search starts
    remaining = []
    pos_edges: Dict[int, list] = {v: [] for e in edges for v in e}
    for i, e in enumerate(edges):
        remaining.append(sum(1 for v in e if v not in assign))
        for v in e:
            pos_edges[v].append(i)

    def edge_ok(i: int) -> bool:
        if want is None:
            return True
        img = tuple(sorted(assign[v] for v in edges[i]))
        return c.bits[colex_rank(img)] == want

    for i in range(len(edges)):
        if remaining[i] == 0 and not edge_ok(i):
            return None

    # slot order: first appearance, edge by edge, ascending inside an edge;
    # degree-1 slots of one edge form an interchangeable class kept ascending
    slots = []  # (position, class_prev_slot_position or None)
    seen_pos = set()
    for i, e in enumerate(edges):
        prev_free = None
        for v in e:
            if v in seen_pos:
                continue
            seen_pos.add(v)
            if v in assign:
                continue
            if degree[v] == 1:
                slots.append((v, prev_free))
                prev_free = v
            else:
                slots.append((v, None))

    twin = _twin_classes(c)
    nodes = 0

    def rec(si: int):
        nonlocal nodes
        if si == len(slots):
            return dict(assign)
        p, class_prev = slots[si]
        lo = assign[class_prev] if class_prev is not None else 0
        seen_classes = set()
        for v in free_hosts:
            if v <= lo or v in used:
                continue
            tc = twin[v]
            if tc in seen_classes:
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return _BUDGET
            assign[p] = v
            used.add(v)
            ok = True
            touched = []
            for ei in pos_edges[p]:
                remaining[ei] -= 1
                touched.append(ei)
                if remaining[ei] == 0 and not edge_ok(ei):
                    ok = False
            res = rec(si + 1) if ok else None
            for ei in touched:
                remaining[ei] += 1
            del assign[p]
            used.discard(v)
            if isinstance(res, dict):
                return res
            if res is _BUDGET:
                return _BUDGET
            seen_classes.add(tc)
        return None

    res = rec(0)
    if res is _BUDGET:
        return UNKNOWN
    if res is None:
        return None
    emb = Embedding(t, tuple(res[j] for j in range(1, t.n_vertices + 1)), color)
    check = verify_embedding(c, emb)
    if not check:
        raise AssertionError(f"internal search bug: invalid embedding ({check.reason})")
    return emb


# ---------------------------------------------------------------------------
# copy enumeration over the complete host
# ---------------------------------------------------------------------------

def iter_copies(N: int, k: int, t: LooseTemplate) -> Iterator[Tuple[Edge, ...]]:
    """All edge-set-distinct copies of t in K^k_N, each exactly once.

    Copies come out as edge sequences in traversal order.  Paths are
    generated in both directions and kept only with colex(e_1) < colex(e_n);
    cycles are rooted at their colex-least edge with colex(e_2) < colex(e_n)
    breaking the direction tie.
    """
    if t.k != k:
        raise ValueError(f"invalid-parameter: template k={t.k} but k={k} given")
    if t.n_vertices > N:
        return
    verts = list(range(1, N + 1))
    n = t.n

    if t.kind == PATH:
        if n == 1:
            for e in combinations(verts, k):
                yield (e,)
            return

        def extend_path(seq, conn, avail, left):
            if left == 1:
                for F in combinations(avail, k - 1):
                    last = tuple(sorted((conn,) + F))
                    if _colex_key(seq[0]) < _colex_key(last):
                        yield tuple(seq) + (last,)
                return
            for interior in combinations(avail, k - 2):
                taken = set(interior)
                rest = [v for v in avail if v not in taken]
                for nxt in rest:
                    e = tuple(sorted((conn,) + interior + (nxt,)))
                    seq.append(e)
                    yield from extend_path(seq, nxt,
                                           [v for v in rest if v != nxt], left - 1)
                    seq.pop()

        for e1 in combinations(verts, k):
            outside = [v for v in verts if v not in e1]
            for c1 in e1:
                yield from extend_path([e1], c1, outside, n - 1)
        return

    # cycle, n >= 3
    def extend_cycle(seq, conn, close, avail, left, key1):
        if left == 1:
            for interior in combinations(avail, k - 2):
                last = tuple(sorted((conn,) + interior + (close,)))
                if key1 < _colex_key(last) and _colex_key(seq[1]) < _colex_key(last):
                    yield tuple(seq) + (last,)
            return
        for interior in combinations(avail, k - 2):
            taken = set(interior)
            rest = [v for v in avail if v not in taken]
            for nxt in rest:
                e = tuple(sorted((conn,) + interior + (nxt,)))
                if key1 >= _colex_key(e):
                    continue
                seq.append(e)
                yield from extend_cycle(seq, nxt, close,
                                        [v for v in rest if v != nxt], left - 1, key1)
                seq.pop()

    for e1 in combinations(verts, k):
        key1 = _colex_key(e1)
        outside = [v for v in verts if v not in e1]
        for close, c1 in permutations(e1, 2):
            yield from extend_cycle([e1], c1, close, outside, n - 1, key1)


_COPY_CACHE: Dict[tuple, np.ndarray] = {}

_DEADLINE_EVERY = 4096  # copies enumerated between deadline checks


def _until(copies: Iterator, deadline: float) -> Iterator:
    """Pass `copies` through; raise SearchBudgetExceeded once `deadline` passes."""
    for i, copy in enumerate(copies):
        if i % _DEADLINE_EVERY == 0 and time.monotonic() >= deadline:
            raise SearchBudgetExceeded("copy enumeration passed the deadline")
        yield copy


def _save_atomic(fname: str, arr: np.ndarray) -> None:
    """np.save through a temp file, so readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(fname),
                               prefix=os.path.basename(fname) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, arr)
        os.replace(tmp, fname)
    except BaseException:
        os.unlink(tmp)
        raise


def _n_copies(N: int, k: int, t: LooseTemplate) -> int:
    """Copies of t in K^k_N in closed form: N!/((N-v)! |Aut t|), v = t.n_vertices."""
    f = math.factorial
    if t.kind == PATH:
        aut = f(k) if t.n == 1 else 2 * f(k - 1) ** 2 * f(k - 2) ** (t.n - 2)
    else:
        aut = 2 * t.n * f(k - 2) ** t.n
    return math.perm(N, t.n_vertices) // aut


def _load_table(fname: str, N: int, k: int, t: LooseTemplate) -> Optional[np.ndarray]:
    """The .npy table at fname, or None unless it is shaped and ranged like
    a fresh one: int64, one row per copy, t.n ranks in [0, C(N, k))."""
    try:
        with open(fname, "rb") as fh:
            arr = np.lib.format.read_array(fh)
    except (OSError, ValueError, EOFError):
        return None
    if arr.dtype != np.int64 or arr.shape != (_n_copies(N, k, t), t.n) or (
            arr.size and not 0 <= arr.min() <= arr.max() < math.comb(N, k)):
        return None
    arr.flags.writeable = False
    return arr


def copy_rank_matrix(N: int, k: int, t: LooseTemplate, *,
                     deadline: Optional[float] = None) -> np.ndarray:
    """Copies of t in K^k_N as rows of ascending colex edge ranks.

    Rows are lexicographically sorted, so the matrix is canonical.  Cached
    in memory, and on disk under $RAMSEY_LAB_CACHE when that is set; a
    disk table of the wrong shape or range is recomputed and rewritten.
    With a `deadline` (a `time.monotonic()` reading), enumeration raises
    SearchBudgetExceeded once it passes, and nothing is cached.
    """
    key = (N, k, t.kind, t.n)
    hit = _COPY_CACHE.get(key)
    if hit is not None:
        return hit
    cache_dir = os.environ.get("RAMSEY_LAB_CACHE")
    fname = None
    if cache_dir:
        fname = os.path.join(cache_dir, f"copies-{t.kind}{t.n}-k{k}-N{N}.npy")
        arr = _load_table(fname, N, k, t)
        if arr is not None:
            _COPY_CACHE[key] = arr
            return arr
    copies = iter_copies(N, k, t)
    if deadline is not None:
        copies = _until(copies, deadline)
    rows = sorted(tuple(sorted(colex_rank(e) for e in copy))
                  for copy in copies)
    arr = np.array(rows, dtype=np.int64) if rows else np.empty((0, t.n), dtype=np.int64)
    arr.flags.writeable = False
    _COPY_CACHE[key] = arr
    if fname:
        os.makedirs(cache_dir, exist_ok=True)
        _save_atomic(fname, arr)
    return arr


def count_copies(N: int, k: int, t: LooseTemplate) -> int:
    """Number of edge-set-distinct copies of t in the complete host K^k_N."""
    if not (isinstance(N, int) and N >= 0 and isinstance(k, int) and k >= 2):
        raise ValueError(f"invalid-parameter: N={N}, k={k}")
    if t.k != k:
        raise ValueError(f"invalid-parameter: template k={t.k} but k={k} given")
    if t.n_vertices > N:
        return 0
    return int(copy_rank_matrix(N, k, t).shape[0])


# ---------------------------------------------------------------------------
# maximality with respect to a reservoir W
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalityQuery:
    """A red loose path plus a disjoint vertex reservoir W."""

    path: Embedding
    W: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "W", frozenset(int(v) for v in self.W))


def is_maximal_wrt(c: TwoColoring, q: MaximalityQuery) -> bool:
    """True iff no red (n+1)-edge path covers V(P) plus k-1 reservoir vertices.

    The replacement swaps a window e_i..e_{i+r-1} of P for r+1 new red edges
    whose vertices are the window's plus a fresh W' from W; if the window
    touches an end of P, the old extreme vertex must stay in the new extreme
    edge.  New-vertex counting forces |W'| = k-1 exactly, and the search
    space per (W', r, i) collapses to an embedding search over the window
    vertices, W', and one attachment vertex on each surviving side.
    """
    P = q.path
    t = P.template
    if t.kind != PATH:
        raise ValueError("precondition-violation: maximality is defined for paths")
    red_ok = verify_embedding(c, replace(P, claimed_color="red"))
    if not red_ok:
        raise ValueError(f"precondition-violation: path not red-valid ({red_ok.reason})")
    if q.W & P.image:
        raise ValueError("precondition-violation: W intersects the path image")

    k, n = t.k, t.n
    if len(q.W) < k - 1:
        return True
    old_edges = P.edge_images()
    vp = set(P.image)
    first_v = P.vertex_image(1)
    last_v = P.vertex_image(t.n_vertices)

    for Wp in combinations(sorted(q.W), k - 1):
        base = vp | set(Wp)
        for r in range(1, n + 1):
            seg = path_template(k, r + 1)
            seg_last = (r + 1) * (k - 1) + 1
            for i in range(1, n - r + 2):
                kept = old_edges[:i - 1] + old_edges[i + r - 1:]
                kept_vs = set().union(*kept) if kept else set()
                pool_core = base - kept_vs

                if i >= 2:
                    cp_cands = set(old_edges[i - 2])
                    if i >= 3:
                        cp_cands -= set(old_edges[i - 3])
                    starts = [({1: cp}, cp) for cp in sorted(cp_cands)]
                else:
                    starts = [({1: first_v}, None), ({k: first_v}, None)]
                if i + r <= n:
                    cs_cands = set(old_edges[i + r - 1])
                    if i + r + 1 <= n:
                        cs_cands -= set(old_edges[i + r])
                    ends = [({seg_last: cs}, cs) for cs in sorted(cs_cands)]
                else:
                    ends = [({seg_last: last_v}, None),
                            ({r * (k - 1) + 1: last_v}, None)]

                for sfix, cp in starts:
                    for efix, cs in ends:
                        fixed = dict(sfix)
                        conflict = False
                        for p, v in efix.items():
                            if p in fixed and fixed[p] != v:
                                conflict = True
                            fixed[p] = v
                        if conflict or len(set(fixed.values())) != len(fixed):
                            continue
                        pool = set(pool_core)
                        if cp is not None:
                            pool.add(cp)
                        if cs is not None:
                            pool.add(cs)
                        if len(pool) != seg.n_vertices:
                            raise AssertionError("internal: replacement pool size\
 mismatch")
                        found = find_embedding(c, "red", seg, fixed, within=pool)
                        if found is None:
                            continue
                        new_edges = found.edge_images()
                        full = old_edges[:i - 1] + new_edges + old_edges[i + r - 1:]
                        if not is_loose_sequence(full, PATH):
                            raise AssertionError("internal: replacement assembly\
 is not loose")
                        return False
    return True
