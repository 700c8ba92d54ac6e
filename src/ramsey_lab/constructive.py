"""Constructive procedures that turn structural hypotheses into certificates.

Every operation here consumes a concrete two-coloring plus some already
verified monochromatic structure and either

* produces a new verified structure (an Embedding, a configuration, a pair
  of adjacent bichromatic edges, a join trace), or
* raises HypothesisViolation, with a machine-checkable witness (an
  Embedding or an edge) where there is one, showing that the caller's
  hypotheses were false on this instance, or
* raises ProofGap when a construction that is guaranteed to exist could not
  be completed; the instance is attached for offline study.

Nothing is self-trusted: outputs are re-validated through the embedder
primitives before they are returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator, List, NoReturn, Optional, Sequence, Tuple

from .certificates import make_certificate
from .coloring import TwoColoring, json_int
from .core import (CYCLE, Edge, LooseTemplate, cycle_template, cycle_value,
                   path_template)
from .embedder import (Embedding, embedding_from_edge_sequence, find_embedding,
                       is_maximal_wrt, verify_embedding)
from .errors import HypothesisViolation, ProofGap

__all__ = [
    "GoodConfiguration", "validate_good_configuration",
    "find_good_configuration", "AbsorptionResult", "absorb_blue_path",
    "case2_blue_cycle", "blue_cycle_from_red_shorter_cycle",
    "JoinStep", "JoinTrace", "join_red_cycles",
    "BichromaticPair", "adjacent_bichromatic_pair",
    "disjoint_bichromatic_pairs", "lift_blue_c4", "to_certificate",
]


# ---------------------------------------------------------------------------
# host positions
# ---------------------------------------------------------------------------

def _at(asg: Sequence[int], j: int) -> int:
    """Host vertex carrying template position j (1-based) of an assignment;
    a cycle's positions wrap around, a path's indices never need to."""
    return asg[(j - 1) % len(asg)]


def _outside(c: TwoColoring, S) -> List[int]:
    """The host vertices not in S, ascending: the reservoir around S."""
    return sorted(set(range(1, c.n_vertices + 1)) - S)


def _edge_host(asg: Sequence[int], i: int) -> Tuple[int, int, int]:
    """Host vertices of path edge e_i for a 3-uniform path assignment."""
    return (_at(asg, 2 * i - 1), _at(asg, 2 * i), _at(asg, 2 * i + 1))


def _A_host(asg: Sequence[int], j: int) -> Tuple[int, ...]:
    """Entry set A_j: the start vertex for j=1, else e_{j-1} minus its first."""
    if j == 1:
        return (_at(asg, 1),)
    return (_at(asg, 2 * j - 2), _at(asg, 2 * j - 1))


# ---------------------------------------------------------------------------
# checks shared by the lemmas
# ---------------------------------------------------------------------------

def _require_valid(c: TwoColoring, S: Embedding, color: str, what: str) -> None:
    """Raise HypothesisViolation unless the input structure S is a valid
    `color` copy of its template in c."""
    res = verify_embedding(c, replace(S, claimed_color=color))
    if not res:
        raise HypothesisViolation(f"{what} not {color}-valid: {res.reason}")


def _fail(c: TwoColoring, failure: Exception,
          forbidden: Sequence[Tuple[str, LooseTemplate, str]]) -> NoReturn:
    """Raise `failure`, unless a complete search finds in c a copy of one
    of the `forbidden` (color, template, name) structures, in order, that
    the lemma's hypotheses exclude: then raise HypothesisViolation with
    that copy as the witness."""
    for color, t, what in forbidden:
        hit = find_embedding(c, color, t)
        if hit is not None:
            raise HypothesisViolation(f"a {what} is present", witness=hit)
    raise failure


def _gap(c: TwoColoring, message: str, **fields) -> ProofGap:
    """A ProofGap whose instance is the coloring, then `fields` in order."""
    return ProofGap(message, {"coloring": c.to_json_obj(), **fields})


def _verified_cycle(c: TwoColoring, edges: Sequence, color: str,
                    what: str) -> Embedding:
    """The loose cycle through `edges` in order, re-verified against c; a
    failure, edges that form no loose cycle included, is a ProofGap
    carrying the coloring and the edges."""
    try:
        emb = embedding_from_edge_sequence(edges, CYCLE, color)
        reason = verify_embedding(c, emb).reason
    except ValueError as exc:  # the edges form no loose cycle
        reason = str(exc)
    if reason is not None:
        raise _gap(c, f"{what} fails verification: {reason}",
                   edges=[sorted(x) for x in edges])
    return emb


# ---------------------------------------------------------------------------
# good configurations: a blue 2-edge bridge threaded through a red path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoodConfiguration:
    """Blue two-edge path <{x,a1,a2},{a2,a3,y}> anchored at (e_i, e_{i+1}).

    Self-contained: carries the ambient red path's assignment, the reservoir
    and the entry vertex u, so that validation needs only the coloring.
    """

    x: int
    y: int
    a1: int
    a2: int
    a3: int
    anchor_i: int
    avoided_vertex: int
    u: int
    path_assignment: Tuple[int, ...]
    W: frozenset

    def __post_init__(self):
        object.__setattr__(self, "path_assignment",
                           tuple(int(v) for v in self.path_assignment))
        object.__setattr__(self, "W", frozenset(int(v) for v in self.W))

    @property
    def S(self) -> frozenset:
        return frozenset((self.a1, self.a2, self.a3))

    def bridge(self) -> Embedding:
        return Embedding(path_template(3, 2),
                         (self.x, self.a1, self.a2, self.a3, self.y), "blue")

    def to_json_obj(self) -> dict:
        return {
            "x": self.x, "y": self.y,
            "a1": self.a1, "a2": self.a2, "a3": self.a3,
            "anchor_i": self.anchor_i,
            "avoided_vertex": self.avoided_vertex,
            "u": self.u,
            "path_assignment": list(self.path_assignment),
            "W": sorted(self.W),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GoodConfiguration":
        return cls(*(json_int(obj[key]) for key in ("x", "y", "a1", "a2", "a3",
                                                    "anchor_i", "avoided_vertex", "u")),
                   json_int(obj["path_assignment"], 1), json_int(obj["W"], 1))


def validate_good_configuration(c: TwoColoring,
                                cfg: GoodConfiguration) -> Tuple[bool, str]:
    """Re-check every invariant of a configuration against the coloring."""
    if c.k != 3:
        return (False, "uniformity-not-3")
    asg = cfg.path_assignment
    if len(asg) < 5 or len(asg) % 2 == 0:
        return (False, "bad-path-length")
    n = (len(asg) - 1) // 2
    i = cfg.anchor_i
    if not 1 <= i <= n - 1:
        return (False, "anchor-out-of-range")
    P = Embedding(path_template(3, n), asg, "red")
    res = verify_embedding(c, P)
    if not res:
        return (False, f"path-not-red:{res.reason}")
    if cfg.W & P.image:
        return (False, "reservoir-meets-path")
    if cfg.x not in cfg.W or cfg.y not in cfg.W or cfg.x == cfg.y:
        return (False, "ends-not-in-reservoir")
    if cfg.u not in _A_host(asg, i):
        return (False, "u-not-in-entry-set")
    res = verify_embedding(c, cfg.bridge())
    if not res:
        return (False, f"bridge:{res.reason}")
    S = set(cfg.S)
    ei = set(_edge_host(asg, i))
    ei1 = set(_edge_host(asg, i + 1))
    base = (ei - {_at(asg, 2 * i - 1)}) | {cfg.u}  # e_i minus its first
    # the pool meets e_{i-1} minus its first vertex, which is A_i, in u
    # alone, so S meets it in at most one vertex
    if not any(S <= (base | (ei1 - {v})) for v in _A_host(asg, i + 2)):
        return (False, "S-outside-pool")
    if cfg.avoided_vertex not in ei1 - ei:
        return (False, "avoided-not-in-forward-difference")
    if cfg.avoided_vertex in S:
        return (False, "avoided-in-S")
    return (True, "ok")


def _iter_good_configurations(c: TwoColoring, P: Embedding, W: frozenset,
                              i: int, u: int,
                              require_x: Optional[int] = None
                              ) -> Iterator[GoodConfiguration]:
    """Validated configurations at anchor i, in proof order.

    Candidates are exactly the cases of the underlying argument (reroute
    through v_{2i}, reroute through v_{2i+2}/v_{2i+3}, one of the four
    u/v_{2i} bridges blue, all four red).  Every candidate is filtered
    through validate_good_configuration, so a case whose blueness
    assumptions fail on this instance contributes nothing; when no case
    applies the iterator is empty and the caller raises ProofGap.
    """
    asg = P.assignment
    v2i_1, v2i, v2i1 = _edge_host(asg, i)
    v2i2, v2i3 = _at(asg, 2 * i + 2), _at(asg, 2 * i + 3)
    Wl = sorted(W)

    def candidates():
        # reroute at v_{2i}: some {u,v_{2i},x} red exiles x from the ends
        for x in Wl:
            if c.is_red((u, v2i, x)):
                rest = [w for w in Wl if w != x]
                for xp, xpp in itertools.permutations(rest, 2):
                    yield (xp, v2i1, v2i, v2i2, xpp, v2i3)
        # reroute at the far pair: some {v_{2i+2},v_{2i+3},x} red
        for x in Wl:
            if c.is_red((v2i2, v2i3, x)):
                rest = [w for w in Wl if w != x]
                for xp, xpp in itertools.permutations(rest, 2):
                    yield (xp, v2i1, v2i2, v2i, xpp, v2i3)
        # one of the four short bridges from {u, v_{2i}} is blue
        for y in Wl:
            bridges = (
                ((u, v2i1, y), v2i, u, v2i1),
                ((v2i, v2i1, y), u, v2i, v2i1),
                ((u, v2i2, y), v2i, u, v2i2),
                ((v2i, v2i2, y), u, v2i, v2i2),
            )
            for f, a1v, a2v, a3v in bridges:
                if not c.is_red(f):
                    for x in Wl:
                        if x == y:
                            continue
                        for avoided in (v2i3, v2i2):
                            if avoided != a3v:
                                yield (x, a1v, a2v, a3v, y, avoided)
        # all four bridges red: close through v_{2i+3}
        for a, b in itertools.permutations(Wl, 2):
            yield (a, u, v2i, v2i3, b, v2i2)

    seen = set()
    for x, a1, a2, a3, y, avoided in candidates():
        for xx, b1, b2, b3, yy in ((x, a1, a2, a3, y), (y, a3, a2, a1, x)):
            if require_x is not None and xx != require_x:
                continue
            key = (xx, b1, b2, b3, yy, avoided)
            if key in seen:
                continue
            seen.add(key)
            cfg = GoodConfiguration(xx, yy, b1, b2, b3, i, avoided, u,
                                    asg, W)
            if validate_good_configuration(c, cfg)[0]:
                yield cfg


def _maximal_path_input(c: TwoColoring, P: Embedding, W) -> frozenset:
    """W as a set, once c and P are 3-uniform and |W| >= 3; that P is a
    path is `is_maximal_wrt`'s precondition."""
    if c.k != 3 or P.template.k != 3:
        raise ValueError("invalid-parameter: needs a 3-uniform host path")
    W = frozenset(int(v) for v in W)
    if len(W) < 3:
        raise HypothesisViolation("reservoir too small: need |W| >= 3")
    return W


def _check_maximal(c: TwoColoring, P: Embedding, W: frozenset) -> None:
    if not is_maximal_wrt(c, P, W):
        raise HypothesisViolation(
            "path is not maximal with respect to the reservoir")


def find_good_configuration(c: TwoColoring, P: Embedding, W, i: int,
                            u: int) -> GoodConfiguration:
    """First good configuration at anchor (e_i, e_{i+1}) of a maximal path."""
    W = _maximal_path_input(c, P, W)
    n = P.template.n
    if not 1 <= i <= n - 1:
        raise HypothesisViolation(f"anchor {i} outside 1..{n - 1}")
    if u not in _A_host(P.assignment, i):
        raise HypothesisViolation(f"entry vertex {u} not in A_{i}")
    _check_maximal(c, P, W)
    for cfg in _iter_good_configurations(c, P, W, i, u):
        return cfg
    raise _gap(c, "no good configuration at a valid anchor",
               path=P.to_json_obj(), W=sorted(W), i=i, u=u)


# ---------------------------------------------------------------------------
# absorbing the reservoir into a blue path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbsorptionResult:
    """A blue path Q that absorbs reservoir vertices two host edges at a time.

    Q has 2t edges where t = |W_used| - 1; r host-path edges at the tail
    were not consumed, and 2t = n - r.
    """

    Q: Embedding
    W_used: frozenset
    r: int
    configurations: Tuple[GoodConfiguration, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "W_used",
                           frozenset(int(v) for v in self.W_used))
        object.__setattr__(self, "configurations",
                           tuple(self.configurations))


def absorb_blue_path(c: TwoColoring, P: Embedding, W) -> AbsorptionResult:
    """Chain good configurations over (e_1,e_2), (e_3,e_4), ... into one Q.

    Step 1 enters at the path's start vertex; step k+1 enters at the vertex
    avoided by step k, which lies in the entry set of the next anchor.  The
    chain shares ends (x_{k+1} = y_k) and stops as soon as fewer than two
    host edges or fewer than two fresh reservoir vertices remain.
    """
    W = _maximal_path_input(c, P, W)
    n = P.template.n
    if n < 2:
        raise HypothesisViolation("path must have at least 2 edges")
    _check_maximal(c, P, W)
    asg = P.assignment

    def dfs(k: int, used: frozenset, u_k: int,
            chain: Tuple[GoodConfiguration, ...]
            ) -> Optional[Tuple[GoodConfiguration, ...]]:
        rem = n - 2 * (k - 1)
        fresh = len(W) - k
        if rem < 2 or fresh < 2:
            return chain
        require = chain[-1].y if chain else None
        for cfg in _iter_good_configurations(c, P, W, 2 * k - 1, u_k,
                                             require_x=require):
            if cfg.y in used:  # x is fresh at k = 1 and is y_{k-1} after
                continue
            done = dfs(k + 1, used | {cfg.x, cfg.y}, cfg.avoided_vertex,
                       chain + (cfg,))
            if done is not None:
                return done
        return None

    chain = dfs(1, frozenset(), _at(asg, 1), ())
    if chain is None:
        raise _gap(c, "absorption chain could not be completed",
                   path=P.to_json_obj(), W=sorted(W))
    t = len(chain)
    qasg: List[int] = [chain[0].x]
    for cfg in chain:
        qasg.extend((cfg.a1, cfg.a2, cfg.a3, cfg.y))
    Q = Embedding(path_template(3, 2 * t), tuple(qasg), "blue")
    res = verify_embedding(c, Q)
    if not res:
        raise _gap(c, f"assembled blue path fails verification: {res.reason}",
                   Q=Q.to_json_obj())
    r = n - 2 * t
    W_used = frozenset([chain[0].x] + [cfg.y for cfg in chain])
    # invariant sweep: the type's equalities plus the tail avoidance
    assert 2 * t == 2 * (len(W_used) - 1) == n - r
    consumed = {_at(asg, j) for j in range(1, 4 * t + 2)}
    assert set(qasg) - W_used <= consumed
    tail = {_at(asg, 4 * t), _at(asg, 4 * t + 1)}
    avoided = chain[-1].avoided_vertex
    assert avoided in tail and avoided not in set(qasg)
    assert len(W - W_used) <= 1 or 0 <= r <= 1
    return AbsorptionResult(Q, W_used, r, chain)


# ---------------------------------------------------------------------------
# explicit blue cycle when every reservoir bridge over a red cycle is blue
# ---------------------------------------------------------------------------

def case2_blue_cycle(c: TwoColoring, C: Embedding, W: Sequence[int],
                     m: int) -> Embedding:
    """Formula-driven blue m-cycle over a red cycle whose bridges are all blue.

    Hypothesis: for every edge {v_{2i-1},v_{2i},v_{2i+1}} of the red cycle C
    and every z in W, both {v_{2i-1},v_{2i},z} and {v_{2i},v_{2i+1},z} are
    blue.  The output alternates reservoir vertices with designated cycle
    pairs and never consults any other edge of the coloring.
    """
    if c.k != 3 or C.template.k != 3 or C.template.kind != CYCLE:
        raise ValueError("invalid-parameter: needs a 3-uniform host cycle")
    if m < 3:
        raise ValueError("invalid-parameter: m >= 3")
    xs = [int(z) for z in W]
    needed = (m + 1) // 2
    if len(xs) < needed:
        raise HypothesisViolation(
            f"need at least {needed} reservoir vertices, got {len(xs)}")
    if len(set(xs)) != len(xs) or set(xs) & C.image:
        raise HypothesisViolation("reservoir vertices must be fresh and distinct")
    nv = 2 * C.template.n
    maxv = 3 * m // 2 + 1 if m % 2 == 0 else (3 * m - 1) // 2
    if nv < maxv:
        raise HypothesisViolation("host cycle too short for the target length")
    _require_valid(c, C, "red", "host cycle")
    bridge = _red_bridge(c, C, xs)
    if bridge is not None:
        raise HypothesisViolation(
            "bridge hypothesis fails: red edge over the cycle", witness=bridge)
    V = partial(_at, C.assignment)
    edges: List[Tuple[int, int, int]] = []
    for fi in range(1, m):
        if fi % 2 == 1:
            edges.append((xs[(fi + 1) // 2 - 1],
                          V((3 * fi + 1) // 2), V((3 * fi + 3) // 2)))
        else:
            edges.append((V(3 * fi // 2), V(3 * fi // 2 + 1), xs[fi // 2]))
    if m % 2 == 0:
        edges.append((xs[0], V(3 * m // 2), V(3 * m // 2 + 1)))
    else:
        edges.append((xs[(m + 1) // 2 - 1], V(1), V(2)))

    return _verified_cycle(c, edges, "blue", "formula cycle")


def _red_bridge(c: TwoColoring, C: Embedding,
                xs: Sequence[int]) -> Optional[Edge]:
    """The first red bridge {v_{2i-1},v_{2i},z} or {v_{2i},v_{2i+1},z} over
    the 3-uniform cycle C with z in xs, sorted; None when all are blue."""
    asg = C.assignment
    for j in range(1, len(asg), 2):
        w1, w2, w3 = _at(asg, j), _at(asg, j + 1), _at(asg, j + 2)
        for z in xs:
            for e in ((w1, w2, z), (w2, w3, z)):
                if c.is_red(e):
                    return tuple(sorted(e))
    return None


def blue_cycle_from_red_shorter_cycle(c: TwoColoring, C: Embedding, n: int,
                                      m: int, *,
                                      meta: Optional[dict] = None) -> Embedding:
    """Blue m-cycle from a red (n-1)-cycle in a host with no red n-cycle.

    Dispatches to the explicit bridge formulas when every reservoir bridge
    is blue (`meta["case"]` 2); otherwise the guaranteed existence is
    discharged by a complete embedder search (case 1).  The no-red-n-cycle
    hypothesis is consulted only when the construction fails: a red
    n-cycle found by a complete search is a HypothesisViolation carrying
    it, and only its absence makes the failure a ProofGap.
    """
    if c.k != 3:
        raise ValueError("invalid-parameter: k must be 3")
    if not n >= m >= 3:
        raise ValueError("invalid-parameter: need n >= m >= 3")
    if (n, m) in ((3, 3), (4, 3), (4, 4)):
        raise ValueError(f"invalid-parameter: (n,m)=({n},{m}) is excluded")
    if c.n_vertices != cycle_value(3, n, m):
        raise HypothesisViolation(f"host must have {cycle_value(3, n, m)} vertices")
    if C.template.kind != CYCLE or C.template.k != 3 or C.template.n != n - 1:
        raise HypothesisViolation("given embedding is not a (n-1)-cycle")
    _require_valid(c, C, "red", "cycle")

    xs = _outside(c, C.image)
    assert len(xs) == (m - 1) // 2 + 2
    case = 2 if _red_bridge(c, C, xs) is None else 1
    if meta is not None:
        meta["case"] = case
    try:
        if case == 2:
            return case2_blue_cycle(c, C, xs, m)
        emb = find_embedding(c, "blue", cycle_template(3, m))
        if emb is None:
            raise _gap(c, "no blue cycle of the target length despite valid "
                       "hypotheses", C=C.to_json_obj(), n=n, m=m)
        return emb
    except ProofGap as gap:
        _fail(c, gap, [("red", cycle_template(3, n), "red cycle of full length")])


# ---------------------------------------------------------------------------
# joining two disjoint red cycles (k >= 4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JoinStep:
    """One probe of the join iteration: both swap candidates with colors."""

    g: Edge
    g_color: str
    h: Edge
    h_color: str

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(sorted(self.g)))
        object.__setattr__(self, "h", tuple(sorted(self.h)))


@dataclass(frozen=True)
class JoinTrace:
    steps: Tuple[JoinStep, ...]
    outcome_kind: str  # "red-cycle" | "blue-cycle"
    outcome: Embedding

    def to_payload(self) -> dict:
        rows = [{"edge": list(e), "color": color} for s in self.steps
                for e, color in ((s.g, s.g_color), (s.h, s.h_color))]
        return {"steps": rows, "outcome_kind": self.outcome_kind,
                "result": self.outcome.to_json_obj()}


def join_red_cycles(c: TwoColoring, C1: Embedding, C2: Embedding,
                    ell: int) -> JoinTrace:
    """Merge two disjoint red cycles or extract a short blue cycle.

    At each step two swap edges g_i, h_i are formed by exchanging connector
    blocks between the cycles.  If both are red the two cycles merge into
    one red cycle of combined length; otherwise a blue edge is banked and
    the iteration continues, closing after ell-2 banked edges with a
    two-edge endgame that yields a blue ell-cycle.  All index choices are
    pinned by the invariant that consecutive banked edges share exactly one
    designated connector.
    """
    k = c.k
    if k < 4:
        raise ValueError("invalid-parameter: k >= 4 required")
    for C in (C1, C2):
        if C.template.kind != CYCLE or C.template.k != k:
            raise HypothesisViolation("inputs must be k-uniform cycles")
    n, m = C1.template.n, C2.template.n
    if not n >= m >= 3:
        raise HypothesisViolation("need n >= m >= 3 (pass the longer cycle first)")
    if not 3 <= ell <= m:
        raise ValueError("invalid-parameter: 3 <= ell <= m")
    if c.n_vertices < (k - 1) * (n + m):
        raise HypothesisViolation("host too small to hold both cycles")
    if C1.image & C2.image:
        raise HypothesisViolation("cycles are not vertex-disjoint")
    for C in (C1, C2):
        _require_valid(c, C, "red", "cycle")

    kk = k - 1
    v, u = partial(_at, C1.assignment), partial(_at, C2.assignment)
    E, F = C1.edge_images(), C2.edge_images()

    def extremal(s: set, i: int, vf, take_max: bool) -> int:
        """The vertex of s at the last (or first) position of cycle edge i,
        through the position map vf (v for C1, u for C2)."""
        idx = [j for j in range((i - 1) * kk + 1, i * kk + 2) if vf(j) in s]
        if not idx:
            raise _gap(c, "banked edge misses the expected cycle edge")
        return vf(max(idx) if take_max else min(idx))

    steps: List[JoinStep] = []

    def settle(g: set, h: set):
        """Record the step; return None if both are red, else the banked blue edge."""
        gc, hc = c.color_of(g), c.color_of(h)
        steps.append(JoinStep(tuple(g), gc, tuple(h), hc))
        if gc == "red" and hc == "red":
            return None
        return g if gc == "blue" else h

    def finish(kind: str, edge_seq: list, color: str) -> JoinTrace:
        emb = _verified_cycle(c, edge_seq, color, "join assembly")
        return JoinTrace(tuple(steps), kind, emb)

    # steps 1 .. ell-2; with x_1 = v_1 and y_1 = u_1, step 1 exchanges
    # the connector blocks at the shared start
    s_list: List[set] = []  # s_1 .. s_{ell-2}
    xi, yi = v(1), u(1)
    for i in range(1, ell - 1):
        if i > 1:
            xi = extremal(s_list[-1], i - 1, v, take_max=True)
            yi = extremal(s_list[-1], i - 1, u, take_max=True)
        gi = (set(E[i - 1]) - {v((i - 1) * kk + 1), v(i * kk), v(i * kk + 1)}) \
            | {xi, u(i * kk), u(i * kk + 1)}
        hi = (set(F[i - 1]) - {u((i - 1) * kk + 1), u(i * kk), u(i * kk + 1)}) \
            | {yi, v(i * kk), v(i * kk + 1)}
        if len(gi) != k or len(hi) != k:
            raise _gap(c, "swap edge has wrong size", i=i)
        banked = settle(gi, hi)
        if banked is None:
            return finish("red-cycle",
                          [hi] + E[i:] + E[:i - 1] + [gi] + F[i:] + F[:i - 1],
                          "red")
        s_list.append(banked)

    # endgame: probe the pair anchored at e_n / f_{ell-1}
    s1 = s_list[0]
    s_last = s_list[-1]
    x1 = extremal(s1, 1, v, take_max=False)
    y1 = extremal(s1, 1, u, take_max=False)
    y_lm1 = extremal(s_last, ell - 2, u, take_max=True)
    g_lm1 = (set(E[n - 1]) - {v((n - 1) * kk + 1), v((n - 1) * kk + 2), v(1)}) \
        | {x1, u((ell - 1) * kk), u((ell - 1) * kk + 1)}
    h_lm1 = (set(F[ell - 2]) - {u((ell - 2) * kk + 1), u((ell - 1) * kk),
                                u((ell - 1) * kk + 1)}) \
        | {y_lm1, v((n - 1) * kk + 1), v((n - 1) * kk + 2)}
    banked = settle(g_lm1, h_lm1)
    if banked is None:
        desc = [F[j - 1] for j in range(ell - 2, 0, -1)] \
            + [F[j - 1] for j in range(m, ell - 1, -1)]
        return finish("red-cycle",
                      [g_lm1] + E[:n - 1] + [h_lm1] + desc, "red")

    if banked == g_lm1:
        # bank g_{ell-1}; one more exchanged pair closes the blue cycle
        x_lm1 = extremal(s_last, ell - 2, v, take_max=True)
        g_l = (set(E[ell - 2]) - {v((ell - 2) * kk + 1), v((ell - 1) * kk),
                                  v((ell - 1) * kk + 1)}) \
            | {x_lm1, u((ell - 2) * kk + k - 2), u((ell - 1) * kk + 1)}
        h_l = (set(F[ell - 2]) - {u((ell - 2) * kk + 1), u((ell - 2) * kk + k - 2),
                                  u((ell - 1) * kk + 1)}) \
            | {y_lm1, v((ell - 1) * kk), v((ell - 1) * kk + 1)}
        closing = settle(g_l, h_l)
        if closing is None:
            return finish("red-cycle",
                          [h_l] + E[ell - 1:] + E[:ell - 2] + [g_l]
                          + F[ell - 1:] + F[:ell - 2], "red")
        return finish("blue-cycle", s_list + [closing, g_lm1], "blue")

    # h_{ell-1} is the banked edge; close through the primed pair
    g_pl = (set(E[n - 1]) - {v((n - 1) * kk + 2), v(1)}) | {u(m * kk), y1}
    h_pl = (set(F[m - 1]) - {u(m * kk), u(1)}) | {v((n - 1) * kk + 2), x1}
    closing = settle(g_pl, h_pl)
    if closing is None:
        return finish("red-cycle",
                      E[:n - 1] + [g_pl] + F[:m - 1] + [h_pl], "red")
    return finish("blue-cycle", s_list + [h_lm1, closing], "blue")


# ---------------------------------------------------------------------------
# bichromatic pairs sharing k-1 vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BichromaticPair:
    """A red edge and a blue edge intersecting in exactly k-1 vertices."""

    red_edge: Edge
    blue_edge: Edge

    def __post_init__(self):
        object.__setattr__(self, "red_edge",
                           tuple(sorted(int(v) for v in self.red_edge)))
        object.__setattr__(self, "blue_edge",
                           tuple(sorted(int(v) for v in self.blue_edge)))

    @property
    def union(self) -> frozenset:
        return frozenset(self.red_edge) | frozenset(self.blue_edge)

    def validate(self, c: TwoColoring) -> Tuple[bool, str]:
        k = c.k
        if len(self.red_edge) != k or len(self.blue_edge) != k:
            return (False, "wrong-edge-size")
        if len(set(self.red_edge) & set(self.blue_edge)) != k - 1:
            return (False, "intersection-not-k-minus-1")
        if not c.is_red(self.red_edge):
            return (False, "red-edge-not-red")
        if c.is_red(self.blue_edge):
            return (False, "blue-edge-not-blue")
        return (True, "ok")

    def to_json_obj(self) -> dict:
        return {"red_edge": list(self.red_edge),
                "blue_edge": list(self.blue_edge)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BichromaticPair":
        return cls(json_int(obj["red_edge"], 1), json_int(obj["blue_edge"], 1))


def _first_red_and_blue(c: TwoColoring, verts: Sequence[int]
                        ) -> Tuple[Optional[Edge], Optional[Edge]]:
    """The first red and first blue k-subset of verts, None if absent."""
    red = blue = None
    for e0 in itertools.combinations(verts, c.k):
        if c.is_red(e0):
            if red is None:
                red = e0
        elif blue is None:
            blue = e0
        if red is not None and blue is not None:
            break
    return red, blue


def adjacent_bichromatic_pair(c: TwoColoring, *,
                              within: Optional[Sequence[int]] = None,
                              stats: Optional[dict] = None) -> BichromaticPair:
    """Red and blue edges sharing k-1 vertices, by interpolation.

    Starting from any red/blue pair, the midpoint edge taking half of each
    difference is some color, and pairing it with the opposite-color edge
    strictly grows the intersection; at most k rounds reach k-1.
    """
    k = c.k
    verts = sorted(set(int(x) for x in within)) if within is not None \
        else list(range(1, c.n_vertices + 1))
    if len(verts) < k + 1:
        raise ValueError("host-too-small: need at least k+1 vertices")
    red, blue = _first_red_and_blue(c, verts)
    if red is None or blue is None:
        raise ValueError("monochromatic-coloring: both colors required")

    e, fb = set(red), set(blue)
    rounds = 0
    while len(e & fb) < k - 1:
        rounds += 1
        if rounds > k:  # impossible: the intersection grows every round
            raise _gap(c, "interpolation failed to converge")
        inter = len(e & fb)
        eonly = sorted(e - fb)
        fonly = sorted(fb - e)
        g = set(e & fb) | set(eonly[:(k - inter) // 2]) \
            | set(fonly[:(k - inter + 1) // 2])
        if c.is_red(g):
            e = g
        else:
            fb = g
    if stats is not None:
        stats["iterations"] = rounds
    pair = BichromaticPair(tuple(e), tuple(fb))
    ok, why = pair.validate(c)
    if not ok:
        raise _gap(c, f"interpolated pair fails validation: {why}")
    return pair


# ---------------------------------------------------------------------------
# two vertex-disjoint bichromatic pairs
# ---------------------------------------------------------------------------

def _reservoir_cycle(c: TwoColoring, e1_edge: set, mid_edge: set, mid_w: int,
                     end_edge: set, end_w: int, rest: Sequence[int],
                     t: int) -> Embedding:
    """Assemble the explicit red t-cycle that an all-red reservoir forces.

    Cycle order: e1, mid, chain through `rest`, end; mid meets e1 in one
    labelled vertex and the chain in mid_w; end meets the chain in end_w
    and e1 in its labelled vertex.
    """
    k = c.k
    seq = [mid_w] + sorted(rest) + [end_w]
    chain = [tuple(seq[j * (k - 1): j * (k - 1) + k]) for j in range(t - 3)]
    return _verified_cycle(c, [e1_edge, mid_edge] + chain + [end_edge], "red",
                           "forced red cycle")


def disjoint_bichromatic_pairs(c: TwoColoring, t: int
                               ) -> Tuple[BichromaticPair, BichromaticPair]:
    """Two vertex-disjoint bichromatic pairs, each sharing k-1 vertices.

    Valid whenever the host has t(k-1)+1 vertices, t >= 5, and carries
    neither a red t-cycle nor a blue 3-cycle.  Follows the reservoir case
    analysis: pull one pair anywhere, look at the k+1 leftover-free zone W;
    a bichromatic W yields the second pair inside it, a blue W contradicts
    the hypotheses outright, and an all-red W forces specific star edges to
    be blue (each red exception assembles an explicit red t-cycle witness).
    The hypotheses are consulted only when the analysis fails, or the host
    is monochromatic: a red t-cycle or blue 3-cycle found by a complete
    search is a HypothesisViolation carrying it, and only the absence of
    both makes a failed analysis a ProofGap.
    """
    k = c.k
    if t < 5:
        raise ValueError("invalid-parameter: t >= 5")
    if c.n_vertices != cycle_value(k, t, 3):
        raise HypothesisViolation(f"host must have {cycle_value(k, t, 3)} vertices")
    forbidden = [("red", cycle_template(k, t), "red cycle of length t"),
                 ("blue", cycle_template(k, 3), "blue 3-cycle")]
    if c.red_count in (0, c.n_edges):
        _fail(c, HypothesisViolation(
            "monochromatic coloring cannot satisfy the hypotheses"), forbidden)
    try:
        return _reservoir_case_analysis(c, t)
    except ProofGap as gap:
        _fail(c, gap, forbidden)


def _reservoir_case_analysis(c: TwoColoring, t: int
                             ) -> Tuple[BichromaticPair, BichromaticPair]:
    """The body of `disjoint_bichromatic_pairs` on a bichromatic host."""
    k = c.k
    pair1 = adjacent_bichromatic_pair(c)
    Wv = _outside(c, pair1.union)

    red, blue = _first_red_and_blue(c, Wv)

    result: Optional[Tuple[BichromaticPair, BichromaticPair]] = None
    if red is not None and blue is not None:
        result = (pair1, adjacent_bichromatic_pair(c, within=Wv))
    elif red is None:
        # all reservoir edges blue: a blue 3-cycle sits inside W
        emb = Embedding(cycle_template(k, 3), tuple(Wv[:3 * (k - 1)]), "blue")
        res = verify_embedding(c, emb)
        if res:
            raise HypothesisViolation("blue 3-cycle inside the reservoir",
                                      witness=emb)
    else:
        result = _all_red_reservoir_pairs(c, t, pair1, Wv)

    if result is not None:
        pa, pb = result
        if pa.validate(c)[0] and pb.validate(c)[0] and not (pa.union & pb.union):
            return (pa, pb)
    raise _gap(c, "the reservoir case analysis yielded no two valid disjoint "
               "bichromatic pairs", t=t)


def _all_red_reservoir_pairs(c: TwoColoring, t: int, pair1: BichromaticPair,
                             Wv: Sequence[int]
                             ) -> Tuple[BichromaticPair, BichromaticPair]:
    """Case analysis when every edge inside the reservoir W is red."""
    k = c.k
    e1s, e2s = set(pair1.red_edge), set(pair1.blue_edge)
    (v1,) = e1s - e2s
    (vk1,) = e2s - e1s
    shared = sorted(e1s & e2s)
    vk, vkm1 = shared[-1], shared[-2]
    W1 = list(Wv[:k - 1])
    W2 = list(Wv[k - 1:2 * (k - 1)])
    w = Wv[2 * (k - 1)]
    rest = [x for x in Wv if x not in W1 and x not in W2]

    def refine(region: set) -> BichromaticPair:
        return adjacent_bichromatic_pair(c, within=sorted(region))

    g1 = {v1} | set(W1)
    if not c.is_red(g1):
        g2 = {vk1} | set(W2)
        if c.is_red(g2):
            return (refine(g2 | e2s), refine(g1 | {w}))
        return (refine(e1s | g1), refine(g2 | {w}))

    # g1 red: the star edges into W from v_k, v_{k-1} must all be blue,
    # each red exception closes an explicit red t-cycle
    f1 = {vk} | set(W2)
    if c.is_red(f1):
        emb = _reservoir_cycle(c, e1s, f1, W2[0], g1, W1[0], rest, t)
        raise HypothesisViolation(
            "red t-cycle assembled through the reservoir", witness=emb)
    p2 = {vkm1} | set(W1)
    if not c.is_red(p2):
        return (BichromaticPair(tuple(g1), tuple(p2)),
                BichromaticPair(tuple({w} | set(W2)), tuple(f1)))
    g1b = {v1} | set(W2)
    if c.is_red(g1b):
        emb = _reservoir_cycle(c, e1s, p2, W1[0], g1b, W2[0], rest, t)
        raise HypothesisViolation(
            "red t-cycle assembled through the reservoir", witness=emb)
    # g1 red on W1, {v1}uW2 blue: split along {v1} u W1 u W2 vs the rest
    region_a = {v1} | set(W1) | set(W2)
    region_b = e2s | set(rest)
    return (refine(region_a), refine(region_b))


# ---------------------------------------------------------------------------
# lifting a blue 4-cycle to a longer red cycle
# ---------------------------------------------------------------------------

def lift_blue_c4(c: TwoColoring, C4: Embedding, i: int) -> Embedding:
    """Explicit red i-cycle around a blue 4-cycle, i in {5, 6}.

    The construction rotates connector vertices of the 4-cycle outward and
    plugs reservoir vertices into the listed slots; every listed edge must
    be red, and the first blue one is raised as a HypothesisViolation with
    that edge, sorted, as its witness, so the caller can hunt the blue
    3-cycle it implies.
    """
    k = c.k
    if k < 3:
        raise ValueError("invalid-parameter: k >= 3")
    if i not in (5, 6):
        raise ValueError("invalid-parameter: i must be 5 or 6")
    if c.n_vertices != cycle_value(k, i, 3):
        raise HypothesisViolation(f"host must have {cycle_value(k, i, 3)} vertices")
    if C4.template.kind != CYCLE or C4.template.k != k or C4.template.n != 4:
        raise HypothesisViolation("given embedding is not a 4-cycle")
    _require_valid(c, C4, "blue", "4-cycle")

    v = partial(_at, C4.assignment)
    E1, E2, E3, E4 = map(set, C4.edge_images())
    W = _outside(c, C4.image)

    if i == 5:
        w1 = W[0]
        rest = W[2:]
        edges = [
            (E2 - {v(k)}) | {v(4 * k - 4)},
            (E4 - {v(1)}) | {v(k)},
            (E1 - {v(1)}) | {v(3 * k - 3)},
            {v(3 * k - 3), v(1)} | set(rest),
            (E3 - {v(3 * k - 3), v(3 * k - 2)}) | {v(1), w1},
        ]
    else:
        A = W[:k - 2]
        B = W[k - 2:2 * (k - 2)]
        Cpart = W[2 * (k - 2):]
        u1, u2 = Cpart[0], Cpart[1]
        edges = [
            (E2 - {v(k), v(k + 1)}) | {u1, v(4 * k - 4)},
            (E4 - {v(1)}) | {v(k + 1)},
            (E3 - {v(2 * k - 1), v(2 * k)}) | {v(k), u2},
            set(A) | {v(k), v(2 * k)},
            (E1 - {v(k)}) | {v(2 * k)},
            set(B) | {v(1), v(2 * k - 1)},
        ]

    for ed in edges:
        if not c.is_red(ed):
            raise HypothesisViolation(
                "a listed edge of the lift is blue", witness=tuple(sorted(ed)))
    return _verified_cycle(c, edges, "red", "lift cycle")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def to_certificate(c: TwoColoring, obj, *, lemma: str,
                   seed: Optional[int] = None):
    """Wrap an operation output in a self-contained certificate document."""
    kw = dict(lemma=lemma, seed=seed)
    if isinstance(obj, AbsorptionResult):
        obj = obj.Q
    if isinstance(obj, Embedding):
        return make_certificate("embedding", c,
                                {"embedding": obj.to_json_obj()}, **kw)
    if isinstance(obj, GoodConfiguration):
        return make_certificate("configuration", c,
                                {"configuration": obj.to_json_obj()}, **kw)
    if isinstance(obj, JoinTrace):
        return make_certificate("join-trace", c, obj.to_payload(), **kw)
    if isinstance(obj, BichromaticPair):
        obj = (obj,)
    if isinstance(obj, (tuple, list)) \
            and all(isinstance(p, BichromaticPair) for p in obj):
        return make_certificate("pair-set", c,
                                {"pairs": [p.to_json_obj() for p in obj],
                                 "disjoint": len(obj) == 2}, **kw)
    raise ValueError(f"cannot certify object of type {type(obj).__name__}")
