"""Arrowing decisions, Ramsey-value scans, DIMACS export, table derivation.

The engine is a DPLL over edge variables (1 = red) that watches two
literals per clause: every copy of the red target contributes an
all-negative covering clause, every copy of the blue target an
all-positive one.  Unit propagation over these clauses plus chronological
backtracking is complete, so UNSAT verdicts are sound; a witness is
re-checked before being returned, first by `coloring.split_counting` and
then, for each colour the count does not rule out, by `find_embedding`.
`decide_arrowing` enumerates the copies and hands them to `_kernels`,
which builds the clause instance and runs the library's only search,
`_kernels.search`, in one process; it checks the node and time budgets
while it runs, and the time budget also bounds copy enumeration.

Branching is deterministic: lowest-rank unassigned edge, red phase first.
An optional lex-leader restriction under adjacent vertex transpositions
(red preceding blue in the value order) prunes color-isomorphic subtrees;
it is off by default and never changes verdicts, only which witness shows
up first.  Each transposition reaches the kernel as one row of both
`coloring.swap_pairs` arrays, built only when symmetry breaking is on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels, embedder
from .coloring import (_MAX_EDGES, TwoColoring, all_edges, colex_rank, decoding,
                       host_edges, json_int, split_counting, swap_pairs)
from .core import CYCLE, PATH, LooseTemplate, as_edge, cycle_value, path_value
from .certificates import Certificate
from .constructive import BichromaticPair, GoodConfiguration, validate_good_configuration
from .embedder import (Embedding, copy_rank_matrix, count_copies, find_embedding,
                       verify_embedding)
from .errors import SearchBudgetExceeded

_DIMACS_BLOCK = 4096  # copy rows per block of `export_dimacs` text


@dataclass(frozen=True)
class ArrowingVerdict:
    status: str  # SAT | UNSAT | UNKNOWN
    witness: Optional[TwoColoring]
    stats: dict
    budget: dict

    def to_json_obj(self) -> dict:
        obj = {"status": self.status, "stats": dict(self.stats),
               "budget": dict(self.budget)}
        if self.witness is not None:
            obj["witness"] = self.witness.to_json_obj()
        return obj


@dataclass(frozen=True)
class RamseyClaim:
    k: int
    red: Tuple[str, int]
    blue: Tuple[str, int]
    value: Optional[int]
    lower: int
    upper: Optional[int]
    provenance: str  # search-verified | witness-only | theorem-derived | theorem-extended
    chain: Tuple[str, ...] = ()
    witness: Optional[TwoColoring] = None
    stats: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {
            "k": self.k,
            "red": {"kind": self.red[0], "length": self.red[1]},
            "blue": {"kind": self.blue[0], "length": self.blue[1]},
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "provenance": self.provenance,
            "chain": list(self.chain),
            "stats": dict(self.stats),
        }
        if self.witness is not None:
            obj["witness"] = self.witness.to_json_obj()
        return obj


def decide_arrowing(k: int, N: int, red_target: LooseTemplate,
                    blue_target: LooseTemplate, *,
                    max_nodes: Optional[int] = None,
                    max_secs: Optional[float] = None,
                    symmetry: bool = False) -> ArrowingVerdict:
    """Does every red/blue coloring of K^k_N contain a red red_target or a
    blue blue_target?  UNSAT = yes (N arrows the pair), SAT = no, with a
    verified witness coloring; UNKNOWN only on budget exhaustion.

    `max_secs` is one deadline for the whole call, copy enumeration
    included; `stats["wall_secs"]` is the search time alone,
    `stats["enumerate_s"]` and `stats["build_s"]` time the copy enumeration
    and the clause instance build before it, and `stats["verify_s"]` the
    re-check of a SAT witness after it (0.0 for other verdicts): a colour
    the paper's counting argument rules out on a split witness
    (`coloring.split_counting`) is not searched, the others are searched
    with `find_embedding`.
    `stats["n_vars"]` is the number of edges, C(N, k), and
    `stats["n_clauses"]` the number of red and blue copies the instance
    holds (0 if the deadline passed before it was built).  Of the search,
    `stats` gives the `nodes`, the `propagations` (literals implied at
    conflict-free unit-propagation fixpoints), the `conflicts` (nodes that
    ended in a falsified clause or a symmetry prune) and the `max_depth`
    (most decisions open at once); see `_kernels.search`.
    `stats["cached_tables"]` counts the red and blue copy tables (0, 1 or
    2) that `copy_rank_matrix` answered from memory; a cached spanning
    table a table is lifted from does not count.

    A NaN `max_secs` is refused as `invalid-parameter`, since no time
    compares past it; a negative one is a budget already spent.
    N and the targets' uniformity are checked by `count_copies`.  A host
    with 2**31 edges or more (`host-too-large`), or 2**31 red and
    blue copies together (`copy-table-too-large`), does not fit the
    kernel's int32 ids and is refused before anything is built; a copy
    table too large for the host's memory is refused as
    `copy-table-too-large` before it is allocated.
    """
    if max_secs is not None and math.isnan(max_secs):
        raise ValueError("invalid-parameter: max_secs is NaN, want a number "
                         "of seconds")
    n_red, n_blue = (count_copies(N, k, t) for t in (red_target, blue_target))
    n_vars = host_edges(k, N)
    if n_red + n_blue >= _MAX_EDGES:
        raise ValueError(f"copy-table-too-large: {n_red} red and {n_blue} blue "
                         f"copies in K^{k}_{N}, at most {_MAX_EDGES - 1} "
                         f"clauses are supported")

    t0 = time.monotonic()
    deadline = None if max_secs is None else t0 + max_secs
    budget = {"max_nodes": max_nodes, "max_secs": max_secs,
              "symmetry": symmetry}
    stats = {"nodes": 0, "propagations": 0, "conflicts": 0, "max_depth": 0,
             "wall_secs": 0.0, "enumerate_s": 0.0, "build_s": 0.0,
             "verify_s": 0.0, "n_vars": n_vars, "n_clauses": 0,
             "cached_tables": 0}
    tables = []
    try:
        for t in (red_target, blue_target):
            stats["cached_tables"] += embedder._copy_key(N, k, t) in embedder._COPY_CACHE
            tables.append(copy_rank_matrix(N, k, t, deadline=deadline))
        embedder._check_deadline(deadline)  # past it: build nothing
    except SearchBudgetExceeded:
        stats["enumerate_s"] = time.monotonic() - t0
        return ArrowingVerdict("UNKNOWN", None, stats, budget)
    red_rows, blue_rows = tables
    t1 = time.monotonic()
    instance = _kernels.build_instance(n_vars, red_rows, blue_rows)
    sym = swap_pairs(N, k) if symmetry else ()
    t2 = time.monotonic()
    status, nodes, props, conflicts, depth, assign = _kernels.search(
        instance, sym, max_nodes, deadline)
    stats.update(nodes=nodes, propagations=props, conflicts=conflicts,
                 max_depth=depth, wall_secs=time.monotonic() - t2,
                 enumerate_s=t1 - t0, build_s=t2 - t1,
                 n_clauses=len(red_rows) + len(blue_rows))
    witness = None
    if status == "SAT":
        # free vars: any value works; pick red
        bits = np.where(assign < 0, 1, assign).astype(np.uint8)
        witness = TwoColoring(k, N, bits)
        t3 = time.monotonic()
        _, checks = _target_copies(witness, red_target, blue_target)
        for color, _, hit in checks:
            if hit is not None:
                raise AssertionError(f"engine bug: witness contains a {color} copy")
        stats["verify_s"] = time.monotonic() - t3
    return ArrowingVerdict(status, witness, stats, budget)


def compute_ramsey(k: int, red_family: Tuple[str, int], blue_family: Tuple[str, int],
                   *, max_nodes: Optional[int] = None,
                   max_secs: Optional[float] = None,
                   symmetry: bool = False,
                   max_N: Optional[int] = None) -> RamseyClaim:
    """Ascending-N scan for the exact Ramsey value of the target pair.

    Starts at the larger target's vertex count (below which any coloring is
    admissible) and stops at the first UNSAT, which is the value by
    monotonicity.  Budget exhaustion yields a bounds-only claim.  The
    claim's stats sum the nodes, propagations and conflicts of every level
    and keep the largest max_depth.
    """
    red_t, blue_t = (LooseTemplate(kind, k, int(n))
                     for kind, n in (red_family, blue_family))
    start = max(red_t.n_vertices, blue_t.n_vertices)
    lower = start  # every N < start is SAT: the larger target cannot fit
    chain: List[str] = []
    stats: Dict[str, int] = {"nodes": 0, "propagations": 0, "conflicts": 0,
                             "max_depth": 0}
    witness = None
    N = start
    while max_N is None or N <= max_N:
        v = decide_arrowing(k, N, red_t, blue_t, max_nodes=max_nodes,
                            max_secs=max_secs, symmetry=symmetry)
        for key in ("nodes", "propagations", "conflicts"):
            stats[key] += v.stats[key]
        stats["max_depth"] = max(stats["max_depth"], v.stats["max_depth"])
        if v.status == "SAT":
            lower = N + 1
            witness = v.witness
            chain.append(f"SAT at N={N} (witness verified)")
            N += 1
            continue
        if v.status == "UNSAT":
            chain.append(f"UNSAT at N={N} (exhaustive)")
            return RamseyClaim(k, red_family, blue_family, value=N, lower=lower,
                               upper=N, provenance="search-verified",
                               chain=tuple(chain), witness=witness, stats=stats)
        chain.append(f"UNKNOWN at N={N} (budget exhausted)")
        break
    return RamseyClaim(k, red_family, blue_family, value=None, lower=lower,
                       upper=None, provenance="witness-only",
                       chain=tuple(chain), witness=witness, stats=stats)


# ---------------------------------------------------------------------------
# DIMACS export
# ---------------------------------------------------------------------------

def export_dimacs(k: int, N: int, red_target: LooseTemplate,
                  blue_target: LooseTemplate) -> Tuple[str, dict]:
    """CNF text plus sidecar variable map.

    Variable rank+1 asserts "edge of colex rank is red"; red copies become
    all-negative clauses, blue copies all-positive, in canonical row order.
    A target with more vertices than the host has no copy and adds no
    clause, as in `decide_arrowing`.  N and the targets' uniformity are
    checked by `count_copies`.  A host with 2**31 edges or more is
    refused as `host-too-large` before anything is built, and a copy table
    of 2**31 rows or more, or one too large for the host's memory, as
    `copy-table-too-large`.
    """
    n_red, n_blue = (count_copies(N, k, t) for t in (red_target, blue_target))
    E = host_edges(k, N)
    red_rows = copy_rank_matrix(N, k, red_target)
    blue_rows = copy_rank_matrix(N, k, blue_target)
    varmap = {str(r + 1): list(e) for r, e in enumerate(all_edges(N, k))}
    digest = hashlib.sha256(
        json.dumps(varmap, sort_keys=True).encode()).hexdigest()
    sidecar = {
        "k": k, "n_vertices": N, "red_bit": 1,
        "red_target": {"kind": red_target.kind, "length": red_target.n},
        "blue_target": {"kind": blue_target.kind, "length": blue_target.n},
        "variables": varmap,
        "digest": f"sha256:{digest}",
    }
    lines = [
        f"c K^{k}_{N} arrowing: red {red_target.kind}_{red_target.n}, "
        f"blue {blue_target.kind}_{blue_target.n}",
        "c variable rank+1 true <=> edge at colex rank is red",
        f"c varmap-digest sha256:{digest}",
        f"p cnf {E} {n_red + n_blue}",
    ]
    # one token per rank, one block of _DIMACS_BLOCK rows as Python ints
    # at a time: the whole table as nested lists would outweigh its text
    for rows, sign in ((red_rows, "-"), (blue_rows, "")):
        tok = [f"{sign}{r + 1}" for r in range(E)].__getitem__
        for b0 in range(0, len(rows), _DIMACS_BLOCK):
            lines.append("\n".join(" ".join(map(tok, row)) + " 0"
                                   for row in rows[b0:b0 + _DIMACS_BLOCK].tolist()))
    return "\n".join(lines) + "\n", sidecar


# ---------------------------------------------------------------------------
# table derivation from cycle-cycle bases
# ---------------------------------------------------------------------------

def derive_table(k: int, base: Dict[Tuple[int, int], int], *,
                 extend_to: Optional[int] = None) -> List[RamseyClaim]:
    """Path/cycle values implied by verified cycle-cycle results.

    Each base entry R(C^k_n, C^k_m) = (k-1)n + floor((m-1)/2) yields
    R(P_n, C_m), R(P_n, P_{m-1}) and, on the diagonal, R(P_n, P_n).  When
    the base covers every n in [m, 2m] for some m and k >= 4, the
    cycle-cycle formula extends to all larger n ("theorem-extended") up to
    `extend_to`, and each such n gets the two path claims a base entry
    (n, m) gives.  The formulas hold for k >= 3 and n >= m >= 3 only; any
    other entry is refused as `invalid-parameter`.
    """
    claims: List[RamseyClaim] = []
    for (n, m), value in sorted(base.items()):
        if not (k >= 3 and n >= m >= 3):
            raise ValueError(f"invalid-parameter: base R(C^{k}_{n},C^{k}_{m}) is "
                             f"outside the theorem, which needs k >= 3 and n >= m >= 3")
        expect = cycle_value(k, n, m)
        if value != expect:
            raise ValueError(
                f"inconsistent-base: R(C^{k}_{n},C^{k}_{m}) = {value}, "
                f"formula gives {expect}")
        src = f"base R(C^{k}_{n},C^{k}_{m}) = {value}"
        claims += _path_claims(k, n, m, "theorem-derived", src)
        if n == m:
            diag = path_value(k, n, n)
            claims.append(RamseyClaim(k, (PATH, n), (PATH, n), diag, diag, diag,
                                      "theorem-derived", (src,)))
    if extend_to is not None and k >= 4:
        ms = {m for (_, m) in base}
        for m in sorted(ms):
            if all((n, m) in base for n in range(m, 2 * m + 1)):
                src = (f"base covers R(C^{k}_n,C^{k}_{m}) for all n in "
                       f"[{m},{2 * m}]")
                for n in range(2 * m + 1, extend_to + 1):
                    cc = cycle_value(k, n, m)
                    claims.append(RamseyClaim(k, (CYCLE, n), (CYCLE, m), cc,
                                              cc, cc, "theorem-extended", (src,)))
                    claims += _path_claims(k, n, m, "theorem-extended", src)
    return claims


def _path_claims(k: int, n: int, m: int, provenance: str,
                 src: str) -> List[RamseyClaim]:
    """R(P_n, C_m) and R(P_n, P_{m-1}), implied by R(C_n, C_m)."""
    pc, pp = path_value(k, n, m), path_value(k, n, m - 1)
    return [RamseyClaim(k, (PATH, n), (CYCLE, m), pc, pc, pc, provenance, (src,)),
            RamseyClaim(k, (PATH, n), (PATH, m - 1), pp, pp, pp, provenance, (src,))]


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def _target_copies(c: TwoColoring, red: LooseTemplate, blue: LooseTemplate):
    """A red `red` and a blue `blue` in c, each colour by count first.

    Returns (a, checks): a is c's split size from `split_counting` (None
    when c is not split), and checks holds (colour, how, copy) for red,
    then blue.  how is "counting" when the paper's counting argument rules
    the colour out (copy None, no search), else "search", with the copy
    `find_embedding` returns.
    """
    a, no_red, no_blue = split_counting(c, red.n_vertices, blue.n)
    return a, [(color, "counting", None) if ruled_out
               else (color, "search", find_embedding(c, color, t))
               for color, t, ruled_out in (("red", red, no_red),
                                           ("blue", blue, no_blue))]


def _host_embedding(obj, c: TwoColoring) -> Embedding:
    """The embedding `obj` decodes to, refused with a ValueError unless its
    template has c's uniformity and its labels are c's, 1..N."""
    emb = Embedding.from_json_obj(obj)
    if emb.template.k != c.k:
        raise ValueError(f"a k={emb.template.k} template on a k={c.k} host")
    if not all(1 <= v <= c.n_vertices for v in emb.assignment):
        raise ValueError(f"a label outside the host's 1..{c.n_vertices}")
    return emb


def verify_certificate(cert) -> Tuple[bool, dict]:
    """Re-check a certificate's claim against its coloring.

    Accepts a Certificate object or its JSON dict form and returns (ok,
    report).  Each type decodes its payload fields under
    `decoding("certificate")` before any check, so a missing or ill-typed
    field (a number not a JSON integer, read by `coloring.json_int`, or a
    `disjoint` not a JSON boolean) raises `malformed-certificate`, and so
    does a claimed edge that is not a k-set of the host's labels, or an
    embedding (a join trace's result too) whose template is not k-uniform
    or whose assignment holds a label outside the host; a claim the
    coloring does not bear out returns ok=False with machine-readable
    `report["reasons"]`.
    Every field the producers write is required, and a join trace's
    `outcome_kind` must name its result's color; a pair-set needs a pair
    (`no-pairs`), and a `disjoint` one two (`disjoint-needs-two-pairs`),
    and is checked over every two pairs.

    A `witness-coloring` is first tested once for being split
    (`coloring.split_counting`); each colour the paper's counting argument
    rules out needs no search, and the other colours are searched with
    `find_embedding`, whose copy is reported as `red_copy` or `blue_copy`.
    The report records the split size as `split_a` when there is one, and
    `checked_by`, "counting" or "search" for each colour.
    """
    if isinstance(cert, dict):
        cert = Certificate.from_json_obj(cert)
    if not isinstance(cert, Certificate):
        raise ValueError("malformed-certificate: not a certificate")
    c, p = cert.coloring, cert.payload
    reasons: List[str] = []
    report: dict = {"type": cert.type, "reasons": reasons}

    if cert.type == "witness-coloring":
        with decoding("certificate"):
            red, blue = (LooseTemplate(p[key]["kind"], c.k, json_int(p[key]["length"]))
                         for key in ("red_target", "blue_target"))
            n_vertices = json_int(p["n_vertices"])
        if n_vertices != c.n_vertices:
            reasons.append("host-size-mismatch")
        a, checks = _target_copies(c, red, blue)
        if a is not None:
            report["split_a"] = a
        checked_by = report["checked_by"] = {}
        for color, how, hit in checks:
            checked_by[color] = how
            if hit is not None:
                reasons.append(f"{color}-copy-found")
                report[f"{color}_copy"] = hit.to_json_obj()
    elif cert.type == "embedding":
        with decoding("certificate"):
            emb = _host_embedding(p["embedding"], c)
        res = verify_embedding(c, emb)
        if not res:
            reasons.append(res.reason)
    elif cert.type == "pair-set":
        with decoding("certificate"):
            pairs = [BichromaticPair.from_json_obj(o) for o in p["pairs"]]
            for pair in pairs:
                for e in (pair.red_edge, pair.blue_edge):
                    as_edge(e, k=c.k, n_vertices=c.n_vertices)
            disjoint = p["disjoint"]
            if type(disjoint) is not bool:
                raise TypeError(f"disjoint {disjoint!r} is not a JSON boolean")
        if not pairs:
            reasons.append("no-pairs")
        if disjoint and len(pairs) < 2:
            reasons.append("disjoint-needs-two-pairs")
        for i, pair in enumerate(pairs):
            ok, why = pair.validate(c)
            if not ok:
                reasons.append(f"pair-{i}:{why}")
        if disjoint and any(a.union & b.union
                            for a, b in itertools.combinations(pairs, 2)):
            reasons.append("pairs-not-disjoint")
    elif cert.type == "join-trace":
        with decoding("certificate"):
            steps = [(as_edge(json_int(s["edge"], 1), k=c.k, n_vertices=c.n_vertices),
                      s["color"])
                     for s in p["steps"]]
            result = _host_embedding(p["result"], c)
            outcome_kind = p["outcome_kind"]
        for i, (e, want) in enumerate(steps):
            if ("red" if c.bits[colex_rank(e)] else "blue") != want:
                reasons.append("edge-color-mismatch")
                report.setdefault("bad_steps", []).append(i)
        res = verify_embedding(c, result)
        if not res:
            reasons.append(f"result:{res.reason}")
        if outcome_kind != f"{result.claimed_color}-cycle":
            reasons.append("outcome-kind-mismatch")
    else:  # configuration
        with decoding("certificate"):
            cfg = GoodConfiguration.from_json_obj(p["configuration"])
        ok, why = validate_good_configuration(c, cfg)
        if not ok:
            reasons.append(why)

    return (not reasons), report
