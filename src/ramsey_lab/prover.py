"""Arrowing decisions, Ramsey-value scans, DIMACS export, table derivation.

The engine is a counter-based DPLL over edge variables (1 = red): every
copy of the red target contributes an all-negative covering clause, every
copy of the blue target an all-positive one.  Unit propagation over these
clauses plus chronological backtracking is complete, so UNSAT verdicts are
sound; witnesses are re-verified by the embedder before being returned.
`decide_arrowing` enumerates the copies and hands them to `_kernels`,
which builds the clause instance and runs the library's only search,
`_kernels.search`, in one process; it checks the node and time budgets
while it runs, and the time budget also bounds copy enumeration.

Branching is deterministic: lowest-rank unassigned edge, red phase first.
An optional lex-leader restriction under adjacent vertex transpositions
(red preceding blue in the value order) prunes color-isomorphic subtrees;
it is off by default and never changes verdicts, only which witness shows
up first.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels
from ._backend import BACKEND
from .coloring import TwoColoring, all_edges, decoding
from .core import (CYCLE, PATH, LooseTemplate, as_edge, cycle_template,
                   path_template)
from .embedder import copy_rank_matrix, find_embedding
from .errors import SearchBudgetExceeded


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
    provenance: str  # paper-formula | search-verified | witness-only | theorem-derived | theorem-extended
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


def _template_of(k: int, family: Tuple[str, int]) -> LooseTemplate:
    kind, n = family
    if kind == PATH:
        return path_template(k, int(n))
    if kind == CYCLE:
        return cycle_template(k, int(n))
    raise ValueError(f"invalid-parameter: unknown template kind {kind!r}")


def decide_arrowing(k: int, N: int, red_target: LooseTemplate,
                    blue_target: LooseTemplate, *,
                    max_nodes: Optional[int] = None,
                    max_secs: Optional[float] = None,
                    symmetry: bool = False) -> ArrowingVerdict:
    """Does every red/blue coloring of K^k_N contain a red red_target or a
    blue blue_target?  UNSAT = yes (N arrows the pair), SAT = no, with a
    verified witness coloring; UNKNOWN only on budget exhaustion.

    `max_secs` is one deadline for the whole call, copy enumeration
    included; `stats["wall_secs"]` is the search time alone.
    """
    if red_target.k != k or blue_target.k != k:
        raise ValueError("invalid-parameter: target uniformity differs from k")
    if not (isinstance(N, int) and N >= 0):
        raise ValueError(f"invalid-parameter: N={N}")

    deadline = None if max_secs is None else time.monotonic() + max_secs
    budget = {"max_nodes": max_nodes, "max_secs": max_secs,
              "symmetry": symmetry, "backend": BACKEND}
    try:
        red_rows = copy_rank_matrix(N, k, red_target, deadline=deadline)
        blue_rows = copy_rank_matrix(N, k, blue_target, deadline=deadline)
    except SearchBudgetExceeded:
        stats = {"nodes": 0, "propagations": 0, "wall_secs": 0.0}
        return ArrowingVerdict("UNKNOWN", None, stats, budget)
    instance = _kernels.build_instance(math.comb(N, k), red_rows, blue_rows)
    sym = _kernels.perm_tables(N, k) if symmetry else ()
    t0 = time.monotonic()
    status, nodes, props, assign = _kernels.search(instance, sym, max_nodes,
                                                   deadline)
    stats = {"nodes": nodes, "propagations": props,
             "wall_secs": time.monotonic() - t0}
    witness = None
    if status == "SAT":
        # free vars: any value works; pick red
        bits = np.where(assign < 0, 1, assign).astype(np.uint8)
        witness = TwoColoring(k, N, bits)
        for color, t in (("red", red_target), ("blue", blue_target)):
            if find_embedding(witness, color, t) is not None:
                raise AssertionError(f"engine bug: witness contains a {color} copy")
    return ArrowingVerdict(status, witness, stats, budget)


def compute_ramsey(k: int, red_family: Tuple[str, int], blue_family: Tuple[str, int],
                   *, max_nodes: Optional[int] = None,
                   max_secs: Optional[float] = None,
                   symmetry: bool = False,
                   max_N: Optional[int] = None) -> RamseyClaim:
    """Ascending-N scan for the exact Ramsey value of the target pair.

    Starts at the larger target's vertex count (below which any coloring is
    admissible) and stops at the first UNSAT, which is the value by
    monotonicity.  Budget exhaustion yields a bounds-only claim.
    """
    red_t = _template_of(k, red_family)
    blue_t = _template_of(k, blue_family)
    start = max(red_t.n_vertices, blue_t.n_vertices)
    lower = start  # every N < start is SAT: the larger target cannot fit
    chain: List[str] = []
    stats: Dict[str, int] = {"nodes": 0, "propagations": 0}
    witness = None
    N = start
    while max_N is None or N <= max_N:
        v = decide_arrowing(k, N, red_t, blue_t, max_nodes=max_nodes,
                            max_secs=max_secs, symmetry=symmetry)
        stats["nodes"] += v.stats["nodes"]
        stats["propagations"] += v.stats["propagations"]
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
    """
    if red_target.k != k or blue_target.k != k:
        raise ValueError("invalid-parameter: target uniformity differs from k")
    if red_target.n_vertices > N or blue_target.n_vertices > N:
        raise ValueError("invalid-parameter: target does not fit host")
    E = math.comb(N, k)
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
        f"p cnf {E} {red_rows.shape[0] + blue_rows.shape[0]}",
    ]
    for row in red_rows:
        lines.append(" ".join(str(-(int(r) + 1)) for r in row) + " 0")
    for row in blue_rows:
        lines.append(" ".join(str(int(r) + 1) for r in row) + " 0")
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
    `extend_to`.
    """
    claims: List[RamseyClaim] = []
    for (n, m), value in sorted(base.items()):
        expect = (k - 1) * n + (m - 1) // 2
        if value != expect:
            raise ValueError(
                f"inconsistent-base: R(C^{k}_{n},C^{k}_{m}) = {value}, "
                f"formula gives {expect}")
        src = f"base R(C^{k}_{n},C^{k}_{m}) = {value}"
        pc = (k - 1) * n + (m + 1) // 2
        claims.append(RamseyClaim(k, (PATH, n), (CYCLE, m), pc, pc, pc,
                                  "theorem-derived", (src,)))
        pp = (k - 1) * n + m // 2
        claims.append(RamseyClaim(k, (PATH, n), (PATH, m - 1), pp, pp, pp,
                                  "theorem-derived", (src,)))
        if n == m:
            diag = (k - 1) * n + (n + 1) // 2
            claims.append(RamseyClaim(k, (PATH, n), (PATH, n), diag, diag, diag,
                                      "theorem-derived", (src,)))
    if extend_to is not None and k >= 4:
        ms = {m for (_, m) in base}
        for m in sorted(ms):
            if all((n, m) in base for n in range(m, 2 * m + 1)):
                src = (f"base covers R(C^{k}_n,C^{k}_{m}) for all n in "
                       f"[{m},{2 * m}]")
                for n in range(2 * m + 1, extend_to + 1):
                    cc = (k - 1) * n + (m - 1) // 2
                    claims.append(RamseyClaim(k, (CYCLE, n), (CYCLE, m), cc,
                                              cc, cc, "theorem-extended", (src,)))
    return claims


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------

def _decode_payload(cert) -> tuple:
    """The typed fields of a certificate's payload, decoded but unchecked."""
    from .constructive import BichromaticPair, GoodConfiguration
    from .embedder import Embedding

    p = cert.payload
    if cert.type == "witness-coloring":
        return (_template_of(cert.coloring.k, (p["red_target"]["kind"],
                                               p["red_target"]["length"])),
                _template_of(cert.coloring.k, (p["blue_target"]["kind"],
                                               p["blue_target"]["length"])),
                int(p["n_vertices"]))
    if cert.type == "embedding":
        return (Embedding.from_json_obj(p["embedding"]),)
    if cert.type == "pair-set":
        return ([BichromaticPair.from_json_obj(o) for o in p["pairs"]],
                bool(p.get("disjoint")))
    if cert.type == "join-trace":
        result = p.get("result")
        return ([(as_edge(step["edge"]), step["color"]) for step in p["steps"]],
                None if result is None else Embedding.from_json_obj(result))
    if cert.type == "configuration":
        return (GoodConfiguration.from_json_obj(p["configuration"]),)
    raise ValueError(f"malformed-certificate: unknown type {cert.type!r}")


def verify_certificate(cert) -> Tuple[bool, dict]:
    """Re-validate a certificate via embedder primitives only.

    Accepts a Certificate object or its JSON dict form.  Returns (ok,
    report); structural problems raise `malformed-certificate` errors while
    semantic failures come back as ok=False with machine-readable reasons.
    """
    from .certificates import Certificate
    from .constructive import validate_good_configuration
    from .embedder import verify_embedding

    if isinstance(cert, dict):
        cert = Certificate.from_json_obj(cert)
    if not isinstance(cert, Certificate):
        raise ValueError("malformed-certificate: not a certificate")
    with decoding("certificate"):
        fields = _decode_payload(cert)
    c = cert.coloring
    reasons: List[str] = []
    report: dict = {"type": cert.type, "reasons": reasons}

    if cert.type == "witness-coloring":
        red, blue, n_vertices = fields
        if n_vertices != c.n_vertices:
            reasons.append("host-size-mismatch")
        hit = find_embedding(c, "red", red)
        if hit is not None:
            reasons.append("red-copy-found")
            report["red_copy"] = hit.to_json_obj()
        hit = find_embedding(c, "blue", blue)
        if hit is not None:
            reasons.append("blue-copy-found")
            report["blue_copy"] = hit.to_json_obj()
    elif cert.type == "embedding":
        res = verify_embedding(c, fields[0])
        if not res:
            reasons.append(res.reason)
    elif cert.type == "pair-set":
        pairs, disjoint = fields
        for i, p in enumerate(pairs):
            ok, why = p.validate(c)
            if not ok:
                reasons.append(f"pair-{i}:{why}")
        if disjoint and len(pairs) == 2:
            if pairs[0].union & pairs[1].union:
                reasons.append("pairs-not-disjoint")
    elif cert.type == "join-trace":
        steps, result = fields
        for i, (e, want) in enumerate(steps):
            if c.color_of(e) != want:
                reasons.append("edge-color-mismatch")
                report.setdefault("bad_steps", []).append(i)
        if result is not None:
            res = verify_embedding(c, result)
            if not res:
                reasons.append(f"result:{res.reason}")
    elif cert.type == "configuration":
        res = validate_good_configuration(c, fields[0])
        if not res[0]:
            reasons.append(res[1])

    return (not reasons), report
