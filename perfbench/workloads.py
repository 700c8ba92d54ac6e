"""The four benchmark workloads: their operations, inputs and output checks.

Each workload is a fixed list of operations run one at a time (closed loop,
one caller, one process, threads=1). A pass runs the whole list once in a
fresh interpreter, so every copy matrix is enumerated cold, exactly as in
one default CLI call; no two operations of a pass share an (N, k, template)
copy-cache key.

Expected verdicts come from the paper's formulas, fixed here and never
taken from the library under test:

    R(C^k_n, C^k_m) = (k-1)n + floor((m-1)/2)      cycle-cycle, n >= m
    R(P^k_n, P^k_m) = R(P^k_n, C^k_m)
                    = (k-1)n + floor((m+1)/2)      path-path, path-cycle

An operation fails when it raises, returns a wrong verdict or exit code,
or emits a certificate that does not re-verify. A failed operation is
counted, never just timed.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial

import numpy as np

WORKLOADS = ("refute", "admit", "witness", "extract")

# extract: operations per pass. JOINS colorings each get a join and a
# rejected witness claim; ADJACENT colorings get an adjacent-pair search.
JOINS = 400
ADJACENT = 400
JOIN_K, JOIN_N = 4, 18  # as in acceptance criterion 7


def cc_value(k: int, n: int, m: int) -> int:
    return (k - 1) * n + (m - 1) // 2


def pp_value(k: int, n: int, m: int) -> int:
    return (k - 1) * n + (m + 1) // 2


def ramsey_value(k: int, red: tuple, blue: tuple) -> int:
    (rk, n), (bk, m) = red, blue
    if n < m:
        raise ValueError("the formulas put the longer target in red")
    return cc_value(k, n, m) if rk == bk == "cycle" else pp_value(k, n, m)


# refute: UNSAT at the Ramsey value; the search kernel dominates.
# c43@9 runs with symmetry breaking: without it the search takes about a minute.
REFUTE = (
    ("c33@7", 3, 7, ("cycle", 3), ("cycle", 3), False),
    ("p33@8", 3, 8, ("path", 3), ("path", 3), False),
    ("c43@9+sym", 3, 9, ("cycle", 4), ("cycle", 3), True),
)

# admit: SAT one below the value with larger targets; copy enumeration and
# clause build dominate, and every witness is certified and re-verified.
ADMIT = (
    ("p43@9", 3, 9, ("path", 4), ("path", 3), False),
    ("c44@8", 3, 8, ("cycle", 4), ("cycle", 4), False),
    ("k4-c33@9", 4, 9, ("cycle", 3), ("cycle", 3), False),
)

# witness: extremal lower-bound colorings; embedder absence proofs on
# highly symmetric split colorings dominate and the prover never searches.
WITNESS = (
    (5, 5, 3, "CC"), (5, 5, 3, "PP"), (5, 5, 3, "PC"),
    (5, 6, 3, "CC"),
    (6, 4, 3, "CC"),
)


# ---------------------------------------------------------------------------
# the benchmark's own edge and colour checks (independent of the library)
# ---------------------------------------------------------------------------

def colex_rank(edge) -> int:
    """Colex rank of a k-subset of 1..N; {1..k} has rank 0."""
    return sum(math.comb(v - 1, i + 1) for i, v in enumerate(sorted(edge)))


def cycle_edges(k: int, n: int, assignment) -> list:
    """Edges of a loose k-uniform n-cycle laid out on `assignment`."""
    nv = n * (k - 1)
    return [tuple(sorted(assignment[(i * (k - 1) + r) % nv] for r in range(k)))
            for i in range(n)]


def is_mono_cycle(bits: np.ndarray, N: int, k: int, n: int, assignment,
                  bit: int) -> bool:
    a = tuple(assignment)
    if len(a) != n * (k - 1) or len(set(a)) != len(a):
        return False
    if not all(1 <= v <= N for v in a):
        return False
    return all(bits[colex_rank(e)] == bit for e in cycle_edges(k, n, a))


# ---------------------------------------------------------------------------
# operation runners
# ---------------------------------------------------------------------------

class Failed(Exception):
    """An operation produced a wrong or unverified result."""


def _cli(rl, argv: list, work: str, timer) -> tuple:
    """One in-process CLI call; returns (exit code, report)."""
    out = os.path.join(work, "report.json")
    with timer:
        rc = rl.cli.main(argv + ["--out", out, "--dir", work])
    try:
        with open(out) as fh:
            report = json.load(fh)
        os.remove(out)
    except (OSError, ValueError):
        report = {}
    return rc, report


def _check_certificates(report: dict, want: int) -> None:
    certs = report.get("certificates", [])
    if len(certs) != want:
        raise Failed(f"expected {want} certificate(s), report lists {len(certs)}")
    for c in certs:
        if not c.get("verified") or not os.path.exists(c["path"]):
            raise Failed(f"certificate {c.get('path')} did not re-verify")


def _template(rl, k: int, target: tuple):
    kind, n = target
    make = rl.core.path_template if kind == "path" else rl.core.cycle_template
    return make(k, n)


def _arrow(rl, work: str, timer, spec, seed: int) -> dict:
    name, k, N, red, blue, symmetry = spec
    argv = ["arrow", "--k", str(k), "--n-vertices", str(N),
            "--red", f"{red[0]}:{red[1]}", "--blue", f"{blue[0]}:{blue[1]}",
            "--seed", str(seed)] + (["--symmetry"] if symmetry else [])
    rc, report = _cli(rl, argv, work, timer)
    want = "UNSAT" if N >= ramsey_value(k, red, blue) else "SAT"
    res = report.get("results", {})
    status = res.get("status")
    want_rc = 10 if want == "UNSAT" else 0
    if rc != want_rc or status != want:
        raise Failed(f"{name}: exit {rc}, status {status}; expected {want} "
                     f"with exit {want_rc}")
    _check_certificates(report, 1 if want == "SAT" else 0)
    if want == "SAT" and res.get("witness", {}).get("n_vertices") != N:
        raise Failed(f"{name}: SAT report carries no witness on {N} vertices")
    # exact counts; the copy matrices are warm now, so this is not timed work
    red_rows = rl.embedder.count_copies(N, k, _template(rl, k, red))
    blue_rows = rl.embedder.count_copies(N, k, _template(rl, k, blue))
    return {"status": status, "nodes": res["stats"]["nodes"],
            "propagations": res["stats"]["propagations"],
            "copies": red_rows + (blue_rows if blue != red else 0),
            "n_clauses": red_rows + blue_rows}


def _witness(rl, work: str, timer, spec, seed: int) -> dict:
    k, n, m, pair = spec
    argv = ["witness", "--k", str(k), "--n", str(n), "--m", str(m),
            "--pair", pair, "--seed", str(seed)]
    rc, report = _cli(rl, argv, work, timer)
    value = cc_value(k, n, m) if pair == "CC" else pp_value(k, n, m)
    res = report.get("results", {})
    if rc != 0 or res.get("claimed_bound") != value \
            or res.get("host_vertices") != value - 1:
        raise Failed(f"{pair} k={k} n={n} m={m}: exit {rc}, bound "
                     f"{res.get('claimed_bound')}, expected {value}")
    _check_certificates(report, 1)
    return {"host_vertices": res["host_vertices"],
            "red_edges": res["red_edges"]}


def extract_inputs(seed: int) -> dict:
    """Seeded colorings for `extract`, as plain bit arrays.

    Join colorings are uniform random on K^4_18 with two vertex-disjoint red
    C^4_3 planted on 1..9 and 10..18; adjacent-pair colorings are uniform
    random at k = 3, 4, 5 on k+2 .. k+6 vertices, never monochromatic.
    """
    rng = np.random.default_rng(seed)
    k, N = JOIN_K, JOIN_N
    planted = [colex_rank(e) for start in (1, 10)
               for e in cycle_edges(k, 3, range(start, start + 9))]
    joins = []
    for _ in range(JOINS):
        bits = (rng.random(math.comb(N, k)) < 0.5).astype(np.uint8)
        bits[planted] = 1
        joins.append(bits)
    adjacent = []
    for i in range(ADJACENT):
        ka = (3, 4, 5)[i % 3]
        Na = int(rng.integers(ka + 2, ka + 7))
        bits = (rng.random(math.comb(Na, ka)) < 0.5).astype(np.uint8)
        if bits.all() or not bits.any():
            bits[0] ^= 1
        adjacent.append((ka, Na, bits))
    return {"joins": joins, "adjacent": adjacent}


def _round_trip(rl, cert, work: str):
    """Save, load and replay a certificate; returns (ok, report)."""
    path = os.path.join(work, "extract.cert.json")
    cert.save(path)
    loaded = rl.certificates.Certificate.load(path)
    return rl.prover.verify_certificate(loaded)


def _join(rl, work: str, timer, bits: np.ndarray, seed: int) -> dict:
    k, N = JOIN_K, JOIN_N
    t3 = rl.core.cycle_template(k, 3)
    C1 = rl.embedder.Embedding(t3, tuple(range(1, 10)), "red")
    C2 = rl.embedder.Embedding(t3, tuple(range(10, 19)), "red")
    c = rl.coloring.TwoColoring(k, N, bits)
    with timer:
        trace = rl.constructive.join_red_cycles(c, C1, C2, 3)
        cert = rl.constructive.to_certificate(c, trace, lemma="join", seed=seed)
        ok, report = _round_trip(rl, cert, work)
    kind = trace.outcome_kind
    length, bit = (6, 1) if kind == "red-cycle" else (3, 0)
    out = trace.outcome
    if not ok or out.template.kind != "cycle" or out.template.n != length \
            or not is_mono_cycle(bits, N, k, length, out.assignment, bit):
        raise Failed(f"join: {kind} outcome fails the edge/colour check "
                     f"or its certificate ({report.get('reasons')})")
    return {"kind": kind, "steps": len(trace.steps),
            "assignment": list(out.assignment)}


def _reject(rl, work: str, timer, bits: np.ndarray, seed: int) -> dict:
    """A false witness claim (no red or blue C^4_3) must be rejected."""
    k, N = JOIN_K, JOIN_N
    c = rl.coloring.TwoColoring(k, N, bits)
    with timer:
        cert = rl.certificates.make_certificate(
            "witness-coloring", c,
            {"red_target": {"kind": "cycle", "length": 3},
             "blue_target": {"kind": "cycle", "length": 3}, "n_vertices": N},
            lemma="false-claim", seed=seed)
        ok, report = _round_trip(rl, cert, work)
    # the planted red cycles make the claim false on every coloring
    red = report.get("red_copy", {})
    if ok or not is_mono_cycle(bits, N, k, 3, red.get("assignment", ()), 1):
        raise Failed("false witness claim accepted, or rejected without a "
                     "valid red C^4_3")
    blue = report.get("blue_copy")
    if blue is not None and not is_mono_cycle(bits, N, k, 3,
                                              blue["assignment"], 0):
        raise Failed("rejection cites an invalid blue C^4_3")
    return {"reasons": report["reasons"]}


def _adjacent(rl, work: str, timer, spec, seed: int) -> dict:
    k, N, bits = spec
    c = rl.coloring.TwoColoring(k, N, bits)
    with timer:
        pair = rl.constructive.adjacent_bichromatic_pair(c)
        cert = rl.constructive.to_certificate(c, pair, lemma="adjacent-pair",
                                              seed=seed)
        ok, report = _round_trip(rl, cert, work)
    r, b = pair.red_edge, pair.blue_edge
    if not ok or len(set(r)) != k or len(set(b)) != k \
            or len(set(r) & set(b)) != k - 1 \
            or bits[colex_rank(r)] != 1 or bits[colex_rank(b)] != 0:
        raise Failed(f"adjacent pair {r}/{b} fails the edge/colour check "
                     f"or its certificate ({report.get('reasons')})")
    return {"red": list(r), "blue": list(b)}


def runners(workload: str, seed: int) -> list:
    """(name, callable(rl, work, timer) -> exact-count record) for one pass."""
    if workload in ("refute", "admit"):
        specs = REFUTE if workload == "refute" else ADMIT
        return [(s[0], partial(_arrow, spec=s, seed=seed)) for s in specs]
    if workload == "witness":
        return [(f"{pair}-k{k}-n{n}-m{m}",
                 partial(_witness, spec=(k, n, m, pair), seed=seed))
                for k, n, m, pair in WITNESS]
    if workload != "extract":
        raise ValueError(f"unknown workload {workload!r}")
    inputs = extract_inputs(seed)
    return ([(f"join-{i}", partial(_join, bits=b, seed=seed))
             for i, b in enumerate(inputs["joins"])]
            + [(f"reject-{i}", partial(_reject, bits=b, seed=seed))
               for i, b in enumerate(inputs["joins"])]
            + [(f"adjacent-{i}", partial(_adjacent, spec=s, seed=seed))
               for i, s in enumerate(inputs["adjacent"])])
