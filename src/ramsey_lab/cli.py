"""Command-line surface.

Subcommands cover the whole pipeline: extremal witnesses, arrowing
decisions, Ramsey-value scans, constructive extractions, copy counts,
derived tables, CNF export, and certificate checking.  Every run emits a
machine-readable JSON report (stdout by default, ``--out`` to a file);
artifacts such as colorings, certificates and CNF files are written next
to the invocation under ``--dir``.

Exit codes: 0 success (SAT or claim), 10 UNSAT, 20 UNKNOWN (an ``arrow``
or ``ramsey`` budget exhausted), 2 usage error, 3 hypothesis violation (its
witness, when it has one, in the report's ``results.witness``), 4 proof gap
(the gap's instance is written under ``--dir`` as
``<subcommand>.proofgap.json``).  ``extract`` checks a lemma's hypotheses
by complete searches, and only to explain a failed construction.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from . import __version__
from .coloring import TwoColoring, lower_bound_witness
from .core import LooseTemplate, atomic_write
from .certificates import Certificate, make_certificate
from .constructive import (
    absorb_blue_path,
    adjacent_bichromatic_pair,
    blue_cycle_from_red_shorter_cycle,
    disjoint_bichromatic_pairs,
    find_good_configuration,
    join_red_cycles,
    lift_blue_c4,
    to_certificate,
)
from .embedder import Embedding, count_copies
from .errors import HypothesisViolation, ProofGap
from .prover import (
    compute_ramsey,
    decide_arrowing,
    derive_table,
    export_dimacs,
    verify_certificate,
)

EXIT_OK = 0
EXIT_UNSAT = 10
EXIT_UNKNOWN = 20
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_GAP = 4


def _parse_target(text: str, k: int) -> LooseTemplate:
    """'cycle:3' or 'path:4' -> that k-uniform template."""
    try:
        kind, _, num = text.partition(":")
        n = int(num)
    except ValueError:
        raise ValueError(f"invalid-parameter: target {text!r}, want kind:length")
    return LooseTemplate(kind, k, n)


def _parse_verts(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"invalid-parameter: vertex list {text!r}")


def _structure(kind: str, k: int, verts: tuple, color: str) -> Embedding:
    """Embedding from an assignment list; the template length is implied
    (a path has one vertex more than its edges' k-1 new vertices each).
    At k = 1 there is no k-1 to divide by; the template refuses that k."""
    inner, step = len(verts) - (kind == "path"), max(k - 1, 1)
    if inner % step:
        raise ValueError(f"invalid-parameter: {len(verts)} vertices is no loose "
                         f"{kind} at k={k}")
    return Embedding(LooseTemplate(kind, k, inner // step), verts, color)


def _report_skeleton(args, command: list, inputs: dict) -> dict:
    return {
        "command": command,
        "subcommand": args.subcommand,
        "inputs": inputs,
        "version": __version__,
        "seed": args.seed,
        "certificates": [],
        "results": {},
        "timings": {"certify_s": 0.0},
    }


def _emit(report: dict, args, t0: float) -> None:
    timings = report["timings"]
    for key, secs in timings.items():
        timings[key] = round(secs, 6)
    timings["total_secs"] = round(time.monotonic() - t0, 6)
    text = json.dumps(report, indent=2, sort_keys=False)
    if args.out:
        atomic_write(args.out, text + "\n")
    else:
        print(text)


def _artifact(args, name: str) -> str:
    os.makedirs(args.dir, exist_ok=True)
    return os.path.join(args.dir, name)


def _save_certificate(cert, args, name: str, report: dict) -> str:
    """Write, re-verify through the checker, and register in the report.

    The time taken is added to the report's `certify_s`."""
    t0 = time.monotonic()
    path = _artifact(args, name)
    try:
        cert.save(path, explicit_coloring=args.explicit)
        ok, check = verify_certificate(Certificate.load(path))
    finally:
        report["timings"]["certify_s"] += time.monotonic() - t0
    report["certificates"].append({"path": path, "verified": bool(ok)})
    if not ok:
        raise ProofGap(f"emitted certificate failed re-verification: {check}",
                       {"certificate": cert.to_json_obj(), "check": check})
    return path


def _save_witness(args, report: dict, c: TwoColoring, red: LooseTemplate,
                  blue: LooseTemplate, lemma: str, stem: str) -> None:
    """Certify that c has no red `red` and no blue `blue`."""
    cert = make_certificate(
        "witness-coloring", c,
        {"red_target": {"kind": red.kind, "length": red.n},
         "blue_target": {"kind": blue.kind, "length": blue.n},
         "n_vertices": c.n_vertices},
        lemma=lemma, seed=args.seed)
    _save_certificate(cert, args, stem + ".cert.json", report)


# ---------------------------------------------------------------- witness

def _run_witness(args, report: dict) -> int:
    pair = args.pair.upper()
    # the templates refuse a bad k or length before any file is written
    red, blue = (LooseTemplate("path" if p == "P" else "cycle", args.k, n)
                 for p, n in zip(pair, (args.n, args.m)))
    t0 = time.monotonic()
    N, c = lower_bound_witness(args.k, args.n, args.m, pair)
    report["timings"]["witness_s"] = time.monotonic() - t0
    stem = f"witness-{pair}-k{args.k}-n{args.n}-m{args.m}"
    cpath = _artifact(args, stem + ".coloring.json")
    c.save(cpath, explicit=args.explicit)
    _save_witness(args, report, c, red, blue, "lower-bound", stem)
    report["results"] = {
        "pair": pair, "k": args.k, "n": args.n, "m": args.m,
        "host_vertices": N, "claimed_bound": N + 1,
        "coloring": cpath, "red_edges": int(c.red_count),
    }
    return EXIT_OK


# ------------------------------------------------------------------ arrow

def _run_arrow(args, report: dict) -> int:
    red, blue = _parse_target(args.red, args.k), _parse_target(args.blue, args.k)
    verdict = decide_arrowing(
        args.k, args.n_vertices, red, blue, max_nodes=args.max_nodes,
        max_secs=args.max_secs, symmetry=args.symmetry)
    report["results"] = verdict.to_json_obj()
    report["timings"].update(enumerate_s=verdict.stats["enumerate_s"],
                             build_s=verdict.stats["build_s"],
                             search_s=verdict.stats["wall_secs"],
                             verify_s=verdict.stats["verify_s"])
    if verdict.status == "SAT" and verdict.witness is not None:
        _save_witness(args, report, verdict.witness, red, blue, "arrowing-sat",
                      f"arrow-k{args.k}-N{args.n_vertices}")
    if verdict.status == "UNSAT":
        return EXIT_UNSAT
    if verdict.status == "UNKNOWN":
        return EXIT_UNKNOWN
    return EXIT_OK


# ----------------------------------------------------------------- ramsey

def _run_ramsey(args, report: dict) -> int:
    red, blue = _parse_target(args.red, args.k), _parse_target(args.blue, args.k)
    claim = compute_ramsey(
        args.k, (red.kind, red.n), (blue.kind, blue.n),
        max_nodes=args.max_nodes, max_secs=args.max_secs,
        symmetry=args.symmetry, max_N=args.max_N)
    report["results"] = claim.to_json_obj()
    if claim.witness is not None:
        _save_witness(args, report, claim.witness, red, blue, "ramsey-lower",
                      f"ramsey-k{args.k}-{red.kind}{red.n}-{blue.kind}{blue.n}")
    return EXIT_OK if claim.value is not None else EXIT_UNKNOWN


# ---------------------------------------------------------------- extract

# the options each lemma needs, by name without the leading "--"
_LEMMA_OPTIONS = {
    "good-configuration": ("path", "W", "anchor", "entry"),
    "absorb": ("path", "W"),
    "blue-cycle": ("cycle", "n", "m"),
    "join": ("cycle1", "cycle2", "ell"),
    "adjacent-pair": (),
    "disjoint-pairs": ("t",),
    "lift": ("cycle4", "i"),
}


def _run_extract(args, report: dict) -> int:
    lemma = args.lemma
    needs = _LEMMA_OPTIONS[lemma]
    if any(getattr(args, opt) is None for opt in needs):
        raise ValueError(f"invalid-parameter: --lemma {lemma} needs "
                         + ", ".join(f"--{opt}" for opt in needs))
    c = TwoColoring.load(args.coloring)
    k = c.k
    stem = f"extract-{lemma}"

    if lemma == "good-configuration":
        P = _structure("path", k, _parse_verts(args.path), "red")
        W = set(_parse_verts(args.W))
        obj = find_good_configuration(c, P, W, args.anchor, args.entry)
        report["results"] = {"configuration": obj.to_json_obj()}
    elif lemma == "absorb":
        P = _structure("path", k, _parse_verts(args.path), "red")
        W = set(_parse_verts(args.W))
        obj = absorb_blue_path(c, P, W)
        report["results"] = {"Q": obj.Q.to_json_obj(), "r": obj.r,
                             "W_used": sorted(obj.W_used)}
    elif lemma == "blue-cycle":
        C = _structure("cycle", k, _parse_verts(args.cycle), "red")
        meta: dict = {}
        obj = blue_cycle_from_red_shorter_cycle(c, C, args.n, args.m, meta=meta)
        report["results"] = {"embedding": obj.to_json_obj(), "meta": meta}
    elif lemma == "join":
        C1 = _structure("cycle", k, _parse_verts(args.cycle1), "red")
        C2 = _structure("cycle", k, _parse_verts(args.cycle2), "red")
        obj = join_red_cycles(c, C1, C2, args.ell)
        report["results"] = {"outcome_kind": obj.outcome_kind,
                             "outcome": obj.outcome.to_json_obj(),
                             "steps": len(obj.steps)}
    elif lemma == "adjacent-pair":
        stats: dict = {}
        obj = adjacent_bichromatic_pair(c, stats=stats)
        report["results"] = {"pair": obj.to_json_obj(), "stats": stats}
    elif lemma == "disjoint-pairs":
        obj = disjoint_bichromatic_pairs(c, args.t)
        report["results"] = {"pairs": [p.to_json_obj() for p in obj]}
    elif lemma == "lift":
        C4 = _structure("cycle", k, _parse_verts(args.cycle4), "blue")
        obj = lift_blue_c4(c, C4, args.i)
        report["results"] = {"embedding": obj.to_json_obj()}

    cert = to_certificate(c, obj, lemma=lemma, seed=args.seed)
    _save_certificate(cert, args, stem + ".cert.json", report)
    return EXIT_OK


# ------------------------------------------------------------------ count

def _run_count(args, report: dict) -> int:
    t = _parse_target(args.target, args.k)
    value = count_copies(args.n_vertices, args.k, t)
    report["results"] = {"k": args.k, "n_vertices": args.n_vertices,
                         "target": {"kind": t.kind, "length": t.n},
                         "copies": value}
    return EXIT_OK


# ------------------------------------------------------------------ table

def _parse_base(entries: List[str]) -> dict:
    base = {}
    for ent in entries:
        try:
            key, _, val = ent.partition("=")
            n_s, _, m_s = key.partition(",")
            base[(int(n_s), int(m_s))] = int(val)
        except ValueError:
            raise ValueError(f"invalid-parameter: base entry {ent!r}, want n,m=value")
    return base


def _run_table(args, report: dict) -> int:
    base = _parse_base(args.base or [])
    if not base:
        raise ValueError("invalid-parameter: at least one --base n,m=value required")
    claims = derive_table(args.k, base, extend_to=args.extend_to)
    report["results"] = {"k": args.k,
                         "base": [{"n": n, "m": m, "value": v}
                                  for (n, m), v in sorted(base.items())],
                         "claims": [cl.to_json_obj() for cl in claims]}
    return EXIT_OK


# ------------------------------------------------------------- export-cnf

def _run_export_cnf(args, report: dict) -> int:
    text, sidecar = export_dimacs(args.k, args.n_vertices,
                                  _parse_target(args.red, args.k),
                                  _parse_target(args.blue, args.k))
    stem = args.stem or f"arrow-k{args.k}-N{args.n_vertices}"
    cnf_path = _artifact(args, stem + ".cnf")
    map_path = _artifact(args, stem + ".vars.json")
    atomic_write(cnf_path, text)
    atomic_write(map_path, json.dumps(sidecar, indent=2))
    head = text.index("\np cnf ") + 1  # the header, after the comments
    _, _, n_vars, n_clauses = text[head:text.index("\n", head)].split()
    report["results"] = {"cnf": cnf_path, "varmap": map_path,
                         "variables": int(n_vars), "clauses": int(n_clauses),
                         "digest": sidecar["digest"]}
    return EXIT_OK


# ------------------------------------------------------------- check-cert

def _run_check_cert(args, report: dict) -> int:
    cert = Certificate.load(args.file)
    ok, check = verify_certificate(cert)
    report["results"] = {"file": args.file, "ok": bool(ok), "check": check}
    if not ok:
        print(f"certificate rejected: {';'.join(check.get('reasons', []))}",
              file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="recorded RNG seed")
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--dir", default=".", help="artifact directory")
    p.add_argument("--explicit", action="store_true",
                   help="store colorings inside artifacts as explicit red edge lists")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--max-secs", type=float, default=None)
    p.add_argument("--symmetry", action="store_true",
                   help="enable lex-leader symmetry breaking in the engine")


def _witness_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pair", required=True, choices=["PP", "PC", "CC", "pp", "pc", "cc"])


def _arrow_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-vertices", type=int, required=True)
    p.add_argument("--red", required=True, help="target kind:length, e.g. cycle:3")
    p.add_argument("--blue", required=True)
    _add_budget(p)


def _ramsey_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--red", required=True)
    p.add_argument("--blue", required=True)
    p.add_argument("--max-N", type=int, default=None)
    _add_budget(p)


def _extract_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lemma", required=True, choices=list(_LEMMA_OPTIONS))
    p.add_argument("--coloring", required=True, help="TwoColoring JSON file")
    p.add_argument("--path", help="red path assignment, comma-separated host vertices")
    p.add_argument("--W", help="reservoir vertices, comma-separated")
    p.add_argument("--anchor", type=int, help="edge index the configuration hangs on")
    p.add_argument("--entry", type=int, help="entry vertex u")
    p.add_argument("--cycle", help="red cycle assignment")
    p.add_argument("--cycle1", help="first red cycle assignment")
    p.add_argument("--cycle2", help="second red cycle assignment")
    p.add_argument("--cycle4", help="blue 4-cycle assignment")
    p.add_argument("--n", type=int, help="long length for blue-cycle")
    p.add_argument("--m", type=int, help="short length for blue-cycle")
    p.add_argument("--ell", type=int, help="blue cycle length for join")
    p.add_argument("--t", type=int, help="host parameter for disjoint-pairs")
    p.add_argument("--i", type=int, help="target length for lift")


def _count_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-vertices", type=int, required=True)
    p.add_argument("--target", required=True)


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--base", action="append",
                   help="verified cycle-cycle base entry n,m=value (repeatable)")
    p.add_argument("--extend-to", type=int, default=None)


def _export_cnf_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-vertices", type=int, required=True)
    p.add_argument("--red", required=True)
    p.add_argument("--blue", required=True)
    p.add_argument("--stem", default=None, help="output file stem")


def _check_cert_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", required=True)


# name -> (help, handler, adds the subcommand's own options); every
# subcommand also takes the common options, after its own
_SUBCOMMANDS = {
    "witness": ("extremal lower-bound coloring", _run_witness, _witness_args),
    "arrow": ("decide K -> (red, blue) at one host size", _run_arrow, _arrow_args),
    "ramsey": ("ascending scan for the exact Ramsey value", _run_ramsey,
               _ramsey_args),
    "extract": ("run a constructive lemma on a coloring", _run_extract,
                _extract_args),
    "count": ("copies of a template in the complete host", _run_count, _count_args),
    "table": ("derive path/cycle values from verified bases", _run_table,
              _table_args),
    "export-cnf": ("DIMACS encoding of one arrowing instance", _run_export_cnf,
                   _export_cnf_args),
    "check-cert": ("re-verify a certificate file", _run_check_cert,
                   _check_cert_args),
}


@functools.cache
def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser, built once per process for each `only`.

    With `only` None the parser knows every subcommand in `_SUBCOMMANDS`;
    with a subcommand's name it knows just that one, which builds in under
    half the time.  Such a parser answers every argument list that starts
    with that name exactly as the full one does: the subcommand's own
    parser is the same, and the top-level usage line that argparse prints
    for unrecognized arguments still lists every subcommand, through the
    subparsers' metavar.  The full parser leaves the metavar unset,
    because argparse names a missing subcommand by it ("subcommand").
    """
    ap = argparse.ArgumentParser(
        prog="ramsey-lab",
        description="Loose path/cycle Ramsey toolkit: witnesses, arrowing, "
                    "constructive extractions, tables, certificates.")
    ap.add_argument("--version", action="version", version=f"ramsey-lab {__version__}")
    if only is None:
        names, metavar = list(_SUBCOMMANDS), None
    else:
        names, metavar = [only], "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = ap.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        help_text, fn, add_options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        _add_common(p)
        p.set_defaults(fn=fn)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    t0 = time.monotonic()
    argv = list(argv if argv is not None else sys.argv[1:])
    # Only a leading subcommand name gets its own parser.  Any token before
    # it is read by the top-level parser, whose answers to -h, or to a
    # negative number taken as the subcommand, list every subcommand.
    ap = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own one-line diagnostic; normalize the code
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_USAGE if code not in (0,) else 0

    inputs = {key: val for key, val in sorted(vars(args).items())
              if key not in ("fn",) and val is not None}
    # the subcommand is argv[0], so the argument list replays the run
    report = _report_skeleton(args, argv, inputs)

    note = None  # the one-line diagnostic of exits 3 and 4
    try:
        try:
            code = args.fn(args, report)
        except HypothesisViolation as exc:
            report["results"] = {"error": "hypothesis-violation", "detail": str(exc)}
            w = exc.witness  # an Embedding or an edge
            if w is not None:
                report["results"]["witness"] = \
                    w.to_json_obj() if isinstance(w, Embedding) else list(w)
            code, note = EXIT_HYPOTHESIS, f"hypothesis-violation: {exc}"
        except ProofGap as exc:
            path = _artifact(args, f"{args.subcommand}.proofgap.json")
            atomic_write(path, json.dumps(exc.instance, indent=2))
            report["results"] = {"error": "proof-gap", "detail": str(exc),
                                 "instance": path}
            code, note = EXIT_GAP, f"proof-gap: {exc}"
        _emit(report, args, t0)
    except (ValueError, OSError) as exc:
        # parse, validation and I/O errors, the report's and the proof-gap
        # dump's writes included; anything else is a bug and propagates
        # with its traceback
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if note is not None:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
