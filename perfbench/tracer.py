"""Spans around the library's public functions, recorded from outside.

A traced pass replaces each function in TRACED with a timing wrapper, in
every ramsey_lab module that binds it (so `from .x import f` bindings are
covered too). Nothing inside the library changes. Spans are kept in memory
as [name, start, end, parent index, operation id, attrs] and only while an
operation is open, so the benchmark's own bookkeeping is never traced.

A layer's self time is the time its spans cover minus the part covered by
their child spans; layers are named after the library's modules.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import defaultdict

# layer -> public functions timed as that layer
TRACED = {
    "cli": ("main",),
    "prover": ("decide_arrowing", "verify_certificate"),
    "embedder": ("copy_rank_matrix", "find_embedding", "verify_embedding"),
    "coloring": ("lower_bound_witness",),
    "constructive": ("join_red_cycles", "adjacent_bichromatic_pair",
                     "to_certificate"),
    "certificates": ("make_certificate", "Certificate.save", "Certificate.load"),
}
LAYERS = tuple(TRACED)

# name -> unit of every per-layer metric a traced run reports
PER_LAYER = {
    "embedder.self_s": "s",
    "embedder.copy_rank_matrix_s": "s",
    "embedder.copies": "count",
    "embedder.copies_per_s": "1/s",
    "embedder.find_embedding_s": "s",
    "embedder.find_embedding_calls": "count",
    "embedder.verify_embedding_s": "s",
    "prover.self_s": "s",
    "prover.build_s": "s",
    "prover.n_clauses": "count",
    "prover.n_vars": "count",
    "prover.search_s": "s",
    "prover.nodes": "count",
    "prover.propagations": "count",
    "prover.nodes_per_s": "1/s",
    "prover.propagations_per_s": "1/s",
    "prover.verify_certificate_s": "s",
    "prover.unknown_verdicts": "count",
    "coloring.self_s": "s",
    "coloring.lower_bound_witness_s": "s",
    "constructive.self_s": "s",
    "constructive.join_red_cycles_s": "s",
    "constructive.adjacent_bichromatic_pair_s": "s",
    "constructive.red_cycle": "count",
    "constructive.blue_cycle": "count",
    "constructive.proof_gaps": "count",
    "constructive.hypothesis_violations": "count",
    "certificates.self_s": "s",
    "certificates.save_s": "s",
    "certificates.load_s": "s",
    "certificates.bytes": "bytes",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None  # id of the open operation, None between operations
        self._stack: list = []
        self._seen_matrices: set = set()

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name.split(".")[0] == "ramsey_lab" and mod is not None}
        for layer, names in TRACED.items():
            home = mods[f"ramsey_lab.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                cls_name, _, meth = name.rpartition(".")
                if cls_name:
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(span, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(span, raw))
                    continue
                orig = getattr(home, name)
                wrapped = self._wrap(span, orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def _wrap(self, span_name: str, fn):
        inspect = _INSPECT.get(span_name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [span_name, time.perf_counter(), None,
                    stack[-1] if stack else None, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if inspect is not None:
                span[5] = inspect(tracer, args, out)
            return out

        return traced


def _copy_attrs(tracer, args, out):
    cold = id(out) not in tracer._seen_matrices
    tracer._seen_matrices.add(id(out))
    return {"rows": int(out.shape[0]), "cold": cold}


def _decide_attrs(tracer, args, out):
    k, N = args[0], args[1]
    return {"n_vars": math.comb(N, k), "search_s": out.stats["wall_secs"],
            "nodes": out.stats["nodes"],
            "propagations": out.stats["propagations"],
            "unknown": out.status == "UNKNOWN"}


def _save_attrs(tracer, args, out):
    return {"bytes": os.path.getsize(args[1])}


_INSPECT = {
    "embedder.copy_rank_matrix": _copy_attrs,
    "prover.decide_arrowing": _decide_attrs,
    "certificates.Certificate.save": _save_attrs,
}


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s excluded)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, attrs in spans:
        if parent is not None:
            child[parent] += t1 - t0
    fn_self: dict = defaultdict(float)
    layer_self: dict = defaultdict(float)
    n_clauses = defaultdict(int)
    for i, (name, t0, t1, parent, op, attrs) in enumerate(spans):
        own = (t1 - t0) - child[i]
        fn_self[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "embedder.copy_rank_matrix" and attrs and parent is not None \
                and spans[parent][0] == "prover.decide_arrowing":
            n_clauses[parent] += attrs["rows"]

    def total(span_name: str, key: str):
        return sum(s[5][key] for s in spans if s[0] == span_name and s[5])

    copies = sum(s[5]["rows"] for s in spans
                 if s[0] == "embedder.copy_rank_matrix" and s[5] and s[5]["cold"])
    search = total("prover.decide_arrowing", "search_s")
    nodes = total("prover.decide_arrowing", "nodes")
    props = total("prover.decide_arrowing", "propagations")
    copy_s = fn_self["embedder.copy_rank_matrix"]
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    del m["cli.self_s"]
    m.update({
        "embedder.copy_rank_matrix_s": copy_s,
        "embedder.copies": copies,
        "embedder.copies_per_s": copies / copy_s if copy_s else 0.0,
        "embedder.find_embedding_s": fn_self["embedder.find_embedding"],
        "embedder.find_embedding_calls":
            sum(1 for s in spans if s[0] == "embedder.find_embedding"),
        "embedder.verify_embedding_s": fn_self["embedder.verify_embedding"],
        # derived: decide_arrowing's self time (its copy enumeration and
        # witness re-check are child spans) minus the engine's search time
        "prover.build_s": fn_self["prover.decide_arrowing"] - search,
        "prover.n_clauses": sum(n_clauses.values()),
        "prover.n_vars": total("prover.decide_arrowing", "n_vars"),
        "prover.search_s": search,
        "prover.nodes": nodes,
        "prover.propagations": props,
        "prover.nodes_per_s": nodes / search if search else 0.0,
        "prover.propagations_per_s": props / search if search else 0.0,
        "prover.verify_certificate_s": fn_self["prover.verify_certificate"],
        "prover.unknown_verdicts": total("prover.decide_arrowing", "unknown"),
        "coloring.lower_bound_witness_s": fn_self["coloring.lower_bound_witness"],
        "constructive.join_red_cycles_s": fn_self["constructive.join_red_cycles"],
        "constructive.adjacent_bichromatic_pair_s":
            fn_self["constructive.adjacent_bichromatic_pair"],
        "certificates.save_s": fn_self["certificates.Certificate.save"],
        "certificates.load_s": fn_self["certificates.Certificate.load"],
        "certificates.bytes": total("certificates.Certificate.save", "bytes"),
        "cli.overhead_s": layer_self["cli"],
    })
    return m
