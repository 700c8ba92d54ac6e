"""ramsey-lab benchmark: four workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload refute|admit|witness|extract \
        [--seed 0] [--seconds 25] [--trace 0|1] [--backend numpy|numba]

The library is imported from the `src/` directory next to `perfbench/`,
never from an installed copy. A run repeats passes of the workload's fixed
operation list, each pass in a fresh interpreter, until --seconds have
passed (at least three passes). Every operation checks its own output;
a wrong or unverified result, or exact counts that differ from an earlier
pass or run of the same code, counts as a failed operation.

--trace 0 reports the end-to-end metrics: set-up time (interpreter start to
library ready, median over every interpreter the run starts), wall time of
the operation list (sum of per-operation latencies), the median and 90th
percentile of the per-operation latencies, and peak resident memory
(median over passes). A per-operation latency is the lower quartile of the
operation's latencies over the passes, in units of a speed probe taken
around each (see worker.speed_probe); raw seconds are printed as well.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.PER_LAYER in seconds and counts (medians over traced
passes), with trace.overhead_s the traced minus the untraced wall time.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Per-pass data, exact-count records, provenance and
spans go to .perfbench/runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER, layer_metrics  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_probes": "probes",
              "op_probes_p50": "probes", "op_probes_p90": "probes",
              "peak_rss_mb": "MB"}
COUNT_UNITS = ("count", "bytes")
MIN_PASSES = 3
SETUP_SAMPLES = 15  # set-up-only interpreters top the passes up to this many
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class RunError(Exception):
    pass


def percentile(xs: list, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def spawn(job: dict, env: dict, deadline: float) -> dict:
    """Run one worker interpreter; its set-up time is measured from here."""
    t = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t))
    except subprocess.TimeoutExpired:
        raise RunError("a pass did not finish before the run's time limit")
    if proc.returncode != 0:
        raise RunError(proc.stderr.strip() or f"worker exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def record_hashes(records: list) -> list:
    return [hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()[:16]
            for r in records]


def check_fingerprint(passes: list, store: Path, key: str) -> list:
    """(pass, op) pairs whose exact-count record differs from the reference.

    The reference is the record stored by an earlier run of the same code
    (same source digest, backend, workload and seed), else the first pass
    in which the operation succeeded. A run with no failed operation and no
    difference becomes the stored reference.
    """
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    hashes = [record_hashes(p["records"]) for p in passes]
    ref = known.get(key) or [
        next((h[oi] for h, p in zip(hashes, passes)
              if p["records"][oi] is not None), None)
        for oi in range(len(hashes[0]))]
    bad = [(pi, oi) for pi, p in enumerate(passes)
           for oi, rec in enumerate(p["records"])
           if rec is not None and hashes[pi][oi] != ref[oi]]
    complete = all(r is not None for p in passes for r in p["records"])
    if key not in known and complete and not bad:
        known[key] = ref
        store.parent.mkdir(parents=True, exist_ok=True)
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1))
        os.replace(tmp, store)
    return bad


def in_probes(p: dict) -> list:
    """A pass's latencies in units of the speed probe taken around each."""
    return [x / s for x, s in zip(p["latencies"], p["speeds"])]


def op_latencies(per_pass: list, failed: set) -> list:
    """Each operation's lower-quartile latency over the passes it succeeded
    in (over all passes when it never did). Passes that run while the
    shared host is busy fall in the upper half and move nothing.
    `per_pass` holds one latency list per pass; `failed` (pass, op) pairs."""
    out = []
    for oi, xs in enumerate(zip(*per_pass)):
        ok = [x for pi, x in enumerate(xs) if (pi, oi) not in failed]
        out.append(percentile(ok or xs, 25))
    return out


def end_to_end(passes: list, setups: list, failed: set) -> dict:
    per_op = op_latencies([in_probes(p) for p in passes], failed)
    raw = op_latencies([p["latencies"] for p in passes], failed)
    probe_ms = 1000 * statistics.median(s for p in passes for s in p["speeds"])
    print(f"samples: {len(passes)} passes, {len(setups)} set-ups, "
          f"{len(per_op)} operations per pass")
    print(f"seconds: wall {sum(raw):.6f}, op p50 {percentile(raw, 50):.6f}, "
          f"op p90 {percentile(raw, 90):.6f}; "
          f"speed probe median {probe_ms:.3f} ms")
    return {"setup_s": statistics.median(setups),
            "wall_probes": sum(per_op),
            "op_probes_p50": percentile(per_op, 50),
            "op_probes_p90": percentile(per_op, 90),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def per_layer(passes: list) -> tuple:
    """Median per-layer metrics over traced passes; exact counts must agree."""
    rows = []
    for p in passes:
        if p["traced"]:
            m = layer_metrics(p["spans"])
            m.update({f"constructive.{k}": v for k, v in p["outcomes"].items()})
            rows.append(m)
    metrics = {name: rows[0][name] if unit in COUNT_UNITS
               else statistics.median(r[name] for r in rows)
               for name, unit in PER_LAYER.items() if name != "trace.overhead_s"}
    walls = {traced: sum(op_latencies([p["latencies"] for p in passes
                                       if p["traced"] == traced], set()))
             for traced in (True, False)}
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    consistent = all(r[name] == rows[0][name] for r in rows
                     for name, unit in PER_LAYER.items()
                     if unit in COUNT_UNITS and name in r)
    return metrics, consistent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (extract's colorings); 0 is the default, "
                         "7919 the held-out seed for gain claims")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="keep starting passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--backend", choices=("numpy", "numba"), default="numpy",
                    help="kernel backend to request; the run refuses to "
                         "measure if the library loads another one")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ramsey_lab" / "__init__.py").is_file():
        print(f"perfbench: no src/ramsey_lab under {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench"
    env = dict(os.environ, RAMSEY_LAB_BACKEND=args.backend, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("RAMSEY_LAB_CACHE", None)
    job = {"root": str(ROOT), "workload": args.workload, "seed": args.seed,
           "backend": args.backend, "trace": False,
           "work": str(work / f"tmp-{os.getpid()}")}

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, probes = [], []
    setup_only = dict(job, setup_only=True)
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t = time.monotonic()
            p = spawn(dict(job, trace=traced), env, deadline)
            p["traced"] = traced
            passes.append(p)
            took = time.monotonic() - t
            if not args.trace and len(passes) + len(probes) < SETUP_SAMPLES:
                # one set-up-only interpreter after each pass spreads the
                # set-up samples over the run instead of bunching them
                probes.append(spawn(setup_only, env, deadline))
            now = time.monotonic()
            enough = (now - start >= args.seconds and len(passes) >= MIN_PASSES
                      and (not args.trace or len(passes) % 2 == 0))
            if enough or now + 2 * took > deadline:
                break
        if not args.trace:
            probes += [spawn(setup_only, env, deadline) for _ in
                       range(SETUP_SAMPLES - len(passes) - len(probes))]
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    digest = source_digest()
    provenance = {
        "backend": passes[0]["backend"],
        "numba_importable": passes[0]["numba_importable"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": digest,
    }
    print("provenance: " + json.dumps(provenance))
    key = f"{digest}/{args.backend}/{args.workload}/seed{args.seed}"
    bad = check_fingerprint(passes, work / "fingerprints.json", key)
    failures = [[pi] + f for pi, p in enumerate(passes) for f in p["failures"]]
    failures += [[pi, oi, passes[pi]["ops"][oi], "exact counts differ from "
                  "an earlier pass or run of the same code"] for pi, oi in bad]
    failed = {(f[0], f[1]) for f in failures}
    attempted = sum(len(p["ops"]) for p in passes)
    for f in failures[:20]:
        print(f"FAILED pass {f[0]} op {f[1]} {f[2]}: {f[3]}", file=sys.stderr)

    consistent = True
    if args.trace:
        metrics, consistent = per_layer(passes)
        units = PER_LAYER
    else:
        setups = [p["setup_s"] for p in passes + probes]
        metrics = end_to_end(passes, setups, failed)
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:<42} {value:>16.6f} {units[name]}")

    record = {"args": vars(args), "provenance": provenance, "metrics": metrics,
              "failures": failures, "passes": passes,
              "setup_probes_s": [p["setup_s"] for p in probes]}
    runs = work / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    result = {"correct": not failures and consistent, "attempted": attempted,
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
