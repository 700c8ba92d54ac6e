"""One pass of one workload in a fresh interpreter (spawned by run.py).

    python3 perfbench/worker.py '{"root": ..., "workload": ..., "seed": ...,
                                  "backend": ..., "trace": false}'

Imports the library from <root>/src, reports when it is ready (set-up
ends there), runs the workload's operations once, one at a time, and
prints one JSON line: the ready time, per-operation latencies, the host
speed probed around each operation, exact-count records, failures, peak resident memory and, when traced,
the spans. With "setup_only" it exits right after set-up.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import resource
import shutil
import sys
import time
import traceback
import types

MODULES = ("cli", "prover", "embedder", "coloring", "constructive",
           "certificates", "core", "errors", "_backend")


def _load(root: str, backend: str) -> types.SimpleNamespace:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ramsey_lab
    rl = types.SimpleNamespace(**{m: importlib.import_module(f"ramsey_lab.{m}")
                                  for m in MODULES})
    here = os.path.dirname(os.path.abspath(ramsey_lab.__file__))
    if os.path.commonpath([here, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"ramsey_lab was imported from {here}, not from {src}")
    if rl._backend.BACKEND != backend:
        raise SystemExit(f"requested backend {backend!r} but the library "
                         f"loaded {rl._backend.BACKEND!r}")
    if rl._backend.HAS_NUMBA:  # compile the jitted kernel before timing
        p1 = rl.core.path_template(3, 1)
        rl.prover.decide_arrowing(3, 3, p1, p1)
    return rl


PROBE_GAP_S = 0.1  # probe the host's speed at least this often between operations


def speed_probe() -> float:
    """Seconds a fixed pure-Python integer loop takes: the host's speed now.

    Shared hosts run this loop anywhere from about 5 to 15 ms depending on
    what their other tenants do; dividing each latency by the probes taken
    around it cancels most of that swing. Median of three, against jitter.
    """
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


class OpTimer:
    """Times one operation's library calls and opens its trace scope."""

    def __init__(self, tracer, op_id: int):
        # an operation that fails before its library call took no library time
        self.tracer, self.op_id, self.seconds = tracer, op_id, 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.op = self.op_id
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.op = None
        return False


def run_pass(rl, workload: str, seed: int, work: str, tracer) -> dict:
    import workloads  # after the ready mark: set-up times the library only

    ops = workloads.runners(workload, seed)
    latencies, records, failures = [], [], []
    outcomes = {"red_cycle": 0, "blue_cycle": 0, "proof_gaps": 0,
                "hypothesis_violations": 0}
    probes = [(time.perf_counter(), speed_probe())]  # (taken at, seconds)
    before = []  # index of the last probe taken before each operation
    for op_id, (name, fn) in enumerate(ops):
        before.append(len(probes) - 1)
        timer = OpTimer(tracer, op_id)
        record = None
        try:
            record = fn(rl, work, timer)
        except workloads.Failed as exc:
            failures.append([op_id, name, str(exc)])
        except rl.errors.ProofGap as exc:
            outcomes["proof_gaps"] += 1
            failures.append([op_id, name, f"proof gap: {exc}"])
        except rl.errors.HypothesisViolation as exc:
            outcomes["hypothesis_violations"] += 1
            failures.append([op_id, name, f"hypothesis violation: {exc}"])
        except Exception:  # any other error is a failed operation, reported
            failures.append([op_id, name, traceback.format_exc(limit=3)])
        kind = (record or {}).get("kind")
        if kind in ("red-cycle", "blue-cycle"):
            outcomes[kind.replace("-", "_")] += 1
        latencies.append(timer.seconds)
        records.append(record)
        now = time.perf_counter()
        if now - probes[-1][0] >= PROBE_GAP_S or op_id == len(ops) - 1:
            probes.append((now, speed_probe()))
    # each operation's host speed: the mean of the probes on either side
    speeds = [(probes[i][1] + probes[i + 1][1]) / 2 for i in before]
    return {"ops": [name for name, _ in ops], "latencies": latencies,
            "speeds": speeds, "records": records, "failures": failures,
            "outcomes": outcomes}


def main() -> int:
    args = json.loads(sys.argv[1])
    rl = _load(args["root"], args["backend"])
    ready = time.monotonic()
    out = {"ready": ready, "backend": rl._backend.BACKEND,
           "numba_importable": importlib.util.find_spec("numba") is not None}
    if not args.get("setup_only"):
        tracer = None
        if args["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        work = args["work"]
        os.makedirs(work, exist_ok=True)
        try:
            out.update(run_pass(rl, args["workload"], args["seed"], work, tracer))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
