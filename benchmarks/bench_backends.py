"""Compare the numba-jitted coloring sweep against the pure-numpy one.

The backend is fixed at import time by RAMSEY_LAB_BACKEND, so each backend
runs in its own subprocess; the parent collects the timings and prints a
table.  It exits non-zero, printing no table, when a requested backend is
not the one the library loaded (numba missing).  The branching search is
not compared: it runs the same numpy kernel on both backends.  Workloads:

  sweep-full     exhaustive admissibility scan over all 2^20 colorings of
                 K^3_6 with no admissible coloring (reds = blues = the 120
                 triangle masks), i.e. the kernel's worst case
  sweep-hit      brute_force_arrowing(3, 6, C3, C3): same masks, early exit
                 at the first admissible coloring

Usage: python3 benchmarks/bench_backends.py
"""

import json
import os
import subprocess
import sys
import time


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def worker() -> dict:
    from ramsey_lab import _backend
    from ramsey_lab.bruteforce import _masks, brute_force_arrowing
    from ramsey_lab.core import cycle_template

    c3 = cycle_template(3, 3)
    tri = _masks(6, 3, c3)

    # warm up (and, on the numba path, compile) every kernel once
    _backend.sweep_colorings(tri, tri, 0, 1 << 10)

    out = {"backend": _backend.BACKEND}
    out["sweep-full"] = _best_of(
        lambda: _backend.sweep_colorings(tri, tri, 0, 1 << 20))
    out["sweep-hit"] = _best_of(
        lambda: brute_force_arrowing(3, 6, c3, c3))
    return out


def main() -> int:
    if "--worker" in sys.argv:
        print(json.dumps(worker()))
        return 0

    results = {}
    for backend in ("numba", "numpy"):
        env = dict(os.environ, RAMSEY_LAB_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker"],
            capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        results[backend] = json.loads(proc.stdout.strip().splitlines()[-1])
        if results[backend]["backend"] != backend:
            sys.stderr.write(f"requested {backend}, got "
                             f"{results[backend]['backend']} (numba missing?)\n")
            return 1

    rows = ["sweep-full", "sweep-hit"]
    print(f"{'workload':<12} {'numba':>10} {'numpy':>10} {'numpy/numba':>12}")
    for row in rows:
        a, b = results["numba"][row], results["numpy"][row]
        print(f"{row:<12} {a:>9.4f}s {b:>9.4f}s {b / a:>11.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
