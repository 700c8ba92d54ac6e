"""Backend selection for the brute-force coloring sweep.

The search kernel (`_kernels.dpll_step`) is numpy-vectorized and the same
on every backend.  RAMSEY_LAB_BACKEND picks only the sweep: the
numba-jitted scalar loop by default, or the vectorized numpy sweep when
RAMSEY_LAB_BACKEND=numpy or numba is missing.  The choice is made at
import time; `BACKEND` records what was picked.
"""

import os

from . import _kernels

_requested = os.environ.get("RAMSEY_LAB_BACKEND", "numba").strip().lower()
if _requested not in ("numba", "numpy"):
    raise RuntimeError(f"RAMSEY_LAB_BACKEND must be 'numba' or 'numpy', got {_requested!r}")

HAS_NUMBA = False
if _requested == "numba":
    try:
        from numba import njit
        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False

if HAS_NUMBA:
    BACKEND = "numba"
    sweep_colorings = njit(cache=True)(_kernels.sweep_colorings)
else:
    BACKEND = "numpy"
    sweep_colorings = _kernels.sweep_colorings_numpy
