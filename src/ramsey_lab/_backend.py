"""Which kernel implementation the library runs, for benchmark records.

There is one: the watched-literal DPLL in `_kernels`, plain Python over
numpy buffers, with no backend switch and no numba.  Its only reader is
`perfbench/worker.py`, which checks the requested backend against
`BACKEND` and records it.
"""

BACKEND = "numpy"
HAS_NUMBA = False
