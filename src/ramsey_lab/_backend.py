"""Which kernel implementation the library runs, for reports.

There is one: the watched-literal DPLL in `_kernels`, plain Python over
numpy buffers, with no backend switch and no numba.  The names stay so
that run reports and external tools that record them keep working.
"""

BACKEND = "numpy"
HAS_NUMBA = False
