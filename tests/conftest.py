"""Test-session setup shared by every test module.

OpenBLAS sizes its thread pool when numpy is first imported, so the limit is
set here, before any test module imports numpy.  The tests' dense matrices
are small, and a multi-threaded BLAS slows small eigensolves down badly when
other processes compete for the cores.  A value already set in the
environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
