"""Test-session set-up.

BLAS is pinned to one thread before anything imports numpy, as the benchmark
runner does: the band solver's ARPACK iterations make many small BLAS calls,
and on a machine with few cores a second BLAS thread makes them several
times slower.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
