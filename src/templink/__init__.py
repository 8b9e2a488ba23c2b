"""Temporal graph-aware entity linking: corpus ingest, snapshot graph
construction, joint text/graph training, and temporal-gap evaluation."""

import os

# one BLAS thread, set before numpy loads; threaded gemm sums in another order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
