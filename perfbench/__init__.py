"""End-to-end and per-layer benchmark of the empursuit encode and learn commands."""

# Environment variables that set the BLAS thread count; the benchmark pins
# each to 1 before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
