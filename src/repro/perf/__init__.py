"""Performance layer: parallel sweep execution, benchmarks, profiling.

Every figure in the paper is a sweep of independent cells (one simulated
machine per cell), which makes the harness embarrassingly parallel:
:mod:`repro.perf.pool` fans cells out over a process pool and merges the
results in deterministic cell order, :mod:`repro.perf.cells` holds the
picklable cell runners, :mod:`repro.perf.bench` measures event-loop,
end-to-end, obs-overhead and sweep wall-clock into ``BENCH_sim.json``
(plus the ``--alloc-profile`` tracemalloc diagnostic), and
:mod:`repro.perf.profiling` is the ``--profile`` cProfile hook.  Host
time per simulated second, split by layer, is measured outside the
package by ``perfbench/run.py``.
"""

from repro.perf.pool import CellFailure, SweepCell, run_cells
from repro.perf.profiling import maybe_profiled

__all__ = ["CellFailure", "SweepCell", "run_cells", "maybe_profiled"]
