"""Parallel-execution substrate for the multi-worker experiments.

The paper's Figure 12 (16 threads over small records) and the
JPStream(16)/Pison(16) bars of Figure 10 (speculative parallelism inside
one large record) need multiple cores; this reproduction runs on whatever
the host has (often a single core), so parallel execution is *simulated
from measured work*: every partition of the work is really executed and
timed serially, and the N-worker wall-clock is the makespan of
dynamically scheduling those measured tasks (plus the measured serial
sections).  Scaling shape therefore comes from genuine load balance and
genuine serial overheads, not from an analytic model.
"""

from repro.parallel.chunking import TopLevelSplit, split_top_level
from repro.parallel.real_pool import PoolResult, run_records_pool_resilient
from repro.parallel.records_parallel import ParallelRunResult, parallel_records_run
from repro.parallel.simulator import MakespanResult, makespan
from repro.parallel.speculation import speculative_large_run

__all__ = [
    "MakespanResult",
    "ParallelRunResult",
    "PoolResult",
    "TopLevelSplit",
    "makespan",
    "parallel_records_run",
    "run_records_pool_resilient",
    "speculative_large_run",
    "split_top_level",
]
