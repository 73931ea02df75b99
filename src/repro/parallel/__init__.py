"""Parallel batch execution of independent simulation trials.

Every statistical workload of the reproduction — Monte-Carlo
validation, bounded exhaustive verification, fault campaigns and the
ablation sweeps — reduces to many *independent* single-frame
simulations.  This package fans chunks of such trials out over worker
processes:

* :mod:`repro.parallel.seeds` — deterministic seed splitting via
  ``numpy.random.SeedSequence.spawn``, so parallel and serial runs of
  the same seed produce bit-identical aggregate results;
* :mod:`repro.parallel.pool` — maps picklable zero-argument calls (a
  ``functools.partial`` of a module-level domain function, one chunk
  of trials each) over a ``ProcessPoolExecutor``, with a serial
  fallback and a ``jobs=1`` path that calls inline.

The determinism contract: callers chunk their work identically
regardless of ``jobs`` and merge partial results in chunk order, so
``jobs`` only decides *where* a chunk runs, never *what* it computes.
"""

from repro.parallel.pool import effective_jobs, imap_tasks, run_tasks
from repro.parallel.seeds import adaptive_chunk, rng_from, spawn_seeds

__all__ = [
    "adaptive_chunk",
    "effective_jobs",
    "imap_tasks",
    "run_tasks",
    "rng_from",
    "spawn_seeds",
]
