"""The worker pool: map picklable zero-argument calls over processes.

A task is any picklable callable taking no arguments — in practice a
``functools.partial`` of a module-level domain function.  Its contract:

* ``jobs=1`` calls inline in submission order, with no process
  machinery touched;
* ``jobs>1`` submits the same calls to one cached
  ``ProcessPoolExecutor`` and yields results *in submission order*, so
  merging partial results is identical either way;
* if no executor can be created (sandboxes without semaphore support,
  restricted platforms), it falls back to the serial path — the same
  results, only slower;
* a worker that dies mid-task (SIGKILL, the OOM killer) breaks the
  executor, which surfaces at once as a :class:`ReproError` instead of
  a hang.

``jobs=None``/``0`` resolves through ``REPRO_JOBS`` (then 1) and a
negative ``jobs`` means "all visible CPUs".  The executor is rebuilt
only when the worker count changes, dropped after any failure or an
abandoned stream, and shut down at interpreter exit.  Calls are
deterministic functions of their arguments, so which worker runs them
is unobservable.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from typing import Callable, Iterable, Iterator, List, Optional

from repro.errors import ReproError

#: The shared ``ProcessPoolExecutor`` (``concurrent.futures`` is imported
#: only when one is built, which keeps serial runs' start-up lean).
_EXECUTOR = None
_EXECUTOR_WORKERS = 0


def cpu_count() -> int:
    """Number of CPUs this process may actually use."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` request to a concrete worker count.

    ``None``/``0`` consult the ``REPRO_JOBS`` environment variable and
    default to 1 (serial); negative values mean every visible CPU.
    """
    if jobs is None or jobs == 0:
        env = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(env) if env else 1
        except ValueError:
            jobs = 1
    if jobs < 0:
        jobs = cpu_count()
    return max(1, jobs)


def _get_executor(workers: int):
    """The shared executor for ``workers``, or ``None`` if none can exist."""
    global _EXECUTOR, _EXECUTOR_WORKERS
    if _EXECUTOR is not None and _EXECUTOR_WORKERS == workers:
        return _EXECUTOR
    shutdown_pool()
    try:
        from concurrent.futures import ProcessPoolExecutor

        _EXECUTOR = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context()
        )
        _EXECUTOR_WORKERS = workers
    except (ImportError, OSError, PermissionError, ValueError):
        _EXECUTOR = None
    return _EXECUTOR


def shutdown_pool() -> None:
    """Drop the shared executor, cancelling queued calls (idempotent)."""
    global _EXECUTOR, _EXECUTOR_WORKERS
    executor, _EXECUTOR, _EXECUTOR_WORKERS = _EXECUTOR, None, 0
    if executor is not None:
        executor.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)


def imap_tasks(calls: Iterable[Callable], jobs: Optional[int] = None) -> Iterator:
    """Yield each call's result, in submission order.

    Drivers that persist partial results as they arrive (the sweep
    engine appends each chunk to its store the moment it completes)
    consume this stream directly; :func:`run_tasks` collects it.
    """
    workers = effective_jobs(jobs)
    if workers > 1:
        calls = list(calls)
    executor = _get_executor(workers) if workers > 1 and calls else None
    if executor is None:
        for call in calls:
            yield call()
        return
    try:
        futures = [executor.submit(call) for call in calls]
        for future in futures:
            yield future.result()
    except BaseException as exc:
        # A call raised, a worker died or the consumer abandoned the
        # stream: queued calls may still be in flight, so never hand
        # the executor on.
        shutdown_pool()
        from concurrent.futures.process import BrokenProcessPool

        if isinstance(exc, BrokenProcessPool):
            raise ReproError("a worker process died: %s" % exc) from exc
        raise


def run_tasks(calls: Iterable[Callable], jobs: Optional[int] = None) -> List:
    """Call every entry of ``calls``; return the results in order."""
    return list(imap_tasks(calls, jobs))
