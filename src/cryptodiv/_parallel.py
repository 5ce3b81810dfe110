"""An ordered map over forked worker processes.

Tree fitting and prediction make many small numpy calls that hold the GIL,
so parallel work runs in processes, not threads. The workers are forked, so
they inherit the mapped function, with its closures and arrays, from the
parent's memory; only the items and the results are pickled.
"""

from __future__ import annotations

from typing import Callable, Iterable


class WorkerDied(RuntimeError):
    """A worker process ended without returning its result."""


# The function being mapped. It is set before the pool forks its workers,
# which read it from their copy of this module.
_task: Callable | None = None


def _call(item):
    return _task(item)


def fork_map(fn: Callable, items: Iterable, jobs: int) -> list:
    """[fn(x) for x in items], in up to `jobs` forked worker processes.

    With one worker or one item it runs in this process. An exception raised
    by fn is re-raised here; a worker that dies raises WorkerDied.
    """
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    # Imported here: the import alone adds about 1 MB of resident memory to
    # the commands that start no pool.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    global _task
    outer, _task = _task, fn
    try:
        # a fork-context pool starts all its workers at the first submit
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(_call, items))
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a worker process died: {exc}") from None
    finally:
        _task = outer
