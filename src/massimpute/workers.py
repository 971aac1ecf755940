"""Run contiguous ranges of independent units of work in forked processes.

The bootstrap refits and the Monte Carlo reps each compute unit k from k
alone, so :func:`fork_map` splits ``range(units)`` into contiguous ranges,
runs each in a process forked from the caller, which inherits its data
without pickling, and returns the results in range order: the same values
for any worker count.  It runs serially, in the caller, for one worker,
off Linux, and in a daemonic process.  A worker leaves the BLAS library's
thread count as it is: no product of a design with coefficients, and no sum
over units, goes through BLAS (:mod:`.mean_model`).
"""

from __future__ import annotations

import os
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on.  A CPU quota (a cgroup's
    ``cpu.max``) does not lower it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(threads: int, units: int) -> int:
    """min(threads, usable CPUs, units): never more processes than cores."""
    return max(1, min(threads, usable_cpus(), units))


def split(units: int, workers: int) -> list[range]:
    """``range(units)`` as ``workers`` contiguous ranges of near-equal length."""
    bounds = [units * i // workers for i in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _child(fn, indices: range, conn) -> None:
    try:
        outcome = True, fn(indices)
    except Exception as exc:
        outcome = False, exc
    conn.send(outcome)


def fork_map(fn, units: int, threads: int) -> list:
    """``[fn(r) for r in split(units, workers)]``, where ``workers`` is
    :func:`worker_count`.  With more than one worker each range runs in a
    process of its own, forked from this one; this process only waits, so
    the work does not raise its own memory peak.  ``fn`` needs no pickling,
    its results and exceptions do.  An exception is raised from the first
    range that raised one, as the serial loop would; a worker that ends
    without a result (killed, say) raises ``ChildProcessError``.
    """
    ranges = split(units, worker_count(threads, units))
    if len(ranges) == 1:
        return [fn(ranges[0])]
    import multiprocessing

    # forking is safe on Linux's libraries, not under the system frameworks
    # macOS's numpy may link; a daemonic process, such as a
    # worker of a multiprocessing pool, may not start processes of its own
    if (not sys.platform.startswith("linux")
            or multiprocessing.current_process().daemon):
        return [fn(r) for r in ranges]
    context = multiprocessing.get_context("fork")
    jobs = []
    try:
        for indices in ranges:
            receive, send = context.Pipe(duplex=False)
            process = context.Process(target=_child, args=(fn, indices, send),
                                      daemon=True)
            process.start()
            send.close()
            jobs.append((process, receive))
        outcomes = [_receive(process, receive) for process, receive in jobs]
    except BaseException:
        for process, _ in jobs:
            process.terminate()
        raise
    finally:
        for process, receive in jobs:
            receive.close()
            process.join()
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _receive(process, receive):
    try:
        return receive.recv()
    except EOFError:
        process.join()
        raise ChildProcessError(f"worker process exited with code "
                                f"{process.exitcode} before sending its result") from None
