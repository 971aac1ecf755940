"""Run contiguous ranges of independent units of work in forked processes.

The bootstrap refits and the Monte Carlo reps each compute unit k from k
alone, so :func:`fork_map` splits ``range(units)`` into contiguous ranges,
runs each in a process forked from the caller, which inherits its data
without pickling, and returns the results in range order: the same values
for any worker count.  It runs serially, in the caller, for one worker,
off Linux, and in a daemonic process.  A worker leaves the BLAS library's
thread count as it is: no product of a design with coefficients, and no sum
over units, goes through BLAS (:mod:`.mean_model`).

Workers are started with ``os.fork`` and send their pickled outcome back
through a pipe of their own.  ``multiprocessing`` is never imported: its
import and one ``Process`` with its ``Pipe`` add about 0.9 MiB to the
caller's peak memory.  :func:`use_builtin_hashes` decides, for a command at
its start and for each worker, whether ``hashlib`` is built without OpenSSL.
"""

from __future__ import annotations

import importlib.util
import os
import pickle
import signal
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


def use_builtin_hashes() -> None:
    """Have ``hashlib``, which ``import numpy.random`` imports, built without
    OpenSSL's libcrypto (about 3.5 MiB), unless this process has loaded it or
    lacks a hash module ``hashlib`` falls back to (it would log a traceback
    for each): a module set to None in ``sys.modules`` cannot be imported."""
    sha2 = ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
    if all(map(importlib.util.find_spec, ("_md5", "_sha1", *sha2, "_blake2", "_sha3"))):
        sys.modules.setdefault("_hashlib", None)


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


def _child(fn, indices: range, write: int, running: dict) -> None:
    """Run one range in a forked worker after :func:`use_builtin_hashes`,
    write its pickled outcome to the pipe ``write`` and leave through
    ``os._exit``: 0 once the outcome is written, 1 otherwise.  Never returns."""
    code = 1
    try:
        use_builtin_hashes()  # a worker's first draw imports numpy.random
        for pipe in running.values():  # of the workers forked before this one
            pipe.close()
        try:
            outcome = True, fn(indices)
        except Exception as exc:
            outcome = False, exc
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:  # a result or an exception pickle refuses
            data = pickle.dumps((False, ChildProcessError(
                f"worker process could not send its result: {exc!r}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        _flush_stdio()
        os._exit(code)


def _fork(fn, indices: range, running: dict) -> int:
    """Fork a worker for ``indices`` and enter the read end of its pipe in
    ``running`` under its pid."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _child(fn, indices, write, running)
    os.close(write)
    running[pid] = open(read, "rb")
    return pid


def _receive(pid: int, running: dict):
    """The outcome a worker sent, read to the end of its pipe, once the
    worker is reaped; ``ChildProcessError`` if it exited without one."""
    with running[pid] as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del running[pid]
    if code:
        raise ChildProcessError(f"worker process exited with code "
                                f"{code} before sending its result")
    return pickle.loads(data)


def fork_map(fn, units: int, threads: int) -> list:
    """``[fn(r) for r in split(units, workers)]``, where ``workers`` is
    :func:`worker_count`.  With more than one worker each range runs in a
    process of its own, forked from this one; this process only waits, so
    the work does not raise its own memory peak.  ``fn`` needs no pickling,
    its results and exceptions do.  An exception is raised from the first
    range that raised one, as the serial loop would; a worker that ends
    without a result (killed, say, or with a result pickle refuses) raises
    ``ChildProcessError``.  If this process is interrupted, the workers
    still running get SIGTERM; every worker is reaped before it returns.
    """
    ranges = split(units, worker_count(threads, units))
    if len(ranges) == 1:
        return [fn(ranges[0])]
    # forking is safe on Linux's libraries, not under the system frameworks
    # macOS's numpy may link; a daemonic process, such as a worker of a
    # multiprocessing pool, may not start processes of its own (a process
    # that never imported multiprocessing is none)
    multiprocessing = sys.modules.get("multiprocessing")
    if (not sys.platform.startswith("linux")
            or (multiprocessing is not None
                and multiprocessing.current_process().daemon)):
        return [fn(r) for r in ranges]
    _flush_stdio()  # or a worker would write this process's buffers again
    running = {}  # pid -> the read end of its pipe, for each unreaped worker
    try:
        pids = [_fork(fn, indices, running) for indices in ranges]
        outcomes = [_receive(pid, running) for pid in pids]
    except BaseException:
        for pid in running:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, pipe in running.items():
            pipe.close()
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
