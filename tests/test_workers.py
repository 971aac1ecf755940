"""The fork-map helper: the worker-count rule, range order, errors."""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from massimpute import ModelFamily, bootstrap_refit, build_design_matrix, workers
from massimpute.errors import NumericalError, StratumExhausted
from massimpute.workers import fork_map, split, usable_cpus, worker_count

from conftest import make_sample_b

needs_two_cpus = pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 usable CPUs")


def test_worker_count_is_capped_by_cpus_and_units():
    # a rule, not a run: no process starts
    assert worker_count(10**6, 10**9) == usable_cpus()
    assert worker_count(10**6, 1) == 1
    assert worker_count(1, 10**9) == 1


def test_one_unit_runs_in_this_process():
    assert fork_map(lambda r: (list(r), os.getpid()), 1, 10**6) == [([0], os.getpid())]


@pytest.mark.parametrize("units, workers", [(1, 1), (7, 2), (8, 3), (500, 7)])
def test_split_is_contiguous_and_even(units, workers):
    ranges = split(units, workers)
    assert len(ranges) == workers
    assert [k for r in ranges for k in r] == list(range(units))
    assert max(map(len, ranges)) - min(map(len, ranges)) <= 1


@needs_two_cpus
def test_ranges_run_in_forked_processes_and_return_in_order():
    parent = os.getpid()
    parts = fork_map(lambda r: (list(r), os.getpid()), 5, 2)
    assert [k for keys, _ in parts for k in keys] == list(range(5))
    pids = {pid for _, pid in parts}
    assert len(pids) == 2 and parent not in pids


@needs_two_cpus
def test_worker_that_dies_raises_child_process_error():
    def die_in_second_range(r):
        if r.start > 0:
            os._exit(9)
        return list(r)

    with pytest.raises(ChildProcessError, match="exited with code 9 "):
        fork_map(die_in_second_range, 4, 2)


@needs_two_cpus
def test_runs_serially_off_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    parts = fork_map(lambda r: (list(r), os.getpid()), 4, 2)
    assert [k for keys, _ in parts for k in keys] == list(range(4))
    assert {pid for _, pid in parts} == {os.getpid()}


@needs_two_cpus
def test_worker_of_a_pool_runs_serially():
    # a pool's workers are daemonic and may not fork; fork_map runs in them
    with multiprocessing.get_context("fork").Pool(1) as pool:
        parts, pid = pool.apply(_fork_map_pids)
    assert [k for keys, _ in parts for k in keys] == list(range(4))
    assert {p for _, p in parts} == {pid}


def _fork_map_pids():
    return fork_map(lambda r: (list(r), os.getpid()), 4, 2), os.getpid()


@needs_two_cpus
def test_error_of_the_first_failing_range_is_raised_whole():
    def fail_from_2(indices):
        for k in indices:
            if k >= 2:
                raise StratumExhausted(f"k = {k}", 3, 1)
        return list(indices)

    # both ranges fail; the first one's error arrives, attributes and all
    with pytest.raises(StratumExhausted, match="k = 2: requested 3") as exc:
        fork_map(fail_from_2, 8, 2)
    assert type(exc.value) is StratumExhausted


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError here if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child at all, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def _list_of(r):
    return list(r)


def _raise_in_second_range(r):
    if r.start > 0:
        raise ValueError(f"range {r}")
    return list(r)


def _die_in_second_range(r):
    if r.start > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return list(r)


@needs_two_cpus
@pytest.mark.parametrize("fn, error", [(_list_of, None),
                                       (_raise_in_second_range, ValueError),
                                       (_die_in_second_range, ChildProcessError)])
def test_every_worker_is_reaped(fn, error):
    _assert_no_child_left()
    with _deadline(60):
        if error is None:
            assert fork_map(fn, 6, 2) == [[0, 1, 2], [3, 4, 5]]
        else:
            with pytest.raises(error):
                fork_map(fn, 6, 2)
    _assert_no_child_left()


@needs_two_cpus
def test_output_buffered_before_the_fork_is_written_once():
    # a pipe makes stdout block-buffered; a worker that inherited the unflushed
    # buffer would write it again when it flushes on leaving
    script = ("import sys; from massimpute.workers import fork_map; "
              "sys.stdout.write('once'); fork_map(list, 4, 2)")
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(workers.__file__))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "once"


def _sleep_in_second_range(r):
    if r.start > 0:
        time.sleep(60)
    return list(r)


@needs_two_cpus
def test_interrupted_wait_terminates_and_reaps_the_workers():
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        with _deadline(1):
            fork_map(_sleep_in_second_range, 4, 2)
    assert time.monotonic() - start < 30  # the sleeping worker got SIGTERM
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None  # pickle refuses a lambda


def _raise_unpicklable(r):
    raise _Unpicklable(f"range {r}")


@needs_two_cpus
def test_exception_that_cannot_be_pickled_arrives_as_an_error():
    with _deadline(60):
        with pytest.raises(ChildProcessError, match="could not send its result"):
            fork_map(_raise_unpicklable, 4, 2)
    _assert_no_child_left()


@pytest.mark.filterwarnings("ignore::massimpute.errors.OverflowGuardWarning")
def test_failed_replicate_in_second_range_is_named_at_any_worker_count():
    # y = 1{x > 0} with the two middle labels swapped: at n = 12 replicate
    # 133 is the first whose every redraw is separated, and at L = 200 it
    # lies in the second of two ranges
    x = np.linspace(-1.0, 1.0, 12)
    y = (x > 0).astype(float)
    y[5], y[6] = y[6], y[5]
    sample = make_sample_b(x, y)
    dm = build_design_matrix(sample, ("x",), intercept=True)
    assert 133 in split(200, 2)[1]
    messages = []
    for workers in (1, 2):
        with pytest.raises(NumericalError) as exc:
            bootstrap_refit(sample, ModelFamily.LOGISTIC, dm, L=200, seed=11,
                            workers=workers)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("replicate 133 failed")


def test_refits_do_not_depend_on_block_boundaries(rng):
    # at n = 50,000 refits go in blocks of 20 replicates, so the ranges of two
    # workers, 0-24 and 25-49, cut their blocks elsewhere than one worker's
    x = rng.normal(2.0, 1.0, 50_000)
    sample = make_sample_b(x, 1.0 + 2.0 * x + rng.normal(size=50_000))
    dm = build_design_matrix(sample, ("x",), intercept=True)
    serial = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=50, seed=4)
    forked = bootstrap_refit(sample, ModelFamily.LINEAR, dm, L=50, seed=4, workers=2)
    assert np.array_equal(serial[0], forked[0]) and serial[1] == forked[1]

