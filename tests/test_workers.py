"""The fork-map helper: the worker-count rule, range order, errors."""

import ctypes
import multiprocessing
import os
import sys

import numpy as np
import pytest

from massimpute import ModelFamily, bootstrap_refit, build_design_matrix
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


def _openblas_threads():
    """OpenBLAS's thread count in this process, or None without OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in paths:
        library = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_"):
            getter = getattr(library, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


@needs_two_cpus
@pytest.mark.skipif(not os.path.exists("/proc/self/maps") or _openblas_threads() is None,
                    reason="needs OpenBLAS and /proc")
def test_workers_run_openblas_in_one_thread():
    assert fork_map(lambda r: _openblas_threads(), 2, 2) == [1, 1]
