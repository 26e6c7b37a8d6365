"""The sweep executor contract: spec resolution, in-process fallback,
spec-order reduce under out-of-order completion, crash surfacing (the
original worker traceback, never a hung pool) and the start-method rule
(fork from a single-threaded Linux parent, spawn otherwise)."""

import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from helpers import live_thread
from repro.exec import RunSpec, SweepError, SweepExecutor, resolve_callable


# -- module-level spec targets (picklable by reference) ---------------------


def add(a, b=0, seed=0):
    return a + b + seed


def slow_identity(value, delay_s=0.0):
    time.sleep(delay_s)
    return value


def my_pid(**_kw):
    return os.getpid()


def boom(message="kaboom"):
    raise ValueError(message)


def returns_unpicklable():
    return lambda: None


def worker_start_method(**_kw):
    return multiprocessing.get_start_method()


def sigkill_self(**_kw):
    os.kill(os.getpid(), signal.SIGKILL)


class TestRunSpec:
    def test_string_reference_resolves(self):
        fn = resolve_callable("test_executor:add")
        assert fn is add

    def test_bad_string_reference_rejected(self):
        with pytest.raises(ValueError):
            resolve_callable("no-colon-here")
        with pytest.raises(ModuleNotFoundError):
            resolve_callable("not.a.module:fn")

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            resolve_callable(42)
        with pytest.raises(TypeError):
            RunSpec(fn="os:sep").run()

    def test_seed_merged_into_kwargs(self):
        spec = RunSpec(fn=add, kwargs=dict(a=1, b=2), seed=10)
        assert spec.call_kwargs() == dict(a=1, b=2, seed=10)
        assert spec.run() == 13

    def test_conflicting_seed_rejected(self):
        spec = RunSpec(fn=add, kwargs=dict(a=1, seed=3), seed=4)
        with pytest.raises(ValueError, match="conflicts"):
            spec.call_kwargs()

    def test_matching_seed_allowed(self):
        spec = RunSpec(fn=add, kwargs=dict(a=1, seed=3), seed=3)
        assert spec.run() == 4


class TestInProcessFallback:
    def test_jobs1_runs_in_this_process(self):
        results = SweepExecutor(jobs=1).map([RunSpec(fn=my_pid)])
        assert results[0].value == os.getpid()
        assert results[0].pid == os.getpid()

    def test_jobs1_accepts_unpicklable_fn(self):
        # The in-process path never pickles: lambdas/closures are fine.
        results = SweepExecutor(jobs=1).map([RunSpec(fn=lambda: 7)])
        assert results[0].value == 7

    def test_single_spec_skips_pool_even_with_jobs(self):
        # One spec gains nothing from a pool; the executor runs it inline.
        results = SweepExecutor(jobs=4).map([RunSpec(fn=my_pid)])
        assert results[0].value == os.getpid()

    def test_values_in_spec_order(self):
        specs = [RunSpec(fn=add, kwargs=dict(a=i), key=i) for i in range(5)]
        assert [r.value for r in SweepExecutor().map(specs)] == [0, 1, 2, 3, 4]

    def test_empty_sweep(self):
        assert SweepExecutor(jobs=1).map([]) == []
        assert SweepExecutor(jobs=2).map([]) == []

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_error_raises_sweep_error_with_traceback(self):
        specs = [RunSpec(fn=boom, kwargs=dict(message="in-process boom"), key="k")]
        with pytest.raises(SweepError) as exc:
            SweepExecutor(jobs=1).map(specs)
        assert "in-process boom" in str(exc.value)
        assert "ValueError" in exc.value.worker_traceback
        assert exc.value.key == "k"

    def test_raise_on_error_false_returns_error_results(self):
        specs = [
            RunSpec(fn=add, kwargs=dict(a=1), key="ok"),
            RunSpec(fn=boom, key="bad"),
            RunSpec(fn=add, kwargs=dict(a=2), key="ok2"),
        ]
        results = SweepExecutor(jobs=1, raise_on_error=False).map(specs)
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].value == 1 and results[2].value == 2
        assert "kaboom" in results[1].error


class TestProcessPool:
    """jobs>1: real worker processes, forked from this one on Linux.
    Kept small — a spawned worker pays an interpreter and its imports."""

    def test_results_cross_process_and_reduce_in_spec_order(self):
        # The first spec sleeps so it *finishes last*; the reduce must
        # still return spec order, and at least one run must have
        # executed outside this process.
        specs = [
            RunSpec(fn=slow_identity, kwargs=dict(value=0, delay_s=0.4), key=0),
            RunSpec(fn=slow_identity, kwargs=dict(value=1), key=1),
            RunSpec(fn=my_pid, key=2),
        ]
        results = SweepExecutor(jobs=2).map(specs)
        assert [r.value for r in results[:2]] == [0, 1]
        assert [r.index for r in results] == [0, 1, 2]
        assert results[2].value != os.getpid()
        assert all(r.pid != os.getpid() for r in results)

    def test_worker_exception_surfaces_original_traceback(self):
        specs = [
            RunSpec(fn=add, kwargs=dict(a=1), key="fine"),
            RunSpec(fn=boom, kwargs=dict(message="worker boom"), key="dead"),
        ]
        with pytest.raises(SweepError) as exc:
            SweepExecutor(jobs=2).map(specs)
        msg = str(exc.value)
        # The original traceback text, not a bare pool error: the
        # exception type, the message, and the raising function all
        # survive the process boundary.
        assert "ValueError: worker boom" in msg
        assert "in boom" in msg
        assert exc.value.key == "dead"

    def test_unpicklable_spec_rejected_with_attribution(self):
        specs = [
            RunSpec(fn=add, kwargs=dict(a=1), key="ok"),
            RunSpec(fn=lambda: 1, key="closure"),
        ]
        with pytest.raises(SweepError, match="not picklable") as exc:
            SweepExecutor(jobs=2).map(specs)
        assert exc.value.key == "closure"
        assert exc.value.index == 1

    def test_unpicklable_spec_with_raise_on_error_false_keeps_others(self):
        # A spec that can't be shipped must not discard the sweep: the
        # good specs still run and the bad one comes back as an error
        # result attributed to this (submission-side) process.
        specs = [
            RunSpec(fn=add, kwargs=dict(a=1), key="ok"),
            RunSpec(fn=lambda: 1, key="closure"),
            RunSpec(fn=add, kwargs=dict(a=2), key="ok2"),
        ]
        results = SweepExecutor(jobs=2, raise_on_error=False).map(specs)
        assert [r.ok for r in results] == [True, False, True]
        assert results[0].value == 1 and results[2].value == 2
        assert "not picklable" in results[1].error
        assert results[1].pid == os.getpid()

    def test_unpicklable_return_value_is_clean_error(self):
        specs = [
            RunSpec(fn=returns_unpicklable, key="lambda-back"),
            RunSpec(fn=add, kwargs=dict(a=1), key="ok"),
        ]
        with pytest.raises(SweepError, match="unpicklable value"):
            SweepExecutor(jobs=2).map(specs)

    def test_sigkilled_worker_breaks_the_pool_and_leaves_no_child(self):
        specs = [
            RunSpec(fn=slow_identity, kwargs=dict(value=0, delay_s=0.2), key=0),
            RunSpec(fn=sigkill_self, key="victim"),
            RunSpec(fn=slow_identity, kwargs=dict(value=2, delay_s=0.2), key=2),
        ]
        t0 = time.perf_counter()
        with pytest.raises(BrokenProcessPool):
            SweepExecutor(jobs=2).map(specs)
        assert time.perf_counter() - t0 < 30.0
        assert multiprocessing.active_children() == []


class TestStartMethod:
    """One rule, no option: workers fork from a single-threaded Linux
    parent and are spawned while another thread is live — with identical
    values either way."""

    VALUES = [10, 12, 14, 16]

    def sweep(self):
        specs = [RunSpec(fn=worker_start_method, key="method")] + [
            RunSpec(fn=add, kwargs=dict(a=i, b=10), seed=i, key=i) for i in range(4)
        ]
        results = SweepExecutor(jobs=2).map(specs)
        return results[0].value, [r.value for r in results[1:]]

    @pytest.mark.skipif(sys.platform != "linux", reason="fork is the Linux path")
    def test_single_threaded_linux_parent_forks(self):
        assert threading.active_count() == 1
        assert self.sweep() == ("fork", self.VALUES)

    def test_live_thread_spawns_with_identical_values(self):
        with live_thread():
            assert self.sweep() == ("spawn", self.VALUES)

    def test_start_method_is_not_an_option(self):
        with pytest.raises(TypeError):
            SweepExecutor(jobs=2, start_method="fork")
