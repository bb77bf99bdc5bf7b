"""Tests for the persistent worker pool (repro.exec.pool).

The properties the distributed tiers lean on:

* long-lived workers answer many addressed requests without restarting;
* actor state built inside a worker persists across invokes;
* an exception inside a request re-raises in the parent while the
  worker survives and keeps serving;
* a killed worker surfaces as :class:`WorkerCrash` and the pool keeps
  routing to survivors — the failure seam the serving tier's failover
  is built on;
* the parent counts every pickled message byte, both directions, and an
  interrupted pool resyncs with a bounded wait instead of hanging on a
  wedged worker;
* ``REPRO_TRANSPORT`` accepts only ``pipe``.
"""

import os
import time
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.exec.pool import (
    RemoteError,
    WorkerCrash,
    WorkerPool,
    pool_available,
)
from repro.exec.transport import TRANSPORT_ENV, resolve_transport

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="platform cannot fork"
)


def double(x):
    """Module-level work function (picklable by reference)."""
    return 2 * x


def worker_pid():
    return os.getpid()


def boom(message):
    raise ValueError(message)


def sleep_forever():
    time.sleep(60)


def echo(payload):
    return payload


def sleep_then(payload, seconds):
    time.sleep(seconds)
    return payload


def unpicklable_boom():
    class Local(Exception):
        pass

    raise Local("cannot cross a pipe")


class Counter:
    """Tiny actor: per-worker state that must persist across invokes."""

    def __init__(self, start=0):
        self.value = start
        self.pid = os.getpid()

    def add(self, n):
        self.value += n
        return self.value

    def where(self):
        return self.pid

    def explode(self):
        raise RuntimeError("actor failure")


@pytest.fixture()
def pool():
    with WorkerPool(2) as p:
        yield p


class TestApply:
    def test_round_trip(self, pool):
        assert pool.apply(0, double, 21) == 42
        assert pool.apply(1, double, 5) == 10

    def test_requests_run_in_worker_processes(self, pool):
        pids = {pool.apply(w, worker_pid) for w in (0, 1)}
        assert os.getpid() not in pids
        assert len(pids) == 2  # distinct processes

    def test_workers_are_long_lived(self, pool):
        first = pool.apply(0, worker_pid)
        for _ in range(5):
            assert pool.apply(0, worker_pid) == first

    def test_pipelined_submit_then_result(self, pool):
        pool.submit(0, "apply", double, (1,))
        pool.submit(1, "apply", double, (2,))
        assert pool.result(1) == 4
        assert pool.result(0) == 2

    def test_one_in_flight_per_worker(self, pool):
        pool.submit(0, "apply", double, (1,))
        with pytest.raises(RuntimeError, match="in flight"):
            pool.submit(0, "apply", double, (2,))
        assert pool.result(0) == 2

    def test_result_without_request_rejected(self, pool):
        with pytest.raises(RuntimeError, match="no request"):
            pool.result(0)


class TestActors:
    @pytest.fixture()
    def actors(self):
        with WorkerPool(2, actor_factory=Counter, factory_kwargs={"start": 10}) as p:
            yield p

    def test_state_persists_across_invokes(self, actors):
        assert actors.invoke(0, "add", 1) == 11
        assert actors.invoke(0, "add", 2) == 13
        # Worker 1 has its own actor, untouched by worker 0's calls.
        assert actors.invoke(1, "add", 5) == 15

    def test_actor_lives_in_its_worker(self, actors):
        assert actors.invoke(0, "where") == actors.apply(0, worker_pid)

    def test_invoke_without_factory_rejected(self, pool):
        with pytest.raises(RuntimeError, match="actor_factory"):
            pool.invoke(0, "add", 1)

    def test_actor_exception_propagates_worker_survives(self, actors):
        with pytest.raises(RuntimeError, match="actor failure"):
            actors.invoke(0, "explode")
        assert actors.alive(0)
        assert actors.invoke(0, "add", 1) == 11  # state survived too


class TestFailure:
    def test_remote_exception_rethrown_verbatim(self, pool):
        with pytest.raises(ValueError, match="specific detail"):
            pool.apply(0, boom, "specific detail")
        assert pool.alive(0)
        assert pool.apply(0, double, 3) == 6  # worker kept serving

    def test_unpicklable_exception_becomes_remote_error(self, pool):
        with pytest.raises(RemoteError, match="cannot cross a pipe"):
            pool.apply(1, unpicklable_boom)
        assert pool.alive(1)

    def test_killed_worker_raises_crash_and_pool_survives(self, pool):
        pool.submit(0, "apply", sleep_forever, ())
        pool._procs[0].terminate()  # simulate a segfault mid-request
        pool._procs[0].join()
        with pytest.raises(WorkerCrash):
            pool.result(0)
        assert not pool.alive(0)
        assert pool.live_workers() == [1]
        assert pool.apply(1, double, 4) == 8  # survivor unaffected

    def test_submit_to_dead_worker_raises_crash(self, pool):
        pool.kill(0)
        with pytest.raises(WorkerCrash):
            pool.submit(0, "apply", double, (1,))


class TestLifecycle:
    def test_close_is_idempotent(self):
        p = WorkerPool(1)
        p.close()
        p.close()
        assert p.live_workers() == []

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestIPC:
    def test_apply_roundtrip_counts_bytes(self, pool):
        """Counters are the pickled request + response message lengths."""
        payload = {"spectrum": np.arange(512.0), "meta": ("x", 3)}
        out = pool.apply(0, echo, payload)
        np.testing.assert_array_equal(out["spectrum"], payload["spectrum"])
        request = ForkingPickler.dumps(("apply", echo, (payload,), {}))
        response = ForkingPickler.dumps(("ok", payload))
        assert pool.transport_stats(worker=0) == {
            "bytes_pickled": len(request) + len(response),
            "descriptor_rounds": 2,
        }
        assert pool.transport_stats(worker=1) == {
            "bytes_pickled": 0,
            "descriptor_rounds": 0,
        }
        pool.apply(1, echo, 7)
        total = pool.transport_stats()
        assert total["descriptor_rounds"] == 4
        assert total["bytes_pickled"] > len(request) + len(response)

    def test_resync_times_out_on_wedged_worker(self, pool):
        pool.submit(0, "apply", sleep_then, (1, 30.0))
        start = time.perf_counter()
        pool.resync(timeout=0.3)
        assert time.perf_counter() - start < 5.0
        assert not pool.alive(0)  # wedged worker abandoned, not waited
        assert pool.apply(1, echo, "ok") == "ok"


class TestResolveTransport:
    def test_default_is_pipe(self, monkeypatch):
        monkeypatch.delenv(TRANSPORT_ENV, raising=False)
        assert resolve_transport() == "pipe"
        monkeypatch.setenv(TRANSPORT_ENV, " Pipe ")
        assert resolve_transport() == "pipe"

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, "carrier-pigeon")
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport()

    def test_env_shm_rejected(self, monkeypatch):
        monkeypatch.setenv(TRANSPORT_ENV, "shm")
        with pytest.raises(ValueError, match="unknown transport"):
            resolve_transport()
        with pytest.raises(ValueError, match="unknown transport"):
            WorkerPool(1)
