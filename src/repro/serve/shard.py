"""The distributed serving tier: shard cohorts across worker processes.

PR 4's lockstep tick made one process serve N sessions; this module
makes N *processes* serve N·M. The division of labor:

* :class:`ShardWorker` — the actor living inside each
  :class:`~repro.exec.pool.WorkerPool` worker process. It owns whole
  cohorts (shared vectorized pipelines plus slot bookkeeping) and
  advances them with :meth:`Pipeline.advance
  <repro.pipeline.Pipeline.advance>`, the post-average half of the
  :meth:`Pipeline.tick <repro.pipeline.Pipeline.tick>` the
  single-process engine uses, so a shard's outputs are bitwise the
  single-process outputs for the same frames — tick rows are
  independent sessions, and partitioning rows across processes changes
  nothing.
* :class:`DistributedScheduler` — the front-end mirror of
  :class:`~repro.serve.scheduler.Scheduler`. It places **whole
  cohorts** onto shards (least-loaded placement, Kadabra-style: where
  work lands adapts to observed load), keeps every session's bounded
  queue and accumulated results in the parent, and per tick sends each
  shard one batched ``step`` — all shards are submitted before any
  response is awaited, so shard compute overlaps. The front end runs
  each cohort's :func:`~repro.pipeline.frame_average` itself and ships
  the averaged ``(n, n_rx, n_bins)`` slab: a fifth of the raw sweep
  bytes (five sweeps per frame), and the parent reads every raw byte
  once either way — to reduce it rather than to pickle it.

Failure is survivable by construction: the parent owns the queues, so
when a shard dies mid-step (crash or a raised exception), its in-flight
frames are requeued at the head of their sessions' queues, the shard is
excluded (the ``excluded``-style bookkeeping the exec layer uses for
bad runners), and its cohorts are re-placed onto survivors. The
re-placed sessions restart their pipeline state at a reset boundary —
exactly the semantics of the sharded stream runner — so each failed-over
session re-primes background subtraction on its next frame and loses
one output frame, deterministically, while every other session is
untouched.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..exec.pool import WorkerCrash, WorkerPool, remote_failure
from ..kernels.profile import StageProfiler, profiling_enabled
from ..pipeline.runner import PipelineResult, frame_average
from .scheduler import Cohort
from .session import (
    AdmissionRefused,
    Session,
    SessionSpec,
    frame_shape,
    group_row_fields,
    tick_group,
)


class ShardWorker:
    """Cohort pipelines hosted inside one long-lived worker process.

    Instantiated by the worker pool *inside* the worker (actor
    factory); every method is an IPC entry point with picklable
    arguments and returns. Reuses :class:`~repro.serve.scheduler.Cohort`
    for pipeline construction and slot recycling, so shard-side slot
    lifecycle is the single-process lifecycle.
    """

    def __init__(self) -> None:
        self.cohorts: dict[str, Cohort] = {}
        self._placement: dict[int, tuple[str, int]] = {}  # sid -> (key, slot)
        self.steps = 0
        self.frames_processed = 0
        self._fail_in: int | None = None
        self._retired_profile = StageProfiler()

    # -- session lifecycle -------------------------------------------------

    def _cohort(self, key: str, spec: SessionSpec) -> Cohort:
        cohort = self.cohorts.get(key)
        if cohort is None:
            cohort = Cohort(key, spec)
            self.cohorts[key] = cohort
        return cohort

    def admit(
        self, session_id: int, key: str, spec: SessionSpec, start_frame: int = 0
    ) -> int:
        """Open a fresh state slot for a session; returns the slot.

        Args:
            session_id: engine-wide session identity.
            key: placement key of the session's cohort.
            spec: pipeline structure (builds the cohort on first use).
            start_frame: index of the session's next input frame — 0
                for a new session; a failover re-admission passes the
                frames already consumed so the fresh state starts *on
                the session clock*, exactly like
                :meth:`Pipeline.reset(start_frame)
                <repro.pipeline.Pipeline.reset>` at a shard boundary.
        """
        if session_id in self._placement:
            raise RuntimeError(f"session {session_id} already on this shard")
        cohort = self._cohort(key, spec)
        slot = cohort.allocate_slot()
        if start_frame:
            pipeline = cohort.pipeline
            pipeline.restore_session(
                slot,
                {
                    "frames_in": start_frame,
                    "stages": [{} for _ in pipeline.stages],
                },
            )
        cohort.sessions[session_id] = session_id  # membership marker
        self._placement[session_id] = (key, slot)
        return slot

    def evict(self, session_id: int) -> None:
        """Forget a session's state slot; drop its cohort when empty."""
        key, slot = self._placement.pop(session_id)
        cohort = self.cohorts[key]
        del cohort.sessions[session_id]
        cohort.release_slot(slot)
        if not cohort.sessions:
            if cohort.pipeline.profiler is not None:
                self._retired_profile.merge(cohort.pipeline.profiler)
            del self.cohorts[key]

    @property
    def num_sessions(self) -> int:
        """Sessions currently placed on this shard."""
        return len(self._placement)

    # -- the unit of work --------------------------------------------------

    def step(
        self, batch: list[tuple[str, np.ndarray, np.ndarray]]
    ) -> tuple[list[dict], float]:
        """Advance this shard one scheduler tick.

        Args:
            batch: one ``(cohort_key, session_ids, slab)`` triple per
                cohort with frames this tick: the int64 ids of its
                ready sessions and their frame-averaged
                ``(n, n_rx, n_bins)`` complex128 spectra, row for row
                (see :func:`~repro.pipeline.frame_average`).

        Returns:
            ``(groups, tick_s)``: one output group per cohort pipeline
            tick — the tick's emitted rows as column slabs with a
            parallel session-id routing vector (see
            :func:`~repro.serve.session.tick_group`; a tick may emit
            fewer rows than it was fed when frames only primed) — and
            the wall-clock seconds spent ticking pipelines, which the
            parent subtracts from the round-trip time to measure IPC
            overhead. The parent expands each group row by row with
            :func:`~repro.serve.session.group_row_fields`.
        """
        if self._fail_in is not None:
            self._fail_in -= 1
            if self._fail_in <= 0:
                self._fail_in = None
                raise RuntimeError("injected shard failure (fail_next_step)")
        start = perf_counter()
        groups: list[dict] = []
        placement = self._placement
        for key, session_ids, slab in batch:
            slots = np.fromiter(
                (placement[sid][1] for sid in session_ids.tolist()),
                dtype=np.intp,
                count=len(session_ids),
            )
            tick = self.cohorts[key].pipeline.advance(slab, slots)
            self.frames_processed += len(slots)
            if tick.num_rows:
                # Priming rows emit nothing: route each emitted slot
                # back to its session.
                order = np.argsort(slots)
                rows = order[np.searchsorted(slots, tick.slots, sorter=order)]
                groups.append(tick_group(tick, session_ids[rows]))
        self.steps += 1
        return groups, perf_counter() - start

    # -- introspection / fault injection -----------------------------------

    def stats(self) -> dict:
        """Shard-side counters (steps, frames, cohorts, sessions)."""
        return {
            "steps": self.steps,
            "frames_processed": self.frames_processed,
            "cohorts": len(self.cohorts),
            "sessions": self.num_sessions,
        }

    def stage_profile(self) -> dict:
        """This shard's merged per-stage counters (picklable dict)."""
        merged = StageProfiler()
        merged.merge(self._retired_profile)
        for cohort in self.cohorts.values():
            if cohort.pipeline.profiler is not None:
                merged.merge(cohort.pipeline.profiler)
        return merged.as_dict()

    def fail_next_step(self, after: int = 1) -> None:
        """Arm fault injection: the ``after``-th next step raises.

        Test seam for the failover path — a shard that raises mid-tick
        must be excluded and its sessions requeued, not kill the engine.
        """
        self._fail_in = max(int(after), 1)


class PlacedCohort:
    """Front-end bookkeeping for one cohort living on a shard.

    The parent-side mirror of the shard's :class:`Cohort`: no pipeline,
    just membership and placement. Unlike the single-process engine —
    where a spec has exactly one cohort — the distributed tier may run
    **one cohort per (spec, shard)**: the cohort is the placement unit
    (it always lives whole on one shard), and homogeneous traffic
    spreads across shards by founding sibling cohorts of the same spec.
    Partitioning sessions into more cohorts never changes outputs (tick
    rows are independent); it only changes where they are computed.

    Args:
        key: unique placement key (``<spec key>#<seq>`` in the
            distributed tier).
        spec_key: the spec's content key — shared by sibling cohorts.
        spec: the shared pipeline structure.
        shard: worker index currently hosting the cohort.
    """

    def __init__(
        self, key: str, spec_key: str, spec: SessionSpec, shard: int
    ) -> None:
        self.key = key
        self.spec_key = spec_key
        self.spec = spec
        self.shard = shard
        self.sessions: dict[int, Session] = {}
        #: Bins each averaged frame keeps (what ``offer`` enforces).
        self.n_bins = frame_shape(spec)[2]

    @property
    def num_sessions(self) -> int:
        """Live sessions in this cohort."""
        return len(self.sessions)


class ShardStats:
    """Per-shard timing and IPC ledger kept by the front end.

    Attributes:
        tick_s: worker-reported pipeline-tick seconds per step.
        round_trip_s: submit-to-response wall seconds per step.
        bytes_pickled: pickled message bytes exchanged with this shard
            (both directions, cumulative).
        descriptor_rounds: IPC messages exchanged with the shard.
    """

    def __init__(self) -> None:
        self.tick_s: list[float] = []
        self.round_trip_s: list[float] = []
        self.bytes_pickled = 0
        self.descriptor_rounds = 0

    def record_transport(self, stats: dict) -> None:
        """Refresh the cumulative IPC counters from the pool's ledger."""
        self.bytes_pickled = stats["bytes_pickled"]
        self.descriptor_rounds = stats["descriptor_rounds"]

    def summary(self) -> dict:
        """p50/p95/p99 tick time plus mean IPC overhead, in milliseconds.

        ``bytes_shm`` is always 0: every byte crosses the pipe. The key
        stays because ``perfbench/servbench/runner.py`` sums it with
        ``bytes_pickled``.
        """
        transport = {
            "bytes_pickled": self.bytes_pickled,
            "bytes_shm": 0,
            "descriptor_rounds": self.descriptor_rounds,
        }
        if not self.tick_s:
            return {
                "steps": 0,
                "tick_p50_ms": float("nan"),
                "tick_p95_ms": float("nan"),
                "tick_p99_ms": float("nan"),
                "ipc_overhead_mean_ms": float("nan"),
                **transport,
            }
        ticks = np.asarray(self.tick_s)
        overhead = np.asarray(self.round_trip_s) - ticks
        return {
            "steps": len(self.tick_s),
            "tick_p50_ms": 1e3 * float(np.median(ticks)),
            "tick_p95_ms": 1e3 * float(np.percentile(ticks, 95)),
            "tick_p99_ms": 1e3 * float(np.percentile(ticks, 99)),
            "ipc_overhead_mean_ms": 1e3 * float(np.mean(overhead)),
            **transport,
        }


class DistributedScheduler:
    """Place cohorts on shard workers; batch, route, merge, survive.

    The distributed mirror of the local pair (:class:`SessionManager` +
    :class:`Scheduler`): one object serves both roles because placement
    *is* admission here. Sessions keep their bounded queues and
    accumulated results in the parent; shards hold only pipeline state.

    Args:
        pool: worker pool whose actors are :class:`ShardWorker`\\ s.
        queue_capacity: per-session input queue bound (backpressure).
        memory_model: optional per-session memory estimator
            (``estimate(spec) -> bytes``). When present, placement
            weighs shards by *predicted committed bytes* instead of raw
            session counts — the predict-before-you-allocate placement
            of the memory-governed serving tier — so one heavy
            multi-person cohort does not count the same as one
            single-person session.
        shard_budget_bytes: per-shard cap on predicted bytes. With a
            ``memory_model``, an admission that fits no live shard
            raises :class:`~repro.serve.session.AdmissionRefused`
            (failover ignores the cap: keeping sessions alive on
            survivors beats refusing them mid-stream).
    """

    def __init__(
        self,
        pool: WorkerPool,
        queue_capacity: int = 64,
        memory_model=None,
        shard_budget_bytes: int | None = None,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if shard_budget_bytes is not None and shard_budget_bytes <= 0:
            raise ValueError("shard_budget_bytes must be positive")
        self.pool = pool
        self.queue_capacity = queue_capacity
        self.memory_model = memory_model
        self.shard_budget_bytes = shard_budget_bytes
        self.cohorts: dict[str, PlacedCohort] = {}
        self.sessions: dict[int, Session] = {}
        self.excluded_shards: set[int] = set()
        self.shard_stats: dict[int, ShardStats] = {
            w: ShardStats() for w in range(pool.num_workers)
        }
        self.ticks = 0
        self.frames_processed = 0
        #: Most recent shard failure (surfaced when the tier goes down).
        self.last_failure: BaseException | None = None
        self.failovers = 0
        self._next_id = 1
        self._cohort_seq = 0
        #: Front-end ``frame_average`` counters (``None`` when profiling
        #: was off at construction), merged into :meth:`stage_profile`.
        self.profiler: StageProfiler | None = (
            StageProfiler() if profiling_enabled() else None
        )

    # -- placement ---------------------------------------------------------

    @property
    def num_sessions(self) -> int:
        """Live sessions across every cohort."""
        return len(self.sessions)

    @property
    def num_shards(self) -> int:
        """Shards still serving (live and not excluded)."""
        return len(self._live_shards())

    def _live_shards(self) -> list[int]:
        return [
            w for w in self.pool.live_workers() if w not in self.excluded_shards
        ]

    def _session_cost(self, spec: SessionSpec) -> int:
        """Placement weight of one session (predicted bytes, or 1)."""
        if self.memory_model is None:
            return 1
        return int(self.memory_model.estimate(spec))

    def _shard_load(self) -> dict[int, int]:
        """Per-live-shard load: session counts, or predicted bytes when
        a memory model is installed."""
        load = {w: 0 for w in self._live_shards()}
        for cohort in self.cohorts.values():
            if cohort.shard in load:
                load[cohort.shard] += (
                    cohort.num_sessions * self._session_cost(cohort.spec)
                )
        return load

    def _least_loaded(self) -> int:
        load = self._shard_load()
        if not load:
            # Chain the last remote failure: when a poison input (e.g. a
            # malformed frame that deterministically raises) has burned
            # through every shard, the root cause must surface here, not
            # vanish into the failover bookkeeping.
            raise RuntimeError(
                "no live shard workers remain; the serving tier is down"
            ) from self.last_failure
        return min(load, key=lambda w: (load[w], w))

    def _exclude_shard(
        self,
        shard: int,
        in_flight: list[tuple[Session, tuple[np.ndarray, float]]],
    ) -> None:
        """Mark a failed shard excluded and requeue its in-flight frames.

        In-flight frames go back to the *head* of their sessions'
        queues (enqueue timestamps preserved), so no frame is lost and
        ordering holds. :meth:`_failover` re-places the dead shard's
        cohorts — kept separate so multiple failures in one tick are all
        excluded before any placement decision, and so re-admission
        never races a step still in flight elsewhere.
        """
        self.excluded_shards.add(shard)
        try:
            self.pool.kill(shard)
        except Exception:  # pragma: no cover - already dead
            pass
        self.failovers += 1
        for session, entry in in_flight:
            session.queue.appendleft(entry)

    def _failover(self) -> None:
        """Re-place every cohort stranded on an excluded shard.

        Re-placed sessions restart their pipeline state at a reset
        boundary on the new shard (the state died with the worker):
        their next frame re-primes background subtraction, exactly like
        a shard boundary in the sharded stream runner. Runs to a fixed
        point: a target shard dying *during* re-placement is excluded
        in turn and its strandees (including any just moved there) are
        re-placed again, until every cohort sits on a live shard — or
        none remain and the tier is declared down.
        """
        while True:
            cohort = next(
                (
                    c
                    for c in self.cohorts.values()
                    if c.shard in self.excluded_shards
                ),
                None,
            )
            if cohort is None:
                return
            target = self._least_loaded()
            try:
                for sid, session in cohort.sessions.items():
                    consumed = session.frames_in - len(session.queue)
                    self.pool.invoke(
                        target, "admit", sid, cohort.key, cohort.spec, consumed
                    )
            except Exception as exc:
                if not remote_failure(exc):
                    raise
                self.last_failure = exc
                self._exclude_shard(target, [])
                continue
            cohort.shard = target

    def _fail_shard(self, shard: int) -> None:
        """Exclude + fail over in one call (no requests in flight)."""
        self._exclude_shard(shard, [])
        self._failover()

    # -- admission / retirement --------------------------------------------

    def admit(self, spec: SessionSpec) -> Session:
        """Open a session on the least-loaded shard.

        The session joins the same-spec cohort already living on that
        shard when there is one, and founds a sibling cohort there
        otherwise — so homogeneous traffic spreads across every shard
        while each shard still batches its same-spec sessions into one
        vectorized pipeline tick.

        With a memory model and shard budget installed, an admission
        whose predicted footprint overflows even the least-loaded shard
        raises :class:`~repro.serve.session.AdmissionRefused` — the
        session is refused *before* any state allocates anywhere.
        """
        spec_key = spec.cohort_key()
        target = self._least_loaded()
        if self.memory_model is not None and self.shard_budget_bytes is not None:
            projected = (
                self._shard_load()[target] + self._session_cost(spec)
            )
            if projected > self.shard_budget_bytes:
                raise AdmissionRefused(
                    f"predicted shard memory {projected} B exceeds the "
                    f"{self.shard_budget_bytes} B budget on every live shard"
                )
        cohort = next(
            (
                c
                for c in self.cohorts.values()
                if c.spec_key == spec_key and c.shard == target
            ),
            None,
        )
        if cohort is None:
            key = f"{spec_key}#{self._cohort_seq}"
            self._cohort_seq += 1
            cohort = PlacedCohort(key, spec_key, spec, target)
            self.cohorts[key] = cohort
        session = Session(self._next_id, spec, -1, self.queue_capacity)
        self._next_id += 1
        try:
            session.slot = self.pool.invoke(
                cohort.shard, "admit", session.session_id, cohort.key, spec
            )
        except Exception as exc:
            if not remote_failure(exc):
                raise
            self.last_failure = exc
            self._fail_shard(cohort.shard)
            session.slot = self.pool.invoke(
                cohort.shard, "admit", session.session_id, cohort.key, spec
            )
        session.cohort = cohort
        cohort.sessions[session.session_id] = session
        self.sessions[session.session_id] = session
        return session

    def retire(self, session: Session) -> PipelineResult:
        """Close a session; frees its shard slot and returns its result."""
        if session.closed:
            raise RuntimeError(f"session {session.session_id} already closed")
        cohort: PlacedCohort = session.cohort
        result = session.result()
        session.closed = True
        session.queue.clear()
        del cohort.sessions[session.session_id]
        del self.sessions[session.session_id]
        try:
            self.pool.invoke(cohort.shard, "evict", session.session_id)
        except Exception as exc:
            if not remote_failure(exc):
                raise
            self.last_failure = exc
            self._fail_shard(cohort.shard)
        if not cohort.sessions:
            del self.cohorts[cohort.key]
        return result

    # -- the scheduling loop -----------------------------------------------

    def tick(self) -> int:
        """One distributed pass: batch per shard, overlap, route, merge.

        Pops one queued frame per ready session and averages each
        cohort's frames into one slab (:func:`~repro.pipeline.frame_average`),
        submits every involved shard its slabs *before* awaiting any
        response (shard compute overlaps), then routes each shard's
        output rows and latency samples back as responses arrive. A
        shard that fails mid-step is excluded and failed over without
        dropping a frame: the parent still holds the raw blocks.

        Returns:
            Number of frames consumed (0 means every queue was empty).
        """
        batches: dict[int, list[tuple[Session, tuple[np.ndarray, float]]]] = {}
        payloads: dict[int, list[tuple[str, np.ndarray, np.ndarray]]] = {}
        profiler = self.profiler
        for cohort in self.cohorts.values():
            ready = [s for s in cohort.sessions.values() if s.queue]
            if not ready:
                continue
            entries = [(session, session.queue.popleft()) for session in ready]
            batches.setdefault(cohort.shard, []).extend(entries)
            t0 = perf_counter() if profiler is not None else 0.0
            slab = frame_average(
                [block for _, (block, _) in entries], cohort.n_bins
            )
            if profiler is not None:
                profiler.record(
                    "frame_average", perf_counter() - t0, slab.nbytes
                )
            session_ids = np.fromiter(
                (session.session_id for session in ready),
                dtype=np.int64,
                count=len(ready),
            )
            payloads.setdefault(cohort.shard, []).append(
                (cohort.key, session_ids, slab)
            )
        consumed = 0
        submitted: dict[int, float] = {}
        failed: list[int] = []
        for shard, payload in payloads.items():
            # Stamp before submitting: on one CPU the worker can
            # receive and tick the step before ``submit`` returns.
            sent = perf_counter()
            try:
                self.pool.submit(shard, "invoke", "step", (payload,))
            except WorkerCrash as exc:
                self.last_failure = exc
                failed.append(shard)
                continue
            submitted[shard] = sent
        pending = set(submitted)
        while pending:
            # Drain every ready response (timestamping each arrival)
            # before routing any rows, so one shard's parent-side row
            # routing cannot inflate a sibling's measured IPC overhead.
            arrivals = []
            for shard in self.pool.ready():
                if shard not in pending:
                    continue  # pragma: no cover - foreign response
                pending.discard(shard)
                try:
                    groups, tick_s = self.pool.result(shard)
                except Exception as exc:
                    if not remote_failure(exc):
                        raise
                    self.last_failure = exc
                    failed.append(shard)
                    continue
                arrivals.append((shard, groups, tick_s, perf_counter()))
            for shard, groups, tick_s, done in arrivals:
                stats = self.shard_stats[shard]
                stats.tick_s.append(tick_s)
                stats.round_trip_s.append(done - submitted[shard])
                stats.record_transport(self.pool.transport_stats(shard))
                for session, (_, enqueued) in batches[shard]:
                    session.latency.latencies_s.append(done - enqueued)
                consumed += len(batches[shard])
                for group in groups:
                    session_ids = group["session_ids"]
                    for row in range(len(session_ids)):
                        self.sessions[int(session_ids[row])].collect_fields(
                            group_row_fields(group, row)
                        )
        if failed:
            # Every response is in (or lost); only now is it safe to
            # exclude the casualties and re-admit their sessions on
            # survivors — no step is in flight anywhere.
            for shard in failed:
                self._exclude_shard(shard, batches[shard])
            self._failover()
        if consumed:
            self.ticks += 1
            self.frames_processed += consumed
        return consumed

    def drain(self) -> int:
        """Tick until every session queue is empty; frames consumed."""
        total = 0
        while True:
            consumed = self.tick()
            if consumed == 0:
                return total
            total += consumed

    # -- reporting ---------------------------------------------------------

    def stage_profile(self) -> StageProfiler:
        """Merged per-stage counters: the front end's and every live shard's.

        The front end contributes the ``frame_average`` row (the average
        runs here, before the pipe). Each shard replies with its own
        merged dict (live cohorts plus the counters of cohorts already
        dropped on that shard); excluded or crashed shards are skipped —
        their counters are lost with the process, like any other
        shard-side state. Workers inherit the profiling switch at fork,
        so set ``REPRO_PROFILE=1`` (or call
        :func:`repro.kernels.enable_profiling` before building the
        engine) for the counters to exist at all.
        """
        merged = StageProfiler()
        if self.profiler is not None:
            merged.merge(self.profiler)
        for shard in self._live_shards():
            try:
                merged.merge(self.pool.invoke(shard, "stage_profile"))
            except Exception as exc:
                if not remote_failure(exc):
                    raise
                self.last_failure = exc
                self._fail_shard(shard)
        return merged

    def shard_report(self) -> list[dict]:
        """Per-shard summary: timings, exclusion, current placement."""
        counts: dict[int, int] = {}
        for cohort in self.cohorts.values():
            counts[cohort.shard] = (
                counts.get(cohort.shard, 0) + cohort.num_sessions
            )
        load = self._shard_load() if self.memory_model is not None else None
        report = []
        for shard in range(self.pool.num_workers):
            entry = {"shard": shard, "excluded": shard in self.excluded_shards}
            # Counters live parent-side, so a report after (or between)
            # ticks — even for a crashed shard — reflects all traffic.
            self.shard_stats[shard].record_transport(
                self.pool.transport_stats(shard)
            )
            entry.update(self.shard_stats[shard].summary())
            entry["sessions"] = counts.get(shard, 0)
            if load is not None:
                entry["predicted_bytes"] = load.get(shard, 0)
            report.append(entry)
        return report
