"""Session admission and the lockstep multiplexing scheduler.

:class:`SessionManager` owns the cohorts: it admits sessions (growing or
recycling state slots in the cohort's shared vectorized pipeline),
closes them (evicting their slot without perturbing survivors), and
hands the :class:`Scheduler` the ready work. :class:`Scheduler.tick`
batches, per cohort, every session with a queued frame into **one**
:meth:`Pipeline.tick <repro.pipeline.Pipeline.tick>` call — N sessions,
one pass of numpy dispatch — and routes each output row back to its
session with its latency sample.

Scheduling is plain lockstep: every tick drains at most one frame per
session. A session with an empty queue sits out the tick (its state
rows are untouched); a session that falls behind its cohort mates stays
in the cohort and drains one frame per tick like everyone else, and a
producer that outruns the tick rate fills its bounded queue and is
refused frames (backpressure).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ..kernels.profile import StageProfiler
from ..pipeline.runner import Pipeline, PipelineResult
from .session import Session, SessionSpec


class Cohort:
    """Sessions sharing one vectorized pipeline (same :class:`SessionSpec`).

    Args:
        key: the spec's content key.
        spec: the shared pipeline structure.
    """

    def __init__(self, key: str, spec: SessionSpec) -> None:
        self.key = key
        self.spec = spec
        self.pipeline: Pipeline = spec.build_pipeline()
        self.sessions: dict[int, Session] = {}
        self._free_slots: list[int] = []
        self._high_slot = 0

    @property
    def num_sessions(self) -> int:
        """Live sessions currently in the cohort."""
        return len(self.sessions)

    def allocate_slot(self) -> int:
        """Reuse an evicted slot or grow the pipeline's session axis."""
        if self._free_slots:
            self._free_slots.sort()
            return self._free_slots.pop(0)
        slot = self._high_slot
        self._high_slot += 1
        self.pipeline.attach_sessions(max(self._high_slot, 1))
        return slot

    def release_slot(self, slot: int) -> None:
        """Evict one slot's state and mark it reusable."""
        self.pipeline.evict_session(slot)
        self._free_slots.append(slot)


class SessionManager:
    """Admit, look up and retire sessions across cohorts.

    Args:
        queue_capacity: per-session input queue bound (backpressure).
    """

    def __init__(self, queue_capacity: int = 64) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.queue_capacity = queue_capacity
        self.cohorts: dict[str, Cohort] = {}
        self.sessions: dict[int, Session] = {}
        self._next_id = 1
        #: Stage counters of dropped cohorts (profiling runs only), so
        #: retiring the last member of a cohort doesn't lose its ticks.
        self.retired_profile = StageProfiler()

    def _harvest_profile(self, cohort: Cohort) -> None:
        if cohort.pipeline.profiler is not None:
            self.retired_profile.merge(cohort.pipeline.profiler)

    def stage_profile(self) -> StageProfiler:
        """Merged per-stage counters: live cohorts + dropped cohorts.

        Empty unless pipelines were built with profiling enabled
        (``REPRO_PROFILE=1`` or :func:`repro.kernels.enable_profiling`).
        """
        merged = StageProfiler()
        merged.merge(self.retired_profile)
        for cohort in self.cohorts.values():
            if cohort.pipeline.profiler is not None:
                merged.merge(cohort.pipeline.profiler)
        return merged

    @property
    def num_sessions(self) -> int:
        """Live sessions across every cohort."""
        return len(self.sessions)

    def admit(self, spec: SessionSpec) -> Session:
        """Open a session for ``spec``, joining or founding its cohort."""
        key = spec.cohort_key()
        cohort = self.cohorts.get(key)
        if cohort is None:
            cohort = Cohort(key, spec)
            self.cohorts[key] = cohort
        session = Session(
            self._next_id, spec, cohort.allocate_slot(), self.queue_capacity
        )
        self._next_id += 1
        session.cohort = cohort
        cohort.sessions[session.session_id] = session
        self.sessions[session.session_id] = session
        return session

    def cohort_of(self, session: Session) -> Cohort:
        """The cohort a live session belongs to."""
        return session.cohort

    def retire(self, session: Session) -> PipelineResult:
        """Close a session and free its slot; returns its final result.

        Any still-queued frames are dropped — call
        :meth:`Scheduler.drain` (or tick until the queue empties) first
        if they must be processed. Eviction resets only this session's
        state rows; cohort mates are unperturbed.
        """
        if session.closed:
            raise RuntimeError(f"session {session.session_id} already closed")
        cohort = self.cohort_of(session)
        result = session.result()
        session.closed = True
        session.queue.clear()
        del cohort.sessions[session.session_id]
        del self.sessions[session.session_id]
        cohort.release_slot(session.slot)
        if not cohort.sessions:
            # Last member out: drop the cohort so a long-running engine
            # with churning heterogeneous specs cannot accumulate idle
            # pipelines (and their grown state arrays) without bound.
            self._harvest_profile(cohort)
            del self.cohorts[cohort.key]
        return result


class Scheduler:
    """Batch ready sessions into lockstep ticks, cohort by cohort.

    Args:
        manager: the session manager whose cohorts are scheduled.
    """

    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager
        self.ticks = 0
        self.frames_processed = 0

    def stage_profile(self) -> StageProfiler:
        """Merged per-stage counters (see :meth:`SessionManager.stage_profile`)."""
        return self.manager.stage_profile()

    def _tick_cohort(self, cohort: Cohort, ready: list[Session]) -> int:
        """One lockstep pipeline tick over the given ready sessions."""
        entries = [s.queue.popleft() for s in ready]
        slots = np.fromiter(
            (s.slot for s in ready), dtype=np.intp, count=len(ready)
        )
        tick = cohort.pipeline.tick([b for b, _ in entries], slots)
        done = perf_counter()
        if len(tick.slots) == len(ready):
            # Every session emitted a row; the pipeline preserves input
            # order, so row k belongs to ready[k] — no slot map needed.
            for row, (session, (_, enqueued)) in enumerate(
                zip(ready, entries)
            ):
                session.latency.latencies_s.append(done - enqueued)
                session.collect(tick, row)
            return len(ready)
        row_of_slot = {
            slot: row for row, slot in enumerate(tick.slots.tolist())
        }
        for session, (_, enqueued) in zip(ready, entries):
            session.latency.latencies_s.append(done - enqueued)
            row = row_of_slot.get(session.slot)
            if row is not None:
                session.collect(tick, row)
        return len(ready)

    def tick(self) -> int:
        """One scheduling pass: every cohort, every ready session.

        Pops one queued frame from each session that has one, advances
        each cohort's batch through a single vectorized pipeline tick,
        and routes output rows and latency samples back per session.

        Returns:
            Number of frames consumed (0 means every queue was empty).
        """
        consumed = 0
        for cohort in self.manager.cohorts.values():
            ready = [s for s in cohort.sessions.values() if s.queue]
            if ready:
                consumed += self._tick_cohort(cohort, ready)
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
