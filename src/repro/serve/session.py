"""Serving sessions: what one connected user looks like to the engine.

A :class:`SessionSpec` is the immutable description of a session's
pipeline — single- or multi-person, full system configuration, range
axis, solver. Specs that hash to the same content key are *cohort
mates*: their sessions share one session-vectorized
:class:`~repro.pipeline.Pipeline` instance and advance together in
lockstep ticks. Heterogeneous deployments simply produce several
cohorts.

A :class:`Session` is one live stream: a bounded input queue of raw
sweep blocks (the backpressure seam), the per-frame output accumulators,
and a per-session :class:`~repro.pipeline.LatencyReport` measuring
enqueue-to-emit wall time against the paper's 75 ms budget (§7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..config import SystemConfig, default_config
from ..core.localize import make_solver
from ..geometry.antennas import AntennaArray, t_array
from ..multi.tracks import TrackManagerConfig
from ..pipeline.frame import SessionTick
from ..pipeline.runner import (
    LatencyReport,
    Pipeline,
    PipelineResult,
    single_person_pipeline,
)
from ..sim.room import Room


class AdmissionRefused(RuntimeError):
    """Admission control declined to open a session.

    Raised by :meth:`ServingEngine.admit
    <repro.serve.ServingEngine.admit>` when an admission gate or a
    shard memory budget refuses the session (use :meth:`try_admit
    <repro.serve.ServingEngine.try_admit>` for the non-raising flavor
    open-loop load generators want).
    """


@dataclass(frozen=True)
class SessionSpec:
    """Everything that determines a session's pipeline structure.

    Two specs with equal content keys are guaranteed interchangeable
    pipelines, so their sessions can share one vectorized instance.

    Attributes:
        kind: ``"single"`` (one tracked person per session) or
            ``"multi"`` (successive cancellation + track bank).
        config: full system configuration.
        range_bin_m: round-trip distance per spectrum bin.
        array: antenna array override (None: the configured T).
        solver_method: localization solver selection.
        max_people: multi-person only — upper bound K per session.
        num_candidates: multi-person only — cancellation rounds
            (None: ``max_people + 4`` as in MultiWiTrack).
        room: multi-person only — tightens ghost gating.
        track_config: multi-person only — track lifecycle tunables.
    """

    kind: str
    config: SystemConfig
    range_bin_m: float
    array: AntennaArray | None = None
    solver_method: str = "auto"
    max_people: int = 3
    num_candidates: int | None = None
    room: Room | None = None
    track_config: TrackManagerConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("single", "multi"):
            raise ValueError(
                f"unknown session kind: {self.kind!r} "
                "(expected 'single' or 'multi')"
            )

    def cohort_key(self) -> str:
        """Content key grouping interchangeable sessions into cohorts."""
        from ..exec.cache import content_key

        return content_key(
            "serve.cohort.v1",
            self.kind,
            self.config,
            self.range_bin_m,
            self.array,
            self.solver_method,
            self.max_people,
            self.num_candidates,
            self.room,
            self.track_config,
        )

    def build_pipeline(self) -> Pipeline:
        """A fresh pipeline of this spec's structure (slot 0 attached)."""
        if self.kind == "single":
            array = self.array if self.array is not None else t_array(
                self.config.array
            )
            solver = make_solver(array, method=self.solver_method)
            return single_person_pipeline(
                self.config, self.range_bin_m, solver=solver
            )
        from ..multi.tracker import MultiWiTrack

        tracker = MultiWiTrack(
            self.config,
            array=self.array,
            max_people=self.max_people,
            num_candidates=self.num_candidates,
            track_config=self.track_config,
            room=self.room,
            solver_method=self.solver_method,
        )
        return tracker.pipeline(self.range_bin_m)


def single_session(
    config: SystemConfig | None = None,
    range_bin_m: float = 0.1774,
    array: AntennaArray | None = None,
    solver_method: str = "auto",
) -> SessionSpec:
    """Spec for a single-person tracking session."""
    return SessionSpec(
        kind="single",
        config=config or default_config(),
        range_bin_m=range_bin_m,
        array=array,
        solver_method=solver_method,
    )


def multi_session(
    config: SystemConfig | None = None,
    range_bin_m: float = 0.1774,
    array: AntennaArray | None = None,
    max_people: int = 3,
    num_candidates: int | None = None,
    room: Room | None = None,
    track_config: TrackManagerConfig | None = None,
    solver_method: str = "auto",
) -> SessionSpec:
    """Spec for a K-person tracking session."""
    return SessionSpec(
        kind="multi",
        config=config or default_config(),
        range_bin_m=range_bin_m,
        array=array,
        max_people=max_people,
        num_candidates=num_candidates,
        room=room,
        track_config=track_config,
        solver_method=solver_method,
    )


def frame_shape(spec: SessionSpec) -> tuple[int, int, int]:
    """The ``(n_rx, sweeps_per_frame, n_bins)`` block shape a spec eats.

    ``n_bins`` is the spec pipeline's *cropped* bin count (the
    max-range crop), so frames carry no bins the pipeline would
    immediately discard.
    """
    array = spec.array if spec.array is not None else t_array(spec.config.array)
    n_rx = len(array.rx)
    spf = spec.config.pipeline.sweeps_per_frame
    max_range = spec.config.pipeline.max_range_m
    n_bins = int(np.ceil(max_range / spec.range_bin_m)) + 1
    return n_rx, spf, n_bins


def tick_row_fields(tick: SessionTick, row: int) -> dict:
    """One tick row as a plain field dict (the local transport unit).

    Everything :meth:`Session.collect_fields` accumulates, extracted
    from one row of a :class:`~repro.pipeline.frame.SessionTick`. The
    local scheduler consumes it in-process; the distributed tier ships
    whole-tick column slabs instead (:func:`tick_group`) and re-derives
    these dicts row by row on the parent — same values either way, which
    is what keeps distributed serving bitwise-identical to
    single-process.
    """
    return {
        "time_s": float(tick.times_s[row]),
        "tof_m": None if tick.tof_m is None else tick.tof_m[row],
        "raw_tof_m": None if tick.raw_tof_m is None else tick.raw_tof_m[row],
        "motion": None if tick.motion is None else tick.motion[row],
        "positions": None if tick.positions is None else tick.positions[row],
        "tracks": None if tick.tracks is None else tick.tracks[row],
    }


#: SessionTick array fields shipped per group (leading axis = tick row).
_GROUP_ARRAYS = ("tof_m", "raw_tof_m", "motion", "positions")


def tick_group(tick: SessionTick, session_ids: np.ndarray) -> dict:
    """One pipeline tick's emitted rows as column slabs (the IPC unit).

    The shard→parent transport unit of the distributed tier: instead of
    one field dict per row (many small pickles), a group carries each
    output field as the tick's whole ``(n_rows, ...)`` array plus the
    parallel ``session_ids`` routing vector — exactly what the pipeline
    already produced, so building a group copies nothing.

    Args:
        tick: the tick (fresh arrays, produced by this call — groups
            are shipped before the pipeline ticks again).
        session_ids: engine-wide session id of each tick row,
            shape ``(tick.num_rows,)``.
    """
    group: dict = {
        "session_ids": session_ids,
        "times_s": tick.times_s,
        "tracks": tick.tracks,
    }
    for name in _GROUP_ARRAYS:
        group[name] = getattr(tick, name)
    return group


def group_row_fields(group: dict, row: int) -> dict:
    """One group row, re-expanded to the :func:`tick_row_fields` dict.

    Value-identical to ``tick_row_fields(tick, row)`` on the
    originating tick — the parent-side half of the slab round trip.
    """
    fields = {"time_s": float(group["times_s"][row])}
    for name in _GROUP_ARRAYS:
        column = group[name]
        fields[name] = None if column is None else column[row]
    tracks = group["tracks"]
    fields["tracks"] = None if tracks is None else tracks[row]
    return fields


class Session:
    """One live stream being served.

    Created by :meth:`repro.serve.SessionManager.admit`; users feed raw
    ``(n_rx, sweeps_per_frame, n_bins)`` sweep blocks through
    :meth:`offer` and read results from :attr:`last_position` /
    :attr:`last_tracks` (realtime) or :meth:`result` (accumulated).

    Args:
        session_id: stable engine-wide identity.
        spec: the pipeline structure this session runs.
        slot: state row in the cohort's vectorized pipeline.
        queue_capacity: bound on frames queued ahead of processing;
            a full queue refuses new frames (backpressure) instead of
            letting one straggler grow without limit.
    """

    def __init__(
        self,
        session_id: int,
        spec: SessionSpec,
        slot: int,
        queue_capacity: int,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.session_id = session_id
        self.spec = spec
        self.slot = slot
        self.queue_capacity = queue_capacity
        self._frame_shape = frame_shape(spec)
        self.queue: deque[tuple[np.ndarray, float]] = deque()
        self.latency = LatencyReport()
        self.frames_in = 0
        self.frames_out = 0
        self.closed = False
        #: Set by SessionManager.admit — the cohort serving this session.
        self.cohort = None
        self.last_position: np.ndarray | None = None
        self.last_tracks: list[tuple[int, np.ndarray]] | None = None
        self._times: list[float] = []
        self._tofs: list[np.ndarray] = []
        self._raws: list[np.ndarray] = []
        self._motions: list[np.ndarray] = []
        self._positions: list[np.ndarray] = []
        self._tracks: list[list[tuple[int, np.ndarray]]] = []

    @property
    def pending(self) -> int:
        """Frames queued but not yet processed."""
        return len(self.queue)

    def offer(self, sweep_block: np.ndarray) -> bool:
        """Enqueue one frame; False when the bounded queue is full.

        The enqueue timestamp starts this frame's latency clock — queue
        wait counts against the 75 ms budget, exactly as it would for a
        real user.

        Raises:
            ValueError: the block is not a complex128 array of the
                spec's :func:`frame_shape`. It is refused here, before
                it can fail (or, with a real dtype, silently truncate to
                real) the tick of the whole cohort it would join.
        """
        if self.closed:
            raise RuntimeError(
                f"session {self.session_id} is closed and takes no frames"
            )
        if np.shape(sweep_block) != self._frame_shape:
            raise ValueError(
                f"session {self.session_id} expects {self._frame_shape} "
                f"sweep blocks, got {np.shape(sweep_block)}"
            )
        dtype = np.asarray(sweep_block).dtype
        if dtype != np.complex128:
            raise ValueError(
                f"session {self.session_id} expects complex128 sweep "
                f"blocks, got {dtype}"
            )
        if len(self.queue) >= self.queue_capacity:
            return False
        self.queue.append((sweep_block, perf_counter()))
        self.frames_in += 1
        return True

    def collect(self, tick: SessionTick, row: int) -> None:
        """Accumulate one emitted tick row (engine-internal).

        Same values as routing :func:`tick_row_fields` through
        :meth:`collect_fields`, minus the intermediate dict — this runs
        once per session per tick on the serving hot path.
        """
        self._times.append(float(tick.times_s[row]))
        if tick.tof_m is not None:
            self._tofs.append(tick.tof_m[row])
        if tick.raw_tof_m is not None:
            self._raws.append(tick.raw_tof_m[row])
        if tick.motion is not None:
            self._motions.append(tick.motion[row])
        if tick.positions is not None:
            self.last_position = tick.positions[row]
            self._positions.append(self.last_position)
        if tick.tracks is not None:
            self.last_tracks = tick.tracks[row]
            self._tracks.append(self.last_tracks)
        self.frames_out += 1

    def collect_fields(self, fields: dict) -> None:
        """Accumulate one emitted output frame's field dict.

        The distributed scheduler routes shard responses through here;
        the local scheduler arrives via :meth:`collect`. Both paths
        append identical values.
        """
        self._times.append(fields["time_s"])
        if fields["tof_m"] is not None:
            self._tofs.append(fields["tof_m"])
        if fields["raw_tof_m"] is not None:
            self._raws.append(fields["raw_tof_m"])
        if fields["motion"] is not None:
            self._motions.append(fields["motion"])
        if fields["positions"] is not None:
            self.last_position = fields["positions"]
            self._positions.append(self.last_position)
        if fields["tracks"] is not None:
            self.last_tracks = fields["tracks"]
            self._tracks.append(self.last_tracks)
        self.frames_out += 1

    def result(self) -> PipelineResult:
        """Everything this session has produced, ``run_stream``-shaped."""
        return PipelineResult(
            frame_times_s=np.asarray(self._times),
            tof_m=np.stack(self._tofs) if self._tofs else None,
            raw_tof_m=np.stack(self._raws) if self._raws else None,
            motion=np.stack(self._motions) if self._motions else None,
            positions=np.stack(self._positions) if self._positions else None,
            tracks=self._tracks if self._tracks else None,
            latency=self.latency,
        )
