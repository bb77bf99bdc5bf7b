"""Multi-person stages for the unified pipeline engine.

The multi-person chain reuses the single-person
:class:`~repro.pipeline.stages.BackgroundSubtract` front end, then swaps
the contour/denoise/localize tail for

* :class:`SuccessiveCancel` — K bottom contours per antenna by
  successive echo cancellation (:mod:`repro.multi.cancellation`);
* :class:`Associate` — cross-antenna association, ghost gating and the
  per-target Kalman track bank (:mod:`repro.multi.tracks`).

Both run frame-at-a-time, block-at-a-time, or session-lockstep with
identical results, so :class:`~repro.multi.tracker.MultiWiTrack`
(batch), :class:`~repro.apps.realtime.RealtimeMultiTracker` (streaming)
and a multi-person serving cohort (:mod:`repro.serve`) are the same
code path. Session state: cancellation is stateless, and the
association track banks are kept as one
:class:`~repro.multi.tracks.TrackManager` per session slot — the
structure-of-arrays analogue for inherently sequential per-session
state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..multi.cancellation import successive_contours
from ..multi.tracks import TrackManager
from .stages import Stage


class SuccessiveCancel(Stage):
    """K candidate bottom contours per antenna (successive cancellation).

    Per frame and antenna: trace the bottom contour, null the detected
    reflector's energy band, repeat up to ``max_targets`` times. Writes
    ``candidates_m`` and ``candidate_powers`` of shape
    ``(n_rx, max_targets)``. Every round is per-frame independent, so
    the batch path is exactly the streaming path vectorized over frames
    — and a lockstep tick is the same call with every (session,
    antenna) row stacked.
    """

    def __init__(
        self,
        range_bin_m: float,
        max_targets: int = 3,
        threshold_db: float = 10.0,
        min_range_m: float = 1.0,
        null_halfwidth_m: float = 0.5,
        relative_threshold_db: float = 36.0,
    ) -> None:
        if max_targets < 1:
            raise ValueError("max_targets must be at least 1")
        self.range_bin_m = range_bin_m
        self.max_targets = max_targets
        self.threshold_db = threshold_db
        self.min_range_m = min_range_m
        self.null_halfwidth_m = null_halfwidth_m
        self.relative_threshold_db = relative_threshold_db

    def _contours(self, power: np.ndarray):
        return successive_contours(
            power,
            self.range_bin_m,
            max_targets=self.max_targets,
            threshold_db=self.threshold_db,
            min_range_m=self.min_range_m,
            null_halfwidth_m=self.null_halfwidth_m,
            relative_threshold_db=self.relative_threshold_db,
        )

    def fuse_spec(self) -> str:
        """Fusable: the rounds loop is one backend kernel call
        (:func:`repro.kernels.cancellation.successive_cancel`) over the
        tick's stacked (session, antenna) rows, stateless across ticks.
        """
        return "cancel"

    def process_tick(self, tick):
        n_rows, n_rx, n_bins = tick.power.shape
        result = self._contours(tick.power.reshape(n_rows * n_rx, n_bins))
        tick.candidates_m = result.round_trips_m.T.reshape(
            n_rows, n_rx, self.max_targets
        )
        tick.candidate_powers = result.peak_powers.T.reshape(
            n_rows, n_rx, self.max_targets
        )
        return tick

    def process_block(self, block):
        n_frames, n_rx, _ = block.power.shape
        candidates = np.full((n_frames, n_rx, self.max_targets), np.nan)
        powers = np.full((n_frames, n_rx, self.max_targets), np.nan)
        for a in range(n_rx):
            result = self._contours(block.power[:, a, :])
            candidates[:, a, :] = result.round_trips_m.T
            powers[:, a, :] = result.peak_powers.T
        block.candidates_m = candidates
        block.candidate_powers = powers
        return block


class Associate(Stage):
    """Track birth/claim/coast/kill over the candidate TOF sets.

    Thin stage wrapper around :class:`~repro.multi.tracks.TrackManager`
    (which is inherently sequential — association depends on every
    previous frame). Writes ``tracks``: the reportable
    ``(track_id, position)`` pairs after this frame.

    Session state is one independent manager per slot; the factory
    builds managers for newly attached or recycled slots. Slot 0 is the
    manager passed at construction, preserving the single-session API.
    """

    def __init__(
        self,
        manager: TrackManager,
        factory: Callable[[], TrackManager] | None = None,
    ) -> None:
        self._capacity = 1
        self._managers: list[TrackManager] = [manager]
        self._factory = factory

    @property
    def manager(self) -> TrackManager:
        """Slot 0's track manager (the single-session view)."""
        return self._managers[0]

    def manager_for(self, slot: int) -> TrackManager:
        """The track manager advancing the given session slot."""
        return self._managers[slot]

    def _spawn(self) -> TrackManager:
        if self._factory is None:
            raise RuntimeError(
                "Associate needs a manager factory to manage sessions"
            )
        return self._factory()

    def _grow(self, capacity: int) -> None:
        while len(self._managers) < capacity:
            self._managers.append(self._spawn())

    def evict(self, slot: int) -> None:
        self._managers[slot] = self._spawn()

    def snapshot_slot(self, slot: int) -> dict:
        """Hand off the slot's manager (move semantics — see Stage).

        The manager is inherently sequential state; the hand-off carries
        the object itself (picklable, so it survives a pipe to another
        process). Evict the source slot afterwards — two pipelines must
        never advance one manager.
        """
        return {"manager": self._managers[slot]}

    def restore_slot(self, slot: int, state: dict) -> None:
        if not state:
            self.evict(slot)
            return
        self._managers[slot] = state["manager"]

    def fuse_spec(self) -> str | None:
        """``"associate"`` when the cohort can advance as one track bank.

        The fused tick runs every slot's tracks through one
        :class:`~repro.multi.tracks.TrackBank` step, which batches the
        localization solve only for row-independent solvers (the
        closed-form T geometry); the warm-started least-squares solver
        must solve track by track, gains nothing from fusion, and keeps
        the chain staged. The bank reads the
        shared cohort constants (frame interval, lifecycle config, fix
        gate, solver) from slot 0's manager; every slot manager comes
        from one factory with one spec, which is what makes that sound.
        """
        if getattr(self.manager.solver, "row_independent", False):
            return "associate"
        return None

    def _step(
        self, manager: TrackManager, candidates: np.ndarray, powers: np.ndarray
    ):
        tracks = manager.step(candidates, powers)
        return [(t.track_id, t.position.copy()) for t in tracks]

    def process_tick(self, tick):
        tick.tracks = [
            self._step(
                self._managers[tick.slots[row]],
                tick.candidates_m[row],
                tick.candidate_powers[row],
            )
            for row in range(tick.num_rows)
        ]
        return tick

    def process_block(self, block):
        manager = self._managers[0]
        block.tracks = [
            self._step(
                manager, block.candidates_m[f], block.candidate_powers[f]
            )
            for f in range(block.num_frames)
        ]
        return block

    def reset(self) -> None:
        self._managers = [self._spawn() for _ in self._managers]
