"""The three serving workloads, driven through the public engine API.

Every workload is a closed lockstep loop: each step offers one frame to
every live session, then ticks the engine once. The program only ever
sees the generated sweep blocks; truth stays on this side for scoring.

* ``single_synth`` — N single-person through-wall sessions live for the
  whole run; one :class:`~repro.sim.CohortFrameSource` synthesizes their
  frames inside the loop.
* ``multi_churn`` — N slots replay pre-synthesized K=2
  :class:`~repro.multi.MultiScenario` recordings back to back, one
  session per recording, slot starts staggered so sessions turn over
  evenly.
* ``shard_churn`` — N single-person slots replay a pool of
  pre-synthesized recordings with the same staggered churn, served by a
  one-worker sharded engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice
from time import perf_counter

import numpy as np

from repro import default_config
from repro.exec import results_identical
from repro.multi import MultiScenario
from repro.pipeline.runner import PipelineResult
from repro.rf.fmcw import range_axis
from repro.serve import ServingEngine, multi_session, single_session
from repro.sim import (
    CohortFrameSource,
    Scenario,
    non_colliding_walks,
    random_walk,
    through_wall_room,
)
from repro.sim.body import sample_population

from .accuracy import Accuracy, surface_truth, track_stack


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload run.

    Attributes:
        sessions: live sessions (``single_synth``) or churn slots.
        people: people per recording (K).
        pool: pre-synthesized recordings replayed by the churn slots.
        record_s: length of one recording, seconds.
        walk_s: ``single_synth`` trajectory length; a run stops early
            if the loop outruns it.
        score_frames: ``single_synth`` frames per session scored for
            accuracy (a fixed prefix, so accuracy never depends on speed).
        warmup_steps: lockstep steps run inside set-up, after the first
            admissions, so tick plans are compiled before timing.
        setups: set-ups per end-to-end run; ``setup_s`` is their median.
        alloc_steps: steps of the traced run's tracemalloc phase.
        growth_steps: steps after warm-up at which memory is read
            (``rss_growth_mb``, ``rss_peak_mb``); a fixed count, so a
            faster program is not charged for retaining the frames it
            served in the extra time.
        window_steps: steps per measurement window. Rates and latency
            percentiles are taken per window and aggregated over
            windows; a window holds a whole number of synthesis chunks
            (64 frames), one session turnover (``multi_churn``) or one
            whole churn cycle (``shard_churn``, where every slot turns
            over once), so every window serves the same mix.
        calib_steps: steps between calibration kernel calls; divides
            ``window_steps``.
    """

    sessions: int
    people: int = 1
    pool: int = 0
    record_s: float = 10.0
    walk_s: float = 240.0
    score_frames: int = 1600
    warmup_steps: int = 20
    setups: int = 3
    alloc_steps: int = 100
    growth_steps: int = 2400
    window_steps: int = 800
    calib_steps: int = 50


SCALES = {
    "single_synth": Scale(sessions=8, growth_steps=4096, window_steps=512,
                          calib_steps=32),
    "multi_churn": Scale(sessions=8, people=2, pool=8, window_steps=100,
                         calib_steps=25),
    "shard_churn": Scale(sessions=32, pool=8),
}


def tiny(name: str) -> Scale:
    """A seconds-long scale of one workload, for the self-test."""
    base = SCALES[name]
    return replace(
        base,
        sessions=min(base.sessions, 4),
        pool=min(base.pool, 2),
        record_s=1.0,
        walk_s=3.0,
        score_frames=80,
        warmup_steps=4,
        setups=1,
        alloc_steps=5,
        growth_steps=32,
        window_steps=16,
        calib_steps=4,
    )


class Client:
    """Every call into the serving API goes through here.

    Times each call (``engine_s`` is the end-to-end "serving" time) and,
    when a tracer is given, records it as a span. Latency samples are
    the engine's own per-session enqueue-to-emit clock, harvested per
    measurement window, for frames offered inside the measured loop only.
    """

    def __init__(self, engine: ServingEngine, tracer=None) -> None:
        self.engine = engine
        self.tracer = tracer
        self.engine_s = 0.0
        self.offered = 0
        self.refused = 0
        self.consumed = 0
        #: Latency samples (seconds), one list per measurement window.
        self.latencies: list[list[float]] = []
        self._base: dict[int, int] | None = None
        self._offer_ends: list[float] = []

    def _call(self, name: str, fn, *args):
        tracer = self.tracer
        if tracer is None:
            t0 = perf_counter()
            out = fn(*args)
            self.engine_s += perf_counter() - t0
            return out
        index = tracer.begin(name)
        try:
            return fn(*args)
        finally:
            tracer.end(index)
            self.engine_s += tracer.ends[index] - tracer.starts[index]

    def admit(self, spec):
        return self._call("serve.admit", self.engine.admit, spec)

    def offer(self, session, block) -> None:
        ok = self._call("serve.offer", self.engine.offer, session, block)
        self.offered += 1
        if not ok:
            self.refused += 1
        elif self.tracer is not None:
            self._offer_ends.append(self.tracer.ends[-1])

    def tick(self) -> None:
        tracer = self.tracer
        if tracer is not None and self._offer_ends:
            now = perf_counter()
            tracer.count("serve.queue_wait_s",
                         sum(now - t for t in self._offer_ends))
            tracer.count("serve.queued_frames", len(self._offer_ends))
            self._offer_ends.clear()
        self.consumed += self._call("serve.tick", self.engine.tick)

    def close(self, session) -> PipelineResult:
        result = self._call("serve.close", self.engine.close, session)
        self._harvest(session.session_id, result.latency.latencies_s)
        return result

    def synth(self, ticks):
        """Next frame step from a synthesis generator (load generator)."""
        if self.tracer is None:
            return next(ticks, None)
        index = self.tracer.begin("sim.synth")
        try:
            return next(ticks, None)
        finally:
            self.tracer.end(index)

    def open_window(self, sessions) -> None:
        """Start collecting latency samples from here on."""
        self._base = {s.session_id: len(s.latency.latencies_s)
                      for s in sessions}
        self.latencies.append([])

    def cut(self, sessions) -> None:
        """End the current window (harvesting live sessions), open the next."""
        for s in sessions:
            self._harvest(s.session_id, s.latency.latencies_s)
            self._base[s.session_id] = len(s.latency.latencies_s)
        self.latencies.append([])

    def close_window(self, sessions) -> None:
        """Harvest live sessions' samples and stop collecting."""
        for s in sessions:
            self._harvest(s.session_id, s.latency.latencies_s)
        self._base = None

    def _harvest(self, session_id: int, samples: list[float]) -> None:
        if self._base is not None:
            self.latencies[-1].extend(
                samples[self._base.pop(session_id, 0):]
            )


def _perturb(result: PipelineResult) -> PipelineResult:
    """A copy of ``result`` with one served value changed (self-test)."""
    if result.tracks is not None:
        tracks = [list(frame) for frame in result.tracks]
        f = next(i for i, frame in enumerate(tracks) if frame)
        tid, pos = tracks[f][0]
        tracks[f][0] = (tid, pos + 1e-9)
        return replace(result, tracks=tracks)
    positions = result.positions.copy()
    row, col = np.argwhere(np.isfinite(positions))[0]
    positions[row, col] += 1e-9
    return replace(result, positions=positions)


class Workload:
    """One workload: inputs from a seed, a lockstep step, checks.

    Inputs ``0 .. scored-1`` (the first half of the sessions or of the
    recording pool) are a fixed evaluation set that does not depend on
    the seed: accuracy is scored on them alone, so it moves only when
    the program's outputs move. The other half is drawn from the seed.
    Both halves are served the same way, side by side.
    """

    name = ""
    workers = 0
    #: Run the process and its shard workers on one CPU.
    one_cpu = False

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.config = default_config()
        self.room = through_wall_room()
        self.range_bin_m = float(
            range_axis(self.config.fmcw).round_trip_per_bin_m
        )
        self.spf = self.config.pipeline.sweeps_per_frame
        self.steps = 0
        #: Synthesis time and session-frames synthesized (``sim`` layer).
        self.synth_s = 0.0
        self.synth_frames = 0
        self.scored = max(1, (scale.pool or scale.sessions) // 2)

    def key(self, i: int) -> list[int]:
        """Random-stream key of input ``i``."""
        return [0, i] if i < self.scored else [1, self.seed, i]

    def scenario_seed(self, i: int) -> int:
        return i + 1 if i < self.scored else 1000 * (self.seed + 1) + i + 1

    def scenario(self, i: int, duration_s: float) -> Scenario:
        """Single-person through-wall session ``i``: walk, body, seed."""
        key = self.key(i)
        return Scenario(
            random_walk(self.room, np.random.default_rng(key + [1]),
                        duration_s=duration_s),
            room=self.room,
            body=sample_population(np.random.default_rng(key), count=11)[
                i % 11],
            config=self.config,
            seed=self.scenario_seed(i),
        )

    def build(self) -> None:
        """Generate the inputs (set-up, before the engine exists)."""
        raise NotImplementedError

    def start(self, client: Client) -> None:
        """First admissions."""
        raise NotImplementedError

    def step(self, client: Client) -> bool:
        """One lockstep step; False when the inputs ran out."""
        raise NotImplementedError

    def ready(self) -> bool:
        """True once every scored session's frames have been served."""
        raise NotImplementedError

    def live(self) -> list:
        raise NotImplementedError

    def finish(self, client: Client) -> None:
        """Close every live session."""
        raise NotImplementedError

    def check(self, perturb: bool = False) -> tuple[bool, int]:
        """Bitwise check of the fixed session; (ok, its frame count)."""
        raise NotImplementedError

    def accuracy(self) -> Accuracy:
        raise NotImplementedError

    def births_per_session(self) -> float:
        return 0.0

    def prefetch(self, steps: int) -> None:
        """Generate the next ``steps`` steps' inputs ahead of time."""

    def settle_steps(self) -> int:
        """Steps to run after set-up and before the measured loop."""
        return 0


class SingleSynth(Workload):
    """Long-lived single-person sessions, frames synthesized in the loop."""

    name = "single_synth"

    def build(self) -> None:
        self.scenarios = [self.scenario(i, self.scale.walk_s)
                          for i in range(self.scale.sessions)]
        self.ticks = CohortFrameSource(self.scenarios).ticks()
        self.spec = single_session(self.config, self.range_bin_m)
        self.results: list[PipelineResult] = []

    def start(self, client: Client) -> None:
        self.sessions = [client.admit(self.spec)
                         for _ in range(self.scale.sessions)]

    def prefetch(self, steps: int) -> None:
        self.ticks = chain(list(islice(self.ticks, steps)), self.ticks)

    def step(self, client: Client) -> bool:
        blocks = client.synth(self.ticks)
        if blocks is None:
            return False
        for session, block in zip(self.sessions, blocks):
            client.offer(session, block)
        client.tick()
        self.steps += 1
        return True

    def ready(self) -> bool:
        return self.steps >= self.scale.score_frames

    def live(self) -> list:
        return [] if self.results else self.sessions

    def finish(self, client: Client) -> None:
        self.results = [client.close(s) for s in self.sessions]

    def check(self, perturb: bool = False) -> tuple[bool, int]:
        served = self.results[0]
        n = self.sessions[0].frames_in
        source = CohortFrameSource(self.scenarios[:1])
        frames = (step[0] for step in islice(source.ticks(), n))
        reference = self.spec.build_pipeline().run_stream(frames)
        if perturb:
            served = _perturb(served)
        return results_identical(served, reference), n

    def accuracy(self) -> Accuracy:
        acc = Accuracy()
        horizon = self.scale.score_frames * self.spf * (
            self.config.fmcw.sweep_duration_s
        )
        for i in range(self.scored):
            scenario, result = self.scenarios[i], self.results[i]
            keep = result.frame_times_s < horizon
            times = result.frame_times_s[keep]
            truth = surface_truth(scenario.trajectory, scenario.body, times,
                                  np.random.default_rng(self.key(i) + [2]))
            acc.add(truth[None], result.positions[keep][None])
        return acc


@dataclass
class Recording:
    """One pre-synthesized recording and what scoring needs."""

    frames: list
    walks: list
    bodies: list


class _Slot:
    """One churn slot: which recording it plays, and where it is."""

    __slots__ = ("index", "turn", "rec", "cursor", "full", "session")

    def __init__(self, index: int, rec: int, cursor: int) -> None:
        self.index = index
        self.turn = 0
        self.rec = rec
        self.cursor = cursor
        self.full = cursor == 0
        self.session = None


class ChurnReplay(Workload):
    """Slots replaying pre-synthesized recordings, one session each.

    Slot ``i`` plays recordings ``i, i+1, ...`` (mod the pool), back to
    back; its first recording starts ``i * L / slots`` frames in, so one
    session closes and the next is admitted every ``L / slots`` steps.
    Accuracy scores the first complete service of every recording in
    the evaluation set; the fixed session of the correctness
    check is slot 0's first session (recording 0, from frame 0).
    """

    def build(self) -> None:
        t0 = perf_counter()
        self.pool = self._synthesize()
        self.synth_s += perf_counter() - t0
        self.synth_frames += sum(len(r.frames) for r in self.pool)
        self.length = min(len(r.frames) for r in self.pool)
        self.first_full: dict[int, PipelineResult] = {}

    def _synthesize(self) -> list[Recording]:
        raise NotImplementedError

    def start(self, client: Client) -> None:
        n = self.scale.sessions
        self.slots = [
            _Slot(i, i % len(self.pool), i * self.length // n)
            for i in range(n)
        ]
        for slot in self.slots:
            slot.session = client.admit(self.spec)

    def step(self, client: Client) -> bool:
        pool = self.pool
        for slot in self.slots:
            frames = pool[slot.rec].frames
            if slot.cursor == self.length:
                result = client.close(slot.session)
                if slot.full and slot.rec not in self.first_full:
                    self.first_full[slot.rec] = result
                slot.turn += 1
                slot.rec = (slot.index + slot.turn) % len(pool)
                slot.cursor = 0
                slot.full = True
                slot.session = client.admit(self.spec)
                frames = pool[slot.rec].frames
            client.offer(slot.session, frames[slot.cursor])
            slot.cursor += 1
        client.tick()
        self.steps += 1
        return True

    def ready(self) -> bool:
        return all(r in self.first_full for r in range(self.scored))

    def settle_steps(self) -> int:
        """One whole cycle. Until every slot has turned over once, the
        closes end sessions admitted part-way through a recording, which
        are shorter and cheaper to close: in that first cycle the p99
        latency on ``shard_churn`` read 7.8–11 ms, and 12–15 ms after."""
        return self.length

    def live(self) -> list:
        return [s.session for s in self.slots if not s.session.closed]

    def finish(self, client: Client) -> None:
        for slot in self.slots:
            if not slot.session.closed:
                client.close(slot.session)

    def _reference(self, frames) -> PipelineResult:
        return self.spec.build_pipeline().run_stream(iter(frames))

    def check(self, perturb: bool = False) -> tuple[bool, int]:
        served = self.first_full[0]
        reference = self._reference(self.pool[0].frames[: self.length])
        if perturb:
            served = _perturb(served)
        return results_identical(served, reference), self.length

    def _estimates(self, result: PipelineResult) -> np.ndarray:
        raise NotImplementedError

    def accuracy(self) -> Accuracy:
        acc = Accuracy()
        for r in range(self.scored):
            result, rec = self.first_full[r], self.pool[r]
            times = result.frame_times_s
            truths = np.stack([
                surface_truth(walk, body, times,
                              np.random.default_rng(self.key(r) + [2, p]))
                for p, (walk, body) in enumerate(zip(rec.walks, rec.bodies))
            ])
            acc.add(truths, self._estimates(result))
        return acc


class MultiChurn(ChurnReplay):
    """K-person sessions over the fused track-bank tick, with churn."""

    name = "multi_churn"

    def build(self) -> None:
        self.spec = multi_session(
            self.config, self.range_bin_m,
            max_people=self.scale.people, room=self.room,
        )
        super().build()

    def _synthesize(self) -> list[Recording]:
        return [self._record(r) for r in range(self.scale.pool)]

    def _record(self, r: int) -> Recording:
        k = self.scale.people
        rng = np.random.default_rng(self.key(r))
        bodies = sample_population(rng, count=11)[:k]
        walks = non_colliding_walks(
            self.room, rng, k, duration_s=self.scale.record_s,
            min_separation_m=1.0,
        )
        out = MultiScenario(
            list(zip(bodies, walks)), room=self.room, config=self.config,
            seed=self.scenario_seed(r),
        ).run()
        spf = self.spf
        frames = [out.spectra[:, f * spf: (f + 1) * spf, :]
                  for f in range(out.num_sweeps // spf)]
        return Recording(frames, list(walks), list(bodies))

    def _estimates(self, result: PipelineResult) -> np.ndarray:
        return track_stack(result.tracks, len(result.frame_times_s))

    def births_per_session(self) -> float:
        return float(np.mean([
            len({tid for frame in self.first_full[r].tracks
                 for tid, _ in frame})
            for r in range(self.scored)
        ]))


class ShardChurn(ChurnReplay):
    """Single-person churn on a one-worker sharded engine."""

    name = "shard_churn"
    workers = 1
    # The lockstep loop leaves parent and worker nothing to overlap, and
    # on a shared host their cross-CPU wake-ups made served_fps spread
    # 0.39 of its median over ten seeds (latency p99: 0.66); on one CPU
    # the same host gave ~0.08.
    one_cpu = True

    def build(self) -> None:
        self.spec = single_session(self.config, self.range_bin_m)
        super().build()

    def _synthesize(self) -> list[Recording]:
        scenarios = [self.scenario(r, self.scale.record_s)
                     for r in range(self.scale.pool)]
        frames: list[list] = [[] for _ in scenarios]
        for step in CohortFrameSource(scenarios).ticks():
            for k, block in enumerate(step):
                frames[k].append(block)
        return [
            Recording(f, [s.trajectory], [s.body])
            for f, s in zip(frames, scenarios)
        ]

    def _reference(self, frames) -> PipelineResult:
        # The same session served in-process, one frame per tick.
        with ServingEngine() as engine:
            session = engine.admit(self.spec)
            for block in frames:
                engine.offer(session, block)
                engine.tick()
            return engine.close(session)

    def _estimates(self, result: PipelineResult) -> np.ndarray:
        return result.positions[None]


WORKLOADS = {cls.name: cls for cls in (SingleSynth, MultiChurn, ShardChurn)}
